"""Device configuration files: machines as data, not code.

TriQ's central design point is that device-specific attributes —
topology, gate set, noise data — are *inputs* to a portable toolflow
(paper Figure 4).  This module serializes a :class:`Device` to a plain
dictionary / JSON document and back, so new machines can be described in
configuration instead of Python:

.. code-block:: json

    {
      "name": "my 4q line",
      "vendor": "rigetti",
      "num_qubits": 4,
      "edges": [[0, 1], [1, 2], [2, 3]],
      "directed": false,
      "coherence_time_us": 20.0,
      "calibration": {
        "two_qubit_error": {"0-1": 0.05, "1-2": 0.06, "2-3": 0.05},
        "single_qubit_error": [0.002, 0.002, 0.003, 0.002],
        "readout_error": [0.03, 0.04, 0.03, 0.03]
      }
    }

Devices loaded from config carry a static calibration snapshot (the
common case for user-provided machines); the synthetic drift models of
:mod:`repro.devices.library` remain code because they are generators,
not data.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.devices.calibration import Calibration
from repro.devices.device import Device
from repro.devices.gatesets import GATESET_BY_FAMILY, VendorFamily
from repro.devices.library import StaticCalibrationModel
from repro.devices.topology import Topology
from repro.durable import atomic_write


def _edge_key(a: int, b: int) -> str:
    lo, hi = sorted((a, b))
    return f"{lo}-{hi}"


def device_to_dict(device: Device, day: int = 0) -> Dict[str, Any]:
    """Serialize a device (with one calibration snapshot) to plain data."""
    calibration = device.calibration(day)
    topology = device.topology
    if topology.directed:
        edges = sorted(
            [list(pair) for pair in topology._hardware_directions]
        )
    else:
        edges = sorted(sorted(e) for e in topology.edges())
    return {
        "name": device.name,
        "vendor": device.vendor.value,
        "num_qubits": device.num_qubits,
        "edges": edges,
        "directed": topology.directed,
        "coherence_time_us": device.coherence_time_us,
        "gate_time_us": device.gate_time_us,
        "calibration": {
            "two_qubit_error": {
                _edge_key(*sorted(edge)): rate
                for edge, rate in sorted(
                    calibration.two_qubit_error.items(),
                    key=lambda item: sorted(item[0]),
                )
            },
            "single_qubit_error": [
                calibration.single_qubit_error[q]
                for q in range(device.num_qubits)
            ],
            "readout_error": [
                calibration.readout_error[q]
                for q in range(device.num_qubits)
            ],
        },
    }


def device_from_dict(data: Dict[str, Any]) -> Device:
    """Build a device from configuration data.

    Raises ``ValueError``/``KeyError`` with specific messages on
    malformed configs — these documents are usually hand-written.
    """
    try:
        name = data["name"]
        vendor = VendorFamily(data["vendor"])
        num_qubits = int(data["num_qubits"])
        edges = [tuple(edge) for edge in data["edges"]]
        calibration_data = data["calibration"]
    except KeyError as missing:
        raise KeyError(f"device config is missing key {missing}") from None
    except ValueError:
        known = ", ".join(f.value for f in VendorFamily)
        raise ValueError(
            f"unknown vendor {data.get('vendor')!r}; known: {known}"
        ) from None

    topology = Topology(
        num_qubits, edges, directed=bool(data.get("directed", False))
    )

    two_qubit_error = {}
    for key, rate in calibration_data["two_qubit_error"].items():
        a_text, _, b_text = key.partition("-")
        pair = frozenset((int(a_text), int(b_text)))
        two_qubit_error[pair] = float(rate)
    missing_edges = [
        e for e in topology.edges() if e not in two_qubit_error
    ]
    if missing_edges:
        raise ValueError(
            f"calibration missing 2Q error rates for edges "
            f"{sorted(tuple(sorted(e)) for e in missing_edges)}"
        )

    def _per_qubit(key: str) -> Dict[int, float]:
        values = calibration_data[key]
        if len(values) != num_qubits:
            raise ValueError(
                f"{key} must list {num_qubits} rates, got {len(values)}"
            )
        return {q: float(v) for q, v in enumerate(values)}

    calibration = Calibration(
        two_qubit_error=two_qubit_error,
        single_qubit_error=_per_qubit("single_qubit_error"),
        readout_error=_per_qubit("readout_error"),
    )
    # Reject NaN/negative/out-of-range rates here, at the boundary,
    # with the offending gates named (CalibrationError is a ValueError).
    calibration.validate()
    return Device(
        name=name,
        gate_set=GATESET_BY_FAMILY[vendor],
        topology=topology,
        calibration_model=StaticCalibrationModel(calibration),
        coherence_time_us=float(data.get("coherence_time_us", 100.0)),
        gate_time_us=float(data.get("gate_time_us", 0.3)),
    )


def device_to_json(device: Device, day: int = 0, indent: int = 2) -> str:
    """Serialize a device to a JSON string."""
    return json.dumps(device_to_dict(device, day), indent=indent)


def device_from_json(text: str) -> Device:
    """Load a device from a JSON string."""
    return device_from_dict(json.loads(text))


def load_device(path: str) -> Device:
    """Load a device from a JSON config file."""
    with open(path, "r", encoding="utf-8") as handle:
        return device_from_json(handle.read())


def save_device(device: Device, path: str, day: int = 0) -> None:
    """Write a device's config (with one calibration snapshot) to a file.

    The write is atomic (:func:`repro.durable.atomic_write`), so a
    killed process can never leave a torn config behind — readers see
    the old file or the new one, nothing between.
    """
    atomic_write(path, (device_to_json(device, day) + "\n").encode("utf-8"))
