"""Stable cache keys for compilation and simulation artifacts.

Keys must be identical across processes, interpreter runs, and machines
(``PYTHONHASHSEED`` varies per process, so ``hash()`` is useless here).
Every key is the SHA-256 digest of a canonical text encoding of the
underlying data:

* a circuit is its qubit count plus the ordered instruction list
  (name, qubits, params, cbits), with floats rendered by ``repr`` —
  Python's shortest round-trip representation, stable per value;
* a device is its name, the resolved calibration day, and the *content*
  of that day's calibration snapshot (per-edge 2Q, per-qubit 1Q and
  readout error rates), so a drifted calibration can never alias a
  cached artifact;
* compiler configuration is the level/baseline label plus the pipeline
  options that affect output.

``CACHE_SCHEMA_VERSION`` is mixed into every digest; bump it whenever
the pipeline or the artifact payload format changes meaning, and all
previously cached entries become silent misses.
"""

from __future__ import annotations

import hashlib
from typing import Any, Mapping, Optional

from repro.devices.device import Device
from repro.ir.circuit import Circuit

#: Bump to invalidate every existing cache entry at once.
CACHE_SCHEMA_VERSION = 1


#: Exact types whose values encode as their ``repr``; a sequence
#: renders such items inline instead of recursing (subclasses, such as
#: ``np.float64``, still go through :func:`_encode`).
_SCALARS = frozenset({type(None), bool, int, float, str})


def _encode(value: Any) -> str:
    """Canonical, order-stable text encoding of plain data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join([
            repr(v) if type(v) in _SCALARS else _encode(v) for v in value
        ]) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_encode(v) for v in value)) + "}"
    if isinstance(value, Mapping):
        items = sorted((_encode(k), _encode(v)) for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    raise TypeError(f"cannot encode {type(value).__name__!r} into a cache key")


def digest(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``parts``."""
    text = _encode([CACHE_SCHEMA_VERSION, *parts])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def circuit_fingerprint(circuit: Circuit) -> str:
    """Digest of the circuit *structure* (name excluded on purpose).

    The keys below read it through :attr:`Circuit.fingerprint`, which
    computes it once per circuit content."""
    return digest(
        "circuit",
        circuit.num_qubits,
        [
            (inst.name, inst.qubits, inst.params, inst.cbits)
            for inst in circuit
        ],
    )


def device_digest(device: Device) -> str:
    """Digest of the device identity plus its own day's calibration
    (memoized per device value as :attr:`Device.fingerprint`)."""
    calibration = device.calibration()
    return digest(
        "device",
        device.name,
        device.day,
        sorted(
            (tuple(sorted(edge)), rate)
            for edge, rate in calibration.two_qubit_error.items()
        ),
        sorted(calibration.single_qubit_error.items()),
        sorted(calibration.readout_error.items()),
    )


def device_fingerprint(device: Device, day: Optional[int] = None) -> str:
    """Digest of the device identity plus one day's calibration content."""
    return device.on_day(day).fingerprint


def compile_key(
    circuit: Circuit,
    device: Device,
    compiler_label: str,
    day: Optional[int] = None,
    options: Optional[Mapping[str, Any]] = None,
) -> str:
    """Key of one compiled-program artifact."""
    return "cp-" + digest(
        "compile",
        circuit.fingerprint,
        device_fingerprint(device, day),
        compiler_label,
        dict(options or {}),
    )


def reliability_key(
    device: Device, noise_aware: bool, day: Optional[int] = None
) -> str:
    """Key of one :func:`repro.compiler.reliability.compute_reliability`."""
    return "rm-" + digest(
        "reliability", device_fingerprint(device, day), noise_aware
    )


def warm_hint_key(
    circuit: Circuit,
    device: Device,
    level_label: str,
) -> str:
    """Key of a mapper warm-start hint (a previously solved placement).

    Deliberately excludes the calibration day *and* content — that is
    the point: a placement solved against one day's calibration is a
    strong starting incumbent for the same circuit on the same device
    under another day's calibration, where the compile key
    (:func:`compile_key`) necessarily misses.  The hint only ever seeds
    the solver's lower bound, so a stale hint can cost optimality
    nothing — it is re-scored against the current problem before use.
    """
    return "wh-" + digest(
        "warm-hint",
        circuit.fingerprint,
        device.name,
        level_label,
    )


def success_key(
    circuit: Circuit,
    device: Device,
    correct: str,
    day: Optional[int] = None,
    fault_samples: int = 0,
    seed: int = 0,
) -> str:
    """Key of one Monte-Carlo success estimate.

    The estimator is deterministic given its seed, so memoizing it is
    sound; the key covers everything that feeds the RNG and the model.
    """
    return "sr-" + digest(
        "success",
        circuit.fingerprint,
        device_fingerprint(device, day),
        correct,
        fault_samples,
        seed,
    )
