"""The seven machines of the study, plus auxiliary devices.

Topology shapes and average error rates follow paper Figure 1; IBM
coupling maps follow the published backend descriptions (Tenerife,
Melbourne, Rueschlikon), Rigetti Aspen is the standard two-octagon
lattice, and Agave exposes the 4-qubit line that was available during
the study.  Per-gate calibration detail is synthesized by
:class:`~repro.devices.calibration.CalibrationModel` (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache, wraps
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.devices.calibration import Calibration, CalibrationModel
from repro.devices.device import Device
from repro.devices.gatesets import (
    GATESET_BY_FAMILY,
    VendorFamily,
)
from repro.devices.topology import Topology


class StaticCalibrationModel:
    """A calibration feed that reports the same snapshot every day.

    Used for textbook devices with hand-specified reliabilities, such as
    the 8-qubit example of paper Figure 6.
    """

    def __init__(self, calibration: Calibration) -> None:
        self._calibration = calibration

    def snapshot(self, day: int = 0) -> Calibration:
        return replace(self._calibration, day=day)


#: ``(spatial_sigma, drift_sigma, drift_reversion)`` of a
#: :class:`CalibrationModel`.  Superconducting: a wide log-normal spread
#: that reproduces the up-to-9x variation across qubits and calibration
#: days reported in paper section 3.3.
_SUPERCONDUCTING_SPREAD = (0.34, 0.12, 0.35)

#: Ion qubits are identical and defect-free, but laser-control
#: difficulty and motional-mode drift move 2Q error rates by 1-3
#: percentage points around the ~1% mean (paper sections 3.3, 6.3) —
#: small in absolute terms, large relative to the mean, which is why
#: noise-adaptivity still pays on this machine (Figure 11e, f).
_TRAPPED_ION_SPREAD = (0.45, 0.10, 0.5)


def _machine(
    name: str,
    family: VendorFamily,
    topology: Topology,
    mean_errors: Tuple[float, float, float],
    seed: int,
    coherence_time_us: float,
    gate_time_us: float = 0.3,
    day: int = 0,
    spread: Tuple[float, float, float] = _SUPERCONDUCTING_SPREAD,
) -> Device:
    """A device whose calibration draws around ``mean_errors`` (2Q, 1Q
    and readout averages, paper Figure 1) with the given ``spread``."""
    mean_2q, mean_1q, mean_ro = mean_errors
    spatial_sigma, drift_sigma, drift_reversion = spread
    return Device(
        name=name,
        gate_set=GATESET_BY_FAMILY[family],
        topology=topology,
        calibration_model=CalibrationModel(
            edges=topology.edges(),
            num_qubits=topology.num_qubits,
            mean_two_qubit_error=mean_2q,
            mean_single_qubit_error=mean_1q,
            mean_readout_error=mean_ro,
            spatial_sigma=spatial_sigma,
            drift_sigma=drift_sigma,
            drift_reversion=drift_reversion,
            seed=seed,
        ),
        coherence_time_us=coherence_time_us,
        gate_time_us=gate_time_us,
        day=day,
    )


def _study_machine(build: Callable[[], Device]) -> Callable[..., Device]:
    """Build a study machine once per process; calls return day views.

    The wrapper keeps the public ``(day=0)`` signature and returns
    :meth:`Device.on_day` views of the one frozen day-0 build.
    """
    machine = lru_cache(maxsize=None)(build)

    @wraps(build)
    def on_day(day: int = 0) -> Device:
        return machine().on_day(day)

    del on_day.__wrapped__  # introspection shows (day=0), not build's ()
    return on_day


@_study_machine
def ibmq5_tenerife() -> Device:
    """IBM Q5 Tenerife: 5 qubits, 6 directed couplings, triangle + tail."""
    topology = Topology(
        5,
        [(1, 0), (2, 0), (2, 1), (3, 2), (3, 4), (4, 2)],
        directed=True,
    )
    return _machine(
        "IBM Q5 Tenerife", VendorFamily.IBM, topology, (0.0476, 0.002, 0.0621),
        seed=5, coherence_time_us=40.0,
    )


@_study_machine
def ibmq14_melbourne() -> Device:
    """IBM Q14 Melbourne: 14 qubits, 18 directed couplings, 2x7 ladder."""
    topology = Topology(
        14,
        [
            (1, 0), (1, 2), (2, 3), (4, 3), (4, 10), (5, 4),
            (5, 6), (5, 9), (6, 8), (7, 8), (9, 8), (9, 10),
            (11, 3), (11, 10), (11, 12), (12, 2), (13, 1), (13, 12),
        ],
        directed=True,
    )
    return _machine(
        "IBM Q14 Melbourne", VendorFamily.IBM, topology,
        (0.0795, 0.0119, 0.0909), seed=14, coherence_time_us=30.0,
    )


@_study_machine
def ibmq16_rueschlikon() -> Device:
    """IBM Q16 Rueschlikon: 16 qubits, 22 directed couplings, 2x8 ladder."""
    topology = Topology(
        16,
        [
            (1, 0), (1, 2), (2, 3), (3, 4), (3, 14), (5, 4),
            (6, 5), (6, 7), (6, 11), (7, 10), (8, 7), (9, 8),
            (9, 10), (11, 10), (12, 5), (12, 11), (12, 13), (13, 4),
            (13, 14), (15, 0), (15, 2), (15, 14),
        ],
        directed=True,
    )
    return _machine(
        "IBM Q16 Rueschlikon", VendorFamily.IBM, topology,
        (0.0714, 0.0022, 0.0415), seed=16, coherence_time_us=40.0,
    )


@_study_machine
def rigetti_agave() -> Device:
    """Rigetti Agave: 8-qubit ring of which 4 qubits (a line) were usable."""
    topology = Topology.line(4)
    return _machine(
        "Rigetti Agave", VendorFamily.RIGETTI, topology,
        (0.108, 0.0368, 0.1637), seed=81, coherence_time_us=15.0,
        gate_time_us=0.2,
    )


def _aspen_topology() -> Topology:
    """Two octagons joined by two rungs (standard Aspen lattice)."""
    edges = [(i, (i + 1) % 8) for i in range(8)]
    edges += [(8 + i, 8 + (i + 1) % 8) for i in range(8)]
    edges += [(1, 14), (2, 13)]
    return Topology(16, edges)


@_study_machine
def rigetti_aspen1() -> Device:
    """Rigetti Aspen-1: 16 qubits, 18 couplings."""
    topology = _aspen_topology()
    return _machine(
        "Rigetti Aspen1", VendorFamily.RIGETTI, topology,
        (0.0892, 0.0343, 0.0556), seed=82, coherence_time_us=20.0,
        gate_time_us=0.2,
    )


@_study_machine
def rigetti_aspen3() -> Device:
    """Rigetti Aspen-3: same lattice as Aspen-1, better gates."""
    topology = _aspen_topology()
    return _machine(
        "Rigetti Aspen3", VendorFamily.RIGETTI, topology,
        (0.0537, 0.0379, 0.0665), seed=83, coherence_time_us=20.0,
        gate_time_us=0.2,
    )


@_study_machine
def umd_trapped_ion() -> Device:
    """UMD trapped ion (UMDTI): 5 fully connected ions."""
    topology = Topology.full(5)
    return _machine(
        "UMD Trapped Ion", VendorFamily.UMDTI, topology, (0.010, 0.002, 0.006),
        seed=135, coherence_time_us=1.5e6, gate_time_us=250.0,
        spread=_TRAPPED_ION_SPREAD,
    )


def all_devices(day: int = 0) -> List[Device]:
    """The seven study machines' ``day`` views, in paper Figure 1 order."""
    return [
        ibmq5_tenerife(day),
        ibmq14_melbourne(day),
        ibmq16_rueschlikon(day),
        rigetti_agave(day),
        rigetti_aspen1(day),
        rigetti_aspen3(day),
        umd_trapped_ion(day),
    ]


def device_by_name(name: str, day: int = 0) -> Device:
    """Look a study device up by (case-insensitive, partial) name.

    Returns the ``day`` view of the process's one build of that machine:
    lookups construct nothing but the view, and every view of a machine
    shares its memoized calibration snapshots.  Raises ``KeyError``
    listing the known names, or ``ValueError`` for a bad ``day``.
    """
    devices = all_devices()
    wanted = name.lower().replace(" ", "")
    for device in devices:
        if wanted in device.name.lower().replace(" ", ""):
            return device.on_day(day)
    known = ", ".join(d.name for d in devices)
    raise KeyError(f"unknown device {name!r}; known devices: {known}")


def example_8q_device() -> Device:
    """The 8-qubit example of paper Figure 6, with its exact reliabilities.

    Qubits 0-3 on the top row, 4-7 on the bottom; edge reliabilities as
    labelled in Figure 6(a).
    """
    reliability: Dict[FrozenSet[int], float] = {
        frozenset((0, 1)): 0.9,
        frozenset((1, 2)): 0.8,
        frozenset((2, 3)): 0.9,
        frozenset((4, 5)): 0.9,
        frozenset((5, 6)): 0.8,
        frozenset((6, 7)): 0.9,
        frozenset((0, 4)): 0.9,
        frozenset((1, 5)): 0.9,
        frozenset((2, 6)): 0.7,
        frozenset((3, 7)): 0.8,
    }
    topology = Topology(8, [tuple(sorted(e)) for e in reliability])
    calibration = Calibration(
        two_qubit_error={e: 1.0 - r for e, r in reliability.items()},
        single_qubit_error={q: 0.001 for q in range(8)},
        readout_error={q: 0.02 for q in range(8)},
    )
    return Device(
        name="Example 8Q (paper Fig. 6)",
        gate_set=GATESET_BY_FAMILY[VendorFamily.IBM],
        topology=topology,
        calibration_model=StaticCalibrationModel(calibration),
        coherence_time_us=40.0,
    )


def synthetic_grid(
    rows: int, cols: int, day: int = 0, seed: Optional[int] = None
) -> Device:
    """A synthetic ``rows x cols`` grid device for mapper scaling work.

    Same IBM-style calibration family as :func:`google_bristlecone_72`
    (the paper's methodology: error rates sampled from IBM calibration
    history), parameterized by size so the 50/72/100-qubit scale suite
    and the ROADMAP's larger synthetic families share one builder.  The
    default seed is the qubit count, making each size a stable, distinct
    machine.
    """
    topology = Topology.grid(rows, cols)
    if seed is None:
        seed = topology.num_qubits
    return _machine(
        f"Synthetic Grid {rows}x{cols}", VendorFamily.IBM, topology,
        (0.0714, 0.0022, 0.0415), seed=seed, coherence_time_us=40.0, day=day,
    )


def google_bristlecone_72(day: int = 0, seed: int = 72) -> Device:
    """A 72-qubit Bristlecone-style grid, for the scaling study (paper 6.5).

    The paper assigned error rates by sampling IBM calibration history;
    we give the grid an IBM-style calibration model.
    """
    return replace(
        synthetic_grid(6, 12, day=day, seed=seed), name="Google Bristlecone 72"
    )
