"""The :class:`Device` model: everything TriQ needs to target a machine."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from repro.devices.calibration import Calibration, CalibrationModel
from repro.devices.gatesets import GateSet, VendorFamily
from repro.devices.topology import Topology


def check_day(day: int) -> int:
    """``day`` if it is an ``int`` >= 0, else ValueError.  Every day a
    device is viewed or read on passes here, so the API, CLI and service
    fail alike; ``True`` would share day 1's snapshot, not its keys."""
    if isinstance(day, bool) or not isinstance(day, int) or day < 0:
        raise ValueError(f"day must be a non-negative integer, got {day!r}")
    return day


@dataclass(frozen=True)
class Device:
    """A QC machine on one calibration day (paper Figure 4's inputs).

    Frozen: :meth:`on_day` views share the machine's calibration model
    (which memoizes each day's snapshot) and each view computes its
    cache :attr:`fingerprint` once.

    Attributes:
        name: machine name, e.g. ``"IBM Q14 Melbourne"``.
        gate_set: the vendor software-visible interface.
        topology: coupling graph (directed for IBM).
        calibration_model: synthetic calibration feed for this machine.
        coherence_time_us: representative coherence time (paper Figure 1).
        gate_time_us: rough duration of one 2Q gate, for the optional
            coherence-limit factor in the simulator.
        day: which calibration day the device reports.
    """

    name: str
    gate_set: GateSet
    topology: Topology
    calibration_model: CalibrationModel
    coherence_time_us: float
    gate_time_us: float = 0.3
    day: int = 0

    def __post_init__(self) -> None:
        check_day(self.day)

    @property
    def num_qubits(self) -> int:
        return self.topology.num_qubits

    @property
    def vendor(self) -> VendorFamily:
        return self.gate_set.family

    @property
    def technology(self) -> str:
        """Qubit implementation technology."""
        if self.vendor is VendorFamily.UMDTI:
            return "trapped ion"
        return "superconducting"

    def calibration(self, day: Optional[int] = None) -> Calibration:
        """The calibration snapshot for ``day`` (default: this view's day)."""
        return self.calibration_model.snapshot(
            self.day if day is None else check_day(day)
        )

    def on_day(self, day: Optional[int]) -> "Device":
        """This machine as calibrated on ``day`` (None: this view)."""
        if day is None or check_day(day) == self.day:
            return self
        return replace(self, day=day)

    @cached_property
    def fingerprint(self) -> str:
        """Cache-key digest of this machine on its own day (computed once)."""
        from repro.cache.keys import device_digest  # imports this module

        return device_digest(self)

    def describe(self) -> str:
        """One-line summary in the style of paper Figure 1."""
        cal = self.calibration()
        return (
            f"{self.name}: {self.num_qubits} qubits, "
            f"{self.topology.num_edges()} 2Q gates, "
            f"{self.technology}, "
            f"coherence {self.coherence_time_us:g} us, "
            f"avg errors 1Q {100 * cal.average_single_qubit_error():.2f}% / "
            f"2Q {100 * cal.average_two_qubit_error():.2f}% / "
            f"RO {100 * cal.average_readout_error():.2f}%"
        )
