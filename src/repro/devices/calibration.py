"""Calibration data: error rates per gate, and their synthetic drift.

The paper reads daily calibration feeds from the vendors (Figure 3 shows
2Q error rates on IBMQ14 varying ~9x across qubits and days).  We have
no hardware feed, so :class:`CalibrationModel` generates statistically
matched snapshots: per-edge/per-qubit rates are drawn log-normally around
the device's published averages (paper Figure 1), and day-to-day drift is
a mean-reverting multiplicative random walk.  Spread parameters are per
technology: wide for lithographically manufactured superconducting
qubits, narrow (1-3 %) for trapped ions (paper section 3.3).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

import numpy as np

Edge = FrozenSet[int]

#: Snapshots each :class:`CalibrationModel` memoizes, oldest dropped
#: first: a 120-day calibration window fits, and a long-lived service
#: that sees a fresh day per cold request stays bounded.
SNAPSHOT_MEMO_DAYS = 128

#: Error rates are probabilities; clamp away from the degenerate ends.
_MIN_ERROR = 1e-5
_MAX_ERROR = 0.75


def _clamp(rate: float) -> float:
    return min(max(rate, _MIN_ERROR), _MAX_ERROR)


class CalibrationError(ValueError):
    """Calibration data failed validation (NaN/negative/out-of-range).

    Raised at the boundaries — config loading, sweep start — so a
    corrupt calibration feed fails with a precise message instead of
    poisoning reliability matrices deep inside a compile.
    """


def _rate_problem(label: str, rate) -> Optional[str]:
    """Why ``rate`` is not a valid error probability, or None if it is."""
    if isinstance(rate, bool) or not isinstance(rate, (int, float)):
        return f"{label} is {rate!r} (not a number)"
    if not math.isfinite(rate):
        return f"{label} is {rate!r} (must be finite)"
    if rate < 0.0:
        return f"{label} is {rate!r} (negative error rate)"
    if rate > 1.0:
        return f"{label} is {rate!r} (error rates are probabilities in [0, 1])"
    return None


@dataclass(frozen=True)
class Calibration:
    """One snapshot of a device's measured error rates.

    All rates are probabilities in [0, 1).  2Q rates are keyed by the
    undirected hardware edge.
    """

    two_qubit_error: Dict[Edge, float]
    single_qubit_error: Dict[int, float]
    readout_error: Dict[int, float]
    day: int = 0

    def edge_error(self, a: int, b: int) -> float:
        """2Q error rate of the hardware edge {a, b}."""
        try:
            return self.two_qubit_error[frozenset((a, b))]
        except KeyError:
            raise KeyError(
                f"no calibrated 2Q gate between qubits {a} and {b}"
            ) from None

    def edge_reliability(self, a: int, b: int) -> float:
        """Success probability of the 2Q gate on edge {a, b}."""
        return 1.0 - self.edge_error(a, b)

    def qubit_error(self, q: int) -> float:
        return self.single_qubit_error[q]

    def qubit_reliability(self, q: int) -> float:
        return 1.0 - self.single_qubit_error[q]

    def readout_reliability(self, q: int) -> float:
        return 1.0 - self.readout_error[q]

    def validate(self) -> "Calibration":
        """Check every rate is a finite probability in [0, 1].

        Returns ``self`` so the call chains; raises
        :class:`CalibrationError` naming *every* offending gate — a
        corrupt feed usually corrupts many rates, and one precise error
        beats an iterated whack-a-mole.
        """
        rates = [
            (f"2Q error on edge {tuple(sorted(edge))}", rate)
            for edge, rate in sorted(
                self.two_qubit_error.items(), key=lambda item: sorted(item[0])
            )
        ]
        for kind, table in (("1Q", self.single_qubit_error),
                            ("readout", self.readout_error)):
            rates += [
                (f"{kind} error on qubit {qubit}", rate)
                for qubit, rate in sorted(table.items())
            ]
        problems = [p for p in (_rate_problem(*r) for r in rates) if p]
        if problems:
            raise CalibrationError(
                f"calibration for day {self.day} is invalid: "
                + "; ".join(problems)
            )
        return self

    # ------------------------------------------------------------------
    # Aggregates (used by noise-unaware compilation, paper section 4.2)
    # ------------------------------------------------------------------
    def average_two_qubit_error(self) -> float:
        return float(np.mean(list(self.two_qubit_error.values())))

    def average_single_qubit_error(self) -> float:
        return float(np.mean(list(self.single_qubit_error.values())))

    def average_readout_error(self) -> float:
        return float(np.mean(list(self.readout_error.values())))

    def uniform(self) -> "Calibration":
        """Noise-blinded copy: every rate replaced by its average.

        This is what TriQ-1QOptC compiles against — topology information
        survives, noise variation does not (paper Table 1).
        """
        avg2 = self.average_two_qubit_error()
        avg1 = self.average_single_qubit_error()
        avg_ro = self.average_readout_error()
        return Calibration(
            two_qubit_error={e: avg2 for e in self.two_qubit_error},
            single_qubit_error={q: avg1 for q in self.single_qubit_error},
            readout_error={q: avg_ro for q in self.readout_error},
            day=self.day,
        )

    def spread_factor(self) -> float:
        """Max/min ratio of 2Q error rates (paper quotes up to 9x)."""
        rates = list(self.two_qubit_error.values())
        return max(rates) / min(rates)


@dataclass
class CalibrationModel:
    """Generator of calibration snapshots with spatial spread and drift.

    Args:
        edges: hardware edges to calibrate.
        num_qubits: number of hardware qubits.
        mean_two_qubit_error: device-average 2Q error (paper Figure 1).
        mean_single_qubit_error: device-average 1Q error.
        mean_readout_error: device-average readout error.
        spatial_sigma: log-normal sigma of the per-edge/per-qubit spread.
            ~0.55 makes the 2Q max/min ratio across a 18-edge device land
            in the 5-10x band the paper reports for superconducting
            machines; trapped ion uses ~0.05 (1-3 % fluctuation).
        drift_sigma: log-std of the daily multiplicative drift.
        drift_reversion: pull toward each gate's own baseline per day,
            in [0, 1]; keeps multi-week series stationary like Figure 3.
        seed: RNG seed, so devices are reproducible.
    """

    edges: List[Edge]
    num_qubits: int
    mean_two_qubit_error: float
    mean_single_qubit_error: float
    mean_readout_error: float
    spatial_sigma: float = 0.55
    drift_sigma: float = 0.25
    drift_reversion: float = 0.35
    seed: int = 0

    def __post_init__(self) -> None:
        for label, mean in (
            ("mean_two_qubit_error", self.mean_two_qubit_error),
            ("mean_single_qubit_error", self.mean_single_qubit_error),
            ("mean_readout_error", self.mean_readout_error),
        ):
            if not (isinstance(mean, (int, float)) and math.isfinite(mean)):
                raise CalibrationError(f"{label} is {mean!r} (must be finite)")
            if mean <= 0.0 or mean > 1.0:
                raise CalibrationError(
                    f"{label} is {mean!r} (must be a probability in (0, 1])"
                )
        for label, sigma in (
            ("spatial_sigma", self.spatial_sigma),
            ("drift_sigma", self.drift_sigma),
        ):
            if not (math.isfinite(sigma) and sigma >= 0.0):
                raise CalibrationError(
                    f"{label} is {sigma!r} (must be a finite non-negative "
                    "spread)"
                )
        rng = np.random.default_rng(self.seed)
        # Baseline (persistent, per-gate) rates.  The log-normal is
        # re-centred so the arithmetic mean matches the published average.
        self._base_2q = {
            e: _clamp(self._lognormal(rng, self.mean_two_qubit_error))
            for e in self.edges
        }
        self._base_1q = {
            q: _clamp(self._lognormal(rng, self.mean_single_qubit_error))
            for q in range(self.num_qubits)
        }
        self._base_ro = {
            q: _clamp(self._lognormal(rng, self.mean_readout_error))
            for q in range(self.num_qubits)
        }
        self._snapshots: "OrderedDict[int, Calibration]" = OrderedDict()

    def _lognormal(self, rng: np.random.Generator, mean: float) -> float:
        sigma = self.spatial_sigma
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2) == mean.
        mu = math.log(mean) - sigma * sigma / 2.0
        return float(rng.lognormal(mu, sigma))

    def snapshot(self, day: int = 0) -> Calibration:
        """The calibration for a given day.

        Deterministic in (seed, day): re-reading the same day gives the
        same (shared, read-only) snapshot, as a cached vendor feed
        would.  Racing first reads may each draw it; the draws are equal.
        """
        cached = self._snapshots.get(day)
        if cached is None:
            cached = self._snapshots[day] = self._draw(day)
            if len(self._snapshots) > SNAPSHOT_MEMO_DAYS:
                self._snapshots.popitem(last=False)
        return cached

    def _draw(self, day: int) -> Calibration:
        rng = np.random.default_rng((self.seed + 1) * 1_000_003 + day)

        def drift(base: float) -> float:
            # Mean-reverting multiplicative noise around the baseline.
            shock = rng.normal(0.0, self.drift_sigma)
            pulled = (1.0 - self.drift_reversion) * shock
            return _clamp(base * math.exp(pulled))

        return Calibration(
            two_qubit_error={e: drift(r) for e, r in self._base_2q.items()},
            single_qubit_error={q: drift(r) for q, r in self._base_1q.items()},
            readout_error={q: drift(r) for q, r in self._base_ro.items()},
            day=day,
        )

    def series(self, days: int) -> List[Calibration]:
        """Snapshots for days 0..days-1 (Figure 3 style time series)."""
        return [self.snapshot(day) for day in range(days)]
