"""Noisy quantum-circuit simulation: the repo's stand-in for hardware.

The paper measures *success rate* — the fraction of repeated trials on a
real machine that return the correct answer — on seven QC prototypes.
This package substitutes a dense state-vector simulator with
calibration-driven noise:

* :mod:`repro.sim.statevector` — the scalar reference engine, the
  oracle the batched engine is checked against,
* :mod:`repro.sim.noise` — per-gate depolarizing (random Pauli) fault
  injection driven by a device calibration, plus readout confusion,
* :mod:`repro.sim.plan` — the one validated, compacted setup
  (:class:`~repro.sim.plan.SimulationPlan`) every estimator below, the
  apps' noisy evaluations and ``ideal_distribution`` start from,
* :mod:`repro.sim.success` — Monte-Carlo success-rate estimation over
  fault configurations, with the analytic ESP (estimated success
  probability) model as a fast cross-check,
* :mod:`repro.sim.density` — exact density-matrix evolution under the
  same noise model, the oracle the Monte-Carlo estimator is checked
  against,
* :mod:`repro.sim.trajectories` — shot-by-shot sampling of raw counts,
  the closest emulation of the hardware protocol.

See DESIGN.md for why this substitution preserves the paper's
conclusions (compiler configs are ranked by accumulated gate/readout
error, which the model reproduces by construction).
"""

from repro.sim.statevector import (
    apply_instruction,
    simulate_statevector,
    circuit_unitary,
)
from repro.sim.plan import ideal_distribution
from repro.sim.noise import NoiseModel, PauliFault
from repro.sim.success import (
    SuccessEstimate,
    coherence_survival,
    estimated_success_probability,
    monte_carlo_success_rate,
)

__all__ = [
    "apply_instruction",
    "simulate_statevector",
    "circuit_unitary",
    "ideal_distribution",
    "NoiseModel",
    "PauliFault",
    "SuccessEstimate",
    "coherence_survival",
    "estimated_success_probability",
    "monte_carlo_success_rate",
]
