"""Shared helper utilities for the test suite.

Also home to the per-test wall-clock guard used by *both* pytest
harnesses in this repo — ``tests/conftest.py`` and
``benchmarks/conftest.py`` wrap every test in :func:`alarm_timeout`, so
a hung test (deadlocked pool, stuck queue, runaway solve) fails loudly
instead of wedging CI.
"""

from __future__ import annotations

import os
import signal
import threading
from contextlib import contextmanager
from typing import Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.devices import Device, Topology
from repro.devices.calibration import Calibration
from repro.devices.gatesets import GATESET_BY_FAMILY, VendorFamily
from repro.devices.library import StaticCalibrationModel


#: Environment variable overriding the per-test wall-clock budget
#: (seconds; 0 disables the guard).
TEST_TIMEOUT_ENV = "REPRO_TEST_TIMEOUT_S"

#: Default per-test budget when the environment does not say otherwise.
DEFAULT_TEST_TIMEOUT_S = 180.0


def test_timeout_s() -> float:
    """The configured per-test wall-clock budget in seconds."""
    return float(os.environ.get(TEST_TIMEOUT_ENV, str(DEFAULT_TEST_TIMEOUT_S)))


def alarm_usable(timeout_s: float) -> bool:
    """Whether a SIGALRM-based timeout can work here.

    Requires a positive budget, a platform with ``SIGALRM``, and the
    main thread (signal handlers only fire there).
    """
    return (
        timeout_s > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def alarm_timeout(timeout_s: Optional[float] = None) -> Iterator[None]:
    """Raise ``TimeoutError`` if the body outlives its wall-clock budget.

    ``timeout_s=None`` reads the budget from ``$REPRO_TEST_TIMEOUT_S``
    (default 180 s).  Degrades to a no-op off the main thread or on
    platforms without ``SIGALRM``; the previous handler and any pending
    itimer are always restored.
    """
    budget = test_timeout_s() if timeout_s is None else timeout_s
    if not alarm_usable(budget):
        yield
        return

    def _timed_out(signum, frame):
        raise TimeoutError(
            f"test exceeded the {budget:.0f}s global timeout "
            f"(set {TEST_TIMEOUT_ENV} to adjust, 0 to disable)"
        )

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def make_device(
    topology: Topology,
    family: VendorFamily = VendorFamily.IBM,
    two_qubit_error: float = 0.05,
    single_qubit_error: float = 0.002,
    readout_error: float = 0.03,
    name: str = "test device",
    edge_errors: Optional[Mapping[Tuple[int, int], float]] = None,
    readout_errors: Optional[Mapping[int, float]] = None,
) -> Device:
    """A device with uniform, hand-set error rates.

    ``edge_errors`` (``{(a, b): rate}``) and ``readout_errors``
    (``{qubit: rate}``) override single gates on top of the uniform
    rates, so tests build the device they mean instead of editing a
    calibration snapshot that other readers share.
    """
    two_qubit = {e: two_qubit_error for e in topology.edges()}
    for (a, b), rate in (edge_errors or {}).items():
        two_qubit[frozenset((a, b))] = rate
    readout = {q: readout_error for q in range(topology.num_qubits)}
    readout.update(readout_errors or {})
    calibration = Calibration(
        two_qubit_error=two_qubit,
        single_qubit_error={
            q: single_qubit_error for q in range(topology.num_qubits)
        },
        readout_error=readout,
    )
    return Device(
        name=name,
        gate_set=GATESET_BY_FAMILY[family],
        topology=topology,
        calibration_model=StaticCalibrationModel(calibration),
        coherence_time_us=100.0,
    )


def make_noiseless_device(
    topology: Topology, family: VendorFamily = VendorFamily.IBM
) -> Device:
    """A device whose gates essentially never fail."""
    return make_device(
        topology,
        family,
        two_qubit_error=1e-5,
        single_qubit_error=1e-5,
        readout_error=1e-5,
        name="noiseless device",
    )


def assert_equal_up_to_phase(
    actual: np.ndarray, expected: np.ndarray, atol: float = 1e-8
) -> None:
    """Assert two unitaries are equal up to a global phase."""
    idx = np.unravel_index(np.argmax(np.abs(expected)), expected.shape)
    assert abs(expected[idx]) > 1e-12, "expected matrix is zero"
    phase = actual[idx] / expected[idx]
    assert abs(abs(phase) - 1.0) < 1e-6, (
        f"matrices differ in magnitude: |phase| = {abs(phase)}"
    )
    np.testing.assert_allclose(actual, phase * expected, atol=atol)


