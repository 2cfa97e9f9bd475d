"""Statistics, layer timers and process helpers shared by the workloads."""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, Mapping, Sequence

#: BLAS/OpenMP threads per process.  Fixed (and no higher than the
#: 2-core machine the bounds were fitted on) so that both commits of a
#: comparison run the simulator with the same parallelism; pool workers
#: inherit it through the environment.
BLAS_THREADS = 1
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (listed in .gitignore); every run
#: removes what it created there.
WORK = ROOT / ".perfbench-work"


def pin_threads() -> Dict[str, str]:
    """Set the thread-count environment before numpy is imported."""
    for name in THREAD_ENV:
        os.environ[name] = str(BLAS_THREADS)
    return {name: os.environ[name] for name in THREAD_ENV}


def workers() -> int:
    """Process-pool / connection width: at most two, at most ``nproc``."""
    return max(1, min(2, os.cpu_count() or 1))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method, as ``quantiles``)."""
    if len(values) == 1:
        return float(values[0])
    return float(
        statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    )


def samples_beyond(count: int, pct: int) -> int:
    """How many of ``count`` samples lie above the ``pct``-th percentile.

    Every workload is sized so that p95 has at least 10 (200+ ops per
    run); each run prints the count.
    """
    return int(count * (100 - pct) / 100)


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


def per_input_geomean(samples: Mapping[object, Sequence[float]]) -> float:
    """Geometric mean over inputs of each input's median sample."""
    return geomean(median(v) for v in samples.values())


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MB (Linux reports KiB).

    Of this process, or with ``children`` the larger of it and the
    largest child that has ended and been waited for (pool workers).
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


class Layers:
    """Busy time and counts per layer, timed around public-API calls.

    Every timed call is a direct call from the benchmark into one
    layer, and the calls never nest, so each layer's busy time is its
    self time.
    """

    def __init__(self) -> None:
        self.busy_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    def call(self, layer: str, fn, *args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.busy_s[layer] += time.perf_counter() - started

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount
