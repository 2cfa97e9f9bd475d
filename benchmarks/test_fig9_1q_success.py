"""Regenerates paper Figure 9: success rate, TriQ-N vs TriQ-1QOpt.

Paper shape: modest but consistent success gains from 1Q coalescing
(up to 1.26x; geomean 1.09x IBM, 1.03x UMDTI), with UMDTI success high
across the board.
"""

from conftest import emit
from repro.experiments import fig9_success


def test_fig9_success_rates(benchmark):
    results = benchmark.pedantic(
        fig9_success.run, kwargs={"fault_samples": 60}, rounds=1, iterations=1
    )
    emit(fig9_success.format_result(results))
    by_device = {r.device: r for r in results}

    ibm = by_device["IBM Q14 Melbourne"]
    umd = by_device["UMD Trapped Ion"]

    # 1Q optimization helps on aggregate (over non-failed runs; the
    # paper's geomeans are 1.09x IBM / 1.03x UMDTI).
    assert ibm.geomean_improvement > 1.0
    assert umd.geomean_improvement > 0.98
    assert ibm.max_improvement < 4.0
    # The large default-mapped BV circuits fail on IBMQ14 under both
    # configurations (the paper's zero-height bars).
    assert "BV8" in ibm.failed

    # UMDTI's low error rates: every fitting benchmark succeeds well.
    assert min(umd.success_opt) > 0.5
    # IBMQ14 in contrast fails some large benchmarks outright.
    assert min(ibm.success_opt) < 0.2
