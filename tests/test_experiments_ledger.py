"""Tests for the cell ledger every sweep executor settles cells through.

Drives :class:`repro.experiments.ledger.CellLedger` directly — no pool,
no coordinator — on a real two-cell plan with a real journal.
"""

import pytest

from repro.compiler import OptimizationLevel
from repro.experiments.faults import RetryPolicy
from repro.experiments.ledger import CellLedger, TaskReport
from repro.experiments.plan import build_sweep_plan
from repro.experiments.runner import Measurement


@pytest.fixture
def ledger(tmp_path):
    plan = build_sweep_plan(
        "tenerife", [OptimizationLevel.N], benchmarks=["BV4", "Toffoli"],
        with_success=False, journal_dir=tmp_path, run_id="ledger-test",
    )
    policy = RetryPolicy(retries=1, backoff_s=0.0, jitter=0.0)
    ledger = CellLedger(plan, plan.open_journal(), policy)
    yield ledger
    ledger.journal.close()


def _result(benchmark):
    measurement = Measurement(
        benchmark=benchmark, device="IBM Q5 Tenerife", compiler="TriQ-N",
        two_qubit_gates=1, one_qubit_pulses=2, depth=3, num_swaps=0,
        compile_time_s=0.0, success_rate=None,
    )
    report = TaskReport(
        benchmark=benchmark, device="IBM Q5 Tenerife", compiler="TriQ-N",
        elapsed_s=0.1, cache_hit=None, pid=1,
    )
    return measurement, report


def _drain(ledger):
    due = []
    while (item := ledger.next_due()) is not None:
        due.append(item)
    return due


class TestCellLedger:
    def test_late_completion_drops_queued_retry(self, ledger):
        assert ledger.next_due() == (0, 1)
        # The attempt is reported lost (say, a blown deadline)...
        assert ledger.retry_or_fail(
            0, 1, "timeout", "TaskTimeout", "slow", "", 1.0
        ) is not None
        # ...but its result still arrives before the retry is handed out.
        assert ledger.accept(0, *_result("BV4"))
        assert _drain(ledger) == [(1, 1)]  # the retry of cell 0 is gone
        assert not ledger.failures

    def test_second_completion_is_not_journaled(self, ledger):
        assert ledger.accept(0, *_result("BV4"))
        assert not ledger.accept(0, *_result("BV4"))
        ledger.journal.close()
        records = ledger.journal.records()
        assert [r["task"] for r in records] == [ledger.plan.digests[0]]
        assert ledger.outstanding == 1

    def test_given_up_cell_is_never_granted_again(self, ledger):
        assert ledger.next_due() == (0, 1)
        ledger.retry_or_fail(0, 1, "error", "ValueError", "boom", "tb", 0.5)
        # A retry of cell 0 is queued, but its lease-holder vanishes for
        # good and the cell is given up on before the retry is due.
        ledger.give_up(0, "lease-expired", "LeaseExpired", "gone", "", 2, 0.0)
        assert _drain(ledger) == [(1, 1)]
        (failure,) = ledger.failures
        assert failure.benchmark == "BV4" and failure.kind == "lease-expired"
        # Nothing can settle it a second time either.
        assert ledger.retry_or_fail(
            0, 2, "error", "ValueError", "boom", "tb", 0.5
        ) is None
        assert not ledger.accept(0, *_result("BV4"))
        assert len(ledger.failures) == 1
