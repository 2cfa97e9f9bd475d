"""Tests for the distributed sweep layer (ISSUE 7).

Covers the worker-fleet spec parser, the sharded cache, the wire
protocol, the coordinator's lease state machine driven directly, and —
the heart of it — an in-process chaos matrix: coordinator kill with
durable resume, worker partition with exactly-once re-lease and
duplicate suppression, and graceful degradation to the in-process
engine.  The invariant under test throughout: a distributed run's
results are byte-identical to a single-machine run of the same
specification, no matter which processes die along the way.

The end-to-end tests boot a real coordinator (asyncio HTTP on an
ephemeral port) on the main thread and attach :func:`run_worker` loops
on background threads — the exact worker code path ``repro work``
runs, minus the process boundary, so the chaos matrix stays fast
enough for tier-1.
"""

import threading
import time
from dataclasses import replace

import pytest

from repro.cache import CompileCache, ShardedCache, activate_cache, open_cache
from repro.compiler import OptimizationLevel
from repro.experiments.distributed import (
    DistributedSweep,
    WorkerFleet,
    parse_workers_from,
    run_distributed_sweep,
    run_worker,
    sweep_status,
)
from repro.experiments.distributed.protocol import (
    CoordinatorUnreachable,
    call,
    task_from_wire,
    task_to_wire,
)
from repro.experiments.faults import (
    FAULT_INJECT_ENV,
    InjectedCoordinatorDeath,
    RetryPolicy,
)
from repro.experiments.journal import task_digest
from repro.experiments.ledger import prepare_sweep
from repro.experiments.parallel import run_sweep
from repro.experiments.plan import SweepTask, build_sweep_plan

LEVELS = [OptimizationLevel.OPT_1QCN]
BENCHES = ["BV4", "Toffoli"]
FAULT_SAMPLES = 3


# ----------------------------------------------------------------------
# Worker fleet specification
# ----------------------------------------------------------------------
class TestParseWorkersFrom:
    def test_local_counts(self):
        fleet = parse_workers_from("local:2")
        assert fleet.local == 2 and fleet.remote_hosts == []

    def test_mixed_entries(self):
        fleet = parse_workers_from("local,local:3,node-a , node-b")
        assert fleet.local == 4
        assert fleet.remote_hosts == ["node-a", "node-b"]

    def test_hosts_file(self, tmp_path):
        hosts = tmp_path / "hosts"
        hosts.write_text(
            "local:2\n# a comment\nnode-a\n\nnode-b # gpu box\n",
            encoding="utf-8",
        )
        fleet = parse_workers_from(str(hosts))
        assert fleet.local == 2
        assert fleet.remote_hosts == ["node-a", "node-b"]

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            parse_workers_from("local:nope")
        with pytest.raises(ValueError):
            parse_workers_from("local:-1")
        with pytest.raises(ValueError):
            parse_workers_from("/no/such/hosts-file")

    def test_sequence_form(self):
        fleet = parse_workers_from(["local:1", "node-a"])
        assert fleet.local == 1 and fleet.remote_hosts == ["node-a"]


# ----------------------------------------------------------------------
# Sharded cache
# ----------------------------------------------------------------------
class TestShardedCache:
    def test_put_visible_in_shard_and_shared(self, tmp_path):
        cache = ShardedCache(tmp_path, "w1")
        cache.put("k", {"value": 1})
        assert cache.get("k") == {"value": 1}
        # Write-through: a plain handle on the shared root sees it too.
        assert CompileCache(tmp_path).get("k") == {"value": 1}

    def test_read_through_promotes_shared_hits(self, tmp_path):
        CompileCache(tmp_path).put("k", {"value": 2})
        cache = ShardedCache(tmp_path, "w1")
        assert cache.get("k") == {"value": 2}
        # Promoted: the private shard now holds its own copy.
        assert cache.shard.get("k") == {"value": 2}

    def test_shards_are_isolated_but_share(self, tmp_path):
        a = ShardedCache(tmp_path, "a")
        b = ShardedCache(tmp_path, "b")
        a.put("k", {"value": 3})
        assert b.shard.get("k") is None  # not in b's private shard...
        assert b.get("k") == {"value": 3}  # ...but via the shared root

    def test_namespace_validation(self, tmp_path):
        for bad in ("a/b", "a\\b", "..", ""):
            with pytest.raises(ValueError):
                ShardedCache(tmp_path, bad)

    def test_root_is_shared_root(self, tmp_path):
        cache = ShardedCache(tmp_path, "w1")
        assert cache.root == CompileCache(tmp_path).root

    def test_miss_returns_none(self, tmp_path):
        assert ShardedCache(tmp_path, "w1").get("absent") is None


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_task_wire_roundtrip(self):
        task = SweepTask(
            benchmark="BV4", device="ibmq5 tenerife", day=0,
            compiler="TriQ-1QOptCN", fault_samples=3, with_success=True,
            compile_seed=0, mc_seed=1234,
        )
        assert task_from_wire(task_to_wire(task)) == task
        assert task_digest(task_from_wire(task_to_wire(task))) == (
            task_digest(task)
        )

    def test_unreachable_coordinator_raises(self):
        with pytest.raises(CoordinatorUnreachable):
            call("http://127.0.0.1:9", "/healthz", timeout_s=2.0)


# ----------------------------------------------------------------------
# Coordinator state machine, driven directly (no HTTP)
# ----------------------------------------------------------------------
def _state(tmp_path, lease_ttl_s=30.0, retries=0, benchmarks=("BV4",)):
    from repro.experiments.distributed.coordinator import CoordinatorState

    plan = build_sweep_plan(
        "tenerife", LEVELS, benchmarks=list(benchmarks),
        fault_samples=FAULT_SAMPLES, with_success=False,
        journal_dir=tmp_path, run_id="state-test",
    )
    journal = plan.open_journal()
    state = CoordinatorState(
        plan, journal,
        RetryPolicy(retries=retries, backoff_s=0.01),
        lease_ttl_s=lease_ttl_s,
    )
    return state


class TestCoordinatorState:
    def test_duplicate_completion_journaled_once(self, tmp_path):
        state = _state(tmp_path)
        grant = state.grant("w1")
        digest = grant["digest"]
        first = state.complete("w1", digest, 1, {"m": 1}, {"r": 1})
        again = state.complete("w2", digest, 1, {"m": 1}, {"r": 1})
        assert first == {"accepted": True, "duplicate": False}
        assert again["duplicate"] is True and again["accepted"] is False
        assert state.duplicates == 1
        state.ledger.journal.close()
        assert len(state.ledger.journal.records()) == 1  # journaled once

    def test_forced_lease_expiry_fires_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULT_INJECT_ENV, "lease-expiry:BV4")
        state = _state(tmp_path, lease_ttl_s=60.0)
        assert state.grant("w1") is not None
        assert state.expire_due_leases() == 1  # forced despite the long TTL
        regrant = state.grant("w2")
        assert regrant["attempt"] == 2
        assert state.expire_due_leases() == 0  # the fault fires once per cell

    def test_requeue_limit_becomes_lease_expired_failure(self, tmp_path):
        state = _state(tmp_path, lease_ttl_s=0.0)
        for _ in range(state.requeue_limit):
            assert state.grant(f"w") is not None
            assert state.expire_due_leases() == 1
        assert state.grant("w") is not None
        assert state.expire_due_leases() == 1  # one past the limit: give up
        assert state.done
        assert len(state.ledger.failures) == 1
        assert state.ledger.failures[0].kind == "lease-expired"

    def test_error_retry_backoff_then_regrant(self, tmp_path):
        state = _state(tmp_path, retries=1)
        grant = state.grant("w1")
        outcome = state.fail(
            "w1", grant["digest"], 1, "ValueError", "boom", "tb"
        )
        assert outcome["requeued"] is True
        time.sleep(0.05)  # past the deterministic backoff (~0.01s)
        regrant = state.grant("w1")
        assert regrant is not None and regrant["attempt"] == 2
        final = state.fail(
            "w1", grant["digest"], 2, "ValueError", "boom", "tb"
        )
        assert final["requeued"] is False
        assert state.ledger.failures[0].kind == "error"

    def test_snapshot_feeds_sweep_status(self, tmp_path):
        state = _state(tmp_path)
        state.state_path = tmp_path / "state-test.state.json"
        state.touch_worker("w1")  # the HTTP layer does this per request
        state.grant("w1")
        state.write_state()
        status = sweep_status("state-test", journal_dir=tmp_path)
        assert status.total == 1
        assert status.done == 0
        assert status.leased == 1
        assert "w1" in status.worker_heartbeat_age_s
        assert "state-test" in status.describe()

    def test_heartbeat_renews_only_the_owner(self, tmp_path):
        state = _state(tmp_path, lease_ttl_s=5.0)
        grant = state.grant("w1")
        assert state.heartbeat("w1", grant["digest"]) is True
        assert state.heartbeat("thief", grant["digest"]) is False
        assert state.heartbeat("w1", "no-such-digest") is False


# ----------------------------------------------------------------------
# End-to-end chaos matrix (in-process coordinator + worker threads)
# ----------------------------------------------------------------------
def _canonical(measurements):
    """Measurements with cache provenance masked.

    ``cache_hit`` records *where* a result came from (fresh compile vs.
    cache), not *what* it is; the byte-identity invariant is about the
    payload, so comparisons normalize it.
    """
    return [replace(m, cache_hit=False) for m in measurements]



@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A shared cache warmed by the serial baseline every test compares to.

    Warm measurements are the point: cache hits restore identical
    payloads, so byte-for-byte equality between execution modes is a
    meaningful assertion rather than a timing accident.
    """
    import os

    os.environ.pop(FAULT_INJECT_ENV, None)
    root = tmp_path_factory.mktemp("dist-cache")
    cache = open_cache(root)
    baseline = run_sweep(
        "tenerife", LEVELS, benchmarks=BENCHES,
        fault_samples=FAULT_SAMPLES, with_success=True,
        cache=cache, run_id="baseline", workers=1,
    )
    assert not baseline.failures
    return cache, baseline


def _distributed(
    cache,
    run_id,
    workers=1,
    resume=False,
    lease_ttl_s=10.0,
    worker_max_failures=10,
):
    """One in-process distributed run; workers ride background threads."""
    _, plan, ledger = prepare_sweep(
        "tenerife", LEVELS, cache=cache, cache_dir=None, resume=resume,
        policy=RetryPolicy(backoff_s=0.01), benchmarks=BENCHES,
        fault_samples=FAULT_SAMPLES, with_success=True, run_id=run_id,
    )
    sweep = DistributedSweep(
        plan, ledger.journal, ledger.policy, WorkerFleet(),
        cache=cache, lease_ttl_s=lease_ttl_s, worker_wait_s=30.0,
        spawn_local=False,
    )
    sweep.state.prefill(ledger.results)

    codes = {}
    threads = []
    for slot in range(workers):
        def _work(slot=slot):
            sweep.ready.wait(timeout=60)
            if sweep.url is not None:
                codes[slot] = run_worker(
                    sweep.url,
                    cache_dir=cache.root,
                    worker_id=f"w{slot}",
                    poll_s=0.02,
                    max_connection_failures=worker_max_failures,
                )
        thread = threading.Thread(target=_work, daemon=True)
        thread.start()
        threads.append(thread)

    started = time.perf_counter()
    error = None
    try:
        sweep.run()
    except InjectedCoordinatorDeath as exc:
        error = exc
    finally:
        for thread in threads:
            thread.join(timeout=60)
        activate_cache(None)  # worker threads activated their shards
    report = (
        None if error is not None
        else sweep.assemble_report(started)
    )
    return sweep, report, codes, error


class TestDistributedEndToEnd:
    def test_clean_run_matches_serial(self, warm):
        cache, baseline = warm
        sweep, report, codes, error = _distributed(cache, "clean-run")
        assert error is None
        assert all(code == 0 for code in codes.values())
        assert report.mode == "distributed"
        assert not report.failures
        assert report.run_id == "clean-run"
        # The invariant: byte-identical measurements, same cell digests.
        assert _canonical(report.measurements) == _canonical(baseline.measurements)
        journal = sweep.plan.open_journal()
        assert set(journal.load()) == set(sweep.plan.digests)
        # Coordinator counters surface through the merged report metrics.
        exposition = report.metrics.render_prometheus()
        assert "repro_dist_leases_total" in exposition
        assert "repro_dist_completions_total" in exposition

    def test_coordinator_kill_then_resume_is_byte_identical(
        self, warm, monkeypatch
    ):
        cache, baseline = warm
        # Phase 1: the coordinator dies right after fsyncing its first
        # completion — after the journal write, before the next grant.
        monkeypatch.setenv(FAULT_INJECT_ENV, "coordinator-kill:1")
        sweep, report, codes, error = _distributed(cache, "chaos-kill")
        assert isinstance(error, InjectedCoordinatorDeath)
        assert report is None
        journal = sweep.plan.open_journal()
        survived = journal.load()
        assert len(survived) == 1  # the fsynced cell survived the kill

        # Phase 2: a fresh coordinator resumes the same run id.
        monkeypatch.delenv(FAULT_INJECT_ENV)
        sweep2, report2, codes2, error2 = _distributed(
            cache, "chaos-kill", resume=True
        )
        assert error2 is None
        assert report2.resumed == 1
        assert not report2.failures
        assert _canonical(report2.measurements) == _canonical(baseline.measurements)
        # No cell was executed-and-counted twice: one journal record
        # per cell across both coordinator lifetimes.
        records = sweep2.plan.open_journal().records()
        digests = [record["task"] for record in records]
        assert sorted(digests) == sorted(sweep2.plan.digests)

    def test_worker_partition_re_leases_once(self, warm, monkeypatch):
        cache, baseline = warm
        # BV4's first owner goes silent (no heartbeats, completion
        # delayed past the TTL); the lease must expire exactly once, a
        # second worker must steal the cell, and the report must still
        # be byte-identical with each digest journaled exactly once.
        monkeypatch.setenv(FAULT_INJECT_ENV, "worker-partition:BV4")
        sweep, report, codes, error = _distributed(
            cache, "chaos-partition", workers=2, lease_ttl_s=0.4,
        )
        assert error is None
        assert not report.failures
        assert _canonical(report.measurements) == _canonical(baseline.measurements)
        state = sweep.state
        bv4 = [
            index for index, task in enumerate(sweep.plan.tasks)
            if task.benchmark == "BV4"
        ]
        assert state.expiry_requeues == {bv4[0]: 1}  # exactly one re-lease
        journal = sweep.plan.open_journal()
        assert sorted(r["task"] for r in journal.records()) == (
            sorted(sweep.plan.digests)
        )

    def test_partition_heal_dedups_over_http(self, tmp_path):
        """The full partition-heal ordering, driven deterministically.

        w1 leases a cell and goes silent; the lease expires and w2
        steals it; w1's completion arrives first when the partition
        heals (its work is *kept* — first writer wins); w2's later
        completion for the same digest is dropped as a duplicate.
        """
        plan = build_sweep_plan(
            "tenerife", LEVELS, benchmarks=BENCHES,
            fault_samples=FAULT_SAMPLES, with_success=False,
            journal_dir=tmp_path, run_id="manual-heal",
        )
        sweep = DistributedSweep(
            plan, plan.open_journal(), RetryPolicy(backoff_s=0.01),
            WorkerFleet(), lease_ttl_s=0.3, worker_wait_s=30.0,
            spawn_local=False,
        )
        runner = threading.Thread(target=sweep.run, daemon=True)
        runner.start()
        try:
            assert sweep.ready.wait(timeout=30)
            url = sweep.url
            fake = {"placeholder": True}
            lease1 = call(url, "/v1/lease", {"worker": "w1"})
            digest = lease1["digest"]
            # w2 drains the other cell while w1 is "partitioned".
            other = call(url, "/v1/lease", {"worker": "w2"})
            assert other["digest"] != digest
            call(url, "/v1/complete", {
                "worker": "w2", "digest": other["digest"], "attempt": 1,
                "measurement": fake, "report": fake,
            })
            # No heartbeats from w1: poll until the expiry sweeper
            # requeues its cell and w2 steals it.
            deadline = time.monotonic() + 15
            stolen = None
            while time.monotonic() < deadline:
                lease = call(url, "/v1/lease", {"worker": "w2"})
                if lease.get("task") is not None:
                    stolen = lease
                    break
                time.sleep(0.05)
            assert stolen is not None, "lease never expired"
            assert stolen["digest"] == digest and stolen["attempt"] == 2
            # Partition heals: w1's original completion lands first.
            healed = call(url, "/v1/complete", {
                "worker": "w1", "digest": digest, "attempt": 1,
                "measurement": fake, "report": fake,
            })
            assert healed["accepted"] is True
            # The thief finishes too: dropped as a duplicate.
            late = call(url, "/v1/complete", {
                "worker": "w2", "digest": digest, "attempt": 2,
                "measurement": fake, "report": fake,
            })
            assert late["accepted"] is False and late["duplicate"] is True
            assert late["done"] is True
        finally:
            runner.join(timeout=30)
        assert not runner.is_alive()
        assert sweep.state.duplicates == 1
        records = plan.open_journal().records()
        assert sorted(r["task"] for r in records) == sorted(plan.digests)

    def test_zero_workers_degrades_with_reason(self, warm):
        cache, baseline = warm
        report = run_distributed_sweep(
            "tenerife", LEVELS, benchmarks=BENCHES,
            fault_samples=FAULT_SAMPLES, with_success=True,
            workers_from="", cache=cache, run_id="no-workers",
            worker_wait_s=0.3, spawn_local=False,
        )
        assert report.fallback_reason is not None
        assert "no worker contacted" in report.fallback_reason
        assert _canonical(report.measurements) == _canonical(baseline.measurements)
        assert not report.failures

    def test_no_journal_degrades_with_reason(self):
        report = run_distributed_sweep(
            "tenerife", LEVELS, benchmarks=["BV4"],
            fault_samples=FAULT_SAMPLES, with_success=False,
            workers_from="local:1", cache=None, spawn_local=False,
            worker_wait_s=0.3,
        )
        assert report.fallback_reason is not None
        assert "durable journal" in report.fallback_reason
        assert len(report.measurements) == 1

    def test_status_of_finished_run(self, warm):
        cache, _ = warm
        journal_dir = cache.root / "journals"
        status = sweep_status("clean-run", journal_dir=journal_dir)
        assert status.done == status.total == len(BENCHES)
        assert status.leased == 0
        description = status.describe()
        assert "clean-run" in description and "2/2" in description

    def test_status_of_unknown_run(self, tmp_path):
        status = sweep_status("never-ran", journal_dir=tmp_path)
        assert status.done == 0 and status.total is None
        assert "never-ran" in status.describe()
