"""WAL unit tests plus in-process crash-recovery integration tests.

The unit half exercises :class:`repro.service.wal.JobWAL` directly —
append/replay round trips, torn-tail tolerance, duplicate suppression,
atomic compaction.  The integration half hand-crafts WAL files (the
same records a crashed daemon would have left) and boots a real
in-process daemon on top of them, asserting the recovery dispositions
the ISSUE demands: queued jobs re-enqueue, interrupted jobs re-execute
exactly once (warm cache -> zero recompiles), duplicate idempotency
keys re-fold onto one primary, and WAL-off behaves exactly like the
pre-WAL daemon.
"""

from __future__ import annotations

import json
import time
import warnings

import pytest

from repro.cache import activate_cache
from repro.service.wal import (
    WAL_VERSION,
    JobWAL,
    finished_record,
    running_record,
    submitted_record,
)

from tests.test_service import ServiceHarness

BODY = {"benchmark": "HS2", "device": "tenerife"}


def make_job(job_id="job-000001", coalesce_key=None, deadline_s=None,
             submitted_at=None, params=None):
    """A WAL ``submitted`` job dict shaped like Job.wal_entry()."""
    return {
        "id": job_id,
        "kind": "compile",
        "tenant": "default",
        "params": dict(params if params is not None else BODY),
        "coalesce_key": coalesce_key,
        "deadline_s": deadline_s,
        "submitted_at": (
            time.time() if submitted_at is None else submitted_at
        ),
        "coalesced_with": None,
    }


def wait_for_job(harness, job_id, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while True:
        status, payload = harness.request("GET", f"/v1/jobs/{job_id}")
        assert status == 200, f"{job_id} vanished: {payload}"
        if payload["job"]["status"] in ("done", "failed"):
            return payload
        assert time.monotonic() < deadline, f"{job_id} never finished"
        time.sleep(0.05)


class TestJobWALUnit:
    def test_round_trip_lifecycle(self, tmp_path):
        wal = JobWAL(tmp_path / "wal.jsonl")
        wal.submitted(make_job("job-000001"))
        wal.submitted(make_job("job-000002"))
        wal.running("job-000001")
        wal.finished("job-000001", "done")
        wal.running("job-000002")
        wal.close()
        jobs = {j.id: j for j in JobWAL(wal.path).replay()}
        assert jobs["job-000001"].status == "done"
        assert jobs["job-000001"].terminal
        assert jobs["job-000002"].status == "running"
        assert jobs["job-000002"].interrupted

    def test_replay_preserves_submission_order(self, tmp_path):
        wal = JobWAL(tmp_path / "wal.jsonl")
        for n in (3, 1, 2):
            wal.submitted(make_job(f"job-00000{n}"))
        wal.close()
        assert [j.id for j in JobWAL(wal.path).replay()] == [
            "job-000003", "job-000001", "job-000002"
        ]

    def test_failed_carries_error_dict(self, tmp_path):
        wal = JobWAL(tmp_path / "wal.jsonl")
        wal.submitted(make_job())
        wal.finished(
            "job-000001", "failed", {"type": "ValueError", "message": "no"}
        )
        wal.close()
        (job,) = JobWAL(wal.path).replay()
        assert job.status == "failed"
        assert job.error == {"type": "ValueError", "message": "no"}

    def test_missing_file_replays_empty(self, tmp_path):
        assert JobWAL(tmp_path / "absent.jsonl").replay() == []

    def test_torn_final_line_warns_and_keeps_prefix(self, tmp_path):
        """A kill can tear the last append anywhere; replay survives."""
        wal = JobWAL(tmp_path / "wal.jsonl")
        wal.submitted(make_job("job-000001"))
        wal.running("job-000001")
        wal.close()
        whole = wal.path.read_bytes()
        torn_line = json.dumps(
            {"v": WAL_VERSION, "event": "done", "id": "job-000001"}
        ).encode()
        wal.path.write_bytes(whole + torn_line[: len(torn_line) // 2])
        with pytest.warns(RuntimeWarning, match="truncated final line"):
            (job,) = JobWAL(wal.path).replay()
        # The torn "done" is lost; the durable prefix stands.
        assert job.status == "running" and job.interrupted

    def test_corrupt_middle_line_warns_and_skips(self, tmp_path):
        wal = JobWAL(tmp_path / "wal.jsonl")
        wal.submitted(make_job("job-000001"))
        wal.close()
        lines = wal.path.read_bytes()
        wal.path.write_bytes(
            b'{"v": 1, "event": "subm\xff\xfe GARBAGE\n'
            + lines
            + json.dumps(
                {"v": WAL_VERSION, "event": "done", "id": "job-000001"}
            ).encode() + b"\n"
        )
        with pytest.warns(RuntimeWarning, match="corrupt line 1"):
            (job,) = JobWAL(wal.path).replay()
        assert job.status == "done"

    def test_duplicate_submitted_records_ignored(self, tmp_path):
        """Replay-of-a-replay cannot double-register a job."""
        wal = JobWAL(tmp_path / "wal.jsonl")
        wal.submitted(make_job("job-000001", params={"benchmark": "HS2",
                                                    "device": "tenerife"}))
        wal.submitted(make_job("job-000001", params={"benchmark": "BV6",
                                                    "device": "melbourne"}))
        wal.close()
        (job,) = JobWAL(wal.path).replay()
        assert job.params == BODY  # the first write wins

    def test_terminal_state_not_downgraded(self, tmp_path):
        wal = JobWAL(tmp_path / "wal.jsonl")
        wal.submitted(make_job("job-000001"))
        wal.finished("job-000001", "done")
        wal.running("job-000001")  # stale transition after terminal
        wal.close()
        (job,) = JobWAL(wal.path).replay()
        assert job.status == "done"

    def test_unknown_records_and_versions_skipped(self, tmp_path):
        wal = JobWAL(tmp_path / "wal.jsonl")
        wal.submitted(make_job("job-000001"))
        wal.close()
        with open(wal.path, "ab") as handle:
            handle.write(b'{"v": 99, "event": "submitted", "job": {}}\n')
            handle.write(b'{"v": 1, "event": "exploded", "id": "x"}\n')
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # must not even warn
            (job,) = JobWAL(wal.path).replay()
        assert job.id == "job-000001"

    def test_rewrite_compacts_atomically(self, tmp_path):
        wal = JobWAL(tmp_path / "wal.jsonl")
        wal.submitted(make_job("job-000001"))
        wal.finished("job-000001", "done")
        wal.submitted(make_job("job-000002"))
        wal.running("job-000002")
        pending = [j for j in wal.replay() if not j.terminal]
        wal.rewrite(pending)
        assert not wal.path.with_suffix(".compact.tmp").exists()
        lines = wal.path.read_text().strip().splitlines()
        assert len(lines) == 1  # terminal job dropped
        (job,) = JobWAL(wal.path).replay()
        assert job.id == "job-000002"
        # The re-journaled record is a fresh "submitted": the previous
        # life's "running" transition is gone, the raw job dict kept.
        assert job.status == "queued"
        assert job.params == BODY

    def test_fsync_counter_increments_per_append(self, tmp_path):
        wal = JobWAL(tmp_path / "wal.jsonl")
        wal.submitted(make_job())
        wal.running("job-000001")
        wal.finished("job-000001", "done")
        assert wal.fsyncs == 3
        wal.close()

    def test_grouped_write_is_one_fsync_of_the_same_bytes(self, tmp_path):
        job, error = make_job(), {"type": "ValueError"}
        apart = JobWAL(tmp_path / "apart.jsonl")
        apart.submitted(job)
        apart.running("job-000001")
        apart.finished("job-000001", "failed", error)
        apart.close()
        grouped = JobWAL(tmp_path / "grouped.jsonl")
        grouped.write(
            submitted_record(job),
            running_record("job-000001"),
            finished_record("job-000001", "failed", error),
        )
        grouped.close()
        assert grouped.fsyncs == 1 and apart.fsyncs == 3
        assert grouped.path.read_bytes() == apart.path.read_bytes()


class TestServiceRecovery:
    """Boot a daemon over a hand-crafted (or inherited) WAL."""

    def _harness(self, tmp_path, **kwargs):
        kwargs.setdefault("cache_dir", tmp_path / "cache")
        kwargs.setdefault("wal_path", tmp_path / "wal.jsonl")
        return ServiceHarness(**kwargs)

    def test_queued_job_is_reenqueued_and_completes(self, tmp_path):
        wal = JobWAL(tmp_path / "wal.jsonl")
        wal.submitted(make_job("job-000007"))
        wal.close()
        harness = self._harness(tmp_path)
        try:
            payload = wait_for_job(harness, "job-000007")
            assert payload["job"]["status"] == "done"
            assert payload["job"]["recovered"] is True
            assert payload["job"]["interrupted"] is False
            assert payload["result"]["benchmark"] == "HS2"
            assert harness.metric(
                "repro_service_recovered_jobs_total",
                disposition="requeued",
            ) == 1.0
            # New submissions in the second life must not collide with
            # replayed ids: the sequence is reseeded past job-000007.
            _, fresh = harness.request(
                "POST", "/v1/compile",
                {"benchmark": "BV6", "device": "melbourne", "wait": False},
            )
            assert fresh["job"]["id"] == "job-000008"
        finally:
            harness.stop()
            activate_cache(None)

    def test_interrupted_job_reexecutes_exactly_once(self, tmp_path):
        wal = JobWAL(tmp_path / "wal.jsonl")
        wal.submitted(make_job("job-000001"))
        wal.running("job-000001")  # daemon died mid-execution
        wal.close()
        harness = self._harness(tmp_path)
        try:
            payload = wait_for_job(harness, "job-000001")
            assert payload["job"]["status"] == "done"
            assert payload["job"]["interrupted"] is True
            assert harness.metric(
                "repro_service_recovered_jobs_total",
                disposition="reexecuted",
            ) == 1.0
            # Exactly once: one completion, no surviving duplicates.
            assert harness.metric(
                "repro_service_jobs_completed_total",
                kind="compile", tenant="default", status="done",
            ) == 1.0
        finally:
            harness.stop()
            activate_cache(None)

    def test_warm_cache_replay_recompiles_nothing(self, tmp_path):
        """Idempotent replay: the artifact reached the cache before the
        crash, so the re-executed job short-circuits to a cache hit."""
        life1 = self._harness(tmp_path)
        try:
            status, first = life1.request("POST", "/v1/compile", BODY)
            assert status == 200 and first["result"]["cache_hit"] is False
        finally:
            life1.stop()
            activate_cache(None)
        # The daemon "dies" mid-re-execution of an identical job.
        wal = JobWAL(tmp_path / "wal.jsonl")
        wal.submitted(make_job("job-000009"))
        wal.running("job-000009")
        wal.close()
        life2 = self._harness(tmp_path)
        try:
            payload = wait_for_job(life2, "job-000009")
            assert payload["job"]["status"] == "done"
            assert payload["result"]["cache_hit"] is True
            assert (
                payload["result"]["cache_key"]
                == first["result"]["cache_key"]
            )
            # Zero recompiles, proven by the cache-event counters: the
            # replayed compile resolved from the store, never missed.
            assert life2.metric(
                "repro_service_cache_events_total", event="miss"
            ) == 0.0
            hits = life2.metric(
                "repro_service_cache_events_total", event="disk_hit"
            ) + life2.metric(
                "repro_service_cache_events_total", event="memory_hit"
            )
            assert hits >= 1.0
        finally:
            life2.stop()
            activate_cache(None)

    def test_duplicate_keys_across_restart_fold_onto_one_primary(
        self, tmp_path
    ):
        """S4: duplicate idempotency keys replayed after a crash are
        deduplicated through the live coalescer, not re-run N times."""
        wal = JobWAL(tmp_path / "wal.jsonl")
        wal.submitted(make_job("job-000001", coalesce_key="k-hs2"))
        # The duplicate had folded onto job-000001 in the previous
        # life; its stored coalesced_with must be recomputed, not
        # trusted, because that primary no longer exists.
        duplicate = make_job("job-000002", coalesce_key="k-hs2")
        duplicate["coalesced_with"] = "job-000001"
        wal.submitted(duplicate)
        wal.submitted(make_job("job-000003", coalesce_key="k-hs2"))
        wal.close()
        harness = self._harness(tmp_path)
        try:
            for job_id in ("job-000001", "job-000002", "job-000003"):
                payload = wait_for_job(harness, job_id)
                assert payload["job"]["status"] == "done"
            assert harness.metric(
                "repro_service_cache_events_total", event="coalesced"
            ) == 2.0
            # One primary ran; two duplicates inherited its result.
            assert harness.metric(
                "repro_service_jobs_completed_total",
                kind="compile", tenant="default", status="done",
            ) == 1.0
        finally:
            harness.stop()
            activate_cache(None)

    def test_terminal_jobs_stay_visible_without_rerunning(self, tmp_path):
        wal = JobWAL(tmp_path / "wal.jsonl")
        wal.submitted(make_job("job-000004"))
        wal.finished("job-000004", "failed",
                     {"type": "ValueError", "message": "bad day"})
        wal.close()
        harness = self._harness(tmp_path)
        try:
            status, payload = harness.request(
                "GET", "/v1/jobs/job-000004"
            )
            assert status == 200
            assert payload["job"]["status"] == "failed"
            assert payload["job"]["recovered"] is True
            assert payload["error"]["type"] == "ValueError"
            assert harness.metric(
                "repro_service_recovered_jobs_total",
                disposition="terminal",
            ) == 1.0
            # Nothing executed on this boot.
            assert harness.metric(
                "repro_service_jobs_completed_total",
                kind="compile", tenant="default", status="failed",
            ) == 0.0
        finally:
            harness.stop()
            activate_cache(None)

    def test_expired_deadline_fails_at_recovery_not_reexecuted(
        self, tmp_path
    ):
        wal = JobWAL(tmp_path / "wal.jsonl")
        wal.submitted(make_job(
            "job-000005", deadline_s=0.5,
            submitted_at=time.time() - 60.0,  # long dead
        ))
        wal.running("job-000005")
        wal.close()
        harness = self._harness(tmp_path)
        try:
            status, payload = harness.request(
                "GET", "/v1/jobs/job-000005"
            )
            assert status == 200
            assert payload["job"]["status"] == "failed"
            assert payload["error"]["type"] == "DeadlineExceeded"
            assert payload["error"]["stage"] == "recovery"
            assert harness.metric(
                "repro_service_recovered_jobs_total",
                disposition="deadline_expired",
            ) == 1.0
        finally:
            harness.stop()
            activate_cache(None)

    def test_boot_compacts_the_wal(self, tmp_path):
        """Terminal records are dropped at boot; replay is idempotent."""
        wal = JobWAL(tmp_path / "wal.jsonl")
        wal.submitted(make_job("job-000001"))
        wal.finished("job-000001", "done")
        wal.close()
        harness = self._harness(tmp_path)
        try:
            time.sleep(0.1)
            assert (tmp_path / "wal.jsonl").read_bytes().strip() == b""
        finally:
            harness.stop()
            activate_cache(None)

    def test_wal_off_creates_no_file_and_matches_wal_on(self, tmp_path):
        """--no-wal is byte-identical to the pre-WAL daemon: no journal
        on disk, identical compile payloads."""
        on = ServiceHarness(
            cache_dir=tmp_path / "cache-on",
            wal_path=tmp_path / "wal-on.jsonl",
        )
        try:
            _, with_wal = on.request("POST", "/v1/compile", BODY)
        finally:
            on.stop()
            activate_cache(None)
        off = ServiceHarness(
            cache_dir=tmp_path / "cache-off", wal_enabled=False
        )
        try:
            _, healthz = off.request("GET", "/healthz")
            assert healthz["wal_enabled"] is False
            _, without_wal = off.request("POST", "/v1/compile", BODY)
        finally:
            off.stop()
            activate_cache(None)
        assert not list((tmp_path / "cache-off").rglob("*.jsonl"))
        volatile = {"compile_time_s"}
        strip = lambda p: {  # noqa: E731
            k: v for k, v in p["result"].items() if k not in volatile
        }
        assert strip(with_wal) == strip(without_wal)
        assert (tmp_path / "wal-on.jsonl").exists()
