"""The daemon's supervised worker pool and its in-loop answers.

Compile and run jobs execute in worker processes
(:mod:`repro.service.pool`); a request whose result is already known
is answered in the event loop.  Everything here is structural — busy
workers are held busy with ``REPRO_FAULT_INJECT=hang:...``, crashes
come from ``crash:...`` — so no assertion depends on timing beyond
generous upper bounds.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from multiprocessing import Pipe

import pytest

from repro.cache import MemoryCache, activate_cache
from repro.experiments.faults import INJECTED_CRASH_EXIT_CODE
from repro.service import JobQueue, TenantClass
from repro.service.pool import execute_job, serve_jobs

from tests.test_service import ServiceHarness
from tests.test_service_durability import Daemon
from tests.test_service_queue import FakeClock, make_job

HOT = {"benchmark": "HS2", "device": "tenerife"}


def wal_events(path, job_id):
    events = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record.get("id", record.get("job", {}).get("id")) == job_id:
            events.append(record["event"])
    return events


def pool_processes(service):
    return [worker.process for worker in service.pool._idle]


@pytest.fixture
def hanging(tmp_path, monkeypatch):
    """A daemon whose BV6 compiles never finish (its pool inherits the
    fault clause when it starts, on the first job)."""
    monkeypatch.setenv("REPRO_FAULT_INJECT", "hang:BV6")
    harness = ServiceHarness(cache_dir=tmp_path / "cache", drain_grace_s=1.0)
    try:
        yield harness
    finally:
        harness.stop()
        activate_cache(None)


class TestInLoopAnswers:
    def test_known_result_answered_while_every_worker_is_busy(
        self, hanging, tmp_path
    ):
        status, first = hanging.request("POST", "/v1/compile", HOT)
        assert status == 200 and first["result"]["cache_hit"] is False
        # Hold both worker slots: two distinct cold BV6 compiles hang.
        busy = []
        for device in ("melbourne", "rueschlikon"):
            status, payload = hanging.request(
                "POST", "/v1/compile",
                {"benchmark": "BV6", "device": device, "wait": False},
            )
            assert status == 202
            busy.append(payload["job"]["id"])
        deadline = time.monotonic() + 60
        while hanging.service._running < 2:
            assert time.monotonic() < deadline, "slots never filled"
            time.sleep(0.01)

        status, repeat = hanging.request(
            "POST", "/v1/compile", dict(HOT, timeout=60)
        )
        assert status == 200
        assert repeat["job"]["status"] == "done"
        assert repeat["result"]["cache_hit"] is True
        expected = dict(first["result"], cache_hit=True)
        assert repeat["result"] == expected
        assert hanging.service._running == 2  # still busy throughout
        wal = tmp_path / "cache" / "service" / "wal.jsonl"
        assert wal_events(wal, repeat["job"]["id"]) == [
            "submitted", "running", "done",
        ]
        assert wal_events(wal, first["job"]["id"]) == [
            "submitted", "running", "done",
        ]
        assert hanging.metric(
            "repro_service_jobs_completed_total",
            kind="compile", tenant="default", status="done",
        ) == 2.0
        for job_id in busy:
            _, payload = hanging.request("GET", f"/v1/jobs/{job_id}")
            assert payload["job"]["status"] == "running"

    def test_known_run_answer_equals_the_pooled_one(self, tmp_path):
        harness = ServiceHarness(cache_dir=tmp_path / "cache")
        try:
            body = dict(HOT, fault_samples=20)
            _, cold = harness.request("POST", "/v1/run", body)
            _, hot = harness.request("POST", "/v1/run", body)
            assert cold["result"]["compiled"]["cache_hit"] is False
            assert hot["result"]["compiled"]["cache_hit"] is True
            hot["result"]["compiled"]["cache_hit"] = False
            assert hot["result"] == cold["result"]
            # A different spelling of the benchmark is its own answer.
            _, lower = harness.request(
                "POST", "/v1/run", dict(body, benchmark="hs2")
            )
            assert lower["result"]["compiled"]["benchmark"] == "hs2"
        finally:
            harness.stop()
            activate_cache(None)

    def test_paused_dispatch_still_queues_known_requests(self, tmp_path):
        harness = ServiceHarness(cache_dir=tmp_path / "cache", admin=True)
        try:
            harness.request("POST", "/v1/compile", HOT)
            harness.request("POST", "/admin/pause")
            status, payload = harness.request(
                "POST", "/v1/compile", dict(HOT, wait=False)
            )
            assert status == 202
            assert payload["job"]["status"] == "queued"
            harness.request("POST", "/admin/resume")
        finally:
            harness.stop()
            activate_cache(None)


class TestWorkerFaults:
    def test_crashed_worker_fails_only_its_job_and_is_replaced(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:BV4,error:Or")
        harness = ServiceHarness(cache_dir=tmp_path / "cache")
        try:
            results = {}

            def submit(name, body):
                results[name] = harness.request("POST", "/v1/compile", body)

            threads = [
                threading.Thread(target=submit, args=(name, body))
                for name, body in (
                    ("crash", {"benchmark": "BV4", "device": "tenerife"}),
                    ("fine", HOT),
                )
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            status, payload = results["crash"]
            assert status == 500
            assert payload["error"]["type"] == "WorkerCrashed"
            assert f"exit code {INJECTED_CRASH_EXIT_CODE}" in (
                payload["error"]["message"]
            )
            assert results["fine"][0] == 200
            # The replacement serves the next job.
            status, payload = harness.request(
                "POST", "/v1/compile",
                {"benchmark": "Toffoli", "device": "tenerife"},
            )
            assert status == 200 and payload["job"]["status"] == "done"
            # A job that raises in its worker fails with its own error.
            status, payload = harness.request(
                "POST", "/v1/compile", {"benchmark": "Or", "device": "tenerife"}
            )
            assert status == 500
            assert payload["error"]["type"] == "InjectedFault"
            assert harness.request("GET", "/healthz")[0] == 200
        finally:
            harness.stop()
            activate_cache(None)

    def test_deadline_kills_the_busy_worker(self, hanging):
        status, payload = hanging.request(
            "POST", "/v1/compile",
            {"benchmark": "BV6", "device": "melbourne", "deadline_s": 2.0},
        )
        assert status == 504
        assert payload["error"]["stage"] == "execution"
        status, payload = hanging.request("POST", "/v1/compile", HOT)
        assert status == 200 and payload["job"]["status"] == "done"

    def test_worker_cache_events_reach_the_counters(self, tmp_path):
        harness = ServiceHarness(cache_dir=tmp_path / "cache")
        try:
            assert harness.request("POST", "/v1/compile", HOT)[0] == 200
            assert harness.metric(
                "repro_service_cache_events_total", event="miss"
            ) >= 1.0
            assert harness.metric(
                "repro_service_cache_events_total", event="store"
            ) >= 1.0
        finally:
            harness.stop()
            activate_cache(None)

    def test_drain_joins_every_worker(self, tmp_path):
        harness = ServiceHarness(cache_dir=tmp_path / "cache")
        try:
            assert harness.request("POST", "/v1/compile", HOT)[0] == 200
            processes = pool_processes(harness.service)
            assert len(processes) == 2
            assert all(process.is_alive() for process in processes)
        finally:
            assert harness.stop() == 0
            activate_cache(None)
        assert [process.exitcode for process in processes] == [0, 0]


def _children(pid):
    """{child pid: start time} of ``pid``'s live children, from /proc."""
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, [1] the parent pid, [19] the start time.
        if int(fields[1]) == pid and fields[0] != "Z":
            found[int(entry)] = fields[19]
    return found


def _alive(pid, started):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return False
    return fields[0] != "Z" and fields[19] == started


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
class TestWorkersDieWithTheDaemon:
    def test_sigkilled_daemon_leaves_no_worker_behind(self, tmp_path):
        daemon = Daemon(tmp_path, fault_inject="hang:BV6", lifetag="k")
        try:
            daemon.wait_listening()
            status, payload = daemon.request(
                "POST", "/v1/compile",
                {"benchmark": "BV6", "device": "melbourne", "wait": False},
            )
            assert status == 202
            job_id = payload["job"]["id"]
            deadline = time.monotonic() + 60
            while True:
                _, payload = daemon.request("GET", f"/v1/jobs/{job_id}")
                workers = _children(daemon.proc.pid)
                if payload["job"]["status"] == "running" and len(
                    workers
                ) >= 2:
                    break
                assert time.monotonic() < deadline, "no busy worker"
                time.sleep(0.05)
            daemon.proc.send_signal(signal.SIGKILL)
            assert daemon.wait_death() == -signal.SIGKILL
            deadline = time.monotonic() + 30
            while any(_alive(p, s) for p, s in workers.items()):
                assert time.monotonic() < deadline, (
                    f"workers outlived the daemon: {sorted(workers)}"
                )
                time.sleep(0.05)
        finally:
            daemon.cleanup()


class TestWorkerEntryInProcess:
    """The worker-side loop, run in this process where coverage sees it."""

    def test_serve_jobs_round_trip(self, tmp_path):
        from repro import api

        cache = MemoryCache()
        daemon_end, worker_end = Pipe()
        thread = threading.Thread(
            target=serve_jobs, args=(worker_end, cache), daemon=True
        )
        thread.start()
        try:
            key = api.compile_cache_key("HS2", device="tenerife")
            daemon_end.send(("compile", dict(HOT)))
            status, payload, events = daemon_end.recv()
            assert status == "ok" and payload["cache_key"] == key
            assert events[0] == "miss" and "store" in events
            daemon_end.send(("compile", dict(HOT)))
            status, payload, events = daemon_end.recv()
            assert payload["cache_hit"] is True and events == ["memory_hit"]
            daemon_end.send(
                ("run", {"benchmark": "Toffoli", "device": "tenerife",
                         "fault_samples": -1})
            )
            status, error, _ = daemon_end.recv()
            assert status == "error" and error["type"] == "ValueError"
            assert "fault_samples" in error["message"]
            daemon_end.send(None)
            thread.join(timeout=30)
            assert not thread.is_alive()
        finally:
            daemon_end.close()

    def test_execute_job_matches_the_api(self):
        from repro import api

        payload = execute_job(
            "run", {"benchmark": "HS2", "device": "tenerife",
                    "fault_samples": 20}, None,
        )
        reference = api.run(
            "HS2", device="tenerife", fault_samples=20
        ).to_payload()
        for result in (payload, reference):
            del result["compiled"]["compile_time_s"]  # wall clock
        assert payload == reference

    def test_serve_jobs_stops_at_end_of_file(self):
        daemon_end, worker_end = Pipe()
        daemon_end.close()
        serve_jobs(worker_end, MemoryCache())  # returns, does not hang


class TestStartNow:
    """Requests answered in the event loop keep the tenant's rate and
    order: they start only when dispatch would start them at once."""

    def test_takes_a_token_and_respects_the_rate(self):
        clock = FakeClock()
        queue = JobQueue(
            {"slow": TenantClass("slow", rate_per_s=1.0, burst=1)},
            clock=clock,
        )
        assert queue.start_now("slow") is True
        assert queue.start_now("slow") is False  # bucket empty
        clock.advance(1.0)
        assert queue.start_now("slow") is True

    def test_never_jumps_queued_work_or_a_pause(self):
        queue = JobQueue(clock=FakeClock())
        queue.submit(make_job("job-1"))
        assert queue.start_now("default") is False
        assert queue.start_now("other") is True
        queue.pause()
        assert queue.start_now("other") is False
