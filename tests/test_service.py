"""Integration tests for the ``repro serve`` daemon.

Most tests run the asyncio server on a background thread inside the
test process (port 0, real sockets, ``http.client`` requests), so the
coalescer, warm cache, queue, and drain logic are all exercised
in-process where coverage can see them.  One test boots the daemon as a
real subprocess and delivers an actual SIGTERM to lock the exit-0 drain
contract end to end.

Determinism notes:

* Coalescing tests freeze dispatch with ``/admin/pause``, pile up
  identical submissions behind one primary, then resume — no timing
  races.
* The fault-injection sweep uses ``workers: 2`` so the injected crash
  fires inside a pool worker process (serial mode would take the
  daemon's own process down — exactly what the test proves cannot
  happen to the daemon).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cache import activate_cache
from repro.obs import parse_prometheus
from repro.service import ReproService, ServiceConfig, TenantClass

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


class ServiceHarness:
    """One in-process daemon on an ephemeral port."""

    def __init__(self, **config_kwargs):
        config_kwargs.setdefault("port", 0)
        config_kwargs.setdefault("workers", 2)
        config_kwargs.setdefault("drain_grace_s", 30.0)
        self.service = ReproService(ServiceConfig(**config_kwargs))
        self.exit_code = None
        self.thread = threading.Thread(target=self._main, daemon=True)
        self.thread.start()
        deadline = time.monotonic() + 30.0
        while self.service.port is None:
            if time.monotonic() > deadline:
                raise RuntimeError("service did not come up")
            time.sleep(0.01)

    def _main(self):
        import asyncio

        self.exit_code = asyncio.run(self.service.serve())

    def request(self, method, path, body=None, raw=False):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.service.port, timeout=170
        )
        try:
            data = json.dumps(body) if isinstance(body, dict) else body
            conn.request(method, path, body=data)
            response = conn.getresponse()
            text = response.read().decode("utf-8")
        finally:
            conn.close()
        if raw:
            return response.status, text
        return response.status, (json.loads(text) if text else {})

    def request_with_headers(self, method, path, body=None):
        """Like request(), but also returns lower-cased response headers."""
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.service.port, timeout=170
        )
        try:
            data = json.dumps(body) if isinstance(body, dict) else body
            conn.request(method, path, body=data)
            response = conn.getresponse()
            text = response.read().decode("utf-8")
        finally:
            conn.close()
        headers = {k.lower(): v for k, v in response.getheaders()}
        return (
            response.status,
            headers,
            json.loads(text) if text else {},
        )

    def metric(self, name, **labels):
        """One sample's value from a fresh /metrics scrape (0.0 if absent)."""
        _, text = self.request("GET", "/metrics", raw=True)
        series = parse_prometheus(text).get(name, {})
        wanted = json.dumps(
            {k: str(v) for k, v in labels.items()}, sort_keys=True
        )
        return series.get(wanted, 0.0)

    def wait_job(self, job_id, timeout_s=120.0):
        """Poll one job until it settles; its payload."""
        deadline = time.monotonic() + timeout_s
        while True:
            _, payload = self.request("GET", f"/v1/jobs/{job_id}")
            if payload["job"]["status"] in ("done", "failed"):
                return payload
            assert time.monotonic() < deadline, f"{job_id} never settled"
            time.sleep(0.05)

    def wal_records(self):
        return [
            json.loads(line)
            for line in self.service.wal.path.read_bytes().splitlines()
        ]

    def stop(self):
        loop = self.service.loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.service.request_stop)
        self.thread.join(timeout=60)
        return self.exit_code


@pytest.fixture
def harness(tmp_path):
    instance = ServiceHarness(cache_dir=tmp_path / "cache", admin=True)
    try:
        yield instance
    finally:
        instance.stop()
        activate_cache(None)


class TestHttpSurface:
    def test_healthz(self, harness):
        status, payload = harness.request("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok" and payload["draining"] is False

    def test_unknown_route_404(self, harness):
        assert harness.request("GET", "/nope")[0] == 404

    def test_submit_requires_post(self, harness):
        assert harness.request("GET", "/v1/compile")[0] == 405

    def test_bad_json_400(self, harness):
        status, payload = harness.request(
            "POST", "/v1/compile", body="{not json"
        )
        assert status == 400 and "JSON" in payload["error"]

    def test_unknown_device_400(self, harness):
        status, _ = harness.request(
            "POST", "/v1/compile", {"benchmark": "HS2", "device": "andromeda"}
        )
        assert status == 400

    def test_unknown_field_400(self, harness):
        status, payload = harness.request(
            "POST",
            "/v1/compile",
            {"benchmark": "HS2", "device": "tenerife", "vendor": "acme"},
        )
        assert status == 400 and "vendor" in payload["error"]

    @pytest.mark.parametrize("kind", ["compile", "run", "sweep"])
    @pytest.mark.parametrize(
        "field,value",
        [("mapper", "bogus"), ("opt", "turbo"), ("contracts", "loud")],
    )
    def test_bad_compile_knob_rejected_at_admission(
        self, harness, kind, field, value
    ):
        """Every kind validates its compile knobs before queueing: a 400
        naming the field, no job registered, nothing WAL-journaled."""
        body = {"benchmark": "HS2", "device": "tenerife", field: value}
        if kind == "sweep":
            body = {"device": "tenerife", field: value}
        with pytest.raises(ValueError, match=field):
            harness.service._prepare(kind, body)
        status, payload = harness.request("POST", f"/v1/{kind}", body)
        assert status == 400
        assert repr(field) in payload["error"]
        assert value in payload["error"]
        assert harness.request("GET", "/v1/jobs")[1]["jobs"] == []
        assert harness.metric(
            "repro_service_wal_records_total", event="submitted"
        ) == 0

    def test_compile_needs_exactly_one_source(self, harness):
        assert (
            harness.request("POST", "/v1/compile", {"device": "tenerife"})[0]
            == 400
        )

    def test_missing_job_404(self, harness):
        assert harness.request("GET", "/v1/jobs/job-999999")[0] == 404

    def test_metrics_parse_strict(self, harness):
        harness.request("GET", "/healthz")
        status, text = harness.request("GET", "/metrics", raw=True)
        assert status == 200
        series = parse_prometheus(text)
        assert "repro_service_requests_total" in series
        assert "repro_service_queue_depth" in series


class TestJobs:
    def test_compile_waits_and_matches_api(self, harness):
        from repro import api

        status, payload = harness.request(
            "POST", "/v1/compile", {"benchmark": "HS2", "device": "tenerife"}
        )
        assert status == 200
        assert payload["job"]["status"] == "done"
        reference = api.compile("HS2", device="tenerife")
        assert payload["result"]["executable"] == reference.executable
        assert payload["result"]["cache_key"] == reference.cache_key
        assert payload["result"]["cache_hit"] is False

    def test_warm_cache_is_shared_across_requests(self, harness):
        body = {"benchmark": "HS2", "device": "tenerife"}
        harness.request("POST", "/v1/compile", body)
        before = harness.metric(
            "repro_service_cache_events_total", event="memory_hit"
        )
        _, payload = harness.request("POST", "/v1/compile", body)
        assert payload["result"]["cache_hit"] is True
        after = harness.metric(
            "repro_service_cache_events_total", event="memory_hit"
        )
        assert after > before

    def test_in_loop_answer_is_one_fsync_of_three_records(self, harness):
        body = {"benchmark": "HS2", "device": "tenerife"}
        harness.request("POST", "/v1/compile", body)
        fsyncs = harness.service.wal.fsyncs
        before = harness.wal_records()
        _, payload = harness.request("POST", "/v1/compile", body)
        assert payload["result"]["cache_hit"] is True
        assert harness.service.wal.fsyncs == fsyncs + 1
        records = harness.wal_records()
        assert records[:len(before)] == before
        job_id = payload["job"]["id"]
        assert records[len(before):] == [
            {"v": 1, "event": "submitted", "job": records[-3]["job"]},
            {"v": 1, "event": "running", "id": job_id},
            {"v": 1, "event": "done", "id": job_id},
        ]
        assert records[-3]["job"]["id"] == job_id

    def test_run_over_http(self, harness):
        from repro import api

        status, payload = harness.request(
            "POST",
            "/v1/run",
            {"benchmark": "HS2", "device": "tenerife", "fault_samples": 20},
        )
        assert status == 200
        reference = api.run("HS2", device="tenerife", fault_samples=20)
        assert payload["result"]["success_rate"] == reference.success_rate

    def test_async_submit_and_poll(self, harness):
        status, payload = harness.request(
            "POST",
            "/v1/compile",
            {"benchmark": "HS2", "device": "agave", "wait": False},
        )
        assert status == 202
        job_id = payload["job"]["id"]
        deadline = time.monotonic() + 120
        while True:
            status, payload = harness.request("GET", f"/v1/jobs/{job_id}")
            if payload["job"]["status"] in ("done", "failed"):
                break
            assert time.monotonic() < deadline, "job never finished"
            time.sleep(0.05)
        assert payload["job"]["status"] == "done"
        assert payload["result"]["benchmark"] == "HS2"
        _, listing = harness.request("GET", "/v1/jobs")
        assert job_id in [job["id"] for job in listing["jobs"]]

    def test_tenant_label_reaches_metrics(self, harness):
        harness.request(
            "POST",
            "/v1/compile",
            {"benchmark": "HS2", "device": "tenerife", "tenant": "team-a"},
        )
        assert (
            harness.metric(
                "repro_service_jobs_submitted_total",
                kind="compile",
                tenant="team-a",
            )
            == 1.0
        )


class TestCoalescing:
    def test_identical_inflight_jobs_compile_once(self, harness):
        """N concurrent identical submissions -> one underlying compile."""
        assert harness.request("POST", "/admin/pause")[0] == 200
        body = {"benchmark": "BV6", "device": "melbourne"}
        results = []

        def submit():
            results.append(harness.request("POST", "/v1/compile", body))

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30
        while len(harness.service.jobs) < 4:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert harness.request("POST", "/admin/resume")[0] == 200
        for thread in threads:
            thread.join(timeout=170)
        assert [status for status, _ in results] == [200] * 4
        primaries = [
            payload for _, payload in results
            if payload["job"]["coalesced_with"] is None
        ]
        duplicates = [
            payload for _, payload in results
            if payload["job"]["coalesced_with"] is not None
        ]
        assert len(primaries) == 1 and len(duplicates) == 3
        primary_id = primaries[0]["job"]["id"]
        assert {d["job"]["coalesced_with"] for d in duplicates} == {
            primary_id
        }
        # Every response carries the same compiled artifact.
        executables = {
            payload["result"]["executable"] for _, payload in results
        }
        assert len(executables) == 1
        # The counters prove exactly one execution and three folds.
        assert (
            harness.metric(
                "repro_service_cache_events_total", event="coalesced"
            )
            == 3.0
        )
        assert (
            harness.metric(
                "repro_service_jobs_completed_total",
                kind="compile",
                tenant="default",
                status="done",
            )
            == 1.0
        )

    @pytest.mark.parametrize(
        "suite_first", [True, False], ids=["suite-first", "scaffold-first"]
    )
    def test_duplicate_echoes_its_own_benchmark(self, harness, suite_first):
        """A Scaffold compile of Toffoli shares the suite compile's key;
        the job coalesced onto the other still reports its own
        ``benchmark``, and both terminal records take one fsync."""
        from repro.programs.scaffold_sources import SCAFFOLD_SUITE

        source, defines, _ = SCAFFOLD_SUITE["Toffoli"]
        suite = {"benchmark": "Toffoli", "device": "tenerife"}
        scaffold = {"scaffold": source, "defines": defines,
                    "device": "tenerife"}
        bodies = [suite, scaffold] if suite_first else [scaffold, suite]
        assert harness.request("POST", "/admin/pause")[0] == 200
        ids = [
            harness.request(
                "POST", "/v1/compile", dict(body, wait=False)
            )[1]["job"]["id"]
            for body in bodies
        ]
        fsyncs = harness.service.wal.fsyncs
        assert harness.request("POST", "/admin/resume")[0] == 200
        primary, duplicate = [harness.wait_job(job_id) for job_id in ids]
        assert duplicate["job"]["coalesced_with"] == ids[0]
        assert [primary["result"]["benchmark"],
                duplicate["result"]["benchmark"]] == [
            body.get("benchmark") for body in bodies
        ]
        assert (primary["result"]["executable"]
                == duplicate["result"]["executable"])
        # The primary's running record, then one append of both ends.
        assert harness.service.wal.fsyncs == fsyncs + 2
        assert harness.wal_records()[-2:] == [
            {"v": 1, "event": "done", "id": job_id} for job_id in ids
        ]

    def test_finished_jobs_do_not_coalesce(self, harness):
        body = {"benchmark": "HS2", "device": "tenerife"}
        first = harness.request("POST", "/v1/compile", body)[1]
        second = harness.request("POST", "/v1/compile", body)[1]
        assert first["job"]["coalesced_with"] is None
        assert second["job"]["coalesced_with"] is None
        assert second["result"]["cache_hit"] is True


class TestSweepAndFaults:
    def test_sweep_over_http(self, harness):
        status, payload = harness.request(
            "POST",
            "/v1/sweep",
            {
                "device": "tenerife",
                "compilers": "N",
                "benchmarks": ["BV4", "HS2"],
                "with_success": False,
            },
        )
        assert status == 200
        result = payload["result"]
        assert [m["benchmark"] for m in result["measurements"]] == [
            "BV4", "HS2",
        ]
        assert result["failures"] == []
        assert result["run_id"]

    def test_injected_worker_crash_fails_only_that_job(
        self, harness, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:BV4")
        status, payload = harness.request(
            "POST",
            "/v1/sweep",
            {
                "device": "tenerife",
                "compilers": "N",
                "benchmarks": ["BV4", "HS2"],
                "with_success": False,
                "workers": 2,
            },
        )
        assert status == 200
        result = payload["result"]
        assert payload["job"]["status"] == "done"
        failures = result["failures"]
        assert [f["benchmark"] for f in failures] == ["BV4"]
        assert failures[0]["kind"] == "crash"
        assert failures[0]["attempts"] >= 1
        assert [m["benchmark"] for m in result["measurements"]] == ["HS2"]
        # The daemon survived its worker's death.
        assert harness.request("GET", "/healthz")[0] == 200

    def test_failed_job_returns_structured_error(self, harness, monkeypatch):
        # The job executor runs in this process: make the api call blow
        # up and assert the failure stays contained to the job.
        from repro import api

        def boom(*args, **kwargs):
            raise RuntimeError("calibration archive offline")

        monkeypatch.setattr(api, "sweep", boom)
        status, payload = harness.request(
            "POST",
            "/v1/sweep",
            {"device": "tenerife", "benchmarks": ["HS2"],
             "with_success": False},
        )
        assert status == 500
        assert payload["job"]["status"] == "failed"
        assert payload["error"] == {
            "type": "RuntimeError",
            "message": "calibration archive offline",
        }
        assert harness.request("GET", "/healthz")[0] == 200


class TestBackpressureAndDrain:
    def test_queue_full_maps_to_429(self, tmp_path):
        harness = ServiceHarness(
            cache_dir=tmp_path / "cache",
            admin=True,
            tenants={"tiny": TenantClass("tiny", max_queued=1)},
        )
        try:
            assert harness.request("POST", "/admin/pause")[0] == 200
            # Two *distinct* requests: an identical one would coalesce
            # onto the first instead of occupying a queue slot.
            first = {
                "benchmark": "HS2", "device": "tenerife",
                "tenant": "tiny", "wait": False,
            }
            second = {
                "benchmark": "BV4", "device": "tenerife",
                "tenant": "tiny", "wait": False,
            }
            assert harness.request("POST", "/v1/compile", first)[0] == 202
            status, payload = harness.request("POST", "/v1/compile", second)
            assert status == 429 and "tiny" in payload["error"]
            harness.request("POST", "/admin/resume")
        finally:
            harness.stop()
            activate_cache(None)

    def test_draining_rejects_submissions_with_503(self, harness):
        harness.service.draining = True
        try:
            status, payload = harness.request(
                "POST",
                "/v1/compile",
                {"benchmark": "HS2", "device": "tenerife"},
            )
            assert status == 503 and "draining" in payload["error"]
        finally:
            harness.service.draining = False

    def test_stop_drains_and_exits_zero(self, tmp_path):
        harness = ServiceHarness(cache_dir=tmp_path / "cache")
        harness.request(
            "POST", "/v1/compile", {"benchmark": "HS2", "device": "tenerife"}
        )
        assert harness.stop() == 0
        activate_cache(None)

    def test_admin_endpoints_hidden_without_flag(self, tmp_path):
        harness = ServiceHarness(cache_dir=tmp_path / "cache", admin=False)
        try:
            assert harness.request("POST", "/admin/pause")[0] == 404
        finally:
            harness.stop()
            activate_cache(None)


class TestRealProcessSigterm:
    def test_sigterm_drains_with_exit_zero(self, tmp_path):
        """The daemon as users run it: real process, real signal."""
        port_file = tmp_path / "port"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        env.pop("REPRO_FAULT_INJECT", None)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--port-file", str(port_file),
                "--cache-dir", str(tmp_path / "cache"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 60
            while not port_file.exists():
                assert proc.poll() is None, proc.stderr.read().decode()
                assert time.monotonic() < deadline, "daemon never listened"
                time.sleep(0.1)
            port = int(port_file.read_text().strip())
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("GET", "/healthz")
            assert conn.getresponse().status == 200
            conn.close()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            stderr = proc.stderr.read().decode()
            assert "drained cleanly" in stderr
            # The daemon cleans up its own port file on shutdown, so a
            # supervisor polling for it never reads a stale port.
            assert not port_file.exists()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

    def test_sigint_drains_like_sigterm(self, tmp_path):
        """Ctrl-C gets the same graceful drain + exit 0 as SIGTERM."""
        port_file = tmp_path / "port"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        env.pop("REPRO_FAULT_INJECT", None)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--port-file", str(port_file),
                "--cache-dir", str(tmp_path / "cache"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 60
            while not port_file.exists():
                assert proc.poll() is None, proc.stderr.read().decode()
                assert time.monotonic() < deadline, "daemon never listened"
                time.sleep(0.1)
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=60) == 0
            assert not port_file.exists()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)


class TestHealthzSurface:
    def test_healthz_reports_pause_and_wal_state(self, harness):
        status, payload = harness.request("GET", "/healthz")
        assert status == 200
        assert payload["paused"] is False
        assert payload["draining"] is False
        assert payload["wal_enabled"] is True  # cache_dir set -> WAL on
        assert harness.request("POST", "/admin/pause")[0] == 200
        try:
            _, paused = harness.request("GET", "/healthz")
            assert paused["paused"] is True
        finally:
            harness.request("POST", "/admin/resume")

    def test_healthz_reports_wal_off(self, tmp_path):
        instance = ServiceHarness(
            cache_dir=tmp_path / "cache", wal_enabled=False
        )
        try:
            _, payload = instance.request("GET", "/healthz")
            assert payload["wal_enabled"] is False
        finally:
            instance.stop()
            activate_cache(None)


class TestRetryAfterHeaders:
    def test_queue_full_429_carries_retry_after(self, tmp_path):
        harness = ServiceHarness(
            cache_dir=tmp_path / "cache",
            admin=True,
            tenants={"tiny": TenantClass("tiny", max_queued=1)},
        )
        try:
            assert harness.request("POST", "/admin/pause")[0] == 200
            first = {
                "benchmark": "HS2", "device": "tenerife",
                "tenant": "tiny", "wait": False,
            }
            second = {
                "benchmark": "BV4", "device": "tenerife",
                "tenant": "tiny", "wait": False,
            }
            assert harness.request("POST", "/v1/compile", first)[0] == 202
            status, headers, payload = harness.request_with_headers(
                "POST", "/v1/compile", second
            )
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            harness.request("POST", "/admin/resume")
        finally:
            harness.stop()
            activate_cache(None)

    def test_draining_503_carries_retry_after(self, harness):
        harness.service.draining = True
        try:
            status, headers, _ = harness.request_with_headers(
                "POST",
                "/v1/compile",
                {"benchmark": "HS2", "device": "tenerife"},
            )
            assert status == 503
            assert headers["retry-after"] == "1"
        finally:
            harness.service.draining = False

    def test_plain_400_has_no_retry_after(self, harness):
        status, headers, _ = harness.request_with_headers(
            "POST", "/v1/compile", {"device": "tenerife"}
        )
        assert status == 400 and "retry-after" not in headers


class TestDeadlines:
    def test_malformed_deadline_is_400(self, harness):
        for bad in ("soon", -1, 0):
            status, payload = harness.request(
                "POST",
                "/v1/compile",
                {"benchmark": "HS2", "device": "tenerife",
                 "deadline_s": bad},
            )
            assert status == 400 and "deadline_s" in payload["error"]

    def test_malformed_day_is_400(self, harness):
        """A bool, non-int or negative day is refused at admission with a
        message naming ``day`` — ``true`` must not alias day 1."""
        for bad in (True, "x", 2.5, -1):
            for path, body in (
                ("/v1/compile", {"benchmark": "HS2", "day": bad}),
                ("/v1/run", {"benchmark": "HS2", "day": bad}),
                ("/v1/sweep", {"benchmarks": ["HS2"], "day": bad}),
                ("/v1/sweep", {"benchmarks": ["HS2"], "days": [0, bad]}),
            ):
                status, payload = harness.request(
                    "POST", path, {"device": "tenerife", **body}
                )
                assert status == 400, (path, bad, payload)
                assert "day" in payload["error"], (path, bad, payload)

    def test_admission_rejects_unmeetable_deadline(self, tmp_path):
        """A rate-limited tenant with a full burst of queued work ahead
        provably cannot start a 1s-deadline job for ~10s: reject at
        submission (429 + Retry-After), don't queue a guaranteed loss."""
        harness = ServiceHarness(
            cache_dir=tmp_path / "cache",
            admin=True,
            tenants={
                "slow": TenantClass(
                    "slow", rate_per_s=0.1, burst=1, max_queued=10
                )
            },
        )
        try:
            assert harness.request("POST", "/admin/pause")[0] == 200
            filler = {
                "benchmark": "HS2", "device": "tenerife",
                "tenant": "slow", "wait": False,
            }
            assert harness.request("POST", "/v1/compile", filler)[0] == 202
            doomed = {
                "benchmark": "BV4", "device": "tenerife",
                "tenant": "slow", "wait": False, "deadline_s": 1.0,
            }
            status, headers, payload = harness.request_with_headers(
                "POST", "/v1/compile", doomed
            )
            assert status == 429
            assert "deadline" in payload["error"]
            assert int(headers["retry-after"]) >= 9  # ~10s of rate debt
            assert harness.metric(
                "repro_service_deadline_events_total", stage="admission"
            ) == 1.0
            # The same submission without a deadline is accepted: only
            # provably-unmeetable budgets are turned away.
            relaxed = dict(doomed)
            del relaxed["deadline_s"]
            assert harness.request("POST", "/v1/compile", relaxed)[0] == 202
            harness.request("POST", "/admin/resume")
        finally:
            harness.stop()
            activate_cache(None)

    def test_execution_deadline_cancels_with_structured_error(
        self, harness, monkeypatch
    ):
        """A job that blows its budget mid-execution fails with a
        structured DeadlineExceeded naming the stage, and the deadline
        counter ticks.  The compile hangs in its worker (injected fault,
        inherited by the workers the first job spawns), so the deadline
        is the only way the job can end."""
        monkeypatch.setenv("REPRO_FAULT_INJECT", "hang:HS2")
        status, payload = harness.request(
            "POST",
            "/v1/compile",
            {"benchmark": "HS2", "device": "tenerife", "deadline_s": 0.4},
        )
        assert status == 504  # the client's budget, not a server fault
        assert payload["job"]["status"] == "failed"
        assert payload["error"]["type"] == "DeadlineExceeded"
        assert payload["error"]["stage"] == "execution"
        assert payload["error"]["deadline_s"] == 0.4
        assert harness.metric(
            "repro_service_deadline_events_total", stage="execution"
        ) == 1.0

    def test_deadline_echoed_in_describe(self, harness):
        status, payload = harness.request(
            "POST",
            "/v1/compile",
            {"benchmark": "HS2", "device": "tenerife", "deadline_s": 120},
        )
        assert status == 200
        assert payload["job"]["deadline_s"] == 120.0
        assert payload["job"]["status"] == "done"
        # Live (non-replayed) jobs are never marked recovered.
        assert payload["job"]["recovered"] is False
        assert payload["job"]["interrupted"] is False


class TestAdmissionRejections:
    """Bodies that cannot succeed are 400s naming the field, before
    anything is queued or journaled."""

    BAD_SCAFFOLD = "module main( { qbit q[2]; H(q[0]); }"

    @pytest.mark.parametrize(
        "kind,body,field",
        [
            ("compile", {"benchmark": "BV6", "device": "tenerife"},
             "device"),
            ("run", {"benchmark": "BV8", "device": "agave"}, "device"),
            ("compile", {"scaffold": BAD_SCAFFOLD, "device": "tenerife"},
             "scaffold"),
            ("run", {"benchmark": "HS2", "device": "tenerife",
                     "fault_samples": "many"}, "fault_samples"),
            ("run", {"benchmark": "HS2", "device": "tenerife",
                     "fault_samples": -3}, "fault_samples"),
            ("run", {"benchmark": "HS2", "device": "tenerife",
                     "fault_samples": 2.5}, "fault_samples"),
            ("sweep", {"device": "tenerife", "fault_samples": True},
             "fault_samples"),
        ],
    )
    def test_rejected_before_queueing(self, harness, kind, body, field):
        with pytest.raises(ValueError, match=field):
            harness.service._prepare(kind, body)
        status, payload = harness.request("POST", f"/v1/{kind}", body)
        assert status == 400
        assert repr(field) in payload["error"]
        assert harness.request("GET", "/v1/jobs")[1]["jobs"] == []
        assert harness.metric(
            "repro_service_wal_records_total", event="submitted"
        ) == 0

    def test_zero_fault_samples_stays_legal(self, harness):
        status, payload = harness.request(
            "POST", "/v1/run",
            {"benchmark": "HS2", "device": "tenerife", "fault_samples": 0},
        )
        assert status == 200
        assert payload["result"]["fault_samples"] == 0
