"""Chaos suite: kill the real daemon mid-job, restart it, audit the
recovery.

The contract under proof (the ISSUE's tentpole): every job the daemon
*acknowledged* is, after an uncatchable death and a restart, either
completed exactly once or visible as interrupted/failed — never lost,
never double-executed.  Three killers are used:

* ``serve-kill:N`` — deterministic: ``os._exit`` fires right after the
  Nth WAL fsync, so the death lands on a chosen record boundary;
* ``wal-torn-tail`` — the final append writes half its bytes and dies,
  leaving real crash debris for replay to survive;
* a plain ``SIGKILL`` at an arbitrary moment — nondeterministic, the
  recovery must be correct wherever it lands.

Every life of the daemon is a real subprocess running ``repro serve``
exactly as users do.
"""

from __future__ import annotations

import functools
import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.experiments.faults import INJECTED_CRASH_EXIT_CODE
from repro.obs import parse_prometheus

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


class Daemon:
    """One life of the service as a real subprocess."""

    def __init__(
        self, tmp_path, fault_inject=None, lifetag="life", workers=2
    ):
        self.port_file = tmp_path / f"port-{lifetag}"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        env.pop("REPRO_FAULT_INJECT", None)
        if fault_inject:
            env["REPRO_FAULT_INJECT"] = fault_inject
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--port-file", str(self.port_file),
                "--cache-dir", str(tmp_path / "cache"),
                "--wal-path", str(tmp_path / "wal.jsonl"),
                "--workers", str(workers),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        self.port = None

    def wait_listening(self, timeout_s=60.0):
        deadline = time.monotonic() + timeout_s
        while not self.port_file.exists():
            assert self.proc.poll() is None, self.stderr()
            assert time.monotonic() < deadline, "daemon never listened"
            time.sleep(0.05)
        self.port = int(self.port_file.read_text().strip())
        return self

    def request(self, method, path, body=None, timeout=120):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=timeout
        )
        try:
            data = json.dumps(body) if isinstance(body, dict) else body
            conn.request(method, path, body=data)
            response = conn.getresponse()
            text = response.read().decode("utf-8")
        finally:
            conn.close()
        return response.status, (json.loads(text) if text else {})

    def metric(self, name, **labels):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=30
        )
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
        wanted = json.dumps(
            {k: str(v) for k, v in labels.items()}, sort_keys=True
        )
        return parse_prometheus(text).get(name, {}).get(wanted, 0.0)

    def wait_job(self, job_id, timeout_s=120.0):
        deadline = time.monotonic() + timeout_s
        while True:
            status, payload = self.request("GET", f"/v1/jobs/{job_id}")
            assert status == 200, f"{job_id} lost after recovery"
            if payload["job"]["status"] in ("done", "failed"):
                return payload
            assert time.monotonic() < deadline, f"{job_id} never settled"
            time.sleep(0.05)

    def wait_death(self, timeout_s=120.0):
        return self.proc.wait(timeout=timeout_s)

    def stderr(self):
        try:
            return self.proc.stderr.read().decode()
        except Exception:  # noqa: BLE001
            return "<stderr unavailable>"

    def terminate_clean(self):
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=60)

    def cleanup(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


BODY_A = {"benchmark": "HS2", "device": "tenerife"}
BODY_B = {"benchmark": "BV6", "device": "melbourne", "wait": False}


class TestServeKillRecovery:
    def test_job_interrupted_mid_execution_reexecutes_exactly_once(
        self, tmp_path
    ):
        """Deterministic kill on the WAL record that marks job B
        running: B dies mid-execution, A is already terminal.

        Fsync ledger for life 1: A submitted (1), A running (2),
        A done (3), B submitted (4, the 202 ack is sent), B running
        (5) -> death.
        """
        life1 = Daemon(tmp_path, fault_inject="serve-kill:5", lifetag="1")
        try:
            life1.wait_listening()
            status, payload = life1.request("POST", "/v1/compile", BODY_A)
            assert status == 200
            assert payload["job"]["status"] == "done"
            job_a = payload["job"]["id"]
            try:
                status, payload = life1.request(
                    "POST", "/v1/compile", BODY_B
                )
                assert status == 202
                job_b = payload["job"]["id"]
            except (ConnectionError, http.client.HTTPException, OSError):
                # The dispatcher's "running" fsync (the kill point) can
                # fire before the buffered 202 flushes to the socket.
                # The submit record is durable either way; the id is
                # recovered from life 2's job table below.
                job_b = None
            assert life1.wait_death() == INJECTED_CRASH_EXIT_CODE
        finally:
            life1.cleanup()

        life2 = Daemon(tmp_path, lifetag="2")
        try:
            life2.wait_listening()
            if job_b is None:
                _, listing = life2.request("GET", "/v1/jobs")
                (job_b,) = [
                    j["id"] for j in listing["jobs"] if j["id"] != job_a
                ]
            # A: terminal before the crash — visible, not re-executed.
            status, payload = life2.request("GET", f"/v1/jobs/{job_a}")
            assert status == 200
            assert payload["job"]["status"] == "done"
            assert payload["job"]["recovered"] is True
            # B: interrupted mid-execution — re-executed exactly once.
            payload = life2.wait_job(job_b)
            assert payload["job"]["status"] == "done"
            assert payload["job"]["interrupted"] is True
            assert payload["result"]["benchmark"] == "BV6"
            assert life2.metric(
                "repro_service_recovered_jobs_total",
                disposition="terminal",
            ) == 1.0
            assert life2.metric(
                "repro_service_recovered_jobs_total",
                disposition="reexecuted",
            ) == 1.0
            # Exactly once: life 2 ran exactly one job (B); A's compile
            # never re-entered the executor.
            assert life2.metric(
                "repro_service_jobs_completed_total",
                kind="compile", tenant="default", status="done",
            ) == 1.0
            assert life2.terminate_clean() == 0
        finally:
            life2.cleanup()

    def test_durable_but_unacked_job_is_recovered_not_lost(self, tmp_path):
        """Death on the submit fsync itself: the record hit disk but
        the 202 was never written.  The client saw a dropped
        connection; the journal-before-ack discipline means the
        restarted daemon runs the job anyway — durable-side work is
        recovered, and resubmitting the same request would coalesce
        rather than double-execute."""
        life1 = Daemon(tmp_path, fault_inject="serve-kill:4", lifetag="1")
        try:
            life1.wait_listening()
            status, _ = life1.request("POST", "/v1/compile", BODY_A)
            assert status == 200  # fsyncs 1..3
            try:
                life1.request("POST", "/v1/compile", BODY_B)
                raise AssertionError("daemon should have died mid-submit")
            except (ConnectionError, http.client.HTTPException, OSError):
                pass  # fsync 4 fired the kill before the ack
            assert life1.wait_death() == INJECTED_CRASH_EXIT_CODE
        finally:
            life1.cleanup()

        life2 = Daemon(tmp_path, lifetag="2")
        try:
            life2.wait_listening()
            _, listing = life2.request("GET", "/v1/jobs")
            by_id = sorted(listing["jobs"], key=lambda j: j["id"])
            assert len(by_id) == 2  # A (terminal) and B (recovered)
            job_b = by_id[-1]["id"]
            payload = life2.wait_job(job_b)
            assert payload["job"]["status"] == "done"
            assert payload["job"]["recovered"] is True
            assert payload["result"]["benchmark"] == "BV6"
            assert life2.terminate_clean() == 0
        finally:
            life2.cleanup()


_DIED = (ConnectionError, http.client.HTTPException, OSError)


class TestKillAtEveryFsync:
    """``serve-kill:N`` for every WAL fsync of one scripted life.

    The script: a pooled compile A (waited on), a repeat of A (answered
    in the event loop), then a ``wait: false`` compile B, polled until
    it settles.  Life N dies on its Nth fsync; the first N whose life
    finishes the script alive runs clean, so the script makes F = N - 1
    fsyncs — derived, never assumed, since batching WAL records changes
    F.  Each killed life is restarted, and the restarted life must
    finish every journaled job exactly once.
    """

    @staticmethod
    def _drive(life):
        """Run the script; return ({job id: status acked}, survived)."""
        acked = {}
        try:
            for body in (BODY_A, BODY_A, BODY_B):
                status, payload = life.request("POST", "/v1/compile", body)
                assert status in (200, 202), payload
                acked[payload["job"]["id"]] = payload["job"]["status"]
                if status == 200:
                    assert payload["result"]["benchmark"] == "HS2"
            life.wait_job(payload["job"]["id"])
        except _DIED:
            return acked, False
        return acked, True

    @staticmethod
    def _audit(life, acked):
        """Every journaled job settles, each exactly once."""
        _, listing = life.request("GET", "/v1/jobs")
        ids = [job["id"] for job in listing["jobs"]]
        assert set(acked) <= set(ids) and len(ids) <= 3, (acked, ids)
        settled = {job_id: life.wait_job(job_id) for job_id in ids}
        assert all(
            payload["job"]["status"] == "done" for payload in settled.values()
        ), settled
        for job_id, status in acked.items():
            if status == "done":
                # Settled before the crash: listed, never re-run (a
                # recovered terminal job has no result to show).
                assert settled[job_id]["job"]["recovered"] is True
                assert "result" not in settled[job_id]
        count = functools.partial(
            life.metric, "repro_service_recovered_jobs_total"
        )
        terminal = count(disposition="terminal")
        reexecuted = count(disposition="reexecuted")
        requeued = count(disposition="requeued")
        assert terminal + reexecuted + requeued == len(ids)
        assert reexecuted == sum(
            payload["job"]["interrupted"] for payload in settled.values()
        )
        assert life.metric(
            "repro_service_jobs_completed_total",
            kind="compile", tenant="default", status="done",
        ) == reexecuted + requeued
        assert sum(
            "result" in payload for payload in settled.values()
        ) == reexecuted + requeued

    def test_every_crash_point_completes_each_job_exactly_once(
        self, tmp_path
    ):
        fsyncs = None
        for n in range(1, 40):
            root = tmp_path / f"kill-{n}"
            root.mkdir()
            life = Daemon(
                root, fault_inject=f"serve-kill:{n}", lifetag="1", workers=1
            )
            try:
                life.wait_listening()
                acked, survived = self._drive(life)
                if survived:
                    assert life.terminate_clean() == 0
                else:
                    assert life.wait_death() == INJECTED_CRASH_EXIT_CODE
            finally:
                life.cleanup()
            if survived:
                fsyncs = n - 1
                break
            restarted = Daemon(root, lifetag="2", workers=1)
            try:
                restarted.wait_listening()
                self._audit(restarted, acked)
                assert restarted.terminate_clean() == 0
            finally:
                restarted.cleanup()
        # Every job journals at least submitted, running and done.
        assert fsyncs is not None and fsyncs >= 3


class TestTornTailRecovery:
    def test_half_written_record_is_skipped_with_a_warning(self, tmp_path):
        """``wal-torn-tail``: the very first append writes half its
        bytes and dies.  The unacknowledged job is lost (it was never
        202'd), the restarted daemon warns, survives, and serves."""
        life1 = Daemon(tmp_path, fault_inject="wal-torn-tail", lifetag="1")
        try:
            life1.wait_listening()
            try:
                life1.request("POST", "/v1/compile", BODY_B, timeout=30)
            except (ConnectionError, http.client.HTTPException, OSError):
                pass  # the daemon died before answering — expected
            assert life1.wait_death() == INJECTED_CRASH_EXIT_CODE
            wal = (tmp_path / "wal.jsonl").read_bytes()
            assert wal and not wal.endswith(b"\n")  # genuinely torn
        finally:
            life1.cleanup()

        life2 = Daemon(tmp_path, lifetag="2")
        try:
            life2.wait_listening()
            status, payload = life2.request("GET", "/healthz")
            assert status == 200 and payload["status"] == "ok"
            _, listing = life2.request("GET", "/v1/jobs")
            assert listing["jobs"] == []  # never acked -> legitimately lost
            # And the daemon said why, out loud.
            assert life2.terminate_clean() == 0
            assert "truncated final line" in life2.stderr()
        finally:
            life2.cleanup()


class TestSigkillRecovery:
    def test_sigkill_at_an_arbitrary_moment_never_loses_or_doubles(
        self, tmp_path
    ):
        """The nondeterministic killer: SIGKILL lands wherever it lands
        (queued, running, or done).  Whatever the interleaving, the
        acknowledged job must end up terminal exactly once."""
        life1 = Daemon(tmp_path, lifetag="1")
        try:
            life1.wait_listening()
            status, payload = life1.request("POST", "/v1/compile", BODY_B)
            assert status == 202
            job_b = payload["job"]["id"]
            life1.proc.kill()  # SIGKILL, uncatchable, right now
            assert life1.wait_death() == -signal.SIGKILL
        finally:
            life1.cleanup()

        life2 = Daemon(tmp_path, lifetag="2")
        try:
            life2.wait_listening()
            payload = life2.wait_job(job_b)
            assert payload["job"]["status"] in ("done", "failed")
            if payload["job"]["status"] == "done":
                assert payload["result"]["benchmark"] == "BV6"
            # Exactly once: at most one execution happened in life 2
            # (zero if the job finished before the SIGKILL landed).
            assert life2.metric(
                "repro_service_jobs_completed_total",
                kind="compile", tenant="default", status="done",
            ) <= 1.0
            assert life2.terminate_clean() == 0
        finally:
            life2.cleanup()
