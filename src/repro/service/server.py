"""The ``repro serve`` daemon: compilation as a long-lived service.

A zero-dependency asyncio HTTP/JSON server (stdlib only — the HTTP/1.1
framing is parsed by hand) that fronts :mod:`repro.api` with:

* a **multi-tenant job queue** — submissions carry a ``tenant`` name
  mapped to a priority/rate class (:mod:`repro.service.config`); the
  scheduler is strict-priority with per-tenant token buckets
  (:mod:`repro.service.queue`);
* a **persistent warm cache** — one process-wide
  :class:`~repro.cache.memory.MemoryCache` front over the on-disk
  store, shared by every request, so compiled programs, reliability
  matrices, and warm-start hints stay hot across jobs;
* **request coalescing** — concurrent submissions whose
  content-addressed key (:func:`repro.api.compile_cache_key`) matches
  an in-flight job never queue a second compile: they share the
  primary's future and copy its outcome, counted by
  ``repro_service_cache_events_total{event="coalesced"}``;
* a **/metrics endpoint** — the existing Prometheus exposition
  (:meth:`repro.obs.MetricsRegistry.render_prometheus`), parseable by
  the strict :func:`repro.obs.parse_prometheus`;
* **graceful drain** — SIGTERM/SIGINT stops intake (503), finishes
  queued and running jobs within ``drain_grace_s``, then exits 0;
* **a write-ahead job journal** — with the WAL on (the default when a
  disk cache exists), every accepted job is journaled fsync-first
  *before* its HTTP acknowledgement and every state transition is
  appended; a restarted daemon replays the log, re-enqueueing queued
  jobs and re-executing interrupted running jobs exactly once (their
  content-addressed cache keys double as idempotency keys, so a
  replayed compile whose artifact already landed short-circuits to
  the cache); see :mod:`repro.service.wal`;
* **deadline propagation** — a submission's ``deadline_s`` budget is
  enforced at admission (jobs that provably cannot start in time are
  rejected 429 + ``Retry-After``), execution (a running job past its
  deadline fails with a structured ``DeadlineExceeded``), and across
  restarts (the WAL persists the absolute deadline).

Endpoints::

    GET  /healthz           liveness + draining flag
    GET  /metrics           Prometheus exposition
    GET  /v1/jobs           every tracked job's status block
    GET  /v1/jobs/<id>      one job, result/error included
    POST /v1/compile        {"benchmark"|"scaffold", "device", ...}
    POST /v1/run            {"benchmark", "device", "fault_samples", ...}
    POST /v1/sweep          {"device", "compilers", "benchmarks", ...}
    POST /admin/pause       freeze dispatch      (with --admin)
    POST /admin/resume      resume dispatch      (with --admin)

Submissions accept ``tenant`` (class name), ``wait`` (default true:
block until the job finishes, else 202 + job id immediately), and
``timeout`` (seconds before a waiting submission degrades to 202).
Worker faults (:mod:`repro.experiments.faults`, ``REPRO_FAULT_INJECT``)
stay contained: a crashed sweep cell surfaces as a structured
``TaskFailure`` entry in that job's payload, and a job that raises
fails with ``{"type", "message"}`` — the daemon itself never dies.
"""

from __future__ import annotations

import asyncio
import functools
import json
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.cache import MemoryCache, activate_cache, digest, open_cache
from repro.durable import atomic_write
from repro.experiments.faults import slow_response_delay_s
from repro.obs import MetricsRegistry
from repro.service.config import DEFAULT_TENANT, ServiceConfig
from repro.service.http import (
    HttpError,
    parse_json_body,
    read_request,
    write_response,
)
from repro.service.jobs import Job
from repro.service.queue import (
    DeadlineUnmeetable,
    JobQueue,
    QueueClosed,
    QueueFull,
)
from repro.service.wal import JobWAL

#: Fields a submission may carry besides the per-kind parameters.
_CONTROL_FIELDS = {"tenant", "wait", "timeout", "deadline_s"}

#: Per-kind parameter allow-lists (everything else is a 400).
_PARAM_FIELDS = {
    "compile": {
        "benchmark", "scaffold", "defines", "device", "level", "day",
        "contracts", "mapper", "opt",
    },
    "run": {
        "benchmark", "device", "level", "day", "fault_samples", "contracts",
        "mapper", "opt",
    },
    "sweep": {
        "device", "compilers", "benchmarks", "day", "days", "fault_samples",
        "with_success", "workers", "base_seed", "task_timeout_s", "retries",
        "skip_bad_days", "run_id", "resume", "contracts", "mapper", "opt",
    },
}


# The HTTP framing lives in repro.service.http, shared with the
# distributed sweep coordinator; the old private name stays importable.
_HttpError = HttpError


class ReproService:
    """One daemon instance: queue, warm cache, HTTP front, metrics."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.backing = open_cache(
            self.config.cache_dir, enabled=self.config.cache_enabled
        )
        self.cache = MemoryCache(
            self.backing, max_entries=self.config.memory_entries
        )
        self.queue = JobQueue(self.config.tenants)
        self.jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, Job] = {}
        self._seq = 0
        self.draining = False
        self.port: Optional[int] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.wal = self._open_wal()

        self.registry = MetricsRegistry()
        self._requests = self.registry.counter(
            "repro_service_requests_total", "HTTP requests handled"
        )
        self._jobs_submitted = self.registry.counter(
            "repro_service_jobs_submitted_total", "Jobs accepted"
        )
        self._jobs_completed = self.registry.counter(
            "repro_service_jobs_completed_total",
            "Jobs finished, by terminal status",
        )
        self._cache_events = self.registry.counter(
            "repro_service_cache_events_total",
            "Warm-cache and coalescer events",
        )
        self._latency = self.registry.histogram(
            "repro_service_job_latency_seconds", "Job execution latency"
        )
        self._queue_depth = self.registry.gauge(
            "repro_service_queue_depth", "Jobs waiting in the queue"
        )
        self._running_jobs = self.registry.gauge(
            "repro_service_running_jobs", "Jobs currently executing"
        )
        self._draining_gauge = self.registry.gauge(
            "repro_service_draining", "1 while the daemon drains"
        )
        self._wal_records = self.registry.counter(
            "repro_service_wal_records_total",
            "WAL records appended, by event",
        )
        self._recovered = self.registry.counter(
            "repro_service_recovered_jobs_total",
            "Jobs reconstructed from the WAL on startup, by disposition",
        )
        self._deadlines = self.registry.counter(
            "repro_service_deadline_events_total",
            "Deadline enforcement events, by stage",
        )
        self._running = 0

    def _open_wal(self) -> Optional[JobWAL]:
        """The job WAL, or None when disabled / nowhere durable."""
        if not self.config.wal_enabled:
            return None
        path = self.config.wal_path
        if path is None:
            root = getattr(self.backing, "root", None)
            if root is None:
                # Cache disabled and no explicit WAL path: there is no
                # durable directory to anchor recovery to.
                return None
            path = Path(root) / "service" / "wal.jsonl"
        return JobWAL(path)

    @property
    def wal_enabled(self) -> bool:
        return self.wal is not None

    def _wal_append(self, event: str, append) -> None:
        """Run one WAL append and count it (no-op with the WAL off)."""
        if self.wal is None:
            return
        append()
        self._wal_records.inc(event=event)

    # ------------------------------------------------------------------
    # Lifecycle

    async def serve(self) -> int:
        """Run until SIGTERM/SIGINT, drain, and return the exit code."""
        config = self.config
        loop = asyncio.get_running_loop()
        self.loop = loop
        self._stop = asyncio.Event()
        self._kick = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
            except (NotImplementedError, ValueError, RuntimeError):
                # Non-main thread (in-process tests) or platforms
                # without signal support: request_stop() still works.
                pass
        activate_cache(self.cache)
        self.cache.observer = self._on_cache_event
        self._recover()
        self.executor = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="repro-job"
        )
        server = await asyncio.start_server(
            self._handle_client, config.host, config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        if config.port_file:
            atomic_write(config.port_file, f"{self.port}\n".encode("utf-8"))
        print(
            f"repro service listening on http://{config.host}:{self.port}",
            file=sys.stderr,
            flush=True,
        )
        workers = [
            loop.create_task(self._worker()) for _ in range(config.workers)
        ]
        try:
            await self._stop.wait()
        finally:
            self.draining = True
            self._draining_gauge.set(1.0)
            self.queue.close()
            self._kick.set()
            try:
                await asyncio.wait_for(
                    asyncio.gather(*workers), timeout=config.drain_grace_s
                )
            except asyncio.TimeoutError:
                for task in workers:
                    task.cancel()
                await asyncio.gather(*workers, return_exceptions=True)
            server.close()
            await server.wait_closed()
            self.executor.shutdown(wait=False)
            if self.wal is not None:
                self.wal.close()
            if config.port_file:
                # The port file is a liveness signal for wrappers polling
                # an ephemeral port; leaving it behind after the drain
                # would advertise a daemon that no longer exists.
                try:
                    Path(config.port_file).unlink()
                except OSError:
                    pass
        print("repro service drained cleanly", file=sys.stderr, flush=True)
        return 0

    def request_stop(self) -> None:
        """Begin the graceful drain (signal handler / test hook)."""
        if not self._stop.is_set():
            self._stop.set()

    # ------------------------------------------------------------------
    # WAL recovery

    def _recover(self) -> None:
        """Replay the WAL: reconstruct the job table, compact the log.

        Runs once at boot, *before* the listener opens, so a client
        never races recovery.  Dispositions:

        * terminal (``done``/``failed``) — re-registered for
          ``/v1/jobs`` visibility with ``recovered: true``; result
          payloads are not persisted in the WAL (artifacts live in the
          compile cache), so only the status block survives;
        * ``queued`` — re-enqueued; identical idempotency keys fold
          onto one primary through the normal coalescer, so a restart
          never turns N duplicate submissions into N compiles;
        * ``running`` — the daemon died mid-execution: re-enqueued
          with ``interrupted: true`` and re-executed exactly once; a
          compile whose artifact already reached the cache before the
          crash short-circuits to a cache hit (zero recompiles);
        * past-deadline — failed immediately with a structured
          ``DeadlineExceeded`` instead of burning budget on work whose
          client-side deadline has already passed.
        """
        if self.wal is None:
            return
        replayed = self.wal.replay()
        if not replayed:
            return
        for entry in replayed:
            try:
                self._seq = max(self._seq, int(entry.id.rsplit("-", 1)[1]))
            except (IndexError, ValueError):
                pass
        still_pending = []
        now = time.time()
        for entry in replayed:
            job = Job(
                id=entry.id,
                kind=entry.kind,
                tenant=entry.tenant,
                params=entry.params,
                coalesce_key=entry.coalesce_key,
                submitted_at=entry.submitted_at,
                deadline_s=entry.deadline_s,
                recovered=True,
            )
            if entry.terminal:
                job.status = entry.status
                job.error = entry.error
                self.jobs[job.id] = job
                self._recovered.inc(disposition="terminal")
                continue
            job.interrupted = entry.interrupted
            job.future = self.loop.create_future()
            remaining = job.remaining_s(now)
            if remaining is not None and remaining <= 0:
                self._fail_deadline(job, stage="recovery")
                self.jobs[job.id] = job
                self._recovered.inc(disposition="deadline_expired")
                continue
            # Re-fold duplicates exactly like live submissions: the
            # stored coalesced_with points at a previous-life primary,
            # so recompute against what is in flight *now*.
            primary = (
                self._inflight.get(job.coalesce_key)
                if job.coalesce_key else None
            )
            if primary is not None and not primary.finished:
                job.coalesced_with = primary.id
                primary.duplicates.append(job.id)
                self._cache_events.inc(event="coalesced")
            else:
                try:
                    self.queue.submit(job)
                except QueueFull as exc:
                    job.status = "failed"
                    job.error = {
                        "type": "QueueFull",
                        "message": f"not recoverable: {exc}",
                    }
                    self.jobs[job.id] = job
                    self._recovered.inc(disposition="dropped")
                    continue
                if job.coalesce_key:
                    self._inflight[job.coalesce_key] = job
            self.jobs[job.id] = job
            still_pending.append(entry)
            self._recovered.inc(
                disposition=(
                    "reexecuted" if job.interrupted else "requeued"
                )
            )
        # Compact before any new appends: pending jobs become fresh
        # submitted records, terminal ones are dropped, and the fsync
        # counter restarts — a crash during compaction leaves either
        # log, never a blend (atomic rename).
        self.wal.rewrite(still_pending)
        # Deadline failures discovered during replay are journaled
        # after compaction so the next replay sees them terminal...
        # except their submitted records were just dropped, which is
        # equivalent: an unknown id's transitions are ignored.
        for job_id, job in self.jobs.items():
            if job.recovered and job.status == "failed" and (
                job.error or {}
            ).get("type") == "DeadlineExceeded":
                self._jobs_completed.inc(
                    kind=job.kind, tenant=job.tenant, status="failed"
                )
        print(
            f"repro service recovered {len(replayed)} WAL job(s): "
            f"{len(still_pending)} re-enqueued",
            file=sys.stderr,
            flush=True,
        )

    def _fail_deadline(self, job: Job, stage: str) -> None:
        """Mark one job failed with a structured DeadlineExceeded."""
        job.status = "failed"
        job.finished_at = time.time()
        job.error = {
            "type": "DeadlineExceeded",
            "message": (
                f"deadline of {job.deadline_s}s expired at stage "
                f"{stage!r} (submitted at {job.submitted_at})"
            ),
            "deadline_s": job.deadline_s,
            "stage": stage,
        }
        self._deadlines.inc(stage=stage)
        if job.future is not None and not job.future.done():
            job.future.set_result(None)

    def _on_cache_event(self, event: str) -> None:
        """Cache events arrive from executor threads; count in-loop."""
        loop = self.loop
        if loop is None or not loop.is_running():
            return
        loop.call_soon_threadsafe(
            functools.partial(self._cache_events.inc, event=event)
        )

    # ------------------------------------------------------------------
    # Workers

    async def _worker(self) -> None:
        while True:
            job, delay = self.queue.pop_ready()
            if job is None:
                if self.queue.drained:
                    return
                timeout = delay if delay is not None else 0.25
                try:
                    await asyncio.wait_for(self._kick.wait(), timeout)
                except asyncio.TimeoutError:
                    pass
                else:
                    self._kick.clear()
                continue
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        job.status = "running"
        job.started_at = time.time()
        remaining = job.remaining_s(job.started_at)
        if remaining is not None and remaining <= 0:
            # The budget expired while queued: fail without burning an
            # executor slot (and without a WAL "running" record — the
            # job never ran).
            self._fail_deadline(job, stage="queue")
            self._wal_append(
                "failed",
                lambda: self.wal.finished(job.id, "failed", job.error),
            )
            self._jobs_completed.inc(
                kind=job.kind, tenant=job.tenant, status="failed"
            )
            self._finish(job)
            return
        # Journaled before execution: a crash from here on leaves a
        # "running" record, which replay re-executes exactly once.
        self._wal_append("running", lambda: self.wal.running(job.id))
        self._running += 1
        started = time.monotonic()
        try:
            payload = await asyncio.wait_for(
                self.loop.run_in_executor(self.executor, self._execute, job),
                timeout=remaining,
            )
        except asyncio.TimeoutError:
            # Cooperative cancel: the executor thread cannot be killed
            # and may still finish in the background, but its result
            # is discarded — the client contract is the deadline.
            self._fail_deadline(job, stage="execution")
        except Exception as exc:  # noqa: BLE001 - contained per job
            job.error = {"type": type(exc).__name__, "message": str(exc)}
            job.status = "failed"
        else:
            job.result = payload
            job.status = "done"
        job.finished_at = time.time()
        self._running -= 1
        self._latency.observe(time.monotonic() - started, kind=job.kind)
        self._jobs_completed.inc(
            kind=job.kind, tenant=job.tenant, status=job.status
        )
        self._wal_append(
            job.status,
            lambda: self.wal.finished(job.id, job.status, job.error),
        )
        self._finish(job)

    def _execute(self, job: Job) -> Dict[str, Any]:
        """Run one job's api call (executor thread)."""
        from repro import api

        params = dict(job.params)
        if job.kind == "compile":
            return api.compile(cache=self.cache, **params).to_payload()
        if job.kind == "run":
            benchmark = params.pop("benchmark")
            return api.run(
                benchmark, cache=self.cache, **params
            ).to_payload()
        device = params.pop("device")
        compilers = params.pop("compilers", ["1QOptCN"])
        # Sweeps go straight to the disk store: the journal and the
        # process-pool workers both key off its directory.
        result = api.sweep(
            device, compilers, cache=self.backing, **params
        )
        payload = result.to_payload()
        report = result.report
        if report is not None and report.metrics is not None:
            self.loop.call_soon_threadsafe(
                self.registry.merge, report.metrics
            )
        return payload

    def _finish(self, job: Job) -> None:
        if (
            job.coalesce_key
            and self._inflight.get(job.coalesce_key) is job
        ):
            del self._inflight[job.coalesce_key]
        if job.future is not None and not job.future.done():
            job.future.set_result(None)
        for dup_id in job.duplicates:
            duplicate = self.jobs.get(dup_id)
            if duplicate is None:
                continue
            duplicate.status = job.status
            duplicate.result = job.result
            duplicate.error = job.error
            duplicate.started_at = job.started_at
            duplicate.finished_at = job.finished_at
            # Duplicates reach their terminal state in the WAL too, so
            # a restart never re-runs work the primary already settled.
            self._wal_append(
                duplicate.status,
                lambda d=duplicate: self.wal.finished(
                    d.id, d.status, d.error
                ),
            )
            if duplicate.future is not None and not duplicate.future.done():
                duplicate.future.set_result(None)

    # ------------------------------------------------------------------
    # Submission

    def _prepare(self, kind: str, body: Dict[str, Any]) -> Tuple[
        Dict[str, Any], Optional[str]
    ]:
        """Validated api params + coalescing key for one submission."""
        from repro import api
        from repro.compiler import CompileOptions
        from repro.devices import device_by_name
        from repro.programs import benchmark_by_name

        allowed = _PARAM_FIELDS[kind]
        unknown = set(body) - allowed - _CONTROL_FIELDS
        if unknown:
            raise ValueError(f"unknown fields: {sorted(unknown)}")
        params = {key: body[key] for key in allowed if key in body}
        # Every kind validates its compile knobs at admission, before
        # anything is queued or journaled.
        knobs = CompileOptions.from_params(params).as_params()
        if kind == "compile" and (
            ("benchmark" in params) == ("scaffold" in params)
        ):
            raise ValueError("give exactly one of 'benchmark' or 'scaffold'")
        if kind == "run" and "benchmark" not in params:
            raise ValueError(
                "'run' needs a suite benchmark (known correct answer)"
            )
        if "device" not in params:
            raise ValueError("'device' is required")
        if kind != "sweep":
            key = api.compile_cache_key(
                benchmark=params.get("benchmark"),
                scaffold=params.get("scaffold"),
                defines=params.get("defines"),
                device=params["device"],
                level=params.get("level", "1QOptCN"),
                day=params.get("day", 0),
                **knobs,
            )
            if kind == "compile":
                return params, f"compile:{key}"
            samples = params.get("fault_samples", 100)
            return params, f"run:{key}:fs{samples}"
        day = params.get("day", 0)
        device_by_name(str(params["device"]), day=day)
        api.resolve_compilers(params.get("compilers", ["1QOptCN"]))
        for name in params.get("benchmarks") or []:
            benchmark_by_name(str(name))
        if params.get("run_id") or params.get("resume"):
            # Resumable sweeps are stateful; never fold them together.
            return params, None
        spec = json.dumps(params, sort_keys=True, default=str)
        return params, f"sweep:{digest('service-sweep', spec)}"

    @staticmethod
    def _parse_deadline(body: Dict[str, Any]) -> Optional[float]:
        raw = body.get("deadline_s")
        if raw is None:
            return None
        try:
            deadline = float(raw)
        except (TypeError, ValueError):
            raise ValueError("bad 'deadline_s': must be a number") from None
        if deadline <= 0:
            raise ValueError("bad 'deadline_s': must be > 0")
        return deadline

    def submit(self, kind: str, body: Dict[str, Any]) -> Job:
        """Queue (or coalesce) one job; raises for every rejection."""
        if self.draining:
            raise QueueClosed("service is draining")
        tenant = str(body.get("tenant") or DEFAULT_TENANT)
        deadline_s = self._parse_deadline(body)
        params, coalesce_key = self._prepare(kind, body)
        if deadline_s is not None:
            # Admission control: a budget the rate limiter provably
            # consumes before the job could start is rejected now, not
            # after it times out in the queue.
            wait_s = self.queue.admission_delay(tenant)
            if wait_s >= deadline_s:
                self._deadlines.inc(stage="admission")
                raise DeadlineUnmeetable(tenant, wait_s, deadline_s)
        self._seq += 1
        job = Job(
            id=f"job-{self._seq:06d}",
            kind=kind,
            tenant=tenant,
            params=params,
            coalesce_key=coalesce_key,
            submitted_at=time.time(),
            deadline_s=deadline_s,
        )
        job.future = self.loop.create_future()
        primary = (
            self._inflight.get(coalesce_key) if coalesce_key else None
        )
        if primary is not None and not primary.finished:
            job.coalesced_with = primary.id
            primary.duplicates.append(job.id)
            self._cache_events.inc(event="coalesced")
        else:
            self.queue.submit(job)
            if coalesce_key:
                self._inflight[coalesce_key] = job
            self._kick.set()
        # Journal *before* registration and the HTTP acknowledgement:
        # what the client hears "accepted" for, a restart recovers.
        self._wal_append("submitted", lambda: self.wal.submitted(
            job.wal_entry()
        ))
        self.jobs[job.id] = job
        self._jobs_submitted.inc(kind=kind, tenant=tenant)
        return job

    # ------------------------------------------------------------------
    # HTTP front

    @staticmethod
    async def _maybe_slow() -> None:
        """Honor ``slow-response:MS`` fault injection (test-only path)."""
        delay = slow_response_delay_s()
        if delay > 0:
            await asyncio.sleep(delay)

    @staticmethod
    def _error_headers(exc: HttpError) -> Optional[Dict[str, str]]:
        """``Retry-After`` for back-pressure errors (429/503)."""
        if exc.retry_after_s is None:
            return None
        return {"Retry-After": str(max(1, int(exc.retry_after_s + 0.999)))}

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        method = route = "?"
        status = 0
        try:
            request = await read_request(reader)
            if request is not None:
                method, target, body = request
                try:
                    route, status, payload, text = await self._route(
                        method, target, body
                    )
                    await self._maybe_slow()
                    write_response(writer, status, payload=payload, text=text)
                except _HttpError as exc:
                    status = exc.status
                    await self._maybe_slow()
                    write_response(
                        writer,
                        exc.status,
                        payload={"error": exc.message},
                        headers=self._error_headers(exc),
                    )
                except Exception as exc:  # noqa: BLE001 - daemon survives
                    status = 500
                    write_response(
                        writer,
                        500,
                        payload={"error": f"{type(exc).__name__}: {exc}"},
                    )
        except _HttpError as exc:
            status = exc.status
            write_response(
                writer,
                exc.status,
                payload={"error": exc.message},
                headers=self._error_headers(exc),
            )
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ConnectionError,
        ):
            pass
        finally:
            if status:
                self._requests.inc(
                    method=method, route=route, status=str(status)
                )
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001
                pass

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[str, int, Optional[Dict[str, Any]], Optional[str]]:
        """Dispatch one request; returns (route-label, status, json, text)."""
        path = target.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            return path, 200, {
                "status": "ok",
                "draining": self.draining,
                "paused": self.queue.paused,
                "wal_enabled": self.wal_enabled,
                "jobs": len(self.jobs),
            }, None
        if path == "/metrics" and method == "GET":
            return path, 200, None, self._metrics_text()
        if path == "/v1/jobs" and method == "GET":
            return path, 200, {
                "jobs": [job.describe() for job in self.jobs.values()]
            }, None
        if path.startswith("/v1/jobs/") and method == "GET":
            job = self.jobs.get(path[len("/v1/jobs/"):])
            if job is None:
                raise _HttpError(404, "no such job")
            return "/v1/jobs/{id}", 200, self._job_payload(job), None
        if path in ("/v1/compile", "/v1/run", "/v1/sweep"):
            if method != "POST":
                raise _HttpError(405, "POST only")
            status, payload = await self._handle_submit(
                path.rsplit("/", 1)[1], body
            )
            return path, status, payload, None
        if path in ("/admin/pause", "/admin/resume"):
            if not self.config.admin:
                raise _HttpError(404, "admin endpoints are disabled")
            if method != "POST":
                raise _HttpError(405, "POST only")
            if path.endswith("pause"):
                self.queue.pause()
            else:
                self.queue.resume()
                self._kick.set()
            return path, 200, {"paused": self.queue.paused}, None
        raise _HttpError(404, f"no route {method} {path}")

    def _metrics_text(self) -> str:
        self._queue_depth.set(float(self.queue.depth()))
        self._running_jobs.set(float(self._running))
        return self.registry.render_prometheus()

    def _job_payload(self, job: Job) -> Dict[str, Any]:
        payload = {"job": job.describe()}
        if job.result is not None:
            payload["result"] = job.result
        if job.error is not None:
            payload["error"] = job.error
        return payload

    async def _handle_submit(
        self, kind: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        parsed = parse_json_body(body)
        try:
            job = self.submit(kind, parsed)
        except QueueClosed:
            # Draining daemons restart quickly (supervisors relaunch
            # them); tell clients to come back shortly.
            raise _HttpError(
                503, "service is draining", retry_after_s=1.0
            ) from None
        except DeadlineUnmeetable as exc:
            raise _HttpError(
                429, str(exc), retry_after_s=exc.wait_s
            ) from None
        except QueueFull as exc:
            raise _HttpError(
                429,
                str(exc),
                retry_after_s=max(
                    1.0, self.queue.admission_delay(exc.tenant)
                ),
            ) from None
        except (ValueError, KeyError, TypeError) as exc:
            raise _HttpError(400, str(exc)) from None
        wait = bool(parsed.get("wait", True))
        if not wait:
            return 202, {"job": job.describe()}
        try:
            timeout = float(
                parsed.get("timeout", self.config.default_wait_timeout_s)
            )
        except (TypeError, ValueError):
            raise _HttpError(400, "bad 'timeout'") from None
        try:
            await asyncio.wait_for(
                asyncio.shield(job.future), timeout=timeout
            )
        except asyncio.TimeoutError:
            return 202, {"job": job.describe()}
        if job.status == "done":
            status = 200
        elif (job.error or {}).get("type") == "DeadlineExceeded":
            # The *client's* budget ran out, not the daemon: 504, so
            # monitoring never confuses deadline misses with crashes.
            status = 504
        else:
            status = 500
        return status, self._job_payload(job)


def run_service(config: Optional[ServiceConfig] = None) -> int:
    """Boot one daemon and block until it drains (the CLI entry)."""
    try:
        return asyncio.run(ReproService(config).serve())
    except KeyboardInterrupt:
        # Platforms without add_signal_handler deliver SIGINT as
        # KeyboardInterrupt; treat it like SIGTERM's graceful exit.
        return 0
