"""Supervised worker processes for the daemon's compile and run jobs.

Compiling and simulating are CPU-bound Python.  Run on threads inside
the asyncio process, every job holds the interpreter lock the event
loop needs to answer the next request, so a hot request waits behind
whichever cold job is computing.  :class:`WorkerPool` moves that work
into ``size`` long-lived worker processes instead:

* the pool starts lazily, on the first job, with the ``spawn`` start
  method (safe in the daemon's multi-threaded process, unlike plain
  ``fork``);
* each worker keeps its own process-wide
  :class:`~repro.cache.memory.MemoryCache` over the shared disk cache,
  and reports the cache events a job caused together with its result,
  so the daemon's counters see them;
* a worker that dies mid-job fails only that job, with
  :class:`WorkerCrashed`; a job cancelled mid-flight (its deadline
  expired, or the drain gave up on it) kills its worker; either way the
  next job that finds no idle worker starts a replacement;
* a worker exits by itself when the daemon dies: a watchdog thread
  blocks on the parent-process sentinel and ends the process the
  moment the daemon is gone, even in the middle of a job.

The wire protocol is one :class:`multiprocessing.connection.Connection`
per worker: the daemon sends ``(kind, params)`` and receives
``("ok", payload, events)`` or ``("error", error, events)``; ``None``
asks the worker to exit.  The event loop waits on the connection and
on the process sentinel with ``add_reader``, so no thread sits between
the loop and its workers.
"""

from __future__ import annotations

import asyncio
import os
import threading
from typing import Any, Dict, List, Optional, Tuple

#: How long a stopping worker may take to exit before it is killed.
_STOP_GRACE_S = 5.0


class WorkerCrashed(RuntimeError):
    """A pool worker process died while running a job."""


def execute_job(kind: str, params: Dict[str, Any], cache) -> Dict[str, Any]:
    """One compile/run job's JSON payload (the worker-side body)."""
    from repro import api
    from repro.experiments.faults import maybe_inject_fault

    params = dict(params)
    if params.get("benchmark") is not None:
        maybe_inject_fault(str(params["benchmark"]), 1)
    if kind == "compile":
        return api.compile(cache=cache, **params).to_payload()
    benchmark = params.pop("benchmark")
    return api.run(benchmark, cache=cache, **params).to_payload()


def serve_jobs(conn, cache) -> None:
    """Answer job requests on ``conn`` until ``None`` or end of file.

    An exception raised by a job is reported as a structured error and
    the worker carries on; only a hard death ends it early.
    """
    events: List[str] = []
    cache.observer = events.append
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return
        if request is None:
            return
        kind, params = request
        del events[:]
        try:
            reply: Tuple[str, Any, List[str]] = (
                "ok", execute_job(kind, params, cache), list(events)
            )
        except Exception as exc:  # noqa: BLE001 - reported, worker survives
            reply = (
                "error",
                {"type": type(exc).__name__, "message": str(exc)},
                list(events),
            )
        try:
            conn.send(reply)
        except (OSError, ValueError):
            return


def _exit_with_parent() -> None:
    """End this process as soon as its parent (the daemon) is gone."""
    import multiprocessing
    from multiprocessing.connection import wait

    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def watch() -> None:
        wait([parent.sentinel])
        os._exit(0)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _worker_main(conn, cache_root: Optional[str], memory_entries: int) -> None:
    """Entry point of one worker process."""
    _exit_with_parent()
    from repro import api  # noqa: F401 - import before the first job
    from repro.cache import MemoryCache, activate_cache, open_cache

    backing = open_cache(cache_root, enabled=cache_root is not None)
    cache = MemoryCache(backing, max_entries=memory_entries)
    activate_cache(cache)
    serve_jobs(conn, cache)


class _Worker:
    """One worker process and the daemon's end of its connection."""

    def __init__(self, ctx, cache_root: Optional[str], memory_entries: int):
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child, cache_root, memory_entries),
            name="repro-job",
            daemon=True,
        )
        self.process.start()
        child.close()

    async def call(self, request) -> Tuple[str, Any, List[str]]:
        """Send one job and wait, in the event loop, for its reply."""
        try:
            self.conn.send(request)
        except OSError:
            raise self._crashed() from None
        loop = asyncio.get_running_loop()
        ready = loop.create_future()

        def wake() -> None:
            if not ready.done():
                ready.set_result(None)

        fds = (self.conn.fileno(), self.process.sentinel)
        for fd in fds:
            loop.add_reader(fd, wake)
        try:
            await ready
        finally:
            for fd in fds:
                loop.remove_reader(fd)
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            raise self._crashed() from None

    def _crashed(self) -> WorkerCrashed:
        self.process.join(_STOP_GRACE_S)
        return WorkerCrashed(
            f"worker pid {self.process.pid} died with exit code "
            f"{self.process.exitcode}"
        )

    def stop(self) -> None:
        """Ask an idle worker to exit."""
        try:
            self.conn.send(None)
        except OSError:
            pass

    def destroy(self, grace_s: float = _STOP_GRACE_S) -> None:
        """Make sure the process is gone, waiting up to ``grace_s``."""
        self.process.join(grace_s)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(grace_s)
        self.conn.close()


class WorkerPool:
    """``size`` supervised worker processes, started on first use."""

    def __init__(
        self, size: int, cache_root: Optional[str], memory_entries: int
    ) -> None:
        self.size = size
        self.cache_root = cache_root
        self.memory_entries = memory_entries
        self._ctx = None
        self._idle: List[_Worker] = []

    def _spawn(self) -> _Worker:
        return _Worker(self._ctx, self.cache_root, self.memory_entries)

    def _take(self) -> _Worker:
        if self._ctx is None:
            # Imported here, not at module level: booting the daemon
            # should not pay for multiprocessing before the first job.
            import multiprocessing

            self._ctx = multiprocessing.get_context("spawn")
            self._idle.extend(self._spawn() for _ in range(self.size))
        while self._idle:
            worker = self._idle.pop()
            if worker.process.is_alive():
                return worker
            # Died while idle (OOM killer, stray signal): replace it.
            worker.destroy(0.0)
        return self._spawn()

    async def run(
        self, kind: str, params: Dict[str, Any]
    ) -> Tuple[str, Any, List[str]]:
        """Run one job on an idle worker; the worker's reply tuple.

        Raises :class:`WorkerCrashed` when the worker dies mid-job.  If
        the caller is cancelled, the busy worker is killed.  Either way
        the next job that finds no idle worker spawns a fresh one.
        """
        worker = self._take()
        try:
            reply = await worker.call((kind, params))
        except BaseException:
            worker.process.kill()
            worker.destroy()
            raise
        self._idle.append(worker)
        return reply

    def close(self) -> None:
        """Stop and join every idle worker (busy ones were cancelled)."""
        idle, self._idle = self._idle, []
        for worker in idle:
            worker.stop()
        for worker in idle:
            worker.destroy()
