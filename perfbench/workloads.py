"""The four workloads: set-up, warm-up, timed run, verification, replay.

Every workload drives the public surface (``repro.api``, the in-process
``repro.service`` daemon over localhost HTTP, ``repro.api.sweep``) with
inputs from :mod:`inputs`.  ``timed`` measures the end-to-end metrics
with nothing instrumented; ``traced`` runs the same inputs once through
the API and once through :mod:`replay`, compares the two, and reports
the per-layer figures.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict
from math import fsum
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import inputs
from common import (
    WORK,
    Layers,
    median,
    peak_rss_mb,
    per_input_geomean,
    percentile,
    samples_beyond,
    workers,
)
from inputs import Cell
from loadgen import post
from replay import LAYERS, reliability_source, run_cell

#: Success probabilities of an ideal (noise-free) run of a suite
#: benchmark must be 1 up to float rounding.
IDEAL_TOLERANCE = 1e-9
#: Seconds one pass takes on the 2-core reference machine.  compile_grid
#: and sweep_days run round(seconds / pass) whole passes, so every input
#: gets the same number of samples (and so a steady median) in every run.
GRID_PASS_S = 12.0
SWEEP_PASS_S = 8.0
#: Widest device whose grid cells count towards compile_grid's
#: mean_success_rate (see ``CompileGrid._verify``).
ESP_MAX_QUBITS = 14


class Outcome:
    """What one run measured and verified."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.checks = 0
        self.mismatches = 0
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.details: Dict[str, Any] = {}

    def expect(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition:
            self.mismatches += 1
            if len(self.problems) < 20:
                self.problems.append(message)

    @property
    def correct(self) -> bool:
        return self.mismatches == 0 and self.checks > 0


def end_to_end(
    out: Outcome,
    latencies_s: List[float],
    per_input: Dict[Any, List[float]],
    duration_s: float,
    rss_mb: float,
    two_qubit_total: int,
    mean_success: float,
) -> None:
    """Fill the end-to-end metrics every workload reports.

    ``rss_mb`` is read when the timed phase ends, so verification does
    not count towards it.  Callers average ``mean_success`` with
    ``math.fsum``, which rounds once, so the figure does not depend on
    the order the seed put the inputs in.
    """
    out.metrics.update({
        "throughput_ops_per_s": (len(latencies_s) / duration_s, "1/s"),
        "latency_p50_ms": (median(latencies_s) * 1e3, "ms"),
        "op_geomean_ms": (per_input_geomean(per_input) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "two_qubit_gates_total": (float(two_qubit_total), "count"),
        "mean_success_rate": (mean_success, "prob"),
    })
    out.details.update({
        "ops": len(latencies_s),
        "inputs": len(per_input),
        "duration_s": duration_s,
        # Printed, not gated: on the 2-core reference machine its
        # run-to-run spread on service_mixed exceeds any allowed bound.
        "latency_p95_ms": percentile(latencies_s, 95) * 1e3,
        "p95_samples_beyond": samples_beyond(len(latencies_s), 95),
    })


def layer_metrics(
    out: Outcome, layers: Layers, replay_s: float, api_s: float
) -> None:
    """Busy time, share and counts of every replayed layer."""
    for layer in LAYERS:
        busy = layers.busy_s.get(layer, 0.0)
        out.metrics[f"{layer}.busy_ms"] = (busy * 1e3, "ms")
        out.metrics[f"{layer}.share"] = (
            busy / replay_s if replay_s else 0.0, "frac"
        )
    counts = layers.counts
    for name, unit in (
        ("ir.gates_out", "count"),
        ("compiler.reliability.calls", "count"),
        ("smt.solver_nodes", "count"),
        ("smt.degraded", "count"),
        ("compiler.routing.swaps", "count"),
        ("compiler.passes.gates_removed", "count"),
        ("compiler.passes.two_qubit_removed", "count"),
        ("compiler.onequbit.pulses", "count"),
        ("backends.bytes", "B"),
        ("sim.fault_samples", "count"),
    ):
        out.metrics[name] = (float(counts.get(name, 0.0)), unit)
    runs = counts.get("sim.runs", 0.0)
    out.metrics["sim.state_qubits_mean"] = (
        counts.get("sim.state_qubits", 0.0) / runs if runs else 0.0,
        "qubits",
    )
    out.metrics["trace.replay_ms"] = (replay_s * 1e3, "ms")
    out.metrics["trace.overhead_frac"] = (
        replay_s / api_s - 1.0 if api_s else 0.0, "frac"
    )


def _compile(cell: Cell, **extra):
    from repro import api

    return api.compile(
        cell.benchmark, device=cell.device, level=cell.level, day=cell.day,
        mapper=cell.mapper, opt=cell.opt, contracts=cell.contracts, **extra,
    )


def _run(cell: Cell, fault_samples: int):
    from repro import api

    return api.run(
        cell.benchmark, device=cell.device, level=cell.level, day=cell.day,
        fault_samples=fault_samples, mapper=cell.mapper, opt=cell.opt,
        contracts=cell.contracts,
    )


def _timed_passes(seconds: float, run_pass) -> float:
    """Run whole passes until ``seconds`` have gone; the wall time."""
    started = time.perf_counter()
    while True:
        run_pass()
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return elapsed


def _parse_back(executable: str, device):
    from repro.backends import parse_openqasm, parse_quil, parse_umdti_asm
    from repro.devices.gatesets import VendorFamily

    family = device.gate_set.family
    if family is VendorFamily.IBM:
        return parse_openqasm(executable)
    if family is VendorFamily.RIGETTI:
        return parse_quil(executable, num_qubits=device.num_qubits)
    return parse_umdti_asm(executable, num_qubits=device.num_qubits)


def empty_layers(out: Outcome) -> None:
    """Zero every per-layer metric; each workload fills its own."""
    layer_metrics(out, Layers(), 0.0, 0.0)
    for name, unit in PER_LAYER_EXTRA:
        out.metrics[name] = (0.0, unit)


#: Per-layer metrics outside the replayed pipeline layers.
PER_LAYER_EXTRA = (
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.stores", "count"),
    ("cache.hit_rate", "frac"),
    ("experiments.parallel.cell_busy_ms", "ms"),
    ("experiments.parallel.dispatch_overhead_frac", "frac"),
    ("experiments.parallel.retries", "count"),
    ("experiments.journal.records", "count"),
    ("experiments.journal.bytes", "B"),
    ("service.queue.wait_ms_p50", "ms"),
    ("service.queue.wait_ms_p95", "ms"),
    ("service.execute_ms_p50", "ms"),
    ("service.http.overhead_ms_p50", "ms"),
    ("service.coalesced_frac", "frac"),
    ("service.wal.records", "count"),
    ("service.wal.bytes", "B"),
    ("loadgen.late_p95_ms", "ms"),
    ("obs.overhead_frac", "frac"),
)


# ----------------------------------------------------------------------
class CompileGrid:
    """Cold ``api.compile`` (no cache) over the paper grid."""

    name = "compile_grid"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.cells = inputs.grid_cells(smoke)
        self.rng = random.Random(f"compile_grid:{seed}")

    def warmup(self) -> None:
        seen = set()
        for cell in self.cells:
            kind = (cell.device, cell.level, cell.mapper, cell.opt)
            if kind not in seen:
                seen.add(kind)
                _compile(cell)

    def timed(self, seconds: float, out: Outcome) -> None:
        samples: Dict[Cell, List[float]] = defaultdict(list)
        latencies: List[float] = []
        results: Dict[Cell, Any] = {}

        def one_pass():
            for cell in inputs.shuffled(self.cells, self.rng):
                out.attempted += 1
                started = time.perf_counter()
                try:
                    result = _compile(cell)
                except Exception as exc:  # noqa: BLE001 - counted
                    out.failed += 1
                    out.expect(False, f"{cell.label()}: {exc!r}")
                    continue
                elapsed = time.perf_counter() - started
                samples[cell].append(elapsed)
                latencies.append(elapsed)
                first = results.setdefault(cell, result)
                out.expect(
                    first.executable == result.executable,
                    f"{cell.label()}: executable differs between passes",
                )

        # A pass over the grid takes ~12 s on the 2-core reference
        # machine; a fixed pass count keeps every input's sample count
        # (and so its median) the same from run to run.
        passes = max(1, round(seconds / GRID_PASS_S))
        started = time.perf_counter()
        for _ in range(passes):
            one_pass()
        duration = time.perf_counter() - started
        rss = peak_rss_mb()
        out.details["passes"] = passes
        two_qubit, esp = self._verify(results, out)
        end_to_end(out, latencies, samples, duration, rss, two_qubit, esp)

    def _verify(self, results, out: Outcome) -> Tuple[int, float]:
        """Parse every executable back; the mean ESP of the grid.

        The ESP simulates the compiled circuit's full device register;
        on the 16-qubit devices that costs ~20 s a run, so the mean
        covers the cells on the 4- to 14-qubit devices only.
        """
        from repro.sim import estimated_success_probability

        esps = []
        for cell, result in results.items():
            device = result.program.device
            parsed = _parse_back(result.executable, device)
            out.expect(
                parsed.num_two_qubit_gates() == result.two_qubit_gates,
                f"{cell.label()}: parsed 2Q count "
                f"{parsed.num_two_qubit_gates()} != "
                f"{result.two_qubit_gates}",
            )
            if device.num_qubits <= ESP_MAX_QUBITS:
                esps.append(estimated_success_probability(
                    result.program.circuit, device, result.correct,
                    cell.day,
                ))
        out.details["verified_executables"] = len(results)
        total = sum(r.two_qubit_gates for r in results.values())
        return total, fsum(esps) / len(esps)

    def traced(self, seconds: float, out: Outcome) -> None:
        from repro.obs import ObsConfig

        layers = Layers()
        reliability = reliability_source(layers)
        obs = ObsConfig(out_dir=str(WORK / "obs"))
        api_s = replay_s = obs_s = 0.0
        for cell in inputs.shuffled(self.cells, self.rng):
            out.attempted += 1
            started = time.perf_counter()
            result = _compile(cell)
            api_s += time.perf_counter() - started
            started = time.perf_counter()
            replayed = run_cell(layers, cell, reliability, None)
            replay_s += time.perf_counter() - started
            out.expect(
                replayed.executable == result.executable,
                f"{cell.label()}: replayed executable differs",
            )
            started = time.perf_counter()
            observed = _compile(cell, obs=obs)
            obs_s += time.perf_counter() - started
            out.expect(
                observed.executable == result.executable,
                f"{cell.label()}: executable differs with obs on",
            )
        layer_metrics(out, layers, replay_s, api_s)
        out.metrics["obs.overhead_frac"] = (obs_s / api_s - 1.0, "frac")

    def close(self) -> None:
        shutil.rmtree(WORK / "obs", ignore_errors=True)


# ----------------------------------------------------------------------
class RunWide:
    """``api.run`` on the 14/16-qubit devices: the simulator dominates."""

    name = "run_wide"

    def __init__(self, seed: int, smoke: bool) -> None:
        from repro.devices import device_by_name

        self.cells = inputs.run_cells(smoke)
        for cell in self.cells:
            device_by_name(cell.device, day=cell.day)
        self.rng = random.Random(f"run_wide-order:{seed}")

    def warmup(self) -> None:
        for device in inputs.WIDE:
            _run(Cell("HS2", device, "1QOptCN", day=0), 1)

    def _check(self, cell: Cell, result, out: Outcome) -> None:
        out.expect(
            result.ideal_rate >= 1.0 - IDEAL_TOLERANCE,
            f"{cell.label()}: ideal rate {result.ideal_rate!r}",
        )

    def timed(self, seconds: float, out: Outcome) -> None:
        samples: Dict[Cell, List[float]] = defaultdict(list)
        latencies: List[float] = []
        results: Dict[Cell, Any] = {}

        def one_pass():
            for cell in inputs.shuffled(self.cells, self.rng):
                out.attempted += 1
                started = time.perf_counter()
                try:
                    result = _run(cell, inputs.RUN_FAULT_SAMPLES)
                except Exception as exc:  # noqa: BLE001 - counted
                    out.failed += 1
                    out.expect(False, f"{cell.label()}: {exc!r}")
                    continue
                elapsed = time.perf_counter() - started
                samples[cell].append(elapsed)
                latencies.append(elapsed)
                self._check(cell, result, out)
                first = results.setdefault(cell, result)
                out.expect(
                    first.success_rate == result.success_rate,
                    f"{cell.label()}: success rate differs between passes",
                )

        duration = _timed_passes(seconds, one_pass)
        rss = peak_rss_mb()
        total = sum(r.compiled.two_qubit_gates for r in results.values())
        mean_success = (
            fsum(r.success_rate for r in results.values()) / len(results)
        )
        end_to_end(out, latencies, samples, duration, rss, total,
                   mean_success)

    def traced(self, seconds: float, out: Outcome) -> None:
        layers = Layers()
        reliability = reliability_source(layers)
        api_s = replay_s = 0.0
        for cell in inputs.shuffled(self.cells, self.rng):
            out.attempted += 1
            started = time.perf_counter()
            result = _run(cell, inputs.RUN_FAULT_SAMPLES)
            api_s += time.perf_counter() - started
            self._check(cell, result, out)
            started = time.perf_counter()
            replayed = run_cell(
                layers, cell, reliability, inputs.RUN_FAULT_SAMPLES
            )
            replay_s += time.perf_counter() - started
            out.expect(
                replayed.executable == result.compiled.executable,
                f"{cell.label()}: replayed executable differs",
            )
            out.expect(
                replayed.success_rate == result.success_rate,
                f"{cell.label()}: replayed success rate "
                f"{replayed.success_rate!r} != {result.success_rate!r}",
            )
        layer_metrics(out, layers, replay_s, api_s)

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
class SweepDays:
    """``api.sweep`` on a process pool over calibration days."""

    name = "sweep_days"

    def __init__(self, seed: int, smoke: bool) -> None:
        from repro.devices import device_by_name

        self.calls = inputs.sweep_calls(smoke)
        for call in self.calls:
            for day in call.days:
                device_by_name(call.device, day=day)
        self.rng = random.Random(f"sweep_days-order:{seed}")
        self.root = WORK / "sweep"
        self.count = 0

    def _sweep(self, call: inputs.SweepCall):
        from repro import api

        self.count += 1
        cache_dir = self.root / str(self.count)
        started = time.perf_counter()
        result = api.sweep(
            call.device, list(inputs.LEVELS),
            benchmarks=list(call.benchmarks) if call.benchmarks else None,
            days=list(call.days), workers=workers(), cache_dir=cache_dir,
        )
        return result, time.perf_counter() - started, cache_dir

    def warmup(self) -> None:
        self._sweep(inputs.SweepCall("tenerife", (0,), ("HS2", "BV4")))

    @staticmethod
    def _identity(measurement) -> Tuple:
        return (measurement.benchmark, measurement.device,
                measurement.compiler, measurement.day)

    @staticmethod
    def _outputs(measurement) -> Tuple:
        return (measurement.two_qubit_gates, measurement.one_qubit_pulses,
                measurement.depth, measurement.num_swaps,
                measurement.success_rate)

    def _account(self, result, out: Outcome, journal_rows: int) -> None:
        report = result.report
        out.attempted += len(report.tasks) + len(result.failures)
        out.failed += len(result.failures)
        for failure in result.failures:
            out.expect(False, f"sweep cell failed: {failure.message}")
        out.expect(
            journal_rows == len(report.tasks),
            f"journal holds {journal_rows} records for "
            f"{len(report.tasks)} cells",
        )

    def timed(self, seconds: float, out: Outcome) -> None:
        samples: Dict[Tuple, List[float]] = defaultdict(list)
        latencies: List[float] = []
        results: Dict[Tuple, Any] = {}
        busy = [0.0]

        def one_pass():
            for call in inputs.shuffled(self.calls, self.rng):
                result, wall, cache_dir = self._sweep(call)
                busy[0] += wall
                self._account(result, out, _journal(cache_dir)[0])
                report = result.report
                for measurement, task in zip(result.measurements,
                                             report.tasks):
                    key = self._identity(measurement)
                    samples[key].append(task.elapsed_s)
                    latencies.append(task.elapsed_s)
                    first = results.setdefault(key, measurement)
                    out.expect(
                        self._outputs(first) == self._outputs(measurement),
                        f"{key}: sweep outputs differ between passes",
                    )
                shutil.rmtree(cache_dir, ignore_errors=True)

        passes = max(1, round(seconds / SWEEP_PASS_S))
        for _ in range(passes):
            one_pass()
        # The cells run in the pool workers, which have ended by now.
        rss = peak_rss_mb(children=True)
        out.details["passes"] = passes
        self._cross_check(results, out)
        total = sum(m.two_qubit_gates for m in results.values())
        mean_success = (
            fsum(m.success_rate for m in results.values()) / len(results)
        )
        end_to_end(out, latencies, samples, busy[0], rss, total,
                   mean_success)

    def _cross_check(self, results, out: Outcome) -> None:
        """A seeded sample of cells must match ``api.run`` bit for bit."""
        from repro.experiments.runner import DEFAULT_FAULT_SAMPLES

        keys = sorted(results, key=repr)
        for key in random.Random(len(keys)).sample(keys, min(3, len(keys))):
            measurement = results[key]
            cell = Cell(measurement.benchmark, measurement.device,
                        measurement.compiler, day=measurement.day)
            direct = _run(cell, DEFAULT_FAULT_SAMPLES)
            out.expect(
                direct.success_rate == measurement.success_rate
                and direct.compiled.two_qubit_gates
                == measurement.two_qubit_gates,
                f"{key}: sweep cell differs from api.run",
            )

    def traced(self, seconds: float, out: Outcome) -> None:
        from repro.experiments.runner import DEFAULT_FAULT_SAMPLES

        layers = Layers()
        api_s = replay_s = wall_s = 0.0
        hits = misses = stores = retries = records = journal_bytes = 0
        for call in inputs.shuffled(self.calls, self.rng):
            result, wall, cache_dir = self._sweep(call)
            wall_s += wall
            rows, size = _journal(cache_dir)
            records += rows
            journal_bytes += size
            self._account(result, out, rows)
            stores += sum(1 for _ in Path(cache_dir).glob("*/*.pkl"))
            report = result.report
            for task in report.tasks:
                api_s += task.elapsed_s
                retries += task.attempts - 1
                hits += task.cache_hit is True
                misses += task.cache_hit is False
            # One sweep shares one cache: reliability is computed once
            # per (device, day, noise-awareness) within it.
            reliability = reliability_source(layers, memo={})
            for measurement in result.measurements:
                cell = Cell(measurement.benchmark, measurement.device,
                            measurement.compiler, day=measurement.day)
                started = time.perf_counter()
                replayed = run_cell(
                    layers, cell, reliability, DEFAULT_FAULT_SAMPLES
                )
                replay_s += time.perf_counter() - started
                out.expect(
                    replayed.two_qubit_gates == measurement.two_qubit_gates
                    and replayed.success_rate == measurement.success_rate,
                    f"{cell.label()}: replay differs from the sweep cell",
                )
            shutil.rmtree(cache_dir, ignore_errors=True)
        layer_metrics(out, layers, replay_s, api_s)
        lookups = hits + misses
        out.metrics.update({
            "cache.hits": (float(hits), "count"),
            "cache.misses": (float(misses), "count"),
            "cache.stores": (float(stores), "count"),
            "cache.hit_rate": (hits / lookups if lookups else 0.0, "frac"),
            "experiments.parallel.cell_busy_ms": (api_s * 1e3, "ms"),
            "experiments.parallel.dispatch_overhead_frac": (
                1.0 - api_s / (wall_s * workers()), "frac"
            ),
            "experiments.parallel.retries": (float(retries), "count"),
            "experiments.journal.records": (float(records), "count"),
            "experiments.journal.bytes": (float(journal_bytes), "B"),
        })

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _journal(cache_dir: Path) -> Tuple[int, int]:
    """(records, bytes) of every sweep journal under one cache dir."""
    from repro.experiments.journal import SweepJournal

    rows = size = 0
    for path in Path(cache_dir).glob("journals/*.jsonl"):
        size += path.stat().st_size
        rows += len(SweepJournal(path).records())
    return rows, size


# ----------------------------------------------------------------------
class ServiceMixed:
    """Closed-loop HTTP load on the in-process ``repro serve`` daemon."""

    name = "service_mixed"

    def __init__(self, seed: int, smoke: bool) -> None:
        from repro.service import ReproService, ServiceConfig

        self.seed = seed
        self.root = WORK / "service"
        self.service = ReproService(ServiceConfig(
            port=0, workers=workers(), cache_dir=self.root / "cache",
        ))
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()
        deadline = time.monotonic() + 60.0
        while self.service.port is None:
            if time.monotonic() > deadline or not self.thread.is_alive():
                raise RuntimeError("service did not come up")
            time.sleep(0.005)
        self.stopped = False

    def _serve(self) -> None:
        import asyncio

        asyncio.run(self.service.serve())

    def _get(self, path: str):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.service.port, timeout=120
        )
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def warmup(self) -> None:
        for kind in ("compile", "scaffold", "run"):
            for cell in inputs.HOT[kind]:
                wire = "run" if kind == "run" else "compile"
                post(self.service.port, wire,
                     json.dumps(inputs.request_body(wire, cell)))

    def _load(self, seconds: float, out: Outcome) -> List[Dict[str, Any]]:
        """Send the schedule closed loop; one record per submission.

        The load comes from one separate process (``loadgen.py``), so
        its threads do not share the daemon's interpreter lock.
        """
        schedule = inputs.service_schedule(self.seed, seconds)
        path = self.root / "loadgen.json"
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("loadgen.py")),
             "--port", str(self.service.port), "--seed", str(self.seed),
             "--seconds", str(seconds), "--out", str(path)],
            stdout=subprocess.DEVNULL, timeout=170,
        )
        out.expect(done.returncode == 0,
                   f"load generator exited {done.returncode}")
        sent = json.loads(path.read_text())
        records: List[Dict[str, Any]] = [
            {"status": 0, "payload": {"error": "not sent"},
             "free": 0.0, "sent": 0.0, "done": 0.0}
            for _ in schedule
        ]
        for record in sent["records"]:
            records[record["index"]] = record
        out.details["schedule"] = len(schedule)
        out.details["connections"] = workers()
        for request, record in zip(schedule, records):
            record["request"] = request
            record["duration"] = record["done"] - sent["start"]
        return records

    def _settle(self, records, out: Outcome):
        """Count failures; per-key results for verification."""
        keyed: Dict[Tuple, List[Dict[str, Any]]] = defaultdict(list)
        for record in records:
            out.attempted += 1
            request = record["request"]
            if record["status"] != 200:
                out.failed += 1
                out.expect(False, f"{request.cell.label()}: HTTP "
                           f"{record['status']} {record['payload']}")
                continue
            keyed[(request.kind, request.cell)].append(record)
        return keyed

    def stop(self) -> None:
        from repro.cache import activate_cache

        if self.stopped:
            return
        self.stopped = True
        loop = self.service.loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.service.request_stop)
        self.thread.join(timeout=60)
        # The daemon activates its cache process-wide; direct API calls
        # made for verification must not see it.
        activate_cache(None)

    def _direct(self, kind: str, cell: Cell):
        from repro import api
        from repro.programs.scaffold_sources import SCAFFOLD_SUITE

        if kind == "run":
            return api.run(
                cell.benchmark, device=cell.device, level=cell.level,
                day=cell.day, fault_samples=inputs.SERVICE_FAULT_SAMPLES,
            ).to_payload()
        if cell.scaffold:
            source, defines, _ = SCAFFOLD_SUITE[cell.benchmark]
            return api.compile(
                scaffold=source, defines=defines, device=cell.device,
                level=cell.level, day=cell.day, contracts=cell.contracts,
            ).to_payload()
        return _compile(cell).to_payload()

    def _verify(self, keyed, out: Outcome, replay=None):
        """Every response equals the direct API result for its key."""
        two_qubit = 0
        successes = []
        api_s = 0.0
        for (kind, cell), records in keyed.items():
            started = time.perf_counter()
            direct = _comparable(self._direct(kind, cell))
            api_s += time.perf_counter() - started
            for record in records:
                out.expect(
                    _comparable(record["payload"].get("result", {}))
                    == direct,
                    f"{kind} {cell.label()}: response differs from the "
                    "direct API result",
                )
            compiled = direct["compiled"] if kind == "run" else direct
            two_qubit += compiled["two_qubit_gates"]
            if kind == "run":
                successes.append(direct["success_rate"])
            if replay is not None:
                replay(kind, cell, direct)
        return two_qubit, fsum(successes) / len(successes), api_s

    def timed(self, seconds: float, out: Outcome) -> None:
        records = self._load(seconds, out)
        rss = peak_rss_mb()
        self.stop()
        keyed = self._settle(records, out)
        # Cold keys are distinct by construction (one or two samples
        # each), so the service's "inputs" are its six mix classes, each
        # with a hundred or more samples a run.
        per_input: Dict[str, List[float]] = defaultdict(list)
        for rows in keyed.values():
            for r in rows:
                per_input[r["request"].group].append(r["done"] - r["sent"])
        latencies = [v for rows in per_input.values() for v in rows]
        out.details["group_p50_ms"] = {
            group: median(rows) * 1e3 for group, rows in per_input.items()
        }
        duration = max(r["duration"] for r in records)
        two_qubit, mean_success, _ = self._verify(keyed, out)
        end_to_end(out, latencies, per_input, duration, rss, two_qubit,
                   mean_success)

    def traced(self, seconds: float, out: Outcome) -> None:
        records = self._load(seconds, out)
        jobs = {}
        for record in records:
            job = record["payload"].get("job")
            if job:
                jobs[job["id"]] = self._get(f"/v1/jobs/{job['id']}")["job"]
        stats = self.service.cache.stats
        self.stop()
        keyed = self._settle(records, out)
        wal = self.root / "cache" / "service" / "wal.jsonl"
        wal_bytes = wal.read_bytes() if wal.exists() else b""

        layers = Layers()
        # The daemon shares one cache across requests, so reliability is
        # computed once per (device, day, noise-awareness).
        reliability = reliability_source(layers, memo={})
        replay_s = [0.0]

        def replay(kind, cell, direct):
            started = time.perf_counter()
            replayed = run_cell(
                layers, cell, reliability,
                inputs.SERVICE_FAULT_SAMPLES if kind == "run" else None,
            )
            replay_s[0] += time.perf_counter() - started
            compiled = direct["compiled"] if kind == "run" else direct
            out.expect(
                replayed.executable == compiled["executable"]
                and (kind != "run"
                     or replayed.success_rate == direct["success_rate"]),
                f"{kind} {cell.label()}: replay differs from the API",
            )

        _, _, api_s = self._verify(keyed, out, replay)
        layer_metrics(out, layers, replay_s[0], api_s)

        waits, executes, overheads, late = [], [], [], []
        coalesced = 0
        for record in records:
            late.append(record["sent"] - record["free"])
            job = jobs.get((record["payload"].get("job") or {}).get("id"))
            if not job or job.get("started_at") is None:
                continue
            coalesced += job.get("coalesced_with") is not None
            waits.append(job["started_at"] - job["submitted_at"])
            executes.append(job["finished_at"] - job["started_at"])
            overheads.append(
                (record["done"] - record["sent"])
                - (job["finished_at"] - job["submitted_at"])
            )
        out.metrics.update({
            "cache.hits": (float(stats.hits), "count"),
            "cache.misses": (float(stats.misses), "count"),
            "cache.stores": (float(stats.stores), "count"),
            "cache.hit_rate": (stats.hit_rate, "frac"),
            "service.queue.wait_ms_p50": (median(waits) * 1e3, "ms"),
            "service.queue.wait_ms_p95": (percentile(waits, 95) * 1e3, "ms"),
            "service.execute_ms_p50": (median(executes) * 1e3, "ms"),
            "service.http.overhead_ms_p50": (median(overheads) * 1e3, "ms"),
            "service.coalesced_frac": (coalesced / len(records), "frac"),
            "service.wal.records": (
                float(len(wal_bytes.splitlines())), "count"
            ),
            "service.wal.bytes": (float(len(wal_bytes)), "B"),
            "loadgen.late_p95_ms": (percentile(late, 95) * 1e3, "ms"),
        })

    def close(self) -> None:
        self.stop()
        shutil.rmtree(self.root, ignore_errors=True)


#: Fields of an API payload that legitimately differ between a service
#: response and a direct call: wall-clock timing and cache provenance.
_VOLATILE = ("compile_time_s", "cache_hit")


def _comparable(payload: Dict[str, Any]) -> Dict[str, Any]:
    if "compiled" in payload:
        return {**payload, "compiled": _comparable(payload["compiled"])}
    return {k: v for k, v in payload.items() if k not in _VOLATILE}


WORKLOADS = {
    cls.name: cls for cls in (CompileGrid, RunWide, SweepDays, ServiceMixed)
}
