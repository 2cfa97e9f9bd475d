"""Counters, gauges, and histograms with a Prometheus text exporter.

A :class:`MetricsRegistry` owns named metrics, each holding one value
(or, for histograms, one bucketed distribution) per label set.  The
sweep engine aggregates its execution telemetry — task latency, cache
hits/misses, worker retries, contract violations, solver degradations —
into a registry via :func:`sweep_metrics`, built from the very
:class:`~repro.experiments.parallel.TaskReport` records that already
cross the worker pool and land in the checkpoint journal, so the
numbers are identical whether a sweep ran serial, pooled, or resumed.

The exporter (:meth:`MetricsRegistry.render_prometheus`) emits the
Prometheus text exposition format, ready for a file-based scrape
(node-exporter ``textfile`` collector) or a quick ``promtool check
metrics``.  Histograms additionally retain their raw samples so reports
can show exact latency percentiles without bucket interpolation.

Zero dependencies, plain data throughout; nothing here touches the
compile hot path.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, tuned for task latency in seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
)

LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Mapping[str, Any]) -> LabelSet:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(labels: LabelSet, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(labels) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{key}="{_escape(value)}"' for key, value in pairs)
    return "{" + body + "}"


class _Metric:
    """Shared bookkeeping for one named metric family."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help_text = help_text

    def _header(self) -> List[str]:
        lines = []
        if self.help_text:
            lines.append(f"# HELP {self.name} {self.help_text}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class Counter(_Metric):
    """A monotonically increasing value per label set."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._values: Dict[LabelSet, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _labelset(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        """The counter for one exact label set (0.0 if never incremented)."""
        return self._values.get(_labelset(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._values.values())

    def render(self) -> List[str]:
        lines = self._header()
        for labels in sorted(self._values):
            lines.append(
                f"{self.name}{_render_labels(labels)} "
                f"{_format_value(self._values[labels])}"
            )
        return lines

    def merge(self, other: "Counter") -> None:
        for labels, value in other._values.items():
            self._values[labels] = self._values.get(labels, 0.0) + value


class Gauge(_Metric):
    """A value that can go up and down, per label set."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._values: Dict[LabelSet, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_labelset(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _labelset(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_labelset(labels), 0.0)

    def render(self) -> List[str]:
        lines = self._header()
        for labels in sorted(self._values):
            lines.append(
                f"{self.name}{_render_labels(labels)} "
                f"{_format_value(self._values[labels])}"
            )
        return lines

    def merge(self, other: "Gauge") -> None:
        # Last write wins, matching Prometheus gauge semantics.
        self._values.update(other._values)


class Histogram(_Metric):
    """A bucketed distribution per label set, keeping raw samples.

    Buckets render Prometheus-style (cumulative ``_bucket{le=...}``
    series plus ``_sum``/``_count``); the raw samples back exact
    percentile queries for human-facing summaries.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(name, help_text)
        chosen = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not chosen:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = chosen
        self._samples: Dict[LabelSet, List[float]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        self._samples.setdefault(_labelset(labels), []).append(float(value))

    def _matching(self, labels: Mapping[str, Any]) -> List[float]:
        """Samples whose label set contains ``labels`` as a subset."""
        wanted = dict(_labelset(labels))
        merged: List[float] = []
        for labelset, samples in self._samples.items():
            present = dict(labelset)
            if all(present.get(key) == value for key, value in wanted.items()):
                merged.extend(samples)
        return merged

    def count(self, **labels: Any) -> int:
        return len(self._matching(labels))

    def sum(self, **labels: Any) -> float:
        return sum(self._matching(labels))

    def percentile(self, q: float, **labels: Any) -> float:
        """The q-th percentile (0-100) over matching label sets.

        ``labels`` filters by subset, so ``percentile(99, device=d)``
        aggregates every benchmark/compiler series of that device.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        samples = sorted(self._matching(labels))
        if not samples:
            raise ValueError(f"no samples match labels {dict(labels)!r}")
        if len(samples) == 1:
            return samples[0]
        # Linear interpolation between closest ranks.
        rank = (q / 100.0) * (len(samples) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return samples[low]
        weight = rank - low
        return samples[low] * (1.0 - weight) + samples[high] * weight

    def render(self) -> List[str]:
        lines = self._header()
        for labels in sorted(self._samples):
            samples = sorted(self._samples[labels])
            for bound in self.buckets:
                cumulative = bisect_right(samples, bound)
                lines.append(
                    f"{self.name}_bucket"
                    f"{_render_labels(labels, [('le', _format_value(bound))])} "
                    f"{cumulative}"
                )
            lines.append(
                f"{self.name}_bucket{_render_labels(labels, [('le', '+Inf')])} "
                f"{len(samples)}"
            )
            lines.append(
                f"{self.name}_sum{_render_labels(labels)} "
                f"{_format_value(sum(samples))}"
            )
            lines.append(f"{self.name}_count{_render_labels(labels)} {len(samples)}")
        return lines

    def merge(self, other: "Histogram") -> None:
        for labels, samples in other._samples.items():
            self._samples.setdefault(labels, []).extend(samples)


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help_text: str, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help_text, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self):
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (counters add, gauges
        overwrite, histograms concatenate samples)."""
        for metric in other:
            mine = self._metrics.get(metric.name)
            if mine is None:
                self._metrics[metric.name] = metric
            else:
                if type(mine) is not type(metric):
                    raise ValueError(
                        f"cannot merge {metric.kind} into {mine.kind} "
                        f"metric {metric.name!r}"
                    )
                mine.merge(metric)
        return self

    def render_prometheus(self) -> str:
        """The whole registry in the Prometheus text exposition format."""
        lines: List[str] = []
        for metric in self:
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Sanity parser for the exposition format (used by tests and CI smoke).
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    # Quoted label values may themselves contain braces (e.g. a route
    # template label ``route="/v1/jobs/{id}"``), so the labels group is
    # greedy-to-the-last-brace rather than brace-free.
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{.*\})?"
    r" (?P<value>[^ ]+)$"
)


def parse_prometheus(text: str) -> Dict[str, Dict[str, float]]:
    """Parse exposition text into ``{series: {labels-json: value}}``.

    A deliberately strict reader: any malformed line raises
    ``ValueError``.  Exists so tests and the CI smoke job can assert a
    rendered export round-trips, not as a general Prometheus client.
    """
    series: Dict[str, Dict[str, float]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line {lineno}: {line!r}")
        labels: Dict[str, str] = {}
        body = match.group("labels")
        if body:
            for pair in filter(None, _split_label_pairs(body[1:-1])):
                key, _, raw = pair.partition("=")
                if not raw.startswith('"') or not raw.endswith('"'):
                    raise ValueError(f"unquoted label value on line {lineno}")
                labels[key] = raw[1:-1]
        raw_value = match.group("value")
        value = math.inf if raw_value == "+Inf" else float(raw_value)
        series.setdefault(match.group("name"), {})[
            json.dumps(labels, sort_keys=True)
        ] = value
    return series


def _split_label_pairs(body: str) -> List[str]:
    """Split ``a="x",b="y"`` respecting escaped quotes inside values."""
    pairs: List[str] = []
    current: List[str] = []
    in_string = False
    escaped = False
    for char in body:
        if escaped:
            current.append(char)
            escaped = False
        elif char == "\\":
            current.append(char)
            escaped = True
        elif char == '"':
            current.append(char)
            in_string = not in_string
        elif char == "," and not in_string:
            pairs.append("".join(current))
            current = []
        else:
            current.append(char)
    if current:
        pairs.append("".join(current))
    return pairs


def optimization_metrics_into(
    registry: MetricsRegistry,
    opt_stats: Iterable[Sequence[Any]],
    preset: str,
) -> None:
    """Record one compile's pass-manager accounting (repro_opt_* family).

    ``opt_stats`` rows follow :meth:`repro.compiler.passes.PassStats.row`:
    ``(name, runs, rewrites, gates_in, gates_out, two_qubit_in,
    two_qubit_out, wall_s)``.  Idempotent metric creation means several
    compiles in one command accumulate into the same family.
    """
    runs = registry.counter(
        "repro_opt_pass_runs_total",
        "Pass executions inside the fixed-point loop",
    )
    rewrites = registry.counter(
        "repro_opt_pass_rewrites_total",
        "Rewrites applied by optimization passes",
    )
    gates_removed = registry.counter(
        "repro_opt_gates_removed_total",
        "Gates removed by optimization passes",
    )
    two_qubit_removed = registry.counter(
        "repro_opt_two_qubit_removed_total",
        "Two-qubit gates removed by optimization passes",
    )
    wall = registry.histogram(
        "repro_opt_pass_seconds",
        "Wall time per pass summed over fixed-point iterations",
    )
    for row in opt_stats:
        name, n_runs, n_rewrites, g_in, g_out, q_in, q_out, wall_s = row
        labels = dict(pass_name=str(name), preset=str(preset))
        if n_runs:
            runs.inc(n_runs, **labels)
        if n_rewrites:
            rewrites.inc(n_rewrites, **labels)
        if g_in - g_out:
            gates_removed.inc(g_in - g_out, **labels)
        if q_in - q_out:
            two_qubit_removed.inc(q_in - q_out, **labels)
        wall.observe(float(wall_s), **labels)


# ----------------------------------------------------------------------
# Sweep aggregation (duck-typed over SweepReport to avoid an import
# cycle: repro.experiments imports repro.obs, never the reverse).
# ----------------------------------------------------------------------
def _task_metrics(registry: MetricsRegistry) -> Callable[[Mapping[str, Any]], None]:
    """Create the per-task families; return the function that feeds one.

    The four families (tasks, latency, cache events, retries) are built
    here only, and fed one task-report dict at a time — a
    ``TaskReport``'s fields or a journal record's ``report`` — so a
    sweep's metrics and the same run rebuilt from its journal agree.
    """
    tasks = registry.counter(
        "repro_sweep_tasks_total", "Grid cells executed or replayed"
    )
    latency = registry.histogram(
        "repro_sweep_task_latency_seconds",
        "Wall time per grid cell (compile + Monte-Carlo estimate)",
    )
    cache_events = registry.counter(
        "repro_sweep_cache_events_total",
        "Compile-artifact cache hits/misses observed by sweep tasks",
    )
    retries = registry.counter(
        "repro_sweep_task_retries_total",
        "Extra attempts spent on crashed/hung/failed cells",
    )

    def observe(task: Mapping[str, Any]) -> None:
        labels = dict(
            device=str(task.get("device", "?")),
            benchmark=str(task.get("benchmark", "?")),
            compiler=str(task.get("compiler", "?")),
        )
        tasks.inc(**labels)
        elapsed = task.get("elapsed_s")
        if isinstance(elapsed, (int, float)):
            latency.observe(float(elapsed), **labels)
        cache_hit = task.get("cache_hit")
        if cache_hit is not None:
            cache_events.inc(event="hit" if cache_hit else "miss")
        attempts = task.get("attempts", 1)
        if isinstance(attempts, int) and attempts > 1:
            retries.inc(attempts - 1, **labels)

    return observe


def sweep_metrics(report: Any) -> MetricsRegistry:
    """A registry summarizing one sweep's execution telemetry.

    Built from the per-task reports and failures the engine already
    aggregates across the worker pool and checkpoints to the journal,
    so the numbers are mode-independent (serial == pooled == resumed).
    """
    registry = MetricsRegistry()
    observe_task = _task_metrics(registry)
    resumed = registry.counter(
        "repro_sweep_resumed_cells_total",
        "Cells replayed from the checkpoint journal",
    )
    for task in report.tasks:
        observe_task(vars(task))
        if task.resumed:
            resumed.inc(
                device=task.device,
                benchmark=task.benchmark,
                compiler=task.compiler,
            )

    failures = registry.counter(
        "repro_sweep_task_failures_total",
        "Cells given up on after exhausting retries, by failure kind",
    )
    for failure in report.failures:
        failures.inc(
            kind=failure.kind, device=failure.device, benchmark=failure.benchmark
        )

    violations = registry.counter(
        "repro_sweep_contract_violations_total",
        "Pass-contract violations recorded by warn-mode cells",
    )
    degraded = registry.counter(
        "repro_sweep_solver_degradations_total",
        "Cells whose placement came from a degraded (budget-cut) solve",
    )
    mapper_method = registry.counter(
        "repro_mapper_method_total",
        "Cells by how the placement was produced "
        "(exact/heuristic/default)",
    )
    mapper_nodes = registry.counter(
        "repro_mapper_solver_nodes_total",
        "Search nodes (or annealing steps) spent by placement solvers",
    )
    mapper_time = registry.histogram(
        "repro_mapper_solver_time_seconds",
        "Placement-solver wall time per cell",
    )
    mapper_bound_shared = registry.counter(
        "repro_mapper_bound_shared_total",
        "Cells where a heuristic bound certificate was shared into the "
        "exact solver's binary search",
    )
    mapper_bound_events = registry.counter(
        "repro_mapper_bound_events_total",
        "Incumbent improvements recorded on mapper bound trajectories",
    )
    opt_cells = registry.counter(
        "repro_opt_cells_total",
        "Cells post-processed by the pass manager, by preset",
    )
    opt_gates_removed = registry.counter(
        "repro_opt_gates_removed_total",
        "Gates removed by optimization passes",
    )
    opt_two_qubit_removed = registry.counter(
        "repro_opt_two_qubit_removed_total",
        "Two-qubit gates removed by optimization passes",
    )
    for measurement in report.measurements:
        labels = dict(
            device=measurement.device,
            benchmark=measurement.benchmark,
            compiler=measurement.compiler,
        )
        if measurement.contract_violations:
            violations.inc(len(measurement.contract_violations), **labels)
        if measurement.degraded:
            degraded.inc(**labels)
        # Mapper telemetry: fields default for pre-portfolio records
        # replayed from old journals.
        method = getattr(measurement, "mapper_method", "exact")
        mapper_method.inc(method=method, **labels)
        nodes = getattr(measurement, "solver_nodes", 0)
        if nodes:
            mapper_nodes.inc(nodes, **labels)
        mapper_time.observe(
            getattr(measurement, "solver_time_s", 0.0), **labels
        )
        if getattr(measurement, "bound_shared", False):
            mapper_bound_shared.inc(**labels)
        events = getattr(measurement, "bound_events", 0)
        if events:
            mapper_bound_events.inc(events, **labels)
        # Pass-manager telemetry: fields default for pre-pass-manager
        # records replayed from old journals.
        preset = getattr(measurement, "opt_preset", None)
        if preset:
            opt_cells.inc(preset=preset, **labels)
            removed = getattr(measurement, "opt_gates_removed", 0)
            if removed:
                opt_gates_removed.inc(removed, **labels)
            removed_2q = getattr(measurement, "opt_two_qubit_removed", 0)
            if removed_2q:
                opt_two_qubit_removed.inc(removed_2q, **labels)

    skipped = registry.counter(
        "repro_sweep_skipped_days_total",
        "Calibration days rejected by validation and skipped",
    )
    for _day, _reason in getattr(report, "skipped_days", ()):
        skipped.inc()

    wall = registry.gauge(
        "repro_sweep_wall_seconds", "Total sweep wall time"
    )
    wall.set(report.total_time_s)
    registry.gauge("repro_sweep_workers", "Effective worker count").set(
        report.workers
    )

    stats = getattr(report, "cache_stats", None)
    if stats is not None:
        store = registry.gauge(
            "repro_cache_store_operations",
            "Cache store counters for the supervising process",
        )
        store.set(stats.hits, op="hit")
        store.set(stats.misses, op="miss")
        store.set(stats.stores, op="store")
        store.set(stats.recovered, op="recovered")
    return registry


def sweep_metrics_from_journal_records(
    records: Iterable[Mapping[str, Any]],
) -> MetricsRegistry:
    """Rebuild a sweep's per-task metrics from its journal records.

    Summarizes a finished (or interrupted) run straight from its
    journal without re-running anything.  Accepts the parsed record
    dicts of :meth:`repro.experiments.journal.SweepJournal.records`;
    records without a ``report`` dict are skipped.
    """
    registry = MetricsRegistry()
    observe_task = _task_metrics(registry)
    for record in records:
        task_report = record.get("report")
        if isinstance(task_report, Mapping):
            observe_task(task_report)
    return registry


def latency_summary(registry: MetricsRegistry) -> str:
    """One-line p50/p90/p99 task-latency summary, or '' when empty."""
    metric = registry.get("repro_sweep_task_latency_seconds")
    if not isinstance(metric, Histogram) or metric.count() == 0:
        return ""
    return (
        "task latency p50/p90/p99: "
        f"{metric.percentile(50) * 1e3:.0f}/"
        f"{metric.percentile(90) * 1e3:.0f}/"
        f"{metric.percentile(99) * 1e3:.0f} ms"
    )
