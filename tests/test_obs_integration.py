"""End-to-end tests: observability threaded through compile, sweep, CLI.

These exercise the real pipeline and sweep engine with a live tracer,
and — the load-bearing property — prove that turning observability on
changes no scientific output: journal digests and run identity are
byte-identical with and without it.
"""

import json

import pytest

from repro.cli import main
from repro.compiler import OptimizationLevel, TriQCompiler
from repro.devices import device_by_name
from repro.experiments.journal import SweepJournal
from repro.experiments.parallel import run_sweep
from repro.obs import ObsConfig, Tracer, parse_prometheus, tracer_context
from repro.programs import benchmark_by_name

FAST = dict(fault_samples=5, task_timeout_s=None)


def _bv4_circuit():
    circuit, _ = benchmark_by_name("BV4").build()
    return circuit


class TestPipelineSpans:
    def test_compile_emits_the_pass_hierarchy(self):
        device = device_by_name("tenerife")
        compiler = TriQCompiler(device, level=OptimizationLevel.OPT_1QCN)
        tracer = Tracer()
        with tracer_context(tracer):
            compiler.compile(_bv4_circuit())
        names = [s.name for s in tracer.walk()]
        for expected in ("compile", "decompose", "map", "route",
                         "translate", "1qopt"):
            assert expected in names, f"missing span {expected!r}"
        root = tracer.roots[0]
        assert root.name == "compile"
        assert root.attrs["device"] == device.name
        assert root.attrs["level"] == "TriQ-1QOptCN"
        # Every pass span is a child of the compile root.
        assert {c.name for c in root.children} >= {"decompose", "map", "route"}

    def test_compile_output_identical_traced_or_not(self):
        device = device_by_name("tenerife")
        level = OptimizationLevel.OPT_1QCN
        plain = TriQCompiler(device, level=level).compile(_bv4_circuit())
        with tracer_context(Tracer()):
            traced = TriQCompiler(device, level=level).compile(_bv4_circuit())
        assert traced.executable() == plain.executable()


class TestSerialSweepArtifacts:
    def test_trace_metrics_and_summary(self, tmp_path):
        obs_dir = tmp_path / "obs"
        report = run_sweep(
            "tenerife", [OptimizationLevel.OPT_1QCN],
            benchmarks=["BV4", "HS2"],
            cache_dir=tmp_path / "cache",
            obs=ObsConfig(trace=True, out_dir=obs_dir),
            **FAST,
        )
        assert report.obs_dir == obs_dir
        trace = json.loads((obs_dir / "trace.json").read_text())
        names = [e["name"] for e in trace["traceEvents"]]
        assert "sweep" in names and "measure" in names
        assert "compile" in names and "success" in names
        series = parse_prometheus((obs_dir / "metrics.prom").read_text())
        assert sum(series["repro_sweep_tasks_total"].values()) == 2
        assert report.metrics is not None
        assert report.metrics.counter("repro_sweep_tasks_total").total() == 2
        summary = report.summary()
        assert "task latency p50/p90/p99:" in summary
        assert f"observability artifacts: {obs_dir}" in summary

    def test_metrics_populated_even_with_obs_off(self, tmp_path):
        report = run_sweep(
            "tenerife", [OptimizationLevel.OPT_1QCN],
            benchmarks=["BV4"], cache_dir=tmp_path / "cache", **FAST,
        )
        assert report.obs_dir is None
        assert report.metrics.counter("repro_sweep_tasks_total").total() == 1
        assert "task latency p50/p90/p99:" in report.summary()

    def test_profile_writes_supervisor_pstats(self, tmp_path):
        obs_dir = tmp_path / "obs"
        run_sweep(
            "tenerife", [OptimizationLevel.OPT_1QCN],
            benchmarks=["BV4"], cache_dir=tmp_path / "cache",
            obs=ObsConfig(trace=True, profile=True, out_dir=obs_dir),
            **FAST,
        )
        assert list(obs_dir.glob("supervisor-*.pstats"))

    def test_stale_engine_artifacts_are_cleared(self, tmp_path):
        obs_dir = tmp_path / "obs"
        obs_dir.mkdir()
        stale = obs_dir / "worker-999-trace.json"
        stale.write_text("{}")
        unrelated = obs_dir / "notes.txt"
        unrelated.write_text("keep me")
        run_sweep(
            "tenerife", [OptimizationLevel.OPT_1QCN],
            benchmarks=["BV4"], cache_dir=tmp_path / "cache",
            obs=ObsConfig(trace=True, out_dir=obs_dir), **FAST,
        )
        assert not stale.exists()
        assert unrelated.read_text() == "keep me"


class TestPoolSweepArtifacts:
    def test_worker_traces_merge_with_supervisor(self, tmp_path):
        obs_dir = tmp_path / "obs"
        report = run_sweep(
            "tenerife", [OptimizationLevel.N, OptimizationLevel.OPT_1QCN],
            benchmarks=["BV4", "HS2"],
            workers=2,
            cache_dir=tmp_path / "cache",
            obs=ObsConfig(trace=True, profile=True, out_dir=obs_dir),
            **FAST,
        )
        if report.mode != "process-pool":
            pytest.skip(f"pool unavailable: {report.fallback_reason}")
        assert list(obs_dir.glob("worker-*-trace.json"))
        assert list(obs_dir.glob("worker-*.pstats"))
        trace = json.loads((obs_dir / "trace.json").read_text())
        events = trace["traceEvents"]
        assert len({e["pid"] for e in events}) >= 2
        task_events = [e for e in events if e["name"] == "sweep.task"]
        assert len(task_events) == 4
        assert {e["args"]["benchmark"] for e in task_events} == {"BV4", "HS2"}
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)


class TestDeterminismInvariance:
    """Observability must not leak into scientific outputs."""

    def _sweep(self, tmp_path, tag, obs):
        return run_sweep(
            "tenerife", [OptimizationLevel.OPT_1QCN],
            benchmarks=["BV4", "HS2"],
            cache_dir=tmp_path / f"cache-{tag}",
            obs=obs,
            **FAST,
        )

    def test_journal_digests_and_run_id_unchanged(self, tmp_path):
        plain = self._sweep(tmp_path, "off", None)
        traced = self._sweep(
            tmp_path, "on",
            ObsConfig(trace=True, profile=True, out_dir=tmp_path / "obs"),
        )
        assert plain.run_id == traced.run_id
        digests_off = {
            r["task"] for r in SweepJournal(plain.journal_path).records()
        }
        digests_on = {
            r["task"] for r in SweepJournal(traced.journal_path).records()
        }
        assert digests_off and digests_off == digests_on

    def test_measurements_identical_up_to_wall_clock(self, tmp_path):
        plain = self._sweep(tmp_path, "off2", None)
        traced = self._sweep(
            tmp_path, "on2", ObsConfig(trace=True, out_dir=tmp_path / "obs2")
        )
        assert len(plain.measurements) == len(traced.measurements)
        for a, b in zip(plain.measurements, traced.measurements):
            fields_a, fields_b = dict(vars(a)), dict(vars(b))
            # compile_time_s and solver_time_s are wall clock: they
            # differ between ANY two fresh runs, observability or not.
            # Everything else must be byte-identical.
            for fields in (fields_a, fields_b):
                fields.pop("compile_time_s")
                fields.pop("solver_time_s")
            assert fields_a == fields_b


class TestSimulateSpan:
    """The success estimate's span reports the simulated width, and
    tracing it changes neither the estimate nor the cache key."""

    def test_span_records_compacted_width(self, tmp_path):
        from repro import api

        kwargs = dict(device="rueschlikon", fault_samples=6)
        plain = api.run("BV4", **kwargs)
        traced = api.run(
            "BV4", **kwargs, obs=ObsConfig(trace=True, out_dir=tmp_path),
            obs_tag="r",
        )
        trace = json.loads((tmp_path / "r-trace.json").read_text())
        (event,) = [
            e for e in trace["traceEvents"] if e["name"] == "simulate.success"
        ]
        assert event["args"]["device_qubits"] == 16
        assert event["args"]["state_qubits"] == 4
        assert traced.compiled.cache_key == plain.compiled.cache_key
        for field in ("success_rate", "ideal_rate", "esp"):
            assert getattr(traced, field).hex() == getattr(plain, field).hex()
        args = event["args"]
        assert 1 <= args["distinct_fault_configs"] <= 6
        assert args["sample_attempts"] >= 6

    def test_span_counts_sampling_work(self):
        """``sample_attempts`` counts the fault-draw rows (rejections
        included); ``distinct_fault_configs`` the configurations
        simulated.  Both match a replay of the legacy sampler, and the
        traced estimate equals the untraced one bit for bit."""
        import numpy as np

        from repro.sim.noise import NoiseModel, fault_config_key
        from repro.sim.success import monte_carlo_success_rate
        from repro.sim.trajectories import sample_counts

        device = device_by_name("rueschlikon")
        compiled = TriQCompiler(
            device, level=OptimizationLevel.OPT_1QCN
        ).compile(_bv4_circuit()).circuit
        samples, seed = 40, 9
        plain = monte_carlo_success_rate(
            compiled, device, "1111", fault_samples=samples, seed=seed
        )
        tracer = Tracer()
        with tracer_context(tracer):
            traced = monte_carlo_success_rate(
                compiled, device, "1111", fault_samples=samples, seed=seed
            )
            counts = sample_counts(compiled, device, trials=64, seed=seed)
        for field in ("success_rate", "ideal_rate", "esp",
                      "no_fault_probability"):
            assert getattr(traced, field).hex() == getattr(plain, field).hex()
        assert sum(counts.values()) == 64

        model = NoiseModel.from_device(device, compiled)
        rng = np.random.default_rng(seed)
        attempts, keys = 0, set()
        for _ in range(samples):
            while True:
                attempts += 1
                faults = model.sample_faults(rng)
                if faults:
                    break
            keys.add(fault_config_key(faults))
        (success,) = [s for s in tracer.walk() if s.name == "simulate.success"]
        assert success.attrs["sample_attempts"] == attempts > samples
        assert success.attrs["distinct_fault_configs"] == len(keys)
        (trajectories,) = [
            s for s in tracer.walk() if s.name == "simulate.trajectories"
        ]
        assert trajectories.attrs["sample_attempts"] == 64
        assert 1 <= trajectories.attrs["distinct_fault_configs"] <= 64
        # Both estimators simulate the same plan's compacted register.
        assert trajectories.attrs["device_qubits"] == 16
        assert trajectories.attrs["state_qubits"] == 4
        assert success.attrs["state_qubits"] == 4


class TestJournalRecords:
    def test_journal_rebuild_matches_report_task_families(self, tmp_path):
        from repro.obs import sweep_metrics_from_journal_records

        report = run_sweep(
            "tenerife", [OptimizationLevel.N, OptimizationLevel.OPT_1QCN],
            benchmarks=["BV4", "Toffoli"], workers=2,
            cache_dir=tmp_path / "cache", **FAST,
        )
        assert report.mode == "process-pool"
        rebuilt = sweep_metrics_from_journal_records(
            SweepJournal(report.journal_path).records()
        )
        for family in (
            "repro_sweep_tasks_total",
            "repro_sweep_task_latency_seconds",
            "repro_sweep_cache_events_total",
            "repro_sweep_task_retries_total",
        ):
            assert (
                report.metrics.get(family).render()
                == rebuilt.get(family).render()
            ), family

    def test_records_keeps_append_order_and_duplicates(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            '{"v": 1, "task": "a", "report": null}\n'
            "garbage line\n"
            '{"v": 1, "task": "b", "report": null}\n'
            '{"v": 1, "task": "a", "report": null}\n'
            '{"v": 99, "task": "c"}\n'
        )
        records = SweepJournal(path).records()
        assert [r["task"] for r in records] == ["a", "b", "a"]

    def test_records_missing_file_is_empty(self, tmp_path):
        assert SweepJournal(tmp_path / "absent.jsonl").records() == []


class TestCliObservability:
    def test_sweep_profile_emits_all_artifacts(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        rc = main([
            "sweep", "-d", "tenerife", "-b", "BV4", "-l", "1qoptcn",
            "--fault-samples", "5",
            "--cache-dir", str(tmp_path / "cache"),
            "--profile", "--obs-dir", str(obs_dir),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "repro profile" in err
        assert (obs_dir / "trace.json").exists()
        assert parse_prometheus((obs_dir / "metrics.prom").read_text())
        assert list(obs_dir.glob("supervisor-*.pstats"))

    def test_profile_command_prints_tables(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        main([
            "sweep", "-d", "tenerife", "-b", "BV4", "-l", "1qoptcn",
            "--fault-samples", "5",
            "--cache-dir", str(tmp_path / "cache"),
            "--profile", "--obs-dir", str(obs_dir),
        ])
        capsys.readouterr()
        assert main(["profile", str(obs_dir)]) == 0
        out = capsys.readouterr().out.lower()
        assert "hot passes" in out
        assert "compile" in out
        assert "top functions" in out

    def test_distributed_sweep_with_profile_exits_2(self, tmp_path, capsys):
        rc = main([
            "sweep", "-d", "tenerife", "-b", "BV4", "-l", "1qoptcn",
            "--no-success", "--workers-from", "local:1",
            "--cache-dir", str(tmp_path / "cache"),
            "--profile", "--obs-dir", str(tmp_path / "obs"),
        ])
        assert rc == 2
        assert "not supported on distributed" in capsys.readouterr().err
        assert not (tmp_path / "obs").exists()

    def test_profile_command_empty_dir_fails(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path)]) == 2
        assert "artifacts found" in capsys.readouterr().err

    def test_trace_command_renders_tree(self, tmp_path, capsys):
        tracer = Tracer()
        with tracer.span("compile"):
            with tracer.span("route"):
                pass
        path = tracer.write_chrome_trace(tmp_path / "trace.json")
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "compile" in out and "route" in out

    def test_trace_command_empty_trace_fails(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text('{"traceEvents": []}')
        assert main(["trace", str(path)]) == 2

    def test_compile_profile_session(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        rc = main([
            "compile", "-b", "BV4", "-d", "tenerife", "-l", "1qoptcn",
            "--no-cache", "--profile", "--obs-dir", str(obs_dir),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "compile" in err  # span tree printed to stderr
        assert (obs_dir / "compile-trace.json").exists()
        assert (obs_dir / "compile.pstats").exists()
        # --no-cache means no cache events: the metrics file exists but
        # carries no samples.
        assert (obs_dir / "compile-metrics.prom").exists()

    def test_compile_obs_dir_alone_traces_without_profiling(
        self, tmp_path, capsys
    ):
        obs_dir = tmp_path / "obs"
        rc = main([
            "compile", "-b", "BV4", "-d", "tenerife", "-l", "1qoptcn",
            "--no-cache", "--obs-dir", str(obs_dir),
        ])
        assert rc == 0
        capsys.readouterr()
        assert (obs_dir / "compile-trace.json").exists()
        assert not (obs_dir / "compile.pstats").exists()

    def test_cache_events_counted_through_observer_hook(self, tmp_path):
        obs_dir = tmp_path / "obs"
        cache_dir = tmp_path / "cache"
        argv = [
            "compile", "-b", "BV4", "-d", "tenerife", "-l", "1qoptcn",
            "--cache-dir", str(cache_dir),
            "--obs-dir", str(obs_dir),
        ]
        assert main(argv) == 0
        first = parse_prometheus(
            (obs_dir / "compile-metrics.prom").read_text()
        )["repro_cache_events_total"]
        assert first.get('{"event": "miss"}', 0) > 0
        assert first.get('{"event": "hit"}', 0) == 0
        assert main(argv) == 0  # warm: same cache, fresh session
        second = parse_prometheus(
            (obs_dir / "compile-metrics.prom").read_text()
        )["repro_cache_events_total"]
        assert second.get('{"event": "hit"}', 0) > 0
        assert second.get('{"event": "miss"}', 0) == 0
