"""Golden parity tests for the :mod:`repro.api` library surface.

The API is a refactor of the CLI's command paths into plain functions;
these tests lock the refactor down: emitted executables,
content-addressed cache keys, checkpoint run ids and journal task
digests, and Monte-Carlo success floats must be byte-identical to what
the pre-API engine calls (the exact code the CLI used to inline)
produce — across the full seven-device grid.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import api
from repro.cache import open_cache
from repro.cache.keys import compile_key
from repro.compiler import OptimizationLevel
from repro.compiler.options import _TRIQ_OPTIONS
from repro.devices import all_devices, device_by_name
from repro.experiments.journal import SweepJournal
from repro.experiments.parallel import run_sweep
from repro.experiments.runner import artifact_key, compile_with_cache
from repro.programs import benchmark_by_name
from repro.sim import monte_carlo_success_rate

HS2 = "HS2"  # two qubits: the one suite benchmark that fits all seven


class TestCompileParity:
    def test_seven_device_grid_byte_identical(self):
        """api.compile == the engine call the CLI always made, everywhere."""
        circuit, _ = benchmark_by_name(HS2).build()
        for device in all_devices(day=0):
            reference, _ = compile_with_cache(
                circuit, device, OptimizationLevel.OPT_1QCN, day=0
            )
            result = api.compile(HS2, device=device, day=0)
            assert result.executable == reference.executable()
            assert result.two_qubit_gates == reference.two_qubit_gate_count()
            assert result.one_qubit_pulses == reference.one_qubit_pulse_count()
            assert result.depth == reference.depth()
            assert result.num_swaps == reference.num_swaps
            assert result.device == device.name

    def test_cache_key_matches_engine_key(self):
        """The provenance key is the engine's artifact key, bit for bit."""
        circuit, _ = benchmark_by_name(HS2).build()
        for device in all_devices(day=0):
            result = api.compile(HS2, device=device, day=0)
            assert result.cache_key == artifact_key(
                circuit, device, OptimizationLevel.OPT_1QCN, day=0
            )
            assert result.cache_key == compile_key(
                circuit, device, "TriQ-1QOptCN", 0, _TRIQ_OPTIONS
            )

    def test_device_name_resolution_matches_object(self):
        by_name = api.compile(HS2, device="tenerife")
        by_object = api.compile(HS2, device=device_by_name("tenerife", day=0))
        assert by_name.executable == by_object.executable
        assert by_name.cache_key == by_object.cache_key

    def test_compile_cache_key_no_compile(self):
        key = api.compile_cache_key(HS2, device="tenerife")
        assert key == api.compile(HS2, device="tenerife").cache_key

    def test_cache_roundtrip_flags_hit(self, tmp_path):
        cache = open_cache(tmp_path / "cache")
        cold = api.compile(HS2, device="tenerife", cache=cache)
        warm = api.compile(HS2, device="tenerife", cache=cache)
        assert cold.cache_hit is False
        assert warm.cache_hit is True
        assert warm.executable == cold.executable
        no_cache = api.compile(HS2, device="tenerife")
        assert no_cache.cache_hit is None

    def test_cache_dir_opens_a_store(self, tmp_path):
        first = api.compile(HS2, device="agave", cache_dir=tmp_path / "c")
        second = api.compile(HS2, device="agave", cache_dir=tmp_path / "c")
        assert first.cache_hit is False and second.cache_hit is True

    def test_payload_is_json_safe(self):
        result = api.compile(HS2, device="tenerife")
        payload = json.loads(json.dumps(result.to_payload()))
        assert payload["executable"] == result.executable
        assert payload["cache_key"] == result.cache_key

    def test_scaffold_source_compiles(self):
        source = (
            "module main(qbit q[2]) { H(q[0]); CNOT(q[0], q[1]); "
            "MeasZ(q[0]); MeasZ(q[1]); }"
        )
        result = api.compile(scaffold=source, device="tenerife")
        assert result.benchmark is None and result.correct is None
        assert result.executable

    def test_program_source_is_exclusive(self):
        with pytest.raises(ValueError, match="exactly one"):
            api.build_program()
        with pytest.raises(ValueError, match="exactly one"):
            api.build_program(benchmark=HS2, scaffold="int main(){}")


class TestRunParity:
    def test_success_floats_bit_identical(self):
        """api.run repeats the exact historical estimator call."""
        device = device_by_name("tenerife", day=0)
        circuit, correct = benchmark_by_name(HS2).build()
        program, _ = compile_with_cache(
            circuit, device, OptimizationLevel.OPT_1QCN, day=0
        )
        reference = monte_carlo_success_rate(
            program.circuit, device, correct, day=0, fault_samples=25
        )
        result = api.run(HS2, device="tenerife", fault_samples=25)
        assert result.success_rate == reference.success_rate
        assert result.ideal_rate == reference.ideal_rate
        assert result.no_fault_probability == reference.no_fault_probability
        assert result.esp == reference.esp
        assert result.fault_samples == reference.fault_samples
        assert result.compiled.benchmark == HS2

    def test_run_requires_known_correct_answer(self):
        with pytest.raises(TypeError):
            api.run(device="tenerife")  # benchmark is required

    def test_run_payload_nests_compile(self):
        result = api.run(HS2, device="tenerife", fault_samples=10)
        payload = json.loads(json.dumps(result.to_payload()))
        assert payload["compiled"]["benchmark"] == HS2
        assert payload["fault_samples"] == 10


class TestSweepParity:
    SPEC = dict(benchmarks=["BV4", HS2], with_success=False, day=0)

    def test_run_id_journal_and_measurements_match_engine(self, tmp_path):
        cache = open_cache(tmp_path / "cache")
        reference = run_sweep(
            device_by_name("tenerife", day=0),
            [OptimizationLevel.N],
            cache=cache,
            **self.SPEC,
        )
        ref_tasks = [
            r["task"] for r in SweepJournal(reference.journal_path).records()
        ]
        result = api.sweep("tenerife", "N", cache=cache, **self.SPEC)
        assert result.run_id == reference.run_id
        assert result.journal_path == reference.journal_path
        got_tasks = [
            r["task"] for r in SweepJournal(result.journal_path).records()
        ]
        assert got_tasks == ref_tasks
        assert len(result.measurements) == len(reference.measurements)
        for mine, theirs in zip(result.measurements, reference.measurements):
            # The warm pass hits the cache the cold pass filled; all
            # science fields (stored compile time included) must match.
            assert dataclasses.replace(
                mine, cache_hit=None
            ) == dataclasses.replace(theirs, cache_hit=None)
            assert mine.cache_hit is True

    def test_compiler_spec_accepts_strings_and_levels(self, tmp_path):
        cache = open_cache(tmp_path / "cache")
        by_string = api.sweep("tenerife", "N", cache=cache, **self.SPEC)
        by_level = api.sweep(
            "tenerife", [OptimizationLevel.N], cache=cache, **self.SPEC
        )
        assert by_string.run_id == by_level.run_id

    def test_payload_carries_metrics_and_failures(self, tmp_path):
        result = api.sweep(
            "tenerife", "N", cache_dir=tmp_path / "cache", **self.SPEC
        )
        payload = json.loads(json.dumps(result.to_payload()))
        assert [m["benchmark"] for m in payload["measurements"]] == [
            "BV4", HS2,
        ]
        assert payload["failures"] == []
        assert payload["run_id"] == result.run_id
        if result.report.metrics is not None:
            assert "repro_sweep" in payload["metrics_prom"]


class TestResolvers:
    def test_resolve_level_aliases(self):
        assert api.resolve_level("1QOptCN") is OptimizationLevel.OPT_1QCN
        assert api.resolve_level("triq-n") is OptimizationLevel.N
        assert (
            api.resolve_level(OptimizationLevel.OPT_1Q)
            is OptimizationLevel.OPT_1Q
        )

    def test_resolve_level_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown optimization level"):
            api.resolve_level("O3")

    def test_resolve_compilers_mixed(self):
        assert api.resolve_compilers("N, qiskit ,QUIL") == [
            OptimizationLevel.N, "Qiskit", "Quil",
        ]
        assert api.resolve_compilers([OptimizationLevel.N, "quil"]) == [
            OptimizationLevel.N, "Quil",
        ]

    def test_resolve_compilers_rejects_empty(self):
        with pytest.raises(ValueError, match="no compilers"):
            api.resolve_compilers(" , ")


class TestCheck:
    def test_small_grid_is_clean(self):
        result = api.check(
            devices=["tenerife"], benchmarks=[HS2], levels=["N", "1QOptCN"]
        )
        assert result.cells == 2
        assert result.ok
        payload = json.loads(json.dumps(result.to_payload()))
        assert payload["ok"] is True and payload["cells"] == 2

    def test_oversized_benchmark_is_skipped_not_an_error(self):
        result = api.check(
            devices=["agave"], benchmarks=["BV8"], levels=["N"]
        )
        assert result.cells == 0 and result.ok


class TestObsIntegration:
    def test_compile_obs_artifacts(self, tmp_path):
        from repro.obs import ObsConfig, parse_prometheus

        cache = open_cache(tmp_path / "cache")
        result = api.compile(
            HS2,
            device="tenerife",
            cache=cache,
            obs=ObsConfig(trace=True, profile=False, out_dir=tmp_path / "obs"),
            obs_tag="t",
        )
        assert result.obs is not None
        assert "compile" in result.obs.span_tree
        trace = result.obs.out_dir / "t-trace.json"
        prom = result.obs.out_dir / "t-metrics.prom"
        assert trace.exists() and prom.exists()
        events = parse_prometheus(prom.read_text())[
            "repro_cache_events_total"
        ]
        assert sum(events.values()) > 0

    def test_obs_off_yields_none(self):
        assert api.compile(HS2, device="tenerife").obs is None

    def test_distributed_sweep_rejects_obs(self, tmp_path):
        from repro.obs import ObsConfig

        # Remote workers record nothing: refuse before planning or
        # spawning anything, rather than write no artifacts silently.
        with pytest.raises(ValueError, match="not supported on distributed"):
            api.sweep(
                "tenerife", "N", benchmarks=["BV4"], with_success=False,
                workers_from="local:1", cache_dir=tmp_path / "cache",
                obs=ObsConfig(out_dir=tmp_path / "obs"),
            )
        assert not (tmp_path / "obs").exists()
        assert not (tmp_path / "cache").exists()


class TestCliThinClient:
    def test_cli_compile_stdout_is_api_executable(self, capsys):
        from repro.cli import main

        result = api.compile(HS2, device="tenerife")
        assert main(["compile", "-b", HS2, "-d", "tenerife"]) == 0
        captured = capsys.readouterr()
        assert captured.out == result.executable
        assert f"# {result.device} | {result.compiler}" in captured.err

    def test_cli_run_reports_api_floats(self, capsys):
        from repro.cli import main

        result = api.run(HS2, device="tenerife", fault_samples=10)
        code = main(
            ["run", "-b", HS2, "-d", "tenerife", "--fault-samples", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"success rate  : {result.success_rate:.4f}" in out
        assert f"ideal rate    : {result.ideal_rate:.4f}" in out


class TestRunArguments:
    @pytest.mark.parametrize("samples", [-3, 2.5, "many", True, None])
    def test_bad_fault_samples_raise_value_error(self, samples):
        with pytest.raises(ValueError, match="fault_samples"):
            api.run("HS2", device="tenerife", fault_samples=samples)

    def test_cache_key_of_a_program_wider_than_the_device(self):
        with pytest.raises(ValueError, match="'device'"):
            api.compile_cache_key("BV6", device="tenerife")
