"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_level_aliases(self):
        args = build_parser().parse_args(
            ["compile", "-b", "BV4", "-d", "umd", "-l", "1qoptcn"]
        )
        assert args.level.value == "TriQ-1QOptCN"

    def test_bad_level(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compile", "-b", "BV4", "-d", "umd", "-l", "turbo"]
            )

    @pytest.mark.parametrize("command", ["compile", "run", "sweep", "check"])
    def test_bad_day_is_a_usage_error_naming_day(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                [command, "-b", "BV4", "-d", "umd", "--day", "-1"]
            )
        assert excinfo.value.code == 2
        assert "day must be a non-negative integer, got -1" in (
            capsys.readouterr().err
        )

    def test_bad_days_list_fails_like_api(self, capsys):
        code = main([
            "sweep", "-d", "tenerife", "-l", "N", "-b", "BV4",
            "--days", "0,-1", "--no-success", "--no-cache",
        ])
        assert code == 2
        assert "day must be a non-negative integer, got -1" in (
            capsys.readouterr().err
        )

    def test_benchmark_and_scaffold_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compile", "-b", "BV4", "-f", "x.scaffold", "-d", "umd"]
            )


class TestCommands:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "IBM Q14 Melbourne" in out
        assert "UMD Trapped Ion" in out

    def test_benchmarks(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "BV8" in out and "QFT" in out

    def test_compile_to_stdout(self, capsys):
        assert main(["compile", "-b", "HS2", "-d", "tenerife"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OPENQASM 2.0;")

    def test_compile_to_file(self, tmp_path, capsys):
        target = tmp_path / "out.quil"
        assert (
            main(
                ["compile", "-b", "HS2", "-d", "agave", "-o", str(target)]
            )
            == 0
        )
        assert "DECLARE ro" in target.read_text()

    def test_compile_scaffold_with_defines(self, tmp_path, capsys):
        source = tmp_path / "prog.scaffold"
        source.write_text(
            "const int N = 2;\n"
            "module main(qbit q[N]) {"
            " for (int i = 0; i < N; i++) { H(q[i]); MeasZ(q[i]); } }"
        )
        assert (
            main(
                ["compile", "-f", str(source), "-D", "N=3", "-d", "umd"]
            )
            == 0
        )
        out = capsys.readouterr().out
        # The define took effect: three classical bits are measured.
        assert "-> C2" in out
        assert "-> C3" not in out

    def test_run_reports_success(self, capsys):
        assert (
            main(
                ["run", "-b", "Toffoli", "-d", "umd",
                 "--fault-samples", "20"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "success rate" in out

    def test_run_rejects_scaffold_input(self, tmp_path, capsys):
        source = tmp_path / "prog.scaffold"
        source.write_text("module main(qbit q) { H(q); MeasZ(q); }")
        assert main(["run", "-f", str(source), "-d", "umd"]) == 2

    @pytest.mark.parametrize(
        "name", ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table1"]
    )
    def test_experiments(self, name, capsys):
        assert main(["experiment", name]) == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize(
        "argv,kind,name",
        [
            (["compile", "-b", "BV4", "-d", "sycamore"], "device",
             "sycamore"),
            (["compile", "-b", "NOPE", "-d", "umd"], "benchmark", "NOPE"),
            (["run", "-b", "BV4", "-d", "nosuch"], "device", "nosuch"),
            (["run", "-b", "NOPE", "-d", "umd"], "benchmark", "NOPE"),
            (["sweep", "-d", "nosuch", "-l", "N"], "device", "nosuch"),
            (["sweep", "-d", "umd", "-b", "BV4, NOPE"], "benchmark",
             "NOPE"),
            (["check", "-d", "umd,nosuch"], "device", "nosuch"),
            (["check", "-b", "NOPE"], "benchmark", "NOPE"),
            (["fuzz", "-d", "nosuch", "--circuits", "1"], "device",
             "nosuch"),
        ],
    )
    def test_unknown_name_is_a_one_line_usage_error(
        self, argv, kind, name, capsys
    ):
        from repro.devices import all_devices
        from repro.programs import standard_suite

        known = ", ".join(
            item.name
            for item in (
                all_devices() if kind == "device" else standard_suite()
            )
        )
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"repro {argv[0]}: unknown {kind} {name!r}; "
            f"known {kind}s: {known}"
        ]


class TestContractFlags:
    def test_contracts_default_off(self):
        args = build_parser().parse_args(
            ["compile", "-b", "BV4", "-d", "umd"]
        )
        assert args.contracts == "off"

    def test_compile_with_strict_contracts(self, capsys):
        assert (
            main(
                ["compile", "-b", "HS2", "-d", "tenerife",
                 "--contracts", "strict", "--no-cache"]
            )
            == 0
        )
        assert capsys.readouterr().out.startswith("OPENQASM 2.0;")

    def test_sweep_accepts_contracts(self, capsys):
        assert (
            main(
                ["sweep", "-d", "tenerife", "-b", "BV4", "-l", "1QOpt",
                 "--no-success", "--contracts", "strict", "--no-cache"]
            )
            == 0
        )

    def test_warn_mode_reports_violations(self, capsys, monkeypatch):
        from repro.contracts import CONTRACT_FAULT_ENV

        monkeypatch.setenv(CONTRACT_FAULT_ENV, "codegen")
        assert (
            main(
                ["compile", "-b", "HS2", "-d", "tenerife",
                 "--contracts", "warn", "--no-cache"]
            )
            == 0
        )
        assert "contract violation" in capsys.readouterr().err


class TestCheckCommand:
    def test_clean_grid(self, capsys):
        assert (
            main(
                ["check", "-b", "BV4", "-d", "tenerife", "-l", "1QOpt"]
            )
            == 0
        )
        assert "0 contract violation(s)" in capsys.readouterr().err

    def test_faulted_grid_exits_nonzero(self, capsys, monkeypatch):
        from repro.contracts import CONTRACT_FAULT_ENV

        monkeypatch.setenv(CONTRACT_FAULT_ENV, "onequbit")
        assert (
            main(
                ["check", "-b", "BV4", "-d", "agave", "-l", "1QOpt"]
            )
            == 5
        )
        assert "VIOLATION" in capsys.readouterr().out


class TestFuzzCommand:
    def test_clean_campaign(self, capsys):
        assert (
            main(
                ["fuzz", "--circuits", "2", "-d", "tenerife",
                 "-l", "1QOptCN"]
            )
            == 0
        )
        assert "0 finding(s)" in capsys.readouterr().err

    def test_faulted_campaign_writes_reproducer(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.contracts import CONTRACT_FAULT_ENV

        monkeypatch.setenv(CONTRACT_FAULT_ENV, "codegen")
        assert (
            main(
                ["fuzz", "--circuits", "1", "-d", "tenerife",
                 "-l", "1QOpt", "--artifact-dir", str(tmp_path)]
            )
            == 5
        )
        out = capsys.readouterr().out
        assert "FINDING [contract]" in out
        artifacts = list(tmp_path.glob("*.json"))
        assert len(artifacts) == 1
        # Replay once the fault is gone: clean exit.
        monkeypatch.delenv(CONTRACT_FAULT_ENV)
        assert main(["fuzz", "--replay", str(artifacts[0])]) == 0


class TestBenchCommand:
    def _args(self, tmp_path, extra=()):
        return [
            "bench", "--trials", "300", "--fault-samples", "60",
            "--repeats", "1",
            "-o", str(tmp_path / "bench.json"), *extra,
        ]

    def test_writes_report(self, tmp_path, capsys):
        import json

        assert main(self._args(tmp_path)) == 0
        report = json.loads((tmp_path / "bench.json").read_text())
        assert set(report["kernels"]) == {
            "trajectory_sampling", "trajectory_sampling_deep",
            "success_estimation", "reliability_matrix",
            "mapper_portfolio", "pass_manager",
        }
        for record in report["kernels"].values():
            assert record["speedup"] > 0
        assert "speedup" in capsys.readouterr().out

    def test_baseline_gate_passes_and_fails(self, tmp_path, capsys):
        # Gating logic only — kernel coverage is test_writes_report's
        # job, so restrict both runs to the cheapest kernel.
        import json

        fast = ["--kernels", "trajectory_sampling"]
        generous = {"schema": 1, "kernels": {
            "trajectory_sampling": {"speedup": 0.01},
        }}
        (tmp_path / "ok.json").write_text(json.dumps(generous))
        assert (
            main(self._args(
                tmp_path, [*fast, "--baseline", str(tmp_path / "ok.json")]
            ))
            == 0
        )
        impossible = {"schema": 1, "kernels": {
            "trajectory_sampling": {"speedup": 1e9},
            "not_benchmarked": {"speedup": 1.0},
        }}
        (tmp_path / "bad.json").write_text(json.dumps(impossible))
        assert (
            main(self._args(
                tmp_path, [*fast, "--baseline", str(tmp_path / "bad.json")]
            ))
            == 4
        )
        err = capsys.readouterr().err
        assert "REGRESSION trajectory_sampling" in err
        assert "missing from bench report" in err

    def test_kernel_filter_restricts_report_and_rejects_unknown(
        self, tmp_path, capsys
    ):
        import json

        assert main(self._args(
            tmp_path, ["--kernels", "trajectory_sampling,success_estimation"]
        )) == 0
        report = json.loads((tmp_path / "bench.json").read_text())
        assert set(report["kernels"]) == {
            "trajectory_sampling", "success_estimation",
        }
        capsys.readouterr()
        assert main(self._args(tmp_path, ["--kernels", "warp_drive"])) == 2
        assert "unknown bench kernel" in capsys.readouterr().err

    def test_report_only_kernels_never_fail_the_gate(self):
        # "gate": false entries (near-1.0x ratios that flake on shared
        # runners) are exempt from the ratio floor, but dropping the
        # kernel from the report still fails — coverage stays gated.
        from repro.experiments.bench import compare_to_baseline

        baseline = {"kernels": {
            "hard": {"speedup": 5.0},
            "soft": {"speedup": 1.0, "gate": False},
        }}
        healthy = {"kernels": {
            "hard": {"speedup": 5.0}, "soft": {"speedup": 0.2},
        }}
        assert compare_to_baseline(healthy, baseline) == []
        missing = {"kernels": {"hard": {"speedup": 5.0}}}
        assert compare_to_baseline(missing, baseline) == [
            "soft: missing from bench report"
        ]

    def test_missing_baseline_errors(self, tmp_path, capsys):
        assert (
            main(self._args(tmp_path, ["--baseline", str(tmp_path / "nope.json")]))
            == 2
        )
        assert "baseline not found" in capsys.readouterr().err
