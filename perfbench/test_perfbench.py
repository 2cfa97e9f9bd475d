"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest perfbench -q

Smoke-sized runs of every workload must emit every metric
``BENCHMARK.json`` names, with its unit, and must have verified
outputs; the steadiness check must flag spread and drift beyond the
declared bounds; a checkout without the program must fail cleanly.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import steadiness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        SPEC["command"] + list(args), cwd=cwd, capture_output=True,
        text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    details = json.loads(lines[-2].split(" ", 1)[1])
    assert details["checks"] > 0 and details["mismatches"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_quality_repeats_exactly(workload):
    quality = []
    # Two seeds: the seed orders the work but never changes the outputs.
    for seed in ("5", "6"):
        done = _run("--workload", workload, "--seed", seed, "--seconds", "1",
                    "--trace", "0", "--smoke")
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        quality.append((metrics["two_qubit_gates_total"]["value"],
                        metrics["mean_success_rate"]["value"]))
    assert quality[0] == quality[1]


def test_inputs_are_a_function_of_the_seed():
    # The sweep's days are fixed, so its outputs repeat for every seed.
    assert inputs.sweep_calls() == inputs.sweep_calls()
    assert all(len(c.days) > 1 for c in inputs.sweep_calls())
    first = inputs.service_schedule(4, 5.0)
    assert first == inputs.service_schedule(4, 5.0)
    second = inputs.service_schedule(5, 5.0)
    assert first != second
    # The seed draws order and arrival times, never the amount of work.
    assert sorted((r.kind, r.cell.label()) for r in first) == sorted(
        (r.kind, r.cell.label()) for r in second
    )


def test_service_median_lies_among_hot_keys():
    # With hot keys well over half the requests, the median latency lies
    # inside the hot-hit cluster rather than on its edge.
    schedule = inputs.service_schedule(1, 24.0)
    hot = sum(r.group.endswith("-hot") for r in schedule)
    assert hot / len(schedule) >= 0.75


def test_steadiness_flags_spread_and_drift():
    spec = {"end_to_end": [
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "latency_p50_ms", "better": "lower", "bound": 0.1},
    ]}
    steady = {"w": {"setup_s": [1.0, 1.02, 0.98, 1.01, 0.99],
                    "latency_p50_ms": [10.0, 10.1, 9.9, 10.05, 9.95]}}
    assert steadiness.evaluate(steady, spec) == []
    noisy_setup = {"w": {**steady["w"],
                         "setup_s": [1.0, 1.5, 2.0, 1.2, 0.9]}}
    assert any("setup_s: spread" in f
               for f in steadiness.evaluate(noisy_setup, spec))
    noisy = {"w": {"setup_s": [1.0] * 5,
                   "latency_p50_ms": [10.0, 12.0, 8.0, 11.0, 9.0]}}
    assert any("spread" in f for f in steadiness.evaluate(noisy, spec))
    slower = {"w": {"setup_s": [1.0] * 5, "latency_p50_ms": [11.5] * 5}}
    assert any("worse" in f for f in steadiness.evaluate(slower, spec, steady))
    assert steadiness.evaluate(steady, spec, slower) == []


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"]
    )
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
