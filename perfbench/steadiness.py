"""Check that the benchmark is steady against the bounds it declares.

Runs ``perfbench/run.py`` once per seed on each workload, then for every
end-to-end metric reports the spread of its values (interquartile range
over median, as ``statistics.quantiles(values, n=4)`` gives them) next
to the metric's bound from ``BENCHMARK.json``.  A spread above a third
of its bound is flagged, ``setup_s`` included.
With ``--against`` (the JSON this script wrote for an earlier set of
runs) it also checks that no metric's median got worse by more than its
bound.  Exit code 0 when every check passes.

    python3 perfbench/steadiness.py --seeds 1-10 --out first.json
    python3 perfbench/steadiness.py --seeds 11-20 --against first.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
#: Spreads must stay below this share of a metric's bound.
SPREAD_SHARE = 1.0 / 3.0


def spread(values: List[float]) -> float:
    """Interquartile range over median (0 when the median is 0)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def evaluate(
    runs: Dict[str, Dict[str, List[float]]],
    spec: Dict,
    baseline: Optional[Dict[str, Dict[str, List[float]]]] = None,
) -> List[str]:
    """Human-readable findings; empty when steady."""
    findings = []
    for workload, metrics in sorted(runs.items()):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = metrics.get(name)
            if not values:
                findings.append(f"{workload} {name}: missing")
                continue
            width = spread(values) if len(values) >= 2 else 0.0
            if width > bound * SPREAD_SHARE:
                findings.append(
                    f"{workload} {name}: spread {width:.4f} > "
                    f"{SPREAD_SHARE:.2f} x bound {bound}"
                )
            if baseline and baseline.get(workload, {}).get(name):
                drift = worse_by(
                    statistics.median(baseline[workload][name]),
                    statistics.median(values), metric["better"],
                )
                if drift > bound:
                    findings.append(
                        f"{workload} {name}: median worse by {drift:.4f} "
                        f"> bound {bound}"
                    )
    return findings


def _seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def collect(spec: Dict, workloads: List[str], seeds: List[int]):
    runs: Dict[str, Dict[str, List[float]]] = {}
    for workload in workloads:
        for seed in seeds:
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            started = time.perf_counter()
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True,
                timeout=600,
            )
            wall = time.perf_counter() - started
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                raise SystemExit(
                    f"{workload} seed {seed} failed:\n{done.stdout[-2000:]}"
                    f"\n{done.stderr[-2000:]}"
                )
            for name, metric in result["metrics"].items():
                runs.setdefault(workload, {}).setdefault(name, []).append(
                    metric["value"]
                )
            print(f"{workload} seed {seed} ({wall:.1f} s): " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ), flush=True)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: all")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    runs = collect(spec, workloads, _seeds(args.seeds))
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))
    baseline = json.loads(args.against.read_text()) if args.against else None
    for workload, metrics in sorted(runs.items()):
        for name, values in metrics.items():
            print(f"{workload:14s} {name:24s} median "
                  f"{statistics.median(values):12.5g} spread "
                  f"{spread(values):.4f}")
    findings = evaluate(runs, spec, baseline)
    for finding in findings:
        print("UNSTEADY " + finding)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
