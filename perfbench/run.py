"""End-to-end benchmark of the TriQ reproduction, with per-layer replay.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compile_grid --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/layers.json``):

* ``compile_grid``  cold ``repro.api.compile`` over the paper grid;
* ``run_wide``      ``repro.api.run`` on the 14/16-qubit devices;
* ``sweep_days``    ``repro.api.sweep`` on a process pool over
  calibration days, each sweep into a fresh cache and journal;
* ``service_mixed`` a closed-loop HTTP mix against the in-process
  ``repro serve`` daemon.

``--trace 0`` measures the end-to-end metrics with nothing
instrumented.  ``--trace 1`` replays the same inputs through each
layer's public functions, checks the replay reproduces the API outputs
exactly, and reports the per-layer metrics.  Every run verifies the
program's outputs; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output verified.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT, SRC, WORK, median, pin_threads

#: Fresh processes timed from start to "workload ready"; setup_s is
#: their median.  They run after the workload, so its peak RSS (which
#: on sweep_days counts ended child processes) never includes them.
SETUP_PROBES = 7


def _import_repro() -> None:
    """Import the package from this checkout's ``src``, nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).parents:
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}")


def _probe_setup(args) -> float:
    """Median wall time from process start to a ready workload."""
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--setup-probe",
    ] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        probe = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        try:
            line = probe.stdout.readline()
            times.append(time.perf_counter() - started)
            probe.stdout.read()
        finally:
            probe.stdout.close()
            code = probe.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
    return median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, for the benchmark's self-tests",
    )
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    threads = pin_threads()
    _import_repro()
    from workloads import WORKLOADS, Outcome, empty_layers

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    if args.setup_probe:
        workload = workload_cls(args.seed, args.smoke)
        print("ready", flush=True)
        workload.close()
        return 0

    out = Outcome()
    created = not WORK.exists()
    WORK.mkdir(exist_ok=True)
    try:
        workload = workload_cls(args.seed, args.smoke)
        try:
            workload.warmup()
            if args.trace:
                empty_layers(out)
                workload.traced(args.seconds, out)
            else:
                workload.timed(args.seconds, out)
        finally:
            workload.close()
        if not args.trace:
            out.metrics = {"setup_s": (_probe_setup(args), "s"),
                           **out.metrics}
    finally:
        if created:
            shutil.rmtree(WORK, ignore_errors=True)

    for name, (value, unit) in out.metrics.items():
        print(f"{name:48s} {value:16.6f} {unit}")
    print("details " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "blas_threads": threads,
        "checks": out.checks,
        "mismatches": out.mismatches,
        "problems": out.problems,
        **out.details,
    }, sort_keys=True))
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in out.metrics.items()
        },
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
