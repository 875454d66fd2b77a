"""Benchmark of the gaitmogp CLI: end-to-end and per-module figures.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload segment-cohort --seed 1 \\
        --seconds 25 --trace 0

One run of one workload:

1. a warm-up launch of the workload child writes the inputs made from
   ``--seed`` (and compiles bytecode, so that is never timed);
2. ``setup_s`` is the median of several fresh interpreters timed from
   launch until ``gaitmogp.cli`` is imported;
3. the workload child runs rounds of the workload's CLI commands for
   ``--seconds`` and checks every round's outputs.

Every child has BLAS/OpenMP pinned to one thread and runs one at a time.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. A full record, with host facts, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
# Each run must end within this many seconds of its start.
RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = 3
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBE = "import time, gaitmogp.cli; print(repr(time.monotonic()))"


class BenchError(Exception):
    """The run cannot produce a result."""


def child_environment() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Launcher:
    """Starts children one at a time, each bounded by the run deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = child_environment()

    def run(self, argv: list[str]) -> str:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        try:
            # On timeout, subprocess.run kills the child and waits for it.
            done = subprocess.run([sys.executable, *argv], cwd=ROOT,
                                  env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child timed out: {argv[:2]}") from None
        if done.returncode != 0:
            raise BenchError(f"child {argv[:2]} exited with "
                             f"{done.returncode}:\n{done.stderr}")
        return done.stdout


def setup_seconds(launcher: Launcher) -> float:
    """Launch-to-imported time of one fresh interpreter."""
    start = time.monotonic()
    out = launcher.run(["-c", SETUP_PROBE])
    return float(out.strip().splitlines()[-1]) - start


def metric_units(spec: dict, trace: int) -> dict[str, str]:
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {names}")
    work = BENCH_DIR / "_work" / (f"{args.workload}-seed{args.seed}-"
                                  f"trace{args.trace}-{os.getpid()}")
    result_file = work / "child-result.json"
    common = [str(BENCH_DIR / "child.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--work", str(work)]
    if args.quick:
        common.append("--quick")

    launcher = Launcher()
    try:
        launcher.run([*common, "--prepare"])
        setups = [setup_seconds(launcher)
                  for _ in range(1 if args.quick else SETUP_SAMPLES)]
        launcher.run([*common, "--seconds", str(args.seconds),
                      "--trace", str(args.trace),
                      "--result", str(result_file)])
        child = json.loads(result_file.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = dict(child["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mib"] = child["peak_rss_mib"]
    units = metric_units(spec, args.trace)
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"no value for {missing}; errors: "
                         f"{child['errors']}")
    return {
        "summary": {
            "correct": child["correct"],
            "attempted": child["attempted"],
            "failed": child["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        },
        "setup_samples_s": setups,
        "child": child,
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description="gaitmogp CLI benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and one setup sample (for tests)")
    args = parser.parse_args()

    if not (ROOT / "src" / "gaitmogp" / "cli.py").is_file():
        print(f"perfbench: no gaitmogp sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        record = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                  encoding="utf-8")
    child, summary = record["child"], record["summary"]
    print(f"host: {json.dumps(child['host'], sort_keys=True)}")
    print(f"rounds: {len(child['rounds'])}, size: "
          f"{json.dumps(child['size'], sort_keys=True)}")
    for note in child["notes"]:
        print(f"note: {note}")
    for error in child["errors"]:
        print(f"error: {error}")
    for name, value in sorted(child.get("quality", {}).items()):
        print(f"quality: {name} = {value!r}")
    for name, metric in summary["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
