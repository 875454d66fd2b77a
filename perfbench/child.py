"""Workload child: runs the rounds of one workload run in one process.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread. With
``--prepare`` it only writes the workload's inputs (this launch also
compiles the package's bytecode and is not timed). Otherwise it runs
rounds of the workload's CLI commands until ``--seconds`` have passed,
checks the outputs after every round, and writes a JSON result file.
Each round is bracketed by a calibration task, and the reported times
are scaled to the calibration's reference speed (see below); the raw
times stay in the result file.

With ``--trace 1`` rounds alternate between untraced and traced, so
the tracing overhead is measured in the same process; per-layer
figures are medians over the traced rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

from gaitmogp import cli

import checks
from spans import Tracer
from workloads import WORKLOADS

# The calibration task: fixed interpreter loops, numpy elementwise work
# and LAPACK, none of it from gaitmogp. Shared hosts change speed by up
# to 1.6x for tens of seconds at a time as other tenants load them; the
# calibration slows down with them, so scaling a round's times by
# CALIBRATION_REFERENCE_S / (calibration time around the round) reports
# them at one fixed host speed.
CALIBRATION_REFERENCE_S = 0.25
_CAL_RNG = np.random.default_rng(0)
_CAL_LAGS = _CAL_RNG.uniform(0.0, 1.0, (240, 240))
_CAL_SPD = _CAL_LAGS @ _CAL_LAGS.T + 240.0 * np.eye(240)
_CAL_ROW = [float(v) for v in _CAL_RNG.normal(size=400)]


def calibration_seconds() -> float:
    start = time.perf_counter()
    acc = 0.0
    for _ in range(1000):
        for j in range(1, 400):
            acc = _CAL_ROW[j] + min(acc, _CAL_ROW[j - 1], 0.5)
    for _ in range(50):
        np.exp(-_CAL_LAGS * _CAL_LAGS) * np.sin(np.pi * _CAL_LAGS)
    for _ in range(60):
        np.linalg.cholesky(_CAL_SPD) @ _CAL_LAGS
    return time.perf_counter() - start


# Per-layer metric names: self-time spans, call counts and hook counters.
SELF_TIME_SPANS = ("dataio.load_corpus", "gait_signal.detect_events",
                   "kernels.gram_matrix", "kernels.kernel_gradients",
                   "mogp.fit", "mogp.log_marginal_likelihood",
                   "mogp.lml_gradient", "mogp.predict", "mogp.save_model",
                   "mogp.load_model", "hmm.baum_welch_fit",
                   "hmm.viterbi_decode", "metrics.dtw",
                   "metrics.compute_report")
CALL_COUNTS = ("kernels.gram_matrix", "mogp.fit",
               "mogp.log_marginal_likelihood", "mogp.lml_gradient",
               "mogp.predict", "hmm.baum_welch_fit", "metrics.dtw")


def _per_unit(total: float, count: int, scale: float) -> float:
    """total / count in scaled units; a layer that did no work reads 0."""
    return scale * total / count if count else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    out = {f"{name}.s": tracer.self_s[name] for name in SELF_TIME_SPANS}
    out.update({f"{name}.calls": tracer.calls[name] for name in CALL_COUNTS})
    counters = tracer.counters
    out.update({
        "mogp.fit.adam_iters": counters["adam_iters"],
        "mogp.fit.adam_iter_ms": _per_unit(
            tracer.inclusive_s["mogp.fit"], counters["adam_iters"], 1e3),
        "mogp.fit.train_points": counters["train_points"],
        "mogp.jitter_fallbacks": counters["jitter_fallbacks"],
        "serialize.bytes_written": counters["bytes_written"],
        "hmm.em_iters": counters["em_iters"],
        "hmm.em_iter_ms": _per_unit(
            tracer.inclusive_s["hmm.baum_welch_fit"], counters["em_iters"],
            1e3),
        "metrics.dtw.cells": counters["dtw_cells"],
        "metrics.dtw.ns_per_cell": _per_unit(
            tracer.self_s["metrics.dtw"], counters["dtw_cells"], 1e9),
        "cli.self_s": wall_s - tracer.top_level_s,
    })
    return out


def run_command(argv: list[str]) -> str | None:
    """Run one CLI command in-process; an error text if it failed."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        return traceback.format_exc()
    return None if code == 0 else f"{argv[0]} exited with {code}"


def host_facts() -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # older numpy has no dict form
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def run_rounds(workload, seconds: float, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    rounds, errors = [], []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        wall = cpu = 0.0
        round_failed = False
        calibration = calibration_seconds()
        try:
            for argv in workload.round_commands():
                attempted += 1
                wall0, cpu0 = time.perf_counter(), time.process_time()
                error = run_command(argv)
                wall += time.perf_counter() - wall0
                cpu += time.process_time() - cpu0
                if error is not None:
                    failed += 1
                    round_failed = True
                    errors.append(error)
                    break
        finally:
            if traced:
                tracer.uninstall()
        calibration = 0.5 * (calibration + calibration_seconds())
        record = {"wall_s": wall, "cpu_s": cpu, "traced": traced,
                  "failed": round_failed,
                  "speed": CALIBRATION_REFERENCE_S / calibration}
        if not round_failed:
            try:
                workload.check(tracer if traced else None)
            except checks.CheckFailed as exc:
                correct = False
                errors.append(f"check failed: {exc}")
            if traced:
                record["layers"] = layer_metrics(tracer, wall)
        rounds.append(record)
        done = [r for r in rounds if not r["failed"]]
        have_both = not trace or (any(r["traced"] for r in rounds)
                                  and any(not r["traced"] for r in rounds))
        if time.perf_counter() - start >= seconds and have_both \
                or round_failed and not done:
            break
    return {"rounds": rounds, "attempted": attempted, "failed": failed,
            "correct": correct, "errors": errors,
            "notes": tracer.notes if tracer else []}


def summarize(result: dict, trace: bool) -> dict[str, float]:
    ok = [r for r in result["rounds"] if not r["failed"]]
    plain = [r for r in ok if not r["traced"]]
    metrics = {}
    if not trace:
        if plain:
            metrics["wall_s"] = _scaled_median(plain, "wall_s")
            metrics["cpu_s"] = _scaled_median(plain, "cpu_s")
        return metrics
    traced = [r for r in ok if r["traced"]]
    if traced and plain:
        # median_low keeps each figure a value of one round, so counts
        # stay whole numbers.
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median_low(r["layers"][name]
                                                  for r in traced)
        # Raw times, like the per-layer ones: the calibration's own
        # scatter would swamp a difference this small.
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain))
    return metrics


def _scaled_median(rounds, key: str) -> float:
    """Median over rounds of a time at the calibration reference speed."""
    return statistics.median(r[key] * r["speed"] for r in rounds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.work, args.seed, args.quick)
    if args.prepare:
        os.makedirs(args.work, exist_ok=True)
        for argv in workload.input_commands():
            error = run_command(argv)
            if error is not None:
                print(error, file=sys.stderr)
                return 1
        return 0

    result = run_rounds(workload, args.seconds, bool(args.trace))
    result["metrics"] = summarize(result, bool(args.trace))
    if result["failed"] < result["attempted"] and result["correct"]:
        result["quality"] = workload.quality()
    result["peak_rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["host"] = host_facts()
    result["size"] = workload.size
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
