"""Correctness checks on the outputs of each workload.

Every check reads what the CLI wrote (or what the tracer captured) and
raises :class:`CheckFailed` with a message naming the first violation.
Expected values come from :mod:`reference`, never from ``gaitmogp``;
the only program object used is the segment report's published JSON
Schema, which is the contract being checked.
"""

from __future__ import annotations

import csv
import math

import numpy as np

import reference

# Criterion 9 bars: at least this share of disorder subjects localized
# and of control subjects reporting no segment.
LOCALIZED_SHARE = 0.9
CLEAN_SHARE = 0.9
# A disorder subject is localized when one segment covers at least this
# share of the injected window.
WINDOW_OVERLAP_SHARE = 0.5

EM_SLACK = 1e-9
VITERBI_REL_TOL = 1e-9
UNIT_RATIO_REL_TOL = 1e-9
R2_TOL = 1e-9
AGGREGATE_REL_TOL = 1e-12
DTW_REL_TOL = 1e-12
# fit-pooled: relative LML agreement and mixed (absolute below 1,
# relative above) agreement of predicted means and stds.
LML_REL_TOL = 1e-9
PREDICT_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program is not what the reference says."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(value: float, expected: float, rel_tol: float) -> bool:
    return abs(value - expected) <= rel_tol * max(1.0, abs(expected))


# ---------------------------------------------------------------------------
# segment-cohort


def check_segment_report(report: dict, schema: dict,
                         window: tuple[float, float]) -> None:
    """Schema, criterion 9 bars and segments inside abnormal runs."""
    import jsonschema

    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        raise CheckFailed(f"segment report violates its schema: "
                          f"{exc.message}") from None

    grid_points = report["grid_points"]
    start, end = window
    controls = clean = disorders = localized = 0
    for subject in report["subjects"]:
        segments = subject["anomalous_segments"]
        states = subject["states"]
        _require(len(states) == grid_points,
                 f"{subject['subject_id']}: {len(states)} states on a "
                 f"{grid_points}-point grid")
        for segment in segments:
            first = round(segment["start_time"] * grid_points)
            last = round(segment["end_time"] * grid_points)
            _require(0 <= first <= last < grid_points
                     and all(s in (3, 4) for s in states[first:last + 1]),
                     f"{subject['subject_id']}: segment "
                     f"[{segment['start_time']}, {segment['end_time']}] "
                     f"is not inside a run of states 3/4")
        if subject["cohort"] == "control":
            controls += 1
            clean += not segments
        else:
            disorders += 1
            best = max((min(s["end_time"], end) - max(s["start_time"], start)
                        for s in segments), default=0.0)
            localized += best >= WINDOW_OVERLAP_SHARE * (end - start)
    _require(controls > 0 and disorders > 0,
             f"report has {controls} controls and {disorders} disorders")
    _require(localized >= LOCALIZED_SHARE * disorders,
             f"{localized}/{disorders} disorder subjects localized "
             f"(bar {LOCALIZED_SHARE:.0%})")
    _require(clean >= CLEAN_SHARE * controls,
             f"{clean}/{controls} control subjects clean "
             f"(bar {CLEAN_SHARE:.0%})")


def check_em_traces(traces) -> None:
    """Every Baum-Welch log-likelihood trace is non-decreasing."""
    for index, trace in enumerate(traces):
        drops = np.diff(np.asarray(trace, dtype=float))
        _require(drops.size == 0 or float(drops.min()) >= -EM_SLACK,
                 f"EM trace {index} decreases by "
                 f"{-float(drops.min()) if drops.size else 0.0:.3e}")


def check_viterbi(calls) -> None:
    """Each decoded log_joint is its path's score and no path beats it."""
    for index, call in enumerate(calls):
        emissions = reference.gaussian_log_emissions(
            call["means"], call["covariance"], call["steps"])
        score = reference.path_score(call["initial"], call["transitions"],
                                     emissions, call["states"] - 1)
        best, _ = reference.viterbi(call["initial"], call["transitions"],
                                    emissions)
        _require(_close(call["log_joint"], score, VITERBI_REL_TOL),
                 f"Viterbi call {index}: log_joint {call['log_joint']!r} "
                 f"but the path scores {score!r}")
        _require(best <= call["log_joint"]
                 + VITERBI_REL_TOL * max(1.0, abs(best)),
                 f"Viterbi call {index}: reference finds {best!r} > "
                 f"log_joint {call['log_joint']!r}")


# ---------------------------------------------------------------------------
# evaluate-loso


def read_metrics_document(path) -> dict[str, str]:
    entries = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                key, _, value = line.partition("=")
                entries[key.strip()] = value.strip()
    return entries


def check_evaluate(splits: dict[str, dict[str, str]],
                   aggregate: dict[str, str], channels,
                   grid_points: int) -> None:
    """Unit-system identities per split, DTW bounds and the aggregate."""
    _require(splits, "no split reports")
    for subject, doc in splits.items():
        for channel in channels:
            values = {}
            for unit in ("normalized", "raw"):
                for metric in ("mae", "dtw", "r_squared"):
                    key = f"{unit}.{metric}.{channel}"
                    _require(key in doc, f"split {subject}: missing {key}")
                    values[unit, metric] = float(doc[key])
                mae, dtw = values[unit, "mae"], values[unit, "dtw"]
                _require(0.0 <= dtw <= grid_points * mae
                         * (1.0 + UNIT_RATIO_REL_TOL),
                         f"split {subject} {unit} {channel}: DTW {dtw!r} "
                         f"outside [0, {grid_points} * MAE {mae!r}]")
            # Both units differ by the channel std: MAE and DTW scale
            # with it, R² does not change.
            lhs = values["raw", "mae"] * values["normalized", "dtw"]
            rhs = values["raw", "dtw"] * values["normalized", "mae"]
            _require(abs(lhs - rhs) <= UNIT_RATIO_REL_TOL * abs(lhs),
                     f"split {subject} {channel}: raw/normalized MAE "
                     f"ratio differs from the DTW ratio")
            _require(_close(values["raw", "r_squared"],
                            values["normalized", "r_squared"], R2_TOL),
                     f"split {subject} {channel}: raw R² "
                     f"{values['raw', 'r_squared']!r} != normalized "
                     f"{values['normalized', 'r_squared']!r}")

    _require(aggregate.get("splits") == str(len(splits)),
             f"aggregate counts {aggregate.get('splits')} splits, "
             f"found {len(splits)}")
    numeric = [k for k in next(iter(splits.values()))
               if k not in ("schema", "subject_id")]
    for key in numeric:
        _require(key in aggregate, f"aggregate is missing {key}")
        mean = float(np.mean([float(doc[key]) for doc in splits.values()]))
        _require(abs(float(aggregate[key]) - mean)
                 <= AGGREGATE_REL_TOL * max(abs(mean), 1e-300),
                 f"aggregate {key} = {aggregate[key]} but the splits "
                 f"average {mean!r}")


def check_dtw_calls(calls) -> None:
    """Every traced metrics.dtw result equals the reference DTW."""
    for index, (a, b, value) in enumerate(calls):
        expected = reference.dtw(a, b)
        _require(abs(value - expected) <= DTW_REL_TOL * max(expected, 1e-300),
                 f"DTW call {index} ({a.size}x{b.size}): {value!r} but "
                 f"the reference gives {expected!r}")


# ---------------------------------------------------------------------------
# fit-pooled


def read_fitlog(path) -> list[float]:
    with open(path, encoding="utf-8") as handle:
        rows = [line.strip() for line in handle if line.strip()]
    _require(rows[:2] == ["# schema=fitlog-v1", "iteration,lml"],
             f"{path}: not a fitlog-v1 file")
    return [float(row.split(",")[1]) for row in rows[2:]]


def read_predictions(path):
    """Query times plus (M, Q) mean and std arrays of a predict-v1 file."""
    with open(path, encoding="utf-8", newline="") as handle:
        _require(handle.readline().strip() == "# schema=predict-v1",
                 f"{path}: not a predict-v1 file")
        rows = list(csv.reader(handle))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    _require(header[0] == "time" and len(header) % 2 == 1,
             f"{path}: unexpected header {header}")
    return body[:, 0], body[:, 1::2].T, body[:, 2::2].T


def check_fit_pooled(model_path, fitlog_path, predict_path) -> None:
    """Saved model, fit log and predictions against the dense reference."""
    model = reference.read_mogp(model_path)
    trace = read_fitlog(fitlog_path)
    _require(trace and all(math.isfinite(v) for v in trace),
             f"{fitlog_path}: empty or non-finite trace")
    lml = reference.dense_lml(model)
    # Matching the maximum also puts it at or above the first entry.
    _require(_close(lml, max(trace), LML_REL_TOL),
             f"reference LML {lml!r} of the saved model != fit log "
             f"maximum {max(trace)!r}")

    times, mean, std = read_predictions(predict_path)
    ref_mean, ref_std = reference.dense_posterior(model, times)
    _require(mean.shape == ref_mean.shape,
             f"predictions have shape {mean.shape}, model has "
             f"{ref_mean.shape}")
    for name, got, want in (("mean", mean, ref_mean), ("std", std, ref_std)):
        error = float(np.max(np.abs(got - want)
                             / np.maximum(1.0, np.abs(want))))
        _require(error <= PREDICT_TOL,
                 f"predicted {name} differs from the dense posterior by "
                 f"{error:.3e} (tolerance {PREDICT_TOL:.0e})")
