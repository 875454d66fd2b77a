"""Each check passes on real outputs and fires on a tampered copy."""

import json
import os
import shutil

import numpy as np
import pytest

import checks
import child
import workloads
from spans import Tracer


def _produce(cls, work, seed=1):
    """Run one traced round of a workload (quick size) into ``work``."""
    workload = cls(str(work), seed, quick=True)
    os.makedirs(workload.work, exist_ok=True)
    for argv in workload.input_commands():
        assert child.run_command(argv) is None
    tracer = Tracer()
    tracer.install()
    try:
        for argv in workload.round_commands():
            assert child.run_command(argv) is None
    finally:
        tracer.uninstall()
    workload.check(tracer)
    return workload, tracer


@pytest.fixture(scope="module")
def segment_run(tmp_path_factory):
    return _produce(workloads.SegmentCohort,
                    tmp_path_factory.mktemp("segment"))


@pytest.fixture(scope="module")
def evaluate_run(tmp_path_factory):
    return _produce(workloads.EvaluateLoso,
                    tmp_path_factory.mktemp("evaluate"))


@pytest.fixture(scope="module")
def fit_run(tmp_path_factory):
    return _produce(workloads.FitPooled, tmp_path_factory.mktemp("fit"))


def _copy(run, tmp_path):
    """A fresh workload over a copy of ``run``'s outputs."""
    workload, _ = run
    work = tmp_path / "copy"
    shutil.copytree(workload.work, work)
    return type(workload)(str(work), workload.seed, quick=True)


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    edit(document)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def _edit_lines(path, edit):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(edit(lines)) + "\n")


def _set_key(lines, key, value):
    return [f"{key} = {value}" if line.startswith(f"{key} =") else line
            for line in lines]


def _subject(report, cohort):
    return next(s for s in report["subjects"] if s["cohort"] == cohort)


# -- segment-cohort -----------------------------------------------------------


def _tamper_schema(report):
    report["subjects"][0]["states"][0] = 5


def _tamper_control(report):
    control = _subject(report, "control")
    control["states"][10:20] = [3] * 10
    control["anomalous_segments"] = [
        {"start_time": 10 / report["grid_points"],
         "end_time": 19 / report["grid_points"], "state_label": "s3"}]


def _tamper_disorder(report):
    _subject(report, "disorder")["anomalous_segments"] = []


def _tamper_run(report):
    segment = _subject(report, "disorder")["anomalous_segments"][0]
    segment["end_time"] = 399 / report["grid_points"]


@pytest.mark.parametrize("tamper, message", [
    (_tamper_schema, "schema"),
    (_tamper_control, "control subjects clean"),
    (_tamper_disorder, "disorder subjects localized"),
    (_tamper_run, "not inside a run"),
])
def test_segment_report_checks_fire(segment_run, tmp_path, tamper, message):
    workload = _copy(segment_run, tmp_path)
    _edit_json(workload.path("report.json"), tamper)
    with pytest.raises(checks.CheckFailed, match=message):
        workload.check(None)


def test_em_trace_check_fires(segment_run):
    traces = [list(t) for t in segment_run[1].em_traces]
    traces[0][3] = traces[0][2] - 1e-6
    with pytest.raises(checks.CheckFailed, match="decreases"):
        checks.check_em_traces(traces)


@pytest.mark.parametrize("field, change", [
    ("log_joint", lambda call: call["log_joint"] + 1e-6),
    ("states", lambda call: np.where(call["states"] == 1, 2, 1)),
])
def test_viterbi_check_fires(segment_run, field, change):
    call = dict(segment_run[1].viterbi_calls[0])
    call[field] = change(call)
    with pytest.raises(checks.CheckFailed, match="Viterbi"):
        checks.check_viterbi([call])


# -- evaluate-loso ------------------------------------------------------------


def _split_path(workload):
    return workload.path("evaluate", "split_C01.metrics")


def test_evaluate_mae_ratio_check_fires(evaluate_run, tmp_path):
    workload = _copy(evaluate_run, tmp_path)
    path = _split_path(workload)
    value = float(checks.read_metrics_document(path)["raw.mae.hip_right"])
    _edit_lines(path, lambda lines: _set_key(
        lines, "raw.mae.hip_right", repr(value * 1.001)))
    with pytest.raises(checks.CheckFailed, match="ratio"):
        workload.check(None)


def test_evaluate_r2_check_fires(evaluate_run, tmp_path):
    workload = _copy(evaluate_run, tmp_path)
    path = _split_path(workload)
    value = float(checks.read_metrics_document(path)["raw.r_squared.knee_left"])
    _edit_lines(path, lambda lines: _set_key(
        lines, "raw.r_squared.knee_left", repr(value - 1e-6)))
    with pytest.raises(checks.CheckFailed, match="R²"):
        workload.check(None)


def test_evaluate_dtw_bound_check_fires(evaluate_run, tmp_path):
    workload = _copy(evaluate_run, tmp_path)
    path = _split_path(workload)
    mae = float(checks.read_metrics_document(path)["normalized.mae.ankle_left"])
    _edit_lines(path, lambda lines: _set_key(
        lines, "normalized.dtw.ankle_left",
        repr(2.0 * workload.size["grid"] * mae)))
    with pytest.raises(checks.CheckFailed, match="outside"):
        workload.check(None)


def test_evaluate_aggregate_check_fires(evaluate_run, tmp_path):
    workload = _copy(evaluate_run, tmp_path)
    path = workload.path("evaluate", "aggregate.metrics")
    value = float(checks.read_metrics_document(path)["normalized.adtw"])
    _edit_lines(path, lambda lines: _set_key(
        lines, "normalized.adtw", repr(value * (1.0 + 1e-9))))
    with pytest.raises(checks.CheckFailed, match="aggregate"):
        workload.check(None)


def test_evaluate_missing_split_fires(evaluate_run, tmp_path):
    workload = _copy(evaluate_run, tmp_path)
    os.remove(_split_path(workload))
    with pytest.raises(checks.CheckFailed, match="split reports"):
        workload.check(None)


def test_dtw_call_check_fires(evaluate_run):
    a, b, value = evaluate_run[1].dtw_calls[0]
    with pytest.raises(checks.CheckFailed, match="DTW call"):
        checks.check_dtw_calls([(a, b, value * (1.0 + 1e-10))])


# -- fit-pooled ---------------------------------------------------------------


def _bump_column(column):
    def edit(lines):
        cells = lines[2].split(",")
        cells[column] = repr(float(cells[column]) + 1e-6)
        return lines[:2] + [",".join(cells)] + lines[3:]
    return edit


def _bump_fitlog_maximum(lines):
    values = [float(line.split(",")[1]) for line in lines[2:]]
    row = 2 + values.index(max(values))
    lines[row] = f"{row - 2},{max(values) + 1e-3!r}"
    return lines


@pytest.mark.parametrize("file, edit, message", [
    (("models", "pooled.fitlog.csv"), _bump_fitlog_maximum, "fit log maximum"),
    (("models", "pooled.mogp"),
     lambda lines: _set_key(lines, "log_noise_variance", "-1.0"),
     "fit log maximum"),
    (("predictions.csv",), _bump_column(1), "predicted mean"),
    (("predictions.csv",), _bump_column(2), "predicted std"),
])
def test_fit_pooled_checks_fire(fit_run, tmp_path, file, edit, message):
    workload = _copy(fit_run, tmp_path)
    _edit_lines(workload.path(*file), edit)
    with pytest.raises(checks.CheckFailed, match=message):
        workload.check(None)
