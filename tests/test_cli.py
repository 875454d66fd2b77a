"""End-to-end tests for the gaitmogp command line."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitmogp import cli, hmm
from gaitmogp.dataio import CSV_HEADER
from gaitmogp.gait_signal import CHANNELS


FAST_FIT = ("--iterations", "5", "--points-per-channel", "12",
            "--grid-points", "40", "--seed", "5")


def _synth(path, *extra: str) -> int:
    return cli.main(["synth", "--output", str(path), *extra])


def _read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory) -> dict:
    """Run every subcommand once on a tiny corpus; return artifact paths."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus.csv"
    processed = root / "processed.csv"
    models = root / "models"
    pred = root / "pred.csv"
    report = root / "report.json"
    evaldir = root / "eval"
    plots = root / "plots"

    assert _synth(corpus, "--subjects-per-cohort", "1",
                  "--cycles-per-subject", "2", "--seed", "5") == 0
    assert cli.main(["preprocess", "--input", str(corpus), "--output",
                     str(processed), "--grid-points", "40"]) == 0
    assert cli.main(["fit", "--input", str(corpus), "--output", str(models),
                     "--scope", "subject", *FAST_FIT]) == 0
    assert cli.main(["predict", "--model", str(models / "C01.mogp"),
                     "--output", str(pred), "--grid-points", "40"]) == 0
    assert cli.main(["segment", "--input", str(corpus), "--output",
                     str(report), "--mogp-dir", str(models),
                     "--em-iterations", "5", *FAST_FIT]) == 0
    assert cli.main(["evaluate", "--input", str(corpus), "--output",
                     str(evaldir), *FAST_FIT]) == 0
    assert cli.main(["export-plots", "--model", str(models / "C01.mogp"),
                     "--output", str(plots), "--grid-points", "25"]) == 0

    return {"root": root, "corpus": corpus, "processed": processed,
            "models": models, "pred": pred, "report": report,
            "evaldir": evaldir, "plots": plots}


class TestConfigPrecedence:
    def test_defaults_apply(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        assert _synth(corpus) == 0
        out = capsys.readouterr().out
        assert "wrote 4 subjects (3 cycles each)" in out
        ids = {line.split(",")[0]
               for line in corpus.read_text().splitlines()[1:]}
        assert ids == {"C01", "C02", "D01", "D02"}

    def test_config_file_overrides_defaults(self, tmp_path, capsys):
        settings = tmp_path / "run.cfg"
        settings.write_text("subjects_per_cohort = 3\n"
                            "cycles_per_subject = 1\n")
        assert _synth(tmp_path / "corpus.csv",
                      "--config", str(settings)) == 0
        assert "wrote 6 subjects (1 cycles each)" in capsys.readouterr().out

    def test_flags_override_config_file(self, tmp_path, capsys):
        settings = tmp_path / "run.cfg"
        settings.write_text("subjects_per_cohort = 3\n"
                            "cycles_per_subject = 1\n")
        assert _synth(tmp_path / "corpus.csv", "--config", str(settings),
                      "--subjects-per-cohort", "1") == 0
        assert "wrote 2 subjects (1 cycles each)" in capsys.readouterr().out

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        settings = tmp_path / "run.cfg"
        settings.write_text("bogus_key = 1\n")
        assert _synth(tmp_path / "corpus.csv",
                      "--config", str(settings)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "validation"
        assert err["exit_code"] == 2
        assert "unknown config key" in err["error"]

    def test_non_numeric_config_value_is_rejected(self, tmp_path, capsys):
        settings = tmp_path / "run.cfg"
        settings.write_text("noise_level = loud\n")
        assert _synth(tmp_path / "corpus.csv",
                      "--config", str(settings)) == 2
        assert "not a number" in json.loads(capsys.readouterr().err)["error"]

    def test_negative_value_with_exponent(self, tmp_path):
        small = ("--subjects-per-cohort", "1", "--cycles-per-subject", "2")
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert _synth(spaced, *small, "--anomaly-shift", "-1e-2") == 0
        assert _synth(joined, *small, "--anomaly-shift=-1e-2") == 0
        assert spaced.read_bytes() == joined.read_bytes()

    def test_filter_cutoff_none_spelling(self, pipeline, tmp_path):
        out = tmp_path / "processed.csv"
        assert cli.main(["preprocess", "--input", str(pipeline["corpus"]),
                         "--output", str(out), "--grid-points", "40",
                         "--filter-cutoff", "none"]) == 0
        assert out.exists()

    def test_non_numeric_filter_cutoff_is_rejected(self, pipeline, tmp_path,
                                                   capsys):
        assert cli.main(["preprocess", "--input", str(pipeline["corpus"]),
                         "--output", str(tmp_path / "p.csv"),
                         "--filter-cutoff", "abc"]) == 2
        assert "not a number" in json.loads(capsys.readouterr().err)["error"]


class TestErrorReporting:
    def test_validation_error_is_json_on_stderr(self, tmp_path, capsys):
        assert _synth(tmp_path / "corpus.csv", "--noise-level", "-1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err == {"error": err["error"], "type": "validation",
                       "exit_code": 2}

    def test_invalid_filter_order(self, pipeline, tmp_path, capsys):
        assert cli.main(["preprocess", "--input", str(pipeline["corpus"]),
                         "--output", str(tmp_path / "p.csv"),
                         "--filter-order", "3"]) == 2
        assert "filter_order" in json.loads(capsys.readouterr().err)["error"]

    def test_missing_input_file(self, tmp_path, capsys):
        assert cli.main(["preprocess", "--input",
                         str(tmp_path / "absent.csv"),
                         "--output", str(tmp_path / "p.csv")]) == 2
        assert json.loads(capsys.readouterr().err)["exit_code"] == 2

    def test_missing_model_in_mogp_dir(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["segment", "--input", str(pipeline["corpus"]),
                         "--output", str(tmp_path / "report.json"),
                         "--mogp-dir", str(empty),
                         "--grid-points", "40"]) == 2
        assert "missing model file" in \
            json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("key, value", [
        ("num_outputs", "six"),
        ("means", "0.1,oops,0.2,0.3,0.4,0.5"),
        ("means", "0.1,nan,0.2,0.3,0.4,0.5"),
    ])
    def test_malformed_model_file(self, pipeline, tmp_path, capsys,
                                  key, value):
        lines = (pipeline["models"] / "C01.mogp").read_text().splitlines()
        lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
                 for line in lines]
        model = tmp_path / "bad.mogp"
        model.write_text("\n".join(lines) + "\n")
        assert cli.main(["predict", "--model", str(model), "--output",
                         str(tmp_path / "pred.csv")]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        err = json.loads(captured.err)
        assert err["exit_code"] == 2 and key in err["error"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_model_value_is_numeric_error(self, pipeline,
                                                      tmp_path, capsys):
        text = (pipeline["models"] / "C01.mogp").read_text()
        model = tmp_path / "overflow.mogp"
        model.write_text(re.sub(r"(?m)^kernel\.se\.log_variance = .*$",
                                "kernel.se.log_variance = 1000.0", text))
        assert cli.main(["predict", "--model", str(model), "--output",
                         str(tmp_path / "pred.csv")]) == 3
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert json.loads(captured.err)["type"] == "numeric"

    def test_output_naming_a_directory(self, pipeline, tmp_path, capsys):
        assert cli.main(["predict", "--model",
                         str(pipeline["models"] / "C01.mogp"),
                         "--output", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert json.loads(captured.err)["exit_code"] == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["synth", "--output", "x.csv", "--frobnicate", "1"])
        assert excinfo.value.code == 2

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["synth"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [
        "fit --iterations abc", "fit --scope bogus", "synth --anomaly-side up",
        "segment --observation-source x", "segment --em-iterations -1"])
    def test_bad_flag_value_is_json_error(self, tmp_path, capsys, argv):
        command, *flags = argv.split()
        paths = ["--output", str(tmp_path / "out")]
        if command != "synth":
            paths += ["--input", str(tmp_path / "corpus.csv")]
        assert cli.main([command, *paths, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        err = json.loads(captured.err)
        assert err["type"] == "validation" and err["exit_code"] == 2


# Values that replace one number, or a whole value, of a model file.
_BAD_NUMBERS = ("junk", "nan", "inf", "-inf", "1e308", "-1e308", "1000")


@st.composite
def _corrupted_documents(draw, text: str) -> str:
    """``text`` with one value replaced: one of its comma-separated
    entries by a bad number, or a list one entry too short or too long."""
    lines = text.splitlines()
    row = draw(st.integers(0, len(lines) - 1))
    key, _, value = lines[row].partition(" = ")
    parts = value.split(",")
    change = draw(st.sampled_from(("entry", "shorter", "longer")))
    if change == "entry":
        parts[draw(st.integers(0, len(parts) - 1))] = \
            draw(st.sampled_from(_BAD_NUMBERS))
    elif change == "shorter":
        parts = parts[:-1]
    else:
        parts = parts + parts[-1:]
    lines[row] = f"{key} = {','.join(parts)}"
    return "\n".join(lines) + "\n"


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of cli.main; any raised exception, or a
    numpy warning that would print to stderr, escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    return code, err.getvalue()


class TestCorruptedModelFiles:
    """A damaged model file gives a result or one JSON error line, never
    a traceback."""

    @staticmethod
    def _check(code: int, err: str) -> None:
        assert code in (0, 2, 3)
        if code:
            (line,) = err.splitlines()
            assert json.loads(line)["exit_code"] == code

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_predict_on_corrupted_mogp(self, pipeline, data):
        text = (pipeline["models"] / "C01.mogp").read_text()
        root = pipeline["root"]
        model = root / "fuzz.mogp"
        model.write_text(data.draw(_corrupted_documents(text)))
        self._check(*_run_quietly([
            "predict", "--model", str(model), "--output",
            str(root / "fuzz_pred.csv"), "--grid-points", "5"]))

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_segment_with_corrupted_hmm(self, pipeline, data):
        root = pipeline["root"]
        model = root / "fuzz.hmm"
        hmm.save_model(hmm.default_model(), model)
        model.write_text(data.draw(_corrupted_documents(model.read_text())))
        self._check(*_run_quietly([
            "segment", "--input", str(pipeline["corpus"]), "--output",
            str(root / "fuzz_report.json"), "--mogp-dir",
            str(pipeline["models"]), "--hmm", str(model),
            "--grid-points", "20"]))


# Every subcommand's flags, written out: (required, optional).
_COMMON_FLAGS = {"--config", "--seed", "--verbose"}
_CORPUS_FLAGS = {"--filter-cutoff", "--filter-order", "--grid-points"}
_EXPECTED_FLAGS = {
    "synth": ({"--output"}, {
        "--subjects-per-cohort", "--cycles-per-subject", "--noise-level",
        "--anomaly-side", "--anomaly-phase", "--anomaly-shift",
        "--anomaly-duration", "--grid-points"}),
    "preprocess": ({"--input", "--output"}, _CORPUS_FLAGS),
    "fit": ({"--input", "--output"}, _CORPUS_FLAGS | {
        "--scope", "--iterations", "--learning-rate", "--weight-decay",
        "--rank", "--points-per-channel"}),
    "predict": ({"--model", "--output"}, {"--grid-points"}),
    "segment": ({"--input", "--output"}, _CORPUS_FLAGS | {
        "--mogp-dir", "--hmm", "--observation-source", "--iterations",
        "--points-per-channel", "--em-iterations", "--segment-threshold"}),
    "evaluate": ({"--input", "--output"}, _CORPUS_FLAGS | {
        "--iterations", "--points-per-channel"}),
    "export-plots": ({"--model", "--output"}, {"--grid-points"}),
}


class TestParser:
    def test_each_subcommand_has_its_flags(self):
        parser = cli.build_parser()
        (subparsers,) = [a for a in parser._actions
                         if isinstance(a, argparse._SubParsersAction)]
        assert set(subparsers.choices) == set(_EXPECTED_FLAGS)
        for name, (required, optional) in _EXPECTED_FLAGS.items():
            actions = [a for a in subparsers.choices[name]._actions
                       if a.dest != "help"]
            flags = {s for a in actions for s in a.option_strings}
            assert flags == required | optional | _COMMON_FLAGS, name
            assert {a.option_strings[0] for a in actions
                    if a.required} == required, name

    @pytest.mark.parametrize("subcommand", sorted(_EXPECTED_FLAGS))
    def test_help_exits_zero(self, subcommand, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([subcommand, "--help"])
        assert excinfo.value.code == 0
        assert "--config" in capsys.readouterr().out


class TestPipelineArtifacts:
    def test_corpus_header(self, pipeline):
        assert pipeline["corpus"].read_text().splitlines()[0] == CSV_HEADER

    def test_preprocess_schema_and_shape(self, pipeline):
        lines = pipeline["processed"].read_text().splitlines()
        assert lines[0] == "# schema=processed-v1"
        assert lines[1] == "subject_id,cohort,cycle,position,channel,value"
        # 2 subjects x 2 cycles x 6 channels x 40 grid points.
        assert len(lines) == 2 + 2 * 2 * 6 * 40

    def test_fit_writes_model_and_log_per_subject(self, pipeline):
        for name in ("C01", "D01"):
            text = (pipeline["models"] / f"{name}.mogp").read_text()
            assert "schema = mogp-v1" in text
            log_lines = (pipeline["models"] /
                         f"{name}.fitlog.csv").read_text().splitlines()
            assert log_lines[0] == "# schema=fitlog-v1"
            assert log_lines[1] == "iteration,lml"
            # 5 iterations -> 6 evaluations, no early stop this short.
            assert len(log_lines) == 2 + 6
            values = [float(line.split(",")[1]) for line in log_lines[2:]]
            assert values[-1] == max(values)

    def test_predict_file_shape(self, pipeline):
        lines = pipeline["pred"].read_text().splitlines()
        assert lines[0] == "# schema=predict-v1"
        header = lines[1].split(",")
        assert header[0] == "time"
        assert len(header) == 1 + 2 * len(CHANNELS)
        assert header[1] == "hip_right_mean"
        assert header[2] == "hip_right_std"
        assert len(lines) == 2 + 40
        times = [float(line.split(",")[0]) for line in lines[2:]]
        assert times == [k / 40 for k in range(40)]
        stds = [float(line.split(",")[2]) for line in lines[2:]]
        assert all(s > 0 for s in stds)

    def test_segment_report_matches_schema(self, pipeline):
        report = _read_json(pipeline["report"])
        jsonschema.validate(report, cli.SEGMENT_REPORT_JSONSCHEMA)
        assert report["schema"] == "segment-report-v1"
        assert report["grid_points"] == 40
        assert [s["subject_id"] for s in report["subjects"]] == ["C01", "D01"]
        for subject in report["subjects"]:
            assert len(subject["states"]) == 40
            assert np.isfinite(subject["log_joint"])
            for side in ("right", "left"):
                assert side in subject["events"]
                assert side in subject["phases"]

    def test_evaluate_writes_split_and_aggregate(self, pipeline):
        split_values = []
        for name in ("C01", "D01"):
            text = (pipeline["evaldir"] / f"split_{name}.metrics").read_text()
            assert "schema = evaluate-v1" in text
            assert f"subject_id = {name}" in text
            match = re.search(r"^normalized\.mae = (.+)$", text, re.M)
            split_values.append(float(match.group(1)))
        aggregate = (pipeline["evaldir"] / "aggregate.metrics").read_text()
        assert "schema = evaluate-aggregate-v1" in aggregate
        assert "splits = 2" in aggregate
        match = re.search(r"^normalized\.mae = (.+)$", aggregate, re.M)
        assert float(match.group(1)) == pytest.approx(
            np.mean(split_values), rel=1e-12)

    def test_export_plots_band_files(self, pipeline):
        for name in CHANNELS:
            lines = (pipeline["plots"] /
                     f"band_{name}.csv").read_text().splitlines()
            assert lines[0] == "# schema=plotband-v1"
            assert lines[1] == "time,mean,lower,upper"
            assert len(lines) == 2 + 25
            for line in lines[2:]:
                _, mean, lower, upper = map(float, line.split(","))
                assert lower <= mean <= upper
                assert upper + lower == pytest.approx(2 * mean, abs=1e-9)

    def test_export_plots_coregionalization(self, pipeline):
        for filename in ("coregionalization.csv",
                         "coregionalization_normalized.csv"):
            lines = (pipeline["plots"] / filename).read_text().splitlines()
            assert lines[0] == "# schema=coreg-v1"
            assert lines[1] == "output," + ",".join(CHANNELS)
            assert len(lines) == 2 + len(CHANNELS)
            matrix = np.array([[float(v) for v in line.split(",")[1:]]
                               for line in lines[2:]])
            assert matrix.shape == (6, 6)
            np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)
        normalized = (pipeline["plots"] /
                      "coregionalization_normalized.csv")
        rows = normalized.read_text().splitlines()[2:]
        diagonal = [float(row.split(",")[1 + m])
                    for m, row in enumerate(rows)]
        assert diagonal == pytest.approx([1.0] * 6)


class TestDeterminism:
    def test_fit_is_deterministic(self, pipeline, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        for out in (first, second):
            assert cli.main(["fit", "--input", str(pipeline["corpus"]),
                             "--output", str(out), "--scope", "subject",
                             *FAST_FIT]) == 0
        for name in ("C01.mogp", "D01.mogp"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        assert (first / "C01.mogp").read_bytes() == \
            (pipeline["models"] / "C01.mogp").read_bytes()

    def test_segment_report_is_deterministic(self, pipeline, tmp_path):
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            assert cli.main(["segment", "--input", str(pipeline["corpus"]),
                             "--output", str(path),
                             "--mogp-dir", str(pipeline["models"]),
                             "--em-iterations", "5", *FAST_FIT]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() == pipeline["report"].read_bytes()

    def test_synth_is_deterministic(self, pipeline, tmp_path):
        duplicate = tmp_path / "corpus.csv"
        assert _synth(duplicate, "--subjects-per-cohort", "1",
                      "--cycles-per-subject", "2", "--seed", "5") == 0
        assert duplicate.read_bytes() == pipeline["corpus"].read_bytes()


class TestSegmentOptions:
    def test_segment_stdout_lists_subjects(self, pipeline, tmp_path, capsys):
        assert cli.main(["segment", "--input", str(pipeline["corpus"]),
                         "--output", str(tmp_path / "report.json"),
                         "--mogp-dir", str(pipeline["models"]),
                         "--em-iterations", "5", *FAST_FIT]) == 0
        out = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"C01 control segments=\d+", out[0])
        assert re.fullmatch(r"D01 disorder segments=\d+", out[1])

    def test_threshold_zero_reports_decoded_runs(self, pipeline, tmp_path):
        path = tmp_path / "report.json"
        assert cli.main(["segment", "--input", str(pipeline["corpus"]),
                         "--output", str(path),
                         "--mogp-dir", str(pipeline["models"]),
                         "--em-iterations", "5",
                         "--segment-threshold", "0", *FAST_FIT]) == 0
        report = _read_json(path)
        assert report["segment_threshold"] == 0
        for subject in report["subjects"]:
            states = np.asarray(subject["states"])
            abnormal = np.isin(states, hmm.ABNORMAL_STATES)
            runs = np.count_nonzero(np.diff(abnormal.astype(int)) == 1) \
                + int(abnormal[0])
            assert len(subject["anomalous_segments"]) == runs

    def test_raw_observation_source(self, pipeline, tmp_path):
        path = tmp_path / "report.json"
        assert cli.main(["segment", "--input", str(pipeline["corpus"]),
                         "--output", str(path),
                         "--observation-source", "raw",
                         "--em-iterations", "5",
                         "--grid-points", "40", "--seed", "5"]) == 0
        report = _read_json(path)
        assert report["observation_source"] == "raw"
        jsonschema.validate(report, cli.SEGMENT_REPORT_JSONSCHEMA)

    def test_shared_hmm_model_is_used(self, pipeline, tmp_path):
        model_path = tmp_path / "shared.hmm"
        hmm.save_model(hmm.default_model(), model_path)
        path = tmp_path / "report.json"
        assert cli.main(["segment", "--input", str(pipeline["corpus"]),
                         "--output", str(path),
                         "--mogp-dir", str(pipeline["models"]),
                         "--hmm", str(model_path), *FAST_FIT]) == 0
        jsonschema.validate(_read_json(path), cli.SEGMENT_REPORT_JSONSCHEMA)
