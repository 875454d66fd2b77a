"""End-to-end tests for the gaitmogp command line."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitmogp import cli, hmm, mogp
from gaitmogp.dataio import CSV_HEADER
from gaitmogp.errors import ValidationError
from gaitmogp.gait_signal import CHANNELS
from gaitmogp.serialize import format_float, read_document


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
                     str(report), "--em-iterations", "5", *FAST_FIT]) == 0
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

    @pytest.mark.parametrize("key", ["metrics_raw", "metrics_normalized"])
    def test_removed_metric_toggles_are_unknown_keys(self, pipeline, tmp_path,
                                                     capsys, key):
        # evaluate always writes both unit systems.
        settings = tmp_path / "run.cfg"
        settings.write_text(f"{key} = false\n")
        assert cli.main(["evaluate", "--input", str(pipeline["corpus"]),
                         "--output", str(tmp_path / "eval"),
                         "--config", str(settings)]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert f"unknown config key {key!r}" in json.loads(captured.err)["error"]
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("setting", [
        "config init_variance = 1.0", "config init_lengthscale = 0.2",
        "config init_period = 1.0", "config init_w_std = 0.5",
        "config init_kappa = 0.5", "config init_noise_variance = 0.1",
        "config update_initial_probs = true",
        "config update_transitions = true", "config verbose = true",
        "config filter_order = 4", "flag --verbose", "flag --filter-order 4"])
    def test_removed_settings_are_rejected(self, pipeline, tmp_path, capsys,
                                           setting):
        how, text = setting.split(" ", 1)
        argv = ["preprocess", "--input", str(pipeline["corpus"]),
                "--output", str(tmp_path / "p.csv")]
        if how == "flag":
            with pytest.raises(SystemExit) as excinfo:
                cli.main([*argv, *text.split()])
            assert excinfo.value.code == 2
        else:
            settings = tmp_path / "run.cfg"
            settings.write_text(text + "\n")
            assert cli.main([*argv, "--config", str(settings)]) == 2
            captured = capsys.readouterr()
            assert len(captured.err.splitlines()) == 1
            key = text.split(" = ")[0]
            assert (f"unknown config key {key!r}"
                    in json.loads(captured.err)["error"])
        assert not (tmp_path / "p.csv").exists()

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

    def test_segment_grid_too_small_for_events(self, pipeline, tmp_path,
                                               capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("mogp.fit called")

        monkeypatch.setattr(cli.mogp, "fit", no_fit)
        assert cli.main(["segment", "--input", str(pipeline["corpus"]),
                         "--output", str(tmp_path / "report.json"),
                         "--grid-points", "4"]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert "grid_points" in json.loads(captured.err)["error"]
        assert not (tmp_path / "report.json").exists()

    def test_missing_input_file(self, tmp_path, capsys):
        assert cli.main(["preprocess", "--input",
                         str(tmp_path / "absent.csv"),
                         "--output", str(tmp_path / "p.csv")]) == 2
        assert json.loads(capsys.readouterr().err)["exit_code"] == 2

    @pytest.mark.parametrize("key, value", [
        ("num_outputs", "six"),
        ("means", "0.1,oops,0.2,0.3,0.4,0.5"),
        ("means", "0.1,nan,0.2,0.3,0.4,0.5"),
        ("kernel.se.log_variance", "nan"),
        ("log_noise_variance", "inf"),
        ("coreg.log_kappa", "0.1,0.2,0.3,0.4,0.5"),
        ("means", "0.1,0.2,0.3,0.4,0.5"),
        ("config.iterations", "-5"),
        ("config.learning_rate", "-1.0"),
        ("training.num_outputs", "0"),
        pytest.param("training.times",
                     lambda times: "1.5," + times.split(",", 1)[1],
                     id="training.times-first-1.5"),
    ])
    def test_malformed_model_file(self, pipeline, tmp_path, capsys,
                                  key, value):
        model = tmp_path / "bad.mogp"
        model.write_bytes((pipeline["models"] / "C01.mogp").read_bytes())
        command = ["predict", "--model", str(model), "--output",
                   str(tmp_path / "pred.csv")]
        lines = []
        for line in model.read_text().splitlines():
            name, _, old = line.partition(" = ")
            if name == key:
                line = f"{key} = {value(old) if callable(value) else value}"
            lines.append(line)
        model.write_text("\n".join(lines) + "\n")
        assert cli.main(command) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        err = json.loads(captured.err)
        assert err["exit_code"] == 2
        assert err["error"].startswith(f"{model}: ") and key in err["error"]

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

    @pytest.mark.parametrize("source", ["per_channel.mogp",
                                        "golden/pooled.mogp"])
    def test_non_finite_kernel_matrix_is_numeric_error(self, tmp_path,
                                                       capsys, source):
        # per_channel.mogp takes the dense evaluation, the golden pooled
        # model the Kronecker one; both reject the matrix before eigh.
        text, count = re.subn(r"(?m)^kernel\.se\.log_variance = .*$",
                              "kernel.se.log_variance = 800.0",
                              (DATA / source).read_text())
        assert count == 1
        model = tmp_path / "overflow.mogp"
        model.write_text(text)
        assert cli.main(["predict", "--model", str(model), "--output",
                         str(tmp_path / "pred.csv")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "numeric"
        assert err["error"].startswith("kernel matrix has non-finite entries")
        assert not (tmp_path / "pred.csv").exists()

    @pytest.mark.parametrize("name", [
        "coreg.w[0,0]", "mean[2]", "periodic.log_period"])
    def test_non_finite_adam_iterate_is_numeric_error(
            self, pipeline, tmp_path, capsys, monkeypatch, name):
        index = mogp.parameter_names(len(CHANNELS), 2).index(name)
        gradient = mogp._KroneckerEvaluation.gradient

        def infinite_entry(evaluation):
            grad = gradient(evaluation)
            grad[index] = np.inf
            return grad

        monkeypatch.setattr(mogp._KroneckerEvaluation, "gradient",
                            infinite_entry)
        assert cli.main(["fit", "--input", str(pipeline["corpus"]),
                         "--output", str(tmp_path / "fit"),
                         *FAST_FIT]) == 3
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        err = json.loads(captured.err)
        assert err["type"] == "numeric" and err["exit_code"] == 3
        assert err["error"] == f"non-finite parameter at iteration 1: {name}"

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
        "segment --observation-source x", "segment --em-iterations -1",
        "fit --learning-rate inf", "segment --segment-threshold nan",
        "fit --filter-cutoff 20", "fit --rank 1000000000000"])
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
        # The value is rejected before the (absent) corpus is opened.
        assert str(tmp_path) not in err["error"]

    @pytest.mark.parametrize("argv, config", [
        ("predict --grid-points 1000000000000", None),
        ("synth --cycles-per-subject 1000000000000", None),
        ("synth", "cycles_per_subject = 1000000000000"),
    ])
    def test_size_too_large_to_allocate_is_json_error(self, tmp_path, argv,
                                                      config):
        # The child's address space is capped, so the 7.28 TiB array
        # fails to allocate on every host rather than only where the
        # kernel refuses it.
        resource = pytest.importorskip("resource")
        command, *flags = argv.split()
        flags += ["--output", str(tmp_path / "out.csv")]
        if command == "predict":
            model = pathlib.Path(__file__).parent / "data/golden/pooled.mogp"
            flags += ["--model", str(model)]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config + "\n")
            flags += ["--config", str(tmp_path / "run.cfg")]
        limit = 2 * 1024 ** 3
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        package_root = pathlib.Path(cli.__file__).parents[1]
        path = os.pathsep.join(
            p for p in (str(package_root), os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-m", "gaitmogp.cli", command, *flags],
            capture_output=True, text=True, timeout=120, check=False,
            preexec_fn=cap_address_space,
            env={**os.environ, "PYTHONPATH": path,
                 "OPENBLAS_NUM_THREADS": "1"})
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        err = json.loads(lines[0])
        assert err["type"] == "validation" and err["exit_code"] == 2
        assert err["error"].startswith("Unable to allocate")
        assert not (tmp_path / "out.csv").exists()

    def test_synth_settings_are_checked_by_every_subcommand(self, tmp_path,
                                                            capsys):
        settings = tmp_path / "run.cfg"
        settings.write_text("anomaly_side = up\n")
        assert cli.main(["fit", "--input", str(tmp_path / "corpus.csv"),
                         "--output", str(tmp_path / "out"),
                         "--config", str(settings)]) == 2
        assert "affected_side" in json.loads(capsys.readouterr().err)["error"]

    def test_non_utf8_config_is_json_error(self, tmp_path, capsys):
        settings = tmp_path / "run.cfg"
        settings.write_bytes(b"noise_level = 0.01 \xff\n")
        assert _synth(tmp_path / "corpus.csv",
                      "--config", str(settings)) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        err = json.loads(captured.err)
        assert err["exit_code"] == 2 and str(settings) in err["error"]

    def test_non_utf8_corpus_is_json_error(self, pipeline, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        corpus.write_bytes(pipeline["corpus"].read_bytes() + b"C\xff\n")
        assert cli.main(["preprocess", "--input", str(corpus),
                         "--output", str(tmp_path / "p.csv")]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        err = json.loads(captured.err)
        assert err["exit_code"] == 2 and str(corpus) in err["error"]


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


def _check_outcome(code: int, err: str) -> None:
    """A result, or one JSON error line with the exit code; no traceback."""
    assert code in (0, 2, 3)
    if code:
        (line,) = err.splitlines()
        assert json.loads(line)["exit_code"] == code


class TestCorruptedModelFiles:
    """A damaged model file gives a result or one JSON error line, never
    a traceback."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_predict_on_corrupted_mogp(self, pipeline, data):
        text = (pipeline["models"] / "C01.mogp").read_text()
        root = pipeline["root"]
        model = root / "fuzz.mogp"
        model.write_text(data.draw(_corrupted_documents(text)))
        _check_outcome(*_run_quietly([
            "predict", "--model", str(model), "--output",
            str(root / "fuzz_pred.csv"), "--grid-points", "5"]))


# Every key a --config file accepts, written out.
_CONFIG_KEYS = {
    "iterations", "learning_rate", "weight_decay", "seed", "rank",
    "grid_points", "filter_cutoff_hz", "points_per_channel", "scope",
    "subjects_per_cohort", "cycles_per_subject", "noise_level",
    "anomaly_side", "anomaly_phase", "anomaly_shift", "anomaly_duration",
    "em_iterations", "em_tol", "observation_source", "segment_threshold"}

# A small valid run configuration, and what a fuzzed one may set a key to.
_BASE_CONFIG = {"subjects_per_cohort": "1", "cycles_per_subject": "2",
                "grid_points": "20", "points_per_channel": "8", "rank": "1"}
_BAD_SETTINGS = ("junk", "nan", "inf", "-inf", "1e308", "-1e308", "-1", "0",
                 "")


@st.composite
def _corrupted_configs(draw) -> bytes:
    """``_BASE_CONFIG`` with one key set to a bad value, a duplicate key,
    a line without ``=`` or a byte that is not UTF-8."""
    lines = [f"{key} = {value}" for key, value in _BASE_CONFIG.items()]
    change = draw(st.sampled_from(("value", "duplicate", "no-equals",
                                   "byte")))
    if change == "value":
        key = draw(st.sampled_from(sorted(_CONFIG_KEYS)))
        lines = [line for line in lines if not line.startswith(f"{key} =")]
        lines.append(f"{key} = {draw(st.sampled_from(_BAD_SETTINGS))}")
    elif change == "duplicate":
        lines.append(draw(st.sampled_from(lines)))
    elif change == "no-equals":
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(("grid_points 20", "junk"))))
    data = ("\n".join(lines) + "\n").encode()
    if change == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


class TestCorruptedConfigFiles:
    def test_accepted_config_keys(self, tmp_path):
        settings = tmp_path / "run.cfg"
        parser = cli.build_parser()
        accepted = set()
        for field in dataclasses.fields(cli.RunConfig):
            settings.write_text(f"{field.name} = {field.default}\n")
            args = parser.parse_args(["synth", "--output", "x.csv",
                                      "--config", str(settings)])
            try:
                cli.build_config(args)
            except ValidationError as exc:
                assert "unknown config key" in str(exc), field.name
            else:
                accepted.add(field.name)
        assert accepted == _CONFIG_KEYS

    @given(document=_corrupted_configs())
    @settings(max_examples=40, deadline=None)
    def test_synth_and_fit_on_corrupted_config(self, pipeline, document):
        root = pipeline["root"]
        config = root / "fuzz.cfg"
        config.write_bytes(document)
        for argv in (["synth", "--output", str(root / "fuzz_corpus.csv")],
                     ["fit", "--input", str(pipeline["corpus"]), "--output",
                      str(root / "fuzz_models"), "--iterations", "1"]):
            _check_outcome(*_run_quietly([*argv, "--config", str(config)]))


# Every subcommand's flags, written out: (required, optional).
_COMMON_FLAGS = {"--config", "--seed"}
_CORPUS_FLAGS = {"--filter-cutoff", "--grid-points"}
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
        "--observation-source", "--iterations", "--points-per-channel",
        "--em-iterations", "--segment-threshold"}),
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
        # main builds only the invoked subcommand's flags; its help is
        # the one the parser with every subcommand's flags prints.
        with pytest.raises(SystemExit) as full:
            cli.build_parser().parse_args([subcommand, "--help"])
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            cli.main([subcommand, "--help"])
        assert excinfo.value.code == full.value.code == 0
        assert capsys.readouterr() == expected
        assert "--config" in expected.out

    @pytest.mark.parametrize("argv", [
        ["--help"], [], ["bogus"], ["fi", "--help"], ["--", "fit"],
        ["synth", "--output", "x.csv", "--iterations", "5"]])
    def test_top_level_output_is_the_full_parsers(self, argv, capsys):
        with pytest.raises(SystemExit) as full:
            cli.build_parser().parse_args(argv)
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == full.value.code
        assert capsys.readouterr() == expected


def test_nine_split_aggregate_is_the_mean_of_the_split_files(tmp_path):
    # Nine splits: numpy sums 8 or more terms in its unrolled pairwise
    # loop, which the two splits of the golden files never reach.
    corpus = tmp_path / "corpus.csv"
    assert _synth(corpus, "--subjects-per-cohort", "5",
                  "--cycles-per-subject", "1", "--grid-points", "20") == 0
    lines = corpus.read_text().splitlines(keepends=True)
    corpus.write_text("".join(line for line in lines
                              if not line.startswith("D05,")))
    out = tmp_path / "eval"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["evaluate", "--input", str(corpus), "--output",
                         str(out), "--iterations", "1",
                         "--points-per-channel", "5",
                         "--grid-points", "20"]) == 0
    splits = [read_document(path)
              for path in sorted(out.glob("split_*.metrics"))]
    assert len(splits) == 9
    aggregate = read_document(out / "aggregate.metrics")
    keys = [key for key in splits[0] if key not in ("schema", "subject_id")]
    assert list(aggregate) == ["schema", "splits", *keys]
    assert aggregate["splits"] == "9"
    for key in keys:
        assert aggregate[key] == format_float(
            np.mean([float(split[key]) for split in splits])), key


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


def _renumber_cycles(source, target, ids: dict[int, int],
                     max_frames: dict[tuple[str, int], int] | None = None
                     ) -> None:
    """Copy a corpus with cycle c renamed ids[c], keeping only the first
    max_frames[(subject, new id)] frames of the cycles named there."""
    max_frames = max_frames or {}
    lines = source.read_text().splitlines()
    kept = [lines[0]]
    for line in lines[1:]:
        fields = line.split(",")
        fields[2] = str(ids[int(fields[2])])
        limit = max_frames.get((fields[0], int(fields[2])))
        if limit is None or int(fields[3]) < limit:
            kept.append(",".join(fields))
    target.write_text("\n".join(kept) + "\n")


class TestCorpusCycleIds:
    IDS = {0: 0, 1: 2, 2: 7}

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cycle_ids") / "corpus.csv"
        assert _synth(path, "--subjects-per-cohort", "2",
                      "--cycles-per-subject", "3", "--seed", "5") == 0
        return path

    def test_preprocess_writes_corpus_cycle_ids(self, corpus, tmp_path):
        renamed = tmp_path / "renamed.csv"
        _renumber_cycles(corpus, renamed, self.IDS)
        for source, out in ((corpus, "plain.csv"), (renamed, "renamed.csv")):
            assert cli.main(["preprocess", "--input", str(source),
                             "--output", str(tmp_path / out),
                             "--grid-points", "20",
                             "--filter-cutoff", "none"]) == 0
        plain = (tmp_path / "plain.csv").read_text().splitlines()
        got = (tmp_path / "renamed.csv").read_text().splitlines()
        assert {line.split(",")[2] for line in got[2:]} == {"0", "2", "7"}
        expected = plain[:2]
        for line in plain[2:]:
            fields = line.split(",")
            fields[2] = str(self.IDS[int(fields[2])])
            expected.append(",".join(fields))
        assert got == expected

    def test_short_cycle_error_names_subject_and_cycle_id(self, corpus,
                                                          tmp_path, capsys):
        renamed = tmp_path / "renamed.csv"
        _renumber_cycles(corpus, renamed, self.IDS,
                         max_frames={("D02", 7): 8})
        assert cli.main(["preprocess", "--input", str(renamed),
                         "--output", str(tmp_path / "p.csv"),
                         "--filter-cutoff", "none"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "subject D02, cycle 7: length 8 < 10 samples"

    def test_zero_variance_error_names_subject(self, corpus, tmp_path,
                                               capsys):
        flat = tmp_path / "flat.csv"
        lines = corpus.read_text().splitlines()
        for i, line in enumerate(lines):
            fields = line.split(",")
            if fields[0] == "D01" and fields[4:6] == ["hip", "right"]:
                fields[7] = "0.45"
                lines[i] = ",".join(fields)
        flat.write_text("\n".join(lines) + "\n")
        for argv in (["preprocess", "--output", str(tmp_path / "p.csv")],
                     ["fit", "--output", str(tmp_path / "models"),
                      *FAST_FIT]):
            assert cli.main([*argv, "--input", str(flat)]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == ("subject D01: zero-variance channel(s): "
                                    "['hip_right']")


class TestSubjectIdsNameFiles:
    """Subject ids become file names, so an id that is not a plain file
    name is rejected before anything is written."""

    @pytest.mark.parametrize("subject_id", ["../../escaped", "a\\b", "nul\0"])
    def test_unsafe_subject_id_writes_nothing(self, pipeline, tmp_path,
                                              capsys, subject_id):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(pipeline["corpus"].read_text().replace(
            "\nC01,", f"\n{subject_id},"))
        out = tmp_path / "out"
        for argv in (["fit", "--output", str(out / "models"),
                      "--scope", "subject"],
                     ["evaluate", "--output", str(out / "eval")]):
            assert cli.main([*argv, "--input", str(corpus), *FAST_FIT]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert "invalid id" in json.loads(err)["error"]
        assert [p.name for p in tmp_path.rglob("*")] == ["corpus.csv"]


class TestPreprocessYAxis:
    def test_gap_in_x_does_not_change_the_output(self, pipeline, tmp_path):
        # Blank x for 30 frames of one channel: a gap run that would be
        # too long to impute, on an axis that preprocessing never reads.
        lines = pipeline["corpus"].read_text().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            if (fields[0], fields[2], fields[4], fields[5]) == (
                    "C01", "0", "ankle", "left") and 10 <= int(fields[3]) < 40:
                fields[6] = ""
                lines[i] = ",".join(fields)
        gapped = tmp_path / "gapped.csv"
        gapped.write_text("\n".join(lines) + "\n")
        assert gapped.read_text().count(",ankle,left,,") == 30
        for source, out in ((pipeline["corpus"], "plain.csv"),
                            (gapped, "gapped.csv")):
            assert cli.main(["preprocess", "--input", str(source),
                             "--output", str(tmp_path / out)]) == 0
        assert (tmp_path / "gapped.csv").read_bytes() == \
            (tmp_path / "plain.csv").read_bytes()


DATA = pathlib.Path(__file__).parent / "data"


class TestMoGPPaths:
    def test_fit_records_keeps_whole_frames(self, pipeline):
        cfg = cli.RunConfig(input_path=str(pipeline["corpus"]),
                            grid_points=40, points_per_channel=12,
                            iterations=0, seed=5)
        records = cli._load_corpus(cfg)
        model = cli._fit_records(cfg, records, 3)
        training = model.training
        times = training.times.reshape(len(CHANNELS), -1)
        values = training.values.reshape(len(CHANNELS), -1)
        np.testing.assert_array_equal(
            training.outputs, np.repeat(np.arange(len(CHANNELS)), 12))
        # One draw of (cycle, grid-time) frames from the job's stream.
        cycles = np.concatenate([r.cycles for r in records])
        idx = np.sort(np.random.default_rng([5, 3]).choice(
            cycles.shape[0] * 40, 12, replace=False))
        for m in range(len(CHANNELS)):
            np.testing.assert_array_equal(
                times[m], np.tile(np.arange(40) / 40, len(cycles))[idx])
            np.testing.assert_array_equal(values[m],
                                          cycles[:, m].ravel()[idx])
        assert type(model._evaluation) is mogp._KroneckerEvaluation

    def test_per_channel_model_predicts_as_before(self, tmp_path):
        # per_channel.mogp was fitted when each channel drew its own
        # times; per_channel_predict.csv is what predict wrote for it then.
        model = mogp.load_model(DATA / "per_channel.mogp")
        assert type(mogp._evaluate(model)) is mogp._Evaluation
        out = tmp_path / "pred.csv"
        assert cli.main(["predict", "--model", str(DATA / "per_channel.mogp"),
                         "--output", str(out), "--grid-points", "16"]) == 0
        got, expected = (path.read_text().splitlines() for path in
                         (out, DATA / "per_channel_predict.csv"))
        assert got[:2] == expected[:2]
        np.testing.assert_allclose(
            np.array([line.split(",") for line in got[2:]], dtype=float),
            np.array([line.split(",") for line in expected[2:]], dtype=float),
            rtol=1e-12, atol=1e-12)


    def test_outputs_beyond_the_six_channels_are_named_by_index(self,
                                                               tmp_path):
        training = mogp.TrainingSet(times=[0.1, 0.4, 0.2, 0.7],
                                    outputs=[0, 0, 1, 1],
                                    values=[0.3, -0.2, 0.5, 0.1],
                                    num_outputs=2)
        model = tmp_path / "two.mogp"
        mogp.save_model(mogp.fit(training, mogp.OptimizerConfig(iterations=0)),
                        str(model))
        pred, plots = tmp_path / "pred.csv", tmp_path / "plots"
        for command, out in (("predict", pred), ("export-plots", plots)):
            assert cli.main([command, "--model", str(model), "--output",
                             str(out), "--grid-points", "5"]) == 0
        assert pred.read_text().splitlines()[1] == (
            "time,output_0_mean,output_0_std,output_1_mean,output_1_std")
        assert sorted(path.name for path in plots.iterdir()) == [
            "band_output_0.csv", "band_output_1.csv", "coregionalization.csv",
            "coregionalization_normalized.csv"]
        for filename in ("coregionalization.csv",
                         "coregionalization_normalized.csv"):
            lines = (plots / filename).read_text().splitlines()
            assert lines[1] == "output,output_0,output_1"
            assert [line.split(",")[0] for line in lines[2:]] == [
                "output_0", "output_1"]


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
                         "--em-iterations", "5", *FAST_FIT]) == 0
        out = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"C01 control segments=\d+", out[0])
        assert re.fullmatch(r"D01 disorder segments=\d+", out[1])

    def test_threshold_zero_reports_decoded_runs(self, pipeline, tmp_path):
        path = tmp_path / "report.json"
        assert cli.main(["segment", "--input", str(pipeline["corpus"]),
                         "--output", str(path), "--em-iterations", "5",
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
