"""Fitted outputs against committed golden files, byte for byte.

``tests/data/golden`` holds what the CLI wrote for a tiny synthetic
corpus (seed 0, one subject per cohort, two cycles each; its sha256 is
``corpus.sha256``): a pooled fit on the Kronecker path with its fitlog,
that model's predictions on 50 grid points, its ``export-plots`` bands
and coregionalization tables, a segment report, and the split and
aggregate reports of a leave-one-subject-out ``evaluate``. A
change that moves any fitted number fails here, so such a change has to
regenerate the files on purpose:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import shutil
import tempfile

import pytest

from gaitmogp import cli, hmm
from gaitmogp.gait_signal import CHANNELS

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
OUTPUTS = ("pooled.mogp", "pooled.fitlog.csv", "predict.csv", "segment.json",
           *(f"band_{name}.csv" for name in CHANNELS),
           "coregionalization.csv", "coregionalization_normalized.csv",
           "split_C01.metrics", "split_D01.metrics",
           "aggregate.metrics")
FIT = ("--filter-cutoff", "none", "--iterations", "5",
       "--points-per-channel", "20")


def _regenerate(out: pathlib.Path) -> None:
    corpus = str(out / "corpus.csv")
    commands = [
        ["synth", "--seed", "0", "--subjects-per-cohort", "1",
         "--cycles-per-subject", "2", "--output", corpus],
        ["fit", "--input", corpus, *FIT, "--scope", "pooled",
         "--output", str(out)],
        ["predict", "--model", str(out / "pooled.mogp"), "--grid-points",
         "50", "--output", str(out / "predict.csv")],
        ["export-plots", "--model", str(out / "pooled.mogp"), "--output",
         str(out)],
        ["segment", "--input", corpus, *FIT, "--em-iterations", "3",
         "--output", str(out / "segment.json")],
        ["evaluate", "--input", corpus, *FIT, "--output", str(out)],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            assert cli.main(argv) == 0, argv


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory) -> pathlib.Path:
    out = tmp_path_factory.mktemp("golden")
    _regenerate(out)
    return out


def _corpus_hash(out: pathlib.Path) -> str:
    return hashlib.sha256((out / "corpus.csv").read_bytes()).hexdigest()


def test_corpus_hash(regenerated):
    assert _corpus_hash(regenerated) == \
        (GOLDEN / "corpus.sha256").read_text().strip()


@pytest.mark.parametrize("name", OUTPUTS)
def test_output_is_byte_identical(regenerated, name):
    assert (regenerated / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_anomalous_segments_are_the_report_entries(regenerated, tmp_path,
                                                   monkeypatch):
    # segment writes what hmm.anomalous_segments returns, unconverted.
    returned = []
    anomalous_segments = hmm.anomalous_segments

    def recording(states):
        returned.append(anomalous_segments(states))
        return returned[-1]

    monkeypatch.setattr(hmm, "anomalous_segments", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["segment", "--input",
                         str(regenerated / "corpus.csv"), *FIT,
                         "--em-iterations", "3",
                         "--output", str(tmp_path / "segment.json")]) == 0
    golden = json.loads((GOLDEN / "segment.json").read_text())
    assert returned == [subject["anomalous_segments"]
                        for subject in golden["subjects"]]
    assert any(returned)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        out = pathlib.Path(scratch)
        _regenerate(out)
        for name in OUTPUTS:
            shutil.copyfile(out / name, GOLDEN / name)
        (GOLDEN / "corpus.sha256").write_text(_corpus_hash(out) + "\n")
