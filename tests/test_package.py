from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np

import gaitmogp
from gaitmogp import cli, serialize

# The directory gaitmogp is imported from, for the child interpreters.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(gaitmogp.__file__))


def test_public_api_resolves_and_star_imports():
    assert [name for name in gaitmogp.__all__
            if not hasattr(gaitmogp, name)] == []
    namespace: dict = {}
    exec("from gaitmogp import *", namespace)
    assert set(gaitmogp.__all__) <= set(namespace)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    library = readme[readme.index("## Library"):]
    block = library[library.index("```python\n") + len("```python\n"):]
    block = block[:block.index("```")]
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"]["adtw"] > 0.0
    assert (tmp_path / "corpus.csv").is_file()


def _modules_after(code: str, roots=("scipy",)) -> list[str]:
    """Run ``code`` in a fresh interpreter (this one has imported scipy
    already) and return the modules of the packages ``roots`` it left
    loaded."""
    probe = (code + "\nimport json, sys\nprint(json.dumps(sorted("
             f"m for m in sys.modules if m.split('.')[0] in {roots!r})))")
    path = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=300, check=False,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_leaves_scipy_signal_unloaded():
    # Nor logging: no module of the package logs.
    assert _modules_after("import gaitmogp.cli", ("scipy", "logging")) == []


def _tiny_corpus(tmp_path) -> str:
    corpus = str(tmp_path / "corpus.csv")
    assert cli.main(["synth", "--output", corpus, "--seed", "0",
                     "--subjects-per-cohort", "1",
                     "--cycles-per-subject", "2"]) == 0
    return corpus


def _run_cli(*argvs: list[str]) -> str:
    """Fresh-interpreter code that runs each CLI command in turn."""
    return "from gaitmogp import cli\n" + "".join(
        f"if cli.main({argv!r}) != 0:\n"
        f"    raise SystemExit('{argv[0]} failed')\n" for argv in argvs)


def test_unfiltered_segment_and_rejected_filter_input_skip_scipy_signal(
        tmp_path):
    corpus = _tiny_corpus(tmp_path)
    argv = ["segment", "--input", corpus, "--filter-cutoff", "none",
            "--output", str(tmp_path / "report.json"), "--iterations", "2",
            "--points-per-channel", "20", "--em-iterations", "2"]
    code = _run_cli(argv) + """
import numpy as np
from gaitmogp.errors import ValidationError
from gaitmogp.gait_signal import lowpass_filter
for samples, cutoff in ((np.zeros((40, 6)), 0.0), (np.zeros((10, 6)), 6.0),
                        (np.full((40, 6), np.nan), 6.0)):
    try:
        lowpass_filter(samples, cutoff)
    except ValidationError:
        continue
    raise SystemExit("bad filter input was accepted")
"""
    assert _modules_after(code) == []
    assert json.loads((tmp_path / "report.json").read_text())["subjects"]


def test_default_filter_still_imports_scipy_signal(tmp_path):
    # The cost left: a run that filters imports scipy.signal on its first
    # filtered cycle.
    corpus = _tiny_corpus(tmp_path)
    argv = ["preprocess", "--input", corpus,
            "--output", str(tmp_path / "processed.csv")]
    assert "scipy.signal" in _modules_after(_run_cli(argv))


def test_unfiltered_pooled_fit_and_its_predict_skip_scipy(tmp_path):
    # A pooled fit draws whole frames, so it and its predict take the
    # numpy-only Kronecker path.
    corpus = _tiny_corpus(tmp_path)
    out = tmp_path / "fit"
    fit = ["fit", "--input", corpus, "--filter-cutoff", "none",
           "--output", str(out), "--scope", "pooled", "--iterations", "2",
           "--points-per-channel", "20"]
    predict = ["predict", "--model", str(out / "pooled.mogp"),
               "--output", str(tmp_path / "pred.csv")]
    assert _modules_after(_run_cli(fit, predict)) == []
    assert (tmp_path / "pred.csv").read_text()


def test_dense_model_predict_skips_scipy(tmp_path):
    # A per-channel model takes the dense evaluation, which is numpy-only
    # like the Kronecker one.
    data = Path(__file__).parent / "data"
    out = tmp_path / "pred.csv"
    predict = ["predict", "--model", str(data / "per_channel.mogp"),
               "--output", str(out), "--grid-points", "16"]
    assert _modules_after(_run_cli(predict)) == []
    got, expected = (path.read_text().splitlines() for path in
                     (out, data / "per_channel_predict.csv"))
    assert got[:2] == expected[:2]
    np.testing.assert_allclose(
        np.array([line.split(",") for line in got[2:]], dtype=float),
        np.array([line.split(",") for line in expected[2:]], dtype=float),
        rtol=1e-12, atol=1e-12)


def test_written_files_get_the_permissions_open_would_give(tmp_path):
    # A new file takes 0o666 less the umask, as open(path, "w") gives it,
    # not the 0o600 of the temp file it is renamed from; a replaced file
    # keeps its own bits.
    existing = tmp_path / "existing.txt"
    existing.write_text("old\n")
    existing.chmod(0o640)
    umask = os.umask(0o022)
    try:
        assert cli.main(["synth", "--output", str(tmp_path / "corpus.csv"),
                         "--subjects-per-cohort", "1",
                         "--cycles-per-subject", "1"]) == 0
        serialize.atomic_write_text(existing, "new\n")
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "corpus.csv").stat().st_mode) == 0o644
    assert stat.S_IMODE(existing.stat().st_mode) == 0o640
    assert existing.read_text() == "new\n"
