from __future__ import annotations

import json
import os
import subprocess
import sys

import gaitmogp
from gaitmogp import cli

# The directory gaitmogp is imported from, for the child interpreters.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(gaitmogp.__file__))


def test_public_api_resolves_and_star_imports():
    assert [name for name in gaitmogp.__all__
            if not hasattr(gaitmogp, name)] == []
    namespace: dict = {}
    exec("from gaitmogp import *", namespace)
    assert set(gaitmogp.__all__) <= set(namespace)


def _scipy_modules_after(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter (this one has imported scipy
    already) and return the ``scipy.signal``/``scipy.stats`` modules it
    left loaded."""
    probe = (code + "\nimport json, sys\nprint(json.dumps(sorted("
             "m for m in sys.modules "
             "if m.startswith(('scipy.signal', 'scipy.stats')))))")
    path = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=300, check=False,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_leaves_scipy_signal_unloaded():
    assert _scipy_modules_after("import gaitmogp.cli") == []


def _tiny_corpus(tmp_path) -> str:
    corpus = str(tmp_path / "corpus.csv")
    assert cli.main(["synth", "--output", corpus, "--seed", "0",
                     "--subjects-per-cohort", "1",
                     "--cycles-per-subject", "2"]) == 0
    return corpus


def test_unfiltered_segment_and_rejected_filter_input_skip_scipy_signal(
        tmp_path):
    corpus = _tiny_corpus(tmp_path)
    argv = ["segment", "--input", corpus, "--filter-cutoff", "none",
            "--output", str(tmp_path / "report.json"), "--iterations", "2",
            "--points-per-channel", "20", "--em-iterations", "2"]
    code = f"""
import numpy as np
from gaitmogp import cli
from gaitmogp.errors import ValidationError
from gaitmogp.gait_signal import lowpass_filter
if cli.main({argv!r}) != 0:
    raise SystemExit("segment failed")
for samples, cutoff in ((np.zeros((40, 6)), 0.0), (np.zeros((10, 6)), 6.0),
                        (np.full((40, 6), np.nan), 6.0)):
    try:
        lowpass_filter(samples, cutoff)
    except ValidationError:
        continue
    raise SystemExit("bad filter input was accepted")
"""
    assert _scipy_modules_after(code) == []
    assert json.loads((tmp_path / "report.json").read_text())["subjects"]


def test_default_filter_still_imports_scipy_signal(tmp_path):
    # The cost left: a run that filters imports scipy.signal on its first
    # filtered cycle.
    corpus = _tiny_corpus(tmp_path)
    argv = ["preprocess", "--input", corpus,
            "--output", str(tmp_path / "processed.csv")]
    code = f"""
from gaitmogp import cli
if cli.main({argv!r}) != 0:
    raise SystemExit("preprocess failed")
"""
    assert "scipy.signal" in _scipy_modules_after(code)
