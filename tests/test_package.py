"""The package's import surface. ks and evaluate import scipy, so they and
their names load on first use rather than at `import markerscreen`; so does
numpy.random, which the package needs only to draw."""

import os
import subprocess
import sys
from pathlib import Path

import markerscreen

CHECK = """
import sys
import markerscreen as ms

early = {"scipy", "numpy.random", "markerscreen.ks", "markerscreen.evaluate"} & set(sys.modules)
assert not early, f"imported by `import markerscreen`: {sorted(early)}"
assert set(ms.__all__) <= set(dir(ms))
assert ms.evaluate is sys.modules["markerscreen.evaluate"]
assert ms.ks is sys.modules["markerscreen.ks"]
assert callable(ms.evaluate.score_matrix)
gone = ("deviance_lr", "ks_d_statistic", "KsScore", "lilliefors_pvalue", "score_matrix_ks",
        "ttest_baseline")  # score_matrix and score_matrix_lr score a matrix
assert not [name for name in gone if hasattr(ms, name) or name in dir(ms)], gone
for name in ms.__all__:
    obj = getattr(ms, name)
    home = getattr(obj, "__module__", None)
    assert home is None or getattr(sys.modules[home], name) is obj, name
assert ms.errors is sys.modules["markerscreen.errors"]
try:
    ms.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
"""


def test_import_defers_scipy_and_every_public_name_resolves():
    src = str(Path(markerscreen.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", CHECK], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
