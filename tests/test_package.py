"""The package's import surface. ks and evaluate import scipy, so `import
markerscreen` loads neither of them, nor numpy.random, which the package needs
only to draw; the package exports exactly what it loads, and the ks and
evaluate names are reached through their modules."""

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
for name in ms.__all__:
    obj = getattr(ms, name)
    home = getattr(obj, "__module__", None)
    assert home is None or getattr(sys.modules[home], name) is obj, name
assert ms.errors is sys.modules["markerscreen.errors"]
homes = {"ks": ("KernelEstimate", "select_bandwidth", "kernel_cdf"),
         "evaluate": ("TruthScore", "EvalRun", "EvalReport", "score_against_truth",
                      "convergence_table", "convergence_text", "benchmark")}
gone = ("deviance_lr", "ks_d_statistic", "KsScore", "lilliefors_pvalue", "score_matrix_ks",
        "ttest_baseline")  # score_matrix and score_matrix_lr score a matrix
on_package = [name for name in (*homes["ks"], *homes["evaluate"], *gone) if hasattr(ms, name)]
assert not on_package, f"attributes of markerscreen: {on_package}"
from markerscreen import ks, evaluate
for module, names in ((ks, homes["ks"]), (evaluate, homes["evaluate"])):
    for name in names:
        assert getattr(module, name).__module__ == module.__name__, name
assert callable(evaluate.score_matrix)
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
