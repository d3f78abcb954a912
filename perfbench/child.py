"""One timed iteration, run in a fresh interpreter.

Usage: python3 child.py <spec.json>

The parent puts the checkout's `src` first on PYTHONPATH, so `markerscreen`
is the tree under test. The child pins itself to the CPU its speed probe
watches, times `import markerscreen` (set-up) and then the workload's calls
into the package (work), and writes a result JSON with both intervals, its
own peak RSS and, when traced, the recorded spans.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _write_rows(path: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else repr(v) for v in row) + "\n")


def diagnose(ms, spec: dict):
    """lr scores with per-row diagnostics, then EM on the highest-deviance rows.

    Everything before `start` (reading the benchmark's input) and after `end`
    (writing the results out for the parent's checks) is outside the timing.
    """
    import numpy as np

    from inputs import read_csv

    ids, values, n1 = read_csv(spec["input"])
    layout = np.array([1] * n1 + [2] * (values.shape[1] - n1))
    start = time.perf_counter()
    m = ms.ExpressionMatrix(values=values, layout=layout, protein_ids=ids)
    scores = ms.lr.score_matrix_lr(m, diagnostics=True)
    value = np.array([s.value for s in scores])
    top = np.lexsort((np.arange(m.p), -value))[: spec["em_rows"]]
    fits = [ms.lr.fit_mixture_fixed_weights(m.row_condition_first(j), m.n1, m.n2)
            for j in top]
    end = time.perf_counter()

    def diag(s):
        if s.fit_diagnostics is None:
            return ["", ""]
        split, pooled = s.fit_diagnostics
        return [float(split.loglik), float(pooled.loglik)]

    _write_rows(os.path.join(spec["out_dir"], "diagnose.csv"),
                ["protein_id", "value", "p_value", "split_loglik", "pooled_loglik"],
                ([s.protein_id, float(s.value), float(s.p_value), *diag(s)] for s in scores))
    _write_rows(os.path.join(spec["out_dir"], "em.csv"),
                ["protein_id", "mu1", "mu2", "sigma21", "sigma22", "loglik",
                 "iterations", "converged"],
                ([ids[j], float(f.mu1), float(f.mu2), float(f.sigma21), float(f.sigma22),
                  float(f.loglik), str(f.iterations), str(int(f.converged))]
                 for j, f in zip(top, fits)))
    return start, end, 0


def cli_call(ms, spec: dict):
    start = time.perf_counter()
    rc = ms.cli.main(spec["argv"])
    return start, time.perf_counter(), rc


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    os.sched_setaffinity(0, {spec["cpu"]})  # the CPU its speed probe watches
    t0 = time.perf_counter()
    import markerscreen
    t1 = time.perf_counter()
    import markerscreen.cli  # noqa: F401  (binds markerscreen.cli)

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install({name: mod for name, mod in sys.modules.items()
                        if name.startswith("markerscreen")})
    run = diagnose if spec["workload"] == "diagnose-lr" else cli_call
    start, end, rc = run(markerscreen, spec)
    result = {
        "import": [t0, t1],
        "work": [start, end],
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else None,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
