"""Layer spans recorded from outside the program.

The tracer replaces public functions at the names their callers look them up
by: `cli` and `evaluate` bind with `from .x import y`, so patching only the
defining module would miss their calls. Each call records a span
[name, start, end, parent, attrs] in memory; the child writes the list out
when it exits and the parent turns it into per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np


def _file_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _em_attrs(args, kwargs, result):
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _policy_attrs(args, kwargs, result):
    policy = kwargs.get("policy", args[1] if len(args) > 1 else None)
    gap = getattr(policy, "kind", None) == "gap_knee"
    return {"gap": gap, "fallback": bool(result.fallback_used)}


def _lr_name(args, kwargs):
    return "lr.diagnostics" if kwargs.get("diagnostics") else "lr.score"


# (module, attribute, span name or name function, attrs function)
PATCHES = [
    ("markerscreen.cli", "main", "cli.main", None),
    ("markerscreen.cli", "ingest_matrix", "matrix_io.ingest", _file_attrs),
    *[("markerscreen.cli", w, "matrix_io.write", _file_attrs)
      for w in ("write_scores", "write_selection", "write_preview", "write_table")],
    ("markerscreen.evaluate", "generate", "simulate.generate", None),
    ("markerscreen.cli", "score_matrix_lr", _lr_name, None),
    ("markerscreen.evaluate", "score_matrix_lr", _lr_name, None),
    ("markerscreen.lr", "score_matrix_lr", _lr_name, None),
    ("markerscreen.lr", "fit_mixture_fixed_weights", "lr.em", _em_attrs),
    ("markerscreen.cli", "score_matrix_ks", "ks.score", None),
    ("markerscreen.evaluate", "score_matrix_ks", "ks.score", None),
    ("markerscreen.cli", "apply_policy", "select.policy", _policy_attrs),
    ("markerscreen.evaluate", "apply_policy", "select.policy", _policy_attrs),
    ("markerscreen.evaluate", "ttest_baseline", "evaluate.ttest", None),
    ("markerscreen.evaluate", "score_against_truth", "evaluate.truth", None),
    ("markerscreen.cli", "benchmark", "evaluate.bench", None),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, fn, name, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append([span_name, 0.0, 0.0, stack[-1] if stack else -1, {}])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1:3] = [start, end]
            if attrs is not None:
                spans[idx][4] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Patch every listed name that exists; `modules` maps dotted names
        to imported modules. ExpressionMatrix construction is timed through
        its validation hook, which every constructor call runs."""
        for mod_name, attr, name, attrs in PATCHES:
            mod = modules[mod_name]
            if hasattr(mod, attr):
                setattr(mod, attr, self.wrap(getattr(mod, attr), name, attrs))
        cls = modules["markerscreen.matrix"].ExpressionMatrix
        cls.__post_init__ = self.wrap(cls.__post_init__, "matrix.build")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _pct_ms(durations, q) -> float:
    return float(np.percentile(durations, q) * 1e3) if durations else 0.0


UNITS = {
    "matrix_io.ingest_s": "s", "matrix_io.ingest_mb_per_s": "MB/s",
    "matrix_io.write_s": "s", "matrix_io.bytes_out": "count",
    "matrix.build_s": "s",
    "simulate.generate_s": "s", "simulate.calls": "count",
    "lr.score_s": "s", "lr.diagnostics_s": "s",
    "lr.em_s": "s", "lr.em_p50_ms": "ms", "lr.em_p95_ms": "ms", "lr.em_calls": "count",
    "lr.em_iterations": "count", "lr.em_converged_ratio": "ratio",
    "ks.score_s": "s", "ks.score_p50_ms": "ms", "ks.score_p95_ms": "ms", "ks.calls": "count",
    "select.policy_s": "s", "select.calls": "count", "select.fallback_ratio": "ratio",
    "evaluate.ttest_s": "s", "evaluate.truth_s": "s", "evaluate.bench_self_s": "s",
    "cli.self_s": "s",
}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced iteration. Times are self times."""
    own = self_times(spans)
    self_s: dict[str, float] = {}
    by_name: dict[str, list] = {}
    for span, t in zip(spans, own):
        self_s[span[0]] = self_s.get(span[0], 0.0) + t
        by_name.setdefault(span[0], []).append(span)

    def dur(name):
        return [s[2] - s[1] for s in by_name.get(name, [])]

    def attr_sum(name, key):
        return sum(s[4].get(key, 0) for s in by_name.get(name, []))

    ingest_s = sum(dur("matrix_io.ingest"))
    em = dur("lr.em")
    ks = dur("ks.score")
    gap_calls = attr_sum("select.policy", "gap")
    return {
        "matrix_io.ingest_s": self_s.get("matrix_io.ingest", 0.0),
        "matrix_io.ingest_mb_per_s":
            attr_sum("matrix_io.ingest", "bytes") / 1e6 / ingest_s if ingest_s else 0.0,
        "matrix_io.write_s": self_s.get("matrix_io.write", 0.0),
        "matrix_io.bytes_out": attr_sum("matrix_io.write", "bytes"),
        "matrix.build_s": self_s.get("matrix.build", 0.0),
        "simulate.generate_s": self_s.get("simulate.generate", 0.0),
        "simulate.calls": len(dur("simulate.generate")),
        "lr.score_s": self_s.get("lr.score", 0.0),
        "lr.diagnostics_s": self_s.get("lr.diagnostics", 0.0),
        "lr.em_s": self_s.get("lr.em", 0.0),
        "lr.em_p50_ms": _pct_ms(em, 50),
        "lr.em_p95_ms": _pct_ms(em, 95),
        "lr.em_calls": len(em),
        "lr.em_iterations": attr_sum("lr.em", "iterations"),
        "lr.em_converged_ratio": attr_sum("lr.em", "converged") / len(em) if em else 0.0,
        "ks.score_s": self_s.get("ks.score", 0.0),
        "ks.score_p50_ms": _pct_ms(ks, 50),
        "ks.score_p95_ms": _pct_ms(ks, 95),
        "ks.calls": len(ks),
        "select.policy_s": self_s.get("select.policy", 0.0),
        "select.calls": len(dur("select.policy")),
        "select.fallback_ratio":
            attr_sum("select.policy", "fallback") / gap_calls if gap_calls else 0.0,
        "evaluate.ttest_s": self_s.get("evaluate.ttest", 0.0),
        "evaluate.truth_s": self_s.get("evaluate.truth", 0.0),
        "evaluate.bench_self_s": self_s.get("evaluate.bench", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }
