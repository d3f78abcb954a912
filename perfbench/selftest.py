"""Tests of the benchmark itself: deterministic inputs, span self times, and
output checks that catch corrupted artifacts and turn them into failures.

    python3 perfbench/selftest.py

Runs on small inputs in a few seconds; imports markerscreen from ./src.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import markerscreen  # noqa: E402
import markerscreen.cli  # noqa: E402

import checks  # noqa: E402
import child  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from spans import Tracer, layer_metrics, self_times  # noqa: E402


def _rewrite(path: str, edit) -> None:
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(edit(lines))


def _edit_field(row: int, column: int, fn):
    """An edit for _rewrite: apply fn to one field of one line."""
    def edit(lines):
        k = row % len(lines)
        fields = lines[k].rstrip("\n").split(",")
        fields[column] = fn(fields[column])
        return lines[:k] + [",".join(fields) + "\n"] + lines[k + 1:]
    return edit


_bump_last_value = _edit_field(-1, 2, lambda v: repr(float(v) + 1.0))


class Base(unittest.TestCase):
    def setUp(self):
        scratch = os.path.join(run.ROOT, ".perfbench_work")
        os.makedirs(scratch, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="selftest-", dir=scratch)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def matrix(self, workload="select-lr-100k", seed=3, p=2000):
        values, planted = inputs.make_matrix(seed, workload, p, 10, 0.2)
        path = os.path.join(self.dir, f"input-{seed}.csv")
        info = inputs.write_csv(path, values, 10)
        return path, info, values, planted, inputs.protein_ids(p)


class InputTests(Base):
    def test_seed_fixes_bytes(self):
        a, b, c = (self.matrix(seed=s)[1]["sha256"] for s in (3, 3, 4))
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_csv_round_trip_is_exact(self):
        path, _, values, _, ids = self.matrix()
        got_ids, got, n1 = inputs.read_csv(path)
        self.assertEqual((got_ids, n1), (ids, 10))
        self.assertTrue((got == values).all())


class SpanTests(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        spans = [["a", 0, 10, -1, {}], ["b", 1, 4, 0, {}], ["c", 5, 6, 0, {}],
                 ["d", 2, 3, 1, {}]]
        self.assertEqual(self_times(spans), [6, 2, 1, 1])

    def test_tracer_records_parents_and_attrs(self):
        tracer = Tracer()
        inner = tracer.wrap(lambda x: x + 1, "lr.em",
                            lambda a, k, r: {"iterations": r, "converged": True})
        outer = tracer.wrap(lambda x: inner(x) * 2, "cli.main")
        self.assertEqual(outer(1), 4)
        (o, i) = tracer.spans
        self.assertEqual((o[0], o[3], i[0], i[3]), ("cli.main", -1, "lr.em", 0))
        m = layer_metrics(tracer.spans)
        self.assertEqual((m["lr.em_calls"], m["lr.em_iterations"]), (1, 2))
        self.assertLessEqual(m["cli.self_s"], o[2] - o[1])


class CheckTests(Base):
    def select(self):
        path, _, values, planted, ids = self.matrix()
        out = os.path.join(self.dir, "out")
        rc = markerscreen.cli.main(["select", "--input", path, "--policy", "gap",
                                    "--deterministic", "--out-dir", out])
        self.assertEqual(rc, 0)
        return out, ids, values, planted

    def test_select_clean_then_corrupted(self):
        out, ids, values, planted = self.select()
        clean = checks.check_select(out, ids, values, 10, planted)
        self.assertEqual((clean.failed, clean.problems), (0, []))
        self.assertGreater(clean.tp, 0)
        _rewrite(os.path.join(out, "scores.csv"), _bump_last_value)
        self.assertEqual(checks.check_select(out, ids, values, 10, planted).failed, 1)

    def test_select_dropped_id(self):
        out, ids, values, planted = self.select()
        _rewrite(os.path.join(out, "selection.csv"), lambda lines: lines[:-1])
        self.assertEqual(checks.check_select(out, ids, values, 10, planted).failed, 1)

    def test_bench_flagged_and_inconsistent_rows(self):
        out = os.path.join(self.dir, "out")
        markerscreen.cli.main(["bench", "--methods", "ks+gap,ttest+bh:0.1",
                               "--presets", "water-n3", "--runs", "2", "--seed", "1",
                               "--replicates", "1000", "--deterministic", "--out-dir", out])
        path = os.path.join(out, "bench_runs.csv")
        self.assertEqual(checks.check_bench(out, 4).failed, 0)
        self.assertEqual(checks.check_bench(out, 5).failed, 1)  # a missing row
        header, _ = checks.read_table(path)
        _rewrite(path, _edit_field(-1, header.index("error"), lambda v: "degenerate"))
        self.assertEqual(checks.check_bench(out, 4).failed, 1)
        _rewrite(path, _edit_field(-2, header.index("tp"), lambda v: str(int(v) + 1)))
        self.assertEqual(checks.check_bench(out, 4).failed, 2)

    def test_diagnose_clean_then_corrupted(self):
        path, _, values, planted, ids = self.matrix("diagnose-lr", p=500)
        out = os.path.join(self.dir, "out")
        os.makedirs(out)
        child.diagnose(markerscreen, {"input": path, "out_dir": out, "em_rows": 20})
        self.assertEqual(checks.check_diagnose(out, ids, values, 10, planted, 20).failed, 0)
        em = os.path.join(out, "em.csv")
        _rewrite(em, _edit_field(1, 5, lambda v: repr(float(v) - 100.0)))
        self.assertEqual(checks.check_diagnose(out, ids, values, 10, planted, 20).failed, 1)
        _rewrite(os.path.join(out, "diagnose.csv"), _bump_last_value)
        self.assertEqual(checks.check_diagnose(out, ids, values, 10, planted, 20).failed, 2)


class AccountingTests(Base):
    """A whole measured run on a small select input, in fresh interpreters."""

    def measure(self, corrupt: bool):
        saved = dict(run.SELECT)
        run.SELECT.update(p=2000)
        try:
            wl = run.Workload("select-lr-100k", 5, self.dir)
        finally:
            run.SELECT.update(saved)
        if corrupt:
            check = wl.check

            def corrupting_check(out_dir):
                _rewrite(os.path.join(out_dir, "scores.csv"), _bump_last_value)
                return check(out_dir)

            wl.check = corrupting_check
        return run.measure(wl, seconds=0, trace=0)

    def test_clean_run_has_no_failures(self):
        res = self.measure(corrupt=False)
        self.assertEqual(res["attempted"], run.MIN_ITERATIONS[0])
        self.assertEqual(res["failed"], 0)
        self.assertEqual(run.end_to_end(res)["ops_ok_frac"][0], 1.0)

    def test_corrupted_output_counts_as_failed(self):
        res = self.measure(corrupt=True)
        self.assertEqual(res["failed"], res["attempted"])
        self.assertEqual(run.end_to_end(res)["ops_ok_frac"][0], 0.0)


if __name__ == "__main__":
    unittest.main()
