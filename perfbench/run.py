"""markerscreen benchmark: three workloads, each iteration a fresh interpreter.

    python3 perfbench/run.py --workload select-lr-100k --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  select-lr-100k  CLI `select --policy gap` on a p = 100,000, N = 20 CSV
  bench-n3        CLI `bench` over the four n = 3 presets (many p = 1,000 runs)
  diagnose-lr     score_matrix_lr(diagnostics=True) at p = 10,000, N = 20,
                  then the EM mixture fit on the 200 highest-deviance rows

Each timed iteration runs perfbench/child.py in a new interpreter with the
checkout's `src` first on PYTHONPATH: the ks null table is a process-wide
cache and `import markerscreen` is paid on every CLI call, so reusing a
process would time cache hits no user gets. Iterations repeat until
--seconds have passed (at least MIN_ITERATIONS); metrics are medians over
them. After timing, the outputs of one iteration are checked against the
benchmark's own recomputation and every iteration's artifacts must be
byte-identical to it.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced iterations and prints the per-layer metrics (self times of the spans
perfbench/spans.py records around calls into each module) plus the tracing
overhead. The last stdout line is the JSON result; the lines before it
record the environment, the inputs and every iteration.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
from spans import UNITS, layer_metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SELECT = {"p": 100_000, "n_per": 10, "planted_frac": 0.2}
DIAGNOSE = {"p": 10_000, "n_per": 10, "planted_frac": 0.2, "em_rows": 200}
BENCH = {"methods": "ks+gap,ttest+bh:0.1",
         "presets": "water-n3,human-n3,cauchy-n3,chisq-n3", "runs": 50}
WORKLOADS = ("select-lr-100k", "bench-n3", "diagnose-lr")

MIN_ITERATIONS = {0: 3, 1: 4}
# Each child runs pinned to PROBE_CPU beside probe.py. Times are reported at
# a reference speed of that CPU: wall seconds x (PROBE_REF_S / the probe's
# mean sample over the same interval) ** PROBE_EXPONENT. Program code slows
# more than the probe kernel when the CPU is contended: over 43 iterations
# of the three workloads, log wall time against log probe time had slopes of
# 1.38 to 1.63 (r = 0.92 to 0.98) for both set-up and work. Raw wall figures
# are printed per iteration.
PROBE_CPU = max(os.sched_getaffinity(0))
PROBE_REF_S = 600e-6
PROBE_EXPONENT = 1.5

CHILD_TIMEOUT_S = 150.0
# Start no iteration that could end after this many seconds of the run.
RUN_BUDGET_S = 150.0

THREAD_VARS = ("OMP_", "OPENBLAS_", "MKL_", "BLIS_", "VECLIB_", "NUMEXPR_", "GOTO_")


def git_head() -> str | None:
    """HEAD of the checkout from .git files alone; None outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_head": git_head(),
        "thread_vars": {k: v for k, v in os.environ.items() if k.startswith(THREAD_VARS)},
    }


class Workload:
    """Inputs, child spec and output check of one workload."""

    def __init__(self, name: str, seed: int, work: str):
        self.name, self.seed, self.work = name, seed, work
        self.out_dir = os.path.join(work, "out")
        self.input_info: dict = {}
        if name == "select-lr-100k":
            self._make_matrix(SELECT)
            self.rows = SELECT["p"]
            self.ops = 1
            self.argv = ["select", "--input", self.input_path, "--policy", "gap",
                         "--deterministic", "--out-dir", self.out_dir]
        elif name == "diagnose-lr":
            self._make_matrix(DIAGNOSE)
            self.rows = DIAGNOSE["p"]
            self.ops = 1 + DIAGNOSE["em_rows"]
            self.argv = None
        else:
            presets = BENCH["presets"].split(",")
            self.rows = 1000 * len(presets) * BENCH["runs"]  # presets have p = 1000
            self.ops = len(BENCH["methods"].split(",")) * len(presets) * BENCH["runs"]
            self.argv = ["bench", "--methods", BENCH["methods"], "--presets", BENCH["presets"],
                         "--seed", str(seed), "--runs", str(BENCH["runs"]),
                         "--deterministic", "--out-dir", self.out_dir]

    def _make_matrix(self, cfg: dict) -> None:
        values, self.planted = inputs.make_matrix(
            self.seed, self.name, cfg["p"], cfg["n_per"], cfg["planted_frac"])
        self.values, self.n1 = values, cfg["n_per"]
        self.ids = inputs.protein_ids(cfg["p"])
        self.input_path = os.path.join(self.work, "input.csv")
        self.input_info = inputs.write_csv(self.input_path, values, cfg["n_per"])

    def spec(self, trace: bool, result: str) -> dict:
        spec = {"workload": self.name, "out_dir": self.out_dir, "result": result,
                "trace": trace, "argv": self.argv, "cpu": PROBE_CPU}
        if self.name == "diagnose-lr":
            spec.update(input=self.input_path, em_rows=DIAGNOSE["em_rows"])
        return spec

    def check(self, out_dir: str) -> checks.Outcome:
        if self.name == "select-lr-100k":
            return checks.check_select(out_dir, self.ids, self.values, self.n1, self.planted)
        if self.name == "diagnose-lr":
            return checks.check_diagnose(out_dir, self.ids, self.values, self.n1,
                                         self.planted, DIAGNOSE["em_rows"])
        return checks.check_bench(out_dir, self.ops)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(spec: dict, work: str) -> tuple[dict | None, list, str]:
    """Run one iteration beside its probe; returns (result or None, probe
    samples, stderr tail)."""
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    if os.path.exists(spec["result"]):
        os.remove(spec["result"])
    probe = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"), str(PROBE_CPU)],
                             cwd=work, stdout=subprocess.PIPE, text=True)
    try:
        if probe.stdout.readline().strip() != "ready":
            raise SystemExit("the speed probe did not start")
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                              env=child_env(), cwd=work, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = None
    finally:
        probe.terminate()
        try:
            samples = json.loads(probe.communicate(timeout=30)[0] or "[]")
        except subprocess.TimeoutExpired:
            probe.kill()
            probe.communicate()
            samples = []
    if proc is None:
        return None, samples, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        return None, samples, proc.stderr[-2000:]
    with open(spec["result"]) as fh:
        return json.load(fh), samples, proc.stderr[-2000:]


def at_reference_speed(seconds: float, probe_s: float) -> float:
    return seconds * (PROBE_REF_S / probe_s) ** PROBE_EXPONENT


def probe_mean(samples: list, interval: list) -> float:
    """Mean probe sample inside [start, end] (all samples if none fell in)."""
    start, end = interval
    inside = [d for t, d in samples if start <= t <= end]
    return statistics.fmean(inside or [d for _, d in samples] or [PROBE_REF_S])


def digest_dir(path: str) -> dict[str, str]:
    return {name: inputs.sha256_file(os.path.join(path, name))
            for name in sorted(os.listdir(path))}


def warm_up(work: str) -> None:
    """Import the package once untimed so file caches and .pyc files are
    filled before the first timed set-up. Fails when the tree is unusable."""
    proc = subprocess.run([sys.executable, "-c", "import markerscreen.cli"],
                          env=child_env(), cwd=work, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"cannot import markerscreen from {SRC}:\n{proc.stderr[-2000:]}")


def measure(wl: Workload, seconds: float, trace: int) -> dict:
    """Iterate until `seconds` pass; check outputs after timing."""
    ref_dir = os.path.join(wl.work, "ref")
    result_path = os.path.join(wl.work, "result.json")
    iterations: list[dict] = []
    ref_digest = None
    t_start = time.perf_counter()
    while True:
        traced = bool(trace) and len(iterations) % 2 == 1
        shutil.rmtree(wl.out_dir, ignore_errors=True)
        os.makedirs(wl.out_dir)
        t0 = time.perf_counter()
        result, samples, err = run_child(wl.spec(traced, result_path), wl.work)
        wall = time.perf_counter() - t0
        it = {"traced": traced, "wall_s": wall, "ok": False}
        if result is None:
            it["error"] = err.strip().splitlines()[-1:] or ["no result"]
        elif result["rc"] != 0:
            it["error"] = [f"exit code {result['rc']}"]
        else:
            digest = digest_dir(wl.out_dir)
            if ref_digest is None:
                ref_digest = digest
                os.rename(wl.out_dir, ref_dir)
            it["ok"] = digest == ref_digest
            if not it["ok"]:
                it["error"] = ["artifacts differ from the first iteration"]
        if result is not None:
            import_s = result["import"][1] - result["import"][0]
            work_s = result["work"][1] - result["work"][0]
            probe_import = probe_mean(samples, result["import"])
            probe_work = probe_mean(samples, result["work"])
            it.update(import_s=import_s, work_s=work_s, probe_samples=len(samples),
                      probe_import_s=probe_import, probe_work_s=probe_work,
                      setup_s=at_reference_speed(import_s, probe_import),
                      rows_per_s=wl.rows / at_reference_speed(work_s, probe_work),
                      wall_rows_per_s=wl.rows / work_s,
                      rss_mb=result["maxrss_kb"] * 1024 / 1e6, spans=result["spans"])
        iterations.append(it)
        elapsed = time.perf_counter() - t_start
        if len(iterations) >= MIN_ITERATIONS[trace] and elapsed >= seconds:
            break
        if elapsed + 1.5 * wall > RUN_BUDGET_S:
            break

    outcome = wl.check(ref_dir) if ref_digest is not None else None
    attempted = failed = 0
    for it in iterations:
        attempted += wl.ops
        if not it["ok"]:
            failed += wl.ops
        elif outcome is not None:
            failed += outcome.failed
    return {"iterations": iterations, "outcome": outcome,
            "attempted": attempted, "failed": failed}


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(res: dict) -> dict:
    ok = [it for it in res["iterations"] if it["ok"] and not it["traced"]]
    out = res["outcome"]
    return {
        "rows_per_s": (median([it["rows_per_s"] for it in ok]), "rows/s"),
        "setup_s": (median([it["setup_s"] for it in ok]), "s"),
        "peak_rss_mb": (median([it["rss_mb"] for it in ok]), "MB"),
        "ops_ok_frac": (1.0 - res["failed"] / res["attempted"], "ratio"),
        "sensitivity": (out.sensitivity, "ratio"),
        "empirical_fdr": (out.empirical_fdr, "ratio"),
    }


def per_layer(res: dict) -> dict:
    traced = [it for it in res["iterations"] if it["ok"] and it["traced"]]
    plain = [it for it in res["iterations"] if it["ok"] and not it["traced"]]
    layers = [layer_metrics(it["spans"]) for it in traced]
    out = {name: (median([m[name] for m in layers]), unit) for name, unit in UNITS.items()}
    out["wall.rows_per_s"] = (median([it["wall_rows_per_s"] for it in plain]), "rows/s")
    out["trace.overhead_frac"] = (
        1.0 - median([it["rows_per_s"] for it in traced])
        / median([it["rows_per_s"] for it in plain]), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "markerscreen", "__init__.py")):
        print(f"error: no markerscreen package under {SRC}", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        print("env: " + json.dumps(environment(), sort_keys=True))
        wl = Workload(args.workload, args.seed, work)
        if wl.input_info:
            print("input: " + json.dumps(wl.input_info, sort_keys=True))
        warm_up(work)
        res = measure(wl, args.seconds, args.trace)
        for k, it in enumerate(res["iterations"]):
            print(f"iteration {k}: " + json.dumps(
                {key: v for key, v in it.items() if key != "spans"}, sort_keys=True))
        out = res["outcome"]
        kinds = {it["traced"] for it in res["iterations"] if it["ok"]}
        if out is None or kinds != ({False, True} if args.trace else {False}):
            print("error: no iteration of the workload succeeded", file=sys.stderr)
            return 1
        for problem in out.problems:
            print("check failed: " + problem)
        print(f"summary: attempted {res['attempted']} failed {res['failed']} "
              f"ops_failed_frac {res['failed'] / res['attempted']!r} "
              f"tp {out.tp} fp {out.fp} planted {out.planted}")
        metrics = per_layer(res) if args.trace else end_to_end(res)
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value!r} {unit}")
        print(json.dumps({
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
