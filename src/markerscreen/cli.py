"""Command line front end.

Commands: score, select, simulate, calibrate, bench. Each accepts
--deterministic, --out-dir and the settings COMMANDS lists for it; any other
flag is an argparse error (exit 2). Only simulate, calibrate and bench draw
random numbers, so only they take --seed; the ks null table of score and
select depends on (N, replicates) alone. Each RunConfig field carries its
flag, and an unset flag keeps the field's default. Every artifact embeds the
tool version, the seed where the command takes one, and a digest of the
canonical config; reruns with the same config write byte-identical artifacts
when --deterministic suppresses the timestamp line.

score and select run the statistic matrix.regime picks for the design (lr at
n >= LR_MIN_N per condition, ks below) unless --stat names one, and say on
stderr which statistic ran and why. select's --cutoff-scale says how c of
fixed:<c> is given; every artifact is on the deviance scale. bench checks
its methods and presets before its first run, and after it prints the stat:
lines of the statistics that benchmark reports run outside their regime.

Exit codes: 0 success, 2 input error, 3 --stat lr on a design below the lr
regime, 4 no gap found (only with --policy gap:strict; plain gap falls back
to BH selection as documented).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .errors import MarkerScreenError, NoGapFound, ParseError, RegimeViolation
from .evaluate import DEFAULT_REPLICATES, benchmark, convergence_table, convergence_text, score_matrix
from .matrix import regime
from .matrix_io import (
    ingest_matrix,
    write_matrix,
    write_preview,
    write_scores,
    write_selection,
    write_table,
    write_truth,
)
from .select import apply_policy, parse_policy
from .simulate import generate, preset

EXIT_CODES = {RegimeViolation: 3, NoGapFound: 4}  # other MarkerScreenErrors exit 2


def _flag(flag: str, default, **kwargs):
    """A RunConfig field set by flag, which build_parser adds with the argparse
    keywords kwargs and no default: an unset flag keeps this field's default."""
    return field(default=default, metadata={"flag": flag, "kwargs": kwargs})


@dataclass
class RunConfig:
    command: str
    input: str | None = _flag("--input", None)
    layout: str | None = _flag("--layout", None,
                               help="inline labels like 1,1,2,2 or a sidecar CSV path")
    stat: str = _flag("--stat", "auto", choices=["lr", "ks", "auto"])
    policy: str = _flag("--policy", "gap", help="fixed:<c> | gap | gap:strict | bh:<q>")
    cutoff_scale: str = _flag("--cutoff-scale", "deviance", choices=["deviance", "lnR", "R"])
    seed: int = _flag("--seed", 0, type=int)
    replicates: int = _flag("--replicates", DEFAULT_REPLICATES, type=int)
    preset: str | None = _flag("--preset", None)
    deterministic: bool = _flag("--deterministic", False, action="store_true")
    out_dir: str = _flag("--out-dir", ".")
    n_values: str = _flag("--n", "3,5,8,10,15,20,30")
    alphas: str = _flag("--alpha", "0.01,0.05,0.10")
    methods: str = _flag("--methods", "lr+gap,ttest+bh")
    presets: str = _flag("--presets", "water-n10,human-n10")
    runs: int = _flag("--runs", 50, type=int)


def _takes_seed(cfg: RunConfig) -> bool:
    return "seed" in COMMANDS[cfg.command][1]


def config_digest(cfg: RunConfig) -> str:
    """Names the analysis: every setting except where the artifacts go,
    whether they carry a timestamp, and a seed the command does not take."""
    fields = asdict(cfg)
    del fields["out_dir"], fields["deterministic"]
    if not _takes_seed(cfg):
        del fields["seed"]
    canonical = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _header_lines(cfg: RunConfig) -> list[str]:
    lines = [f"markerscreen {__version__}"]
    if _takes_seed(cfg):
        lines.append(f"seed: {cfg.seed}")
    lines.append(f"config: {config_digest(cfg)}")
    if not cfg.deterministic:
        lines.append(
            "generated: "
            + datetime.datetime.now(datetime.timezone.utc).isoformat()
        )
    return lines


def _score(cfg: RunConfig):
    """Ingest --input and score it; returns (matrix, scores, stat). Says on
    stderr which statistic runs, and why."""
    if not cfg.input:
        raise ParseError(f"{cfg.command} needs --input")
    matrix = ingest_matrix(cfg.input, cfg.layout)
    decision = regime(matrix.n1, matrix.n2)
    if cfg.stat == "auto":
        stat, why = decision.stat, f"auto: {decision.reason}"
    else:
        stat, why = cfg.stat, f"--stat {cfg.stat}; regime says {decision.stat}"
    print(f"stat: {stat} ({why})", file=sys.stderr)
    # ScoreTable's NaN check reports a row that overflows; numpy's own
    # warnings would repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        scores = score_matrix(matrix, stat, cfg.replicates)
    return matrix, scores, stat


def _deviance_policy(policy, stat: str, scale: str):
    """policy with the c of fixed:<c>, given on `scale`, as a deviance cutoff:
    2c for lnR and 2 ln c for R, which needs c > 1 since every row has R >= 1."""
    if scale == "deviance":
        return policy
    if stat != "lr" or policy.kind != "fixed_cutoff" or scale not in ("lnR", "R"):
        raise ParseError(f"--cutoff-scale {scale} applies only to fixed:<c> with the lr statistic")
    if scale == "R" and not policy.c > 1:
        raise ParseError("fixed:<c> on the R scale needs c > 1: every row has R >= 1")
    return replace(policy, c=2.0 * (math.log(policy.c) if scale == "R" else policy.c))


def _out(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def cmd_simulate(cfg: RunConfig) -> int:
    if not cfg.preset:
        raise ParseError("simulate needs --preset")
    labeled = generate(preset(cfg.preset, seed=cfg.seed))
    header = _header_lines(cfg) + [f"preset: {cfg.preset}"]
    write_matrix(_out(cfg, "matrix.csv"), labeled.matrix, header)
    write_truth(_out(cfg, "truth.csv"), labeled.matrix.protein_ids,
                labeled.truth, header)
    print(f"wrote matrix.csv and truth.csv to {cfg.out_dir}")
    return 0


def cmd_score(cfg: RunConfig) -> int:
    matrix, scores, stat = _score(cfg)
    write_scores(_out(cfg, "scores.csv"),
                 scores, _header_lines(cfg) + [f"stat: {stat}"])
    print(f"scored {matrix.p} proteins with {stat}; wrote scores.csv")
    return 0


def cmd_select(cfg: RunConfig) -> int:
    matrix, scores, stat = _score(cfg)
    policy = parse_policy(cfg.policy, min(matrix.n1, matrix.n2))
    result = apply_policy(scores, _deviance_policy(policy, stat, cfg.cutoff_scale))
    header = _header_lines(cfg) + [f"stat: {stat}"]
    if stat == "lr":  # how c of fixed:<c> was given; every cutoff written is a deviance
        header.append(f"scale: {cfg.cutoff_scale}")
    write_scores(_out(cfg, "scores.csv"), scores, header)
    write_selection(_out(cfg, "selection.csv"), result, header)
    write_preview(_out(cfg, "preview.csv"), result, header)
    note = (f" (no gap found, fell back to BH at q = {result.policy.q:g})"
            if result.fallback_used else "")
    print(f"selected {len(result.selected)} of {matrix.p} proteins{note}")
    return 0


def cmd_calibrate(cfg: RunConfig) -> int:
    n_values = [int(tok) for tok in cfg.n_values.split(",") if tok.strip()]
    alphas = [float(tok) for tok in cfg.alphas.split(",") if tok.strip()]
    rows = convergence_table(n_values, replicates=cfg.replicates,
                             seed=cfg.seed, alphas=alphas)
    write_table(_out(cfg, "calibration.csv"), rows,
                ["n", "alpha", "tail_prob", "replicates"], _header_lines(cfg))
    print(convergence_text(rows))
    return 0


def cmd_bench(cfg: RunConfig) -> int:
    methods = [tok.strip() for tok in cfg.methods.split(",") if tok.strip()]
    preset_names = [tok.strip() for tok in cfg.presets.split(",") if tok.strip()]
    report = benchmark(methods, preset_names, runs=cfg.runs, seed=cfg.seed,
                       ks_replicates=cfg.replicates)  # checks the whole plan first
    for stat, name, regime_stat in report.off_regime:  # one line per pair, not one per run
        print(f"stat: {stat} on {name} (regime says {regime_stat})", file=sys.stderr)
    header = _header_lines(cfg)
    run_rows = [{**vars(r), "selected": r.selected_count, "fallback_used": int(r.fallback_used),
                 "error": r.error or ""} for r in report.runs]
    write_table(_out(cfg, "bench_runs.csv"), run_rows,
                ["method", "preset", "seed", "sensitivity", "empirical_fdr",
                 "selected", "tp", "fp", "fallback_used", "error"], header)
    write_table(_out(cfg, "bench_summary.csv"), report.aggregate(),
                ["method", "preset", "runs", "flagged", "sensitivity",
                 "empirical_fdr", "selected"], header)
    print(report.to_text())
    return 0


_SCORING = ("input", "layout", "stat", "replicates")
# name -> (function, the settings it reads besides --deterministic and --out-dir)
COMMANDS = {
    "simulate": (cmd_simulate, ("seed", "preset")),
    "score": (cmd_score, _SCORING),
    "select": (cmd_select, _SCORING + ("policy", "cutoff_scale")),
    "calibrate": (cmd_calibrate, ("seed", "n_values", "alphas", "replicates")),
    "bench": (cmd_bench, ("seed", "methods", "presets", "runs", "replicates")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markerscreen",
        description="Marker discovery for two-condition expression matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {f.name: f.metadata for f in fields(RunConfig)}
    for name, (_, settings) in COMMANDS.items():
        p = sub.add_parser(name)
        for dest in ("out_dir", *settings, "deterministic"):
            p.add_argument(options[dest]["flag"], dest=dest, **options[dest]["kwargs"])
    return parser


def parse_config(argv=None) -> RunConfig:
    """RunConfig from command-line arguments; unset flags keep its defaults."""
    args = build_parser().parse_args(argv)
    return RunConfig(**{k: v for k, v in vars(args).items() if v is not None})


def main(argv=None) -> int:
    cfg = parse_config(argv)
    try:
        return COMMANDS[cfg.command][0](cfg)
    except MarkerScreenError as exc:
        print(f"error [{exc.category}]: {exc}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), 2)
    except ValueError as exc:
        print(f"error [input]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
