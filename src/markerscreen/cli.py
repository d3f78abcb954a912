"""Command line front end.

Commands: score, select, simulate, calibrate, bench. Every artifact embeds
the tool version, the seed, and a digest of the canonical config; reruns
with the same config and seed write byte-identical artifacts when
--deterministic suppresses the timestamp line.

Exit codes: 0 success, 2 input error, 3 statistic outside its regime,
4 no gap found (only with --policy gap:strict; plain gap falls back to BH
selection as documented).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .errors import MarkerScreenError, NoGapFound, ParseError, RegimeViolation
from .evaluate import benchmark, convergence_table, convergence_text
from .ks import score_matrix_ks
from .lr import score_matrix_lr
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

DEFAULT_N_VALUES = "3,5,8,10,15,20,30"
DEFAULT_ALPHAS = "0.01,0.05,0.10"
EXIT_CODES = {RegimeViolation: 3, NoGapFound: 4}  # other MarkerScreenErrors exit 2


@dataclass
class RunConfig:
    command: str
    input: str | None = None
    layout: str | None = None
    stat: str = "auto"
    policy: str = "gap"
    cutoff_scale: str = "deviance"
    seed: int = 0
    replicates: int = 10000
    preset: str | None = None
    deterministic: bool = False
    out_dir: str = "."
    n_values: str = DEFAULT_N_VALUES
    alphas: str = DEFAULT_ALPHAS
    methods: str = "lr+gap,ttest+bh"
    presets: str = "water-n10,human-n10"
    runs: int = 50


def config_digest(cfg: RunConfig) -> str:
    canonical = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _header_lines(cfg: RunConfig) -> list[str]:
    lines = [
        f"markerscreen {__version__}",
        f"seed: {cfg.seed}",
        f"config: {config_digest(cfg)}",
    ]
    if not cfg.deterministic:
        lines.append(
            "generated: "
            + datetime.datetime.now(datetime.timezone.utc).isoformat()
        )
    return lines


def _resolve_stat(cfg: RunConfig, matrix) -> str:
    if cfg.stat != "auto":
        return cfg.stat
    return "lr" if min(matrix.n1, matrix.n2) >= 5 else "ks"


def _score(cfg: RunConfig):
    """Ingest --input and score it; returns (matrix, scores, stat)."""
    if not cfg.input:
        raise ParseError(f"{cfg.command} needs --input")
    matrix = ingest_matrix(cfg.input, cfg.layout)
    stat = _resolve_stat(cfg, matrix)
    if stat == "lr":
        return matrix, score_matrix_lr(matrix), stat
    if stat == "ks":
        return matrix, score_matrix_ks(matrix, replicates=cfg.replicates, seed=cfg.seed), stat
    raise ParseError(f"unknown statistic {stat!r}")


def _scale_scores(scores, stat: str, scale: str):
    """Express deviance scores on the requested cutoff scale."""
    if scale == "deviance":
        return scores
    if stat != "lr":
        raise ParseError("--cutoff-scale other than 'deviance' applies only to --stat lr")
    if scale == "lnR":
        return replace(scores, value=scores.value / 2.0)
    if scale == "R":
        return replace(scores, value=np.exp(np.minimum(scores.value / 2.0, 700.0)))
    raise ParseError(f"unknown cutoff scale {scale!r}")


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
    scaled = _scale_scores(scores, stat, cfg.cutoff_scale)
    policy, fallback_q = parse_policy(cfg.policy, min(matrix.n1, matrix.n2))
    result = apply_policy(scaled, policy, fallback_q=fallback_q)
    header = _header_lines(cfg) + [f"stat: {stat}"]
    if stat == "lr":  # the cutoff scale applies only to deviance scores
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
                       ks_replicates=cfg.replicates)
    header = _header_lines(cfg)
    run_rows = [
        {
            "method": r.method, "preset": r.preset, "seed": r.seed,
            "sensitivity": r.sensitivity, "empirical_fdr": r.empirical_fdr,
            "selected": r.selected_count, "tp": r.tp, "fp": r.fp,
            "fallback_used": int(r.fallback_used),
            "error": r.error or "",
        }
        for r in report.runs
    ]
    write_table(_out(cfg, "bench_runs.csv"), run_rows,
                ["method", "preset", "seed", "sensitivity", "empirical_fdr",
                 "selected", "tp", "fp", "fallback_used", "error"], header)
    write_table(_out(cfg, "bench_summary.csv"), report.aggregate(),
                ["method", "preset", "runs", "flagged", "sensitivity",
                 "empirical_fdr", "selected"], header)
    print(report.to_text())
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "score": cmd_score,
    "select": cmd_select,
    "calibrate": cmd_calibrate,
    "bench": cmd_bench,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markerscreen",
        description="Marker discovery for two-condition expression matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input")
        p.add_argument("--layout",
                       help="inline labels like 1,1,2,2 or a sidecar CSV path")
        p.add_argument("--stat", choices=["lr", "ks", "auto"], default="auto")
        p.add_argument("--policy", default="gap",
                       help="fixed:<c> | gap | gap:strict | bh:<q>")
        p.add_argument("--cutoff-scale", dest="cutoff_scale",
                       choices=["deviance", "lnR", "R"], default="deviance")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--replicates", type=int, default=10000)
        p.add_argument("--preset")
        p.add_argument("--deterministic", action="store_true")
        p.add_argument("--out-dir", dest="out_dir", default=".")
        if name == "calibrate":
            p.add_argument("--n", dest="n_values", default=DEFAULT_N_VALUES)
            p.add_argument("--alpha", dest="alphas", default=DEFAULT_ALPHAS)
        if name == "bench":
            p.add_argument("--methods", default="lr+gap,ttest+bh")
            p.add_argument("--presets", default="water-n10,human-n10")
            p.add_argument("--runs", type=int, default=50)
    return parser


def run(cfg: RunConfig) -> int:
    """Dispatch a validated config; raises module errors to the caller."""
    return COMMANDS[cfg.command](cfg)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(**{k: v for k, v in vars(args).items() if v is not None})
    try:
        return run(cfg)
    except MarkerScreenError as exc:
        print(f"error [{exc.category}]: {exc}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), 2)
    except ValueError as exc:
        print(f"error [input]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
