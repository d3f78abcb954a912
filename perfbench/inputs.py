"""Benchmark-owned input matrices.

The benchmark writes its own inputs with plain numpy and repr formatting, so
a change to the program's simulator or CSV writer cannot change the bytes the
program reads. Every matrix is a function of (seed, workload tag) only.

Design, human-lysate-like: N = 2 x n samples, condition 1 first; each row
has its own level drawn uniformly from [10, 30]; the residual is normal with
variance 2.23; the leading planted_frac share of rows (the planted block)
carries a log2(3) shift on condition 1.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

NOISE_VAR = 2.23
FOLD_CHANGE = math.log2(3.0)

# Distinct generator streams per workload, so two workloads never share data.
WORKLOAD_TAGS = {"select-lr-100k": 1, "diagnose-lr": 2}


def make_matrix(seed: int, workload: str, p: int, n_per: int,
                planted_frac: float) -> tuple[np.ndarray, np.ndarray]:
    """Returns (values (p, 2 n_per), planted mask (p,))."""
    rng = np.random.default_rng([WORKLOAD_TAGS[workload], seed])
    level = rng.uniform(10.0, 30.0, p)
    values = level[:, None] + rng.normal(0.0, math.sqrt(NOISE_VAR), (p, 2 * n_per))
    planted = np.zeros(p, dtype=bool)
    planted[: int(round(planted_frac * p))] = True
    values[planted, :n_per] += FOLD_CHANGE
    return values, planted


def protein_ids(p: int) -> list[str]:
    width = max(4, len(str(p)))
    return [f"P{i + 1:0{width}d}" for i in range(p)]


def write_csv(path: str, values: np.ndarray, n_per: int) -> dict:
    """Write a matrix CSV the program's ingest accepts; returns its identity."""
    p, N = values.shape
    with open(path, "w", newline="") as fh:
        fh.write("# layout: " + ",".join(["1"] * n_per + ["2"] * (N - n_per)) + "\n")
        fh.write("protein_id," + ",".join(f"s{k + 1:02d}" for k in range(N)) + "\n")
        for pid, row in zip(protein_ids(p), values.tolist()):
            fh.write(pid + "," + ",".join(map(repr, row)) + "\n")
    return {"path": os.path.basename(path), "sha256": sha256_file(path),
            "p": p, "N": N, "bytes": os.path.getsize(path)}


def read_csv(path: str) -> tuple[list[str], np.ndarray, int]:
    """Parse a matrix written by write_csv: (ids, values, n1)."""
    ids, rows, n1 = [], [], 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("# layout:"):
                n1 = line.split(":", 1)[1].strip().split(",").count("1")
            elif not line.startswith(("#", "protein_id")):
                pid, _, rest = line.rstrip("\n").partition(",")
                ids.append(pid)
                rows.append([float(v) for v in rest.split(",")])
    return ids, np.array(rows), n1


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
