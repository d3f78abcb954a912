"""Reproducible random-number substreams.

All randomness in the package flows from a single user-visible integer seed.
Independent substreams are derived by hashing ``"{seed}:{label}"`` into a
128-bit Philox key, so streams for different labels never collide and adding
draws to one stream cannot perturb another. Counter-based generators make
the derivation stable across platforms and numpy versions.
"""

import hashlib

import numpy as np


def _digest(seed: int, label: str) -> bytes:
    return hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()


def substream(seed: int, label: str) -> np.random.Generator:
    """Return a Generator keyed by (seed, label), independent across labels."""
    key = np.frombuffer(_digest(seed, label)[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, label: str) -> int:
    """A derived integer seed (for handing to components that take seeds)."""
    return int.from_bytes(_digest(seed, label)[:8], "little") % (2**63)
