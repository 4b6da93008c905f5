"""Deterministic seed derivation for named random sub-streams.

Every stochastic component draws from a stream derived from the single
run seed plus a component name (and epoch / index where relevant), so
results never depend on execution schedule or call order.
"""

import hashlib

import numpy as np


def derive_seed(*parts) -> int:
    """Hash the given parts (strings, ints, ...) into a 64-bit seed."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def derive_rng(*parts) -> np.random.Generator:
    """A fresh Generator seeded from ``derive_seed(*parts)``."""
    return np.random.default_rng(derive_seed(*parts))


def fisher_yates(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random permutation of ``range(n)`` via Fisher-Yates.

    The draw protocol is pinned (one ``rng.integers(0, i + 1)`` per swap,
    from the top index down, all drawn in one call) so any shuffler
    consuming the same stream reproduces it exactly.
    """
    perm = np.arange(n)
    swaps = rng.integers(0, np.arange(n, 1, -1)).tolist()
    for i, j in zip(range(n - 1, 0, -1), swaps):
        perm[i], perm[j] = perm[j], perm[i]
    return perm
