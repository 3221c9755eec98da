"""Explicit, reproducible random number generation.

Every randomized operation in the package takes an `Rng` argument; nothing
reads global random state. The generator is PCG64, so an identical seed
yields an identical draw sequence on every platform and run.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidConfigError, _is_int


class Rng:
    """A seeded PCG64 stream. ``Rng(seed)`` with equal seeds is bit-reproducible."""

    def __init__(self, seed: int) -> None:
        if not (_is_int(seed) and seed >= 0):
            raise InvalidConfigError(f"seeds must be non-negative integers, got {seed!r}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape, std: float = 1.0, dtype=np.float32) -> np.ndarray:
        return self._gen.normal(0.0, std, size=shape).astype(dtype)

    def trunc_normal(self, shape, std: float, dtype=np.float32) -> np.ndarray:
        """Normal(0, std) with draws outside ±2·std resampled."""
        out = self._gen.normal(0.0, std, size=shape)
        bound = 2.0 * std
        bad = np.abs(out) > bound
        while bad.any():
            out[bad] = self._gen.normal(0.0, std, size=int(bad.sum()))
            bad = np.abs(out) > bound
        return out.astype(dtype)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        return self._gen.integers(low, high, size=shape, dtype=np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """A uniformly random permutation of range(n) (Fisher-Yates)."""
        return self._gen.permutation(n).astype(np.int64)
