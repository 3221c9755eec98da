"""Explicit, reproducible random number generation.

Every randomized operation in the package takes an `Rng` argument; nothing
reads global random state. The generator is PCG64, so an identical seed
yields an identical draw sequence on every platform and run.

`normal` and `trunc_normal` draw in float64 blocks of `_CHUNK_ELEMS` values
and write each block straight into a result of the requested dtype, so no
full-size float64 array is ever built. PCG64 fills values one after another
from one stream, so the blocks, joined, equal the whole-array draw
``Generator.normal(0.0, std, size=shape).astype(dtype)`` bit for bit, and
the generator ends at the same stream position.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidConfigError, _is_int, _is_real
from .tensor import _ALLOWED_DTYPES, _CHUNK_ELEMS


def _check_shape(shape) -> tuple[int, ...]:
    dims = (shape,) if _is_int(shape) else shape
    try:
        dims = tuple(dims)
    except TypeError:
        dims = None
    if dims is None or not all(_is_int(d) and d >= 0 for d in dims):
        raise InvalidConfigError(f"shapes must be an int or a sequence of non-negative ints, "
                                 f"got {shape!r}")
    return tuple(int(d) for d in dims)


def _check_std(std) -> float:
    if not (_is_real(std) and math.isfinite(std) and std >= 0):
        raise InvalidConfigError(f"std must be a finite real >= 0, got {std!r}")
    return float(std)


def _check_dtype(dtype) -> np.dtype:
    try:
        # np.dtype(None) is float64, so None is refused before it
        dt = None if dtype is None else np.dtype(dtype)
    except TypeError:
        dt = None
    if dt not in _ALLOWED_DTYPES:
        raise InvalidConfigError(f"draws are float32 or float64, not {dtype!r}")
    return dt


class Rng:
    """A seeded PCG64 stream. ``Rng(seed)`` with equal seeds is bit-reproducible."""

    def __init__(self, seed: int) -> None:
        if not (_is_int(seed) and seed >= 0):
            raise InvalidConfigError(f"seeds must be non-negative integers, got {seed!r}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def _blocks(self, shape, std, dtype, bound=None) -> tuple[np.ndarray, np.ndarray]:
        """Normal(0, std) in `dtype`, drawn block by block, and the ascending flat
        indices of the draws whose magnitude exceeds `bound` (none without one)."""
        std = _check_std(std)
        out = np.empty(_check_shape(shape), _check_dtype(dtype))
        flat, bad = out.reshape(-1), []
        for lo in range(0, flat.size, _CHUNK_ELEMS):
            block = self._gen.normal(0.0, std, size=min(_CHUNK_ELEMS, flat.size - lo))
            flat[lo:lo + block.size] = block
            if bound is not None:
                bad.append(np.flatnonzero(np.abs(block) > bound) + lo)
        return out, np.concatenate(bad) if bad else np.empty(0, np.int64)

    def normal(self, shape, std: float = 1.0, dtype=np.float32) -> np.ndarray:
        return self._blocks(shape, std, dtype)[0]

    def trunc_normal(self, shape, std: float, dtype=np.float32) -> np.ndarray:
        """Normal(0, std) with draws outside ±2·std resampled.

        Each round draws one value per still-rejected position, in index order,
        as a whole-array draw followed by ``out[bad] = normal(bad.sum())``
        rounds would."""
        bound = 2.0 * _check_std(std)
        out, bad = self._blocks(shape, std, dtype, bound)
        flat = out.reshape(-1)
        while bad.size:
            redraw = self._gen.normal(0.0, std, size=bad.size)
            keep = np.abs(redraw) > bound  # still out of bounds: redrawn next round
            flat[bad[~keep]] = redraw[~keep]
            bad = bad[keep]
        return out

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        if not (_is_int(low) and _is_int(high) and low < high):
            raise InvalidConfigError(f"integers needs ints low < high, got {low!r}, {high!r}")
        return self._gen.integers(low, high, size=_check_shape(shape), dtype=np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """A uniformly random permutation of range(n) (Fisher-Yates)."""
        if not (_is_int(n) and n >= 0):
            raise InvalidConfigError(f"permutation needs a non-negative int, got {n!r}")
        return self._gen.permutation(n).astype(np.int64)
