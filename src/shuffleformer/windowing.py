"""Window partition/reverse and the spatial shuffle/alignment permutations.

A spatial permutation acts on one axis of the token grid; the 2-D shuffle
factorizes into independent row and column permutations. The window
partition folds the permutation into its gather, so shuffling costs no extra
pass over the data, and `aligned_window_reverse` undoes both at once.

The (ph, pw) pair alone sets the geometry: the grid's extents are the
permutations' lengths, ph.n x pw.n, cut into gh = ph.n/m by gw = pw.n/m windows.

Window layout contract: `shuffled_window_partition(x, m, (ph, pw))` equals
shuffling x to s[b, c, i, j] = x[b, c, ph.map[i], pw.map[j]] and cutting s
into m x m windows. It returns (batch * gh * gw, C, m, m) with window index
wh * gw + ww (row-major over windows, appended after the batch axis,
batch-major) and row-major intra-window positions: window (wh, ww) of image
b holds s[b, :, wh*m:(wh+1)*m, ww*m:(ww+1)*m]. Identity permutations give
the plain partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidConfigError, InvalidShapeError, PartitionError, _check_arg, _is_choice,
                     _is_int)
from .rng import Rng
from .tensor import Tensor, _check_operands, result_of

# the one vocabulary for shuffle modes; configs and checkpoints store "none"
SHUFFLE_MODES = ("none", "long-range", "short-range", "random")


@dataclass(frozen=True, eq=False)
class SpatialPermutation:
    """A bijection over one spatial axis: position k reads source `map[k]`."""

    map: np.ndarray

    def __post_init__(self):
        try:
            m = np.asarray(self.map)
        except ValueError:  # a ragged nested sequence
            m = np.asarray(None)
        if not (m.dtype.kind in "iu" and m.ndim == 1
                and np.array_equal(np.sort(m), np.arange(m.size))):
            raise InvalidConfigError("map must be a 1-D integer permutation of range(len(map))")
        object.__setattr__(self, "map", m.astype(np.int64, copy=False))

    @property
    def n(self) -> int:
        return len(self.map)

    @staticmethod
    def identity(n: int) -> "SpatialPermutation":
        if not (_is_int(n) and n >= 0):
            raise InvalidConfigError(f"extent must be a non-negative integer, got {n!r}")
        return SpatialPermutation(np.arange(n, dtype=np.int64))


def shuffle_extent_error(n: int, m: int, mode: str) -> str | None:
    """Why `mode` cannot permute an axis of `n` tokens in windows of `m`, or None."""
    if mode == "long-range" and n % m:
        return f"window {m} must divide axis extent {n}"
    if mode == "short-range" and n != m and n % (2 * m):
        return f"2*window = {2 * m} must divide axis extent {n}"
    return None


def make_shuffle_permutation(n: int, m: int, mode: str,
                             rng: Rng | None = None) -> SpatialPermutation:
    """Build the shuffle permutation for an axis of `n` tokens, window size `m`.

    none: the identity. long-range: reshape to (m, n/m), transpose, flatten,
    i.e. map[g*m + j] = j*(n/m) + g. short-range: reshape to (n/(2m), m, 2),
    transpose the last two axes, flatten; an axis one window wide is left as
    it is. random: a uniform draw from `rng`.
    """
    if rng is not None:
        _check_arg("make_shuffle_permutation", rng, Rng)
    if not _is_choice(mode, SHUFFLE_MODES):
        raise InvalidConfigError(
            f"unknown shuffle mode {mode!r}; expected one of {SHUFFLE_MODES}")
    if not (_is_int(n) and _is_int(m)) or n < 1 or m < 1:
        raise InvalidConfigError(f"extents must be positive integers, got n={n!r}, m={m!r}")
    problem = shuffle_extent_error(n, m, mode)
    if problem:
        raise InvalidConfigError(problem)
    if mode == "none" or (mode == "short-range" and n == m):
        return SpatialPermutation.identity(n)
    if mode == "long-range":
        perm = np.arange(n, dtype=np.int64).reshape(m, n // m).T.ravel()
        return SpatialPermutation(perm)
    if mode == "short-range":
        perm = np.arange(n, dtype=np.int64).reshape(n // (2 * m), m, 2)
        return SpatialPermutation(perm.transpose(0, 2, 1).ravel())
    if rng is None:
        raise InvalidConfigError("random mode needs an explicit Rng")
    return SpatialPermutation(rng.permutation(n))


def shuffle_permutations(height: int, width: int, m: int, mode: str,
                         rng: Rng | None = None) -> tuple[SpatialPermutation, SpatialPermutation]:
    """Row and column permutations of an (height, width) grid; random mode
    draws the row map from `rng` first, then the column map."""
    return (make_shuffle_permutation(height, m, mode, rng),
            make_shuffle_permutation(width, m, mode, rng))


def invert_permutation(p: SpatialPermutation) -> SpatialPermutation:
    """The alignment permutation: composing with `p` gives the identity."""
    if not isinstance(p, SpatialPermutation):
        raise InvalidConfigError(f"expected a SpatialPermutation, got {type(p).__name__}")
    inv = np.empty(p.n, dtype=np.int64)
    inv[p.map] = np.arange(p.n, dtype=np.int64)
    return SpatialPermutation(inv)


def window_grid(height: int, width: int, m: int) -> tuple[int, int]:
    """(gh, gw): the m x m windows that tile an (height, width) grid."""
    if not all(_is_int(v) and v >= 1 for v in (height, width, m)):
        raise InvalidConfigError(f"grid extents and window size must be positive "
                                 f"integers, got {height!r}, {width!r}, {m!r}")
    if height % m or width % m:
        raise PartitionError(f"grid {height}x{width} is not divisible by window size {m}")
    return height // m, width // m


def _window_index(m: int, perms, extents=None) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) fancy index of shapes (gh, 1, m, 1) and (1, gw, 1, m) that
    reads the ph.n x pw.n grid in (gh, gw, m, m) window order through the
    (ph, pw) permutations; `extents`, when given, must be their lengths."""
    if not (isinstance(perms, (tuple, list)) and len(perms) == 2
            and all(isinstance(p, SpatialPermutation) for p in perms)):
        raise InvalidConfigError("perms must be a (row, column) pair of SpatialPermutations")
    ph, pw = perms
    if extents is not None and extents != (ph.n, pw.n):
        raise InvalidShapeError(
            f"permutation lengths ({ph.n}, {pw.n}) do not match grid {extents}")
    gh, gw = window_grid(ph.n, pw.n, m)
    return ph.map.reshape(gh, m)[:, None, :, None], pw.map.reshape(gw, m)[None, :, None, :]


def _gather_windows(x: np.ndarray, rows, cols) -> np.ndarray:
    """(B, C, H, W) -> (B*gh*gw, C, m, m), reading x through the index."""
    b, c = x.shape[:2]
    gh, gw, m = rows.shape[0], cols.shape[1], rows.shape[2]
    wins = x[:, :, rows, cols].transpose(0, 2, 3, 1, 4, 5).reshape(b * gh * gw, c, m, m)
    return np.ascontiguousarray(wins)


def _scatter_windows(wins: np.ndarray, rows, cols) -> np.ndarray:
    """Inverse of `_gather_windows`: (B*gh*gw, C, m, m) -> (B, C, H, W)."""
    gh, gw, m = rows.shape[0], cols.shape[1], rows.shape[2]
    b, c = wins.shape[0] // (gh * gw), wins.shape[1]
    out = np.empty((b, c, gh * m, gw * m), dtype=wins.dtype)
    out[:, :, rows, cols] = wins.reshape(b, gh, gw, c, m, m).transpose(0, 3, 1, 2, 4, 5)
    return out


def shuffled_window_partition(x: Tensor, m: int, perms) -> Tensor:
    """(B, C, H, W) -> (B*gh*gw, C, m, m) windows of x shuffled by the (ph, pw)
    pair from `shuffle_permutations`, in one gather; see the module docstring."""
    _check_operands("shuffled_window_partition", x)
    if x.ndim != 4:
        raise InvalidShapeError(f"expected a 4-D feature map, got shape {x.shape}")
    rows, cols = _window_index(m, perms, x.shape[2:])

    def vjp(g):
        return (_scatter_windows(g, rows, cols),)

    return result_of(_gather_windows(x.data, rows, cols), (x,), vjp)


def aligned_window_reverse(wins: Tensor, m: int, perms) -> Tensor:
    """Exact inverse of `shuffled_window_partition` for the same permutations;
    the grid it restores is ph.n x pw.n."""
    _check_operands("aligned_window_reverse", wins)
    rows, cols = _window_index(m, perms)
    per_image = rows.shape[0] * cols.shape[1]
    if wins.ndim != 4 or wins.shape[2:] != (m, m):
        raise InvalidShapeError(f"expected (*, C, {m}, {m}) windows, got {wins.shape}")
    if wins.shape[0] % per_image:
        raise InvalidShapeError(
            f"{wins.shape[0]} windows is not a multiple of the {per_image} per image")

    def vjp(g):
        return (_gather_windows(g, rows, cols),)

    return result_of(_scatter_windows(wins.data, rows, cols), (wins,), vjp)
