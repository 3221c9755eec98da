"""Window partition/reverse and the spatial shuffle/alignment permutations.

A spatial permutation acts on one axis of the token grid; the 2-D shuffle
factorizes into independent row and column permutations. The window
partition folds the permutation into its gather, so shuffling costs no extra
pass over the data, and `aligned_window_reverse` undoes both at once.

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

from .errors import InvalidConfigError, InvalidShapeError, PartitionError, _is_choice, _is_int
from .rng import Rng
from .tensor import Tensor, result_of

# the one vocabulary for shuffle modes; configs and checkpoints store "none"
SHUFFLE_MODES = ("none", "long-range", "short-range", "random")


@dataclass(frozen=True, eq=False)
class SpatialPermutation:
    """A bijection over one spatial axis: position k reads source `map[k]`."""

    n: int
    map: np.ndarray

    def __post_init__(self):
        try:
            m = np.asarray(self.map)
        except ValueError:  # a ragged nested sequence
            m = np.asarray(None)
        if not (_is_int(self.n) and m.dtype.kind in "iu" and m.shape == (self.n,)
                and np.array_equal(np.sort(m), np.arange(self.n))):
            raise InvalidConfigError(f"map is not a permutation of range({self.n!r})")
        object.__setattr__(self, "map", m.astype(np.int64, copy=False))

    @staticmethod
    def identity(n: int) -> "SpatialPermutation":
        return SpatialPermutation(n, np.arange(n, dtype=np.int64))


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
        return SpatialPermutation(n, perm)
    if mode == "short-range":
        perm = np.arange(n, dtype=np.int64).reshape(n // (2 * m), m, 2)
        return SpatialPermutation(n, perm.transpose(0, 2, 1).ravel())
    if rng is None:
        raise InvalidConfigError("random mode needs an explicit Rng")
    return SpatialPermutation(n, rng.permutation(n))


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
    return SpatialPermutation(p.n, inv)


@dataclass(frozen=True)
class WindowGrid:
    """Even partition of an (H, W) grid into gh x gw windows of m x m tokens."""

    m: int
    gh: int
    gw: int

    @staticmethod
    def for_extents(height: int, width: int, m: int) -> "WindowGrid":
        if not all(_is_int(v) and v >= 1 for v in (height, width, m)):
            raise InvalidConfigError(f"grid extents and window size must be positive "
                                     f"integers, got {height!r}, {width!r}, {m!r}")
        if height % m or width % m:
            raise PartitionError(
                f"grid {height}x{width} is not divisible by window size {m}")
        return WindowGrid(m, height // m, width // m)

    @property
    def windows(self) -> int:
        return self.gh * self.gw


def _window_index(grid: WindowGrid, perms) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) fancy index that reads the grid in (gh, gw, m, m) window
    order through the (ph, pw) permutations."""
    if not (isinstance(perms, (tuple, list)) and len(perms) == 2
            and all(isinstance(p, SpatialPermutation) for p in perms)):
        raise InvalidConfigError("perms must be a (row, column) pair of SpatialPermutations")
    ph, pw = perms
    height, width = grid.gh * grid.m, grid.gw * grid.m
    if ph.n != height or pw.n != width:
        raise InvalidShapeError(
            f"permutation lengths ({ph.n}, {pw.n}) do not match grid ({height}, {width})")
    src_h = ph.map.reshape(grid.gh, grid.m)
    src_w = pw.map.reshape(grid.gw, grid.m)
    return src_h[:, None, :, None], src_w[None, :, None, :]


def _gather_windows(x: np.ndarray, grid: WindowGrid, rows, cols) -> np.ndarray:
    """(B, C, H, W) -> (B*gh*gw, C, m, m), reading x through the index."""
    b, c = x.shape[:2]
    m = grid.m
    wins = x[:, :, rows, cols].transpose(0, 2, 3, 1, 4, 5).reshape(b * grid.windows, c, m, m)
    return np.ascontiguousarray(wins)


def _scatter_windows(wins: np.ndarray, grid: WindowGrid, rows, cols) -> np.ndarray:
    """Inverse of `_gather_windows`: (B*gh*gw, C, m, m) -> (B, C, H, W)."""
    c, m = wins.shape[1], grid.m
    b = wins.shape[0] // grid.windows
    out = np.empty((b, c, grid.gh * m, grid.gw * m), dtype=wins.dtype)
    out[:, :, rows, cols] = wins.reshape(b, grid.gh, grid.gw, c, m, m).transpose(0, 3, 1, 2, 4, 5)
    return out


def shuffled_window_partition(x: Tensor, m: int, perms) -> Tensor:
    """(B, C, H, W) -> (B*gh*gw, C, m, m) windows of x shuffled by the (ph, pw)
    pair from `shuffle_permutations`, in one gather; see the module docstring."""
    if x.ndim != 4:
        raise InvalidShapeError(f"expected a 4-D feature map, got shape {x.shape}")
    grid = WindowGrid.for_extents(x.shape[2], x.shape[3], m)
    rows, cols = _window_index(grid, perms)

    def vjp(g):
        return (_scatter_windows(g, grid, rows, cols),)

    return result_of(_gather_windows(x.data, grid, rows, cols), (x,), vjp)


def aligned_window_reverse(wins: Tensor, m: int, height: int, width: int,
                           perms) -> Tensor:
    """Exact inverse of `shuffled_window_partition` for the same permutations."""
    if wins.ndim != 4 or wins.shape[2:] != (m, m):
        raise InvalidShapeError(f"expected (*, C, {m}, {m}) windows, got {wins.shape}")
    grid = WindowGrid.for_extents(height, width, m)
    if wins.shape[0] % grid.windows:
        raise InvalidShapeError(
            f"{wins.shape[0]} windows is not a multiple of the {grid.windows} per image")
    rows, cols = _window_index(grid, perms)

    def vjp(g):
        return (_gather_windows(g, grid, rows, cols),)

    return result_of(_scatter_windows(wins.data, grid, rows, cols), (wins,), vjp)
