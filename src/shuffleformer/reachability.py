"""Empirical and exact receptive-field analysis on the token grid.

`reachability_probe` measures which input positions influence a chosen
output position of a small block stack by one-sided finite differences over
HW+1 images, the base and one copy per position with epsilon added there; a
position counts as influential when (bumped - base) / epsilon exceeds
`threshold` relative to max(1, |base output|). The batch is built once per
weight seed and goes through the stack in slices of max(1, _CHUNK_ELEMS // HW)
images, keeping only each slice's probe column, so each activation holds about
_CHUNK_ELEMS values per channel instead of (HW+1)·HW; the blocks run in eval
mode, where every op is per-image, so the column equals that of one
whole-batch forward bit for bit. Unreachable positions give a bitwise-zero
difference, so the threshold only guards against accidental cancellation, as
does the union over several weight seeds.

`symbolic_reachability` composes the layers' index relations exactly. The
shuffle, the window partition and the NWC kernel act on rows and columns
independently, so a layer is one boolean relation per axis, rel[i, a] when
output index i reads input index a, and it maps a reached mask to
rel_hᵀ · mask · rel_w. This route shares no code with the probe or the window
gathers and must agree with the probe on every configuration; disagreement
means a bug in one of the two routes.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, _is_int, _is_real
from .layers import nwc_padding
from .model import BlockConfig, BlockParams, block_forward, init_block_params, named_parameters
from .rng import Rng
from .tensor import _CHUNK_ELEMS, Tensor
from .windowing import SHUFFLE_MODES, WindowGrid, invert_permutation, shuffle_permutations

PROBE_THRESHOLD = 1e-9
PROBE_EPSILON = 1e-4
PROBE_SEEDS = (0, 1, 2)
_PROBE_STD = 0.5


@dataclass(frozen=True)
class BlockSpec:
    """One block of a probe stack: window size, shuffle mode, optional NWC."""

    window: int
    shuffle: str = "none"
    nwc: bool = False
    nwc_position: str = "B"
    perm_seed: int = 0  # only read in random mode; shared by probe and oracle

    def __post_init__(self):
        if not (_is_int(self.window) and self.window >= 1):
            raise InvalidConfigError(f"window {self.window!r} must be a positive integer")
        if not isinstance(self.nwc, bool):
            raise InvalidConfigError(f"nwc {self.nwc!r} must be true or false")
        if self.shuffle not in SHUFFLE_MODES:
            raise InvalidConfigError(
                f"unknown shuffle mode {self.shuffle!r}; expected one of {SHUFFLE_MODES}")
        if self.nwc_position not in ("A", "B", "C"):
            raise InvalidConfigError(f"unknown NWC position {self.nwc_position!r}")
        # NumPy integers pass the checks; keep Python ints so reports serialize
        object.__setattr__(self, "window", int(self.window))
        if _is_int(self.perm_seed):  # any other seed is refused by Rng
            object.__setattr__(self, "perm_seed", int(self.perm_seed))


@dataclass(frozen=True)
class ReachabilitySet:
    probe: tuple[int, int]
    grid: tuple[int, int]
    members: frozenset
    threshold: float
    seeds: tuple[int, ...]
    method: str = "fd"

    def mask(self) -> np.ndarray:
        out = np.zeros(self.grid, dtype=bool)
        for h, w in self.members:
            out[h, w] = True
        return out

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, pos) -> bool:
        return tuple(pos) in self.members

    def to_json(self) -> dict:
        return {
            "probe": list(self.probe),
            "grid": list(self.grid),
            "members": sorted([list(m) for m in self.members]),
            "threshold": self.threshold,
            "seeds": list(self.seeds),
            "method": self.method,
        }

    @staticmethod
    def from_mask(mask: np.ndarray, probe, threshold=0.0, seeds=(),
                  method="symbolic") -> "ReachabilitySet":
        members = frozenset((int(h), int(w)) for h, w in zip(*np.nonzero(mask)))
        return ReachabilitySet(tuple(map(int, probe)), tuple(map(int, mask.shape)), members,
                               float(threshold), tuple(map(int, seeds)), method)


def _random_block(spec: BlockSpec, height: int, width: int, rng: Rng) -> tuple[BlockConfig, BlockParams]:
    """A frozen one-channel block with dense random weights (zeros would mask reachability)."""
    cfg = BlockConfig(1, 1, spec.window, spec.shuffle,
                      spec.nwc_position if spec.nwc else "none", mlp_ratio=2)
    params = init_block_params(cfg, None, dtype=np.float64)
    params.shuffle_perms = shuffle_permutations(height, width, spec.window, spec.shuffle,
                                                Rng(spec.perm_seed))
    for name, param in named_parameters(params):
        if not name.startswith(("bn1.", "bn2.")):
            param.data = rng.normal(param.shape, _PROBE_STD, dtype=np.float64)
            if not param.data.any():
                raise InvalidConfigError("degenerate all-zero probe weights")
        param.requires_grad = False
    return cfg, params


def _int_pair(value) -> bool:
    return isinstance(value, (tuple, list)) and len(value) == 2 and all(map(_is_int, value))


def _check_query(stack, grid, probe) -> None:
    """The checks both routes make before building anything: BlockSpecs whose
    windows tile a grid of two positive integers, and an (h, w) probe inside it."""
    if not isinstance(stack, (list, tuple)):
        raise InvalidConfigError(f"the stack must be a list of BlockSpecs, got {stack!r}")
    if not (_int_pair(grid) and min(grid) >= 1):
        raise InvalidConfigError(f"grid extents must be positive integers, got {grid!r}")
    if not (_int_pair(probe) and all(0 <= p < g for p, g in zip(probe, grid))):
        raise InvalidConfigError(f"probe {probe!r} outside grid {grid}")
    for spec in stack:
        if not isinstance(spec, BlockSpec):
            raise InvalidConfigError(f"unknown stack element {spec!r}")
        WindowGrid.for_extents(*grid, spec.window)


def reachability_probe(stack, grid, probe, seeds=PROBE_SEEDS,
                       epsilon: float = PROBE_EPSILON,
                       threshold: float = PROBE_THRESHOLD) -> ReachabilitySet:
    """One-sided finite-difference reachability of `probe` through `BlockSpec`s."""
    _check_query(stack, grid, probe)
    if not (isinstance(seeds, (list, tuple)) and seeds):
        raise InvalidConfigError(f"the probe needs a list of weight seeds, got {seeds!r}")
    rngs = [Rng(seed) for seed in seeds]
    if not (_is_real(epsilon) and math.isfinite(epsilon) and epsilon > 0):
        raise InvalidConfigError(f"epsilon must be a positive finite number, got {epsilon!r}")
    if not (_is_real(threshold) and math.isfinite(threshold) and threshold >= 0):
        raise InvalidConfigError(
            f"threshold must be a non-negative finite number, got {threshold!r}")
    height, width = grid
    ph, pw = probe
    union = np.zeros((height, width), dtype=bool)
    n = height * width
    step = max(1, _CHUNK_ELEMS // n)
    at_probe = np.empty((n + 1, 1))
    for rng in rngs:
        blocks = [_random_block(spec, height, width, rng) for spec in stack]
        x0 = rng.normal((1, 1, height, width), 1.0, dtype=np.float64)
        batch = np.repeat(x0, n + 1, axis=0)
        idx = np.arange(n)
        batch.reshape(n + 1, n)[1 + idx, idx] += epsilon
        for lo in range(0, n + 1, step):
            out = Tensor(batch[lo:lo + step])
            for cfg, params in blocks:
                out = block_forward(out, params, cfg, training=False)
            at_probe[lo:lo + step] = out.data[:, :, ph, pw]
        base_scale = max(1.0, float(np.abs(at_probe[0]).max()))
        deriv = np.abs(at_probe[1:] - at_probe[0]).max(axis=1) / epsilon
        union |= (deriv > threshold * base_scale).reshape(height, width)
    return ReachabilitySet.from_mask(union, probe, threshold, tuple(seeds), "fd")


# ---------------------------------------------------------------------------
# exact relation composition


def _apply_wmsa(mask: np.ndarray, perms, m: int) -> np.ndarray:
    """Index i reads index a when both sit in one window of the permuted axis;
    the relation is reflexive, which keeps the residual path."""
    windows = [invert_permutation(p).map // m for p in perms]
    rel_h, rel_w = (w[:, None] == w[None, :] for w in windows)
    return rel_h.T @ mask @ rel_w


def _apply_nwc(mask: np.ndarray, extent: int) -> np.ndarray:
    """Index i reads index a when -pad_before <= a - i < extent - pad_before."""
    pad_before, _ = nwc_padding(extent)
    offsets = [np.arange(n)[None, :] - np.arange(n)[:, None] for n in mask.shape]
    rel_h, rel_w = ((d >= -pad_before) & (d < extent - pad_before) for d in offsets)
    return rel_h.T @ mask @ rel_w


def symbolic_reachability(stack, grid, probe) -> ReachabilitySet:
    """Exact reachability of `probe` by composing the per-axis layer relations,
    walking the stack from its last layer back to its input."""
    _check_query(stack, grid, probe)
    mask = np.zeros(grid, dtype=bool)
    mask[tuple(probe)] = True
    for spec in reversed(stack):
        perms = shuffle_permutations(*grid, spec.window, spec.shuffle, Rng(spec.perm_seed))
        if spec.nwc and spec.nwc_position != "A":
            mask = _apply_nwc(mask, spec.window)
        mask = _apply_wmsa(mask, perms, spec.window)
        if spec.nwc and spec.nwc_position == "A":
            mask = _apply_nwc(mask, spec.window)
    return ReachabilitySet.from_mask(mask, probe)


def render_mask(reach: ReachabilitySet) -> str:
    """ASCII picture: '#' reachable, '.' not, 'O' the probe position."""
    chars = np.where(reach.mask(), "#", ".")
    chars[tuple(reach.probe)] = "O"
    return "\n".join("".join(row) for row in chars)


def reachability_report(stack, grid, probe, seeds=PROBE_SEEDS,
                        epsilon: float = PROBE_EPSILON,
                        threshold: float = PROBE_THRESHOLD) -> dict:
    """Run both routes, compare, and bundle everything for serialization."""
    fd = reachability_probe(stack, grid, probe, seeds, epsilon, threshold)
    sym = symbolic_reachability(stack, grid, probe)
    return {
        "stack": [dataclasses.asdict(s) for s in stack],
        "fd": fd.to_json(),
        "symbolic": sym.to_json(),
        "agree": fd.members == sym.members,
    }


def dump_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
