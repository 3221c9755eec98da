"""Empirical and exact receptive-field analysis on the token grid.

`reachability_probe` measures which input positions influence a chosen
output position of a small block stack by central finite differences: one
batched forward evaluates all +/- perturbations, and a position counts as
influential when the derivative estimate exceeds `threshold` relative to
max(1, |base output|). Unreachable positions give a bitwise-zero difference,
so the threshold only guards against accidental cancellation, which is
further mitigated by taking the union over several weight seeds.

`symbolic_reachability` composes the window/shuffle/kernel index relations
exactly and must agree with the probe on every configuration; disagreement
means a bug in one of the two routes.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .conv import BnParams
from .errors import InvalidConfigError
from .layers import MlpParams, NwcParams, WmsaParams, nwc_padding
from .model import BlockConfig, BlockParams, block_forward
from .rng import Rng
from .tensor import Tensor
from .windowing import (SHUFFLE_MODES, SpatialPermutation, invert_permutation,
                        shuffle_permutations)

PROBE_THRESHOLD = 1e-9
PROBE_EPSILON = 1e-4
PROBE_SEEDS = (0, 1, 2)
_PROBE_STD = 0.5
_PROBE_MLP_RATIO = 2


@dataclass(frozen=True)
class BlockSpec:
    """One block of a probe stack: window size, shuffle mode, optional NWC."""

    window: int
    shuffle: str = "none"
    nwc: bool = False
    nwc_position: str = "B"
    perm_seed: int = 0  # only read in random mode; shared by probe and oracle

    def __post_init__(self):
        if self.shuffle not in SHUFFLE_MODES:
            raise InvalidConfigError(
                f"unknown shuffle mode {self.shuffle!r}; expected one of {SHUFFLE_MODES}")
        if self.nwc_position not in ("A", "B", "C"):
            raise InvalidConfigError(f"unknown NWC position {self.nwc_position!r}")


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
        return ReachabilitySet(tuple(probe), mask.shape, members, threshold,
                               tuple(seeds), method)


def _random_block(spec: BlockSpec, height: int, width: int, rng: Rng) -> tuple[BlockConfig, BlockParams]:
    """One-channel block with dense random weights (zeros would mask reachability)."""
    dt = np.float64

    def weight(shape):
        arr = rng.normal(shape, _PROBE_STD, dtype=dt)
        if np.abs(arr).max() == 0.0:
            raise InvalidConfigError("degenerate all-zero probe weights")
        return Tensor(arr)

    cfg = BlockConfig(1, 1, spec.window, spec.shuffle,
                      spec.nwc_position if spec.nwc else "none")
    # keywords in draw order: the four projections, then their biases
    attn = WmsaParams(1, wq=weight((1, 1, 1, 1)), wk=weight((1, 1, 1, 1)),
                      wv=weight((1, 1, 1, 1)), wo=weight((1, 1, 1, 1)),
                      bq=weight((1,)), bk=weight((1,)), bv=weight((1,)), bo=weight((1,)))
    nwc = None
    if spec.nwc:
        ch = _PROBE_MLP_RATIO if spec.nwc_position == "C" else 1
        nwc = NwcParams(weight((ch, 1, spec.window, spec.window)), weight((ch,)))
    hidden = _PROBE_MLP_RATIO
    mlp = MlpParams(weight((hidden, 1, 1, 1)), weight((hidden,)),
                    weight((1, hidden, 1, 1)), weight((1,)))
    params = BlockParams(BnParams.identity(1, dt, trainable=False), attn, nwc,
                         BnParams.identity(1, dt, trainable=False), mlp,
                         shuffle_permutations(height, width, spec.window, spec.shuffle,
                                              Rng(spec.perm_seed)))
    return cfg, params


def _stack_forward(x: Tensor, blocks) -> Tensor:
    for cfg, params in blocks:
        x = block_forward(x, params, cfg, training=False)
    return x


def _check_query(stack, grid, probe) -> None:
    """The checks both routes make before building anything: every stack
    element is a BlockSpec and the probe is an (h, w) pair inside the grid."""
    for spec in stack:
        if not isinstance(spec, BlockSpec):
            raise InvalidConfigError(f"unknown stack element {spec!r}")
    if not (len(grid) == len(probe) == 2 and all(0 <= p < g for p, g in zip(probe, grid))):
        raise InvalidConfigError(f"probe {probe} outside grid {grid}")


def reachability_probe(stack, grid, probe, seeds=PROBE_SEEDS,
                       epsilon: float = PROBE_EPSILON,
                       threshold: float = PROBE_THRESHOLD) -> ReachabilitySet:
    """Finite-difference reachability of `probe` through a stack of `BlockSpec`s."""
    _check_query(stack, grid, probe)
    if len(seeds) == 0:
        raise InvalidConfigError("the probe needs at least one weight seed")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise InvalidConfigError(f"epsilon must be positive and finite, got {epsilon}")
    if not (math.isfinite(threshold) and threshold >= 0):
        raise InvalidConfigError(f"threshold must be non-negative and finite, got {threshold}")
    height, width = grid
    ph, pw = probe
    union = np.zeros((height, width), dtype=bool)
    n = height * width
    for seed in seeds:
        rng = Rng(seed)
        blocks = [_random_block(spec, height, width, rng) for spec in stack]
        x0 = rng.normal((1, 1, height, width), 1.0, dtype=np.float64)
        batch = np.repeat(x0, 2 * n + 1, axis=0)
        flat = batch.reshape(2 * n + 1, -1)
        idx = np.arange(n)
        flat[1 + idx, idx] += epsilon
        flat[1 + n + idx, idx] -= epsilon
        out = _stack_forward(Tensor(batch), blocks).data
        at_probe = out[:, :, ph, pw]
        base_scale = max(1.0, float(np.abs(at_probe[0]).max()))
        deriv = np.abs(at_probe[1:1 + n] - at_probe[1 + n:]).max(axis=1) / (2 * epsilon)
        union |= (deriv > threshold * base_scale).reshape(height, width)
    return ReachabilitySet.from_mask(union, probe, threshold, tuple(seeds), "fd")


# ---------------------------------------------------------------------------
# exact relation composition


def _axis_sources(perm: SpatialPermutation, m: int) -> np.ndarray:
    """sources[i] = the m axis positions that feed aligned output position i."""
    inv = invert_permutation(perm).map
    window_index = inv // m
    members = window_index[:, None] * m + np.arange(m)[None, :]
    return perm.map[members]


def _apply_wmsa(mask: np.ndarray, perms, m: int) -> np.ndarray:
    src_h = _axis_sources(perms[0], m)
    src_w = _axis_sources(perms[1], m)
    out = mask.copy()  # residual path keeps every current position
    for i, j in zip(*np.nonzero(mask)):
        out[np.ix_(src_h[i], src_w[j])] = True
    return out


def _apply_nwc(mask: np.ndarray, extent: int) -> np.ndarray:
    pad_before, _ = nwc_padding(extent)
    offsets = np.arange(extent) - pad_before
    height, width = mask.shape
    out = mask.copy()
    for i, j in zip(*np.nonzero(mask)):
        rows = i + offsets
        cols = j + offsets
        rows = rows[(rows >= 0) & (rows < height)]
        cols = cols[(cols >= 0) & (cols < width)]
        out[np.ix_(rows, cols)] = True
    return out


def symbolic_reachability(stack, grid, probe) -> ReachabilitySet:
    """Exact reachability of `probe` via set composition of the layer relations,
    walking the stack from its last layer back to its input."""
    _check_query(stack, grid, probe)
    height, width = grid
    mask = np.zeros((height, width), dtype=bool)
    mask[probe[0], probe[1]] = True
    for spec in reversed(stack):
        perms = shuffle_permutations(height, width, spec.window, spec.shuffle,
                                     Rng(spec.perm_seed))
        nwc_before_attn = spec.nwc and spec.nwc_position == "A"
        if spec.nwc and not nwc_before_attn:
            mask = _apply_nwc(mask, spec.window)
        mask = _apply_wmsa(mask, perms, spec.window)
        if nwc_before_attn:
            mask = _apply_nwc(mask, spec.window)
    return ReachabilitySet.from_mask(mask, probe)


def render_mask(reach: ReachabilitySet) -> str:
    """ASCII picture: '#' reachable, '.' not, 'O' the probe position."""
    mask = reach.mask()
    rows = []
    for i in range(mask.shape[0]):
        row = "".join("O" if (i, j) == tuple(reach.probe) else
                      ("#" if mask[i, j] else ".") for j in range(mask.shape[1]))
        rows.append(row)
    return "\n".join(rows)


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
