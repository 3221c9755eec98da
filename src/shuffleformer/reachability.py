"""Empirical and exact receptive-field analysis on the token grid.

`reachability_probe` measures which input positions influence a chosen
output position of a small block stack by one-sided finite differences over
HW+1 images, the base and one copy per position with epsilon added there; a
position counts as influential when (bumped - base) / epsilon exceeds
`threshold` relative to max(1, |base output|). The images go through the
stack in chunks of max(1, _CHUNK_ELEMS // (HW·workers)) images on worker
threads that take chunks from every weight seed: two where the process may use
two CPUs and BLAS runs one thread, else one. A chunk builds its images from its
seed's base image and writes only its rows of that seed's (HW+1, 1) probe
column, so the chunks in flight hold about _CHUNK_ELEMS values per channel
between them and the (HW+1)·HW batch is never built. The blocks run in eval
mode, where every op is per-image, so a column is the same bit for bit
wherever the chunks break and however many workers run. Unreachable positions
give a bitwise-zero difference, so the threshold only guards against
accidental cancellation, as does the union over several weight seeds.

`symbolic_reachability` composes the layers' index relations exactly. The
shuffle, the window partition and the NWC kernel act on rows and columns
independently, so a layer is one boolean relation per axis, rel[i, a] when
output index i reads input index a, and it maps a reached mask to
rel_hᵀ · mask · rel_w. This route shares no code with the probe or the window
gathers and must agree with the probe on every configuration; disagreement
means a bug in one of the two routes.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import itertools
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidConfigError, _is_choice, _is_int, _is_real
from .layers import nwc_padding
from .model import (BlockConfig, BlockParams, _block_entries, _build, _start, block_forward,
                    named_parameters)
from .rng import Rng
from .tensor import _CHUNK_ELEMS, Tensor
from .windowing import SHUFFLE_MODES, invert_permutation, shuffle_permutations, window_grid

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
        if not _is_choice(self.shuffle, SHUFFLE_MODES):
            raise InvalidConfigError(
                f"unknown shuffle mode {self.shuffle!r}; expected one of {SHUFFLE_MODES}")
        if not _is_choice(self.nwc_position, ("A", "B", "C")):
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
    perms = shuffle_permutations(height, width, spec.window, spec.shuffle, Rng(spec.perm_seed))
    state = {}
    for name, shape in _block_entries(cfg).items():
        if name.startswith(("bn1.", "bn2.")):  # the identity, as init leaves it: no draw
            state[name] = _start(name, shape, rng, np.float64)
        else:
            state[name] = rng.normal(shape, _PROBE_STD, dtype=np.float64)
    params = _build(cfg, state, perms)
    for _, param in named_parameters(params):
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
        window_grid(*grid, spec.window)


@functools.cache
def _openblas_threads_query():
    """OpenBLAS's thread-count getter in the library bundled with NumPy, or
    None where NumPy runs on another BLAS."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(dll, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return query
    return None


def _blas_threads() -> int | None:
    """Threads BLAS runs now, or None where that cannot be read."""
    query = _openblas_threads_query()
    return None if query is None else int(query())


def _probe_workers() -> int:
    """Threads the probe runs its chunks on. Only one and two were measured,
    on 2 CPUs. A threaded BLAS spreads the depth-wise conv over the CPUs
    itself, and there its spinning helper threads made two workers slower
    than one."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(2, cpus) if _blas_threads() == 1 else 1


def _probe_columns(stack, grid, probe, rngs, epsilon) -> list[np.ndarray]:
    """Each seed's (HW+1, 1) column of stack outputs at `probe`: row 0 for the
    base image, row 1 + i for the base image with epsilon added at flat
    position i."""
    height, width = grid
    ph, pw = probe
    n = height * width
    seeds = []
    for rng in rngs:
        blocks = [_random_block(spec, height, width, rng) for spec in stack]
        x0 = rng.normal((1, 1, height, width), 1.0, dtype=np.float64)
        seeds.append((blocks, x0, np.empty((n + 1, 1))))
    workers = _probe_workers()
    step = max(1, _CHUNK_ELEMS // (n * workers))
    chunks = itertools.product(seeds, range(0, n + 1, step))
    lock, stop = threading.Lock(), threading.Event()

    def work() -> None:
        try:
            while not stop.is_set():
                with lock:
                    chunk = next(chunks, None)
                if chunk is None:
                    return
                (blocks, x0, column), lo = chunk
                k = min(step, n + 1 - lo)
                images = np.repeat(x0, k, axis=0)
                bumped = np.arange(max(lo, 1), lo + k)  # rows whose image bumps position row - 1
                images.reshape(k, n)[bumped - lo, bumped - 1] += epsilon
                out = Tensor(images)
                for cfg, params in blocks:
                    out = block_forward(out, params, cfg, training=False)
                column[lo:lo + k] = out.data[:, :, ph, pw]
        except BaseException:
            stop.set()  # the other workers finish their current chunk and return
            raise

    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(work) for _ in range(workers)]
        try:
            for future in as_completed(futures):
                future.result()
        finally:
            stop.set()
    return [column for _, _, column in seeds]


def reachability_probe(stack, grid, probe, seeds=PROBE_SEEDS,
                       epsilon: float = PROBE_EPSILON,
                       threshold: float = PROBE_THRESHOLD) -> ReachabilitySet:
    """One-sided finite-difference reachability of `probe` through `BlockSpec`s.

    Runs on two worker threads where the process may use two CPUs and BLAS
    runs one thread, else on one, and re-raises the first exception a worker
    meets; no worker is left running on return."""
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
    union = np.zeros((height, width), dtype=bool)
    for at_probe in _probe_columns(stack, grid, probe, rngs, epsilon):
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
