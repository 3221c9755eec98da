"""Binary container for model checkpoints and standalone tensors.

Layout (all integers little-endian):

    bytes 0..7    magic b"SHFCONT1"
    bytes 8..11   uint32 format version (currently 1)
    bytes 12..15  uint32 header length N
    bytes 16..    N bytes of UTF-8 JSON (sorted keys):
                     {"meta": {...},
                      "tensors": [{"name", "dtype", "shape", "offset", "nbytes"}, ...]}
    then          raw little-endian payload; tensor i starts at payload offset
                  `offset` and is row-major contiguous.

A shape has at most 32 dimensions ([] is a scalar); its non-zero extents times
the item size fit in NumPy's index type, so any supported NumPy allocates it.

Model checkpoints put {"kind": "model", "config": <model config>,
"shuffle_perms": {...}} in meta. They store every parameter, then every
batch-norm running statistic, exactly once. An entry's name is its field path
in the parameter tree, such as "stage0.block1.attn.wq", and entries come in
field order (`named_parameters`, then `named_buffers`), so save -> load -> save
is byte-identical. "shuffle_perms" holds the frozen maps of each random-mode
block, keyed by the block's path: {"stage0.block1": {"h": [...], "w": [...],
"mode": "random"}}. Standalone tensors use {"kind": "tensor"} and one entry
named "data". Save and load run one check of a model file: its entry names
and shapes must be the config's `state_shapes`, and each random-mode block
needs frozen maps that permute its stage side. A save refuses what a load
would refuse, and a load refuses before it allocates or reads a payload.

`load_checkpoint` returns frozen parameters: none has `requires_grad` set, so
a forward through them records no autograd graph. To fine-tune a loaded
model, set `requires_grad = True` on the parameters to train (`requires_grad`
is not stored, so this does not change what a later save writes).
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import CheckpointError, InvalidConfigError
from .model import (BlockParams, ModelConfig, ModelParams, _build, _leaves, named_buffers,
                    named_parameters, state_shapes)
from .windowing import SpatialPermutation

MAGIC = b"SHFCONT1"
VERSION = 1

_DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}
_ENTRY_KEYS = ("name", "dtype", "shape", "offset", "nbytes")
# the most dimensions and bytes every supported NumPy can allocate (NumPy 1.x
# allows 32 dimensions); the bytes leave out zero extents, as NumPy does
_MAX_DIMS = 32
_MAX_BYTES = np.iinfo(np.intp).max


def _is_count(value) -> bool:
    """A non-negative JSON integer (JSON booleans decode to bool, not int)."""
    return type(value) is int and value >= 0


def _checked_entries(path, header) -> list[dict]:
    """The header's tensor entries, each with every key present and well-typed."""
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("tensors"), list)):
        raise CheckpointError(f"{path}: header must be an object with 'meta' and 'tensors'")
    for i, entry in enumerate(header["tensors"]):
        if not isinstance(entry, dict) or any(k not in entry for k in _ENTRY_KEYS):
            raise CheckpointError(
                f"{path}: tensor entry {i} must be an object with keys {list(_ENTRY_KEYS)}")
        if not (isinstance(entry["name"], str) and isinstance(entry["dtype"], str)
                and isinstance(entry["shape"], list) and all(map(_is_count, entry["shape"]))
                and _is_count(entry["offset"]) and _is_count(entry["nbytes"])):
            raise CheckpointError(
                f"{path}: tensor entry {i} needs a string name and dtype and non-negative "
                f"integer shape, offset and nbytes")
    return header["tensors"]


def write_container(path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    """Write the header, then each tensor's bytes straight from its array."""
    _check_path(path)
    # not ascontiguousarray, which turns a 0-d array into a 1-d one
    arrays = [(name, np.asarray(arr, order="C")) for name, arr in tensors.items()]
    entries = []
    offset = 0
    for name, arr in arrays:
        if arr.dtype.name not in _DTYPES:
            raise CheckpointError(f"tensor {name!r}: unsupported dtype {arr.dtype.name}")
        if arr.ndim > _MAX_DIMS:
            raise CheckpointError(f"tensor {name!r}: more than {_MAX_DIMS} dimensions")
        entries.append({"name": name, "dtype": arr.dtype.name,
                        "shape": list(arr.shape), "offset": offset, "nbytes": arr.nbytes})
        offset += arr.nbytes
    try:
        header = json.dumps({"meta": meta, "tensors": entries},
                            sort_keys=True, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: meta cannot be written as JSON ({exc})") from exc
    try:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            for _, arr in arrays:
                fh.write(arr.astype(_DTYPES[arr.dtype.name], copy=False).data)
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot write ({exc.strerror or exc})") from exc


def _read_header(fh, path) -> tuple[dict, list[dict]]:
    """Meta and tensor entries of an open container. Every entry is checked,
    its payload against the file size, before anything is allocated; its
    offset is made relative to the start of the file."""
    head = fh.read(16)
    if len(head) < 16 or head[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint container (bad magic)")
    version, header_len = struct.unpack("<II", head[8:])
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    size = os.fstat(fh.fileno()).st_size
    try:
        header = json.loads(fh.read(min(header_len, size - 16)).decode("utf-8"))
    # a bad encoding or JSON, an integer past Python's digit limit (all
    # ValueErrors) or arrays nested past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
    payload_len = max(size - 16 - header_len, 0)
    names = set()
    for entry in _checked_entries(path, header):
        name = entry["name"]
        if name in names:
            raise CheckpointError(f"{path}: duplicate tensor {name!r}")
        names.add(name)
        dtype = _DTYPES.get(entry["dtype"])
        if dtype is None:
            raise CheckpointError(f"{path}: tensor {name!r} has unknown dtype {entry['dtype']!r}")
        if len(entry["shape"]) > _MAX_DIMS \
                or math.prod(filter(None, entry["shape"])) * dtype.itemsize > _MAX_BYTES:
            raise CheckpointError(f"{path}: tensor {name!r} has a shape NumPy cannot allocate")
        if entry["nbytes"] != math.prod(entry["shape"]) * dtype.itemsize \
                or entry["offset"] + entry["nbytes"] > payload_len:
            raise CheckpointError(f"{path}: tensor {name!r} payload is truncated or mis-sized")
        entry["offset"] += 16 + header_len
    return header["meta"], header["tensors"]


def _read_into(fh, path, entry: dict, out: np.ndarray) -> None:
    """Read one checked entry's payload into `out`, an array of its shape;
    only a dtype conversion goes through a temporary."""
    stored = _DTYPES[entry["dtype"]]
    buf = out if out.dtype == stored else np.empty(out.shape, stored)
    fh.seek(entry["offset"])
    if fh.readinto(buf.reshape(-1).view(np.uint8)) != entry["nbytes"]:
        raise CheckpointError(f"{path}: tensor {entry['name']!r} payload is truncated")
    if buf is not out:
        out[...] = buf


def _check_path(path) -> None:
    # open() takes an int as a file descriptor, reads it and closes it
    if not isinstance(path, (str, os.PathLike)):
        raise CheckpointError(f"a container path must be a str or os.PathLike, not {path!r}")


def _open(path):
    _check_path(path)
    try:
        return open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read ({exc.strerror or exc})") from exc


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Meta and every tensor of a container, each read into a fresh array."""
    with _open(path) as fh:
        meta, entries = _read_header(fh, path)
        tensors = {}
        for entry in entries:
            arr = np.empty(entry["shape"], _DTYPES[entry["dtype"]].newbyteorder("="))
            _read_into(fh, path, entry, arr)
            tensors[entry["name"]] = arr
    return meta, tensors


def _state_dict(params: ModelParams) -> dict[str, np.ndarray]:
    state = {name: t.data for name, t in named_parameters(params)}
    state.update({name: buf for name, buf in named_buffers(params)})
    return state


def _frozen_perms(params: ModelParams) -> dict:
    """The frozen maps of each random-mode block, keyed by the block's path."""
    return {key: {"h": blk.shuffle_perms[0].map.tolist(),
                  "w": blk.shuffle_perms[1].map.tolist(), "mode": "random"}
            for key, blk in _leaves(params, BlockParams) if blk.shuffle_perms is not None}


def _checked_state(path, cfg: ModelConfig, found: dict[str, tuple], stored) -> dict:
    """Refuse a model file unless its entry shapes, `found`, are `state_shapes(cfg)`
    and `stored`, meta's "shuffle_perms", holds each random-mode block's maps;
    return those maps, checked, keyed by block path."""
    expected = state_shapes(cfg)
    missing = [name for name in expected if name not in found]
    unexpected = [name for name in found if name not in expected]
    if missing or unexpected:
        raise CheckpointError(
            f"{path}: missing parameters {missing}; unexpected parameters {unexpected}")
    for name, shape in expected.items():
        if found[name] != shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {found[name]}, expected {shape}")
    if not isinstance(stored, dict):
        raise CheckpointError(f"{path}: shuffle_perms must be an object")
    perms = {}
    for s in range(cfg.stages):
        for i in range(cfg.depths[s]):
            if cfg.block_config(s, i).shuffle_mode != "random":
                continue
            key = f"stage{s}.block{i}"
            if key not in stored:
                raise CheckpointError(f"{path}: missing frozen permutations for {key}")
            perms[key] = _stored_perms(path, key, stored[key], cfg.stage_resolution(s))
    return perms


def _with_extra(path, meta: dict, extra_meta) -> dict:
    """`meta` plus the caller's `extra_meta`, which may replace none of its keys."""
    if extra_meta is None:
        return meta
    if not isinstance(extra_meta, dict) or meta.keys() & extra_meta.keys():
        raise CheckpointError(f"{path}: extra_meta must be a dict without the keys {sorted(meta)}")
    return {**meta, **extra_meta}


def save_checkpoint(path, params: ModelParams, cfg: ModelConfig,
                    extra_meta: dict | None = None) -> None:
    """Write `params` and `cfg`. Params that `load_checkpoint` would refuse for
    `cfg`, by an entry's name or shape or a frozen map, are refused before the
    file is opened."""
    if not (isinstance(params, ModelParams) and isinstance(cfg, ModelConfig)):
        raise CheckpointError(f"{path}: save_checkpoint takes ModelParams and a ModelConfig, "
                              f"got {type(params).__name__} and {type(cfg).__name__}")
    state = _state_dict(params)
    perms = _frozen_perms(params)
    _checked_state(path, cfg, {name: arr.shape for name, arr in state.items()}, perms)
    meta = {"kind": "model", "config": cfg.to_dict(), "shuffle_perms": perms}
    write_container(path, state, _with_extra(path, meta, extra_meta))


def load_checkpoint(path, dtype=np.float32) -> tuple[ModelParams, ModelConfig, dict]:
    """Rebuild parameters from a container, validating every name and shape
    and every frozen map before anything is allocated. Nothing is drawn at
    random: each stored tensor is read straight into an array of its entry's
    shape, and the tree is built over those arrays. The parameters come back
    frozen (`requires_grad` False)."""
    if dtype not in _DTYPES.values():
        raise CheckpointError(f"{path}: loads into float32 or float64, not {dtype!r}")
    with _open(path) as fh:
        meta, entries = _read_header(fh, path)
        if meta.get("kind") != "model":
            raise CheckpointError(f"{path}: container holds {meta.get('kind')!r}, not a model")
        try:
            cfg = ModelConfig.from_dict(meta.get("config"))
        except InvalidConfigError as exc:
            raise CheckpointError(f"{path}: bad model config: {exc}") from exc
        # every block stores tensors, so this bounds the walk over the config
        if sum(cfg.depths) > len(entries):
            raise CheckpointError(f"{path}: {len(entries)} stored tensors hold too few values")
        stored = {entry["name"]: entry for entry in entries}
        shapes = {name: tuple(entry["shape"]) for name, entry in stored.items()}
        perms = _checked_state(path, cfg, shapes, meta.get("shuffle_perms", {}))
        state = {name: np.empty(shape, dtype) for name, shape in shapes.items()}
        for name, arr in state.items():
            _read_into(fh, path, stored[name], arr)
    params = _build(cfg, state, perms)
    for _, param in named_parameters(params):
        param.requires_grad = False
    return params, cfg, meta


def _stored_perms(path, key: str, entry, side: int) -> tuple[SpatialPermutation,
                                                              SpatialPermutation]:
    """One block's frozen (h, w) permutations, each checked to be a permutation
    of range(side); the length is checked before range(side) is built."""
    if not isinstance(entry, dict) or entry.get("mode") != "random":
        raise CheckpointError(f"{path}: frozen permutations for {key} lack mode 'random'")
    perms = []
    for axis in ("h", "w"):
        values = entry.get(axis)
        if not (isinstance(values, list) and len(values) == side
                and all(type(v) is int for v in values)
                and sorted(values) == list(range(side))):
            raise CheckpointError(
                f"{path}: frozen {axis!r} map for {key} is not a permutation of range({side})")
        perms.append(SpatialPermutation(np.asarray(values, np.int64)))
    return perms[0], perms[1]


def save_tensor(path, array: np.ndarray, extra_meta: dict | None = None) -> None:
    write_container(path, {"data": np.asarray(array)},
                    _with_extra(path, {"kind": "tensor"}, extra_meta))


def load_tensor(path) -> tuple[np.ndarray, dict]:
    meta, tensors = read_container(path)
    if meta.get("kind") != "tensor" or "data" not in tensors:
        raise CheckpointError(f"{path}: container does not hold a single tensor")
    return tensors["data"], meta
