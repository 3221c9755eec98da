"""Consecutive shuffle blocks, the four-stage hierarchical model, and variants.

A block computes, with batch norm before each learnable stage:

    x = (Shuffle-)WMSA(BN(z)) + z
    y = NWC(x)                       # NWC already includes its residual
    z' = MLP(BN(y)) + y

The neighbor-window connection can sit at position "A" (on the BN output,
before attention), "B" (after the attention residual, as written above),
"C" (between the MLP's two projections, at hidden width), or be absent.
Blocks come in pairs: the first uses the plain window partition, the second
the shuffled one. The model is token embedding, four stages of blocks with
2x2/stride-2 merging in between, then BN -> global average pool -> linear.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .conv import BnParams, ConvParams, apply_bn, conv2d, gelu_conv2d
from .errors import InvalidConfigError, InvalidShapeError, _check_arg, _is_choice, _is_int
from .layers import MlpParams, NwcParams, WmsaParams, mlp_forward, nwc_forward, wmsa_forward
from .rng import Rng
from .tensor import Tensor, _check_operands, _gelu_blocks, add, matmul, mean_pool_hw
from .windowing import (SHUFFLE_MODES, SpatialPermutation, aligned_window_reverse,
                        shuffle_extent_error, shuffle_permutations, shuffled_window_partition)

NWC_POSITIONS = ("A", "B", "C", "none")


def _check_fields(cfg) -> None:
    """Shared by BlockConfig and ModelConfig: int fields, shuffle mode, NWC position."""
    fields = [(f.name, f.type, getattr(cfg, f.name)) for f in dataclasses.fields(cfg)]
    bad = [n for n, t, v in fields if t in ("int", int) and not (_is_int(v) and v >= 1)]
    if bad:
        raise InvalidConfigError(f"expected positive integers for {', '.join(bad)}")
    # NumPy integers pass the check; keep Python ints so configs serialize
    for n, t, v in fields:
        if t in ("int", int):
            object.__setattr__(cfg, n, int(v))
    if not _is_choice(cfg.shuffle_mode, SHUFFLE_MODES):
        raise InvalidConfigError(f"shuffle_mode {cfg.shuffle_mode!r} not in {SHUFFLE_MODES}")
    if not _is_choice(cfg.nwc_position, NWC_POSITIONS):
        raise InvalidConfigError(f"nwc_position {cfg.nwc_position!r} not in {NWC_POSITIONS}")


@dataclass(frozen=True)
class BlockConfig:
    channels: int
    heads: int
    window: int
    shuffle_mode: str = "none"
    nwc_position: str = "B"
    mlp_ratio: int = 4

    def __post_init__(self):
        _check_fields(self)
        if self.channels % self.heads:
            raise InvalidConfigError(
                f"{self.heads} heads do not divide {self.channels} channels")


@dataclass
class BlockParams:
    bn1: BnParams
    attn: WmsaParams
    nwc: NwcParams | None
    bn2: BnParams
    mlp: MlpParams
    # frozen at construction for random shuffle mode; when set, block_forward
    # uses these instead of building the mode's permutations. A tuple, which
    # the parameter walk does not enter: the checkpoint stores them in meta.
    shuffle_perms: tuple[SpatialPermutation, SpatialPermutation] | None = None


# headers written before these values were fixed store them; `from_dict`
# takes, and drops, each only at the one value the model takes
_FIXED_KEYS = {"attn_bias": True, "mlp_ratio": 4, "in_channels": 3}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters for one model variant. RGB input, an MLP
    ratio of 4 and attention biases are fixed, not fields."""

    channels: int
    depths: tuple[int, ...]
    num_classes: int = 1000
    resolution: int = 224
    window: int = 7
    head_dim: int = 32
    shuffle_mode: str = "long-range"
    nwc_position: str = "B"
    in_channels = 3  # RGB input; a class constant, not a field

    def __post_init__(self):
        if not isinstance(self.depths, (list, tuple)) or not all(map(_is_int, self.depths)):
            raise InvalidConfigError(
                f"stage depths must be a list of integers, got {self.depths!r}")
        object.__setattr__(self, "depths", tuple(int(d) for d in self.depths))
        _check_fields(self)
        if not self.depths or any(d < 2 or d % 2 for d in self.depths):
            raise InvalidConfigError(f"stage depths must be positive and even, got {self.depths}")
        if self.channels < 2:
            raise InvalidConfigError(f"base width {self.channels} halves to an empty embed conv")
        if self.channels % self.head_dim:
            raise InvalidConfigError(
                f"head_dim {self.head_dim} does not divide base width {self.channels}")
        if self.resolution % 4:
            raise InvalidConfigError(
                f"input resolution {self.resolution} must be divisible by 4 for embedding")
        res = self.resolution // 4  # halved once per stage: big ints stay cheap
        for stage in range(len(self.depths)):
            if stage:
                if res % 2:
                    raise InvalidConfigError(
                        f"stage {stage - 1} resolution {res} is odd; cannot merge to stage {stage}")
                res //= 2
            if res % self.window:
                raise InvalidConfigError(
                    f"stage {stage} resolution {res} is not divisible by window {self.window}")
            problem = shuffle_extent_error(res, self.window, self.shuffle_mode)
            if problem:
                raise InvalidConfigError(f"{self.shuffle_mode} shuffle at stage {stage}: {problem}")

    @property
    def stages(self) -> int:
        return len(self.depths)

    def stage_channels(self, stage: int) -> int:
        return self.channels * (2 ** stage)

    def stage_heads(self, stage: int) -> int:
        return self.stage_channels(stage) // self.head_dim

    def stage_resolution(self, stage: int) -> int:
        return (self.resolution // 4) >> stage

    def block_config(self, stage: int, index: int) -> BlockConfig:
        """Even block indices use the plain partition, odd ones the shuffled."""
        mode = "none" if index % 2 == 0 else self.shuffle_mode
        return BlockConfig(self.stage_channels(stage), self.stage_heads(stage),
                           self.window, mode, self.nwc_position)

    def to_dict(self) -> dict:
        """JSON-ready field values, with the stage depths as a list."""
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return {**d, "depths": list(self.depths)}

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        """Inverse of `to_dict`; unknown or missing keys raise InvalidConfigError."""
        if not isinstance(d, dict):
            raise InvalidConfigError(f"model config must be a mapping, got {type(d).__name__}")
        for key, value in _FIXED_KEYS.items():
            if key in d and not (type(d[key]) is type(value) and d[key] == value):
                raise InvalidConfigError(f"model config {key} is fixed at {value!r}, "
                                         f"got {d[key]!r}")
        d = {k: v for k, v in d.items() if k not in _FIXED_KEYS}
        fields = dataclasses.fields(ModelConfig)
        unknown = sorted(set(d) - {f.name for f in fields})
        missing = [f.name for f in fields if f.default is dataclasses.MISSING and f.name not in d]
        if unknown or missing:
            raise InvalidConfigError(
                f"model config has unknown keys {unknown} and lacks required keys {missing}")
        return ModelConfig(**d)


_VARIANTS = {
    "T": dict(channels=96, depths=(2, 2, 6, 2)),
    "S": dict(channels=96, depths=(2, 2, 18, 2)),
    "B": dict(channels=128, depths=(2, 2, 18, 2)),
}


def build_variant(name: str, **overrides) -> ModelConfig:
    """The published tiny/small/base configurations (window 7, head width 32)."""
    key = name.upper() if isinstance(name, str) else None
    if key not in _VARIANTS:
        raise InvalidConfigError(
            f"unknown variant {name!r}; valid options: {', '.join(sorted(_VARIANTS))}")
    return ModelConfig.from_dict({**_VARIANTS[key], **overrides})


# ---------------------------------------------------------------------------
# parameter containers
#
# Every parameter container's field order is the checkpoint's entry order, and
# a field path is an entry's name (see `named_parameters`).


@dataclass
class EmbedParams:
    conv1: ConvParams
    bn1: BnParams
    conv2: ConvParams
    bn2: BnParams


@dataclass
class HeadParams:
    bn: BnParams
    weight: Tensor  # (C, num_classes)
    bias: Tensor


@dataclass
class StageParams:
    merge: ConvParams | None  # (2C, C, 2, 2) kernel
    blocks: list[BlockParams]


@dataclass
class ModelParams:
    embed: EmbedParams
    stages: list[StageParams]
    head: HeadParams


def _nwc_channels(cfg: BlockConfig) -> int | None:
    if cfg.nwc_position == "none":
        return None
    return cfg.channels * cfg.mlp_ratio if cfg.nwc_position == "C" else cfg.channels


# Init draws an entry whose name ends in one of _DRAWN from a truncated normal,
# in entry order, starts one ending in _ONES at one and any other at zero.
# _STATS ends the names of the batch-norm running statistics, the buffers.
_DRAWN = (".weight", ".wq", ".wk", ".wv", ".wo", ".w1", ".w2")
_ONES = (".gamma", ".running_var")
_STATS = (".running_mean", ".running_var")
INIT_STD = 0.02


def _bn(name: str, ch: int) -> dict[str, tuple[int, ...]]:
    return {f"{name}.{key}": (ch,) for key in ("gamma", "beta", "running_mean", "running_var")}


def _block_entries(cfg: BlockConfig) -> dict[str, tuple[int, ...]]:
    """The name and shape of each entry of one block, in field order, with the
    batch-norm running statistics in place."""
    ch, hidden, nwc_ch = cfg.channels, cfg.channels * cfg.mlp_ratio, _nwc_channels(cfg)
    entries = _bn("bn1", ch)
    for x in "qkvo":
        entries.update({f"attn.w{x}": (ch, ch, 1, 1), f"attn.b{x}": (ch,)})
    if nwc_ch is not None:
        entries.update({"nwc.kernel": (nwc_ch, 1, cfg.window, cfg.window), "nwc.bias": (nwc_ch,)})
    entries.update(_bn("bn2", ch))
    entries.update({"mlp.w1": (hidden, ch, 1, 1), "mlp.b1": (hidden,),
                    "mlp.w2": (ch, hidden, 1, 1), "mlp.b2": (ch,)})
    return entries


def state_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The name and shape of every entry of `cfg`'s parameter tree, as
    `named_parameters` and then `named_buffers` list them, worked out without
    allocating a weight. Init, checkpoint load and the ledger's parameter
    column all read the tree from here."""
    half, last = cfg.channels // 2, cfg.stage_channels(cfg.stages - 1)
    entries = {"embed.conv1.weight": (half, cfg.in_channels, 3, 3), "embed.conv1.bias": (half,),
               **_bn("embed.bn1", half),
               "embed.conv2.weight": (cfg.channels, half, 3, 3),
               "embed.conv2.bias": (cfg.channels,), **_bn("embed.bn2", cfg.channels)}
    for stage in range(cfg.stages):
        ch = cfg.stage_channels(stage)
        if stage > 0:
            entries.update({f"stage{stage}.merge.weight": (ch, ch // 2, 2, 2),
                            f"stage{stage}.merge.bias": (ch,)})
        for i in range(cfg.depths[stage]):
            entries.update({f"stage{stage}.block{i}.{name}": shape
                            for name, shape in _block_entries(cfg.block_config(stage, i)).items()})
    entries.update({**_bn("head.bn", last), "head.weight": (last, cfg.num_classes),
                    "head.bias": (cfg.num_classes,)})
    # a stable sort: the parameters in field order, then the running statistics
    return dict(sorted(entries.items(), key=lambda entry: entry[0].endswith(_STATS)))


def _start(name: str, shape: tuple[int, ...], rng: Rng, dtype) -> np.ndarray:
    """An entry's starting value."""
    if name.endswith(_DRAWN):
        return rng.trunc_normal(shape, INIT_STD, dtype=dtype)
    return (np.ones if name.endswith(_ONES) else np.zeros)(shape, dtype)


def _build(cfg: ModelConfig | BlockConfig, state: dict[str, np.ndarray], perms):
    """The parameter tree of a model or of one block over the arrays of `state`,
    keyed by entry name. `perms` is a model's frozen maps keyed by block path,
    such as "stage0.block1", or one block's pair or None."""
    def tensor(name):
        return Tensor(state[name], requires_grad=True)

    def conv(name):
        return ConvParams(tensor(f"{name}.weight"), tensor(f"{name}.bias"))

    def bn(name):
        return BnParams(tensor(f"{name}.gamma"), tensor(f"{name}.beta"),
                        state[f"{name}.running_mean"], state[f"{name}.running_var"])

    def block(bcfg, path, pair):
        nwc = (None if bcfg.nwc_position == "none"
               else NwcParams(tensor(f"{path}nwc.kernel"), tensor(f"{path}nwc.bias")))
        return BlockParams(
            bn(f"{path}bn1"),
            WmsaParams(bcfg.heads, *(tensor(f"{path}attn.{w}{x}") for x in "qkvo" for w in "wb")),
            nwc, bn(f"{path}bn2"),
            MlpParams(*(tensor(f"{path}mlp.{key}") for key in ("w1", "b1", "w2", "b2"))), pair)

    if isinstance(cfg, BlockConfig):
        return block(cfg, "", perms)
    stages = [StageParams(conv(f"stage{s}.merge") if s else None,
                          [block(cfg.block_config(s, i), f"stage{s}.block{i}.",
                                 perms.get(f"stage{s}.block{i}"))
                           for i in range(cfg.depths[s])])
              for s in range(cfg.stages)]
    return ModelParams(EmbedParams(conv("embed.conv1"), bn("embed.bn1"), conv("embed.conv2"),
                                   bn("embed.bn2")),
                       stages, HeadParams(bn("head.bn"), tensor("head.weight"), tensor("head.bias")))


def init_block_params(cfg: BlockConfig, rng: Rng, resolution: int | None = None,
                      dtype=np.float32) -> BlockParams:
    """One block's weights drawn from `rng` in entry order; a random-mode block
    first draws its frozen maps for a `resolution`-sided grid."""
    _check_arg("init_block_params", cfg, BlockConfig)
    _check_arg("init_block_params", rng, Rng)
    perms = None
    if cfg.shuffle_mode == "random":
        if resolution is None:
            raise InvalidConfigError("random shuffle mode needs the stage resolution")
        perms = shuffle_permutations(resolution, resolution, cfg.window, "random", rng)
    state = {name: _start(name, shape, rng, dtype) for name, shape in _block_entries(cfg).items()}
    return _build(cfg, state, perms)


def init_model_params(cfg: ModelConfig, rng: Rng, dtype=np.float32) -> ModelParams:
    """Draw all weights from one seeded stream, in the entry order of
    `state_shapes`; a random-mode block draws its frozen maps at its bn1.gamma
    entry, before its attention weights."""
    _check_arg("init_model_params", cfg, ModelConfig)
    _check_arg("init_model_params", rng, Rng)
    sides = {f"stage{s}.block{i}": cfg.stage_resolution(s)
             for s in range(cfg.stages) for i in range(cfg.depths[s])
             if cfg.block_config(s, i).shuffle_mode == "random"}
    state, perms = {}, {}
    for name, shape in state_shapes(cfg).items():
        block = name.removesuffix(".bn1.gamma")
        if block in sides:
            perms[block] = shuffle_permutations(sides[block], sides[block], cfg.window,
                                                "random", rng)
        state[name] = _start(name, shape, rng, dtype)
    return _build(cfg, state, perms)


def _leaves(node, kind, name: str = ""):
    """(field path, value) of every `kind` value in a parameter tree, in field
    order. The items of a list field are named by the field's singular and
    their index: `stages[0].blocks[1]` is "stage0.block1"."""
    if isinstance(node, kind):
        yield name, node
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, kind, f"{name[:-1]}{i}")
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from _leaves(getattr(node, f.name), kind,
                               f"{name}.{f.name}" if name else f.name)


def named_parameters(params: ModelParams | BlockParams):
    """(name, Tensor) of every learnable parameter in field order, such as
    "stage0.block1.attn.wq", or "attn.wq" when `params` is one block."""
    return _leaves(params, Tensor)


def named_buffers(params: ModelParams):
    """(name, array) of every batch-norm running statistic, in field order."""
    return _leaves(params, np.ndarray)


def parameter_list(params: ModelParams) -> list[Tensor]:
    return [t for _, t in named_parameters(params)]


# ---------------------------------------------------------------------------
# forward passes


def block_forward(z: Tensor, params: BlockParams, cfg: BlockConfig,
                  training: bool = False) -> Tensor:
    """One (Shuffle-)WMSA block with the NWC at its configured position."""
    _check_operands("block_forward", z)
    _check_arg("block_forward", params, BlockParams)
    _check_arg("block_forward", cfg, BlockConfig)
    if z.ndim != 4:
        raise InvalidShapeError(f"expected a 4-D feature map, got shape {z.shape}")
    _, c, height, width = z.shape
    if c != cfg.channels:
        raise InvalidConfigError(f"block built for {cfg.channels} channels, input has {c}")
    if cfg.nwc_position != "none" and params.nwc is None:
        raise InvalidConfigError(f"nwc_position={cfg.nwc_position} but no NWC parameters")
    perms = params.shuffle_perms or shuffle_permutations(height, width, cfg.window,
                                                          cfg.shuffle_mode)

    def normed() -> Tensor:  # the attention's input
        zn = apply_bn(z, params.bn1, training)
        return nwc_forward(zn, params.nwc) if cfg.nwc_position == "A" else zn

    # An activation goes to its last reader as an argument, not under a name,
    # and that reader drops it once read: a frozen forward frees it there.
    # A training graph keeps whatever its vjps read.
    m = cfg.window
    x = add(aligned_window_reverse(
        wmsa_forward(shuffled_window_partition(normed(), m, perms), params.attn), m, perms), z)

    y = nwc_forward(x, params.nwc) if cfg.nwc_position == "B" else x
    del x  # the attention residual, once the NWC has read it
    inner = params.nwc if cfg.nwc_position == "C" else None
    return add(mlp_forward(apply_bn(y, params.bn2, training), params.mlp, inner_nwc=inner), y)


def token_embed(image: Tensor, params: EmbedParams, training: bool = False) -> Tensor:
    """Two stride-2 3x3 convolutions with BN and GELU: (B,3,H,W) -> (B,C,H/4,W/4).

    GELU and the second conv are one `gelu_conv2d` op with grad; frozen,
    GELU is written over the first BN's output, as in the MLP."""
    _check_arg("token_embed", params, EmbedParams)
    x = conv2d(image, params.conv1.weight, params.conv1.bias, stride=2, padding=1)
    if image.shape[2] % 4 or image.shape[3] % 4:
        raise InvalidShapeError(f"input extents {image.shape[2:]} must be divisible by 4")
    x = apply_bn(x, params.bn1, training)
    if x.requires_grad:  # the graph keeps the BN output, not GELU of it
        x = gelu_conv2d(x, params.conv2.weight, params.conv2.bias, stride=2, padding=1)
    else:  # nothing else reads the BN output: GELU overwrites it
        _gelu_blocks(x.data, out=x.data)
        x = conv2d(x, params.conv2.weight, params.conv2.bias, stride=2, padding=1)
    return apply_bn(x, params.bn2, training)


def token_merge(x: Tensor, params: ConvParams) -> Tensor:
    """Non-overlapping 2x2 patches projected to doubled channels."""
    _check_arg("token_merge", params, ConvParams)
    out = conv2d(x, params.weight, params.bias, stride=2, padding=0)
    if x.shape[2] % 2 or x.shape[3] % 2:
        raise InvalidShapeError(f"extents {x.shape[2:]} must be even to merge tokens")
    return out


def model_forward(image: Tensor, params: ModelParams, cfg: ModelConfig,
                  training: bool = False) -> Tensor:
    """Full network: embed, stages with merging, BN, global pool, classifier."""
    _check_arg("model_forward", params, ModelParams)
    _check_arg("model_forward", cfg, ModelConfig)
    x = token_embed(image, params.embed, training)
    for stage_index, stage in enumerate(params.stages):
        if stage.merge is not None:
            x = token_merge(x, stage.merge)
        res = x.shape[2]
        if res % cfg.window or x.shape[3] % cfg.window:
            raise InvalidConfigError(
                f"stage {stage_index}: resolution {x.shape[2]}x{x.shape[3]} "
                f"not divisible by window {cfg.window}")
        for i, blk in enumerate(stage.blocks):
            x = block_forward(x, blk, cfg.block_config(stage_index, i), training)
    x = apply_bn(x, params.head.bn, training)
    pooled = mean_pool_hw(x)
    return add(matmul(pooled, params.head.weight), params.head.bias)
