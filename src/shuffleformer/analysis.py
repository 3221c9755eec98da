"""Parameter and closed-form FLOP accounting for any model configuration.

Counting convention: one multiply-accumulate = one FLOP. Convolutions cost
k^2 * Cin * Cout * out_h * out_w / groups; window attention costs
4*h*w*C^2 for the four projections plus 2*M^2*h*w*C for the two attention
matmuls. Batch norm, activations, softmax, residual adds, pooling, and the
window/shuffle permutations are counted as zero. Parameter counts include
weights, biases, and batch-norm affine pairs; they are independent of the
input resolution. They are summed from `model.state_shapes`, the one
statement of the parameter tree.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

from .errors import InvalidConfigError, _is_int
from .model import _STATS, BlockConfig, ModelConfig, _nwc_channels, state_shapes

CONVENTION = ("1 MAC = 1 FLOP; conv k^2*Cin*Cout*HW/groups; attention "
              "4*HW*C^2 + 2*M^2*HW*C; norms/activations/softmax/residuals/"
              "permutations counted as zero")


@dataclass(frozen=True)
class CostRow:
    name: str
    params: int
    flops: int


@dataclass
class CostReport:
    rows: list[CostRow]
    resolution: int

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_flops(self) -> int:
        return sum(r.flops for r in self.rows)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# convention: {CONVENTION}\n")
        buf.write(f"# resolution: {self.resolution}\n")
        buf.write("layer,params,flops\n")
        for r in self.rows:
            buf.write(f"{r.name},{r.params},{r.flops}\n")
        buf.write(f"total,{self.total_params},{self.total_flops}\n")
        return buf.getvalue()

    def to_text(self) -> str:
        width = max([len(r.name) for r in self.rows] + [5])
        lines = [f"{'layer':<{width}}  {'params':>12}  {'flops':>16}"]
        for r in self.rows:
            lines.append(f"{r.name:<{width}}  {r.params:>12,}  {r.flops:>16,}")
        lines.append(f"{'total':<{width}}  {self.total_params:>12,}  {self.total_flops:>16,}")
        lines.append("")
        lines.append(f"params: {self.total_params / 1e6:.2f}M   "
                     f"flops: {self.total_flops / 1e9:.3f}G")
        lines.append(f"convention: {CONVENTION}")
        return "\n".join(lines)


def conv_cost(cin: int, cout: int, kernel: int, out_hw: int,
              groups: int = 1) -> tuple[int, int]:
    """(parameters with the bias, MACs) of a square-kernel convolution."""
    if not all(_is_int(v) and v >= 1 for v in (cin, cout, kernel, out_hw, groups)):
        raise InvalidConfigError(f"conv extents must be positive integers, got {cin!r}, "
                                 f"{cout!r}, {kernel!r}, {out_hw!r}, groups={groups!r}")
    params = kernel * kernel * cin * cout // groups + cout
    flops = kernel * kernel * cin * cout * out_hw // groups
    return params, flops


def wmsa_attention_flops(hw: int, channels: int, window_tokens: int) -> int:
    """Projection plus attention matmul cost for attention over groups of
    `window_tokens` tokens; pass hw itself for a hypothetical global variant."""
    return 4 * hw * channels * channels + 2 * window_tokens * hw * channels


def _block_flops(cfg: BlockConfig, prefix: str, hw: int) -> dict[str, int]:
    flops = {f"{prefix}.attn": wmsa_attention_flops(hw, cfg.channels, cfg.window ** 2)}
    nwc_ch = _nwc_channels(cfg)
    if nwc_ch is not None:
        flops[f"{prefix}.nwc"] = conv_cost(nwc_ch, nwc_ch, cfg.window, hw, groups=nwc_ch)[1]
    hidden = cfg.channels * cfg.mlp_ratio
    flops[f"{prefix}.mlp"] = (conv_cost(cfg.channels, hidden, 1, hw)[1]
                              + conv_cost(hidden, cfg.channels, 1, hw)[1])
    return flops


def count_flops(cfg: ModelConfig) -> CostReport:
    """Parameter and FLOP ledger at the config's square input resolution; for
    another, pass `dataclasses.replace(cfg, resolution=r)`. A row's parameters
    are the sizes of its `state_shapes` entries, without the running
    statistics, so they do not depend on the resolution."""
    if not isinstance(cfg, ModelConfig):
        raise InvalidConfigError(f"count_flops needs a ModelConfig, got {type(cfg).__name__}")
    params: dict[str, int] = {}
    for name, shape in state_shapes(cfg).items():
        if not name.endswith(_STATS):
            row = "head.fc" if name in ("head.weight", "head.bias") else name.rpartition(".")[0]
            params[row] = params.get(row, 0) + math.prod(shape)
    res, half, last = cfg.resolution, cfg.channels // 2, cfg.stage_channels(cfg.stages - 1)
    flops = {"embed.conv1": conv_cost(cfg.in_channels, half, 3, (res // 2) ** 2)[1],
             "embed.conv2": conv_cost(half, cfg.channels, 3, (res // 4) ** 2)[1],
             "head.fc": last * cfg.num_classes}
    for stage in range(cfg.stages):
        hw = cfg.stage_resolution(stage) ** 2
        if stage > 0:
            ch = cfg.stage_channels(stage)
            flops[f"stage{stage}.merge"] = conv_cost(ch // 2, ch, 2, hw)[1]
        for index in range(cfg.depths[stage]):
            flops.update(_block_flops(cfg.block_config(stage, index),
                                      f"stage{stage}.block{index}", hw))
    return CostReport([CostRow(row, n, flops.get(row, 0)) for row, n in params.items()], res)
