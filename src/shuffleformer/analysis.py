"""Closed-form parameter and FLOP accounting for any model configuration.

Counting convention: one multiply-accumulate = one FLOP. Convolutions cost
k^2 * Cin * Cout * out_h * out_w / groups; window attention costs
4*h*w*C^2 for the four projections plus 2*M^2*h*w*C for the two attention
matmuls. Batch norm, activations, softmax, residual adds, pooling, and the
window/shuffle permutations are counted as zero. Parameter counts include
weights, biases, and batch-norm affine pairs; they are independent of the
input resolution.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from .errors import InvalidConfigError, _is_int
from .model import BlockConfig, ModelConfig, _nwc_channels

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


def global_msa_flops(hw: int, channels: int) -> int:
    return wmsa_attention_flops(hw, channels, hw)


def _bn_params(channels: int) -> int:
    return 2 * channels


def _block_rows(cfg: BlockConfig, prefix: str, hw: int) -> list[CostRow]:
    ch, window = cfg.channels, cfg.window
    rows = [
        CostRow(f"{prefix}.bn1", _bn_params(ch), 0),
        CostRow(f"{prefix}.attn", 4 * (ch * ch + ch),
                wmsa_attention_flops(hw, ch, window * window)),
    ]
    nwc_ch = _nwc_channels(cfg)
    if nwc_ch is not None:
        p, f = conv_cost(nwc_ch, nwc_ch, window, hw, groups=nwc_ch)
        rows.append(CostRow(f"{prefix}.nwc", p, f))
    hidden = ch * cfg.mlp_ratio
    p1, f1 = conv_cost(ch, hidden, 1, hw)
    p2, f2 = conv_cost(hidden, ch, 1, hw)
    rows.append(CostRow(f"{prefix}.bn2", _bn_params(ch), 0))
    rows.append(CostRow(f"{prefix}.mlp", p1 + p2, f1 + f2))
    return rows


def count_flops(cfg: ModelConfig) -> CostReport:
    """Parameter and FLOP ledger at the config's square input resolution; for
    another, pass `dataclasses.replace(cfg, resolution=r)`. Parameter counts do
    not depend on the resolution."""
    if not isinstance(cfg, ModelConfig):
        raise InvalidConfigError(f"count_flops needs a ModelConfig, got {type(cfg).__name__}")
    res = cfg.resolution
    rows: list[CostRow] = []
    half = cfg.channels // 2
    p, f = conv_cost(cfg.in_channels, half, 3, (res // 2) ** 2)
    rows.append(CostRow("embed.conv1", p, f))
    rows.append(CostRow("embed.bn1", _bn_params(half), 0))
    p, f = conv_cost(half, cfg.channels, 3, (res // 4) ** 2)
    rows.append(CostRow("embed.conv2", p, f))
    rows.append(CostRow("embed.bn2", _bn_params(cfg.channels), 0))

    for stage in range(cfg.stages):
        hw = cfg.stage_resolution(stage) ** 2
        if stage > 0:
            ch = cfg.stage_channels(stage)
            p, f = conv_cost(ch // 2, ch, 2, hw)
            rows.append(CostRow(f"stage{stage}.merge", p, f))
        for index in range(cfg.depths[stage]):
            rows.extend(_block_rows(cfg.block_config(stage, index),
                                    f"stage{stage}.block{index}", hw))

    last = cfg.stage_channels(cfg.stages - 1)
    rows.append(CostRow("head.bn", _bn_params(last), 0))
    rows.append(CostRow("head.fc", last * cfg.num_classes + cfg.num_classes,
                        last * cfg.num_classes))
    return CostReport(rows, res)
