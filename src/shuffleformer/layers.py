"""The three learnable sub-layers of a block.

Window attention: per window, split heads, softmax(Q Kᵀ / sqrt(head_dim)) V,
merge heads, output projection. All four projections are 1x1 convolutions.
There is no positional term, so attention output is equivariant under
permutations of the tokens inside a window.

Neighbor-window connection: a residual depth-wise convolution whose kernel
extent equals the window size. The MLP is two 1x1 convolutions around an
activation, so it is pointwise in space.

In a frozen forward, where no parameter needs grad and no graph is
recorded, each forward drops an activation once its last reader has run,
and the MLP writes GELU over its first projection instead of allocating a
second hidden map. With grad, the graph keeps what its vjps read: GELU and
the second projection are one `gelu_conv2d` op, which keeps the first
projection only, or, with an NWC inside the MLP, the `gelu` op. All give
the same bits.

Each forward leaves its input checks to the ops it calls: its first `conv2d`
refuses a non-Tensor input, a wrong rank and a channel count the weights do
not take, and a later op the other mismatches. A forward checks only what no
op checks: the type of its params, the head count, and that the NWC kernel is
4-D and square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conv import conv2d, gelu_conv2d
from .errors import InvalidConfigError, _check_arg, _is_int
from .tensor import (Tensor, _check_operands, _gelu_blocks, add, gelu, matmul,
                     reshape_permute, scale, softmax_lastdim)


@dataclass
class WmsaParams:
    """Projection weights for window attention, each (C, C, 1, 1), and their
    biases, each (C,)."""

    heads: int
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


def _check_heads(channels: int, heads) -> None:
    if not (_is_int(heads) and heads >= 1 and channels % heads == 0):
        raise InvalidConfigError(
            f"heads must be a positive integer that divides {channels} channels, got {heads!r}")


def wmsa_forward(wins: Tensor, p: WmsaParams) -> Tensor:
    """Multi-head self-attention inside each (m x m)-token window. Windows
    that are not square fail at the head reshape."""
    _check_arg("wmsa_forward", p, WmsaParams)
    q = conv2d(wins, p.wq, p.bq)
    bw, c, m, _ = q.shape
    _check_heads(c, p.heads)
    head_dim = c // p.heads
    tokens = m * m
    k = conv2d(wins, p.wk, p.bk)
    v = conv2d(wins, p.wv, p.bv)
    del wins  # the windows, once projected; each later activation likewise
    # (bw, heads, tokens, head_dim); k stays (bw, heads, head_dim, tokens) as Kᵀ
    q = reshape_permute(q, (bw, p.heads, head_dim, tokens), (0, 1, 3, 2))
    k = reshape_permute(k, (bw, p.heads, head_dim, tokens))
    v = reshape_permute(v, (bw, p.heads, head_dim, tokens), (0, 1, 3, 2))

    attn = softmax_lastdim(scale(matmul(q, k), 1.0 / math.sqrt(head_dim)))
    del q, k
    out = matmul(attn, v)
    del attn, v
    out = reshape_permute(out, (bw, p.heads, tokens, head_dim), (0, 1, 3, 2))
    out = reshape_permute(out, (bw, c, m, m))
    return conv2d(out, p.wo, p.bo)


@dataclass
class NwcParams:
    """Depth-wise kernel with spatial extent equal to the window size. Init
    leaves both at zero, so the connection starts as the identity."""

    kernel: Tensor  # (C, 1, M, M)
    bias: Tensor  # (C,)


def nwc_padding(extent: int) -> tuple[int, int]:
    """Per-axis (before, after) padding that keeps the resolution; an even
    extent puts the extra row/column after."""
    return (extent - 1) // 2, extent // 2


def nwc_forward(x: Tensor, p: NwcParams) -> Tensor:
    """x + depthwise(x); output resolution equals input resolution."""
    _check_arg("nwc_forward", p, NwcParams)
    _check_operands("nwc_forward", p.kernel)
    if p.kernel.ndim != 4 or p.kernel.shape[2] != p.kernel.shape[3]:
        raise InvalidConfigError(f"kernel must be 4-D and square, got {p.kernel.shape}")
    pad = nwc_padding(p.kernel.shape[2])
    local = conv2d(x, p.kernel, p.bias, stride=1, padding=(pad, pad), groups=p.kernel.shape[0])
    return add(x, local)


@dataclass
class MlpParams:
    """Two 1x1 convolutions around the activation; hidden width = ratio * C."""

    w1: Tensor  # (hidden, C, 1, 1)
    b1: Tensor
    w2: Tensor  # (C, hidden, 1, 1)
    b2: Tensor


def mlp_forward(x: Tensor, p: MlpParams, inner_nwc: NwcParams | None = None) -> Tensor:
    """conv1x1 -> GELU -> conv1x1, optionally with a residual depth-wise
    convolution on the hidden activation (the inside-the-MLP placement)."""
    _check_arg("mlp_forward", p, MlpParams)
    h = conv2d(x, p.w1, p.b1)
    del x  # the input, once projected
    if h.requires_grad and inner_nwc is None:  # the graph keeps h, not GELU(h)
        return gelu_conv2d(h, p.w2, p.b2)
    if h.requires_grad:
        h = gelu(h)
    else:  # nothing else reads the projection: GELU overwrites it
        _gelu_blocks(h.data, out=h.data)
    if inner_nwc is not None:
        h = nwc_forward(h, inner_nwc)
    return conv2d(h, p.w2, p.b2)
