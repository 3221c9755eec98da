"""2-D convolution and batch normalization as differentiable primitives.

`conv2d` picks one kernel per kernel kind, each with its own forward and
vector-Jacobian product, all computed in the input's dtype:

- pointwise (1x1, one group, stride 1, no padding): a channel matmul on
  (B, C, H*W), with no padding and no copies of the input;
- depth-wise (one channel per group, stride 1): a shift-and-accumulate over
  the kernel taps on zero-padded rows flattened per (image, channel), so
  that every tap is one slice of each row; the input gradient is the
  transposed tap scatter and the kernel gradient one channel reduction per
  tap;
- anything else (the strided embed and merge convs): im2col + a per-group
  BLAS matmul, whose input-gradient path scatters columns back with one
  strided slice-add per kernel tap.

Padding may be asymmetric, which even kernel extents need to keep resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateBatchError, InvalidConfigError, InvalidShapeError
from .tensor import Tensor, _check_same_dtype, result_of

# padded values per chunk of rows in the depth-wise kernel: unless a single
# row is larger, its three chunk buffers take at most 1.5 MiB in float64
_CHUNK_ELEMS = 1 << 16


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


def _pad_spec(padding) -> tuple[tuple[int, int], tuple[int, int]]:
    """Normalize padding to ((top, bottom), (left, right))."""
    if isinstance(padding, (tuple, list)) and len(padding) == 2 \
            and all(isinstance(p, (tuple, list)) for p in padding):
        (pt, pb), (pl, pr) = padding
        return (int(pt), int(pb)), (int(pl), int(pr))
    ph, pw = _pair(padding)
    return (ph, ph), (pw, pw)


def conv_output_extent(extent: int, kernel: int, stride: int, pad_before: int,
                       pad_after: int) -> int:
    return (extent + pad_before + pad_after - kernel) // stride + 1


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None, stride=1,
           padding=0, groups: int = 1) -> Tensor:
    """Cross-correlate (B, Cin, H, W) with (Cout, Cin/groups, kh, kw).

    Output extent per axis: floor((in + pad_before + pad_after - k)/stride) + 1.
    Differentiable w.r.t. x, w, and bias.
    """
    if x.ndim != 4:
        raise InvalidShapeError(f"expected a 4-D input, got shape {x.shape}")
    if w.ndim != 4:
        raise InvalidShapeError(f"expected a 4-D kernel, got shape {w.shape}")
    _check_same_dtype(x, w, *([bias] if bias is not None else []))
    _, cin, h_in, w_in = x.shape
    cout, cin_g, kh, kw = w.shape
    if groups < 1 or cin % groups or cout % groups:
        raise InvalidConfigError(f"groups={groups} must divide channels {cin}->{cout}")
    if cin_g != cin // groups:
        raise InvalidConfigError(
            f"kernel expects {cin_g} channels per group, input provides {cin // groups}")
    if bias is not None and bias.shape != (cout,):
        raise InvalidShapeError(f"bias shape {bias.shape} != ({cout},)")
    stride = _pair(stride)
    pads = _pad_spec(padding)
    if min(stride) < 1 or min(min(pads)) < 0:
        raise InvalidConfigError(f"stride {stride} must be positive, padding {pads} non-negative")
    oh = conv_output_extent(h_in, kh, stride[0], *pads[0])
    ow = conv_output_extent(w_in, kw, stride[1], *pads[1])
    if oh < 1 or ow < 1:
        raise InvalidShapeError(f"kernel {kh}x{kw} does not fit input {h_in}x{w_in} with padding")

    unit_stride = stride == (1, 1)
    if unit_stride and kh == kw == 1 and groups == 1 and pads == ((0, 0), (0, 0)):
        out, vjp_xw = _pointwise(x.data, w.data)
    elif unit_stride and groups == cin == cout:
        out, vjp_xw = _depthwise(x.data, w.data, pads, (oh, ow))
    else:
        out, vjp_xw = _grouped_im2col(x.data, w.data, stride, pads, groups, (oh, ow))
    if bias is None:
        return result_of(out, (x, w), vjp_xw)
    out += bias.data[None, :, None, None]

    def vjp(g):
        return (*vjp_xw(g), g.sum(axis=(0, 2, 3)))

    return result_of(out, (x, w, bias), vjp)


def _pointwise(x: np.ndarray, w: np.ndarray):
    """1x1 conv as out[b] = W @ x[b] on (B, C, H*W); returns (out, vjp)."""
    batch, cin, h, wd = x.shape
    cout = w.shape[0]
    x3 = x.reshape(batch, cin, h * wd)
    wm = w.reshape(cout, cin)
    out = np.matmul(wm, x3).reshape(batch, cout, h, wd)

    def vjp(g):
        g3 = g.reshape(batch, cout, h * wd)
        gx = np.matmul(wm.T, g3).reshape(x.shape)
        gw = np.matmul(g3, x3.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        return gx, gw

    return out, vjp


def _depthwise(x: np.ndarray, w: np.ndarray, pads, out_hw):
    """Stride-1 conv with one channel per group, tap by tap; returns (out, vjp).

    Every (image, channel) pair is an independent row. Rows are zero-padded
    to width wp = W + left + right (plus one spare row) and flattened, so
    output (i, j) sits at flat index i * wp + j and tap (u, v) reads the input
    at that index plus u * wp + v: each tap is one slice of length oh * wp.
    Columns j >= ow of that slice are discarded; in the vjp they carry a zero
    gradient. Rows go through in chunks of about _CHUNK_ELEMS padded values,
    so the padded copy and the accumulators stay small and cache-resident.
    """
    batch, chans, h, wd = x.shape
    _, _, kh, kw = w.shape
    (pt, pb), (pl, pr) = pads
    oh, ow = out_hw
    hp, wp = h + pt + pb, wd + pl + pr
    n = oh * wp
    rows = batch * chans
    xr = x.reshape(rows, h, wd)
    taps = [(u * kw + v, u * wp + v) for u in range(kh) for v in range(kw)]
    # per-row factor of each tap: (rows, taps, 1)
    wr = np.broadcast_to(w.reshape(1, chans, kh * kw, 1),
                         (batch, chans, kh * kw, 1)).reshape(rows, kh * kw, 1)
    step = max(1, _CHUNK_ELEMS // ((hp + 1) * wp))
    chunks = [slice(r, min(r + step, rows)) for r in range(0, rows, step)]

    def padded(rs: slice) -> np.ndarray:
        xp = np.zeros((rs.stop - rs.start, hp + 1, wp), x.dtype)
        xp[:, pt:pt + h, pl:pl + wd] = xr[rs]
        return xp.reshape(rs.stop - rs.start, -1)

    out = np.empty((rows, oh, ow), x.dtype)
    for rs in chunks:
        xf = padded(rs)
        acc = np.zeros((rs.stop - rs.start, n), x.dtype)
        tmp = np.empty_like(acc)
        for t, s in taps:
            np.multiply(xf[:, s:s + n], wr[rs, t], out=tmp)
            acc += tmp
        out[rs] = acc.reshape(-1, oh, wp)[:, :, :ow]

    def vjp(g):
        gr = g.reshape(rows, oh, ow)
        gx = np.empty((rows, h, wd), x.dtype)
        gw_rows = np.empty((rows, kh * kw), x.dtype)
        for rs in chunks:
            xf = padded(rs)
            gp = np.zeros((rs.stop - rs.start, oh, wp), x.dtype)
            gp[:, :, :ow] = gr[rs]
            gf = gp.reshape(-1, n)
            gxf = np.zeros_like(xf)
            tmp = np.empty_like(gf)
            for t, s in taps:
                np.multiply(gf, wr[rs, t], out=tmp)
                gxf[:, s:s + n] += tmp
                gw_rows[rs, t] = np.einsum("rn,rn->r", gf, xf[:, s:s + n])
            gx[rs] = gxf.reshape(-1, hp + 1, wp)[:, pt:pt + h, pl:pl + wd]
        gw = gw_rows.reshape(batch, chans, kh, kw).sum(axis=0)
        return gx.reshape(x.shape), gw.reshape(w.shape)

    return out.reshape(batch, chans, oh, ow), vjp


def _grouped_im2col(x: np.ndarray, w: np.ndarray, stride, pads, groups: int, out_hw):
    """General grouped conv as im2col + a per-group matmul; returns (out, vjp)."""
    batch, cin, h_in, w_in = x.shape
    cout, cin_g, kh, kw = w.shape
    sh, sw = stride
    (pt, pb), (pl, pr) = pads
    oh, ow = out_hw
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    og = cout // groups
    # (groups, batch*oh*ow, cin_g*kh*kw), group-major channel layout
    cols = win.reshape(batch, groups, cin_g, oh, ow, kh, kw)
    lhs = np.ascontiguousarray(cols.transpose(1, 0, 3, 4, 2, 5, 6)
                               ).reshape(groups, batch * oh * ow, cin_g * kh * kw)
    wm = w.reshape(groups, og, cin_g * kh * kw)
    out = np.matmul(lhs, wm.transpose(0, 2, 1))
    out = out.reshape(groups, batch, oh, ow, og).transpose(1, 0, 4, 2, 3)
    out = np.ascontiguousarray(out).reshape(batch, cout, oh, ow)

    def vjp(g):
        gm = g.reshape(batch, groups, og, oh, ow).transpose(1, 0, 3, 4, 2)
        gm = np.ascontiguousarray(gm).reshape(groups, batch * oh * ow, og)
        gw = np.matmul(gm.transpose(0, 2, 1), lhs).reshape(w.shape)
        gcols = np.matmul(gm, wm)  # (groups, batch*oh*ow, cin_g*kh*kw)
        gcols = gcols.reshape(groups, batch, oh, ow, cin_g, kh, kw)
        gcols = gcols.transpose(1, 0, 4, 2, 3, 5, 6).reshape(batch, cin, oh, ow, kh, kw)
        gxp = np.zeros_like(xp)
        for u in range(kh):
            for v in range(kw):
                gxp[:, :, u:u + oh * sh:sh, v:v + ow * sw:sw] += gcols[:, :, :, :, u, v]
        return np.ascontiguousarray(gxp[:, :, pt:pt + h_in, pl:pl + w_in]), gw

    return out, vjp


@dataclass
class RunningStats:
    """Exponential-moving-average channel statistics used in eval mode."""

    mean: np.ndarray
    var: np.ndarray

    @staticmethod
    def neutral(channels: int, dtype=np.float32) -> "RunningStats":
        return RunningStats(np.zeros(channels, dtype=dtype), np.ones(channels, dtype=dtype))

    def copy(self) -> "RunningStats":
        return RunningStats(self.mean.copy(), self.var.copy())


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, running: RunningStats,
                training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Per-channel normalization of a (B, C, H, W) map.

    Training mode normalizes by the batch statistics over (B, H, W), then
    updates `running` in place (mean with the biased estimate, var with the
    unbiased one). Eval mode is a fixed affine map using `running`.
    """
    if x.ndim != 4:
        raise InvalidShapeError(f"expected a 4-D input, got shape {x.shape}")
    _check_same_dtype(x, gamma, beta)
    batch, channels, height, width = x.shape
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise InvalidShapeError(f"affine params must have shape ({channels},)")
    gam = gamma.data[None, :, None, None]
    bet = beta.data[None, :, None, None]

    if training:
        n_red = batch * height * width
        if n_red < 2:
            raise DegenerateBatchError(
                f"training-mode batchnorm needs >=2 elements per channel, got {n_red}")
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = gam * xhat + bet
        running.mean[...] = (1.0 - momentum) * running.mean + momentum * mean
        running.var[...] = (1.0 - momentum) * running.var \
            + momentum * var * (n_red / max(n_red - 1, 1))

        def vjp(g):
            ghat = g * gam
            gmean = ghat.mean(axis=(0, 2, 3), keepdims=True)
            gdot = (ghat * xhat).mean(axis=(0, 2, 3), keepdims=True)
            gx = inv_std[None, :, None, None] * (ghat - gmean - xhat * gdot)
            return (gx.astype(x.dtype),
                    (g * xhat).sum(axis=(0, 2, 3)).astype(x.dtype),
                    g.sum(axis=(0, 2, 3)).astype(x.dtype))
    else:
        inv_std = 1.0 / np.sqrt(running.var + eps)
        xhat = (x.data - running.mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = gam * xhat + bet

        def vjp(g):
            return ((g * gam * inv_std[None, :, None, None]).astype(x.dtype),
                    (g * xhat).sum(axis=(0, 2, 3)).astype(x.dtype),
                    g.sum(axis=(0, 2, 3)).astype(x.dtype))

    return result_of(out.astype(x.dtype), (x, gamma, beta), vjp)


@dataclass
class BnParams:
    """Learnable affine plus running statistics for one batch-norm layer."""

    gamma: Tensor
    beta: Tensor
    running: RunningStats = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.running is None:
            self.running = RunningStats.neutral(self.gamma.size, self.gamma.dtype)

    @staticmethod
    def identity(channels: int, dtype=np.float32, trainable: bool = True) -> "BnParams":
        return BnParams(Tensor(np.ones(channels, dtype=dtype), requires_grad=trainable),
                        Tensor(np.zeros(channels, dtype=dtype), requires_grad=trainable))


def apply_bn(x: Tensor, p: BnParams, training: bool, momentum: float = 0.1,
             eps: float = 1e-5) -> Tensor:
    return batchnorm2d(x, p.gamma, p.beta, p.running, training, momentum, eps)
