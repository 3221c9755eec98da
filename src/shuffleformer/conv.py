"""2-D convolution and batch normalization as differentiable primitives.

`conv2d` has one kernel per kernel family, each computed in the input's dtype:

- dense (one group: the 1x1 projections and MLP, the strided embed and merge
  convs): one (Cout, Cin) @ (Cin, oh*ow) channel matmul per kernel tap on a
  strided view of the input; its vjp adds the transposed matmul into the same
  views of a gradient buffer and reduces the kernel gradient per tap;
- depth-wise (one channel per group, stride 1): every zero-padded row is cut
  into tiles of 2kw - 1 columns, kw apart, and kernel row u is one batched
  matmul of the tiles against a (2kw - 1, kw) banded matrix that holds that
  kernel row and that every tile shares; its vjp runs the same kernel on the
  output gradient with the flipped kernel and reads the kernel gradient off
  the diagonals of the small bands. The tiles, about twice the input, are
  its largest scratch, and an image's output has the same bits in any batch.

Each kernel's weight gradient takes the input array as an argument, so the op
chooses what its node keeps. `conv2d`'s vjp keeps only the op's inputs and
per-tap weight copies: it pads x again and, for the depth-wise kernel, cuts
the tiles again, so the training graph holds no input-sized scratch.
`gelu_conv2d`, the conv after each GELU with grad (the MLP's second
projection and the embed's second conv), keeps only GELU's input h and
rebuilds GELU(h) in its vjp. Batch norm's vjp likewise recomputes the
normalized input from x.

Padding may be asymmetric, which even kernel extents need to keep resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (DegenerateBatchError, InvalidConfigError, InvalidShapeError, _check_arg,
                     _is_int)
from .tensor import Tensor, _check_operands, _gelu_blocks, result_of

# batch-norm running-statistics momentum and variance floor
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def _pad_spec(padding) -> tuple[tuple[int, int], tuple[int, int]]:
    """Normalize an int or ((top, bottom), (left, right)) to the pair form."""
    if _is_int(padding):
        padding = ((padding, padding),) * 2
    if not (isinstance(padding, tuple) and len(padding) == 2 and all(
            isinstance(p, tuple) and len(p) == 2 and all(map(_is_int, p)) for p in padding)
            ) or min(map(min, padding)) < 0:
        raise InvalidConfigError(f"padding {padding!r} must be a non-negative int "
                                 f"or ((top, bottom), (left, right))")
    (pt, pb), (pl, pr) = padding
    return (int(pt), int(pb)), (int(pl), int(pr))


def conv_output_extent(extent: int, kernel: int, stride: int, pad_before: int,
                       pad_after: int) -> int:
    return (extent + pad_before + pad_after - kernel) // stride + 1


def conv2d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1, padding=0,
           groups: int = 1) -> Tensor:
    """Cross-correlate (B, Cin, H, W) with (Cout, Cin/groups, kh, kw) and add
    the (Cout,) bias.

    `stride` is a positive int, `padding` a non-negative int or ((top, bottom),
    (left, right)), `groups` 1 or, at stride 1, Cin == Cout (depth-wise).
    Output extent per axis: floor((in + pad_before + pad_after - k)/stride) + 1.
    Differentiable w.r.t. x, w, and bias.
    """
    out, grad_x, grad_w = _kernel("conv2d", x, w, bias, stride, padding, groups)(x.data)
    out += bias.data[None, :, None, None]
    x_data = x.data

    def vjp(g):
        return grad_x(g), grad_w(g, x_data), g.sum(axis=(0, 2, 3))

    return result_of(out, (x, w, bias), vjp)


def gelu_conv2d(h: Tensor, w: Tensor, bias: Tensor, stride: int = 1, padding=0) -> Tensor:
    """conv2d(gelu(h), w, bias, stride, padding), one group, with the same
    bits, checks and kernels, whose graph node keeps h alone.

    GELU(h) lives only while the forward conv reads it. The vjp rebuilds it
    from h in the one pass over Phi(h) that also scales the conv's input
    gradient by GELU'(h), in place, and hands it to the weight gradient.
    """
    kernel = _kernel("gelu_conv2d", h, w, bias, stride, padding, 1)
    h_data = h.data
    out, grad_x, grad_w = kernel(_gelu_blocks(h_data))
    out += bias.data[None, :, None, None]

    def vjp(g):
        gh, act = grad_x(g), np.empty_like(h_data)
        _gelu_blocks(h_data, gh, out=gh, act=act)
        return gh, grad_w(g, act), g.sum(axis=(0, 2, 3))

    return result_of(out, (h, w, bias), vjp)


def _kernel(op: str, x: Tensor, w: Tensor, bias: Tensor, stride, padding, groups):
    """conv2d's argument checks and kernel choice: the kernel for these
    arguments as a function of the input array, which returns (out without
    bias, grad_x(g), grad_w(g, x))."""
    _check_operands(op, x, w, bias)
    if x.ndim != 4:
        raise InvalidShapeError(f"expected a 4-D input, got shape {x.shape}")
    if w.ndim != 4:
        raise InvalidShapeError(f"expected a 4-D kernel, got shape {w.shape}")
    _, cin, h_in, w_in = x.shape
    cout, cin_g, kh, kw = w.shape
    if not (_is_int(stride) and stride >= 1):
        raise InvalidConfigError(f"stride {stride!r} must be a positive int")
    pads = _pad_spec(padding)
    depthwise = groups == cin == cout and stride == 1
    if not (_is_int(groups) and (groups == 1 or depthwise)):
        raise InvalidConfigError(f"groups={groups!r} on {cin}->{cout} channels at stride "
                                 f"{stride}: only 1, or Cin == Cout at stride 1")
    if cin_g != cin // groups:
        raise InvalidConfigError(
            f"kernel expects {cin_g} channels per group, input provides {cin // groups}")
    if bias.shape != (cout,):
        raise InvalidShapeError(f"bias shape {bias.shape} != ({cout},)")
    oh = conv_output_extent(h_in, kh, stride, *pads[0])
    ow = conv_output_extent(w_in, kw, stride, *pads[1])
    if oh < 1 or ow < 1:
        raise InvalidShapeError(f"kernel {kh}x{kw} does not fit input {h_in}x{w_in} with padding")

    # with one channel both kernels apply: 1x1 is a channel matmul
    if depthwise and (groups > 1 or kh * kw > 1):
        return lambda a: _depthwise(a, w.data, pads, (oh, ow))
    return lambda a: _dense(a, w.data, stride, pads, (oh, ow))


def _dense(x: np.ndarray, w: np.ndarray, stride: int, pads, out_hw):
    """One-group conv as one channel matmul per kernel tap; returns (out, grad_x, grad_w).

    Tap (u, v) adds W[:, :, u, v] @ xp[:, :, u::stride, v::stride] (cut to
    oh x ow) on (B, Cin, oh*ow), xp being x zero-padded only if padding is
    non-zero. A 1x1 tap at stride 1 covers all of xp: its view is xp itself and
    its input gradient is written, not added into a zero-filled buffer.
    grad_w(g, x) pads the x it is given again; neither keeps x.
    """
    batch, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    dtype = x.dtype
    (pt, pb), (pl, pr) = pads
    oh, ow = out_hw
    padded = (batch, cin, h + pt + pb, wd + pl + pr)
    whole = out_hw == padded[2:]
    taps = [(u, v, np.ascontiguousarray(w[:, :, u, v])) for u in range(kh) for v in range(kw)]

    def pad(a: np.ndarray) -> np.ndarray:
        if not pt + pb + pl + pr:
            return a
        xp = np.zeros(padded, dtype)
        xp[:, :, pt:pt + h, pl:pl + wd] = a
        return xp

    def at(a: np.ndarray, u: int, v: int) -> np.ndarray:
        return a[:, :, u:u + (oh - 1) * stride + 1:stride, v:v + (ow - 1) * stride + 1:stride]

    def cols(xp: np.ndarray, u: int, v: int) -> np.ndarray:
        return at(xp, u, v).reshape(batch, cin, oh * ow)

    xp = pad(x)
    out = np.matmul(taps[0][2], cols(xp, 0, 0))
    for u, v, wt in taps[1:]:
        out += np.matmul(wt, cols(xp, u, v))

    def grad_x(g):
        g3 = g.reshape(batch, cout, oh * ow)
        gxp = None if whole else np.zeros(padded, dtype)
        for u, v, wt in taps:
            gt = np.matmul(wt.T, g3)
            if whole:
                gxp = gt.reshape(padded)
            else:
                at(gxp, u, v)[...] += gt.reshape(batch, cin, oh, ow)
        return np.ascontiguousarray(gxp[:, :, pt:pt + h, pl:pl + wd])

    def grad_w(g, x):
        xp = pad(x)
        g3 = g.reshape(batch, cout, oh * ow)
        gw = np.empty(w.shape, dtype)
        for u, v, _ in taps:
            gw[:, :, u, v] = np.matmul(g3, cols(xp, u, v).transpose(0, 2, 1)).sum(axis=0)
        return gw

    return out.reshape(batch, cout, oh, ow), grad_x, grad_w


def _depthwise(x: np.ndarray, w: np.ndarray, pads, out_hw):
    """Stride-1 conv with one channel per group as column-tiled row matmuls;
    returns (out, grad_x, grad_w).

    The B images are zero-padded and stacked along the rows per channel, and
    each row is cut into n = ceil(ow / kw) tiles of 2kw - 1 columns that start
    kw apart: (C, B * hp * n, 2kw - 1). Tile j of a row times the (2kw - 1, kw)
    band S[c, u][s + v, s] = w[c, 0, u, v], which every tile shares, makes
    output columns j*kw .. j*kw + kw - 1. Kernel row u is one batched matmul
    on the tiles of rows u .. u + R, R = B * hp - kh + 1, with no copy of its
    input; output rows i >= oh of each image read into the next one and are
    dropped, as are columns >= ow. The vjp's input gradient is the same
    kernel run on g, zero-padded by the kernel extent less one, with the
    flipped kernel: the gradient of the padded input, cropped to x. Its
    weight gradient grad_w(g, x) cuts the tiles of the x it is given again and
    takes tiles^T @ gs as a (2kw - 1, kw) matrix per (c, u), whose v-th
    diagonal sums to w's gradient at (c, u, v).
    """
    batch, chans, h, wd = x.shape
    _, _, kh, kw = w.shape
    dtype = x.dtype
    (pt, _), (pl, _) = pads
    diag = np.arange(kw)

    def tiles(a: np.ndarray, pads) -> tuple[np.ndarray, int, int]:
        """The tiles of `a` zero-padded by `pads`, its padded height and n."""
        (top, bottom), (left, right) = pads
        ah, aw = a.shape[2:]
        hp, n = ah + top + bottom, -(-(aw + left + right - kw + 1) // kw)
        xs = np.zeros((chans, batch, hp, (n + 1) * kw - 1), dtype)
        xs[:, :, top:top + ah, left:left + aw] = a.transpose(1, 0, 2, 3)
        view = sliding_window_view(xs.reshape(chans, batch * hp, -1), 2 * kw - 1, axis=2)
        return np.ascontiguousarray(view[:, :, ::kw]).reshape(chans, -1, 2 * kw - 1), hp, n

    def correlate(a: np.ndarray, k: np.ndarray, pads) -> np.ndarray:
        """`a` zero-padded by `pads` cross-correlated with the (C, 1, kh, kw) kernel k."""
        at, hp, n = tiles(a, pads)
        band = np.zeros((chans, kh, 2 * kw - 1, kw), dtype)
        for v in range(kw):
            band[:, :, diag + v, diag] = k[:, 0, :, v, None]
        m = (batch * hp - kh + 1) * n  # the tile rows each kernel row reads
        acc = np.empty((chans, batch * hp * n, kw), dtype)
        np.matmul(at[:, :m], band[:, 0], out=acc[:, :m])
        part = np.empty((chans, m, kw), dtype)  # every later kernel row's product
        for u in range(1, kh):
            acc[:, :m] += np.matmul(at[:, u * n:u * n + m], band[:, u], out=part)
        del at, part
        oh, ow = hp - kh + 1, a.shape[3] + sum(pads[1]) - kw + 1
        return np.ascontiguousarray(
            acc.reshape(chans, batch, hp, n * kw)[:, :, :oh, :ow].transpose(1, 0, 2, 3))

    out = correlate(x, w, pads)

    def grad_x(g):
        # g zero-padded by k - 1 per side gives the padded input's gradient;
        # each side pads up to k - 1 fewer, which drops padded rows or columns
        top, left = max(0, pt - kh + 1), max(0, pl - kw + 1)
        gpads = tuple((k - 1 - min(a, k - 1), k - 1 - min(b, k - 1))
                      for (a, b), k in zip(pads, (kh, kw)))
        gx = correlate(g, w[:, :, ::-1, ::-1], gpads)
        return np.ascontiguousarray(gx[:, :, top:top + h, left:left + wd])

    def grad_w(g, x):
        xt, hp, n = tiles(x, pads)
        m = (batch * hp - kh + 1) * n
        gs = np.zeros((chans, batch, hp, n * kw), dtype)  # rows >= oh, columns >= ow stay zero
        gs[:, :, :out_hw[0], :out_hw[1]] = g.transpose(1, 0, 2, 3)
        gs = gs.reshape(chans, -1, kw)[:, :m]
        gband = np.empty((chans, kh, 2 * kw - 1, kw), dtype)
        for u in range(kh):
            np.matmul(xt[:, u * n:u * n + m].transpose(0, 2, 1), gs, out=gband[:, u])
        gw = np.stack([gband[:, :, diag + v, diag].sum(axis=2) for v in range(kw)], axis=2)
        return gw.reshape(w.shape)

    return out, grad_x, grad_w


def batchnorm2d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                running_var: np.ndarray, training: bool) -> Tensor:
    """Per-channel normalization of a (B, C, H, W) map.

    Training mode centres x once, normalizes it by the batch statistics over
    (B, H, W) and updates the running statistics in place (mean with the
    biased estimate, var with the unbiased one). Eval mode is a fixed affine
    map using them. Both modes share one backward, which recomputes the
    normalized input from x with the training forward's two operations, so
    the graph keeps no input-sized array besides x.
    """
    _check_operands("batchnorm2d", x, gamma, beta)
    if x.ndim != 4:
        raise InvalidShapeError(f"expected a 4-D input, got shape {x.shape}")
    batch, channels, height, width = x.shape
    if not all(isinstance(a, np.ndarray) and a.shape == (channels,)
               for a in (gamma.data, beta.data, running_mean, running_var)):
        raise InvalidShapeError(f"affine params and running stats must be ({channels},) arrays")
    # per-channel (C,) values broadcast against (B, C, H, W) as [:, None, None]
    axes, n = (0, 2, 3), batch * height * width
    if training:
        if n < 2:
            raise DegenerateBatchError(
                f"training-mode batchnorm needs >=2 elements per channel, got {n}")
        mean = x.data.mean(axis=axes)
        out = x.data - mean[:, None, None]
        var = (out * out).mean(axis=axes)  # the same operations as np.var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        out *= inv_std[:, None, None]  # xhat, turned into the output in place
        sc = gamma.data * inv_std
        out *= gamma.data[:, None, None]
        out += beta.data[:, None, None]
        running_mean[...] = (1.0 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mean
        running_var[...] = (1.0 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var * (n / (n - 1))
    else:
        # one pass over x: out = x * sc + sh
        mean, inv_std = running_mean.copy(), 1.0 / np.sqrt(running_var + BN_EPS)
        sc = (gamma.data * inv_std).astype(x.dtype, copy=False)
        out = x.data * sc[:, None, None]
        out += (beta.data - mean * sc).astype(x.dtype, copy=False)[:, None, None]

    x_data = x.data

    def vjp(g):
        xh = x_data - mean[:, None, None]  # xhat, by the training forward's operations
        xh *= inv_std[:, None, None]
        gx = g * xh
        ggamma = gx.sum(axis=axes).astype(x_data.dtype, copy=False)
        gbeta = g.sum(axis=axes)
        if not training:
            return g * sc[:, None, None], ggamma, gbeta
        # the batch statistics' terms come from the parameter gradients
        xh *= (ggamma / n)[:, None, None]
        np.subtract(g, xh, out=gx)
        gx -= (gbeta / n)[:, None, None]
        gx *= sc[:, None, None]
        return gx, ggamma, gbeta

    return result_of(out.astype(x.dtype, copy=False), (x, gamma, beta), vjp)


@dataclass
class ConvParams:
    """Kernel and bias of one convolution."""

    weight: Tensor  # (Cout, Cin, kh, kw)
    bias: Tensor


@dataclass
class BnParams:
    """Learnable affine plus the running statistics used in eval mode."""

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray


def apply_bn(x: Tensor, p: BnParams, training: bool) -> Tensor:
    _check_arg("apply_bn", p, BnParams)
    return batchnorm2d(x, p.gamma, p.beta, p.running_mean, p.running_var, training)
