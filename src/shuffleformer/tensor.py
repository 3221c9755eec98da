"""Reverse-mode autodiff over row-major NumPy arrays.

A `Tensor` wraps a C-contiguous float32/float64 array. An operation whose
operand needs grad gives its result a graph node that holds a vector-Jacobian
product and its parents' nodes; a leaf parent is its own tensor. `backward`
walks the nodes once in reverse topological order and accumulates `.grad` on
every leaf tensor with `requires_grad`.

Layout contract: the flat index of coordinate (i0, ..., ik) in `data` is
sum(i_j * stride_j) with stride_j = prod(shape[j+1:]), i.e. NumPy C order.
Every operation materializes a contiguous result, so two runs over identical
inputs produce bit-identical arrays.

Memory: the graph holds no tensor but its leaves, and each vjp closure holds
only the arrays, shapes and dtypes its backward reads. The vjps of `add`,
`scale`, `reshape_permute` and softmax keep none of their inputs, so an
array that only such ops read is freed once its caller drops its tensor.
Intermediates that only the backward needs, such as GELU's Phi(x), are
recomputed from the inputs in the vjp; `conv.gelu_conv2d` likewise rebuilds
GELU(x) for the conv that reads it, so the graph keeps x alone, and
`conv.mlp_conv2d` rebuilds a block's hidden map from the MLP's input.

Thread-safety: operations are pure given their inputs and read no mutable
module state, and each vjp rebuilds its scratch from what its closure holds,
so threads may run them concurrently on separate graphs; a graph built in
one thread must be walked by that thread. Four threads training toy models
on their own graphs get gradients bit-identical to a serial run
(tests/test_train.py). The one import made after start-up, `scipy.special`
on the first float64 `gelu`, may run in a worker thread: Python's import
lock makes any other thread that reaches it wait until it has loaded.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import InvalidCallError, InvalidShapeError, _is_int, _is_real

_ALLOWED_DTYPES = (np.float32, np.float64)

# values per block of gelu and its vjp, and per channel across the image chunks
# the finite-difference reachability probe runs at once on all its workers, so
# that their scratch buffers stay small
_CHUNK_ELEMS = 1 << 16


def _contig(arr: np.ndarray) -> np.ndarray:
    # np.ascontiguousarray would promote 0-d scalars to 1-d
    if arr.ndim == 0 or arr.flags["C_CONTIGUOUS"]:
        return arr
    return np.ascontiguousarray(arr)


class Tensor:
    """A dense N-D float array plus optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False) -> None:
        try:
            arr = np.asarray(data)
        except ValueError as exc:  # ragged nested sequences
            raise InvalidShapeError(f"tensor data is not a rectangular array: {exc}") from exc
        if arr.dtype.kind not in "biuf":
            raise InvalidShapeError(f"tensor data must be bool, integer or float, not {arr.dtype}")
        if arr.dtype not in _ALLOWED_DTYPES:
            arr = arr.astype(np.float32)
        self.data = _contig(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def _parents(self) -> tuple:
        """The graph entries of the op that made this tensor; () for a leaf."""
        return () if self._node is None else self._node._parents

    @property
    def _vjp(self) -> Callable[[np.ndarray], Sequence[np.ndarray]] | None:
        return None if self._node is None else self._node._vjp

    @_vjp.setter
    def _vjp(self, vjp) -> None:
        self._node._vjp = vjp

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class _Node:
    """An op result's place in the graph: its vjp and its parents' entries
    (see `_entry`). It holds no array, so an output no vjp reads dies with its tensor."""

    __slots__ = ("_vjp", "_parents")

    def __init__(self, vjp, parents: tuple) -> None:
        self._vjp = vjp
        self._parents = parents


def _entry(t: Tensor) -> _Node | Tensor | None:
    """Where the graph reaches `t`: its node, itself as a leaf, or None."""
    if not t.requires_grad:
        return None
    return t if t._node is None else t._node


def result_of(data: np.ndarray, parents: tuple[Tensor, ...],
              vjp: Callable[[np.ndarray], Sequence[np.ndarray]]) -> Tensor:
    """Build an op result, recording a graph node only when a parent needs grad.

    `vjp` maps the output gradient to one array per parent, in order."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(vjp, tuple(map(_entry, parents)))
    return out


def _check_operands(op: str, *operands) -> None:
    """Every op's entry check: Tensor operands, all of one dtype."""
    for t in operands:
        if not isinstance(t, Tensor):
            raise InvalidCallError(f"{op} takes Tensor operands, got {type(t).__name__}")
    dtypes = {t.data.dtype for t in operands}
    if len(dtypes) > 1:
        raise InvalidShapeError(f"mixed dtypes {sorted(d.name for d in dtypes)}; cast explicitly")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing NumPy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitives


def reshape_permute(t: Tensor, new_shape, axis_order=None) -> Tensor:
    """Reinterpret `t` as `new_shape` (row-major), then transpose by `axis_order`."""
    _check_operands("reshape_permute", t)
    try:
        new_shape = tuple(new_shape)
        axis_order = tuple(range(len(new_shape)) if axis_order is None else axis_order)
    except TypeError:
        raise InvalidShapeError(f"shape {new_shape!r} and axis_order {axis_order!r} "
                                f"must be sequences of ints") from None
    if not (all(_is_int(s) and s >= 0 for s in new_shape)
            and np.prod(new_shape, dtype=np.int64) == t.size):
        raise InvalidShapeError(f"cannot reshape {t.shape} ({t.size} values) to {new_shape}")
    if not all(map(_is_int, axis_order)) or sorted(axis_order) != list(range(len(new_shape))):
        raise InvalidShapeError(f"axis_order {axis_order} is not a permutation of {len(new_shape)} axes")
    out = t.data.reshape(new_shape).transpose(axis_order)
    inverse = np.argsort(axis_order)
    old_shape = t.shape

    def vjp(g):
        return (np.ascontiguousarray(g.transpose(inverse)).reshape(old_shape),)

    return result_of(out, (t,), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with NumPy broadcasting."""
    _check_operands("add", a, b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise InvalidShapeError(f"cannot broadcast {a.shape} with {b.shape}") from exc
    out = a.data + b.data
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return result_of(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with NumPy broadcasting."""
    _check_operands("mul", a, b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise InvalidShapeError(f"cannot broadcast {a.shape} with {b.shape}") from exc
    a_data, b_data = a.data, b.data
    out = a_data * b_data

    def vjp(g):
        return _unbroadcast(g * b_data, a_data.shape), _unbroadcast(g * a_data, b_data.shape)

    return result_of(out, (a, b), vjp)


def scale(t: Tensor, factor: float) -> Tensor:
    """Multiply by a real scalar."""
    _check_operands("scale", t)
    if not _is_real(factor):
        raise InvalidCallError(f"scale factor must be a real number, got {factor!r}")
    factor = t.data.dtype.type(factor)
    out = t.data * factor

    def vjp(g):
        return (g * factor,)

    return result_of(out, (t,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading batch axes must match exactly. A 2-D product
    runs as one (1, K) @ (K, N) product per row, so a row's bits do not
    depend on how many rows come with it: BLAS takes another path for one
    row than for several."""
    _check_operands("matmul", a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise InvalidShapeError("matmul needs at least 2-D operands")
    if a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise InvalidShapeError(f"batch axes differ: {a.shape} vs {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise InvalidShapeError(f"inner extents differ: {a.shape} vs {b.shape}")
    a_data, b_data = a.data, b.data
    if a.ndim == 2:
        out = np.matmul(a_data[:, None, :], b_data)[:, 0]
    else:
        out = np.matmul(a_data, b_data)

    def vjp(g):
        ga = np.matmul(g, b_data.swapaxes(-1, -2))
        gb = np.matmul(a_data.swapaxes(-1, -2), g)
        return ga, gb

    return result_of(out, (a, b), vjp)


def softmax_lastdim(t: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, computed with max subtraction.

    The row max is a running `np.maximum` over the k last-axis slices, which
    beats a `max(axis=-1)` reduction on the probe's many 4-token rows; the
    row sum then reuses its buffer. Both match the plain reductions bit for bit.
    """
    _check_operands("softmax_lastdim", t)
    x = t.data
    if x.ndim == 0 or x.shape[-1] == 0:
        raise InvalidShapeError(f"softmax needs a non-empty last axis, got shape {x.shape}")
    top = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(top, x[..., j], out=top)
    out = x - top[..., None]
    np.exp(out, out=out)
    np.sum(out, axis=-1, out=top)
    out /= top[..., None]

    def vjp(g):
        # out * (g - sum(g * out)), built in one buffer
        gx = np.multiply(g, out)
        np.subtract(g, gx.sum(axis=-1, keepdims=True), out=gx)
        gx *= out
        return (gx,)

    return result_of(out, (t,), vjp)


def gelu(t: Tensor) -> Tensor:
    """Gaussian error linear unit x * Phi(x), computed in the input's dtype.

    float64 uses the exact erf form. float32 takes Phi(-|x|) = erfc(|x|/sqrt 2)/2
    from Abramowitz & Stegun 7.1.26 (erfc error <= 1.5e-7) and 1 - Phi(-|x|)
    for x >= 0. Its max abs error against exact GELU is below 1e-6 (4.6e-7 on
    [-10, 10], where float32 erf gives 4.5e-7); zeros, infinities and NaN come
    out as in the erf form. Both run in blocks of _CHUNK_ELEMS values, so Phi
    is never a full array: the vjp recomputes Phi and phi from x, with the
    forward's own operations, and keeps nothing but x.

    `scipy.special` (~25 MiB resident and ~0.3 s to import) is loaded when
    the first float64 input reaches this function, not with the package, so
    float32 inference and training never load it.

    The model calls this op only with an NWC inside the MLP. With grad,
    the MLP calls `conv.mlp_conv2d`, whose node keeps the MLP's input and
    not x, and the embed `conv.gelu_conv2d`, whose node keeps x and not
    GELU(x). Frozen, they have `_gelu_blocks` write GELU over its input,
    which no graph reads, so no second map is allocated and no node is
    recorded.
    """
    _check_operands("gelu", t)
    x = t.data

    def vjp(g):
        return (_gelu_blocks(x, g),)

    return result_of(_gelu_blocks(x), (t,), vjp)


# A&S 7.1.26 as 1/2 * erfc(|x|/sqrt 2) = poly(t) * exp(-x^2/2) with
# t = 1/(1 + p|x|/sqrt 2) and poly's coefficients a5..a1 halved
_AS_P = np.float32(0.3275911 / np.sqrt(2.0))
_AS_HALF_A = tuple(np.float32(0.5 * a) for a in (
    1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592))


def _gelu_blocks(x: np.ndarray, g: np.ndarray | None = None,
                 out: np.ndarray | None = None, act: np.ndarray | None = None) -> np.ndarray:
    """x * Phi(x), or given the output gradient g, g * (Phi(x) + x * phi(x)),
    block by block; see `gelu`. The result goes to `out` when given, which
    may be x or g itself: a block of it is written only after the block's
    last read of x and g, so a frozen forward computes GELU in place and a
    vjp scales g in place. Given g, `act` receives x * Phi(x) from the same
    Phi, so a vjp that needs GELU(x) rebuilds it with no second evaluation;
    `act` may be x itself, whose block it writes after the slope's last read,
    so `conv.mlp_conv2d` turns its rebuilt hidden map into GELU of it."""
    const, exact = x.dtype.type, x.dtype == np.float64
    if exact:  # loaded here, on first use; see gelu
        from scipy.special import erf
    res = np.empty(x.shape, x.dtype) if out is None else out
    xf, rf = x.reshape(-1), res.reshape(-1)
    gf = None if g is None else g.reshape(-1)
    af = None if act is None else act.reshape(-1)
    # only the blocks this call writes: an unused one still adds to peak RSS
    n = min(x.size, _CHUNK_ELEMS)
    c = np.empty(n, x.dtype)
    e = None if exact and g is None else np.empty(n, x.dtype)
    t, s = (None, None) if exact else (np.empty(n, x.dtype), np.empty(n, x.dtype))
    with np.errstate(over="ignore"):  # x*x overflows to inf for large |x|
        for lo in range(0, x.size, _CHUNK_ELEMS):
            xs = xf[lo:lo + _CHUNK_ELEMS]
            ck, rk = c[:xs.size], rf[lo:lo + xs.size]
            if e is not None:
                ek = e[:xs.size]
                np.multiply(xs, xs, out=ek)
                ek *= const(-0.5)
                np.exp(ek, out=ek)  # sqrt(2 pi) * phi(x)
            if exact:
                np.multiply(xs, const(1.0 / np.sqrt(2.0)), out=ck)
                erf(ck, out=ck)
                ck += const(1.0)
                ck *= const(0.5)
            else:
                tk = t[:xs.size]
                np.abs(xs, out=tk)
                tk *= _AS_P
                tk += 1.0
                np.reciprocal(tk, out=tk)
                np.multiply(tk, _AS_HALF_A[0], out=ck)
                for a in _AS_HALF_A[1:]:
                    ck += a
                    ck *= tk
                ck *= ek  # q = Phi(-|x|)
                # Phi(x) = q + [x >= 0] * (1 - 2q), the sign select in arithmetic
                sk = s[:xs.size]
                np.greater_equal(xs, 0.0, out=tk)
                np.multiply(ck, -2.0, out=sk)
                sk += 1.0
                sk *= tk
                ck += sk
            if g is None:
                np.multiply(xs, ck, out=rk)
                continue
            # g * (Phi + x * phi), the slope built in ek, which Phi has read
            ek *= const(1.0 / np.sqrt(2.0 * np.pi))
            ek *= xs
            ek += ck
            if act is not None:  # after the block's last read of x, which act may be
                np.multiply(xs, ck, out=af[lo:lo + xs.size])
            np.multiply(ek, gf[lo:lo + xs.size], out=rk)
    return res


def mean_pool_hw(x: Tensor) -> Tensor:
    """Global average over the two trailing spatial axes: (B,C,H,W) -> (B,C)."""
    _check_operands("mean_pool_hw", x)
    if x.ndim != 4:
        raise InvalidShapeError(f"expected a 4-D feature map, got shape {x.shape}")
    b, c, h, w = x.shape
    dtype = x.dtype
    out = x.data.mean(axis=(2, 3))

    def vjp(g):
        gx = np.broadcast_to(g[:, :, None, None] / (h * w), (b, c, h, w))
        return (np.ascontiguousarray(gx.astype(dtype)),)

    return result_of(out, (x,), vjp)


def sum_all(t: Tensor) -> Tensor:
    """Sum of every element, as a 0-D tensor."""
    _check_operands("sum_all", t)
    shape, dtype = t.shape, t.dtype
    out = np.asarray(t.data.sum(), dtype=dtype)

    def vjp(g):
        return (np.full(shape, g, dtype=dtype),)

    return result_of(out, (t,), vjp)


def mean_all(t: Tensor) -> Tensor:
    """Mean of every element, as a 0-D tensor."""
    _check_operands("mean_all", t)
    n, shape, dtype = t.size, t.shape, t.dtype
    out = np.asarray(t.data.mean(), dtype=dtype)

    def vjp(g):
        return (np.full(shape, g / n, dtype=dtype),)

    return result_of(out, (t,), vjp)


def gather_hw(x: Tensor, index_h: np.ndarray, index_w: np.ndarray) -> Tensor:
    """out[b,c,i,j] = x[b,c, index_h[i], index_w[j]] for bijective index maps."""
    _check_operands("gather_hw", x)
    if x.ndim != 4:
        raise InvalidShapeError(f"expected a 4-D feature map, got shape {x.shape}")
    _, _, h, w = x.shape
    index_h, index_w = np.asarray(index_h), np.asarray(index_w)
    if not (index_h.dtype.kind in "iu" and index_h.shape == (h,) and
            np.array_equal(np.sort(index_h), np.arange(h)) and
            index_w.dtype.kind in "iu" and index_w.shape == (w,) and
            np.array_equal(np.sort(index_w), np.arange(w))):
        raise InvalidShapeError("index maps must be integer permutations of the spatial extents")
    out = x.data[:, :, index_h[:, None], index_w[None, :]]
    shape, dtype = x.shape, x.dtype

    def vjp(g):
        gx = np.empty(shape, dtype)
        gx[:, :, index_h[:, None], index_w[None, :]] = g
        return (gx,)

    return result_of(out, (x,), vjp)


def cross_entropy_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer `labels` under row-wise softmax of `logits`."""
    _check_operands("cross_entropy_logits", logits)
    if logits.ndim != 2:
        raise InvalidShapeError(f"expected (batch, classes) logits, got {logits.shape}")
    n, k = logits.shape
    if n == 0:
        raise InvalidShapeError("cross-entropy needs a non-empty batch")
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise InvalidCallError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.shape != (n,):
        raise InvalidShapeError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= k:
        raise InvalidCallError("label out of range")
    top = logits.data.max(axis=1, keepdims=True)
    probs = np.exp(logits.data - top)
    total = probs.sum(axis=1, keepdims=True)
    lse = np.log(total[:, 0]) + top[:, 0]
    picked = logits.data[np.arange(n), labels]
    dtype = logits.dtype
    out = np.asarray((lse - picked).mean(), dtype=dtype)
    probs /= total

    def vjp(g):
        gl = probs.copy()
        gl[np.arange(n), labels] -= 1.0
        return ((g / n) * gl.astype(dtype),)

    return result_of(out, (logits,), vjp)


# ---------------------------------------------------------------------------
# backward


def backward(loss: Tensor) -> None:
    """Accumulate d loss / d t into `t.grad` for every leaf tensor with
    `requires_grad` that `loss` depends on. `loss` must be scalar; each graph
    node's vector-Jacobian product runs exactly once, in reverse topological
    order."""
    _check_operands("backward", loss)
    if loss.size != 1:
        raise InvalidCallError(f"backward needs a scalar loss, got shape {loss.shape}")
    root = _entry(loss)
    if root is None:
        return
    # iterative DFS post-order over nodes and leaves; recursion would
    # overflow on deep graphs
    topo: list = []
    seen: set[int] = set()
    stack: list = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent is not None and id(parent) not in seen:
                stack.append((parent, False))

    pending: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = pending.pop(id(node))  # topo holds only nodes reached from the root: each has a gradient
        if isinstance(node, Tensor):  # a leaf
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if parent is None:
                continue
            key = id(parent)
            if key in pending:
                pending[key] = pending[key] + pg
            else:
                pending[key] = pg


def zero_grads(params: Sequence[Tensor]) -> None:
    if not isinstance(params, (list, tuple)):
        raise InvalidCallError(f"zero_grads takes a list of Tensors, got {type(params).__name__}")
    for p in params:  # one at a time: parameters may differ in dtype
        _check_operands("zero_grads", p)
    for p in params:
        p.grad = None
