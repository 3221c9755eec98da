"""Dtype discipline: float32 inputs are computed in float32, float64 in float64.

Every differentiable op is run on inputs of one dtype; its output, the
floating arrays its vector-Jacobian product keeps for the backward pass, and
the gradient that product returns for every parent must keep that dtype. A
float32 forward of a tiny model must also stay close to the float64 forward
of the same weights and input.
"""

import numpy as np
import pytest

from shuffleformer import (InvalidConfigError, ModelConfig, Tensor, add,
                           aligned_window_reverse, batchnorm2d, conv2d, cross_entropy_logits,
                           gather_hw, gelu, gelu_conv2d, init_model_params, matmul, mean_all,
                           mean_pool_hw, mlp_conv2d, model_forward, mul, reshape_permute, scale,
                           shuffle_permutations, shuffled_window_partition, softmax_lastdim,
                           sum_all)
from shuffleformer.rng import Rng

# the benchmark's bound on float32 logits against a float64 forward: max
# |difference| relative to max |reference logit|
FORWARD_RTOL = 1e-4

PERMS = shuffle_permutations(4, 4, 2, "long-range")


def _bn(training):
    def op(x, gamma, beta):
        running_mean = np.zeros(3, x.dtype) + 0.25
        running_var = np.ones(3, x.dtype) + 0.5
        return batchnorm2d(x, gamma, beta, running_mean, running_var, training)
    return op


# name -> (op, input shapes); every input is a differentiable parent
OPS = {
    "reshape_permute": (lambda x: reshape_permute(x, (2, 12), (1, 0)), [(2, 3, 4)]),
    "add": (add, [(2, 3, 4), (3, 1)]),
    "mul": (mul, [(2, 3, 4), (3, 1)]),
    "scale": (lambda x: scale(x, 0.3), [(2, 3)]),
    "matmul": (matmul, [(2, 3, 4), (2, 4, 5)]),
    "softmax_lastdim": (softmax_lastdim, [(2, 3, 4)]),
    "gelu": (gelu, [(2, 3, 4)]),
    "mean_pool_hw": (mean_pool_hw, [(2, 3, 4, 4)]),
    "sum_all": (sum_all, [(2, 3)]),
    "mean_all": (mean_all, [(2, 3)]),
    "gather_hw": (lambda x: gather_hw(x, [2, 0, 3, 1], [1, 3, 0, 2]), [(2, 3, 4, 4)]),
    "cross_entropy_logits": (lambda z: cross_entropy_logits(z, np.array([0, 2, 1])),
                             [(3, 4)]),
    "conv2d-pointwise": (conv2d, [(2, 3, 4, 4), (5, 3, 1, 1), (5,)]),
    "conv2d-depthwise": (lambda x, w, b: conv2d(x, w, b, 1, ((1, 2), (1, 2)), 3),
                         [(2, 3, 5, 5), (3, 1, 4, 4), (3,)]),
    "conv2d-dense": (lambda x, w, b: conv2d(x, w, b, 2, 1), [(2, 3, 6, 6), (4, 3, 3, 3), (4,)]),
    "conv2d-merge": (lambda x, w, b: conv2d(x, w, b, 2, 0), [(2, 4, 6, 6), (6, 4, 2, 2), (6,)]),
    "gelu_conv2d": (lambda h, w, b: gelu_conv2d(h, w, b, 2, 1),
                    [(2, 3, 6, 6), (4, 3, 3, 3), (4,)]),
    "mlp_conv2d": (mlp_conv2d, [(2, 3, 4, 4), (8, 3, 1, 1), (8,), (3, 8, 1, 1), (3,)]),
    "batchnorm2d-train": (_bn(True), [(2, 3, 4, 4), (3,), (3,)]),
    "batchnorm2d-eval": (_bn(False), [(2, 3, 4, 4), (3,), (3,)]),
    "shuffled_window_partition": (lambda x: shuffled_window_partition(x, 2, PERMS),
                                  [(2, 3, 4, 4)]),
    "aligned_window_reverse": (lambda w: aligned_window_reverse(w, 2, PERMS),
                               [(8, 3, 2, 2)]),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_grouped_conv2d_rejected(dtype):
    # only groups=1 and depth-wise (groups == Cin == Cout) convs exist
    x = Tensor(np.ones((2, 4, 5, 5), dtype=dtype))
    w = Tensor(np.ones((6, 2, 3, 3), dtype=dtype))
    with pytest.raises(InvalidConfigError):
        conv2d(x, w, Tensor(np.zeros(6, dtype)), 1, 1, 2)


def saved_float_arrays(fn, seen=None):
    """Floating arrays held by `fn`'s closure and default arguments, following
    closed-over functions, lists and tuples."""
    seen = set() if seen is None else seen
    if id(fn) in seen:
        return []
    seen.add(id(fn))
    found, todo = [], [cell.cell_contents for cell in fn.__closure__ or ()]
    todo += [*(fn.__defaults__ or ()), *(fn.__kwdefaults__ or {}).values()]
    while todo:
        value = todo.pop()
        if isinstance(value, np.ndarray) and np.issubdtype(value.dtype, np.floating):
            found.append(value)
        elif isinstance(value, (list, tuple)):
            todo += value
        elif callable(value) and hasattr(value, "__closure__"):
            found += saved_float_arrays(value, seen)
    return found


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("name", sorted(OPS))
def test_output_and_gradients_keep_input_dtype(name, dtype):
    op, shapes = OPS[name]
    rng = Rng(3)
    inputs = [Tensor(rng.normal(shape, dtype=dtype) + 1.0, requires_grad=True)
              for shape in shapes]
    out = op(*inputs)
    assert out.dtype == dtype
    assert all(a.dtype == dtype for a in saved_float_arrays(out._vjp))
    grads = out._vjp(rng.normal(out.shape, dtype=dtype))
    assert len(grads) == len(inputs)
    for t, g in zip(inputs, grads):
        assert g.dtype == dtype
        assert g.shape == t.shape


def test_float32_model_forward_tracks_float64():
    cfg = ModelConfig(channels=8, depths=(2, 2), num_classes=5, resolution=32, window=2,
                      head_dim=4, shuffle_mode="long-range", nwc_position="C")
    params32 = init_model_params(cfg, Rng(5), dtype=np.float32)
    params64 = init_model_params(cfg, Rng(5), dtype=np.float64)
    image = Rng(6).normal((2, 3, 32, 32), dtype=np.float64)
    for training in (True, False):
        got = model_forward(Tensor(image.astype(np.float32)), params32, cfg, training).data
        ref = model_forward(Tensor(image), params64, cfg, training).data
        assert got.dtype == np.float32
        assert np.abs(got - ref).max() <= FORWARD_RTOL * np.abs(ref).max()
