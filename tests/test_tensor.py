import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from shuffleformer import (AdamW, InvalidCallError, InvalidConfigError, InvalidShapeError,
                           Optimizer, Rng, Tensor, add,
                           aligned_window_reverse, backward, batchnorm2d, conv2d,
                           cross_entropy_logits, gather_hw, gelu, matmul, mean_all,
                           mean_pool_hw, mul, reshape_permute, scale, shuffle_permutations,
                           shuffled_window_partition, softmax_lastdim, sum_all, zero_grads)

from shuffleformer import tensor
from gradcheck import check_gradients
from oracles import closed_form_softmax, naive_matmul


class TestTensorData:
    @pytest.mark.parametrize("data", [None, np.array(["a"]), np.array([1 + 2j])],
                             ids=["none", "str", "complex"])
    def test_non_real_data_rejected(self, data):
        with pytest.raises(InvalidShapeError):
            Tensor(data)

    @pytest.mark.parametrize("data", [np.array([True, False]), np.array([3, -1]),
                                      np.array([1.5, 2.0], np.float16)],
                             ids=["bool", "int", "float16"])
    def test_bool_int_and_half_cast_to_float32(self, data):
        t = Tensor(data)
        assert t.dtype == np.float32 and np.array_equal(t.data, data.astype(np.float32))


@pytest.mark.parametrize("call, error", [
    (lambda: reshape_permute(Tensor(np.zeros(6)), (2, 3), ("a", 1)), InvalidShapeError),
    (lambda: reshape_permute(Tensor(np.zeros(6)), (2, 3), (1.7, 0.2)), InvalidShapeError),
    (lambda: gather_hw(Tensor(np.zeros((1, 1, 4, 4))), ["a"] * 4, np.arange(4)),
     InvalidShapeError),
    (lambda: gather_hw(Tensor(np.zeros((1, 1, 4, 4))), np.arange(4), [0.2, 1.9, 2, 3]),
     InvalidShapeError),
    (lambda: reshape_permute(Tensor(np.zeros(6)), 6), InvalidShapeError),
    (lambda: reshape_permute(Tensor(np.zeros(6)), (2, 3), 5), InvalidShapeError),
    (lambda: gather_hw(Tensor(np.zeros((1, 1, 4, 4))), 3, [0, 1]), InvalidShapeError),
    (lambda: scale(Tensor(np.ones(3)), None), InvalidCallError),
    (lambda: scale(Tensor(np.ones(3)), "2"), InvalidCallError),
    (lambda: Tensor([[1], [1, 2]]), InvalidShapeError),
    # every op, backward and zero_grads take only Tensor operands
    (lambda: reshape_permute(np.zeros(6), (2, 3)), InvalidCallError),
    (lambda: add(1.0, Tensor(np.ones(2))), InvalidCallError),
    (lambda: mul(Tensor(np.ones(2)), np.ones(2)), InvalidCallError),
    (lambda: scale([1.0, 2.0], 2.0), InvalidCallError),
    (lambda: matmul(np.eye(2), Tensor(np.eye(2))), InvalidCallError),
    (lambda: softmax_lastdim([1.0, 2.0]), InvalidCallError),
    (lambda: gelu(np.ones(2)), InvalidCallError),
    (lambda: mean_pool_hw(np.zeros((1, 1, 2, 2))), InvalidCallError),
    (lambda: sum_all(None), InvalidCallError),
    (lambda: mean_all(3.0), InvalidCallError),
    (lambda: gather_hw(np.zeros((1, 1, 2, 2)), np.arange(2), np.arange(2)), InvalidCallError),
    (lambda: cross_entropy_logits(np.zeros((2, 3)), np.array([0, 1])), InvalidCallError),
    (lambda: backward(np.ones(())), InvalidCallError),
    (lambda: zero_grads([None]), InvalidCallError),
    (lambda: zero_grads(None), InvalidCallError),
    (lambda: conv2d(np.zeros((1, 1, 3, 3)), Tensor(np.ones((1, 1, 1, 1))), Tensor(np.zeros(1))),
     InvalidCallError),
    (lambda: conv2d(Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.ones((1, 1, 1, 1))), [0.0]),
     InvalidCallError),
    (lambda: batchnorm2d(Tensor(np.zeros((2, 1, 2, 2))), None, Tensor(np.zeros(1)),
                         np.zeros(1), np.ones(1), True), InvalidCallError),
    (lambda: shuffled_window_partition(np.zeros((1, 1, 2, 2)), 2,
                                       shuffle_permutations(2, 2, 2, "none")), InvalidCallError),
    (lambda: aligned_window_reverse(np.zeros((1, 1, 2, 2)), 2,
                                    shuffle_permutations(2, 2, 2, "none")), InvalidCallError),
    # AdamW's rates are finite reals >= 0; an Optimizer takes Tensors and an AdamW
    (lambda: AdamW(1e-3, weight_decay=None), InvalidConfigError),
    (lambda: AdamW(float("nan")), InvalidConfigError),
    (lambda: AdamW(float("inf")), InvalidConfigError),
    (lambda: AdamW(-1e-3), InvalidConfigError),
    (lambda: AdamW("a"), InvalidConfigError),
    (lambda: Optimizer(None, AdamW(0.1)), InvalidCallError),
    (lambda: Optimizer([Tensor(np.ones(2), requires_grad=True)], None), InvalidCallError),
    (lambda: Optimizer([np.ones(2)], AdamW(0.1)), InvalidCallError),
], ids=["reshape-text-axis", "reshape-float-axes", "gather-text-index", "gather-float-index",
        "reshape-int-shape", "reshape-int-axes", "gather-scalar-index",
        "scale-none", "scale-text", "ragged-data",
        "reshape-array", "add-float", "mul-array", "scale-list", "matmul-array",
        "softmax-list", "gelu-array", "pool-array", "sum-none", "mean-float", "gather-array",
        "cross-entropy-array", "backward-array", "zero-grads-none-entry", "zero-grads-none",
        "conv-array", "conv-list-bias", "batchnorm-none-gamma", "partition-array",
        "reverse-array", "adamw-none-decay", "adamw-nan-lr", "adamw-inf-lr",
        "adamw-negative-lr", "adamw-text-lr", "optimizer-none-params", "optimizer-none-rule",
        "optimizer-array-param"])
def test_bad_input_raises_package_error(call, error):
    with pytest.raises(error):
        call()


# A float32 forward and training step leave scipy.special unloaded; a float64
# gelu loads it and still equals the erf form.
LAZY_ERF_SCRIPT = """
import sys
import numpy as np
from shuffleformer import (AdamW, ModelConfig, Optimizer, Rng, Tensor, backward,
                           cross_entropy_logits, gelu, init_model_params, model_forward,
                           parameter_list, zero_grads)
assert "scipy.special" not in sys.modules
cfg = ModelConfig(channels=8, depths=(2,), num_classes=4, resolution=16, window=2, head_dim=4)
rng = Rng(0)
params = init_model_params(cfg, rng)
x = Tensor(rng.normal((2, 3, 16, 16), dtype=np.float32))
model_forward(x, params, cfg, training=False)
tracked = parameter_list(params)
opt = Optimizer(tracked, AdamW(1e-3))
loss = cross_entropy_logits(model_forward(x, params, cfg, training=True), np.array([0, 3]))
zero_grads(tracked)
backward(loss)
opt.step()
assert "scipy.special" not in sys.modules, "float32 forward or training loaded scipy.special"
x64 = np.linspace(-6.0, 6.0, 1001)
got = gelu(Tensor(x64)).data
assert "scipy.special" in sys.modules
from scipy.special import erf
assert np.abs(got - x64 * 0.5 * (1.0 + erf(x64 / np.sqrt(2.0)))).max() <= 1e-12
"""


def _package_env() -> dict:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class TestReshapePermute:
    def test_reshape_transpose_flatten(self):
        t = Tensor(np.arange(4, dtype=np.float64))
        y = reshape_permute(t, (2, 2), (1, 0))
        flat = reshape_permute(y, (4,))
        assert flat.data.tolist() == [0.0, 2.0, 1.0, 3.0]

    def test_identity_order_keeps_values(self):
        t = Tensor(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
        y = reshape_permute(t, (2, 3, 4), (0, 1, 2))
        assert np.array_equal(y.data, t.data)

    def test_row_column_round_trip(self):
        t = Tensor(np.arange(6, dtype=np.float32).reshape(1, 6))
        back = reshape_permute(reshape_permute(t, (6, 1)), (1, 6))
        assert np.array_equal(back.data, t.data)

    def test_product_mismatch_raises(self):
        for shape in ((3, 2), (2.5, 2), (-1, -4)):
            with pytest.raises(InvalidShapeError):
                reshape_permute(Tensor(np.zeros(4)), shape)

    def test_bad_axis_order_raises(self):
        with pytest.raises(InvalidShapeError):
            reshape_permute(Tensor(np.zeros(4)), (2, 2), (0, 0))

    def test_gradient(self):
        rng = Rng(0)
        t = Tensor(rng.normal((2, 3, 4), dtype=np.float64), requires_grad=True)
        check_gradients(lambda: sum_all(mul(reshape_permute(t, (4, 6), None),
                                            reshape_permute(t, (4, 6), (0, 1)))), [t])


class TestMatmul:
    def test_identity(self):
        m = Tensor(np.arange(9, dtype=np.float64).reshape(3, 3))
        eye = Tensor(np.eye(3))
        assert np.array_equal(matmul(eye, m).data, m.data)

    def test_one_by_one(self):
        out = matmul(Tensor(np.array([[2.0]])), Tensor(np.array([[3.0]])))
        assert out.data.tolist() == [[6.0]]

    def test_against_triple_loop(self):
        rng = Rng(3)
        a = rng.normal((4, 5), dtype=np.float64)
        b = rng.normal((5, 3), dtype=np.float64)
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.abs(got - naive_matmul(a, b)).max() < 1e-12

    def test_batched_matches_per_slice(self):
        rng = Rng(4)
        a = rng.normal((3, 2, 4, 5), dtype=np.float64)
        b = rng.normal((3, 2, 5, 6), dtype=np.float64)
        got = matmul(Tensor(a), Tensor(b)).data
        for i in range(3):
            for j in range(2):
                assert np.allclose(got[i, j], a[i, j] @ b[i, j])

    def test_extent_mismatch_raises(self):
        with pytest.raises(InvalidShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_closed_form_gradients(self):
        rng = Rng(5)
        a = Tensor(rng.normal((3, 4), dtype=np.float64), requires_grad=True)
        b = Tensor(rng.normal((4, 2), dtype=np.float64), requires_grad=True)
        backward(sum_all(matmul(a, b)))
        ones = np.ones((3, 2))
        assert np.abs(a.grad - ones @ b.data.T).max() < 1e-10
        assert np.abs(b.grad - a.data.T @ ones).max() < 1e-10


class TestSoftmax:
    def test_equal_logits(self):
        out = softmax_lastdim(Tensor(np.zeros((2, 5)))).data
        assert np.allclose(out, 0.2, atol=1e-7)

    def test_closed_form(self):
        out = softmax_lastdim(Tensor(np.array([0.0, np.log(3.0)]))).data
        assert np.allclose(out, [0.25, 0.75], atol=1e-9)

    def test_shift_invariance(self):
        rng = Rng(6)
        logits = rng.normal((3, 7), dtype=np.float64)
        a = softmax_lastdim(Tensor(logits)).data
        b = softmax_lastdim(Tensor(logits + 123.5)).data
        assert np.abs(a - b).max() <= 1e-7

    def test_rows_sum_to_one(self):
        rng = Rng(7)
        out = softmax_lastdim(Tensor(rng.normal((4, 6, 9), dtype=np.float64))).data
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-6
        assert out.min() >= 0.0

    def test_matches_row_oracle(self):
        rng = Rng(8)
        logits = rng.normal((5, 4), dtype=np.float64)
        out = softmax_lastdim(Tensor(logits)).data
        for i in range(5):
            assert np.allclose(out[i], closed_form_softmax(logits[i]), atol=1e-12)

    def test_nan_propagates(self):
        out = softmax_lastdim(Tensor(np.array([1.0, np.nan]))).data
        assert np.isnan(out).all()

    def test_gradient(self):
        rng = Rng(9)
        t = Tensor(rng.normal((2, 5), dtype=np.float64), requires_grad=True)
        w = Tensor(rng.normal((2, 5), dtype=np.float64))
        check_gradients(lambda: sum_all(mul(softmax_lastdim(t), w)), [t])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_result_and_gradient_each_built_in_one_buffer(self, dtype):
        # rows of four, like the reachability probe's attention scores
        rng = Rng(10)
        x = rng.normal((4096, 1, 4, 4), 3.0, dtype=dtype)
        g = rng.normal(x.shape, dtype=dtype)
        t = Tensor(x, requires_grad=True)
        tracemalloc.start()
        try:
            out = softmax_lastdim(t)
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            (gx,) = out._vjp(g)
            vjp_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # one full-size buffer plus the per-row max or dot (a quarter here)
        assert forward_peak < 1.5 * x.nbytes
        assert vjp_peak < 1.5 * x.nbytes
        # the same values as the textbook expressions, bit for bit
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        assert np.array_equal(out.data, want)
        assert np.array_equal(gx, want * (g - (g * want).sum(axis=-1, keepdims=True)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 1), (2, 3, 49, 49)])
    def test_slice_max_matches_the_reductions(self, shape, dtype):
        x = Rng(11).normal(shape, 3.0, dtype=dtype)
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        out = softmax_lastdim(Tensor(x)).data
        assert out.dtype == dtype and np.array_equal(out, want)

    @pytest.mark.parametrize("data", [np.array(1.0), np.zeros((3, 0))],
                             ids=["0-d", "empty-last-axis"])
    def test_no_rows_rejected(self, data):
        with pytest.raises(InvalidShapeError):
            softmax_lastdim(Tensor(data))


class TestElementwise:
    def test_gelu_at_zero(self):
        assert gelu(Tensor(np.zeros(3))).data.tolist() == [0.0, 0.0, 0.0]

    def test_add_zeros_identity(self):
        rng = Rng(10)
        x = rng.normal((2, 3), dtype=np.float64)
        assert np.array_equal(add(Tensor(x), Tensor(np.zeros((2, 3)))).data, x)

    def test_add_broadcast_mismatch_raises(self):
        with pytest.raises(InvalidShapeError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))

    def test_add_dtype_mismatch_raises(self):
        with pytest.raises(InvalidShapeError):
            add(Tensor(np.zeros(2, dtype=np.float32)),
                Tensor(np.zeros(2, dtype=np.float64)))

    def test_mean_pool_constant(self):
        x = Tensor(np.full((2, 3, 4, 4), 2.5))
        assert np.allclose(mean_pool_hw(x).data, 2.5)

    def test_broadcast_bias_gradient(self):
        rng = Rng(11)
        x = Tensor(rng.normal((2, 3, 2, 2), dtype=np.float64), requires_grad=True)
        bias = Tensor(rng.normal((3, 1, 1), dtype=np.float64), requires_grad=True)
        check_gradients(lambda: sum_all(gelu(add(x, bias))), [x, bias])

    def test_gelu_gradient(self):
        rng = Rng(12)
        t = Tensor(rng.normal((4, 4), dtype=np.float64), requires_grad=True)
        w = Tensor(rng.normal((4, 4), dtype=np.float64))
        check_gradients(lambda: sum_all(mul(gelu(t), w)), [t])

    def test_float32_gelu_matches_exact_gelu(self):
        # a dense grid whose length is not a multiple of the kernel's block
        x = np.linspace(-10.0, 10.0, 3 * (1 << 16) + 1234).astype(np.float32)
        got = gelu(Tensor(x)).data
        assert got.dtype == np.float32
        x64 = x.astype(np.float64)
        want = x64 * 0.5 * (1.0 + erf(x64 / np.sqrt(2.0)))
        assert np.abs(got - want).max() <= 1e-6

    def test_scipy_special_loads_only_with_float64_gelu(self):
        # in a fresh interpreter: this test module's own imports load scipy.special
        result = subprocess.run([sys.executable, "-W", "error", "-c", LAZY_ERF_SCRIPT],
                                env=_package_env(), capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr[-2000:]

    def test_float32_gelu_special_values_match_erf_form(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e20, -1e20], np.float32)
        with np.errstate(invalid="ignore"):  # -inf * 0 is nan in both forms
            cdf = erf(x * np.float32(1.0 / np.sqrt(2.0)))
            cdf += np.float32(1.0)
            cdf *= np.float32(0.5)
            want = x * cdf
            got = gelu(Tensor(x)).data
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1,), (tensor._CHUNK_ELEMS - 1,),
                                       (tensor._CHUNK_ELEMS + 1,), (3, 5, 7, 1249)],
                             ids=["one", "block-less-one", "block-plus-one", "ragged"])
    def test_float32_gelu_gradient_across_block_edges(self, shape, monkeypatch):
        x = Rng(21).normal(shape, 3.0, dtype=np.float32)
        g = Rng(22).normal(shape, dtype=np.float32)
        grad = gelu(Tensor(x, requires_grad=True))._vjp(g)[0]
        monkeypatch.setattr(tensor, "_CHUNK_ELEMS", 7)
        assert grad.tobytes() == gelu(Tensor(x, requires_grad=True))._vjp(g)[0].tobytes()
        # against the exact derivative Phi(x) + x * phi(x)
        x64 = x.astype(np.float64)
        slope = 0.5 * (1.0 + erf(x64 / np.sqrt(2.0))) + x64 * np.exp(-0.5 * x64 * x64) / \
            np.sqrt(2.0 * np.pi)
        assert grad.dtype == np.float32
        assert np.all(np.abs(grad - g * slope) <= 1e-6 * np.abs(g))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_written_over_its_input_equals_gelu(self, dtype):
        # the frozen MLP's path: every block is read before it is overwritten
        x = Rng(23).normal((3, 5, 7, 1249), 3.0, dtype=dtype)
        x.reshape(-1)[:7] = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e20, -1e20]
        with np.errstate(invalid="ignore"):  # -inf * 0
            want = gelu(Tensor(x)).data
            assert tensor._gelu_blocks(x, out=x) is x
        assert x.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_gradient_written_over_g_equals_a_fresh_one(self, dtype):
        # the gelu_conv2d vjp's path: each block of g is read before it is
        # overwritten, and the same pass hands back the forward's x * Phi(x)
        x = Rng(24).normal((3, 5, 7, 1249), 3.0, dtype=dtype)
        x.reshape(-1)[:7] = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e20, -1e20]
        g = Rng(25).normal(x.shape, dtype=dtype)
        act = np.empty_like(x)
        with np.errstate(invalid="ignore"):  # -inf * 0, 0 * inf
            want, forward = tensor._gelu_blocks(x, g), gelu(Tensor(x)).data
            assert tensor._gelu_blocks(x, g, out=g, act=act) is g
        assert g.tobytes() == want.tobytes()
        assert act.tobytes() == forward.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_gradient_special_values(self, dtype):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype)
        with np.errstate(invalid="ignore"):  # 0 * inf in x * phi(x)
            grad = gelu(Tensor(x, requires_grad=True))._vjp(np.ones(5, dtype))[0]
        assert np.array_equal(grad, np.array([0.5, 0.5, np.nan, np.nan, np.nan], dtype),
                              equal_nan=True)

    def test_mean_pool_gradient(self):
        rng = Rng(13)
        x = Tensor(rng.normal((2, 3, 3, 3), dtype=np.float64), requires_grad=True)
        check_gradients(lambda: sum_all(mean_pool_hw(x)), [x])


class TestGatherHW:
    def test_matches_fancy_index(self):
        rng = Rng(14)
        x = Tensor(rng.normal((2, 3, 4, 5), dtype=np.float64))
        ih = np.array([3, 1, 0, 2])
        iw = np.array([4, 2, 0, 1, 3])
        out = gather_hw(x, ih, iw).data
        assert np.array_equal(out, x.data[:, :, ih[:, None], iw[None, :]])

    def test_rejects_non_permutation(self):
        x = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(InvalidShapeError):
            gather_hw(x, np.array([0, 0, 1]), np.array([0, 1, 2]))

    def test_gradient(self):
        rng = Rng(15)
        x = Tensor(rng.normal((1, 2, 3, 3), dtype=np.float64), requires_grad=True)
        w = Tensor(rng.normal((1, 2, 3, 3), dtype=np.float64))
        ih = np.array([2, 0, 1])
        iw = np.array([1, 2, 0])
        check_gradients(lambda: sum_all(mul(gather_hw(x, ih, iw), w)), [x])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
        backward(sum_all(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(InvalidCallError):
            backward(add(x, x))

    def test_shared_subexpression_accumulates(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        y = add(mul(x, x), x)  # x^2 + x, dy/dx = 2x + 1
        backward(y)
        assert np.allclose(x.grad, 7.0)

    def test_scale_and_operator_sugar(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = sum_all(add(scale(x, 3.0), scale(x, -1.0)))
        backward(loss)
        assert np.allclose(x.grad, 2.0)

    def test_output_that_no_vjp_reads_is_freed(self):
        # the graph keeps vjps and parents' nodes, not op results: add's vjp
        # reads only shapes, so scale's output dies with its tensor
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
        s = scale(x, 2.0)
        dead = weakref.ref(s.data)
        y = add(s, w)
        del s
        assert dead() is None
        backward(sum_all(y))
        assert np.array_equal(x.grad, np.full((2, 3), 2.0))
        assert np.array_equal(w.grad, np.full(3, 2.0))


class TestCrossEntropy:
    def test_uniform_logits_value(self):
        logits = Tensor(np.zeros((4, 8)))
        loss = cross_entropy_logits(logits, np.zeros(4, dtype=np.int64))
        assert np.allclose(float(loss.data), np.log(8.0))

    def test_label_out_of_range(self):
        with pytest.raises(InvalidCallError):
            cross_entropy_logits(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    @pytest.mark.parametrize("logits_shape, labels, error", [
        ((2, 3), np.array([0.5, 1.7]), InvalidCallError),
        ((2, 3), np.array([0.0, 1.0]), InvalidCallError),
        ((2, 3), np.array(["0", "1"]), InvalidCallError),
        ((0, 3), np.array([], dtype=np.int64), InvalidShapeError),
        ((0, 3), [], InvalidShapeError),
    ], ids=["non-integral", "integral-floats", "text", "empty-batch", "empty-list"])
    def test_bad_labels_or_batch_rejected(self, logits_shape, labels, error):
        with pytest.raises(error):
            cross_entropy_logits(Tensor(np.zeros(logits_shape)), labels)

    def test_value_matches_log_softmax(self):
        rng = Rng(15)
        logits = rng.normal((6, 5), 4.0, dtype=np.float64)
        labels = np.array([0, 4, 2, 2, 1, 3])
        rows = [np.log(closed_form_softmax(row)[c]) for row, c in zip(logits, labels)]
        got = float(cross_entropy_logits(Tensor(logits), labels).data)
        assert abs(got + np.mean(rows)) < 1e-12

    def test_gradient(self):
        rng = Rng(16)
        logits = Tensor(rng.normal((5, 4), dtype=np.float64), requires_grad=True)
        labels = np.array([0, 1, 2, 3, 1])
        check_gradients(lambda: cross_entropy_logits(logits, labels), [logits])


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        def run():
            rng = Rng(123)
            x = Tensor(rng.normal((4, 8), dtype=np.float32))
            w = Tensor(rng.normal((8, 8), dtype=np.float32))
            return softmax_lastdim(matmul(x, w)).data

        first, second = run(), run()
        assert first.tobytes() == second.tobytes()
