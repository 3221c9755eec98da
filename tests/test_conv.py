import tracemalloc

import numpy as np
import pytest

from shuffleformer import (BlockConfig, DegenerateBatchError, InvalidCallError,
                           InvalidConfigError, InvalidShapeError, ModelConfig, Rng, Tensor,
                           apply_bn, backward, batchnorm2d, conv2d, cross_entropy_logits, gelu,
                           gelu_conv2d, init_block_params, init_model_params, model_forward,
                           mul, sum_all, zero_grads)
from shuffleformer import conv, tensor
from shuffleformer.layers import nwc_padding
from shuffleformer.reachability import PROBE_SEEDS, BlockSpec, reachability_probe

from gradcheck import check_gradients
from oracles import batchnorm_train_input_grad, naive_conv2d, naive_matmul


class TestConv2d:
    def test_one_by_one_equals_per_pixel_matmul(self):
        rng = Rng(0)
        x = rng.normal((2, 3, 4, 4), dtype=np.float64)
        w = rng.normal((5, 3, 1, 1), dtype=np.float64)
        out = conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(5))).data
        for b in range(2):
            for i in range(4):
                for j in range(4):
                    expect = naive_matmul(w[:, :, 0, 0], x[b, :, i, j][:, None])
                    assert np.abs(out[b, :, i, j] - expect[:, 0]).max() < 1e-12

    def test_depthwise_identity_kernel(self):
        rng = Rng(1)
        x = rng.normal((1, 3, 5, 5), dtype=np.float64)
        w = np.zeros((3, 1, 3, 3))
        w[:, 0, 1, 1] = 1.0
        out = conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(3)), padding=1, groups=3).data
        assert np.array_equal(out, x)

    def test_stride2_shape(self):
        out = conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))),
                     Tensor(np.zeros(1)), stride=2)
        assert out.shape == (1, 1, 2, 2)

    @pytest.mark.parametrize("stride,padding,groups,kernel,cin,cout", [
        (1, 0, 1, 3, 2, 4),
        (2, 1, 1, 3, 3, 2),
        (1, 1, 1, 2, 4, 6),
        (1, ((0, 1), (0, 1)), 4, 2, 4, 4),
        (2, 2, 1, 5, 1, 3),
    ])
    def test_against_seven_loop_oracle(self, stride, padding, groups, kernel, cin, cout):
        rng = Rng(42)
        x = rng.normal((2, cin, 6, 6), dtype=np.float64)
        w = rng.normal((cout, cin // groups, kernel, kernel), dtype=np.float64)
        b = rng.normal((cout,), dtype=np.float64)
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding, groups).data
        want = naive_conv2d(x, w, b, stride, padding if not isinstance(padding, tuple)
                            else padding, groups)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-10

    def test_group_mismatch_raises(self):
        with pytest.raises(InvalidConfigError):
            conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 3, 1, 1))),
                   Tensor(np.zeros(2)), groups=2)

    @pytest.mark.parametrize("stride, padding", [(0, 0), (-1, 0), (1, -1), (1, ((0, 1), (-1, 0)))],
                             ids=["zero-stride", "negative-stride", "negative-padding",
                                  "negative-left-padding"])
    def test_bad_stride_or_padding_raises(self, stride, padding):
        with pytest.raises(InvalidConfigError):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((2, 1, 3, 3))),
                   Tensor(np.zeros(2)), stride=stride, padding=padding, groups=2)

    @pytest.mark.parametrize("x_shape, w_shape, kwargs", [
        ((1, 2, 4, 4), (2, 2, 3, 3), dict(stride=(1, 2, 3))),
        ((1, 2, 4, 4), (2, 2, 3, 3), dict(stride=1.0)),
        ((1, 2, 4, 4), (2, 2, 3, 3), dict(padding="a")),
        ((1, 2, 4, 4), (2, 2, 3, 3), dict(padding=1.5)),
        ((1, 2, 4, 4), (2, 2, 3, 3), dict(padding=((1, 2), (3,)))),
        ((1, 2, 4, 4), (2, 2, 3, 3), dict(padding=(1, 1))),
        ((1, 2, 4, 4), (2, 2, 3, 3), dict(padding=((0, 1), (1, -1)))),
        ((1, 4, 5, 5), (6, 2, 3, 3), dict(padding=1, groups=2)),
        ((1, 4, 5, 5), (4, 2, 3, 3), dict(padding=1, groups=2.0)),
        ((1, 3, 6, 6), (3, 1, 3, 3), dict(stride=2, padding=1, groups=3)),
    ], ids=["stride-triple", "stride-float", "padding-text", "padding-float",
            "padding-ragged", "padding-pair", "negative-right-padding", "groups-2-on-4-to-6",
            "groups-float", "depthwise-stride-2"])
    def test_unsupported_arguments_rejected(self, x_shape, w_shape, kwargs):
        with pytest.raises(InvalidConfigError):
            conv2d(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)),
                   Tensor(np.zeros(w_shape[0])), **kwargs)

    def test_kernel_channel_mismatch_raises(self):
        with pytest.raises(InvalidConfigError):
            conv2d(Tensor(np.zeros((1, 4, 4, 4))), Tensor(np.zeros((2, 3, 1, 1))),
                   Tensor(np.zeros(2)))

    @pytest.mark.parametrize("groups,kernel,stride,padding", [
        (1, 3, 1, 1),
        (1, 2, 2, 0),
        (4, 3, 1, ((0, 1), (1, 0))),
    ])
    def test_gradients(self, groups, kernel, stride, padding):
        rng = Rng(7)
        x = Tensor(rng.normal((2, 4, 4, 4), dtype=np.float64), requires_grad=True)
        w = Tensor(rng.normal((4, 4 // groups, kernel, kernel), dtype=np.float64),
                   requires_grad=True)
        b = Tensor(rng.normal((4,), dtype=np.float64), requires_grad=True)
        check_gradients(lambda: sum_all(conv2d(x, w, b, stride, padding, groups)),
                        [x, w, b])


def _check_against_oracle(x, w, b, padding=0, groups=1):
    got = conv2d(Tensor(x), Tensor(w), Tensor(b), 1, padding, groups).data
    want = naive_conv2d(x, w, b, 1, padding, groups)
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-10


class TestDepthwiseKernel:
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("pad_rule", ["symmetric", "nwc", "wider-than-kernel"])
    def test_against_seven_loop_oracle(self, kernel, channels, pad_rule):
        rng = Rng(10 + kernel)
        x = rng.normal((2, channels, 7, 6), dtype=np.float64)
        w = rng.normal((channels, 1, kernel, kernel), dtype=np.float64)
        b = rng.normal((channels,), dtype=np.float64)
        padding = {"symmetric": kernel // 2,
                   "nwc": (nwc_padding(kernel), nwc_padding(kernel)),
                   "wider-than-kernel": ((kernel, 1), (0, kernel + 1))}[pad_rule]
        _check_against_oracle(x, w, b, padding, groups=channels)

    def test_row_chunks_match_oracle(self):
        rng = Rng(20)
        x = rng.normal((3, 5, 6, 6), dtype=np.float64)
        w = rng.normal((5, 1, 4, 4), dtype=np.float64)
        b = rng.normal((5,), dtype=np.float64)
        _check_against_oracle(x, w, b, (nwc_padding(4), nwc_padding(4)), groups=5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [2, 7])
    @pytest.mark.parametrize("pad_rule", ["nwc", "wider-than-kernel"])
    def test_stacked_images_match_oracle(self, kernel, pad_rule, dtype):
        padding = {"nwc": (nwc_padding(kernel), nwc_padding(kernel)),
                   "wider-than-kernel": ((kernel, 1), (0, kernel + 1))}[pad_rule]
        rng = Rng(22)
        x = rng.normal((5, 3, 5, 4), dtype=np.float64)
        w = rng.normal((3, 1, kernel, kernel), dtype=np.float64)
        got = conv2d(Tensor(x.astype(dtype)), Tensor(w.astype(dtype)), Tensor(np.zeros(3, dtype)),
                     1, padding, 3).data
        want = naive_conv2d(x, w, None, 1, padding, 3)
        assert got.dtype == dtype and got.shape == want.shape
        tol = 1e-5 if dtype == np.float32 else 1e-12
        assert np.abs(got - want).max() < tol * np.abs(want).max()

    @pytest.mark.parametrize("kernel, chunk", [(3, None), (4, None), (4, 150)])
    def test_gradients(self, kernel, chunk):
        rng = Rng(21)
        x = Tensor(rng.normal((2, 3, 5, 4), dtype=np.float64), requires_grad=True)
        w = Tensor(rng.normal((3, 1, kernel, kernel), dtype=np.float64), requires_grad=True)
        b = Tensor(rng.normal((3,), dtype=np.float64), requires_grad=True)
        weight = Tensor(rng.normal((2, 3, 5, 4), dtype=np.float64))
        pad = (nwc_padding(kernel), nwc_padding(kernel))
        check_gradients(lambda: sum_all(mul(conv2d(x, w, b, 1, pad, 3), weight)), [x, w, b])

    def test_gradients_of_stacked_images(self):
        rng = Rng(23)
        x = Tensor(rng.normal((5, 2, 5, 4), dtype=np.float64), requires_grad=True)
        w = Tensor(rng.normal((2, 1, 3, 3), dtype=np.float64), requires_grad=True)
        b = Tensor(np.zeros(2))
        weight = Tensor(rng.normal((5, 2, 6, 4), dtype=np.float64))
        pad = ((2, 1), (0, 2))
        check_gradients(lambda: sum_all(mul(conv2d(x, w, b, 1, pad, 2), weight)), [x, w])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [2, 7])
    @pytest.mark.parametrize("pad_rule", ["nwc", "wider-than-kernel"])
    def test_each_image_equals_it_alone(self, kernel, pad_rule, dtype):
        # the rows that straddle two stacked images must not leak into either:
        # reach at threshold 0 needs exact zeros at unreachable positions
        padding = {"nwc": (nwc_padding(kernel), nwc_padding(kernel)),
                   "wider-than-kernel": ((kernel, 1), (0, kernel + 1))}[pad_rule]
        _check_each_image_alone((4, 3, 5, 4), kernel, padding, dtype, Rng(24))

    def test_t224_stage0_batch_equals_each_image_alone(self):
        # a batch of 8 at the T variant's stage 0 took another sgemm path in
        # the banded kernel, which differed from the images alone by ~5e-6
        pad = nwc_padding(7)
        _check_each_image_alone((8, 96, 56, 56), 7, (pad, pad), np.float32, Rng(25))

    def test_eval_conv_scratch_stays_near_its_input(self):
        # tracemalloc's peak while the T variant's stage-0 NWC conv runs, held
        # to 6x its input: the banded kernel's (C, kh, wp, ow) bands held 11.1x
        rng = Rng(26)
        x = Tensor(rng.normal((1, 96, 56, 56), dtype=np.float32))
        w = Tensor(rng.normal((96, 1, 7, 7), 0.1, dtype=np.float32))
        bias = Tensor(np.zeros(96, np.float32))
        pad = nwc_padding(7)
        peak = _traced_peak(lambda: conv2d(x, w, bias, 1, (pad, pad), 96))
        assert peak <= 6 * x.data.nbytes


def _check_each_image_alone(shape, kernel, padding, dtype, rng):
    """The depth-wise conv's output and input gradient on a batch equal, bit
    for bit, those of each image run alone."""
    chans = shape[1]
    x = rng.normal(shape, dtype=dtype)
    w = Tensor(rng.normal((chans, 1, kernel, kernel), dtype=dtype))
    bias = Tensor(np.zeros(chans, dtype))
    weight = rng.normal(conv2d(Tensor(x), w, bias, 1, padding, chans).shape, dtype=dtype)

    def run(b0, b1):
        xt = Tensor(x[b0:b1], requires_grad=True)
        out = conv2d(xt, w, bias, 1, padding, chans)
        backward(sum_all(mul(out, Tensor(weight[b0:b1]))))
        return out.data, xt.grad

    out, gx = run(0, shape[0])
    for b in range(shape[0]):
        out_b, gx_b = run(b, b + 1)
        assert np.array_equal(out[b:b + 1], out_b) and np.array_equal(gx[b:b + 1], gx_b)


def _traced_peak(fn) -> int:
    """Peak bytes that tracemalloc traces while `fn` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPointwiseKernel:
    @pytest.mark.parametrize("cin, cout", [(3, 5), (5, 3), (1, 4), (4, 1), (1, 1)])
    def test_against_seven_loop_oracle(self, cin, cout):
        rng = Rng(30 + cin)
        x = rng.normal((2, cin, 3, 5), dtype=np.float64)
        w = rng.normal((cout, cin, 1, 1), dtype=np.float64)
        b = rng.normal((cout,), dtype=np.float64)
        _check_against_oracle(x, w, b)

    @pytest.mark.parametrize("cin, cout", [(2, 3), (1, 2), (3, 1)])
    def test_gradients(self, cin, cout):
        rng = Rng(31)
        x = Tensor(rng.normal((2, cin, 3, 2), dtype=np.float64), requires_grad=True)
        w = Tensor(rng.normal((cout, cin, 1, 1), dtype=np.float64), requires_grad=True)
        b = Tensor(rng.normal((cout,), dtype=np.float64), requires_grad=True)
        weight = Tensor(rng.normal((2, cout, 3, 2), dtype=np.float64))
        check_gradients(lambda: sum_all(mul(conv2d(x, w, b), weight)), [x, w, b])


class TestDenseKernel:
    # (kernel, stride, padding, cin, cout): the embed convs, the merge and
    # asymmetric padding; TestPointwiseKernel covers unpadded 1x1 convs
    CASES = {
        "k3-s2-p1": (3, 2, 1, 3, 5),
        "k2-s2-p0": (2, 2, 0, 4, 6),
        "k1-padded": (1, 1, 1, 2, 3),
        "k2-asymmetric": (2, 1, ((0, 1), (1, 0)), 3, 2),
        "k3-s2-asymmetric": (3, 2, ((2, 0), (1, 3)), 2, 4),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_against_seven_loop_oracle(self, case):
        kernel, stride, padding, cin, cout = self.CASES[case]
        rng = Rng(30 + cin)
        x = rng.normal((2, cin, 7, 6), dtype=np.float64)
        w = rng.normal((cout, cin, kernel, kernel), dtype=np.float64)
        b = rng.normal((cout,), dtype=np.float64)
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding).data
        want = naive_conv2d(x, w, b, stride, padding)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-10

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_gradients(self, case):
        kernel, stride, padding, cin, cout = self.CASES[case]
        rng = Rng(31)
        x = Tensor(rng.normal((2, cin, 5, 4), dtype=np.float64), requires_grad=True)
        w = Tensor(rng.normal((cout, cin, kernel, kernel), dtype=np.float64),
                   requires_grad=True)
        b = Tensor(rng.normal((cout,), dtype=np.float64), requires_grad=True)
        out_shape = conv2d(x, w, b, stride, padding).shape
        weight = Tensor(rng.normal(out_shape, dtype=np.float64))
        check_gradients(lambda: sum_all(mul(conv2d(x, w, b, stride, padding), weight)),
                        [x, w, b])

    def test_one_by_one_neither_copies_input_nor_zero_fills(self, monkeypatch):
        rng = Rng(32)
        x = Tensor(rng.normal((2, 3, 4, 5), dtype=np.float64), requires_grad=True)
        w = Tensor(rng.normal((6, 3, 1, 1), dtype=np.float64), requires_grad=True)
        b = Tensor(np.zeros(6))
        g = rng.normal((2, 6, 4, 5), dtype=np.float64)
        operands = []
        matmul = np.matmul

        def spy(a, b):
            operands.append(b)
            return matmul(a, b)

        def refuse(*args, **kwargs):
            raise AssertionError("1x1 conv padded or zero-filled a buffer")

        monkeypatch.setattr(np, "matmul", spy)
        monkeypatch.setattr(np, "pad", refuse)
        monkeypatch.setattr(np, "zeros", refuse)
        out = conv2d(x, w, b)
        gx, gw, _ = out._vjp(g)
        assert np.shares_memory(operands[0], x.data)
        assert np.abs(gx - np.einsum("oc,bohw->bchw", w.data[:, :, 0, 0], g)).max() < 1e-12
        assert np.abs(gw[:, :, 0, 0] - np.einsum("bohw,bchw->oc", g, x.data)).max() < 1e-12


class TestGeluConv2d:
    # (kernel, stride, padding): the MLP's second projection and the embed's second conv
    CASES = {"k1": (1, 1, 0), "k3-s2-p1": (3, 2, 1)}

    def _operands(self, case, dtype, seed):
        kernel, stride, padding = self.CASES[case]
        rng = Rng(seed)
        h = Tensor(rng.normal((2, 3, 6, 5), 2.0, dtype=dtype), requires_grad=True)
        w = Tensor(rng.normal((4, 3, kernel, kernel), dtype=dtype), requires_grad=True)
        b = Tensor(rng.normal((4,), dtype=dtype), requires_grad=True)
        out_shape = conv2d(h, w, b, stride, padding).shape
        return h, w, b, stride, padding, Tensor(rng.normal(out_shape, dtype=dtype))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_gradients(self, case):
        h, w, b, stride, padding, weight = self._operands(case, np.float64, 33)
        check_gradients(lambda: sum_all(mul(gelu_conv2d(h, w, b, stride, padding), weight)),
                        [h, w, b])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_bits_as_conv_of_gelu(self, case, dtype, monkeypatch):
        # GELU blocks of 7 values, so the rebuilt GELU crosses block edges
        monkeypatch.setattr(tensor, "_CHUNK_ELEMS", 7)
        h, w, b, stride, padding, weight = self._operands(case, dtype, 34)
        results = []
        for fn in (lambda: gelu_conv2d(h, w, b, stride, padding),
                   lambda: conv2d(gelu(h), w, b, stride, padding)):
            zero_grads([h, w, b])
            out = fn()
            backward(sum_all(mul(out, weight)))
            results.append([out.data, h.grad, w.grad, b.grad])
        for fused, plain in zip(*results):
            assert fused.dtype == dtype
            assert np.array_equal(fused, plain)


def _zeros(*shape):
    return Tensor(np.zeros(shape))


# conv2d and gelu_conv2d share one set of argument checks, so each bad call
# raises the same package error from both
_BAD_CONV_ARGS = {
    "list": (([1.0], _zeros(2, 3, 1, 1), _zeros(2)), InvalidCallError),
    "rank": ((_zeros(3, 4, 4), _zeros(2, 3, 1, 1), _zeros(2)), InvalidShapeError),
    "channels": ((_zeros(1, 4, 4, 4), _zeros(2, 3, 1, 1), _zeros(2)), InvalidConfigError),
    "bias": ((_zeros(1, 3, 4, 4), _zeros(2, 3, 1, 1), _zeros(3)), InvalidShapeError),
    "3d-kernel": ((_zeros(1, 3, 4, 4), _zeros(2, 3, 1), _zeros(2)), InvalidShapeError),
    "kernel-too-large": ((_zeros(1, 3, 4, 4), _zeros(2, 3, 5, 5), _zeros(2)), InvalidShapeError),
}
_BAD_CALLS = {f"{op.__name__}-{name}": (lambda op=op, args=args: op(*args), error)
              for op in (conv2d, gelu_conv2d) for name, (args, error) in _BAD_CONV_ARGS.items()}
_BAD_CALLS["batchnorm2d-rank"] = (
    lambda: batchnorm2d(_zeros(2, 3, 4), _zeros(3), _zeros(3), np.zeros(3), np.ones(3), False),
    InvalidShapeError)


@pytest.mark.parametrize("call, error", list(_BAD_CALLS.values()), ids=list(_BAD_CALLS))
def test_bad_conv_call_raises_package_error(call, error):
    with pytest.raises(error):
        call()


def _routed_convs(monkeypatch, run):
    """Run `run()` and return (kernel name, weight shape) for every conv call."""
    calls = []
    for name in ("_dense", "_depthwise"):
        def spy(x, w, *args, _kernel=getattr(conv, name), _name=name):
            calls.append((_name, w.shape))
            return _kernel(x, w, *args)
        monkeypatch.setattr(conv, name, spy)
    run()
    return calls


def test_model_step_routes_each_conv_to_its_kernel(monkeypatch):
    cfg = ModelConfig(channels=8, depths=(2, 2), num_classes=3, resolution=32, window=2,
                      head_dim=4, shuffle_mode="long-range", nwc_position="C")
    rng = Rng(40)
    params = init_model_params(cfg, rng)
    image = Tensor(rng.normal((2, 3, 32, 32), dtype=np.float32))

    def step():
        logits = model_forward(image, params, cfg, training=True)
        backward(cross_entropy_logits(logits, np.array([0, 2])))

    calls = _routed_convs(monkeypatch, step)
    for name, (cout, cin_g, kh, kw) in calls:
        assert name == ("_depthwise" if cin_g == 1 and kh * kw > 1 else "_dense")
    # per block six 1x1 convs and one NWC; two embed convs and one merge
    assert sum(name == "_dense" for name, _ in calls) == 4 * 6 + 3
    assert sum(name == "_depthwise" for name, _ in calls) == 4


def test_probe_stack_routes_each_conv_to_its_kernel(monkeypatch):
    stack = [BlockSpec(2, nwc=True, nwc_position="A"),
             BlockSpec(2, "long-range", nwc=True, nwc_position="C")]
    calls = _routed_convs(monkeypatch, lambda: reachability_probe(stack, (4, 4), (1, 2)))
    seeds = len(PROBE_SEEDS)
    # one channel: the 2x2 NWC stays depth-wise, the 1x1 projections are dense
    assert sorted(set(calls)) == [("_dense", (1, 1, 1, 1)), ("_dense", (1, 2, 1, 1)),
                                  ("_dense", (2, 1, 1, 1)), ("_depthwise", (1, 1, 2, 2)),
                                  ("_depthwise", (2, 1, 2, 2))]
    assert len(calls) == seeds * 2 * (6 + 1)


def _identity_bn(channels):
    """A block's first batch norm as init leaves it: unit scale, zero shift,
    zero mean and unit variance."""
    return init_block_params(BlockConfig(channels, 1, 1), Rng(0), dtype=np.float64).bn1


class TestBatchNorm:
    def test_eval_neutral_stats_identity_up_to_eps(self):
        rng = Rng(2)
        x = rng.normal((2, 3, 4, 4), dtype=np.float64)
        p = _identity_bn(3)
        out = apply_bn(Tensor(x), p, training=False).data
        assert np.abs(out - x / np.sqrt(1.0 + 1e-5)).max() < 1e-12

    def test_train_constant_channel_outputs_beta(self):
        x = Tensor(np.full((2, 2, 3, 3), 7.0, dtype=np.float32))
        gamma = Tensor(np.ones(2, dtype=np.float32))
        beta = Tensor(np.full(2, 0.25, dtype=np.float32))
        out = batchnorm2d(x, gamma, beta, np.zeros(2, np.float32), np.ones(2, np.float32),
                          training=True).data
        assert np.abs(out - 0.25).max() < 1e-5

    def test_train_statistics(self):
        rng = Rng(3)
        x = rng.normal((4, 3, 5, 5), dtype=np.float64) * 2.0 + 1.0
        p = _identity_bn(3)
        out = apply_bn(Tensor(x), p, training=True).data
        mean = out.mean(axis=(0, 2, 3))
        var = out.var(axis=(0, 2, 3))
        assert np.abs(mean).max() <= 1e-6
        assert np.abs(var - 1.0).max() <= 1e-4

    def test_running_stats_update(self):
        rng = Rng(4)
        x = rng.normal((4, 2, 3, 3), dtype=np.float64) + 5.0
        running_mean, running_var = np.zeros(2), np.ones(2)
        gamma = Tensor(np.ones(2, dtype=np.float64))
        beta = Tensor(np.zeros(2, dtype=np.float64))
        batchnorm2d(Tensor(x), gamma, beta, running_mean, running_var, training=True)
        batch_mean = x.mean(axis=(0, 2, 3))
        n = 4 * 3 * 3
        batch_var = x.var(axis=(0, 2, 3)) * n / (n - 1)
        assert np.allclose(running_mean, 0.9 * 0.0 + 0.1 * batch_mean)
        assert np.allclose(running_var, 0.9 * 1.0 + 0.1 * batch_var)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_running_var_is_unbiased_np_var(self, dtype):
        # exact: the batch variance is computed with the same operations as np.var
        rng = Rng(6)
        x = rng.normal((4, 3, 5, 5), 3.0, dtype=dtype) + dtype(2.0)
        running_mean, running_var = np.zeros(3, dtype), rng.normal((3,), dtype=dtype) ** 2
        before = running_var.copy()
        batchnorm2d(Tensor(x), Tensor(np.ones(3, dtype)), Tensor(np.zeros(3, dtype)),
                    running_mean, running_var, training=True)
        n = 4 * 5 * 5
        want = (1.0 - conv.BN_MOMENTUM) * before \
            + conv.BN_MOMENTUM * np.var(x, axis=(0, 2, 3)) * (n / (n - 1))
        assert running_var.dtype == dtype and np.array_equal(running_var, want)

    def test_training_input_gradient_matches_textbook_form(self):
        rng = Rng(7)
        x = Tensor(rng.normal((4, 3, 5, 5), 1.5, dtype=np.float64) - 0.4, requires_grad=True)
        gamma = rng.normal((3,), 0.5, dtype=np.float64) + 1.2
        g = rng.normal(x.shape, dtype=np.float64)
        out = batchnorm2d(x, Tensor(gamma), Tensor(rng.normal((3,), dtype=np.float64)),
                          np.zeros(3), np.ones(3), training=True)
        backward(sum_all(mul(out, Tensor(g))))
        want = batchnorm_train_input_grad(x.data, gamma, g, conv.BN_EPS)
        assert np.abs(x.grad - want).max() <= 1e-12 * np.abs(want).max()

    def test_eval_does_not_touch_running_stats(self):
        running_mean, running_var = np.zeros(2), np.ones(2)
        before = (running_mean.copy(), running_var.copy())
        gamma = Tensor(np.ones(2, dtype=np.float64))
        beta = Tensor(np.zeros(2, dtype=np.float64))
        batchnorm2d(Tensor(np.random.default_rng(0).normal(size=(2, 2, 2, 2))),
                    gamma, beta, running_mean, running_var, training=False)
        assert np.array_equal(running_mean, before[0])
        assert np.array_equal(running_var, before[1])

    def test_degenerate_batch_rejected(self):
        p = _identity_bn(2)
        with pytest.raises(DegenerateBatchError):
            apply_bn(Tensor(np.zeros((1, 2, 1, 1))), p, training=True)

    def test_shape_validation(self):
        p = _identity_bn(3)
        with pytest.raises(InvalidShapeError):
            apply_bn(Tensor(np.zeros((2, 4, 2, 2))), p, training=False)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("stats", [(np.zeros(2), np.ones(2)), ([0.0] * 3, [1.0] * 3)],
                             ids=["wrong-shape", "lists"])
    def test_bad_running_stats_rejected(self, stats, training):
        p = _identity_bn(3)
        with pytest.raises(InvalidShapeError, match="running stats"):
            batchnorm2d(Tensor(np.zeros((2, 3, 2, 2))), p.gamma, p.beta, *stats, training)

    @pytest.mark.parametrize("training", [True, False])
    def test_gradients(self, training):
        rng = Rng(5)
        x = Tensor(rng.normal((3, 2, 3, 3), dtype=np.float64), requires_grad=True)
        gamma = Tensor(rng.normal((2,), 0.5, dtype=np.float64) + 1.0, requires_grad=True)
        beta = Tensor(rng.normal((2,), 0.5, dtype=np.float64), requires_grad=True)
        weight = Tensor(rng.normal((3, 2, 3, 3), dtype=np.float64))

        def run():
            running_mean, running_var = np.zeros(2) + 0.3, np.ones(2) + 0.5
            out = batchnorm2d(x, gamma, beta, running_mean, running_var, training=training)
            return sum_all(mul(out, weight))

        check_gradients(run, [x, gamma, beta])
