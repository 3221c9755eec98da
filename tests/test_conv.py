import numpy as np
import pytest

from shuffleformer import (BnParams, DegenerateBatchError, InvalidConfigError,
                           InvalidShapeError, ModelConfig, Rng, RunningStats, Tensor,
                           apply_bn, backward, batchnorm2d, conv2d, cross_entropy_logits,
                           init_model_params, model_forward, mul, sum_all)
from shuffleformer import conv
from shuffleformer.layers import nwc_padding

from gradcheck import check_gradients
from oracles import naive_conv2d, naive_matmul


class TestConv2d:
    def test_one_by_one_equals_per_pixel_matmul(self):
        rng = Rng(0)
        x = rng.normal((2, 3, 4, 4), dtype=np.float64)
        w = rng.normal((5, 3, 1, 1), dtype=np.float64)
        out = conv2d(Tensor(x), Tensor(w)).data
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
        out = conv2d(Tensor(x), Tensor(w), padding=1, groups=3).data
        assert np.array_equal(out, x)

    def test_stride2_shape(self):
        out = conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))),
                     stride=2)
        assert out.shape == (1, 1, 2, 2)

    @pytest.mark.parametrize("stride,padding,groups,kernel,cin,cout", [
        (1, 0, 1, 3, 2, 4),
        (2, 1, 1, 3, 3, 2),
        (1, 1, 2, 2, 4, 6),
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
                   groups=2)

    @pytest.mark.parametrize("stride, padding", [(0, 0), (-1, 0), (1, -1), (1, ((0, 1), (-1, 0)))],
                             ids=["zero-stride", "negative-stride", "negative-padding",
                                  "negative-left-padding"])
    def test_bad_stride_or_padding_raises(self, stride, padding):
        with pytest.raises(InvalidConfigError):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((2, 1, 3, 3))),
                   stride=stride, padding=padding, groups=2)

    def test_kernel_channel_mismatch_raises(self):
        with pytest.raises(InvalidConfigError):
            conv2d(Tensor(np.zeros((1, 4, 4, 4))), Tensor(np.zeros((2, 3, 1, 1))))

    @pytest.mark.parametrize("groups,kernel,stride,padding", [
        (1, 3, 1, 1),
        (2, 2, 2, 0),
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

    def test_row_chunks_match_oracle(self, monkeypatch):
        # a few padded rows per chunk, so chunk edges fall inside images
        monkeypatch.setattr(conv, "_CHUNK_ELEMS", 200)
        rng = Rng(20)
        x = rng.normal((3, 5, 6, 6), dtype=np.float64)
        w = rng.normal((5, 1, 4, 4), dtype=np.float64)
        b = rng.normal((5,), dtype=np.float64)
        _check_against_oracle(x, w, b, (nwc_padding(4), nwc_padding(4)), groups=5)

    @pytest.mark.parametrize("kernel, chunk", [(3, None), (4, None), (4, 150)])
    def test_gradients(self, kernel, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(conv, "_CHUNK_ELEMS", chunk)
        rng = Rng(21)
        x = Tensor(rng.normal((2, 3, 5, 4), dtype=np.float64), requires_grad=True)
        w = Tensor(rng.normal((3, 1, kernel, kernel), dtype=np.float64), requires_grad=True)
        b = Tensor(rng.normal((3,), dtype=np.float64), requires_grad=True)
        weight = Tensor(rng.normal((2, 3, 5, 4), dtype=np.float64))
        pad = (nwc_padding(kernel), nwc_padding(kernel))
        check_gradients(lambda: sum_all(mul(conv2d(x, w, b, 1, pad, 3), weight)), [x, w, b])


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


def test_model_step_never_lowers_pointwise_or_depthwise_to_im2col(monkeypatch):
    general = conv._grouped_im2col
    seen = []

    def guarded(x, w, stride, pads, groups, out_hw):
        cout, _, kh, kw = w.shape
        if (kh == kw == 1 and groups == 1) or groups == x.shape[1] == cout:
            raise AssertionError(f"{w.shape} kernel with groups={groups} reached im2col")
        seen.append(w.shape)
        return general(x, w, stride, pads, groups, out_hw)

    monkeypatch.setattr(conv, "_grouped_im2col", guarded)
    cfg = ModelConfig(channels=8, depths=(2, 2), num_classes=3, resolution=32, window=2,
                      head_dim=4, shuffle_mode="long-range", nwc_position="C")
    rng = Rng(40)
    params = init_model_params(cfg, rng)
    logits = model_forward(Tensor(rng.normal((2, 3, 32, 32), dtype=np.float32)), params, cfg,
                           training=True)
    backward(cross_entropy_logits(logits, np.array([0, 2])))
    assert len(seen) == 3  # the two embed convs and the one merge


class TestBatchNorm:
    def test_eval_neutral_stats_identity_up_to_eps(self):
        rng = Rng(2)
        x = rng.normal((2, 3, 4, 4), dtype=np.float64)
        p = BnParams.identity(3, np.float64)
        out = apply_bn(Tensor(x), p, training=False).data
        assert np.abs(out - x / np.sqrt(1.0 + 1e-5)).max() < 1e-12

    def test_train_constant_channel_outputs_beta(self):
        x = Tensor(np.full((2, 2, 3, 3), 7.0, dtype=np.float32))
        gamma = Tensor(np.ones(2, dtype=np.float32))
        beta = Tensor(np.full(2, 0.25, dtype=np.float32))
        out = batchnorm2d(x, gamma, beta, RunningStats.neutral(2), training=True).data
        assert np.abs(out - 0.25).max() < 1e-5

    def test_train_statistics(self):
        rng = Rng(3)
        x = rng.normal((4, 3, 5, 5), dtype=np.float64) * 2.0 + 1.0
        p = BnParams.identity(3, np.float64)
        out = apply_bn(Tensor(x), p, training=True).data
        mean = out.mean(axis=(0, 2, 3))
        var = out.var(axis=(0, 2, 3))
        assert np.abs(mean).max() <= 1e-6
        assert np.abs(var - 1.0).max() <= 1e-4

    def test_running_stats_update(self):
        rng = Rng(4)
        x = rng.normal((4, 2, 3, 3), dtype=np.float64) + 5.0
        running = RunningStats.neutral(2, np.float64)
        gamma = Tensor(np.ones(2, dtype=np.float64))
        beta = Tensor(np.zeros(2, dtype=np.float64))
        batchnorm2d(Tensor(x), gamma, beta, running, training=True, momentum=0.1)
        batch_mean = x.mean(axis=(0, 2, 3))
        n = 4 * 3 * 3
        batch_var = x.var(axis=(0, 2, 3)) * n / (n - 1)
        assert np.allclose(running.mean, 0.9 * 0.0 + 0.1 * batch_mean)
        assert np.allclose(running.var, 0.9 * 1.0 + 0.1 * batch_var)

    def test_eval_does_not_touch_running_stats(self):
        running = RunningStats.neutral(2, np.float64)
        before = (running.mean.copy(), running.var.copy())
        gamma = Tensor(np.ones(2, dtype=np.float64))
        beta = Tensor(np.zeros(2, dtype=np.float64))
        batchnorm2d(Tensor(np.random.default_rng(0).normal(size=(2, 2, 2, 2))),
                    gamma, beta, running, training=False)
        assert np.array_equal(running.mean, before[0])
        assert np.array_equal(running.var, before[1])

    def test_degenerate_batch_rejected(self):
        p = BnParams.identity(2, np.float64)
        with pytest.raises(DegenerateBatchError):
            apply_bn(Tensor(np.zeros((1, 2, 1, 1))), p, training=True)

    def test_shape_validation(self):
        p = BnParams.identity(3, np.float64)
        with pytest.raises(InvalidShapeError):
            apply_bn(Tensor(np.zeros((2, 4, 2, 2))), p, training=False)

    @pytest.mark.parametrize("training", [True, False])
    def test_gradients(self, training):
        rng = Rng(5)
        x = Tensor(rng.normal((3, 2, 3, 3), dtype=np.float64), requires_grad=True)
        gamma = Tensor(rng.normal((2,), 0.5, dtype=np.float64) + 1.0, requires_grad=True)
        beta = Tensor(rng.normal((2,), 0.5, dtype=np.float64), requires_grad=True)
        weight = Tensor(rng.normal((3, 2, 3, 3), dtype=np.float64))

        def run():
            running = RunningStats.neutral(2, np.float64)
            running.mean += 0.3
            running.var += 0.5
            out = batchnorm2d(x, gamma, beta, running, training=training)
            return sum_all(mul(out, weight))

        check_gradients(run, [x, gamma, beta])
