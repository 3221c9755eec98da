import numpy as np
import pytest

from shuffleformer import (BlockConfig, InvalidCallError, InvalidConfigError,
                           InvalidShapeError, MlpParams, ModelConfig, NwcParams, Rng,
                           Tensor, WmsaParams, apply_bn, block_forward, conv2d,
                           init_block_params, init_model_params, mlp_forward,
                           mul, nwc_forward, sum_all, token_embed, token_merge, wmsa_forward)
from shuffleformer.conv import ConvParams
from shuffleformer.layers import nwc_padding

from gradcheck import check_gradients
from oracles import per_pixel_mlp


def _random_nwc(channels, window, rng, dtype=np.float64):
    """A block's NWC with its zero kernel redrawn, so that a path through the
    kernel carries gradient."""
    p = init_block_params(BlockConfig(channels, 1, window), rng, dtype=dtype).nwc
    p.kernel.data[...] = rng.normal(p.kernel.shape, 0.3, dtype)
    return p


def _random_wmsa(channels, heads, seed=0, dtype=np.float64):
    """Larger-scale random weights than the training init, for probing."""
    rng = Rng(seed)

    def w():
        return Tensor(rng.normal((channels, channels, 1, 1), 0.5, dtype=dtype))

    def b():
        return Tensor(rng.normal((channels,), 0.5, dtype=dtype))

    return WmsaParams(heads, wq=w(), wk=w(), wv=w(), wo=w(), bq=b(), bk=b(), bv=b(), bo=b())


class TestWmsa:
    def test_single_token_window_reduces_to_projections(self):
        p = _random_wmsa(4, 2, seed=1)
        rng = Rng(2)
        x = Tensor(rng.normal((3, 4, 1, 1), dtype=np.float64))
        got = wmsa_forward(x, p).data
        value = conv2d(x, p.wv, p.bv)
        expect = conv2d(value, p.wo, p.bo).data
        assert np.abs(got - expect).max() < 1e-12

    def test_identical_tokens_give_identical_outputs(self):
        p = _random_wmsa(4, 2, seed=3)
        token = Rng(4).normal((4,), dtype=np.float64)
        x = np.broadcast_to(token[None, :, None, None], (2, 4, 3, 3)).copy()
        out = wmsa_forward(Tensor(x), p).data
        spread = out.max(axis=(2, 3)) - out.min(axis=(2, 3))
        assert spread.max() < 1e-12

    def test_no_cross_window_influence(self):
        p = _random_wmsa(2, 1, seed=5)
        rng = Rng(6)
        x = rng.normal((2, 2, 3, 3), dtype=np.float64)  # two windows in the batch
        base = wmsa_forward(Tensor(x), p).data
        bumped = x.copy()
        bumped[0, 1, 2, 1] += 1e-3
        out = wmsa_forward(Tensor(bumped), p).data
        assert np.abs(out[1] - base[1]).max() < 1e-12
        assert np.abs(out[0] - base[0]).max() > 1e-6

    def test_permutation_equivariance_within_window(self):
        p = _random_wmsa(4, 2, seed=7)
        rng = Rng(8)
        x = rng.normal((1, 4, 2, 2), dtype=np.float64)
        perm = Rng(9).permutation(4)
        flat = x.reshape(1, 4, 4)
        permuted = flat[:, :, perm].reshape(1, 4, 2, 2)
        out_direct = wmsa_forward(Tensor(x), p).data.reshape(1, 4, 4)
        out_permuted = wmsa_forward(Tensor(permuted), p).data.reshape(1, 4, 4)
        assert np.abs(out_permuted - out_direct[:, :, perm]).max() < 1e-12

    def test_channel_head_mismatch(self):
        p = init_block_params(BlockConfig(4, 2, 1), Rng(0), dtype=np.float64).attn
        with pytest.raises(InvalidConfigError):
            wmsa_forward(Tensor(np.zeros((1, 6, 2, 2), dtype=np.float64)), p)

    def test_gradients(self):
        p = init_block_params(BlockConfig(4, 2, 1), Rng(13), dtype=np.float64).attn
        rng = Rng(14)
        x = Tensor(rng.normal((2, 4, 2, 2), dtype=np.float64), requires_grad=True)
        w = Tensor(rng.normal((2, 4, 2, 2), dtype=np.float64))
        tracked = [x, p.wq, p.wk, p.wv, p.wo, p.bq, p.bk, p.bv, p.bo]
        check_gradients(lambda: sum_all(mul(wmsa_forward(x, p), w)), tracked)


class TestNwc:
    def test_zero_kernel_is_identity(self):
        p = init_block_params(BlockConfig(3, 1, 5), Rng(0), dtype=np.float64).nwc
        rng = Rng(0)
        x = rng.normal((2, 3, 10, 10), dtype=np.float64)
        out = nwc_forward(Tensor(x), p).data
        assert np.array_equal(out, x)

    def test_window7_reaches_exactly_chebyshev_3(self):
        rng = Rng(1)
        kernel = Tensor(rng.normal((1, 1, 7, 7), 0.5, dtype=np.float64))
        p = NwcParams(kernel, Tensor(rng.normal((1,), 0.5, dtype=np.float64)))
        x = rng.normal((1, 1, 15, 15), dtype=np.float64)
        base = nwc_forward(Tensor(x), p).data
        center = (7, 7)
        eps = 1e-4
        for dh in range(-5, 6):
            for dw in range(-5, 6):
                bumped = x.copy()
                bumped[0, 0, center[0] + dh, center[1] + dw] += eps
                out = nwc_forward(Tensor(bumped), p).data
                changed = abs(out[0, 0, center[0], center[1]] - base[0, 0, center[0], center[1]])
                inside = max(abs(dh), abs(dw)) <= 3
                if inside:
                    assert changed > 1e-9
                else:
                    assert changed == 0.0

    def test_channels_never_mix(self):
        rng = Rng(2)
        kernel = Tensor(rng.normal((3, 1, 3, 3), 0.5, dtype=np.float64))
        p = NwcParams(kernel, Tensor(np.zeros(3)))
        x = rng.normal((1, 3, 6, 6), dtype=np.float64)
        base = nwc_forward(Tensor(x), p).data
        bumped = x.copy()
        bumped[0, 1] += 0.1
        out = nwc_forward(Tensor(bumped), p).data
        assert np.array_equal(out[0, 0], base[0, 0])
        assert np.array_equal(out[0, 2], base[0, 2])
        assert np.abs(out[0, 1] - base[0, 1]).max() > 1e-6

    def test_even_kernel_needs_pad_rule(self):
        # even extent k pads (k-1)//2 before and k//2 after: a 2x2 ones kernel
        # sums each pixel with its right, lower and lower-right neighbours
        p = NwcParams(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.zeros(1)))
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = nwc_forward(Tensor(x), p).data
        padded = np.pad(x[0, 0], ((0, 1), (0, 1)))
        window_sums = padded[:-1, :-1] + padded[1:, :-1] + padded[:-1, 1:] + padded[1:, 1:]
        assert np.array_equal(out[0, 0], x[0, 0] + window_sums)
        assert nwc_padding(2) == (0, 1)
        assert nwc_padding(4) == (1, 2)
        assert nwc_padding(7) == (3, 3)

    def test_resolution_preserved(self):
        p = _random_nwc(2, 7, Rng(3))
        out = nwc_forward(Tensor(np.zeros((1, 2, 14, 14), dtype=np.float64)), p)
        assert out.shape == (1, 2, 14, 14)

    def test_gradients(self):
        rng = Rng(4)
        p = _random_nwc(2, 3, rng)
        x = Tensor(rng.normal((1, 2, 4, 4), dtype=np.float64), requires_grad=True)
        w = Tensor(rng.normal((1, 2, 4, 4), dtype=np.float64))
        check_gradients(lambda: sum_all(mul(nwc_forward(x, p), w)),
                        [x, p.kernel, p.bias])


class TestMlp:
    def test_zero_weights_zero_output(self):
        f32 = np.float32
        p = MlpParams(Tensor(np.zeros((8, 2, 1, 1), f32)), Tensor(np.zeros(8, f32)),
                      Tensor(np.zeros((2, 8, 1, 1), f32)), Tensor(np.zeros(2, f32)))
        rng = Rng(0)
        x = rng.normal((2, 2, 3, 3), dtype=np.float32)
        out = mlp_forward(Tensor(x), p).data
        assert np.array_equal(out, np.zeros_like(x))

    def test_spatially_local(self):
        rng = Rng(1)
        p = init_block_params(BlockConfig(2, 1, 1), rng, dtype=np.float64).mlp
        x = rng.normal((1, 2, 4, 4), dtype=np.float64)
        base = mlp_forward(Tensor(x), p).data
        bumped = x.copy()
        bumped[0, :, 1, 2] += 1e-3
        out = mlp_forward(Tensor(bumped), p).data
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = True
        assert np.array_equal(out[:, :, ~mask], base[:, :, ~mask])

    def test_matches_per_pixel_perceptron(self):
        from scipy.special import erf

        def act(v):
            return 0.5 * v * (1.0 + erf(v / np.sqrt(2.0)))

        rng = Rng(2)
        w1 = rng.normal((6, 3, 1, 1), dtype=np.float64)
        b1 = rng.normal((6,), dtype=np.float64)
        w2 = rng.normal((3, 6, 1, 1), dtype=np.float64)
        b2 = rng.normal((3,), dtype=np.float64)
        p = MlpParams(Tensor(w1), Tensor(b1), Tensor(w2), Tensor(b2))
        x = rng.normal((2, 3, 3, 3), dtype=np.float64)
        got = mlp_forward(Tensor(x), p).data
        want = per_pixel_mlp(x, w1, b1, w2, b2, act)
        assert np.abs(got - want).max() < 1e-10

    def test_width_mismatch(self):
        p = init_block_params(BlockConfig(4, 1, 1), Rng(3)).mlp
        with pytest.raises(InvalidConfigError):
            mlp_forward(Tensor(np.zeros((1, 3, 2, 2), dtype=np.float32)), p)

    def test_gradients(self):
        rng = Rng(4)
        p = init_block_params(BlockConfig(2, 1, 1, mlp_ratio=2), rng, dtype=np.float64).mlp
        x = Tensor(rng.normal((1, 2, 3, 3), dtype=np.float64), requires_grad=True)
        w = Tensor(rng.normal((1, 2, 3, 3), dtype=np.float64))
        check_gradients(lambda: sum_all(mul(mlp_forward(x, p), w)),
                        [x, p.w1, p.b1, p.w2, p.b2])

    def test_gradients_with_inner_nwc(self):
        rng = Rng(5)
        p = init_block_params(BlockConfig(2, 1, 1, mlp_ratio=2), rng, dtype=np.float64).mlp
        inner = _random_nwc(4, 3, rng)
        x = Tensor(rng.normal((1, 2, 3, 3), dtype=np.float64), requires_grad=True)
        w = Tensor(rng.normal((1, 2, 3, 3), dtype=np.float64))
        check_gradients(
            lambda: sum_all(mul(mlp_forward(x, p, inner_nwc=inner), w)),
            [x, inner.kernel])


def _z(*shape):
    return Tensor(np.zeros(shape, dtype=np.float32))


def _with_heads(heads):
    p = _WMSA
    return WmsaParams(heads, p.wq, p.bq, p.wk, p.bk, p.wv, p.bv, p.wo, p.bo)


def _mlp_with_short_second_projection():
    p = _MLP
    return MlpParams(p.w1, p.b1, _z(4, 8, 1, 1), p.b2)


_BLOCK_CFG = BlockConfig(4, 2, 2)
_BLOCK = init_block_params(_BLOCK_CFG, Rng(0))
_EMBED = init_model_params(ModelConfig(channels=8, depths=(2,), num_classes=4, resolution=16,
                                       window=2, head_dim=4), Rng(0)).embed
_MERGE = ConvParams(_z(8, 4, 2, 2), _z(8))
_WMSA, _NWC, _MLP = _BLOCK.attn, init_block_params(BlockConfig(4, 2, 3), Rng(0)).nwc, _BLOCK.mlp


# The layer forwards take their rank, channel and Tensor checks from the ops
# they call and check the type of their params; each row pins the class a bad
# call raises.
@pytest.mark.parametrize("call, error", [
    (lambda: wmsa_forward(_z(4, 2, 2), _WMSA), InvalidShapeError),
    (lambda: wmsa_forward(_z(1, 4, 2, 3), _WMSA), InvalidShapeError),
    (lambda: wmsa_forward(_z(1, 6, 2, 2), _WMSA), InvalidConfigError),
    (lambda: wmsa_forward(_z(1, 4, 2, 2), _with_heads(3)), InvalidConfigError),
    (lambda: wmsa_forward(_z(1, 4, 2, 2), _with_heads(0)), InvalidConfigError),
    (lambda: wmsa_forward(_z(1, 4, 2, 2), _with_heads("2")), InvalidConfigError),
    (lambda: wmsa_forward([1.0], _WMSA), InvalidCallError),
    (lambda: wmsa_forward(_z(1, 4, 2, 2), None), InvalidCallError),
    (lambda: nwc_forward(_z(4, 3, 3), _NWC), InvalidShapeError),
    (lambda: nwc_forward(_z(1, 6, 3, 3), _NWC), InvalidConfigError),
    (lambda: nwc_forward(_z(1, 4, 3, 3), NwcParams(_z(4, 1, 3, 2), _z(4))), InvalidConfigError),
    (lambda: nwc_forward([1.0], _NWC), InvalidCallError),
    (lambda: nwc_forward(_z(1, 4, 3, 3), None), InvalidCallError),
    (lambda: nwc_forward(_z(1, 4, 3, 3), NwcParams(None, None)), InvalidCallError),
    (lambda: nwc_forward(_z(1, 4, 3, 3), NwcParams(_z(4, 3, 3), _z(4))), InvalidConfigError),
    (lambda: mlp_forward(_z(4, 3, 3), _MLP), InvalidShapeError),
    (lambda: mlp_forward(_z(1, 3, 3, 3), _MLP), InvalidConfigError),
    (lambda: mlp_forward(_z(1, 4, 3, 3), _mlp_with_short_second_projection()),
     InvalidConfigError),
    (lambda: mlp_forward(None, _MLP), InvalidCallError),
    (lambda: mlp_forward(_z(1, 4, 3, 3), None), InvalidCallError),
    (lambda: mlp_forward(_z(1, 4, 3, 3), _MLP, inner_nwc="nwc"), InvalidCallError),
    (lambda: token_embed(_z(3, 16, 16), _EMBED), InvalidShapeError),
    (lambda: token_embed(_z(1, 4, 16, 16), _EMBED), InvalidConfigError),
    (lambda: token_embed(_z(1, 3, 18, 18), _EMBED), InvalidShapeError),
    (lambda: token_embed("img", _EMBED), InvalidCallError),
    (lambda: token_embed(_z(1, 3, 16, 16), None), InvalidCallError),
    (lambda: token_merge(_z(4, 4, 4), _MERGE), InvalidShapeError),
    (lambda: token_merge(_z(1, 4, 6, 5), _MERGE), InvalidShapeError),
    (lambda: token_merge([1], _MERGE), InvalidCallError),
    (lambda: token_merge(_z(1, 4, 4, 4), None), InvalidCallError),
    (lambda: apply_bn(_z(1, 4, 3, 3), None, False), InvalidCallError),
    (lambda: block_forward(_z(4, 4, 4), _BLOCK, _BLOCK_CFG), InvalidShapeError),
    (lambda: block_forward(_z(1, 6, 4, 4), _BLOCK, _BLOCK_CFG), InvalidConfigError),
    (lambda: block_forward("x", _BLOCK, _BLOCK_CFG), InvalidCallError),
    (lambda: block_forward(_z(1, 4, 4, 4), None, _BLOCK_CFG), InvalidCallError),
    (lambda: block_forward(_z(1, 4, 4, 4), _BLOCK, None), InvalidCallError),
], ids=["wmsa-rank", "wmsa-non-square", "wmsa-channels", "wmsa-heads-3", "wmsa-heads-0",
        "wmsa-heads-str", "wmsa-list", "wmsa-none-params", "nwc-rank", "nwc-channels",
        "nwc-rect-kernel", "nwc-list", "nwc-none-params", "nwc-none-kernel", "nwc-3d-kernel",
        "mlp-rank", "mlp-channels", "mlp-second-projection", "mlp-none",
        "mlp-none-params", "mlp-str-inner-nwc",
        "embed-rank", "embed-channels", "embed-extent", "embed-str", "embed-none-params",
        "merge-rank", "merge-odd", "merge-list", "merge-none-params", "bn-none-params",
        "block-rank", "block-channels", "block-str", "block-none-params",
        "block-none-config"])
def test_bad_layer_call_raises_package_error(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: nwc_forward(_z(1, 4, 3, 3), None), "nwc_forward takes NwcParams, got NoneType"),
    (lambda: nwc_forward(_z(1, 4, 3, 3), NwcParams(None, None)),
     "nwc_forward takes Tensor operands, got NoneType"),
    (lambda: mlp_forward(_z(1, 4, 3, 3), _MLP, inner_nwc="nwc"),
     "nwc_forward takes NwcParams, got str"),
    (lambda: block_forward(_z(1, 4, 4, 4), _BLOCK, {}),
     "block_forward takes BlockConfig, got dict"),
], ids=["nwc-none-params", "nwc-none-kernel", "mlp-str-inner-nwc", "block-dict-config"])
def test_wrong_type_names_the_function_and_the_type(call, message):
    with pytest.raises(InvalidCallError, match=message):
        call()
