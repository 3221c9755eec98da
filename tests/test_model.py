import time
import tracemalloc

import numpy as np
import pytest

from shuffleformer import (SHUFFLE_MODES, BlockConfig, InvalidCallError, InvalidConfigError,
                           ModelConfig,
                           Rng, Tensor, apply_bn, backward, block_forward,
                           build_variant, cross_entropy_logits,
                           init_block_params, init_model_params,
                           mean_pool_hw, model_forward, mul, named_buffers,
                           named_parameters, parameter_list, sum_all, token_embed,
                           token_merge, matmul, add)
from shuffleformer.model import NWC_POSITIONS

from gradcheck import check_gradients
from oracles import reference_model_forward


def tiny_config(**overrides):
    base = dict(channels=8, depths=(2,), num_classes=4, resolution=16, window=2,
                head_dim=4)
    base.update(overrides)
    return ModelConfig(**base)


class TestBlockConfig:
    def test_variant_table(self):
        t = build_variant("T")
        assert (t.channels, t.depths) == (96, (2, 2, 6, 2))
        s = build_variant("s")
        assert (s.channels, s.depths) == (96, (2, 2, 18, 2))
        b = build_variant("B")
        assert (b.channels, b.depths) == (128, (2, 2, 18, 2))
        assert (t.window, t.head_dim, t.block_config(0, 0).mlp_ratio) == (7, 32, 4)

    def test_heads_per_stage(self):
        t = build_variant("T")
        assert [t.stage_heads(s) for s in range(4)] == [3, 6, 12, 24]
        b = build_variant("B")
        assert [b.stage_channels(s) for s in range(4)] == [128, 256, 512, 1024]

    def test_s_differs_from_t_only_in_stage3_depth(self):
        t, s = build_variant("T"), build_variant("S")
        assert t.depths[:2] == s.depths[:2] and t.depths[3] == s.depths[3]
        assert t.depths[2] != s.depths[2]
        assert t.channels == s.channels

    def test_unknown_variant(self):
        with pytest.raises(InvalidConfigError) as err:
            build_variant("XL")
        assert "B" in str(err.value) and "S" in str(err.value) and "T" in str(err.value)
        with pytest.raises(InvalidConfigError, match="foo"):
            build_variant("T", foo=1)
        with pytest.raises(InvalidConfigError, match="None"):
            build_variant(None)

    def test_stage_resolutions(self):
        t = build_variant("T")
        assert [t.stage_resolution(s) for s in range(4)] == [56, 28, 14, 7]

    def test_many_stages_checked_in_one_pass(self):
        # a header can ask for thousands of stages at a resolution of as many
        # bits; each stage's check must not halve it again from stage 0
        start = time.perf_counter()
        cfg = ModelConfig(channels=32, depths=[2] * 3000, resolution=28 << 2999, window=7)
        assert cfg.stage_resolution(2999) == 7 and cfg.stage_resolution(0) == 7 << 2999
        with pytest.raises(InvalidConfigError, match="stage 2998 resolution 7 is odd"):
            ModelConfig(channels=32, depths=[2] * 3000, resolution=28 << 2998, window=7)
        with pytest.raises(InvalidConfigError, match="stage 2999 resolution 14 is not "
                                                     "divisible by window 4"):
            ModelConfig(channels=32, depths=[2] * 3000, resolution=56 << 2999, window=4)
        assert time.perf_counter() - start < 1.5

    def test_pairing_invariant(self):
        cfg = build_variant("T")
        for stage in range(4):
            for i in range(cfg.depths[stage]):
                mode = cfg.block_config(stage, i).shuffle_mode
                assert mode == ("none" if i % 2 == 0 else "long-range")

    def test_odd_depth_rejected(self):
        with pytest.raises(InvalidConfigError):
            ModelConfig(channels=32, depths=(3,), resolution=8, window=2)

    def test_window_divisibility_checked(self):
        with pytest.raises(InvalidConfigError):
            ModelConfig(channels=32, depths=(2,), resolution=12, window=7)

    @pytest.mark.parametrize("build", [
        lambda: ModelConfig(channels=8, depths=(2, 2), num_classes=3, resolution=48, window=2,
                            head_dim=4, shuffle_mode="short-range"),
        lambda: build_variant("T", resolution=672, shuffle_mode="short-range"),
    ], ids=["stage1-grid-6-window-2", "T-672-stage3-grid-21"])
    def test_short_range_stage_that_cannot_shuffle_rejected(self, build):
        with pytest.raises(InvalidConfigError, match="2\\*window"):
            build()

    @pytest.mark.parametrize("args", [(4, 0, 2), ("4", 2, 2), (4, 2, 0), (4, 2.0, 2),
                                      (True, 1, 2)])
    def test_block_config_sizes_rejected(self, args):
        with pytest.raises(InvalidConfigError, match="positive integers"):
            BlockConfig(*args)

    def test_array_nwc_position_rejected(self):
        with pytest.raises(InvalidConfigError, match="nwc_position"):
            BlockConfig(4, 1, 2, "none", np.array(["A", "B"]))


def make_block(seed=0, channels=4, heads=2, window=2, shuffle="none",
               nwc_position="B", resolution=4, dtype=np.float64):
    cfg = BlockConfig(channels, heads, window, shuffle, nwc_position, mlp_ratio=2)
    params = init_block_params(cfg, Rng(seed), resolution=resolution, dtype=dtype)
    return cfg, params


class TestBlockForward:
    def test_zero_weights_pure_residual(self):
        cfg, params = make_block(nwc_position="B")
        for t in (params.attn.wq, params.attn.wk, params.attn.wv, params.attn.wo,
                  params.mlp.w1, params.mlp.w2, params.nwc.kernel):
            t.data[...] = 0.0
        rng = Rng(1)
        x = rng.normal((2, 4, 4, 4), dtype=np.float64)
        out = block_forward(Tensor(x), params, cfg, training=False).data
        assert np.array_equal(out, x)

    def test_zero_init_nwc_matches_no_nwc_at_init(self):
        cfg_b, params_b = make_block(seed=2, nwc_position="B")
        cfg_n, params_n = make_block(seed=2, nwc_position="none")
        rng = Rng(3)
        x = rng.normal((1, 4, 4, 4), dtype=np.float64)
        out_b = block_forward(Tensor(x), params_b, cfg_b).data
        out_n = block_forward(Tensor(x), params_n, cfg_n).data
        assert np.array_equal(out_b, out_n)

    def test_single_window_shuffle_is_identity(self):
        cfg_s, params = make_block(seed=4, window=4, shuffle="long-range",
                                   resolution=4)
        cfg_p = BlockConfig(4, 2, 4, "none", "B")
        rng = Rng(5)
        x = rng.normal((1, 4, 4, 4), dtype=np.float64)
        out_shuffled = block_forward(Tensor(x), params, cfg_s).data
        out_plain = block_forward(Tensor(x), params, cfg_p).data
        assert np.array_equal(out_shuffled, out_plain)

    @pytest.mark.parametrize("position", ["A", "B", "C", "none"])
    @pytest.mark.parametrize("shuffle", ["none", "long-range", "short-range", "random"])
    def test_shapes_and_determinism(self, position, shuffle):
        cfg, params = make_block(seed=6, window=2, shuffle=shuffle,
                                 nwc_position=position, resolution=4)
        rng = Rng(7)
        x = rng.normal((2, 4, 4, 4), dtype=np.float64)
        a = block_forward(Tensor(x), params, cfg).data
        b = block_forward(Tensor(x), params, cfg).data
        assert a.shape == x.shape
        assert a.tobytes() == b.tobytes()

    def test_isolated_without_shuffle_and_nwc(self):
        # both blocks plain, no NWC: output position only sees its own window
        cfg, params = make_block(seed=13, nwc_position="none")
        cfg2, params2 = make_block(seed=14, nwc_position="none")
        rng = Rng(15)
        x = rng.normal((1, 4, 4, 4), dtype=np.float64)

        def run(arr):
            h = block_forward(Tensor(arr), params, cfg)
            return block_forward(h, params2, cfg2).data

        base = run(x)
        bumped = x.copy()
        bumped[0, :, 3, 3] += 1e-3  # bottom-right window
        out = run(bumped)
        delta = np.abs(out - base).max(axis=(0, 1))
        assert delta[:2, :2].max() == 0.0  # top-left window untouched
        assert delta[2:, 2:].max() > 1e-9

    def test_block_gradients(self):
        cfg, params = make_block(seed=16, shuffle="long-range", nwc_position="B")
        rng = Rng(17)
        x = Tensor(rng.normal((1, 4, 4, 4), dtype=np.float64), requires_grad=True)
        w = Tensor(rng.normal((1, 4, 4, 4), dtype=np.float64))
        tracked = [x, params.attn.wq, params.attn.wo, params.nwc.kernel,
                   params.mlp.w1, params.bn1.gamma, params.bn2.beta]

        def run():
            return sum_all(mul(block_forward(x, params, cfg, training=True), w))

        check_gradients(run, tracked)


class TestEmbedMerge:
    def test_embed_shapes(self):
        cfg = tiny_config()
        params = init_model_params(cfg, Rng(0))
        out = token_embed(Tensor(Rng(1).normal((2, 3, 16, 16))), params.embed)
        assert out.shape == (2, 8, 4, 4)

    def test_embed_224_to_56(self):
        cfg = build_variant("T")
        params = init_model_params(cfg, Rng(0))
        out = token_embed(Tensor(Rng(1).normal((1, 3, 224, 224))), params.embed)
        assert out.shape == (1, 96, 56, 56)

    def test_embed_28_to_7(self):
        cfg = tiny_config(resolution=28, window=7, channels=8)
        params = init_model_params(cfg, Rng(0))
        out = token_embed(Tensor(Rng(1).normal((1, 3, 28, 28))), params.embed)
        assert out.shape == (1, 8, 7, 7)

    def test_merge_doubles_channels_halves_resolution(self):
        cfg = tiny_config(depths=(2, 2))
        params = init_model_params(cfg, Rng(0))
        merge = params.stages[1].merge
        out = token_merge(Tensor(Rng(1).normal((2, 8, 4, 4))), merge)
        assert out.shape == (2, 16, 2, 2)

    def test_merge_equals_patch_gather_matmul(self):
        cfg = tiny_config(depths=(2, 2))
        params = init_model_params(cfg, Rng(2), dtype=np.float64)
        merge = params.stages[1].merge
        x = Rng(3).normal((1, 8, 4, 4), dtype=np.float64)
        got = token_merge(Tensor(x), merge).data
        w = merge.weight.data.reshape(16, 8 * 2 * 2)
        for i in range(2):
            for j in range(2):
                patch = x[0, :, 2 * i:2 * i + 2, 2 * j:2 * j + 2].reshape(-1)
                expect = w @ patch + merge.bias.data
                assert np.abs(got[0, :, i, j] - expect).max() < 1e-10

    def test_merge_parameter_count(self):
        cfg = tiny_config(depths=(2, 2))
        params = init_model_params(cfg, Rng(0))
        merge = params.stages[1].merge
        count = merge.weight.size + merge.bias.size
        c = cfg.channels
        assert count == (2 * 2 * c) * 2 * c + 2 * c

    def test_merge_rejects_odd_extent(self):
        cfg = tiny_config(depths=(2, 2))
        params = init_model_params(cfg, Rng(0))
        from shuffleformer import InvalidShapeError
        with pytest.raises(InvalidShapeError):
            token_merge(Tensor(np.zeros((1, 8, 3, 3), dtype=np.float32)),
                        params.stages[1].merge)


class TestModelForward:
    def test_logit_shape_tiny(self):
        cfg = tiny_config(depths=(2, 2))
        params = init_model_params(cfg, Rng(0))
        logits = model_forward(Tensor(Rng(1).normal((3, 3, 16, 16))), params, cfg)
        assert logits.shape == (3, 4)

    @pytest.mark.slow
    def test_logit_shape_full_tiny_variant(self):
        cfg = build_variant("T")
        params = init_model_params(cfg, Rng(0))
        logits = model_forward(Tensor(Rng(1).normal((1, 3, 224, 224))), params, cfg)
        assert logits.shape == (1, 1000)

    def test_determinism_same_seed(self):
        def run():
            cfg = tiny_config(depths=(2, 2))
            params = init_model_params(cfg, Rng(42))
            x = Tensor(Rng(7).normal((2, 3, 16, 16)))
            return model_forward(x, params, cfg).data

        assert run().tobytes() == run().tobytes()

    def test_residual_degeneracy(self):
        cfg = tiny_config(depths=(2, 2))
        params = init_model_params(cfg, Rng(0))
        # zero every block's attention, NWC and MLP weights: each block becomes an identity
        for name, t in named_parameters(params):
            if ".block" in name and ".bn" not in name:
                t.data[...] = 0.0
        x = Tensor(Rng(1).normal((2, 3, 16, 16)))
        got = model_forward(x, params, cfg).data
        # manual pipeline without the blocks
        h = token_embed(x, params.embed, training=False)
        h = token_merge(h, params.stages[1].merge)
        h = apply_bn(h, params.head.bn, training=False)
        manual = add(matmul(mean_pool_hw(h), params.head.weight), params.head.bias).data
        assert np.array_equal(got, manual)

    def test_argmax_stable_under_head_scaling(self):
        cfg = tiny_config(depths=(2, 2))
        params = init_model_params(cfg, Rng(3))
        x = Tensor(Rng(4).normal((4, 3, 16, 16)))
        before = model_forward(x, params, cfg).data.argmax(axis=1)
        params.head.weight.data *= 3.5
        params.head.bias.data *= 3.5
        after = model_forward(x, params, cfg).data.argmax(axis=1)
        assert np.array_equal(before, after)

    def test_stage4_window_equals_resolution_single_window(self):
        # resolution 16 -> stage grids 4 and 2; window 2 means stage 2 is one window
        cfg = tiny_config(resolution=16, depths=(2, 2), window=2)
        params = init_model_params(cfg, Rng(5))
        x = Tensor(Rng(6).normal((1, 3, 16, 16)))
        out = model_forward(x, params, cfg)
        assert out.shape == (1, 4)

    def test_short_range_with_a_single_window_stage(self):
        # stage grids 4 and 2 at window 2: short-range leaves the last stage as it is
        cfg = tiny_config(resolution=16, depths=(2, 2), window=2, shuffle_mode="short-range")
        params = init_model_params(cfg, Rng(5))
        x = Tensor(Rng(6).normal((2, 3, 16, 16)))
        logits = model_forward(x, params, cfg, training=True)
        assert logits.shape == (2, 4)
        backward(cross_entropy_logits(logits, np.array([0, 3])))
        grads = [p.grad for p in parameter_list(params)]
        assert all(g is not None and np.isfinite(g).all() for g in grads)

    def test_divisibility_error_names_stage(self):
        cfg = tiny_config(depths=(2,))
        params = init_model_params(cfg, Rng(0))
        x = Tensor(Rng(1).normal((1, 3, 12, 12)))  # embeds to a 3x3 grid
        with pytest.raises(InvalidConfigError) as err:
            model_forward(x, params, cfg)
        assert "stage 0" in str(err.value)

    def test_random_mode_uses_frozen_perms(self):
        cfg = tiny_config(depths=(2,), shuffle_mode="random")
        params = init_model_params(cfg, Rng(8))
        x = Tensor(Rng(9).normal((1, 3, 16, 16)))
        a = model_forward(x, params, cfg).data
        b = model_forward(x, params, cfg).data
        assert a.tobytes() == b.tobytes()
        blk = params.stages[0].blocks[1]
        assert blk.shuffle_perms is not None
        assert sorted(blk.shuffle_perms[0].map.tolist()) == list(range(4))

    def test_named_parameters_unique_and_complete(self):
        from shuffleformer import count_flops
        # an odd base width, which halves to an odd embed width, is a valid config
        for cfg in (tiny_config(depths=(2, 2)),
                    ModelConfig(channels=5, depths=(2, 2), num_classes=4, resolution=32,
                                window=2, head_dim=5, shuffle_mode="random",
                                nwc_position="C")):
            params = init_model_params(cfg, Rng(0))
            names = [n for n, _ in named_parameters(params)]
            assert len(names) == len(set(names))
            total = sum(t.size for t in parameter_list(params))
            assert total == count_flops(cfg).total_params


_CFG = tiny_config()
_PARAMS = init_model_params(_CFG, Rng(0))
_IMAGE = Tensor(np.zeros((1, 3, 16, 16), dtype=np.float32))


# each row pins the class that a forward given the wrong params or config raises
@pytest.mark.parametrize("call, error", [
    (lambda: model_forward(_IMAGE, None, _CFG), InvalidCallError),
    (lambda: model_forward(_IMAGE, _PARAMS, None), InvalidCallError),
    (lambda: model_forward(_IMAGE, _PARAMS.stages[0], _CFG), InvalidCallError),
    (lambda: model_forward(_IMAGE, _PARAMS, _CFG.block_config(0, 0)), InvalidCallError),
    (lambda: block_forward(Tensor(np.zeros((1, 8, 4, 4), dtype=np.float32)),
                           _PARAMS.stages[0].blocks[0], _CFG), InvalidCallError),
    (lambda: init_model_params("T", Rng(0)), InvalidCallError),
    (lambda: init_model_params(_CFG.block_config(0, 0), Rng(0)), InvalidCallError),
    (lambda: init_model_params(_CFG, None), InvalidCallError),
    (lambda: init_model_params(_CFG, 0), InvalidCallError),
    (lambda: init_block_params("block", Rng(0)), InvalidCallError),
    (lambda: init_block_params(_CFG, Rng(0)), InvalidCallError),
    (lambda: init_block_params(_CFG.block_config(0, 0), None), InvalidCallError),
    (lambda: init_block_params(_CFG.block_config(0, 0), "rng"), InvalidCallError),
], ids=["model-none-params", "model-none-config", "model-stage-params",
        "model-block-config", "block-model-config", "init-model-str-config",
        "init-model-block-config", "init-model-none-rng", "init-model-int-rng",
        "init-block-str-config", "init-block-model-config", "init-block-none-rng",
        "init-block-str-rng"])
def test_bad_model_call_raises_package_error(call, error):
    with pytest.raises(error):
        call()


def random_reference_model(mode, position, rng):
    """A tiny model with every parameter and running statistic drawn from `rng`.
    Init leaves NWC kernels and biases at zero and batch norm at identity, where
    y == x and the second batch norm's input and the MLP residual cannot be told
    apart, so every value is redrawn."""
    cfg = ModelConfig(channels=8, depths=(2, 2), num_classes=5, resolution=32, window=2,
                      head_dim=4, shuffle_mode=mode, nwc_position=position)
    params = init_model_params(cfg, rng, dtype=np.float64)
    for _, t in named_parameters(params):
        t.data = rng.normal(t.shape, 0.5, dtype=np.float64)
    for name, buf in named_buffers(params):
        draw = rng.normal(buf.shape, 0.5, dtype=np.float64)
        buf[...] = draw if name.endswith("running_mean") else np.exp(draw)
    return cfg, params


@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("position", NWC_POSITIONS)
@pytest.mark.parametrize("mode", SHUFFLE_MODES)
def test_model_forward_matches_reference(mode, position, training):
    rng = Rng(0)
    cfg, params = random_reference_model(mode, position, rng)
    # copied before the forward, which updates the running statistics in training
    arrays = {name: t.data.copy() for name, t in named_parameters(params)}
    arrays.update((name, buf.copy()) for name, buf in named_buffers(params))
    random_maps = {f"stage{s}.block{i}": tuple(p.map for p in blk.shuffle_perms)
                   for s, stage in enumerate(params.stages)
                   for i, blk in enumerate(stage.blocks) if blk.shuffle_perms}
    image = rng.normal((2, 3, 32, 32), dtype=np.float64)
    logits = model_forward(Tensor(image), params, cfg, training).data
    ref = reference_model_forward(image, arrays, random_maps, cfg.depths, cfg.window,
                                  cfg.head_dim, mode, position, training)
    assert np.abs(logits - ref).max() <= 1e-12 * np.abs(ref).max()


def _frozen_random_model(mode, position, dtype):
    """A small model with every parameter and running statistic drawn, as in
    `random_reference_model`, and no parameter tracking gradients."""
    rng = Rng(0)
    cfg = ModelConfig(channels=16, depths=(2, 2), num_classes=10, resolution=64, window=4,
                      head_dim=8, shuffle_mode=mode, nwc_position=position)
    params = init_model_params(cfg, rng, dtype=dtype)
    for _, t in named_parameters(params):
        t.data = rng.normal(t.shape, 0.5, dtype=dtype)
        t.requires_grad = False
    for name, buf in named_buffers(params):
        draw = rng.normal(buf.shape, 0.5, dtype=dtype)
        buf[...] = draw if name.endswith("running_mean") else np.exp(draw)
    return cfg, params, rng.normal((8, 3, 64, 64), dtype=dtype)


@pytest.mark.parametrize("position", NWC_POSITIONS)
@pytest.mark.parametrize("mode", SHUFFLE_MODES)
def test_eval_forward_is_batch_invariant(mode, position):
    # the head's (B, C) @ (C, classes) product used to depend on B
    cfg, params, images = _frozen_random_model(mode, position, np.float64)
    alone = np.concatenate([model_forward(Tensor(images[i:i + 1]), params, cfg).data
                            for i in range(len(images))])
    for batch in (1, 2, 5, 8):
        logits = model_forward(Tensor(images[:batch]), params, cfg).data
        assert logits.tobytes() == alone[:batch].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("position", NWC_POSITIONS)
def test_frozen_forward_equals_tracked_forward(position, dtype):
    # a frozen forward writes GELU over the MLP's projection and frees each
    # activation early; neither may change a value
    cfg, params, images = _frozen_random_model("long-range", position, dtype)
    frozen = model_forward(Tensor(images[:2]), params, cfg).data
    for t in parameter_list(params):
        t.requires_grad = True
    tracked = model_forward(Tensor(images[:2]), params, cfg)
    assert tracked.requires_grad and tracked.data.tobytes() == frozen.tobytes()


def test_frozen_forward_holds_few_stage0_maps():
    # tracemalloc's peak above the weights during a frozen eval forward at the
    # T variant's stage 0, in stage-0 maps (96 x 56 x 56 float32): 15.1 with the
    # banded depth-wise conv, every activation kept to the end of its block and
    # GELU into a second hidden map
    cfg = ModelConfig(channels=96, depths=(2,), num_classes=10, resolution=224, window=7)
    params = init_model_params(cfg, Rng(0))
    for t in parameter_list(params):
        t.requires_grad = False
    image = Tensor(Rng(1).normal((1, 3, 224, 224), dtype=np.float32))
    tracemalloc.start()
    try:
        model_forward(image, params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 96 * 56 * 56 * 4
