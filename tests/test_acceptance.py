"""End-to-end acceptance suite.

Each test covers one exit criterion at its stated tolerance and prints one
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).
"""

import dataclasses
import functools

import numpy as np
import pytest

from shuffleformer import (BlockConfig, BlockSpec, Rng, Tensor,
                           ToyTrainConfig, add, batchnorm2d, block_forward,
                           build_variant, conv2d, count_flops,
                           cross_entropy_logits, gather_hw, gelu,
                           init_block_params, init_model_params,
                           make_shuffle_permutation, matmul,
                           mean_pool_hw, mlp_forward, mul, nwc_forward,
                           parameter_list, reachability_probe, reshape_permute,
                           softmax_lastdim, sum_all, symbolic_reachability,
                           synthetic_dataset, train_toy, aligned_window_reverse,
                           shuffled_window_partition, invert_permutation,
                           wmsa_forward)

from gradcheck import check_gradients
from oracles import composes_to_identity, shuffle_then_partition


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {number} ({label}): FAIL")
                raise
            print(f"\n[acceptance] criterion {number} ({label}): PASS")
        return wrapper
    return decorate


@criterion(1, "permutation algebra")
def test_criterion_1_permutation_algebra():
    for n in range(4, 65):
        for m in [d for d in range(1, n + 1) if n % d == 0]:
            p = make_shuffle_permutation(n, m, "long-range")
            assert composes_to_identity(p.map, invert_permutation(p).map)
            assert composes_to_identity(invert_permutation(p).map, p.map)
            for g in range(n // m):
                for j in range(m):
                    assert p.map[g * m + j] == j * (n // m) + g
            if n % (2 * m) == 0:
                s = make_shuffle_permutation(n, m, "short-range")
                assert np.array_equal(np.sort(s.map), np.arange(n))
                assert composes_to_identity(s.map, invert_permutation(s).map)
            r = make_shuffle_permutation(n, m, "random", Rng(n * 100 + m))
            assert np.array_equal(np.sort(r.map), np.arange(n))
            assert composes_to_identity(r.map, invert_permutation(r).map)


@criterion(2, "fused equals shuffle-then-partition")
def test_criterion_2_fused_equals_unfused():
    m = 2
    for n in (4, 6, 8):
        for mode in ("none", "long-range", "short-range", "random"):
            if mode == "short-range" and n % (2 * m):
                continue
            if mode == "random":
                rng = Rng(n)
                perms = (make_shuffle_permutation(n, m, mode, rng),
                         make_shuffle_permutation(n, m, mode, rng))
            else:
                perms = (make_shuffle_permutation(n, m, mode),
                         make_shuffle_permutation(n, m, mode))
            x = Rng(7 + n).normal((2, 3, n, n), dtype=np.float32)
            fused = shuffled_window_partition(Tensor(x), m, perms=perms)
            unfused = shuffle_then_partition(x, perms[0].map, perms[1].map, m)
            assert fused.data.tobytes() == unfused.tobytes()
            back = aligned_window_reverse(fused, m, perms=perms)
            assert back.data.tobytes() == x.tobytes()


@criterion(3, "cross-window information flow")
def test_criterion_3_reachability():
    # (a) two plain blocks, no NWC: reach is exactly the probe's own window
    stack = [BlockSpec(2), BlockSpec(2)]
    fd = reachability_probe(stack, (8, 8), (3, 3))
    sym = symbolic_reachability(stack, (8, 8), (3, 3))
    assert fd.members == sym.members == frozenset({(2, 2), (2, 3), (3, 2), (3, 3)})

    # (b) plain + shuffled pair on a 4x4 grid: the whole grid is reachable
    stack = [BlockSpec(2), BlockSpec(2, "long-range")]
    fd = reachability_probe(stack, (4, 4), (1, 1))
    sym = symbolic_reachability(stack, (4, 4), (1, 1))
    assert fd.members == sym.members
    assert len(fd) == 16

    # (c) same pair on 16x16: strided strict subset; NWC strictly enlarges it
    probe = (5, 5)
    fd = reachability_probe(stack, (16, 16), probe)
    sym = symbolic_reachability(stack, (16, 16), probe)
    assert fd.members == sym.members
    assert 0 < len(fd) < 256
    reached_rows = sorted({h for h, _ in fd.members})
    assert len(reached_rows) < 16  # strided: whole rows are skipped
    gaps = np.diff(reached_rows)
    assert gaps.max() > 1
    nwc_stack = [BlockSpec(2, nwc=True), BlockSpec(2, "long-range", nwc=True)]
    fd_nwc = reachability_probe(nwc_stack, (16, 16), probe)
    sym_nwc = symbolic_reachability(nwc_stack, (16, 16), probe)
    assert fd_nwc.members == sym_nwc.members
    assert fd.members < fd_nwc.members


@criterion(3, "cross-window information flow at T's stage-0 grid (56x56, window 7)")
def test_criterion_3_reachability_at_stage0_grid():
    plain, long_range = BlockSpec(7), BlockSpec(7, "long-range")
    short_range = BlockSpec(7, "short-range")
    nwc_pair = [BlockSpec(7, nwc=True), BlockSpec(7, "long-range", nwc=True)]

    def reach(stack, probe):
        """(reached positions, reached 7x7 windows) through the exact route."""
        members = symbolic_reachability(stack, (56, 56), probe).members
        return len(members), len({(h // 7, w // 7) for h, w in members})

    for probe in [(0, 0), (27, 27), (55, 13), (30, 44)]:
        # one shuffle pair reaches 49 of the 64 windows, a second one or the
        # NWC reaches the whole grid; a short-range pair stays in 4 windows
        assert reach([plain, long_range], probe) == (2401, 49)
        assert reach([plain, long_range] * 2, probe) == (3136, 64)
        assert reach(nwc_pair, probe) == (3136, 64)
        assert reach([plain, short_range], probe) == (196, 4)
        assert reach([plain, short_range] * 2, probe) == (196, 4)


@criterion(4, "model size reproduction")
def test_criterion_4_model_sizes():
    for variant, reference in (("T", 28.5e6), ("S", 50e6), ("B", 88e6)):
        total = count_flops(build_variant(variant)).total_params
        assert abs(total - reference) / reference < 0.04, (variant, total)
    cfg = build_variant("T")
    totals = {pos: count_flops(dataclasses.replace(cfg, nwc_position=pos)).total_params
              for pos in ("A", "B", "C")}
    assert totals["A"] == totals["B"] < totals["C"]
    assert abs(totals["C"] - 29.2e6) / 29.2e6 < 0.04


@criterion(5, "FLOP reproduction and linearity")
def test_criterion_5_flops():
    for variant, reference in (("T", 4.6e9), ("S", 8.9e9), ("B", 15.6e9)):
        total = count_flops(build_variant(variant, resolution=224)).total_flops
        assert abs(total - reference) / reference < 0.05, (variant, total)
    cfg = build_variant("T")
    ratio = (count_flops(dataclasses.replace(cfg, resolution=448)).total_flops
             / count_flops(dataclasses.replace(cfg, resolution=224)).total_flops)
    assert abs(ratio - 4.0) <= 0.05


@criterion(6, "gradient correctness")
def test_criterion_6_gradients():
    rng = Rng(0)
    f64 = np.float64
    worst = 0.0

    def track(check, *tensors):
        nonlocal worst
        worst = max(worst, check_gradients(check, list(tensors), h=1e-5, tol=1e-4))

    x = Tensor(rng.normal((2, 3, 4, 4), dtype=f64), requires_grad=True)
    w = Tensor(rng.normal((4, 3, 3, 3), dtype=f64), requires_grad=True)
    b = Tensor(rng.normal((4,), dtype=f64), requires_grad=True)
    track(lambda: sum_all(conv2d(x, w, b, stride=1, padding=1)), x, w, b)

    xg = Tensor(rng.normal((2, 2, 3, 3), dtype=f64), requires_grad=True)
    dw = Tensor(rng.normal((2, 1, 3, 3), dtype=f64), requires_grad=True)
    db = Tensor(np.zeros(2))
    track(lambda: sum_all(conv2d(xg, dw, db, padding=1, groups=2)), xg, dw)

    xb = Tensor(rng.normal((3, 2, 3, 3), dtype=f64), requires_grad=True)
    gamma = Tensor(rng.normal((2,), 0.3, dtype=f64) + 1.0, requires_grad=True)
    beta = Tensor(rng.normal((2,), 0.3, dtype=f64), requires_grad=True)
    mixer = Tensor(rng.normal((3, 2, 3, 3), dtype=f64))
    for training in (True, False):
        track(lambda training=training: sum_all(mul(batchnorm2d(
            xb, gamma, beta, np.zeros(2, f64), np.ones(2, f64), training), mixer)),
            xb, gamma, beta)

    xs = Tensor(rng.normal((4, 5), dtype=f64), requires_grad=True)
    ws = Tensor(rng.normal((4, 5), dtype=f64))
    track(lambda: sum_all(mul(softmax_lastdim(xs), ws)), xs)
    track(lambda: sum_all(mul(gelu(xs), ws)), xs)

    ma = Tensor(rng.normal((3, 4), dtype=f64), requires_grad=True)
    mb = Tensor(rng.normal((4, 2), dtype=f64), requires_grad=True)
    track(lambda: sum_all(matmul(ma, mb)), ma, mb)

    xr = Tensor(rng.normal((2, 6), dtype=f64), requires_grad=True)
    wr = Tensor(rng.normal((3, 4), dtype=f64))
    track(lambda: sum_all(mul(reshape_permute(xr, (3, 4), (0, 1)), wr)), xr)

    xp = Tensor(rng.normal((2, 3, 4, 4), dtype=f64), requires_grad=True)
    track(lambda: sum_all(mean_pool_hw(xp)), xp)

    bias = Tensor(rng.normal((3, 1, 1), dtype=f64), requires_grad=True)
    wadd = Tensor(rng.normal((2, 3, 4, 4), dtype=f64))
    track(lambda: sum_all(mul(add(xp, bias), wadd)), bias)

    xw = Tensor(rng.normal((1, 2, 4, 4), dtype=f64), requires_grad=True)
    ih, iw = np.array([2, 0, 3, 1]), np.array([1, 3, 0, 2])
    wg = Tensor(rng.normal((1, 2, 4, 4), dtype=f64))
    track(lambda: sum_all(mul(gather_hw(xw, ih, iw), wg)), xw)

    logits = Tensor(rng.normal((4, 3), dtype=f64), requires_grad=True)
    labels = np.array([0, 2, 1, 2])
    track(lambda: cross_entropy_logits(logits, labels), logits)

    attn = init_block_params(BlockConfig(4, 2, 1), rng, dtype=f64).attn
    xa = Tensor(rng.normal((2, 4, 2, 2), dtype=f64), requires_grad=True)
    wa = Tensor(rng.normal((2, 4, 2, 2), dtype=f64))
    track(lambda: sum_all(mul(wmsa_forward(xa, attn), wa)),
          xa, attn.wq, attn.wk, attn.wv, attn.wo, attn.bq, attn.bo)

    # the block's NWC kernel starts at zero, so it is redrawn
    small = init_block_params(BlockConfig(2, 1, 3, mlp_ratio=2), rng, dtype=f64)
    nwc, mlp = small.nwc, small.mlp
    nwc.kernel.data[...] = rng.normal(nwc.kernel.shape, 0.3, f64)
    xn = Tensor(rng.normal((1, 2, 4, 4), dtype=f64), requires_grad=True)
    wn = Tensor(rng.normal((1, 2, 4, 4), dtype=f64))
    track(lambda: sum_all(mul(nwc_forward(xn, nwc), wn)), xn, nwc.kernel, nwc.bias)

    track(lambda: sum_all(mul(mlp_forward(xn, mlp), wn)),
          mlp.w1, mlp.b1, mlp.w2, mlp.b2)

    # full reduced block: shuffled attention, NWC at B, batch norm in train mode
    cfg = BlockConfig(4, 2, 2, "long-range", "B", mlp_ratio=2)
    params = init_block_params(cfg, rng, resolution=4, dtype=f64)
    params.nwc.kernel.data[...] = rng.normal(params.nwc.kernel.shape, 0.3, f64)
    xfull = Tensor(rng.normal((1, 4, 4, 4), dtype=f64), requires_grad=True)
    wfull = Tensor(rng.normal((1, 4, 4, 4), dtype=f64))
    track(lambda: sum_all(mul(block_forward(xfull, params, cfg, training=True), wfull)),
          xfull, params.attn.wq, params.attn.wv, params.attn.wo,
          params.nwc.kernel, params.mlp.w1, params.mlp.w2,
          params.bn1.gamma, params.bn2.beta)

    print(f"\n[acceptance] criterion 6 worst relative error: {worst:.3e}")
    assert worst < 1e-4


@criterion(7, "end-to-end trainability")
def test_criterion_7_toy_overfit():
    cfg = ToyTrainConfig(samples=32, classes=8, resolution=56, channels=32,
                         depths=(2, 2), window=7, steps=500, lr=1e-3, seed=0,
                         target_accuracy=0.95)
    result = train_toy(cfg)
    assert result.reached_step is not None and result.reached_step <= 500
    assert result.final_accuracy >= 0.95
    print(f"\n[acceptance] criterion 7 reached {result.final_accuracy * 100:.1f}% "
          f"at step {result.reached_step}")

    frozen = dataclasses.replace(cfg, lr=0.0, steps=3, target_accuracy=None)
    run = train_toy(frozen)
    rng = Rng(frozen.seed)
    synthetic_dataset(frozen.samples, frozen.classes,
                      (frozen.model_config().in_channels, frozen.resolution, frozen.resolution),
                      rng)
    reference = init_model_params(frozen.model_config(), rng)
    for got, want in zip(parameter_list(run.params), parameter_list(reference)):
        assert got.data.tobytes() == want.data.tobytes()


@criterion(8, "declared out-of-scope accuracy columns")
def test_criterion_8_declared_exclusions():
    # Dataset accuracy numbers (classification top-1, segmentation mIoU,
    # detection AP, and the ablation accuracy deltas) need full-scale training
    # and are out of scope at desk scale. The structural columns those tables
    # share are covered by criteria 1-5; this suite asserts the structural
    # claims only, so the exclusion itself is the check here.
    structural_stand_ins = {
        "permutation definitions": test_criterion_1_permutation_algebra,
        "fused pipeline": test_criterion_2_fused_equals_unfused,
        "information flow": test_criterion_3_reachability,
        "model sizes": test_criterion_4_model_sizes,
        "flop accounting": test_criterion_5_flops,
    }
    assert all(callable(fn) for fn in structural_stand_ins.values())
    print("\n[acceptance] criterion 8: accuracy columns are declared "
          "not reproducible at desk scale; structural columns covered by 1-5")
