import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shuffleformer import (InvalidCallError, InvalidConfigError, InvalidShapeError,
                           PartitionError, Rng, SpatialPermutation, Tensor,
                           aligned_window_reverse, backward,
                           invert_permutation, make_shuffle_permutation, mul,
                           shuffle_permutations, shuffled_window_partition, sum_all,
                           window_grid)

from oracles import (composes_to_identity, gather_2d, shuffle_then_partition,
                     window_index_oracle)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def partition(x, m):
    """The window partition without a shuffle."""
    return shuffled_window_partition(x, m, tuple(map(SpatialPermutation.identity, x.shape[2:])))


_X = Tensor(np.zeros((1, 1, 4, 4)))
_PERMS = shuffle_permutations(4, 4, 2, "long-range")


# each row pins the class that a bad argument raises
@pytest.mark.parametrize("call, error", [
    (lambda: shuffled_window_partition(_X, 2, None), InvalidConfigError),
    (lambda: shuffled_window_partition(_X, 2, _PERMS[:1]), InvalidConfigError),
    (lambda: shuffled_window_partition(_X, 2, tuple(p.map for p in _PERMS)), InvalidConfigError),
    (lambda: shuffled_window_partition(_X, "2", _PERMS), InvalidConfigError),
    (lambda: shuffled_window_partition(_X, 2.0, _PERMS), InvalidConfigError),
    (lambda: aligned_window_reverse(Tensor(np.zeros((4, 1, 2, 2))), "2", _PERMS),
     InvalidConfigError),
    (lambda: aligned_window_reverse(Tensor(np.zeros((4, 1, 2, 2))), 2, None), InvalidConfigError),
    (lambda: window_grid(4, 4, "2"), InvalidConfigError),
    (lambda: window_grid(4.0, 4, 2), InvalidConfigError),
    (lambda: SpatialPermutation([[0], [1, 2]]), InvalidConfigError),
    (lambda: SpatialPermutation(["a", "b", "c"]), InvalidConfigError),
    (lambda: SpatialPermutation([0.0, 1.0, 2.0]), InvalidConfigError),
    (lambda: invert_permutation(np.arange(3)), InvalidConfigError),
    (lambda: make_shuffle_permutation(4, 2, np.array(["none", "random"])), InvalidConfigError),
    (lambda: shuffle_permutations(4, 4, 2, np.zeros((2, 2))), InvalidConfigError),
    (lambda: shuffle_permutations(8, 8, 2, "random", "rng"), InvalidCallError),
    (lambda: make_shuffle_permutation(8, 2, "random", 3), InvalidCallError),
], ids=["partition-no-perms", "partition-one-perm", "partition-array-perms",
        "partition-text-window", "partition-float-window", "reverse-text-window",
        "reverse-no-perms", "grid-text-window", "grid-float-height", "ragged-map",
        "text-map", "float-map", "invert-array", "array-mode", "grid-array-mode",
        "grid-text-rng", "axis-int-rng"])
def test_bad_input_raises_package_error(call, error):
    with pytest.raises(error):
        call()


class TestPermutations:
    def test_long_range_map_n9_m3(self):
        p = make_shuffle_permutation(9, 3, "long-range")
        assert p.map.tolist() == [0, 3, 6, 1, 4, 7, 2, 5, 8]

    def test_single_window_is_identity(self):
        p = make_shuffle_permutation(5, 5, "long-range")
        assert np.array_equal(p.map, np.arange(5))

    def test_short_range_single_window_is_identity(self):
        # no neighbour window to pair with, as on a 7x7 stage at window 7
        p = make_shuffle_permutation(7, 7, "short-range")
        assert np.array_equal(p.map, np.arange(7))

    @pytest.mark.parametrize("n, m", [(8.0, 2), ("8", 2), (8, 2.0), (8, None)],
                             ids=["float-extent", "text-extent", "float-window", "no-window"])
    def test_non_integer_extents_rejected(self, n, m):
        with pytest.raises(InvalidConfigError, match="positive integers"):
            make_shuffle_permutation(n, m, "long-range")

    def test_short_range_map_n8_m2(self):
        p = make_shuffle_permutation(8, 2, "short-range")
        assert p.map.tolist() == [0, 2, 1, 3, 4, 6, 5, 7]

    def test_long_range_law(self):
        for n in range(4, 65):
            for m in divisors(n):
                p = make_shuffle_permutation(n, m, "long-range")
                for g in range(n // m):
                    for j in range(m):
                        assert p.map[g * m + j] == j * (n // m) + g

    def test_long_range_shuffle_then_alignment_is_identity(self):
        for n in range(4, 65):
            for m in divisors(n):
                p = make_shuffle_permutation(n, m, "long-range")
                assert composes_to_identity(invert_permutation(p).map, p.map)
                assert composes_to_identity(p.map, invert_permutation(p).map)

    def test_long_range_inverse_matches_opposite_reshape(self):
        for n in (6, 12, 20):
            for m in divisors(n):
                inv = invert_permutation(make_shuffle_permutation(n, m, "long-range"))
                opposite = np.arange(n).reshape(n // m, m).T.ravel()
                assert np.array_equal(inv.map, opposite)

    def test_self_inverse_n4_m2(self):
        p = make_shuffle_permutation(4, 2, "long-range")
        assert p.map.tolist() == [0, 2, 1, 3]
        assert invert_permutation(p).map.tolist() == [0, 2, 1, 3]

    def test_invert_identity(self):
        p = SpatialPermutation.identity(7)
        assert np.array_equal(invert_permutation(p).map, np.arange(7))

    def test_divisibility_errors(self):
        with pytest.raises(InvalidConfigError):
            make_shuffle_permutation(9, 2, "long-range")
        with pytest.raises(InvalidConfigError):
            make_shuffle_permutation(6, 2, "short-range")
        with pytest.raises(InvalidConfigError):
            make_shuffle_permutation(8, 2, "random")  # rng required

    def test_random_is_seeded_bijection(self):
        a = make_shuffle_permutation(16, 2, "random", Rng(5))
        b = make_shuffle_permutation(16, 2, "random", Rng(5))
        assert np.array_equal(a.map, b.map)
        assert np.array_equal(np.sort(a.map), np.arange(16))

    @given(st.integers(2, 40), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_modes_produce_bijections(self, n, seed):
        rng = Rng(seed)
        candidates = [SpatialPermutation.identity(n),
                      make_shuffle_permutation(n, n, "random", rng)]
        for m in divisors(n):
            candidates.append(make_shuffle_permutation(n, m, "long-range"))
            if n % (2 * m) == 0:
                candidates.append(make_shuffle_permutation(n, m, "short-range"))
        for p in candidates:
            assert np.array_equal(np.sort(p.map), np.arange(n))
            assert composes_to_identity(p.map, invert_permutation(p).map)
            assert np.array_equal(invert_permutation(invert_permutation(p)).map, p.map)

    def test_non_bijection_rejected(self):
        with pytest.raises(InvalidConfigError):
            SpatialPermutation(np.array([0, 0, 2]))


class TestWindowPartition:
    def test_single_window_unchanged(self):
        rng = Rng(0)
        x = rng.normal((2, 3, 4, 4), dtype=np.float32)
        wins = partition(Tensor(x), 4)
        assert wins.shape == (2, 3, 4, 4)
        assert np.array_equal(wins.data, x)

    def test_index_arithmetic(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        wins = partition(Tensor(x), 2).data
        _, gw = window_grid(4, 4, 2)
        for h in range(4):
            for w in range(4):
                win, (ih, iw) = window_index_oracle(h, w, 2, gw)
                assert wins[win, 0, ih, iw] == x[0, 0, h, w]

    def test_window_content_multisets_match(self):
        rng = Rng(2)
        x = rng.normal((1, 2, 6, 6), dtype=np.float64)
        wins = partition(Tensor(x), 3).data
        gh, gw = window_grid(6, 6, 3)
        for win in range(gh * gw):
            wh, ww = divmod(win, gw)
            block = x[0, :, wh * 3:(wh + 1) * 3, ww * 3:(ww + 1) * 3]
            assert sorted(block.ravel()) == sorted(wins[win].ravel())

    def test_indivisible_raises(self):
        with pytest.raises(PartitionError):
            partition(Tensor(np.zeros((1, 1, 5, 5))), 2)

    def test_gradient_through_partition(self):
        from gradcheck import check_gradients
        rng = Rng(3)
        x = Tensor(rng.normal((1, 2, 4, 4), dtype=np.float64), requires_grad=True)
        w = Tensor(rng.normal((4, 2, 2, 2), dtype=np.float64))
        perms = shuffle_permutations(4, 4, 2, "long-range")
        check_gradients(lambda: sum_all(mul(shuffled_window_partition(x, 2, perms), w)), [x])


class TestApplyPermutation2d:
    """The 2-D shuffle as the partition applies it, against gathers done elementwise."""

    def test_identity(self):
        rng = Rng(4)
        x = rng.normal((2, 2, 4, 4), dtype=np.float32)
        wins = partition(Tensor(x), 2)
        assert wins.data.tobytes() == shuffle_then_partition(x, range(4), range(4), 2).tobytes()

    def test_round_trip(self):
        # the shuffled grid read through the alignment maps is the plain partition
        rng = Rng(5)
        x = rng.normal((1, 3, 8, 6), dtype=np.float64)
        ph = make_shuffle_permutation(8, 2, "long-range")
        pw = make_shuffle_permutation(6, 2, "long-range")
        mixed = gather_2d(x, ph.map, pw.map)
        back = shuffled_window_partition(Tensor(mixed), 2,
                                          (invert_permutation(ph), invert_permutation(pw)))
        assert np.array_equal(back.data, partition(Tensor(x), 2).data)
        restored = aligned_window_reverse(shuffled_window_partition(Tensor(x), 2, (ph, pw)),
                                          2, (ph, pw))
        assert np.array_equal(restored.data, x)

    def test_matches_gather_oracle(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        ph = make_shuffle_permutation(4, 2, "long-range")
        pw = make_shuffle_permutation(4, 2, "long-range")
        out = shuffled_window_partition(Tensor(x), 2, (ph, pw)).data
        assert np.array_equal(out, shuffle_then_partition(gather_2d(x, ph.map, pw.map),
                                                          range(4), range(4), 2))

    def test_extent_mismatch(self):
        with pytest.raises(InvalidShapeError):
            shuffled_window_partition(Tensor(np.zeros((1, 1, 4, 4))), 2,
                                      (SpatialPermutation.identity(5),
                                       SpatialPermutation.identity(4)))


def _perms_for(mode, n, m, seed=0):
    if mode == "random":
        rng = Rng(seed)
        return (make_shuffle_permutation(n, m, "random", rng),
                make_shuffle_permutation(n, m, "random", rng))
    return (make_shuffle_permutation(n, m, mode),
            make_shuffle_permutation(n, m, mode))


class TestFusedShuffleWindows:
    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("mode", ["none", "long-range", "short-range", "random"])
    def test_fused_equals_unfused(self, n, mode):
        if mode == "short-range" and n % 4:
            pytest.skip("short-range needs 2m | n")
        m = 2
        rng = Rng(9)
        x = rng.normal((2, 3, n, n), dtype=np.float32)
        perms = _perms_for(mode, n, m)
        fused = shuffled_window_partition(Tensor(x), m, perms)
        unfused = shuffle_then_partition(x, perms[0].map, perms[1].map, m)
        assert fused.data.tobytes() == unfused.tobytes()
        restored = aligned_window_reverse(fused, m, perms)
        assert restored.data.tobytes() == x.tobytes()

    def test_identity_mode_equals_plain_partition(self):
        rng = Rng(10)
        x = rng.normal((1, 2, 6, 6), dtype=np.float64)
        fused = shuffled_window_partition(Tensor(x), 2, shuffle_permutations(6, 6, 2, "none"))
        plain = shuffle_then_partition(x, range(6), range(6), 2)
        assert fused.data.tobytes() == plain.tobytes()

    def test_reverse_validates_extents(self):
        wins = partition(Tensor(np.zeros((1, 1, 4, 4))), 2)
        with pytest.raises(InvalidShapeError):
            aligned_window_reverse(wins, 2, shuffle_permutations(6, 6, 2, "long-range"))

    def test_random_mode_with_rng_argument(self):
        rng = Rng(11)
        x = rng.normal((1, 1, 8, 8), dtype=np.float64)
        wins = shuffled_window_partition(
            Tensor(x), 2, shuffle_permutations(8, 8, 2, "random", Rng(3)))
        back = aligned_window_reverse(
            wins, 2, shuffle_permutations(8, 8, 2, "random", Rng(3)))
        assert np.array_equal(back.data, x)

    def test_gradient_round_trips_through_fusion(self):
        rng = Rng(12)
        perms = _perms_for("long-range", 4, 2)
        x = Tensor(rng.normal((1, 1, 4, 4), dtype=np.float64), requires_grad=True)
        w = Tensor(rng.normal((4, 1, 2, 2), dtype=np.float64))
        wins = shuffled_window_partition(x, 2, perms)
        loss = sum_all(mul(wins, w))
        backward(loss)
        # adjoint of a pure permutation is the inverse permutation of the grad
        expect = np.empty((1, 1, 4, 4))
        src_h = perms[0].map.reshape(2, 2)
        src_w = perms[1].map.reshape(2, 2)
        blocks = w.data.reshape(1, 2, 2, 1, 2, 2).transpose(0, 3, 1, 2, 4, 5)
        expect[:, :, src_h[:, None, :, None], src_w[None, :, None, :]] = blocks
        assert np.array_equal(x.grad, expect)
