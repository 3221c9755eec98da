import tracemalloc

import numpy as np
import pytest

from shuffleformer import InvalidConfigError, Rng
from shuffleformer.tensor import _CHUNK_ELEMS


def whole_array_normal(seed, shape, std, dtype):
    """The draw as one float64 array, cast at the end; returns the generator too."""
    gen = np.random.Generator(np.random.PCG64(seed))
    return gen.normal(0.0, std, size=shape).astype(dtype), gen


def whole_array_trunc_normal(seed, shape, std, dtype):
    """Draw the whole array, then redraw every value beyond 2 std, in index
    order, until none is left; returns the result, the generator and the
    number of redraw rounds."""
    gen = np.random.Generator(np.random.PCG64(seed))
    out = gen.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    rounds = 0
    while bad.any():
        out[bad] = gen.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
        rounds += 1
    return out.astype(dtype), gen, rounds


SIZES = [(1000,), (_CHUNK_ELEMS,), (5, 3, _CHUNK_ELEMS // 7 + 11)]
SIZE_IDS = ["below-one-block", "one-block", "several-blocks"]


def test_trunc_normal_resamples_beyond_two_std():
    std, shape = 0.02, (64, 64)
    # the same stream's first plain draws: some fall beyond 2 std and get resampled
    raw = np.random.Generator(np.random.PCG64(11)).normal(0.0, std, size=shape)
    assert (np.abs(raw) > 2 * std).sum() > 10
    a = Rng(11).trunc_normal(shape, std, dtype=np.float64)
    assert np.abs(a).max() <= 2 * std
    assert np.array_equal(a, Rng(11).trunc_normal(shape, std, dtype=np.float64))
    assert not np.array_equal(a, Rng(12).trunc_normal(shape, std, dtype=np.float64))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", SIZES, ids=SIZE_IDS)
def test_normal_equals_whole_array_draw(shape, dtype):
    rng = Rng(5)
    got = rng.normal(shape, 0.7, dtype=dtype)
    want, gen = whole_array_normal(5, shape, 0.7, dtype)
    assert got.dtype == dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # the generator ends where the whole-array draw leaves it
    assert rng.normal(4, 1.0, np.float64).tobytes() == gen.normal(0.0, 1.0, size=4).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", SIZES, ids=SIZE_IDS)
def test_trunc_normal_equals_whole_array_draw(shape, dtype):
    rng = Rng(3)
    got = rng.trunc_normal(shape, 0.02, dtype=dtype)
    want, gen, rounds = whole_array_trunc_normal(3, shape, 0.02, dtype)
    assert rounds > 1  # redraws that are themselves out of bounds get redrawn again
    assert got.dtype == dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert rng.normal(4, 1.0, np.float64).tobytes() == gen.normal(0.0, 1.0, size=4).tobytes()


@pytest.mark.parametrize("shape", [(), 0, (0, 3), 4], ids=["scalar", "zero", "empty", "int"])
def test_degenerate_shapes_equal_whole_array_draw(shape):
    rng = Rng(8)
    got = rng.trunc_normal(shape, 1.0, dtype=np.float64)
    want, gen, _ = whole_array_trunc_normal(8, shape, 1.0, np.float64)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert rng.normal(2, 1.0, np.float64).tobytes() == gen.normal(0.0, 1.0, size=2).tobytes()


def test_float32_trunc_normal_peaks_below_twice_its_result():
    # the largest weight class of the T variant; a whole float64 draw and its
    # abs peak at 4.5 times the float32 result
    rng = Rng(0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = rng.trunc_normal((3072, 768), 0.02, dtype=np.float32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes, (peak, out.nbytes)


@pytest.mark.parametrize("call", [
    lambda r: r.normal((-1, 2)),
    lambda r: r.normal((2.5, 2)),
    lambda r: r.normal("ab"),
    lambda r: r.normal(-3),
    lambda r: r.normal(None),
    lambda r: r.normal((2,), std=-1),
    lambda r: r.normal((2,), std="x"),
    lambda r: r.normal((2,), std=float("inf")),
    lambda r: r.trunc_normal((2,), float("nan")),
    lambda r: r.trunc_normal((2,), True),
    lambda r: r.trunc_normal((2,), 0.02, dtype=np.int32),
    lambda r: r.trunc_normal((2,), 0.02, dtype=np.float16),
    lambda r: r.normal((2,), dtype="not-a-dtype"),
    lambda r: r.normal(3, dtype=None),
    lambda r: r.permutation(-1),
    lambda r: r.permutation(2.0),
    lambda r: r.integers(5, 2),
    lambda r: r.integers(3, 3),
    lambda r: r.integers(0.5, 2),
    lambda r: r.integers(0, 2, (-1,)),
], ids=["negative-dim", "float-dim", "text-shape", "negative-int-shape", "none-shape",
        "negative-std", "text-std", "infinite-std", "nan-std", "bool-std", "int-dtype",
        "half-dtype", "text-dtype", "none-dtype", "negative-n", "float-n", "low-above-high",
        "empty-range", "float-low", "negative-integers-shape"])
def test_bad_input_raises_package_error(call):
    with pytest.raises(InvalidConfigError):
        call(Rng(0))


def test_zero_std_gives_zeros():
    assert not Rng(0).trunc_normal((3, 2), 0.0).any()
    assert not Rng(0).normal(4, 0).any()
