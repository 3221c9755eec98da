import numpy as np

from shuffleformer import Rng


def test_trunc_normal_resamples_beyond_two_std():
    std, shape = 0.02, (64, 64)
    # the same stream's first plain draws: some fall beyond 2 std and get resampled
    raw = np.random.Generator(np.random.PCG64(11)).normal(0.0, std, size=shape)
    assert (np.abs(raw) > 2 * std).sum() > 10
    a = Rng(11).trunc_normal(shape, std, dtype=np.float64)
    assert np.abs(a).max() <= 2 * std
    assert np.array_equal(a, Rng(11).trunc_normal(shape, std, dtype=np.float64))
    assert not np.array_equal(a, Rng(12).trunc_normal(shape, std, dtype=np.float64))
