#!/usr/bin/env python3
"""The spatial shuffle, its alignment inverse, and how both fuse into the
window partition for free."""

import numpy as np

from shuffleformer import (Rng, Tensor, aligned_window_reverse, invert_permutation,
                           make_shuffle_permutation, shuffle_permutations,
                           shuffled_window_partition)

print("=" * 64)
print("1. The three shuffle families on a 12-token axis, window 3")
print("=" * 64)

for mode in ("long-range", "short-range", "random"):
    rng = Rng(7) if mode == "random" else None
    p = make_shuffle_permutation(12, 3, mode, rng)
    inv = invert_permutation(p)
    print(f"{mode:>12}: map  {p.map.tolist()}")
    print(f"{'':>12}  inv  {inv.map.tolist()}")

print()
print("long-range regroups token j*(n/m)+g to slot g*m+j: window g collects")
print("one token from each of the n/m windows, so attention inside a window")
print("now spans the whole axis.")

print()
print("=" * 64)
print("2. Window partition with the shuffle folded into the gather")
print("=" * 64)

n, m = 8, 2
x = np.arange(n * n, dtype=np.float32).reshape(1, 1, n, n)
perms = shuffle_permutations(n, n, m, "long-range")

fused = shuffled_window_partition(Tensor(x), m, perms)
# the same in plain NumPy: shuffle rows and columns, then cut m x m windows
shuffled = x[:, :, perms[0].map][:, :, :, perms[1].map]
unfused = shuffled.reshape(n // m, m, n // m, m).transpose(0, 2, 1, 3).reshape(-1, 1, m, m)
print(f"fused output shape: {fused.shape} ({n * n // (m * m)} windows)")
same = fused.data.tobytes() == unfused.tobytes()
print(f"fused == shuffle-then-partition, bit for bit: {same}")
assert same

plain_window0 = x[0, 0, :m, :m].astype(int)
shuffled_window0 = fused.data[0, 0].astype(int)
print(f"window 0 without shuffle (contiguous pixels):\n{plain_window0}")
print(f"window 0 with long-range shuffle (strided pixels):\n{shuffled_window0}")

print()
print("=" * 64)
print("3. Alignment restores the image exactly")
print("=" * 64)

restored = aligned_window_reverse(fused, m, perms)
print(f"round trip identical: {np.array_equal(restored.data, x)}")

rand_perms = shuffle_permutations(n, n, m, "random", Rng(42))
rand_wins = shuffled_window_partition(Tensor(x), m, rand_perms)
rand_back = aligned_window_reverse(rand_wins, m, rand_perms)
print(f"random mode round trip (same permutations both ways): "
      f"{np.array_equal(rand_back.data, x)}")
