"""Independent reference implementations the tests check against.

Everything here is deliberately written the slow, obvious way (explicit
loops, no shared code with the package) so a bug in the package cannot hide
in its own oracle.
"""

import numpy as np
from scipy.special import erf


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def naive_conv2d(x, w, bias=None, stride=1, padding=0, groups=1):
    """Explicit loops over batch, out-channel and output position; each output
    is the product-sum of the out-channel's kernel with its input patch."""
    sh = sw = stride
    if isinstance(padding, tuple):
        (pt, pb), (pl, pr) = padding
    else:
        pt = pb = pl = pr = padding
    batch, cin, hin, win = x.shape
    cout, cin_g, kh, kw = w.shape
    xp = np.zeros((batch, cin, hin + pt + pb, win + pl + pr), dtype=x.dtype)
    xp[:, :, pt:pt + hin, pl:pl + win] = x
    oh = (hin + pt + pb - kh) // sh + 1
    ow = (win + pl + pr - kw) // sw + 1
    out = np.zeros((batch, cout, oh, ow), dtype=np.float64)
    og = cout // groups
    for b in range(batch):
        for o in range(cout):
            g = o // og
            xg = xp[b, g * cin_g:(g + 1) * cin_g]
            shift = 0.0 if bias is None else bias[o]
            for i in range(oh):
                for j in range(ow):
                    patch = xg[:, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    out[b, o, i, j] = np.vdot(w[o], patch) + shift
    return out


def closed_form_softmax(row: np.ndarray) -> np.ndarray:
    e = np.exp(row - row.max())
    return e / e.sum()


def per_pixel_mlp(x, w1, b1, w2, b2, act):
    """Apply a two-layer perceptron independently at every spatial position."""
    batch, cin, h, w = x.shape
    hidden = w1.shape[0]
    cout = w2.shape[0]
    out = np.zeros((batch, cout, h, w), dtype=np.float64)
    m1 = w1[:, :, 0, 0]
    m2 = w2[:, :, 0, 0]
    for b in range(batch):
        for i in range(h):
            for j in range(w):
                vec = x[b, :, i, j]
                hid = act(m1 @ vec + b1)
                out[b, :, i, j] = m2 @ hid + b2
    return out


def gather_2d(x, map_h, map_w):
    """Elementwise gather oracle for spatial permutations."""
    batch, c, h, w = x.shape
    out = np.zeros_like(x)
    for b in range(batch):
        for ch in range(c):
            for i in range(h):
                for j in range(w):
                    out[b, ch, i, j] = x[b, ch, map_h[i], map_w[j]]
    return out


def composes_to_identity(outer, inner) -> bool:
    """Whether applying map `inner` first, then map `outer`, sends every
    position to itself; position k of the composite reads inner[outer[k]]."""
    return len(outer) == len(inner) and all(inner[outer[k]] == k for k in range(len(outer)))


def window_index_oracle(h, w, m, gw):
    """(window index, intra position) of pixel (h, w) by direct arithmetic."""
    return (h // m) * gw + (w // m), (h % m, w % m)


def batchnorm_train_input_grad(x, gamma, g, eps):
    """Training-mode batch-norm input gradient, one channel at a time, in the
    textbook form inv_std * (gamma*g - mean(gamma*g) - xhat * mean(gamma*g*xhat))."""
    out = np.empty(x.shape, dtype=np.float64)
    for c in range(x.shape[1]):
        xc = x[:, c].astype(np.float64)
        centred = xc - xc.mean()
        inv_std = 1.0 / np.sqrt((centred ** 2).mean() + eps)
        xhat = centred * inv_std
        gg = gamma[c] * g[:, c]
        out[:, c] = inv_std * (gg - gg.mean() - xhat * (gg * xhat).mean())
    return out


def shuffle_then_partition(x, map_h, map_w, m):
    """Shuffle (B, C, H, W) by fancy indexing, out[..., i, j] = x[..., map_h[i], map_w[j]],
    then cut it into (B*gh*gw, C, m, m) windows: batch-major, then row-major
    over windows, row-major inside a window."""
    shuffled = x[:, :, np.asarray(map_h)][:, :, :, np.asarray(map_w)]
    batch, _, h, w = x.shape
    return np.stack([shuffled[b, :, wh * m:(wh + 1) * m, ww * m:(ww + 1) * m]
                     for b in range(batch) for wh in range(h // m) for ww in range(w // m)])


# ---------------------------------------------------------------------------
# reference forward, written from the block equations
#
#     x = WMSA(BN(z)) + z,   y = NWC(x),   z' = MLP(BN(y)) + y
#
# with Swin-style window attention softmax(Q Kᵀ / sqrt(d)) V. Weights come in
# as a dict of plain arrays keyed by parameter name ("stage0.block1.attn.wq").

REF_BN_EPS = 1e-5


def reference_shuffle_map(n, m, mode):
    """Source index of each position of an n-token axis in windows of m.
    long-range: reshape to (m, n/m), transpose, flatten. short-range: reshape
    to (n/(2m), m, 2), swap the last two axes, flatten; one window is left alone."""
    idx = np.arange(n)
    if mode == "long-range":
        return idx.reshape(m, n // m).T.ravel()
    if mode == "short-range" and n > m:
        return idx.reshape(n // (2 * m), m, 2).transpose(0, 2, 1).ravel()
    return idx


def reference_gelu(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def reference_batchnorm(x, a, prefix, training):
    """Per channel: batch statistics over (B, H, W) in training, else the running ones."""
    out = np.empty(x.shape)
    for c in range(x.shape[1]):
        xc = x[:, c]
        if training:
            mean, var = xc.mean(), ((xc - xc.mean()) ** 2).mean()
        else:
            mean, var = a[prefix + "running_mean"][c], a[prefix + "running_var"][c]
        out[:, c] = a[prefix + "gamma"][c] * (xc - mean) / np.sqrt(var + REF_BN_EPS) \
            + a[prefix + "beta"][c]
    return out


def per_pixel_linear(x, w, b):
    """A 1x1 convolution as one matrix-vector product per pixel."""
    batch, _, h, wd = x.shape
    out = np.empty((batch, w.shape[0], h, wd))
    for n in range(batch):
        for i in range(h):
            for j in range(wd):
                out[n, :, i, j] = w[:, :, 0, 0] @ x[n, :, i, j] + b
    return out


def reference_nwc(x, kernel, bias):
    """x plus a depth-wise convolution that keeps the resolution; an even
    extent pads its extra row and column after."""
    k = kernel.shape[2]
    pad = ((k - 1) // 2, k // 2)
    return x + naive_conv2d(x, kernel, bias, padding=(pad, pad), groups=x.shape[1])


def reference_window_attention(x, a, prefix, heads, m, map_h, map_w):
    """Read the shuffled grid out[i, j] = x[map_h[i], map_w[j]] window by
    window, attend among each window's m*m tokens head by head, and write every
    token's result back to the pixel it was read from."""
    batch, c, h, w = x.shape
    d = c // heads
    proj = {n: (a[prefix + "w" + n][:, :, 0, 0], a.get(prefix + "b" + n)) for n in "qkvo"}

    def project(tokens, n):
        weight, bias = proj[n]
        return tokens @ weight.T + (0.0 if bias is None else bias)

    out = np.empty(x.shape)
    for b in range(batch):
        for wh in range(h // m):
            for ww in range(w // m):
                pixels = [(map_h[wh * m + i], map_w[ww * m + j])
                          for i in range(m) for j in range(m)]
                tokens = np.stack([x[b, :, r, s] for r, s in pixels])  # (m*m, C)
                q, k, v = (project(tokens, n) for n in "qkv")
                mixed = np.empty(tokens.shape)
                for head in range(heads):
                    hs = slice(head * d, (head + 1) * d)
                    scores = q[:, hs] @ k[:, hs].T / np.sqrt(d)
                    attn = np.stack([closed_form_softmax(row) for row in scores])
                    mixed[:, hs] = attn @ v[:, hs]
                for (r, s), token in zip(pixels, project(mixed, "o")):
                    out[b, :, r, s] = token
    return out


def reference_block(z, a, prefix, heads, m, maps, nwc_position, training):
    """One block; `maps` is the (row, column) shuffle map pair."""
    zn = reference_batchnorm(z, a, prefix + "bn1.", training)
    nwc = (a.get(prefix + "nwc.kernel"), a.get(prefix + "nwc.bias"))
    if nwc_position == "A":
        zn = reference_nwc(zn, *nwc)
    x = reference_window_attention(zn, a, prefix + "attn.", heads, m, *maps) + z
    y = reference_nwc(x, *nwc) if nwc_position == "B" else x
    yn = reference_batchnorm(y, a, prefix + "bn2.", training)
    hidden = reference_gelu(per_pixel_linear(yn, a[prefix + "mlp.w1"], a[prefix + "mlp.b1"]))
    if nwc_position == "C":
        hidden = reference_nwc(hidden, *nwc)
    return per_pixel_linear(hidden, a[prefix + "mlp.w2"], a[prefix + "mlp.b2"]) + y


def reference_model_forward(image, a, random_maps, depths, window, head_dim,
                            shuffle_mode, nwc_position, training):
    """Embed (two stride-2 3x3 convs with BN, GELU between), stages of block
    pairs whose odd blocks shuffle, a 2x2 stride-2 merge before each later
    stage, then BN, global average pool and a linear head. Random-mode blocks
    read their (row, column) maps from `random_maps["stage{s}.block{i}"]`."""
    x = naive_conv2d(image, a["embed.conv1.weight"], a["embed.conv1.bias"], stride=2, padding=1)
    x = reference_gelu(reference_batchnorm(x, a, "embed.bn1.", training))
    x = naive_conv2d(x, a["embed.conv2.weight"], a["embed.conv2.bias"], stride=2, padding=1)
    x = reference_batchnorm(x, a, "embed.bn2.", training)
    for s, depth in enumerate(depths):
        if s > 0:
            x = naive_conv2d(x, a[f"stage{s}.merge.weight"], a[f"stage{s}.merge.bias"], stride=2)
        n = x.shape[2]
        for i in range(depth):
            name = f"stage{s}.block{i}"
            mode = "none" if i % 2 == 0 else shuffle_mode
            if mode == "random":
                maps = random_maps[name]
            else:
                maps = (reference_shuffle_map(n, window, mode),) * 2
            x = reference_block(x, a, name + ".", x.shape[1] // head_dim, window, maps,
                                nwc_position, training)
    x = reference_batchnorm(x, a, "head.bn.", training)
    return x.mean(axis=(2, 3)) @ a["head.weight"] + a["head.bias"]
