"""Independent reference implementations the tests check against.

Everything here is deliberately written the slow, obvious way (explicit
loops, no shared code with the package) so a bug in the package cannot hide
in its own oracle.
"""

import numpy as np


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
    """Seven explicit loops over batch, out-channel, output position, kernel."""
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
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(cin_g):
                        for u in range(kh):
                            for v in range(kw):
                                acc += (w[o, c, u, v]
                                        * xp[b, g * cin_g + c, i * sh + u, j * sw + v])
                    out[b, o, i, j] = acc + (0.0 if bias is None else bias[o])
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
