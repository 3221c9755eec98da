#!/usr/bin/env python3
"""Mutation check: tier-1 must fail on every mutant in the catalogue.

A mutant is a (file, old text, new text) triple: a small defect made by
replacing old text, which must occur exactly once in the file, with new
text. For each mutant the tree is copied to a temporary directory, the
mutant is applied there, and tier-1 runs with -x. A failing run means the
mutant was caught; a passing one means it survived. Exits 1 if any mutant
survived or if an old text is missing or occurs more than once.

    python3 tools/mutants.py          # apply each mutant and run tier-1 on it
    python3 tools/mutants.py --check  # only check each old text occurs once
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = "src/shuffleformer/"
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-W", "error",
         "--continue-on-collection-errors", "-p", "no:cacheprovider"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                              ".bench_build", ".benchmarks")

# the MLP half of a block; the mutants that read the attention residual x in
# place of y also keep x alive
_RELEASE_X = "    del x  # the attention residual, once the NWC has read it\n"
_MLP_TAIL = _RELEASE_X + (
    "    inner = params.nwc if cfg.nwc_position == \"C\" else None\n"
    "    return add(mlp_forward(apply_bn(y, params.bn2, training), params.mlp, inner_nwc=inner), y)\n")
# gelu_conv2d's forward and the start of its vjp, which rebuilds GELU(h) from h,
# and the same code with a vjp that reads the forward's GELU(h) instead
_GELU_CONV = (
    "    out, grad_x, grad_w = kernel(_gelu_blocks(h_data))\n"
    "    out += bias.data[None, :, None, None]\n"
    "\n"
    "    def vjp(g):\n"
    "        gh, act = grad_x(g), np.empty_like(h_data)\n"
    "        _gelu_blocks(h_data, gh, out=gh, act=act)\n")
_GELU_CONV_KEEPS_ACT = (
    "    act = _gelu_blocks(h_data)\n"
    "    out, grad_x, grad_w = kernel(act)\n"
    "    out += bias.data[None, :, None, None]\n"
    "\n"
    "    def vjp(g):\n"
    "        gh = grad_x(g)\n"
    "        _gelu_blocks(h_data, gh, out=gh)\n")

MUTANTS = [
    # the block equations: x = WMSA(BN(z)) + z, y = NWC(x), z' = MLP(BN(y)) + y
    (PKG + "layers.py", "1.0 / math.sqrt(head_dim)", "1.0 / head_dim"),
    (PKG + "model.py", _MLP_TAIL, _MLP_TAIL.replace(_RELEASE_X, "").replace("inner), y)", "inner), x)")),
    (PKG + "model.py", _MLP_TAIL, _MLP_TAIL.replace(_RELEASE_X, "").replace("bn(y,", "bn(x,")),
    (PKG + "model.py", "m, perms), z)", "m, perms), normed())"),
    (PKG + "model.py", "nwc_forward(zn, params.nwc)", "nwc_forward(z, params.nwc)"),
    (PKG + "model.py", 'mode = "none" if index % 2 == 0 else', 'mode = "none" if index % 2 else'),
    (PKG + "model.py", "x = apply_bn(x, params.head.bn, training)",
     "x = apply_bn(x, params.head.bn, False)"),
    (PKG + "layers.py", "    return add(x, local)", "    return local"),
    # the NWC's extra pad row and column go after, not before
    (PKG + "layers.py", "return (extent - 1) // 2, extent // 2",
     "return extent // 2, (extent - 1) // 2"),
    # the shuffle maps and the window reverse
    (PKG + "windowing.py", "perm.transpose(0, 2, 1).ravel()", "perm.ravel()"),
    (PKG + "windowing.py", "reshape(m, n // m).T.ravel()", "reshape(m, n // m).ravel()"),
    (PKG + "windowing.py", "    rows, cols = _window_index(m, perms)\n",
     "    rows, cols = _window_index(m, perms[::-1])\n"),
    # batch norm, the engine and the optimizer
    (PKG + "conv.py", "BN_MOMENTUM * var * (n / (n - 1))", "BN_MOMENTUM * var"),
    (PKG + "conv.py", "out += (beta.data - mean * sc)", "out += (beta.data + mean * sc)"),
    (PKG + "tensor.py", "pending[key] = pending[key] + pg", "pending[key] = pg"),
    # a vjp that reads its input tensor keeps the input's array in the graph
    (PKG + "tensor.py", "return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)",
     "return _unbroadcast(g, a.shape), _unbroadcast(g, b_shape)"),
    (PKG + "tensor.py", "np.subtract(g, gx.sum(axis=-1, keepdims=True), out=gx)",
     "np.subtract(g, gx.mean(axis=-1, keepdims=True), out=gx)"),
    (PKG + "tensor.py", "g[:, :, None, None] / (h * w)", "g[:, :, None, None] / h"),
    (PKG + "tensor.py", "np.multiply(xs, const(1.0 / np.sqrt(2.0)), out=ck)",
     "np.multiply(xs, const(1.0 / 2.0), out=ck)"),
    (PKG + "optim.py", "mhat = m / (1.0 - BETA1 ** opt.steps)", "mhat = m"),
    # the block-wise draws: each block's place in the result, the positions its
    # out-of-bound values are recorded at, and where accepted redraws are written
    (PKG + "rng.py", "for lo in range(0, flat.size, _CHUNK_ELEMS):",
     "for lo in range(1, flat.size, _CHUNK_ELEMS):"),
    (PKG + "rng.py", "np.flatnonzero(np.abs(block) > bound) + lo)",
     "np.flatnonzero(np.abs(block) > bound))"),
    (PKG + "rng.py", "flat[bad[~keep]] = redraw[~keep]", "flat[bad[keep]] = redraw[keep]"),
    # headers from before the fixed values load only at those values
    (PKG + "model.py", "if key in d and not (type(d[key]) is type(value) and d[key] == value):",
     "if key in d and False:"),
    # reachability: the exact relations and the probe's union over seeds
    (PKG + "reachability.py", "(d < extent - pad_before)", "(d <= extent - pad_before)"),
    (PKG + "reachability.py", "windows = [invert_permutation(p).map // m for p in perms]",
     "windows = [p.map // m for p in perms]"),
    (PKG + "reachability.py", "union |= (deriv > threshold * base_scale)",
     "union = (deriv > threshold * base_scale)"),
    # a head count of 0 must raise the package's error, not ZeroDivisionError
    (PKG + "layers.py", "_is_int(heads) and heads >= 1 and", "_is_int(heads) and"),
    # a model file is checked, frozen maps too, before its entries are allocated and read
    (PKG + "checkpoint.py",
     "        perms = _checked_state(path, cfg, shapes, meta.get(\"shuffle_perms\", {}))\n"
     "        state = {name: np.empty(shape, dtype) for name, shape in shapes.items()}\n"
     "        for name, arr in state.items():\n"
     "            _read_into(fh, path, stored[name], arr)\n",
     "        state = {name: np.empty(shape, dtype) for name, shape in shapes.items()}\n"
     "        for name, arr in state.items():\n"
     "            _read_into(fh, path, stored[name], arr)\n"
     "        perms = _checked_state(path, cfg, shapes, meta.get(\"shuffle_perms\", {}))\n"),
    # a frozen MLP writes GELU over its projection; the allocating op changes
    # no value, only the forward's peak memory
    (PKG + "layers.py", "        _gelu_blocks(h.data, out=h.data)", "        h = gelu(h)"),
    # the training graph keeps GELU's input only; reading the forward's GELU
    # output changes no value, only what the graph holds
    (PKG + "conv.py", _GELU_CONV, _GELU_CONV_KEEPS_ACT),
    # init draws every weight; one left at zero changes only the seeded bytes
    (PKG + "model.py", '_DRAWN = (".weight", ".wq", ".wk", ".wv", ".wo", ".w1", ".w2")',
     '_DRAWN = (".weight", ".wq", ".wk", ".wv", ".w1", ".w2")'),
]


def stale(root: Path) -> list[str]:
    """A line for each mutant whose old text is not in its file exactly once."""
    problems = []
    for i, (name, old, _) in enumerate(MUTANTS):
        path = root / name
        count = path.read_text(encoding="utf-8").count(old) if path.is_file() else 0
        if count != 1:
            problems.append(f"mutant {i} ({name}): old text occurs {count} times")
    return problems


def run_mutant(name: str, old: str, new: str) -> str:
    """'caught', 'survived' or 'timed out' for one mutant, in a temporary copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        path = tree / name
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(tree / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        try:
            result = subprocess.run(TIER1, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL, timeout=900)
        except subprocess.TimeoutExpired:
            return "timed out"
    return "survived" if result.returncode == 0 else "caught"


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print("usage: python3 tools/mutants.py [--check]", file=sys.stderr)
        return 2
    problems = stale(ROOT)
    for line in problems:
        print(line)
    if problems or argv:
        print(f"{len(MUTANTS) - len(problems)} of {len(MUTANTS)} mutants apply")
        return 1 if problems else 0
    survived = 0
    for i, (name, old, new) in enumerate(MUTANTS):
        verdict = run_mutant(name, old, new)
        survived += verdict == "survived"
        print(f"{i:2d} {verdict:9s} {name}: {new.strip().splitlines()[0]}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
