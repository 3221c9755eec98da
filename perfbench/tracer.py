"""Timing spans around the package's public functions, installed from outside.

`Tracer.install` replaces each traced function in every `shuffleformer`
module namespace that holds it (the modules import each other's functions by
name) and `Tracer.uninstall` puts the originals back. Nothing under `src/`
knows about it.

Op-level functions (tensor primitives, `conv2d`, `batchnorm2d`, the fused
window gathers) also get their result's vector-Jacobian closure wrapped, so
`backward` shows per-op `vjp` spans; `backward` minus those spans is the
graph walk. Every op result passes through `tensor.result_of`, which is
counted for `tensor.ops.calls` and `tensor.ops.out_mb`.

Spans stay in memory as (label, start_ns, end_ns, parent, unit, row) lists and
are written once, as Chrome trace-event JSON, by `write_chrome_trace`. A span's
row is the `analysis.CostReport` row of the parameter it touches (looked up
by `id` through `named_parameters`) or, failing that, its parent's row.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "shuffleformer"
WRAPPED_ATTR = "__perfbench_wrapped__"

# functions whose result carries a vjp closure worth timing
OPS = {
    "tensor": ("reshape_permute", "add", "mul", "scale", "matmul", "softmax_lastdim",
               "gelu", "mean_pool_hw", "sum_all", "mean_all", "gather_hw",
               "cross_entropy_logits"),
    "conv": ("conv2d", "batchnorm2d"),
    "windowing": ("shuffled_window_partition", "aligned_window_reverse"),
}
# composite functions: spans only, times are inclusive
SCOPES = {
    "tensor": ("backward",),
    "layers": ("wmsa_forward", "nwc_forward", "mlp_forward"),
    "model": ("token_embed", "token_merge", "block_forward", "model_forward"),
    "optim": ("optimizer_step",),
    "checkpoint": ("load_checkpoint", "save_checkpoint"),
    "reachability": ("reachability_probe", "symbolic_reachability"),
}
SETUP = "setup"

TENSOR_OPS = ("matmul", "softmax_lastdim", "gelu", "reshape_permute", "add")
CONV_KINDS = ("pointwise", "depthwise", "dense")
# (metric name, span label, statistic, unit bucket); statistic "ms" is the
# inclusive time, "self_ms" the time not covered by child spans
_TIMED = (
    [(f"tensor.{op}.fwd_ms", f"tensor.{op}", "ms", "unit") for op in TENSOR_OPS]
    + [(f"tensor.{op}.vjp_ms", f"tensor.{op}.vjp", "ms", "unit") for op in TENSOR_OPS]
    + [("tensor.backward.ms", "tensor.backward", "ms", "unit"),
       ("tensor.backward.walk_ms", "tensor.backward", "self_ms", "unit")]
    + [(f"conv.conv2d.{k}.{s}_ms", f"conv.conv2d.{k}" + (".vjp" if s == "vjp" else ""), "ms", "unit")
       for k in CONV_KINDS for s in ("fwd", "vjp")]
    + [("conv.batchnorm2d.fwd_ms", "conv.batchnorm2d", "ms", "unit"),
       ("conv.batchnorm2d.vjp_ms", "conv.batchnorm2d.vjp", "ms", "unit")]
    + [(f"windowing.{fn}.{s}_ms", f"windowing.{fn}" + (".vjp" if s == "vjp" else ""), "ms", "unit")
       for fn in OPS["windowing"] for s in ("fwd", "vjp")]
    + [(f"layers.{fn}.fwd_ms", f"layers.{fn}", "ms", "unit") for fn in SCOPES["layers"]]
    + [(f"model.{fn}.fwd_ms", f"model.{fn}", "ms", "unit") for fn in SCOPES["model"]]
    + [("optim.optimizer_step.ms", "optim.optimizer_step", "ms", "unit")]
    + [(f"checkpoint.{fn}.ms", f"checkpoint.{fn}", "ms", SETUP) for fn in SCOPES["checkpoint"]]
    + [(f"reachability.{fn}.ms", f"reachability.{fn}", "ms", "unit")
       for fn in SCOPES["reachability"]]
)
LAYER_METRICS = (
    {name: "ms" for name, *_ in _TIMED}
    | {"tensor.ops.calls": "count", "tensor.ops.out_mb": "MiB"}
    | {f"conv.conv2d.{k}.calls": "count" for k in CONV_KINDS}
    | {f"conv.conv2d.{k}.gmac_per_s": "GMAC/s" for k in CONV_KINDS}
)


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def installed_wrappers() -> list[str]:
    """Names of package attributes that are still timing wrappers."""
    return [f"{m.__name__}.{attr}" for m in package_modules()
            for attr, value in vars(m).items() if hasattr(value, WRAPPED_ATTR)]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def conv_kind(x, w, groups) -> str:
    """pointwise: 1x1 dense; depthwise: one input channel per group; else dense."""
    _, cin_g, kh, kw = w.shape
    if kh == kw == 1 and groups == 1:
        return "pointwise"
    if cin_g == 1 and groups == x.shape[1]:
        return "depthwise"
    return "dense"


def param_row(name: str) -> str:
    """CostReport row of a parameter name: 'stage0.block1.attn.wq' -> 'stage0.block1.attn'."""
    if name in ("head.weight", "head.bias"):
        return "head.fc"
    return name.rsplit(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict = defaultdict(float)
        self.unit = SETUP
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._param_rows: dict[int, str] = {}
        self._t0 = time.perf_counter_ns()
        # not at module level: run.py imports this module before it sets the
        # BLAS thread count, which numpy reads when it is first imported
        from shuffleformer import analysis
        self._conv_cost = analysis.conv_cost

    def name_parameters(self, named) -> None:
        """Map parameter identity to CostReport rows, from (name, Tensor) pairs."""
        self._param_rows = {id(t): param_row(name) for name, t in named}

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if installed_wrappers():
            raise RuntimeError(f"timing wrappers already installed: {installed_wrappers()}")
        import shuffleformer.tensor as tensor_mod
        modules = package_modules()
        replacements = {}
        for group, op in ((OPS, True), (SCOPES, False)):
            for mod_name, fns in group.items():
                mod = sys.modules[f"{PACKAGE}.{mod_name}"]
                for fn_name in fns:
                    orig = getattr(mod, fn_name)
                    replacements[id(orig)] = (orig, self._wrap(f"{mod_name}.{fn_name}", orig, op))
        orig_result_of = tensor_mod.result_of
        replacements[id(orig_result_of)] = (orig_result_of, self._count_results(orig_result_of))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        self.active = True

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []
        self.active = False

    # -- spans ----------------------------------------------------------------

    def _open(self, label: str, row: str | None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if row is None and parent >= 0:
            row = self.spans[parent][5]
        self.spans.append([label, time.perf_counter_ns(), 0, parent, self.unit, row])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def _row_of(self, label: str, args, kwargs) -> str | None:
        rows = self._param_rows
        if not rows:
            return None
        if label == "layers.wmsa_forward":
            return rows.get(id(_arg(args, kwargs, 1, "p").wq))
        if label == "layers.nwc_forward":
            return rows.get(id(_arg(args, kwargs, 1, "p").kernel))
        if label == "layers.mlp_forward":
            return rows.get(id(_arg(args, kwargs, 1, "p").w1))
        if label == "model.block_forward":
            row = rows.get(id(_arg(args, kwargs, 1, "params").bn1.gamma))
            return None if row is None else row.rsplit(".", 1)[0]
        if label == "model.token_embed":
            return "embed"
        if label == "model.token_merge":
            return rows.get(id(_arg(args, kwargs, 1, "params").weight))
        for a in args:
            row = rows.get(id(a))
            if row is not None:
                return row
        return None

    def _wrap(self, label: str, fn, op: bool):
        tracer = self
        is_conv = label == "conv.conv2d"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = label
            if is_conv:
                x, w = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "w")
                groups = _arg(args, kwargs, 5, "groups") or 1
                name = f"{label}.{conv_kind(x, w, groups)}"
            idx = tracer._open(name, tracer._row_of(label, args, kwargs))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if is_conv:
                batch, cout, oh, ow = out.shape
                flops = tracer._conv_cost(x.shape[1], cout, w.shape[2], oh * ow, groups)[1] * batch
                tracer.counters[(tracer.unit, f"{name}.flops")] += flops
                tracer.counters[(tracer.unit, f"{name}.calls")] += 1
            if op and getattr(out, "_vjp", None) is not None:
                out._vjp = tracer._timed_vjp(out._vjp, f"{name}.vjp", tracer.spans[idx][5])
            return out

        setattr(wrapper, WRAPPED_ATTR, fn)
        return wrapper

    def _timed_vjp(self, vjp, label: str, row: str | None):
        def timed(g):
            if not self.active:
                return vjp(g)
            idx = self._open(label, row)
            try:
                return vjp(g)
            finally:
                self._close(idx)
        return timed

    def _count_results(self, result_of):
        tracer = self

        @functools.wraps(result_of)
        def wrapper(data, parents, vjp):
            if tracer.active:
                tracer.counters[(tracer.unit, "tensor.ops.calls")] += 1
                tracer.counters[(tracer.unit, "tensor.ops.out_bytes")] += data.nbytes
            return result_of(data, parents, vjp)

        setattr(wrapper, WRAPPED_ATTR, result_of)
        return wrapper

    # -- aggregation ------------------------------------------------------------

    def _per_bucket(self):
        """{bucket: {label: [inclusive_ns, self_ns]}} plus {bucket: {row: [fwd_ns, bwd_ns]}}."""
        child_ns = [0] * len(self.spans)
        for label, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        by_label: dict = defaultdict(lambda: defaultdict(lambda: [0, 0]))
        by_row: dict = defaultdict(lambda: defaultdict(lambda: [0, 0]))
        for i, (label, start, end, _, bucket, row) in enumerate(self.spans):
            dur = end - start
            own = dur - child_ns[i]
            acc = by_label[bucket][label]
            acc[0] += dur
            acc[1] += own
            if row is not None and label != "tensor.backward":
                by_row[bucket][row][1 if label.endswith(".vjp") else 0] += own
        return by_label, by_row

    def layer_metrics(self, units) -> dict[str, float]:
        """Median over `units` of each per-unit total; checkpoint calls come from set-up."""
        by_label, _ = self._per_bucket()

        def med(values):
            return float(statistics.median(values)) if values else 0.0

        out = {}
        for name, label, stat, bucket in _TIMED:
            col = 0 if stat == "ms" else 1
            buckets = [SETUP] if bucket == SETUP else units
            out[name] = med([by_label[b][label][col] / 1e6 if label in by_label[b] else 0.0
                             for b in buckets])
        out["tensor.ops.calls"] = med([self.counters[(u, "tensor.ops.calls")] for u in units])
        out["tensor.ops.out_mb"] = med([self.counters[(u, "tensor.ops.out_bytes")] / 2**20
                                        for u in units])
        for kind in CONV_KINDS:
            label = f"conv.conv2d.{kind}"
            out[f"{label}.calls"] = med([self.counters[(u, f"{label}.calls")] for u in units])
            rates = []
            for u in units:
                ns = by_label[u][label][0] if label in by_label[u] else 0
                rates.append(self.counters[(u, f"{label}.flops")] / ns if ns else 0.0)
            out[f"{label}.gmac_per_s"] = med(rates)  # MAC per ns == GMAC/s
        return out

    def row_table(self, units, ledger_rows, batch: int) -> list[dict]:
        """Per CostReport row: mean forward/backward ms per unit, ledger FLOPs, GMAC/s.

        Rows with time but no ledger entry (block glue such as the window
        gathers and residual adds, the stem's GELU) are appended after the
        ledger rows with zero FLOPs.
        """
        _, by_row = self._per_bucket()
        fwd: dict = defaultdict(int)
        bwd: dict = defaultdict(int)
        for u in units:
            for row, (f, b) in by_row[u].items():
                fwd[row] += f
                bwd[row] += b
        n = max(len(units), 1)
        flops = {r.name: r.flops * batch for r in ledger_rows}
        names = [r.name for r in ledger_rows] + sorted(set(fwd) - set(flops))
        table = []
        for name in names:
            f_ns = fwd.get(name, 0) / n
            table.append({"row": name, "fwd_ms": f_ns / 1e6, "bwd_ms": bwd.get(name, 0) / n / 1e6,
                          "flops": flops.get(name, 0),
                          "gmac_per_s": flops.get(name, 0) / f_ns if f_ns else 0.0})
        return table

    def write_chrome_trace(self, path) -> None:
        events = [{"name": label, "cat": label.split(".", 1)[0], "ph": "X",
                   "ts": (start - self._t0) / 1e3, "dur": (end - start) / 1e3,
                   "pid": 1, "tid": 1,
                   "args": {"id": i, "parent": parent, "unit": bucket, "row": row}}
                  for i, (label, start, end, parent, bucket, row) in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
