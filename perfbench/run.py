#!/usr/bin/env python3
"""Benchmark of the shuffleformer package: end-to-end runs and a traced run.

    python3 perfbench/run.py --workload infer_t224 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every listed workload in turn

Each run is one process and one closed-loop client: the next unit starts
only after the previous one has finished and been checked. The workload is
set up three times (build or load the model, generate inputs, one warm-up
unit) and `setup_s` is the median; then units run for `--seconds`.

`--trace 0` reports the end-to-end metrics with no wrapper installed.
`--trace 1` spends half of `--seconds` untraced and half with the tracer
installed, and reports the per-layer metrics plus `trace_overhead`, the
traced median unit time over the untraced one. It also writes a Chrome
trace and a per-row table under `.bench_build/perfbench/`.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` (units whose output failed its check) and `metrics`. Provenance
(thread count, library versions, seed, `src/` line count) is printed on the
line before it and saved with the full result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS, SETUP, Tracer, installed_wrappers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"
LISTED = ("infer_t224", "train_toy", "reach_probe32")
ALL_WORKLOADS = LISTED + ("train_t224",)
SETUP_REPEATS = 3
TAIL_BEYOND = 10
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a 2-core box 1 and 2 threads give the same unit medians
# (the time goes to single-threaded elementwise work), and with 2 a core taken
# by another process stalls every BLAS call until it comes back.
BLAS_THREADS = 1

END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def tail(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least TAIL_BEYOND samples above it;
    with too few samples for any, the maximum, reported as percentile 100."""
    import numpy as np
    arr = np.asarray(samples)
    for q in range(99, 0, -1):
        value = float(np.percentile(arr, q))
        if int((arr > value).sum()) >= TAIL_BEYOND:
            return q, value
    return 100, float(arr.max())


def blas_runtime_threads() -> int | None:
    """Thread count OpenBLAS reports after start-up, if its library is found."""
    import ctypes
    import numpy as np
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def src_lines() -> int:
    """Non-blank, non-comment lines of the package source."""
    n = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            stripped = line.strip()
            n += bool(stripped) and not stripped.startswith("#")
    return n


def provenance(seed: int, threads: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed, "blas_threads_set": threads,
        "blas_threads_runtime": blas_runtime_threads(), "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(), "git_commit": git_commit(),
        "src_lines": src_lines(),
    }


# ---------------------------------------------------------------------------
# measurement


def timed_setup(wl) -> float:
    start = time.perf_counter()
    wl.setup()
    out = wl.unit()  # warm-up unit, counted in set-up time only
    wl.observe(out)
    del out
    return time.perf_counter() - start


def measure(wl, seconds: float, tracer=None) -> tuple[list[float], list]:
    """Closed loop: run and check units until `seconds` have passed (at least one)."""
    if tracer is None and installed_wrappers():
        raise RuntimeError(f"timing wrappers still installed: {installed_wrappers()}")
    samples, records = [], []
    end = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.unit = len(samples)
        start = time.perf_counter()
        out = wl.unit()
        samples.append(time.perf_counter() - start)
        records.append(wl.observe(out))
        del out
        if time.perf_counter() >= end:
            return samples, records


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, work_dir: Path = WORK_DIR) -> dict:
    """One run of one workload; returns the result object plus details."""
    from workloads import WORKLOADS  # imports numpy, so only after main() set BLAS_ENV
    work_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[name](seed, work_dir, tiny=tiny)
    details: dict = {"workload": name}
    try:
        if not trace:
            wl.prepare()
            setup_times = [timed_setup(wl) for _ in range(SETUP_REPEATS)]
            samples, records = measure(wl, seconds)
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            q, tail_s = tail(samples)
            values = {
                "setup_s": statistics.median(setup_times),
                "latency_ms_p50": statistics.median(samples) * 1e3,
                "latency_ms_tail": tail_s * 1e3,
                "items_per_s": wl.items_per_unit * len(samples) / sum(samples),
                "peak_rss_mb": peak_kib / 1024,
            }
            units = END_TO_END
            details.update(tail_percentile=q, samples_ms=[s * 1e3 for s in samples],
                           setup_s=setup_times)
        else:
            tracer = Tracer()
            tracer.install()
            tracer.unit = SETUP
            try:
                wl.prepare()
                timed_setup(wl)
            finally:
                tracer.uninstall()
            tracer.name_parameters(wl.named_parameters())
            base, records = measure(wl, seconds / 2)
            tracer.install()
            try:
                samples, traced_records = measure(wl, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            records += traced_records
            values = tracer.layer_metrics(list(range(len(samples))))
            values["trace_overhead"] = statistics.median(samples) / statistics.median(base)
            units = {**LAYER_METRICS, "trace_overhead": "ratio"}
            details.update(untraced_ms=[s * 1e3 for s in base],
                           traced_ms=[s * 1e3 for s in samples])
            stem = work_dir / f"{name}-seed{seed}"
            tracer.write_chrome_trace(f"{stem}.trace.json")
            ledger = wl.ledger()
            if ledger is not None:
                rows = tracer.row_table(list(range(len(samples))), *ledger)
                Path(f"{stem}.rows.json").write_text(json.dumps(rows, indent=1) + "\n")
                details["rows"] = rows
        checks = wl.verify(records)
    finally:
        wl.cleanup()
    failed = checks.count(False)
    details["failed_ratio"] = failed / len(checks)
    return {
        "correct": failed == 0, "attempted": len(checks), "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
        "details": details,
    }


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'row':<22} {'fwd_ms':>9} {'bwd_ms':>9} {'GFLOP':>8} {'GMAC/s':>8}"]
    for r in rows:
        lines.append(f"{r['row']:<22} {r['fwd_ms']:9.3f} {r['bwd_ms']:9.3f} "
                     f"{r['flops'] / 1e9:8.3f} {r['gmac_per_s']:8.2f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point


def run_all(args) -> int:
    """Every listed workload in its own process; prints one summary table."""
    summary, ok = {}, True
    for name in LISTED:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        summary[name] = result
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_ratio={result['failed'] / result['attempted']:g}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=ALL_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shuffleformer" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_ENV:  # read once, when the BLAS library loads with numpy
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import shuffleformer
    if Path(shuffleformer.__file__).resolve().parent != ROOT / "src" / "shuffleformer":
        print(f"error: imported shuffleformer from {shuffleformer.__file__}", file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    details = result.pop("details")
    details["provenance"] = provenance(args.seed, BLAS_THREADS)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    (WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "details": details}, indent=1) + "\n")

    if "rows" in details:
        print(format_rows(details["rows"]))
    print(f"workload {args.workload}  seed {args.seed}  attempted {result['attempted']}  "
          f"failed {result['failed']}  failed_ratio {details['failed_ratio']:g}")
    if "tail_percentile" in details:
        print(f"latency_ms_tail is p{details['tail_percentile']} of "
              f"{len(details['samples_ms'])} samples")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
    print("provenance " + json.dumps(details["provenance"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
