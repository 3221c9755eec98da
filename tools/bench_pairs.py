"""Compare two commits on the repo benchmark in alternating pairs of runs.

Both commits are exported with `git archive` into a temporary directory
outside the repository, so the measured code is exactly what each commit
holds and no state is left in the repository. For every workload, pair i
runs `perfbench/run.py --trace 0 --seed SEED+i` once on each side, the base
first in even pairs and the change first in odd ones. One run at a time.

    python3 tools/bench_pairs.py --tag conv_kernels --base 3ebb3a2 --change HEAD \\
        --pairs 10 --seed 101

Every workload in `BENCHMARK.json` runs for its `run_seconds`. Writes
`BENCH_<tag>.json` at the repository root: per workload and side, the
median and quartiles of every end-to-end metric in `BENCHMARK.json`; per
metric, how many pairs the change won (ties count for neither) and whether
the claim rule holds (wins in at least nine tenths of the pairs and a median
difference larger than the base's quartile spread); plus each side's BLAS
thread count, usable CPU count, NumPy and BLAS versions and `src_lines` from
run.py's provenance line.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export(rev: str, dest: Path) -> dict:
    """Extract the tree of `rev` into `dest`; returns its commit and src/ tree ids."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")
    return {"rev": rev, "commit": git("rev-parse", rev).decode().strip(),
            "src_tree": git("rev-parse", f"{rev}:src").decode().strip()}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; returns its result object and provenance."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("provenance "):
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2][len("provenance "):])
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per-side statistics and per-metric pair comparison for one workload."""
    out: dict = {side: {"metrics": {}} for side in SIDES}
    for side in SIDES:
        prov = [r["provenance"] for r in runs[side]]
        out[side].update(
            attempted=sum(r["attempted"] for r in runs[side]),
            failed=sum(r["failed"] for r in runs[side]),
            blas_threads=sorted({p["blas_threads_runtime"] for p in prov}, key=str),
            nproc=sorted({p["nproc"] for p in prov}),
            numpy=sorted({p["numpy"] for p in prov}), blas=sorted({p["blas"] for p in prov}),
            src_lines=sorted({p["src_lines"] for p in prov}))
    comparison = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        for side in SIDES:
            out[side]["metrics"][name] = {**quartiles(values[side]), "unit": m["unit"],
                                          "runs": values[side]}
        pairs = list(zip(values["base"], values["change"]))
        wins = sum((c < b) if lower else (c > b) for b, c in pairs)
        losses = sum((c > b) if lower else (c < b) for b, c in pairs)
        base, change = out["base"]["metrics"][name], out["change"]["metrics"][name]
        spread = base["q3"] - base["q1"]
        gain = (base["median"] - change["median"]) * (1 if lower else -1)
        comparison[name] = {
            "better": m["better"], "bound": m["bound"], "pairs": len(pairs),
            "change_wins": wins, "change_losses": losses,
            "median_ratio": change["median"] / base["median"] if base["median"] else None,
            "base_quartile_spread": spread,
            "gain_shown": wins >= 0.9 * len(pairs) and gain > spread,
            "worse_than_bound": -gain > m["bound"] * abs(base["median"]),
        }
    out["comparison"] = comparison
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--base", required=True, help="git revision measured as the base")
    parser.add_argument("--change", default="HEAD", help="git revision measured as the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0; pair i uses +i")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    report: dict = {"tag": args.tag, "pairs": args.pairs, "seed": args.seed,
                    "run_seconds": seconds, "order": "base first in even pairs",
                    "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                    "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        report["base"] = export(args.base, trees["base"])
        report["change"] = export(args.change, trees["change"])
        for workload in workloads:
            runs: dict = {side: [] for side in SIDES}
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_once(trees[side], workload, args.seed + i, seconds)
                    runs[side].append(result)
                    p50 = result["metrics"]["latency_ms_p50"]["value"]
                    print(f"{workload} pair {i} {side:<6} p50 {p50:10.2f} ms", flush=True)
            report["workloads"][workload] = summarize(runs, spec["end_to_end"])
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, res in report["workloads"].items():
        for name, c in res["comparison"].items():
            b, ch = res["base"]["metrics"][name], res["change"]["metrics"][name]
            print(f"{workload:<14} {name:<16} base {b['median']:10.4g} change {ch['median']:10.4g}"
                  f"  wins {c['change_wins']}/{c['pairs']}  gain_shown {c['gain_shown']}"
                  f"  worse_than_bound {c['worse_than_bound']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
