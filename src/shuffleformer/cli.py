"""Command-line surface.

Subcommands: `stats` (parameter/FLOP reports), `reach` (finite-difference
vs. exact reachability), `train-toy` (deterministic overfit run), `ablate`
(shuffle-mode x NWC-position grid), `infer` (checkpoint + tensor -> logits).

Exit codes: 0 success, 1 validation failure (bad flags, config, or input
files), 2 internal check failure (probe/oracle disagreement, divergence).
Every artifact embeds the resolved run configuration. The environment
variable SHUFFLE_FORMER_SEED, when set, overrides the seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import count_flops
from .checkpoint import load_checkpoint, load_tensor, save_checkpoint, save_tensor
from .errors import InvalidConfigError, ShuffleFormerError, TrainingDivergedError
from .model import NWC_POSITIONS, ModelConfig, build_variant, model_forward
from .reachability import (PROBE_EPSILON, PROBE_SEEDS, PROBE_THRESHOLD,
                           BlockSpec, dump_report, reachability_report, render_mask)
from .tensor import Tensor
from .train import ToyTrainConfig, train_toy
from .windowing import SHUFFLE_MODES

SEED_ENV = "SHUFFLE_FORMER_SEED"


@dataclass(frozen=True)
class RunConfig:
    """Echo of one CLI invocation, embedded in every output artifact."""

    subcommand: str
    options: dict

    def to_json(self) -> str:
        return json.dumps({"subcommand": self.subcommand, "options": self.options},
                          sort_keys=True)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def load_config_file(path) -> dict:
    """Plain-text `key = value` pairs; '#' starts a comment; keys match flags."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _effective_seed(seed: int) -> int:
    env = os.environ.get(SEED_ENV)
    return int(env) if env else int(seed)


def _resolve_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge precedence: explicit flag > config file > default."""
    provided = {k: v for k, v in vars(args).items() if k in defaults and v is not None}
    merged = dict(defaults)
    if getattr(args, "config", None):
        file_values = load_config_file(args.config)
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise InvalidConfigError(
                f"{args.config}: unknown keys {sorted(unknown)}; valid: {sorted(defaults)}")
        for key, text in file_values.items():
            merged[key] = _coerce(text, defaults[key])
    merged.update(provided)
    return merged


def _coerce(text: str, default):
    if isinstance(default, bool):
        return text.lower() in ("1", "true", "yes", "on")
    if isinstance(default, int):
        return int(text)
    if isinstance(default, float):
        return float(text)
    if isinstance(default, tuple):
        return tuple(int(p) for p in text.split(","))
    return text


def _model_config(variant: str | None, res: int | None, **overrides) -> ModelConfig:
    cfg = build_variant(variant or "T", **overrides)
    if res is not None:
        cfg = dataclasses.replace(cfg, resolution=int(res))
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def cmd_stats(args) -> int:
    defaults = dict(variant="T", res=224, shuffle_mode="long-range",
                    nwc_position="B", out_dir=".")
    opts = _resolve_config(args, defaults)
    cfg = _model_config(opts["variant"], opts["res"],
                        shuffle_mode=opts["shuffle_mode"],
                        nwc_position=opts["nwc_position"])
    report = count_flops(cfg, opts["res"])
    run = RunConfig("stats", opts)
    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"stats_{opts['variant']}_{opts['res']}"
    (out_dir / f"{stem}.csv").write_text(
        f"# run_config: {run.to_json()}\n" + report.to_csv())
    (out_dir / f"{stem}.txt").write_text(
        report.to_text() + f"\nrun_config: {run.to_json()}\n")
    print(f"{opts['variant']} @ {opts['res']}: "
          f"{report.total_params / 1e6:.2f}M params, "
          f"{report.total_flops / 1e9:.3f} GFLOPs")
    print(f"wrote {out_dir / (stem + '.csv')} and {out_dir / (stem + '.txt')}")
    return 0


def _parse_stack(text: str, window: int, shuffle_mode: str, nwc_position: str,
                 perm_seed: int) -> list[BlockSpec]:
    """'block,shuffle-block' with optional '+nwc' suffix per element."""
    specs = []
    for element in text.split(","):
        name = element.strip()
        nwc = name.endswith("+nwc")
        if nwc:
            name = name[:-len("+nwc")]
        if name == "block":
            shuffle = "none"
        elif name == "shuffle-block":
            shuffle = shuffle_mode
        else:
            raise InvalidConfigError(
                f"unknown stack element {element!r}; use block[+nwc] or shuffle-block[+nwc]")
        specs.append(BlockSpec(window, shuffle, nwc, nwc_position, perm_seed))
    return specs


def cmd_reach(args) -> int:
    defaults = dict(grid=8, window=2, stack="block,shuffle-block",
                    shuffle_mode="long-range", nwc_position="B", probe="",
                    seed=0, epsilon=PROBE_EPSILON, threshold=PROBE_THRESHOLD,
                    out="reachability.json", quiet=False)
    opts = _resolve_config(args, defaults)
    seed = _effective_seed(opts["seed"])
    grid = (opts["grid"], opts["grid"])
    probe = tuple(int(p) for p in opts["probe"].split(",")) if opts["probe"] \
        else (grid[0] // 2, grid[1] // 2)
    stack = _parse_stack(opts["stack"], opts["window"], opts["shuffle_mode"],
                         opts["nwc_position"], seed)
    seeds = tuple(seed + k for k in range(len(PROBE_SEEDS)))
    report = reachability_report(stack, grid, probe, seeds=seeds,
                                 epsilon=opts["epsilon"], threshold=opts["threshold"])
    report["run_config"] = json.loads(RunConfig("reach", opts).to_json())
    dump_report(report, opts["out"])
    fd_n, sym_n = len(report["fd"]["members"]), len(report["symbolic"]["members"])
    print(f"grid {grid[0]}x{grid[1]}, probe {probe}, stack {opts['stack']}")
    print(f"finite differences: {fd_n} positions; exact relation: {sym_n} positions")
    if not opts["quiet"]:
        from .reachability import ReachabilitySet
        mask = np.zeros(grid, dtype=bool)
        for h, w in report["fd"]["members"]:
            mask[h, w] = True
        print(render_mask(ReachabilitySet.from_mask(mask, probe, method="fd")))
    print(f"wrote {opts['out']}")
    if not report["agree"]:
        print("ERROR: finite-difference and exact reachability disagree", file=sys.stderr)
        return 2
    return 0


def cmd_train_toy(args) -> int:
    defaults = dict(samples=32, classes=8, res=56, channels=32, depths=(2, 2),
                    window=7, steps=500, lr=1e-3, weight_decay=0.0, seed=0,
                    target_acc=0.95, out_dir="toy_run")
    opts = _resolve_config(args, defaults)
    seed = _effective_seed(opts["seed"])
    cfg = ToyTrainConfig(samples=opts["samples"], classes=opts["classes"],
                         resolution=opts["res"], channels=opts["channels"],
                         depths=tuple(opts["depths"]), window=opts["window"],
                         steps=opts["steps"], lr=opts["lr"],
                         weight_decay=opts["weight_decay"], seed=seed,
                         target_accuracy=opts["target_acc"] or None)
    run = RunConfig("train-toy", {**opts, "seed": seed})
    out_dir = Path(opts["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = train_toy(cfg)
    except TrainingDivergedError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2
    lines = [f"# run_config: {run.to_json()}", "step,loss,accuracy"]
    lines += [f"{r['step']},{r['loss']:.6f},{r['accuracy']:.4f}" for r in result.history]
    (out_dir / "metrics.csv").write_text("\n".join(lines) + "\n")
    save_checkpoint(out_dir / "model.sfc", result.params, result.model_config,
                    extra_meta={"run_config": json.loads(run.to_json())})
    last = result.history[-1]
    print(f"steps run: {last['step']}  final loss: {last['loss']:.4f}  "
          f"train accuracy: {last['accuracy'] * 100:.1f}%")
    if result.reached_step is not None:
        print(f"reached target accuracy at step {result.reached_step}")
    print(f"wrote {out_dir / 'metrics.csv'} and {out_dir / 'model.sfc'}")
    return 0


def cmd_ablate(args) -> int:
    defaults = dict(variant="T", res=224, modes="none,long-range",
                    positions="none,B", toy_steps=0, seed=0, out="ablation.csv")
    opts = _resolve_config(args, defaults)
    seed = _effective_seed(opts["seed"])
    modes = [m.strip() for m in opts["modes"].split(",")]
    positions = [p.strip() for p in opts["positions"].split(",")]
    for mode in modes:
        if mode not in SHUFFLE_MODES:
            raise InvalidConfigError(f"shuffle mode {mode!r} not in {SHUFFLE_MODES}")
    for pos in positions:
        if pos not in NWC_POSITIONS:
            raise InvalidConfigError(f"NWC position {pos!r} not in {NWC_POSITIONS}")
    run = RunConfig("ablate", {**opts, "seed": seed})
    rows = []
    for mode in modes:
        for pos in positions:
            cfg = _model_config(opts["variant"], opts["res"],
                                shuffle_mode=mode, nwc_position=pos)
            report = count_flops(cfg, opts["res"])
            row = {"shuffle_mode": mode, "nwc_position": pos,
                   "params": report.total_params, "flops": report.total_flops}
            if opts["toy_steps"]:
                toy = train_toy(ToyTrainConfig(resolution=16, window=2, channels=32,
                                               steps=opts["toy_steps"], seed=seed,
                                               shuffle_mode=mode, nwc_position=pos))
                row["toy_final_loss"] = round(toy.history[-1]["loss"], 6)
                row["toy_final_accuracy"] = toy.history[-1]["accuracy"]
            rows.append(row)
    header = list(rows[0].keys())
    lines = [f"# run_config: {run.to_json()}", ",".join(header)]
    lines += [",".join(str(r[k]) for k in header) for r in rows]
    Path(opts["out"]).write_text("\n".join(lines) + "\n")
    width = max(len(m) for m in modes) + 2
    for row in rows:
        print(f"shuffle={row['shuffle_mode']:<{width}} nwc={row['nwc_position']:<5} "
              f"params={row['params'] / 1e6:.2f}M flops={row['flops'] / 1e9:.3f}G")
    print(f"wrote {opts['out']}")
    return 0


def cmd_infer(args) -> int:
    defaults = dict(checkpoint="", input="", output="logits.sfc")
    opts = _resolve_config(args, defaults)
    if not opts["checkpoint"] or not opts["input"]:
        raise InvalidConfigError("infer needs --checkpoint and --input")
    params, cfg, _meta = load_checkpoint(opts["checkpoint"])
    array, _ = load_tensor(opts["input"])
    if array.ndim == 3:
        array = array[None]
    expected = (cfg.in_channels, cfg.resolution, cfg.resolution)
    if array.ndim != 4 or array.shape[1:] != expected:
        raise InvalidConfigError(
            f"input tensor shape {array.shape} does not match model input (*, {expected})")
    logits = model_forward(Tensor(array.astype(np.float32)), params, cfg, training=False)
    run = RunConfig("infer", opts)
    save_tensor(opts["output"], logits.data,
                extra_meta={"run_config": json.loads(run.to_json())})
    top = logits.data.argmax(axis=1)
    print(f"logits shape {logits.data.shape}; argmax per sample: {top.tolist()}")
    print(f"wrote {opts['output']}")
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shuffleformer",
                     description="Window attention with spatial shuffle: model "
                                 "stats, reachability checks, toy training.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value config file; flags override it")
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (env {SEED_ENV} overrides)")

    p = sub.add_parser("stats", help="write parameter/FLOP reports for a variant")
    p.add_argument("--variant", default=None, help="T, S, or B")
    p.add_argument("--res", type=int, default=None, help="input resolution")
    p.add_argument("--shuffle-mode", dest="shuffle_mode", default=None,
                   choices=list(SHUFFLE_MODES))
    p.add_argument("--nwc-position", dest="nwc_position", default=None,
                   choices=list(NWC_POSITIONS))
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.add_argument("--config", help="key = value config file; flags override it")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("reach", help="finite-difference vs exact reachability")
    add_common(p)
    p.add_argument("--grid", type=int, default=None, help="grid side length")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--stack", default=None,
                   help="comma list of block[+nwc] / shuffle-block[+nwc]")
    p.add_argument("--shuffle-mode", dest="shuffle_mode", default=None,
                   choices=[m for m in SHUFFLE_MODES if m != "none"])
    p.add_argument("--nwc-position", dest="nwc_position", default=None,
                   choices=["A", "B", "C"])
    p.add_argument("--probe", default=None, help="h,w (default: grid center)")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--out", default=None, help="JSON report path")
    p.add_argument("--quiet", action="store_true", default=None,
                   help="skip the ASCII reachability picture")
    p.set_defaults(func=cmd_reach)

    p = sub.add_parser("train-toy", help="deterministic synthetic overfit run")
    add_common(p)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--res", type=int, default=None)
    p.add_argument("--channels", type=int, default=None)
    p.add_argument("--depths", type=lambda s: tuple(int(x) for x in s.split(",")),
                   default=None, help="blocks per stage, e.g. 2,2")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--weight-decay", dest="weight_decay", type=float, default=None)
    p.add_argument("--target-acc", dest="target_acc", type=float, default=None,
                   help="stop once train accuracy reaches this (0 disables)")
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("ablate", help="shuffle-mode x NWC-position cost grid")
    add_common(p)
    p.add_argument("--variant", default=None)
    p.add_argument("--res", type=int, default=None)
    p.add_argument("--modes", default=None, help="comma list of shuffle modes")
    p.add_argument("--positions", default=None, help="comma list of NWC positions")
    p.add_argument("--toy-steps", dest="toy_steps", type=int, default=None,
                   help="also run a reduced toy training per cell")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("infer", help="run a checkpoint on a stored tensor")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--input", default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--config", help="key = value config file; flags override it")
    p.set_defaults(func=cmd_infer)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ShuffleFormerError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
