"""Command-line surface.

Subcommands: `stats` (parameter/FLOP reports), `reach` (finite-difference
vs. exact reachability), `train-toy` (deterministic overfit run), `ablate`
(shuffle-mode x NWC-position grid), `infer` (checkpoint + tensor -> logits).

Exit codes: 0 success, 1 validation failure (bad flags, config, or input
files), 2 internal check failure (probe/oracle disagreement, divergence).
Every artifact embeds the resolved run configuration.

`build_parser` declares each option once. A `--config` file's lines become
`--key=value` tokens parsed ahead of the flags, so flag > file > default;
the environment variable SHUFFLE_FORMER_SEED, when set, overrides the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import count_flops
from .checkpoint import load_checkpoint, load_tensor, save_checkpoint, save_tensor
from .errors import InvalidConfigError, ShuffleFormerError, TrainingDivergedError
from .model import NWC_POSITIONS, build_variant, model_forward
from .reachability import (PROBE_EPSILON, PROBE_SEEDS, PROBE_THRESHOLD, BlockSpec,
                           ReachabilitySet, dump_report, reachability_report, render_mask)
from .tensor import Tensor
from .train import ToyTrainConfig, train_toy
from .windowing import SHUFFLE_MODES

SEED_ENV = "SHUFFLE_FORMER_SEED"
_NOT_OPTIONS = ("func", "subcommand", "config")  # namespace entries that are not options
_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


def _run_config(args: argparse.Namespace) -> str:
    """JSON echo of one invocation, embedded in every output artifact."""
    options = {k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS}
    return json.dumps({"subcommand": args.subcommand, "options": options}, sort_keys=True)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def load_config_file(path) -> dict:
    """Plain-text `key = value` pairs; '#' starts a comment; keys match flags."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


# Option types raise InvalidConfigError, not argparse.ArgumentTypeError: argparse
# lets it through to `main`, which reports it as an ERROR line, and `cmd_reach`
# can reuse `_ints` on the probe. argparse's own int/float and choice failures
# exit 1 with a usage line.


def _boolean(text: str) -> bool:
    if text.lower() not in _BOOLEANS:
        raise InvalidConfigError(f"expected one of {', '.join(_BOOLEANS)}, got {text!r}")
    return _BOOLEANS[text.lower()]


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InvalidConfigError(f"expected comma-separated integers, got {text!r}") from None


def _choice_list(noun: str, allowed):
    """A comma list drawn from `allowed`, kept as text for the run config."""
    def parse(text: str) -> str:
        items = [item.strip() for item in text.split(",")]
        for item in items:
            if item not in allowed:
                raise InvalidConfigError(f"{noun} {item!r} not in {allowed}")
        return ",".join(items)
    return parse


# ---------------------------------------------------------------------------
# subcommands


def cmd_stats(args) -> int:
    cfg = build_variant(args.variant, resolution=args.res, shuffle_mode=args.shuffle_mode,
                        nwc_position=args.nwc_position)
    report = count_flops(cfg)
    run = _run_config(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"stats_{args.variant}_{args.res}"
    (out_dir / f"{stem}.csv").write_text(
        f"# run_config: {run}\n" + report.to_csv())
    (out_dir / f"{stem}.txt").write_text(
        report.to_text() + f"\nrun_config: {run}\n")
    print(f"{args.variant} @ {args.res}: "
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
    grid = (args.grid, args.grid)
    probe = _ints(args.probe) if args.probe else (args.grid // 2, args.grid // 2)
    stack = _parse_stack(args.stack, args.window, args.shuffle_mode,
                         args.nwc_position, args.seed)
    seeds = tuple(args.seed + k for k in range(len(PROBE_SEEDS)))
    report = reachability_report(stack, grid, probe, seeds=seeds,
                                 epsilon=args.epsilon, threshold=args.threshold)
    report["run_config"] = json.loads(_run_config(args))
    dump_report(report, args.out)
    fd_n, sym_n = len(report["fd"]["members"]), len(report["symbolic"]["members"])
    print(f"grid {grid[0]}x{grid[1]}, probe {probe}, stack {args.stack}")
    print(f"finite differences: {fd_n} positions; exact relation: {sym_n} positions")
    if not args.quiet:
        members = frozenset(map(tuple, report["fd"]["members"]))
        print(render_mask(ReachabilitySet(probe, grid, members, args.threshold, seeds)))
    print(f"wrote {args.out}")
    if not report["agree"]:
        print("ERROR: finite-difference and exact reachability disagree", file=sys.stderr)
        return 2
    return 0


def cmd_train_toy(args) -> int:
    cfg = ToyTrainConfig(samples=args.samples, classes=args.classes,
                         resolution=args.res, channels=args.channels,
                         depths=args.depths, window=args.window,
                         steps=args.steps, lr=args.lr,
                         weight_decay=args.weight_decay, seed=args.seed,
                         target_accuracy=args.target_acc or None)
    run = _run_config(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = train_toy(cfg)
    except TrainingDivergedError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 2
    lines = [f"# run_config: {run}", "step,loss,accuracy"]
    lines += [f"{r['step']},{r['loss']:.6f},{r['accuracy']:.4f}" for r in result.history]
    (out_dir / "metrics.csv").write_text("\n".join(lines) + "\n")
    save_checkpoint(out_dir / "model.sfc", result.params, result.model_config,
                    extra_meta={"run_config": json.loads(run)})
    last = result.history[-1]
    print(f"steps run: {last['step']}  final loss: {last['loss']:.4f}  "
          f"train accuracy: {last['accuracy'] * 100:.1f}%")
    if result.reached_step is not None:
        print(f"reached target accuracy at step {result.reached_step}")
    print(f"wrote {out_dir / 'metrics.csv'} and {out_dir / 'model.sfc'}")
    return 0


def cmd_ablate(args) -> int:
    modes, positions = args.modes.split(","), args.positions.split(",")
    rows = []
    for mode in modes:
        for pos in positions:
            cfg = build_variant(args.variant, resolution=args.res,
                                shuffle_mode=mode, nwc_position=pos)
            report = count_flops(cfg)
            row = {"shuffle_mode": mode, "nwc_position": pos,
                   "params": report.total_params, "flops": report.total_flops}
            if args.toy_steps:
                toy = train_toy(ToyTrainConfig(resolution=16, window=2, channels=32,
                                               steps=args.toy_steps, seed=args.seed,
                                               shuffle_mode=mode, nwc_position=pos))
                row["toy_final_loss"] = round(toy.history[-1]["loss"], 6)
                row["toy_final_accuracy"] = toy.history[-1]["accuracy"]
            rows.append(row)
    header = list(rows[0].keys())
    lines = [f"# run_config: {_run_config(args)}", ",".join(header)]
    lines += [",".join(str(r[k]) for k in header) for r in rows]
    Path(args.out).write_text("\n".join(lines) + "\n")
    width = max(len(m) for m in modes) + 2
    for row in rows:
        print(f"shuffle={row['shuffle_mode']:<{width}} nwc={row['nwc_position']:<5} "
              f"params={row['params'] / 1e6:.2f}M flops={row['flops'] / 1e9:.3f}G")
    print(f"wrote {args.out}")
    return 0


def cmd_infer(args) -> int:
    if not args.checkpoint or not args.input:
        raise InvalidConfigError("infer needs --checkpoint and --input")
    params, cfg, _meta = load_checkpoint(args.checkpoint)
    array, _ = load_tensor(args.input)
    if array.ndim == 3:
        array = array[None]
    expected = (cfg.in_channels, cfg.resolution, cfg.resolution)
    if array.ndim != 4 or array.shape[1:] != expected:
        raise InvalidConfigError(
            f"input tensor shape {array.shape} does not match model input (*, {expected})")
    logits = model_forward(Tensor(array.astype(np.float32)), params, cfg, training=False)
    save_tensor(args.output, logits.data,
                extra_meta={"run_config": json.loads(_run_config(args))})
    top = logits.data.argmax(axis=1)
    print(f"logits shape {logits.data.shape}; argmax per sample: {top.tolist()}")
    print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shuffleformer",
                     description="Window attention with spatial shuffle: model "
                                 "stats, reachability checks, toy training.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, func, help, seeded=False):
        p = sub.add_parser(name, help=help,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.add_argument("--config", help="file of 'key = value' option lines; flags win")
        if seeded:
            p.add_argument("--seed", type=int, default=0, help=f"RNG seed ({SEED_ENV} wins)")
        p.set_defaults(func=func)
        return p

    p = command("stats", cmd_stats, "write parameter/FLOP reports for a variant")
    p.add_argument("--variant", default="T", help="T, S, or B")
    p.add_argument("--res", type=int, default=224, help="input resolution")
    p.add_argument("--shuffle-mode", default="long-range", choices=SHUFFLE_MODES,
                   help="shuffle of every second block")
    p.add_argument("--nwc-position", default="B", choices=NWC_POSITIONS,
                   help="place of the neighbor-window connection")
    p.add_argument("--out-dir", default=".", help="directory for the reports")

    p = command("reach", cmd_reach, "finite-difference vs exact reachability", seeded=True)
    p.add_argument("--grid", type=int, default=8, help="grid side length")
    p.add_argument("--window", type=int, default=2, help="window side length")
    p.add_argument("--stack", default="block,shuffle-block",
                   help="comma list of block[+nwc] / shuffle-block[+nwc]")
    p.add_argument("--shuffle-mode", default="long-range", choices=SHUFFLE_MODES[1:],
                   help="shuffle of the shuffle-block elements")
    p.add_argument("--nwc-position", default="B", choices=("A", "B", "C"),
                   help="place of the +nwc connection")
    p.add_argument("--probe", default="", help="output position h,w; empty: grid centre")
    p.add_argument("--epsilon", type=float, default=PROBE_EPSILON, help="difference step")
    p.add_argument("--threshold", type=float, default=PROBE_THRESHOLD,
                   help="smallest relative derivative counted as reachable")
    p.add_argument("--out", default="reachability.json", help="JSON report path")
    p.add_argument("--quiet", type=_boolean, nargs="?", const=True, default=False,
                   help="skip the ASCII reachability picture")

    p = command("train-toy", cmd_train_toy, "deterministic synthetic overfit run",
                seeded=True)
    p.add_argument("--samples", type=int, default=32, help="synthetic training images")
    p.add_argument("--classes", type=int, default=8, help="label classes")
    p.add_argument("--res", type=int, default=56, help="input resolution")
    p.add_argument("--channels", type=int, default=32, help="base width")
    p.add_argument("--depths", type=_ints, default="2,2", help="blocks per stage")
    p.add_argument("--window", type=int, default=7, help="window side length")
    p.add_argument("--steps", type=int, default=500, help="most optimizer steps to run")
    p.add_argument("--lr", type=float, default=1e-3, help="AdamW learning rate")
    p.add_argument("--weight-decay", type=float, default=0.0, help="AdamW weight decay")
    p.add_argument("--target-acc", type=float, default=0.95,
                   help="stop once train accuracy reaches this (0 disables)")
    p.add_argument("--out-dir", default="toy_run", help="directory for the artifacts")

    p = command("ablate", cmd_ablate, "shuffle-mode x NWC-position cost grid", seeded=True)
    p.add_argument("--variant", default="T", help="T, S, or B")
    p.add_argument("--res", type=int, default=224, help="input resolution")
    p.add_argument("--modes", type=_choice_list("shuffle mode", SHUFFLE_MODES),
                   default="none,long-range", help="comma list of shuffle modes")
    p.add_argument("--positions", type=_choice_list("NWC position", NWC_POSITIONS),
                   default="none,B", help="comma list of NWC positions")
    p.add_argument("--toy-steps", type=int, default=0,
                   help="also run a reduced toy training per cell (0 skips it)")
    p.add_argument("--out", default="ablation.csv", help="CSV path")

    p = command("infer", cmd_infer, "run a checkpoint on a stored tensor")
    p.add_argument("--checkpoint", default="", help="model .sfc file")
    p.add_argument("--input", default="", help="tensor .sfc file, (C,H,W) or (B,C,H,W)")
    p.add_argument("--output", default="logits.sfc", help="logits .sfc file")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Flags over `--config` values over declared defaults; then SHUFFLE_FORMER_SEED."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        values = load_config_file(args.config)
        valid = sorted(k for k in vars(args) if k not in _NOT_OPTIONS)
        unknown = sorted(set(values) - set(valid))
        if unknown:
            raise InvalidConfigError(f"{args.config}: unknown keys {unknown}; valid: {valid}")
        at = argv.index(args.subcommand) + 1
        tokens = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
        args = parser.parse_args(argv[:at] + tokens + argv[at:])
    env = os.environ.get(SEED_ENV)
    if env and "seed" in args:
        try:
            args.seed = int(env)
        except ValueError:
            raise InvalidConfigError(f"{SEED_ENV} must be an integer, got {env!r}") from None
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except (ShuffleFormerError, OSError) as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"ERROR: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
