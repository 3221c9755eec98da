import argparse
import contextlib
import io
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shuffleformer import (InvalidConfigError, ModelConfig, Rng, init_model_params,
                           load_tensor, read_container, save_checkpoint, save_tensor,
                           write_container)
from shuffleformer.cli import build_parser, load_config_file, main, parse_args


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestStats:
    def test_reference_totals(self, tmp_path, capsys):
        code, out, _ = run(["stats", "--variant", "T", "--res", "224",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        assert "28.52M" in out
        csv = (tmp_path / "stats_T_224.csv").read_text()
        assert csv.startswith("# run_config:")
        assert "layer,params,flops" in csv
        txt = (tmp_path / "stats_T_224.txt").read_text()
        assert "run_config" in txt

    def test_flops_scale_four_times(self, tmp_path, capsys):
        code, out224, _ = run(["stats", "--variant", "T", "--res", "224",
                               "--out-dir", str(tmp_path)], capsys)
        code448, out448, _ = run(["stats", "--variant", "T", "--res", "448",
                                  "--out-dir", str(tmp_path)], capsys)
        assert code == code448 == 0

        def gflops(text):
            return float(text.split("GFLOPs")[0].split(",")[-1].strip())

        assert abs(gflops(out448) / gflops(out224) - 4.0) < 0.05

    def test_unknown_variant_exit_one(self, tmp_path, capsys):
        code, _, err = run(["stats", "--variant", "XL", "--out-dir", str(tmp_path)],
                           capsys)
        assert code == 1
        assert "T" in err and "S" in err and "B" in err

    def test_short_range_config_that_cannot_run_exit_one(self, tmp_path, capsys):
        # T@672 has a 21x21 stage 3, which 2 x window 7 does not divide
        code, _, err = run(["stats", "--res", "672", "--shuffle-mode", "short-range",
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 1 and "stage 3" in err
        assert not list(tmp_path.iterdir())


class TestReach:
    def test_agreeing_scenario_writes_json(self, tmp_path, capsys):
        out = tmp_path / "reach.json"
        code, stdout, _ = run(["reach", "--grid", "8", "--window", "2",
                               "--stack", "block,shuffle-block",
                               "--probe", "3,3", "--out", str(out)], capsys)
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob["agree"] is True
        assert blob["run_config"]["subcommand"] == "reach"
        assert len(blob["fd"]["members"]) == len(blob["symbolic"]["members"])

    def test_nwc_stack_and_ascii_art(self, tmp_path, capsys):
        out = tmp_path / "reach.json"
        code, stdout, _ = run(["reach", "--grid", "8", "--window", "2",
                               "--stack", "block+nwc,shuffle-block+nwc",
                               "--out", str(out)], capsys)
        assert code == 0
        assert "#" in stdout

    def test_bad_stack_element_exit_one(self, tmp_path, capsys):
        code, _, err = run(["reach", "--stack", "tower,block",
                            "--out", str(tmp_path / "r.json")], capsys)
        assert code == 1
        assert "tower" in err

    def test_grid_issue_scenario_via_flags(self, tmp_path, capsys):
        out = tmp_path / "reach16.json"
        code, _, _ = run(["reach", "--grid", "16", "--window", "2",
                          "--stack", "block,shuffle-block", "--probe", "5,5",
                          "--quiet", "--out", str(out)], capsys)
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob["agree"] is True
        assert 0 < len(blob["fd"]["members"]) < 256  # strided strict subset


class TestTrainToy:
    def test_short_run_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, stdout, _ = run(["train-toy", "--res", "16", "--window", "2",
                               "--steps", "3", "--out-dir", str(out_dir)], capsys)
        assert code == 0
        metrics = (out_dir / "metrics.csv").read_text()
        assert metrics.startswith("# run_config:")
        assert metrics.count("\n") == 3 + 2  # header comment + header + 3 rows
        meta, tensors = read_container(out_dir / "model.sfc")
        assert meta["kind"] == "model"
        assert meta["run_config"]["subcommand"] == "train-toy"

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        monkeypatch.setenv("SHUFFLE_FORMER_SEED", "7")
        code_a, _, _ = run(["train-toy", "--res", "16", "--window", "2",
                            "--steps", "2", "--seed", "0",
                            "--out-dir", str(out_a)], capsys)
        monkeypatch.delenv("SHUFFLE_FORMER_SEED")
        code_b, _, _ = run(["train-toy", "--res", "16", "--window", "2",
                            "--steps", "2", "--seed", "7",
                            "--out-dir", str(out_b)], capsys)
        assert code_a == code_b == 0
        lines_a = (out_a / "metrics.csv").read_text().splitlines()[2:]
        lines_b = (out_b / "metrics.csv").read_text().splitlines()[2:]
        assert lines_a == lines_b

    def test_divergence_exit_two(self, tmp_path, capsys):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, _, err = run(["train-toy", "--res", "16", "--window", "2",
                                "--steps", "5", "--lr", "1e9",
                                "--out-dir", str(tmp_path / "d")], capsys)
        assert code == 2
        assert "step" in err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("res = 16\nwindow = 2\nsteps = 9\n# comment\nlr = 0.001\n")
        out_dir = tmp_path / "run"
        code, _, _ = run(["train-toy", "--config", str(cfg), "--steps", "2",
                          "--out-dir", str(out_dir)], capsys)
        assert code == 0
        rows = (out_dir / "metrics.csv").read_text().splitlines()
        assert len(rows) == 2 + 2  # flag --steps 2 beats config steps 9

    def test_config_file_unknown_key_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("unknown_key = 3\n")
        code, _, err = run(["train-toy", "--config", str(cfg),
                            "--out-dir", str(tmp_path / "x")], capsys)
        assert code == 1
        assert "unknown_key" in err

    def test_reaches_target_accuracy(self, tmp_path, capsys):
        code, stdout, _ = run(["train-toy", "--res", "16", "--window", "2",
                               "--steps", "200", "--target-acc", "0.95",
                               "--out-dir", str(tmp_path / "run")], capsys)
        assert code == 0
        assert "reached target accuracy" in stdout


class TestAblate:
    def test_reference_cells(self, tmp_path, capsys):
        out = tmp_path / "ablation.csv"
        code, stdout, _ = run(["ablate", "--variant", "T",
                               "--modes", "none,long-range",
                               "--positions", "none,B", "--out", str(out)], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if line and not line.startswith("#")][1:]
        cells = {(r[0], r[1]): int(r[2]) for r in rows}
        assert len(cells) == 4
        for mode in ("none", "long-range"):
            assert abs(cells[(mode, "none")] - 28.3e6) / 28.3e6 < 0.04
            assert abs(cells[(mode, "B")] - 28.5e6) / 28.5e6 < 0.04

    def test_position_c_cell(self, tmp_path, capsys):
        out = tmp_path / "ablation.csv"
        code, _, _ = run(["ablate", "--variant", "T", "--modes", "long-range",
                          "--positions", "C", "--out", str(out)], capsys)
        assert code == 0
        row = out.read_text().splitlines()[-1].split(",")
        assert abs(int(row[2]) - 29.2e6) / 29.2e6 < 0.04

    def test_shuffle_modes_share_costs(self, tmp_path, capsys):
        out = tmp_path / "ablation.csv"
        code, _, _ = run(["ablate", "--variant", "T",
                          "--modes", "long-range,short-range,random",
                          "--positions", "B", "--out", str(out)], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if line and not line.startswith("#")][1:]
        params = {r[2] for r in rows}
        flops = {r[3] for r in rows}
        assert len(params) == 1 and len(flops) == 1

    def test_short_range_toy_cell(self, tmp_path, capsys):
        # the toy model's last stage is one 2x2 window
        out = tmp_path / "ablation.csv"
        code, _, err = run(["ablate", "--modes", "short-range", "--positions", "B",
                            "--toy-steps", "1", "--out", str(out)], capsys)
        assert code == 0, err
        assert "toy_final_loss" in out.read_text()

    def test_bad_mode_exit_one(self, tmp_path, capsys):
        code, _, err = run(["ablate", "--modes", "diagonal",
                            "--out", str(tmp_path / "a.csv")], capsys)
        assert code == 1
        assert "diagonal" in err


class TestInfer:
    @pytest.fixture
    def trained(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, _, _ = run(["train-toy", "--res", "16", "--window", "2",
                          "--steps", "2", "--out-dir", str(out_dir)], capsys)
        assert code == 0
        return out_dir / "model.sfc"

    def test_infer_round_trip(self, trained, tmp_path, capsys):
        x = Rng(3).normal((2, 3, 16, 16), dtype=np.float32)
        xin = tmp_path / "input.sfc"
        save_tensor(xin, x)
        out = tmp_path / "logits.sfc"
        code, stdout, _ = run(["infer", "--checkpoint", str(trained),
                               "--input", str(xin), "--output", str(out)], capsys)
        assert code == 0
        logits, meta = load_tensor(out)
        assert logits.shape == (2, 8)
        assert meta["run_config"]["subcommand"] == "infer"
        # deterministic: run again and compare bytes
        out2 = tmp_path / "logits2.sfc"
        code, _, _ = run(["infer", "--checkpoint", str(trained),
                          "--input", str(xin), "--output", str(out2)], capsys)
        logits2, _ = load_tensor(out2)
        assert logits.tobytes() == logits2.tobytes()

    def test_wrong_input_shape_exit_one(self, trained, tmp_path, capsys):
        xin = tmp_path / "input.sfc"
        save_tensor(xin, Rng(0).normal((1, 3, 8, 8), dtype=np.float32))
        code, _, err = run(["infer", "--checkpoint", str(trained),
                            "--input", str(xin),
                            "--output", str(tmp_path / "o.sfc")], capsys)
        assert code == 1
        assert "shape" in err

    def test_corrupted_checkpoint_exit_one(self, trained, tmp_path, capsys):
        bad = tmp_path / "bad.sfc"
        bad.write_bytes(b"garbage" + os.urandom(64))
        xin = tmp_path / "input.sfc"
        save_tensor(xin, Rng(0).normal((1, 3, 16, 16), dtype=np.float32))
        code, _, err = run(["infer", "--checkpoint", str(bad), "--input", str(xin),
                            "--output", str(tmp_path / "o.sfc")], capsys)
        assert code == 1
        assert "magic" in err or "checkpoint" in err.lower()

    @pytest.mark.parametrize("config_edit", [{"sneaky": 1}, {"depths": 5},
                                             {"attn_bias": False}, {"mlp_ratio": 2}],
                             ids=["unknown-key", "int-depths", "no-attn-bias", "mlp-ratio-2"])
    def test_bad_config_in_checkpoint_exit_one(self, trained, tmp_path, capsys, config_edit):
        meta, tensors = read_container(trained)
        meta["config"].update(config_edit)
        bad = tmp_path / "bad_config.sfc"
        write_container(bad, tensors, meta)
        xin = tmp_path / "input.sfc"
        save_tensor(xin, Rng(0).normal((1, 3, 16, 16), dtype=np.float32))
        code, _, err = run(["infer", "--checkpoint", str(bad), "--input", str(xin),
                            "--output", str(tmp_path / "o.sfc")], capsys)
        assert code == 1
        assert err.startswith("ERROR:") and "config" in err and next(iter(config_edit)) in err
        assert err.count("ERROR:") == 1 and "Traceback" not in err


def test_config_file_parser(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("alpha = 3  # trailing comment\n\n# full comment\nbeta-key = x,y\n")
    assert load_config_file(path) == {"alpha": "3", "beta_key": "x,y"}


def test_missing_subcommand_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# hostile input: every row exits 1 with an ERROR or usage line, no traceback


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _text_file(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return str(path)


def _small_checkpoint(tmp_path):
    cfg = ModelConfig(channels=8, depths=(2,), num_classes=4, resolution=16, window=2,
                      head_dim=4)
    save_checkpoint(tmp_path / "small.sfc", init_model_params(cfg, Rng(0)), cfg)
    save_tensor(tmp_path / "x.sfc", Rng(1).normal((1, 3, 16, 16), dtype=np.float32))
    return str(tmp_path / "small.sfc"), str(tmp_path / "x.sfc")


def _raw_container(path, header):
    """A container with an arbitrary JSON header and no payload."""
    text = json.dumps(header).encode()
    path.write_bytes(b"SHFCONT1" + struct.pack("<II", 1, len(text)) + text)
    return str(path)


def _huge_channels_checkpoint(tmp_path):
    """A model header asking for 2**20 base channels and storing no tensors."""
    config = dict(channels=2**20, depths=[2], num_classes=2, resolution=16, window=2,
                  head_dim=32, shuffle_mode="none", nwc_position="none")
    return _raw_container(tmp_path / "huge.sfc",
                          {"meta": {"kind": "model", "config": config}, "tensors": []})


def _unallocatable_tensor(tmp_path):
    """A tensor of zero bytes whose other extents multiply past any array size."""
    entry = {"name": "data", "dtype": "float32", "shape": [2**40, 0, 2**40], "offset": 0,
             "nbytes": 0}
    return _raw_container(tmp_path / "empty.sfc", {"meta": {"kind": "tensor"},
                                                   "tensors": [entry]})


def _infer_argv(tmp_path, checkpoint=None, tensor=None, output=None):
    ck, x = _small_checkpoint(tmp_path)
    return ["infer", "--checkpoint", checkpoint or ck, "--input", tensor or x,
            "--output", output or str(tmp_path / "o.sfc")]


REACH = ["reach", "--grid", "4", "--quiet"]
TOY = ["train-toy", "--res", "16", "--window", "2", "--steps", "1"]

HOSTILE = {
    "config-steps-abc": lambda t: ["train-toy", "--config", _text_file(t, "steps = abc\n")],
    "config-quiet-maybe": lambda t: ["reach", "--grid", "4", "--out", str(t / "r.json"),
                                     "--config", _text_file(t, "quiet = maybe\n")],
    "config-reach-shuffle-none": lambda t: [
        "reach", "--grid", "4", "--quiet", "--out", str(t / "r.json"),
        "--config", _text_file(t, "shuffle_mode = none\n")],
    "config-missing": lambda t: ["train-toy", "--config", str(t / "absent.cfg")],
    "config-not-utf8": lambda t: ["stats", "--config", _text_file(t, b"res = \xff\xfe\n")],
    "infer-missing-checkpoint": lambda t: _infer_argv(t, checkpoint=str(t / "absent.sfc")),
    "infer-missing-input": lambda t: _infer_argv(t, tensor=str(t / "absent.sfc")),
    "infer-huge-channels": lambda t: _infer_argv(t, checkpoint=_huge_channels_checkpoint(t)),
    "infer-unallocatable-input": lambda t: _infer_argv(t, tensor=_unallocatable_tensor(t)),
    "infer-unwritable-output": lambda t: _infer_argv(t, output=str(t / "no" / "o.sfc")),
    "infer-output-is-a-directory": lambda t: _infer_argv(t, output=str(t)),
    "stats-unwritable-out-dir": lambda t: ["stats", "--out-dir",
                                           str(Path(_text_file(t, "")) / "sub")],
    "reach-unwritable-out": lambda t: REACH + ["--out", str(t / "no" / "r.json")],
    "ablate-unwritable-out": lambda t: ["ablate", "--modes", "none", "--positions", "none",
                                        "--out", str(t / "no" / "a.csv")],
    "train-toy-unwritable-out-dir": lambda t: TOY + ["--out-dir", _text_file(t, "")],
    "reach-probe-one-number": lambda t: REACH + ["--probe", "1", "--out", str(t / "r.json")],
    "reach-negative-seed": lambda t: REACH + ["--seed", "-1", "--out", str(t / "r.json")],
    "reach-zero-epsilon": lambda t: REACH + ["--epsilon", "0", "--out", str(t / "r.json")],
    "reach-negative-epsilon": lambda t: REACH + ["--epsilon", "-1", "--out", str(t / "r.json")],
    "reach-nan-epsilon": lambda t: REACH + ["--epsilon", "nan", "--out", str(t / "r.json")],
    "reach-inf-epsilon": lambda t: REACH + ["--epsilon", "inf", "--out", str(t / "r.json")],
    "reach-negative-threshold": lambda t: REACH + ["--threshold", "-1",
                                                   "--out", str(t / "r.json")],
    "reach-nan-threshold": lambda t: REACH + ["--threshold", "nan", "--out", str(t / "r.json")],
    "reach-inf-threshold": lambda t: REACH + ["--threshold", "inf", "--out", str(t / "r.json")],
    "train-toy-zero-steps": lambda t: ["train-toy", "--res", "16", "--window", "2",
                                       "--steps", "0", "--out-dir", str(t / "run")],
    "train-toy-nan-lr": lambda t: TOY + ["--lr", "nan", "--out-dir", str(t / "run")],
    "train-toy-inf-lr": lambda t: TOY + ["--lr", "inf", "--out-dir", str(t / "run")],
    "train-toy-negative-lr": lambda t: TOY + ["--lr", "-1", "--out-dir", str(t / "run")],
    "train-toy-nan-weight-decay": lambda t: TOY + ["--weight-decay", "nan",
                                                   "--out-dir", str(t / "run")],
    "train-toy-inf-weight-decay": lambda t: TOY + ["--weight-decay", "inf",
                                                   "--out-dir", str(t / "run")],
    "train-toy-negative-weight-decay": lambda t: TOY + ["--weight-decay", "-1",
                                                        "--out-dir", str(t / "run")],
    "train-toy-target-acc-above-one": lambda t: TOY + ["--target-acc", "1.5",
                                                       "--out-dir", str(t / "run")],
    "train-toy-nan-target-acc": lambda t: TOY + ["--target-acc", "nan",
                                                 "--out-dir", str(t / "run")],
    "train-toy-negative-target-acc": lambda t: TOY + ["--target-acc", "-1",
                                                      "--out-dir", str(t / "run")],
    "ablate-negative-toy-steps": lambda t: ["ablate", "--modes", "none", "--positions", "none",
                                            "--toy-steps", "-1", "--out", str(t / "a.csv")],
    "env-seed-not-integer": lambda t: TOY + ["--out-dir", str(t / "run")],
    "env-seed-negative": lambda t: TOY + ["--out-dir", str(t / "run")],
}
HOSTILE_SEED_ENV = {"env-seed-not-integer": "x", "env-seed-negative": "-1"}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_input_exits_one_without_traceback(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SHUFFLE_FORMER_SEED", raising=False)
    if case in HOSTILE_SEED_ENV:
        monkeypatch.setenv("SHUFFLE_FORMER_SEED", HOSTILE_SEED_ENV[case])
    argv = HOSTILE[case](tmp_path)
    capsys.readouterr()
    code = exit_code(argv)
    err = capsys.readouterr().err
    assert code == 1, err
    assert "ERROR:" in err or "usage:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [b"1" * 5000, b"[" * 200_000 + b"]" * 200_000],
                         ids=["int-past-digit-limit", "nested-200000-deep"])
@pytest.mark.parametrize("slot", ["checkpoint", "tensor"])
def test_infer_on_an_unparsable_header_exits_one(tmp_path, capsys, slot, text):
    path = tmp_path / "bad.sfc"
    path.write_bytes(b"SHFCONT1" + struct.pack("<II", 1, len(text)) + text)
    argv = _infer_argv(tmp_path, **{slot: str(path)})
    capsys.readouterr()
    code = exit_code(argv)
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("ERROR:") and "corrupt header" in err and "Traceback" not in err


def test_quiet_accepts_bare_flag_and_file_booleans(tmp_path):
    base = ["reach", "--grid", "4"]
    assert parse_args(base).quiet is False
    assert parse_args(base + ["--quiet"]).quiet is True
    for text, value in (("true", True), ("off", False), ("YES", True), ("0", False)):
        cfg = _text_file(tmp_path, f"quiet = {text}\n")
        assert parse_args(base + ["--config", cfg]).quiet is value


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 GiB for an array")

    monkeypatch.setattr("shuffleformer.cli.reachability_report", exhausted)
    code, _, err = run(["reach", "--out", str(tmp_path / "r.json")], capsys)
    assert code == 1
    assert err == "ERROR: out of memory: Unable to allocate 1.00 GiB for an array\n"


def test_env_seed_recorded_in_reach_run_config(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SHUFFLE_FORMER_SEED", "5")
    out = tmp_path / "r.json"
    assert main(REACH + ["--seed", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["run_config"]["options"]["seed"] == 5


# ---------------------------------------------------------------------------
# one parser for flags and config files


SUBCOMMANDS = ("stats", "reach", "train-toy", "ablate", "infer")
NOT_OPTIONS = ("func", "subcommand", "config")
# values without '#', line breaks or surrounding spaces; a few valid ones mixed in
VALUES = st.one_of(
    st.sampled_from(["0", "1", "-1", "2,2", "0.5", "true", "off", "T", "none,B",
                     "long-range", "A", "", "nan", "1e-3"]),
    st.text(st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters="#"),
            max_size=10).filter(lambda v: v == v.strip()),
)


def _options(subcommand):
    return sorted(k for k in vars(parse_args([subcommand])) if k not in NOT_OPTIONS)


@st.composite
def invocations(draw):
    subcommand = draw(st.sampled_from(SUBCOMMANDS))
    pairs = draw(st.dictionaries(st.sampled_from(_options(subcommand)), VALUES, max_size=4))
    return subcommand, pairs


def _outcome(argv):
    """The parsed options, or 'exit 1' when parsing fails."""
    try:
        args = vars(parse_args(argv))
    except SystemExit as exc:
        return f"exit {exc.code}"
    except InvalidConfigError:
        return "exit 1"
    return repr({k: v for k, v in args.items() if k != "config"})


@settings(derandomize=True, max_examples=150, deadline=None)
@given(invocations())
def test_config_file_equals_flags(invocation):
    subcommand, pairs = invocation
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in pairs.items()]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in pairs.items()))
        with contextlib.redirect_stderr(io.StringIO()):
            from_file = _outcome([subcommand, "--config", str(cfg)])
            from_flags = _outcome([subcommand, *flags])
    assert from_file == from_flags


def test_flag_beats_file_beats_default(tmp_path):
    cfg = _text_file(tmp_path, "steps = 9\nlr = 0.5\n")
    args = parse_args(["train-toy", "--config", cfg, "--steps", "2"])
    assert (args.steps, args.lr, args.window) == (2, 0.5, 7)


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_help_prints_every_default(subcommand, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # no wrapping inside a default
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = [a for a in sub.choices[subcommand]._actions if a.default is not argparse.SUPPRESS]
    assert declared
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for action in declared:
        assert f"(default: {action.default})" in text, action.dest
