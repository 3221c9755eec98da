import json
import os

import numpy as np
import pytest

from shuffleformer import Rng, load_tensor, read_container, save_tensor, write_container
from shuffleformer.cli import load_config_file, main


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

    @pytest.mark.parametrize("config_edit", [{"sneaky": 1}, {"depths": 5}],
                             ids=["unknown-key", "int-depths"])
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
        assert err.startswith("ERROR:") and "config" in err
        assert "Traceback" not in err


def test_config_file_parser(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("alpha = 3  # trailing comment\n\n# full comment\nbeta-key = x,y\n")
    assert load_config_file(path) == {"alpha": "3", "beta_key": "x,y"}


def test_missing_subcommand_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
