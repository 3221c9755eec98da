"""Smoke test of the benchmark itself, on tiny configurations.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(name, trace, tmp_path, seed=0):
    return run.run_workload(name, seed, 0, trace, tiny=True, work_dir=tmp_path)


def _package_attrs() -> dict:
    return {(m.__name__, attr): value for m in tracer.package_modules()
            for attr, value in vars(m).items()}


def test_listed_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.LISTED)


@pytest.mark.parametrize("name", run.ALL_WORKLOADS)
def test_one_unit_emits_every_metric_with_its_unit(name, tmp_path):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = _run(name, trace, tmp_path)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_untraced_runs_refuse_installed_wrappers(tmp_path):
    before = _package_attrs()
    t = tracer.Tracer()
    t.install()
    try:
        assert tracer.installed_wrappers()
        with pytest.raises(RuntimeError, match="wrappers still installed"):
            _run("train_toy", False, tmp_path)
    finally:
        t.uninstall()
    assert _package_attrs() == before
    _run("infer_t224", True, tmp_path)
    assert tracer.installed_wrappers() == []
    assert _package_attrs() == before


@pytest.mark.parametrize("name", run.ALL_WORKLOADS)
def test_same_seed_same_failures_and_counts(name, tmp_path):
    a, b = (_run(name, True, tmp_path, seed=7) for _ in range(2))
    counts = [k for k in a["metrics"] if k.endswith(".calls") or k == "tensor.ops.out_mb"]
    assert counts
    assert {k: a["metrics"][k]["value"] for k in counts} == \
        {k: b["metrics"][k]["value"] for k in counts}
    assert a["failed"] / a["attempted"] == b["failed"] / b["attempted"]


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 41)]
    q, value = run.tail(samples)
    assert q == 76 and sum(s > value for s in samples) == 10
    assert run.tail([1.0, 3.0, 2.0]) == (100, 3.0)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "train_toy",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
