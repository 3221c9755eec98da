"""Every component that takes a shuffle mode accepts exactly SHUFFLE_MODES."""

import numpy as np
import pytest

from shuffleformer import (SHUFFLE_MODES, BlockConfig, BlockSpec, InvalidConfigError,
                           ModelConfig, Rng, make_shuffle_permutation)
from shuffleformer.cli import main


def _stats(mode, tmp_path):
    try:
        return main(["stats", "--variant", "T", "--res", "224",
                     "--shuffle-mode", mode, "--out-dir", str(tmp_path)])
    except SystemExit as exc:  # argparse rejects a bad choice by exiting
        return exc.code


def _as_exit_code(build):
    """1 when `build(mode)` raises InvalidConfigError, 0 when it returns."""
    def check(mode, tmp_path):
        try:
            build(mode)
        except InvalidConfigError:
            return 1
        return 0
    return check


def _model_config(mode):
    return ModelConfig(channels=8, depths=(2,), resolution=16, window=2, head_dim=4,
                       shuffle_mode=mode)


COMPONENTS = {
    "BlockConfig": _as_exit_code(lambda mode: BlockConfig(4, 1, 2, mode)),
    "ModelConfig": _as_exit_code(_model_config),
    "BlockSpec": _as_exit_code(lambda mode: BlockSpec(2, mode)),
    "make_shuffle_permutation": _as_exit_code(
        lambda mode: make_shuffle_permutation(8, 2, mode, Rng(0))),
    "stats --shuffle-mode": _stats,
}


def test_vocabulary_has_none_and_no_identity():
    assert SHUFFLE_MODES == ("none", "long-range", "short-range", "random")


@pytest.mark.parametrize("component", sorted(COMPONENTS))
def test_accepts_exactly_the_shuffle_modes(component, tmp_path, capsys):
    check = COMPONENTS[component]
    for mode in SHUFFLE_MODES:
        assert check(mode, tmp_path) == 0, mode
    for mode in ("identity", "long_range", ""):
        assert check(mode, tmp_path) == 1, mode


@pytest.mark.parametrize("component", sorted(set(COMPONENTS) - {"stats --shuffle-mode"}))
def test_array_mode_rejected(component, tmp_path):
    # `in` would compare an array element-wise and raise a bare ValueError
    for mode in (np.array(["none", "random"]), np.array("none")):
        assert COMPONENTS[component](mode, tmp_path) == 1
