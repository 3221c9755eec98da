import warnings

import numpy as np
import pytest

from shuffleformer import (InvalidConfigError, Rng, ToyTrainConfig, TrainingDivergedError,
                           parameter_list, synthetic_dataset, train_toy,
                           window_means)


def fast_config(**overrides):
    base = dict(resolution=16, window=2, steps=40, seed=0)
    base.update(overrides)
    return ToyTrainConfig(**base)


def test_synthetic_dataset_deterministic():
    a = synthetic_dataset(8, 4, (3, 8, 8), Rng(1))
    b = synthetic_dataset(8, 4, (3, 8, 8), Rng(1))
    assert a[0].tobytes() == b[0].tobytes()
    assert np.array_equal(a[1], b[1])
    assert a[1].min() >= 0 and a[1].max() < 4


def test_overfits_small_set():
    result = train_toy(fast_config(target_accuracy=0.95))
    assert result.reached_step is not None
    assert result.reached_step <= 40
    assert result.final_accuracy >= 0.95


def test_loss_decreases_over_moving_windows():
    result = train_toy(fast_config(steps=40))
    means = window_means(result.losses, 10)
    assert len(means) == 4
    assert all(later < earlier for earlier, later in zip(means, means[1:]))
    assert means[-1] < 0.5 * means[0]


def test_same_seed_identical_curves():
    a = train_toy(fast_config(steps=6))
    b = train_toy(fast_config(steps=6))
    assert a.losses == b.losses
    assert [r["accuracy"] for r in a.history] == [r["accuracy"] for r in b.history]


def test_different_seed_differs():
    a = train_toy(fast_config(steps=3))
    b = train_toy(fast_config(steps=3, seed=1))
    assert a.losses != b.losses


def test_zero_lr_keeps_parameters_bit_identical():
    cfg = fast_config(steps=3, lr=0.0)
    result = train_toy(cfg)
    fresh = train_toy(fast_config(steps=1, lr=0.0))
    # compare against a freshly initialized copy of the same seed
    rng = Rng(cfg.seed)
    synthetic_dataset(cfg.samples, cfg.classes,
                      (cfg.model_config().in_channels, cfg.resolution, cfg.resolution), rng)
    from shuffleformer import init_model_params
    reference = init_model_params(cfg.model_config(), rng)
    for got, want in zip(parameter_list(result.params), parameter_list(reference)):
        assert got.data.tobytes() == want.data.tobytes()
    assert fresh.losses[0] == result.losses[0]


def test_divergence_raises_with_step_index():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TrainingDivergedError) as err:
            train_toy(fast_config(steps=10, lr=1e9))
    assert err.value.step >= 1
    assert "step" in str(err.value)


@pytest.mark.parametrize("field", ["samples", "classes", "steps"])
@pytest.mark.parametrize("value", [0, -1, "3", 2.5, True])
def test_non_positive_counts_rejected(field, value):
    with pytest.raises(InvalidConfigError) as err:
        fast_config(**{field: value})
    assert field in str(err.value)


@pytest.mark.parametrize("field, value", [("lr", None), ("weight_decay", "0"),
                                          ("target_accuracy", "a")])
def test_non_number_rates_rejected(field, value):
    with pytest.raises(InvalidConfigError) as err:
        fast_config(**{field: value})
    assert field in str(err.value)


@pytest.mark.parametrize("value", ["a", -1, 2.5, True])
def test_bad_seed_rejected_at_construction(value):
    with pytest.raises(InvalidConfigError, match="seed"):
        fast_config(seed=value)


def test_bad_architecture_rejected_at_construction():
    with pytest.raises(InvalidConfigError):
        fast_config(window=3)


def test_window_means_tail():
    assert window_means([1.0, 2.0, 3.0, 4.0, 5.0], 2) == [1.5, 3.5, 5.0]
