import threading
import warnings

import numpy as np
import pytest

from shuffleformer import (AdamW, InvalidConfigError, Optimizer, Rng, Tensor, ToyTrainConfig,
                           TrainingDivergedError, backward, cross_entropy_logits,
                           init_model_params, model_forward, parameter_list, synthetic_dataset,
                           train_toy, window_means, zero_grads)


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


@pytest.mark.parametrize("values, window", [(None, 2), ([1.0], 0)],
                         ids=["no-values", "zero-window"])
def test_window_means_bad_input_rejected(values, window):
    with pytest.raises(InvalidConfigError):
        window_means(values, window)


def _held_arrays(fn, seen: set) -> list:
    """Arrays that a vjp closure keeps, following default arguments, lists,
    tuples and nested closures: `def vjp(g, x=x)` keeps x as surely as a
    closure cell does."""
    if id(fn) in seen:
        return []
    seen.add(id(fn))
    found, todo = [], [cell.cell_contents for cell in fn.__closure__ or ()]
    todo += [*(fn.__defaults__ or ()), *(fn.__kwdefaults__ or {}).values()]
    while todo:
        value = todo.pop()
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, (list, tuple)):
            todo.extend(value)
        elif callable(value) and hasattr(value, "__closure__"):
            found += _held_arrays(value, seen)
    return found


def _owner(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def test_held_arrays_follow_default_arguments():
    a, b, c = np.zeros(2), np.ones(3), np.full(4, 2.0)

    def vjp(g, x=a, *, y=(b,)):
        return g * c

    assert sorted(map(id, _held_arrays(vjp, set()))) == sorted(map(id, (a, b, c)))


def test_training_graph_holds_only_what_its_vjps_read():
    # the default toy step: 32 samples at 56^2, width 32, depths (2, 2). The
    # vjps read 40.1 MiB here: the inputs of the convs, batch norms and GELUs,
    # the softmax outputs and the attention operands, parameters included; the
    # conv after each GELU rebuilds the GELU output instead of keeping it,
    # which would add 10.7 MiB. A graph that also keeps every op's output, as
    # one made of the op results themselves does, holds 65.9 MiB. The budget
    # leaves room for scratch of the parameters' size on top of 41 MiB.
    cfg = ToyTrainConfig()
    model_cfg = cfg.model_config()
    rng = Rng(0)
    shape = (model_cfg.in_channels, cfg.resolution, cfg.resolution)
    data, _ = synthetic_dataset(cfg.samples, cfg.classes, shape, rng)
    params = init_model_params(model_cfg, rng)
    logits = model_forward(Tensor(data), params, model_cfg, training=True)
    # graph entries are nodes and leaf tensors; a parent without grad is None
    held, todo, seen, closures = {}, list(logits._parents), set(), set()
    while todo:
        node = todo.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        arrays = [node.data] if isinstance(node, Tensor) else []
        if node._vjp is not None:
            arrays += _held_arrays(node._vjp, closures)
        held.update((id(_owner(a)), _owner(a)) for a in arrays)
        todo.extend(node._parents)
    param_bytes = sum(t.data.nbytes for t in parameter_list(params))
    assert sum(a.nbytes for a in held.values()) <= 41 * 2**20 + param_bytes


def _step_gradients(seed: int) -> list[bytes]:
    """Every parameter gradient of three seeded toy training steps."""
    cfg = fast_config(samples=8, seed=seed)
    model_cfg = cfg.model_config()
    rng = Rng(seed)
    shape = (model_cfg.in_channels, cfg.resolution, cfg.resolution)
    data, labels = synthetic_dataset(cfg.samples, cfg.classes, shape, rng)
    params = init_model_params(model_cfg, rng)
    tracked = parameter_list(params)
    opt = Optimizer(tracked, AdamW(cfg.lr))
    grads = []
    for _ in range(3):
        zero_grads(tracked)
        backward(cross_entropy_logits(model_forward(Tensor(data), params, model_cfg, True),
                                      labels))
        grads += [p.grad.tobytes() for p in tracked]
        opt.step()
    return grads


def test_threads_on_separate_graphs_match_a_serial_run():
    seeds = range(4)
    serial = [_step_gradients(seed) for seed in seeds]
    threaded: dict = {}
    start = threading.Barrier(len(seeds))

    def work(seed):
        start.wait()
        threaded[seed] = _step_gradients(seed)

    workers = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert [threaded.get(seed) for seed in seeds] == serial
