import numpy as np
import pytest

from shuffleformer import AdamW, InvalidCallError, Optimizer, Rng, Tensor
from shuffleformer.optim import BETA1, BETA2, EPS


def _step(opt, *grads):
    for p, g in zip(opt.params, grads):
        p.grad = g
    opt.step()


def test_adamw_zero_grad_zero_decay_keeps_param():
    p = Tensor(np.array([3.0, -2.0], dtype=np.float32), requires_grad=True)
    before = p.data.copy()
    _step(Optimizer([p], AdamW(lr=0.5, weight_decay=0.0)), np.zeros(2, dtype=np.float32))
    assert np.array_equal(p.data, before)


def test_adamw_first_step_closed_form():
    lr, b1, b2, eps, wd = 0.1, BETA1, BETA2, EPS, 0.01
    p0, g = 2.0, 0.5
    p = Tensor(np.array([p0], dtype=np.float64), requires_grad=True)
    _step(Optimizer([p], AdamW(lr, weight_decay=wd)), np.array([g]))
    # hand-applied update from zero moments at t=1
    m_hat = ((1 - b1) * g) / (1 - b1)
    v_hat = ((1 - b2) * g * g) / (1 - b2)
    expected = p0 - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * p0)
    assert np.allclose(p.data, expected, atol=1e-12)


def test_adamw_bias_correction_changes_over_steps():
    p = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    opt = Optimizer([p], AdamW(lr=0.01))
    deltas = []
    for _ in range(3):
        before = p.data.copy()
        _step(opt, np.array([1.0]))
        deltas.append(float((before - p.data)[0]))
    # constant gradient: every step moves by about lr in the same direction
    assert all(d > 0 for d in deltas)
    assert opt.steps == 3


def test_shape_mismatch_rejected():
    p = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(InvalidCallError):
        _step(Optimizer([p], AdamW(0.1)), np.zeros(4))


def test_missing_grad_rejected():
    p = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(InvalidCallError):
        _step(Optimizer([p], AdamW(0.1)), None)


def test_zero_lr_is_bitwise_noop():
    rng = Rng(0)
    p = Tensor(rng.normal((4, 4), dtype=np.float32), requires_grad=True)
    before = p.data.tobytes()
    opt = Optimizer([p], AdamW(lr=0.0, weight_decay=0.05))
    p.grad = rng.normal((4, 4), dtype=np.float32)
    opt.step()
    opt.step()
    assert p.data.tobytes() == before
