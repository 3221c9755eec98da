"""AdamW (Loshchilov & Hutter, arXiv 1711.05101), the one update rule.

An `Optimizer` owns the first and second moments of its parameters and the
step count; `Optimizer.step` applies `optimizer_step`, which reads each
parameter's `.grad`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCallError, InvalidConfigError, _is_real
from .tensor import Tensor


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(frozen=True)
class AdamW:
    """The learning rate and decoupled weight decay, each a finite real >= 0."""

    lr: float
    weight_decay: float = 0.0

    def __post_init__(self):
        bad = [name for name in ("lr", "weight_decay")
               if not (_is_real(v := getattr(self, name)) and math.isfinite(v) and v >= 0)]
        if bad:
            raise InvalidConfigError(f"{', '.join(bad)} must be finite and non-negative")


class Optimizer:
    """AdamW over `params`, with zero moments at step 0."""

    def __init__(self, params: list[Tensor] | tuple[Tensor, ...], rule: AdamW) -> None:
        if not (isinstance(params, (list, tuple)) and all(isinstance(p, Tensor) for p in params)
                and isinstance(rule, AdamW)):
            raise InvalidCallError("Optimizer takes a list or tuple of Tensors and an AdamW")
        self.params = list(params)
        self.rule = rule
        self.steps = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        optimizer_step(self)


def optimizer_step(opt: Optimizer) -> None:
    """Apply one AdamW update to every parameter of `opt` in place."""
    rule = opt.rule
    opt.steps += 1
    for i, (p, m, v) in enumerate(zip(opt.params, opt.m, opt.v)):
        if p.grad is None:
            raise InvalidCallError(f"missing gradient for parameter {i}")
        g = np.asarray(p.grad, dtype=p.dtype)
        if g.shape != p.shape:
            raise InvalidCallError(f"param {i}: grad shape {g.shape} != param shape {p.shape}")
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        mhat = m / (1.0 - BETA1 ** opt.steps)
        vhat = v / (1.0 - BETA2 ** opt.steps)
        update = mhat / (np.sqrt(vhat) + EPS) + p.dtype.type(rule.weight_decay) * p.data
        p.data -= p.dtype.type(rule.lr) * update
