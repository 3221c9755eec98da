"""Deterministic toy training: overfit a small synthetic set end to end.

This exists as trainability evidence for the full stack (forward, backward,
optimizer), not as a recipe: full-batch AdamW on a handful of random samples
that a model of this size must be able to memorize.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError, TrainingDivergedError, _is_int, _is_real
from .model import ModelConfig, ModelParams, init_model_params, model_forward, parameter_list
from .optim import AdamW, Optimizer
from .rng import Rng
from .tensor import Tensor, backward, cross_entropy_logits, zero_grads


@dataclass(frozen=True)
class ToyTrainConfig:
    samples: int = 32
    classes: int = 8
    resolution: int = 56
    channels: int = 32
    depths: tuple[int, ...] = (2, 2)
    window: int = 7
    shuffle_mode: str = "long-range"
    nwc_position: str = "B"
    steps: int = 500
    lr: float = 1e-3
    weight_decay: float = 0.0
    seed: int = 0
    target_accuracy: float | None = None  # stop early once reached

    def __post_init__(self):
        bad = [name for name in ("samples", "classes", "steps")
               if not (_is_int(v := getattr(self, name)) and v >= 1)]
        if bad:
            raise InvalidConfigError(f"{', '.join(bad)} must be positive integers")
        AdamW(self.lr, weight_decay=self.weight_decay)  # checks the rates
        if not (_is_int(self.seed) and self.seed >= 0):
            raise InvalidConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        acc = self.target_accuracy
        if acc is not None and not (_is_real(acc) and 0.0 <= acc <= 1.0):
            raise InvalidConfigError(f"target_accuracy must lie in [0, 1], got {acc}")
        self.model_config()  # checks the architecture fields

    def model_config(self) -> ModelConfig:
        return ModelConfig(channels=self.channels, depths=tuple(self.depths),
                           num_classes=self.classes, resolution=self.resolution,
                           window=self.window, shuffle_mode=self.shuffle_mode,
                           nwc_position=self.nwc_position)


@dataclass
class ToyTrainResult:
    config: ToyTrainConfig
    model_config: ModelConfig
    params: ModelParams
    history: list[dict] = field(default_factory=list)
    reached_step: int | None = None  # first step with accuracy >= target

    @property
    def losses(self) -> list[float]:
        return [row["loss"] for row in self.history]

    @property
    def final_accuracy(self) -> float:
        return self.history[-1]["accuracy"] if self.history else 0.0


def synthetic_dataset(samples: int, classes: int, shape, rng: Rng):
    """Random inputs and labels; the overfitting target, not real data."""
    x = rng.normal((samples, *shape), 1.0, dtype=np.float32)
    y = rng.integers(0, classes, (samples,))
    return x, y


def train_toy(cfg: ToyTrainConfig) -> ToyTrainResult:
    """Full-batch AdamW on a fixed synthetic set; deterministic given the seed."""
    rng = Rng(cfg.seed)
    model_cfg = cfg.model_config()
    shape = (model_cfg.in_channels, cfg.resolution, cfg.resolution)
    data, labels = synthetic_dataset(cfg.samples, cfg.classes, shape, rng)
    params = init_model_params(model_cfg, rng)
    tracked = parameter_list(params)
    opt = Optimizer(tracked, AdamW(cfg.lr, weight_decay=cfg.weight_decay))
    result = ToyTrainResult(cfg, model_cfg, params)

    batch = Tensor(data)
    for step in range(1, cfg.steps + 1):
        logits = model_forward(batch, params, model_cfg, training=True)
        loss = cross_entropy_logits(logits, labels)
        loss_value = float(loss.data)
        if not np.isfinite(loss_value):
            raise TrainingDivergedError(step)
        accuracy = float((logits.data.argmax(axis=1) == labels).mean())
        result.history.append({"step": step, "loss": loss_value, "accuracy": accuracy})
        if cfg.target_accuracy is not None and accuracy >= cfg.target_accuracy:
            result.reached_step = step
            break
        zero_grads(tracked)
        backward(loss)
        opt.step()
    return result
