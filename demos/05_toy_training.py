#!/usr/bin/env python3
"""End-to-end trainability: overfit 32 random samples, checkpoint the model,
reload it, and verify inference reproduces the training-run logits."""

import tempfile
from pathlib import Path

import numpy as np

from shuffleformer import (Rng, Tensor, ToyTrainConfig, load_checkpoint,
                           model_forward, save_checkpoint, synthetic_dataset,
                           train_toy, window_means)

cfg = ToyTrainConfig(samples=32, classes=8, resolution=16, window=2,
                     channels=32, depths=(2, 2), steps=40, lr=1e-3, seed=0)
print(f"config: {cfg.samples} samples, {cfg.classes} classes, "
      f"{cfg.model_config().in_channels}x{cfg.resolution}x{cfg.resolution} inputs,")
print(f"        width {cfg.channels}, depths {cfg.depths}, window {cfg.window}, "
      f"AdamW lr {cfg.lr}")
print()

result = train_toy(cfg)

print("loss curve (one '#' per 0.05):")
for row in result.history[::4]:
    bar = "#" * int(row["loss"] / 0.05)
    print(f"  step {row['step']:>3}  loss {row['loss']:.4f}  "
          f"acc {row['accuracy'] * 100:5.1f}%  {bar}")

means = window_means(result.losses, 10)
print(f"\nwindowed loss means: {[round(m, 4) for m in means]}")
print(f"monotone decreasing: {all(b < a for a, b in zip(means, means[1:]))}")
print(f"final train accuracy: {result.final_accuracy * 100:.1f}%")

print()
print("=" * 64)
print("checkpoint round trip")
print("=" * 64)

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "toy.sfc"
    save_checkpoint(path, result.params, result.model_config)
    print(f"wrote {path.stat().st_size:,} bytes")
    loaded, loaded_cfg, meta = load_checkpoint(path)

    shape = (result.model_config.in_channels, cfg.resolution, cfg.resolution)
    data, _ = synthetic_dataset(cfg.samples, cfg.classes, shape, Rng(cfg.seed))
    original = model_forward(Tensor(data), result.params, result.model_config).data
    reloaded = model_forward(Tensor(data), loaded, loaded_cfg).data
    print(f"logits after reload bit-identical: "
          f"{original.tobytes() == reloaded.tobytes()}")
    print(f"predicted classes: {original.argmax(axis=1)[:16].tolist()} ...")
