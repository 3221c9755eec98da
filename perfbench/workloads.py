"""The benchmark's workloads: how each is set up, what one timed unit is, and
how each unit's output is checked.

Every workload is built from a workload seed alone. `setup` builds or loads
the model and generates the inputs; `unit` is one latency sample; `observe`
runs right after a unit, outside its timing, and keeps what `verify` needs to
decide whether that unit was correct. The package is reached through its
module objects (`model.model_forward`, not a copied reference), so the
tracer's wrappers are seen when, and only when, they are installed.

`tiny=True` swaps in configurations small enough for the smoke test.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from shuffleformer import analysis, checkpoint, model, optim, reachability, tensor, train
from shuffleformer.rng import Rng

# float32 logits against the float64 forward of the same weights and input:
# max |difference| relative to max |reference logit|
INFER_RTOL = 1e-4
# stand-ins for the T variant and the toy run in the smoke test
TINY_MODEL = dict(channels=32, depths=(2,), num_classes=10, resolution=28)
TINY_TOY = dict(samples=2, resolution=16, window=2)


def _finite_grads(params) -> bool:
    return all(p.grad is not None and bool(np.isfinite(p.grad).all()) for p in params)


class Workload:
    """Defaults: nothing to prepare or clean up, `observe` returns the verdict,
    and no named parameters or FLOP ledger for the per-row table."""

    def prepare(self) -> None:
        pass

    def verify(self, records) -> list[bool]:
        return list(records)

    def named_parameters(self):
        return ()

    def ledger(self):
        return None

    def cleanup(self) -> None:
        pass


class InferT224(Workload):
    """Eval forward of the T variant, float32, batch 1, loaded from a checkpoint."""

    def __init__(self, seed: int, work_dir: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.cfg = model.ModelConfig(**TINY_MODEL) if tiny else model.build_variant("T")
        self.path = work_dir / "infer_t224.sfc"
        self.items_per_unit = 1

    def prepare(self) -> None:
        """Write the user's checkpoint; not part of set-up time."""
        rng = Rng(self.seed)
        params = model.init_model_params(self.cfg, rng)
        checkpoint.save_checkpoint(self.path, params, self.cfg)
        res = self.cfg.resolution
        self.image_seed = int(rng.integers(0, 2**31))
        self.shape = (1, self.cfg.in_channels, res, res)

    def setup(self) -> None:
        self.params = None
        self.params, self.loaded_cfg, _ = checkpoint.load_checkpoint(self.path)
        self.image = tensor.Tensor(Rng(self.image_seed).normal(self.shape, 1.0, np.float32))

    def unit(self):
        return model.model_forward(self.image, self.params, self.loaded_cfg, training=False)

    def observe(self, logits) -> np.ndarray:
        return logits.data.copy()

    def verify(self, records) -> list[bool]:
        params64, cfg, _ = checkpoint.load_checkpoint(self.path, dtype=np.float64)
        image64 = tensor.Tensor(self.image.data.astype(np.float64))
        ref = model.model_forward(image64, params64, cfg, training=False).data
        scale = float(np.abs(ref).max())
        return [r.dtype == np.float32 and bool(np.isfinite(r).all())
                and float(np.abs(r - ref).max()) <= INFER_RTOL * scale
                for r in records]

    def named_parameters(self):
        return model.named_parameters(self.params)

    def ledger(self):
        return analysis.count_flops(self.loaded_cfg).rows, self.shape[0]

    def cleanup(self) -> None:
        self.path.unlink(missing_ok=True)


class _TrainStep(Workload):
    """One training step: forward, cross-entropy, backward, AdamW."""

    def setup(self) -> None:
        self.params = self.opt = None
        rng = Rng(self.seed)
        res = self.cfg.resolution
        data, self.labels = train.synthetic_dataset(
            self.batch, self.cfg.num_classes, (self.cfg.in_channels, res, res), rng)
        self.x = tensor.Tensor(data)
        self.params = model.init_model_params(self.cfg, rng)
        self.tracked = model.parameter_list(self.params)
        self.opt = optim.Optimizer(self.tracked, optim.AdamW(self.lr, weight_decay=self.wd))

    def unit(self):
        logits = model.model_forward(self.x, self.params, self.cfg, training=True)
        loss = tensor.cross_entropy_logits(logits, self.labels)
        tensor.zero_grads(self.tracked)
        tensor.backward(loss)
        self.opt.step()
        return float(loss.data)

    def observe(self, loss: float) -> bool:
        return bool(np.isfinite(loss)) and _finite_grads(self.tracked)

    def named_parameters(self):
        return model.named_parameters(self.params)

    def ledger(self):
        return analysis.count_flops(self.cfg).rows, self.batch


class TrainToy(_TrainStep):
    """One step of the default `ToyTrainConfig` (32 samples at 56², C=32)."""

    def __init__(self, seed: int, work_dir: Path, tiny: bool = False) -> None:
        toy = train.ToyTrainConfig(seed=seed, **(TINY_TOY if tiny else {}))
        self.seed, self.cfg, self.batch = seed, toy.model_config(), toy.samples
        self.lr, self.wd = toy.lr, toy.weight_decay
        self.items_per_unit = self.batch


class TrainT224(_TrainStep):
    """One T@224 training step at batch 2."""

    def __init__(self, seed: int, work_dir: Path, tiny: bool = False) -> None:
        self.seed, self.batch, self.lr, self.wd = seed, 2, 1e-3, 0.0
        self.cfg = model.ModelConfig(**TINY_MODEL) if tiny else model.build_variant("T")
        self.items_per_unit = self.batch


class ReachProbe32(Workload):
    """One finite-difference reachability probe: 32² grid, window 2, stack
    `block+nwc,shuffle-block+nwc`, 3 weight seeds, float64, C=1."""

    def __init__(self, seed: int, work_dir: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.grid = (8, 8) if tiny else (32, 32)
        self.items_per_unit = self.grid[0] * self.grid[1]

    def setup(self) -> None:
        # the stack `reach --stack block+nwc,shuffle-block+nwc --window 2` builds
        self.stack = [reachability.BlockSpec(2, "none", True, "B", self.seed),
                      reachability.BlockSpec(2, "long-range", True, "B", self.seed)]
        self.rng = Rng(self.seed)

    def unit(self):
        # fresh probe position and weight seeds for every unit
        h, w = (int(v) for v in self.rng.integers(0, self.grid[0], (2,)))
        base = int(self.rng.integers(0, 2**31))
        self.probe = (h, w)
        return reachability.reachability_probe(self.stack, self.grid, (h, w),
                                               seeds=(base, base + 1, base + 2))

    def observe(self, fd) -> bool:
        sym = reachability.symbolic_reachability(self.stack, self.grid, self.probe)
        return fd.members == sym.members


WORKLOADS = {
    "infer_t224": InferT224,
    "train_toy": TrainToy,
    "reach_probe32": ReachProbe32,
    "train_t224": TrainT224,
}
