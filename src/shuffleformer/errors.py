"""Exception hierarchy shared across the package, and the integer,
real-number, choice and argument-type tests its input checks share."""

import numbers

import numpy as np


def _is_int(value) -> bool:
    """A Python or NumPy integer; bools are not counts."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A Python or NumPy real number; bools are not numbers here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_choice(value, choices: tuple[str, ...]) -> bool:
    """One of `choices`; only a str is, since `in` would compare an array
    element-wise and raise on its truth value."""
    return isinstance(value, str) and value in choices


def _check_arg(fn: str, value, kind: type) -> None:
    """A forward's check of a params or config argument, worded as the ops'
    check of their operands."""
    if not isinstance(value, kind):
        raise InvalidCallError(f"{fn} takes {kind.__name__}, got {type(value).__name__}")


class ShuffleFormerError(Exception):
    """Base class for every error raised by this package."""


class InvalidShapeError(ShuffleFormerError):
    """Tensor shapes (or dtypes) are inconsistent with the requested operation."""


class InvalidConfigError(ShuffleFormerError):
    """A configuration value is out of its allowed range or inconsistent."""


class InvalidCallError(ShuffleFormerError):
    """An operation was called in a way its contract forbids."""


class PartitionError(ShuffleFormerError):
    """Spatial extent is not divisible by the window size; no implicit padding."""


class DegenerateBatchError(ShuffleFormerError):
    """Batch statistics were requested over fewer than two elements per channel."""


class CheckpointError(ShuffleFormerError):
    """A checkpoint file is malformed or inconsistent with the model config."""


class TrainingDivergedError(ShuffleFormerError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int) -> None:
        super().__init__(f"loss became non-finite at step {step}")
        self.step = step
