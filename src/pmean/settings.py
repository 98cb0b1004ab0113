"""Training settings: the probe's TrainProtocol and the projection's config.

They import no numpy, so the CLI builds its parser from their defaults
without loading the numeric modules.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError


@dataclass
class TrainProtocol:
    """Settings for grid-tuned training and repeated subsample validation.

    ``znorm`` standardizes each run's rows with statistics fit on its train side.
    """

    lr_grid: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4)
    batch_size: int = 32
    max_epochs: int = 25
    runs: int = 50
    val_fraction: float = 0.1
    test_fraction: float = 0.2
    seed: int = 0
    znorm: bool = False

    def __post_init__(self):
        if not self.lr_grid or not all(0 < lr < math.inf for lr in self.lr_grid):
            raise InputError(f"lr_grid must be non-empty, finite and positive, got {self.lr_grid}")
        for name in ("val_fraction", "test_fraction"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise InputError(f"{name} must be in (0, 1), got {v}")
        if self.runs < 1:
            raise InputError("runs must be positive")
        if self.batch_size < 1 or self.max_epochs < 0:
            raise InputError("batch_size must be positive, max_epochs >= 0")


@dataclass
class ProjectionTrainConfig:
    """Hyperparameters of the ranking-loss training loop."""

    shared_dim: int = 300
    margin: float = 0.5
    dropout_rate: float = 0.5
    step_size: float = 1e-3
    batch_size: int = 16
    max_epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.dropout_rate < 1:
            raise InputError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.shared_dim <= 0 or self.batch_size <= 0 or self.max_epochs < 0:
            raise InputError("shared_dim and batch_size must be positive, max_epochs >= 0")
        if not math.isfinite(self.margin):
            raise InputError(f"margin must be finite, got {self.margin}")
        if not 0 < self.step_size < math.inf:
            raise InputError(f"step_size must be finite and positive, got {self.step_size}")
