"""Optimizers (LARS for the large-batch contrastive phase, Adam for the
classification head), the warmup-plus-cosine learning-rate schedule, and
the early-stopping epoch loop every trainer runs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigError, NumericError, ParameterError, ShapeError


def _check_grads(params, grads):
    if len(params) != len(grads):
        raise ShapeError("parameter/gradient lists differ in length")
    for (pname, p), (gname, g) in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeError(f"shape mismatch for {pname}: {p.shape} vs {g.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {gname}")


class Lars:
    """Layer-wise adaptive rate scaling with momentum.

    Per parameter tensor: trust ratio lambda = trust * ||w|| / (||g|| +
    weight_decay * ||w|| + eps); the momentum buffer accumulates
    lambda * lr * (g + weight_decay * w). Tensors with zero norm, and 1-D
    parameters (biases), fall back to the plain momentum-SGD update.
    """

    def __init__(self, params, trust=0.001, momentum=0.9, weight_decay=0.0, eps=1e-9):
        self.params = list(params)
        self.trust = trust
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.eps = eps
        self.step_count = 0
        self._velocity = {name: np.zeros_like(arr) for name, arr in self.params}

    def step(self, grads, lr: float) -> None:
        _check_grads(self.params, grads)
        for (name, w), (_, g) in zip(self.params, grads):
            g_eff = g
            if self.weight_decay and w.ndim > 1:
                g_eff = g + self.weight_decay * w
            local_lr = lr
            if w.ndim > 1:
                w_norm = float(np.linalg.norm(w))
                if w_norm > 0.0:
                    g_norm = float(np.linalg.norm(g))
                    ratio = self.trust * w_norm / (
                        g_norm + self.weight_decay * w_norm + self.eps
                    )
                    local_lr = ratio * lr
            v = self._velocity[name]
            v *= self.momentum
            v += (local_lr * g_eff).astype(v.dtype)
            w -= v
        self.step_count += 1


class Adam:
    """Bias-corrected Adam (beta1=0.9, beta2=0.999, eps=1e-8, lr=1e-4)."""

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = {name: np.zeros(arr.shape, dtype=np.float64) for name, arr in self.params}
        self._v = {name: np.zeros(arr.shape, dtype=np.float64) for name, arr in self.params}

    def step(self, grads) -> None:
        _check_grads(self.params, grads)
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1**t
        c2 = 1.0 - self.beta2**t
        for (name, w), (_, g) in zip(self.params, grads):
            g64 = g.astype(np.float64)
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g64
            v *= self.beta2
            v += (1.0 - self.beta2) * g64 * g64
            update = self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
            w -= update.astype(w.dtype)


@dataclass(frozen=True)
class LrSchedule:
    """Linear warmup to the peak rate, then cosine decay to 1% of the peak."""

    total_epochs: int
    warmup_epochs: int = 20
    peak_lr: float = 0.1
    floor_fraction: float = 0.01

    def __post_init__(self):
        if self.total_epochs <= 0:
            raise ParameterError("total_epochs must be positive")

    def lr(self, epoch: int) -> float:
        if not 0 <= epoch < self.total_epochs:
            raise ParameterError(f"epoch {epoch} outside [0, {self.total_epochs})")
        warmup = min(self.warmup_epochs, self.total_epochs)
        if epoch < warmup:
            return self.peak_lr * (epoch + 1) / warmup
        floor = self.floor_fraction * self.peak_lr
        span = self.total_epochs - 1 - warmup
        if span <= 0:
            return self.peak_lr
        phase = math.pi * (epoch - warmup) / span
        return floor + (self.peak_lr - floor) * (1.0 + math.cos(phase)) / 2.0


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float  # NaN when the run has no validation split
    lr: float


def best_val_loss(history: list[EpochStats]) -> float | None:
    """Lowest finite validation loss, or None when no epoch had one (no
    validation split), so JSON gets null, not NaN."""
    finite = [h.val_loss for h in history if np.isfinite(h.val_loss)]
    return min(finite) if finite else None


def history_to_csv(history: list[EpochStats]) -> str:
    return "epoch,train_loss,val_loss,lr\n" + "".join(
        f"{h.epoch},{h.train_loss:.8f},{h.val_loss:.8f},{h.lr:.8f}\n" for h in history)


def check_stopping(config) -> None:
    """Raise `ConfigError` unless a stage config's stopping rule is sound."""
    if not 0 <= config.patience < config.max_epochs:
        raise ConfigError("need 0 <= patience < max_epochs, got patience "
                          f"{config.patience} and max_epochs {config.max_epochs}")


def early_stopping(graph, run_epoch: Callable[[int], EpochStats], max_epochs: int,
                   patience: int) -> list[EpochStats]:
    """Run `run_epoch(epoch)` for epochs 0, 1, ... until `patience` epochs
    in a row bring no new best loss, or `max_epochs` have run; then restore
    the best epoch's weights. The loss is the epoch's validation loss, or its
    training loss when the validation loss is NaN."""
    history: list[EpochStats] = []
    best = np.inf
    best_snapshot = graph.snapshot()
    bad_epochs = 0
    for epoch in range(max_epochs):
        stats = run_epoch(epoch)
        history.append(stats)
        monitored = stats.train_loss if np.isnan(stats.val_loss) else stats.val_loss
        if monitored < best:
            best = monitored
            best_snapshot = graph.snapshot()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= patience:
                break
    graph.restore(best_snapshot)
    return history
