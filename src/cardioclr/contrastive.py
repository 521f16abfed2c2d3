"""Positive-pair batching, the NT-Xent objective, and contrastive pretraining.

A batch of N windows becomes 2N views: the first N rows are the left-chain
views and rows i and i+N always form a positive pair. The loss for an anchor
is the temperature-scaled cross-entropy of picking its positive among all
other views by cosine similarity; the total is the mean over all 2N anchors
(both orderings of every pair).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import AugmentationPolicy, apply_policy, window_rng
from .errors import ConfigError, NumericError, ParameterError
from .nn.model import ModelGraph
from .nn.optim import EpochStats, Lars, LrSchedule, check_stopping, early_stopping

# the NT-Xent temperature of the SimCLR recipe (Chen et al., arXiv 2002.05709)
TEMPERATURE = 0.1


def _pair_index(two_n: int) -> np.ndarray:
    n = two_n // 2
    return np.concatenate([np.arange(n) + n, np.arange(n)])


def nt_xent_grad(views: np.ndarray, temperature: float):
    """NT-Xent loss, per-anchor losses, and the gradient w.r.t. the views.

    Log-sum-exp stabilized; the denominator for anchor i runs over every
    other view (positives and negatives alike), per the loss definition.
    A zero view normalizes to 0 (similarity 0 to every view) and gets a zero gradient.
    """
    z = np.asarray(views, dtype=np.float64)
    if temperature <= 0.0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    if z.ndim != 2 or z.shape[0] % 2 or z.shape[0] < 2:
        raise ParameterError(f"views must be (2N, D) with N >= 1, got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise NumericError("non-finite projection vectors")
    two_n = z.shape[0]
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    zero = norms == 0.0
    norms = np.where(zero, 1.0, norms)
    u = z / norms
    sim = u @ u.T
    logits = sim / temperature
    np.fill_diagonal(logits, -np.inf)

    pos = _pair_index(two_n)
    row_max = logits.max(axis=1, keepdims=True)
    exp_shift = np.exp(logits - row_max)
    denom = exp_shift.sum(axis=1)
    log_denom = np.log(denom) + row_max[:, 0]
    pos_logit = logits[np.arange(two_n), pos]
    per_pair = log_denom - pos_logit
    loss = float(per_pair.mean())

    # dloss/dS: softmax over each row minus the positive indicator, /(tau*2N)
    softmax = exp_shift / denom[:, None]
    softmax[np.arange(two_n), pos] -= 1.0
    a = softmax / (temperature * two_n)
    w = a + a.T
    row_dot = np.sum(w * sim, axis=1, keepdims=True)
    grad = (w @ u - row_dot * u) / norms
    grad[zero[:, 0]] = 0.0
    return loss, per_pair, grad


# ---------------------------------------------------------------------------
# Pretraining
# ---------------------------------------------------------------------------


@dataclass
class PretrainConfig:
    batch_size: int = 256
    max_epochs: int = 200
    patience: int = 10
    val_fraction: float = 0.2
    seed: int = 0
    warmup_epochs: int = 20
    peak_lr: float = 0.1

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigError("batch size must be at least 2")
        if not 0 <= self.val_fraction < 1:
            raise ConfigError("val_fraction must lie in [0, 1)")
        check_stopping(self)
        for name in ("warmup_epochs", "peak_lr"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")


def _make_views(x_batch, indices, policy, seed, stream, epoch):
    lefts, rights = [], []
    for gid, x in zip(indices, x_batch):
        rng = window_rng(seed, stream, epoch, int(gid))
        left, right = apply_policy(x, policy, rng)
        lefts.append(left)
        rights.append(right)
    return np.stack(lefts + rights)


def _epoch_batches(order: np.ndarray, batch_size: int):
    full = len(order) - len(order) % batch_size
    for start in range(0, full, batch_size):
        yield order[start : start + batch_size]


def pretrain(
    graph: ModelGraph,
    windows: np.ndarray,
    policy: AugmentationPolicy,
    config: PretrainConfig,
) -> tuple[ModelGraph, list[EpochStats]]:
    """Contrastive pretraining with LARS under the warmup+cosine schedule.

    Windows are split 80/20 into train/validation (seeded); each epoch every
    training batch is re-augmented into two views. Early stopping watches the
    validation NT-Xent (computed with fixed per-window augmentation streams so
    the metric reflects the model, not fresh noise). The weights with the best
    validation loss are restored before returning.
    """
    x_all = np.asarray(windows, dtype=np.float32)
    if x_all.ndim != 2:
        raise ConfigError(f"windows must be (n, window_len), got {x_all.shape}")
    n = x_all.shape[0]
    if n < 2 * config.batch_size:
        raise ConfigError(
            f"need at least 2N={2 * config.batch_size} windows for pretraining, got {n}"
        )

    split_rng = window_rng(config.seed, "pretrain-split")
    perm = split_rng.permutation(n)
    n_val = int(round(config.val_fraction * n))
    val_idx = perm[:n_val]
    train_idx = perm[n_val:]

    schedule = LrSchedule(
        total_epochs=config.max_epochs,
        warmup_epochs=config.warmup_epochs,
        peak_lr=config.peak_lr,
    )
    optimizer = Lars(graph.named_params(trainable_only=True))

    def validation_loss() -> float:
        losses = []
        batches = list(_epoch_batches(val_idx, config.batch_size))
        if not batches and len(val_idx) >= 2:
            batches = [val_idx]
        for batch in batches:
            z = graph.forward(_make_views(x_all[batch], batch, policy, config.seed, "val", 0))
            losses.append(nt_xent_grad(z, TEMPERATURE)[0])
        return float(np.mean(losses)) if losses else float("nan")

    def run_epoch(epoch: int) -> EpochStats:
        lr = schedule.lr(epoch)
        epoch_rng = window_rng(config.seed, "pretrain-shuffle", epoch)
        order = train_idx[epoch_rng.permutation(len(train_idx))]
        batch_losses = []
        for batch in _epoch_batches(order, config.batch_size):
            # the views die once the forward returns: every block caches its own copy
            z = graph.forward(_make_views(x_all[batch], batch, policy, config.seed, "train", epoch),
                              training=True)
            loss, _, dz = nt_xent_grad(z, TEMPERATURE)
            graph.backward(dz.astype(graph.dtype))
            optimizer.step(graph.named_grads(trainable_only=True), lr)
            batch_losses.append(loss)
        if not batch_losses:
            raise ConfigError("training split yields no full batch")
        return EpochStats(epoch + 1, float(np.mean(batch_losses)), validation_loss(), lr)

    history = early_stopping(graph, run_epoch, config.max_epochs, config.patience)
    return graph, history
