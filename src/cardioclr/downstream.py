"""Classification heads on top of the (frozen) encoder, plus evaluation.

Heads train and are scored on frozen-encoder features (`ModelGraph.embed`),
never on windows: the caller embeds each window store once per encoder and
indexes its splits out of those features, as in SimCLR's linear evaluation.
Only the fully supervised baseline trains on windows.

Two task types exist: `binary` (normal vs abnormal, shared across datasets)
and `all` (the dataset's own label set). A 1-logit head thresholds the
sigmoid at 0.5; wider heads take the argmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import window_rng
from .errors import ConfigError, DataError, ShapeError
from .nn.losses import decisions, task_loss
from .nn.model import CLASSIFIER, EVAL_CHUNK, ModelGraph
from .nn.optim import Adam, EpochStats, check_stopping, early_stopping
from .signal_io import LABEL_SETS, ABNORMAL, NORMAL

# dropout between the head's dense layers, fixed as in SimCLR's recipe
DROPOUT = 0.5


@dataclass(frozen=True)
class TaskSpec:
    dataset_tag: str
    task_type: str  # "all" | "binary"

    def __post_init__(self):
        if self.task_type not in ("all", "binary"):
            raise ConfigError(f"unknown task type {self.task_type!r}")
        if self.dataset_tag not in LABEL_SETS:
            raise ConfigError(f"dataset {self.dataset_tag!r} has no labels")

    @property
    def class_names(self) -> tuple[str, ...]:
        # every two-class label set is (normal, abnormal): `all` is `binary` there
        return (NORMAL, ABNORMAL) if self.task_type == "binary" else LABEL_SETS[self.dataset_tag]

    @property
    def n_out(self) -> int:
        n = len(self.class_names)
        return 1 if n == 2 else n

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def encode(self, metas) -> np.ndarray:
        """Integer class per window; raises on label/task mismatch."""
        out = np.empty(len(metas), dtype=np.int64)
        lookup = {name: i for i, name in enumerate(self.class_names)}
        for i, meta in enumerate(metas):
            label = meta.binary_label if self.task_type == "binary" else meta.original_label
            if label is None or label not in lookup:
                raise ConfigError(
                    f"window {meta.record_id}/{meta.window_index} has label {label!r}, "
                    f"incompatible with task {self.task_type}/{self.dataset_tag}"
                )
            out[i] = lookup[label]
        return out

    def __str__(self) -> str:
        return f"{self.dataset_tag}:{self.task_type}"


@dataclass
class MetricsRecord:
    accuracy: float
    micro_f1: float
    macro_f1: float
    confusion: np.ndarray
    n_windows: int


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> np.ndarray:
    conf = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(conf, (y_true, y_pred), 1)
    return conf


def per_class_f1(conf: np.ndarray, cls: int) -> float:
    tp = conf[cls, cls]
    fp = conf[:, cls].sum() - tp
    fn = conf[cls, :].sum() - tp
    denom = 2 * tp + fp + fn
    return float(2 * tp / denom) if denom else 0.0


def metrics_from_confusion(conf: np.ndarray) -> MetricsRecord:
    n = int(conf.sum())
    if n == 0:
        raise DataError("empty confusion matrix")
    tp = np.trace(conf)
    accuracy = float(tp / n)
    # micro: pool TP/FP/FN globally; for single-label decisions this equals
    # accuracy, which the tests pin down as an identity
    fp = conf.sum(axis=0) - np.diag(conf)
    fn = conf.sum(axis=1) - np.diag(conf)
    micro = float(2 * tp / (2 * tp + fp.sum() + fn.sum()))
    macro = float(np.mean([per_class_f1(conf, c) for c in range(conf.shape[0])]))
    return MetricsRecord(accuracy, micro, macro, conf, n)


def evaluate(graph: ModelGraph, features: np.ndarray, metas, task: TaskSpec) -> MetricsRecord:
    """Metrics of the graph's head on the frozen-encoder features of labeled
    windows (`graph.embed`), one row per entry of `metas`; scored
    `EVAL_CHUNK` rows per head pass. Pure and order-independent."""
    if len(metas) == 0:
        raise DataError("cannot evaluate on an empty window set")
    if len(features) != len(metas):
        raise ShapeError(f"{len(features)} feature rows for {len(metas)} windows")
    if graph.head_kind != CLASSIFIER:
        raise ConfigError("evaluate needs a graph with a classification head")
    if graph.n_out != task.n_out:
        raise ConfigError(f"head width {graph.n_out} does not match task {task}")
    y_true = task.encode(metas)
    y_pred = np.concatenate([
        decisions(graph.head_forward(features[start : start + EVAL_CHUNK]))
        for start in range(0, len(features), EVAL_CHUNK)
    ])
    return metrics_from_confusion(confusion_matrix(y_true, y_pred, task.n_classes))


# ---------------------------------------------------------------------------
# Supervised training
# ---------------------------------------------------------------------------


@dataclass
class DownstreamConfig:
    adam_lr: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch size must be positive")
        check_stopping(self)
        if self.adam_lr < 0:
            raise ConfigError("adam_lr must be non-negative")


def _training_loop(graph, predict, backprop, x_tr, y_tr, x_val, y_val, cfg):
    """Adam with early stopping on the val loss; `predict(x, training, rng)`
    gives logits and `backprop(dlogits)` fills the trainable gradients."""
    if len(y_tr) == 0:
        raise DataError("empty training split")
    optimizer = Adam(graph.named_params(trainable_only=True), lr=cfg.adam_lr)

    def val_loss() -> float:
        if len(y_val) == 0:
            return float("nan")
        losses, weights = [], []
        for start in range(0, x_val.shape[0], EVAL_CHUNK):
            xb, yb = x_val[start : start + EVAL_CHUNK], y_val[start : start + EVAL_CHUNK]
            losses.append(task_loss(predict(xb, False, None), yb)[0])
            weights.append(len(yb))
        return float(np.average(losses, weights=weights))

    def run_epoch(epoch: int) -> EpochStats:
        order = window_rng(cfg.seed, "head-shuffle", epoch).permutation(len(y_tr))
        batch_losses, batch_sizes = [], []
        for bi, start in enumerate(range(0, len(order), cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            rng = window_rng(cfg.seed, "head-dropout", epoch, bi)
            logits = predict(x_tr[idx], True, rng)
            loss, dlogits = task_loss(logits, y_tr[idx])
            backprop(dlogits)
            optimizer.step(graph.named_grads(trainable_only=True))
            batch_losses.append(loss)
            batch_sizes.append(len(idx))
        train_loss = float(np.average(batch_losses, weights=batch_sizes))
        return EpochStats(epoch + 1, train_loss, val_loss(), cfg.adam_lr)

    return early_stopping(graph, run_epoch, cfg.max_epochs, cfg.patience)


def train_head(
    graph: ModelGraph,
    task: TaskSpec,
    train: tuple[np.ndarray, np.ndarray],
    val: tuple[np.ndarray, np.ndarray],
    config: DownstreamConfig,
) -> tuple[ModelGraph, list[EpochStats]]:
    """Attach a fresh classification head to a frozen encoder and train it.

    `train` and `val` are `(features, labels)`, the features taken from
    `graph.embed`. The encoder is frozen, so training the head on them is
    the same as full forward/backward passes, and far cheaper.
    """
    if not graph.encoder_frozen:
        raise ConfigError("train_head expects a frozen encoder (freeze_encoder first)")
    graph.set_classifier_head(task.n_out, config.seed, DROPOUT)
    history = _training_loop(graph, graph.head_forward,
                             lambda dlogits: graph.head_backward(dlogits, compute_input_grad=False),
                             *train, *val, config)
    return graph, history


def train_baseline(
    graph: ModelGraph,
    task: TaskSpec,
    train: tuple[np.ndarray, np.ndarray],
    val: tuple[np.ndarray, np.ndarray],
    config: DownstreamConfig,
) -> tuple[ModelGraph, list[EpochStats]]:
    """Fully supervised baseline with a fresh head: same architecture and regimen, none frozen."""
    if graph.encoder_frozen:
        raise ConfigError("baseline training expects an unfrozen graph")
    graph.set_classifier_head(task.n_out, config.seed, DROPOUT)
    history = _training_loop(graph, graph.forward, graph.backward, *train, *val, config)
    return graph, history
