"""Minimal deterministic tensor/layer/optimizer engine for the 1D encoder."""

from .layers import Conv1d, Dense, Dropout, MaxPool1d, ReLU
from .losses import cross_entropy_loss, sigmoid, softmax, task_loss
from .model import EncoderConfig, ModelGraph, attach_classifier, build_ssl_graph
from .optim import Adam, Lars, LrSchedule
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "Conv1d", "Dense", "Dropout", "MaxPool1d", "ReLU",
    "cross_entropy_loss", "sigmoid", "softmax", "task_loss",
    "EncoderConfig", "ModelGraph", "attach_classifier", "build_ssl_graph",
    "Adam", "Lars", "LrSchedule",
    "load_checkpoint", "save_checkpoint",
]
