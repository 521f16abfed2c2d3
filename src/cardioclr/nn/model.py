"""The encoder/head graph: 5 conv -> max-pool -> ReLU blocks (one fused
`Conv1d` layer each), then either a projection head for contrastive
pretraining or a 3-layer classification head with dropout."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, ShapeError, StateError
from .layers import Conv1d, Dense, Dropout, ReLU

PROJECTION = "projection"
CLASSIFIER = "classifier"

# Windows per encoder pass in `embed`, and feature rows per head pass when
# heads are scored: one pass over a whole store would allocate each layer's
# activations for the whole store.
EVAL_CHUNK = 256

DROPOUT = 0.5  # between the classification head's dense layers, as in SimCLR
CLASSIFIER_WIDTHS = (128, 64)  # the classification head's hidden layers


@dataclass(frozen=True)
class EncoderConfig:
    """Encoder hyperparameters. The defaults are the declared full-size
    architecture; tests and desk-scale runs shrink channels and kernels."""

    channels: tuple = (8, 16, 32, 64, 128)
    kernels: tuple = (64, 32, 16, 8, 8)
    pool_widths: tuple = (4, 4, 4, 4, 4)
    input_len: int = 10000
    projection_dim: int = 128

    def __post_init__(self):
        if not len(self.channels) == len(self.kernels) == len(self.pool_widths):
            raise ConfigError("channels, kernels and pool_widths must align")
        if not self.channels:
            raise ConfigError("the encoder needs at least one block")
        for name, value in vars(self).items():
            if min(value if isinstance(value, tuple) else (value,)) < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")

    def feature_shape(self) -> tuple[int, int]:
        length = self.input_len
        for width in self.pool_widths:
            length = length // width
            if length == 0:
                raise ConfigError("input too short for the pooling pyramid")
        return self.channels[-1], length

    def feature_dim(self) -> int:
        c, length = self.feature_shape()
        return c * length


class ModelGraph:
    def __init__(self, encoder_cfg: EncoderConfig, rng: np.random.Generator, dtype=np.float32):
        self.encoder_cfg = encoder_cfg
        self.dtype = dtype
        in_channels = (1,) + encoder_cfg.channels[:-1]
        self.encoder_layers = [Conv1d(*shape, rng, dtype) for shape in zip(
            in_channels, encoder_cfg.channels, encoder_cfg.kernels, encoder_cfg.pool_widths)]
        self.head_layers: list = []
        self.head_kind: str | None = None
        self.n_out: int | None = None
        self.encoder_frozen = False

    # -- construction -------------------------------------------------------

    def set_projection_head(self, rng: np.random.Generator) -> None:
        self.head_layers = [
            Dense(self.encoder_cfg.feature_dim(), self.encoder_cfg.projection_dim, rng, self.dtype)
        ]
        self.head_kind = PROJECTION
        self.n_out = self.encoder_cfg.projection_dim

    def set_classifier_head(self, n_out: int, seed: int) -> None:
        """A fresh classification head, drawn from `seed` alone, replaces any head."""
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xC)))
        feat = self.encoder_cfg.feature_dim()
        h1, h2 = CLASSIFIER_WIDTHS
        self.head_layers = [
            Dense(feat, h1, rng, self.dtype),
            ReLU(),
            Dropout(DROPOUT),
            Dense(h1, h2, rng, self.dtype),
            ReLU(),
            Dropout(DROPOUT),
            Dense(h2, n_out, rng, self.dtype),
        ]
        self.head_kind = CLASSIFIER
        self.n_out = n_out

    def freeze_encoder(self) -> None:
        """From now on the encoder only runs forward: `backward` raises, the head
        is dropped, and the trainable parameters are those of the head set next."""
        self.encoder_frozen = True
        self.head_layers, self.head_kind, self.n_out = [], None, None

    # -- execution ----------------------------------------------------------

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        cfg = self.encoder_cfg
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim == 2:
            x = x[:, None, :]
        if x.ndim != 3 or x.shape[1] != 1 or x.shape[2] != cfg.input_len:
            raise ShapeError(f"expected (B, 1, {cfg.input_len}) input, got {x.shape}")
        return x

    def _encode(self, x, training=False, rng=None) -> np.ndarray:
        """Flattened encoder output of a checked (B, C, L) batch."""
        out = x
        for layer in self.encoder_layers:
            out = layer.forward(out, training=training, rng=rng)
        return np.ascontiguousarray(out).reshape(out.shape[0], -1)

    def forward(self, x, training=False, rng=None) -> np.ndarray:
        features = self._encode(self._check_input(x), training=training, rng=rng)
        return self.head_forward(features, training=training, rng=rng)

    def head_forward(self, features, training=False, rng=None) -> np.ndarray:
        out = features
        for layer in self.head_layers:
            out = layer.forward(out, training=training, rng=rng)
        return out

    def backward(self, grad_out) -> None:
        """Gradients of every layer of an unfrozen graph."""
        if self.encoder_frozen:
            raise StateError("backward through a frozen encoder; train the head with "
                             "head_backward")
        grad = self.head_backward(grad_out)
        grad = grad.reshape(grad.shape[0], *self.encoder_cfg.feature_shape())
        for i in range(len(self.encoder_layers) - 1, -1, -1):
            grad = self.encoder_layers[i].backward(grad, compute_input_grad=i > 0)

    def head_backward(self, grad_out, compute_input_grad=True):
        grad = grad_out
        for i in range(len(self.head_layers) - 1, -1, -1):
            need = compute_input_grad or i > 0
            grad = self.head_layers[i].backward(grad, compute_input_grad=need)
        return grad

    def embed(self, x) -> np.ndarray:
        """Eval-mode flattened encoder features of windows, `EVAL_CHUNK`
        windows per encoder pass. Each window's features depend on that
        window alone, so any row subset of `embed(x)` equals the embedding
        of that subset."""
        x = self._check_input(x)
        out = np.empty((x.shape[0], self.encoder_cfg.feature_dim()), dtype=self.dtype)
        for start in range(0, x.shape[0], EVAL_CHUNK):
            out[start : start + EVAL_CHUNK] = self._encode(x[start : start + EVAL_CHUNK])
        return out

    # -- parameter access ---------------------------------------------------

    def _layer_items(self, encoder=True):
        # block i is named for its conv's index in a conv/pool/ReLU layer
        # stack, so checkpoints written before the blocks were fused load
        for i, layer in enumerate(self.encoder_layers if encoder else ()):
            yield f"enc{3 * i}", layer
        for i, layer in enumerate(self.head_layers):
            yield f"head{i}", layer

    def _named(self, kind: str, trainable_only: bool) -> list[tuple[str, np.ndarray]]:
        items = self._layer_items(encoder=not (trainable_only and self.encoder_frozen))
        return [(f"{name}.{key}", arr) for name, layer in items
                for key, arr in getattr(layer, kind)().items()]

    def named_params(self, trainable_only=False) -> list[tuple[str, np.ndarray]]:
        return self._named("params", trainable_only)

    def named_grads(self, trainable_only=False) -> list[tuple[str, np.ndarray]]:
        return self._named("grads", trainable_only)

    def snapshot(self) -> list[np.ndarray]:
        return [arr.copy() for _, arr in self.named_params()]

    def restore(self, snap: list[np.ndarray]) -> None:
        params = self.named_params()
        if len(snap) != len(params):
            raise StateError("snapshot does not match the current graph")
        for (_, arr), saved in zip(params, snap):
            arr[...] = saved

    def encoder_bytes(self) -> bytes:
        return b"".join(np.ascontiguousarray(arr, dtype="<f4").tobytes()
                        for layer in self.encoder_layers for arr in layer.params().values())


def param_count(cfg: EncoderConfig, head: str | None, n_out: int | None) -> int:
    """Parameters of the graph of encoder `cfg` with a `head` (None,
    PROJECTION or CLASSIFIER) of `n_out` outputs, counted without building it."""
    # the first block takes one channel; zip stops at the last block
    count = sum(cout * (cin * k + 1) for cin, cout, k in zip((1, *cfg.channels), cfg.channels,
                                                            cfg.kernels))
    widths = {PROJECTION: (cfg.projection_dim,),
              CLASSIFIER: (*CLASSIFIER_WIDTHS, n_out)}.get(head, ())
    for fan_in, width in zip((cfg.feature_dim(), *widths), widths):
        count += (fan_in + 1) * width
    return count


def build_ssl_graph(cfg: EncoderConfig, seed: int) -> ModelGraph:
    """Float32 encoder plus 128-D projection head, seeded init."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xE)))
    graph = ModelGraph(cfg, rng)
    graph.set_projection_head(rng)
    return graph
