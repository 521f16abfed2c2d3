"""Central finite-difference verification of every analytic gradient.

All checks run in float64 with h=1e-5 on small randomized shapes. Inputs
(for the encoder block, its conv outputs) are kept away from ReLU kinks and
max-pool ties so the numeric derivative is well defined.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .layers import Conv1d, Dense, Dropout, MaxPool1d, ReLU
from .losses import binary_cross_entropy_loss, cross_entropy_loss
from .model import EncoderConfig, ModelGraph

H = 1e-5
TOLERANCE = 1e-4


def numeric_gradient(fn, arr: np.ndarray) -> np.ndarray:
    """Central differences of a scalar function w.r.t. every array element."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + H
        fplus = fn()
        flat[i] = orig - H
        fminus = fn()
        flat[i] = orig
        gflat[i] = (fplus - fminus) / (2.0 * H)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _no_kinks(rng, shape):
    """Random values at least 5e-3 away from zero (ReLU kinks)."""
    x = rng.uniform(5e-3, 1.0, size=shape)
    return x * rng.choice([-1.0, 1.0], size=shape)


def _pool_blocks(x, width):
    """(..., L // width, width) blocks of the usable part of x."""
    length = x.shape[-1] - x.shape[-1] % width
    return x[..., :length].reshape(*x.shape[:-1], length // width, width)


def _tie_free(x, width):
    top2 = np.sort(_pool_blocks(x, width), axis=-1)[..., -2:]
    return width == 1 or np.min(top2[..., 1] - top2[..., 0]) > 1e-3


def _no_ties(rng, shape, width):
    """Random values whose max-pool windows have no near-ties."""
    while True:
        x = rng.uniform(-1.0, 1.0, size=shape)
        if _tie_free(x, width):
            return x


def _conv(layer, x):
    """The block's same-padded convolution before pooling, by definition."""
    k = layer.kernel
    xp = np.pad(x, ((0, 0), (0, 0), (k // 2, k - 1 - k // 2)))
    win = sliding_window_view(xp, k, axis=2)  # (B, Cin, L, K)
    return np.einsum("ock,bctk->bot", layer.w, win) + layer.b[:, None]


def _check_layer(layer, x, rng, fwd_rng_seed=None):
    """max relative error over input grad and every parameter grad.

    The scalar objective is sum(out * R) for a fixed random R, from training
    forwards (an eval forward keeps no cache to backpropagate); dropout uses
    a reseeded rng per forward so the mask is constant across FD evaluations.
    """

    def fwd():
        rng_f = np.random.default_rng(fwd_rng_seed) if fwd_rng_seed is not None else None
        return layer.forward(x, training=True, rng=rng_f)

    probe = rng.uniform(-1.0, 1.0, size=fwd().shape)

    def objective():
        return float(np.sum(fwd() * probe))

    objective()  # populate caches
    dx = layer.backward(probe.copy())
    errs = [relative_error(dx, numeric_gradient(objective, x))]
    analytic = {k: v.copy() for k, v in layer.grads().items()}
    for key, param in layer.params().items():
        errs.append(relative_error(analytic[key], numeric_gradient(objective, param)))
    return max(errs)


def check_dense(rng) -> float:
    b, din, dout = rng.integers(1, 5), rng.integers(1, 7), rng.integers(1, 6)
    layer = Dense(int(din), int(dout), rng, dtype=np.float64)
    x = rng.uniform(-1, 1, (int(b), int(din)))
    return _check_layer(layer, x, rng)


def check_conv_block(rng) -> float:
    """Conv -> max-pool -> ReLU on inputs whose conv outputs have neither
    pool ties nor pooled maxima near the ReLU kink."""
    b, cin, cout = rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 4)
    k, width = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    length = int(rng.integers(max(k, 4, width), 14))
    layer = Conv1d(int(cin), int(cout), k, width, rng, dtype=np.float64)
    layer.b[...] = rng.uniform(-0.5, 0.5, int(cout))
    while True:
        x = rng.uniform(-1, 1, (int(b), int(cin), length))
        conv = _conv(layer, x)
        if _tie_free(conv, width) and np.min(np.abs(_pool_blocks(conv, width).max(-1))) > 1e-3:
            return _check_layer(layer, x, rng)


def check_relu(rng) -> float:
    layer = ReLU()
    x = _no_kinks(rng, (int(rng.integers(1, 4)), int(rng.integers(2, 10))))
    return _check_layer(layer, x, rng)


def check_maxpool(rng) -> float:
    width = int(rng.integers(2, 5))
    length = int(rng.integers(width, 4 * width + 2))
    shape = (int(rng.integers(1, 3)), int(rng.integers(1, 4)), length)
    layer = MaxPool1d(width)
    x = _no_ties(rng, shape, width)
    return _check_layer(layer, x, rng)


def check_dropout(rng) -> float:
    layer = Dropout(rate=0.5)
    x = rng.uniform(0.5, 1.5, (int(rng.integers(1, 4)), int(rng.integers(2, 8))))
    return _check_layer(layer, x, rng, fwd_rng_seed=int(rng.integers(1 << 30)))


def _check_loss(loss_fn, logits, labels) -> float:
    """`loss_fn(logits, labels)` gives (loss, dloss/dlogits)."""
    numeric = numeric_gradient(lambda: loss_fn(logits, labels)[0], logits)
    return relative_error(loss_fn(logits, labels)[1], numeric)


def check_softmax_ce(rng) -> float:
    b, n = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    return _check_loss(cross_entropy_loss, rng.uniform(-2, 2, (b, n)), rng.integers(0, n, b))


def check_binary_ce(rng) -> float:
    b = int(rng.integers(2, 8))
    return _check_loss(binary_cross_entropy_loss, rng.uniform(-2, 2, (b, 1)),
                       rng.integers(0, 2, b))


def check_nt_xent(rng) -> float:
    from ..contrastive import nt_xent_grad

    n = int(rng.integers(2, 5))
    z = rng.uniform(-1, 1, (2 * n, int(rng.integers(2, 6))))
    tau = 0.1

    def objective():
        return nt_xent_grad(z, tau)[0]

    analytic = nt_xent_grad(z, tau)[2]
    return relative_error(analytic, numeric_gradient(objective, z))


def check_two_block_model(rng) -> float:
    """Full backprop through a 2-block toy encoder + small dense head."""
    cfg = EncoderConfig(
        channels=(2, 3), kernels=(3, 3), pool_widths=(2, 2),
        input_len=16, projection_dim=4,
    )
    graph = ModelGraph(cfg, rng, dtype=np.float64)
    # same machinery as the full classifier head, desk-sized for FD speed
    graph.head_layers = [
        Dense(cfg.feature_dim(), 5, rng, np.float64),
        ReLU(),
        Dropout(0.0),
        Dense(5, 3, rng, np.float64),
    ]
    graph.head_kind = "classifier"
    graph.n_out = 3
    x = rng.uniform(0.1, 1.0, (2, 1, 16)) * rng.choice([-1.0, 1.0], (2, 1, 16))
    labels = rng.integers(0, 3, 2)

    def objective():
        return cross_entropy_loss(graph.forward(x, training=True), labels)[0]

    graph.backward(cross_entropy_loss(graph.forward(x, training=True), labels)[1])
    errs = []
    analytic = {name: g.copy() for name, g in graph.named_grads()}
    for name, param in graph.named_params():
        errs.append(relative_error(analytic[name], numeric_gradient(objective, param)))
    return max(errs)


LAYER_CHECKS = {
    "dense": check_dense,
    "conv_block": check_conv_block,
    "relu": check_relu,
    "maxpool": check_maxpool,
    "dropout": check_dropout,
    "softmax_ce": check_softmax_ce,
    "binary_ce": check_binary_ce,
    "nt_xent": check_nt_xent,
    "two_block_model": check_two_block_model,
}


def run_gradient_suite(seed: int = 0, trials_per_check: int = 6) -> dict[str, float]:
    """Run every check `trials_per_check` times; returns max error per check."""
    report = {}
    for idx, (name, check) in enumerate(LAYER_CHECKS.items()):
        worst = 0.0
        for trial in range(trials_per_check):
            rng = np.random.default_rng(np.random.SeedSequence((seed, idx, trial)))
            worst = max(worst, check(rng))
        report[name] = worst
    return report
