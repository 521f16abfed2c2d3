"""Layers with explicit forward/backward passes.

Shapes follow the (batch, channels, length) convention for convolutional
layers and (batch, features) for dense ones. Every layer keeps what its
backward pass needs in `_cache`; calling backward without a prior forward
is an error.
Frozen layers still propagate input gradients but report zero parameter
gradients and are skipped by the optimizers.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError, StateError


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Layer:
    frozen = False
    # what forward keeps for backward (None before any forward);
    # `ModelGraph.clear_caches` resets it
    _cache = None

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def grads(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, x, training=False, rng=None):
        raise NotImplementedError

    def backward(self, grad_out, compute_input_grad=True):
        raise NotImplementedError

    def _cached(self):
        if self._cache is None:
            raise StateError(f"{type(self).__name__}.backward called before forward")
        return self._cache


# Bytes of im2col one GEMM call covers. Short-L layers take several
# samples per call; a sample whose im2col alone exceeds this goes alone.
IM2COL_BUDGET = 1 << 20


class Conv1d(Layer):
    """Stride-1, same-padded 1D convolution.

    out[b,o,t] = bias[o] + sum_{c,k} w[o,c,k] * in[b,c,t+k-K//2]

    im2col GEMMs (Chellapilla et al. 2006) over groups of consecutive
    samples, as many as fit the im2col budget (one at long L, up to hundreds
    at short L). Each pass builds one window view of the padded batch and
    copies a group's (n, Cin*K, L) im2col out of it. Per group, each pass is
    one stacked `np.matmul`: forward multiplies the (Cout, Cin*K) weights by
    the im2col straight into the output; the weight gradient is the im2col
    times the transposed output gradient, cols · gᵀ (BLAS runs this
    orientation faster than g · colsᵀ), summed over the group and added
    transposed; the input gradient is the transposed weights times the
    output gradient, folded back onto the padded input by K shifted adds.
    """

    def __init__(self, in_channels, out_channels, kernel, rng, dtype=np.float32):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.w = _kaiming_uniform(
            rng, (out_channels, in_channels, kernel), in_channels * kernel, dtype
        )
        self.b = np.zeros(out_channels, dtype=dtype)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)

    def params(self):
        return {"w": self.w, "b": self.b}

    def grads(self):
        return {"w": self.gw, "b": self.gb}

    def group_size(self, length):
        """Samples per GEMM call at input length `length`."""
        sample_bytes = self.w.itemsize * self.in_channels * self.kernel * length
        return max(1, IM2COL_BUDGET // sample_bytes)

    def _groups(self, batch, length):
        n = self.group_size(length)
        return [slice(s, min(s + n, batch)) for s in range(0, batch, n)]

    @staticmethod
    def _cols(win, group):
        """(n, Cin*K, L) contiguous im2col of a group of the window view."""
        cols = np.ascontiguousarray(win[group])
        return cols.reshape(len(cols), -1, cols.shape[3])

    def forward(self, x, training=False, rng=None):
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv expects (B, {self.in_channels}, L), got {x.shape}"
            )
        k = self.kernel
        pl = k // 2
        xp = np.pad(np.asarray(x, dtype=self.w.dtype), ((0, 0), (0, 0), (pl, k - 1 - pl)))
        w2 = self.w.reshape(self.out_channels, -1)
        out = np.empty((x.shape[0], self.out_channels, x.shape[2]), dtype=self.w.dtype)
        win = sliding_window_view(xp, x.shape[2], axis=2)
        for group in self._groups(x.shape[0], x.shape[2]):
            np.matmul(w2, self._cols(win, group), out=out[group])
        out += self.b[:, None]
        self._cache = xp
        return out

    def backward(self, grad_out, compute_input_grad=True):
        xp = self._cached()
        g = np.ascontiguousarray(grad_out, dtype=self.w.dtype)
        batch, _, length = g.shape
        groups = self._groups(batch, length)
        if self.frozen:
            self.gw[...] = 0.0
            self.gb[...] = 0.0
        else:
            gw2 = self.gw.reshape(self.out_channels, -1)
            gw2[...] = 0.0
            win = sliding_window_view(xp, length, axis=2)
            for group in groups:
                g_t = g[group].transpose(0, 2, 1)
                gw2 += np.matmul(self._cols(win, group), g_t).sum(axis=0).T
            self.gb[...] = g.sum(axis=(0, 2))
        if not compute_input_grad:
            return None
        k = self.kernel
        w2t = self.w.reshape(self.out_channels, -1).T
        dxp = np.zeros_like(xp)
        for group in groups:
            dcols = np.matmul(w2t, g[group]).reshape(-1, self.in_channels, k, length)
            dst = dxp[group]
            for j in range(k):
                dst[:, :, j : j + length] += dcols[:, :, j]
        pl = k // 2
        return dxp[:, :, pl : pl + length]


class ReLU(Layer):
    """max(x, 0) that lets NaN through (so it reaches the non-finite loss
    check) and gives +0.0 for every x <= 0, -0.0 included."""

    def forward(self, x, training=False, rng=None):
        self._cache = x <= 0
        return np.where(self._cache, 0, x)

    def backward(self, grad_out, compute_input_grad=True):
        return np.where(self._cached(), 0, grad_out)


class MaxPool1d(Layer):
    """Non-overlapping max pooling; a trailing remainder shorter than the
    pool width is dropped.

    Forward is a running `np.maximum` over the W strided taps
    x[:, :, j:usable:W] (NaN propagates); the index of the first maximum is
    kept in the smallest unsigned dtype that holds W-1 and updated without
    branches. Backward writes the gradient through the same taps.
    """

    def __init__(self, width):
        self.width = width

    def forward(self, x, training=False, rng=None):
        width = self.width
        usable = x.shape[2] - x.shape[2] % width
        out = x[:, :, 0:usable:width].copy()
        arg = np.zeros(out.shape, dtype=np.min_scalar_type(width - 1))
        for j in range(1, width):
            tap = x[:, :, j:usable:width]
            gt = tap > out  # strict, so a tie keeps the first maximum
            arg *= ~gt
            arg += gt * arg.dtype.type(j)
            np.maximum(out, tap, out=out)
        self._cache = (x.shape, usable, arg)
        return out

    def backward(self, grad_out, compute_input_grad=True):
        x_shape, usable, arg = self._cached()
        dx = np.zeros(x_shape, dtype=grad_out.dtype)
        for j in range(self.width):
            np.multiply(grad_out, arg == j, out=dx[:, :, j:usable:self.width])
        return dx


class Dense(Layer):
    def __init__(self, in_dim, out_dim, rng, dtype=np.float32):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.w = _kaiming_uniform(rng, (in_dim, out_dim), in_dim, dtype)
        self.b = np.zeros(out_dim, dtype=dtype)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)

    def params(self):
        return {"w": self.w, "b": self.b}

    def grads(self):
        return {"w": self.gw, "b": self.gb}

    def forward(self, x, training=False, rng=None):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"dense expects (B, {self.in_dim}), got {x.shape}")
        x = np.ascontiguousarray(x, dtype=self.w.dtype)
        self._cache = x
        return x @ self.w + self.b

    def backward(self, grad_out, compute_input_grad=True):
        x = self._cached()
        g = np.ascontiguousarray(grad_out, dtype=self.w.dtype)
        if self.frozen:
            self.gw[...] = 0.0
            self.gb[...] = 0.0
        else:
            self.gw[...] = x.T @ g
            self.gb[...] = g.sum(axis=0)
        if not compute_input_grad:
            return None
        return g @ self.w.T


class Dropout(Layer):
    """Inverted dropout: kept activations scale by 1/(1-rate) in training
    mode; identity in eval mode. The cache is the keep mask, or True after
    an identity pass."""

    def __init__(self, rate=0.5):
        self.rate = rate

    def forward(self, x, training=False, rng=None):
        if not training or self.rate == 0.0:
            self._cache = True
            return x
        if rng is None:
            raise StateError("dropout in training mode needs an rng")
        self._cache = (rng.random(x.shape) >= self.rate).astype(x.dtype)
        return x * self._cache / (1.0 - self.rate)

    def backward(self, grad_out, compute_input_grad=True):
        mask = self._cached()
        if mask is True:
            return grad_out
        return grad_out * mask / (1.0 - self.rate)
