"""Layers with explicit forward/backward passes.

Shapes follow the (batch, channels, length) convention for convolutional
layers and (batch, features) for dense ones. Every layer caches what its
backward pass needs; calling backward without a prior forward is an error.
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

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def grads(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, x, training=False, rng=None):
        raise NotImplementedError

    def backward(self, grad_out, compute_input_grad=True):
        raise NotImplementedError

    def _require_cache(self, cache):
        if cache is None:
            raise StateError(f"{type(self).__name__}.backward called before forward")


class Conv1d(Layer):
    """Stride-1, same-padded 1D convolution.

    out[b,o,t] = bias[o] + sum_{c,k} w[o,c,k] * in[b,c,t+k-K//2]

    Each sample is one GEMM (Chellapilla et al. 2006): the (Cout, Cin*K)
    weights times the (Cin*K, L) im2col of that sample, written straight
    into the output. The input gradient is the transposed GEMM, folded back
    onto the padded input by K shifted adds.
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
        self._cache = None

    def params(self):
        return {"w": self.w, "b": self.b}

    def grads(self):
        return {"w": self.gw, "b": self.gb}

    def _cols(self, xp, s):
        """(Cin*K, L) im2col of sample s of the padded input."""
        length = xp.shape[2] - self.kernel + 1
        win = sliding_window_view(xp[s], length, axis=1)  # (Cin, K, L)
        return np.ascontiguousarray(win.reshape(self.in_channels * self.kernel, length))

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
        for s in range(x.shape[0]):
            np.matmul(w2, self._cols(xp, s), out=out[s])
        out += self.b[:, None]
        self._cache = xp
        return out

    def backward(self, grad_out, compute_input_grad=True):
        self._require_cache(self._cache)
        xp = self._cache
        g = np.ascontiguousarray(grad_out, dtype=self.w.dtype)
        batch, _, length = g.shape
        if self.frozen:
            self.gw[...] = 0.0
            self.gb[...] = 0.0
        else:
            gw2 = self.gw.reshape(self.out_channels, -1)
            gw2[...] = 0.0
            for s in range(batch):
                gw2 += g[s] @ self._cols(xp, s).T
            self.gb[...] = g.sum(axis=(0, 2))
        if not compute_input_grad:
            return None
        k = self.kernel
        w2t = self.w.reshape(self.out_channels, -1).T
        dxp = np.zeros_like(xp)
        for s in range(batch):
            dcols = (w2t @ g[s]).reshape(self.in_channels, k, length)
            for j in range(k):
                dxp[s, :, j : j + length] += dcols[:, j]
        pl = k // 2
        return dxp[:, :, pl : pl + length]


class ReLU(Layer):
    """max(x, 0) that lets NaN through (so it reaches the non-finite loss
    check) and gives +0.0 for every x <= 0, -0.0 included."""

    def __init__(self):
        self._off = None

    def forward(self, x, training=False, rng=None):
        self._off = x <= 0
        return np.where(self._off, 0, x)

    def backward(self, grad_out, compute_input_grad=True):
        self._require_cache(self._off)
        return np.where(self._off, 0, grad_out)


class MaxPool1d(Layer):
    """Non-overlapping max pooling; a trailing remainder shorter than the
    pool width is dropped."""

    def __init__(self, width):
        self.width = width
        self._cache = None

    def forward(self, x, training=False, rng=None):
        b, c, length = x.shape
        usable = length - length % self.width
        blocks = x[:, :, :usable].reshape(b, c, usable // self.width, self.width)
        # Pool-offset-major copy: max and argmax become whole-row elementwise
        # ops rather than reductions over a short trailing axis.
        taps = np.ascontiguousarray(np.moveaxis(blocks, 3, 0))
        out = taps.max(axis=0)
        arg = np.zeros(out.shape, dtype=np.intp)
        for j in range(self.width - 1, -1, -1):  # the first maximum wins
            np.putmask(arg, taps[j] == out, j)
        self._cache = (x.shape, usable, arg)
        return out

    def backward(self, grad_out, compute_input_grad=True):
        self._require_cache(self._cache)
        x_shape, usable, arg = self._cache
        dx = np.zeros(x_shape, dtype=grad_out.dtype)
        blocks = dx[:, :, :usable].reshape(
            x_shape[0], x_shape[1], usable // self.width, self.width
        )
        np.put_along_axis(blocks, arg[..., None], grad_out[..., None], axis=3)
        return dx


class Flatten(Layer):
    def __init__(self):
        self._shape = None

    def forward(self, x, training=False, rng=None):
        self._shape = x.shape
        return np.ascontiguousarray(x).reshape(x.shape[0], -1)

    def backward(self, grad_out, compute_input_grad=True):
        self._require_cache(self._shape)
        return grad_out.reshape(self._shape)


class Dense(Layer):
    def __init__(self, in_dim, out_dim, rng, dtype=np.float32):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.w = _kaiming_uniform(rng, (in_dim, out_dim), in_dim, dtype)
        self.b = np.zeros(out_dim, dtype=dtype)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self._x = None

    def params(self):
        return {"w": self.w, "b": self.b}

    def grads(self):
        return {"w": self.gw, "b": self.gb}

    def forward(self, x, training=False, rng=None):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"dense expects (B, {self.in_dim}), got {x.shape}")
        x = np.ascontiguousarray(x, dtype=self.w.dtype)
        self._x = x
        return x @ self.w + self.b

    def backward(self, grad_out, compute_input_grad=True):
        self._require_cache(self._x)
        g = np.ascontiguousarray(grad_out, dtype=self.w.dtype)
        if self.frozen:
            self.gw[...] = 0.0
            self.gb[...] = 0.0
        else:
            self.gw[...] = self._x.T @ g
            self.gb[...] = g.sum(axis=0)
        if not compute_input_grad:
            return None
        return g @ self.w.T


class Dropout(Layer):
    """Inverted dropout: kept activations scale by 1/(1-rate) in training
    mode; identity in eval mode."""

    def __init__(self, rate=0.5):
        self.rate = rate
        self._mask = None
        self._training = False

    def forward(self, x, training=False, rng=None):
        self._training = training
        if not training or self.rate == 0.0:
            self._mask = True
            return x
        if rng is None:
            raise StateError("dropout in training mode needs an rng")
        self._mask = (rng.random(x.shape) >= self.rate).astype(x.dtype)
        return x * self._mask / (1.0 - self.rate)

    def backward(self, grad_out, compute_input_grad=True):
        if self._mask is None:
            raise StateError("Dropout.backward called before forward")
        if self._mask is True:
            return grad_out
        return grad_out * self._mask / (1.0 - self.rate)
