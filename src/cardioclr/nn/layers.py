"""Layers with explicit forward/backward passes.

Shapes follow the (batch, channels, length) convention for convolutional
layers and (batch, features) for dense ones. Every layer keeps what its
backward pass needs in `_cache`, and backward hands it over: a cache lives
from one forward to the next backward, and calling backward without a prior
forward is an error.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError, StateError


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Layer:
    # what forward keeps for backward (None before any forward and after a
    # backward); `ModelGraph.clear_caches` resets it
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
        """The forward's cache, handed over: a second backward raises."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise StateError(f"{type(self).__name__}.backward called before forward")
        return cache


# Bytes of im2col one GEMM call covers, and of conv output one encoder-block
# chunk holds. Short-L layers take several samples per GEMM call; a sample
# whose im2col alone exceeds this goes alone.
IM2COL_BUDGET = 1 << 20


def cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Threads an encoder block splits its chunks over: every CPU of the process.
# `protocol.run_plan`'s forked workers divide the CPUs among themselves.
THREADS = cpu_count()

# Bytes of work buffers (chunk buffer and im2col) that the runs of one
# encoder-block call hold together. Two runs of the full-size first blocks
# (3.4 MiB each) fit, so a 2-CPU box keeps both its threads there, and more
# CPUs add no buffers where a run is that large.
RUN_BUDGET = 8 << 20

# Conv FLOPs per sample below which a block runs on one thread. Its numpy
# calls are then too short for a second thread to win back the GIL hand-offs
# between them: every desk-scale block is below (at most 1.3 MFLOP), every
# full-size block above (at least 5.1 MFLOP).
THREAD_MIN_FLOPS = 4e6


def in_threads(work, runs):
    """`work(*run)` for every run: the first in this thread, each other one
    in a helper thread started for this call (so a forked child never
    inherits a pool whose threads did not survive the fork). A helper's
    error is raised here once every helper has joined."""
    errors = []

    def helper(run):
        try:
            work(*run)
        except BaseException as err:  # raised by the caller after the join
            errors.append(err)

    helpers = [threading.Thread(target=helper, args=(run,)) for run in runs[1:]]
    for thread in helpers:
        thread.start()
    try:
        work(*runs[0])
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]


def max_pool(x, width, out, arg, floor=False):
    """Non-overlapping max pooling of x (n, C, L) into `out` and its argmax
    `arg`, both (n, C, L // width); a trailing remainder shorter than the
    width is dropped.

    A running `np.maximum` over the W strided taps x[:, :, j:usable:W] (NaN
    propagates); `arg` holds the index of the first maximum, updated
    without branches. With `floor`, ReLU is folded in: every pooled value
    <= 0 (-0.0 and -inf included) becomes +0.0 and its `arg` is `width`,
    "the floor won"; NaN stays NaN.
    """
    usable = out.shape[2] * width
    out[...] = x[:, :, 0:usable:width]
    arg[...] = 0
    for j in range(1, width):
        tap = x[:, :, j:usable:width]
        gt = tap > out  # strict, so a tie keeps the first maximum
        arg *= ~gt
        arg += gt * arg.dtype.type(j)
        np.maximum(out, tap, out=out)
    if floor:
        # every arg < width, so the maximum sets exactly the floored ones
        np.maximum(arg, (out <= 0) * arg.dtype.type(width), out=arg)
        np.maximum(out, 0, out=out)
        out += 0.0  # -0.0 + 0.0 is +0.0; every other value, NaN too, stays


def unpool(g, arg, width, dx):
    """Writes the pooled gradient g through `max_pool`'s argmax into the
    usable part of dx (n, C, L): g at each first maximum, zeros elsewhere,
    and +0.0 in every tap of a window the floor won."""
    g = np.where(arg == width, 0, g)
    usable = g.shape[2] * width
    for j in range(width):
        np.multiply(g, arg == j, out=dx[:, :, j:usable:width])


class Conv1d(Layer):
    """One encoder block: a stride-1, same-padded 1D convolution, then
    non-overlapping max pooling of width `pool`, then ReLU.

    conv[b,o,t] = bias[o] + sum_{c,k} w[o,c,k] * in[b,c,t+k-K//2]
    out[b,o,u] = relu(max_{j<pool} conv[b,o,u*pool+j])

    The convolution is im2col GEMMs (Chellapilla et al. 2006) over groups
    of consecutive samples, as many as fit the im2col budget (one at long
    L, up to hundreds at short L). Each pass builds one window view of the
    padded batch and copies a group's (n, Cin*K, L) im2col out of it. The
    batch streams through in chunks, runs of whole groups whose conv output
    fits the same budget, so the full-resolution (B, Cout, L) conv output
    and its gradient are never held. Forward, per chunk: one stacked
    `np.matmul` per group of the (Cout, Cin*K) weights by the im2col into a
    chunk buffer, the bias, then `max_pool` with ReLU folded in as a floor.
    Backward, per chunk: `unpool` into a chunk-sized gradient, the weight
    gradient per group as the im2col times the transposed gradient,
    cols · gᵀ (BLAS runs this orientation faster than g · colsᵀ), summed
    over the group, the bias gradient per sample, and the input gradient as
    the transposed weights times the gradient (into the group's im2col
    buffer, which the weight gradient has read), folded by K shifted adds
    into the group's rows of the cached padded input, zeroed first: no
    input-sized gradient buffer is allocated. Only the padded input and the
    pool's argmax are cached.

    The chunks split into `THREADS` contiguous runs of whole chunks, one
    per thread (`in_threads`), where a sample's conv takes at least
    `THREAD_MIN_FLOPS`, and no more runs than `RUN_BUDGET` holds the work
    buffers of. Each run writes its own rows of the output,
    the argmax and the input gradient, into work buffers allocated by the
    calling thread. The weight-gradient group sums and per-sample bias sums
    are added after the join, in chunk order, as one thread adds them, so
    every thread count gives the same bytes.
    """

    def __init__(self, in_channels, out_channels, kernel, pool, rng, dtype=np.float32):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.pool = pool
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

    def chunk_size(self, length):
        """Samples per chunk at input length `length`: whole GEMM groups
        whose conv output fits the budget, at least one group."""
        n = self.group_size(length)
        group_bytes = n * self.w.itemsize * self.out_channels * length
        return n * max(1, IM2COL_BUDGET // group_bytes)

    def _chunks(self, batch, length):
        """(chunk, its GEMM groups relative to the chunk) over the batch."""
        n, size = self.group_size(length), self.chunk_size(length)
        for start in range(0, batch, size):
            m = min(size, batch - start)
            yield slice(start, start + m), [slice(s, min(s + n, m)) for s in range(0, m, n)]

    def _buffer_shapes(self, batch, length):
        """Shapes of a run's chunk buffer and im2col (see `_buffers`)."""
        rows, n = min(batch, self.chunk_size(length)), min(batch, self.group_size(length))
        return (rows, self.out_channels, length), (n, self.in_channels, self.kernel, length)

    def _runs(self, batch, length):
        """The chunks as contiguous runs of whole chunks, one per thread:
        at most `THREADS`, as many as `RUN_BUDGET` holds the work buffers
        of, and one below `THREAD_MIN_FLOPS`."""
        chunks = list(self._chunks(batch, length))
        flops = 2 * self.out_channels * self.in_channels * self.kernel * length
        threads = THREADS if flops >= THREAD_MIN_FLOPS else 1
        run_bytes = self.w.itemsize * sum(map(math.prod, self._buffer_shapes(batch, length)))
        # an empty batch is one empty run
        n = max(1, min(threads, len(chunks), RUN_BUDGET // max(1, run_bytes)))
        return [chunks[len(chunks) * i // n : len(chunks) * (i + 1) // n] for i in range(n)]

    @staticmethod
    def _cols(win, group, buf):
        """(n, Cin*K, L) im2col of a group of the window view, copied into
        the front of `buf`."""
        cols = buf[: group.stop - group.start]
        cols[...] = win[group]
        return cols.reshape(len(cols), -1, cols.shape[3])

    def _buffers(self, batch, length, chunks=None):
        """A run's work buffers, allocated by the calling thread (memory a
        helper thread allocates stays in its own malloc arena): the
        chunk-sized (n, Cout, L) buffer for conv outputs or their gradient,
        whose columns past the last whole pool window are 0, the group-sized
        (n, Cin, K, L) im2col and, for a backward run over `chunks`, a
        group's stacked (n, Cin*K, Cout) weight-gradient products and their
        sum for each group of the run."""
        buf_shape, cols_shape = self._buffer_shapes(batch, length)
        buf = np.empty(buf_shape, dtype=self.w.dtype)
        buf[:, :, length - length % self.pool :] = 0.0
        cols = np.empty(cols_shape, dtype=self.w.dtype)
        if chunks is None:
            return buf, cols
        shape = (self.in_channels * self.kernel, self.out_channels)
        groups = sum(len(chunk_groups) for _, chunk_groups in chunks)
        return (buf, cols, np.empty((len(cols), *shape), dtype=self.w.dtype),
                np.empty((groups, *shape), dtype=self.w.dtype))

    def forward(self, x, training=False, rng=None):
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv expects (B, {self.in_channels}, L), got {x.shape}"
            )
        batch, _, length = x.shape
        k = self.kernel
        pl = k // 2
        xp = np.empty((batch, self.in_channels, length + k - 1), dtype=self.w.dtype)
        xp[:, :, :pl] = 0.0
        xp[:, :, pl + length :] = 0.0
        xp[:, :, pl : pl + length] = x
        w2 = self.w.reshape(self.out_channels, -1)
        out = np.empty((batch, self.out_channels, length // self.pool), dtype=self.w.dtype)
        arg = np.empty(out.shape, dtype=np.min_scalar_type(self.pool))
        win = sliding_window_view(xp, length, axis=2)

        def run(chunks, conv, cols_buf):
            for chunk, groups in chunks:
                y, cwin = conv[: chunk.stop - chunk.start], win[chunk]
                for group in groups:
                    np.matmul(w2, self._cols(cwin, group, cols_buf), out=y[group])
                y += self.b[:, None]
                max_pool(y, self.pool, out[chunk], arg[chunk], floor=True)

        in_threads(run, [(chunks, *self._buffers(batch, length))
                         for chunks in self._runs(batch, length)])
        self._cache = (xp, arg)
        return out

    def backward(self, grad_out, compute_input_grad=True):
        xp, arg = self._cached()
        g = np.asarray(grad_out, dtype=self.w.dtype)
        k = self.kernel
        batch, length = g.shape[0], xp.shape[2] - k + 1
        w2t = self.w.reshape(self.out_channels, -1).T
        win = sliding_window_view(xp, length, axis=2)
        gb_rows = np.empty((batch, self.out_channels), dtype=self.w.dtype)

        def run(chunks, dy_buf, cols_buf, prod_buf, gw_parts):
            parts = iter(gw_parts)
            for chunk, groups in chunks:
                dy, cwin, dxp = dy_buf[: chunk.stop - chunk.start], win[chunk], xp[chunk]
                unpool(g[chunk], arg[chunk], self.pool, dy)  # the remainder stays 0
                dy.sum(axis=2, out=gb_rows[chunk])
                for group in groups:
                    cols = self._cols(cwin, group, cols_buf)
                    prod = np.matmul(cols, dy[group].transpose(0, 2, 1), out=prod_buf[: len(cols)])
                    prod.sum(axis=0, out=next(parts))
                    if compute_input_grad:
                        # the group's im2col and padded input are read: reuse both
                        dcols = np.matmul(w2t, dy[group], out=cols)
                        dcols = dcols.reshape(-1, self.in_channels, k, length)
                        dst = dxp[group]
                        dst[...] = 0.0
                        for j in range(k):
                            dst[:, :, j : j + length] += dcols[:, :, j]

        runs = [(chunks, *self._buffers(batch, length, chunks))
                for chunks in self._runs(batch, length)]
        in_threads(run, runs)
        gw2 = self.gw.reshape(self.out_channels, -1)
        gw2[...] = 0.0
        for *_, gw_parts in runs:
            for part in gw_parts:
                gw2 += part.T
        # per sample, then in sample order: how dy.sum(axis=(0, 2)) adds
        # when Cout > 1
        self.gb[...] = 0.0
        for sample_sum in gb_rows:
            self.gb += sample_sum
        return xp[:, :, k // 2 : k // 2 + length] if compute_input_grad else None


class ReLU(Layer):
    """max(x, 0) that lets NaN through (so it reaches the non-finite loss
    check) and gives +0.0 for every x <= 0, -0.0 included."""

    def forward(self, x, training=False, rng=None):
        self._cache = x <= 0
        return np.where(self._cache, 0, x)

    def backward(self, grad_out, compute_input_grad=True):
        return np.where(self._cached(), 0, grad_out)


class MaxPool1d(Layer):
    """Non-overlapping max pooling (`max_pool`, without the floor); a
    trailing remainder shorter than the pool width is dropped."""

    def __init__(self, width):
        self.width = width

    def forward(self, x, training=False, rng=None):
        b, c, length = x.shape
        out = np.empty((b, c, length // self.width), dtype=x.dtype)
        arg = np.empty(out.shape, dtype=np.min_scalar_type(self.width))
        max_pool(x, self.width, out, arg)
        self._cache = (x.shape, arg)
        return out

    def backward(self, grad_out, compute_input_grad=True):
        x_shape, arg = self._cached()
        dx = np.zeros(x_shape, dtype=grad_out.dtype)
        unpool(grad_out, arg, self.width, dx)
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
        self.gw[...] = x.T @ g
        self.gb[...] = g.sum(axis=0)
        if not compute_input_grad:
            return None
        return g @ self.w.T


class Dropout(Layer):
    """Inverted dropout: kept activations scale by 1/(1-rate) in training
    mode; identity in eval mode. The cache is the keep mask, or True after
    an identity pass."""

    def __init__(self, rate):
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
