"""Tests for layers, losses, optimizers, schedule, and the checkpoint format."""

import hashlib
import json
import math
import multiprocessing
import os
import struct
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from cardioclr.augment import parse_policy
from cardioclr.contrastive import PretrainConfig, pretrain
from cardioclr.errors import FormatError, NumericError, ShapeError, StateError
from cardioclr.nn import (
    Adam,
    Conv1d,
    Dense,
    Dropout,
    EncoderConfig,
    Lars,
    LrSchedule,
    MaxPool1d,
    ReLU,
    build_ssl_graph,
    layers,
    load_checkpoint,
    save_checkpoint,
)
from cardioclr.nn.gradcheck import run_gradient_suite
from cardioclr.nn.layers import IM2COL_BUDGET, Layer
from cardioclr.nn.model import CLASSIFIER, EVAL_CHUNK, PROJECTION, ModelGraph, param_count
from cardioclr.nn.optim import EpochStats, early_stopping
from cardioclr.nn.losses import (
    binary_cross_entropy_loss,
    cross_entropy_loss,
    decisions,
    softmax,
)
from test_acceptance import DESK_ENCODER


def naive_conv1d(x, w, b):
    """Triple-loop dot-product oracle for same-padded stride-1 conv."""
    B, Cin, L = x.shape
    Cout, _, K = w.shape
    out = np.zeros((B, Cout, L))
    for bi in range(B):
        for o in range(Cout):
            for t in range(L):
                acc = b[o]
                for c in range(Cin):
                    for k in range(K):
                        src = t + k - K // 2
                        if 0 <= src < L:
                            acc += w[o, c, k] * x[bi, c, src]
                out[bi, o, t] = acc
    return out


def reference_conv1d(x, w, b, g):
    """float64 forward, gw, gb and dx straight from the definition, one
    shifted product per kernel tap."""
    x, w, b, g = (np.asarray(a, dtype=np.float64) for a in (x, w, b, g))
    B, Cin, L = x.shape
    Cout, _, K = w.shape
    pl = K // 2
    xp = np.zeros((B, Cin, L + K - 1))
    xp[:, :, pl : pl + L] = x
    out = np.broadcast_to(b[:, None], (B, Cout, L)).copy()
    gw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    for k in range(K):
        seg = xp[:, :, k : k + L]  # in[b, c, t + k - K//2]
        out += np.einsum("oc,bct->bot", w[:, :, k], seg)
        gw[:, :, k] = np.einsum("bot,bct->oc", g, seg)
        dxp[:, :, k : k + L] += np.einsum("oc,bot->bct", w[:, :, k], g)
    return out, gw, g.sum(axis=(0, 2)), dxp[:, :, pl : pl + L]


def reference_maxpool(x, width, g):
    """Pooled values and input gradient in the natural (B, C, L/W, W)
    block layout: first-maximum argmax, gather, scatter."""
    b, c, length = x.shape
    usable = length - length % width
    blocks = x[:, :, :usable].reshape(b, c, usable // width, width)
    arg = blocks.argmax(axis=3)[..., None]
    out = np.take_along_axis(blocks, arg, axis=3)[..., 0]
    dx = np.zeros_like(x)
    dblocks = dx[:, :, :usable].reshape(blocks.shape)
    np.put_along_axis(dblocks, arg, g[..., None], axis=3)
    return out, dx


def reference_block(x, w, b, width, g):
    """float64 forward, gw, gb and dx of conv -> max-pool -> ReLU from the
    definitions of the three."""
    conv = reference_conv1d(x, w, b, np.zeros(x.shape[:1] + b.shape + x.shape[2:]))[0]
    pooled, _ = reference_maxpool(conv, width, np.zeros(g.shape))
    _, dconv = reference_maxpool(conv, width, np.where(pooled > 0, g, 0.0))
    _, gw, gb, dx = reference_conv1d(x, w, b, dconv)
    return np.maximum(pooled, 0.0), gw, gb, dx


class UnfusedConv1d(Layer):
    """The conv layer of the conv -> max-pool -> ReLU stack an encoder
    block fuses, as it ran before the fusion: the same grouped im2col GEMMs
    over the whole batch, holding the full-resolution (B, Cout, L) output
    and its gradient. Kept as the bitwise reference; it shares the block's
    parameter arrays."""

    def __init__(self, block):
        self.in_channels, self.out_channels = block.in_channels, block.out_channels
        self.kernel, self.w, self.b = block.kernel, block.w, block.b
        self.gw, self.gb = np.zeros_like(self.w), np.zeros_like(self.b)

    def params(self):
        return {"w": self.w, "b": self.b}

    def grads(self):
        return {"w": self.gw, "b": self.gb}

    def _groups(self, batch, length):
        n = max(1, IM2COL_BUDGET // (self.w.itemsize * self.in_channels * self.kernel * length))
        return [slice(s, min(s + n, batch)) for s in range(0, batch, n)]

    @staticmethod
    def _cols(win, group):
        cols = np.ascontiguousarray(win[group])
        return cols.reshape(len(cols), -1, cols.shape[3])

    def forward(self, x, training=False, rng=None):
        k, length = self.kernel, x.shape[2]
        xp = np.pad(np.asarray(x, dtype=self.w.dtype), ((0, 0), (0, 0), (k // 2, k - 1 - k // 2)))
        w2 = self.w.reshape(self.out_channels, -1)
        out = np.empty((x.shape[0], self.out_channels, length), dtype=self.w.dtype)
        win = sliding_window_view(xp, length, axis=2)
        for group in self._groups(x.shape[0], length):
            np.matmul(w2, self._cols(win, group), out=out[group])
        out += self.b[:, None]
        self._cache = xp
        return out

    def backward(self, grad_out, compute_input_grad=True):
        xp, k = self._cached(), self.kernel
        g = np.ascontiguousarray(grad_out, dtype=self.w.dtype)
        batch, _, length = g.shape
        groups = self._groups(batch, length)
        gw2 = self.gw.reshape(self.out_channels, -1)
        gw2[...] = 0.0
        win = sliding_window_view(xp, length, axis=2)
        for group in groups:
            gw2 += np.matmul(self._cols(win, group), g[group].transpose(0, 2, 1)).sum(axis=0).T
        self.gb[...] = g.sum(axis=(0, 2))
        if not compute_input_grad:
            return None
        w2t = self.w.reshape(self.out_channels, -1).T
        dxp = np.zeros_like(xp)
        for group in groups:
            dcols = np.matmul(w2t, g[group]).reshape(-1, self.in_channels, k, length)
            dst = dxp[group]
            for j in range(k):
                dst[:, :, j : j + length] += dcols[:, :, j]
        return dxp[:, :, k // 2 : k // 2 + length]


def unfused(block):
    """The conv -> max-pool -> ReLU layers a block fuses, on its parameters."""
    return [UnfusedConv1d(block), MaxPool1d(block.pool), ReLU()]


def unfuse(graph):
    """`graph` with every encoder block replaced by its unfused layers."""
    graph.encoder_layers = [layer for block in graph.encoder_layers for layer in unfused(block)]
    return graph


def run_layers(layers, x, g, compute_input_grad=True):
    """(out, dx, gw, gb) of a forward then backward pass through `layers`;
    gw and gb are the first layer's."""
    out = x
    for layer in layers:
        out = layer.forward(out, training=True)
    grad = g
    for i in range(len(layers) - 1, -1, -1):
        grad = layers[i].backward(grad, compute_input_grad=compute_input_grad or i > 0)
    return out, grad, layers[0].gw, layers[0].gb


def assert_same_bytes(got, want):
    for name, a, b in zip(("out", "dx", "gw", "gb"), got, want):
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


def block_shapes(cfg):
    """(Cin, Cout, K, L, W) of every block of an encoder config."""
    shapes, cin, length = [], 1, cfg.input_len
    for cout, k, pool in zip(cfg.channels, cfg.kernels, cfg.pool_widths):
        shapes.append((cin, cout, k, length, pool))
        cin, length = cout, length // pool
    return shapes


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-30))


# every full-size and desk block, plus even/odd K, K=1, K>L and pool widths
# 2-5 that leave a remainder (L % W != 0)
KERNEL_SHAPES = (
    block_shapes(EncoderConfig())
    + block_shapes(DESK_ENCODER)
    + [(2, 3, 4, 11, 3), (3, 2, 5, 11, 2), (2, 3, 1, 7, 5), (2, 3, 9, 4, 3), (1, 2, 8, 3, 2)]
)


def make_block(cin, cout, k, width, seed):
    return Conv1d(cin, cout, k, width, np.random.default_rng(seed))


def group_size(cin, k, length):
    return Conv1d(cin, 1, k, 1, np.random.default_rng(0)).group_size(length)


def partial_batch(cin, k, length):
    """A batch size whose last GEMM group is partial, or None where a group
    is one sample."""
    n = group_size(cin, k, length)
    return n + max(1, n // 2) if n > 1 else None


def kernel_cases():
    """Each shape at B=2, B=1 and a B with a partial last group. The B=2
    cases keep their plain shape ids."""
    for cin, cout, k, length, width in KERNEL_SHAPES:
        shape_id = f"{cin}-{cout}-{k}-{length}"
        yield pytest.param(cin, cout, k, length, width, 2, id=shape_id)
        yield pytest.param(cin, cout, k, length, width, 1, id=f"{shape_id}-B1")
        batch = partial_batch(cin, k, length)
        if batch:
            yield pytest.param(cin, cout, k, length, width, batch, id=f"{shape_id}-B{batch}")


def block_inputs(cin, cout, length, batch, width, seed):
    """x and a pooled output gradient for a block."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, cin, length)).astype(np.float32)
    g = rng.standard_normal((batch, cout, length // width)).astype(np.float32)
    return x, g


class TestConv1dKernels:
    """The fused encoder block against the float64 definition and bitwise
    against the unfused conv -> max-pool -> ReLU layers, at every block
    shape of the full-size and desk encoders, plus even/odd K, K=1, K>L and
    pool remainders, at batch sizes on both sides of the group boundaries."""

    def test_group_size_follows_the_layer_shape(self):
        for cin, _, k, length, _ in block_shapes(EncoderConfig())[:2] + block_shapes(DESK_ENCODER)[:1]:
            assert group_size(cin, k, length) == 1
        assert group_size(16, 4, 39) > group_size(16, 4, 156) > 1

    @pytest.mark.parametrize("cin,cout,k,length,width", KERNEL_SHAPES)
    def test_chunks_are_runs_of_whole_groups_within_the_budget(self, cin, cout, k, length, width):
        block = make_block(cin, cout, k, width, 0)
        n, size = block.group_size(length), block.chunk_size(length)
        assert size % n == 0
        assert size == n or size * cout * length * 4 <= IM2COL_BUDGET < (size + n) * cout * length * 4
        batch = size + max(1, n // 2)
        chunks = list(block._chunks(batch, length))
        assert [c.stop - c.start for c, _ in chunks] == [size, batch - size]
        for chunk, groups in chunks:
            assert [g.start for g in groups] == list(range(0, chunk.stop - chunk.start, n))

    @pytest.mark.parametrize("cin,cout,k,length,width,batch", kernel_cases())
    def test_forward_and_gradients(self, cin, cout, k, length, width, batch):
        layer = make_block(cin, cout, k, width, cin * 1000 + k * 10 + length)
        x, g = block_inputs(cin, cout, length, batch, width, k * length)
        layer.b[...] = np.random.default_rng(cout).uniform(-0.5, 0.5, cout)
        out_ref, gw_ref, gb_ref, dx_ref = reference_block(x, layer.w, layer.b, width, g)
        out = layer.forward(x, training=True)
        dx = layer.backward(g)
        assert out.shape == out_ref.shape and dx.shape == x.shape
        assert rel_err(out, out_ref) <= 1e-5
        assert rel_err(layer.gw, gw_ref) <= 1e-5
        assert rel_err(layer.gb, gb_ref) <= 1e-5
        assert rel_err(dx, dx_ref) <= 1e-5

    @pytest.mark.parametrize("cin,cout,k,length,width,batch", kernel_cases())
    def test_same_bytes_as_previous_kernel(self, cin, cout, k, length, width, batch):
        block = make_block(cin, cout, k, width, k * length)
        x, g = block_inputs(cin, cout, length, batch, width, cin * 1000 + k * 10 + length)
        assert_same_bytes(run_layers([block], x, g), run_layers(unfused(block), x, g))

    @pytest.mark.parametrize("cfg", [EncoderConfig(), DESK_ENCODER], ids=["full", "desk"])
    def test_pretrain_step_same_encoder_bytes_as_previous_kernel(self, cfg):
        windows = np.random.default_rng(3).standard_normal((16, cfg.input_len)).astype(np.float32)
        config = PretrainConfig(batch_size=8, max_epochs=1, patience=0, warmup_epochs=0)
        encoders = []
        for previous in (False, True):
            graph = build_ssl_graph(cfg, seed=5)
            initial = graph.encoder_bytes()
            if previous:
                unfuse(graph)
            graph, history = pretrain(graph, windows, parse_policy("none|rev"), config)
            assert len(history) == 1 and graph.encoder_bytes() != initial
            encoders.append(graph.encoder_bytes())
        assert encoders[0] == encoders[1]

    def test_no_input_grad_still_fills_param_grads(self):
        layer = make_block(3, 4, 6, 3, 5)
        x, g = block_inputs(3, 4, 20, partial_batch(3, 6, 20), 3, 5)
        _, gw_ref, gb_ref, _ = reference_block(x, layer.w, layer.b, 3, g)
        layer.forward(x, training=True)
        assert layer.backward(g, compute_input_grad=False) is None
        assert rel_err(layer.gw, gw_ref) <= 1e-5
        assert rel_err(layer.gb, gb_ref) <= 1e-5


def pool_shapes(cfg):
    """(C, L, W) of every pooling layer of an encoder config."""
    return [(cout, length, w) for _, cout, _, length, w in block_shapes(cfg)]


class TestMaxPool1d:
    @pytest.mark.parametrize(
        "channels,length,width",
        pool_shapes(EncoderConfig()) + pool_shapes(DESK_ENCODER)
        + [(3, 11, 3), (2, 5, 7), (2, 601, 300)],
    )
    def test_against_natural_layout(self, channels, length, width):
        rng = np.random.default_rng(channels * 100 + length)
        # values on a coarse grid, so most blocks hold tied maxima
        x = np.round(2 * rng.standard_normal((2, channels, length))).astype(np.float32)
        layer = MaxPool1d(width)
        out = layer.forward(x, training=True)
        g = rng.standard_normal(out.shape).astype(np.float32)
        out_ref, dx_ref = reference_maxpool(x, width, g)
        np.testing.assert_array_equal(out, out_ref)
        np.testing.assert_array_equal(layer.backward(g), dx_ref)
        assert layer.forward(x).tobytes() == out.tobytes()  # an eval forward, no argmax

    @pytest.mark.parametrize("tap", [1, 2, 3])
    def test_nan_in_a_later_tap_comes_out_as_nan(self, tap):
        x = np.array([[[1.0, 2.0, 3.0, 0.5, 1.0, 2.0, 3.0, 0.5]]], dtype=np.float32)
        x[0, 0, tap] = np.nan
        out = MaxPool1d(4).forward(x)
        assert np.isnan(out[0, 0, 0])
        assert out[0, 0, 1] == 3.0

    @pytest.mark.parametrize("first,second", [(-0.0, 0.0), (0.0, -0.0)])
    def test_signed_zero_tie_sends_the_gradient_to_the_first_maximum(self, first, second):
        layer = MaxPool1d(4)
        x = np.array([[[-1.0, first, second, -2.0]]], dtype=np.float32)
        assert layer.forward(x, training=True)[0, 0, 0] == 0.0
        np.testing.assert_array_equal(
            layer.backward(np.array([[[5.0]]], dtype=np.float32)), [[[0.0, 5.0, 0.0, 0.0]]]
        )


def chunk_cases():
    """Each full-size and desk block at a batch of one chunk plus a partial
    one (whose last GEMM group is partial too where groups hold several
    samples)."""
    for cin, cout, k, length, width in block_shapes(EncoderConfig()) + block_shapes(DESK_ENCODER):
        block = make_block(cin, cout, k, width, 0)
        n = block.group_size(length)
        batch = block.chunk_size(length) + max(1, n // 2)
        yield pytest.param(cin, cout, k, length, width, batch,
                           id=f"{cin}-{cout}-{k}-{length}-B{batch}")


class TestConvBlock:
    """The fused block gives the bytes of the unfused conv -> max-pool ->
    ReLU layers (`unfused`): output, input gradient, weight and bias
    gradients."""

    def test_encoder_same_bytes_as_the_unfused_triple(self):
        """One whole desk encoder with its projection head, fused (as built)
        against unfused: same bytes out, the same gradient bytes for every
        parameter and the same embedding."""
        fused = build_ssl_graph(DESK_ENCODER, seed=4)
        old = unfuse(build_ssl_graph(DESK_ENCODER, seed=4))
        assert [type(layer) for layer in old.encoder_layers[:3]] == [UnfusedConv1d, MaxPool1d, ReLU]
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, DESK_ENCODER.input_len)).astype(np.float32)
        out_new, out_old = fused.forward(x, training=True), old.forward(x, training=True)
        assert out_new.tobytes() == out_old.tobytes()
        g = rng.standard_normal(out_new.shape).astype(np.float32)
        fused.backward(g)
        old.backward(g)
        grads_old = [a for _, a in old.named_grads()]
        assert len(grads_old) == len(fused.named_grads())
        for (name, a), b in zip(fused.named_grads(), grads_old):
            assert a.tobytes() == b.tobytes(), name
        assert fused.embed(x).tobytes() == old.embed(x).tobytes()

    @pytest.mark.parametrize("cin,cout,k,length,width,batch", chunk_cases())
    def test_partial_chunk_same_bytes(self, cin, cout, k, length, width, batch):
        block = make_block(cin, cout, k, width, k + length)
        x, g = block_inputs(cin, cout, length, batch, width, cin + length)
        for compute_input_grad in (True, False):
            assert_same_bytes(run_layers([block], x, g, compute_input_grad),
                              run_layers(unfused(block), x, g, compute_input_grad))

    @pytest.mark.parametrize("width", [2, 3, 4, 5])
    def test_ties_signed_zeros_and_nan_same_bytes(self, width):
        """Integer weights and inputs on a coarse grid make exact conv
        outputs: tied maxima, +0.0 and -0.0 maxima, negative windows, and a
        NaN window; the gradient holds negatives (so -0.0 products)."""
        length = 7 * width + width - 1  # L % W != 0
        rng = np.random.default_rng(width)
        block = Conv1d(2, 3, 3, width, rng)
        block.w[...] = rng.integers(-1, 2, block.w.shape)
        block.b[...] = [0.0, -0.0, -1.0]
        batch = block.chunk_size(length) + 2
        x = rng.integers(-1, 2, (batch, 2, length)).astype(np.float32)
        x[rng.random(x.shape) < 0.2] = -0.0
        x[0, 0, 5] = np.nan
        g = rng.integers(-2, 3, (batch, 3, length // width)).astype(np.float32)
        got = run_layers([block], x, g)
        assert_same_bytes(got, run_layers(unfused(block), x, g))
        out = got[0]
        assert np.isnan(out).any() and (out == 0).any()
        assert not np.signbit(out[out == 0]).any()
        assert block.forward(x).tobytes() == out.tobytes()  # an eval forward, no argmax

    def test_unpooled_gradient_of_a_floored_window_is_positive_zero(self):
        block = Conv1d(1, 1, 1, 4, np.random.default_rng(0))
        block.w[...] = 1.0
        x = np.array([[[-1.0, -3.0, -2.0, -4.0, 1.0, 2.0, -1.0, 0.0]]], dtype=np.float32)
        out = block.forward(x, training=True)
        np.testing.assert_array_equal(out, [[[0.0, 2.0]]])
        dx = block.backward(np.array([[[-5.0, -7.0]]], dtype=np.float32))
        np.testing.assert_array_equal(dx, [[[0, 0, 0, 0, 0, -7.0, 0, 0]]])
        assert not np.signbit(dx[0, 0, :4]).any()

    def test_full_size_step_holds_no_full_resolution_activation(self, monkeypatch):
        """One forward+backward of the full-size block stack at B=32 on
        eight threads under tracemalloc. The unfused layers peak at 21.4 MiB
        here: block 0's (32, 8, 10000) conv output and then its gradient are
        9.8 MiB each. The fused blocks hold one chunk of either per run, each
        block's backward folds its input gradient into its cached input and
        drops its cache once it has read it, and `RUN_BUDGET` holds the
        first blocks to two runs whatever the thread count. The peak, 15.3
        MiB, is in the forward, with two runs' chunk and im2col buffers
        (15.2 MiB on two threads; 13.3 MiB on one, in the backward; 31.4 MiB
        on eight threads with a run per thread)."""
        monkeypatch.setattr(layers, "THREADS", 8)
        graph = ModelGraph(EncoderConfig(), np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((32, 10000)).astype(np.float32)
        tracemalloc.start()
        try:
            out = graph.forward(x, training=True)
            graph.backward(np.ones_like(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak / 2**20


def threaded_cases():
    """Each `KERNEL_SHAPES` shape at one sample (one chunk, fewer than the
    threads) and at two chunks and a partial one (whose last GEMM group is
    partial too where groups hold several samples)."""
    for cin, cout, k, length, width in KERNEL_SHAPES:
        block = make_block(cin, cout, k, width, 0)
        batch = 2 * block.chunk_size(length) + max(1, block.group_size(length) // 2)
        for b in (1, batch):
            yield pytest.param(cin, cout, k, length, width, b, id=f"{cin}-{cout}-{k}-{length}-B{b}")


def block_digest(cin, cout, k, width, x, g):
    """sha256 of a fresh seeded block's output and gradients."""
    got = run_layers([make_block(cin, cout, k, width, 3)], x, g)
    return hashlib.sha256(b"".join(a.tobytes() for a in got)).hexdigest()


def _digest_in_child(conn, args):
    conn.send((layers.THREADS, block_digest(*args)))
    conn.close()


class TestThreads:
    """Encoder blocks split their chunks into one run per thread and add
    the gradient partials in chunk order: the same bytes at any thread
    count."""

    @pytest.mark.parametrize("cin,cout,k,length,width,batch", threaded_cases())
    def test_same_bytes_at_every_thread_count(self, monkeypatch, cin, cout, k, length, width, batch):
        monkeypatch.setattr(layers, "THREAD_MIN_FLOPS", 0)
        monkeypatch.setattr(layers, "RUN_BUDGET", 1 << 40)  # a run per thread
        block = make_block(cin, cout, k, width, k * length + 1)
        x, g = block_inputs(cin, cout, length, batch, width, cin * 1000 + k * 10 + length + 1)
        chunks = len(list(block._chunks(batch, length)))
        for compute_input_grad in (True, False):
            previous = run_layers(unfused(block), x, g, compute_input_grad)
            monkeypatch.setattr(layers, "THREADS", 1)
            one = run_layers([block], x, g, compute_input_grad)
            assert_same_bytes(one, previous)
            for threads in (2, 3):
                monkeypatch.setattr(layers, "THREADS", threads)
                assert len(block._runs(batch, length)) == min(threads, chunks)
                got = run_layers([block], x, g, compute_input_grad)
                assert_same_bytes(got, one)
                assert_same_bytes(got, previous)

    def test_runs_are_contiguous_runs_of_whole_chunks(self, monkeypatch):
        monkeypatch.setattr(layers, "RUN_BUDGET", 1 << 40)  # a run per thread
        block = make_block(1, 8, 64, 4, 0)
        chunks = list(block._chunks(11 * block.chunk_size(10000) - 1, 10000))
        for threads in (1, 2, 3, 20):
            monkeypatch.setattr(layers, "THREADS", threads)
            runs = block._runs(11 * block.chunk_size(10000) - 1, 10000)
            assert len(runs) == min(threads, 11) and all(runs)
            assert [c for run in runs for c in run] == chunks

    def test_only_blocks_above_the_flop_floor_split(self, monkeypatch):
        """Every full-size block splits its chunks over two threads, and
        every desk block runs on one."""
        monkeypatch.setattr(layers, "THREADS", 2)
        for cfg, runs in ((EncoderConfig(), 2), (DESK_ENCODER, 1)):
            for cin, cout, k, length, width in block_shapes(cfg):
                block = make_block(cin, cout, k, width, 0)
                assert len(block._runs(2 * block.chunk_size(length), length)) == runs

    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_runs_hold_their_buffers_within_the_budget(self, monkeypatch, threads):
        """However many threads there are, the runs of a full-size block
        hold at most `RUN_BUDGET` of work buffers (or are one run), the
        first two blocks keep two runs, and the bytes stay those of one
        thread."""
        monkeypatch.setattr(layers, "THREADS", threads)
        for i, (cin, cout, k, length, width) in enumerate(block_shapes(EncoderConfig())):
            block = make_block(cin, cout, k, width, 0)
            batch = 3 * block.chunk_size(length)
            runs = [block._buffers(batch, length, chunks) for chunks in block._runs(batch, length)]
            held = sum(buf.nbytes + cols.nbytes for buf, cols, *_ in runs)
            assert len(runs) == 1 or held <= layers.RUN_BUDGET
            assert len(runs) == (2 if i < 2 else min(threads, 3))
        cin, cout, k, length, width = block_shapes(EncoderConfig())[0]
        x, g = block_inputs(cin, cout, length, 7, width, 5)
        got = run_layers([make_block(cin, cout, k, width, 3)], x, g)
        monkeypatch.setattr(layers, "THREADS", 1)
        assert_same_bytes(got, run_layers([make_block(cin, cout, k, width, 3)], x, g))

    def test_empty_batch_gives_empty_outputs(self, monkeypatch):
        monkeypatch.setattr(layers, "THREADS", 2)
        block = make_block(1, 8, 64, 4, 0)
        x, g = block_inputs(1, 8, 10000, 0, 4, 0)
        out, dx, gw, gb = run_layers([block], x, g)
        assert out.shape == (0, 8, 2500) and dx.shape == x.shape
        assert not gw.any() and not gb.any()

    def test_a_helper_threads_error_reaches_the_caller(self):
        seen = []

        def work(i):
            seen.append(i)
            if i == 2:
                raise ValueError("helper failed")

        with pytest.raises(ValueError, match="helper failed"):
            layers.in_threads(work, [(0,), (1,), (2,)])
        assert sorted(seen) == [0, 1, 2]

    def test_forked_child_runs_threaded_blocks(self, monkeypatch):
        """A child forked after the parent ran threaded blocks runs them
        too, with the parent's bytes (a pool of helper threads created
        before the fork would hang it)."""
        monkeypatch.setattr(layers, "THREADS", 2)
        cin, cout, k, length, width = 1, 8, 64, 10000, 4
        x, g = block_inputs(cin, cout, length, 7, width, 11)
        args = (cin, cout, k, width, x, g)
        want = block_digest(*args)
        ctx = multiprocessing.get_context("fork")
        parent_end, child_end = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_digest_in_child, args=(child_end, args))
        child.start()
        child_end.close()
        try:
            assert parent_end.poll(60), "the forked child's threaded block did not finish in 60 s"
            assert parent_end.recv() == (2, want)
        finally:
            child.join(5)
            if child.is_alive():
                child.kill()
                child.join()


class TestEvalForward:
    """An eval forward (`training=False`) keeps no backward cache and drops
    any earlier one, and gives the bytes of a training forward."""

    @pytest.mark.parametrize("kind", ["conv", "relu", "maxpool", "dense", "dropout", "dropout0"])
    def test_keeps_no_cache_and_a_backward_after_it_raises(self, kind):
        rng = np.random.default_rng(0)
        layer, shape = {
            "conv": (Conv1d(2, 3, 3, 2, rng), (2, 2, 8)),
            "relu": (ReLU(), (2, 5)),
            "maxpool": (MaxPool1d(2), (2, 3, 8)),
            "dense": (Dense(4, 3, rng), (2, 4)),
            "dropout": (Dropout(0.5), (2, 4)),
            "dropout0": (Dropout(0.0), (2, 4)),
        }[kind]
        x = rng.standard_normal(shape).astype(np.float32)
        g = np.ones_like(layer.forward(x))
        assert layer._cache is None
        with pytest.raises(StateError):
            layer.backward(g)
        layer.forward(x, training=True, rng=np.random.default_rng(1))
        assert layer._cache is not None
        layer.forward(x)  # drops the training forward's cache
        assert layer._cache is None
        with pytest.raises(StateError):
            layer.backward(g)

    @pytest.mark.parametrize("cin,cout,k,length,width,batch", [*kernel_cases(), *chunk_cases()])
    def test_block_output_has_the_training_bytes(self, cin, cout, k, length, width, batch):
        block = make_block(cin, cout, k, width, k + length)
        block.b[...] = np.random.default_rng(cout).uniform(-0.5, 0.5, cout)
        x, _ = block_inputs(cin, cout, length, batch, width, cin + length)
        want = block.forward(x, training=True)
        assert block.forward(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("cfg", [EncoderConfig(), DESK_ENCODER], ids=["full", "desk"])
    def test_embed_has_the_training_bytes(self, cfg):
        graph = build_ssl_graph(cfg, seed=2)
        x = np.random.default_rng(3).standard_normal((3, cfg.input_len)).astype(np.float32)
        out = x[:, None, :]
        for layer in graph.encoder_layers:
            out = layer.forward(out, training=True)
        assert graph.embed(x).tobytes() == out.reshape(len(x), -1).tobytes()
        assert all(layer._cache is None for layer in graph.encoder_layers + graph.head_layers)


class TestEmbed:
    def test_chunks_across_a_boundary_give_per_window_bytes(self, monkeypatch):
        """EVAL_CHUNK + 44 windows: the encoder runs on EVAL_CHUNK windows,
        then on 44, and every feature row has the bytes of its window
        embedded alone."""
        graph = build_ssl_graph(DESK_ENCODER, seed=5)
        n = EVAL_CHUNK + 44
        x = np.random.default_rng(8).standard_normal((n, DESK_ENCODER.input_len)).astype(np.float32)
        first = graph.encoder_layers[0]
        real, batches = first.forward, []

        def counted(inp, **kwargs):
            batches.append(len(inp))
            return real(inp, **kwargs)

        monkeypatch.setattr(first, "forward", counted)
        features = graph.embed(x)
        assert batches == [EVAL_CHUNK, 44]
        assert features.shape == (n, DESK_ENCODER.feature_dim())
        for i in range(n):
            assert features[i].tobytes() == graph.embed(x[i : i + 1])[0].tobytes(), i

    def test_forward_is_the_head_on_embedded_features(self):
        graph = build_ssl_graph(DESK_ENCODER, seed=6)
        x = np.random.default_rng(9).standard_normal((5, DESK_ENCODER.input_len)).astype(np.float32)
        assert graph.forward(x).tobytes() == graph.head_forward(graph.embed(x)).tobytes()

    def test_no_windows_give_no_rows(self):
        graph = build_ssl_graph(DESK_ENCODER, seed=6)
        features = graph.embed(np.zeros((0, DESK_ENCODER.input_len), dtype=np.float32))
        assert features.shape == (0, DESK_ENCODER.feature_dim())


def pool_relu(conv, width):
    """max-pool of width `width`, then ReLU, of a (B, C, L) array."""
    usable = conv.shape[2] - conv.shape[2] % width
    return np.maximum(conv[:, :, :usable].reshape(*conv.shape[:2], -1, width).max(axis=3), 0.0)


class TestConv1d:
    def test_single_tap_identity(self):
        layer = Conv1d(1, 1, 1, 1, np.random.default_rng(0))
        layer.w[...] = 1.0
        layer.b[...] = 0.0
        x = np.random.default_rng(1).uniform(-1, 1, (2, 1, 9)).astype(np.float32)
        np.testing.assert_allclose(layer.forward(x), np.maximum(x, 0.0))

    def test_centered_kernel_identity(self):
        layer = Conv1d(1, 1, 3, 1, np.random.default_rng(0))
        layer.w[...] = np.array([[[0.0, 1.0, 0.0]]])
        layer.b[...] = 0.0
        x = np.random.default_rng(2).uniform(-1, 1, (1, 1, 12)).astype(np.float32)
        np.testing.assert_allclose(layer.forward(x), np.maximum(x, 0.0))

    def test_against_naive_loops(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (2, 3, 16)).astype(np.float32)
        layer = Conv1d(3, 4, 5, 2, rng)
        expected = naive_conv1d(x.astype(np.float64), layer.w.astype(np.float64), layer.b.astype(np.float64))
        np.testing.assert_allclose(layer.forward(x), pool_relu(expected, 2), atol=1e-6)

    def test_even_kernel_against_naive(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (2, 2, 10)).astype(np.float32)
        layer = Conv1d(2, 3, 4, 3, rng)
        expected = naive_conv1d(x.astype(np.float64), layer.w.astype(np.float64), layer.b.astype(np.float64))
        np.testing.assert_allclose(layer.forward(x), pool_relu(expected, 3), atol=1e-6)

    def test_backward_before_forward(self):
        layer = Conv1d(1, 1, 3, 2, np.random.default_rng(0))
        with pytest.raises(StateError):
            layer.backward(np.zeros((1, 1, 2)))


class TestOtherLayers:
    def test_maxpool_example(self):
        layer = MaxPool1d(4)
        x = np.array([[[1.0, 3.0, 2.0, 0.0, 5.0, 4.0, 4.0, 4.0]]])
        np.testing.assert_array_equal(layer.forward(x), [[[3.0, 5.0]]])

    def test_maxpool_drops_remainder(self):
        layer = MaxPool1d(4)
        x = np.arange(10, dtype=np.float64).reshape(1, 1, 10)
        np.testing.assert_array_equal(layer.forward(x), [[[3.0, 7.0]]])

    def test_maxpool_ties_send_the_gradient_to_the_first_maximum(self):
        layer = MaxPool1d(4)
        x = np.array([[[1.0, 2.0, 2.0, 0.0, 4.0, 4.0, 4.0, 4.0, -1.0, -3.0, -1.0, -2.0]]])
        np.testing.assert_array_equal(layer.forward(x, training=True), [[[2.0, 4.0, -1.0]]])
        dx = layer.backward(np.array([[[1.0, 2.0, 3.0]]]))
        np.testing.assert_array_equal(
            dx, [[[0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0]]]
        )

    def test_relu(self):
        layer = ReLU()
        np.testing.assert_array_equal(
            layer.forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0]
        )

    def test_relu_zero_is_positive_zero(self):
        x = np.array([-2.5, -0.0, 0.0, -np.inf, 3.0], dtype=np.float32)
        out = ReLU().forward(x)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, 0.0, 3.0])
        assert not np.signbit(out).any()

    def test_relu_passes_nan(self):
        layer = ReLU()
        out = layer.forward(np.array([np.nan, -1.0, 2.0], dtype=np.float32), training=True)
        assert np.isnan(out[0])
        np.testing.assert_array_equal(out[1:], [0.0, 2.0])
        np.testing.assert_array_equal(layer.backward(np.ones(3, dtype=np.float32))[1:], [0.0, 1.0])

    def test_dropout_eval_identity(self):
        layer = Dropout(0.5)
        x = np.random.default_rng(0).uniform(-1, 1, (4, 6))
        assert layer.forward(x, training=False) is x

    def test_dropout_backward_before_forward(self):
        with pytest.raises(StateError):
            Dropout(0.5).backward(np.ones((2, 3)))

    def test_dropout_training_scaling(self):
        layer = Dropout(0.5)
        x = np.ones((1000, 10), dtype=np.float32)
        out = layer.forward(x, training=True, rng=np.random.default_rng(1))
        values = np.unique(out)
        assert set(values.tolist()) <= {0.0, 2.0}
        assert abs((out == 0).mean() - 0.5) < 0.05


class TestLosses:
    def test_softmax_uniform(self):
        p = softmax(np.zeros((1, 3)))
        np.testing.assert_allclose(p, [[1 / 3, 1 / 3, 1 / 3]])

    def test_ce_uniform_logits(self):
        loss, _ = cross_entropy_loss(np.zeros((1, 3)), np.array([1]))
        assert abs(loss - math.log(3)) < 1e-12

    def test_ce_nonnegative_and_rows_sum(self):
        rng = np.random.default_rng(5)
        logits = rng.uniform(-3, 3, (16, 5))
        labels = rng.integers(0, 5, 16)
        loss, _ = cross_entropy_loss(logits, labels)
        assert loss >= 0
        p = softmax(logits)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(p > 0)

    def test_binary_matches_categorical_form(self):
        # BCE on logit z must equal CE on logits [0, z]
        rng = np.random.default_rng(6)
        z = rng.uniform(-2, 2, (8, 1))
        y = rng.integers(0, 2, 8)
        bce, _ = binary_cross_entropy_loss(z, y)
        two = np.concatenate([np.zeros_like(z), z], axis=1)
        ce, _ = cross_entropy_loss(two, y)
        assert abs(bce - ce) < 1e-9

    def test_decisions(self):
        assert decisions(np.array([[0.2], [-0.3]])).tolist() == [1, 0]
        assert decisions(np.array([[0.1, 0.9], [0.8, 0.2]])).tolist() == [1, 0]

    def test_non_finite_logits(self):
        with pytest.raises(NumericError):
            cross_entropy_loss(np.array([[np.nan, 0.0]]), np.array([0]))


class TestGradientSuite:
    def test_all_layer_types_pass(self):
        report = run_gradient_suite(seed=0, trials_per_check=6)
        assert len(report) * 6 >= 50
        for name, err in report.items():
            assert err < 1e-4, f"{name}: {err}"

    def test_frozen_encoder_only_runs_forward(self):
        cfg = EncoderConfig(channels=(2, 2), kernels=(3, 3), pool_widths=(2, 2),
                            input_len=16, projection_dim=4)
        graph = build_ssl_graph(cfg, seed=0)
        graph.freeze_encoder()
        graph.set_classifier_head(2, seed=1)
        for kind in ("params", "grads"):
            head = [id(arr) for layer in graph.head_layers
                    for arr in getattr(layer, kind)().values()]
            trainable = getattr(graph, f"named_{kind}")(trainable_only=True)
            assert [id(arr) for _, arr in trainable] == head
            assert all(name.startswith("head") for name, _ in trainable)
        x = np.random.default_rng(0).uniform(-1, 1, (3, 1, 16)).astype(np.float32)
        logits = graph.forward(x, training=True, rng=np.random.default_rng(1))
        _, dlogits = cross_entropy_loss(logits, np.array([0, 1, 0]))
        with pytest.raises(StateError):
            graph.backward(dlogits)

    def test_zero_loss_grad_gives_zero_param_grads(self):
        cfg = EncoderConfig(channels=(2,), kernels=(3,), pool_widths=(2,),
                            input_len=8, projection_dim=3)
        graph = build_ssl_graph(cfg, seed=0)
        x = np.random.default_rng(0).uniform(-1, 1, (2, 1, 8)).astype(np.float32)
        out = graph.forward(x, training=True)
        graph.backward(np.zeros_like(out))
        for name, g in graph.named_grads():
            assert np.all(g == 0.0), name


class TestLars:
    def test_zero_norm_layer_falls_back_to_momentum_sgd(self):
        w = np.zeros((2, 2))
        g = np.full((2, 2), 0.5)
        opt = Lars([("w", w)])
        opt.momentum = 0.0
        opt.step([("w", g)], lr=0.1)
        np.testing.assert_allclose(w, -0.1 * g)

    def test_hand_evaluated_trust_ratio(self):
        w = np.array([[2.0]])
        g = np.array([[1.0]])
        opt = Lars([("w", w)])
        opt.momentum = 0.0
        opt.step([("w", g)], lr=1.0)
        assert abs(w[0, 0] - (2.0 - 0.002)) < 1e-9

    def test_momentum_recurrence_second_step_1_9x(self):
        w = np.array([[3.0, 4.0]])
        g = np.array([[0.2, -0.1]])
        opt = Lars([("w", w)])
        before = w.copy()
        opt.step([("w", g)], lr=1.0)
        step1 = before - w
        w[...] = before  # same inputs again; only the velocity persists
        opt.step([("w", g)], lr=1.0)
        step2 = before - w
        np.testing.assert_allclose(step2, 1.9 * step1, rtol=1e-12)

    def test_biases_use_plain_update(self):
        b = np.array([5.0])
        g = np.array([1.0])
        opt = Lars([("b", b)])
        opt.momentum = 0.0
        opt.step([("b", g)], lr=0.01)
        # no trust scaling on 1-D parameters
        assert abs(b[0] - (5.0 - 0.01)) < 1e-12

    def test_non_finite_gradient(self):
        w = np.ones((2, 2))
        opt = Lars([("w", w)])
        with pytest.raises(NumericError):
            opt.step([("w", np.full((2, 2), np.nan))], lr=0.1)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        w = np.array([1.0, -2.0, 3.0])
        g = np.array([0.5, -1.5, 2.0])
        opt = Adam([("w", w)], lr=1e-4)
        before = w.copy()
        opt.step([("w", g)])
        steps = before - w
        np.testing.assert_allclose(np.abs(steps), 1e-4, atol=1e-9)
        np.testing.assert_array_equal(np.sign(steps), np.sign(g))

    def test_zero_gradient_no_change(self):
        w = np.array([1.0, 2.0])
        opt = Adam([("w", w)], lr=1e-4)
        for _ in range(5):
            opt.step([("w", np.zeros(2))])
        np.testing.assert_array_equal(w, [1.0, 2.0])

    def test_deterministic(self):
        def run():
            w = np.array([[1.0, -1.0]])
            opt = Adam([("w", w)], lr=1e-3)
            rng = np.random.default_rng(7)
            for _ in range(10):
                opt.step([("w", rng.normal(size=(1, 2)))])
            return w.copy()

        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch(self):
        opt = Adam([("w", np.zeros(3))], lr=1e-4)
        with pytest.raises(ShapeError):
            opt.step([("w", np.zeros(4))])


def _default_schedule(total_epochs):
    """The schedule of `PretrainConfig()`: warmup 20 epochs to 0.1, floor 1%."""
    cfg = PretrainConfig()
    return LrSchedule(total_epochs, cfg.warmup_epochs, cfg.peak_lr)


class TestLrSchedule:
    def test_peak_at_end_of_warmup(self):
        sched = _default_schedule(200)
        assert abs(sched.lr(19) - 0.1) < 1e-12

    def test_linear_midpoint(self):
        sched = _default_schedule(200)
        assert abs(sched.lr(9) - 0.05) < 1e-12

    def test_final_epoch_hits_floor(self):
        sched = _default_schedule(200)
        assert abs(sched.lr(199) - 0.001) < 1e-9

    def test_continuous_at_warmup_boundary(self):
        sched = _default_schedule(200)
        assert abs(sched.lr(20) - sched.lr(19)) < 1e-9

    def test_nonnegative_everywhere(self):
        sched = _default_schedule(120)
        values = [sched.lr(e) for e in range(120)]
        assert all(v >= 0 for v in values)
        assert max(values) <= 0.1 + 1e-12

    def test_short_runs_scale_warmup(self):
        sched = _default_schedule(10)
        assert abs(sched.lr(9) - 0.1) < 1e-12


class TestEarlyStopping:
    """`run_epoch(e)` sets every weight to e, so the restored weights name
    the epoch they came from."""

    @staticmethod
    def run(val_losses, patience, train_losses=None):
        graph = build_ssl_graph(DESK_ENCODER, seed=0)
        train_losses = train_losses or [1.0] * len(val_losses)

        def run_epoch(epoch):
            for _, arr in graph.named_params():
                arr[...] = epoch
            return EpochStats(epoch + 1, train_losses[epoch], val_losses[epoch], 0.1)

        history = early_stopping(graph, run_epoch, len(val_losses), patience)
        restored = {float(arr.flat[0]) for _, arr in graph.named_params()}
        assert len(restored) == 1
        return history, restored.pop()

    def test_stops_after_patience_bad_epochs_and_restores_the_best(self):
        history, epoch = self.run([3.0, 2.0, 2.5, 1.0, 1.0, 1.5, 0.5], patience=2)
        assert [h.epoch for h in history] == [1, 2, 3, 4, 5, 6]
        assert epoch == 3

    def test_runs_max_epochs_without_a_stall(self):
        history, epoch = self.run([5.0, 4.0, 3.0], patience=1)
        assert len(history) == 3 and epoch == 2

    def test_patience_zero_stops_at_the_first_stall(self):
        history, epoch = self.run([2.0, 2.0, 1.0], patience=0)
        assert len(history) == 2 and epoch == 0

    def test_nan_val_loss_watches_the_training_loss(self):
        nan = float("nan")
        history, epoch = self.run([nan] * 5, patience=2, train_losses=[3.0, 1.0, 2.0, 0.5, 0.7])
        assert len(history) == 5 and epoch == 3


class TestCaches:
    def test_a_training_step_then_validation_and_restore_leave_no_cache(self):
        """Early stopping's sequence: a training forward and backward, an
        eval forward for the validation loss, then the best weights come
        back. No layer holds a cache, and a backward raises."""
        graph = build_ssl_graph(DESK_ENCODER, seed=1)
        graph.set_classifier_head(1, seed=2)
        snap = graph.snapshot()
        x = np.random.default_rng(3).standard_normal((4, DESK_ENCODER.input_len))
        graph.forward(x, training=True, rng=np.random.default_rng(4))
        assert all(layer._cache is not None for layer in graph.encoder_layers + graph.head_layers)
        graph.backward(np.ones((4, 1), dtype=np.float32))
        graph.forward(x)
        graph.restore(snap)
        assert all(layer._cache is None for layer in graph.encoder_layers + graph.head_layers)
        with pytest.raises(StateError):
            graph.backward(np.ones((4, 1), dtype=np.float32))

    def test_backward_hands_over_every_cache(self):
        """A cache lives from its forward to its backward: none is left after
        `backward`, so a second backward raises."""
        graph = build_ssl_graph(DESK_ENCODER, seed=1)
        graph.set_classifier_head(1, seed=2)
        x = np.random.default_rng(3).standard_normal((4, DESK_ENCODER.input_len))
        graph.forward(x, training=True, rng=np.random.default_rng(4))
        graph.backward(np.ones((4, 1), dtype=np.float32))
        assert all(layer._cache is None for layer in graph.encoder_layers + graph.head_layers)
        with pytest.raises(StateError):
            graph.backward(np.ones((4, 1), dtype=np.float32))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = EncoderConfig(channels=(2, 3), kernels=(5, 3), pool_widths=(2, 2),
                            input_len=32, projection_dim=6)
        graph = build_ssl_graph(cfg, seed=9)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, graph, extra={"epoch": 3, "config_hash": "abc"})
        loaded, meta = load_checkpoint(path)
        assert meta["extra"]["epoch"] == 3
        assert meta["head"] == "projection"
        for (n1, a), (n2, b) in zip(graph.named_params(), loaded.named_params()):
            assert n1 == n2
            np.testing.assert_array_equal(a, b)

    def test_magic_and_determinism(self, tmp_path):
        cfg = EncoderConfig(channels=(2,), kernels=(3,), pool_widths=(2,),
                            input_len=8, projection_dim=3)
        graph = build_ssl_graph(cfg, seed=1)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, graph, extra={"k": 1})
        save_checkpoint(p2, graph, extra={"k": 1})
        data = p1.read_bytes()
        assert data[:8] == b"PCGSSL01"
        assert data == p2.read_bytes()

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        cfg = EncoderConfig(channels=(2,), kernels=(3,), pool_widths=(2,),
                            input_len=8, projection_dim=3)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, build_ssl_graph(cfg, seed=1))
        old = path.read_bytes()

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            save_checkpoint(path, build_ssl_graph(cfg, seed=2))
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["enc.ckpt"]

    def test_classifier_round_trip(self, tmp_path):
        cfg = EncoderConfig(channels=(2, 2), kernels=(3, 3), pool_widths=(2, 2),
                            input_len=16, projection_dim=4)
        graph = build_ssl_graph(cfg, seed=2)
        graph.freeze_encoder()
        graph.set_classifier_head(3, seed=3)
        path = tmp_path / "cls.ckpt"
        save_checkpoint(path, graph)
        loaded, meta = load_checkpoint(path)
        assert meta["encoder_frozen"] is True
        assert loaded.encoder_frozen
        assert loaded.n_out == 3
        x = np.random.default_rng(4).uniform(-1, 1, (2, 1, 16)).astype(np.float32)
        np.testing.assert_array_equal(graph.forward(x), loaded.forward(x))

    def test_init_seed_dependence(self):
        cfg = EncoderConfig(channels=(2,), kernels=(3,), pool_widths=(2,),
                            input_len=8, projection_dim=3)
        g1 = build_ssl_graph(cfg, seed=1)
        g2 = build_ssl_graph(cfg, seed=2)
        g1b = build_ssl_graph(cfg, seed=1)
        assert any(
            not np.array_equal(a, b)
            for (_, a), (_, b) in zip(g1.named_params(), g2.named_params())
        )
        for (_, a), (_, b) in zip(g1.named_params(), g1b.named_params()):
            np.testing.assert_array_equal(a, b)

    def test_metadata_holds_the_payload_digest_and_no_fixed_value(self, tmp_path):
        graph = build_ssl_graph(EncoderConfig(channels=(2,), kernels=(3,), pool_widths=(2,),
                                              input_len=8, projection_dim=3), seed=1)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, graph)
        data = path.read_bytes()
        (meta_len,) = struct.unpack_from("<I", data, 8)
        meta = json.loads(data[12 : 12 + meta_len])
        assert "dropout" not in meta and "in_channels" not in meta["arch"]
        assert meta["sha256"] == hashlib.sha256(data[12 + meta_len :]).hexdigest()

    @pytest.mark.parametrize("frozen", [False, True], ids=["ssl", "classifier"])
    def test_a_checkpoint_with_the_old_header_loads(self, tmp_path, frozen):
        """The header written before the payload digest: `dropout` and
        `arch.in_channels`, no `sha256`. The same parameters load, and the
        graph gives the same forward."""
        cfg = EncoderConfig(channels=(2, 2), kernels=(3, 3), pool_widths=(2, 2),
                            input_len=16, projection_dim=4)
        graph = build_ssl_graph(cfg, seed=2)
        if frozen:
            graph.freeze_encoder()
            graph.set_classifier_head(3, seed=3)
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, graph, extra={"epoch": 2})
        data = path.read_bytes()
        (meta_len,) = struct.unpack_from("<I", data, 8)
        meta = json.loads(data[12 : 12 + meta_len])
        del meta["sha256"]
        meta["dropout"], meta["arch"]["in_channels"] = 0.5, 1
        blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + meta_len :])
        loaded, loaded_meta = load_checkpoint(path)
        assert loaded_meta["extra"] == {"epoch": 2}
        assert [(n, a.tobytes()) for n, a in loaded.named_params()] \
            == [(n, a.tobytes()) for n, a in graph.named_params()]
        x = np.random.default_rng(4).uniform(-1, 1, (2, 1, 16)).astype(np.float32)
        assert loaded.forward(x).tobytes() == graph.forward(x).tobytes()

    def test_parameter_names_keep_conv_layer_indices(self):
        cfg = EncoderConfig(channels=(2, 3), kernels=(3, 3), pool_widths=(2, 2),
                            input_len=16, projection_dim=4)
        names = [name for name, _ in build_ssl_graph(cfg, seed=0).named_params()]
        assert names == ["enc0.w", "enc0.b", "enc3.w", "enc3.b", "head0.w", "head0.b"]

    @pytest.mark.parametrize("head", [None, PROJECTION, CLASSIFIER])
    @pytest.mark.parametrize("cfg", [EncoderConfig(), DESK_ENCODER,
                                     EncoderConfig(channels=(2, 3), kernels=(3, 3),
                                                   pool_widths=(2, 2), input_len=16,
                                                   projection_dim=4)],
                             ids=["full_size", "desk", "tiny"])
    def test_param_count_is_the_size_of_the_graph_it_declares(self, cfg, head):
        """The loader checks a checkpoint's size by `param_count` before it
        builds the graph, so the two must agree on every head."""
        graph = build_ssl_graph(cfg, seed=0)
        graph.freeze_encoder()
        if head == PROJECTION:
            graph.set_projection_head(np.random.default_rng(0))
        elif head == CLASSIFIER:
            graph.set_classifier_head(3, seed=0)
        assert param_count(cfg, graph.head_kind, graph.n_out) \
            == sum(arr.size for _, arr in graph.named_params())


class TestCheckpointCorruption:
    @pytest.fixture
    def saved(self, tmp_path):
        cfg = EncoderConfig(channels=(2, 3), kernels=(5, 3), pool_widths=(2, 2),
                            input_len=32, projection_dim=6)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, build_ssl_graph(cfg, seed=9), extra={"epoch": 1})
        data = path.read_bytes()
        (meta_len,) = struct.unpack_from("<I", data, 8)
        return path, data, 12 + meta_len

    @pytest.mark.parametrize("region", ["magic", "length", "metadata", "first_param", "last_param"])
    def test_truncation_raises_format_error_naming_the_file(self, saved, region):
        path, data, params_at = saved
        cut = {
            "magic": 5,
            "length": 10,
            "metadata": (12 + params_at) // 2,
            "first_param": params_at + 6,
            "last_param": len(data) - 2,
        }[region]
        path.write_bytes(data[:cut])
        with pytest.raises(FormatError, match="enc.ckpt"):
            load_checkpoint(path)

    @pytest.mark.parametrize("drop", ["arch", "head", "params"])
    def test_missing_metadata_key(self, saved, drop):
        path, data, params_at = saved
        meta = json.loads(data[12:params_at])
        del meta[drop]
        blob = json.dumps(meta).encode()
        path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[params_at:])
        with pytest.raises(FormatError, match=drop):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [("channels", [2, 0]), ("kernels", [5, -3]),
                                           ("pool_widths", [0, 2]), ("projection_dim", 0)])
    def test_out_of_range_architecture(self, saved, key, value):
        path, data, params_at = saved
        meta = json.loads(data[12:params_at])
        meta["arch"][key] = value
        blob = json.dumps(meta).encode()
        path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[params_at:])
        with pytest.raises(FormatError, match=f"enc.ckpt: bad checkpoint architecture: .*{key}"):
            load_checkpoint(path)

    def test_non_utf8_metadata(self, saved):
        path, data, params_at = saved
        path.write_bytes(data[:12] + b"\xff" * (params_at - 12) + data[params_at:])
        with pytest.raises(FormatError, match="enc.ckpt"):
            load_checkpoint(path)
