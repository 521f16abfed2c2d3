"""Tests for the NT-Xent objective and pretraining."""

import math
import tracemalloc

import numpy as np
import pytest

from cardioclr import augment as aug
from cardioclr.contrastive import (
    PretrainConfig,
    nt_xent_grad,
    pretrain,
)
from cardioclr.downstream import DownstreamConfig, TaskSpec, train_baseline, train_head
from cardioclr.errors import ConfigError, NumericError, ParameterError
from cardioclr.nn import EncoderConfig, build_ssl_graph, layers
from cardioclr.nn.gradcheck import numeric_gradient, relative_error
from cardioclr.nn.optim import history_to_csv


def nt_xent_loss(views, temperature: float):
    """Scalar NT-Xent loss and the 2N per-anchor pair losses."""
    loss, per_pair, _ = nt_xent_grad(views, temperature)
    return loss, per_pair


def naive_nt_xent(z, tau):
    """Brute-force double-loop implementation of the pairwise loss."""
    z = np.asarray(z, dtype=np.float64)
    two_n = z.shape[0]
    n = two_n // 2

    def sim(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    losses = []
    for i in range(two_n):
        j = i + n if i < n else i - n
        denom = 0.0
        for k in range(two_n):
            if k != i:
                denom += math.exp(sim(z[i], z[k]) / tau)
        losses.append(-math.log(math.exp(sim(z[i], z[j]) / tau) / denom))
    return float(np.mean(losses)), np.array(losses)


class TestNtXent:
    def test_single_pair_loss_is_zero(self):
        z = np.array([[1.0, 0.5], [0.2, -0.4]])
        loss, per_pair = nt_xent_loss(z, 0.1)
        assert loss == 0.0
        np.testing.assert_array_equal(per_pair, [0.0, 0.0])

    def test_all_identical_gives_log_2n_minus_1(self):
        n = 4
        z = np.tile(np.array([0.3, 0.1, -0.2]), (2 * n, 1))
        loss, per_pair = nt_xent_loss(z, 0.1)
        expected = math.log(2 * n - 1)
        assert abs(loss - expected) < 1e-9
        assert abs(expected - 1.94591) < 1e-5
        np.testing.assert_allclose(per_pair, expected, atol=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_matches_naive_double_loop(self, n):
        rng = np.random.default_rng(n)
        z = rng.uniform(-1, 1, (2 * n, 16))
        loss, per_pair = nt_xent_loss(z, 0.1)
        naive_loss, naive_pairs = naive_nt_xent(z, 0.1)
        assert abs(loss - naive_loss) < 1e-10
        np.testing.assert_allclose(per_pair, naive_pairs, atol=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        z = rng.uniform(-1, 1, (8, 32))
        base, _ = nt_xent_loss(z, 0.1)
        for c in (0.1, 10.0):
            scaled, _ = nt_xent_loss(c * z, 0.1)
            assert abs(scaled - base) < 1e-9

    def test_monotone_in_positive_similarity(self):
        # 3 pairs on the unit circle; closing the angle of pair 0 must lower
        # the loss with everything else fixed
        def batch(theta):
            angles = [0.0, theta, 2.0, 2.1, 4.0, 4.2]
            pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            return pts[[0, 2, 4, 1, 3, 5]]  # pair i <-> i+3

        tighter, _ = nt_xent_loss(batch(0.1), 0.1)
        looser, _ = nt_xent_loss(batch(0.5), 0.1)
        assert tighter < looser

    def test_stability_at_extreme_logits(self):
        z = np.array([[1.0, 0.0], [1.0, 1e-9], [-1.0, 0.0], [-1.0, -1e-9]])
        loss, _ = nt_xent_loss(z, 0.1)  # sims up to 1.0 -> logits up to 10
        assert math.isfinite(loss)

    def test_per_pair_lower_bound(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(-1, 1, (12, 8))
        _, per_pair = nt_xent_loss(z, 0.1)
        assert np.all(per_pair > -1e-12)

    def test_batch_validation(self):
        with pytest.raises(ParameterError):
            nt_xent_loss(np.zeros((3, 4)), 0.1)
        with pytest.raises(NumericError):
            nt_xent_loss(np.full((4, 2), np.nan), 0.1)
        with pytest.raises(ParameterError):
            nt_xent_loss(np.ones((4, 2)), -0.5)

    def test_zero_row_has_no_direction_and_no_gradient(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(-1, 1, (8, 5))
        z[2] = 0.0
        loss, per_pair, grad = nt_xent_grad(z, 0.1)
        assert math.isfinite(loss) and np.all(np.isfinite(per_pair))
        np.testing.assert_array_equal(grad[2], np.zeros(5))
        others = np.arange(8) != 2
        numeric = numeric_gradient(lambda: nt_xent_grad(z, 0.1)[0], z)
        assert relative_error(grad[others], numeric[others]) < 1e-6

    def test_all_zero_batch_is_chance(self):
        # every similarity is 0, so each anchor picks its positive among 2N-1 equals
        loss, _, grad = nt_xent_grad(np.zeros((6, 3)), 0.1)
        assert abs(loss - math.log(5)) < 1e-12
        np.testing.assert_array_equal(grad, np.zeros((6, 3)))

    def test_grad_shrinks_loss(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-1, 1, (8, 16))
        loss, _, grad = nt_xent_grad(z, 0.1)
        stepped, _, _ = nt_xent_grad(z - 0.1 * grad, 0.1)
        assert stepped < loss


def _toy_windows(n, seed=0):
    """Two synthetic classes: low-frequency tone vs tone + mid-band noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(10000) / 2000.0
    xs, labels = [], []
    for i in range(n):
        base = 0.4 * np.sin(2 * np.pi * 40 * t + rng.uniform(0, 2 * np.pi))
        if i % 2:
            noise = rng.standard_normal(10000)
            band = aug.apply_cutoff_filter(noise.astype(np.float32), aug.design_fir("lp", 420, 380))
            band = band - aug.apply_cutoff_filter(band, aug.design_fir("lp", 180, 140))
            base = base + 0.25 * band / max(np.std(band), 1e-9)
        xs.append(base.astype(np.float32))
        labels.append(i % 2)
    return np.stack(xs), np.array(labels)


TINY_CFG = EncoderConfig(
    channels=(4, 8, 8), kernels=(16, 8, 8), pool_widths=(5, 5, 5),
    input_len=10000, projection_dim=16,
)


def tiny_pretrain_config(**overrides):
    base = dict(
        batch_size=8, max_epochs=6, patience=3,
        val_fraction=0.2, seed=0, warmup_epochs=2, peak_lr=0.02,
    )
    base.update(overrides)
    return PretrainConfig(**base)


class TestPretrain:
    def test_loss_improves_on_synthetic_data(self):
        x, _ = _toy_windows(48, seed=1)
        graph = build_ssl_graph(TINY_CFG, seed=0)
        policy = aug.parse_policy("lp(500,450)|flip(0.5)")
        _, history = pretrain(graph, x, policy, tiny_pretrain_config(max_epochs=8, patience=7))
        assert history[-1].train_loss < history[0].train_loss

    def test_zero_lr_stops_at_patience_plus_one(self):
        x, _ = _toy_windows(32, seed=2)
        graph = build_ssl_graph(TINY_CFG, seed=0)
        policy = aug.parse_policy("none|rev")
        cfg = tiny_pretrain_config(max_epochs=10, patience=1, peak_lr=0.0)
        _, history = pretrain(graph, x, policy, cfg)
        assert len(history) == 2

    def test_identical_seeds_identical_history(self):
        x, _ = _toy_windows(32, seed=3)
        policy = aug.parse_policy("noise(u,-0.05,0.05)|scale(0.5,2)")
        cfg = tiny_pretrain_config(max_epochs=3, patience=2)
        g1, h1 = pretrain(build_ssl_graph(TINY_CFG, seed=5), x, policy, cfg)
        g2, h2 = pretrain(build_ssl_graph(TINY_CFG, seed=5), x, policy, cfg)
        assert [(r.train_loss, r.val_loss, r.lr) for r in h1] == [
            (r.train_loss, r.val_loss, r.lr) for r in h2
        ]
        for (_, a), (_, b) in zip(g1.named_params(), g2.named_params()):
            np.testing.assert_array_equal(a, b)

    def test_nan_window_raises_numeric_error(self):
        # conv -> max-pool -> ReLU must carry the NaN through to the loss's
        # non-finite check instead of zeroing it (a zeroed NaN would surface
        # only later, as a non-finite conv weight gradient)
        x, _ = _toy_windows(16, seed=6)
        x[5, 1234] = np.nan
        graph = build_ssl_graph(TINY_CFG, seed=0)
        cfg = tiny_pretrain_config(val_fraction=0.0)
        with pytest.raises(NumericError, match="non-finite projection"):
            pretrain(graph, x, aug.parse_policy("none|rev"), cfg)

    def test_too_few_windows_rejected(self):
        x, _ = _toy_windows(8)
        graph = build_ssl_graph(TINY_CFG, seed=0)
        with pytest.raises(ConfigError):
            pretrain(graph, x, aug.parse_policy("none|rev"), tiny_pretrain_config(batch_size=8))

    def test_history_csv(self):
        x, _ = _toy_windows(32, seed=4)
        graph = build_ssl_graph(TINY_CFG, seed=0)
        _, history = pretrain(graph, x, aug.parse_policy("none|inv"), tiny_pretrain_config(max_epochs=2, patience=1))
        csv_text = history_to_csv(history)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,lr"
        assert len(lines) == len(history) + 1


class TestNoCachesAfterTraining:
    """A trained graph holds no forward activations: `pretrain`'s last
    validation batch, a head's last val chunk and a baseline's would
    otherwise stay alive in the returned graph."""

    @staticmethod
    def caches(graph):
        return [type(layer).__name__ for layer in graph.encoder_layers + graph.head_layers
                if layer._cache is not None]

    def test_pretrain(self):
        x, _ = _toy_windows(32, seed=7)
        graph, _ = pretrain(build_ssl_graph(TINY_CFG, seed=0), x, aug.parse_policy("none|rev"),
                            tiny_pretrain_config(max_epochs=2, patience=1))
        assert self.caches(graph) == []

    def test_full_size_pretrain_peak_holds_one_step(self, monkeypatch):
        """Two full-size epochs at batch 16 (4 steps and one validation
        batch each) under tracemalloc, on one thread. The step's views die
        once the forward returns, and the validation batch drops its caches,
        so the next epoch's first step does not run beside them: 15.1 MiB,
        against 16.3 MiB when the views live through the step and 20.4 MiB
        when the validation caches do."""
        monkeypatch.setattr(layers, "THREADS", 1)
        x = np.random.default_rng(2).standard_normal((80, 10000)).astype(np.float32)
        graph = build_ssl_graph(EncoderConfig(), seed=1)
        config = PretrainConfig(batch_size=16, max_epochs=2, patience=1, warmup_epochs=0)
        tracemalloc.start()
        try:
            pretrain(graph, x, aug.parse_policy("lp(500,450)|flip(0.5)"), config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15.6 * 2**20, peak / 2**20

    def test_train_head(self):
        x, labels = _toy_windows(24, seed=8)
        graph = build_ssl_graph(TINY_CFG, seed=0)
        graph.freeze_encoder()
        f = graph.embed(x)
        cfg = DownstreamConfig(max_epochs=2, patience=1, seed=0)
        graph, _ = train_head(graph, TaskSpec("synthetic", "binary"), (f[:16], labels[:16]),
                              (f[16:], labels[16:]), cfg)
        assert self.caches(graph) == []

    def test_train_baseline(self):
        x, labels = _toy_windows(24, seed=9)
        graph = build_ssl_graph(TINY_CFG, seed=0)
        cfg = DownstreamConfig(max_epochs=2, patience=1, seed=0)
        graph, _ = train_baseline(graph, TaskSpec("synthetic", "binary"),
                                  (x[:16], labels[:16]), (x[16:], labels[16:]), cfg)
        assert self.caches(graph) == []


class TestFreeze:
    def test_freeze_discards_projection_and_blocks_updates(self):
        x, labels = _toy_windows(40, seed=6)
        graph = build_ssl_graph(TINY_CFG, seed=1)
        policy = aug.parse_policy("none|rev")
        graph, _ = pretrain(graph, x, policy, tiny_pretrain_config(max_epochs=2, patience=1))
        graph.freeze_encoder()
        assert graph.head_kind is None
        assert all(name.startswith("enc") for name, _ in graph.named_params())
        before = graph.encoder_bytes()

        task = TaskSpec("synthetic", "binary")
        cfg = DownstreamConfig(max_epochs=3, patience=2, seed=0)
        f = graph.embed(x)
        train_head(graph, task, (f[:32], labels[:32]), (f[32:], labels[32:]), cfg)
        assert graph.encoder_bytes() == before

    def test_classifier_inits_differ_across_seeds(self):
        graph = build_ssl_graph(TINY_CFG, seed=1)
        graph.freeze_encoder()
        graph.set_classifier_head(1, seed=10)
        w10 = [arr.copy() for _, arr in graph.named_params(trainable_only=True)]
        graph.set_classifier_head(1, seed=11)
        w11 = [arr for _, arr in graph.named_params(trainable_only=True)]
        assert any(not np.array_equal(a, b) for a, b in zip(w10, w11))
