"""Tests for task specs, metrics, head training and the supervised baseline."""

import numpy as np
import pytest

from cardioclr.downstream import (
    DownstreamConfig,
    TaskSpec,
    confusion_matrix,
    evaluate,
    metrics_from_confusion,
    per_class_f1,
    train_baseline,
    train_head,
)
from cardioclr.errors import ConfigError, DataError, ShapeError
from cardioclr.nn import EncoderConfig, build_ssl_graph
from cardioclr.nn.layers import Dense
from cardioclr.nn.losses import decisions
from cardioclr.nn.model import EVAL_CHUNK
from cardioclr.signal_io import LABEL_SETS, LabeledWindow, assign_labels

CFG = EncoderConfig(
    channels=(4, 8), kernels=(16, 8), pool_widths=(10, 10),
    input_len=10000, projection_dim=8,
)


def _metas(binary_labels, tag="synthetic"):
    metas = []
    for i, lab in enumerate(binary_labels):
        metas.append(
            LabeledWindow(
                samples=np.zeros(10000, dtype=np.float32),
                record_id=f"r{i}",
                dataset_tag=tag,
                window_index=0,
                original_label=lab,
                binary_label=lab,
            )
        )
    return metas


class TestTaskSpec:
    def test_output_widths(self):
        assert TaskSpec("pascal", "all").n_out == 5
        assert TaskSpec("physionet2022", "all").n_out == 3
        assert TaskSpec("physionet2016", "all").n_out == 1
        assert TaskSpec("pascal", "binary").n_out == 1
        assert TaskSpec("physionet2016", "binary").n_out == 1

    def test_unlabeled_dataset_rejected(self):
        with pytest.raises(ConfigError):
            TaskSpec("ephnogram", "binary")

    def test_encode_binary(self):
        task = TaskSpec("synthetic", "binary")
        y = task.encode(_metas(["normal", "abnormal", "abnormal"]))
        assert y.tolist() == [0, 1, 1]

    def test_encode_mismatch_raises(self):
        task = TaskSpec("pascal", "all")
        with pytest.raises(ConfigError):
            task.encode(_metas(["normal"]))

    @pytest.mark.parametrize("tag", sorted(LABEL_SETS))
    def test_all_task_classes_are_the_datasets_label_set(self, tag):
        assert TaskSpec(tag, "all").class_names == LABEL_SETS[tag]

    @pytest.mark.parametrize("tag", [tag for tag, names in LABEL_SETS.items() if len(names) == 2])
    def test_two_class_all_task_encodes_like_binary(self, tag):
        metas = []
        for i, label in enumerate([*LABEL_SETS[tag], *reversed(LABEL_SETS[tag])]):
            original, binary = assign_labels(tag, label)
            metas.append(LabeledWindow(samples=np.zeros(10000, dtype=np.float32),
                                       record_id=f"r{i}", dataset_tag=tag, window_index=0,
                                       original_label=original, binary_label=binary))
        binary = TaskSpec(tag, "binary").encode(metas)
        assert binary.tolist() == [0, 1, 1, 0]
        np.testing.assert_array_equal(TaskSpec(tag, "all").encode(metas), binary)


class TestMetrics:
    def test_all_correct(self):
        conf = confusion_matrix(np.array([0, 1, 2]), np.array([0, 1, 2]), 3)
        m = metrics_from_confusion(conf)
        assert m.accuracy == m.micro_f1 == m.macro_f1 == 1.0
        assert m.n_windows == 3

    def test_hand_computed_binary_confusion(self):
        # TP=2 FP=1 FN=1 TN=6 for the positive (abnormal=1) class
        y_true = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        y_pred = np.array([1, 1, 0, 1, 0, 0, 0, 0, 0, 0])
        conf = confusion_matrix(y_true, y_pred, 2)
        m = metrics_from_confusion(conf)
        assert abs(m.accuracy - 0.8) < 1e-12
        assert abs(per_class_f1(conf, 1) - 2 * 2 / (2 * 2 + 1 + 1)) < 1e-12

    def test_micro_f1_equals_accuracy_property(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n_classes = int(rng.integers(2, 6))
            n = int(rng.integers(1, 60))
            y_true = rng.integers(0, n_classes, n)
            y_pred = rng.integers(0, n_classes, n)
            m = metrics_from_confusion(confusion_matrix(y_true, y_pred, n_classes))
            assert abs(m.micro_f1 - m.accuracy) < 1e-12

    def test_accuracy_is_trace_over_n(self):
        conf = np.array([[5, 2], [1, 4]])
        m = metrics_from_confusion(conf)
        assert abs(m.accuracy - 9 / 12) < 1e-12


class TestEvaluate:
    def _trained_graph(self, n_out=1):
        graph = build_ssl_graph(CFG, seed=0)
        graph.freeze_encoder()
        graph.set_classifier_head(n_out, seed=1)
        return graph

    def test_empty_windows_rejected(self):
        graph = self._trained_graph()
        with pytest.raises(DataError):
            evaluate(graph, np.zeros((0, CFG.feature_dim()), dtype=np.float32), [],
                     TaskSpec("synthetic", "binary"))

    def test_feature_rows_must_match_metas(self):
        graph = self._trained_graph()
        with pytest.raises(ShapeError):
            evaluate(graph, np.zeros((3, CFG.feature_dim()), dtype=np.float32),
                     _metas(["normal"] * 2), TaskSpec("synthetic", "binary"))

    def test_argmax_invariance_under_monotone_transform(self):
        # doubling and shifting all logits cannot change decisions or metrics
        graph = self._trained_graph(n_out=1)
        rng = np.random.default_rng(2)
        features = graph.embed(rng.uniform(-1, 1, (12, 10000)).astype(np.float32))
        metas = _metas(["normal"] * 6 + ["abnormal"] * 6)
        task = TaskSpec("synthetic", "binary")
        base = evaluate(graph, features, metas, task)

        final: Dense = graph.head_layers[-1]
        final.w[...] *= 2.0
        final.b[...] *= 2.0
        transformed = evaluate(graph, features, metas, task)
        assert base.accuracy == transformed.accuracy
        assert base.micro_f1 == transformed.micro_f1
        np.testing.assert_array_equal(base.confusion, transformed.confusion)

    def test_order_independence(self):
        graph = self._trained_graph(n_out=1)
        rng = np.random.default_rng(3)
        features = graph.embed(rng.uniform(-1, 1, (10, 10000)).astype(np.float32))
        metas = _metas(["normal"] * 5 + ["abnormal"] * 5)
        task = TaskSpec("synthetic", "binary")
        m1 = evaluate(graph, features, metas, task)
        perm = rng.permutation(10)
        m2 = evaluate(graph, features[perm], [metas[i] for i in perm], task)
        assert m1.accuracy == m2.accuracy
        np.testing.assert_array_equal(m1.confusion, m2.confusion)

    def test_scores_what_the_full_forward_pass_decides(self):
        # evaluate on embedded features gives the decisions of `forward` on
        # the windows, across an EVAL_CHUNK boundary of the head passes
        graph = self._trained_graph(n_out=1)
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (EVAL_CHUNK + 5, 10000)).astype(np.float32)
        metas = _metas(["normal", "abnormal"] * ((EVAL_CHUNK + 5) // 2) + ["normal"])
        task = TaskSpec("synthetic", "binary")
        y_pred = np.concatenate([decisions(graph.forward(x[s : s + 64])) for s in range(0, len(x), 64)])
        expected = metrics_from_confusion(confusion_matrix(task.encode(metas), y_pred, 2))
        np.testing.assert_array_equal(evaluate(graph, graph.embed(x), metas, task).confusion,
                                      expected.confusion)


def _separable_windows(n, seed=0):
    """Class 1 carries clearly more energy: linearly separable after pooling."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for i in range(n):
        amp = 0.1 if i % 2 == 0 else 0.7
        xs.append((amp * rng.standard_normal(10000)).astype(np.float32))
        ys.append(i % 2)
    return np.stack(xs), np.array(ys)


class TestTrainHead:
    def test_linearly_separable_reaches_99(self, monkeypatch):
        monkeypatch.setattr("cardioclr.nn.model.DROPOUT", 0.0)
        x, y = _separable_windows(64, seed=1)
        graph = build_ssl_graph(CFG, seed=0)
        graph.freeze_encoder()
        cfg = DownstreamConfig(adam_lr=3e-3, max_epochs=100, patience=99, seed=0)
        f = graph.embed(x)
        graph, _ = train_head(graph, TaskSpec("synthetic", "binary"), (f, y), (f[:16], y[:16]), cfg)
        preds = []
        for start in range(0, 64, 32):
            logits = graph.forward(x[start : start + 32])
            preds.append((logits[:, 0] >= 0).astype(int))
        accuracy = float(np.mean(np.concatenate(preds) == y))
        assert accuracy >= 0.99

    def test_encoder_bitwise_unchanged(self):
        x, y = _separable_windows(32, seed=2)
        graph = build_ssl_graph(CFG, seed=1)
        graph.freeze_encoder()
        before = graph.encoder_bytes()
        cfg = DownstreamConfig(max_epochs=4, patience=3, seed=0)
        f = graph.embed(x)
        train_head(graph, TaskSpec("synthetic", "binary"), (f, y), (f[:8], y[:8]), cfg)
        assert graph.encoder_bytes() == before

    def test_zero_lr_constant_val_loss_stops_at_21(self):
        x, y = _separable_windows(32, seed=3)
        graph = build_ssl_graph(CFG, seed=1)
        graph.freeze_encoder()
        cfg = DownstreamConfig(adam_lr=0.0, max_epochs=100, patience=20, seed=0)
        f = graph.embed(x)
        _, history = train_head(graph, TaskSpec("synthetic", "binary"), (f, y), (f[:8], y[:8]), cfg)
        assert len(history) == 21
        vals = {round(h.val_loss, 12) for h in history}
        assert len(vals) == 1

    def test_unfrozen_encoder_rejected(self):
        graph = build_ssl_graph(CFG, seed=0)
        dim = CFG.feature_dim()
        with pytest.raises(ConfigError):
            train_head(graph, TaskSpec("synthetic", "binary"),
                       (np.zeros((4, dim), np.float32), np.zeros(4, np.int64)),
                       (np.zeros((0, dim), np.float32), np.zeros(0, np.int64)),
                       DownstreamConfig(max_epochs=2, patience=1))


class TestTrainBaseline:
    def test_every_layer_moves_after_one_step(self, monkeypatch):
        monkeypatch.setattr("cardioclr.nn.model.DROPOUT", 0.0)
        x, y = _separable_windows(8, seed=4)
        graph = build_ssl_graph(CFG, seed=2)
        graph.set_classifier_head(1, seed=0)  # the head train_baseline sets
        before = {name: arr.copy() for name, arr in graph.named_params()}
        cfg = DownstreamConfig(adam_lr=1e-3, max_epochs=2, patience=1, batch_size=8, seed=0)
        train_baseline(graph, TaskSpec("synthetic", "binary"), (x, y), (x, y), cfg)
        moved = [name for name, arr in graph.named_params() if not np.array_equal(arr, before[name])]
        weight_names = {name for name, _ in graph.named_params() if name.endswith(".w")}
        assert weight_names <= set(moved)

    def test_same_seed_rerun_identical(self):
        x, y = _separable_windows(16, seed=5)

        def run():
            graph = build_ssl_graph(CFG, seed=4)
            cfg = DownstreamConfig(adam_lr=1e-3, max_epochs=3, patience=2, seed=7)
            train_baseline(graph, TaskSpec("synthetic", "binary"), (x, y), (x[:4], y[:4]), cfg)
            return [arr.copy() for _, arr in graph.named_params()]

        for a, b in zip(run(), run()):
            np.testing.assert_array_equal(a, b)

    def test_frozen_graph_rejected(self):
        graph = build_ssl_graph(CFG, seed=0)
        graph.freeze_encoder()
        with pytest.raises(ConfigError):
            train_baseline(graph, TaskSpec("synthetic", "binary"),
                           (np.zeros((4, 10000), np.float32), np.zeros(4, np.int64)),
                           (np.zeros((0, 10000), np.float32), np.zeros(0, np.int64)),
                           DownstreamConfig(max_epochs=2, patience=1))
