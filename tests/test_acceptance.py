"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The heavyweight end-to-end criteria (5 and 6) train
desk-scale encoders on the built-in synthetic generator.
"""

import math
import time

import numpy as np
import pytest

from cardioclr import signal_io as sio
from cardioclr.analysis import cohens_d, match_paired_experiments, pairing_index, top_k_occurrences
from cardioclr.augment import (
    design_fir,
    invert,
    parse_policy,
    reverse,
)
from cardioclr.config import RunConfig
from cardioclr.contrastive import PretrainConfig, pretrain
from cardioclr.downstream import (
    DownstreamConfig,
    TaskSpec,
    evaluate,
    train_baseline,
    train_head,
)
from cardioclr.nn import EncoderConfig, build_ssl_graph
from cardioclr.nn.gradcheck import run_gradient_suite
from cardioclr.protocol import (
    ExperimentPlan,
    LedgerRow,
    WindowStores,
    downstream_splits,
    leave_dataset_out_cycles,
    run_plan,
)
from cardioclr.signal_io import LabeledWindow, write_window_store
from test_contrastive import nt_xent_loss

DESK_ENCODER = EncoderConfig(
    channels=(4, 8, 8, 16, 16),
    kernels=(16, 8, 8, 4, 4),
    pool_widths=(4, 4, 4, 4, 4),
    input_len=10000,
    projection_dim=128,
)


def report(criterion: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {criterion} {label}: {status}{suffix}")
    assert passed, f"criterion {criterion} {label}: {detail}"


# ---------------------------------------------------------------------------
# 1. Gradient suite
# ---------------------------------------------------------------------------


def test_c1_gradient_suite():
    start = time.time()
    suite = run_gradient_suite(seed=0, trials_per_check=6)
    elapsed = time.time() - start
    worst = max(suite.values())
    n_trials = 6 * len(suite)
    report(
        1, "gradient-suite",
        worst < 1e-4 and n_trials >= 50 and elapsed < 120,
        f"max_rel_err={worst:.2e} over {n_trials} randomized checks in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. NT-Xent oracle
# ---------------------------------------------------------------------------


def _naive_nt_xent(z, tau):
    z = np.asarray(z, dtype=np.float64)
    two_n = z.shape[0]
    n = two_n // 2

    def sim(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    losses = []
    for i in range(two_n):
        j = i + n if i < n else i - n
        denom = sum(
            math.exp(sim(z[i], z[k]) / tau) for k in range(two_n) if k != i
        )
        losses.append(-math.log(math.exp(sim(z[i], z[j]) / tau) / denom))
    return float(np.mean(losses))


def test_c2_nt_xent_oracle():
    max_diff = 0.0
    for n in (2, 4, 8):
        rng = np.random.default_rng(n)
        z = rng.uniform(-1, 1, (2 * n, 24))
        loss, _ = nt_xent_loss(z, 0.1)
        max_diff = max(max_diff, abs(loss - _naive_nt_xent(z, 0.1)))

    degenerate_ok = True
    for n in (2, 4, 8):
        z = np.tile(np.array([0.5, -0.25, 0.1]), (2 * n, 1))
        _, per_pair = nt_xent_loss(z, 0.1)
        degenerate_ok &= bool(np.all(np.abs(per_pair - math.log(2 * n - 1)) < 1e-9))

    single, _ = nt_xent_loss(np.array([[1.0, 0.2], [0.3, -0.8]]), 0.1)
    report(
        2, "nt-xent-oracle",
        max_diff < 1e-10 and degenerate_ok and single == 0.0,
        f"max |vectorized - naive| = {max_diff:.2e}; ln(2N-1) degenerate ok; N=1 loss {single}",
    )


# ---------------------------------------------------------------------------
# 3. DSP suite
# ---------------------------------------------------------------------------


def _response_db(taps, freq_hz, fs=2000):
    n = np.arange(len(taps))
    mag = abs(np.sum(taps * np.exp(-2j * np.pi * freq_hz / fs * n)))
    return 20 * np.log10(max(mag, 1e-12))


def test_c3_dsp_suite():
    grid = [("lp", 500, 450), ("lp", 750, 700), ("lp", 250, 200),
            ("hp", 500, 550), ("hp", 250, 300), ("hp", 750, 800)]
    filters_ok = True
    for kind, a, b in grid:
        taps = design_fir(kind, a, b)
        width = abs(a - b)
        if kind == "lp":
            stop_probe, pass_probe = max(a, b) + width, min(a, b) - width
        else:
            stop_probe, pass_probe = min(a, b) - width, max(a, b) + width
        filters_ok &= _response_db(taps, stop_probe) <= -40.0
        filters_ok &= abs(_response_db(taps, pass_probe)) <= 1.0

    rng = np.random.default_rng(3)
    involution_ok = True
    for _ in range(1000):
        x = rng.uniform(-1, 1, 32).astype(np.float32)
        involution_ok &= bool(np.array_equal(reverse(reverse(x)), x))
        involution_ok &= bool(np.array_equal(invert(invert(x)), x))
        involution_ok &= bool(np.array_equal(reverse(invert(x)), invert(reverse(x))))

    law_ok = True
    for tenths in range(0, 1201):
        n = tenths * 200
        expected, pos = 0, 0
        while pos + 10000 <= n:
            expected += 1
            pos += 5000
        rec = sio.RawRecording(np.zeros(max(n, 1) if n else 0), 2000, "law")
        law_ok &= len(sio.extract_windows(rec)) == expected

    report(
        3, "dsp-suite",
        filters_ok and involution_ok and law_ok,
        "6 filters meet 40dB/1dB; involution+commutation on 1000 windows; "
        "window-count law over 0-120s",
    )


# ---------------------------------------------------------------------------
# 4. Statistics oracle
# ---------------------------------------------------------------------------


def _ledger_row(policy, micro, seed=1, eval_dataset="physionet2016", **kw):
    defaults = dict(
        experiment_id=f"{policy}-{seed}-{eval_dataset}",
        ssl_set="ephnogram+fpcgdb",
        policy=policy,
        downstream="physionet2022",
        task="binary",
        eval_dataset=eval_dataset,
        eval_kind="ood",
        accuracy=micro, micro_f1=micro, macro_f1=micro,
        seed=seed, checkpoint="x", status="ok",
    )
    defaults.update(kw)
    return LedgerRow(**defaults)


def test_c4_statistics_oracle():
    d_zero = cohens_d([2.0, 4.0], [2.0, 4.0])
    d_hand = cohens_d([2.0, 4.0], [1.0, 3.0])
    fixtures_ok = abs(d_zero) < 1e-12 and abs(d_hand - 1 / math.sqrt(2)) < 1e-12

    # ten-row ledger around the worked pairing: Noise vs Inversion matches
    # None vs Inversion in the same context
    rows = [
        _ledger_row("noise(u,-0.01,0.01)|inv", 0.70, seed=1),
        _ledger_row("none|inv", 0.60, seed=1),
        _ledger_row("noise(u,-0.01,0.01)|inv", 0.72, seed=2),
        _ledger_row("none|inv", 0.63, seed=2),
        _ledger_row("noise(u,-0.01,0.01)|rev", 0.68, seed=1),
        _ledger_row("none|rev", 0.61, seed=1),
        _ledger_row("rev|inv", 0.55, seed=1),
        _ledger_row("scale(1,1.5)|inv", 0.58, seed=1),
        _ledger_row("none|flip(0.5)", 0.52, seed=1),
        _ledger_row("lp(500,450)|inv", 0.75, seed=1),
    ]
    g1, g2 = match_paired_experiments(pairing_index(rows), "noise(u,-0.01,0.01)")
    matcher_ok = sorted(g1) == [0.68, 0.70, 0.72] and sorted(g2) == [0.60, 0.61, 0.63]

    topk_rows = []
    for t, ds in enumerate(["pascal", "physionet2016", "physionet2022"]):
        for i in range(30):
            topk_rows.append(
                _ledger_row(
                    "lp(500,450)|rev" if i < 25 else "none|inv",
                    0.9 - i * 0.001,
                    seed=1000 * t + i,
                    downstream=ds,
                    eval_dataset="pascal" if ds != "pascal" else "physionet2016",
                )
            )
    occ = top_k_occurrences(topk_rows, k=25, eval_kind="ood")
    topk_ok = occ.n_selected == 75 and occ.n_chains == 150

    report(
        4, "statistics-oracle",
        fixtures_ok and matcher_ok and topk_ok,
        f"d fixtures exact; worked pairing matched; top-75 selection counts {occ.n_chains} chains",
    )


# ---------------------------------------------------------------------------
# 5 & 6. Synthetic end-to-end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_windows(tmp_path_factory):
    root = tmp_path_factory.mktemp("smoke")
    sio.generate_synthetic_manifest(root / "raw", seed=11, n_recordings=128)
    sio.prepare_manifest(root / "raw" / "manifest.tsv", root / "stores")
    x, metas = sio.read_window_store(root / "stores" / "synthetic")
    assert x.shape[0] >= 600
    return x[:600], metas[:600]


def test_c5_end_to_end_smoke(smoke_windows):
    start = time.time()
    x, metas = smoke_windows
    task = TaskSpec("synthetic", "binary")
    y = task.encode(metas)
    tr, va, te = downstream_splits(metas, "synthetic")

    graph = build_ssl_graph(DESK_ENCODER, seed=0)
    pc = PretrainConfig(
        batch_size=32, max_epochs=15, patience=8, seed=0,
        warmup_epochs=5, peak_lr=0.05,
    )
    graph, history = pretrain(graph, x, parse_policy("lp(500,450)|flip(0.5)"), pc)
    graph.freeze_encoder()
    dc = DownstreamConfig(adam_lr=1e-3, max_epochs=60, patience=20, seed=0)
    f = graph.embed(x)
    graph, _ = train_head(graph, task, (f[tr], y[tr]), (f[va], y[va]), dc)
    metrics = evaluate(graph, f[te], [metas[i] for i in te], task)
    elapsed = time.time() - start
    report(
        5, "end-to-end-smoke",
        metrics.accuracy >= 0.90 and len(history) <= 30 and elapsed < 600,
        f"test accuracy {metrics.accuracy:.3f} (chance 0.5) on {metrics.n_windows} windows, "
        f"{len(history)} SSL epochs, {elapsed:.0f}s",
    )


@pytest.fixture(scope="module")
def two_domains(tmp_path_factory):
    root = tmp_path_factory.mktemp("domains")
    profile_a = sio.SynthProfile(murmur_band=(150.0, 400.0), noise_floor=0.002, murmur_amp=0.12)
    profile_b = sio.SynthProfile(murmur_band=(250.0, 500.0), noise_floor=0.05, murmur_amp=0.10)
    sio.generate_synthetic_manifest(root / "a", seed=21, n_recordings=40, profile=profile_a, prefix="doma")
    sio.generate_synthetic_manifest(root / "b", seed=22, n_recordings=40, profile=profile_b, prefix="domb")
    sio.prepare_manifest(root / "a" / "manifest.tsv", root / "sa")
    sio.prepare_manifest(root / "b" / "manifest.tsv", root / "sb")
    xa, ma = sio.read_window_store(root / "sa" / "synthetic")
    xb, mb = sio.read_window_store(root / "sb" / "synthetic")
    return (xa, ma), (xb, mb)


def test_c6_ood_robustness_direction(two_domains):
    (xa, ma), (xb, mb) = two_domains
    task = TaskSpec("synthetic", "binary")
    ya, yb = task.encode(ma), task.encode(mb)
    tr, va, te = downstream_splits(ma, "synthetic")
    pool = np.concatenate([xa, xb])
    policy = parse_policy("noise(u,-0.1,0.1)|lp(500,450)+scale(0.5,2)")

    ssl_drops, baseline_drops = [], []
    for seed in range(5):
        graph = build_ssl_graph(DESK_ENCODER, seed=seed)
        pc = PretrainConfig(
            batch_size=32, max_epochs=12, patience=5, seed=seed,
            warmup_epochs=4, peak_lr=0.05,
        )
        graph, _ = pretrain(graph, pool, policy, pc)
        graph.freeze_encoder()
        dc = DownstreamConfig(adam_lr=1e-3, max_epochs=60, patience=20, seed=seed)
        fa, fb = graph.embed(xa), graph.embed(xb)
        graph, _ = train_head(graph, task, (fa[tr], ya[tr]), (fa[va], ya[va]), dc)
        ssl_id = evaluate(graph, fa[te], [ma[i] for i in te], task).accuracy
        ssl_ood = evaluate(graph, fb, mb, task).accuracy
        ssl_drops.append(ssl_id - ssl_ood)

        base = build_ssl_graph(DESK_ENCODER, seed=seed + 100)
        bc = DownstreamConfig(adam_lr=1e-3, max_epochs=25, patience=20, seed=seed)
        base, _ = train_baseline(base, task, (xa[tr], ya[tr]), (xa[va], ya[va]), bc)
        base_id = evaluate(base, base.embed(xa[te]), [ma[i] for i in te], task).accuracy
        base_ood = evaluate(base, base.embed(xb), mb, task).accuracy
        baseline_drops.append(base_id - base_ood)

    ssl_mean = float(np.mean(ssl_drops))
    baseline_mean = float(np.mean(baseline_drops))
    report(
        6, "ood-robustness-direction",
        ssl_mean < baseline_mean,
        f"mean ID->OOD accuracy drop over 5 seeds: SSL {ssl_mean:+.3f} vs "
        f"baseline {baseline_mean:+.3f}",
    )


# ---------------------------------------------------------------------------
# 7 & 8. Determinism and protocol counting
# ---------------------------------------------------------------------------

TINY_CFG = RunConfig(
    pretrain_batch_size=8, pretrain_max_epochs=2, pretrain_patience=1,
    warmup_epochs=1, peak_lr=0.01,
    head_max_epochs=2, head_patience=1, adam_lr=1e-3,
    channels=(2, 2), kernels=(8, 4), pool_widths=(50, 40), projection_dim=8,
)

_TAG_LABELS = {
    "pascal": ("Normal", "Murmur"),
    "physionet2016": ("normal", "abnormal"),
    "physionet2022": ("absent", "present"),
}


def _fabricated_stores(root):
    def windows_for(tag, n_recordings, per_recording, seed):
        rng = np.random.default_rng(seed)
        out = []
        for r in range(n_recordings):
            labels = _TAG_LABELS.get(tag)
            original = binary = None
            if labels:
                original = labels[r % 2]
                binary = "normal" if r % 2 == 0 else "abnormal"
            for w in range(per_recording):
                out.append(
                    LabeledWindow(
                        samples=rng.uniform(-0.5, 0.5, 10000).astype(np.float32),
                        record_id=f"{tag}_{r:03d}", dataset_tag=tag, window_index=w,
                        original_label=original, binary_label=binary,
                    )
                )
        return out

    for i, tag in enumerate(["ephnogram", "fpcgdb"]):
        write_window_store(root / tag, windows_for(tag, 8, 4, seed=i))
    for i, tag in enumerate(_TAG_LABELS):
        write_window_store(root / tag, windows_for(tag, 12, 4, seed=10 + i))
    return root


THREE_TASKS = [
    TaskSpec("pascal", "binary"),
    TaskSpec("physionet2016", "binary"),
    TaskSpec("physionet2022", "binary"),
]


def test_c7_determinism(tmp_path):
    stores_root = _fabricated_stores(tmp_path / "stores")
    plan = ExperimentPlan(
        ssl_sets=[("ephnogram", "fpcgdb")],
        policies=["lp(500,450)|flip(0.5)"],
        tasks=THREE_TASKS[:2],
        seeds=[3],
        baseline_runs=0,
    )
    outputs = []
    for run_dir in ("run1", "run2"):
        out = tmp_path / run_dir
        run_plan(plan, WindowStores(stores_root), TINY_CFG, out)
        artifacts = {}
        for sub in ("encoders", "models"):
            for ckpt in sorted((out / sub).glob("*.ckpt")):
                artifacts[f"{sub}/{ckpt.name}"] = ckpt.read_bytes()
        artifacts["ledger.csv"] = (out / "ledger.csv").read_bytes()
        outputs.append(artifacts)

    same_names = sorted(outputs[0]) == sorted(outputs[1])
    identical = same_names and all(
        outputs[0][name] == outputs[1][name] for name in outputs[0]
    )
    report(
        7, "determinism",
        identical,
        f"{len(outputs[0])} artifacts (checkpoints + ledger) bit-identical across reruns",
    )


def test_c8_protocol_counting(tmp_path):
    stores_root = _fabricated_stores(tmp_path / "stores")
    plan = ExperimentPlan(
        ssl_sets=[("ephnogram", "fpcgdb")],
        policies=["none|rev", "none|inv"],
        tasks=THREE_TASKS,
        seeds=[1],
        baseline_runs=0,
    )
    rows = run_plan(plan, WindowStores(stores_root), TINY_CFG, tmp_path / "out")
    id_rows = [r for r in rows if r.eval_kind == "in_distribution"]
    ood_rows = [r for r in rows if r.eval_kind == "ood"]

    cycles = leave_dataset_out_cycles()
    cycles_ok = (
        len(cycles) == 4
        and all({"ephnogram", "fpcgdb"} <= set(c) for c in cycles)
        and len(cycles[0]) == 5
        and all(len(c) == 4 for c in cycles[1:])
    )
    report(
        8, "protocol-counting",
        len(rows) == 18 and len(id_rows) == 6 and len(ood_rows) == 12 and cycles_ok,
        f"{len(rows)} evaluation records (= 2 x (3 ID + 6 OOD)); "
        f"{len(cycles)} leave-dataset-out cycles",
    )
