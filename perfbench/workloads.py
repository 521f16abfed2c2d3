"""The three benchmark workloads.

Each workload has `setup()` (timed as set-up: store reads and graph build),
`prepare()` (untimed per-operation reset), `run(span)` (one timed operation,
returning a `Rep`) and `check(rep)`, which raises `CheckFailed` when an output
is wrong. `rate` names the workload's own throughput figure and its factor
from items per second. Calls into the package go through module attributes, so the tracer's
patches see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from cardioclr import analysis, augment, contrastive, nn, protocol, signal_io
from cardioclr.config import RunConfig
from cardioclr.downstream import TaskSpec
from cardioclr.errors import CardioclrError

PRETRAIN_POLICY = "lp(500,450)|flip(0.5)"
SWEEP_POLICIES = ["lp(500,450)|flip(0.5)", "none|flip(0.5)"]
SWEEP_TASKS = [TaskSpec(tag, "binary") for tag in signal_io.LABELED_TAGS]
# desk-scale encoder (5 blocks, 4->16 channels); head epochs equal patience+1
# and pretraining patience+1 equals max_epochs, so early stopping never
# changes the amount of work
SWEEP_CONFIG = RunConfig(
    pretrain_batch_size=16, pretrain_max_epochs=2, pretrain_patience=1, warmup_epochs=1,
    peak_lr=0.02,
    adam_lr=1e-3, head_max_epochs=8, head_patience=7,
    channels=(4, 8, 8, 16, 16), kernels=(16, 8, 8, 4, 4), pool_widths=(4, 4, 4, 4, 4),
    projection_dim=32,
)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()[:16]


def tree_digest(root: Path) -> str:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return digest(*(str(p.relative_to(root)).encode() + p.read_bytes() for p in files))


def _fresh_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


@dataclass
class Rep:
    """One timed operation: `items` of work done in `busy_s` seconds."""

    items: float
    busy_s: float
    attempted: int
    failed: int
    digests: dict[str, str] = field(default_factory=dict)
    report: dict[str, float] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


class Pretrain:
    """`contrastive.pretrain` on the full-size `EncoderConfig()`."""

    name = "pretrain"
    imports = "cardioclr.contrastive, cardioclr.nn, cardioclr.signal_io"
    rate = ("pretrain_views_per_s", 1.0)

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        # far below the paper's batch of 256 so that a run fits; patience + 1
        # equals max_epochs, so early stopping never cuts the work short
        self.config = contrastive.PretrainConfig(batch_size=16, max_epochs=2, patience=1, seed=seed)
        self.policy = augment.parse_policy(PRETRAIN_POLICY)

    def setup(self) -> None:
        pools = [signal_io.read_window_store(self.work / "stores" / tag)[0]
                 for tag in signal_io.UNLABELED_TAGS]
        self.windows = np.concatenate(pools, axis=0)
        self.graph = nn.build_ssl_graph(nn.EncoderConfig(), seed=self.seed)
        self.initial = self.graph.snapshot()

    def prepare(self) -> None:
        self.graph.restore(self.initial)

    def run(self, span) -> Rep:
        start = perf_counter()
        try:
            graph, history = contrastive.pretrain(self.graph, self.windows, self.policy, self.config)
        except CardioclrError:
            return Rep(0.0, perf_counter() - start, attempted=1, failed=1)
        busy = perf_counter() - start
        n_train = self.windows.shape[0] - round(self.config.val_fraction * self.windows.shape[0])
        views = len(history) * (n_train // self.config.batch_size) * 2 * self.config.batch_size
        return Rep(
            views, busy, attempted=1, failed=0,
            digests={"encoder": digest(graph.encoder_bytes())},
            report={"pretrain_val_loss": history[-1].val_loss},
            extra={"history": history},
        )

    def check(self, rep: Rep) -> None:
        history = rep.extra["history"]
        require(len(history) == self.config.max_epochs,
                f"pretraining ran {len(history)} epochs, expected {self.config.max_epochs}")
        for h in history:
            require(math.isfinite(h.train_loss) and math.isfinite(h.val_loss),
                    f"non-finite NT-Xent in epoch {h.epoch}: {h.train_loss}, {h.val_loss}")


class Sweep:
    """`protocol.run_plan` at desk scale, its resume, then the effect-size report."""

    name = "sweep"
    imports = "cardioclr.protocol, cardioclr.analysis"
    rate = ("sweep_rows_per_min", 60.0)

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.plan = protocol.ExperimentPlan(
            ssl_sets=[tuple(signal_io.UNLABELED_TAGS)], policies=SWEEP_POLICIES,
            tasks=SWEEP_TASKS, seeds=[seed], baseline_runs=1,
        )
        self.jobs = os.cpu_count() or 1
        self.out = work / "sweep_out"
        # per policy: ID + OOD rows of every task; per baseline: the same
        n_tasks = len(SWEEP_TASKS)
        self.expected_rows = (len(SWEEP_POLICIES) + 1) * n_tasks * n_tasks

    def setup(self) -> None:
        self.stores = protocol.WindowStores(self.work / "stores")
        for tag in signal_io.UNLABELED_TAGS + signal_io.LABELED_TAGS:
            self.stores.load(tag)

    def prepare(self) -> None:
        _fresh_dir(self.out)

    def _artifacts(self) -> dict[str, int]:
        return {str(p.relative_to(self.out)): p.stat().st_mtime_ns
                for p in self.out.rglob("*.ckpt")}

    def run(self, span) -> Rep:
        start = perf_counter()
        rows = protocol.run_plan(self.plan, self.stores, SWEEP_CONFIG, self.out, jobs=self.jobs)
        busy = perf_counter() - start
        ledger_path = self.out / "ledger.csv"
        ledger, artifacts = ledger_path.read_bytes(), self._artifacts()
        with span("bench.resume"):
            resumed = protocol.run_plan(self.plan, self.stores, SWEEP_CONFIG, self.out, jobs=self.jobs)
        ood = [r for r in rows if r.eval_kind == protocol.OOD and r.status == "ok"]
        atoms = sorted({str(a) for p in SWEEP_POLICIES for a in augment.parse_policy(p).atoms()})
        effects = analysis.effect_size_report(ood, atoms, "micro_f1")
        encoders = [nn.load_checkpoint(p) for p in sorted((self.out / "encoders").glob("*.ckpt"))]

        ok = [r for r in rows if r.status == "ok"]
        ood_f1 = float(np.mean([r.micro_f1 for r in ood])) if ood else float("nan")
        return Rep(
            len(ok), busy, attempted=len(rows), failed=len(rows) - len(ok),
            digests={"ledger": digest(ledger),
                     "encoders": digest(*(g.encoder_bytes() for g, _ in encoders))},
            report={"sweep_ood_micro_f1": ood_f1},
            extra={"rows": rows, "resumed": resumed, "ledger": ledger, "artifacts": artifacts,
                   "effects": effects, "encoders": encoders},
        )

    def check(self, rep: Rep) -> None:
        rows = rep.extra["rows"]
        require(len(rows) == self.expected_rows,
                f"run_plan returned {len(rows)} ledger rows, expected {self.expected_rows}")
        for r in rows:
            if r.status == "ok":
                for value in (r.accuracy, r.micro_f1, r.macro_f1):
                    require(value is not None and 0.0 <= value <= 1.0,
                            f"ledger row {r.experiment_id}/{r.eval_dataset} has metric {value!r}")
        fields = [r.to_csv_fields() for r in rows]
        require([r.to_csv_fields() for r in rep.extra["resumed"]] == fields,
                "resuming the finished plan changed the ledger rows")
        require((self.out / "ledger.csv").read_bytes() == rep.extra["ledger"],
                "resuming the finished plan rewrote ledger.csv with other bytes")
        require(self._artifacts() == rep.extra["artifacts"],
                "resuming the finished plan wrote a checkpoint")
        require(len(rep.extra["encoders"]) == len(SWEEP_POLICIES),
                f"{len(rep.extra['encoders'])} encoder checkpoints, expected {len(SWEEP_POLICIES)}")
        for _, meta in rep.extra["encoders"]:
            loss = meta["extra"]["best_val_loss"]
            require(math.isfinite(loss), f"encoder {meta['extra']['encoder_id']} has val loss {loss}")
        for e in rep.extra["effects"]:
            require(math.isfinite(e.d), f"effect size of {e.atom} is {e.d}")


def expected_windows(rate: int, samples: int) -> int:
    """Window count implied by a recording's length: resample to 2 kHz
    (rounding half up), drop 2 s at each end, cut 5 s windows every 2.5 s."""
    q, r = divmod(samples * signal_io.TARGET_RATE, rate)
    n = q + (2 * r >= rate)
    trim = round(signal_io.TRIM_SECONDS * signal_io.TARGET_RATE)
    n = n - 2 * trim if n > 2 * trim else 0
    win = signal_io.WINDOW_SAMPLES
    return 0 if n < win else (n - win) // (win // 2) + 1


class Ingest:
    """`signal_io.prepare_manifest` over one manifest per dataset tag, then
    `read_window_store` of every store written."""

    name = "ingest"
    imports = "cardioclr.signal_io"
    rate = ("ingest_audio_s_per_s", 1.0)

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.out = work / "ingest_out"

    def setup(self) -> None:
        listing = json.loads((self.work / "inputs.json").read_text(encoding="utf-8"))
        self.manifests = listing["manifests"]

    def prepare(self) -> None:
        _fresh_dir(self.out)

    def run(self, span) -> Rep:
        attempted = failed = 0
        audio_s = busy = 0.0
        ingested = {}
        for m in self.manifests:
            attempted += len(m["recordings"])
            start = perf_counter()
            try:
                counts = signal_io.prepare_manifest(self.work / m["path"], self.out)
            except CardioclrError:
                # `ephnogram`/`fpcgdb` manifests fail here today: the unlabeled
                # row's trailing tab does not survive `read_manifest`
                counts = None
            busy += perf_counter() - start
            if counts is None:
                failed += len(m["recordings"])
                continue
            audio_s += sum(r["samples"] / r["rate"] for r in m["recordings"].values())
            ingested[m["tag"]] = counts
        stores = {tag: signal_io.read_window_store(self.out / tag) for tag in sorted(ingested)}
        return Rep(
            audio_s, busy, attempted=attempted, failed=failed,
            digests={"stores": tree_digest(self.out)},
            extra={"ingested": ingested, "stores": stores},
        )

    def check(self, rep: Rep) -> None:
        for m in self.manifests:
            tag = m["tag"]
            if tag not in rep.extra["ingested"]:
                continue
            matrix, windows = rep.extra["stores"][tag]
            per_record = Counter(w.record_id for w in windows)
            for record_id, r in m["recordings"].items():
                want = expected_windows(r["rate"], r["samples"])
                got = per_record[record_id]
                require(got == want, f"{tag}/{record_id}: {got} windows, expected {want}")
            require(rep.extra["ingested"][tag] == {tag: len(windows)} and matrix.shape[0] == len(windows),
                    f"{tag}: store and prepare_manifest disagree on the window count")
            require(bool(np.all(np.isfinite(matrix))), f"{tag}: non-finite samples in the store")


WORKLOADS = {w.name: w for w in (Pretrain, Sweep, Ingest)}
