"""Tests for plans, cycles, the experiment runner and the results ledger."""

import ctypes
import dataclasses
import logging
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cardioclr import protocol
from cardioclr import signal_io as sio
from cardioclr.analysis import select_best
from cardioclr.augment import enumerate_policies
from cardioclr.config import RunConfig, config_hash
from cardioclr.downstream import TaskSpec
from cardioclr.errors import (CardioclrError, ConfigError, DataError, FormatError, NumericError,
                              ParameterError)
from cardioclr.nn import ModelGraph, layers, load_checkpoint
from cardioclr.protocol import (
    ExperimentPlan,
    LedgerRow,
    WindowStores,
    downstream_splits,
    experiment_id,
    leave_dataset_out_cycles,
    parse_plan_text,
    read_ledger,
    run_experiment,
    run_plan,
    write_ledger,
)
from cardioclr.signal_io import LabeledWindow, write_window_store
from test_malformed_inputs import edit_checkpoint_metadata

TEST_CFG = RunConfig(
    pretrain_batch_size=8,
    pretrain_max_epochs=2,
    pretrain_patience=1,
    warmup_epochs=1,
    peak_lr=0.01,
    head_max_epochs=2,
    head_patience=1,
    adam_lr=1e-3,
    channels=(2, 2),
    kernels=(8, 4),
    pool_widths=(50, 40),
    projection_dim=8,
)

_TAG_LABELS = {
    "pascal": ("Normal", "Murmur"),
    "physionet2016": ("normal", "abnormal"),
    "physionet2022": ("absent", "present"),
}


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


# minor page faults of three rounds of allocating, zero-filling and freeing an
# 8 MiB block, after the sweep worker's allocator policy
FAULT_ROUNDS = """
import resource
from cardioclr import protocol
protocol._keep_freed_memory()
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    block = bytearray(8 << 20)
    del block
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


def is_no_ds(row):
    """True when the row's encoder never saw its downstream dataset."""
    return row.downstream not in row.ssl_set.split("+")


def _store_windows(tag, n_recordings, per_recording, seed):
    rng = np.random.default_rng(seed)
    windows = []
    for r in range(n_recordings):
        if tag in _TAG_LABELS:
            normal_label, abnormal_label = _TAG_LABELS[tag]
            original = normal_label if r % 2 == 0 else abnormal_label
            binary = "normal" if r % 2 == 0 else "abnormal"
        else:
            original = binary = None
        for w in range(per_recording):
            windows.append(
                LabeledWindow(
                    samples=rng.uniform(-0.5, 0.5, 10000).astype(np.float32),
                    record_id=f"{tag}_{r:03d}",
                    dataset_tag=tag if tag in _TAG_LABELS else tag,
                    window_index=w,
                    original_label=original,
                    binary_label=binary,
                )
            )
    return windows


@pytest.fixture(scope="module")
def stores_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("stores")
    for i, tag in enumerate(["ephnogram", "fpcgdb"]):
        write_window_store(root / tag, _store_windows(tag, 8, 4, seed=i))
    for i, tag in enumerate(_TAG_LABELS):
        write_window_store(root / tag, _store_windows(tag, 12, 4, seed=10 + i))
    return root


THREE_TASKS = [
    TaskSpec("pascal", "binary"),
    TaskSpec("physionet2016", "binary"),
    TaskSpec("physionet2022", "binary"),
]


class TestCycles:
    def test_four_cycles(self):
        cycles = leave_dataset_out_cycles()
        assert len(cycles) == 4

    def test_unlabeled_always_included(self):
        for cycle in leave_dataset_out_cycles():
            assert "ephnogram" in cycle and "fpcgdb" in cycle

    def test_omitted_are_exactly_the_labeled(self):
        cycles = leave_dataset_out_cycles()
        full = set(cycles[0])
        omitted = [tuple(full - set(c)) for c in cycles[1:]]
        assert sorted(o[0] for o in omitted) == ["pascal", "physionet2016", "physionet2022"]
        assert all(len(o) == 1 for o in omitted)


def _plan_with_tasks(*tasks):
    return parse_plan_text("[ssl_sets]\nephnogram\n[policies]\nnone|rev\n[tasks]\n"
                           + "\n".join(tasks) + "\n[seeds]\n1\n")


class TestRoundRobin:
    """A plan's encoder makes one downstream pass per labeled dataset."""

    def test_three_datasets_three_passes(self):
        plan = _plan_with_tasks("pascal:binary", "physionet2016", "physionet2022:all")
        assert plan.tasks == [THREE_TASKS[0], THREE_TASKS[1], TaskSpec("physionet2022", "all")]

    def test_single_dataset_single_pass(self):
        assert _plan_with_tasks("pascal:all").tasks == [TaskSpec("pascal", "all")]

    def test_duplicate_dataset_rejected(self):
        # two task types on one dataset are still one dataset
        with pytest.raises(ConfigError, match="duplicate downstream dataset 'pascal'"):
            _plan_with_tasks("pascal:binary", "physionet2016", "pascal:all")
        with pytest.raises(ConfigError, match="duplicate downstream dataset 'pascal'"):
            ExperimentPlan(ssl_sets=[("ephnogram",)], policies=["none|rev"],
                           tasks=[THREE_TASKS[0], THREE_TASKS[0]], seeds=[1])


class TestSplitsAndIds:
    def test_split_depends_only_on_the_store_and_tag(self, stores_root):
        _, metas = WindowStores(stores_root).load("pascal")
        split = downstream_splits(metas, "pascal")
        assert split == sio.split_indices(metas, protocol.derived_seed("split", "pascal"))
        assert split == downstream_splits(metas, "pascal")
        assert split != downstream_splits(metas, "physionet2016")

    def test_experiment_id_stability_and_separation(self):
        base = experiment_id("abc", ("ephnogram",), "none|rev", "pascal", "binary", 1)
        assert base == experiment_id("abc", ("ephnogram",), "none|rev", "pascal", "binary", 1)
        assert base != experiment_id("abc", ("ephnogram",), "none|rev", "pascal", "binary", 2)
        assert base != experiment_id("zzz", ("ephnogram",), "none|rev", "pascal", "binary", 1)


class TestRunExperiment:
    def test_record_counts_and_ood_targets(self, stores_root, tmp_path):
        rows = run_experiment(
            ("ephnogram", "fpcgdb"), "none|rev", 3, THREE_TASKS,
            WindowStores(stores_root), TEST_CFG, tmp_path,
        )
        assert len(rows) == 9  # 3 downstream x (1 ID + 2 OOD)
        pascal_ood = {
            r.eval_dataset for r in rows
            if r.downstream == "pascal" and r.eval_kind == "ood"
        }
        assert pascal_ood == {"physionet2016", "physionet2022"}
        assert all(r.status == "ok" for r in rows)
        id_rows = [r for r in rows if r.eval_kind == "in_distribution"]
        assert len(id_rows) == 3
        assert all(r.eval_dataset == r.downstream for r in id_rows)
        assert all(is_no_ds(r) for r in rows)  # encoder never saw labeled data

    def test_single_downstream_has_no_ood_records(self, stores_root, tmp_path):
        rows = run_experiment(
            ("ephnogram",), "none|rev", 6, THREE_TASKS[:1],
            WindowStores(stores_root), TEST_CFG, tmp_path,
        )
        assert len(rows) == 1
        assert rows[0].eval_kind == "in_distribution"

    def test_ood_eval_shares_no_record_ids_with_downstream_train_val(self, stores_root, tmp_path):
        stores = WindowStores(stores_root)
        rows = run_experiment(
            ("ephnogram",), "none|rev", 7, THREE_TASKS,
            stores, TEST_CFG, tmp_path,
        )
        for row in rows:
            if row.eval_kind != "ood":
                continue
            _, ds_metas = stores.load(row.downstream)
            tr, va, _ = downstream_splits(ds_metas, row.downstream)
            train_val_ids = {ds_metas[i].record_id for i in tr} | {
                ds_metas[i].record_id for i in va
            }
            _, ood_metas = stores.load(row.eval_dataset)
            ood_ids = {m.record_id for m in ood_metas}
            assert not train_val_ids & ood_ids

    def test_round_robin_reuses_encoder(self, stores_root, tmp_path):
        rows = run_experiment(
            ("ephnogram",), "none|inv", 4, THREE_TASKS,
            WindowStores(stores_root), TEST_CFG, tmp_path,
        )
        encoder_ids = set()
        for row in rows:
            if row.eval_kind == "in_distribution":
                _, meta = load_checkpoint(tmp_path / row.checkpoint)
                encoder_ids.add(meta["extra"]["encoder_id"])
        assert len(encoder_ids) == 1

    def test_each_task_store_goes_through_the_encoder_once(self, stores_root, tmp_path,
                                                           monkeypatch):
        """Heads train and are scored on features: `embed` sees every window
        of each task's store once, and `forward` runs only in pretraining."""
        real_embed, real_forward, real_pretrain = ModelGraph.embed, ModelGraph.forward, \
            protocol.pretrain
        embedded, forwards, pretraining = [], [], []

        def embed(graph, x):
            embedded.append(len(x))
            return real_embed(graph, x)

        def forward(graph, x, *args, **kwargs):
            forwards.append(bool(pretraining))
            return real_forward(graph, x, *args, **kwargs)

        def pretrain(*args, **kwargs):
            pretraining.append(True)
            try:
                return real_pretrain(*args, **kwargs)
            finally:
                pretraining.pop()

        monkeypatch.setattr(ModelGraph, "embed", embed)
        monkeypatch.setattr(ModelGraph, "forward", forward)
        monkeypatch.setattr(protocol, "pretrain", pretrain)
        stores = WindowStores(stores_root)
        rows = run_experiment(("ephnogram",), "none|rev", 3, THREE_TASKS, stores, TEST_CFG,
                              tmp_path)
        assert len(rows) == 9 and all(r.status == "ok" for r in rows)
        assert sum(embedded) == sum(len(stores.load(t.dataset_tag)[1]) for t in THREE_TASKS)
        assert len(embedded) == len(THREE_TASKS)
        assert forwards and all(forwards)

    def test_numeric_failure_marks_all_rows(self, stores_root, tmp_path, monkeypatch):
        def explode(*a, **k):
            raise NumericError("forced failure")

        monkeypatch.setattr(protocol, "_pretrain_encoder", explode)
        rows = run_experiment(
            ("ephnogram",), "none|rev", 5, THREE_TASKS,
            WindowStores(stores_root), TEST_CFG, tmp_path,
        )
        assert len(rows) == 9
        assert all(r.status == "failed" for r in rows)
        assert all(r.accuracy is None for r in rows)

    def test_numeric_failure_in_baseline_marks_its_rows(self, stores_root, tmp_path, monkeypatch):
        def explode(*a, **k):
            raise NumericError("forced failure")

        monkeypatch.setattr(protocol, "train_baseline", explode)
        plan = ExperimentPlan(
            ssl_sets=[("ephnogram",)], policies=["none|rev"],
            tasks=THREE_TASKS, seeds=[5], baseline_runs=2,
        )
        rows = run_plan(plan, WindowStores(stores_root), TEST_CFG, tmp_path)
        ledger = read_ledger(tmp_path / "ledger.csv")
        assert [r.to_csv_fields() for r in ledger] == [r.to_csv_fields() for r in rows]
        ssl = [r for r in rows if r.policy != protocol.BASELINE_POLICY]
        baseline = [r for r in rows if r.policy == protocol.BASELINE_POLICY]
        assert len(ssl) == 9 and all(r.status == "ok" for r in ssl)
        # 3 tasks x 2 replicates, each over the full ID + 2 OOD eval list
        assert len(baseline) == 18
        assert all(r.status == "failed" and r.accuracy is None and r.checkpoint == ""
                   for r in baseline)
        assert {(r.downstream, r.eval_dataset) for r in baseline} == {
            (r.downstream, r.eval_dataset) for r in ssl
        }
        assert len({r.experiment_id for r in baseline}) == 6


    def test_evaluation_error_in_baseline_marks_its_rows(self, stores_root, tmp_path, monkeypatch,
                                                          caplog):
        def no_data(*a, **k):
            raise DataError("forced evaluation failure")

        monkeypatch.setattr(protocol, "evaluate", no_data)
        with caplog.at_level(logging.WARNING, logger="cardioclr.protocol"):
            rows = protocol.run_baseline(THREE_TASKS[0], 9, THREE_TASKS[:2],
                                         WindowStores(stores_root), TEST_CFG, tmp_path)
        assert len(rows) == 2
        assert all(r.status == "failed" and r.accuracy is None and r.checkpoint == "" for r in rows)
        assert "baseline replicate (pascal:binary, seed 9) failed: DataError" in caplog.text


def _plan_text(section, lines):
    """A one-entry plan whose `[section]` holds `lines` instead."""
    parts = {"ssl_sets": ["ephnogram"], "policies": ["none|rev"],
             "tasks": ["pascal:binary"], "seeds": ["1"], section: lines}
    return "".join(f"[{name}]\n" + "\n".join(body) + "\n" for name, body in parts.items())


def _tree_bytes(root):
    """Bytes of the ledger and of every checkpoint under a sweep directory."""
    files = [root / "ledger.csv", *sorted(root.glob("encoders/*")), *sorted(root.glob("models/*"))]
    return {str(f.relative_to(root)): f.read_bytes() for f in files}


def _tree_state(root):
    """Bytes and mtime of every file under `root`, and every directory."""
    return {str(p.relative_to(root)): (p.read_bytes(), p.stat().st_mtime_ns) if p.is_file() else None
            for p in sorted(root.rglob("*"))}


class TestRunPlan:
    def test_two_policy_plan_yields_18_records(self, stores_root, tmp_path):
        plan = ExperimentPlan(
            ssl_sets=[("ephnogram", "fpcgdb")],
            policies=["none|rev", "none|inv"],
            tasks=THREE_TASKS,
            seeds=[1],
            baseline_runs=0,
        )
        rows = run_plan(plan, WindowStores(stores_root), TEST_CFG, tmp_path / "out")
        assert len(rows) == 18

        ledger_rows = read_ledger(tmp_path / "out" / "ledger.csv")
        assert len(ledger_rows) == 18
        combos = {(r.policy, r.downstream, r.eval_dataset, r.seed) for r in ledger_rows}
        assert len(combos) == 18  # every combination exactly once

    def test_rerun_is_idempotent(self, stores_root, tmp_path):
        plan = ExperimentPlan(
            ssl_sets=[("ephnogram",)],
            policies=["none|rev"],
            tasks=THREE_TASKS[:2],
            seeds=[2],
            baseline_runs=0,
        )
        out = tmp_path / "out"
        first = run_plan(plan, WindowStores(stores_root), TEST_CFG, out)
        second = run_plan(plan, WindowStores(stores_root), TEST_CFG, out)
        assert len(first) == len(second)
        assert [r.to_csv_fields() for r in first] == [r.to_csv_fields() for r in second]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_ledger_of_another_config_is_refused_before_any_work(self, stores_root, tmp_path,
                                                                  jobs):
        """Every ledger row's id hashes its own columns under the config hash,
        so a `[pretrain]` change shows at the ledger's first row: a
        `ConfigError` before any store loads (these stores do not exist),
        with the tree untouched."""
        plan = ExperimentPlan(ssl_sets=[("ephnogram",)], policies=["none|rev"],
                              tasks=THREE_TASKS[:2], seeds=[2], baseline_runs=1)
        out = tmp_path / "out"
        run_plan(plan, WindowStores(stores_root), TEST_CFG, out)
        before = _tree_state(out)
        other = dataclasses.replace(TEST_CFG, peak_lr=0.02)
        with pytest.raises(ConfigError, match=re.escape(
                f"{out / 'ledger.csv'}: line 2: experiment id ") + ".* config hash "
                + config_hash(other)):
            run_plan(plan, WindowStores(tmp_path / "no-stores"), other, out, jobs=jobs)
        assert _tree_state(out) == before

    def test_wider_plan_resumes_into_the_directory(self, stores_root, tmp_path):
        def plan(*policies):
            return ExperimentPlan(ssl_sets=[("ephnogram",)], policies=list(policies),
                                  tasks=THREE_TASKS[:2], seeds=[2], baseline_runs=0)

        run_plan(plan("none|rev"), WindowStores(stores_root), TEST_CFG, tmp_path / "resumed")
        run_plan(plan("none|rev", "none|inv"), WindowStores(stores_root), TEST_CFG,
                 tmp_path / "resumed")
        run_plan(plan("none|rev", "none|inv"), WindowStores(stores_root), TEST_CFG,
                 tmp_path / "fresh")
        assert _tree_bytes(tmp_path / "resumed") == _tree_bytes(tmp_path / "fresh")

    def test_parallel_jobs_match_serial(self, stores_root, tmp_path):
        # 3 SSL entries + 2 baseline replicates on 2 workers
        plan = ExperimentPlan(
            ssl_sets=[("ephnogram",), ("fpcgdb",), ("ephnogram", "fpcgdb")],
            policies=["none|rev"],
            tasks=THREE_TASKS[:2],
            seeds=[5],
            baseline_runs=1,
        )
        serial = run_plan(plan, WindowStores(stores_root), TEST_CFG, tmp_path / "serial", jobs=1)
        forked = run_plan(plan, WindowStores(stores_root), TEST_CFG, tmp_path / "jobs2", jobs=2)
        assert [r.to_csv_fields() for r in serial] == [r.to_csv_fields() for r in forked]
        assert {r.policy for r in serial} == {"none|rev", protocol.BASELINE_POLICY}
        assert _tree_bytes(tmp_path / "serial") == _tree_bytes(tmp_path / "jobs2")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_plan_in_any_spelling_writes_the_bytes_of_its_canonical_twin(self, stores_root,
                                                                         tmp_path, jobs):
        head = "[ssl_sets]\nephnogram\n[tasks]\npascal:binary\n[seeds]\n2\n" \
               "[options]\nbaseline_runs = 0\n[policies]\n"
        canonical = ["none|rev", "flip(0.5)|noise(u,-0.1,0.1)"]
        for name, policies in (("canonical", canonical),
                               ("spelled", [" | rev ", "flip(.50) | noise(-0.1, 0.1)"])):
            plan = parse_plan_text(head + "\n".join(policies) + "\n")
            assert plan.policies == canonical
            run_plan(plan, WindowStores(stores_root), TEST_CFG, tmp_path / name, jobs=jobs)
        assert _tree_bytes(tmp_path / "canonical") == _tree_bytes(tmp_path / "spelled")

    def test_plan_policies_keep_every_digit(self):
        policies = ["none|flip(0.1234567)", "none|flip(0.123457)", "flip(0.9999999)|rev",
                    "hp(250,250.0000001)|rev"]
        plan = parse_plan_text("[ssl_sets]\nephnogram\n[tasks]\npascal:binary\n[seeds]\n2\n"
                               "[policies]\n" + "\n".join(policies) + "\n")
        assert plan.policies == policies

    def test_zero_projection_row_does_not_fail_an_entry(self, stores_root, tmp_path):
        """The `fpcgdb` entry at seed 5 meets a projection row of all zeros
        (`TEST_CFG` is a 2-channel encoder); it trains like any other."""
        plan = ExperimentPlan(ssl_sets=[("ephnogram",), ("fpcgdb",)], policies=["none|rev"],
                              tasks=THREE_TASKS[:2], seeds=[5], baseline_runs=1)
        rows = run_plan(plan, WindowStores(stores_root), TEST_CFG, tmp_path)
        assert len(list((tmp_path / "encoders").glob("*.ckpt"))) == 2
        assert [r.experiment_id for r in rows if r.status == "failed"] == []

    @staticmethod
    def resume_with_a_damaged_encoder(stores_root, tmp_path, caplog, jobs, damage):
        """A sweep resumed after `damage` changed the bytes of one of its
        encoder checkpoints moves that file aside, trains the encoder again
        and ends with the bytes of an uninterrupted run."""
        plan = ExperimentPlan(
            ssl_sets=[("ephnogram",), ("fpcgdb",)],
            policies=["none|rev"],
            tasks=THREE_TASKS[:2],
            seeds=[5],
            baseline_runs=1,
        )
        run_plan(plan, WindowStores(stores_root), TEST_CFG, tmp_path / "whole")
        out = tmp_path / "damaged"
        shutil.copytree(tmp_path / "whole", out)
        # an entry may fail at its init and write none, so damage one that exists
        enc = sorted((out / "encoders").glob("*.ckpt"))[-1]
        enc.write_bytes(damage(enc.read_bytes()))
        (out / "ledger.csv").unlink()
        with caplog.at_level(logging.WARNING, logger="cardioclr.protocol"):
            run_plan(plan, WindowStores(stores_root), TEST_CFG, out, jobs=jobs)
        aside = enc.with_name(enc.name + ".corrupt")
        assert aside.exists()
        assert {k: v for k, v in _tree_bytes(out).items() if not k.endswith(".corrupt")} \
            == _tree_bytes(tmp_path / "whole")
        if jobs == 1:  # a forked worker's warning does not reach caplog
            assert f"{enc} is corrupt" in caplog.text and aside.name in caplog.text

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_corrupt_encoder_is_moved_aside_and_retrained(self, stores_root, tmp_path, caplog,
                                                           jobs):
        # a crash before the data reached the disk leaves a truncated file
        self.resume_with_a_damaged_encoder(stores_root, tmp_path, caplog, jobs,
                                           lambda data: data[:-7])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_encoder_with_a_flipped_parameter_byte_is_retrained(self, stores_root, tmp_path,
                                                                caplog, jobs):
        """The file is whole, so only the payload digest tells it is damaged."""
        self.resume_with_a_damaged_encoder(
            stores_root, tmp_path, caplog, jobs,
            lambda data: data[:-5] + bytes([data[-5] ^ 0x01]) + data[-4:])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_encoder_with_malformed_metadata_is_retrained(self, stores_root, tmp_path, caplog,
                                                          jobs):
        """Payload and digest are whole, but the metadata declares a second
        block of 10**12 channels: a `FormatError` before any array is
        allocated, not a `MemoryError` that stops the sweep."""
        self.resume_with_a_damaged_encoder(
            stores_root, tmp_path, caplog, jobs,
            lambda data: edit_checkpoint_metadata(
                data, lambda meta: meta["arch"].update(channels=[2, 10**12])))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_entry_keeps_earlier_rows_and_rerun_completes(
            self, stores_root, tmp_path, monkeypatch, jobs):
        plan = ExperimentPlan(
            ssl_sets=[("ephnogram",)],
            policies=["none|rev", "none|inv", "rev|inv"],
            tasks=THREE_TASKS[:2],
            seeds=[3],
            baseline_runs=1,
        )
        whole = run_plan(plan, WindowStores(stores_root), TEST_CFG, tmp_path / "whole")

        real = protocol.run_experiment

        def second_entry_fails(ssl_set, policy_text, *args):
            if policy_text == "none|inv":
                raise DataError("forced failure")
            return real(ssl_set, policy_text, *args)

        out = tmp_path / "cut"
        monkeypatch.setattr(protocol, "run_experiment", second_entry_fails)
        with pytest.raises(DataError, match="forced failure"):
            run_plan(plan, WindowStores(stores_root), TEST_CFG, out, jobs=jobs)
        first = [r.to_csv_fields() for r in whole if r.policy == "none|rev"]
        assert [r.to_csv_fields() for r in read_ledger(out / "ledger.csv")] == first

        monkeypatch.setattr(protocol, "run_experiment", real)
        run_plan(plan, WindowStores(stores_root), TEST_CFG, out, jobs=jobs)
        assert (out / "ledger.csv").read_bytes() == (tmp_path / "whole" / "ledger.csv").read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resume_reruns_exactly_the_items_missing_from_the_ledger(
            self, stores_root, tmp_path, monkeypatch, jobs):
        plan = ExperimentPlan(
            ssl_sets=[("ephnogram",)],
            policies=["none|rev", "none|inv", "rev|inv"],
            tasks=THREE_TASKS[:2],
            seeds=[3],
            baseline_runs=2,
        )
        whole = run_plan(plan, WindowStores(stores_root), TEST_CFG, tmp_path / "whole")
        baseline_ids = list(dict.fromkeys(r.experiment_id for r in whole
                                          if r.policy == protocol.BASELINE_POLICY))
        assert len(baseline_ids) == 4  # 2 tasks x 2 replicates
        entry = [r for r in whole if r.policy == "none|inv"]  # the middle SSL entry
        replicate = [r for r in whole if r.experiment_id == baseline_ids[2]]
        dropped = {r.experiment_id for r in entry + replicate}
        kept = [r for r in whole if r.experiment_id not in dropped]
        out = tmp_path / "resumed"
        write_ledger(out / "ledger.csv", kept)

        calls = []
        for name in ("run_experiment", "run_baseline"):
            def counted(*args, _real=getattr(protocol, name), _name=name):
                calls.append((_name, *args[:3]))
                return _real(*args)
            monkeypatch.setattr(protocol, name, counted)
        resumed = run_plan(plan, WindowStores(stores_root), TEST_CFG, out, jobs=jobs)
        if jobs == 1:  # forked workers' calls do not reach this process
            task = next(t for t in THREE_TASKS if str(t) == f"{replicate[0].downstream}:binary")
            assert calls == [("run_experiment", ("ephnogram",), "none|inv", 3),
                             ("run_baseline", task, replicate[0].seed, THREE_TASKS[:2])]
        expected = [r.to_csv_fields() for r in kept + entry + replicate]
        assert [r.to_csv_fields() for r in resumed] == expected
        assert [r.to_csv_fields() for r in read_ledger(out / "ledger.csv")] == expected

    def test_too_small_ssl_set_fails_only_its_own_rows(self, stores_root, tmp_path, caplog):
        # fpcgdb here holds 2 recordings x 4 = 8 windows, fewer than the
        # 2N = 16 pretraining needs at batch size 8
        root = tmp_path / "stores"
        root.mkdir()
        for tag in ["ephnogram", *_TAG_LABELS]:
            (root / tag).symlink_to(stores_root / tag)
        write_window_store(root / "fpcgdb", _store_windows("fpcgdb", 2, 4, seed=1))
        plan = ExperimentPlan(
            ssl_sets=[("ephnogram",), ("fpcgdb",), ("ephnogram", "fpcgdb")],
            policies=["none|rev"],
            tasks=THREE_TASKS[:2],
            seeds=[5],
            baseline_runs=1,
        )
        with caplog.at_level(logging.WARNING, logger="cardioclr.protocol"):
            serial = run_plan(plan, WindowStores(root), TEST_CFG, tmp_path / "serial", jobs=1)
        assert "SSL entry (fpcgdb, 'none|rev', seed 5) failed: ConfigError: need at least" \
            in caplog.text
        failed = [r for r in serial if r.status == "failed"]
        assert len(failed) == 4  # 2 tasks x (1 ID + 1 OOD)
        assert all(r.ssl_set == "fpcgdb" and r.accuracy is None for r in failed)
        assert len([r for r in serial if r.status == "ok"]) == 12  # 2 SSL entries + 2 baselines
        forked = run_plan(plan, WindowStores(root), TEST_CFG, tmp_path / "jobs2", jobs=2)
        assert _tree_bytes(tmp_path / "serial") == _tree_bytes(tmp_path / "jobs2")
        assert [r.to_csv_fields() for r in forked] == [r.to_csv_fields() for r in serial]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_missing_store_fails_before_any_work(self, stores_root, tmp_path, monkeypatch, jobs):
        def must_not_run(*a, **k):
            raise AssertionError("work started before the stores were checked")

        monkeypatch.setattr(protocol, "run_experiment", must_not_run)
        monkeypatch.setattr(protocol, "run_baseline", must_not_run)
        plan = ExperimentPlan(
            ssl_sets=[("ephnogram",), ("circor",)],
            policies=["none|rev"],
            tasks=THREE_TASKS[:1],
            seeds=[3],
            baseline_runs=1,
        )
        with pytest.raises(DataError, match="'circor'"):
            run_plan(plan, WindowStores(stores_root), TEST_CFG, tmp_path, jobs=jobs)
        assert list(tmp_path.iterdir()) == []

    def test_empty_test_split_fails_before_any_training(self, tmp_path):
        # 2 synthetic recordings: the per-recording split has none left for
        # the 10% test share
        raw, stores = tmp_path / "raw", tmp_path / "stores"
        sio.generate_synthetic_manifest(raw, seed=4, n_recordings=2)
        sio.prepare_manifest(raw / "manifest.tsv", stores)
        plan = parse_plan_text("[ssl_sets]\nsynthetic\n[policies]\nnone|inv\n"
                               "[tasks]\nsynthetic:binary\n[seeds]\n4\n")
        out = tmp_path / "out"
        with pytest.raises(DataError, match=re.escape(
                "dataset 'synthetic' splits into train/val/test sizes [17, 0, 0]")):
            run_plan(plan, WindowStores(stores), TEST_CFG, out, jobs=2)
        assert not out.exists()

    @pytest.mark.parametrize("cpus,jobs,items,threads", [
        (2, 2, 3, 1), (4, 2, 3, 2), (3, 2, 3, 1), (1, 2, 3, 1), (8, 8, 3, 2),
    ])
    def test_workers_split_the_cpus_between_block_threads(self, monkeypatch, cpus, jobs, items,
                                                         threads):
        """Each of the min(jobs, items) forked workers runs its encoder
        blocks on cpus // workers threads; the parent keeps its own."""
        parent_threads = layers.THREADS
        monkeypatch.setattr(layers, "cpu_count", lambda: cpus)
        monkeypatch.setattr(protocol, "_run_item", lambda item: (item, layers.THREADS, os.getpid()))
        rows = list(protocol._item_rows(list(range(items)), (), jobs))
        assert [(item, n) for item, n, _ in rows] == [(i, threads) for i in range(items)]
        assert os.getpid() not in {pid for *_, pid in rows}
        assert layers.THREADS == parent_threads

    @pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
    def test_worker_allocator_policy_reuses_freed_pages(self):
        """After the sweep worker's allocator policy, a freed 8 MiB block
        stays in the heap: allocating it again faults almost no page in.
        Without it glibc maps each such block afresh, and every round faults
        every page. A fresh interpreter gives the heap a known start."""
        src = Path(protocol.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", FAULT_ROUNDS], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        first, second, third = map(int, done.stdout.split())
        assert first >= 2000  # 2,048 pages of 4 KiB, or the test shows nothing
        assert second < first / 100 and third < first / 100, (first, second, third)

    def test_killed_worker_is_an_error_naming_the_unfinished_items(self, stores_root, tmp_path,
                                                                   monkeypatch):
        plan = ExperimentPlan(
            ssl_sets=[("ephnogram",)],
            policies=["none|rev"],
            tasks=THREE_TASKS[:2],
            seeds=[5],
            baseline_runs=1,
        )
        whole = run_plan(plan, WindowStores(stores_root), TEST_CFG, tmp_path / "whole")
        out = tmp_path / "cut"

        def killed(*args):
            # once the SSL entry's rows are in the ledger, so it holds a
            # non-empty prefix
            deadline = time.monotonic() + 120
            while not (out / "ledger.csv").exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(protocol, "run_baseline", killed)
        with pytest.raises(CardioclrError) as info:
            run_plan(plan, WindowStores(stores_root), TEST_CFG, out, jobs=2)
        baselines = [f"baseline replicate ({r.downstream}:{r.task}, seed {r.seed})"
                     for r in whole if r.policy == protocol.BASELINE_POLICY
                     and r.eval_kind == "in_distribution"]
        assert len(baselines) == 2
        assert str(info.value) == ("a sweep worker process died; these plan items did not "
                                   "finish: " + "; ".join(baselines))
        cut = [r.to_csv_fields() for r in read_ledger(out / "ledger.csv")]
        assert cut and cut == [r.to_csv_fields() for r in whole[:len(cut)]]
        assert {r[2] for r in cut} == {"none|rev"}

    def test_plan_parsing(self):
        plan = parse_plan_text(
            """
            # tiny plan
            [ssl_sets]
            ephnogram+fpcgdb
            [policies]
            lp(500,450)|flip(0.5)
            none|rev
            [tasks]
            pascal:binary
            physionet2016:binary
            [seeds]
            7
            8
            [options]
            baseline_runs = 2
            """
        )
        assert plan.ssl_sets == [("ephnogram", "fpcgdb")]
        assert len(plan.policies) == 2
        assert len(plan.tasks) == 2
        assert plan.seeds == [7, 8]
        assert plan.baseline_runs == 2
        assert len(list(plan.entries())) == 4  # 1 ssl_set x 2 policies x 2 seeds

    @pytest.mark.parametrize("tail,message", [
        ("[seeds]\n7\nx1\n", "plan line 10: seed 'x1' is not an integer"),
        ("[seeds]\n7\n[options]\nbaseline_runs = two\n",
         "plan line 11: baseline_runs 'two' is not an integer"),
        ("[seeds]\n7\n[options]\nretries = 2\n", "plan line 11: unknown plan option 'retries'"),
    ], ids=["seed", "baseline_runs", "unknown_option"])
    def test_bad_plan_numbers_are_config_errors(self, tail, message):
        head = "[ssl_sets]\nephnogram\n[policies]\nnone|rev\n[tasks]\npascal:binary\n\n"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_plan_text(head + tail)

    @pytest.mark.parametrize("section,lines,message", [
        ("ssl_sets", ["ephnogram+fpcgdb", "fpcgdb", "ephnogram+fpcgdb"],
         "duplicate SSL set 'ephnogram+fpcgdb'"),
        ("policies", ["none|flip(0.5)", "none|rev", "none|flip(0.5)"],
         "duplicate policy 'none|flip(0.5)'"),
        ("policies", ["none|flip(0.5)", " | flip(.50)"], "duplicate policy 'none|flip(0.5)'"),
        ("seeds", ["0", "1", "0"], "duplicate seed 0"),
    ], ids=["ssl_set", "policy", "same_parsed_policy", "seed"])
    def test_duplicate_plan_entries_rejected(self, section, lines, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_plan_text(_plan_text(section, lines))

    def test_grid_lines_expand_in_file_order(self):
        plan = parse_plan_text("[ssl_sets]\nephnogram\n[policies]\nrev|inv+scale(1,2)\n"
                               "grid 1vs1\ngrid  0vs1\n[tasks]\npascal:binary\n[seeds]\n1\n")
        grid = [str(p) for case in ("1vs1", "0vs1") for p in enumerate_policies(case)]
        assert plan.policies == ["rev|inv+scale(1,2)", *grid]
        assert len(grid) == 136 + 17 and grid[-1] == "none|flip(0.7)"

    def test_ssl_set_keeps_its_written_order(self):
        # the order names the encoder id, so a plan valid before keeps its ids
        plan = parse_plan_text(_plan_text("ssl_sets", ["pascal+ephnogram", "fpcgdb"]))
        assert plan.ssl_sets == [("pascal", "ephnogram"), ("fpcgdb",)]

    def test_leave_one_out_line_expands_to_the_four_cycles(self):
        plan = parse_plan_text("[ssl_sets]\nfpcgdb\nleave-one-out\n[policies]\nnone|rev\n"
                               "[tasks]\npascal:binary\n[seeds]\n1\n")
        assert plan.ssl_sets == [("fpcgdb",), *leave_dataset_out_cycles()]
        assert len(plan.ssl_sets) == 5

    @pytest.mark.parametrize("section,lines,message", [
        ("policies", ["grid 1vs2"], "plan line 4: 'grid 1vs2': case tag must be 0vs1 or 1vs1"),
        ("policies", ["none|rev", "grid"], "plan line 5: 'grid': case tag"),
        ("policies", ["grid 0vs1 1vs1"], "plan line 4: 'grid 0vs1 1vs1': case tag"),
        ("ssl_sets", ["fpcgdb+"], "plan line 2: unknown dataset tag '' in 'fpcgdb+'"),
        ("ssl_sets", ["ephnogram", "circor+fpcgdb"],
         "plan line 3: unknown dataset tag 'circor' in 'circor+fpcgdb'"),
        ("ssl_sets", ["leave-one-out", "ephnogram+fpcgdb+pascal+physionet2016+physionet2022"],
         "duplicate SSL set 'ephnogram+fpcgdb+pascal+physionet2016+physionet2022'"),
        ("policies", ["grid 0vs1", "none|rev"], "duplicate policy 'none|rev'"),
        ("seeds", ["2", "-1"], "seeds must be non-negative, got -1"),
        ("ssl_sets", ["pascal+pascal"],
         "plan line 2: repeated dataset tag 'pascal' in 'pascal+pascal'"),
        ("tasks", ["pascal:multi"], "plan line 6: unknown task type 'multi'"),
        ("ssl_sets", ["ephnogram+pascal", "pascal+ephnogram"],
         "duplicate SSL set 'ephnogram+pascal'"),
        ("ssl_sets", ["leave-one-out", "physionet2022+physionet2016+pascal+fpcgdb+ephnogram"],
         "duplicate SSL set 'ephnogram+fpcgdb+pascal+physionet2016+physionet2022'"),
    ], ids=["grid_1vs2", "bare_grid", "two_grids", "empty_tag", "unknown_tag",
            "expanded_ssl_set", "expanded_policy", "negative_seed", "repeated_tag", "bad_task",
            "reordered_ssl_set", "reordered_expanded_ssl_set"])
    def test_bad_plan_lines_are_config_errors(self, section, lines, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_plan_text(_plan_text(section, lines))

    def test_gaussian_noise_policy_names_its_plan_line(self):
        # noise is uniform only, so `g` is a bad parameter of the atom
        text = _plan_text("policies", ["none|rev", "scale(0.5,2)|noise(g,-0.01,0.01)"])
        with pytest.raises(ParameterError, match=re.escape(
                "plan line 5: bad parameter 'g' in atom 'noise(g,-0.01,0.01)'")):
            parse_plan_text(text)

    def test_grid_plan_writes_the_ledger_of_its_written_out_plan(self, stores_root, tmp_path):
        head = "[ssl_sets]\nephnogram\n[tasks]\npascal:binary\n[seeds]\n2\n" \
               "[options]\nbaseline_runs = 0\n[policies]\n"
        written_out = "\n".join(str(p) for p in enumerate_policies("0vs1"))
        for name, policies in (("grid", "grid 0vs1"), ("lines", written_out)):
            plan = parse_plan_text(head + policies + "\n")
            run_plan(plan, WindowStores(stores_root), TEST_CFG, tmp_path / name, jobs=2)
        ledger = (tmp_path / "grid" / "ledger.csv").read_bytes()
        assert ledger.count(b"\n") == 1 + 17
        assert _tree_bytes(tmp_path / "grid") == _tree_bytes(tmp_path / "lines")

    def test_negative_baseline_runs_rejected(self):
        with pytest.raises(ConfigError, match="baseline_runs"):
            ExperimentPlan(ssl_sets=[("ephnogram",)], policies=["none|rev"],
                           tasks=THREE_TASKS[:1], seeds=[1], baseline_runs=-1)

    def test_bad_plan_policy_rejected(self):
        with pytest.raises(Exception):
            parse_plan_text("[ssl_sets]\nephnogram\n[policies]\nnot-a-policy!!\n[tasks]\npascal:binary\n[seeds]\n1\n")


def _window_ids(metas):
    return [(m.record_id, m.window_index) for m in metas]


class TestOneSplit:
    """Every model of a dataset, of any seed, SSL or baseline, is scored on
    the same test windows, and pretraining never sees them."""

    def test_every_model_is_scored_on_the_same_test_windows(self, stores_root, tmp_path,
                                                             monkeypatch):
        scored = {}  # eval dataset -> {model kind: [window ids of each evaluate call]}
        model = []

        def wrap(name):
            real = getattr(protocol, name)

            def wrapped(*args):
                model.append("baseline" if name == "run_baseline" else f"SSL seed {args[2]}")
                try:
                    return real(*args)
                finally:
                    model.pop()
            monkeypatch.setattr(protocol, name, wrapped)

        real_evaluate = protocol.evaluate

        def evaluate(graph, features, metas, task):
            scored.setdefault(task.dataset_tag, {}).setdefault(model[-1], []).append(
                _window_ids(metas))
            return real_evaluate(graph, features, metas, task)

        wrap("run_experiment")
        wrap("run_baseline")
        monkeypatch.setattr(protocol, "evaluate", evaluate)
        plan = ExperimentPlan(ssl_sets=[("ephnogram",)], policies=["none|rev"],
                              tasks=THREE_TASKS[:2], seeds=[1, 2], baseline_runs=1)
        stores = WindowStores(stores_root)
        rows = run_plan(plan, stores, TEST_CFG, tmp_path, jobs=1)
        assert {r.seed for r in rows if r.policy != protocol.BASELINE_POLICY} == {1, 2}
        assert all(r.status == "ok" for r in rows)
        for task in THREE_TASKS[:2]:
            tag = task.dataset_tag
            test_ids = _window_ids(protocol.split_rows(*stores.load(tag), tag, protocol.TEST)[1])
            assert set(scored[tag]) == {"SSL seed 1", "SSL seed 2", "baseline"}
            # each model is scored once ID and once OOD on each dataset
            assert [ids for calls in scored[tag].values() for ids in calls] == [test_ids] * 6

    def test_pretraining_never_sees_a_labeled_test_window(self, stores_root, tmp_path,
                                                          monkeypatch):
        pretrained = []
        real_pretrain = protocol.pretrain

        def pretrain(graph, windows, *args):
            pretrained.append(windows.copy())
            return real_pretrain(graph, windows, *args)

        monkeypatch.setattr(protocol, "pretrain", pretrain)
        plan = ExperimentPlan(ssl_sets=[("ephnogram", "pascal")], policies=["none|rev"],
                              tasks=THREE_TASKS[:1], seeds=[1], baseline_runs=0)
        stores = WindowStores(stores_root)
        run_plan(plan, stores, TEST_CFG, tmp_path)
        [windows] = pretrained
        unlabeled = stores.load("ephnogram")[0]
        x, metas = stores.load("pascal")
        train, val, test = downstream_splits(metas, "pascal")
        assert test
        assert np.array_equal(windows, np.concatenate([unlabeled, x[sorted(train + val)]]))
        seen = {row.tobytes() for row in windows}
        assert not seen & {row.tobytes() for row in x[test]}


class TestLedgerAndSelect:
    def _row(self, policy, downstream="pascal", kind="in_distribution", micro=0.5, **kw):
        defaults = dict(
            experiment_id="e" + policy.replace("|", "_"),
            ssl_set="ephnogram+fpcgdb",
            policy=policy,
            downstream=downstream,
            task="binary",
            eval_dataset=downstream if kind == "in_distribution" else "physionet2016",
            eval_kind=kind,
            accuracy=micro,
            micro_f1=micro,
            macro_f1=micro,
            seed=1,
            checkpoint="x.ckpt",
            status="ok",
        )
        defaults.update(kw)
        return LedgerRow(**defaults)

    def test_ledger_round_trip_with_commas_in_policy(self, tmp_path):
        rows = [self._row("lp(500,450)|flip(0.5)"), self._row("none|rev", micro=0.7)]
        path = tmp_path / "ledger.csv"
        write_ledger(path, rows)
        header = path.read_text().splitlines()[0]
        assert header == protocol.LEDGER_HEADER
        loaded = read_ledger(path)
        assert [r.to_csv_fields() for r in loaded] == [r.to_csv_fields() for r in rows]

    def test_failed_ledger_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.csv"
        write_ledger(path, [self._row("none|rev")])
        old = path.read_bytes()

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            write_ledger(path, [self._row("none|rev"), self._row("none|inv")])
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["ledger.csv"]

    def _ledger_with(self, tmp_path, column, value):
        """A valid two-row ledger whose second row (line 3) has the text
        `value` in `column`."""
        path = tmp_path / "ledger.csv"
        write_ledger(path, [self._row("none|rev"), self._row("none|inv")])
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")  # no field of this row holds a comma
        fields[protocol.LEDGER_COLUMNS.index(column)] = value
        path.write_text("\n".join(lines[:2] + [",".join(fields)]) + "\n")
        return path

    @pytest.mark.parametrize("column,value,message", [
        ("seed", "x", "seed must be an integer, got 'x'"),
        ("seed", "1.5", "seed must be an integer"),
        ("status", "weird", "status must be one of ok, failed, got 'weird'"),
        ("eval_kind", "x", "eval_kind must be one of in_distribution, ood, got 'x'"),
        ("micro_f1", "abc", "micro_f1 must be empty or a number in \\[0, 1\\], got 'abc'"),
        ("accuracy", "nan", "accuracy must be empty or a number in"),
        ("macro_f1", "inf", "macro_f1 must be empty or a number in"),
        ("accuracy", "1.5", "accuracy must be empty or a number in"),
        ("accuracy", "-0.25", "accuracy must be empty or a number in"),
    ])
    def test_bad_field_is_a_format_error_naming_ledger_and_line(self, tmp_path, column, value,
                                                                message):
        path = self._ledger_with(tmp_path, column, value)
        with pytest.raises(FormatError, match=rf"^{path}: line 3: {message}"):
            read_ledger(path)

    def test_short_row_names_ledger_and_line(self, tmp_path):
        path = self._ledger_with(tmp_path, "checkpoint", "x.ckpt")
        path.write_text(path.read_text() + "e1,ephnogram,none|rev\n")
        with pytest.raises(FormatError, match=rf"^{path}: line 4: ledger row has 3 fields"):
            read_ledger(path)

    def test_non_utf8_ledger_is_a_format_error_naming_it(self, tmp_path):
        path = self._ledger_with(tmp_path, "checkpoint", "x.ckpt")
        path.write_bytes(path.read_bytes() + b"\xff\xfe,\n")
        with pytest.raises(FormatError, match=rf"^{path}: not UTF-8 text"):
            read_ledger(path)

    def test_valid_ledger_keeps_its_bytes(self, tmp_path):
        rows = [self._row("none|rev", micro=1.0), self._row("none|inv", micro=0.0),
                self._row("none|flip(0.5)", kind="ood", micro=0.123456),
                self._row("none|scale(0.5,2)", accuracy=None, micro_f1=None, macro_f1=None,
                          status="failed", seed=-3)]
        path = tmp_path / "ledger.csv"
        write_ledger(path, rows)
        first = path.read_bytes()
        write_ledger(path, read_ledger(path))
        assert path.read_bytes() == first

    def test_is_no_ds(self):
        row = self._row("none|rev", ssl_set="ephnogram+fpcgdb+pascal")
        assert not is_no_ds(row)
        row2 = self._row("none|rev", ssl_set="ephnogram+fpcgdb")
        assert is_no_ds(row2)

    def test_select_best_single(self):
        row = self._row("none|rev")
        assert select_best([row]) == [row]

    def test_select_best_prefers_higher_metric(self):
        rows = [self._row("none|rev", micro=0.8), self._row("none|inv", micro=0.7)]
        assert select_best(rows)[0].policy == "none|rev"

    def test_select_best_tie_breaks_lexicographically(self):
        rows = [self._row("none|rev", micro=0.8), self._row("none|inv", micro=0.8)]
        assert select_best(rows)[0].policy == "none|inv"

    def test_select_best_ignores_ood_and_failures(self):
        rows = [
            self._row("none|rev", micro=0.6),
            self._row("none|inv", kind="ood", micro=0.99),
            self._row("none|flip(0.5)", micro=0.9, status="failed"),
            self._row(protocol.BASELINE_POLICY, micro=0.95),
        ]
        assert select_best(rows) == [rows[0]]

    def test_select_best_of_no_usable_rows_is_empty(self):
        assert select_best([]) == []
        assert select_best([self._row("none|rev", status="failed")]) == []

    def test_select_best_picks_per_ssl_set_and_task(self):
        rows = [self._row("none|rev", micro=0.6), self._row("none|inv", micro=0.7),
                self._row("none|rev", ssl_set="ephnogram", micro=0.9),
                self._row("none|inv", ssl_set="ephnogram", micro=0.2),
                self._row("none|rev", downstream="physionet2016", micro=0.4)]
        assert [r.micro_f1 for r in select_best(rows)] == [0.9, 0.7, 0.4]
        assert [r.micro_f1 for r in select_best(rows, "accuracy")] == [0.9, 0.7, 0.4]
