"""Experiment orchestration: pretrain once per (SSL set, policy, seed), then
train a head on the frozen encoder for every downstream dataset and evaluate
it in-distribution and on the other labeled datasets (OOD). Every result
lands in an append-only CSV ledger keyed by a stable experiment id, so
interrupted sweeps resume without repeating work.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from contextlib import closing
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._atomic import write_atomic
from .augment import enumerate_policies, parse_policy
from .config import (
    RunConfig,
    config_hash,
    downstream_config,
    encoder_config,
    pretrain_config,
)
from .contrastive import freeze_encoder, pretrain
from .downstream import TaskSpec, evaluate, train_baseline, train_head
from .errors import (CardioclrError, ConfigError, DataError, FormatError, ParameterError,
                     parse_text_file)
from .nn import build_ssl_graph, layers, load_checkpoint, save_checkpoint
from .nn.optim import best_val_loss
from .signal_io import DATASET_TAGS, LABELED_TAGS, UNLABELED_TAGS, read_window_store, split_indices

IN_DISTRIBUTION = "in_distribution"
OOD = "ood"
BASELINE_POLICY = "baseline"
STATUSES = ("ok", "failed")
METRICS = ("accuracy", "micro_f1", "macro_f1")


@dataclass
class LedgerRow:
    experiment_id: str
    ssl_set: str
    policy: str
    downstream: str
    task: str
    eval_dataset: str
    eval_kind: str
    accuracy: Optional[float]
    micro_f1: Optional[float]
    macro_f1: Optional[float]
    seed: int
    checkpoint: str
    status: str = "ok"

    def to_csv_fields(self) -> list[str]:
        values = [(name, getattr(self, name)) for name in LEDGER_COLUMNS]
        return ["" if v is None else f"{v:.6f}" if name in METRICS else str(v)
                for name, v in values]

    @classmethod
    def from_csv_fields(cls, fields: Sequence[str]) -> "LedgerRow":
        """The row a ledger line holds; a field no ledger writes raises
        `FormatError`."""
        if len(fields) != len(LEDGER_COLUMNS):
            raise FormatError(f"ledger row has {len(fields)} fields, expected {len(LEDGER_COLUMNS)}")
        named = dict(zip(LEDGER_COLUMNS, fields))

        def metric(name):
            text = named[name]
            if text == "":
                return None
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not 0.0 <= value <= 1.0:  # NaN fails too
                raise FormatError(f"{name} must be empty or a number in [0, 1], got {text!r}")
            return value

        for name, allowed in (("eval_kind", (IN_DISTRIBUTION, OOD)), ("status", STATUSES)):
            if named[name] not in allowed:
                raise FormatError(f"{name} must be one of {', '.join(allowed)}, got {named[name]!r}")
        try:
            named["seed"] = int(named["seed"])
        except ValueError:
            raise FormatError(f"seed must be an integer, got {named['seed']!r}") from None
        return cls(**{**named, **{name: metric(name) for name in METRICS}})


LEDGER_COLUMNS = [f.name for f in dataclass_fields(LedgerRow)]
LEDGER_HEADER = ",".join(LEDGER_COLUMNS)


def write_ledger(path, rows: Sequence[LedgerRow]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(LEDGER_COLUMNS)
    for row in rows:
        writer.writerow(row.to_csv_fields())
    write_atomic(path, buf.getvalue().encode("utf-8"))


def read_ledger(path) -> list[LedgerRow]:
    """The ledger's rows, none if it does not exist. A malformed ledger
    raises `FormatError` naming the file and the line."""
    path = Path(path)
    if not path.exists():
        return []
    return parse_text_file(path, _parse_ledger, FormatError)


def _parse_ledger(text: str) -> list[LedgerRow]:
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = []
    try:
        if next(reader, None) != LEDGER_COLUMNS:
            raise FormatError("unexpected ledger header")
        for fields in reader:
            rows.append(LedgerRow.from_csv_fields(fields))
    except (FormatError, csv.Error) as err:
        raise FormatError(f"line {reader.line_num or 1}: {err}") from None
    return rows


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass
class ExperimentPlan:
    ssl_sets: list[tuple[str, ...]]
    policies: list[str]
    tasks: list[TaskSpec]
    seeds: list[int]
    baseline_runs: int = 5

    def __post_init__(self):
        if not self.policies:
            raise ConfigError("plan needs at least one policy")
        if not self.tasks:
            raise ConfigError("plan needs at least one downstream task")
        if not self.seeds:
            raise ConfigError("plan needs at least one seed")
        if self.baseline_runs < 0:
            raise ConfigError(f"baseline_runs must be non-negative, got {self.baseline_runs}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {min(self.seeds)}")
        # policies that parse alike would train one encoder under two ids
        for what, keys in (("SSL set", ["+".join(s) for s in self.ssl_sets]),
                           ("policy", [str(parse_policy(p)) for p in self.policies]),
                           ("seed", self.seeds),
                           ("downstream dataset", [t.dataset_tag for t in self.tasks])):
            for i, key in enumerate(keys):
                if key in keys[:i]:
                    raise ConfigError(f"duplicate {what} {key!r} in the plan")

    def entries(self):
        for ssl_set in self.ssl_sets:
            for policy in self.policies:
                for seed in self.seeds:
                    yield ssl_set, policy, seed


def _plan_int(lineno: int, what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"plan line {lineno}: {what} {text!r} is not an integer") from None


def parse_plan_text(text: str) -> ExperimentPlan:
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in ("ssl_sets", "policies", "tasks", "seeds", "options"):
                raise ConfigError(f"plan line {lineno}: unknown section [{current}]")
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ConfigError(f"plan line {lineno}: content outside any [section]")
        sections[current].append((lineno, line))

    for required in ("ssl_sets", "policies", "tasks", "seeds"):
        if not sections.get(required):
            raise ConfigError(f"plan is missing a non-empty [{required}] section")

    ssl_sets, policies = [], []  # plan lines, with the paper's SSL sets and grids expanded
    for lineno, line in sections["ssl_sets"]:
        ssl_set = tuple(tok.strip() for tok in line.split("+"))
        unknown = [tag for tag in ssl_set if tag not in DATASET_TAGS]
        if unknown and line != "leave-one-out":
            raise ConfigError(f"plan line {lineno}: unknown dataset tag {unknown[0]!r} in {line!r}")
        ssl_sets += leave_dataset_out_cycles() if line == "leave-one-out" else [ssl_set]
    for lineno, line in sections["policies"]:
        word, _, case_tag = line.partition(" ")
        try:
            policies += ([str(p) for p in enumerate_policies(case_tag.strip())]
                         if word == "grid" else [line])
        except ParameterError as exc:  # a grid other than 0vs1 or 1vs1
            raise ConfigError(f"plan line {lineno}: {line!r}: {exc}") from None
    tasks = []
    for _, line in sections["tasks"]:
        tag, _, task_type = line.partition(":")
        tasks.append(TaskSpec(tag.strip(), task_type.strip() or "binary"))
    seeds = [_plan_int(lineno, "seed", line) for lineno, line in sections["seeds"]]
    baseline_runs = 5
    for lineno, line in sections.get("options", []):
        key, _, value = line.partition("=")
        key = key.strip()
        if key == "baseline_runs":
            baseline_runs = _plan_int(lineno, "baseline_runs", value.strip())
        else:
            raise ConfigError(f"plan line {lineno}: unknown plan option {key!r}")
    return ExperimentPlan(
        ssl_sets=ssl_sets,
        policies=policies,
        tasks=tasks,
        seeds=seeds,
        baseline_runs=baseline_runs,
    )


def parse_plan(path) -> ExperimentPlan:
    return parse_text_file(path, parse_plan_text, ConfigError)


# ---------------------------------------------------------------------------
# Ids and cycles
# ---------------------------------------------------------------------------


def stable_hash(*parts) -> str:
    blob = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def experiment_id(cfg_hash: str, ssl_set: Sequence[str], policy: str, downstream: str,
                  task_type: str, seed: int) -> str:
    """Stable id of one experiment; embeds the resolved-config hash so records
    from different configurations never collide."""
    return stable_hash(cfg_hash, "+".join(ssl_set), policy, downstream, task_type, seed)


def derived_seed(*parts) -> int:
    return int(stable_hash(*parts), 16) & 0x7FFFFFFF


def leave_dataset_out_cycles() -> list[tuple[str, ...]]:
    """The full-set cycle plus one cycle per left-out labeled dataset. The
    unlabeled pretraining corpora are always included."""
    everything = UNLABELED_TAGS + LABELED_TAGS
    return [everything] + [tuple(t for t in everything if t != omit) for omit in LABELED_TAGS]


# ---------------------------------------------------------------------------
# Stores and splits
# ---------------------------------------------------------------------------


class WindowStores:
    """Lazy cache over the per-dataset window stores under one root."""

    def __init__(self, root):
        self.root = Path(root)
        self._cache: dict[str, tuple[np.ndarray, list]] = {}

    def load(self, tag: str):
        if tag not in self._cache:
            store = self.root / tag
            if not (store / "windows.json").exists():
                raise DataError(f"no window store for dataset {tag!r} under {self.root}")
            self._cache[tag] = read_window_store(store)
        return self._cache[tag]


def downstream_splits(metas, plan_seed: int, tag: str, granularity: str):
    """70/20/10 split indices; depends only on (seed, tag, granularity) so the
    test split is identical for every policy and SSL set under one seed."""
    seed = derived_seed("split", plan_seed, tag, granularity)
    return split_indices(metas, (0.7, 0.2, 0.1), seed, granularity)


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------


def train_encoder(ssl_set, policy_text, seed, stores, cfg):
    """Pretrain and freeze the encoder of one (SSL set, policy, seed).

    Returns the frozen graph, its pretraining history and the metadata its
    checkpoint carries. The init seed derives from the encoder id, so the
    sweep and `cardioclr pretrain` make the same encoder.
    """
    cfg_hash = config_hash(cfg)
    enc_id = _encoder_id(cfg_hash, ssl_set, policy_text, seed)
    windows = np.concatenate([stores.load(tag)[0] for tag in ssl_set], axis=0)
    graph = build_ssl_graph(encoder_config(cfg), seed=derived_seed("init", enc_id))
    graph, history = pretrain(graph, windows, parse_policy(policy_text),
                              pretrain_config(cfg, seed=seed))
    extra = {
        "config_hash": cfg_hash,
        "ssl_set": "+".join(ssl_set),
        "policy": policy_text,
        "seed": seed,
        "epochs_trained": len(history),
        "best_val_loss": best_val_loss(history),
        "encoder_id": enc_id,
    }
    return freeze_encoder(graph), history, extra


def _encoder_id(cfg_hash: str, ssl_set, policy_text: str, seed: int) -> str:
    return stable_hash("encoder", cfg_hash, "+".join(ssl_set), policy_text, seed)


def _pretrain_encoder(ssl_set, policy_text, seed, stores, cfg, out_dir):
    """Load the encoder of one (ssl_set, policy, seed), or train and save it.

    A checkpoint that fails to load is moved aside to `<id>.ckpt.corrupt` and
    the encoder is trained again, which gives the same bytes.
    """
    enc_id = _encoder_id(config_hash(cfg), ssl_set, policy_text, seed)
    enc_path = Path(out_dir) / "encoders" / f"{enc_id}.ckpt"
    if enc_path.exists():
        try:
            return load_checkpoint(enc_path)[0], enc_id
        except FormatError as exc:
            aside = enc_path.with_name(enc_path.name + ".corrupt")
            os.replace(enc_path, aside)
            _warn("%s is corrupt (%s); moved to %s, retraining", enc_path, exc, aside.name)
    graph, _, extra = train_encoder(ssl_set, policy_text, seed, stores, cfg)
    save_checkpoint(enc_path, graph, extra=extra)
    return graph, enc_id


# parts of a downstream split
TRAIN, VAL, TEST = range(3)


def split_rows(rows, metas, tag: str, seed: int, cfg: RunConfig, part: int):
    """`(rows, metas)` of one part (TRAIN, VAL or TEST) of a dataset's store.
    `rows` are the store's windows or their features, which index alike."""
    idx = downstream_splits(metas, seed, tag, cfg.split_granularity)[part]
    return rows[idx], [metas[i] for i in idx]


def _train_val(rows, metas, task: TaskSpec, seed: int, cfg: RunConfig):
    """`(rows, labels)` of the train and of the val part of a task's store."""
    parts = (split_rows(rows, metas, task.dataset_tag, seed, cfg, part) for part in (TRAIN, VAL))
    return [(part_rows, task.encode(part_metas)) for part_rows, part_metas in parts]


def fit_head(graph, enc_id: str, task: TaskSpec, seed: int, features, metas, cfg: RunConfig):
    """Train a head for `task` on a frozen encoder from its dataset's
    features (`graph.embed` of the whole store); returns `train_head`'s
    (graph, history). The head seed derives from (enc_id, task, seed)."""
    ds_cfg = downstream_config(cfg, seed=derived_seed("head", enc_id, str(task), seed))
    return train_head(graph, task, *_train_val(features, metas, task, seed, cfg), ds_cfg)


def model_metadata(cfg_hash: str, policy_text: str, task: TaskSpec, seed: int,
                   **encoder) -> dict:
    """Metadata of a trained model's checkpoint; an SSL model adds its
    `encoder_checkpoint` and `encoder_id`."""
    return {"config_hash": cfg_hash, "policy": policy_text, "task": str(task), "seed": seed,
            **encoder}


def _evals(task: TaskSpec, tasks: Sequence[TaskSpec]) -> list[tuple[str, str]]:
    """`(eval_dataset, eval_kind)` of a model trained for `task`: its own
    dataset in-distribution, and OOD every other task's dataset. OOD reuses
    the trained head, which is only label-compatible for 1-logit (binary)
    heads; wider `all` heads are evaluated in-distribution only."""
    evals = [(task.dataset_tag, IN_DISTRIBUTION)]
    if task.n_out == 1:
        evals += [(t.dataset_tag, OOD) for t in tasks if t.dataset_tag != task.dataset_tag]
    return evals


def _model_rows(graph, task, tasks, test_features, cfg, seed, ssl_set, policy_text, out_dir,
                encoder=None) -> list[LedgerRow]:
    """Checkpoint one trained model and evaluate it on `_evals(task, tasks)`.

    `test_features(tag)` gives the `(features, metas)` of a dataset's test
    split under the model's encoder. With `graph=None` (training failed) the
    same rows come back with status=failed and no metrics, so sweep
    statistics keep the full denominator.
    """
    cfg_hash = config_hash(cfg)
    exp_id = experiment_id(cfg_hash, ssl_set, policy_text, task.dataset_tag, task.task_type, seed)
    checkpoint = ""
    if graph is not None:
        # ledger and metadata keep paths relative to the sweep root, so
        # artifacts stay byte-identical wherever the sweep runs
        checkpoint = f"models/{exp_id}.ckpt"
        save_checkpoint(Path(out_dir) / checkpoint, graph,
                        extra=model_metadata(cfg_hash, policy_text, task, seed, **(encoder or {})))
    rows = []
    for eval_tag, kind in _evals(task, tasks):
        accuracy = micro_f1 = macro_f1 = None
        if graph is not None:
            eval_task = task if kind == IN_DISTRIBUTION else TaskSpec(eval_tag, "binary")
            m = evaluate(graph, *test_features(eval_tag), eval_task)
            accuracy, micro_f1, macro_f1 = m.accuracy, m.micro_f1, m.macro_f1
        rows.append(LedgerRow(
            experiment_id=exp_id, ssl_set="+".join(ssl_set), policy=policy_text,
            downstream=task.dataset_tag, task=task.task_type,
            eval_dataset=eval_tag, eval_kind=kind,
            accuracy=accuracy, micro_f1=micro_f1, macro_f1=macro_f1, seed=seed,
            checkpoint=checkpoint, status="ok" if graph is not None else "failed",
        ))
    return rows


def _warn(fmt: str, *args) -> None:
    # imported here: `logging` costs several ms to import, and a sweep with
    # nothing to warn about never needs it
    import logging

    logging.getLogger(__name__).warning(fmt, *args)


def _item_label(item) -> str:
    """How logs and errors name a work item: an SSL entry `(ssl_set, policy,
    seed)` or a baseline replicate `(task, rep_seed)`."""
    if isinstance(item[0], TaskSpec):
        return f"baseline replicate ({item[0]}, seed {item[1]})"
    ssl_set, policy_text, seed = item
    return f"SSL entry ({'+'.join(ssl_set)}, {policy_text!r}, seed {seed})"


def _log_failure(item, exc: CardioclrError) -> None:
    """Warn that a work item failed and its rows are marked failed."""
    _warn("%s failed: %s: %s", _item_label(item), type(exc).__name__, exc)


def run_experiment(
    ssl_set: tuple[str, ...],
    policy_text: str,
    seed: int,
    tasks: Sequence[TaskSpec],
    stores: WindowStores,
    cfg: RunConfig,
    out_dir,
) -> list[LedgerRow]:
    """Execute one plan entry end to end and return its ledger rows.

    A `CardioclrError` in any sub-step marks every remaining model of the
    entry as failed rather than silently dropping it or stopping the sweep.
    """
    rows: list[LedgerRow] = []
    done = 0
    try:
        graph, enc_id = _pretrain_encoder(ssl_set, policy_text, seed, stores, cfg, out_dir)
        encoder = {"encoder_checkpoint": f"encoders/{enc_id}.ckpt", "encoder_id": enc_id}
        # the encoder is frozen: each task's store goes through it once, and
        # every head trains and is scored on those features
        features = {}
        for task in tasks:
            x, metas = stores.load(task.dataset_tag)
            features[task.dataset_tag] = graph.embed(x), metas

        def test_features(tag):
            return split_rows(*features[tag], tag, seed, cfg, TEST)

        for task in tasks:
            graph, _ = fit_head(graph, enc_id, task, seed, *features[task.dataset_tag], cfg)
            rows += _model_rows(graph, task, tasks, test_features, cfg, seed, ssl_set,
                                policy_text, out_dir, encoder)
            done += 1
    except CardioclrError as exc:
        _log_failure((ssl_set, policy_text, seed), exc)
        for task in tasks[done:]:
            rows += _model_rows(None, task, tasks, None, cfg, seed, ssl_set, policy_text, out_dir)
    return rows


def run_baseline(
    task: TaskSpec,
    seed: int,
    tasks: Sequence[TaskSpec],
    stores: WindowStores,
    cfg: RunConfig,
    out_dir,
) -> list[LedgerRow]:
    """One fully-supervised baseline replicate, trained on windows and
    evaluated ID and OOD on each test split embedded once by its trained
    encoder; a `CardioclrError` in training or evaluation marks all of its
    rows failed."""
    cfg_hash = config_hash(cfg)
    graph = build_ssl_graph(encoder_config(cfg),
                            seed=derived_seed("baseline-init", cfg_hash, str(task), seed))
    graph.drop_head()
    ds_cfg = downstream_config(cfg, seed=derived_seed("baseline-head", cfg_hash, str(task), seed))

    def test_features(tag):
        x, metas = split_rows(*stores.load(tag), tag, seed, cfg, TEST)
        return graph.embed(x), metas

    try:
        train_val = _train_val(*stores.load(task.dataset_tag), task, seed, cfg)
        graph, _ = train_baseline(graph, task, *train_val, ds_cfg)
        return _model_rows(graph, task, tasks, test_features, cfg, seed, ("none",),
                           BASELINE_POLICY, out_dir)
    except CardioclrError as exc:
        _log_failure((task, seed), exc)
        return _model_rows(None, task, tasks, None, cfg, seed, ("none",), BASELINE_POLICY,
                           out_dir)


def _run_item(item, tasks, stores, cfg, out_dir) -> list[LedgerRow]:
    """Ledger rows of one pending work item: an SSL entry `(ssl_set, policy,
    seed)` or a baseline replicate `(task, rep_seed)`."""
    if isinstance(item[0], TaskSpec):
        task, rep_seed = item
        return run_baseline(task, rep_seed, tasks, stores, cfg, out_dir)
    ssl_set, policy, seed = item
    return run_experiment(ssl_set, policy, seed, tasks, stores, cfg, out_dir)


# `(tasks, stores, cfg, out_dir)` in a pool worker, set by `_init_worker`
_worker_args: tuple = ()


def _init_worker(threads, *args) -> None:
    global _worker_args
    layers.THREADS = threads
    _worker_args = args


def _run_in_worker(item) -> list[LedgerRow]:
    return _run_item(item, *_worker_args)


def _item_rows(pending, args, jobs):
    """Yield each pending item's rows in plan order, computed by up to `jobs`
    forked worker processes when there is more than one item."""
    if jobs <= 1 or len(pending) <= 1:
        for item in pending:
            yield _run_item(item, *args)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: workers inherit the loaded window stores instead of
    # unpickling a copy each; only work items and ledger rows are pickled.
    # The workers split the CPUs between their encoder blocks' threads.
    done, workers = 0, min(jobs, len(pending))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker,
                             initargs=(max(1, layers.cpu_count() // workers), *args)) as pool:
        try:
            for rows in pool.map(_run_in_worker, pending):
                yield rows
                done += 1
        except BrokenProcessPool:  # a worker was killed: out of memory, a signal
            unfinished = "; ".join(_item_label(item) for item in pending[done:])
            raise CardioclrError("a sweep worker process died; these plan items did not "
                                 f"finish: {unfinished}") from None


def check_splits(items, tasks, stores, cfg) -> None:
    """Raise `DataError` if a work item would train a head on an empty train
    split or score one on an empty test split. An SSL entry `(ssl_set,
    policy, seed)` trains a head per task, a `(task, seed)` item one."""
    needs: dict[tuple[str, int], set] = {}  # (tag, seed) -> parts that must not be empty
    for item in items:
        for task in [item[0]] if isinstance(item[0], TaskSpec) else tasks:
            needs.setdefault((task.dataset_tag, item[-1]), set()).add(TRAIN)
            for tag, _ in _evals(task, tasks):
                needs.setdefault((tag, item[-1]), set()).add(TEST)
    for (tag, seed), parts in needs.items():
        metas = stores.load(tag)[1]
        sizes = [len(idx) for idx in downstream_splits(metas, seed, tag, cfg.split_granularity)]
        if any(sizes[part] == 0 for part in parts):
            raise DataError(f"dataset {tag!r} at seed {seed} splits into train/val/test sizes "
                            f"{sizes}; heads need a non-empty train and test split")


def run_plan(
    plan: ExperimentPlan,
    stores: WindowStores,
    cfg: RunConfig,
    out_dir,
    jobs: int = 1,
) -> list[LedgerRow]:
    """Run every plan entry and baseline replicate not already in the ledger;
    returns all rows.

    Every pending SSL entry and baseline replicate is one independent work
    item; with jobs > 1 they run on a pool of forked processes. Rows are taken
    in plan order and the ledger is rewritten after each item, so it stays
    deterministic and an interrupted sweep keeps every finished item's rows.
    """
    out_dir = Path(out_dir)
    ledger_path = out_dir / "ledger.csv"
    rows = read_ledger(ledger_path)
    existing = {row.experiment_id for row in rows}

    cfg_hash = config_hash(cfg)
    pending: list[tuple] = []
    tags: list[str] = []  # SSL stores the pending items pretrain on
    for ssl_set, policy, seed in plan.entries():
        ids = {
            experiment_id(cfg_hash, ssl_set, policy, t.dataset_tag, t.task_type, seed)
            for t in plan.tasks
        }
        if not ids <= existing:
            pending.append((ssl_set, policy, seed))
            tags.extend(ssl_set)
    for task in plan.tasks:
        for rep in range(plan.baseline_runs):
            rep_seed = derived_seed("baseline-rep", plan.seeds[0], str(task), rep)
            exp_id = experiment_id(cfg_hash, ("none",), BASELINE_POLICY,
                                   task.dataset_tag, task.task_type, rep_seed)
            if exp_id not in existing:
                pending.append((task, rep_seed))

    # loaded up front, so a missing store or an empty split fails before any
    # training starts, and forked workers inherit every store; the split
    # check loads every store an item trains a head on or evaluates on
    for tag in tags:
        stores.load(tag)
    check_splits(pending, plan.tasks, stores, cfg)
    with closing(_item_rows(pending, (plan.tasks, stores, cfg, out_dir), jobs)) as results:
        for new_rows in results:
            rows.extend(new_rows)
            write_ledger(ledger_path, rows)
    return rows
