"""Single command-line entry point for the whole pipeline.

Subcommands mirror the six framework steps: `synth`/`prepare` homogenize data
into window stores, `pretrain` runs contrastive pretraining, `finetune` and
`evaluate` handle downstream heads, `sweep` executes a full plan into the
ledger, `analyze` computes effect sizes and occurrence counts, and
`gradcheck` runs the finite-difference gradient suite standalone.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from functools import partial
from pathlib import Path

from . import analysis, protocol
from . import signal_io as sio
from ._atomic import write_atomic
from .augment import default_atom_grid, parse_policy
from .config import RunConfig, config_hash, parse_config
from .contrastive import freeze_encoder
from .downstream import TaskSpec, evaluate
from .errors import CardioclrError, ConfigError
from .nn import load_checkpoint, save_checkpoint
from .nn.gradcheck import TOLERANCE, run_gradient_suite
from .nn.optim import history_to_csv

log = logging.getLogger("cardioclr")

SEED_ENV = "CARDIOCLR_SEED"
# `analyze --metric`: the eval kind, then a ledger metric column
ANALYZE_METRICS = [f"{kind}_{metric}" for kind in ("id", "ood")
                   for metric in ("micro_f1", "macro_f1", "accuracy")]


class JsonFormatter(logging.Formatter):
    """One JSON object per record: `{"level": ..., "msg": ...}`."""

    def format(self, record) -> str:
        return json.dumps({"level": record.levelname, "msg": record.getMessage()})


def _setup_logging(args) -> None:
    handler = logging.StreamHandler()
    handler.setFormatter(
        JsonFormatter() if args.json_logs else logging.Formatter("%(levelname)s %(message)s")
    )
    level = logging.WARNING if args.quiet else logging.INFO
    logging.basicConfig(level=level, handlers=[handler], force=True)


def _int_at_least(minimum: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


_positive_int = partial(_int_at_least, 1)
_seed = partial(_int_at_least, 0)  # every --seed, and CARDIOCLR_SEED


def _load_config(args) -> RunConfig:
    cfg = parse_config(args.config) if getattr(args, "config", None) else RunConfig()
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        try:
            cfg.seed = _seed(env_seed)
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"{SEED_ENV}={env_seed!r}: {exc}") from None
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    profile = sio.SynthProfile(
        murmur_band=(args.murmur_low, args.murmur_high),
        murmur_amp=args.murmur_amp,
        noise_floor=args.noise_floor,
        sample_rate=args.rate,
    )
    manifest = sio.generate_synthetic_manifest(
        args.out,
        seed=args.seed,
        n_recordings=args.n_recordings,
        profile=profile,
        prefix=args.prefix,
    )
    log.info("wrote %d recordings to %s", len(manifest.entries), args.out)
    print(json.dumps({"recordings": len(manifest.entries), "out": str(args.out)}))
    return 0


def cmd_prepare(args) -> int:
    counts = sio.prepare_manifest(args.manifest, args.out)
    print(json.dumps({"windows": counts, "out": str(args.out)}))
    return 0


def cmd_pretrain(args) -> int:
    cfg = _load_config(args)
    ssl_set = tuple(tag.strip() for tag in args.datasets.split("+"))
    graph, history, extra = protocol.train_encoder(
        ssl_set, args.policy, cfg.seed, protocol.WindowStores(args.windows), cfg)
    save_checkpoint(args.out, graph, extra=extra)
    if args.history:
        write_atomic(args.history, history_to_csv(history).encode("utf-8"))
    print(json.dumps({
        "checkpoint": str(args.out),
        "epochs": len(history),
        "final_train_loss": history[-1].train_loss,
        "best_val_loss": extra["best_val_loss"],
    }))
    return 0


def cmd_finetune(args) -> int:
    cfg = _load_config(args)
    graph, meta = load_checkpoint(args.ckpt)
    encoder = meta.get("extra", {})
    enc_id = encoder.get("encoder_id", "")
    task = TaskSpec(args.dataset, args.task)
    stores = protocol.WindowStores(args.windows)
    protocol.check_splits([(task, cfg.seed)], [task], stores, cfg)
    x, metas = stores.load(args.dataset)
    graph = freeze_encoder(graph)
    features = graph.embed(x)
    graph, history = protocol.fit_head(graph, enc_id, task, cfg.seed, features, metas, cfg)
    metrics = evaluate(graph, *protocol.split_rows(features, metas, args.dataset, cfg.seed, cfg,
                                                   protocol.TEST), task)
    save_checkpoint(args.out, graph, extra=protocol.model_metadata(
        config_hash(cfg), encoder.get("policy", ""), task, cfg.seed,
        encoder_checkpoint=str(args.ckpt), encoder_id=enc_id))
    print(json.dumps({
        "checkpoint": str(args.out),
        "epochs": len(history),
        "test_accuracy": metrics.accuracy,
        "test_micro_f1": metrics.micro_f1,
        "test_macro_f1": metrics.macro_f1,
    }))
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    graph, meta = load_checkpoint(args.model)
    task_type = args.task
    if task_type is None:
        own = meta.get("extra", {}).get("task", "")
        own_tag, _, own_type = own.partition(":")
        task_type = own_type if own_tag == args.dataset and own_type else "binary"
    task = TaskSpec(args.dataset, task_type)
    x, metas = protocol.WindowStores(args.windows).load(args.dataset)
    if args.split == "test":
        x, metas = protocol.split_rows(x, metas, args.dataset, cfg.seed, cfg, protocol.TEST)
    metrics = evaluate(graph, graph.embed(x), metas, task)
    payload = {
        "model": str(args.model),
        "dataset": args.dataset,
        "task": str(task),
        "split": args.split,
        "n_windows": metrics.n_windows,
        "accuracy": metrics.accuracy,
        "micro_f1": metrics.micro_f1,
        "macro_f1": metrics.macro_f1,
        "confusion": metrics.confusion.tolist(),
    }
    print(json.dumps(payload, sort_keys=True))
    csv_row = (
        f"{args.model},{args.dataset},{task},{args.split},"
        f"{metrics.accuracy:.6f},{metrics.micro_f1:.6f},{metrics.macro_f1:.6f}"
    )
    print(csv_row)
    if args.json:
        write_atomic(args.json, json.dumps(payload, sort_keys=True, indent=1).encode("utf-8"))
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    plan = protocol.parse_plan(args.plan)
    stores = protocol.WindowStores(args.windows)
    rows = protocol.run_plan(plan, stores, cfg, args.out, jobs=args.jobs)
    ok = sum(1 for r in rows if r.status == "ok")
    failed = sum(1 for r in rows if r.status != "ok")
    print(json.dumps({
        "ledger": str(Path(args.out) / "ledger.csv"),
        "rows": len(rows), "ok": ok, "failed": failed,
        "config_hash": config_hash(cfg),
    }))
    return 0


def cmd_analyze(args) -> int:
    rows = protocol.read_ledger(args.ledger)
    if not rows:
        raise CardioclrError(f"ledger {args.ledger} is empty")
    eval_kind, _, metric = args.metric.partition("_")
    kind = protocol.OOD if eval_kind == "ood" else protocol.IN_DISTRIBUTION
    subset = [r for r in rows if r.eval_kind == kind]
    atoms = sorted({str(a) for r in subset
                    if r.status == "ok" and r.policy != protocol.BASELINE_POLICY
                    for a in parse_policy(r.policy).atoms()} | set(map(str, default_atom_grid())))
    effects = analysis.effect_size_report(subset, atoms, metric)
    occurrences = []
    for k in (protocol.IN_DISTRIBUTION, protocol.OOD):
        try:
            occurrences.append(analysis.top_k_occurrences(rows, k=args.k, eval_kind=k, metric=metric))
        except CardioclrError as exc:
            log.warning("occurrence counting for %s skipped: %s", k, exc)
    paths = analysis.emit_report(args.out, effects, occurrences, analysis.select_best(rows, metric))
    print(json.dumps({"effect_rows": len(effects), **paths}))
    return 0


def cmd_gradcheck(args) -> int:
    report = run_gradient_suite(seed=args.seed, trials_per_check=args.trials)
    worst = max(report.values())
    for name, err in report.items():
        print(f"{name:>16s}  max_rel_err={err:.3e}")
    print(f"{'overall':>16s}  max_rel_err={worst:.3e}  tolerance={TOLERANCE:.0e}")
    return 0 if worst < TOLERANCE else 1


# ---------------------------------------------------------------------------
# Parser / dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardioclr",
        description="Contrastive pretraining and augmentation ablation for heart-sound classifiers",
    )
    parser.add_argument("--quiet", action="store_true", help="warnings only")
    parser.add_argument("--json-logs", action="store_true", help="JSON log lines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset + manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--n-recordings", type=int, default=24)
    p.add_argument("--rate", type=int, default=2000)
    p.add_argument("--murmur-low", type=float, default=150.0)
    p.add_argument("--murmur-high", type=float, default=400.0)
    p.add_argument("--murmur-amp", type=float, default=0.12)
    p.add_argument("--noise-floor", type=float, default=0.002)
    p.add_argument("--prefix", default="synth")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", help="homogenize a manifest into window stores")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("pretrain", help="contrastive pretraining of the encoder")
    p.add_argument("--config")
    p.add_argument("--windows", required=True, help="window store root")
    p.add_argument("--datasets", required=True, help="tags joined by +")
    p.add_argument("--policy", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--history")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="train a classification head on a frozen encoder")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--task", choices=["all", "binary"], default="binary")
    p.add_argument("--windows", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="evaluate a trained model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--windows", required=True)
    p.add_argument("--task", choices=["all", "binary"])
    p.add_argument("--split", choices=["test", "all"], default="test")
    p.add_argument("--json")
    p.add_argument("--config")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run an experiment plan into a ledger")
    p.add_argument("--plan", required=True)
    p.add_argument("--windows", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--config")
    p.add_argument("--seed", type=_seed)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="effect sizes and occurrence counts from a ledger")
    p.add_argument("--ledger", required=True)
    p.add_argument("--metric", default="ood_micro_f1", choices=ANALYZE_METRICS)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=_positive_int, default=25)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trials", type=_positive_int, default=6)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _setup_logging(args)
    try:
        return args.func(args)
    except CardioclrError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: IOError: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
