"""Post-hoc statistics over the sweep ledger.

For each transform variant the ledger is split into matched pairs: an
experiment using the variant, and the experiment whose policy is identical
except that the variant is deleted from its chain (`noise|inv` pairs with
`none|inv`). Cohen's d of the two groups measures that variant's effect on
the chosen metric. Occurrence counts over each task's top-k experiments and
`select_best`'s pick per task share one ranking rule (`_ranked`).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._atomic import write_atomic
from .augment import chain_to_string, parse_policy
from .errors import DataError, ParameterError
from .protocol import BASELINE_POLICY, IN_DISTRIBUTION, OOD, LedgerRow

# Effect sizes measured by the original cluster-scale study of this pipeline
# (OOD micro-F1 on PhysioNet2016, trained on PhysioNet2022). Included in
# reports for eyeballing only: desk-scale runs are not expected to reproduce
# them.
REFERENCE_EFFECT_SIZES = {
    "flip(0.5)": 1.80116,
    "lp(500,450)": 1.32952,
    "lp(750,700)": 1.2839,
    "lp(250,200)": 1.26386,
    "flip(0.3)": 0.57836,
    "flip(0.7)": 0.49227,
    "scale(1,1.5)": 0.20685,
    "noise(u,-0.01,0.01)": 0.11594,
    "inv": -0.00088,
    "rev": -0.00398,
    "scale(1.5,2)": -0.11695,
    "hp(500,550)": -0.1149,
    "hp(250,300)": -0.2079,
    "noise(u,-0.001,0.001)": -0.23983,
    "noise(u,-0.1,0.1)": -0.32574,
    "scale(0.5,2)": -0.40168,
    "hp(750,800)": -0.47433,
}


def _pooled_std(x1: np.ndarray, x2: np.ndarray) -> float:
    """Pooled s from (n-1)-weighted sample variances:
        s = sqrt(((n1-1)*s1^2 + (n2-1)*s2^2) / (n1 + n2 - 2))
    """
    return math.sqrt(((x1.size - 1) * x1.var(ddof=1) + (x2.size - 1) * x2.var(ddof=1))
                     / (x1.size + x2.size - 2))


def cohens_d(group1: Sequence[float], group2: Sequence[float]) -> float:
    """Difference of means over the pooled standard deviation (`_pooled_std`)."""
    x1 = np.asarray(group1, dtype=np.float64)
    x2 = np.asarray(group2, dtype=np.float64)
    if x1.size < 2 or x2.size < 2:
        raise DataError(f"each group needs at least 2 values, got {x1.size} and {x2.size}")
    pooled = _pooled_std(x1, x2)
    if pooled == 0.0:
        raise DataError("pooled standard deviation is zero; effect size undefined")
    return float((x1.mean() - x2.mean()) / pooled)


@dataclass
class EffectSizeRow:
    atom: str
    d: float
    n1: int
    n2: int
    mean1: float
    mean2: float
    pooled_s: float
    reference_d: Optional[float] = None


def _deletion_variants(policy_text: str, atom: str) -> list[str]:
    """Policies reachable by deleting one occurrence of `atom` from a chain.

    The two views are symmetric, so each variant is also tried with its
    chains swapped: deleting the right atom of `x|y` must find the
    single-transform experiment, which a ledger writes as `none|x`.
    """
    policy = parse_policy(policy_text)
    variants = []
    chains = [list(policy.left), list(policy.right)]
    for side in (0, 1):
        for i, a in enumerate(chains[side]):
            if str(a) == atom:
                reduced = [list(policy.left), list(policy.right)]
                del reduced[side][i]
                left_s = chain_to_string(tuple(reduced[0]))
                right_s = chain_to_string(tuple(reduced[1]))
                variants.append(f"{left_s}|{right_s}")
                if left_s != right_s:
                    variants.append(f"{right_s}|{left_s}")
    return list(dict.fromkeys(variants))  # unique, in order


def _metric(row: LedgerRow, metric: str) -> float:
    value = getattr(row, metric)
    if value is None:
        raise DataError(f"row {row.experiment_id} has no {metric}")
    return value


def match_paired_experiments(
    rows: Sequence[LedgerRow], atom: str, metric: str = "micro_f1"
) -> tuple[list[float], list[float]]:
    """Matched metric groups (with atom, without atom) over a ledger snapshot.

    The counterpart of an experiment is the row with the same context
    (ssl_set, downstream, task, eval dataset/kind, seed) whose policy equals
    the experiment's policy with the atom deleted. Rows without a counterpart
    are excluded.
    """
    ok_rows = [r for r in rows if r.status == "ok" and r.policy != BASELINE_POLICY]
    by_key = {}
    for row in ok_rows:
        key = (row.ssl_set, row.downstream, row.task, row.eval_dataset,
               row.eval_kind, row.seed, row.policy)
        by_key[key] = row
    with_group, without_group = [], []
    for row in ok_rows:
        if atom not in set(str(a) for a in parse_policy(row.policy).atoms()):
            continue
        context = (row.ssl_set, row.downstream, row.task, row.eval_dataset,
                   row.eval_kind, row.seed)
        for variant in _deletion_variants(row.policy, atom):
            counterpart = by_key.get(context + (variant,))
            if counterpart is not None:
                with_group.append(_metric(row, metric))
                without_group.append(_metric(counterpart, metric))
                break
    if not with_group:
        raise DataError(f"no matched pairs for atom {atom!r}")
    return with_group, without_group


def effect_size_report(
    rows: Sequence[LedgerRow],
    atoms: Sequence[str],
    metric: str = "micro_f1",
) -> list[EffectSizeRow]:
    """Cohen's d per atom over matched pairs, sorted by effect size descending.
    Atoms with no matched pairs or degenerate variance are skipped."""
    report = []
    for atom in atoms:
        try:
            g1, g2 = match_paired_experiments(rows, atom, metric)
            d = cohens_d(g1, g2)
        except DataError:
            continue
        x1, x2 = np.asarray(g1), np.asarray(g2)
        report.append(
            EffectSizeRow(
                atom=atom, d=d, n1=len(g1), n2=len(g2),
                mean1=float(x1.mean()), mean2=float(x2.mean()),
                pooled_s=_pooled_std(x1, x2), reference_d=REFERENCE_EFFECT_SIZES.get(atom),
            )
        )
    report.sort(key=lambda r: (-r.d, r.atom))
    return report


def _ranked(rows: Sequence[LedgerRow], eval_kind: str, metric: str, group) -> dict:
    """The `ok`, non-baseline rows of one eval kind by `group(row)`, in key order,
    each ranked by one rule: higher `metric`, then smaller policy, then eval dataset."""
    groups: dict = {}
    for row in rows:
        if row.status == "ok" and row.eval_kind == eval_kind and row.policy != BASELINE_POLICY:
            groups.setdefault(group(row), []).append(row)
    return {key: sorted(groups[key], key=lambda r: (-_metric(r, metric), r.policy, r.eval_dataset))
            for key in sorted(groups)}


def select_best(rows: Sequence[LedgerRow], metric: str = "micro_f1") -> list[LedgerRow]:
    """Per (ssl_set, downstream, task), the in-distribution row that ranks
    first: the best policy for that task and SSL set."""
    groups = _ranked(rows, IN_DISTRIBUTION, metric, lambda r: (r.ssl_set, r.downstream, r.task))
    return [ranked[0] for ranked in groups.values()]


@dataclass
class OccurrenceReport:
    eval_kind: str
    k: int
    n_selected: int
    n_chains: int
    counts: dict[str, int]
    per_task: dict[str, dict[str, int]]


def top_k_occurrences(
    rows: Sequence[LedgerRow],
    k: int = 25,
    eval_kind: str = OOD,
    metric: str = "micro_f1",
) -> OccurrenceReport:
    """Atom occurrence counts across both chains of the top-k experiments of
    each downstream task (each experiment contributes its pair of chains)."""
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")
    if eval_kind not in (IN_DISTRIBUTION, OOD):
        raise DataError(f"unknown eval kind {eval_kind!r}")
    tasks = _ranked(rows, eval_kind, metric, lambda r: f"{r.downstream}:{r.task}")
    if not tasks:
        raise DataError("no usable rows for occurrence counting")

    counts: dict[str, int] = {}
    per_task: dict[str, dict[str, int]] = {}
    n_selected = 0
    for task_key, ranked in tasks.items():
        if len(ranked) < k:
            raise DataError(f"task {task_key} has {len(ranked)} rows, need at least k={k}")
        task_counts: dict[str, int] = {}
        for row in ranked[:k]:
            for atom in parse_policy(row.policy).atoms():
                name = str(atom)
                counts[name] = counts.get(name, 0) + 1
                task_counts[name] = task_counts.get(name, 0) + 1
        per_task[task_key] = task_counts
        n_selected += k
    return OccurrenceReport(
        eval_kind=eval_kind,
        k=k,
        n_selected=n_selected,
        n_chains=2 * n_selected,
        counts=counts,
        per_task=per_task,
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _effect_csv(report: Sequence[EffectSizeRow]) -> str:
    lines = ["augmentation,d,n1,n2,mean1,mean2,pooled_s,reference_d"]
    for row in report:
        ref = "" if row.reference_d is None else f"{row.reference_d}"
        lines.append(
            f"\"{row.atom}\",{row.d:.6f},{row.n1},{row.n2},"
            f"{row.mean1:.6f},{row.mean2:.6f},{row.pooled_s:.6f},{ref}"
        )
    return "\n".join(lines) + "\n"


def _occurrence_csv(reports: Sequence[OccurrenceReport]) -> str:
    lines = ["eval_kind,augmentation,count"]
    for rep in reports:
        for atom in sorted(rep.counts):
            lines.append(f"{rep.eval_kind},\"{atom}\",{rep.counts[atom]}")
    return "\n".join(lines) + "\n"


def report_to_json(effects: Sequence[EffectSizeRow], occurrences: Sequence[OccurrenceReport],
                   best: Sequence[LedgerRow] = ()) -> str:
    payload = {
        "best_policies": [asdict(r) for r in best],
        "effect_sizes": [
            {
                "augmentation": r.atom, "d": r.d, "n1": r.n1, "n2": r.n2,
                "mean1": r.mean1, "mean2": r.mean2, "pooled_s": r.pooled_s,
                "reference_d": r.reference_d,
                "reference_note": "full-scale reference values; not reproducible at desk scale",
            }
            for r in effects
        ],
        "occurrences": [
            {
                "eval_kind": rep.eval_kind, "k": rep.k,
                "n_selected": rep.n_selected, "n_chains": rep.n_chains,
                "counts": dict(sorted(rep.counts.items())),
                "per_task": {t: dict(sorted(c.items())) for t, c in sorted(rep.per_task.items())},
            }
            for rep in occurrences
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def emit_report(
    out_dir,
    effects: Sequence[EffectSizeRow],
    occurrences: Sequence[OccurrenceReport],
    best: Sequence[LedgerRow] = (),
) -> dict[str, str]:
    """Write effect_sizes.csv, occurrences.csv and report.json, which lists
    `best` (`select_best`'s rows) as `best_policies`; deterministic bytes."""
    out_dir = Path(out_dir)
    paths = {
        "effect_sizes": out_dir / "effect_sizes.csv",
        "occurrences": out_dir / "occurrences.csv",
        "report": out_dir / "report.json",
    }
    write_atomic(paths["effect_sizes"], _effect_csv(effects).encode("utf-8"))
    write_atomic(paths["occurrences"], _occurrence_csv(occurrences).encode("utf-8"))
    write_atomic(paths["report"], report_to_json(effects, occurrences, best).encode("utf-8"))
    return {k: str(v) for k, v in paths.items()}
