"""Tests for effect sizes, paired-experiment matching and top-k counting."""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from cardioclr import analysis, cli
from cardioclr.analysis import (
    REFERENCE_EFFECT_SIZES,
    cohens_d,
    effect_size_report,
    emit_report,
    match_paired_experiments,
    pairing_index,
    report_to_json,
    select_best,
    top_k_occurrences,
)
from cardioclr.augment import default_atom_grid, enumerate_policies, parse_policy
from cardioclr.errors import DataError, ParameterError
from cardioclr.protocol import METRICS, LedgerRow, experiment_id, read_ledger, write_ledger

# sha256 of `analyze`'s outputs over `_synthetic_ledger()` for every --metric
ANALYZE_DIGEST = "3ddb421ca0d414e41049d360fc93f9fb7ddeabef351d3ca26afab41448b7dd45"


def _row(policy, micro, downstream="physionet2022", eval_dataset="physionet2016",
         eval_kind="ood", seed=1, status="ok", task="binary"):
    return LedgerRow(
        experiment_id=f"id-{policy}-{seed}-{eval_dataset}",
        ssl_set="ephnogram+fpcgdb",
        policy=policy,
        downstream=downstream,
        task=task,
        eval_dataset=eval_dataset,
        eval_kind=eval_kind,
        accuracy=micro,
        micro_f1=micro,
        macro_f1=micro,
        seed=seed,
        checkpoint="x.ckpt",
        status=status,
    )


class TestCohensD:
    def test_identical_groups_zero(self):
        assert cohens_d([2.0, 4.0], [2.0, 4.0]) == 0.0

    def test_hand_evaluated_pooled_variance(self):
        # means 3 and 2; each variance 2; pooled s = sqrt(2); d = 1/sqrt(2)
        d = cohens_d([2.0, 4.0], [1.0, 3.0])
        assert abs(d - 1.0 / math.sqrt(2.0)) < 1e-12

    def test_swap_negates(self):
        g1, g2 = [0.7, 0.8, 0.6], [0.5, 0.55, 0.57]
        assert abs(cohens_d(g1, g2) + cohens_d(g2, g1)) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        g1 = rng.normal(0.6, 0.1, 20)
        g2 = rng.normal(0.5, 0.1, 25)
        base = cohens_d(g1, g2)
        shifted = cohens_d(g1 + 5.0, g2 + 5.0)
        assert abs(base - shifted) < 1e-9

    def test_positive_scaling_equivariance(self):
        rng = np.random.default_rng(1)
        g1 = rng.normal(0.6, 0.1, 15)
        g2 = rng.normal(0.5, 0.1, 15)
        base = cohens_d(g1, g2)
        scaled = cohens_d(3.0 * g1, 3.0 * g2)
        assert abs(base - scaled) < 1e-9
        assert np.sign(base) == np.sign(scaled)

    def test_degenerate_variance(self):
        with pytest.raises(DataError):
            cohens_d([1.0, 1.0], [1.0, 1.0])

    def test_too_small_group(self):
        with pytest.raises(DataError):
            cohens_d([1.0], [1.0, 2.0])


class TestMatcher:
    def test_worked_pairing_noise_vs_inversion(self):
        rows = [
            _row("noise(u,-0.01,0.01)|inv", 0.7),
            _row("none|inv", 0.6),
        ]
        g1, g2 = match_paired_experiments(pairing_index(rows), "noise(u,-0.01,0.01)")
        assert g1 == [0.7]
        assert g2 == [0.6]

    def test_absent_atom_raises(self):
        rows = [_row("none|inv", 0.6)]
        with pytest.raises(DataError):
            match_paired_experiments(pairing_index(rows), "rev")

    def test_2vs2_chain_deletion(self):
        rows = [
            _row("lp(500,450)+noise(u,-0.01,0.01)|inv+scale(1,1.5)", 0.8),
            _row("lp(500,450)|inv+scale(1,1.5)", 0.75),
        ]
        g1, g2 = match_paired_experiments(pairing_index(rows), "noise(u,-0.01,0.01)")
        assert g1 == [0.8]
        assert g2 == [0.75]

    def test_ten_row_fixture_matches_hand_enumeration(self):
        # hand enumeration: rev pairs are (rows 0,1), (rows 2,3) and the
        # seed-2 replica (rows 6,7); row 4 has no counterpart; row 5 is a
        # different context (eval dataset) and must not match row 0's group.
        rows = [
            _row("rev|inv", 0.70, seed=1),
            _row("none|inv", 0.60, seed=1),
            _row("rev|scale(1,1.5)", 0.72, seed=1),
            _row("none|scale(1,1.5)", 0.66, seed=1),
            _row("rev|flip(0.5)", 0.90, seed=1),                      # unmatched
            _row("none|inv", 0.10, seed=1, eval_dataset="pascal"),    # other context
            _row("rev|inv", 0.71, seed=2),
            _row("none|inv", 0.62, seed=2),
            _row("noise(u,-0.1,0.1)|inv", 0.50, seed=1),              # different atom
            _row("rev|inv", 0.99, seed=3, status="failed"),           # ignored
        ]
        g1, g2 = match_paired_experiments(pairing_index(rows), "rev")
        assert sorted(g1) == [0.70, 0.71, 0.72]
        assert sorted(g2) == [0.60, 0.62, 0.66]

    def test_never_pairs_rows_differing_by_more_than_one_atom(self):
        rows = [
            _row("rev|inv+scale(1,1.5)", 0.8),
            _row("none|scale(1,1.5)", 0.5),  # two deletions away
        ]
        with pytest.raises(DataError):
            match_paired_experiments(pairing_index(rows), "rev")

    def test_baseline_rows_ignored(self):
        rows = [
            _row("noise(u,-0.01,0.01)|inv", 0.7),
            _row("none|inv", 0.6),
            _row("baseline", 0.9),  # fully-supervised rows carry no policy
        ]
        g1, g2 = match_paired_experiments(pairing_index(rows), "noise(u,-0.01,0.01)")
        assert (g1, g2) == ([0.7], [0.6])
        top = top_k_occurrences(rows[:2] + [_row("baseline", 0.99, seed=5)], k=2, eval_kind="ood")
        assert "baseline" not in top.counts

    def test_right_side_deletion_finds_canonical_orientation(self):
        # deleting inv from rev|inv leaves the single-transform experiment,
        # which the 0vs1 enumeration writes as none|rev
        rows = [
            _row("rev|inv", 0.7),
            _row("none|rev", 0.65),
        ]
        g1, g2 = match_paired_experiments(pairing_index(rows), "inv")
        assert (g1, g2) == ([0.7], [0.65])

    @pytest.mark.parametrize("spelled,canonical,atom", [
        (("rev|flip(.5)", "none|flip(.5)"), ("rev|flip(0.5)", "none|flip(0.5)"), "rev"),
        (("rev|flip(0.5)", "|flip(0.5)"), ("rev|flip(0.5)", "none|flip(0.5)"), "rev"),
        (("noise(-0.1,0.1)|rev", "none|noise(-0.1,0.1)"),
         ("noise(u,-0.1,0.1)|rev", "none|noise(u,-0.1,0.1)"), "rev"),
    ], ids=["short_float", "empty_chain", "noise_shorthand"])
    def test_rows_pair_in_any_spelling(self, spelled, canonical, atom):
        def rows(policies):
            return [_row(policy, micro + 0.01 * seed, seed=seed) for seed in (1, 2, 3)
                    for policy, micro in zip(policies, (0.7, 0.6))]

        assert match_paired_experiments(pairing_index(rows(spelled)), atom) == \
            match_paired_experiments(pairing_index(rows(canonical)), atom) == \
            ([0.71, 0.72, 0.73], [0.61, 0.62, 0.63])
        assert effect_size_report(rows(spelled), [atom]) == effect_size_report(rows(canonical), [atom])

    def test_rows_of_one_parsed_policy_count_once(self):
        # an old sweep's rows next to a canonical re-run of the same plan:
        # each experiment enters the groups once, as its last row
        rows = []
        for seed in (1, 2):
            rows += [_row("rev|flip(.5)", 0.5, seed=seed), _row("|flip(.5)", 0.4, seed=seed),
                     _row("rev|flip(0.5)", 0.7 + 0.01 * seed, seed=seed),
                     _row("none|flip(0.5)", 0.6 + 0.01 * seed, seed=seed)]
        assert match_paired_experiments(pairing_index(rows), "rev") == ([0.71, 0.72], [0.61, 0.62])

    def test_effect_size_report_sorted(self):
        rows = []
        for seed in range(4):
            rows.append(_row("rev|inv", 0.7 + 0.01 * seed, seed=seed))
            rows.append(_row("none|inv", 0.6 + 0.012 * seed, seed=seed))
            rows.append(_row("scale(1,1.5)|inv", 0.5 - 0.01 * seed, seed=seed))
            rows.append(_row("none|inv", 0.6, seed=seed))  # duplicate key is overwritten
        report = effect_size_report(rows, ["rev", "scale(1,1.5)", "flip(0.5)"])
        assert [r.atom for r in report] == ["rev", "scale(1,1.5)"]
        assert report[0].d >= report[-1].d
        assert report[0].reference_d == REFERENCE_EFFECT_SIZES["rev"]

    def test_effect_size_report_parses_each_row_once(self, monkeypatch):
        # every grid policy at 3 seeds, plus a failed row and a baseline row:
        # one index serves all 17 atoms
        rows = [_row(str(p), 0.5 + 0.001 * (i % 97) + 0.01 * seed, seed=seed)
                for seed in range(3) for i, p in enumerate(enumerate_policies("0vs1")
                                                           + enumerate_policies("1vs1"))]
        rows += [_row("rev|inv", 0.0, status="failed"), _row("baseline", 0.5)]
        parsed = []

        def counting_parse(text):
            parsed.append(text)
            return parse_policy(text)

        monkeypatch.setattr(analysis, "parse_policy", counting_parse)
        atoms = [str(a) for a in default_atom_grid()]
        report = effect_size_report(rows, atoms)
        assert sorted(r.atom for r in report) == sorted(atoms)
        assert len(parsed) <= len(rows)


def _topk_fixture(k=25):
    """3 downstream tasks x 30 OOD rows; lp(500,450) appears in every row
    strong enough to reach the top k."""
    rows = []
    for t, downstream in enumerate(["pascal", "physionet2016", "physionet2022"]):
        eval_ds = "physionet2016" if downstream != "physionet2016" else "pascal"
        for i in range(30):
            strong = i < k
            policy = "lp(500,450)|rev" if strong else "noise(u,-0.1,0.1)|inv"
            rows.append(
                _row(policy, 0.9 - 0.001 * i if strong else 0.3 - 0.001 * i,
                     downstream=downstream, eval_dataset=eval_ds, seed=100 * t + i)
            )
    return rows


class TestTopK:
    def test_75_experiments_150_chains(self):
        report = top_k_occurrences(_topk_fixture(), k=25, eval_kind="ood")
        assert report.n_selected == 75
        assert report.n_chains == 150

    def test_double_occurrence_in_one_policy(self):
        rows = [
            _row("lp(500,450)|lp(500,450)", 0.9, seed=i) for i in range(3)
        ] + [
            _row("none|rev", 0.1, seed=10 + i) for i in range(3)
        ]
        report = top_k_occurrences(rows, k=3, eval_kind="ood")
        assert report.counts["lp(500,450)"] == 6  # 2 per selected policy

    def test_everywhere_atom_counts_at_least_75(self):
        report = top_k_occurrences(_topk_fixture(), k=25, eval_kind="ood")
        assert report.counts["lp(500,450)"] >= 75

    def test_counts_sum_to_atoms_across_chains(self):
        report = top_k_occurrences(_topk_fixture(), k=25, eval_kind="ood")
        assert sum(report.counts.values()) == 150  # every chain here has 1 atom

    def test_insufficient_records(self):
        with pytest.raises(DataError):
            top_k_occurrences(_topk_fixture()[:10], k=25, eval_kind="ood")

    def test_unknown_eval_kind(self):
        with pytest.raises(DataError):
            top_k_occurrences(_topk_fixture(), k=25, eval_kind="validation")

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ParameterError, match=f"k must be at least 1, got {k}"):
            top_k_occurrences(_topk_fixture(), k=k, eval_kind="ood")


def test_two_rows_of_one_experiment_count_once_as_the_last(tmp_path):
    """A ledger holding two rows of one experiment (one context and policy,
    two ids, as a sweep directory re-run under another config would) counts
    that experiment once, as its last row, in the best policy, the top-k
    counts and the effect-size pairs."""
    ind = dict(eval_kind="in_distribution", eval_dataset="physionet2022")
    rows = [_row("none|rev", 0.9, **ind), _row("none|inv", 0.7, **ind), _row("none|rev", 0.5, **ind)]
    for seed in (1, 2):
        rows += [_row("rev|inv", 0.9, seed=seed), _row("none|inv", 0.6 + 0.01 * seed, seed=seed),
                 _row("rev|inv", 0.7 + 0.01 * seed, seed=seed)]
    for i, row in enumerate(rows):
        row.experiment_id = f"{i:016x}"
    write_ledger(tmp_path / "ledger.csv", rows)
    rows = read_ledger(tmp_path / "ledger.csv")

    assert select_best(rows) == [rows[1]]
    top = top_k_occurrences(rows, k=4, eval_kind="ood")
    assert (top.n_selected, top.counts) == (4, {"rev": 2, "inv": 4})
    with pytest.raises(DataError, match="has 4 rows, need at least k=5"):
        top_k_occurrences(rows, k=5, eval_kind="ood")
    assert match_paired_experiments(pairing_index(rows), "rev") == ([0.71, 0.72], [0.61, 0.62])
    [effect] = effect_size_report(rows, ["rev"])
    assert (effect.n1, effect.n2, effect.mean1) == (2, 2, pytest.approx(0.715))


class TestEmitReport:
    def test_empty_reports_are_header_only(self, tmp_path):
        paths = emit_report(tmp_path, [], [])
        effect_csv = (tmp_path / "effect_sizes.csv").read_text()
        occ_csv = (tmp_path / "occurrences.csv").read_text()
        assert effect_csv.splitlines() == ["augmentation,d,n1,n2,mean1,mean2,pooled_s,reference_d"]
        assert occ_csv.splitlines() == ["eval_kind,augmentation,count"]
        assert set(paths) == {"effect_sizes", "occurrences", "report"}

    def test_deterministic_bytes(self, tmp_path):
        rows = _topk_fixture()
        effects = effect_size_report(rows, [str(a) for a in default_atom_grid()])
        occ = [top_k_occurrences(rows, k=25, eval_kind="ood")]
        emit_report(tmp_path / "a", effects, occ)
        emit_report(tmp_path / "b", effects, occ)
        for name in ("effect_sizes.csv", "occurrences.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_failed_write_keeps_the_old_report(self, tmp_path, monkeypatch):
        rows = _topk_fixture()
        effects = effect_size_report(rows, [str(a) for a in default_atom_grid()])
        occ = [top_k_occurrences(rows, k=25, eval_kind="ood")]
        emit_report(tmp_path, [], [])
        names = sorted(p.name for p in tmp_path.iterdir())
        old = {name: (tmp_path / name).read_bytes() for name in names}

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            emit_report(tmp_path, effects, occ)
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        assert {name: (tmp_path / name).read_bytes() for name in names} == old

    def test_json_round_trip(self, tmp_path):
        rows = _topk_fixture()
        occ = [top_k_occurrences(rows, k=25, eval_kind="ood")]
        text = report_to_json([], occ)
        parsed = json.loads(text)
        assert json.dumps(parsed, sort_keys=True, indent=1) == text

    def test_reference_table_covers_the_grid(self):
        grid = {str(a) for a in default_atom_grid()}
        assert grid == set(REFERENCE_EFFECT_SIZES)


def _synthetic_ledger(seed=2023):
    """A seeded sweep ledger: the `grid 0vs1` and `grid 1vs1` policies and
    the baseline, 2 SSL sets, 3 seeds, the 3 labeled tasks in-distribution
    and OOD, and about 3% failed experiments. Each atom shifts the metrics
    by its own amount, so effect sizes and top-k counts are not all ties."""
    rng = np.random.default_rng(seed)
    tasks = ["pascal", "physionet2016", "physionet2022"]
    effect = {str(a): rng.normal(0.0, 0.03) for a in default_atom_grid()}
    policies = [str(p) for p in enumerate_policies("0vs1") + enumerate_policies("1vs1")]
    entries = [(ssl_set, policy, s) for ssl_set in (("ephnogram", "fpcgdb"),
                                                    ("ephnogram", "fpcgdb", "pascal"))
               for policy in policies for s in (4, 5, 6)]
    entries += [(("none",), "baseline", s) for s in (4, 5, 6)]
    rows = []
    for ssl_set, policy, s in entries:
        shift = 0.0 if policy == "baseline" else \
            sum(effect[str(a)] for a in parse_policy(policy).atoms())
        for downstream in tasks:
            exp_id = experiment_id("f" * 16, ssl_set, policy, downstream, "binary", s)
            ok = rng.random() >= 0.03
            for eval_dataset in [downstream] + [t for t in tasks if t != downstream]:
                kind = "in_distribution" if eval_dataset == downstream else "ood"
                values = np.clip(0.6 + shift + rng.normal(0.0, 0.05, 3), 0.0, 1.0)
                metrics = dict(zip(METRICS, map(float, values) if ok else (None,) * 3))
                rows.append(LedgerRow(
                    experiment_id=exp_id, ssl_set="+".join(ssl_set), policy=policy,
                    downstream=downstream, task="binary", eval_dataset=eval_dataset,
                    eval_kind=kind, seed=s, checkpoint=f"models/{exp_id}.ckpt" if ok else "",
                    status="ok" if ok else "failed", **metrics))
    return rows


def test_analyze_writes_pinned_bytes_for_every_metric(tmp_path):
    """`analyze` of a synthetic 8,289-row grid ledger writes the same bytes
    for every `--metric`, as the constant records: a change to the ranking,
    the pairing or the report format shows here."""
    ledger = tmp_path / "ledger.csv"
    write_ledger(ledger, _synthetic_ledger())
    digest = hashlib.sha256()
    for metric in cli.ANALYZE_METRICS:
        out = tmp_path / metric
        assert cli.main(["--quiet", "analyze", "--ledger", str(ledger), "--metric", metric,
                         "--out", str(out)]) == 0
        for name in ("effect_sizes.csv", "occurrences.csv", "report.json"):
            digest.update(f"{metric}/{name}\n".encode() + (out / name).read_bytes())
    assert digest.hexdigest() == ANALYZE_DIGEST
