"""Multiclass decisions: micro averaging collapses to the pooled trace,
macro averaging to integer feasibility over confusion matrices. Both are
checked against worked examples, matrix-level brute force, and each
private building block's own contract."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from scoresleuth.aggregate import check_experiment
from scoresleuth.binary import compute_targets
from scoresleuth.errors import (
    ExtraneousAggregationMode,
    FoldTotalsMismatch,
    MissingAggregationMode,
    NonlinearScoreUnsupported,
    SpecError,
    TooManyConfigurations,
    UnsupportedExperiment,
)
from scoresleuth.folds import iter_fold_configurations
from scoresleuth.model import (
    AggregationMode,
    DatasetSpec,
    ExperimentSpec,
    FoldingScheme,
    MulticlassTestset,
    ScoreReport,
    Testset,
    Uncertainty,
    infer_uncertainty,
)
from scoresleuth.multiclass import (
    _fill_offdiagonal,
    _margins_realizable,
    _matrix_rows,
    check_multiclass_dataset,
    check_multiclass_macro,
    check_multiclass_micro,
    micro_affine,
    micro_counts,
    micro_value,
    split_average_prefix,
)
from scoresleuth.oracle import (_compositions, brute_force_macro,
                                generate_true_report)
from scoresleuth.scores import ScoreDefinition, default_registry
from scoresleuth.values import SqrtRational

F = Fraction
MOS = AggregationMode.MEAN_OF_SCORES
SOM = AggregationMode.SCORE_OF_MEANS


def U(k):
    return Uncertainty(F(1, 10 ** k))


def macro_mean(score_id, matrix, class_counts):
    """Recompute a macro average from a witness confusion matrix."""
    registry = default_registry()
    d = registry.get(split_average_prefix(score_id)[1])
    total = sum(class_counts)
    acc = F(0)
    for i, row in enumerate(matrix):
        tp = row[i]
        fp = sum(matrix[r][i] for r in range(len(matrix)) if r != i)
        p = class_counts[i]
        acc += d.value(tp, (total - p) - fp, p, total - p)
    return acc / len(class_counts)


# ----------------------------------------------------------------- micro

def test_micro_worked_example_consistent():
    ts = MulticlassTestset((3, 3, 3))
    scores = ScoreReport.of(**{"micro-sens": "0.6667", "micro-spec": "0.8333"})
    res = check_multiclass_micro(ts, scores, U(4))
    assert not res.inconsistency
    assert res.witness["trace"] == 6
    assert res.witness["pooled"] == {"tp": 6, "fn": 3, "fp": 3, "tn": 15}


def test_micro_worked_example_inconsistent():
    # trace/9 never lands within 1e-4 of 0.5
    ts = MulticlassTestset((3, 3, 3))
    res = check_multiclass_micro(ts, ScoreReport.of(**{"micro-sens": "0.5"}), U(4))
    assert res.inconsistency
    assert res.evidence["trace_range"] == [0, 9]


def test_micro_perfect_accuracy_forces_full_trace():
    ts = MulticlassTestset((3, 3, 3))
    res = check_multiclass_micro(ts, ScoreReport.of(**{"micro-acc": "1.0"}), U(4))
    assert not res.inconsistency
    assert res.witness["trace"] == 9


def test_micro_pooled_counts_are_coherent():
    # Pooled one-vs-rest counts always satisfy fp == fn and the totals.
    for total, c in [(5, 2), (7, 3), (4, 4)]:
        for trace in range(total + 1):
            pooled = micro_counts(trace, total, c)
            assert pooled["fp"] == pooled["fn"] == total - trace
            assert pooled["tp"] + pooled["fn"] == total
            assert pooled["fp"] + pooled["tn"] == total * (c - 1)


def test_micro_matches_matrix_level_brute_force():
    rng = random.Random(4242)
    ids = ["micro-acc", "micro-sens", "micro-spec", "micro-f1", "micro-jac",
           "micro-mcc", "micro-ppv"]
    for _ in range(60):
        c = rng.randint(2, 3)
        counts = [rng.randint(0, 3) for _ in range(c)]
        if sum(counts) == 0:
            counts[0] = 1
        ts = MulticlassTestset(counts)
        scores = ScoreReport.of(
            **{rng.choice(ids): f"0.{rng.randint(0, 99):02d}"})
        res = check_multiclass_micro(ts, scores, U(2))
        oracle = brute_force_macro(ts, scores, U(2))
        assert res.inconsistency == oracle.inconsistency, (counts, scores)


def _first_micro_trace(registry, targets, total, num_classes):
    """The first trace whose micro_value() lies in every target, or None."""
    for trace in range(total + 1):
        values = [micro_value(registry.get(rid[len("micro-"):]), trace, total,
                              num_classes) for rid in targets]
        if all(v is not None and target.contains(v)
               for v, target in zip(values, targets.values())):
            return trace
    return None


def test_micro_scan_matches_value_reference():
    """The micro scan, which tests membership on integer counts, finds the
    same first trace as micro_value() plus exact interval membership, on
    random reports over all 22 shipped scores."""
    rng = random.Random(77)
    registry = default_registry()
    base_ids = registry.ids()
    outcomes = set()
    for _ in range(300):
        c = rng.randint(2, 5)
        counts = [rng.randint(0, 9) for _ in range(c)]
        if sum(counts) == 0:
            counts[0] = 1
        ts = MulticlassTestset(counts)
        total = ts.size
        chosen = rng.sample(base_ids, rng.randint(1, 3))
        entries = {}
        for sid in chosen:
            value = micro_value(registry.get(sid), rng.randint(0, total), total, c)
            guess = float(value) if value is not None else rng.random()
            entries[f"micro-{sid}"] = f"{guess + rng.choice((0, 0.01, -0.02)):.2f}"
        scores = ScoreReport.of(**entries)
        targets, violation = compute_targets(
            scores, U(2), {rid: registry.get(rid[len("micro-"):]) for rid in entries})
        res = check_multiclass_micro(ts, scores, U(2))
        if violation is not None:
            assert res.inconsistency
            continue
        expected = _first_micro_trace(registry, targets, total, c)
        outcomes.add(expected is None)
        if expected is None:
            assert res.inconsistency, (counts, entries)
        else:
            assert not res.inconsistency and res.witness["trace"] == expected, (
                counts, entries)
    assert outcomes == {True, False}


# -------------------------------------------- micro scores as trace affines

def expected_nonaffine(score_id, num_classes, total=2):
    """Whether micro_affine refuses a registry score. On a single-sample
    fold the two traces lie on a line whenever both values are rational;
    plr is undefined at one of them, and so is nlr when C = 2."""
    if total == 1:
        return score_id == "plr" or (score_id == "nlr" and num_classes == 2)
    if score_id in ("jac", "plr", "nlr"):
        return True
    return score_id == "gm" and num_classes > 2


def test_micro_affine_forms_are_exact():
    """micro_affine against brute force at every trace: a line must give
    every value, and a refusal must come from an undefined or irrational
    value or from values off one line."""
    registry = default_registry()
    for score_id in registry.ids():
        definition = registry.get(score_id)
        for total in range(1, 9):
            for c in (2, 3, 4):
                case = (score_id, total, c)
                values = [micro_value(definition, t, total, c)
                          for t in range(total + 1)]
                ab = micro_affine(definition, total, c)
                assert (ab is None) == expected_nonaffine(score_id, c, total), case
                if ab is None:
                    assert (not all(isinstance(v, F) for v in values)
                            or len({values[t + 1] - values[t]
                                    for t in range(total)}) > 1), case
                    continue
                a, b = ab
                for t, v in enumerate(values):
                    assert v == a * t + b, (case, t)


def test_micro_nonaffine_values_really_are_nonaffine():
    # With at least three sample points, no affine function can thread the
    # values that micro_affine refused.
    registry = default_registry()
    for score_id in ("jac", "plr", "nlr", "gm"):
        definition = registry.get(score_id)
        for total, c in [(4, 2), (5, 3), (6, 4)]:
            if not expected_nonaffine(score_id, c):
                continue
            values = [micro_value(definition, t, total, c)
                      for t in range(total + 1)]
            if any(v is None for v in values):
                continue
            if any(isinstance(v, SqrtRational) for v in values):
                continue  # irrational at some trace: certainly not affine
            diffs = {values[t + 1] - values[t] for t in range(total)}
            assert len(diffs) > 1, (score_id, total, c)


# ----------------------------------------------------------------- macro

def test_macro_worked_example_consistent():
    ts = MulticlassTestset((2, 2))
    res = check_multiclass_macro(ts, ScoreReport.of(**{"macro-sens": "0.75"}), U(2))
    assert not res.inconsistency
    matrix = res.witness["matrix"]
    assert [sum(row) for row in matrix] == [2, 2]
    assert abs(macro_mean("macro-sens", matrix, (2, 2)) - F(3, 4)) <= F(1, 100)


def test_macro_worked_example_inconsistent():
    # Class sensitivities are halves, so their mean is a quarter-multiple.
    ts = MulticlassTestset((2, 2))
    res = check_multiclass_macro(ts, ScoreReport.of(**{"macro-sens": "0.30"}), U(2))
    assert res.inconsistency
    assert res.witness is None


def test_macro_perfect_sensitivity_is_diagonal():
    ts = MulticlassTestset((3, 3, 3))
    res = check_multiclass_macro(ts, ScoreReport.of(**{"macro-sens": "1.0"}), U(4))
    assert not res.inconsistency
    matrix = res.witness["matrix"]
    assert all(matrix[i][i] == 3 for i in range(3))
    assert sum(sum(row) for row in matrix) == 9


def test_macro_refuses_nonaffine_base_scores():
    ts = MulticlassTestset((2, 2))
    with pytest.raises(NonlinearScoreUnsupported):
        check_multiclass_macro(ts, ScoreReport.of(**{"macro-f1": "0.5"}), U(2))


def test_macro_matches_matrix_level_brute_force():
    rng = random.Random(77)
    ids = ["macro-acc", "macro-sens", "macro-spec", "macro-bacc",
           "macro-youden"]
    for _ in range(80):
        c = rng.randint(2, 3)
        counts = [rng.randint(1, 3) for _ in range(c)]
        ts = MulticlassTestset(counts)
        scores = ScoreReport.of(
            **{rng.choice(ids): f"0.{rng.randint(0, 99):02d}"})
        res = check_multiclass_macro(ts, scores, U(2))
        oracle = brute_force_macro(ts, scores, U(2))
        assert res.inconsistency == oracle.inconsistency, (counts, scores)
        if not res.inconsistency:
            got = macro_mean(scores.ids[0], res.witness["matrix"], tuple(counts))
            assert abs(got - scores.value(scores.ids[0])) <= F(1, 100)

    # Multi-score reports: 1-3 of the 8 affine macro ids, C = 2-4, classes
    # that may have no samples, and every other report true by
    # construction, since few random multi-score reports are consistent.
    affine = [f"macro-{i}" for i in ("acc", "err", "sens", "spec", "fpr",
                                     "fnr", "bacc", "youden")]
    verdicts = set()
    for case in range(300):
        c = rng.randint(2, 4)
        while True:
            counts = [rng.randint(0, 2 if c == 4 else 3) for _ in range(c)]
            if sum(counts):
                break
        ts = MulticlassTestset(counts)
        size = rng.randint(1, 3)
        truthful = case % 2 == 0
        if truthful:
            while True:
                _, report = generate_true_report(
                    ExperimentSpec.single(ts), rng.getrandbits(64), 2)
                if report.ids[0].startswith("macro-"):
                    break
            scores = ScoreReport({i: report.text(i)
                                  for i in report.ids[:size]})
        else:
            scores = ScoreReport({i: f"0.{rng.randint(0, 99):02d}"
                                  for i in rng.sample(affine, size)})
        uncertainty = infer_uncertainty(scores)
        res = check_multiclass_macro(ts, scores, uncertainty)
        oracle = brute_force_macro(ts, scores, uncertainty)
        assert res.inconsistency == oracle.inconsistency, (counts, scores)
        assert not (truthful and res.inconsistency), (counts, scores)
        verdicts.add(res.inconsistency)
        if not res.inconsistency:
            for rid in scores.ids:
                got = macro_mean(rid, res.witness["matrix"], tuple(counts))
                assert abs(got - scores.value(rid)) <= \
                    uncertainty.radius_for(rid), (counts, scores, rid)
    assert verdicts == {True, False}


def test_macro_empty_class_excludes_sensitivity_means():
    # A class with no samples leaves its sensitivity undefined on every
    # matrix, so no finite macro mean could have been reported.
    ts = MulticlassTestset((2, 0))
    res = check_multiclass_macro(ts, ScoreReport.of(**{"macro-sens": "0.5"}), U(2))
    oracle = brute_force_macro(ts, ScoreReport.of(**{"macro-sens": "0.5"}), U(2))
    assert res.inconsistency and oracle.inconsistency
    assert res.evidence["score"] == "macro-sens"
    assert (res.evidence["fold"], res.evidence["class"]) == (0, 1)
    # With known folds, the evidence names the fold that lacks the class.
    folds = FoldingScheme.known([MulticlassTestset((1, 1, 1)),
                                 MulticlassTestset((1, 1, 0))])
    res = check_multiclass_dataset(MulticlassTestset((2, 2, 1)), folds, MOS,
                                   ScoreReport.of(**{"macro-sens": "0.5"}),
                                   U(2))
    assert res.inconsistency
    assert res.evidence["score"] == "macro-sens"
    assert (res.evidence["fold"], res.evidence["class"]) == (1, 2)


# ----------------------------------------------- off-diagonal margin fills

def brute_margin_exists(supply, demand):
    size = len(supply)
    cells = [(r, c) for r in range(size) for c in range(size) if r != c]
    def rec(idx, supply, demand):
        if idx == len(cells):
            return not any(supply) and not any(demand)
        r, c = cells[idx]
        for v in range(min(supply[r], demand[c]) + 1):
            supply[r] -= v
            demand[c] -= v
            if rec(idx + 1, supply, demand):
                return True
            supply[r] += v
            demand[c] += v
        return False
    return rec(0, list(supply), list(demand))


def test_margin_characterization_is_exact():
    for supply in itertools.product(range(4), repeat=3):
        for demand in itertools.product(range(4), repeat=3):
            if sum(supply) != sum(demand):
                continue
            predicted = _margins_realizable(supply, demand, sum(supply))
            assert predicted == brute_margin_exists(supply, demand), \
                (supply, demand)
            if predicted:
                fill = _fill_offdiagonal(supply, demand)
                assert all(fill[i][i] == 0 for i in range(3))
                assert [sum(row) for row in fill] == list(supply)
                assert [sum(col) for col in zip(*fill)] == list(demand)


def _row_holds(row, value):
    """Does an integer row over keyed counts hold at `value` (key -> int)?"""
    terms, lo, hi = row
    total = sum(a * value[key] for key, a in terms)
    return (lo is None or lo <= total) and (hi is None or total <= hi)


def test_matrix_rows_hold_iff_a_confusion_matrix_has_the_views():
    """Lemma of _matrix_rows, checked exhaustively on one fold with C <= 3
    classes of at most 3 samples: integer (tp_i, fp_i) in their domains
    satisfy the balance and margin rows, evaluated over their (fold,
    class, count) keys, iff some confusion matrix with row sums c has
    those one-vs-rest views, and where they hold,
    _fill_offdiagonal rebuilds such a matrix."""
    checked = held = 0
    for c in (2, 3):
        for counts in itertools.product(range(4), repeat=c):
            total = sum(counts)
            views = set()
            for m in itertools.product(*(_compositions(ci, c)
                                         for ci in counts)):
                views.add(tuple((m[i][i], sum(m[r][i] for r in range(c)) - m[i][i])
                                for i in range(c)))
            rows = _matrix_rows([counts])
            domains = [range(ci + 1) for ci in counts] + \
                      [range(total - ci + 1) for ci in counts]
            for point in itertools.product(*domains):
                tps, fps = point[:c], point[c:]
                value = {**{(0, i, "tp"): tp for i, tp in enumerate(tps)},
                         **{(0, i, "fp"): fp for i, fp in enumerate(fps)}}
                holds = all(_row_holds(row, value) for row in rows)
                assert holds == (tuple(zip(tps, fps)) in views), \
                    (counts, tps, fps)
                checked += 1
                if holds:
                    held += 1
                    matrix = _fill_offdiagonal(
                        [ci - tp for ci, tp in zip(counts, tps)], fps)
                    for i, tp in enumerate(tps):
                        matrix[i][i] = tp
                    assert [sum(r) for r in matrix] == list(counts)
                    assert all(matrix[i][i] == tps[i] and
                               sum(col) - tps[i] == fps[i]
                               for i, col in enumerate(zip(*matrix)))
    assert held and checked > held



# ------------------------------------------------------- folded multiclass

def test_som_folding_pools_to_parent_testset():
    ts = MulticlassTestset((3, 3, 3))
    scores = ScoreReport.of(**{"micro-sens": "0.6667"})
    folded = check_multiclass_dataset(ts, FoldingScheme.stratified(3), SOM,
                                      scores, U(4))
    plain = check_multiclass_micro(ts, scores, U(4))
    assert folded.inconsistency == plain.inconsistency
    assert folded.witness == plain.witness
    assert folded.evidence["pooled_class_counts"] == [3, 3, 3]


def test_micro_mos_known_folds_worked_example():
    ts = MulticlassTestset((2, 2))
    folds = FoldingScheme.known([MulticlassTestset((1, 1)),
                                 MulticlassTestset((1, 1))])
    res = check_multiclass_dataset(ts, folds, MOS,
                                   ScoreReport.of(**{"micro-acc": "0.5"}), U(2))
    assert not res.inconsistency
    traces = [f["trace"] for f in res.witness["folds"]]
    totals = [f["total"] for f in res.witness["folds"]]
    got = sum(F(t, n) for t, n in zip(traces, totals)) / len(traces)
    assert abs(got - F(1, 2)) <= F(1, 100)


def test_macro_mos_known_folds_quarter_grid():
    ts = MulticlassTestset((2, 2))
    folds = FoldingScheme.known([MulticlassTestset((1, 1)),
                                 MulticlassTestset((1, 1))])
    good = check_multiclass_dataset(ts, folds, MOS,
                                    ScoreReport.of(**{"macro-sens": "0.75"}), U(2))
    assert not good.inconsistency
    for fold in good.witness["folds"]:
        assert [sum(row) for row in fold["matrix"]] == fold["class_counts"]
    bad = check_multiclass_dataset(ts, folds, MOS,
                                   ScoreReport.of(**{"macro-sens": "0.30"}), U(2))
    assert bad.inconsistency


def micro_mean_feasible(folds, rid, value):
    """Trace-product oracle: do some per-fold traces put the fold mean of
    the micro score within 0.01 of `value`?"""
    d = default_registry().get(split_average_prefix(rid)[1])
    c = folds[0].num_classes
    lo, hi = F(value) - F(1, 100), F(value) + F(1, 100)
    return any(
        lo <= sum(micro_value(d, t, f.size, c)
                  for t, f in zip(traces, folds)) / len(folds) <= hi
        for traces in itertools.product(*(range(f.size + 1) for f in folds)))


def macro_sens_mean_feasible(folds, value):
    """Matrix-product oracle for macro-sens: do some per-fold confusion
    diagonals put the fold mean within 0.01 of `value`? A fold with an
    empty class has no finite macro-sens, so it admits nothing."""
    def fold_values(fold):
        if 0 in fold.class_counts:
            return set()
        rows = [range(c + 1) for c in fold.class_counts]
        return {sum(F(t, c) for t, c in zip(diag, fold.class_counts))
                / len(fold.class_counts)
                for diag in itertools.product(*rows)}

    lo, hi = F(value) - F(1, 100), F(value) + F(1, 100)
    return any(lo <= sum(combo) / len(folds) <= hi
               for combo in itertools.product(*map(fold_values, folds)))


def test_micro_mos_agrees_with_trace_product_oracle():
    rng = random.Random(555)
    ids = ["micro-acc", "micro-sens", "micro-f1", "micro-mcc", "micro-fm",
           "micro-kappa"]
    for _ in range(40):
        c = rng.randint(2, 3)
        folds = []
        for _ in range(rng.randint(2, 3)):
            counts = [rng.randint(0, 2) for _ in range(c)]
            if sum(counts) == 0:
                counts[rng.randrange(c)] = 1
            folds.append(MulticlassTestset(counts))
        totals = [sum(x) for x in zip(*(f.class_counts for f in folds))]
        ts = MulticlassTestset(totals)
        rid = rng.choice(ids)
        value = f"0.{rng.randint(0, 99):02d}"
        res = check_multiclass_dataset(ts, FoldingScheme.known(folds), MOS,
                                       ScoreReport.of(**{rid: value}), U(2))
        feasible = micro_mean_feasible(folds, rid, value)
        assert res.inconsistency == (not feasible), (folds, rid, value)


def test_single_sample_folds_decide_micro_jac_means():
    """A single-sample fold has two traces, and their jac values 0 and 1
    lie on a line, so a fold mean of micro-jac over such folds is decided
    rather than refused, and agrees with the trace-product oracle. Unknown
    folds with k equal to the testset size have only single-sample
    layouts."""
    rng = random.Random(2718)
    verdicts = set()
    for _ in range(40):
        c = rng.randint(2, 4)
        k = rng.randint(2, 5)
        folds = []
        for _ in range(k):
            counts = [0] * c
            counts[rng.randrange(c)] = 1
            folds.append(MulticlassTestset(counts))
        ts = MulticlassTestset([sum(x) for x in zip(*(f.class_counts
                                                        for f in folds))])
        value = rng.choice([f"{j / k:.2f}" for j in range(k + 1)]
                           + [f"0.{rng.randint(0, 99):02d}"])
        scores = ScoreReport.of(**{"micro-jac": value})
        feasible = micro_mean_feasible(folds, "micro-jac", value)
        for scheme in (FoldingScheme.known(folds), FoldingScheme.unknown(k)):
            res = check_multiclass_dataset(ts, scheme, MOS, scores, U(2))
            assert res.inconsistency == (not feasible), (folds, value)
            verdicts.add(res.inconsistency)
    assert verdicts == {True, False}


def test_macro_mos_agrees_with_matrix_product_oracle():
    rng = random.Random(808)
    for _ in range(25):
        folds = [MulticlassTestset((rng.randint(1, 2), rng.randint(1, 2)))
                 for _ in range(2)]
        totals = [sum(x) for x in zip(*(f.class_counts for f in folds))]
        ts = MulticlassTestset(totals)
        value = f"0.{rng.randint(0, 99):02d}"
        res = check_multiclass_dataset(
            ts, FoldingScheme.known(folds), MOS,
            ScoreReport.of(**{"macro-sens": value}), U(2))
        feasible = macro_sens_mean_feasible(folds, value)
        assert res.inconsistency == (not feasible), (folds, value)


def test_unknown_folds_micro_mos_matches_the_or_of_trace_oracles():
    rng = random.Random(1729)
    ids = ["micro-acc", "micro-sens", "micro-f1", "micro-mcc", "micro-fm",
           "micro-kappa"]
    start = time.perf_counter()
    verdicts = set()
    for _ in range(300):
        c = rng.randint(2, 3)
        k = rng.randint(2, 3)
        counts = [rng.randint(0, 3) for _ in range(c)]
        counts[0] += max(0, k - sum(counts))
        rid = rng.choice(ids)
        value = f"0.{rng.randint(0, 99):02d}"
        res = check_multiclass_dataset(
            MulticlassTestset(counts), FoldingScheme.unknown(k), MOS,
            ScoreReport.of(**{rid: value}), U(2))
        feasible = {layout for layout in iter_fold_configurations(counts, k)
                    if micro_mean_feasible(
                        [MulticlassTestset(v) for v in layout], rid, value)}
        assert res.inconsistency == (not feasible), (counts, k, rid, value)
        verdicts.add(res.inconsistency)
        if not res.inconsistency:
            layout = tuple(tuple(v) for v in res.witness["configuration"])
            assert layout in feasible
            d = default_registry().get(split_average_prefix(rid)[1])
            mean = sum(micro_value(d, f["trace"], f["total"], c)
                       for f in res.witness["folds"]) / k
            assert [f["total"] for f in res.witness["folds"]] == \
                [sum(v) for v in layout]
            assert abs(mean - F(value)) <= F(1, 100)
    assert verdicts == {True, False}
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(f"unknown micro folds: 300 instances agree with the oracle OR, "
          f"{elapsed:.1f}s")


def test_unknown_folds_macro_mos_matches_the_or_of_matrix_oracles():
    rng = random.Random(1913)
    start = time.perf_counter()
    verdicts = set()
    for _ in range(200):
        k = rng.randint(2, 3)
        counts = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
        counts[0] += max(0, k - sum(counts))
        value = f"0.{rng.randint(0, 99):02d}"
        res = check_multiclass_dataset(
            MulticlassTestset(counts), FoldingScheme.unknown(k), MOS,
            ScoreReport.of(**{"macro-sens": value}), U(2))
        feasible = {layout for layout in iter_fold_configurations(counts, k)
                    if macro_sens_mean_feasible(
                        [MulticlassTestset(v) for v in layout], value)}
        assert res.inconsistency == (not feasible), (counts, k, value)
        verdicts.add(res.inconsistency)
        if not res.inconsistency:
            layout = tuple(tuple(v) for v in res.witness["configuration"])
            assert layout in feasible
            mean = sum(macro_mean("macro-sens", f["matrix"], f["class_counts"])
                       for f in res.witness["folds"]) / k
            assert abs(mean - F(value)) <= F(1, 100)
    assert verdicts == {True, False}
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(f"unknown macro folds: 200 instances agree with the oracle OR, "
          f"{elapsed:.1f}s")


def test_unknown_folds_micro_mos_smoke():
    ts = MulticlassTestset((2, 2))
    res = check_multiclass_dataset(ts, FoldingScheme.unknown(2), MOS,
                                   ScoreReport.of(**{"micro-acc": "0.5"}), U(2))
    assert not res.inconsistency
    assert "configuration" in res.witness
    assert res.evidence["configurations_tried"] >= 1


def test_micro_lines_are_memoized_across_requests(monkeypatch):
    """micro_affine is memoized per (definition, fold size, classes), so
    a second identical micro fold-mean request checks no trace again."""
    calls = []
    compare = ScoreDefinition.compare

    def counted(self, *args):
        calls.append(args)
        return compare(self, *args)

    monkeypatch.setattr(ScoreDefinition, "compare", counted)
    micro_affine.cache_clear()
    ts = MulticlassTestset((5, 6, 4))
    report = ScoreReport.of(**{"micro-acc": "0.47", "micro-f1": "0.47"})
    first = check_multiclass_dataset(ts, FoldingScheme.stratified(3), MOS,
                                     report, U(2))
    assert calls
    calls.clear()
    second = check_multiclass_dataset(ts, FoldingScheme.stratified(3), MOS,
                                      report, U(2))
    assert calls == [] and second == first


def test_unknown_folds_cap():
    ts = MulticlassTestset((6, 6))
    with pytest.raises(TooManyConfigurations):
        check_multiclass_dataset(ts, FoldingScheme.unknown(3), MOS,
                                 ScoreReport.of(**{"micro-acc": "0.1234"}),
                                 Uncertainty(F(0)), cap=2)


def test_folded_dataset_needs_an_aggregation_mode():
    with pytest.raises(MissingAggregationMode):
        check_multiclass_dataset(MulticlassTestset((4, 4)),
                                 FoldingScheme.stratified(2), None,
                                 ScoreReport.of(**{"micro-acc": "0.5"}), U(2))


def test_unfolded_dataset_refuses_an_aggregation_mode():
    for folding in (None, FoldingScheme.none()):
        with pytest.raises(ExtraneousAggregationMode):
            check_multiclass_dataset(MulticlassTestset((4, 4)), folding, MOS,
                                     ScoreReport.of(**{"micro-acc": "0.5"}),
                                     U(2))


def test_mos_refuses_nonaffine_micro_scores():
    ts = MulticlassTestset((2, 2))
    folds = FoldingScheme.known([MulticlassTestset((1, 1)),
                                 MulticlassTestset((1, 1))])
    with pytest.raises(NonlinearScoreUnsupported):
        check_multiclass_dataset(ts, folds, MOS,
                                 ScoreReport.of(**{"micro-jac": "0.5"}), U(2))


def test_known_folds_must_match_parent_totals():
    ts = MulticlassTestset((2, 2))
    folds = FoldingScheme.known([MulticlassTestset((1, 1)),
                                 MulticlassTestset((1, 2))])
    with pytest.raises(FoldTotalsMismatch):
        check_multiclass_dataset(ts, folds, MOS,
                                 ScoreReport.of(**{"micro-acc": "0.5"}), U(2))


# ------------------------------------------------------------- id hygiene

def test_bare_score_ids_are_refused():
    ts = MulticlassTestset((2, 2))
    with pytest.raises(UnsupportedExperiment):
        check_multiclass_dataset(ts, None, None, ScoreReport.of(acc="0.5"), U(2))


def test_binary_testset_is_refused_with_a_spec_error():
    for rid in ("micro-acc", "macro-acc"):
        for folding, mode in [(None, None), (FoldingScheme.unknown(2), MOS)]:
            with pytest.raises(SpecError, match="got Testset"):
                check_multiclass_dataset(Testset(5, 5), folding, mode,
                                         ScoreReport.of(**{rid: "0.5"}), U(2))


def test_mixed_families_are_refused():
    ts = MulticlassTestset((2, 2))
    scores = ScoreReport.of(**{"micro-acc": "0.5", "macro-acc": "0.5"})
    with pytest.raises(UnsupportedExperiment):
        check_multiclass_dataset(ts, None, None, scores, U(2))


def test_multiclass_beside_other_datasets_is_refused():
    spec = ExperimentSpec(
        (DatasetSpec(MulticlassTestset((2, 2))), DatasetSpec(Testset(2, 2))),
        dataset_aggregation=MOS)
    with pytest.raises(UnsupportedExperiment):
        check_experiment(spec, ScoreReport.of(**{"micro-acc": "0.5"}), U(2))


def test_experiment_dispatch_reaches_multiclass():
    spec = ExperimentSpec.single(MulticlassTestset((3, 3, 3)))
    res = check_experiment(spec, ScoreReport.of(**{"micro-sens": "0.6667"}), U(4))
    assert not res.inconsistency
    assert res.procedure == "multiclass_micro"
    assert res.witness["trace"] == 6
