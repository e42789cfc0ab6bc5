"""Multiclass decisions: micro averaging collapses to the pooled trace,
macro averaging to integer feasibility over confusion matrices. Both are
checked against worked examples, matrix-level brute force, and each
private building block's own contract."""

import itertools
import math
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
from scoresleuth.folds import iter_fold_configurations, stratified_split_counts
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
from scoresleuth import multiclass
from scoresleuth.multiclass import (
    _fill_offdiagonal,
    _margins_realizable,
    _matrix_rows,
    _pooled_args,
    _solve_macro,
    _trace_score,
    check_multiclass_dataset,
    check_multiclass_macro,
    check_multiclass_micro,
    micro_affine,
    micro_counts,
    micro_value,
    split_average_prefix,
)
from scoresleuth.oracle import (_compositions, brute_force_macro,
                                generate_true_report, render_decimal)
from scoresleuth.intervals import RationalInterval
from scoresleuth.scores import (ScoreDefinition, ScoreRegistry,
                                default_registry, fbeta_definition,
                                target_ends)
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


def _micro_reports(rng):
    """(class counts, {micro id: reported value}) of random reports: small
    testsets over all 22 shipped scores, testsets of a few hundred samples,
    C = 2 reports of plr and nlr beside acc, where the search meets the
    ends at which they are undefined (plr at t = N, nlr at t = 0) and the
    values next to them, and reports of plr or nlr beside any score over
    2-5 classes and up to 400 samples, whose widened corners make the scan
    verify the traces between a run and an end."""
    base_ids = default_registry().ids()
    for _ in range(300):
        c = rng.randint(2, 5)
        counts = [rng.randint(0, 9) for _ in range(c)]
        yield counts, rng.sample(base_ids, rng.randint(1, 3)), None
    for _ in range(40):
        c = rng.randint(2, 5)
        counts = [rng.randint(0, 300 // c) for _ in range(c)]
        yield counts, rng.sample(base_ids, rng.randint(1, 3)), None
    for _ in range(60):
        counts = [rng.randint(0, 150), rng.randint(0, 150)]
        total = max(sum(counts), 1)
        ids = [rng.choice(("plr", "nlr"))] + rng.sample(["acc", "sens"], 1)
        yield counts, ids, rng.choice((0, 1, total - 1, total))
    for _ in range(60):
        c = rng.randint(2, 5)
        counts = [rng.randint(0, 400 // c) for _ in range(c)]
        total = max(sum(counts), 1)
        ids = [rng.choice(("plr", "nlr"))] + rng.sample(base_ids, 1)
        yield counts, ids, rng.choice((None, 1, total // 2, total - 1))


def test_micro_scan_matches_value_reference():
    """The single-testset engine over the trace, which tests membership
    on integer counts, finds the same first trace as a walk over every
    trace with micro_value() and exact interval membership."""
    rng = random.Random(77)
    registry = default_registry()
    outcomes = set()
    for counts, chosen, trace in _micro_reports(rng):
        c = len(counts)
        if sum(counts) == 0:
            counts[0] = 1
        ts = MulticlassTestset(counts)
        total = ts.size
        entries = {}
        for sid in chosen:
            at = rng.randint(0, total) if trace is None else trace
            value = micro_value(registry.get(sid), at, total, c)
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


def test_micro_falling_searched_score_matches_value_reference():
    """1 - mk falls along the trace, where it is searched, not taken in
    closed form, so the engine finds its run only with the direction that
    _trace_score hands to invert(); every shipped score that is searched
    along the trace rises. The first trace equals the walk's."""
    mk = default_registry().get("mk")
    falling = ScoreDefinition("fall", "one minus mk", ["-", 1, mk.formula],
                              RationalInterval(F(0), F(2)), -1, -1)
    registry = ScoreRegistry([falling])
    rng = random.Random(5)
    outcomes = set()
    for _ in range(200):
        counts = [rng.randint(1, 60) for _ in range(rng.randint(2, 5))]
        ts = MulticlassTestset(counts)
        total, c = ts.size, len(counts)
        value = micro_value(falling, rng.randint(0, total), total, c)
        reported = float(value) + rng.choice((0, 0.01))
        scores = ScoreReport.of(**{"micro-fall": f"{reported:.2f}"})
        targets, _ = compute_targets(scores, U(2), {"micro-fall": falling})
        expected = _first_micro_trace(registry, targets, total, c)
        res = check_multiclass_micro(ts, scores, U(2), registry)
        outcomes.add(expected is None)
        assert res.inconsistency == (expected is None), (counts, value)
        if expected is not None:
            assert res.witness["trace"] == expected, (counts, value)
    assert outcomes == {True, False}


def test_micro_search_makes_logarithmically_many_comparisons(monkeypatch):
    """At N = 10**6 a micro report is decided with about 2*log2(N) compare()
    calls per score, where a walk over the trace would make hundreds of
    thousands: micro-sens 0.8123 is the value at trace 812300."""
    calls = []
    compare = ScoreDefinition.compare

    def counted(self, *args):
        calls.append(args)
        return compare(self, *args)

    monkeypatch.setattr(ScoreDefinition, "compare", counted)
    ts = MulticlassTestset((400000, 350000, 250000))
    consistent = check_multiclass_micro(
        ts, ScoreReport.of(**{"micro-sens": "0.8123"}), U(4))
    assert not consistent.inconsistency
    assert len(calls) <= 100, len(calls)
    calls.clear()
    # the values at trace 812345, with acc shifted by 3 last-digit units
    inconsistent = check_multiclass_micro(ts, ScoreReport.of(**{
        "micro-acc": "0.8752", "micro-f1": "0.8123", "micro-mcc": "0.7185"}),
        U(4))
    assert inconsistent.inconsistency
    assert len(calls) <= 100, len(calls)


def test_micro_refuses_conflicting_directions():
    """A score that rises in tp but falls in tn has no known course along
    the trace, where both rise, so its micro average is refused."""
    odd = ScoreDefinition("odd", "tp rate minus tn rate",
                          ["-", ["/", "tp", "p"], ["/", "tn", "n"]],
                          RationalInterval(F(-1), F(1)), 1, -1)
    registry = ScoreRegistry([odd])
    with pytest.raises(UnsupportedExperiment, match="'micro-odd'"):
        check_multiclass_micro(MulticlassTestset((3, 3)),
                               ScoreReport.of(**{"micro-odd": "0.0"}), U(2),
                               registry)


#: ppv and gm written with negated terms, whose compiled denominators
#: (and radicand parts) are negative.
NEGATED = [
    ScoreDefinition("neg-ppv", "negated ppv",
                    ["/", ["neg", "tp"], ["neg", ["+", "tp", "fp"]]],
                    RationalInterval(F(0), F(1)), 1, 1),
    ScoreDefinition("neg-gm", "negated gm",
                    ["sqrt", ["/", ["neg", ["*", "tp", "tn"]],
                              ["neg", ["*", "p", "n"]]]],
                    RationalInterval(F(0), F(1)), 1, 1)]


def test_trace_score_compiles_to_the_pooled_integers():
    """At (t, 0, N, 0) the trace score's compiled function returns the
    integers of the original at the pooled counts, for every registry
    score, F-beta at random rational betas and formulas with negated
    terms, over C = 2..6, N = 1..15 and every trace; it keeps the id,
    name and range, and is constant in tn."""
    rng = random.Random(23)
    definitions = (default_registry().definitions() + NEGATED
                   + [fbeta_definition(F(rng.randint(1, 12), rng.randint(1, 12)))
                      for _ in range(4)])
    for definition in definitions:
        for c in range(2, 7):
            derived = _trace_score(definition, c)
            assert (derived.score_id, derived.name, derived.range,
                    derived.mono_tn) == (definition.score_id, definition.name,
                                         definition.range, 0)
            for total in range(1, 16):
                for t in range(total + 1):
                    assert derived._fn(t, 0, total, 0) == definition._fn(
                        *_pooled_args(t, total, c)), (definition, c, total, t)


#: The scores whose inversions along the trace are searched; every other
#: shipped score is inverted there in closed form.
TRACE_SEARCHED = {"fm", "gm", "mk", "mcc", "kappa"}


@pytest.mark.parametrize("c", [2, 3, 5])
def test_trace_closed_form_scores_are_pinned(monkeypatch, c):
    """A trace score's inversion over a trace of 1000 calls compare() at
    most 4 times (the two ends) when it is in closed form, and more often
    when it is searched."""
    calls = []
    compare = ScoreDefinition.compare

    def counted(self, *args):
        calls.append(args)
        return compare(self, *args)
    monkeypatch.setattr(ScoreDefinition, "compare", counted)
    searched = set()
    for definition in default_registry().definitions():
        derived = _trace_score(definition, c)
        value = derived.value(400, 0, 1000, 0)
        mid = round(float(value) * 1000)
        target = RationalInterval.closed(F(mid - 2, 1000), F(mid + 2, 1000))
        calls.clear()
        derived.invert(target_ends(target), (0, 0), 1000, 0, "tp")
        if len(calls) > 4:
            searched.add(definition.score_id)
    assert searched == TRACE_SEARCHED


def test_micro_plr_widened_corner_example_is_pinned(monkeypatch):
    """micro-plr 0.22 with micro-acc 0.93 over three classes of 10**4.
    plr = 2t/(N - t) needs t near N/10 and acc = (N + 2t)/(3N) near 0.9 N,
    so the report is inconsistent. plr is undefined at t = N, and the
    widened corner there keeps its box open up to N, so the prune leaves
    acc's run and the scan verifies each of its 901 traces."""
    verified = []
    within = ScoreDefinition.within

    def counted(self, target, tp, *args):
        verified.append(tp)
        return within(self, target, tp, *args)
    monkeypatch.setattr(ScoreDefinition, "within", counted)
    report = ScoreReport.of(**{"micro-plr": "0.22", "micro-acc": "0.93"})
    res = check_multiclass_micro(MulticlassTestset((10000,) * 3), report,
                                 infer_uncertainty(report))
    assert (res.inconsistency, res.witness, res.evidence) == (True, None, {
        "reason": "no pooled one-vs-rest outcome reproduces every reported "
                  "micro average",
        "trace_range": [0, 30000]})
    assert (len(set(verified)), min(verified), max(verified)) == (
        901, 26400, 27300)


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


def _check_micro_fold_witness(res, folds, rid, value):
    """Every witness trace lies in [0, its fold's total], and the fold mean
    recomputed from the traces lies within 0.01 of `value`."""
    d = default_registry().get(split_average_prefix(rid)[1])
    c = folds[0].num_classes
    witness = res.witness["folds"]
    assert [f["total"] for f in witness] == [f.size for f in folds]
    assert all(0 <= f["trace"] <= f["total"] for f in witness)
    mean = sum(micro_value(d, f["trace"], f["total"], c)
               for f in witness) / len(folds)
    assert abs(mean - F(value)) <= F(1, 100), (folds, rid, value, witness)


def test_micro_mos_agrees_with_trace_product_oracle():
    """Micro fold means over known folds, drawn from a few shapes so that
    fold totals repeat and pool into one variable, and over stratified
    folds, agree with the per-fold trace product, and every witness splits
    back into valid per-fold traces."""
    rng = random.Random(555)
    ids = ["micro-acc", "micro-sens", "micro-f1", "micro-mcc", "micro-fm",
           "micro-kappa"]
    verdicts = set()
    for _ in range(60):
        c = rng.randint(2, 3)
        shapes = []
        for _ in range(rng.randint(1, 2)):
            counts = [rng.randint(0, 2) for _ in range(c)]
            if sum(counts) == 0:
                counts[rng.randrange(c)] = 1
            shapes.append(counts)
        folds = [MulticlassTestset(rng.choice(shapes))
                 for _ in range(rng.randint(2, 4))]
        totals = [sum(x) for x in zip(*(f.class_counts for f in folds))]
        ts = MulticlassTestset(totals)
        # a stratified split leaves no fold empty iff k <= the largest class
        k = min(rng.randint(2, 4), max(totals))
        schemes = [(FoldingScheme.known(folds), folds)]
        if k >= 2:
            schemes.append((FoldingScheme.stratified(k), [
                MulticlassTestset(v)
                for v in stratified_split_counts(totals, k)]))
        rid = rng.choice(ids)
        value = f"0.{rng.randint(0, 99):02d}"
        for scheme, layout in schemes:
            res = check_multiclass_dataset(ts, scheme, MOS,
                                           ScoreReport.of(**{rid: value}), U(2))
            feasible = micro_mean_feasible(layout, rid, value)
            assert res.inconsistency == (not feasible), (layout, rid, value)
            verdicts.add(res.inconsistency)
            if feasible:
                _check_micro_fold_witness(res, layout, rid, value)
    assert verdicts == {True, False}


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


# -------------------------------------------- macro averages on the trace

AFFINE_MACRO = [f"macro-{i}" for i in ("acc", "err", "sens", "spec", "fpr",
                                       "fnr", "bacc", "youden")]


def _matrices(counts):
    """Every confusion matrix with row sums `counts`."""
    return itertools.product(*(_compositions(c, len(counts)) for c in counts))


def _random_matrix(rng, counts):
    rows = []
    for c in counts:
        cuts = sorted(rng.randint(0, c) for _ in range(len(counts) - 1))
        rows.append([b - a for a, b in zip([0, *cuts], [*cuts, c])])
    return rows


def _macro_report(rng, ids, fold_matrices, fold_counts, kind):
    """A report on `ids` at 2-3 decimals: the fold means of the macro
    values on the given matrices ("true"), the same with one score moved
    by 2-3 units of its last digit ("shifted"), or random ("random")."""
    k = rng.randint(2, 3)
    if kind == "random":
        return ScoreReport({rid: f"{rng.uniform(0, 1):.{k}f}" for rid in ids})
    values = {rid: sum(macro_mean(rid, m, c)
                       for m, c in zip(fold_matrices, fold_counts))
              / len(fold_counts) for rid in ids}
    if kind == "shifted":
        rid = rng.choice(ids)
        values[rid] += F(rng.choice([-3, -2, 2, 3]), 10 ** k)
    return ScoreReport({rid: render_decimal(v, k) for rid, v in values.items()})


def _kernel_inconsistent(fold_counts, scores, uncertainty):
    """The reference verdict: _solve_macro over every reported score."""
    registry = default_registry()
    entries = [(rid, registry.get(split_average_prefix(rid)[1]))
               for rid in scores.ids]
    targets, violation = compute_targets(scores, uncertainty, dict(entries))
    return violation is not None or \
        not _solve_macro(fold_counts, entries, targets).feasible


def _assert_macro_witness(folds, fold_counts, scores, uncertainty):
    """Every witness matrix has its row sums, and every reported score's
    fold mean recomputed with value() lies within its radius."""
    assert len(folds) == len(fold_counts)
    for matrix, counts in zip(folds, fold_counts):
        assert all(x >= 0 for row in matrix for x in row)
        assert [sum(row) for row in matrix] == list(counts)
    for rid in scores.ids:
        mean = sum(macro_mean(rid, m, c) for m, c in zip(folds, fold_counts))
        assert abs(mean / len(folds) - scores.value(rid)) <= \
            uncertainty.radius_for(rid), (fold_counts, scores, rid)


def _count_kernel_calls(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _solve_macro(*args)

    monkeypatch.setattr(multiclass, "_solve_macro", counted)
    return calls


def test_equal_class_macro_reports_agree_with_the_oracles(monkeypatch):
    """Random macro reports on C equal classes (C 2-5, 1-4 per class, 1-3
    at C = 5),
    true, shifted or random: the verdict equals _solve_macro's, and
    brute_force_macro's where it is small; none reaches the kernel."""
    rng = random.Random(4242)
    calls = _count_kernel_calls(monkeypatch)
    verdicts, brute = set(), 0
    for case in range(150):
        c = rng.randint(2, 5)
        counts = (rng.randint(1, 3 if c == 5 else 4),) * c
        ts = MulticlassTestset(counts)
        ids = rng.sample(AFFINE_MACRO, rng.randint(1, 3))
        kind = ("true", "shifted", "random")[case % 3]
        scores = _macro_report(rng, ids, [_random_matrix(rng, counts)],
                               [counts], kind)
        uncertainty = infer_uncertainty(scores)
        res = check_multiclass_macro(ts, scores, uncertainty)
        assert res.inconsistency == \
            _kernel_inconsistent([counts], scores, uncertainty), (counts, scores)
        assert not (kind == "true" and res.inconsistency), (counts, scores)
        if math.comb(counts[0] + len(counts) - 1, len(counts) - 1) \
                ** len(counts) <= 5_000:
            brute += 1
            oracle = brute_force_macro(ts, scores, uncertainty)
            assert res.inconsistency == oracle.inconsistency, (counts, scores)
        if not res.inconsistency:
            _assert_macro_witness([res.witness["matrix"]], [counts], scores,
                                  uncertainty)
        verdicts.add(res.inconsistency)
    assert calls == [] and verdicts == {True, False} and brute > 50


def test_macro_acc_and_err_decide_on_the_trace_on_unequal_classes(
        monkeypatch):
    """macro-acc or macro-err, alone or with other affine scores, on
    unequal classes: the verdict equals brute_force_macro's and
    _solve_macro's; the kernel runs only when acc/err's traces are
    feasible and another score is reported."""
    rng = random.Random(5151)
    calls = _count_kernel_calls(monkeypatch)
    verdicts, skipped = set(), 0
    others = [rid for rid in AFFINE_MACRO
              if rid not in ("macro-acc", "macro-err")]
    for case in range(150):
        c = rng.randint(2, 4)
        counts = tuple(rng.randint(1, 2 if c == 4 else 3) for _ in range(c))
        ts = MulticlassTestset(counts)
        ids = [rng.choice(["macro-acc", "macro-err"]),
               *rng.sample(others, rng.randint(0, 2))]
        kind = ("true", "shifted", "random")[case % 3]
        scores = _macro_report(rng, ids, [_random_matrix(rng, counts)],
                               [counts], kind)
        uncertainty = infer_uncertainty(scores)
        before = len(calls)
        res = check_multiclass_macro(ts, scores, uncertainty)
        oracle = brute_force_macro(ts, scores, uncertainty)
        assert res.inconsistency == oracle.inconsistency, (counts, scores)
        assert res.inconsistency == \
            _kernel_inconsistent([counts], scores, uncertainty), (counts, scores)
        assert not (kind == "true" and res.inconsistency), (counts, scores)
        equal = len(set(counts)) == 1
        if len(ids) == 1 or equal:
            assert len(calls) == before, (counts, scores)
        skipped += len(calls) == before
        if not res.inconsistency:
            _assert_macro_witness([res.witness["matrix"]], [counts], scores,
                                  uncertainty)
        verdicts.add(res.inconsistency)
    assert verdicts == {True, False} and 0 < skipped < 150

    # An infeasible acc window refutes the report before the kernel; a
    # feasible one hands the whole report to the kernel once.
    ts = MulticlassTestset((5, 6, 7))
    calls.clear()
    res = check_multiclass_macro(
        ts, ScoreReport.of(**{"macro-acc": "0.20", "macro-sens": "0.5"}), U(2))
    assert res.inconsistency and calls == []
    assert res.evidence["scores"] == ["macro-acc"]
    res = check_multiclass_macro(
        ts, ScoreReport.of(**{"macro-acc": "0.78", "macro-sens": "0.67"}), U(2))
    assert not res.inconsistency and len(calls) == 1


def macro_fold_means_feasible(fold_counts, scores, uncertainty):
    """Matrix-product oracle for several macro scores: do some per-fold
    confusion matrices put every reported fold mean within its radius?"""
    def fold_values(counts):
        return {tuple(macro_mean(rid, m, counts) for rid in scores.ids)
                for m in _matrices(counts)}

    k = len(fold_counts)
    windows = [(scores.value(rid) - uncertainty.radius_for(rid),
                scores.value(rid) + uncertainty.radius_for(rid))
               for rid in scores.ids]
    return any(all(lo <= sum(col) / k <= hi
                   for col, (lo, hi) in zip(zip(*combo), windows))
               for combo in itertools.product(*map(fold_values, fold_counts)))


def test_balanced_macro_fold_means_agree_with_the_matrix_product_oracle(
        monkeypatch):
    """Known folds that are each balanced, and stratified folds of a
    balanced testset: the macro fold-mean verdict equals the
    matrix-product oracle's, with no kernel call."""
    rng = random.Random(6161)
    calls = _count_kernel_calls(monkeypatch)
    verdicts = set()
    for case in range(150):
        c, k = rng.randint(2, 3), rng.randint(2, 3)
        if case % 2:
            fold_counts = [(rng.randint(1, 2),) * c for _ in range(k)]
            parent = MulticlassTestset([sum(f[0] for f in fold_counts)] * c)
            scheme = FoldingScheme.known([MulticlassTestset(f)
                                          for f in fold_counts])
        else:
            parent = MulticlassTestset((rng.randint(k, 2 * k),) * c)
            scheme = FoldingScheme.stratified(k)
            fold_counts = stratified_split_counts(parent.class_counts, k)
        ids = rng.sample(AFFINE_MACRO, rng.randint(1, 2))
        kind = ("true", "shifted", "random")[case % 3]
        scores = _macro_report(
            rng, ids, [_random_matrix(rng, f) for f in fold_counts],
            fold_counts, kind)
        uncertainty = infer_uncertainty(scores)
        res = check_multiclass_dataset(parent, scheme, MOS, scores,
                                       uncertainty)
        feasible = macro_fold_means_feasible(fold_counts, scores, uncertainty)
        assert res.inconsistency == (not feasible), (fold_counts, scores)
        assert not (kind == "true" and res.inconsistency)
        if not res.inconsistency:
            folds = res.witness["folds"]
            assert [f["class_counts"] for f in folds] == \
                [list(f) for f in fold_counts]
            _assert_macro_witness([f["matrix"] for f in folds], fold_counts,
                                  scores, uncertainty)
        verdicts.add(res.inconsistency)
    assert calls == [] and verdicts == {True, False}


def test_equal_class_macro_and_micro_reports_get_one_verdict():
    """On equal classes every affine macro score is its micro average, so
    the macro request and the same request with micro- ids agree, single
    testsets and stratified fold means alike."""
    rng = random.Random(7373)
    verdicts = set()
    for case in range(200):
        c, size = rng.randint(2, 5), rng.randint(1, 60)
        ts = MulticlassTestset((size,) * c)
        ids = rng.sample(AFFINE_MACRO, rng.randint(1, 3))
        kind = ("true", "shifted", "random")[case % 3]
        macro = _macro_report(rng, ids, [_random_matrix(rng, ts.class_counts)],
                              [ts.class_counts], kind)
        micro = ScoreReport({"micro-" + rid[len("macro-"):]: macro.text(rid)
                             for rid in macro.ids})
        k = rng.randint(2, 3)
        folding = FoldingScheme.stratified(k) if size >= k and case % 2 \
            else None
        results = [check_multiclass_dataset(ts, folding, folding and MOS,
                                            report, infer_uncertainty(report))
                   for report in (macro, micro)]
        assert results[0].inconsistency == results[1].inconsistency, \
            (ts, folding, macro)
        verdicts.add(results[0].inconsistency)
    assert verdicts == {True, False}


def test_undefined_scores_keep_their_exclusion_evidence(monkeypatch):
    """macro-acc's trace window is empty, but macro-sens is undefined on
    the empty class: the exclusion is reported, as before the trace."""
    calls = _count_kernel_calls(monkeypatch)
    report = ScoreReport.of(**{"macro-acc": "0.25", "macro-sens": "0.5"})
    res = check_multiclass_macro(MulticlassTestset((2, 0)), report, U(2))
    assert res.inconsistency and len(calls) == 1
    assert res.evidence["score"] == "macro-sens"
    assert (res.evidence["fold"], res.evidence["class"]) == (0, 1)
    folds = FoldingScheme.known([MulticlassTestset((1, 1, 1)),
                                 MulticlassTestset((1, 1, 0))])
    res = check_multiclass_dataset(MulticlassTestset((2, 2, 1)), folds, MOS,
                                   report, U(2))
    assert res.inconsistency
    assert res.evidence["score"] == "macro-sens"
    assert (res.evidence["fold"], res.evidence["class"]) == (1, 2)
    # macro-acc alone is defined on every class split, empty classes too.
    alone = ScoreReport.of(**{"macro-acc": "0.50"})
    calls.clear()
    res = check_multiclass_macro(MulticlassTestset((2, 0)), alone, U(2))
    assert not res.inconsistency and calls == []
    _assert_macro_witness([res.witness["matrix"]], [(2, 0)], alone, U(2))


def test_readme_macro_report_is_refuted_without_the_kernel(monkeypatch):
    """macro-acc 0.90 with macro-sens 0.61 at radius 0.01 on 5 classes of
    100: acc fixes T/N to [0.725, 0.775] and sens to [0.60, 0.62], so the
    traces alone refute it; and a 10 x 1000 consistent report gets a
    matrix that recomputes every score."""
    calls = _count_kernel_calls(monkeypatch)
    report = ScoreReport.of(**{"macro-acc": "0.90", "macro-sens": "0.61"})
    res = check_multiclass_macro(MulticlassTestset((100,) * 5), report,
                                 Uncertainty(F(1, 100)))
    assert res.inconsistency and calls == []
    assert res.evidence["scores"] == ["macro-acc", "macro-sens"]
    counts = (1000,) * 10
    report = ScoreReport.of(**{"macro-acc": "0.9412", "macro-sens": "0.7060",
                               "macro-spec": "0.9673"})
    res = check_multiclass_macro(MulticlassTestset(counts), report, U(4))
    assert not res.inconsistency and calls == []
    _assert_macro_witness([res.witness["matrix"]], [counts], report, U(4))


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
