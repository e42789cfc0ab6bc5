"""Fold layouts: the stratified rule, unknown-configuration enumeration
with its cap, and the OR over layouts."""

import gc
import itertools

import pytest

from scoresleuth import folds as folds_module
from scoresleuth.aggregate import check_experiment
from scoresleuth.errors import InvalidFoldCount, TooManyConfigurations
from scoresleuth.feasibility import SolveOutcome
from scoresleuth.folds import (
    DEFAULT_CONFIG_CAP,
    config_cap,
    enumerate_fold_configurations,
    first_feasible,
    fold_layouts,
    iter_fold_configurations,
    stratified_split_counts,
)
from scoresleuth.model import (
    AggregationMode,
    ExperimentSpec,
    FoldingScheme,
    MulticlassTestset,
    ScoreReport,
    Testset,
    infer_uncertainty,
)


def _vectors_desc(totals, cap_vec):
    """Nonzero vectors v with 0 <= v <= totals componentwise and
    v <= cap_vec lexicographically, in decreasing lexicographic order."""
    m = len(totals)

    def rec(i, prefix, tight):
        if i == m:
            if any(prefix):
                yield tuple(prefix)
            return
        top = min(totals[i], cap_vec[i]) if tight else totals[i]
        for x in range(top, -1, -1):
            prefix.append(x)
            yield from rec(i + 1, prefix, tight and x == cap_vec[i])
            prefix.pop()

    return rec(0, [], True)


def _recursive_fold_configurations(totals, k):
    """Reference enumeration: one recursion level per fold, choosing every
    fold (the last one too) among the vectors lex <= the fold before, all
    of them generated with no bound on their sums."""
    def rec(remaining, slots, cap_vec):
        if slots == 0:
            if all(t == 0 for t in remaining):
                yield ()
            return
        if sum(remaining) < slots:
            return
        for v in _vectors_desc(remaining, cap_vec):
            if remaining[0] - v[0] > (slots - 1) * v[0]:
                continue
            rest = tuple(r - x for r, x in zip(remaining, v))
            for tail in rec(rest, slots - 1, v):
                yield (v,) + tail

    return rec(tuple(totals), k, tuple(totals))


class TestStratified:
    def test_uneven_split(self):
        assert stratified_split_counts((5, 5), 2) == [(3, 3), (2, 2)]

    def test_exact_split(self):
        assert stratified_split_counts((4, 4), 2) == [(2, 2), (2, 2)]

    def test_class_exhausted_before_last_fold(self):
        assert stratified_split_counts((1, 5), 2) == [(1, 3), (0, 2)]

    def test_empty_fold_rejected(self):
        with pytest.raises(InvalidFoldCount):
            stratified_split_counts((1, 0), 2)
        with pytest.raises(InvalidFoldCount):
            stratified_split_counts((3, 3), 0)

    def test_totals_preserved(self):
        for p, n, k in [(7, 11, 3), (2, 9, 4), (10, 10, 5)]:
            folds = stratified_split_counts((p, n), k)
            assert sum(f[0] for f in folds) == p
            assert sum(f[1] for f in folds) == n
            assert len(folds) == k


class TestConfigurations:
    def test_2_2_2_complete(self):
        configs = enumerate_fold_configurations(2, 2, 2)
        as_pairs = {tuple((f.p, f.n) for f in cfg) for cfg in configs}
        assert as_pairs == {
            ((2, 0), (0, 2)),
            ((2, 1), (0, 1)),
            ((1, 2), (1, 0)),
            ((1, 1), (1, 1)),
        }
        assert len(configs) == 4

    def test_single_fold(self):
        configs = enumerate_fold_configurations(1, 0, 1)
        assert [[(f.p, f.n) for f in cfg] for cfg in configs] == [[(1, 0)]]

    def test_empty_total_rejected(self):
        with pytest.raises(InvalidFoldCount):
            enumerate_fold_configurations(0, 0, 1)

    def test_canonical_nonincreasing_and_unique(self):
        seen = set()
        for cfg in iter_fold_configurations((4, 3), 3):
            assert list(cfg) == sorted(cfg, reverse=True)
            assert all(sum(v) >= 1 for v in cfg)
            assert tuple(cfg) not in seen
            seen.add(tuple(cfg))
            assert tuple(sum(col) for col in zip(*cfg)) == (4, 3)

    def test_matches_the_recursive_enumeration(self):
        """The same configurations in the same order as the recursive
        reference, for every totals of 1-3 classes with 0-4 samples each
        and k = 1..5 (k at most the sample count)."""
        compared = 0
        for num_classes in (1, 2, 3):
            for totals in itertools.product(range(5), repeat=num_classes):
                for k in range(1, min(sum(totals), 5) + 1):
                    want = list(_recursive_fold_configurations(totals, k))
                    assert list(iter_fold_configurations(totals, k)) == want
                    compared += len(want)
        assert compared == 26569

    def test_leave_one_out_past_the_recursion_limit(self, monkeypatch):
        """Leave-one-out with unknown folds, k = p + n = 1200, has exactly
        one layout, and deciding it needs no recursion per fold. Each fold
        holds one sample, so no first fold of two or more is generated:
        enumerating every layout examines at most two candidates (one per
        class) per fold."""
        examined = [0]
        vectors_desc = folds_module._vectors_desc

        def counted(*args):
            for v in vectors_desc(*args):
                examined[0] += 1
                yield v

        monkeypatch.setattr(folds_module, "_vectors_desc", counted)
        for p, n, acc in [(1100, 100, "0.8"), (500, 700, "0.5")]:
            spec = ExperimentSpec.single(Testset(p, n),
                                         FoldingScheme.unknown(p + n),
                                         AggregationMode.MEAN_OF_SCORES)
            report = ScoreReport({"acc": acc})
            res = check_experiment(spec, report, infer_uncertainty(report))
            assert not res.inconsistency
            assert res.evidence == {"configurations_tried": 1}
            assert res.witness["configuration"] == [[1, 0]] * p + [[0, 1]] * n
            examined[0] = 0
            assert len(list(iter_fold_configurations((p, n), p + n))) == 1
            assert examined[0] <= 2 * (p + n), (p, n, examined[0])

    def test_enumeration_leaves_no_cyclic_garbage(self):
        """Enumerating every layout creates no reference cycle, so nothing
        waits for the cyclic collector and memory does not depend on when
        it runs."""
        gc.collect()
        gc.disable()
        try:
            assert len(list(iter_fold_configurations((5, 4, 3), 3))) > 100
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_cap(self):
        with pytest.raises(TooManyConfigurations) as exc:
            enumerate_fold_configurations(10, 10, 5, cap=3)
        assert exc.value.cap == 3
        assert exc.value.count > 3

    def test_cap_resolution(self, monkeypatch):
        assert config_cap(42) == 42
        monkeypatch.setenv("SCORESLEUTH_CONFIG_CAP", "777")
        assert config_cap() == 777
        monkeypatch.delenv("SCORESLEUTH_CONFIG_CAP")
        assert config_cap() == DEFAULT_CONFIG_CAP


class TestLayouts:
    def test_known_and_stratified_give_one_layout(self):
        known = FoldingScheme.known([Testset(2, 1), Testset(1, 2)])
        assert list(fold_layouts((3, 3), known)) == [((2, 1), (1, 2))]
        multi = FoldingScheme.known([MulticlassTestset((1, 2, 0)),
                                     MulticlassTestset((1, 0, 2))])
        assert list(fold_layouts((2, 2, 2), multi)) == [((1, 2, 0), (1, 0, 2))]
        assert list(fold_layouts((5, 5), FoldingScheme.stratified(2))) == \
            [((3, 3), (2, 2))]

    def test_unknown_gives_every_configuration(self):
        layouts = list(fold_layouts((4, 3), FoldingScheme.unknown(3)))
        assert layouts == list(iter_fold_configurations((4, 3), 3))

    def test_unknown_cap_is_lazy(self):
        # The cap stops the enumeration only when it is exceeded, so an OR
        # that ends early never meets it.
        layouts = fold_layouts((10, 10), FoldingScheme.unknown(5), cap=3)
        assert len([next(layouts) for _ in range(3)]) == 3
        with pytest.raises(TooManyConfigurations) as exc:
            next(layouts)
        assert (exc.value.count, exc.value.cap) == (4, 3)


class TestFirstFeasible:
    OUTCOMES = {"a": SolveOutcome(excluded=True),
                "b": SolveOutcome(evidence={"reason": "none"}),
                "c": SolveOutcome(["witness"]),
                "d": SolveOutcome(["other"])}

    def test_stops_at_the_first_feasible_layout(self):
        layout, outcome, tried, excluded = first_feasible(
            "abcd", self.OUTCOMES.__getitem__)
        assert (layout, outcome.solution, tried, excluded) == ("c", ["witness"], 3, 1)

    def test_returns_the_last_outcome_when_none_is_feasible(self):
        layout, outcome, tried, excluded = first_feasible(
            "aba", self.OUTCOMES.__getitem__)
        assert (layout, outcome.excluded, tried, excluded) == ("a", True, 3, 2)
