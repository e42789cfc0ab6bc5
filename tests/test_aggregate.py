"""Aggregated experiments: score-of-means pooling, mean-of-scores over
known/stratified/unknown folds, dataset-level means, and the dispatch
rules of check_experiment."""

import random
from fractions import Fraction

import pytest

from scoresleuth.aggregate import (
    check_experiment,
    check_mos_known_folds,
    check_mos_unknown_folds,
    reduce_som,
)
from scoresleuth.binary import check_single_testset
from scoresleuth.errors import (
    EmptyExperiment,
    NonlinearScoreUnsupported,
    TooManyConfigurations,
    UnsupportedExperiment,
)
from scoresleuth.model import (
    AggregationMode,
    DatasetSpec,
    ExperimentSpec,
    FoldingScheme,
    ScoreReport,
    Testset,
    Uncertainty,
)
from scoresleuth.oracle import brute_force_mos
from scoresleuth.scores import default_registry

F = Fraction
MOS = AggregationMode.MEAN_OF_SCORES
SOM = AggregationMode.SCORE_OF_MEANS


def U(k):
    return Uncertainty(F(1, 10 ** k))


def folded_spec(testset, folding, mode):
    return ExperimentSpec.single(testset, folding, fold_aggregation=mode)


# ---------------------------------------------------------------- pooling

def test_reduce_som_sums_counts():
    assert reduce_som([Testset(50, 500), Testset(50, 500)]) == Testset(100, 1000)


def test_reduce_som_single_fold_identity():
    assert reduce_som([Testset(7, 3)]) == Testset(7, 3)


def test_reduce_som_tolerates_degenerate_folds():
    # Individual folds may miss a class entirely; the pool may not.
    assert reduce_som([Testset(2, 0), Testset(0, 2)]) == Testset(2, 2)


# --------------------------------------------------- mean over known folds

def mean_of(score_id, folds, witness):
    registry = default_registry()
    d = registry.get(score_id)
    total = F(0)
    for fold, counts in zip(folds, witness["folds"]):
        total += d.value(counts["tp"], counts["tn"], fold.p, fold.n)
    return total / len(folds)


def test_known_folds_sens_mean_consistent():
    folds = [Testset(2, 2), Testset(2, 2)]
    res = check_mos_known_folds(folds, ScoreReport.of(sens="0.75"), U(2))
    assert not res.inconsistency
    assert res.procedure == "mos_known_folds"
    got = mean_of("sens", folds, res.witness)
    assert abs(got - F(3, 4)) <= F(1, 100)


def test_known_folds_sens_mean_unreachable():
    # Fold sensitivities are quarters of a whole, so the mean is too:
    # nothing lands in [0.29, 0.31].
    folds = [Testset(2, 2), Testset(2, 2)]
    res = check_mos_known_folds(folds, ScoreReport.of(sens="0.30"), U(2))
    assert res.inconsistency
    assert res.witness is None
    assert res.evidence == {
        "reason": "no integer assignment satisfies all mean constraints"}


def test_thousands_of_known_folds_are_decided():
    # Leave-two-out-sized folds: 4000 fold variables, and the search fixes
    # them one level at a time, deeper than Python's recursion limit.
    folds = [Testset(1, 1)] * 2000
    spec = folded_spec(Testset(2000, 2000), FoldingScheme.known(folds), MOS)
    res = check_experiment(spec, ScoreReport.of(acc="0.5125", sens="0.5250"),
                           U(4))
    assert not res.inconsistency
    assert res.procedure == "mos_known_folds"
    assert abs(mean_of("acc", folds, res.witness) - F("0.5125")) <= F(1, 10 ** 4)
    assert abs(mean_of("sens", folds, res.witness) - F("0.5250")) <= F(1, 10 ** 4)


def test_known_folds_perfect_mean_forces_all_correct():
    folds = [Testset(2, 2), Testset(2, 2)]
    res = check_mos_known_folds(folds, ScoreReport.of(acc="1.0"), U(4))
    assert not res.inconsistency
    assert res.witness["folds"] == [{"tp": 2, "tn": 2}, {"tp": 2, "tn": 2}]


def test_known_folds_refuses_nonlinear_scores():
    with pytest.raises(NonlinearScoreUnsupported):
        check_mos_known_folds([Testset(2, 2), Testset(2, 2)],
                              ScoreReport.of(f1="0.5"), U(2))


def test_known_folds_empty_list():
    with pytest.raises(EmptyExperiment):
        check_mos_known_folds([], ScoreReport.of(acc="0.5"), U(2))


def test_fold_without_positives_cannot_average_sensitivity():
    # sens is undefined on a fold with p == 0 no matter the outcome, so a
    # reported fold-mean of sens is impossible outright.
    folds = [Testset(2, 2), Testset(0, 2)]
    res = check_mos_known_folds(folds, ScoreReport.of(sens="0.5"), U(2))
    assert res.inconsistency
    assert res.evidence["score"] == "sens"
    assert res.evidence["fold"] == {"p": 0, "n": 2}


# ------------------------------------------------- unknown fold sizes (OR)

def test_unknown_folds_half_sensitivity():
    res = check_mos_unknown_folds(Testset(2, 2), 2, ScoreReport.of(sens="0.5"), U(2))
    assert not res.inconsistency
    assert sum(pn[0] for pn in res.witness["configuration"]) == 2
    assert "configurations_tried" in res.evidence


def test_unknown_folds_unreachable_mean():
    res = check_mos_unknown_folds(Testset(2, 2), 2, ScoreReport.of(sens="0.3"), U(2))
    assert res.inconsistency
    assert res.evidence["configurations_tried"] >= 1
    assert "configurations_excluded" in res.evidence


def test_unknown_folds_perfect_score():
    res = check_mos_unknown_folds(Testset(4, 4), 2, ScoreReport.of(acc="1.0"), U(4))
    assert not res.inconsistency
    for fold, counts in zip(res.witness["configuration"], res.witness["folds"]):
        assert counts == {"tp": fold[0], "tn": fold[1]}


def test_unknown_folds_cap_is_enforced():
    with pytest.raises(TooManyConfigurations) as exc:
        check_mos_unknown_folds(Testset(30, 30), 10,
                                ScoreReport.of(acc="0.1234"), Uncertainty(F(0)),
                                cap=50)
    assert exc.value.cap == 50


# ------------------------------------------------- check_experiment dispatch

def test_dispatch_unfolded_is_single_testset():
    spec = ExperimentSpec.single(Testset(100, 1000))
    res = check_experiment(spec, ScoreReport.of(acc="0.8464", sens="0.81",
                                                f1="0.4894"), U(4))
    assert not res.inconsistency
    assert res.procedure == "single_testset"
    assert res.witness == {"tp": 81, "tn": 850}


def test_dispatch_som_pools_known_folds():
    folds = FoldingScheme.known([Testset(50, 500), Testset(50, 500)])
    spec = folded_spec(Testset(100, 1000), folds, SOM)
    res = check_experiment(spec, ScoreReport.of(acc="0.8464", sens="0.81",
                                                f1="0.4894"), U(4))
    assert not res.inconsistency
    assert res.procedure == "som_pooled"
    assert res.evidence["pooled"] == {"p": 100, "n": 1000}
    assert res.witness == {"tp": 81, "tn": 850}


def test_dispatch_som_with_unknown_folds_uses_totals():
    # Pooling reproduces dataset totals whatever the split, so unknown
    # folds are no obstacle under score-of-means.
    spec = folded_spec(Testset(5, 5), FoldingScheme.unknown(2), SOM)
    res = check_experiment(spec, ScoreReport.of(acc="0.8"), U(2))
    single = check_single_testset(Testset(5, 5), ScoreReport.of(acc="0.8"), U(2))
    assert res.inconsistency == single.inconsistency
    assert res.witness == single.witness


def test_dispatch_stratified_derives_folds():
    spec = folded_spec(Testset(4, 4), FoldingScheme.stratified(2), MOS)
    res = check_experiment(spec, ScoreReport.of(sens="0.75"), U(2))
    assert not res.inconsistency
    assert res.procedure == "mos_stratified_kfold"
    assert res.evidence["derived_folds"] == [[2, 2], [2, 2]]


def test_dispatch_unknown_folds_mos():
    spec = folded_spec(Testset(2, 2), FoldingScheme.unknown(2), MOS)
    res = check_experiment(spec, ScoreReport.of(sens="0.5"), U(2))
    assert not res.inconsistency
    assert res.procedure == "mos_unknown_folds"


def test_som_pooling_matches_single_testset():
    rng = random.Random(20240817)
    registry = default_registry()
    ids = [i for i in registry.ids() if i in ("acc", "sens", "spec", "bacc")]
    for _ in range(60):
        k = rng.randint(1, 4)
        folds = []
        for _ in range(k):
            p, n = rng.randint(0, 5), rng.randint(0, 5)
            folds.append(Testset(p, n) if p + n else Testset(p, 1))
        pooled = reduce_som(folds)
        scores = ScoreReport.of(**{rng.choice(ids): f"0.{rng.randint(0, 99):02d}"})
        spec = folded_spec(pooled, FoldingScheme.known(folds), SOM)
        via_spec = check_experiment(spec, scores, U(2))
        direct = check_single_testset(pooled, scores, U(2))
        assert via_spec.inconsistency == direct.inconsistency
        assert via_spec.witness == direct.witness


# --------------------------------------------------------- several datasets

def two_datasets(ts_a, ts_b, ds_mode, fold_mode=None, folding=None):
    scheme = folding or FoldingScheme.none()
    return ExperimentSpec((DatasetSpec(ts_a, scheme), DatasetSpec(ts_b, scheme)),
                          fold_aggregation=fold_mode,
                          dataset_aggregation=ds_mode)


def test_datasets_som_pools_across_datasets():
    spec = two_datasets(Testset(50, 500), Testset(50, 500), SOM)
    res = check_experiment(spec, ScoreReport.of(acc="0.8464", sens="0.81",
                                                f1="0.4894"), U(4))
    assert not res.inconsistency
    assert res.procedure == "som_pooled"
    assert res.evidence["datasets_pooled"] == 2
    assert res.witness == {"tp": 81, "tn": 850}


def test_datasets_som_over_fold_mos_is_refused():
    folds = FoldingScheme.known([Testset(2, 2), Testset(2, 2)])
    spec = ExperimentSpec(
        (DatasetSpec(Testset(4, 4), folds), DatasetSpec(Testset(4, 4), folds)),
        fold_aggregation=MOS, dataset_aggregation=SOM)
    with pytest.raises(UnsupportedExperiment):
        check_experiment(spec, ScoreReport.of(acc="0.9"), U(2))


def test_datasets_mos_matches_fold_mos_oracle():
    # A dataset-level mean over unfolded datasets is the same object as a
    # fold-level mean over those testsets, so the tiny oracle applies.
    rng = random.Random(96)
    for _ in range(40):
        sizes = [Testset(rng.randint(1, 4), rng.randint(1, 4))
                 for _ in range(rng.randint(2, 3))]
        scores = ScoreReport.of(
            **{rng.choice(["acc", "sens", "spec"]): f"0.{rng.randint(0, 9)}"})
        spec = ExperimentSpec(tuple(DatasetSpec(ts) for ts in sizes),
                              dataset_aggregation=MOS)
        res = check_experiment(spec, scores, U(1))
        oracle = brute_force_mos(sizes, scores, U(1))
        assert res.inconsistency == oracle.inconsistency
        if not res.inconsistency:
            score_id = scores.ids[0]
            got = mean_of(score_id, sizes, {"folds": res.witness["datasets"]})
            assert abs(got - scores.value(score_id)) <= F(1, 10)


def test_datasets_mos_procedure_and_witness_shape():
    spec = ExperimentSpec((DatasetSpec(Testset(2, 2)), DatasetSpec(Testset(2, 2))),
                          dataset_aggregation=MOS)
    res = check_experiment(spec, ScoreReport.of(sens="0.75"), U(2))
    assert not res.inconsistency
    assert res.procedure == "mos_datasets"
    assert len(res.witness["datasets"]) == 2
    assert all(set(d) >= {"tp", "tn"} for d in res.witness["datasets"])


def test_experiment_cap_propagates():
    spec = folded_spec(Testset(30, 30), FoldingScheme.unknown(10), MOS)
    with pytest.raises(TooManyConfigurations):
        check_experiment(spec, ScoreReport.of(acc="0.1234"), Uncertainty(F(0)),
                         cap=50)
