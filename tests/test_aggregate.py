"""Aggregated experiments: score-of-means pooling, mean-of-scores over
known/stratified/unknown folds, dataset-level means, and the dispatch
rules of check_experiment. The OR over fold layouts is checked against
brute force for unknown folds and for dataset means over folded
datasets."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from scoresleuth import aggregate
from scoresleuth.aggregate import (
    check_experiment,
    check_mos_known_folds,
    check_mos_unknown_folds,
    reduce_som,
    solve_means,
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
    MulticlassTestset,
    ScoreReport,
    Testset,
    Uncertainty,
)
from scoresleuth.folds import iter_fold_configurations, stratified_split_counts
from scoresleuth.intervals import RationalInterval
from scoresleuth.multiclass import check_multiclass_macro
from scoresleuth.oracle import brute_force_mos, render_decimal
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


def test_solve_means_second_count_is_tn_or_fp():
    folds = [[(F(1), 2, 2)]]
    targets = {"sens": RationalInterval.point(F(1, 2))}
    definitions = {"sens": default_registry().get("sens")}
    for second in ("tn", "fp"):
        (view,) = solve_means(folds, targets, definitions,
                              second=second).solution
        assert view.keys() == {"tp", second} and view["tp"] == 1
    with pytest.raises(ValueError):
        solve_means(folds, targets, definitions, second="fn")



def _capture_systems(monkeypatch):
    """The (domains, rows) of every system `solve_means` hands the
    kernel."""
    systems, real = [], aggregate.solve

    def capture(domains, rows):
        systems.append((domains, rows))
        return real(domains, rows)

    monkeypatch.setattr(aggregate, "solve", capture)
    return systems


def test_solve_means_system_of_a_binary_fold_mean(monkeypatch):
    # Folds (p, n) = (2, 3) and (3, 2); variables tp_0, tn_0, tp_1, tn_1.
    # acc: (tp_0 + tn_0 + tp_1 + tn_1)/10 in [49/100, 51/100], scaled by 10
    # to [4.9, 5.1], so the sum is 5. sens: tp_0/4 + tp_1/6 in the same
    # window, scaled by 12 to [5.88, 6.12], so 3 tp_0 + 2 tp_1 = 6.
    systems = _capture_systems(monkeypatch)
    res = check_mos_known_folds([Testset(2, 3), Testset(3, 2)],
                                ScoreReport.of(acc="0.5", sens="0.5"), U(2))
    assert not res.inconsistency
    assert systems == [([(0, 2), (0, 3), (0, 3), (0, 2)],
                        [([(0, 1), (1, 1), (2, 1), (3, 1)], 5, 5),
                         ([(0, 3), (2, 2)], 6, 6)])]


def test_solve_means_system_of_a_macro_fold(monkeypatch):
    # One fold with class counts (1, 2, 3): variables tp_0..tp_2 then
    # fp_0..fp_2, the balance row, one margin row per class, and the
    # macro-bacc row. Class i is one-vs-rest with p = c_i, n = 6 - c_i, and
    # bacc = tp/(2p) - fp/(2n) + 1/2, so the mean over the classes is
    # tp_0/6 + tp_1/12 + tp_2/18 - fp_0/30 - fp_1/24 - fp_2/18 + 1/2;
    # scaled by 360, the window [74/100, 76/100] less the constant 180 is
    # [86.4, 93.6], so [87, 93].
    systems = _capture_systems(monkeypatch)
    res = check_multiclass_macro(MulticlassTestset((1, 2, 3)),
                                 ScoreReport.of(**{"macro-bacc": "0.75"}),
                                 U(2))
    assert not res.inconsistency
    assert systems == [(
        [(0, 1), (0, 2), (0, 3), (0, 5), (0, 4), (0, 3)],
        [([(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1)], 6, 6),
         ([(1, 1), (2, 1), (3, 1)], None, 5),
         ([(0, 1), (2, 1), (4, 1)], None, 4),
         ([(0, 1), (1, 1), (5, 1)], None, 3),
         ([(0, 60), (1, 30), (2, 20), (3, -12), (4, -15), (5, -20)],
          87, 93)])]

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
    # fold-level mean over those testsets, so the fold-mean oracle applies,
    # to the verdict and to the witness.
    rng = random.Random(96)
    start = time.perf_counter()
    outcomes = set()
    for _ in range(150):
        sizes = [Testset(rng.randint(0, 4), rng.randint(1, 4))
                 for _ in range(rng.randint(2, 3))]
        k = rng.choice([1, 2])
        layout = tuple((t.p, t.n) for t in sizes)
        scores = ScoreReport(layout_report(rng, [[layout]], k))
        spec = ExperimentSpec(tuple(DatasetSpec(ts) for ts in sizes),
                              dataset_aggregation=MOS)
        res = check_experiment(spec, scores, U(k))
        oracle = brute_force_mos(sizes, scores, U(k))
        assert res.inconsistency == oracle.inconsistency, (sizes, scores)
        outcomes.add(res.inconsistency)
        if not res.inconsistency:
            picked = tuple((d["tp"], d["tn"]) for d in res.witness["datasets"])
            assert picked in set(oracle.witnesses), (sizes, scores)
    assert outcomes == {True, False}
    assert time.perf_counter() - start < 10


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


# ------------------------------------- OR over fold layouts vs brute force

LINEAR_IDS = ["acc", "err", "sens", "spec", "fpr", "fnr", "bacc", "youden"]


def layout_report(rng, alternatives, k):
    """Half the time a report true on a random layout of each dataset (one
    list of layouts per dataset, each layout a tuple of (p, n) folds),
    rendered at k decimals; otherwise, or when a score is undefined there,
    arbitrary values."""
    registry = default_registry()
    chosen = rng.sample(LINEAR_IDS, rng.randint(1, 3))
    if rng.random() < 0.5:
        layouts = [rng.choice(alts) for alts in alternatives]
        counts = [[(rng.randint(0, p), rng.randint(0, n)) for p, n in layout]
                  for layout in layouts]
        entries = {}
        for sid in chosen:
            d = registry.get(sid)
            means = []
            for layout, outcome in zip(layouts, counts):
                values = [d.value(tp, tn, p, n)
                          for (tp, tn), (p, n) in zip(outcome, layout)]
                if any(v is None for v in values):
                    break
                means.append(sum(values) / len(values))
            else:
                entries[sid] = render_decimal(sum(means) / len(means), k,
                                              rng.choice(["round", "truncate"]))
        if entries:
            return entries
    return {sid: f"{rng.uniform(-0.1, 1.1):.{k}f}" for sid in chosen}


def test_unknown_folds_match_the_or_of_fold_mean_oracles():
    rng = random.Random(60221)
    start = time.perf_counter()
    verdicts = set()
    excluded = 0
    for _ in range(400):
        folds = rng.choice([2, 3])
        p, n = rng.randint(0, 5), rng.randint(0, 5)
        ts = Testset(p if p + n >= folds else p + folds, n)
        k = rng.choice([1, 2])
        layouts = list(iter_fold_configurations((ts.p, ts.n), folds))
        scores = ScoreReport(layout_report(rng, [layouts], k))
        res = check_mos_unknown_folds(ts, folds, scores, U(k))
        witnesses = {layout: set(brute_force_mos(
            [Testset(p, n) for p, n in layout], scores, U(k)).witnesses)
            for layout in layouts}
        assert res.inconsistency == (not any(witnesses.values())), (
            ts, folds, scores)
        verdicts.add(res.inconsistency)
        if res.inconsistency:
            excluded += res.evidence.get("configurations_excluded", 0) > 0
        else:
            layout = tuple(tuple(v) for v in res.witness["configuration"])
            picked = tuple((c["tp"], c["tn"]) for c in res.witness["folds"])
            assert picked in witnesses[layout], (ts, folds, scores)
    assert verdicts == {True, False} and excluded
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(f"unknown folds: 400 instances agree with the oracle OR "
          f"({excluded} with excluded layouts), {elapsed:.1f}s")


def dataset_alternatives(spec):
    """Each dataset's fold layouts, derived independently of the engine's
    dispatch: the testset itself when unfolded."""
    out = []
    for ds in spec.datasets:
        totals = (ds.testset.p, ds.testset.n)
        if ds.folding.kind == "stratified_kfold":
            out.append([tuple(stratified_split_counts(totals, ds.folding.k))])
        elif ds.folding.kind == "unknown_folds_kfold":
            out.append(list(iter_fold_configurations(totals, ds.folding.k)))
        else:
            out.append([(totals,)])
    return out


def nested_oracle(alternatives, scores, uncertainty):
    """Brute force over every layout of every dataset and every outcome on
    every fold: does one choice per dataset put the mean of the
    dataset-level values (fold means of ScoreDefinition.value) of every
    score in its target? A choice on which a score is undefined on some
    fold is left out."""
    registry = default_registry()
    definitions = [registry.get(sid) for sid in scores.ids]
    per_dataset = []
    for layouts in alternatives:
        vectors = set()
        for layout in layouts:
            grids = [itertools.product(range(p + 1), range(n + 1))
                     for p, n in layout]
            for outcome in itertools.product(*grids):
                vector = []
                for d in definitions:
                    values = [d.value(tp, tn, p, n)
                              for (tp, tn), (p, n) in zip(outcome, layout)]
                    if None in values:
                        break
                    vector.append(sum(values) / len(values))
                else:
                    vectors.add(tuple(vector))
        per_dataset.append(vectors)
    bounds = [(v - uncertainty.radius_for(sid), v + uncertainty.radius_for(sid))
              for sid, v in scores.items()]
    D = len(alternatives)
    return any(all(lo <= sum(col) / D <= hi
                   for (lo, hi), col in zip(bounds, zip(*combo)))
               for combo in itertools.product(*per_dataset))


def test_dataset_means_over_folded_datasets_match_nested_brute_force():
    rng = random.Random(4181)
    start = time.perf_counter()
    verdicts = set()
    registry = default_registry()
    for trial in range(300):
        datasets = []
        for d in range(2):
            ts = Testset(rng.randint(3, 4), rng.randint(0, 3))
            kind = ["stratified", "unknown", "none"][(trial + d) % 3]
            if d == 1 and not any(x.folding.is_folded for x in datasets):
                kind = rng.choice(["stratified", "unknown"])
            k = rng.choice([2, 3])
            folding = {"stratified": FoldingScheme.stratified(k),
                       "unknown": FoldingScheme.unknown(k),
                       "none": FoldingScheme.none()}[kind]
            datasets.append(DatasetSpec(ts, folding))
        spec = ExperimentSpec(tuple(datasets), fold_aggregation=MOS,
                              dataset_aggregation=MOS)
        alternatives = dataset_alternatives(spec)
        k = rng.choice([1, 2])
        scores = ScoreReport(layout_report(rng, alternatives, k))
        res = check_experiment(spec, scores, U(k))
        feasible = nested_oracle(alternatives, scores, U(k))
        assert res.inconsistency == (not feasible), (spec, scores)
        verdicts.add(res.inconsistency)
        if res.inconsistency:
            continue
        # the witness picks an allowed layout per dataset, and its outcomes
        # reproduce every reported mean
        means = {sid: F(0) for sid in scores.ids}
        for ds, alts, entry in zip(spec.datasets, alternatives,
                                   res.witness["datasets"]):
            if not ds.folding.is_folded:
                layout, counts = alts[0], [entry]
            else:
                layout = (tuple(tuple(v) for v in entry["configuration"])
                          if "configuration" in entry else alts[0])
                counts = entry["folds"]
            assert layout in alts
            for sid in scores.ids:
                d = registry.get(sid)
                values = [d.value(c["tp"], c["tn"], p, n)
                          for c, (p, n) in zip(counts, layout)]
                means[sid] += sum(values) / len(values)
        for sid in scores.ids:
            assert abs(means[sid] / 2 - scores.value(sid)) <= F(1, 10 ** k)
    assert verdicts == {True, False}
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(f"folded dataset means: 300 instances agree with the nested "
          f"oracle, {elapsed:.1f}s")
