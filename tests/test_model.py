"""Domain types: validation, uncertainty inference, reports, JSON payloads."""

import time
from fractions import Fraction

import pytest

from scoresleuth.errors import (
    EmptyExperiment,
    ExtraneousAggregationMode,
    FoldTotalsMismatch,
    InvalidFoldCount,
    MissingAggregationMode,
    ParseError,
    SpecError,
)
from scoresleuth.model import (
    MAX_POWER_DIGITS,
    AggregationMode,
    ConsistencyResult,
    DatasetSpec,
    ExperimentSpec,
    FoldingScheme,
    MulticlassTestset,
    ScoreReport,
    Testset,
    as_fraction,
    experiment_from_payload,
    experiment_to_payload,
    infer_radius_from_text,
    infer_uncertainty,
    report_from_payload,
    validate_experiment,
)

F = Fraction
MOS = AggregationMode.MEAN_OF_SCORES
SOM = AggregationMode.SCORE_OF_MEANS


class TestTestsets:
    def test_valid(self):
        ts = Testset(100, 1000)
        assert ts.size == 1100

    def test_empty_rejected(self):
        with pytest.raises(EmptyExperiment):
            Testset(0, 0)

    def test_negative_rejected(self):
        with pytest.raises(SpecError):
            Testset(-1, 5)

    def test_multiclass(self):
        ts = MulticlassTestset((3, 3, 3))
        assert ts.class_counts == (3, 3, 3)
        with pytest.raises(SpecError):
            MulticlassTestset((5,))
        with pytest.raises(EmptyExperiment):
            MulticlassTestset((0, 0))


class TestValidateExperiment:
    def test_single_unfolded_valid(self):
        spec = ExperimentSpec((DatasetSpec(Testset(100, 1000)),))
        assert validate_experiment(spec) is spec

    def test_fold_totals_mismatch(self):
        folds = (Testset(3, 3), Testset(3, 3))
        spec = ExperimentSpec(
            (DatasetSpec(Testset(5, 6), FoldingScheme("known_folds", folds=folds)),),
            fold_aggregation=SOM)
        with pytest.raises(FoldTotalsMismatch):
            validate_experiment(spec)

    def test_missing_fold_aggregation(self):
        folds = (Testset(2, 2), Testset(2, 2))
        spec = ExperimentSpec(
            (DatasetSpec(Testset(4, 4), FoldingScheme("known_folds", folds=folds)),))
        with pytest.raises(MissingAggregationMode):
            validate_experiment(spec)

    def test_extraneous_fold_aggregation(self):
        spec = ExperimentSpec((DatasetSpec(Testset(4, 4)),), fold_aggregation=MOS)
        with pytest.raises(ExtraneousAggregationMode):
            validate_experiment(spec)

    def test_multiple_datasets_need_mode(self):
        spec = ExperimentSpec((DatasetSpec(Testset(1, 1)), DatasetSpec(Testset(2, 2))))
        with pytest.raises(MissingAggregationMode):
            validate_experiment(spec)

    def test_stratified_empty_fold(self):
        spec = ExperimentSpec(
            (DatasetSpec(Testset(1, 0), FoldingScheme("stratified_kfold", k=2)),),
            fold_aggregation=MOS)
        with pytest.raises(InvalidFoldCount):
            validate_experiment(spec)

    def test_stratified_error_names_the_dataset(self):
        """Validation applies the stratified split rule itself and prefixes
        its message with the dataset's index."""
        spec = ExperimentSpec(
            (DatasetSpec(Testset(4, 4)),
             DatasetSpec(Testset(2, 1), FoldingScheme.stratified(3))),
            fold_aggregation=MOS, dataset_aggregation=MOS)
        with pytest.raises(InvalidFoldCount, match=r"^dataset 1: stratified "
                           r"split of totals \(2, 1\) into k=3 folds leaves "
                           r"a fold empty$"):
            validate_experiment(spec)

    def test_unknown_aggregation_mode_is_a_parse_error(self):
        with pytest.raises(ParseError, match=r"^fold_aggregation must be one "
                           r"of \['score_of_means', 'mean_of_scores'\], "
                           r"got 'bogus'$"):
            ExperimentSpec((DatasetSpec(Testset(1, 1)),),
                           fold_aggregation="bogus")
        with pytest.raises(ParseError, match="^dataset_aggregation must"):
            ExperimentSpec((DatasetSpec(Testset(1, 1)),),
                           dataset_aggregation="median")

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError):
            FoldingScheme("bootstrap", k=3)


def test_infer_radius_from_text():
    assert infer_radius_from_text("0.8464") == F(1, 10000)
    assert infer_radius_from_text("0.81") == F(1, 100)
    assert infer_radius_from_text("1") == 1
    assert infer_radius_from_text("5e-3") == F(1, 1000)
    with pytest.raises(ParseError):
        infer_radius_from_text("abc")


def test_as_fraction():
    assert as_fraction("0.8464") == F(8464, 10000)
    assert as_fraction("1/3") == F(1, 3)
    assert as_fraction(0.5) == F(1, 2)
    assert as_fraction(3) == 3
    with pytest.raises(ParseError):
        as_fraction(True)
    with pytest.raises(ParseError):
        as_fraction("not a number")


def test_powers_of_ten_stop_at_the_int_conversion_limit():
    # 10**4299 has 4300 digits, CPython's default int/str conversion limit;
    # 10**4300 has one more. The check reads the exponent's text, so even
    # an exponent of a billion is refused at once, before Fraction would
    # build its power of ten.
    assert MAX_POWER_DIGITS == 4300
    assert as_fraction("1e-4299") == F(1, 10 ** 4299)
    assert as_fraction("2E+4_299") == 2 * 10 ** 4299
    assert infer_radius_from_text("1e-4299") == F(1, 10 ** 4299)
    assert infer_radius_from_text("7e4299") == 10 ** 4299
    start = time.perf_counter()
    for text in ("1e-4300", "1e4300", "1e-999999999", "1e-" + "9" * 5000):
        with pytest.raises(ParseError):
            as_fraction(text)
        with pytest.raises(ParseError):
            infer_radius_from_text(text)
    assert time.perf_counter() - start < 1
    # the radius 10**-(digits after the point - exponent) has its own limit
    assert as_fraction("0.5e-4299") == F(5, 10 ** 4300)
    with pytest.raises(ParseError):
        infer_radius_from_text("0.5e-4299")


class TestScoreReport:
    def test_values_and_texts(self):
        rep = ScoreReport({"acc": "0.8464", "sens": F(81, 100)})
        assert rep.value("acc") == F(8464, 10000)
        assert rep.text("acc") == "0.8464"
        assert rep.text("sens") is None
        assert "acc" in rep and len(rep) == 2

    def test_empty_rejected(self):
        with pytest.raises(SpecError):
            ScoreReport({})

    def test_immutable(self):
        rep = ScoreReport.of(acc="0.5")
        with pytest.raises(AttributeError):
            rep.extra = 1



def test_infer_uncertainty_per_score():
    rep = ScoreReport({"acc": "0.8464", "sens": "0.81"})
    unc = infer_uncertainty(rep)
    assert unc.radius_for("acc") == F(1, 10000)
    assert unc.radius_for("sens") == F(1, 100)
    with pytest.raises(ParseError):
        infer_uncertainty(ScoreReport({"acc": 0.5}))


def test_payload_round_trips():
    folds = (Testset(3, 3), Testset(2, 3))
    spec = ExperimentSpec(
        (DatasetSpec(Testset(5, 6), FoldingScheme("known_folds", folds=folds)),
         DatasetSpec(MulticlassTestset((2, 2, 2)))),
        fold_aggregation=MOS, dataset_aggregation=MOS)
    assert experiment_from_payload(experiment_to_payload(spec)) == spec

    back = report_from_payload({"acc": "0.8464", "sens": F(81, 100)})
    assert back == ScoreReport({"acc": "0.8464", "sens": F(81, 100)})
    assert back.text("acc") == "0.8464" and back.text("sens") is None


def test_experiment_payload_errors():
    with pytest.raises(ParseError):
        experiment_from_payload({"datasets": "nope"})
    with pytest.raises(ParseError):
        experiment_from_payload(
            {"datasets": [{"testset": {"class_counts": 5}}]})
    with pytest.raises(ParseError):
        experiment_from_payload(
            {"datasets": [{"testset": {"p": 5, "n": 5},
                           "folding": {"kind": "known_folds", "folds": 5}}],
             "fold_aggregation": "mean_of_scores"})
    with pytest.raises(ParseError):
        experiment_from_payload({"datasets": [{"testset": {"p": 1}}]})
    with pytest.raises(ParseError):
        experiment_from_payload(
            {"datasets": [{"testset": {"p": 1, "n": 1}}],
             "fold_aggregation": "median_of_scores"})


def test_consistency_result_shape():
    res = ConsistencyResult(False, "single_testset", witness={"tp": 1, "tn": 1})
    assert res.consistent
    d = res.to_dict()
    assert d == {"inconsistency": False, "procedure": "single_testset",
                 "witness": {"tp": 1, "tn": 1}, "evidence": None}
