"""Single-testset decisions: worked examples, the feasible region, and the
properties that make the verdict trustworthy (oracle agreement and the two
monotonicity laws)."""

import random
from fractions import Fraction

import pytest

from scoresleuth.binary import check_single_testset, compute_targets, feasible_region
from scoresleuth.errors import RegionTooLarge, UnknownScoreId
from scoresleuth.model import ScoreReport, Testset, Uncertainty
from scoresleuth.oracle import brute_force_single
from scoresleuth.scores import default_registry

F = Fraction


def U(k):
    return Uncertainty(F(1, 10 ** k))


TEXTBOOK = ScoreReport.of(acc="0.8464", sens="0.81", f1="0.4894")


def test_textbook_report_consistent_with_witness():
    res = check_single_testset(Testset(100, 1000), TEXTBOOK, U(4))
    assert not res.inconsistency
    assert res.witness == {"tp": 81, "tn": 850}
    assert res.procedure == "single_testset"


def test_textbook_accuracy_perturbed():
    scores = ScoreReport.of(acc="0.8474", sens="0.81", f1="0.4894")
    res = check_single_testset(Testset(100, 1000), scores, U(4))
    assert res.inconsistency
    assert res.witness is None


def test_textbook_wrong_p():
    res = check_single_testset(Testset(110, 1000), TEXTBOOK, U(4))
    assert res.inconsistency


def test_perfect_classifier():
    res = check_single_testset(Testset(1, 1), ScoreReport.of(acc="1.0"), U(4))
    assert not res.inconsistency and res.witness == {"tp": 1, "tn": 1}


def test_value_out_of_range_is_verdict_not_exception():
    res = check_single_testset(Testset(5, 5), ScoreReport.of(acc="1.5"), U(4))
    assert res.inconsistency
    assert res.evidence["score"] == "acc"
    assert "theoretical_range" in res.evidence


def test_unknown_score_id():
    with pytest.raises(UnknownScoreId):
        check_single_testset(Testset(5, 5), ScoreReport.of(accuracy="0.5"), U(2))


def test_compute_targets_intersects_range():
    targets, violation = compute_targets(
        ScoreReport.of(acc="1.0"), U(2), default_registry())
    assert violation is None
    assert targets["acc"].hi == 1  # clipped at the theoretical maximum


def test_feasible_region_sens_pins_tp():
    region = feasible_region(Testset(100, 1000), ScoreReport.of(sens="0.81"), U(4))
    assert len(region) == 1001
    assert all(tp == 81 for tp, _ in region)
    assert region == sorted(region)


def test_feasible_region_small_acc():
    region = feasible_region(Testset(2, 2), ScoreReport.of(acc="0.5"), U(2))
    assert region == [(0, 2), (1, 1), (2, 0)]
    assert feasible_region(Testset(2, 2), ScoreReport.of(acc="0.3"), U(2)) == []


def test_feasible_region_cap():
    with pytest.raises(RegionTooLarge):
        feasible_region(Testset(100, 1000), ScoreReport.of(acc="0.5"), U(1), cap=10)


def test_oracle_agreement_random():
    rng = random.Random(20260815)
    ids = ["acc", "sens", "spec", "ppv", "f1", "bacc", "mcc", "gm", "fm", "youden"]
    for _ in range(250):
        p, n = rng.randint(1, 25), rng.randint(1, 25)
        chosen = rng.sample(ids, rng.randint(1, 4))
        rep = ScoreReport({sid: f"{rng.random():.3f}" for sid in chosen})
        k = rng.choice([2, 3, 4])
        engine = check_single_testset(Testset(p, n), rep, U(k))
        oracle = brute_force_single(Testset(p, n), rep, U(k))
        assert engine.inconsistency == oracle.inconsistency, (p, n, dict(rep.items()), k)
        if not engine.inconsistency:
            w = (engine.witness["tp"], engine.witness["tn"])
            assert w == oracle.witnesses[0]  # both enumerate ascending
            assert feasible_region(Testset(p, n), rep, U(k)) == oracle.witnesses


def test_epsilon_monotonicity():
    rng = random.Random(7)
    for _ in range(120):
        p, n = rng.randint(1, 20), rng.randint(1, 20)
        rep = ScoreReport({"acc": f"{rng.random():.3f}",
                           "sens": f"{rng.random():.3f}"})
        narrow = check_single_testset(Testset(p, n), rep, U(4))
        wide = check_single_testset(Testset(p, n), rep, U(2))
        if not narrow.inconsistency:
            assert not wide.inconsistency


def test_score_set_monotonicity():
    rng = random.Random(8)
    for _ in range(120):
        p, n = rng.randint(1, 20), rng.randint(1, 20)
        entries = {"acc": f"{rng.random():.3f}", "sens": f"{rng.random():.3f}",
                   "spec": f"{rng.random():.3f}"}
        full = check_single_testset(Testset(p, n), ScoreReport(entries), U(3))
        fewer = {k: entries[k] for k in ("acc", "sens")}
        sub = check_single_testset(Testset(p, n), ScoreReport(fewer), U(3))
        if not full.inconsistency:
            assert not sub.inconsistency  # dropping constraints cannot flag
