"""Regression-score consistency: the four reported ids (mae, mse, rmse,
r2) are tied together by exact identities, and a report violating any of
them cannot have come from real predictions."""

import random
from fractions import Fraction

import pytest

from scoresleuth.errors import MissingVariance, SpecError, UnknownScoreId
from scoresleuth.model import ScoreReport, Uncertainty
from scoresleuth.oracle import render_decimal
from scoresleuth.regression import RegressionContext, check_regression
from scoresleuth.values import sqrt_fraction

F = Fraction


def U(k):
    return Uncertainty(F(1, 10 ** k))


# ----------------------------------------------------------- worked examples

def test_perfect_fit_is_consistent():
    res = check_regression(RegressionContext(target_variance=4),
                           ScoreReport.of(mae="0.0", mse="0.0", r2="1.0"), U(4))
    assert not res.inconsistency
    assert res.witness is None  # interval reasoning certifies, never exhibits


def test_mae_exceeding_rmse_is_impossible():
    # mean(|e|)^2 <= mean(e^2) always (power-mean inequality)
    res = check_regression(RegressionContext(),
                           ScoreReport.of(mae="2.0", mse="1.0"), U(4))
    assert res.inconsistency
    assert res.evidence["relation"] == "power_mean"
    assert res.evidence["mse_source"] == "mse"


def test_r2_identity_holds():
    res = check_regression(RegressionContext(target_variance=4),
                           ScoreReport.of(mse="1.0", r2="0.75"), U(4))
    assert not res.inconsistency


def test_r2_identity_violated():
    res = check_regression(RegressionContext(target_variance=4),
                           ScoreReport.of(mse="1.0", r2="0.8"), U(4))
    assert res.inconsistency
    assert res.evidence["relation"] == "r2_identity"
    assert res.evidence["reported_r2"] is not None


# ------------------------------------------------------ errors and context

def test_r2_without_variance():
    with pytest.raises(MissingVariance):
        check_regression(RegressionContext(), ScoreReport.of(r2="0.5"), U(4))


def test_classification_ids_are_rejected():
    with pytest.raises(UnknownScoreId):
        check_regression(RegressionContext(), ScoreReport.of(acc="0.5"), U(4))


@pytest.mark.parametrize("kwargs", [
    dict(n_samples=1),
    dict(n_samples=True),
    dict(target_variance=0),
    dict(target_variance=-1),
])
def test_context_validation(kwargs):
    with pytest.raises(SpecError):
        RegressionContext(**kwargs)


def test_context_accepts_fraction_text_and_reports_n():
    ctx = RegressionContext(n_samples=10, target_variance="1/3")
    assert ctx.target_variance == F(1, 3)
    res = check_regression(ctx, ScoreReport.of(mae="0.1"), U(4))
    assert not res.inconsistency
    assert res.evidence == {"n_samples": 10}


# ------------------------------------------------------------- refutations

def test_negative_mse_fails_range():
    res = check_regression(RegressionContext(), ScoreReport.of(mse="-0.5"), U(4))
    assert res.inconsistency
    assert res.evidence["relation"] == "range"
    assert res.evidence["score"] == "mse"


def test_r2_above_one_fails_range():
    res = check_regression(RegressionContext(target_variance=4),
                           ScoreReport.of(r2="1.2"), U(4))
    assert res.inconsistency
    assert res.evidence["relation"] == "range"


def test_rmse_must_square_to_mse():
    res = check_regression(RegressionContext(),
                           ScoreReport.of(rmse="2.0", mse="1.0"), U(4))
    assert res.inconsistency
    assert res.evidence["relation"] == "rmse_mse"


def test_power_mean_via_rmse_when_mse_absent():
    res = check_regression(RegressionContext(),
                           ScoreReport.of(mae="2.0", rmse="1.0"), U(4))
    assert res.inconsistency
    assert res.evidence["relation"] == "power_mean"
    assert res.evidence["mse_source"] == "rmse"


def test_r2_identity_works_through_rmse():
    ok = check_regression(RegressionContext(target_variance=4),
                          ScoreReport.of(rmse="1.0", r2="0.75"), U(4))
    assert not ok.inconsistency
    bad = check_regression(RegressionContext(target_variance=4),
                           ScoreReport.of(rmse="1.0", r2="0.8"), U(4))
    assert bad.inconsistency
    assert bad.evidence["relation"] == "r2_identity"


def test_r2_alone_scales_the_unbounded_mse_range():
    # without mse or rmse the identity only knows mse >= 0, so the implied
    # r2 interval is (-inf, 1], which contains any legal r2
    res = check_regression(RegressionContext(target_variance=4),
                           ScoreReport.of(r2="0.5"), U(4))
    assert not res.inconsistency
    assert res.evidence is None


def test_negative_r2_is_legal():
    # Worse than predicting the mean is embarrassing, not impossible.
    res = check_regression(RegressionContext(target_variance=1),
                           ScoreReport.of(mse="3.0", r2="-2.0"), U(4))
    assert not res.inconsistency


# ------------------------------------------------------ no false alarms

def true_report(rng, n_range=(2, 30)):
    """Exact scores from synthetic predictions, rendered to k decimals."""
    n = rng.randint(*n_range)
    denom = rng.choice([1, 1, 2, 4, 10])
    targets = [F(rng.randint(-20, 20), denom) for _ in range(n)]
    preds = [t + F(rng.randint(-8, 8), denom) if rng.random() < 0.7
             else F(rng.randint(-20, 20), denom) for t in targets]
    errs = [p - t for p, t in zip(preds, targets)]
    mae = sum(abs(e) for e in errs) / n
    mse = sum(e * e for e in errs) / n
    mean_t = sum(targets) / n
    var = sum((t - mean_t) ** 2 for t in targets) / n
    k = rng.randint(1, 4)
    mode = rng.choice(["round", "truncate"])
    exact = {"mae": mae, "mse": mse, "rmse": sqrt_fraction(mse)}
    if var > 0:
        exact["r2"] = 1 - mse / var
    pick = rng.sample(sorted(exact), rng.randint(1, len(exact)))
    entries = {sid: render_decimal(exact[sid], k, mode) for sid in pick}
    ctx = RegressionContext(n_samples=n,
                            target_variance=var if var > 0 else None)
    return ctx, entries, k


def test_true_reports_never_flagged():
    rng = random.Random(20260815)
    for _ in range(200):
        ctx, entries, k = true_report(rng)
        res = check_regression(ctx, ScoreReport(entries), U(k))
        assert not res.inconsistency, (entries, k, res.evidence)


# ----------------------------------------------------------- monotonicity

def test_eps_and_score_set_monotonicity():
    rng = random.Random(7)
    for _ in range(150):
        entries = {
            "mae": f"{rng.uniform(0, 3):.3f}",
            "mse": f"{rng.uniform(0, 9):.3f}",
            "rmse": f"{rng.uniform(0, 3):.3f}",
            "r2": f"{rng.uniform(-1, 1):.3f}",
        }
        pick = rng.sample(list(entries), rng.randint(2, 4))
        sub = {k: entries[k] for k in pick}
        ctx = RegressionContext(target_variance=F(rng.randint(1, 40), 7))
        wide = check_regression(ctx, ScoreReport(sub), U(2))
        narrow = check_regression(ctx, ScoreReport(sub), U(3))
        if not narrow.inconsistency:
            assert not wide.inconsistency, sub
        if len(pick) > 2 and not narrow.inconsistency:
            drop = {k: sub[k] for k in pick[:-1]}
            fewer = check_regression(ctx, ScoreReport(drop), U(3))
            assert not fewer.inconsistency, sub
