"""Regression-score consistency: the four reported ids (mae, mse, rmse,
r2) are tied together by exact identities, and a report violating any of
them cannot have come from real predictions."""

import math
import random
from fractions import Fraction

import pytest

from scoresleuth.errors import MissingVariance, SpecError, UnknownScoreId
from scoresleuth.intervals import RationalInterval
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


def test_implied_r2_from_a_bounded_mse_interval():
    # mse in [0.9999, 1.0001] and Var(y) = 4 imply r2 in
    # [1 - 1.0001/4, 1 - 0.9999/4].
    res = check_regression(RegressionContext(target_variance=4),
                           ScoreReport.of(mse="1.0", r2="0.8"), U(4))
    assert res.evidence["implied_r2"] == ["29999/40000", "30001/40000"]
    # mse clipped at 0 gives an implied r2 interval that ends at 1
    res = check_regression(RegressionContext(target_variance=1),
                           ScoreReport.of(mse="0.0", r2="0.5"), U(4))
    assert res.evidence["implied_r2"] == ["9999/10000", "1"]


def test_r2_alone_implies_an_interval_open_below():
    # Without mse or rmse, mse is only known to be >= 0, so the implied r2
    # interval is (-inf, 1]: no r2 inside its valid range can clash with it.
    for extra in ({}, {"mae": "3.0"}):
        res = check_regression(RegressionContext(target_variance=4),
                               ScoreReport.of(r2="-1000.0", **extra), U(4))
        assert not res.inconsistency


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


def test_sample_bound_caps_mse_at_n_mae_squared():
    # mse <= N mae^2: at N = 10, mae <= 0.11 allows mse <= 0.121 < 0.49
    res = check_regression(RegressionContext(n_samples=10),
                           ScoreReport.of(mae="0.10", mse="0.50"), U(2))
    assert res.inconsistency
    assert res.evidence == {"relation": "sample_bound", "mse_min": "49/100",
                            "n_mae_squared_max": "121/1000",
                            "n_samples": 10}
    assert not reference_flags(RegressionContext(n_samples=10),
                               ScoreReport.of(mae="0.10", mse="0.50"), U(2))


def test_r2_caps_mse_below_mae_squared():
    # r2 >= 0.98 at Var(y) = 1 gives mse <= 0.02 < 0.49^2
    ctx = RegressionContext(target_variance=1)
    report = ScoreReport.of(mae="0.50", r2="0.99")
    res = check_regression(ctx, report, U(2))
    assert res.inconsistency
    assert res.evidence == {"relation": "power_mean",
                            "mae_squared_min": "2401/10000",
                            "mse_max": "1/50", "mse_source": "r2"}
    assert not reference_flags(ctx, report, U(2))


def test_zero_mae_forces_zero_mse_without_n():
    report = ScoreReport.of(mae="0", mse="0.5")
    res = check_regression(RegressionContext(), report, Uncertainty(0))
    assert res.inconsistency
    assert res.evidence == {"relation": "sample_bound", "mse_min": "1/2",
                            "n_mae_squared_max": "0"}
    assert not reference_flags(RegressionContext(), report, Uncertainty(0))
    # any positive mae lets a large enough N reach the mse
    assert not check_regression(RegressionContext(),
                                ScoreReport.of(mae="0.001", mse="0.5"),
                                Uncertainty(0)).inconsistency


def test_rmse_mse_is_checked_before_power_mean():
    res = check_regression(RegressionContext(),
                           ScoreReport.of(mae="3.0", mse="1.0", rmse="2.0"),
                           U(4))
    assert res.evidence["relation"] == "rmse_mse"


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


# ----------------------------------------------------------- region ends

def residual_report(errs, k, mode, var=None):
    n = len(errs)
    mae = sum(abs(e) for e in errs) / n
    mse = sum(e * e for e in errs) / n
    exact = {"mae": mae, "mse": mse, "rmse": sqrt_fraction(mse)}
    if var is not None:
        exact["r2"] = 1 - mse / var
    return {sid: render_decimal(v, k, mode) for sid, v in exact.items()}


def test_region_ends_and_two_level_vectors_are_consistent():
    """The equal vector (mse = mae^2), the one-entry vector (mse =
    N mae^2) and two-level vectors in between, rendered to k decimals,
    are never flagged with their N known."""
    rng = random.Random(4471)
    for _ in range(300):
        n = rng.randint(2, 30)
        a = F(rng.randint(0, 400), rng.randint(1, 60))
        t = F(rng.randint(0, 1000), 1000) * n * a
        vectors = [[a] * n, [n * a] + [F(0)] * (n - 1),
                   [a + (n - 1) * t / n] + [a - t / n] * (n - 1)]
        for errs in vectors:
            assert sum(abs(e) for e in errs) / n == a
            k = rng.randint(1, 4)
            var = F(rng.randint(1, 400), rng.randint(1, 20))
            entries = residual_report(errs, k, rng.choice(["round", "truncate"]),
                                      var if rng.random() < 0.5 else None)
            ctx = RegressionContext(n_samples=n, target_variance=var)
            res = check_regression(ctx, ScoreReport(entries), U(k))
            assert not res.inconsistency, (n, errs, entries, res.evidence)


# -------------------------------------- the four-relation check as reference

def reference_flags(ctx, scores, uncertainty):
    """The earlier check: four relation passes (range, power_mean against
    mse and against rmse^2 separately, rmse_mse, r2_identity), each on
    part of the report. True when it flags the report."""
    valid = {"mae": RationalInterval.at_least(0),
             "mse": RationalInterval.at_least(0),
             "rmse": RationalInterval.at_least(0),
             "r2": RationalInterval.at_most(1)}

    def square(iv):
        return RationalInterval.closed(iv.lo * iv.lo, iv.hi * iv.hi)

    intervals = {}
    for score_id, value in scores.items():
        radius = uncertainty.radius_for(score_id)
        intervals[score_id] = RationalInterval.closed(value - radius,
                                                      value + radius)
    for score_id in ("mae", "mse", "rmse", "r2"):
        if score_id in intervals:
            intervals[score_id] = intervals[score_id].intersect(valid[score_id])
            if intervals[score_id].is_empty:
                return True
    if "mae" in intervals:
        mae_sq_min = intervals["mae"].lo * intervals["mae"].lo
        for source in ("mse", "rmse"):
            if source in intervals:
                mse_max = intervals[source].hi
                if source == "rmse":
                    mse_max = mse_max * mse_max
                if mae_sq_min > mse_max:
                    return True
    if "rmse" in intervals and "mse" in intervals:
        if square(intervals["rmse"]).intersect(intervals["mse"]).is_empty:
            return True
    if "r2" in intervals:
        mse_info = valid["mse"]
        if "mse" in intervals:
            mse_info = mse_info.intersect(intervals["mse"])
        if "rmse" in intervals:
            mse_info = mse_info.intersect(square(intervals["rmse"]))
        var = ctx.target_variance
        implied = RationalInterval(
            None if mse_info.hi is None else 1 - mse_info.hi / var,
            1 - mse_info.lo / var)
        if implied.intersect(intervals["r2"]).is_empty:
            return True
    return False


def test_every_report_the_reference_flags_is_still_flagged():
    rng = random.Random(90210)
    counts = {"reference": 0, "only_now": 0}
    for _ in range(2500):
        n = rng.choice([None, rng.randint(2, 30)])
        var = rng.choice([None, F(rng.randint(1, 200), rng.randint(1, 50))])
        a = rng.uniform(-0.05, 2)
        m = a * a * math.exp(rng.uniform(-0.3, 3.7)) + rng.uniform(-0.05, 0.05)
        # rmse and r2 agree with mse, or are drawn on their own
        candidates = {"mae": a, "mse": m,
                      "rmse": math.sqrt(abs(m)) * rng.choice(
                          [1, rng.uniform(0.5, 2)])}
        if var is not None:
            candidates["r2"] = rng.choice([1 - m / float(var),
                                           rng.uniform(-1.5, 1.05)])
        pick = rng.sample(sorted(candidates), rng.randint(1, len(candidates)))
        k = rng.randint(1, 4)
        report = ScoreReport({sid: f"{candidates[sid]:.{k}f}" for sid in pick})
        ctx = RegressionContext(n_samples=n, target_variance=var)
        flagged = check_regression(ctx, report, U(k)).inconsistency
        if reference_flags(ctx, report, U(k)):
            counts["reference"] += 1
            assert flagged, (ctx, report, k)
        elif flagged:
            counts["only_now"] += 1
    # the draw exercises both the shared relations and the new ones
    assert counts["reference"] >= 200 and counts["only_now"] >= 50, counts
