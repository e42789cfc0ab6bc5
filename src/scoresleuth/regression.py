"""Consistency test for regression reports.

The classification checks search integer confusion counts; regression
errors live on a continuum, so there is no lattice to enumerate. What
remains are exact relations that any genuine (mae, mse, rmse, r2)
quadruple must satisfy, tested as closed rational intervals around the
reported values:

  range        mae >= 0, mse >= 0, rmse >= 0, r2 <= 1
  power_mean   mae^2 <= mse (quadratic mean dominates arithmetic mean)
  rmse_mse     rmse^2 = mse, as interval intersection
  r2_identity  r2 = 1 - mse / Var(y), as interval intersection

All conditions are necessary, none sufficient: a violation proves the
report wrong, a pass proves nothing. That asymmetry matches the rest of
the library. The r2 identity holds only under the population variance
convention (divisor N); see RegressionContext.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import MissingVariance, SpecError, UnknownScoreId
from .intervals import RationalInterval, interval_payload
from .model import ConsistencyResult, ScoreReport, Uncertainty, as_fraction

PROCEDURE_ID = "regression"

PROCEDURES = {
    "regression": "interval tests of the exact relations among mae, mse, "
                  "rmse and r2",
}

#: Recognized regression score ids, in canonical checking order.
REGRESSION_SCORE_IDS = ("mae", "mse", "rmse", "r2")

_VALID_RANGES = {
    "mae": RationalInterval.at_least(0),
    "mse": RationalInterval.at_least(0),
    "rmse": RationalInterval.at_least(0),
    "r2": RationalInterval.at_most(1),
}


@dataclass(frozen=True)
class RegressionContext:
    """Experimental context of a regression report.

    target_variance is the *population* variance of the target vector
    (divisor N). A source quoting the sample convention (divisor N - 1)
    must be converted by the factor (N - 1) / N first; the r2 identity is
    exact only under one fixed convention, and silently mixing the two
    would produce false alarms. n_samples is recorded in the result
    evidence but no current relation uses it.
    """

    n_samples: Optional[int] = None
    target_variance: Optional[Fraction] = None

    def __post_init__(self):
        if self.n_samples is not None:
            n = self.n_samples
            if isinstance(n, bool) or not isinstance(n, int) or n < 2:
                raise SpecError(
                    f"n_samples must be an integer >= 2, got {n!r}")
        if self.target_variance is not None:
            var = as_fraction(self.target_variance)
            if var <= 0:
                raise SpecError(
                    f"target variance must be positive, got {var!s}")
            object.__setattr__(self, "target_variance", var)


def _square(interval: RationalInterval) -> RationalInterval:
    """x -> x^2 over an interval already clipped to x >= 0."""
    return RationalInterval.closed(interval.lo * interval.lo,
                                   interval.hi * interval.hi)


def check_regression(ctx: RegressionContext, scores: ScoreReport,
                     uncertainty: Uncertainty) -> ConsistencyResult:
    """Decide whether reported regression scores can coexist.

    Each reported value v becomes the closed interval
    [v - radius, v + radius]; the relations above are then checked in
    order, and the first violated one is named in the evidence together
    with the intervals that clash. There is no count witness for
    regression, so a consistent verdict carries witness=None.

    Raises MissingVariance when r2 is reported without a target variance
    in the context, and UnknownScoreId for ids outside
    {mae, mse, rmse, r2}.
    """
    for score_id in scores.ids:
        if score_id not in _VALID_RANGES:
            raise UnknownScoreId(
                f"{score_id!r} is not a regression score id "
                f"(expected one of {', '.join(REGRESSION_SCORE_IDS)})")
    if "r2" in scores and ctx.target_variance is None:
        raise MissingVariance(
            "r2 was reported but the regression context carries no "
            "target variance; r2 = 1 - mse/Var(y) cannot be checked")

    base = {}
    if ctx.n_samples is not None:
        base["n_samples"] = ctx.n_samples

    def inconsistent(relation: str, detail: dict) -> ConsistencyResult:
        return ConsistencyResult(
            True, PROCEDURE_ID,
            evidence={"relation": relation, **detail, **base})

    intervals: dict[str, RationalInterval] = {}
    for score_id, value in scores.items():
        radius = uncertainty.radius_for(score_id) + uncertainty.solver_slack
        intervals[score_id] = RationalInterval.closed(
            value - radius, value + radius)

    # range: clip each interval to the score's theoretical range; an empty
    # clip means the reported value cannot be real no matter the others.
    for score_id in REGRESSION_SCORE_IDS:
        if score_id not in intervals:
            continue
        clipped = intervals[score_id].intersect(_VALID_RANGES[score_id])
        if clipped.is_empty:
            return inconsistent("range", {
                "score": score_id,
                "reported": str(scores.value(score_id)),
                "interval": interval_payload(intervals[score_id]),
                "valid_range": interval_payload(_VALID_RANGES[score_id]),
            })
        intervals[score_id] = clipped

    # power_mean: the smallest mae^2 the mae interval allows must not
    # exceed the largest available mse. When mse itself is absent the
    # squared rmse interval encodes it exactly (mse = rmse^2).
    if "mae" in intervals:
        mae_sq_min = intervals["mae"].lo * intervals["mae"].lo
        for source in ("mse", "rmse"):
            if source not in intervals:
                continue
            mse_max = intervals[source].hi
            if source == "rmse":
                mse_max = mse_max * mse_max
            if mae_sq_min > mse_max:
                return inconsistent("power_mean", {
                    "mae_squared_min": str(mae_sq_min),
                    "mse_max": str(mse_max),
                    "mse_source": source,
                })

    # rmse_mse: the same quantity reported twice must overlap.
    if "rmse" in intervals and "mse" in intervals:
        rmse_sq = _square(intervals["rmse"])
        if rmse_sq.intersect(intervals["mse"]).is_empty:
            return inconsistent("rmse_mse", {
                "rmse_squared": interval_payload(rmse_sq),
                "mse": interval_payload(intervals["mse"]),
            })

    # r2_identity: r2 = 1 - mse/Var(y). Every reported encoding of mse
    # constrains the true one, so intersect them all; after rmse_mse
    # passed this intersection is never empty.
    if "r2" in intervals:
        mse_info = _VALID_RANGES["mse"]
        if "mse" in intervals:
            mse_info = mse_info.intersect(intervals["mse"])
        if "rmse" in intervals:
            mse_info = mse_info.intersect(_square(intervals["rmse"]))
        # without mse or rmse, mse_info is [0, +inf) and so is its scaling
        implied = RationalInterval.point(1).sub(
            mse_info.scale(1 / ctx.target_variance))
        if implied.intersect(intervals["r2"]).is_empty:
            return inconsistent("r2_identity", {
                "implied_r2": interval_payload(implied),
                "reported_r2": interval_payload(intervals["r2"]),
                "target_variance": str(ctx.target_variance),
            })

    return ConsistencyResult(False, PROCEDURE_ID,
                             evidence=base or None)
