"""Consistency test for regression reports.

Regression errors live on a continuum, so there is no count lattice to
search. Instead the report reduces to a window A on a = mae and a window
M on m = mse, tested once against the region that error vectors reach:

  range        each reported interval is clipped to its score's range
               (mae, mse, rmse >= 0 and r2 <= 1)
  rmse_mse     M = mse ∩ rmse^2 is nonempty
  r2_identity  M ∩ [(1 - r2_hi) Var(y), (1 - r2_lo) Var(y)] is nonempty
  power_mean   min(A)^2 <= max(M)
  sample_bound min(M) <= N max(A)^2, N = n_samples; without N, only
               max(A) = 0 forces min(M) = 0

Lemma: N real residuals reach (a, m) iff a >= 0 and a^2 <= m <= N a^2.
  - (sum |e_i|)^2 <= N sum e_i^2 by Cauchy-Schwarz, and sum e_i^2 <=
    (sum |e_i|)^2 because the cross terms are >= 0.
  - Conversely, one entry x = a + (N-1)t/N and N - 1 entries y = a - t/N,
    0 <= t <= N a, have mean a and mean square a^2 + (N-1)t^2/N^2, which
    covers [a^2, N a^2].
  - Predictions are free, so rmse^2 = m and r2 = 1 - m/Var(y) add only
    their identities.
Both ends of [a^2, N a^2] increase with a, so some a in A reaches M iff
the last two tests pass: the test of the joint window is exact. Without
N, a large enough N reaches any m >= a^2 > 0, so it is exact over every
N. The r2 identity holds only under the population variance convention
(divisor N); see RegressionContext.
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
    "regression": "one (mae, mse) window from the reported mae, mse, rmse "
                  "and r2, tested against mae^2 <= mse <= N mae^2",
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
    would produce false alarms. n_samples is the N of mse <= N mae^2 and
    is recorded in the result evidence.
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


def check_regression(ctx: RegressionContext, scores: ScoreReport,
                     uncertainty: Uncertainty) -> ConsistencyResult:
    """Decide whether reported regression scores can coexist.

    Each reported value v becomes the closed interval
    [v - radius, v + radius]; the relations above are then checked in
    order, and the first violated one is named in the evidence together
    with the intervals or bounds that clash. power_mean names as
    `mse_source` the reported score (mse, rmse or r2) that sets max(M).
    There is no witness for regression yet, so a consistent verdict
    carries witness=None.

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

    # range: clip each reported interval to the score's theoretical range;
    # an empty clip means the value cannot be real no matter the others.
    intervals: dict[str, RationalInterval] = {}
    for score_id in (s for s in REGRESSION_SCORE_IDS if s in scores):
        value = scores.value(score_id)
        radius = uncertainty.radius_for(score_id)
        reported = RationalInterval.closed(value - radius, value + radius)
        intervals[score_id] = reported.intersect(_VALID_RANGES[score_id])
        if intervals[score_id].is_empty:
            return inconsistent("range", {
                "score": score_id,
                "reported": str(value),
                "interval": interval_payload(reported),
                "valid_range": interval_payload(_VALID_RANGES[score_id]),
            })

    # The window M on mse: each reported encoding of mse narrows it, and
    # mse_source follows the encoding that last lowered its upper end.
    window, mse_source = intervals.get("mse", _VALID_RANGES["mse"]), "mse"
    if "rmse" in intervals:
        rmse = intervals["rmse"]
        rmse_sq = RationalInterval.closed(rmse.lo ** 2, rmse.hi ** 2)
        narrowed = window.intersect(rmse_sq)
        if narrowed.is_empty:  # only a reported mse can clash with rmse^2
            return inconsistent("rmse_mse", {
                "rmse_squared": interval_payload(rmse_sq),
                "mse": interval_payload(window),
            })
        if narrowed.hi != window.hi:
            mse_source = "rmse"
        window = narrowed
    if "r2" in intervals:
        var, r2 = ctx.target_variance, intervals["r2"]
        narrowed = window.intersect(RationalInterval.closed(
            (1 - r2.hi) * var, (1 - r2.lo) * var))
        if narrowed.is_empty:
            # [1 - hi/Var, 1 - lo/Var]; without mse or rmse the window is
            # [0, +inf), so the implied interval is open below
            implied = RationalInterval(
                None if window.hi is None else 1 - window.hi / var,
                1 - window.lo / var)
            return inconsistent("r2_identity", {
                "implied_r2": interval_payload(implied),
                "reported_r2": interval_payload(r2),
                "target_variance": str(var),
            })
        if narrowed.hi != window.hi:
            mse_source = "r2"
        window = narrowed

    # The region a^2 <= m <= N a^2 over the window A on mae.
    if "mae" in intervals:
        mae = intervals["mae"]
        mae_sq_min = mae.lo ** 2
        if window.hi is not None and mae_sq_min > window.hi:
            return inconsistent("power_mean", {
                "mae_squared_min": str(mae_sq_min),
                "mse_max": str(window.hi),
                "mse_source": mse_source,
            })
        if ctx.n_samples is not None:
            n_mae_sq_max = ctx.n_samples * mae.hi ** 2
        else:  # for every N, only m = 0 is reachable at a = 0
            n_mae_sq_max = 0 if mae.hi == 0 else None
        if n_mae_sq_max is not None and window.lo > n_mae_sq_max:
            return inconsistent("sample_bound", {
                "mse_min": str(window.lo),
                "n_mae_squared_max": str(n_mae_sq_max),
            })

    return ConsistencyResult(False, PROCEDURE_ID,
                             evidence=base or None)
