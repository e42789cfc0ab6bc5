"""Regression reports: mae, mse, rmse and r2 are not free to disagree.

No counting argument exists for real-valued predictions, but the four
common regression scores still pin down one window on (mae, mse): rmse
squares to mse, and r2 = 1 - mse / Var(targets) (population variance).
N real residuals reach exactly the pairs with

  mae^2 <= mse <= N * mae^2

(the equal vector and the one-entry vector are the two ends), so the
checker names the first relation that fails:

  range         mae, mse, rmse >= 0 and r2 <= 1
  rmse_mse      rmse^2 == mse
  r2_identity   r2 == 1 - mse / Var(targets)
  power_mean    mae^2 <= mse
  sample_bound  mse <= N * mae^2, with N = n_samples when it is known

A report violating any of them cannot have come from real predictions,
whatever the model did.

Run:  python3 demos/04_regression.py
"""

from fractions import Fraction

from scoresleuth import (
    MissingVariance,
    RegressionContext,
    ScoreReport,
    Uncertainty,
    check_regression,
)

eps4 = Uncertainty(Fraction(1, 10 ** 4))


def show(label, ctx, entries):
    res = check_regression(ctx, ScoreReport(entries), eps4)
    verdict = "INCONSISTENT" if res.inconsistency else "consistent"
    detail = f"  ({res.evidence['relation']})" if res.inconsistency else ""
    print(f"{label:42s} {verdict}{detail}")
    return res


# A perfect fit: all errors zero, r2 exactly one.
show("mae=0, mse=0, r2=1, Var=4:",
     RegressionContext(target_variance=4),
     dict(mae="0.0", mse="0.0", r2="1.0"))

# The power-mean inequality: the mean absolute error can never exceed the
# root of the mean squared error, so mae=2 with mse=1 is impossible.
show("mae=2.0 with mse=1.0:", RegressionContext(),
     dict(mae="2.0", mse="1.0"))

# With N residuals, mse can be at most N * mae^2 (all the error in one
# sample). At N = 10, mae=0.10 allows mse up to 10 * 0.1001^2 ~ 0.1002,
# so mse=0.50 is impossible; with N unknown, a large enough N reaches it.
show("mae=0.10 with mse=0.50, N=10:", RegressionContext(n_samples=10),
     dict(mae="0.10", mse="0.50"))
show("mae=0.10 with mse=0.50, N unknown:", RegressionContext(),
     dict(mae="0.10", mse="0.50"))

# rmse must square to mse within the two intervals.
show("rmse=2.0 with mse=1.0:", RegressionContext(),
     dict(rmse="2.0", mse="1.0"))

# r2 is determined by mse once the target variance is known. With Var=4,
# mse=1 forces r2 = 1 - 1/4 = 0.75; reporting 0.8 is flagged, 0.75 is not.
ctx = RegressionContext(target_variance=4)
show("mse=1.0, r2=0.75, Var=4:", ctx, dict(mse="1.0", r2="0.75"))
show("mse=1.0, r2=0.80, Var=4:", ctx, dict(mse="1.0", r2="0.8"))

# Negative r2 merely means the model is worse than predicting the mean.
show("mse=3.0, r2=-2.0, Var=1:",
     RegressionContext(target_variance=1),
     dict(mse="3.0", r2="-2.0"))

# Checking r2 needs the target variance; without it the checker asks for
# the missing context instead of passing silently.
try:
    check_regression(RegressionContext(), ScoreReport.of(r2="0.5"), eps4)
except MissingVariance as exc:
    print("\nr2 without Var(targets):", exc)
