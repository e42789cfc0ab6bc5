"""Multiclass scores: micro vs. macro averaging.

For C classes the confusion matrix has C*C cells, but the two standard
averages compress it drastically. Micro averaging pools one-vs-rest
counts, and every pooled quantity turns out to depend only on the trace
(the number of correct predictions). Each score is then a monotone
binary score of the trace, so the single-testset decision over t in
[0, N] settles a micro report. Macro averaging averages per-class
scores, which becomes an integer feasibility problem over the matrix,
except where a macro average equals its micro average: macro-acc and
macro-err on any classes, and every affine score on classes of one size.
Those are decided on the trace as well.

Score ids must say which average they mean: micro-sens, macro-f1, ...

Run:  python3 demos/03_multiclass.py
"""

from fractions import Fraction

from scoresleuth import (
    MulticlassTestset,
    NonlinearScoreUnsupported,
    ScoreReport,
    Uncertainty,
    UnsupportedExperiment,
    check_multiclass_dataset,
)

eps4 = Uncertainty(Fraction(1, 10 ** 4))
eps2 = Uncertainty(Fraction(1, 100))

testset = MulticlassTestset((3, 3, 3))  # nine samples, three classes

# --- micro: everything hangs on the trace ---------------------------------
report = ScoreReport.of(**{"micro-sens": "0.6667", "micro-spec": "0.8333"})
res = check_multiclass_dataset(testset, None, None, report, eps4)
print("micro-sens 0.6667 + micro-spec 0.8333 on (3,3,3):",
      "INCONSISTENT" if res.inconsistency else "consistent")
print("  witness trace:", res.witness["trace"],
      "pooled one-vs-rest counts:", res.witness["pooled"])

# trace/9 cannot be within 1e-4 of 0.5, so this report is impossible.
res = check_multiclass_dataset(testset, None, None,
                               ScoreReport.of(**{"micro-sens": "0.5"}), eps4)
print("micro-sens 0.5 on the same testset:            ",
      "INCONSISTENT" if res.inconsistency else "consistent")

# --- macro: a witness is a whole confusion matrix --------------------------
res = check_multiclass_dataset(MulticlassTestset((2, 2)), None, None,
                               ScoreReport.of(**{"macro-sens": "0.75"}), eps2)
print("\nmacro-sens 0.75 on (2,2):",
      "INCONSISTENT" if res.inconsistency else "consistent")
for row in res.witness["matrix"]:
    print("   ", row)

# On classes of one size, macro-sens is trace/N and macro-spec is
# (N + trace)/(2N) at C = 3, as their micro averages are: the trace
# decides the report, and the witness puts the trace on the diagonal.
balanced = MulticlassTestset((4, 4, 4))
report = ScoreReport.of(**{"macro-sens": "0.75", "macro-spec": "0.875"})
res = check_multiclass_dataset(balanced, None, None, report, eps4)
print("\nmacro-sens 0.75 + macro-spec 0.875 on (4,4,4):",
      "INCONSISTENT" if res.inconsistency else "consistent")
for row in res.witness["matrix"]:
    print("   ", row)

# macro-acc is (2*trace + (C-2)*N)/(C*N) on any classes, so with five
# classes of 100, macro-acc 0.90 puts trace/N in [0.725, 0.775], while
# macro-sens 0.61 puts it in [0.60, 0.62]: refuted without a search.
res = check_multiclass_dataset(
    MulticlassTestset((100,) * 5), None, None,
    ScoreReport.of(**{"macro-acc": "0.90", "macro-sens": "0.61"}), eps2)
print("macro-acc 0.90 + macro-sens 0.61 on 5 x 100:",
      "INCONSISTENT" if res.inconsistency else "consistent")
print("  evidence:", res.evidence)

# Macro means of non-affine scores (f1, mcc, ...) do not reduce to linear
# constraints, so the checker refuses rather than approximate.
try:
    check_multiclass_dataset(MulticlassTestset((2, 2)), None, None,
                             ScoreReport.of(**{"macro-f1": "0.5"}), eps2)
except NonlinearScoreUnsupported as exc:
    print("\nmacro-f1 refused:", exc)

# A bare id is ambiguous for multiclass data and is refused outright.
try:
    check_multiclass_dataset(testset, None, None,
                             ScoreReport.of(acc="0.9"), eps2)
except UnsupportedExperiment as exc:
    print("bare id refused: ", exc)
