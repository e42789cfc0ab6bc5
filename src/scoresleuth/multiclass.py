"""Consistency checking for multiclass experiments.

A C-class testset is described by its per-class sample counts c_1..c_C; an
outcome is an integer confusion matrix m[i][j] (true class i predicted as
class j) with row sums c_i. Reported scores must carry an averaging prefix:

* ``micro-<id>``: one-vs-rest counts are pooled over the classes before the
  base score is applied. The pooled counts collapse onto a single free
  variable, the trace t = sum(m[i][i]):

      TP = t,  FN = N - t,  FP = N - t,  TN = N*(C-1) - (N - t)

  with pooled totals p = N and n = N*(C-1). Both pooled tp and tn rise
  with t, so each score is a monotone binary score of t (_trace_score),
  and check_multiclass_micro decides a micro report exactly with the
  single-testset engine on Testset(N, 0).

* ``macro-<id>``: the base score is averaged over the C one-vs-rest views
  (tp_i = m[i][i], fp_i = sum of column i off the diagonal, tn_i by
  complement), so a macro average is a mean of binary scores over C
  leaves, as a fold mean is over k. Non-affine base scores are refused
  (NonlinearScoreUnsupported). An affine macro score equals its micro
  average on every matrix when it depends on the counts only through
  acc (macro-acc, macro-err), and every affine one does on a testset
  whose classes are all of one size (_macro_decide); such scores are
  decided on the trace alone, as micro fold means are. The rest go to
  `aggregate.solve_means`, whose rows are affine in the per-class
  (tp_i, fp_i); _matrix_rows adds the rows that make the views those of
  an actual matrix, and exact branch-and-bound decides them all.

Cross-validated multiclass datasets compose the same way binary ones do:
score-of-means pools to the parent testset, and mean-of-scores runs the OR
over fold layouts of `folds`, with each fold's trace (micro) or matrix
(macro) as variables; a macro fold mean is a mean over k folds of C
leaves, a micro fold mean an integer row over the k traces. Micro fold
means need the micro score's values at a fold's integer traces to lie on
one line with rational slope; micro_affine decides that exactly from the
values at t = 0 and t = 1 and an integer comparison at every other trace.
Folds of equal size share that line, so they enter a fold mean only
through their summed trace and are solved as one variable
(_micro_mean_system).
On folds of two or more samples it holds for every registry score except
jac, plr, nlr and gm (for C > 2); on a single-sample fold the two traces
always lie on a line.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from typing import Optional, Sequence

from .aggregate import solve_means
from .binary import _search, compute_targets
from .errors import (NonlinearScoreUnsupported, SpecError,
                     UnsupportedExperiment)
from .feasibility import SolveOutcome, integer_row, solve
from .folds import mos_verdict
from .model import (
    AggregationMode,
    ConsistencyResult,
    ExperimentSpec,
    FoldingScheme,
    MulticlassTestset,
    ScoreReport,
    Testset,
    Uncertainty,
)
from .scores import (ScoreDefinition, ScoreRegistry, default_registry,
                     require_linear)

# Nothing here calls it, but perfbench/tracing.py patches it in this
# module's namespace, so the name stays bound.
from .folds import iter_fold_configurations  # noqa: F401

MICRO_PREFIX = "micro-"
MACRO_PREFIX = "macro-"

PROCEDURES = {
    "multiclass_micro": "micro-averaged scores on one multiclass testset; "
                        "the single-testset decision over the pooled trace",
    "multiclass_macro": "macro-averaged scores on one multiclass testset; "
                        "the trace where they equal micro averages, then "
                        "integer feasibility over the confusion matrix",
    "multiclass_micro_mos": "fold means of micro-averaged scores",
    "multiclass_macro_mos": "fold means of macro-averaged scores; the fold "
                            "traces where they equal micro averages, then "
                            "integer feasibility over the matrices",
}


def split_average_prefix(score_id: str) -> tuple[str, str]:
    """("micro"|"macro"|"", base_id) for a reported multiclass score id."""
    if score_id.startswith(MICRO_PREFIX):
        return "micro", score_id[len(MICRO_PREFIX):]
    if score_id.startswith(MACRO_PREFIX):
        return "macro", score_id[len(MACRO_PREFIX):]
    return "", score_id


def micro_counts(trace: int, total: int, num_classes: int) -> dict:
    """Pooled one-vs-rest confusion counts for a given trace."""
    miss = total - trace
    return {"tp": trace, "fn": miss, "fp": miss,
            "tn": total * (num_classes - 1) - miss}


def _pooled_args(trace: int, total: int, num_classes: int) -> tuple:
    """(tp, tn, p, n) of the pooled one-vs-rest outcome at a given trace."""
    return (trace, total * (num_classes - 2) + trace, total,
            total * (num_classes - 1))


def micro_value(definition: ScoreDefinition, trace: int, total: int,
                num_classes: int):
    """Exact micro-averaged score at a given trace (None when undefined)."""
    return definition.value(*_pooled_args(trace, total, num_classes))


# ---------------------------------------------------------------------------
# micro scores as lines in the trace
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def micro_affine(definition: ScoreDefinition, total: int, num_classes: int):
    """Exact affine form of the micro-averaged score in the trace: (a, b)
    with rational a and b and value == a*t + b at every integer trace t in
    [0, total], or None when there is no such line. `total` is at least 1.

    Lemma: a fold-mean row only ever evaluates a micro score at the
    integer traces t = 0..total, so the score enters the row linearly iff
    its values there lie on one line with rational slope. The values at
    t = 0 and t = 1 fix that line, so both must be defined and rational;
    written as (A*t + B)/D with integers A, B and D > 0, the line is then
    checked against every t >= 2 by compare(), which decides value(t) ==
    (A*t + B)/D exactly on the formula's integer output. Undefined or off
    the line at any trace means no line exists, so a None is a proof.
    Results are memoized per (definition, total, num_classes) across
    requests.
    """
    v0 = micro_value(definition, 0, total, num_classes)
    v1 = micro_value(definition, 1, total, num_classes)
    if not isinstance(v0, Fraction) or not isinstance(v1, Fraction):
        return None
    a, b = v1 - v0, v0
    den = math.lcm(a.denominator, b.denominator)
    slope = a.numerator * (den // a.denominator)
    offset = b.numerator * (den // b.denominator)
    for t in range(2, total + 1):
        if definition.compare(*_pooled_args(t, total, num_classes),
                              slope * t + offset, den) != 0:
            return None
    return a, b


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _entries(scores: ScoreReport, registry: ScoreRegistry, family: str):
    """Resolve reported ids to base definitions for one averaging family.
    Bare ids are accepted as belonging to the checker's own family."""
    out = []
    for rid in scores.ids:
        fam, base = split_average_prefix(rid)
        if fam and fam != family:
            raise UnsupportedExperiment(
                f"score {rid!r} is not {family}-averaged; micro- and "
                f"macro-averaged scores cannot be checked together")
        out.append((rid, registry.get(base)))
    return out


# ---------------------------------------------------------------------------
# single-testset checks
# ---------------------------------------------------------------------------


def _trace_direction(rid: str, definition: ScoreDefinition) -> int:
    """The direction (1 nondecreasing, -1 nonincreasing, 0 constant) of a
    micro score along the trace, where the pooled tp and tn both rise:
    the declared directions in tp and tn, when they agree or one is 0.
    Directions that conflict leave the score's course along the trace
    unknown, so the score is refused."""
    if definition.mono_tp * definition.mono_tn < 0:
        raise UnsupportedExperiment(
            f"score {rid!r} rises in one of tp and tn and falls in the other, "
            f"so its micro average is not monotone along the trace")
    return definition.mono_tp or definition.mono_tn


def _substitute(node, leaves: dict):
    """A formula tree with every leaf named in `leaves` replaced."""
    if isinstance(node, list):
        return [node[0], *(_substitute(arg, leaves) for arg in node[1:])]
    return leaves.get(node, node) if isinstance(node, str) else node


@functools.lru_cache(maxsize=4096)
def _trace_score(definition: ScoreDefinition, num_classes: int
                 ) -> ScoreDefinition:
    """The micro average of `definition` over C = num_classes classes as a
    binary score of the trace t = tp on Testset(N, 0): the leaves tn, fp
    and n become tp + (C-2)*p, p - tp and (C-1)*p (fn = p - tp holds
    already). It keeps the id, name and range, has mono_tp from
    _trace_direction and mono_tn = 0, and is memoized per (definition, C).

    Lemma: at (t, 0, N, 0) its compiled function returns the original's
    integers at the pooled counts _pooled_args(t, N, C), as each new
    subtree compiles, like the leaf it replaces, to that pooled count over
    denominator 1. So value(), compare(), within() and the corner tests of
    invert() agree. For 0 < t < N every pooled count is positive, so the
    score can be undefined only at tp = 0 and tp = N: the facts the engine
    relies on. Hence the first pair of _search(Testset(N, 0), ...) has tp
    equal to the least passing trace. scores._degrees reads the degrees in
    t off the substituted formula: fm, gm, mk, mcc and kappa are searched
    along the trace, every other shipped score is in closed form.
    """
    c = num_classes
    formula = _substitute(definition.formula, {
        "tn": ["+", "tp", ["*", c - 2, "p"]],
        "fp": ["-", "p", "tp"],
        "n": ["*", c - 1, "p"],
    })
    return ScoreDefinition(definition.score_id, definition.name, formula,
                           definition.range,
                           _trace_direction(definition.score_id, definition),
                           0, definition.default_enabled)


def check_multiclass_micro(testset: MulticlassTestset, scores: ScoreReport,
                           uncertainty: Uncertainty,
                           registry: Optional[ScoreRegistry] = None
                           ) -> ConsistencyResult:
    """Could any confusion matrix make every reported micro average land in
    its target interval? Decided exactly by the single-testset engine on
    Testset(N, 0), each score written over the trace (_trace_score). The
    witness is the least passing trace, the tp of the first pair. plr, and
    nlr at C = 2, widen their corner at an end of the trace, so the scan
    verifies the traces between their run and that end."""
    registry = registry or default_registry()
    entries = _entries(scores, registry, "micro")
    total, num_classes = testset.size, testset.num_classes
    definitions = {}
    for rid, definition in entries:
        _trace_direction(rid, definition)  # refuses under the reported id
        definitions[rid] = _trace_score(definition, num_classes)
    procedure = "multiclass_micro"
    violation, _, _, pairs = _search(Testset(total, 0), scores, uncertainty,
                                     definitions)
    if violation is not None:
        return ConsistencyResult(True, procedure, evidence=violation)
    witness = next(pairs, None)
    if witness is not None:
        trace = witness[0]
        return ConsistencyResult(
            False, procedure,
            witness={"trace": trace,
                     "pooled": micro_counts(trace, total, num_classes)})
    return ConsistencyResult(True, procedure, evidence={
        "reason": "no pooled one-vs-rest outcome reproduces every reported "
                  "micro average",
        "trace_range": [0, total],
    })


def _margins_realizable(supply: Sequence[int], demand: Sequence[int],
                        total: int) -> bool:
    """Gale-Hoffman test: a nonnegative integer matrix with zero diagonal,
    row sums `supply` and column sums `demand` exists iff the totals agree
    and no single index hoards more than the whole (every other index pair
    covers all columns, so only singleton cuts bind)."""
    return all(s + d <= total for s, d in zip(supply, demand))


def _fill_offdiagonal(supply: Sequence[int], demand: Sequence[int]
                      ) -> list[list[int]]:
    """A zero-diagonal nonnegative integer matrix with the given margins.

    Ships one unit at a time, accepting a move only when the residual
    margins stay realizable; since the input margins are realizable, some
    accepted move always exists, so this terminates with a valid fill.
    """
    size = len(supply)
    out = [[0] * size for _ in range(size)]
    supply, demand = list(supply), list(demand)
    remaining = sum(supply)
    while remaining:
        row = next(r for r in range(size) if supply[r] > 0)
        for col in range(size):
            if col == row or demand[col] == 0:
                continue
            supply[row] -= 1
            demand[col] -= 1
            if _margins_realizable(supply, demand, remaining - 1):
                out[row][col] += 1
                remaining -= 1
                break
            supply[row] += 1
            demand[col] += 1
        else:  # pragma: no cover - margins were certified realizable
            raise AssertionError("off-diagonal fill lost realizability")
    return out


def _matrix_rows(fold_counts: Sequence[tuple[int, ...]]) -> list:
    """The rows that make per-class one-vs-rest counts those of a confusion
    matrix, as `aggregate.solve_means` takes extra rows: unit terms over
    the keys (fold, class, "tp") and (fold, class, "fp"). Per fold, one
    balance row (sum fp = sum fn, written sum tp + sum fp = total) and one
    margin row per class (fp_i + fn_i <= sum fn, written fp_i +
    sum_{l != i} tp_l <= total - c_i).

    Lemma: integer (tp_i, fp_i) in [0, c_i] x [0, total - c_i] satisfy a
    fold's rows iff some matrix with row sums c has tp_i = m[i][i] and
    fp_i = sum of column i off the diagonal. Off the diagonal, row i must
    sum to fn_i = c_i - tp_i and column i to fp_i; such a nonnegative
    matrix with zero diagonal exists iff the sums agree (the balance row)
    and fp_i + fn_i <= the common sum for every i (_margins_realizable,
    the margin rows).
    """
    rows = []
    for j, counts in enumerate(fold_counts):
        total = sum(counts)
        classes = range(len(counts))
        rows.append(([((j, i, count), 1) for count in ("tp", "fp")
                      for i in classes], total, total))
        rows += [([((j, l, "tp"), 1) for l in classes if l != i]
                  + [((j, i, "fp"), 1)], None, total - c)
                 for i, c in enumerate(counts)]
    return rows


def _solve_macro(fold_counts: Sequence[tuple[int, ...]], entries,
                 targets) -> SolveOutcome:
    """Integer feasibility of macro-average (fold-mean) constraints, one
    confusion matrix per fold.

    A macro average over k folds of C classes is a mean of k*C one-vs-rest
    binary scores: `aggregate.solve_means` writes its rows over k folds of
    C leaves (1/(k*C), c_i, total - c_i) with fp second, beside the rows
    of _matrix_rows, and a witness matrix is filled in from the margins.

    The outcome is excluded when a reported score is structurally
    undefined for some class on some fold (no finite average exists
    there); a feasible outcome's solution is one {"class_counts",
    "matrix"} per fold.
    """
    def label(fold: int, cls: int, p: int, n: int) -> dict:
        return {"fold": fold, "class": cls,
                "reason": "score undefined for this class on this fold for "
                          "every outcome, so no finite average exists"}

    weight = Fraction(1, len(fold_counts) * len(fold_counts[0]))
    outcome = solve_means([[(weight, c, sum(counts) - c) for c in counts]
                           for counts in fold_counts],
                          targets, dict(entries), _matrix_rows(fold_counts),
                          "fp", label)
    if not outcome.feasible:
        return outcome if outcome.excluded else SolveOutcome(evidence={
            "reason": "no integer confusion matrix reproduces every "
                      "reported average"})
    matrices = []
    views = iter(outcome.solution)
    for counts in fold_counts:
        fold = [next(views) for _ in counts]
        matrix = _fill_offdiagonal([c - v["tp"] for c, v in zip(counts, fold)],
                                   [v["fp"] for v in fold])
        for i, v in enumerate(fold):
            matrix[i][i] = v["tp"]
        matrices.append({"class_counts": list(counts), "matrix": matrix})
    return SolveOutcome(matrices)


def _trace_equivalent(definition: ScoreDefinition, counts) -> bool:
    """Whether the macro average of an affine score equals its micro
    average on every confusion matrix with row sums `counts`: it reads
    the counts only through acc (alpha = beta = 0 in its AffineForm), or
    every class has the same size (lemma in _macro_decide)."""
    form = definition.form
    return form.alpha == form.beta == 0 or len(set(counts)) == 1


def _matrix_with_trace(counts: Sequence[int], trace: int) -> list[list[int]]:
    """A confusion matrix with row sums `counts` and the given trace in
    [0, sum(counts)]: the diagonal filled greedily, d_i = min(c_i, trace
    left), and the rest of row i sent to column (i + 1) mod C."""
    size = len(counts)
    matrix = [[0] * size for _ in counts]
    for i, c in enumerate(counts):
        matrix[i][i] = diagonal = min(c, trace)
        trace -= diagonal
        matrix[i][(i + 1) % size] += c - diagonal
    return matrix


def _macro_decide(fold_counts: Sequence[tuple[int, ...]], entries,
                  targets) -> SolveOutcome:
    """Macro-average (fold-mean) constraints decided on the fold traces
    where the reported scores equal their micro averages, and by
    _solve_macro otherwise; the outcome is _solve_macro's.

    Lemma: take a C x C matrix with N samples and trace T. Each sample off
    the diagonal is a false positive of exactly one class, so sum fp_i =
    N - T and sum tn_i = sum (N - c_i - fp_i) = (C - 2)N + T. An affine
    score with alpha = beta = 0 reads (tp_i + tn_i)/N, whose mean over the
    classes is (2T + (C - 2)N)/(CN), micro-acc at T; so macro-acc and
    macro-err equal micro-acc and micro-err on every class split. If every
    class has c samples (N = Cc), the class means of tp_i/c, tn_i/(N - c)
    and (tp_i + tn_i)/N are T/N, ((C - 2)N + T)/((C - 1)N) and
    (2T + (C - 2)N)/(CN): the pooled counts over their pooled totals, all
    positive. So every affine score's macro average is its micro value at
    T. A fold mean is a mean of per-fold values, so where this holds for
    every reported score on every fold (_trace_equivalent), the macro fold
    means are micro fold means, which _fold_traces decides exactly.

    * Every score trace-equivalent: the traces decide the report. Every
      trace in [0, N] is some matrix's (_matrix_with_trace), and all
      matrices with trace T give the same values, so it reproduces them.
    * Some are: their traces are decided first. Every outcome satisfying
      all the scores satisfies that subset, so an infeasible subset
      refutes the report. An affine score is defined wherever p, n and
      p + n are positive, so only a fold with an empty class can leave one
      undefined; _solve_macro reports that as an exclusion before any
      search, and is asked first.
    * Otherwise, and when the subset is feasible: _solve_macro, with its
      rows and variables as they are.
    """
    equivalent = [(rid, definition) for rid, definition in entries
                  if all(_trace_equivalent(definition, counts)
                         for counts in fold_counts)]
    if not equivalent:
        return _solve_macro(fold_counts, entries, targets)
    traces = _fold_traces([sum(counts) for counts in fold_counts],
                          len(fold_counts[0]), equivalent, targets)
    if traces is None and not any(
            definition.affine_coefficients(c, sum(counts) - c) is None
            for counts in fold_counts if 0 in counts
            for c in counts for _, definition in entries):
        return SolveOutcome(evidence={
            "reason": "no trace reproduces the reported averages that equal "
                      "their micro averages on these classes",
            "scores": [rid for rid, _ in equivalent]})
    if traces is None or len(equivalent) < len(entries):
        return _solve_macro(fold_counts, entries, targets)
    return SolveOutcome([{"class_counts": list(counts),
                          "matrix": _matrix_with_trace(counts, trace)}
                         for counts, trace in zip(fold_counts, traces)])


def check_multiclass_macro(testset: MulticlassTestset, scores: ScoreReport,
                           uncertainty: Uncertainty,
                           registry: Optional[ScoreRegistry] = None
                           ) -> ConsistencyResult:
    """Could any confusion matrix make every reported macro average land in
    its target interval? Exact for affine base scores; others are refused."""
    registry = registry or default_registry()
    entries = _entries(scores, registry, "macro")
    require_linear(entries)
    targets, violation = compute_targets(scores, uncertainty, dict(entries))
    procedure = "multiclass_macro"
    if violation is not None:
        return ConsistencyResult(True, procedure, evidence=violation)
    outcome = _macro_decide([testset.class_counts], entries, targets)
    if outcome.feasible:
        return ConsistencyResult(False, procedure, witness={
            "matrix": outcome.solution[0]["matrix"]})
    return ConsistencyResult(True, procedure, evidence=outcome.evidence)


# ---------------------------------------------------------------------------
# cross-validated multiclass datasets
# ---------------------------------------------------------------------------


def _micro_mean_system(groups: Counter, num_classes: int, entries, targets):
    """Domains and integer rows for fold means of micro scores over folds
    with m = groups[total] folds of each total: one variable per distinct
    total, the summed trace of its folds, with domain [0, m*total]. Each
    score's row is written by `feasibility.integer_row`. Raises
    NonlinearScoreUnsupported when some score is not an affine function of
    a fold's trace.

    Lemma (pooled folds): the folds of one total share one line a*t + b
    (micro_affine), so over k folds they add a/k times their summed trace
    plus m*b/k to every row, and enter it only through that sum. Every
    integer sum in [0, m*total] splits into m traces in [0, total] (fill
    the folds in turn), so the system has a solution iff per-fold traces
    satisfying every fold-mean row exist, and the split of a solution's
    sums is such a set of traces.
    """
    k = sum(groups.values())
    domains = [(0, m * total) for total, m in groups.items()]
    rows = []
    for rid, definition in entries:
        coeffs, constant = {}, Fraction(0)
        for j, (total, m) in enumerate(groups.items()):
            ab = micro_affine(definition, total, num_classes)
            if ab is None:
                raise NonlinearScoreUnsupported(
                    f"score {rid!r} is not an affine function of a fold's "
                    f"trace (fold size {total}, {num_classes} classes), so "
                    f"its fold mean does not yield a linear constraint")
            a, b = ab
            coeffs[j] = a / k
            constant += m * b / k
        rows.append(integer_row(coeffs, constant, targets[rid]))
    return domains, rows


def _fold_traces(fold_totals: Sequence[int], num_classes: int, entries,
                 targets) -> Optional[list[int]]:
    """Per-fold traces that put every fold mean of the micro scores
    `entries` in its target, or None when there are none: the summed trace
    of each total from _micro_mean_system, split over its folds in turn."""
    groups = Counter(fold_totals)
    assignment = solve(*_micro_mean_system(groups, num_classes, entries,
                                           targets))
    if assignment is None:
        return None
    left = dict(zip(groups, assignment))
    traces = []
    for total in fold_totals:
        traces.append(min(total, left[total]))
        left[total] -= traces[-1]
    return traces


def check_multiclass_dataset(testset: MulticlassTestset,
                             folding: Optional[FoldingScheme],
                             fold_aggregation: Optional[AggregationMode],
                             scores: ScoreReport, uncertainty: Uncertainty,
                             registry: Optional[ScoreRegistry] = None,
                             cap: Optional[int] = None) -> ConsistencyResult:
    """Decide one multiclass dataset, folded or not.

    The folding and the aggregation mode are validated as one
    ExperimentSpec of this dataset. Reported ids must all be micro-<id>
    or all macro-<id>; a mix (or a bare id) is refused because the two
    averages constrain different variables.
    """
    if not isinstance(testset, MulticlassTestset):
        raise SpecError(f"a multiclass check needs a MulticlassTestset, got "
                        f"{type(testset).__name__}")
    spec = ExperimentSpec.single(testset, folding, fold_aggregation)
    registry = registry or default_registry()
    families = {split_average_prefix(rid)[0] for rid in scores.ids}
    if "" in families:
        raise UnsupportedExperiment(
            "multiclass reports must name the averaging: use micro-<id> or "
            "macro-<id> score ids")
    if len(families) > 1:
        raise UnsupportedExperiment(
            "mixed micro-/macro-averaged scores in one report are not "
            "supported; check the two families separately")
    family = families.pop()
    single = (check_multiclass_micro if family == "micro"
              else check_multiclass_macro)

    scheme = spec.datasets[0].folding
    if not scheme.is_folded:
        return single(testset, scores, uncertainty, registry)

    if spec.fold_aggregation is AggregationMode.SCORE_OF_MEANS:
        # Pooling one-vs-rest counts over folds reproduces the parent
        # testset whatever the split, exactly as in the binary case.
        result = single(testset, scores, uncertainty, registry)
        return replace(result, evidence={
            **(result.evidence or {}), "fold_aggregation": "score_of_means",
            "pooled_class_counts": list(testset.class_counts)})

    entries = _entries(scores, registry, family)
    if family == "macro":
        require_linear(entries)
    targets, violation = compute_targets(scores, uncertainty, dict(entries))
    procedure = f"multiclass_{family}_mos"
    if violation is not None:
        return ConsistencyResult(True, procedure, evidence=violation)
    num_classes = testset.num_classes
    # Micro constraints depend only on the multiset of fold sizes, so a
    # layout with the sizes of an earlier, infeasible one is not solved
    # again.
    infeasible_sizes: dict = {}

    def decide(layout) -> SolveOutcome:
        if family == "macro":
            return _macro_decide(layout, entries, targets)
        fold_totals = [sum(v) for v in layout]
        sizes = tuple(sorted(fold_totals))
        if sizes not in infeasible_sizes:
            traces = _fold_traces(fold_totals, num_classes, entries, targets)
            if traces is not None:
                return SolveOutcome([
                    {"total": total, "trace": trace,
                     "pooled": micro_counts(trace, total, num_classes)}
                    for total, trace in zip(fold_totals, traces)])
            infeasible_sizes[sizes] = SolveOutcome(evidence={
                "reason": "no per-fold traces satisfy every fold-mean "
                          "constraint"})
        return infeasible_sizes[sizes]

    return mos_verdict(procedure, testset.class_counts, scheme, cap, decide)
