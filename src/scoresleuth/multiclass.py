"""Consistency checking for multiclass experiments.

A C-class testset is described by its per-class sample counts c_1..c_C; an
outcome is an integer confusion matrix m[i][j] (true class i predicted as
class j) with row sums c_i. Reported scores must carry an averaging prefix:

* ``micro-<id>``: one-vs-rest counts are pooled over the classes before the
  base score is applied. The pooled counts collapse onto a single free
  variable, the trace t = sum(m[i][i]):

      TP = t,  FN = N - t,  FP = N - t,  TN = N*(C-1) - (N - t)

  with pooled totals p = N and n = N*(C-1), so checking a micro report is a
  walk over t in [0, N] — exact for every score in the registry.

* ``macro-<id>``: the base score is averaged over the C one-vs-rest views
  (tp_i = m[i][i], fp_i = sum of column i off the diagonal, tn_i by
  complement). For scores affine in (tp, tn) the average is one affine
  constraint over per-class (tp_i, fp_i) variables, decided by exact
  branch-and-bound together with the conditions that make the margins
  realizable by an actual matrix (see _solve_macro); non-affine base
  scores are refused (NonlinearScoreUnsupported).

Cross-validated multiclass datasets compose the same way binary ones do:
score-of-means pools to the parent testset, and mean-of-scores runs the
OR over fold layouts of `folds`, with each fold's trace (micro) or matrix
(macro) as variables. Micro fold means need the micro score's values at a
fold's integer traces to lie on one line with rational slope; micro_affine
decides that exactly from the values at t = 0 and t = 1 and an integer
comparison at every other trace. On folds of two or more samples it holds
for every registry score except jac, plr, nlr and gm (for C > 2); on a
single-sample fold the two traces always lie on a line.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from fractions import Fraction
from typing import Optional, Sequence

from .binary import compute_targets
from .errors import (NonlinearScoreUnsupported, SpecError,
                     UnsupportedExperiment)
from .feasibility import AffineConstraint, SolveOutcome, solve
from .folds import mos_verdict
from .intervals import RationalInterval
from .model import (
    AggregationMode,
    ConsistencyResult,
    ExperimentSpec,
    FoldingScheme,
    MulticlassTestset,
    ScoreReport,
    Uncertainty,
    validate_experiment,
)
from .scores import (ScoreDefinition, ScoreRegistry, default_registry,
                     require_linear, target_ends)

# Nothing here calls it, but perfbench/tracing.py patches it in this
# module's namespace, so the name stays bound.
from .folds import iter_fold_configurations  # noqa: F401

MICRO_PREFIX = "micro-"
MACRO_PREFIX = "macro-"

PROCEDURES = {
    "multiclass_micro": "micro-averaged scores on one multiclass testset; "
                        "enumerates the pooled trace",
    "multiclass_macro": "macro-averaged scores on one multiclass testset; "
                        "integer feasibility over the confusion matrix",
    "multiclass_micro_mos": "fold means of micro-averaged scores",
    "multiclass_macro_mos": "fold means of macro-averaged scores",
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


def check_multiclass_micro(testset: MulticlassTestset, scores: ScoreReport,
                           uncertainty: Uncertainty,
                           registry: Optional[ScoreRegistry] = None
                           ) -> ConsistencyResult:
    """Could any confusion matrix make every reported micro average land in
    its target interval? Decided exactly by enumerating the pooled trace."""
    registry = registry or default_registry()
    entries = _entries(scores, registry, "micro")
    targets, violation = compute_targets(scores, uncertainty, dict(entries))
    procedure = "multiclass_micro"
    if violation is not None:
        return ConsistencyResult(True, procedure, evidence=violation)
    ends = [(definition, target_ends(targets[rid]))
            for rid, definition in entries]
    total, num_classes = testset.size, testset.num_classes
    for trace in range(total + 1):
        args = _pooled_args(trace, total, num_classes)
        if all(definition.within(target, *args)
               for definition, target in ends):
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


def _solve_macro(fold_counts: Sequence[tuple[int, ...]], entries,
                 targets) -> SolveOutcome:
    """Integer feasibility of macro-average (fold-mean) constraints, one
    confusion matrix per fold.

    Rather than branching over all C^2 matrix entries, each fold is modeled
    by its per-class one-vs-rest counts (tp_i, fp_i) — 2C variables — plus
    the exact conditions for a matrix with those margins to exist: the
    misclassifications must balance (sum fp = sum fn) and no class may
    hoard them (fp_i + fn_i <= total misclassified). The conditions are
    sufficient as well as necessary, so nothing real is lost, and a witness
    matrix is reconstructed afterwards from the margins.

    The outcome is excluded when a reported score is structurally
    undefined for some class on some fold (no finite average exists
    there); a feasible outcome's solution is one matrix per fold.
    """
    k = len(fold_counts)
    num_classes = len(fold_counts[0])
    per_fold = 2 * num_classes
    nvars = k * per_fold

    def tp_var(fold: int, i: int) -> int:
        return fold * per_fold + i

    def fp_var(fold: int, i: int) -> int:
        return fold * per_fold + num_classes + i

    domains: list[tuple[int, int]] = []
    for counts in fold_counts:
        total = sum(counts)
        domains.extend((0, c) for c in counts)
        domains.extend((0, total - c) for c in counts)

    constraints = []
    for j, counts in enumerate(fold_counts):
        total = sum(counts)
        # sum fp = sum fn, written as sum tp + sum fp = total
        coeffs = [Fraction(0)] * nvars
        for i in range(num_classes):
            coeffs[tp_var(j, i)] = Fraction(1)
            coeffs[fp_var(j, i)] = Fraction(1)
        constraints.append(AffineConstraint(
            tuple(coeffs), Fraction(0), RationalInterval.point(total)))
        # fp_i + fn_i <= sum fn, written as fp_i + sum_{l != i} tp_l <= total - c_i
        for i, c in enumerate(counts):
            coeffs = [Fraction(0)] * nvars
            coeffs[fp_var(j, i)] = Fraction(1)
            for l in range(num_classes):
                if l != i:
                    coeffs[tp_var(j, l)] = Fraction(1)
            constraints.append(AffineConstraint(
                tuple(coeffs), Fraction(0),
                RationalInterval(None, Fraction(total - c))))

    weight = Fraction(1, k * num_classes)
    for rid, definition in entries:
        coeffs = [Fraction(0)] * nvars
        constant = Fraction(0)
        for j, counts in enumerate(fold_counts):
            total = sum(counts)
            for i, c in enumerate(counts):
                abc = definition.affine_coefficients(c, total - c)
                if abc is None:
                    return SolveOutcome(excluded=True, evidence={
                        "score": rid,
                        "fold": j,
                        "class": i,
                        "reason": "score undefined for this class on this "
                                  "fold for every outcome, so no finite "
                                  "average exists",
                    })
                a, b, cst = abc
                # tn_i = (total - c_i) - fp_i
                coeffs[tp_var(j, i)] += weight * a
                coeffs[fp_var(j, i)] -= weight * b
                constant += weight * (b * (total - c) + cst)
        constraints.append(AffineConstraint(tuple(coeffs), constant,
                                            targets[rid]))

    assignment = solve(domains, constraints)
    if assignment is None:
        return SolveOutcome(evidence={
            "reason": "no integer confusion matrix reproduces every "
                      "reported average"})
    matrices = []
    for j, counts in enumerate(fold_counts):
        tps = [assignment[tp_var(j, i)] for i in range(num_classes)]
        fps = [assignment[fp_var(j, i)] for i in range(num_classes)]
        fns = [c - tp for c, tp in zip(counts, tps)]
        matrix = _fill_offdiagonal(fns, fps)
        for i in range(num_classes):
            matrix[i][i] = tps[i]
        matrices.append(matrix)
    return SolveOutcome(matrices)


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
    outcome = _solve_macro([testset.class_counts], entries, targets)
    if outcome.feasible:
        return ConsistencyResult(False, procedure,
                                 witness={"matrix": outcome.solution[0]})
    return ConsistencyResult(True, procedure, evidence=outcome.evidence)


# ---------------------------------------------------------------------------
# cross-validated multiclass datasets
# ---------------------------------------------------------------------------


def _micro_mean_system(fold_totals: Sequence[int], num_classes: int,
                       entries, targets):
    """Domains and constraints for fold means of micro scores: one trace
    variable per fold. Raises NonlinearScoreUnsupported when some score is
    not an affine function of a fold's trace."""
    k = len(fold_totals)
    domains = [(0, total) for total in fold_totals]
    constraints = []
    for rid, definition in entries:
        coeffs = []
        constant = Fraction(0)
        for total in fold_totals:
            ab = micro_affine(definition, total, num_classes)
            if ab is None:
                raise NonlinearScoreUnsupported(
                    f"score {rid!r} is not an affine function of a fold's "
                    f"trace (fold size {total}, {num_classes} classes), so "
                    f"its fold mean does not yield a linear constraint")
            a, b = ab
            coeffs.append(a / k)
            constant += b / k
        constraints.append(AffineConstraint(tuple(coeffs), constant,
                                            targets[rid]))
    return domains, constraints


def check_multiclass_dataset(testset: MulticlassTestset,
                             folding: Optional[FoldingScheme],
                             fold_aggregation: Optional[AggregationMode],
                             scores: ScoreReport, uncertainty: Uncertainty,
                             registry: Optional[ScoreRegistry] = None,
                             cap: Optional[int] = None) -> ConsistencyResult:
    """Decide one multiclass dataset, folded or not.

    The folding and the aggregation mode are validated as check_experiment
    validates them. Reported ids must all be micro-<id> or all macro-<id>;
    a mix (or a bare id) is refused because the two averages constrain
    different variables.
    """
    if not isinstance(testset, MulticlassTestset):
        raise SpecError(f"a multiclass check needs a MulticlassTestset, got "
                        f"{type(testset).__name__}")
    spec = validate_experiment(
        ExperimentSpec.single(testset, folding, fold_aggregation))
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
            outcome = _solve_macro(layout, entries, targets)
            if not outcome.feasible:
                return outcome
            return SolveOutcome([{"class_counts": list(v), "matrix": m}
                                 for v, m in zip(layout, outcome.solution)])
        fold_totals = [sum(v) for v in layout]
        sizes = tuple(sorted(fold_totals))
        if sizes not in infeasible_sizes:
            assignment = solve(*_micro_mean_system(
                fold_totals, num_classes, entries, targets))
            if assignment is not None:
                return SolveOutcome([
                    {"total": total, "trace": trace,
                     "pooled": micro_counts(trace, total, num_classes)}
                    for trace, total in zip(assignment, fold_totals)])
            infeasible_sizes[sizes] = SolveOutcome(evidence={
                "reason": "no per-fold traces satisfy every fold-mean "
                          "constraint"})
        return infeasible_sizes[sizes]

    return mos_verdict(procedure, testset.class_counts, scheme, cap, decide)
