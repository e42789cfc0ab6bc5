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
score-of-means pools the per-fold matrices (equivalent to checking the
parent testset directly), mean-of-scores turns each fold into more integer
variables — the trace for micro, a matrix for macro — joined by fold-mean
constraints. Unknown fold splits are enumerated canonically under the
configuration cap. Micro fold means need the micro score to be an affine
function of the per-fold trace; that property is decided exactly by
reading the formula off as a polynomial in t (see micro_affine), and it
holds for every registry score except jac, gm (for C > 2), plr and nlr.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Optional, Sequence

from .binary import compute_targets
from .errors import (
    NonlinearScoreUnsupported,
    TooManyConfigurations,
    UnsupportedExperiment,
)
from .feasibility import AffineConstraint, SolveOutcome, solve
from .folds import config_cap, iter_fold_configurations, stratified_split_counts
from .intervals import RationalInterval
from .model import (
    AggregationMode,
    ConsistencyResult,
    FoldingScheme,
    MulticlassTestset,
    ScoreReport,
    Uncertainty,
    check_fold_totals,
)
from .scores import (ScoreDefinition, ScoreRegistry, default_registry,
                     target_ends)
from .values import _sqrt_if_perfect

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
# micro scores as polynomials in the trace
# ---------------------------------------------------------------------------


class _Poly:
    """Dense univariate polynomial with Fraction coefficients.

    Instances are pushed through a score's compiled formula (which uses
    only +, - and *) in place of the integer counts, reading the formula
    off as exact polynomials in the free trace variable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # the zero polynomial has degree -1

    def coef(self, i: int) -> Fraction:
        return self.coeffs[i] if i < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        other = _as_poly(other)
        size = max(len(self.coeffs), len(other.coeffs))
        return _Poly([self.coef(i) + other.coef(i) for i in range(size)])

    __radd__ = __add__

    def __neg__(self):
        return _Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if not self.coeffs or not other.coeffs:
            return _Poly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return _Poly(out)

    __rmul__ = __mul__

    def __repr__(self):
        return f"_Poly({list(self.coeffs)})"


def _as_poly(v) -> _Poly:
    return v if isinstance(v, _Poly) else _Poly((Fraction(v),))


def _affine_ratio(num: _Poly, den: _Poly):
    """(a, b) with num/den == a*t + b everywhere, else None. Requires a
    nonzero constant denominator so the quotient is defined at every t."""
    if den.degree != 0:
        return None
    d0 = den.coef(0)
    if num.degree > 1:
        return None
    return num.coef(1) / d0, num.coef(0) / d0


def _affine_sqrt(num: _Poly, den: _Poly, total: int):
    """(a, b) with sqrt(num/den) == a*t + b for all t in [0, total], else
    None. Holds exactly when num/den is the square of an affine function
    that stays nonnegative on the interval."""
    if den.degree != 0 or num.degree > 2:
        return None
    d0 = den.coef(0)
    r2, r1, r0 = num.coef(2) / d0, num.coef(1) / d0, num.coef(0) / d0
    if r2 < 0 or r0 < 0:
        return None
    alpha = _sqrt_if_perfect(r2)
    beta = _sqrt_if_perfect(r0)
    if alpha is None or beta is None:
        return None
    for a, b in ((alpha, beta), (alpha, -beta), (-alpha, beta), (-alpha, -beta)):
        if 2 * a * b == r1 and b >= 0 and a * total + b >= 0:
            return a, b
    return None


def micro_affine(definition: ScoreDefinition, total: int, num_classes: int):
    """Exact affine form of the micro-averaged score as a function of the
    trace: (a, b) with value == a*t + b for every t in [0, total], or None
    when the score is not affine in t (or could be undefined for some t).

    The decision is symbolic, not sampled: the formula's numerator and
    denominator are read off as exact polynomials in t, so a None here is
    a proof that no affine form with rational coefficients exists on this
    testset shape (which is what a linear constraint would need).
    """
    t = _Poly((0, 1))
    kind, parts = definition.formula_parts(
        t, _Poly((total * (num_classes - 2), 1)),
        _Poly((total,)), _Poly((total * (num_classes - 1),)))
    parts = tuple(_as_poly(x) for x in parts)
    if kind == "rational":
        return _affine_ratio(parts[0], parts[1])
    if kind == "sqrt":
        return _affine_sqrt(parts[0], parts[1], total)
    tnum, tden, rnum, rden = parts
    # (TN/TD) / sqrt(RN/RD) is affine only when the radicand is a positive
    # perfect-square constant, folding the value back to a rational form.
    if tden.degree != 0 or rden.degree != 0 or rnum.degree != 0:
        return None
    td0, rn0, rd0 = tden.coef(0), rnum.coef(0), rden.coef(0)
    if td0 == 0 or rn0 == 0 or rd0 == 0 or rn0 * rd0 < 0:
        return None
    root = _sqrt_if_perfect(rn0 / rd0)
    if root is None:
        # irrational constant multiplier: affine only for a zero numerator
        return (Fraction(0), Fraction(0)) if tnum.degree == -1 else None
    scalar = root * rd0 / (td0 * rn0)
    if tnum.degree > 1:
        return None
    return tnum.coef(1) * scalar, tnum.coef(0) * scalar


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


def _require_affine(entries) -> None:
    for rid, definition in entries:
        if not definition.linear:
            raise NonlinearScoreUnsupported(
                f"score {rid!r} is not affine in the confusion counts; "
                f"macro averages and fold means only yield linear "
                f"constraints for affine scores (acc, sens, spec, bacc, ...)")


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
            tuple(coeffs), Fraction(0), RationalInterval.point(total),
            label=f"fold{j}.balance"))
        # fp_i + fn_i <= sum fn, written as fp_i + sum_{l != i} tp_l <= total - c_i
        for i, c in enumerate(counts):
            coeffs = [Fraction(0)] * nvars
            coeffs[fp_var(j, i)] = Fraction(1)
            for l in range(num_classes):
                if l != i:
                    coeffs[tp_var(j, l)] = Fraction(1)
            constraints.append(AffineConstraint(
                tuple(coeffs), Fraction(0),
                RationalInterval(None, Fraction(total - c)),
                label=f"fold{j}.margin{i}"))

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
                                            targets[rid], label=rid))

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
    _require_affine(entries)
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
                       entries, targets, cache: dict):
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
            key = (rid, total)
            if key not in cache:
                cache[key] = micro_affine(definition, total, num_classes)
            ab = cache[key]
            if ab is None:
                raise NonlinearScoreUnsupported(
                    f"score {rid!r} is not an affine function of a fold's "
                    f"trace (fold size {total}, {num_classes} classes), so "
                    f"its fold mean does not yield a linear constraint")
            a, b = ab
            coeffs.append(a / k)
            constant += b / k
        constraints.append(AffineConstraint(tuple(coeffs), constant,
                                            targets[rid], label=rid))
    return domains, constraints


def _micro_fold_witness(traces: Sequence[int], fold_totals: Sequence[int],
                        num_classes: int) -> list[dict]:
    return [{"total": total, "trace": trace,
             "pooled": micro_counts(trace, total, num_classes)}
            for trace, total in zip(traces, fold_totals)]


def _check_folded_mos(vectors: Sequence[tuple[int, ...]], num_classes: int,
                      family: str, entries, targets,
                      cache: dict) -> SolveOutcome:
    """One fold layout under mean-of-scores; a feasible outcome's solution
    is the witness entry of each fold. Only macro layouts can be excluded
    (a macro score undefined on a fold)."""
    if family == "micro":
        fold_totals = [sum(v) for v in vectors]
        domains, constraints = _micro_mean_system(
            fold_totals, num_classes, entries, targets, cache)
        assignment = solve(domains, constraints)
        if assignment is None:
            return SolveOutcome(evidence={
                "reason": "no per-fold traces satisfy every fold-mean "
                          "constraint"})
        return SolveOutcome(_micro_fold_witness(assignment, fold_totals,
                                                num_classes))
    outcome = _solve_macro(vectors, entries, targets)
    if not outcome.feasible:
        return outcome
    return SolveOutcome([{"class_counts": list(v), "matrix": m}
                         for v, m in zip(vectors, outcome.solution)])


def check_multiclass_dataset(testset: MulticlassTestset,
                             folding: Optional[FoldingScheme],
                             fold_aggregation: Optional[AggregationMode],
                             scores: ScoreReport, uncertainty: Uncertainty,
                             registry: Optional[ScoreRegistry] = None,
                             cap: Optional[int] = None) -> ConsistencyResult:
    """Decide one multiclass dataset, folded or not.

    Reported ids must all be micro-<id> or all macro-<id>; a mix (or a bare
    id) is refused because the two averages constrain different variables.
    """
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

    scheme = folding or FoldingScheme("none")
    if not scheme.is_folded:
        return single(testset, scores, uncertainty, registry)

    if fold_aggregation is AggregationMode.SCORE_OF_MEANS:
        # Pooling one-vs-rest counts over folds reproduces the parent
        # testset whatever the split, exactly as in the binary case.
        result = single(testset, scores, uncertainty, registry)
        return replace(result, evidence={
            **(result.evidence or {}), "fold_aggregation": "score_of_means",
            "pooled_class_counts": list(testset.class_counts)})

    entries = _entries(scores, registry, family)
    if family == "macro":
        _require_affine(entries)
    targets, violation = compute_targets(scores, uncertainty, dict(entries))
    procedure = f"multiclass_{family}_mos"
    if violation is not None:
        return ConsistencyResult(True, procedure, evidence=violation)
    num_classes = testset.num_classes
    cache: dict = {}

    if scheme.kind == "known_folds":
        check_fold_totals(testset, scheme.folds)
        vectors = [f.class_counts for f in scheme.folds]
        extra: dict = {"folding": "known_folds"}
    elif scheme.kind == "stratified_kfold":
        vectors = stratified_split_counts(testset.class_counts, scheme.k)
        extra = {"folding": "stratified_kfold",
                 "derived_folds": [list(v) for v in vectors]}
    else:
        return _check_unknown_folds_mos(testset, scheme.k, family, entries,
                                        targets, procedure, cache, cap)

    outcome = _check_folded_mos(vectors, num_classes, family, entries,
                                targets, cache)
    witness = {"folds": outcome.solution} if outcome.feasible else None
    return ConsistencyResult(not outcome.feasible, procedure, witness=witness,
                             evidence={**(outcome.evidence or {}), **extra})


def _check_unknown_folds_mos(testset: MulticlassTestset, k: int, family: str,
                             entries, targets, procedure: str, cache: dict,
                             cap: Optional[int]) -> ConsistencyResult:
    """OR over canonical fold layouts of the per-class counts; layouts on
    which a macro score is undefined are excluded from the OR."""
    limit = config_cap(cap)
    tried = excluded = 0
    seen_totals: set = set()
    num_classes = testset.num_classes
    for config in iter_fold_configurations(testset.class_counts, k):
        tried += 1
        if tried > limit:
            raise TooManyConfigurations(tried, limit)
        if family == "micro":
            # micro constraints depend only on the fold sizes
            sizes = tuple(sorted(sum(v) for v in config))
            if sizes in seen_totals:
                continue
            seen_totals.add(sizes)
        outcome = _check_folded_mos(list(config), num_classes, family,
                                    entries, targets, cache)
        if outcome.excluded:
            excluded += 1
        elif outcome.feasible:
            return ConsistencyResult(
                False, procedure,
                witness={"configuration": [list(v) for v in config],
                         "folds": outcome.solution},
                evidence={"configurations_tried": tried})
    return ConsistencyResult(True, procedure, evidence={
        "configurations_tried": tried,
        "configurations_excluded": excluded,
        "reason": "no fold layout admits a satisfying outcome",
    })
