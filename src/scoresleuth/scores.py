"""Score registry: exact evaluation and inversion.

Every supported score is defined by an expression tree over the confusion
counts (tp, tn, and the derived fp = n - tn, fn = p - tp) plus the class
totals p and n. The registry ships as a data file (data/scores.json) so
bundles and documentation stay in sync with the code; definitions are
compiled at load time into integer numerator/denominator evaluators.

Three facts about the supported scores carry the engine:

* every score evaluates to an exact value, either a Fraction or an exact
  q*sqrt(r) (see values.py); a zero denominator yields Undefined (None),
  which is a value, not an error;
* every score is monotone (not necessarily strictly) in tp and in tn
  separately, so inf/sup over a box are attained at opposite corners;
* a score's denominators are sums of nonnegative counts, so undefinedness
  only occurs at specific boundary counts (e.g. ppv at tp = 0, tn = n).

Every definition must declare its monotone direction in tp and in tn
(1, -1 or 0); a definition without one is rejected at construction.
Inversion (ScoreDefinition.invert) bounds one count given a box for the
other with a single exact corner test: the score at the minimising corner
must not exceed the target and the score at the maximising corner must
reach it, where a corner at which the score is undefined widens to the
range endpoint. The two boundary values of the inverted count take the
test directly and the interior, where corner values are defined and
monotone, is binary-searched; the returned int box is the hull of
everything that might satisfy the target, which is all the engine needs
because final verification is pointwise and exact.

invert() and within() take ints only: counts, an int box (lo, hi) for
the other count, and the target as target_ends(), its ends as
(numerator, denominator) pairs, computed once per report. invert()
returns an int box, or None when it is empty. Every box end is an
integer, so clamping a box to integers (ceil and floor of its ends) is
the identity and intersecting boxes is max and min of their ends: the int
boxes are exactly the clamped rational intervals, and no Fraction is
built per call.

The decisions themselves never build a value. ScoreDefinition.compare
gives the exact sign of score - c for a rational threshold c from the
compiled formula's integer output (cross-multiplication, and sign
analysis then squares for the square-root kinds), and within() tests
membership in a target with it; inversion corners, the pointwise
verification of binary.py and the multiclass micro scan all use it at
int counts. value() builds the Fraction or SqrtRational where a score is
needed as a number: affine coefficients for fold means, evaluate(), the
brute-force oracles and checkers that recompute a witness.

invert() may be given a box `near`, such as its own result for the
previous column of a scan or the previous round of a prune, and then
gallops from its ends instead of bisecting the whole axis (saddleback
search; Bird, MPC 2006). This changes no result. On the interior [1,
size-1] the corner tests a_ok and b_ok are monotone (see invert()), so
each has exactly one first-true and one last-true index. _first_true and
_last_true only ever move their bracket by what monotonicity implies from
a probe, whether the probe comes from the gallop or the bisection, so
from any start they return that index. Only the number of compare()
calls depends on `near`, and it falls when the answer lies close to it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Mapping, Optional, Sequence, Union

from .errors import NonlinearScoreUnsupported, UnknownScoreId
from .intervals import RationalInterval
from .values import ExactValue, sqrt_fraction, times_sqrt

_COUNT_VARS = ("tp", "tn", "p", "n", "fp", "fn")

AstNode = Union[str, int, list]

#: The ends of a nonempty rational interval as int pairs: (lo, hi), each a
#: (numerator, denominator) pair with denominator > 0, or None for an
#: unbounded side. The form within() and invert() take a target in.
TargetEnds = tuple[Optional[tuple[int, int]], Optional[tuple[int, int]]]


def target_ends(interval: RationalInterval) -> Optional[TargetEnds]:
    """The ends of an interval as (numerator, denominator) pairs; None for
    the empty interval."""
    if interval.is_empty:
        return None
    return tuple(None if end is None else (end.numerator, end.denominator)
                 for end in (interval.lo, interval.hi))


@dataclass(frozen=True)
class ConfusionCounts:
    """A binary confusion outcome: tp true positives out of p, tn true
    negatives out of n."""

    tp: int
    tn: int
    p: int
    n: int

    def __post_init__(self):
        for field in ("tp", "tn", "p", "n"):
            v = getattr(self, field)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{field} must be an int, got {v!r}")
        if not (0 <= self.tp <= self.p):
            raise ValueError(f"tp={self.tp} outside [0, p={self.p}]")
        if not (0 <= self.tn <= self.n):
            raise ValueError(f"tn={self.tn} outside [0, n={self.n}]")

    @property
    def fp(self) -> int:
        return self.n - self.tn

    @property
    def fn(self) -> int:
        return self.p - self.tp


# ---------------------------------------------------------------------------
# formula compilation
# ---------------------------------------------------------------------------


def _const_pair(c: Fraction) -> tuple[str, Optional[str]]:
    den = None if c.denominator == 1 else str(c.denominator)
    return str(c.numerator), den


def _mul_src(x: Optional[str], y: Optional[str]) -> Optional[str]:
    if x is None:
        return y
    if y is None:
        return x
    return f"({x})*({y})"


def _pair_src(node: AstNode) -> tuple[str, Optional[str]]:
    """Compile a (sqrt-free) expression tree to numerator/denominator source
    strings over integer arithmetic. None denominator means 1."""
    if isinstance(node, str):
        if node in _COUNT_VARS:
            return node, None
        return _const_pair(Fraction(node))
    if isinstance(node, int):
        return _const_pair(Fraction(node))
    op = node[0]
    if op == "sqrt":
        raise ValueError("sqrt is only supported at the top of a formula "
                         "or as the divisor of the top-level quotient")
    if op == "neg":
        n1, d1 = _pair_src(node[1])
        return f"-({n1})", d1
    n1, d1 = _pair_src(node[1])
    n2, d2 = _pair_src(node[2])
    if op in ("+", "-"):
        left = n1 if d2 is None else f"({n1})*({d2})"
        right = n2 if d1 is None else f"({n2})*({d1})"
        return f"({left}){op}({right})", _mul_src(d1, d2)
    if op == "*":
        return _mul_src(n1, n2), _mul_src(d1, d2)
    if op == "/":
        return _mul_src(n1, d2), _mul_src(d1, n2)
    raise ValueError(f"unknown operator {op!r}")


def _compile(expr: AstNode):
    """Compile a formula to (kind, fn). kind is 'rational', 'sqrt' or
    'ratio_sqrt'; fn maps (tp, tn, p, n) to integer tuples:
    (N, D) for the first two kinds, (TN, TD, RN, RD) for T / sqrt(R)."""
    if isinstance(expr, list) and expr[0] == "sqrt":
        kind = "sqrt"
        parts = [_pair_src(expr[1])]
    elif (isinstance(expr, list) and expr[0] == "/"
          and isinstance(expr[2], list) and expr[2][0] == "sqrt"):
        kind = "ratio_sqrt"
        parts = [_pair_src(expr[1]), _pair_src(expr[2][1])]
    else:
        kind = "rational"
        parts = [_pair_src(expr)]
    items = []
    for num, den in parts:
        items.append(num)
        items.append(den if den is not None else "1")
    src = (
        "def _formula(tp, tn, p, n):\n"
        "    fp = n - tn\n"
        "    fn = p - tp\n"
        f"    return ({', '.join(items)})\n"
    )
    namespace: dict = {}
    exec(src, {"__builtins__": {}}, namespace)  # arithmetic only, no names
    return kind, namespace["_formula"]


# ---------------------------------------------------------------------------
# score definitions
# ---------------------------------------------------------------------------


class ScoreDefinition:
    """One score: identity, formula, theoretical range, linearity flag and
    monotone directions, plus the compiled evaluators.

    mono_tp and mono_tn must each be 1 (nondecreasing), -1 (nonincreasing)
    or 0 (constant); anything else raises ValueError."""

    def __init__(self, score_id: str, name: str, formula: AstNode,
                 range_: RationalInterval, linear: bool,
                 mono_tp: int, mono_tn: int,
                 default_enabled: bool = True):
        for axis, direction in (("tp", mono_tp), ("tn", mono_tn)):
            if isinstance(direction, bool) or direction not in (-1, 0, 1):
                raise ValueError(
                    f"score {score_id!r}: monotone direction in {axis} must "
                    f"be -1, 0 or 1, got {direction!r}")
        self.score_id = score_id
        self.name = name
        self.formula = formula
        self.range = range_
        self.linear = linear
        self.mono_tp = mono_tp
        self.mono_tn = mono_tn
        self.default_enabled = default_enabled
        self._kind, self._fn = _compile(formula)
        self._range_ends = target_ends(range_)

    def __repr__(self):
        return f"<ScoreDefinition {self.score_id}>"

    # -- exact evaluation --------------------------------------------------

    def value(self, tp, tn, p, n) -> Optional[ExactValue]:
        """Exact score value, or None (Undefined) on a zero denominator."""
        out = self._fn(tp, tn, p, n)
        if self._kind == "rational":
            num, den = out
            return None if den == 0 else Fraction(num, den)
        if self._kind == "sqrt":
            num, den = out
            if den == 0 or num * den < 0:
                return None
            return sqrt_fraction(Fraction(num, den))
        tnum, tden, rnum, rden = out
        if tden == 0 or rden == 0 or rnum == 0 or rnum * rden < 0:
            return None
        radicand = Fraction(rnum, rden)
        return times_sqrt(Fraction(tnum * rden, tden * rnum), radicand)

    def compare(self, tp: int, tn: int, p: int, n: int,
                cn: int, cd: int) -> Optional[int]:
        """Sign (-1, 0 or 1) of value(tp, tn, p, n) - cn/cd for int counts
        and an int threshold cn/cd with cd > 0; None exactly where value()
        is None. Works on the compiled formula's integer output, so no
        Fraction or SqrtRational is built and every product is an exact
        int.

        Proof sketch, per compiled kind; the None conditions are value()'s:

        * rational, value N/D with D != 0: N/D - cn/cd = (N*cd - cn*D) /
          (D*cd) and cd > 0, so the sign is that of N*cd - cn*D, flipped
          when D < 0.
        * sqrt, value sqrt(N/D) with D != 0 and N*D >= 0: the value is
          nonnegative, so it lies above every cn < 0. For cn >= 0 both
          sides are nonnegative and squaring keeps their order: the sign
          is that of N/D - cn²/cd², that is of N*cd² - cn²*D, flipped when
          D < 0.
        * ratio_sqrt, value (TN/TD) / sqrt(RN/RD) with TD, RN, RD != 0 and
          RN*RD > 0: the value has the sign of TN*TD. Different signs of
          value and threshold decide at once, and two zeros are equal. For
          equal nonzero signs compare squares: TN²*RD/(TD²*RN) - cn²/cd²
          times TD²*cd²*RN, a factor with the sign of RN, is TN²*RD*cd² -
          cn²*TD²*RN, so that is the sign, flipped when RN < 0; below zero
          the larger square is the smaller value, which flips it again.
        """
        out = self._fn(tp, tn, p, n)
        kind = self._kind
        if kind == "rational":
            num, den = out
            if den == 0:
                return None
            diff = num * cd - cn * den
        elif kind == "sqrt":
            num, den = out
            if den == 0 or num * den < 0:
                return None
            if cn < 0:
                return 1
            diff = num * cd * cd - cn * cn * den
        else:
            tnum, tden, rnum, rden = out
            if tden == 0 or rden == 0 or rnum == 0 or rnum * rden < 0:
                return None
            t = tnum * tden
            sv, sc = (t > 0) - (t < 0), (cn > 0) - (cn < 0)
            if sv != sc:
                return 1 if sv > sc else -1
            if sv == 0:
                return 0
            diff = (tnum * tnum * rden * cd * cd
                    - cn * cn * tden * tden * rnum)
            if sv < 0:
                diff = -diff
            den = rnum
        sign = (diff > 0) - (diff < 0)
        return -sign if den < 0 else sign

    def within(self, target: Optional[TargetEnds], tp: int, tn: int, p: int,
               n: int) -> bool:
        """Whether value(tp, tn, p, n) is defined and lies in the target
        whose target_ends() are `target`, for int counts; decided by
        compare() at the target's finite ends."""
        if target is None:
            return False
        lo, hi = target
        if lo is None and hi is None:
            return self.compare(tp, tn, p, n, 0, 1) is not None
        if lo is not None:
            sign = self.compare(tp, tn, p, n, lo[0], lo[1])
            if sign is None or sign < 0:
                return False
        if hi is not None:
            sign = self.compare(tp, tn, p, n, hi[0], hi[1])
            if sign is None or sign > 0:
                return False
        return True

    def value_of(self, counts: ConfusionCounts) -> Optional[ExactValue]:
        return self.value(counts.tp, counts.tn, counts.p, counts.n)

    def formula_parts(self, tp, tn, p, n):
        """Raw compiled formula output before any division: ("rational",
        (N, D)) for N/D, ("sqrt", (N, D)) for sqrt(N/D), or ("ratio_sqrt",
        (TN, TD, RN, RD)) for (TN/TD) / sqrt(RN/RD).

        The formula uses only +, - and *, so the inputs may be any exact
        algebra — ints, Fractions, or polynomial objects — which is how the
        multiclass module reads a score off as a polynomial in the trace."""
        return self._kind, self._fn(tp, tn, p, n)

    def affine_coefficients(self, p: int, n: int):
        """(a, b, c) with score = a*tp + b*tn + c on a testset of totals
        (p, n); None when the score is not linear or is undefined for these
        totals (a zero structural denominator, e.g. sens with p = 0)."""
        if not self.linear:
            return None
        c = self.value(0, 0, p, n)
        va = self.value(1, 0, p, n)
        vb = self.value(0, 1, p, n)
        if c is None or va is None or vb is None:
            return None
        return va - c, vb - c, c

    # -- inversion -----------------------------------------------------------

    def invert(self, target: Optional[TargetEnds], other: tuple[int, int],
               p: int, n: int, axis: str,
               near: Optional[tuple[int, int]] = None
               ) -> Optional[tuple[int, int]]:
        """Int box (lo, hi) containing every value of `axis` ('tp' or 'tn')
        for which some value of the other count in the int box `other` =
        (lo, hi) puts the score inside the target whose target_ends() are
        `target`; None when no value qualifies. Returns the full (0, size)
        when the score does not depend on the axis. `other` is cut to [0,
        other size] first.

        Every m in [0, size] takes one corner test, ok(m) = a_ok(m) and
        b_ok(m). With o_min and o_max the ends of other that minimise and
        maximise the score (by the declared direction in the other count),
        a_ok asks whether the score at (m, o_min) stays at or under the
        target's upper end and b_ok whether the score at (m, o_max) reaches
        its lower end; an undefined corner is widened to the range
        endpoint. Corners are evaluated at int counts with compare(), which
        decides each of these comparisons exactly as value() would, and
        the widening compares the range end with the target end by
        cross-multiplication.

        Soundness: if the score at (m, o) lies in target for some o in the
        box, monotonicity in the other count puts the defined corner values
        on either side of it, and a widened corner is a range endpoint,
        which every value respects; so ok(m) holds. On the interior [1,
        size-1] corner values are defined (undefinedness needs a boundary
        count) or constantly widened, so a_ok and b_ok are monotone in m
        and two bisections find the run where both hold; the boundary
        counts 0 and size, where a corner may be undefined, are tested
        directly. The result is the hull of the qualifying values, which
        is all callers need because final verification is pointwise and
        exact.

        `near`, an int box such as this score's result for a neighbouring
        column or an earlier pruning round, seeds the two interior searches
        from its ends (clamped to [1, size-1]; None means no seed). The
        result does not depend on it (see the module docstring), only the
        number of compare() calls does.
        """
        tp_axis = axis == "tp"
        size, other_size = (p, n) if tp_axis else (n, p)
        mono_main = self.mono_tp if tp_axis else self.mono_tn
        if mono_main == 0:
            return 0, size
        if target is None:
            return None
        o_min, o_max = max(other[0], 0), min(other[1], other_size)
        if o_min > o_max:
            return None
        if (self.mono_tn if tp_axis else self.mono_tp) < 0:
            o_min, o_max = o_max, o_min
        compare = self.compare
        lo, hi = target
        range_lo, range_hi = self._range_ends
        if lo is not None:
            lo_n, lo_d = lo
        if hi is not None:
            hi_n, hi_d = hi

        def b_ok(m):  # sup over other reaches the target's lower end
            if lo is None:
                return True
            sign = (compare(m, o_max, p, n, lo_n, lo_d) if tp_axis
                    else compare(o_max, m, p, n, lo_n, lo_d))
            if sign is None:
                return (range_hi is None
                        or range_hi[0] * lo_d >= lo_n * range_hi[1])
            return sign >= 0

        def a_ok(m):  # inf over other stays under the target's upper end
            if hi is None:
                return True
            sign = (compare(m, o_min, p, n, hi_n, hi_d) if tp_axis
                    else compare(o_min, m, p, n, hi_n, hi_d))
            if sign is None:
                return (range_lo is None
                        or range_lo[0] * hi_d <= hi_n * range_lo[1])
            return sign <= 0

        pieces = []
        for m in {0, size}:
            if a_ok(m) and b_ok(m):
                pieces.append((m, m))
        if size >= 2:
            near_lo, near_hi = (None, None) if near is None else near
            if mono_main > 0:
                t1 = _first_true(1, size - 1, b_ok, near_lo)
                t2 = _last_true(1, size - 1, a_ok, near_hi)
            else:
                t1 = _first_true(1, size - 1, a_ok, near_lo)
                t2 = _last_true(1, size - 1, b_ok, near_hi)
            if t1 is not None and t2 is not None and t1 <= t2:
                pieces.append((t1, t2))
        if not pieces:
            return None
        return min(a for a, _ in pieces), max(b for _, b in pieces)

    def to_payload(self) -> dict:
        return {
            "id": self.score_id,
            "name": self.name,
            "formula": self.formula,
            "range": [
                None if self.range.lo is None else str(self.range.lo),
                None if self.range.hi is None else str(self.range.hi),
            ],
            "linear": self.linear,
            "monotone": {"tp": self.mono_tp, "tn": self.mono_tn},
            "default": self.default_enabled,
        }

    @staticmethod
    def from_payload(entry: Mapping) -> "ScoreDefinition":
        lo, hi = entry["range"]
        rng = RationalInterval(
            None if lo is None else Fraction(lo),
            None if hi is None else Fraction(hi),
        )
        mono = entry.get("monotone")
        if not isinstance(mono, Mapping):
            raise ValueError(
                f"score {entry['id']!r}: 'monotone' is required, got {mono!r}")
        return ScoreDefinition(
            entry["id"], entry.get("name", entry["id"]), entry["formula"],
            rng, bool(entry["linear"]),
            mono.get("tp"), mono.get("tn"),
            bool(entry.get("default", True)),
        )


def _first_true(lo: int, hi: int, pred, start: Optional[int] = None
                ) -> Optional[int]:
    """Smallest i in [lo, hi] with pred(i), for pred false..false true..true;
    None when pred is false throughout.

    The search keeps lo <= answer <= end, where pred is false at every
    i < lo and true at end, or end = hi + 1 stands for "none" and is never
    probed. Without a start it bisects [lo, end] at once. With one it first
    gallops from start (clamped to [lo, hi]) by steps of 1, 2, 4, ...:
    down while pred holds, each probe lowering end, and up while it fails,
    each probe raising lo. The first probe with the other outcome, or one
    that leaves [lo, end), brackets the answer, and the bisection finishes
    there (exponential search; Bentley & Yao, IPL 1976). Every probe
    narrows [lo, end] only by monotonicity, so every start gives the same
    index, after about 2*log2(d) + 2 probes for an answer d away."""
    end = hi + 1
    if start is not None:
        i, step = min(max(start, lo), hi), 1
        while lo <= i < end:
            if pred(i):
                end = i
                i -= step
            else:
                lo = i + 1
                i += step
            step *= 2
    while lo < end:
        mid = (lo + end) // 2
        if pred(mid):
            end = mid
        else:
            lo = mid + 1
    return lo if lo <= hi else None


def _last_true(lo: int, hi: int, pred, start: Optional[int] = None
               ) -> Optional[int]:
    """Largest i in [lo, hi] with pred(i), for pred true..true false..false;
    None when pred is false throughout. The mirror image of _first_true:
    begin <= answer <= hi, with begin = lo - 1 standing for "none"."""
    begin = lo - 1
    if start is not None:
        i, step = min(max(start, lo), hi), 1
        while begin < i <= hi:
            if pred(i):
                begin = i
                i += step
            else:
                hi = i - 1
                i -= step
            step *= 2
    while begin < hi:
        mid = (begin + hi + 1) // 2
        if pred(mid):
            begin = mid
        else:
            hi = mid - 1
    return begin if begin >= lo else None


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class ScoreRegistry:
    """Ordered collection of score definitions, keyed by id."""

    def __init__(self, definitions: Sequence[ScoreDefinition] = ()):
        self._defs: dict[str, ScoreDefinition] = {}
        for d in definitions:
            self.register(d)

    def register(self, definition: ScoreDefinition) -> None:
        if definition.score_id in self._defs:
            raise ValueError(f"duplicate score id {definition.score_id!r}")
        self._defs[definition.score_id] = definition

    def __contains__(self, score_id: str) -> bool:
        return score_id in self._defs

    def get(self, score_id: str) -> ScoreDefinition:
        try:
            return self._defs[score_id]
        except KeyError:
            raise UnknownScoreId(
                f"unknown score id {score_id!r}; known ids: "
                f"{', '.join(self._defs)}") from None

    def ids(self, default_only: bool = False) -> list[str]:
        if default_only:
            return [i for i, d in self._defs.items() if d.default_enabled]
        return list(self._defs)

    def definitions(self, default_only: bool = False) -> list[ScoreDefinition]:
        return [self._defs[i] for i in self.ids(default_only)]

    @staticmethod
    def from_payload(payload: Mapping) -> "ScoreRegistry":
        return ScoreRegistry(
            [ScoreDefinition.from_payload(e) for e in payload["scores"]])


def require_linear(entries) -> None:
    """Refuse a report unless every score is affine in the confusion
    counts; `entries` are (reported id, definition) pairs. A mean of
    scores (over folds, datasets or classes) yields linear constraints
    only for affine scores."""
    for score_id, definition in entries:
        if not definition.linear:
            raise NonlinearScoreUnsupported(
                f"score {score_id!r} is not affine in the confusion counts; "
                f"a mean of scores only yields linear constraints for affine "
                f"scores (acc, sens, spec, bacc, ...)")


def fbeta_definition(beta, score_id: Optional[str] = None) -> ScoreDefinition:
    """Build an F-beta definition for an arbitrary positive rational beta,
    behind the same interface as the shipped scores."""
    beta = Fraction(beta)
    if beta <= 0:
        raise ValueError("beta must be positive")
    b2 = beta * beta
    w = 1 + b2

    def const(c: Fraction):
        return int(c) if c.denominator == 1 else str(c)

    formula = ["/", ["*", const(w), "tp"],
               ["+", ["*", const(w), "tp"], ["+", ["*", const(b2), "fn"], "fp"]]]
    return ScoreDefinition(
        score_id or f"f{beta}", f"F-beta score (beta = {beta})", formula,
        RationalInterval.closed(0, 1), False, 1, 1, default_enabled=False)


_default_registry: Optional[ScoreRegistry] = None


def default_registry() -> ScoreRegistry:
    """The registry loaded from the packaged data file (cached)."""
    global _default_registry
    if _default_registry is None:
        text = resources.files("scoresleuth").joinpath(
            "data/scores.json").read_text("utf-8")
        _default_registry = ScoreRegistry.from_payload(json.loads(text))
    return _default_registry


# -- module-level convenience bound to the default registry -----------------


def evaluate(score_id: str, counts: ConfusionCounts,
             registry: Optional[ScoreRegistry] = None) -> Optional[ExactValue]:
    """Exact value of a score on a confusion outcome; None when undefined."""
    reg = registry or default_registry()
    return reg.get(score_id).value_of(counts)
