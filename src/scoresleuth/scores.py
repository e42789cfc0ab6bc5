"""Score registry: exact evaluation and inversion.

Every supported score is defined by an expression tree over the confusion
counts (tp, tn, and the derived fp = n - tn, fn = p - tp) plus the class
totals p and n. The registry ships as a data file (data/scores.json) so
bundles and documentation stay in sync with the code; definitions are
compiled at load time into integer numerator/denominator evaluators.

Four facts about the supported scores carry the engine:

* every score evaluates to an exact value, either a Fraction or an exact
  q*sqrt(r) (see values.py); a zero denominator yields Undefined (None),
  which is a value, not an error;
* every score is monotone (not necessarily strictly) in tp and in tn
  separately, so inf/sup over a box are attained at opposite corners;
* a score's denominators are sums of nonnegative counts, so undefinedness
  only occurs at specific boundary counts (e.g. ppv at tp = 0, tn = n);
* a score is affine in the confusion counts exactly when its formula is a
  rational combination of the ratio leaves tp/p, tn/n, (tp + tn)/(p + n)
  and constants. affine_form() derives that form (alpha, beta, gamma,
  delta) from the formula at construction, so linearity is never declared,
  and means of scores read their coefficients off it.

Every definition must declare its monotone direction in tp and in tn
(1, -1 or 0); a definition without one is rejected at construction.
Inversion (ScoreDefinition.invert) bounds one count given a box for the
other with a single exact corner test: the score at the minimising corner
must not exceed the target and the score at the maximising corner must
reach it, where a corner at which the score is undefined widens to the
range endpoint. The two boundary values of the inverted count take the
test directly. On the interior corner values are defined and monotone;
where the compiled formula is a ratio of two affine functions of the
inverted count (of the radicand for the square-root kind), each corner
test is solved in closed form from its two end values, and elsewhere
(mk, mcc, and fm in tp) it is searched. The returned int box is
the hull of everything that might satisfy the target, which is all the
engine needs because final verification is pointwise and exact.

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
verification of binary.py (micro averages included) and the micro line
check for fold means all use it at int counts. value() builds the Fraction or
SqrtRational where a score is needed as a number: the micro line's two
ends, evaluate(), the brute-force oracles and checkers that recompute a
witness.

invert() may be given a box `near`, such as its own result for the
previous column of a scan or the previous pass of a prune, and then a
searched axis gallops from its ends instead of bisecting the whole axis
(saddleback search; Bird, MPC 2006). This changes no result. On the
interior [1, size-1] the corner tests a_ok and b_ok are monotone (see
invert()), so each has exactly one first-true and one last-true index.
_first_true and _last_true only ever move their bracket by what
monotonicity implies from a probe, whether the probe comes from the
gallop or the bisection, so from any start they return that index. Only
the number of compare() calls depends on `near`, and it falls when the
answer lies close to it.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Mapping, NamedTuple, Optional, Sequence, Union

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


#: The count variables that carry each axis count with degree 1.
_AXIS_VARS = {"tp": ("tp", "fn"), "tn": ("tn", "fp")}


def _degrees(node: AstNode, axis: str) -> tuple[int, int]:
    """Upper bounds on the degrees in the `axis` count ('tp' or 'tn') of
    the numerator and the denominator that _pair_src compiles a sqrt-free
    node to, following its products: a sum or difference of N1/D1 and
    N2/D2 is (N1*D2 ± N2*D1) / (D1*D2), a product multiplies both parts
    and a quotient crosses them."""
    if not isinstance(node, list):
        return int(node in _AXIS_VARS[axis]), 0
    if node[0] == "neg":
        return _degrees(node[1], axis)
    (n1, d1), (n2, d2) = _degrees(node[1], axis), _degrees(node[2], axis)
    if node[0] in ("+", "-"):
        return max(n1 + d2, n2 + d1), d1 + d2
    if node[0] == "*":
        return n1 + n2, d1 + d2
    return n1 + d2, d1 + n2


def _fractional_axes(expr: AstNode, kind: str) -> frozenset:
    """The axes in which a formula of the 'rational' or 'sqrt' kind (of the
    latter, its radicand) compiles to a numerator and a denominator of
    degree at most 1: a ratio of two affine functions of that count, which
    invert() inverts in closed form."""
    if kind == "ratio_sqrt":
        return frozenset()
    body = expr[1] if kind == "sqrt" else expr
    return frozenset(axis for axis in ("tp", "tn")
                     if max(_degrees(body, axis)) <= 1)


class AffineForm(NamedTuple):
    """score = alpha*tp/p + beta*tn/n + gamma*(tp + tn)/(p + n) + delta
    wherever the formula is defined, which is wherever none of the totals
    named in `divisors` ("p", "n", "p+n") is zero."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    divisors: frozenset


#: Each count variable as a linear combination of tp, tn, p and n.
_COUNT_TERMS = {"tp": {"tp": 1}, "tn": {"tn": 1}, "p": {"p": 1}, "n": {"n": 1},
                "fp": {"n": 1, "tn": -1}, "fn": {"p": 1, "tp": -1}}
#: The ratio leaves: divisor -> (the counts over it, the totals in it).
_RATIO_LEAVES = {"p": (("tp",), ("p",)), "n": (("tn",), ("n",)),
                 "p+n": (("tp", "tn"), ("p", "n"))}


def _multiple(terms: dict, keys) -> Optional[Fraction]:
    """c when the part of `terms` on `keys` is c * (sum of keys), else None."""
    values = {terms.get(k, 0) for k in keys}
    return values.pop() if len(values) == 1 else None


def _affine_terms(node: AstNode):
    """(terms, divisors) of a formula node, or None outside the affine basis.
    terms maps the counts "tp", "tn", "p", "n", the ratio leaves (keyed by
    their divisor "p", "n", "p+n" as "/p", "/n", "/p+n") and "1" to nonzero
    Fractions; divisors are the divisors of every quotient by a total."""
    if isinstance(node, str) and node in _COUNT_TERMS:
        return {k: Fraction(v) for k, v in _COUNT_TERMS[node].items()}, frozenset()
    if not isinstance(node, list):
        c = Fraction(node)
        return ({"1": c} if c else {}), frozenset()
    if node[0] == "sqrt":
        return None
    args = [_affine_terms(arg) for arg in node[1:]]
    if None in args:
        return None
    if node[0] == "neg":
        return {k: -v for k, v in args[0][0].items()}, args[0][1]
    (x, dx), (y, dy) = args
    divisors = dx | dy
    if node[0] in ("+", "-"):
        sign = 1 if node[0] == "+" else -1
        terms = {k: x.get(k, 0) + sign * y.get(k, 0) for k in x.keys() | y.keys()}
        return {k: v for k, v in terms.items() if v}, divisors
    if node[0] == "*":
        if y.keys() <= {"1"}:
            x, y = y, x
        if not x.keys() <= {"1"}:
            return None
        c = x.get("1", 0)
        return ({k: c * v for k, v in y.items()} if c else {}), divisors
    if y.keys() <= {"1"}:  # a quotient by a constant
        return ({k: v / y["1"] for k, v in x.items()}, divisors) if y else None
    for divisor, (counts, totals) in _RATIO_LEAVES.items():
        if y.keys() == set(totals) and x.keys() <= set(counts + totals):
            c, a, b = (_multiple(y, totals), _multiple(x, counts),
                       _multiple(x, totals))
            if c is None or a is None or b is None:
                return None
            terms = {"/" + divisor: a / c, "1": b / c}
            return {k: v for k, v in terms.items() if v}, divisors | {divisor}
    return None


def affine_form(formula: AstNode) -> Optional[AffineForm]:
    """The score-space affine form of a formula, or None when the formula
    is not a rational combination of the ratio leaves tp/p, tn/n and
    (tp + tn)/(p + n) (fn/p, fp/n and (fp + fn)/(p + n) are 1 minus them)
    and constants.

    Lemma: _affine_terms(node) == (terms, divisors) means that, as rational
    functions, node == sum of terms[k] * k over the basis tp, tn, p, n,
    tp/p, tn/n, (tp + tn)/(p + n), 1, and that the compiled denominator of
    node (_pair_src) is a nonzero constant times a product of positive
    powers of exactly the totals in divisors. Proof sketch, by induction
    on the tree: leaves are the basis with denominator 1 or a nonzero
    constant; neg, +, - and * by a constant are linear and multiply the
    denominators; a quotient by a nonzero constant c keeps the
    denominator's zeros, and a quotient x/y with y == c * T for a total T
    in p, n, p + n and x == a * (counts over T) + b * T is a * leaf + b
    over c, while its compiled denominator is x's times y's numerator,
    which is c * T times y's denominator. Any other node has no such
    form and gives None. The basis is linearly independent, so a formula
    is in it iff its form has no count terms, and then value() is None
    exactly where some divisor total is zero, and otherwise equals the
    form. A None only refuses the score for means, so it is never wrong.
    """
    derived = _affine_terms(formula)
    if derived is None or derived[0].keys() - {"/p", "/n", "/p+n", "1"}:
        return None
    terms, divisors = derived
    return AffineForm(*(terms.get(k, Fraction(0))
                        for k in ("/p", "/n", "/p+n", "1")), divisors)


# ---------------------------------------------------------------------------
# score definitions
# ---------------------------------------------------------------------------


class ScoreDefinition:
    """One score: identity, formula, theoretical range and monotone
    directions, plus the compiled evaluators and the affine form derived
    from the formula (None when the score is not affine).

    mono_tp and mono_tn must each be 1 (nondecreasing), -1 (nonincreasing)
    or 0 (constant); anything else raises ValueError."""

    def __init__(self, score_id: str, name: str, formula: AstNode,
                 range_: RationalInterval, mono_tp: int, mono_tn: int,
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
        self.mono_tp = mono_tp
        self.mono_tn = mono_tn
        self.default_enabled = default_enabled
        self._kind, self._fn = _compile(formula)
        self._fractional = _fractional_axes(formula, self._kind)
        self._range_ends = target_ends(range_)
        self.form = affine_form(formula)

    def __repr__(self):
        return f"<ScoreDefinition {self.score_id}>"

    @property
    def linear(self) -> bool:
        """Whether the score is affine in the confusion counts (see
        affine_form); only those enter means of scores."""
        return self.form is not None

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

    def affine_coefficients(self, p: int, n: int):
        """(a, b, c) with score = a*tp + b*tn + c on a testset of totals
        (p, n); None when the score is not linear or is undefined for these
        totals (a zero structural denominator, e.g. sens with p = 0). Read
        off the form: a = alpha/p + gamma/(p + n), b = beta/n + gamma/(p +
        n) and c = delta; a nonzero coefficient implies its total is a
        divisor, so no division by zero happens."""
        form = self.form
        totals = {"p": p, "n": n, "p+n": p + n}
        if form is None or any(totals[d] == 0 for d in form.divisors):
            return None
        zero = Fraction(0)
        acc = form.gamma / (p + n) if form.gamma else zero
        return ((form.alpha / p if form.alpha else zero) + acc,
                (form.beta / n if form.beta else zero) + acc, form.delta)

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

        Closed form, on an axis in self._fractional (_fractional_axes):
        with the other count o fixed, the compiled parts N(m) and D(m)
        have degree at most 1 in m. Where D(m) != 0, compare() gives the
        sign of N(m)*cd - cn*D(m) times sgn D(m) (for the sqrt kind,
        N(m)*cd² - cn²*D(m) when cn >= 0, and +1 when cn < 0, since a
        square root lies above every negative end). D is affine and does
        not vanish on the interior unless it vanishes there throughout
        (the facts above), so it keeps one sign s there, the sign of
        D(1) + D(size-1), and if that sum is 0, D is 0 at both ends and so
        on the whole interior, where the corner is the constant widened
        answer. Otherwise the test at m is E(m) >= 0 with E(m) = sense *
        s * (N(m)*cd - cn*D(m)) (sense = 1 for b_ok, -1 for a_ok; cd² and
        cn² for the sqrt kind), an affine function of m that E(1) and
        E(size-1) fix. Its nonnegative set on [1, size-1] is everything
        when both ends are >= 0, nothing when both are < 0, and else a run
        that starts or ends at the crossing: with L = size-2, E(m) =
        E(1) + (m-1)*(E(size-1) - E(1))/L, so the first m with E(m) >= 0
        is 1 - floor(E(1)*L / (E(size-1) - E(1))) (one ceil division) and
        the last is 1 + floor(E(1)*L / (E(1) - E(size-1))). For size 2 the
        interior is the point 1 and both ends are that point. The runs of
        a_ok and b_ok are their true sets, which are the monotone runs the
        search would find, so their intersection is exactly the searched
        (t1, t2), and no compare() call is made on the interior (a ratio
        of affine functions compared with a constant is an affine
        inequality; Charnes & Cooper, Naval Res. Logist. Q. 1962).

        `near`, an int box such as this score's result for a neighbouring
        column or an earlier pruning pass, seeds the two interior searches
        of a searched axis from its ends (clamped to [1, size-1]; None
        means no seed). The result does not depend on it (see the module
        docstring), only the number of compare() calls does.
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
        if lo is not None:  # b_wide, a_wide: the tests at an undefined corner
            lo_n, lo_d = lo
            b_wide = range_hi is None or range_hi[0] * lo_d >= lo_n * range_hi[1]
        if hi is not None:
            hi_n, hi_d = hi
            a_wide = range_lo is None or range_lo[0] * hi_d <= hi_n * range_lo[1]

        def b_ok(m):  # sup over other reaches the target's lower end
            if lo is None:
                return True
            sign = (compare(m, o_max, p, n, lo_n, lo_d) if tp_axis
                    else compare(o_max, m, p, n, lo_n, lo_d))
            return b_wide if sign is None else sign >= 0

        def a_ok(m):  # inf over other stays under the target's upper end
            if hi is None:
                return True
            sign = (compare(m, o_min, p, n, hi_n, hi_d) if tp_axis
                    else compare(o_min, m, p, n, hi_n, hi_d))
            return a_wide if sign is None else sign <= 0

        pieces = []
        for m in {0, size}:
            if a_ok(m) and b_ok(m):
                pieces.append((m, m))
        if size >= 2 and axis in self._fractional:
            run_a = run_b = (1, size - 1)
            if hi is not None:
                run_a = self._interior_run(tp_axis, o_min, p, n, size, hi, -1,
                                           a_wide)
            if lo is not None and run_a is not None:
                run_b = self._interior_run(tp_axis, o_max, p, n, size, lo, 1,
                                           b_wide)
            if run_a is not None and run_b is not None:
                t1, t2 = max(run_a[0], run_b[0]), min(run_a[1], run_b[1])
                if t1 <= t2:
                    pieces.append((t1, t2))
        elif size >= 2:
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

    def _interior_run(self, tp_axis: bool, o: int, p: int, n: int, size: int,
                      end: tuple[int, int], sense: int, widened: bool
                      ) -> Optional[tuple[int, int]]:
        """(first, last) of the m in [1, size-1] whose corner test at (m, o)
        (tp = m on the tp axis, tn = m on the tn axis) passes, None when
        none does: sense * sign(score - end) >= 0, or `widened` where the
        score is undefined. For an axis in self._fractional only; the
        closed form is proved in invert()."""
        fn, last = self._fn, size - 1
        n1, d1 = fn(1, o, p, n) if tp_axis else fn(o, 1, p, n)
        n2, d2 = fn(last, o, p, n) if tp_axis else fn(o, last, p, n)
        if d1 + d2 == 0:  # D vanishes on the whole interior
            return (1, last) if widened else None
        cn, cd = end
        if self._kind == "sqrt":
            if cn < 0:  # a square root lies above every negative end
                return (1, last) if sense > 0 else None
            cn, cd = cn * cn, cd * cd
        if d1 + d2 < 0:
            sense = -sense
        e1, e2 = sense * (n1 * cd - cn * d1), sense * (n2 * cd - cn * d2)
        if e1 >= 0:
            return (1, last) if e2 >= 0 else (1, 1 + e1 * (last - 1) // (e1 - e2))
        if e2 < 0:
            return None
        return 1 - e1 * (last - 1) // (e2 - e1), last

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
        for field in ("id", "formula", "range"):
            if field not in entry:
                raise ValueError(
                    f"score {entry.get('id')!r}: {field!r} is required")
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
            rng, mono.get("tp"), mono.get("tn"),
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
        RationalInterval.closed(0, 1), 1, 1, default_enabled=False)


@functools.cache
def default_registry() -> ScoreRegistry:
    """The registry loaded from the packaged data file (cached)."""
    text = resources.files("scoresleuth").joinpath(
        "data/scores.json").read_text("utf-8")
    return ScoreRegistry.from_payload(json.loads(text))


# -- module-level convenience bound to the default registry -----------------


def evaluate(score_id: str, counts: ConfusionCounts,
             registry: Optional[ScoreRegistry] = None) -> Optional[ExactValue]:
    """Exact value of a score on a confusion outcome; None when undefined."""
    reg = registry or default_registry()
    return reg.get(score_id).value_of(counts)
