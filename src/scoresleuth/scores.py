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
monotone, is binary-searched; the returned integer interval is the hull
of everything that might satisfy the target, which is all the engine
needs because final verification is pointwise and exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Mapping, Optional, Sequence, Union

from .errors import UnknownScoreId
from .intervals import EMPTY, RationalInterval
from .values import ExactValue, sqrt_fraction, times_sqrt

_COUNT_VARS = ("tp", "tn", "p", "n", "fp", "fn")

AstNode = Union[str, int, list]


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

    def invert(self, target: RationalInterval, other_box: RationalInterval,
               p: int, n: int, axis: str) -> RationalInterval:
        """Integer interval containing every value of `axis` ('tp' or 'tn')
        for which some value of the other count in other_box puts the score
        inside target. Returns the full [0, size] when the score does not
        depend on the axis.

        Every m in [0, size] takes one corner test, ok(m) = a_ok(m) and
        b_ok(m). With o_min and o_max the ends of other_box that minimise
        and maximise the score (by the declared direction in the other
        count), a_ok asks whether the score at (m, o_min) stays at or under
        target.hi and b_ok whether the score at (m, o_max) reaches
        target.lo; an undefined corner is widened to the range endpoint.

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
        """
        size = p if axis == "tp" else n
        full = RationalInterval.closed(0, size)
        mono_main = self.mono_tp if axis == "tp" else self.mono_tn
        if mono_main == 0:
            return full
        if target.is_empty:
            return EMPTY
        other_size = n if axis == "tp" else p
        other = other_box.intersect(
            RationalInterval.closed(0, other_size)).integer_clamp()
        if other.is_empty:
            return EMPTY
        mono_other = self.mono_tn if axis == "tp" else self.mono_tp
        o_min = other.lo if mono_other >= 0 else other.hi
        o_max = other.hi if mono_other >= 0 else other.lo

        def val(main, other_v):
            if axis == "tp":
                return self.value(main, other_v, p, n)
            return self.value(other_v, main, p, n)

        def b_ok(m):  # sup over other_box reaches target.lo
            if target.lo is None:
                return True
            v = val(m, o_max)
            if v is None:
                return self.range.hi is None or self.range.hi >= target.lo
            return v >= target.lo

        def a_ok(m):  # inf over other_box stays under target.hi
            if target.hi is None:
                return True
            v = val(m, o_min)
            if v is None:
                return self.range.lo is None or self.range.lo <= target.hi
            return v <= target.hi

        pieces = []
        for m in {0, size}:
            if a_ok(m) and b_ok(m):
                pieces.append((m, m))
        if size >= 2:
            if mono_main > 0:
                t1 = _first_true(1, size - 1, b_ok)
                t2 = _last_true(1, size - 1, a_ok)
            else:
                t1 = _first_true(1, size - 1, a_ok)
                t2 = _last_true(1, size - 1, b_ok)
            if t1 is not None and t2 is not None and t1 <= t2:
                pieces.append((t1, t2))
        if not pieces:
            return EMPTY
        lo = min(a for a, _ in pieces)
        hi = max(b for _, b in pieces)
        return RationalInterval.closed(lo, hi)

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


def _first_true(lo: int, hi: int, pred) -> Optional[int]:
    """Smallest i in [lo, hi] with pred(i), for pred false..false true..true."""
    if lo > hi or not pred(hi):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _last_true(lo: int, hi: int, pred) -> Optional[int]:
    """Largest i in [lo, hi] with pred(i), for pred true..true false..false."""
    if lo > hi or not pred(lo):
        return None
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


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
