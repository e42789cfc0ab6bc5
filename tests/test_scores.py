"""Score registry: exact values, ranges, inversion against brute force,
monotone directions, the F-beta factory, and the integer sign test
(compare, within) and inversion against value()-based references."""

import inspect
import itertools
import json
import math
import random
from fractions import Fraction
from importlib import resources

import pytest

from scoresleuth.errors import UnknownScoreId
from scoresleuth.intervals import EMPTY, RationalInterval
from scoresleuth.scores import (
    ConfusionCounts,
    ScoreDefinition,
    _first_true,
    _last_true,
    affine_form,
    default_registry,
    evaluate,
    fbeta_definition,
    target_ends,
)
from scoresleuth.values import SqrtRational

F = Fraction
I = RationalInterval.closed


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def test_twenty_defaults_and_two_extras(registry):
    defaults = registry.ids(default_only=True)
    assert len(defaults) == 20
    assert "acc" in defaults and "f1" in defaults
    everything = registry.ids()
    assert len(everything) == 22
    assert "plr" in everything and "plr" not in defaults
    assert "nlr" in everything and "nlr" not in defaults
    # the non-default entries resolve through the same interface
    assert registry.get("plr").value(1, 1, 2, 2) == F(1, 2) / F(1, 2)


def test_unknown_id(registry):
    with pytest.raises(UnknownScoreId):
        registry.get("made_up")


def test_textbook_values():
    counts = ConfusionCounts(tp=81, tn=850, p=100, n=1000)
    assert evaluate("acc", counts) == F(931, 1100)
    assert evaluate("f1", counts) == F(162, 331)
    assert evaluate("sens", counts) == F(81, 100)


def test_zero_numerator_and_undefined():
    assert evaluate("sens", ConfusionCounts(0, 3, 4, 5)) == 0
    # tp + fp = 0: precision undefined
    assert evaluate("ppv", ConfusionCounts(0, 5, 3, 5)) is None


def test_sqrt_valued_scores_are_exact():
    counts = ConfusionCounts(1, 1, 2, 3)
    gm = evaluate("gm", counts)  # sqrt(1/2 * 1/3)
    assert isinstance(gm, SqrtRational)
    assert F(40, 100) < gm < F(41, 100)
    mcc = evaluate("mcc", ConfusionCounts(2, 1, 3, 3))
    assert mcc is not None


def test_score_ranges(registry):
    assert registry.get("acc").range == I(0, 1)
    assert registry.get("mcc").range == I(-1, 1)
    assert registry.get("youden").range == I(-1, 1)


def E(lo, hi):
    """Target ends of the closed interval [lo, hi]."""
    return target_ends(I(lo, hi))


def test_target_ends():
    assert E(F(8099, 10000), 1) == ((8099, 10000), (1, 1))
    assert E(F(-2, 4), 0) == ((-1, 2), (0, 1))
    assert target_ends(RationalInterval.at_least(F(1, 3))) == ((1, 3), None)
    assert target_ends(RationalInterval.unbounded()) == (None, None)
    assert target_ends(EMPTY) is None


def test_invert_examples(registry):
    sens, spec, acc = (registry.get(i) for i in ("sens", "spec", "acc"))
    assert sens.invert(E(F(8099, 10000), F(8101, 10000)),
                       (0, 1000), 100, 1000, "tp") == (81, 81)
    assert spec.invert(E(0, 1), (0, 1000), 100, 1000, "tp") == (0, 100)
    assert acc.invert(E(F(8463, 10000), F(8465, 10000)),
                      (850, 850), 100, 1000, "tp") == (81, 81)
    assert acc.invert(E(F(8463, 10000), F(8465, 10000)),
                      (81, 81), 100, 1000, "tn") == (850, 850)


def test_invert_boundary_counts_use_exact_corners(registry):
    """At tp = 0 and tp = p the corner values are compared exactly, also
    when they are irrational: gm on p = 2, n = 3 ranges over 0 and
    sqrt(tp/2 * tn/3), and a target just above the tn = 2 corner at tp = 2
    excludes tp = 2 unless tn = 3 is allowed."""
    gm = registry.get("gm")
    corner = gm.value(2, 2, 2, 3)           # sqrt(2/3), irrational
    assert isinstance(corner, SqrtRational)
    lo = F(8165, 10000)                     # sqrt(2/3) = 0.81649...
    assert corner < lo
    target = E(lo, 1)
    assert gm.invert(target, (0, 2), 2, 3, "tp") is None
    assert gm.invert(target, (0, 3), 2, 3, "tp") == (2, 2)
    assert gm.invert(E(0, 0), (1, 2), 2, 3, "tp") == (0, 0)
    # ppv is undefined at tp = 0, tn = n; that corner widens to the range,
    # so tp = 0 stays; with two false positives ppv(0) = 0 drops it.
    ppv = registry.get("ppv")
    assert ppv.invert(E(F(1, 2), 1), (4, 4), 3, 4, "tp") == (0, 3)
    assert ppv.invert(E(F(1, 2), 1), (2, 2), 3, 4, "tp") == (2, 3)


def _random_box(rng, size):
    """An int other-count box (lo, hi): the full axis, a single point
    (often a boundary count), a random subrange, one touching a boundary
    count, or the integers of a box with half-integer ends that reaches
    past the axis (lo > hi when it holds none)."""
    kind = rng.randrange(5)
    if kind == 0:
        return 0, size
    if kind == 1:
        m = rng.choice((0, size, rng.randint(0, size)))
        return m, m
    if kind == 2:
        return tuple(sorted((rng.randint(0, size), rng.randint(0, size))))
    if kind == 3:
        r = rng.randint(0, size)
        return rng.choice(((0, r), (r, size)))
    a = F(rng.randint(-4, 2 * size + 2), 2)
    return math.ceil(a), math.floor(a + F(rng.randint(0, 2 * size + 4), 2))


def _random_target(rng, definition, p, n):
    kind = rng.randrange(4)
    if kind == 0:
        value = definition.value(rng.randint(0, p), rng.randint(0, n), p, n)
        if isinstance(value, Fraction):
            return RationalInterval.point(value)
    if kind == 1:
        return rng.choice((RationalInterval.at_least(F(rng.randint(-10, 10), 10)),
                           RationalInterval.at_most(F(rng.randint(-10, 10), 10))))
    lo = F(rng.randint(-12, 10), 10)
    return I(lo, lo + F(rng.randint(0, 4), 10))


def test_inversion_soundness_brute_force(registry):
    """invert keeps every count that some other count in the box can
    satisfy, on random boxes (single points and the boundary counts 0 and
    size included) and targets (points, half-open and closed windows)."""
    rng = random.Random(11)
    ids = registry.ids()
    for _ in range(3000):
        p, n = rng.randint(0, 8), rng.randint(0, 8)
        sid = rng.choice(ids)
        definition = registry.get(sid)
        axis = rng.choice(("tp", "tn"))
        size, other_size = (p, n) if axis == "tp" else (n, p)
        other_box = _random_box(rng, other_size)
        target = _random_target(rng, definition, p, n)
        region = definition.invert(target_ends(target), other_box, p, n, axis)
        for m in range(size + 1):
            for o in range(max(other_box[0], 0), min(other_box[1], other_size) + 1):
                tp, tn = (m, o) if axis == "tp" else (o, m)
                val = definition.value(tp, tn, p, n)
                if val is not None and target.contains(val):
                    assert region is not None and region[0] <= m <= region[1], (
                        sid, axis, tp, tn, p, n, target, other_box)


def test_monotone_directions_exhaustive(registry):
    """The declared tp/tn directions hold at every interior step of a small
    grid (undefined corner values are skipped; they are the documented
    exceptions at the box extremes)."""
    p = n = 4
    for sid in registry.ids():
        d = registry.get(sid)
        for tp, tn in itertools.product(range(p), range(n + 1)):
            a, b = d.value(tp, tn, p, n), d.value(tp + 1, tn, p, n)
            if a is None or b is None:
                continue
            assert d.mono_tp * _sign(b, a) >= 0, (sid, tp, tn, "tp")
        for tp, tn in itertools.product(range(p + 1), range(n)):
            a, b = d.value(tp, tn, p, n), d.value(tp, tn + 1, p, n)
            if a is None or b is None:
                continue
            assert d.mono_tn * _sign(b, a) >= 0, (sid, tp, tn, "tn")


def test_monotone_metadata_is_required(registry):
    entry = registry.get("acc").to_payload()
    assert ScoreDefinition.from_payload(entry).mono_tp == 1
    for field in ("monotone", "id", "formula", "range"):
        missing = {k: v for k, v in entry.items() if k != field}
        with pytest.raises(ValueError, match=repr(field)):
            ScoreDefinition.from_payload(missing)
    for bad in ({"tp": 2, "tn": 1}, {"tp": 1}, {"tp": 1, "tn": True}):
        with pytest.raises(ValueError):
            ScoreDefinition.from_payload(dict(entry, monotone=bad))


def _sign(b, a):
    if b == a:
        return 0
    return 1 if b > a else -1


def test_fbeta_factory(registry):
    counts = ConfusionCounts(3, 2, 5, 4)
    f2 = fbeta_definition(2)
    assert f2.value(*_as_args(counts)) == registry.get("fbeta").value(*_as_args(counts))
    f1_again = fbeta_definition(1)
    assert f1_again.value(*_as_args(counts)) == registry.get("f1").value(*_as_args(counts))
    with pytest.raises(ValueError):
        fbeta_definition(0)


def _as_args(c):
    return (c.tp, c.tn, c.p, c.n)


# ---------------------------------------------------------------------------
# the integer corner test against value()
# ---------------------------------------------------------------------------


def _all_definitions(registry):
    return registry.definitions() + [fbeta_definition(F(1, 2))]


def _exact_sign(value, c):
    """Sign of value - c through value()'s Fraction or SqrtRational."""
    return (value > c) - (value < c)


def _thresholds(rng, value):
    """Zero, negative and random thresholds, plus the value itself when it
    is rational and thresholds close to it on both sides otherwise."""
    out = [F(0), F(-1), F(-1, 2), F(rng.randint(-30, 30), rng.randint(1, 13))]
    if isinstance(value, Fraction):
        out += [value, -value, value + F(1, 10 ** 6), value - F(1, 10 ** 6)]
    elif value is not None:
        approx = float(value)
        for k in (2, 6, 12):
            scaled = approx * 10 ** k
            out += [F(math.floor(scaled) - 1, 10 ** k),
                    F(math.ceil(scaled) + 1, 10 ** k), -F(math.floor(scaled), 10 ** k)]
    return out


def _random_counts(rng):
    """(tp, tn, p, n) with p, n in 0..40, boundary counts favoured."""
    p, n = rng.randint(0, 40), rng.randint(0, 40)

    def count(size):
        return rng.choice((0, size, rng.randint(0, size), rng.randint(0, size)))
    return count(p), count(n), p, n


def test_compare_matches_value_exhaustively_on_small_testsets(registry):
    """compare() is the sign of value() - c, and None exactly where value()
    is None, at every count of every testset with p, n <= 5."""
    rng = random.Random(3)
    for definition in _all_definitions(registry):
        for p, n in itertools.product(range(6), repeat=2):
            for tp, tn in itertools.product(range(p + 1), range(n + 1)):
                value = definition.value(tp, tn, p, n)
                for c in _thresholds(rng, value):
                    sign = definition.compare(tp, tn, p, n,
                                              c.numerator, c.denominator)
                    if value is None:
                        assert sign is None, (definition, tp, tn, p, n)
                    else:
                        assert sign == _exact_sign(value, c), (
                            definition, tp, tn, p, n, c)


NEG_SENS = ["/", ["neg", "tp"], ["neg", "p"]]
NEG_FORMULAS = [NEG_SENS, ["sqrt", NEG_SENS], ["sqrt", ["-", "tp", "fn"]],
                ["/", ["-", "tp", "fn"], ["sqrt", NEG_SENS]]]
#: ppv and gm written with negated terms: negative compiled denominators
#: (and radicand parts) on scores that keep the facts invert() relies on.
NEGATED = [
    ScoreDefinition("neg-ppv", "negated ppv",
                    ["/", ["neg", "tp"], ["neg", ["+", "tp", "fp"]]], I(0, 1), 1, 1),
    ScoreDefinition("neg-gm", "negated gm",
                    ["sqrt", ["/", ["neg", ["*", "tp", "tn"]],
                              ["neg", ["*", "p", "n"]]]], I(0, 1), 1, 1)]


def test_compare_with_negative_compiled_denominators():
    """Formulas written with negated terms compile to negative denominators
    (and a negative radicand numerator), and a radicand that goes negative
    is undefined; compare() still matches value()."""
    rng = random.Random(4)
    for formula in NEG_FORMULAS:
        definition = ScoreDefinition("neg", "negated", formula,
                                     RationalInterval.unbounded(), 1, 0)
        for p, n in itertools.product(range(5), range(2)):
            for tp in range(p + 1):
                value = definition.value(tp, 0, p, n)
                for c in _thresholds(rng, value):
                    sign = definition.compare(tp, 0, p, n, c.numerator, c.denominator)
                    assert sign == (None if value is None else _exact_sign(value, c)), (
                        formula, tp, p, c)


def test_compare_matches_value_on_random_counts(registry):
    """The same on random counts up to p, n = 40 for all 22 shipped scores
    and F-beta with beta = 1/2, with ties at rational values (perfect-square
    roots included) and both sides of irrational values covered."""
    rng = random.Random(5)
    ties = {}
    sides = {}
    for definition in _all_definitions(registry):
        for _ in range(1500):
            tp, tn, p, n = _random_counts(rng)
            value = definition.value(tp, tn, p, n)
            for c in _thresholds(rng, value):
                sign = definition.compare(tp, tn, p, n, c.numerator, c.denominator)
                if value is None:
                    assert sign is None, (definition, tp, tn, p, n)
                    continue
                expected = _exact_sign(value, c)
                assert sign == expected, (definition, tp, tn, p, n, c)
                if expected == 0 and c != 0:
                    ties[definition.score_id] = ties.get(definition.score_id, 0) + 1
                if isinstance(value, SqrtRational):
                    sides.setdefault(definition.score_id, set()).add(expected)
    for definition in _all_definitions(registry):
        assert ties.get(definition.score_id), definition  # nonzero ties reached
    for sid in ("fm", "gm", "mcc"):
        assert sides[sid] == {-1, 1}


def test_compare_at_perfect_square_roots(registry):
    """Square-root scores that are rational at a count compare equal to
    that value: gm = sqrt(tp/p * tn/n) and fm = sqrt(ppv * sens) with
    squares under the root, and mcc = +-1 and 1/2."""
    gm, fm, mcc = (registry.get(i) for i in ("gm", "fm", "mcc"))
    cases = [(gm, (1, 4, 4, 9), F(1, 3)), (gm, (2, 2, 8, 8), F(1, 4)),
             (fm, (4, 5, 9, 5), F(2, 3)), (fm, (1, 7, 4, 7), F(1, 2)),
             (mcc, (3, 4, 3, 4), F(1)), (mcc, (0, 0, 3, 4), F(-1))]
    # mcc at tp = tn = 3 of p = n = 4: (9 - 1) / sqrt(4^4) = 1/2
    cases.append((mcc, (3, 3, 4, 4), F(1, 2)))
    for definition, counts, expected in cases:
        assert definition.value(*counts) == expected
        for delta, sign in ((0, 0), (F(1, 10 ** 9), -1), (-F(1, 10 ** 9), 1)):
            c = expected + delta
            assert definition.compare(*counts, c.numerator, c.denominator) == sign


def test_within_is_value_in_target(registry):
    """within() agrees with value() plus exact interval membership, for
    closed, half-open, unbounded, point and empty targets."""
    rng = random.Random(9)
    for definition in _all_definitions(registry):
        for _ in range(400):
            tp, tn, p, n = _random_counts(rng)
            target = rng.choice((
                _random_target(rng, definition, p, n), RationalInterval.unbounded(),
                EMPTY))
            value = definition.value(tp, tn, p, n)
            expected = value is not None and target.contains(value)
            assert definition.within(target_ends(target), tp, tn, p, n) == expected, (
                definition, tp, tn, p, n, target)


def _reference_invert(definition, target, other_box, p, n, axis):
    """invert() recomputed from value() at every count of the axis: the
    hull of the counts whose two corner tests pass."""
    size, other_size = (p, n) if axis == "tp" else (n, p)
    mono_main = definition.mono_tp if axis == "tp" else definition.mono_tn
    if mono_main == 0:
        return 0, size
    if target.is_empty:
        return None
    lo, hi = max(other_box[0], 0), min(other_box[1], other_size)
    if lo > hi:
        return None
    mono_other = definition.mono_tn if axis == "tp" else definition.mono_tp
    o_min, o_max = (lo, hi) if mono_other >= 0 else (hi, lo)

    def val(m, o):
        return definition.value(*((m, o) if axis == "tp" else (o, m)), p, n)

    def ok(m):
        if target.lo is not None:
            v = val(m, o_max)
            if v is None:
                if definition.range.hi is not None and definition.range.hi < target.lo:
                    return False
            elif v < target.lo:
                return False
        if target.hi is not None:
            v = val(m, o_min)
            if v is None:
                if definition.range.lo is not None and definition.range.lo > target.hi:
                    return False
            elif v > target.hi:
                return False
        return True
    kept = [m for m in range(size + 1) if ok(m)]
    return (kept[0], kept[-1]) if kept else None


def _reference_case(rng, definitions):
    """A random instance (definition, target, other box, p, n, axis) for
    the invert() reference tests: any score, one of NEGATED, or F-beta at
    a random rational beta; p and n in 0..40, or in 0..300 one time in
    four; the targets of _random_target, or a window of a few units at 2-4
    decimals around the score at a random count, or one-sided with a
    negative end, which a square-root score exceeds at every count."""
    definition = rng.choice(definitions + NEGATED + [None])
    if definition is None:
        definition = fbeta_definition(F(rng.randint(1, 12), rng.randint(1, 12)))
    top = 300 if rng.random() < 0.25 else 40
    p, n = rng.randint(0, top), rng.randint(0, top)
    axis = rng.choice(("tp", "tn"))
    other_box = _random_box(rng, n if axis == "tp" else p)
    kind = rng.randrange(4)
    if kind == 0:
        end = F(-rng.randint(1, 100), 100)
        target = rng.choice((RationalInterval.at_least(end),
                             RationalInterval.at_most(end)))
    elif kind == 1:
        den = 10 ** rng.randint(2, 4)
        value = definition.value(rng.randint(0, p), rng.randint(0, n), p, n)
        mid = (rng.randint(-den, den) if value is None
               else round(float(value) * den))
        target = I(F(mid - rng.randint(0, 3), den), F(mid + rng.randint(0, 3), den))
    else:
        target = _random_target(rng, definition, p, n)
    return definition, target, other_box, p, n, axis


def test_invert_matches_value_reference(registry):
    """invert() on integer corners, in closed form or searched, equals the
    hull of its corner test recomputed with value() at every count, on
    random instances (_reference_case) of all scores and both axes."""
    rng = random.Random(13)
    definitions = _all_definitions(registry)
    for _ in range(2500):
        definition, target, other_box, p, n, axis = _reference_case(
            rng, definitions)
        assert definition.invert(target_ends(target), other_box, p, n, axis) == \
            _reference_invert(definition, target, other_box, p, n, axis), (
                definition, target, other_box, p, n, axis)


#: The (score, axis) pairs that invert() does not take in closed form;
#: every other pair of a shipped score does.
SEARCHED_AXES = {("fm", "tp"), ("mk", "tp"), ("mk", "tn"), ("mcc", "tp"),
                 ("mcc", "tn")}


def test_closed_form_axes_are_pinned(registry, monkeypatch):
    """19 of the 22 scores, and F-beta at any beta, are inverted in
    closed form on both axes, fm on tn only, and mk and mcc on neither.
    A closed-form inversion calls compare() only at the boundary counts 0
    and size, at most 4 times; a search on an axis of 1000 counts calls
    it more often."""
    calls = []
    compare = ScoreDefinition.compare

    def counted(self, *args):
        calls.append(args)
        return compare(self, *args)
    monkeypatch.setattr(ScoreDefinition, "compare", counted)
    betas = [fbeta_definition(F(b)) for b in ("1/3", "7/2")]
    searched = set()
    for definition in registry.definitions() + betas:
        for axis in ("tp", "tn"):
            calls.clear()
            value = definition.value(400, 700, 1000, 1000)
            mid = round(float(value) * 1000)
            definition.invert(target_ends(I(F(mid - 2, 1000), F(mid + 2, 1000))),
                              (0, 1000), 1000, 1000, axis)
            if len(calls) > 4:
                searched.add((definition.score_id, axis))
    assert searched == SEARCHED_AXES


#: kappa with its denominator expanded, the reference for the one in
#: data/scores.json, whose factors n = fp + tn and p = tp + fn make it
#: affine in each count.
KAPPA_EXPANDED = ["/", ["*", 2, ["-", ["*", "tp", "tn"], ["*", "fp", "fn"]]],
                  ["+", ["*", ["+", "tp", "fp"], ["+", "fp", "tn"]],
                   ["*", ["+", "tp", "fn"], ["+", "fn", "tn"]]]]


def test_kappa_formula_compiles_to_the_expanded_integers(registry):
    """The shipped kappa, with denominator (tp + fp)*n + p*(fn + tn),
    compiles to the same numerator and denominator integers as the
    expanded (tp + fp)*(fp + tn) + (tp + fn)*(fn + tn) at every count of
    every testset with p, n <= 12, so every value, comparison and
    inversion is unchanged."""
    kappa = registry.get("kappa")
    expanded = ScoreDefinition("kappa", "Cohen kappa", KAPPA_EXPANDED,
                               kappa.range, 1, 1)
    for p, n in itertools.product(range(13), repeat=2):
        for tp, tn in itertools.product(range(p + 1), range(n + 1)):
            assert kappa._fn(tp, tn, p, n) == expanded._fn(tp, tn, p, n), (
                tp, tn, p, n)


# ---------------------------------------------------------------------------
# galloping searches
# ---------------------------------------------------------------------------


def _bisect_first(lo, hi, pred):
    """Plain bisection for the smallest true index, as before starts."""
    if lo > hi or not pred(hi):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _bisect_last(lo, hi, pred):
    """Plain bisection for the largest true index, as before starts."""
    if lo > hi or not pred(lo):
        return None
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _probed(lo, hi, truth, probes):
    """truth(i) that records i and fails when it is asked outside [lo, hi],
    where invert's predicates need not be monotone."""
    def pred(i):
        assert lo <= i <= hi, (i, lo, hi)
        probes.append(i)
        return truth(i)
    return pred


@pytest.mark.parametrize("lo", [-3, 0, 1, 5])
def test_gallop_equals_bisection_for_every_start(lo):
    """_first_true and _last_true return the plain bisection's index from
    every start, inside [lo, hi] and up to 4 past either end, for every
    monotone predicate on ranges of up to 12 indices (all false and all
    true included) and on the empty range, and probe only inside [lo, hi].
    A start at the answer costs at most two probes."""
    for size in range(-1, 12):
        hi = lo + size
        # the first true index of rising, hi + 1 for none; one predicate
        # on the empty range
        for cut in range(lo, hi + 2) if hi >= lo else (lo,):
            def rising(i):
                return i >= cut

            def falling(i):
                return i < cut
            first = _bisect_first(lo, hi, rising)
            last = _bisect_last(lo, hi, falling)
            assert first == (cut if cut <= hi else None)
            assert last == (cut - 1 if lo < cut else None)
            assert _first_true(lo, hi, _probed(lo, hi, rising, [])) == first
            assert _last_true(lo, hi, _probed(lo, hi, falling, [])) == last
            for start in range(lo - 4, hi + 5):
                probes = []
                assert _first_true(lo, hi, _probed(lo, hi, rising, probes),
                                   start) == first, (lo, hi, cut, start)
                if start == first:
                    assert len(probes) <= 2, probes
                probes = []
                assert _last_true(lo, hi, _probed(lo, hi, falling, probes),
                                  start) == last, (lo, hi, cut, start)
                if start == last:
                    assert len(probes) <= 2, probes


def test_gallop_cost_grows_with_the_distance():
    """From a start d indices away the gallop makes O(log d) probes on a
    range of a million, where a bisection makes about 20."""
    lo, hi, cut = 0, 10 ** 6, 400_000
    for d in (0, 1, 7, 100, 5000):
        for start in (cut - d, cut + d):
            probes = []
            assert _first_true(lo, hi, _probed(lo, hi, lambda i: i >= cut,
                                                probes), start) == cut
            assert len(probes) <= 2 * math.log2(d + 1) + 3, (d, probes)


def _random_near(rng, size):
    """A seed box for invert: None, an axis box, a point, one reaching
    past either end of [0, size], or an empty one (lo > hi)."""
    kind = rng.randrange(5)
    if kind == 0:
        return None
    if kind == 1:
        return _random_box(rng, size)
    if kind == 2:
        m = rng.randint(-3, size + 3)
        return m, m
    if kind == 3:
        return rng.randint(-5, size + 5), rng.randint(-5, size + 5)
    a = rng.randint(1, size + 5)
    return a, a - rng.randint(1, 5)


def test_invert_near_matches_invert(registry):
    """invert(..., near) equals invert(...) and the value() reference for
    random seed boxes, empty and out-of-axis ones included, on random
    instances (_reference_case) of all scores and both axes."""
    rng = random.Random(13)
    definitions = _all_definitions(registry)
    for _ in range(2500):
        definition, target, other_box, p, n, axis = _reference_case(
            rng, definitions)
        ends = target_ends(target)
        plain = definition.invert(ends, other_box, p, n, axis)
        assert plain == _reference_invert(definition, target, other_box, p,
                                          n, axis)
        size = p if axis == "tp" else n
        for near in (_random_near(rng, size), _random_near(rng, size), plain):
            assert definition.invert(ends, other_box, p, n, axis, near) == \
                plain, (definition, target, other_box, p, n, axis, near)


# ---------------------------------------------------------------------------
# the affine form derived from the formula
# ---------------------------------------------------------------------------


AFFINE_FORMS = {"acc": (0, 0, 1, 0), "err": (0, 0, -1, 1),
                "sens": (1, 0, 0, 0), "fnr": (-1, 0, 0, 1),
                "spec": (0, 1, 0, 0), "fpr": (0, -1, 0, 1),
                "bacc": (F(1, 2), F(1, 2), 0, 0), "youden": (1, 1, 0, -1)}


def test_affine_forms_are_derived_from_the_formulas(registry):
    assert {d.score_id: d.form and tuple(d.form[:4])
            for d in registry.definitions()} == {
        sid: AFFINE_FORMS.get(sid) for sid in registry.ids()}
    assert {sid for sid in registry.ids() if registry.get(sid).linear} == set(
        AFFINE_FORMS)
    for beta in (F(1, 2), 1, 2, 3):
        assert fbeta_definition(beta).form is None
    data = json.loads(resources.files("scoresleuth").joinpath(
        "data/scores.json").read_text("utf-8"))
    assert not any("linear" in entry for entry in data["scores"])
    assert "linear" not in inspect.signature(ScoreDefinition).parameters


def test_quotients_outside_the_ratio_leaves_are_not_affine():
    for formula in (["/", "tp", ["+", "p", "n"]], ["/", ["+", "tp", 1], "p"],
                    ["/", "tp", ["+", "p", ["*", 2, "n"]]], ["/", "tp", 0],
                    ["*", "tp", ["/", "tn", "n"]], ["/", "tn", "p"],
                    ["sqrt", ["/", "tp", "p"]]):
        assert affine_form(formula) is None, formula
    assert affine_form(["/", ["*", 3, "fn"], ["*", "1/2", "p"]]) == (
        -6, 0, 0, 6, {"p"})
    assert affine_form(["/", "p", "p"]) == (0, 0, 0, 1, {"p"})


def _value_probe(definition, p, n):
    """The coefficients as three value() calls give them: (a, b, c) with c
    the value at (0, 0) and a, b the steps to (1, 0) and (0, 1); None
    when the score is not affine or one of the values is undefined."""
    if not definition.linear:
        return None
    c, va, vb = (definition.value(tp, tn, p, n)
                 for tp, tn in ((0, 0), (1, 0), (0, 1)))
    if c is None or va is None or vb is None:
        return None
    return va - c, vb - c, c


# tp/p + fp/n - fp/n: the ratio leaves over n cancel, yet the formula is
# undefined wherever n = 0
CANCELLING = ["+", ["/", "tp", "p"], ["-", ["/", "fp", "n"], ["/", "fp", "n"]]]


def test_affine_coefficients_equal_the_value_probe(registry):
    """Exhaustively for p, n <= 8: the coefficients read off the form are
    the three-value() triple, None included, and they reproduce value() at
    every count, or value() is undefined at every count."""
    definitions = _all_definitions(registry) + [
        ScoreDefinition(f"f{i}", "custom", formula,
                        RationalInterval.unbounded(), 1, 0)
        for i, formula in enumerate(NEG_FORMULAS + [CANCELLING])]
    assert [d.linear for d in definitions[-5:]] == [
        True, False, False, False, True]
    for definition in definitions:
        for p, n in itertools.product(range(9), repeat=2):
            abc = definition.affine_coefficients(p, n)
            assert abc == _value_probe(definition, p, n), (definition, p, n)
            if not definition.linear:
                continue
            for tp, tn in itertools.product(range(p + 1), range(n + 1)):
                value = definition.value(tp, tn, p, n)
                if abc is None:
                    assert value is None, (definition, tp, tn, p, n)
                else:
                    assert value == abc[0] * tp + abc[1] * tn + abc[2], (
                        definition, tp, tn, p, n)
