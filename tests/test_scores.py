"""Score registry: exact values, ranges, inversion against brute force,
monotone directions, and the F-beta factory."""

import itertools
import random
from fractions import Fraction

import pytest

from scoresleuth.errors import UnknownScoreId
from scoresleuth.intervals import EMPTY, RationalInterval
from scoresleuth.scores import (
    ConfusionCounts,
    ScoreDefinition,
    default_registry,
    evaluate,
    fbeta_definition,
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


def test_invert_examples(registry):
    sens, spec, acc = (registry.get(i) for i in ("sens", "spec", "acc"))
    assert sens.invert(I(F(8099, 10000), F(8101, 10000)),
                       I(0, 1000), 100, 1000, "tp") == I(81, 81)
    assert spec.invert(I(0, 1), I(0, 1000), 100, 1000, "tp") == I(0, 100)
    assert acc.invert(I(F(8463, 10000), F(8465, 10000)),
                      I(850, 850), 100, 1000, "tp") == I(81, 81)
    assert acc.invert(I(F(8463, 10000), F(8465, 10000)),
                      I(81, 81), 100, 1000, "tn") == I(850, 850)


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
    target = I(lo, 1)
    assert gm.invert(target, I(0, 2), 2, 3, "tp") == EMPTY
    assert gm.invert(target, I(0, 3), 2, 3, "tp") == I(2, 2)
    assert gm.invert(I(0, 0), I(1, 2), 2, 3, "tp") == I(0, 0)
    # ppv is undefined at tp = 0, tn = n; that corner widens to the range,
    # so tp = 0 stays; with two false positives ppv(0) = 0 drops it.
    ppv = registry.get("ppv")
    assert ppv.invert(I(F(1, 2), 1), I(4, 4), 3, 4, "tp") == I(0, 3)
    assert ppv.invert(I(F(1, 2), 1), I(2, 2), 3, 4, "tp") == I(2, 3)


def _random_box(rng, size):
    """An other-count box: the full axis, a single point (often a boundary
    count), a random subrange, one touching a boundary count, or a box
    reaching past the axis with fractional endpoints."""
    kind = rng.randrange(5)
    if kind == 0:
        return I(0, size)
    if kind == 1:
        return RationalInterval.point(rng.choice((0, size, rng.randint(0, size))))
    if kind == 2:
        a, b = sorted((rng.randint(0, size), rng.randint(0, size)))
        return I(a, b)
    if kind == 3:
        r = rng.randint(0, size)
        return rng.choice((I(0, r), I(r, size)))
    a = F(rng.randint(-4, 2 * size + 2), 2)
    return I(a, a + F(rng.randint(0, 2 * size + 4), 2))


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
        region = definition.invert(target, other_box, p, n, axis)
        for m in range(size + 1):
            for o in range(other_size + 1):
                if not other_box.contains(o):
                    continue
                tp, tn = (m, o) if axis == "tp" else (o, m)
                val = definition.value(tp, tn, p, n)
                if val is not None and target.contains(val):
                    assert region.contains(m), (sid, axis, tp, tn, p, n,
                                                target, other_box)


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
    missing = {k: v for k, v in entry.items() if k != "monotone"}
    with pytest.raises(ValueError):
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
