"""Exact interval arithmetic: constructors, addition, subtraction and
positive scaling, intersection, integer clamping, and the containment
property that makes every downstream pruning step sound."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoresleuth.intervals import EMPTY, RationalInterval, interval_payload

I = RationalInterval.closed
F = Fraction


def test_constructors():
    assert I(1, 2).lo == 1 and I(1, 2).hi == 2
    third = RationalInterval.point(F(1, 3))
    assert third.lo == third.hi == F(1, 3)
    assert RationalInterval.at_least(0).hi is None
    assert RationalInterval.at_most(1).lo is None
    u = RationalInterval.unbounded()
    assert u.lo is None and u.hi is None
    assert EMPTY.is_empty
    with pytest.raises(ValueError):
        RationalInterval(F(2), F(1))


def test_contains_closed_endpoints():
    box = I(F(1, 3), F(2, 3))
    assert box.contains(F(1, 3))
    assert box.contains(F(2, 3))
    assert not box.contains(F(1, 4))
    assert not EMPTY.contains(0)
    assert RationalInterval.at_least(5).contains(10 ** 12)


def test_add_sub():
    assert I(1, 2).add(I(3, 4)) == I(4, 6)
    assert I(1, 2).sub(I(3, 4)) == I(-3, -1)
    assert I(0, 1).add(RationalInterval.at_least(1)) == RationalInterval.at_least(1)
    assert I(1, 2).add(EMPTY).is_empty
    # scaling by a positive constant keeps an unbounded side unbounded
    assert I(-1, 2).scale(F(1, 4)) == I(F(-1, 4), F(1, 2))
    assert RationalInterval.at_least(0).scale(F(1, 4)) == RationalInterval.at_least(0)
    assert RationalInterval.at_most(2).scale(3) == RationalInterval.at_most(6)
    assert EMPTY.scale(2).is_empty


def test_intersect():
    assert I(0, 2).intersect(I(1, 3)) == I(1, 2)
    assert I(0, 1).intersect(I(2, 3)).is_empty
    assert I(0, 1).intersect(I(1, 2)) == I(1, 1)
    a, b, c = I(0, 5), I(2, 8), I(4, 10)
    assert a.intersect(b) == b.intersect(a)
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))
    assert a.intersect(a) == a


def test_integer_clamp():
    assert I(F(8099, 100), F(8101, 100)).integer_clamp() == I(81, 81)
    assert I(F(1, 5), F(4, 5)).integer_clamp().is_empty
    clamped = I(F(-1, 2), F(5, 2)).intersect(RationalInterval.at_least(0)).integer_clamp()
    assert clamped == I(0, 2)


def test_integer_clamp_subset_and_complete():
    box = I(F(-7, 3), F(11, 4))
    clamped = box.integer_clamp()
    assert box.contains(clamped.lo) and box.contains(clamped.hi)
    for v in range(-5, 6):
        assert clamped.contains(v) == box.contains(v)


def test_interval_payload():
    assert interval_payload(I(1, 2)) == ["1", "2"]
    assert interval_payload(RationalInterval.at_least(F(1, 3))) == ["1/3", None]
    assert interval_payload(EMPTY) == "empty"


finite = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@st.composite
def interval_and_member(draw):
    a, b = sorted((draw(finite), draw(finite)))
    box = I(a, b)
    t = draw(st.fractions(min_value=0, max_value=1, max_denominator=40))
    return box, a + (b - a) * t


@settings(max_examples=120, deadline=None, derandomize=True)
@given(interval_and_member(), interval_and_member())
def test_containment_soundness(am, bm):
    a, x = am
    b, y = bm
    assert a.add(b).contains(x + y)
    assert a.sub(b).contains(x - y)
    c = abs(y) + 1
    assert a.scale(c).contains(x * c)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(interval_and_member(), interval_and_member())
def test_endpoint_exactness_monotone_ops(am, bm):
    a, _ = am
    b, _ = bm
    s = a.add(b)
    assert s.lo == a.lo + b.lo and s.hi == a.hi + b.hi
    d = a.sub(b)
    assert d.lo == a.lo - b.hi and d.hi == a.hi - b.lo
