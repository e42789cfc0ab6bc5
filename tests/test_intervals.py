"""Exact rational intervals: constructors, closed-endpoint membership,
intersection and the JSON payload."""

from fractions import Fraction

import pytest

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


def test_intersect():
    assert I(0, 2).intersect(I(1, 3)) == I(1, 2)
    assert I(0, 1).intersect(I(2, 3)).is_empty
    assert I(0, 1).intersect(I(1, 2)) == I(1, 1)
    a, b, c = I(0, 5), I(2, 8), I(4, 10)
    assert a.intersect(b) == b.intersect(a)
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))
    assert a.intersect(a) == a


def test_interval_payload():
    assert interval_payload(I(1, 2)) == ["1", "2"]
    assert interval_payload(RationalInterval.at_least(F(1, 3))) == ["1/3", None]
    assert interval_payload(EMPTY) == "empty"

