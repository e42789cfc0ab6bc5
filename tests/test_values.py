"""Exact q*sqrt(r) values and their exact comparisons."""

from fractions import Fraction

import pytest

from scoresleuth.values import (
    SqrtRational,
    sqrt_fraction,
    times_sqrt,
)

F = Fraction


def test_perfect_squares_fold_to_fractions():
    assert sqrt_fraction(F(9, 4)) == F(3, 2)
    assert isinstance(sqrt_fraction(F(9, 4)), Fraction)
    assert times_sqrt(F(2), F(16)) == 8
    assert times_sqrt(F(5), F(0)) == 0
    assert times_sqrt(F(0), F(2)) == 0


def test_irrational_values_stay_symbolic():
    v = sqrt_fraction(F(2))
    assert isinstance(v, SqrtRational)
    assert v.q == 1 and v.r == 2


def test_negative_radicand_rejected():
    with pytest.raises(ValueError):
        times_sqrt(F(1), F(-1))


def test_comparisons_against_rationals():
    root2 = sqrt_fraction(F(2))
    assert F(14142, 10000) < root2 < F(14143, 10000)
    assert root2 > 0
    assert not (root2 == F(3, 2))
    neg = times_sqrt(F(-1), F(2))
    assert neg < 0 < root2
    assert neg < F(-14142, 10000)
    assert F(-14143, 10000) < neg


def test_comparisons_between_sqrt_values():
    a = times_sqrt(F(2), F(3))   # sqrt(12)
    b = times_sqrt(F(3), F(2))   # sqrt(18)
    assert a < b
    assert times_sqrt(F(1), F(8)) == times_sqrt(F(2), F(2))
    assert times_sqrt(F(-2), F(3)) < times_sqrt(F(-1), F(3))
