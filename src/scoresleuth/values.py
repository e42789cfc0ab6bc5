"""Exact score values.

Most performance scores are rational functions of the confusion counts and
evaluate to a plain Fraction. Three of the supported scores (Fowlkes-Mallows,
the geometric mean of sensitivity and specificity, and Matthews correlation)
involve a square root and are irrational in general. They are represented
exactly as q * sqrt(r) with rational q and r, and compared against rationals
by sign analysis plus squaring. A square root is never rounded to a rational
bound, and no binary floating point enters any decision path.

These values serve the places that need a score as a number: affine
coefficients for fold means, the brute-force oracles and checkers that
recompute a witness. The engine's own membership decisions run the same
sign analysis on the integer formula output instead
(scores.ScoreDefinition.compare), without building a Fraction or a
SqrtRational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

ExactValue = Union[Fraction, "SqrtRational"]


def _sqrt_if_perfect(x: Fraction):
    """Exact square root of x if x is a perfect rational square, else None."""
    a, b = x.numerator, x.denominator
    ra, rb = math.isqrt(a), math.isqrt(b)
    if ra * ra == a and rb * rb == b:
        return Fraction(ra, rb)
    return None


def times_sqrt(q: Fraction, r: Fraction) -> ExactValue:
    """Exact value q * sqrt(r) for r >= 0, folded to a Fraction when possible."""
    if r < 0:
        raise ValueError(f"negative radicand: {r}")
    if q == 0 or r == 0:
        return Fraction(0)
    exact = _sqrt_if_perfect(r)
    if exact is not None:
        return q * exact
    return SqrtRational(q, r)


def sqrt_fraction(x: Fraction) -> ExactValue:
    return times_sqrt(Fraction(1), x)


class SqrtRational:
    """An exact irrational value q * sqrt(r); q nonzero rational, r a positive
    non-square rational. Supports exact comparison against rationals and other
    SqrtRational values."""

    __slots__ = ("q", "r")

    def __init__(self, q: Fraction, r: Fraction):
        self.q = q
        self.r = r

    def _cmp_rational(self, c) -> int:
        """Sign of (self - c) for rational c."""
        c = Fraction(c)
        if self.q > 0:
            if c <= 0:
                return 1
            diff = self.q * self.q * self.r - c * c
        else:
            if c >= 0:
                return -1
            diff = c * c - self.q * self.q * self.r
        return (diff > 0) - (diff < 0)

    def _cmp(self, other) -> int:
        if isinstance(other, SqrtRational):
            s1, s2 = (self.q > 0) - (self.q < 0), (other.q > 0) - (other.q < 0)
            if s1 != s2:
                return 1 if s1 > s2 else -1
            a = self.q * self.q * self.r
            b = other.q * other.q * other.r
            sign = (a > b) - (a < b)
            return sign if s1 > 0 else -sign
        return self._cmp_rational(other)

    def __eq__(self, other):
        if isinstance(other, (SqrtRational, Fraction, int)):
            return self._cmp(other) == 0
        return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __neg__(self):
        return SqrtRational(-self.q, self.r)

    def __hash__(self):
        return hash(("sqrt", self.q > 0, self.q * self.q * self.r))

    def __float__(self):
        return float(self.q) * math.sqrt(float(self.r))

    def __repr__(self):
        return f"SqrtRational({self.q!r}, {self.r!r})"

    def __str__(self):
        return f"{self.q}*sqrt({self.r})"
