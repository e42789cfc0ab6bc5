"""Closed rational intervals with optional unbounded endpoints.

The decision procedures in this package only ever compare rational numbers,
so intervals carry exact `fractions.Fraction` endpoints. `None` stands for an
unbounded side, and a dedicated empty interval is representable (distinct
from every point interval).

The operations are the ones the engine uses: addition, negation and
subtraction, scaling by a positive rational constant and intersection. All
of them have exact endpoints, including unbounded ones, so no indeterminate
form such as 0 * inf can arise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

Rat = Union[Fraction, int]


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class RationalInterval:
    """A closed interval over the rationals, possibly unbounded or empty.

    Do not call the constructor with lo > hi; use `interval`, `point`,
    `at_least`, `at_most`, `unbounded` or `EMPTY`.
    """

    lo: Optional[Fraction]  # None = unbounded below
    hi: Optional[Fraction]  # None = unbounded above
    is_empty: bool = False

    def __post_init__(self):
        if self.is_empty:
            return
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def closed(lo: Rat, hi: Rat) -> "RationalInterval":
        return RationalInterval(_frac(lo), _frac(hi))

    @staticmethod
    def point(x: Rat) -> "RationalInterval":
        x = _frac(x)
        return RationalInterval(x, x)

    @staticmethod
    def at_least(lo: Rat) -> "RationalInterval":
        return RationalInterval(_frac(lo), None)

    @staticmethod
    def at_most(hi: Rat) -> "RationalInterval":
        return RationalInterval(None, _frac(hi))

    @staticmethod
    def unbounded() -> "RationalInterval":
        return RationalInterval(None, None)

    # -- predicates --------------------------------------------------------

    def contains(self, value) -> bool:
        """Exact closed-interval membership. `value` may be any type that
        compares exactly against Fraction (int, Fraction, SqrtRational)."""
        if self.is_empty:
            return False
        if self.lo is not None and not (self.lo <= value):
            return False
        if self.hi is not None and not (value <= self.hi):
            return False
        return True

    # -- arithmetic --------------------------------------------------------

    def add(self, other: "RationalInterval") -> "RationalInterval":
        if self.is_empty or other.is_empty:
            return EMPTY
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return RationalInterval(lo, hi)

    def neg(self) -> "RationalInterval":
        if self.is_empty:
            return EMPTY
        return RationalInterval(
            None if self.hi is None else -self.hi,
            None if self.lo is None else -self.lo,
        )

    def sub(self, other: "RationalInterval") -> "RationalInterval":
        return self.add(other.neg())

    def scale(self, c: Rat) -> "RationalInterval":
        """The interval {c * x : x in self} for a rational c > 0; an
        unbounded side stays unbounded."""
        if self.is_empty:
            return EMPTY
        return RationalInterval(None if self.lo is None else self.lo * c,
                                None if self.hi is None else self.hi * c)

    def intersect(self, other: "RationalInterval") -> "RationalInterval":
        if self.is_empty or other.is_empty:
            return EMPTY
        lo = _ext_max2(self.lo, other.lo)
        hi = _ext_min2(self.hi, other.hi)
        if lo is not None and hi is not None and lo > hi:
            return EMPTY
        return RationalInterval(lo, hi)

    # operator sugar
    __add__ = add
    __sub__ = sub

    def __str__(self) -> str:
        if self.is_empty:
            return "empty"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


EMPTY = RationalInterval(None, None, is_empty=True)


def _ext_max2(a, b):
    # max of two lower endpoints where None means -inf
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _ext_min2(a, b):
    # min of two upper endpoints where None means +inf
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def interval_payload(interval: RationalInterval):
    """JSON-friendly form: "empty" or a [lo, hi] pair of rational strings,
    with null for an unbounded side."""
    if interval.is_empty:
        return "empty"
    return [
        None if interval.lo is None else str(interval.lo),
        None if interval.hi is None else str(interval.hi),
    ]
