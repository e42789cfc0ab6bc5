"""Branch-and-bound integer feasibility over affine rational constraints.

Decision variables are bounded integers; each constraint asks an affine
combination with exact rational coefficients to land inside a closed
rational interval. There is no objective function — the only question is
whether an assignment exists.

Everything is exact. An external MILP solver would be faster on large
instances but works in floating point, and a tolerance at an interval
endpoint could flip a verdict; an infeasibility answer from this module is
a proof, which is the whole point of the package. Internally each
constraint is rescaled once by the lcm of its coefficient denominators, so
the hot propagation loop runs on plain integers; because the variables are
integers, the rational window maps onto an exactly equivalent integer
window via one ceil/floor per endpoint.

The search order is pinned for reproducibility: propagate bounds to a
fixpoint, branch on the variable with the largest remaining domain (ties:
lowest index, i.e. declaration order), lower half first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .intervals import RationalInterval


@dataclass(frozen=True)
class AffineConstraint:
    """constant + sum(coeffs[i] * x[i]) must lie in bounds."""

    coeffs: tuple[Fraction, ...]
    constant: Fraction
    bounds: RationalInterval
    label: str = ""

    def __post_init__(self):
        if self.bounds.is_empty:
            raise ValueError("constraint bounds must be nonempty")


@dataclass(frozen=True)
class SolveOutcome:
    """What one system of mean constraints came to.

    `solution` holds the caller's per-fold counts (or matrices) when the
    system is feasible, and is None otherwise. `excluded` marks a system
    that could not have produced the report at all, because a reported
    score is undefined on some fold for every outcome; an OR over fold
    layouts skips and counts those. `evidence` explains the outcome.
    """

    solution: Optional[list] = None
    evidence: Optional[dict] = None
    excluded: bool = False

    @property
    def feasible(self) -> bool:
        return self.solution is not None


def _scale(constraints: Sequence[AffineConstraint]):
    """Integer form of each constraint: (terms, lo, hi) with terms a list of
    (index, int coefficient) and an integer window [lo, hi] (None = open
    side). Equivalent to the rational original because the variables are
    integers: sum(c*x) in [blo, bhi] iff it is in [ceil(blo), floor(bhi)].
    """
    scaled = []
    for con in constraints:
        denom = 1
        for c in con.coeffs:
            if c != 0:
                denom = denom * c.denominator // math.gcd(denom, c.denominator)
        terms = [(i, int(c * denom))
                 for i, c in enumerate(con.coeffs) if c != 0]
        base = con.constant * denom
        blo, bhi = con.bounds.lo, con.bounds.hi
        lo = None if blo is None else math.ceil(blo * denom - base)
        hi = None if bhi is None else math.floor(bhi * denom - base)
        scaled.append((terms, lo, hi))
    return scaled


def _propagate_scaled(domains, scaled) -> Optional[list[tuple[int, int]]]:
    doms = [(lo, hi) for lo, hi in domains]
    for lo, hi in doms:
        if lo > hi:
            return None
    changed = True
    while changed:
        changed = False
        for terms, blo, bhi in scaled:
            lo_sum = hi_sum = 0
            contrib = []
            for i, c in terms:
                lo_i, hi_i = doms[i]
                a, b = (c * lo_i, c * hi_i) if c > 0 else (c * hi_i, c * lo_i)
                contrib.append((i, c, a, b))
                lo_sum += a
                hi_sum += b
            if (bhi is not None and lo_sum > bhi) or (
                    blo is not None and hi_sum < blo):
                return None
            for i, c, a, b in contrib:
                # x_i is supportable only if c*x_i fits the window after the
                # other terms contribute their most helpful extremes.
                rest_lo = lo_sum - a
                rest_hi = hi_sum - b
                lo_cx = None if blo is None else blo - rest_hi
                hi_cx = None if bhi is None else bhi - rest_lo
                if c > 0:
                    new_lo = None if lo_cx is None else -((-lo_cx) // c)
                    new_hi = None if hi_cx is None else hi_cx // c
                else:
                    new_lo = None if hi_cx is None else -((-hi_cx) // c)
                    new_hi = None if lo_cx is None else lo_cx // c
                lo_i, hi_i = doms[i]
                new_lo = lo_i if new_lo is None else max(lo_i, new_lo)
                new_hi = hi_i if new_hi is None else min(hi_i, new_hi)
                if new_lo > new_hi:
                    return None
                if (new_lo, new_hi) != (lo_i, hi_i):
                    doms[i] = (new_lo, new_hi)
                    changed = True
    return doms


def propagate(domains: Sequence[tuple[int, int]],
              constraints: Sequence[AffineConstraint]
              ) -> Optional[list[tuple[int, int]]]:
    """Shrink integer domains to a fixpoint of single-constraint bound
    propagation. Returns None when some constraint is proven unsatisfiable.

    Propagation is conservative: a value is only removed when no choice of
    the other variables (within their current domains) could satisfy the
    constraint, so no solution is ever lost.
    """
    return _propagate_scaled(domains, _scale(constraints))


def _solve_scaled(domains, scaled) -> Optional[list[int]]:
    doms = _propagate_scaled(domains, scaled)
    if doms is None:
        return None
    # After a clean propagation pass over all-singleton domains, every
    # constraint has been evaluated exactly, so this is a verified solution.
    widest = max(range(len(doms)), key=lambda i: doms[i][1] - doms[i][0],
                 default=None)
    if widest is None or doms[widest][1] == doms[widest][0]:
        return [lo for lo, _ in doms]
    lo, hi = doms[widest]
    mid = (lo + hi) // 2
    for half in ((lo, mid), (mid + 1, hi)):
        trial = list(doms)
        trial[widest] = half
        found = _solve_scaled(trial, scaled)
        if found is not None:
            return found
    return None


def solve(domains: Sequence[tuple[int, int]],
          constraints: Sequence[AffineConstraint]) -> Optional[list[int]]:
    """First satisfying integer assignment in the pinned search order, or
    None when the system is infeasible."""
    return _solve_scaled(domains, _scale(constraints))
