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

Propagation is event-driven, as in the queue of AC-3 (Mackworth 1977). A
watch list maps each variable to the constraints it appears in; a
constraint is revisited only when the bounds of one of its variables
changed, and the root of a search enqueues every constraint, a child node
only those of the variable it splits. A revisited constraint first sums
its terms' extremes: when no term's width |c|·(hi − lo) exceeds either
slack (bhi − lo_sum, hi_sum − blo), no bound can move and the per-term
pass is skipped.

Why the domains are those of a full sweep: narrowing by one constraint is
a function of the current domains that is monotone (narrower inputs give
narrower outputs) and contracting (it never widens a domain). For such
functions every fair order of application reaches the same fixpoint, the
greatest tuple of domains inside the start that all of them leave
unchanged (chaotic iteration; Apt, TCS 1999), and it is empty in one order
iff it is in all. The queue is fair: a constraint leaves it only by being
applied, and any change that this or a later application makes to one of
its variables puts it back, so when the queue runs dry every constraint
leaves the domains unchanged. The slack skip fires exactly when the pass
would change nothing (for c > 0 the new upper bound is
lo + floor(up / c), below hi iff up < c·(hi − lo); the other three cases
are alike). At a child node every constraint that does not mention the
split variable still sees the domains its parent's fixpoint left it. So
each node gets the domains the sweep gave it, the branching choice and the
search tree are the same, and so are every verdict and witness.

The search is a depth-first loop over an explicit stack, so its depth is
not bounded by Python's recursion limit (thousands of known folds branch
that deep). Domains are narrowed in place; each replaced domain is pushed
onto a trail, and a node first undoes the trail to its parent's length, so
memory grows with the changes along one path, not with depth × variables.
"""

from __future__ import annotations

import math
from collections import deque
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


def _watch(nvars: int, scaled) -> list[list[int]]:
    """Variable index -> indices of the scaled constraints it appears in."""
    watch: list[list[int]] = [[] for _ in range(nvars)]
    for k, (terms, _, _) in enumerate(scaled):
        for i, _ in terms:
            watch[i].append(k)
    return watch


def _narrow(doms, scaled, watch, queue, trail) -> bool:
    """Narrow `doms` in place to the propagation fixpoint, revisiting only
    the constraints in `queue` and those of any variable narrowed since.
    Each replaced domain is pushed onto `trail` as (index, old domain).
    Returns False when some constraint is proven unsatisfiable.
    """
    queued = [False] * len(scaled)
    for k in queue:
        queued[k] = True
    queue = deque(queue)
    while queue:
        k = queue.popleft()
        queued[k] = False
        terms, blo, bhi = scaled[k]
        lo_sum = hi_sum = widest = 0
        for i, c in terms:
            lo_i, hi_i = doms[i]
            if c > 0:
                lo_sum += c * lo_i
                hi_sum += c * hi_i
                w = c * (hi_i - lo_i)
            else:
                lo_sum += c * hi_i
                hi_sum += c * lo_i
                w = c * (lo_i - hi_i)
            if w > widest:
                widest = w
        # A term c*x_i may rise at most `up` above its least value and fall
        # at most `down` below its greatest before the other terms, at their
        # most helpful extremes, leave the window; a term no wider than
        # both slacks keeps its whole domain.
        up = None if bhi is None else bhi - lo_sum
        down = None if blo is None else hi_sum - blo
        if (up is None or widest <= up) and (down is None or widest <= down):
            continue
        if (up is not None and up < 0) or (down is not None and down < 0):
            return False
        for i, c in terms:
            lo_i, hi_i = doms[i]
            if c > 0:
                new_lo = lo_i if down is None else hi_i - down // c
                new_hi = hi_i if up is None else lo_i + up // c
            else:
                new_lo = lo_i if up is None else hi_i - up // -c
                new_hi = hi_i if down is None else lo_i + down // -c
            if new_lo < lo_i:
                new_lo = lo_i
            if new_hi > hi_i:
                new_hi = hi_i
            if new_lo > new_hi:
                return False
            if new_lo != lo_i or new_hi != hi_i:
                trail.append((i, doms[i]))
                doms[i] = (new_lo, new_hi)
                for j in watch[i]:
                    if not queued[j]:
                        queued[j] = True
                        queue.append(j)
    return True


def propagate(domains: Sequence[tuple[int, int]],
              constraints: Sequence[AffineConstraint]
              ) -> Optional[list[tuple[int, int]]]:
    """Shrink integer domains to a fixpoint of single-constraint bound
    propagation. Returns None when some constraint is proven unsatisfiable.

    Propagation is conservative: a value is only removed when no choice of
    the other variables (within their current domains) could satisfy the
    constraint, so no solution is ever lost.
    """
    doms = [(lo, hi) for lo, hi in domains]
    if any(lo > hi for lo, hi in doms):
        return None
    scaled = _scale(constraints)
    if not _narrow(doms, scaled, _watch(len(doms), scaled),
                   range(len(scaled)), []):
        return None
    return doms


def solve(domains: Sequence[tuple[int, int]],
          constraints: Sequence[AffineConstraint]) -> Optional[list[int]]:
    """First satisfying integer assignment in the pinned search order, or
    None when the system is infeasible."""
    doms = [(lo, hi) for lo, hi in domains]
    if any(lo > hi for lo, hi in doms):
        return None
    scaled = _scale(constraints)
    watch = _watch(len(doms), scaled)
    trail: list[tuple[int, tuple[int, int]]] = []
    # Each entry is a node: the trail length of its parent's fixpoint, and
    # the variable it splits with the half it keeps (None at the root).
    stack = [(0, None, None)]
    while stack:
        mark, var, half = stack.pop()
        while len(trail) > mark:
            i, dom = trail.pop()
            doms[i] = dom
        if var is None:
            queue = range(len(scaled))
        else:
            trail.append((var, doms[var]))
            doms[var] = half
            queue = watch[var]
        if not _narrow(doms, scaled, watch, queue, trail):
            continue
        # At the fixpoint over all-singleton domains every constraint was
        # last checked on exactly these values of its variables and found
        # inside its window, so this is a verified solution.
        widths = [hi - lo for lo, hi in doms]
        widest = max(widths, default=0)
        if widest == 0:
            return [lo for lo, _ in doms]
        var = widths.index(widest)
        lo, hi = doms[var]
        mid = (lo + hi) // 2
        mark = len(trail)
        stack.append((mark, var, (mid + 1, hi)))
        stack.append((mark, var, (lo, mid)))
    return None
