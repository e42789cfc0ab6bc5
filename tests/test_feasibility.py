"""Branch-and-bound feasibility against brute force and against the
sweep kernel it replaced.

The brute-force test uses tiny random systems: 2-4 integer variables with
domains of at most 5 values and 1-3 affine constraints with rational
coefficients, over closed, half-open and point windows. Every assignment is
enumerated, so `solve` and `propagate` are compared with the exact set of
solutions.

The reference test keeps the earlier kernel (sweep every constraint to a
fixpoint, recursive search) and asks the event-driven kernel for identical
domains and the identical first assignment on larger systems shaped like
the mean-of-scores and macro-average systems the library builds.
"""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from scoresleuth.feasibility import (
    AffineConstraint,
    _narrow,
    _scale,
    propagate,
    solve,
)
from scoresleuth.intervals import EMPTY, RationalInterval

F = Fraction


def _satisfies(assignment, constraints):
    for con in constraints:
        total = con.constant + sum(c * x for c, x in zip(con.coeffs, assignment))
        if not con.bounds.contains(total):
            return False
    return True


def _random_system(rng):
    """Windows are placed near the value of a random assignment, so that
    feasible systems, systems propagation refutes and systems only the
    branching refutes all occur."""
    k = rng.randint(2, 4)
    domains = []
    for _ in range(k):
        lo = rng.randint(-2, 3)
        domains.append((lo, lo + rng.randint(0, 4)))
    anchor = [rng.randint(lo, hi) for lo, hi in domains]
    constraints = []
    for _ in range(rng.randint(1, 3)):
        coeffs = tuple(F(rng.randint(-3, 3), rng.randint(1, 3))
                       for _ in range(k))
        constant = F(rng.randint(-4, 4), rng.randint(1, 2))
        at = constant + sum(c * x for c, x in zip(coeffs, anchor))
        lo = at + F(rng.randint(-3, 2), rng.randint(1, 4))
        kind = rng.randrange(4)
        if kind == 0:
            bounds = RationalInterval.at_least(lo)
        elif kind == 1:
            bounds = RationalInterval.at_most(lo)
        elif kind == 2:
            bounds = RationalInterval.point(lo)
        else:
            bounds = RationalInterval.closed(lo, lo + F(rng.randint(0, 3), 4))
        constraints.append(AffineConstraint(coeffs, constant, bounds))
    return domains, constraints


def _solutions(domains, constraints):
    ranges = [range(lo, hi + 1) for lo, hi in domains]
    return [xs for xs in itertools.product(*ranges)
            if _satisfies(xs, constraints)]


def test_solve_and_propagate_match_brute_force():
    rng = random.Random(5)
    feasible = searched = 0
    for _ in range(1500):
        domains, constraints = _random_system(rng)
        solutions = _solutions(domains, constraints)
        found = solve(domains, constraints)
        assert (found is None) == (not solutions), (domains, constraints)
        if found is not None:
            feasible += 1
            assert tuple(found) in solutions
        shrunk = propagate(domains, constraints)
        if shrunk is None:
            assert not solutions, (domains, constraints)
            continue
        searched += not solutions
        for xs in solutions:
            for x, (lo, hi) in zip(xs, shrunk):
                assert lo <= x <= hi, (domains, constraints, xs, shrunk)
    # feasible systems, and infeasible ones that only branching refutes,
    # are both well represented
    assert 300 < feasible < 1200
    assert searched >= 20


def test_empty_domain_is_infeasible():
    con = AffineConstraint((F(1),), F(0), RationalInterval.unbounded())
    assert propagate([(2, 1)], [con]) is None
    assert solve([(2, 1)], [con]) is None


def test_constraint_rejects_empty_bounds():
    with pytest.raises(ValueError):
        AffineConstraint((F(1), F(1)), F(0), EMPTY)


def test_search_deeper_than_the_recursion_limit():
    # x_0 + ... + x_{n-1} = m over 0/1 variables: nothing propagates until
    # the first n - m variables are fixed at 0 (lower half first), so the
    # search goes n - m levels deep before the rest are forced to 1.
    m = 100
    n = sys.getrecursionlimit() + 2 * m
    con = AffineConstraint((F(1),) * n, F(0), RationalInterval.point(m))
    assert solve([(0, 1)] * n, [con]) == [0] * (n - m) + [1] * m


class _CountingDomains(list):
    """Domains that count how often the kernel reads them."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_slack_skip_includes_equality():
    # x + 2y = 2 over x in [0, 2], y in [0, 1]: both terms are exactly as
    # wide as both slacks, so no bound can move and the constraint is
    # decided from its sums alone, one read per term.
    scaled = _scale([AffineConstraint((F(1), F(2)), F(0),
                                      RationalInterval.point(2))])
    doms = _CountingDomains([(0, 2), (0, 1)])
    assert _narrow(doms, scaled, [[0], [0]], [0], [])
    assert doms == [(0, 2), (0, 1)]
    assert doms.reads == 2


# ------------------------------------------------- the sweep kernel replaced

def _reference_propagate(domains, scaled):
    """The sweep kernel: every constraint, in order, until a clean pass."""
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


def _reference_solve(domains, scaled):
    """Recursive search: widest domain, lowest index on ties, lower half
    first."""
    doms = _reference_propagate(domains, scaled)
    if doms is None:
        return None
    widest = max(range(len(doms)), key=lambda i: doms[i][1] - doms[i][0],
                 default=None)
    if widest is None or doms[widest][1] == doms[widest][0]:
        return [lo for lo, _ in doms]
    lo, hi = doms[widest]
    mid = (lo + hi) // 2
    for half in ((lo, mid), (mid + 1, hi)):
        trial = list(doms)
        trial[widest] = half
        found = _reference_solve(trial, scaled)
        if found is not None:
            return found
    return None


def _window(rng, at):
    """A target window near `at`: closed, half-open on either side, or a
    point, so that feasible and infeasible systems both occur."""
    lo = at + F(rng.randint(-4, 3), rng.randint(2, 12))
    kind = rng.randrange(4)
    if kind == 0:
        return RationalInterval.at_least(lo)
    if kind == 1:
        return RationalInterval.at_most(lo)
    if kind == 2:
        return RationalInterval.point(lo)
    width = F(rng.randint(0, 3), rng.randint(4, 40))
    return RationalInterval.closed(lo, lo + width)


def _score_row(rng, anchor, weights):
    """Dense row with mixed-sign rational coefficients, placed near the
    value at `anchor`; `weights` are the per-variable scale factors."""
    coeffs = tuple(w * F(rng.randint(-4, 4), rng.randint(1, 9)) for w in weights)
    constant = F(rng.randint(-3, 3), rng.randint(1, 5))
    at = constant + sum(c * x for c, x in zip(coeffs, anchor))
    return AffineConstraint(coeffs, constant, _window(rng, at))


def _mos_like_system(rng):
    """Fold counts (tp_j, tn_j) of k folds with 1-3 mean-score rows over all
    2k variables, as in `aggregate._solve_mos_groups`."""
    k = rng.randint(1, 5)
    domains, anchor, weights = [], [], []
    for _ in range(k):
        p, n = rng.randint(0, 7), rng.randint(0, 7)
        domains += [(0, p), (0, n)]
        anchor += [rng.randint(0, p), rng.randint(0, n)]
        weights += [F(1, k * max(p, 1)), F(1, k * max(n, 1))]
    rows = [_score_row(rng, anchor, weights) for _ in range(rng.randint(1, 3))]
    return domains, rows


def _macro_like_system(rng):
    """Per-class (tp_i, fp_i) of one fold with C = 3-4 classes or of two
    folds with C = 3: balance rows (sum tp + sum fp = total), half-open
    margin rows and dense score rows, as in `multiclass._solve_macro`. The
    anchor comes from a random confusion matrix, so it satisfies the
    balance and margin rows."""
    folds = rng.randint(1, 2)
    classes = rng.randint(3, 5 - folds)
    per_fold = 2 * classes
    nvars = folds * per_fold
    domains, anchor, constraints = [], [0] * nvars, []
    for j in range(folds):
        counts = [rng.randint(0, 3) for _ in range(classes)]
        total = sum(counts)
        domains += [(0, c) for c in counts] + [(0, total - c) for c in counts]
        predicted = [0] * classes
        for i, c in enumerate(counts):
            for _ in range(c):
                guess = rng.randrange(classes) if rng.random() < 0.4 else i
                predicted[guess] += 1
                anchor[j * per_fold + i] += guess == i
        for i in range(classes):
            tp = anchor[j * per_fold + i]
            anchor[j * per_fold + classes + i] = predicted[i] - tp
        balance = [F(0)] * nvars
        for v in range(j * per_fold, (j + 1) * per_fold):
            balance[v] = F(1)
        constraints.append(AffineConstraint(tuple(balance), F(0),
                                            RationalInterval.point(total)))
        for i, c in enumerate(counts):
            margin = [F(0)] * nvars
            margin[j * per_fold + classes + i] = F(1)
            for l in range(classes):
                if l != i:
                    margin[j * per_fold + l] = F(1)
            constraints.append(AffineConstraint(
                tuple(margin), F(0), RationalInterval.at_most(total - c)))
    weight = F(1, folds * classes)
    for _ in range(rng.randint(1, 2)):
        constraints.append(_score_row(rng, anchor, [weight] * nvars))
    return domains, constraints


def _branches(domains, scaled):
    doms = _reference_propagate(domains, scaled)
    return doms is not None and any(lo < hi for lo, hi in doms)


@pytest.mark.parametrize("shape, count", [(_mos_like_system, 600),
                                          (_macro_like_system, 400)])
def test_kernel_matches_the_sweep_reference(shape, count):
    rng = random.Random(shape.__name__)
    feasible = branched = 0
    for _ in range(count):
        domains, constraints = shape(rng)
        scaled = _scale(constraints)
        assert propagate(domains, constraints) == \
            _reference_propagate(domains, scaled), (domains, constraints)
        found = solve(domains, constraints)
        assert found == _reference_solve(domains, scaled), (domains, constraints)
        feasible += found is not None
        branched += _branches(domains, scaled)
    # both verdicts occur, and many systems need branching
    assert count // 10 < feasible < count * 9 // 10
    assert branched >= count // 10

