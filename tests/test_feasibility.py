"""Branch-and-bound feasibility against brute force on tiny random systems.

Each system has 2-4 integer variables with domains of at most 5 values and
1-3 affine constraints with rational coefficients, over closed, half-open
and point windows. Every assignment is enumerated, so `solve` and
`propagate` are compared with the exact set of solutions.
"""

import itertools
import random
from fractions import Fraction

import pytest

from scoresleuth.feasibility import AffineConstraint, propagate, solve
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
