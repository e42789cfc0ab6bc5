"""Branch-and-bound feasibility against brute force and against the
sweep kernel it replaced, and `integer_row` against the rational rows it
rewrites.

The brute-force test uses tiny random systems: 2-4 integer variables with
domains of at most 5 values and 1-3 affine constraints with rational
coefficients, over closed, half-open and point windows, handed to the
kernel as `integer_row` writes them. Every assignment is enumerated, so
`solve` and `propagate` are compared with the exact set of solutions of
the rational system.

The reference test keeps the earlier kernel (sweep every constraint to a
fixpoint, recursive search) and asks the event-driven kernel for identical
domains and the identical first assignment on larger systems shaped like
the mean-of-scores and macro-average systems the library builds.
"""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from scoresleuth.feasibility import _narrow, integer_row, propagate, solve
from scoresleuth.intervals import EMPTY, RationalInterval
from scoresleuth.multiclass import _matrix_rows

F = Fraction


def _satisfies(assignment, constraints):
    """Does every rational (coeffs, constant, bounds) constraint hold?"""
    for coeffs, constant, bounds in constraints:
        total = constant + sum(c * x for c, x in zip(coeffs, assignment))
        if not bounds.contains(total):
            return False
    return True


def _integer_rows(constraints):
    return [integer_row(dict(enumerate(coeffs)), constant, bounds)
            for coeffs, constant, bounds in constraints]


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
        constraints.append((coeffs, constant, bounds))
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
        rows = _integer_rows(constraints)
        found = solve(domains, rows)
        assert (found is None) == (not solutions), (domains, constraints)
        if found is not None:
            feasible += 1
            assert tuple(found) in solutions
        shrunk = propagate(domains, rows)
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
    row = integer_row({0: F(1)}, F(0), RationalInterval.unbounded())
    assert propagate([(2, 1)], [row]) is None
    assert solve([(2, 1)], [row]) is None


def test_constraint_rejects_empty_bounds():
    with pytest.raises(ValueError):
        integer_row({0: F(1), 1: F(1)}, F(0), EMPTY)


def test_integer_row_holds_exactly_where_the_rational_row_holds():
    """Random sparse rational rows (some coefficients zero) over closed,
    half-open and point windows: at every integer point of a small box
    the integer row holds iff the rational one does, its terms are sorted
    by variable and carry nonzero integer coefficients, and the scale is
    the lcm of the coefficient denominators, with no gcd reduction."""
    rng = random.Random(16)
    held = missed = 0
    for _ in range(400):
        variables = sorted(rng.sample(range(6), rng.randint(1, 3)))
        coeffs = {v: F(rng.randint(-4, 4), rng.randint(1, 6))
                  for v in rng.sample(variables, len(variables))}
        constant = F(rng.randint(-6, 6), rng.randint(1, 4))
        at = constant + sum(c * rng.randint(-3, 3) for c in coeffs.values())
        bounds = _window(rng, at)
        terms, lo, hi = integer_row(coeffs, constant, bounds)
        nonzero = sorted(v for v, c in coeffs.items() if c)
        assert [v for v, _ in terms] == nonzero
        assert all(type(c) is int and c for _, c in terms)
        scale = math.lcm(*(coeffs[v].denominator for v in nonzero))
        assert all(c == coeffs[v] * scale for v, c in terms)
        assert (lo, hi) == tuple(
            None if end is None else rnd(end * scale - constant * scale)
            for end, rnd in ((bounds.lo, math.ceil), (bounds.hi, math.floor)))
        for point in itertools.product(range(-3, 4), repeat=len(variables)):
            x = dict(zip(variables, point))
            value = sum(c * x[v] for v, c in terms)
            holds = (lo is None or lo <= value) and (hi is None or value <= hi)
            exact = bounds.contains(
                constant + sum(c * x[v] for v, c in coeffs.items()))
            assert holds == exact, (coeffs, constant, bounds, x)
            held += holds
            missed += not holds
    assert held > 1000 and missed > 1000, (held, missed)


def test_search_deeper_than_the_recursion_limit():
    # x_0 + ... + x_{n-1} = m over 0/1 variables: nothing propagates until
    # the first n - m variables are fixed at 0 (lower half first), so the
    # search goes n - m levels deep before the rest are forced to 1.
    m = 100
    n = sys.getrecursionlimit() + 2 * m
    row = integer_row(dict.fromkeys(range(n), F(1)), F(0),
                      RationalInterval.point(m))
    assert solve([(0, 1)] * n, [row]) == [0] * (n - m) + [1] * m


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
    rows = [integer_row({0: F(1), 1: F(2)}, F(0), RationalInterval.point(2))]
    doms = _CountingDomains([(0, 2), (0, 1)])
    assert _narrow(doms, rows, [[0], [0]], [0], [])
    assert doms == [(0, 2), (0, 1)]
    assert doms.reads == 2


# ------------------------------------------------- the sweep kernel replaced

def _reference_propagate(domains, rows):
    """The sweep kernel: every constraint, in order, until a clean pass."""
    doms = [(lo, hi) for lo, hi in domains]
    for lo, hi in doms:
        if lo > hi:
            return None
    changed = True
    while changed:
        changed = False
        for terms, blo, bhi in rows:
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


def _reference_solve(domains, rows):
    """Recursive search: widest domain, lowest index on ties, lower half
    first."""
    doms = _reference_propagate(domains, rows)
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
        found = _reference_solve(trial, rows)
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
    """Integer form of a dense row with mixed-sign rational coefficients,
    placed near the value at `anchor`; `weights` are the per-variable
    scale factors."""
    coeffs = [w * F(rng.randint(-4, 4), rng.randint(1, 9)) for w in weights]
    constant = F(rng.randint(-3, 3), rng.randint(1, 5))
    at = constant + sum(c * x for c, x in zip(coeffs, anchor))
    return integer_row(dict(enumerate(coeffs)), constant, _window(rng, at))


def _mos_like_system(rng):
    """Fold counts (tp_j, tn_j) of k folds with 1-3 mean-score rows over all
    2k variables, as `aggregate.solve_means` builds them for a k-fold mean."""
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
    folds with C = 3, in the order `aggregate.solve_means` lays out a
    macro mean (per fold, the C tp counts and then the C fp counts), with
    the balance and margin rows of `multiclass._matrix_rows` and dense
    score rows. The anchor comes from a random confusion matrix, so it
    satisfies the balance and margin rows."""
    folds = rng.randint(1, 2)
    classes = rng.randint(3, 5 - folds)
    fold_counts, domains, anchor, index = [], [], [], {}
    for j in range(folds):
        for count in ("tp", "fp"):
            for i in range(classes):
                index[j, i, count] = len(index)
        counts = [rng.randint(0, 3) for _ in range(classes)]
        total = sum(counts)
        fold_counts.append(tuple(counts))
        domains += [(0, c) for c in counts] + [(0, total - c) for c in counts]
        tps, predicted = [0] * classes, [0] * classes
        for i, c in enumerate(counts):
            for _ in range(c):
                guess = rng.randrange(classes) if rng.random() < 0.4 else i
                predicted[guess] += 1
                tps[i] += guess == i
        anchor += tps + [pred - tp for tp, pred in zip(tps, predicted)]
    rows = [(sorted((index[key], c) for key, c in terms), lo, hi)
            for terms, lo, hi in _matrix_rows(fold_counts)]
    weight = F(1, folds * classes)
    for _ in range(rng.randint(1, 2)):
        rows.append(_score_row(rng, anchor, [weight] * len(domains)))
    return domains, rows


def _branches(domains, rows):
    doms = _reference_propagate(domains, rows)
    return doms is not None and any(lo < hi for lo, hi in doms)


@pytest.mark.parametrize("shape, count", [(_mos_like_system, 600),
                                          (_macro_like_system, 400)])
def test_kernel_matches_the_sweep_reference(shape, count):
    rng = random.Random(shape.__name__)
    feasible = branched = 0
    for _ in range(count):
        domains, rows = shape(rng)
        assert propagate(domains, rows) == \
            _reference_propagate(domains, rows), (domains, rows)
        found = solve(domains, rows)
        assert found == _reference_solve(domains, rows), (domains, rows)
        feasible += found is not None
        branched += _branches(domains, rows)
    # both verdicts occur, and many systems need branching
    assert count // 10 < feasible < count * 9 // 10
    assert branched >= count // 10

