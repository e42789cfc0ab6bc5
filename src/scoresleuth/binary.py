"""Exact consistency decision for a single binary testset.

The question: does any confusion outcome (tp, tn) in [0, p] x [0, n]
reproduce every reported score within its uncertainty radius? The decision
is exact in both directions — an inconsistency verdict means no such
outcome exists, full stop.

The search is plain enumeration, expedited by pruning: each reported
score's target interval is inverted onto the tp and tn axes
(scores.ScoreDefinition.invert) and the integer boxes are shrunk to a
fixpoint before any pair is visited; when either box empties, both are
reported empty. The scan then gives each tp its own tn box by the same
inversions. Pruning only discards pairs that provably fail some score, and
every surviving pair is verified pointwise with exact integer sign tests
(scores.ScoreDefinition.within), so the shortcuts cannot change the
verdict.

Boxes are int pairs (lo, hi), or None when empty, and each target's ends
become (numerator, denominator) pairs once per report
(scores.target_ends); a RationalInterval is built only for the evidence.
The pairs compute exactly what rational intervals clamped to integer ends
would, step by step. Every box end is an integer: the boxes start at
[0, p] and [0, n], a column's tp box is the point [tp, tp], and invert
returns the hull of integer counts. So ceil and floor of the ends are
identities, and intersecting two intervals with integer ends is max of the
lower ends and min of the upper ends. Hence the int pairs equal the
clamped intervals at every step, and the prune and the scan make the same
inversions and visit the same columns and pairs in the same order.
Neither inversion nor verification builds a Fraction or a SqrtRational
per pair or per column: testsets with p up to about 10^4 and n up to
about 10^5 are decided in under a second.

Each inversion is seeded with the box the same score gave before: in the
prune, its box from the previous round, and in the scan, its last
nonempty box from an earlier column. The score is monotone in both
counts, so a column's bounds move monotonically with tp, and the boxes of
successive rounds only shrink; either way the new ends lie near the old
ones, and invert gallops to them from there (saddleback search; Bird, MPC
2006) instead of bisecting the whole axis. The seed changes no inversion:
the corner tests are monotone on the interior, and a gallop from any
start ends at the same first-true and last-true index as a bisection
(scores._first_true). So every box, column, visited pair, witness and
piece of evidence is the same as without seeds; only the number of
corner tests falls.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from .errors import RegionTooLarge
from .intervals import EMPTY, RationalInterval, interval_payload
from .model import ConsistencyResult, ScoreReport, Testset, Uncertainty
from .scores import (ScoreDefinition, ScoreRegistry, default_registry,
                     target_ends)

PROCEDURE_ID = "single_testset"

PROCEDURES = {
    "single_testset": "decision over all (tp, tn) pairs of one testset, "
                      "with exact interval pruning",
}

#: Cap on pruning rounds. Each round either strictly shrinks a box or ends
#: the loop, but scores with parallel level sets can take hundreds of
#: rounds to reach the fixpoint (acc 0.012 with err 0.986 on p = 349,
#: n = 14552 takes 97). Stopping early leaves sound, wider boxes, and the
#: scan verifies every pair it visits, so the verdict stays exact.
_MAX_PRUNE_ROUNDS = 100

#: Default cap on candidate pairs enumerated by feasible_region.
REGION_CAP = 10 ** 7


def compute_targets(scores: ScoreReport, uncertainty: Uncertainty,
                    definitions: Union[ScoreRegistry,
                                       Mapping[str, ScoreDefinition]]):
    """Per-score target intervals [v - r, v + r], intersected
    with each score's theoretical range, keyed by the reported id.

    `definitions.get(reported_id)` gives the definition whose range
    applies: a registry for plain ids, or a mapping such as
    {"macro-acc": <acc>} for averaged multiclass ids.

    Returns (targets, violation). When a reported value lies outside its
    range even after widening, the intersection is empty and `violation`
    carries the evidence dict for that first offending score; such a report
    is an inconsistency finding, not an exception.
    """
    targets: dict[str, RationalInterval] = {}
    for score_id, value in scores.items():
        definition = definitions.get(score_id)
        radius = uncertainty.radius_for(score_id)
        raw = RationalInterval.closed(value - radius, value + radius)
        target = raw.intersect(definition.range)
        if target.is_empty:
            violation = {
                "score": score_id,
                "reason": "reported value lies outside the theoretical range",
                "reported": str(value),
                "radius": str(radius),
                "theoretical_range": interval_payload(definition.range),
            }
            return targets, violation
        targets[score_id] = target
    return targets, None


def _cut(box, by):
    """Intersection of the int boxes `box` and `by`; None when it is empty
    or `by` is None."""
    if by is None:
        return None
    lo, hi = max(box[0], by[0]), min(box[1], by[1])
    return (lo, hi) if lo <= hi else None


def _prune_boxes(scored, tp_box, tn_box, p, n):
    """Shrink the int boxes (lo, hi) of tp and tn to a fixpoint of all
    score inversions, in `scored` order, for at most _MAX_PRUNE_ROUNDS
    rounds. Conservative: never discards a satisfying pair. When either box
    empties no pair survives, so both come back None whichever axis emptied
    first."""
    near = [[None, None] for _ in scored]
    for _ in range(_MAX_PRUNE_ROUNDS):
        changed = False
        for (d, target), last in zip(scored, near):
            last[0] = d.invert(target, tn_box, p, n, "tp", last[0])
            new_tp = _cut(tp_box, last[0])
            if new_tp is None:
                return None, None
            if new_tp != tp_box:
                tp_box, changed = new_tp, True
            last[1] = d.invert(target, tp_box, p, n, "tn", last[1])
            new_tn = _cut(tn_box, last[1])
            if new_tn is None:
                return None, None
            if new_tn != tn_box:
                tn_box, changed = new_tn, True
        if not changed:
            break
    return tp_box, tn_box


def _verify_pair(scored, tp, tn, p, n) -> bool:
    """Exact pointwise check of every reported score at (tp, tn). A pair
    where some reported score is undefined cannot have produced the report."""
    return all(d.within(target, tp, tn, p, n) for d, target in scored)


def _int_values(box):
    return range(0) if box is None else range(box[0], box[1] + 1)


def _column_box(scored, tp, tn_box, p, n, near):
    """The tn box of column tp: tn_box cut by every score's inversion at
    the point (tp, tp). Score i's inversion is seeded from near[i], the
    last nonempty box it gave in an earlier column, and updates it."""
    col, point = tn_box, (tp, tp)
    for i, (d, target) in enumerate(scored):
        box = d.invert(target, point, p, n, "tn", near[i])
        if box is not None:
            near[i] = box
        col = _cut(col, box)
        if col is None:
            break
    return col


def _box_payload(box):
    return interval_payload(EMPTY if box is None
                            else RationalInterval.closed(*box))


def _search(testset: Testset, scores: ScoreReport, uncertainty: Uncertainty,
            registry: Optional[ScoreRegistry]):
    """Targets, pruned boxes and the lazy scan of one report.

    Returns (violation, tp_box, tn_box, pairs). `violation` is the evidence
    of a reported value outside its range, and then both boxes are None;
    otherwise the boxes are int pairs (lo, hi), or None when empty, and
    `pairs` yields every (tp, tn) of the pruned boxes that reproduces the
    report, in ascending (tp, tn) order.
    """
    registry = registry or default_registry()
    defs = {score_id: registry.get(score_id) for score_id in scores.ids}
    targets, violation = compute_targets(scores, uncertainty, defs)
    if violation is not None:
        return violation, None, None, iter(())
    scored = [(defs[score_id], target_ends(targets[score_id]))
              for score_id in sorted(targets)]
    p, n = testset.p, testset.n
    tp_box, tn_box = _prune_boxes(scored, (0, p), (0, n), p, n)
    return None, tp_box, tn_box, _scan(scored, tp_box, tn_box, p, n)


def _scan(scored, tp_box, tn_box, p, n):
    """Column by column over the pruned boxes: each tp gets its own tn
    box from the inversions, and the pairs in it are verified exactly.
    Pruning empties both boxes or neither."""
    near = [None] * len(scored)
    for tp in _int_values(tp_box):
        col = _column_box(scored, tp, tn_box, p, n, near)
        for tn in _int_values(col):
            if _verify_pair(scored, tp, tn, p, n):
                yield tp, tn


def check_single_testset(testset: Testset, scores: ScoreReport,
                         uncertainty: Uncertainty,
                         registry: Optional[ScoreRegistry] = None) -> ConsistencyResult:
    """Decide whether any (tp, tn) reproduces all reported scores.

    inconsistency=False comes with the witness pair that is first in
    ascending (tp, tn) order; inconsistency=True comes with the pruned
    (possibly empty) feasibility boxes, or with the violated range when a
    reported value is theoretically impossible.
    """
    violation, tp_box, tn_box, pairs = _search(testset, scores, uncertainty,
                                               registry)
    if violation is not None:
        return ConsistencyResult(True, PROCEDURE_ID, evidence=violation)
    evidence = {
        "tp_range": _box_payload(tp_box),
        "tn_range": _box_payload(tn_box),
    }
    witness = next(pairs, None)
    if witness is None:
        return ConsistencyResult(True, PROCEDURE_ID, evidence=evidence)
    tp, tn = witness
    return ConsistencyResult(False, PROCEDURE_ID, witness={"tp": tp, "tn": tn},
                             evidence=evidence)


def feasible_region(testset: Testset, scores: ScoreReport,
                    uncertainty: Uncertainty,
                    registry: Optional[ScoreRegistry] = None,
                    cap: int = REGION_CAP) -> list[tuple[int, int]]:
    """All (tp, tn) pairs reproducing the report, ascending.

    Raises RegionTooLarge when more than `cap` candidate pairs survive
    pruning; an explicit refusal beats an open-ended enumeration.
    """
    _, tp_box, tn_box, pairs = _search(testset, scores, uncertainty, registry)
    candidates = len(_int_values(tp_box)) * len(_int_values(tn_box))
    if candidates > cap:
        raise RegionTooLarge(candidates, cap)
    return list(pairs)
