"""Exact consistency decision for a single binary testset.

The question: does any confusion outcome (tp, tn) in [0, p] x [0, n]
reproduce every reported score within its uncertainty radius? The decision
is exact in both directions — an inconsistency verdict means no such
outcome exists, full stop.

The search is plain enumeration, expedited by pruning. One narrowing
rule does all of it: a *sweep* onto one axis cuts that axis's int box by
every reported score's target interval inverted over the other axis's box
(scores.ScoreDefinition.invert). The prune repeats a tp sweep and then a
tn sweep until the tn sweep leaves its box unchanged; when either box
empties, both are reported empty. The scan then gives each tp its own tn
box by a tn sweep over the point box [tp, tp]. Pruning only discards
pairs that provably fail some score, and every surviving pair is verified
pointwise with exact integer sign tests (scores.ScoreDefinition.within),
so the shortcuts cannot change the verdict.

Termination: a sweep only intersects, so the boxes never grow, and a pass
that does not stop the prune shrinks the tn box, which holds n + 1 counts,
so at most n + 1 passes run. The boxes where the prune stops are a
fixpoint of the two sweeps, but not the unique greatest one: a corner
where a score is undefined widens to the score's range, so narrowing one
box can readmit a count on the other axis (mcc at tp = 0 once tn is
pinned to n), and a different sweep order may stop at different boxes.
Soundness does not depend on the order: every count a sweep drops fails
some score for every count left on the other axis, and the scan verifies
every pair it visits.

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

Most inversions need no search: a score that is a ratio of two affine
functions of the inverted count (19 of the 22 shipped scores on both
axes, fm on tn) has its corner tests solved in closed form on the
interior of the axis (scores.ScoreDefinition.invert). The others (mk,
mcc, and fm on tp) are searched, and each such inversion is seeded with
the last nonempty box the same score gave on the same axis:
in the prune, from the previous pass, and in the scan, from an earlier
column. The score is monotone in both counts, so a column's bounds move
monotonically with tp, and the boxes of successive passes only shrink;
either way the new ends lie near the old ones, and invert gallops to
them from there (saddleback search; Bird, MPC 2006) instead of bisecting
the whole axis. Neither changes an inversion: the corner tests are
monotone on the interior, the closed form returns their exact runs, and
a gallop from any start ends at the same first-true and last-true index
as a bisection (scores._first_true). So every box, column, visited pair,
witness and piece of evidence is the same as with bisections; only the
number of corner tests falls.
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


def _sweep(scored, other, box, p, n, axis, near):
    """`box` on `axis` ('tp' or 'tn') cut by every score's inversion over
    the `other` box, in `scored` order; None as soon as it empties. Score
    i's inversion is seeded from near[i], the last nonempty box it gave on
    this axis, and updates it."""
    for i, (d, target) in enumerate(scored):
        cut = d.invert(target, other, p, n, axis, near[i])
        if cut is not None:
            near[i] = cut
        box = _cut(box, cut)
        if box is None:
            return None
    return box


def _prune_boxes(scored, tp_box, tn_box, p, n):
    """Repeat a tp sweep and then a tn sweep until the tn sweep leaves the
    tn box unchanged (at most n + 1 passes, see the module docstring).
    Conservative: never discards a satisfying pair. When either box
    empties no pair survives, so both come back None whichever axis
    emptied first. A sweep's cuts depend only on the other box (`near`
    changes only the compare() count), so one more pass would return the
    same tp box and repeat the last tn sweep: these are the boxes that
    passes run until neither box moves would return."""
    near_tp, near_tn = [None] * len(scored), [None] * len(scored)
    while True:
        tp_box = _sweep(scored, tn_box, tp_box, p, n, "tp", near_tp)
        if tp_box is None:
            return None, None
        new_tn = _sweep(scored, tp_box, tn_box, p, n, "tn", near_tn)
        if new_tn is None:
            return None, None
        if new_tn == tn_box:
            return tp_box, tn_box
        tn_box = new_tn


def _verify_pair(scored, tp, tn, p, n) -> bool:
    """Exact pointwise check of every reported score at (tp, tn). A pair
    where some reported score is undefined cannot have produced the report."""
    return all(d.within(target, tp, tn, p, n) for d, target in scored)


def _int_values(box):
    return range(0) if box is None else range(box[0], box[1] + 1)


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
        col = _sweep(scored, (tp, tp), tn_box, p, n, "tn", near)
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
