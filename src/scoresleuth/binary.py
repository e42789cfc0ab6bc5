"""Exact consistency decision for a single binary testset.

The question: does any confusion outcome (tp, tn) in [0, p] x [0, n]
reproduce every reported score within its uncertainty radius? The decision
is exact in both directions — an inconsistency verdict means no such
outcome exists, full stop.

The search is plain enumeration, expedited by interval pruning: each
reported score's target interval is inverted onto the tp and tn axes
(scores.ScoreDefinition.invert) and the integer boxes are shrunk to a
fixpoint before any pair is visited; when either box empties, both are
reported empty. Pruning only discards pairs that provably fail some score,
and every surviving pair is verified pointwise with exact integer sign
tests (scores.ScoreDefinition.within), so the shortcuts cannot change the
verdict. Neither inversion nor verification builds a Fraction or a
SqrtRational per pair: testsets with p up to about 10^4 and n up to about
10^5 are decided in about a second.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from .errors import RegionTooLarge
from .intervals import EMPTY, RationalInterval, interval_payload
from .model import ConsistencyResult, ScoreReport, Testset, Uncertainty
from .scores import ScoreDefinition, ScoreRegistry, default_registry

PROCEDURE_ID = "single_testset"

PROCEDURES = {
    "single_testset": "decision over all (tp, tn) pairs of one testset, "
                      "with exact interval pruning",
}

#: Defensive cap on pruning rounds; each round either strictly shrinks an
#: integer box or terminates, so the cap is never binding in practice.
_MAX_PRUNE_ROUNDS = 100

#: Default cap on candidate pairs enumerated by feasible_region.
REGION_CAP = 10 ** 7


def compute_targets(scores: ScoreReport, uncertainty: Uncertainty,
                    definitions: Union[ScoreRegistry,
                                       Mapping[str, ScoreDefinition]]):
    """Per-score target intervals [v - r - slack, v + r + slack], intersected
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
        radius = uncertainty.radius_for(score_id) + uncertainty.solver_slack
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


def _prune_boxes(defs, targets, tp_box, tn_box, p, n):
    """Shrink the integer (tp, tn) boxes to a fixpoint of all score
    inversions. Conservative: never discards a satisfying pair. When either
    box empties no pair survives, so both come back EMPTY whichever axis
    emptied first."""
    for _ in range(_MAX_PRUNE_ROUNDS):
        changed = False
        for score_id in sorted(targets):
            d = defs[score_id]
            target = targets[score_id]
            new_tp = d.invert(target, tn_box, p, n, "tp").intersect(
                tp_box).integer_clamp()
            if new_tp != tp_box:
                tp_box, changed = new_tp, True
            if tp_box.is_empty:
                return EMPTY, EMPTY
            new_tn = d.invert(target, tp_box, p, n, "tn").intersect(
                tn_box).integer_clamp()
            if new_tn != tn_box:
                tn_box, changed = new_tn, True
            if tn_box.is_empty:
                return EMPTY, EMPTY
        if not changed:
            break
    return tp_box, tn_box


def _verify_pair(defs, targets, tp, tn, p, n) -> bool:
    """Exact pointwise check of every reported score at (tp, tn). A pair
    where some reported score is undefined cannot have produced the report."""
    return all(defs[score_id].within(target, tp, tn, p, n)
               for score_id, target in targets.items())


def _int_values(box: RationalInterval):
    if box.is_empty:
        return range(0)
    return range(int(box.lo), int(box.hi) + 1)


def _column_box(defs, targets, tp, tn_box, p, n) -> RationalInterval:
    col = tn_box
    for score_id in sorted(targets):
        col = defs[score_id].invert(
            targets[score_id], RationalInterval.point(tp), p, n, "tn"
        ).intersect(col).integer_clamp()
        if col.is_empty:
            break
    return col


def _search(testset: Testset, scores: ScoreReport, uncertainty: Uncertainty,
            registry: Optional[ScoreRegistry]):
    """Targets, pruned boxes and the lazy scan of one report.

    Returns (violation, tp_box, tn_box, pairs). `violation` is the evidence
    of a reported value outside its range, and then both boxes are EMPTY;
    otherwise `pairs` yields every (tp, tn) of the pruned boxes that
    reproduces the report, in ascending (tp, tn) order.
    """
    registry = registry or default_registry()
    defs = {score_id: registry.get(score_id) for score_id in scores.ids}
    targets, violation = compute_targets(scores, uncertainty, defs)
    if violation is not None:
        return violation, EMPTY, EMPTY, iter(())
    p, n = testset.p, testset.n
    tp_box, tn_box = _prune_boxes(
        defs, targets, RationalInterval.closed(0, p),
        RationalInterval.closed(0, n), p, n)
    return None, tp_box, tn_box, _scan(defs, targets, tp_box, tn_box, p, n)


def _scan(defs, targets, tp_box, tn_box, p, n):
    """Column by column over the pruned boxes: each tp gets its own tn
    interval from the inversions, and the pairs in it are verified
    exactly."""
    if tp_box.is_empty or tn_box.is_empty:
        return
    for tp in _int_values(tp_box):
        col = _column_box(defs, targets, tp, tn_box, p, n)
        for tn in _int_values(col):
            if _verify_pair(defs, targets, tp, tn, p, n):
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
        "tp_range": interval_payload(tp_box),
        "tn_range": interval_payload(tn_box),
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
