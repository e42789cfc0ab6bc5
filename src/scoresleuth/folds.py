"""Fold layouts of a folding scheme, and the OR over them.

A *layout* is one per-class count vector per fold, so the binary (p, n)
case and the multiclass case share the machinery. A mean of scores over
folds is consistent iff some layout the scheme allows admits an outcome.
This module holds both halves of that rule:

* `fold_layouts` yields the layouts: the known folds, or the deterministic
  stratified split, as one layout each, or every layout of k nonempty
  folds (`iter_fold_configurations`) when the split is unknown.
* `first_feasible` is the OR: it decides layouts in turn, stops at the
  first feasible outcome, and counts the layouts tried and excluded.
  `mos_verdict` shapes its result into the verdict of one dataset.

Unknown layouts are combinatorial, so their enumeration is capped:
exceeding the cap raises TooManyConfigurations instead of grinding on. The
default cap can be overridden per call or through the
SCORESLEUTH_CONFIG_CAP environment variable.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import InvalidFoldCount, SpecError, TooManyConfigurations
from .model import (ConsistencyResult, FoldingScheme, Testset, class_totals,
                    stratified_split_counts)

DEFAULT_CONFIG_CAP = 10 ** 6

_ENV_CAP = "SCORESLEUTH_CONFIG_CAP"


def config_cap(cap: Optional[int] = None) -> int:
    """Resolve the configuration cap: explicit argument, then the
    SCORESLEUTH_CONFIG_CAP environment variable, then the default."""
    if cap is not None:
        return cap
    raw = os.environ.get(_ENV_CAP)
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise SpecError(f"{_ENV_CAP} must be an integer, got {raw!r}") from None
    return DEFAULT_CONFIG_CAP


def _vectors_desc(totals: tuple[int, ...], cap_vec: tuple[int, ...],
                  budget: int) -> Iterator[tuple[int, ...]]:
    """Nonzero vectors v with 0 <= v <= totals componentwise, sum(v) <=
    budget and v <= cap_vec lexicographically, in decreasing lexicographic
    order; none over the budget is generated.

    A depth-first loop over an explicit stack of per-component value
    ranges, each counting down; a component's top is its total, cut to
    cap_vec's component while the prefix equals cap_vec's, and to what the
    budget leaves after the prefix. No recursive closure is made, so a
    call leaves no reference cycle for the cyclic collector."""
    m = len(totals)
    prefix: list[int] = []
    # one entry per open component: its remaining values, and whether the
    # prefix before it equals cap_vec's
    stack = [(iter(range(min(totals[0], cap_vec[0], budget), -1, -1)), True)]
    while stack:
        values, tight = stack[-1]
        x = next(values, None)
        if x is None:
            stack.pop()
            if prefix:
                prefix.pop()
            continue
        i = len(stack) - 1
        if i == m - 1:
            if x or any(prefix):
                yield (*prefix, x)
            continue
        prefix.append(x)
        tight = tight and x == cap_vec[i]
        top = min(totals[i + 1], cap_vec[i + 1]) if tight else totals[i + 1]
        stack.append((iter(range(min(top, budget - sum(prefix)), -1, -1)),
                      tight))


def iter_fold_configurations(totals: Sequence[int], k: int
                             ) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All multisets of k nonempty per-class count vectors summing to
    `totals`, each configuration given as a lexicographically nonincreasing
    tuple; configurations are yielded in decreasing lexicographic order.

    A depth-first loop over an explicit stack, one frame per placed fold,
    so k is not bounded by the recursion limit. A frame's candidates are
    the folds lex <= the one before that leave a sample for each fold
    still to place (`_vectors_desc` generates no other), so leave-one-out
    examines O(k) candidates. The last fold is whatever the others leave:
    it is yielded when it is nonempty and lex <= the fold before it."""
    totals = tuple(totals)
    if k < 1:
        raise InvalidFoldCount(f"k must be at least 1, got {k}")
    if sum(totals) < k:
        raise InvalidFoldCount(
            f"cannot split totals {totals} into {k} nonempty folds")
    if k == 1:
        yield (totals,)
        return

    def candidates(remaining, slots, cap_vec):
        # each fold still to place needs a sample, and as later folds are
        # lex <= v, their first components are <= v[0]
        return (v for v in _vectors_desc(remaining, cap_vec,
                                         sum(remaining) - (slots - 1))
                if remaining[0] - v[0] <= (slots - 1) * v[0])

    placed = []  # the fold chosen in each frame below the top one
    stack = [(totals, candidates(totals, k, totals))]
    while stack:
        remaining, options = stack[-1]
        v = next(options, None)
        if v is None:
            stack.pop()
            if placed:
                placed.pop()
            continue
        rest = tuple(r - x for r, x in zip(remaining, v))
        slots = k - len(stack)  # folds still to place after v
        if slots == 1:
            if any(rest) and rest <= v:
                yield (*placed, v, rest)
        else:
            placed.append(v)
            stack.append((rest, candidates(rest, slots, v)))


Layout = tuple[tuple[int, ...], ...]


def fold_layouts(totals: Sequence[int], scheme: FoldingScheme,
                 cap: Optional[int] = None) -> Iterator[Layout]:
    """The fold layouts `scheme` allows for a testset with per-class
    `totals`: the known folds' counts or the stratified split as the only
    layout, else every canonical layout of k nonempty folds, raising
    TooManyConfigurations when more than the cap would be yielded."""
    if scheme.kind == "known_folds":
        yield tuple(class_totals(f) for f in scheme.folds)
    elif scheme.kind == "stratified_kfold":
        yield tuple(stratified_split_counts(totals, scheme.k))
    else:
        limit = config_cap(cap)
        for count, layout in enumerate(
                iter_fold_configurations(totals, scheme.k), 1):
            if count > limit:
                raise TooManyConfigurations(count, limit)
            yield layout


def first_feasible(layouts: Iterable, decide: Callable):
    """The OR over layouts: a report is consistent iff `decide` finds a
    feasible outcome on some layout.

    Returns (layout, outcome, tried, excluded): the first layout whose
    outcome is feasible, or the last layout and its outcome when none is.
    `tried` counts the layouts decided and `excluded` those whose outcome
    was excluded (a reported score undefined on a fold for every outcome,
    so no finite mean could have come from the layout). `layouts` must not
    be empty.
    """
    tried = excluded = 0
    for layout in layouts:
        tried += 1
        outcome = decide(layout)
        if outcome.feasible:
            break
        excluded += outcome.excluded
    return layout, outcome, tried, excluded


def layout_witness(kind: str, layout: Layout, folds: list) -> dict:
    """Witness of one dataset's fold means: each fold's outcome, and the
    layout itself when the scheme left it unknown."""
    if kind == "unknown_folds_kfold":
        return {"configuration": [list(v) for v in layout], "folds": folds}
    return {"folds": folds}


def mos_verdict(procedure: str, totals: Sequence[int], scheme: FoldingScheme,
                cap: Optional[int], decide: Callable
                ) -> ConsistencyResult:
    """The verdict on one dataset whose fold scores were averaged: the OR
    of `decide` over `fold_layouts(totals, scheme, cap)`. A feasible
    outcome's solution is the list of per-fold witnesses.

    Known and stratified folds give one layout, so the evidence is that
    layout's, plus `derived_folds` for the stratified split. Unknown folds
    give the counts of layouts tried (and excluded, when none admits an
    outcome) instead.
    """
    layout, outcome, tried, excluded = first_feasible(
        fold_layouts(totals, scheme, cap), decide)
    if scheme.kind != "unknown_folds_kfold":
        evidence = dict(outcome.evidence or {})
        if scheme.kind == "stratified_kfold":
            evidence["derived_folds"] = [list(v) for v in layout]
    elif outcome.feasible:
        evidence = {"configurations_tried": tried}
    else:
        evidence = {"configurations_tried": tried,
                    "configurations_excluded": excluded,
                    "reason": "no fold layout admits a satisfying outcome"}
    witness = (layout_witness(scheme.kind, layout, outcome.solution)
               if outcome.feasible else None)
    return ConsistencyResult(not outcome.feasible, procedure, witness, evidence)


def enumerate_fold_configurations(p: int, n: int, k: int,
                                  cap: Optional[int] = None
                                  ) -> list[tuple[Testset, ...]]:
    """All fold-size configurations of a binary testset as Testset tuples,
    canonically ordered; raises TooManyConfigurations past the cap."""
    return [tuple(Testset(fp, fn) for fp, fn in layout)
            for layout in fold_layouts((p, n), FoldingScheme.unknown(k), cap)]
