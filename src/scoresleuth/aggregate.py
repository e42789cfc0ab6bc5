"""Decision procedures for aggregated experiments.

Score-of-means aggregation pools raw counts, so those experiments reduce
to the single-testset decision on totals. Mean-of-scores aggregation
averages per-fold (or per-dataset) score values, which for affine scores
is an exact integer feasibility problem over the confusion counts of the
averaged testsets (folds, datasets and, for `multiclass`, the classes of a
macro average), whose variables and integer rows `solve_means` writes and
`feasibility` solves on each fold layout that `folds` allows.

`check_experiment` is the dispatcher over a validated ExperimentSpec tree
of binary datasets, and hands a multiclass dataset to `multiclass`.
Combinations whose semantics the arithmetic cannot pin down (pooling
counts across datasets whose folds were averaged as scores; mixing
multiclass with other datasets) are refused with UnsupportedExperiment
rather than guessed.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .binary import check_single_testset, compute_targets
from .errors import EmptyExperiment, TooManyConfigurations, UnsupportedExperiment
from .feasibility import SolveOutcome, integer_row, solve
from .folds import (config_cap, first_feasible, fold_layouts, layout_witness,
                    mos_verdict)
from .model import (
    AggregationMode,
    ConsistencyResult,
    ExperimentSpec,
    FoldingScheme,
    ScoreReport,
    Testset,
    Uncertainty,
    validate_experiment,
)
from .scores import ScoreRegistry, default_registry, require_linear

# Nothing here calls these, but perfbench/tracing.py patches them in this
# module's namespace, so the names stay bound.
from .feasibility import propagate  # noqa: F401
from .folds import enumerate_fold_configurations, iter_fold_configurations  # noqa: F401

PROCEDURES = {
    "som_pooled": "score-of-means reduction: pool counts, then decide on the totals",
    "mos_known_folds": "mean-of-scores integer feasibility over known fold sizes",
    "mos_stratified_kfold": "mean-of-scores over the derived stratified fold sizes",
    "mos_unknown_folds": "mean-of-scores, OR over every fold-size configuration",
    "mos_datasets": "dataset-level mean-of-scores, optionally nested over folds",
}


def reduce_som(folds: Sequence[Testset]) -> Testset:
    """Pool fold counts: under score-of-means the score is computed once on
    the totals, so the pooled testset carries all information."""
    folds = list(folds)
    if not folds:
        raise EmptyExperiment("cannot pool an empty fold list")
    return Testset(sum(f.p for f in folds), sum(f.n for f in folds))


def _fold_label(_fold: int, _leaf: int, p: int, n: int) -> dict:
    return {"fold": {"p": p, "n": n},
            "reason": "score undefined on this fold for every outcome, so "
                      "no finite mean exists"}


def solve_means(folds: Sequence[Sequence[tuple[Fraction, int, int]]],
                targets, definitions, rows: Sequence = (),
                second: str = "tn", label: Callable = _fold_label
                ) -> SolveOutcome:
    """Feasibility of the reported means over the leaves of `folds`, with
    the caller's extra integer `rows`.

    A leaf (weight, p, n) is a binary testset whose score enters every
    mean with one weight: a fold of a k-fold mean (1/k), a dataset of D
    (1/D), a fold of such a dataset (1/(D*k_d)), or one class of a
    multiclass fold seen one-vs-rest (1/(k*C)); a binary fold or dataset is
    a fold of one leaf, a macro fold one of C. Leaf i of fold f has counts
    (f, i, "tp") in [0, p] and (f, i, second) in [0, n], tn or fp = n - tn
    (a*tp + b*tn + c = a*tp - b*fp + (b*n + c)). Only this function lays
    them out as variables: per fold, its tp counts, then its second counts.
    Extra rows are (terms, lo, hi) with (key, int) terms. After them, each
    reported score `id` (defined by `definitions.get(id)`) gives one row by
    `feasibility.integer_row`: its weighted sum over the leaves lies in
    `targets[id]`.

    Neither the second count nor the layout changes a verdict, but both
    change the search, which splits the widest domain (lowest index on
    ties) lower half first. Binary means use tn; macro means use fp, which
    gives the matrix rows unit coefficients. On the benchmark, fp searches
    fewer nodes on macro and more on binary means, and a hard macro
    request's time swings from milliseconds to past the deadline with the
    layout alone.

    The outcome is excluded when a score is undefined on a leaf for every
    outcome (no finite mean exists); its evidence names the score and,
    built only then, `label(fold, leaf, p, n)`. A feasible outcome's
    solution is {"tp": tp, second: count} per leaf, fold by fold.
    """
    if second not in ("tn", "fp"):
        raise ValueError(f"second count must be 'tn' or 'fp', not {second!r}")
    domains, index, leaves = [], {}, []
    for f, fold in enumerate(folds):
        for i, leaf in enumerate(fold):
            t = index[f, i, "tp"] = len(domains) + i
            s = index[f, i, second] = t + len(fold)
            leaves.append((f, i, t, s, leaf))
        domains += [(0, p) for _, p, _ in fold] + [(0, n) for _, _, n in fold]
    system = [(sorted((index[key], c) for key, c in terms), lo, hi)
              for terms, lo, hi in rows]
    for score_id, target in targets.items():
        definition = definitions.get(score_id)
        coeffs, constant = {}, Fraction(0)
        for f, i, t, s, (weight, p, n) in leaves:
            abc = definition.affine_coefficients(p, n)
            if abc is None:
                return SolveOutcome(excluded=True, evidence={
                    "score": score_id, **label(f, i, p, n)})
            a, b, c = abc
            if second == "fp":
                b, c = -b, c + b * n
            coeffs[t], coeffs[s] = weight * a, weight * b
            constant += weight * c
        system.append(integer_row(coeffs, constant, target))
    assignment = solve(domains, system)
    if assignment is None:
        return SolveOutcome(evidence={
            "reason": "no integer assignment satisfies all mean constraints"})
    return SolveOutcome([{"tp": assignment[t], second: assignment[s]}
                         for _, _, t, s, _ in leaves], {})


def _mos_targets(scores: ScoreReport, uncertainty: Uncertainty,
                 registry: ScoreRegistry):
    """compute_targets for a mean of scores, which only affine scores may
    enter."""
    require_linear((score_id, registry.get(score_id)) for score_id in scores.ids)
    return compute_targets(scores, uncertainty, registry)


_MOS_PROCEDURES = {"known_folds": "mos_known_folds",
                   "stratified_kfold": "mos_stratified_kfold",
                   "unknown_folds_kfold": "mos_unknown_folds"}


def _check_mos_folds(testset: Testset, scheme: FoldingScheme,
                     scores: ScoreReport, uncertainty: Uncertainty,
                     registry: Optional[ScoreRegistry],
                     cap: Optional[int]) -> ConsistencyResult:
    """Mean of scores over the folds of one binary testset: consistent iff
    some fold layout the scheme allows admits an outcome. Exact for affine
    scores; others are refused."""
    registry = registry or default_registry()
    procedure = _MOS_PROCEDURES[scheme.kind]
    targets, violation = _mos_targets(scores, uncertainty, registry)
    if violation is not None:
        return ConsistencyResult(True, procedure, evidence=violation)

    def decide(layout) -> SolveOutcome:
        weight = Fraction(1, len(layout))
        return solve_means([[(weight, p, n)] for p, n in layout], targets,
                           registry)

    return mos_verdict(procedure, (testset.p, testset.n), scheme, cap, decide)


def check_mos_known_folds(folds: Sequence[Testset], scores: ScoreReport,
                          uncertainty: Uncertainty,
                          registry: Optional[ScoreRegistry] = None
                          ) -> ConsistencyResult:
    """Does any per-fold outcome make every reported fold-mean land in its
    target interval? Exact for affine scores; others are refused."""
    return _check_mos_folds(reduce_som(folds), FoldingScheme.known(folds),
                            scores, uncertainty, registry, None)


def check_mos_unknown_folds(testset: Testset, k: int, scores: ScoreReport,
                            uncertainty: Uncertainty,
                            registry: Optional[ScoreRegistry] = None,
                            cap: Optional[int] = None) -> ConsistencyResult:
    """Mean-of-scores consistency when only (p, n, k) is known: the report
    is consistent iff SOME fold layout admits an outcome. Layouts on which
    a reported score is undefined for every outcome are excluded from the
    OR; enumeration is canonical and capped (TooManyConfigurations)."""
    return _check_mos_folds(testset, FoldingScheme.unknown(k), scores,
                            uncertainty, registry, cap)


def check_experiment(spec: ExperimentSpec, scores: ScoreReport,
                     uncertainty: Uncertainty,
                     registry: Optional[ScoreRegistry] = None,
                     cap: Optional[int] = None) -> ConsistencyResult:
    """Decide any supported experiment tree. See the module docstring for
    the dispatch rules and the deliberately refused combinations."""
    validate_experiment(spec)
    registry = registry or default_registry()

    if any(ds.is_multiclass for ds in spec.datasets):
        if len(spec.datasets) > 1:
            raise UnsupportedExperiment(
                "experiments with several datasets where one is multiclass "
                "are not supported; test the multiclass dataset on its own")
        from .multiclass import check_multiclass_dataset
        ds = spec.datasets[0]
        return check_multiclass_dataset(ds.testset, ds.folding,
                                        spec.fold_aggregation, scores,
                                        uncertainty, registry, cap=cap)

    if len(spec.datasets) == 1:
        ds = spec.datasets[0]
        if not ds.folding.is_folded:
            return check_single_testset(ds.testset, scores, uncertainty, registry)
        if spec.fold_aggregation is AggregationMode.MEAN_OF_SCORES:
            return _check_mos_folds(ds.testset, ds.folding, scores,
                                    uncertainty, registry, cap)
        # Pooling reproduces the dataset totals whatever the fold split
        # (validate_experiment has proved that known folds sum to them), so
        # even unknown folds reduce to one single-testset decision.
        result = check_single_testset(ds.testset, scores, uncertainty, registry)
        return replace(result, procedure="som_pooled", evidence={
            **result.evidence,
            "pooled": {"p": ds.testset.p, "n": ds.testset.n}})

    # several datasets
    if spec.dataset_aggregation is AggregationMode.SCORE_OF_MEANS:
        if spec.fold_aggregation is AggregationMode.MEAN_OF_SCORES:
            raise UnsupportedExperiment(
                "dataset-level score-of-means over fold-level mean-of-scores "
                "is refused: per-dataset fold means are score values, and "
                "there are no counts left to pool across datasets")
        # Fold-level SoM (or no folding) pools to the dataset totals.
        pooled = reduce_som([ds.testset for ds in spec.datasets])
        result = check_single_testset(pooled, scores, uncertainty, registry)
        return replace(result, procedure="som_pooled", evidence={
            **result.evidence, "pooled": {"p": pooled.p, "n": pooled.n},
            "datasets_pooled": len(spec.datasets)})
    return _check_mos_datasets(spec, scores, uncertainty, registry, cap)


def _check_mos_datasets(spec: ExperimentSpec, scores: ScoreReport,
                        uncertainty: Uncertainty, registry: ScoreRegistry,
                        cap: Optional[int]) -> ConsistencyResult:
    """Dataset-level mean of scores. Each dataset contributes either its
    own score (coefficient 1/D) or, when its folds are averaged too, its
    fold scores on one of its fold layouts (nested coefficients
    1/(D*k_d)). The OR runs over the product of the datasets' layouts,
    which is capped."""
    procedure = "mos_datasets"
    targets, violation = _mos_targets(scores, uncertainty, registry)
    if violation is not None:
        return ConsistencyResult(True, procedure, evidence=violation)

    D = len(spec.datasets)
    fold_mos = spec.fold_aggregation is AggregationMode.MEAN_OF_SCORES
    alternatives = []
    for ds in spec.datasets:
        totals = (ds.testset.p, ds.testset.n)
        if fold_mos and ds.folding.is_folded:
            alternatives.append(list(fold_layouts(totals, ds.folding, cap)))
        else:
            # No folding, or fold-level SoM: the dataset-level score is a
            # plain score of the dataset's (pooled) totals.
            alternatives.append([(totals,)])

    limit = config_cap(cap)
    combos = 1
    for alts in alternatives:
        combos *= len(alts)
    if combos > limit:
        raise TooManyConfigurations(combos, limit)

    def decide(combo) -> SolveOutcome:
        return solve_means([[(Fraction(1, D * len(layout)), p, n)]
                            for layout in combo for p, n in layout],
                           targets, registry)

    combo, outcome, tried, excluded = first_feasible(
        itertools.product(*alternatives), decide)
    if not outcome.feasible:
        return ConsistencyResult(True, procedure, evidence={
            "combinations_tried": tried,
            "combinations_excluded": excluded,
            "reason": "no combination of fold configurations admits a "
                      "satisfying outcome",
        })
    witness_datasets = []
    leaves = iter(outcome.solution)
    for ds, layout in zip(spec.datasets, combo):
        counts = [next(leaves) for _ in layout]
        if fold_mos and ds.folding.is_folded:
            witness_datasets.append(
                layout_witness(ds.folding.kind, layout, counts))
        elif ds.folding.is_folded:
            witness_datasets.append(dict(counts[0], pooled=True))
        else:
            witness_datasets.append(counts[0])
    return ConsistencyResult(False, procedure,
                             witness={"datasets": witness_datasets},
                             evidence={"combinations_tried": tried})
