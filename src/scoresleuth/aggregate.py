"""Decision procedures for aggregated experiments.

Score-of-means (micro) aggregation pools raw counts, so those experiments
reduce to the single-testset decision on totals. Mean-of-scores (macro)
aggregation averages per-fold (or per-dataset) score values, which for
affine scores is an exact integer feasibility problem over the per-fold
confusion counts, solved by the branch-and-bound engine in `feasibility`.

`check_experiment` is the dispatcher over a validated ExperimentSpec tree;
it covers {one dataset, many datasets} x {no folds, known, stratified,
unknown} x {score_of_means, mean_of_scores} for binary data and hands
single multiclass datasets to the `multiclass` module. Combinations whose
semantics the underlying arithmetic cannot pin down (pooling counts across
datasets whose folds were averaged as scores; mixing multiclass with other
datasets) are refused with UnsupportedExperiment rather than guessed.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from typing import Optional, Sequence

from .binary import check_single_testset, compute_targets
from .errors import (
    EmptyExperiment,
    NonlinearScoreUnsupported,
    TooManyConfigurations,
    UnsupportedExperiment,
)
# Nothing here calls `propagate`, but perfbench/tracing.py patches it in
# this module's namespace, so the name stays bound.
from .feasibility import AffineConstraint, SolveOutcome, propagate, solve  # noqa: F401
from .folds import (
    config_cap,
    enumerate_fold_configurations,
    enumerate_stratified_fold_sizes,
    iter_fold_configurations,
)
from .model import (
    AggregationMode,
    ConsistencyResult,
    ExperimentSpec,
    ScoreReport,
    Testset,
    Uncertainty,
    validate_experiment,
)
from .scores import ScoreRegistry, default_registry

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


def _require_linear(scores: ScoreReport, registry: ScoreRegistry) -> None:
    for score_id in scores.ids:
        if not registry.get(score_id).linear:
            raise NonlinearScoreUnsupported(
                f"score {score_id!r} is not affine in the confusion counts; "
                f"a mean of scores only yields linear constraints for affine "
                f"scores (acc, sens, spec, bacc, ...)")


# A group is (coefficient, folds): every fold's score enters each mean
# constraint with the same rational coefficient. A plain k-fold mean is
# one group with coefficient 1/k; dataset-level means add one group per
# dataset with coefficients 1/D or 1/(D*k_d).
_Group = tuple[Fraction, tuple[Testset, ...]]


def _solve_mos_groups(groups: Sequence[_Group], targets,
                      registry) -> SolveOutcome:
    """Feasibility of the mean constraints over all fold variables.

    The outcome is excluded when some reported score is undefined on a
    fold for every outcome (no finite mean could have been computed
    there); a feasible outcome's solution is one list of fold counts per
    group.
    """
    domains: list[tuple[int, int]] = []
    for _, folds in groups:
        for fold in folds:
            domains.append((0, fold.p))
            domains.append((0, fold.n))
    constraints = []
    for score_id, target in targets.items():
        definition = registry.get(score_id)
        coeffs: list[Fraction] = []
        constant = Fraction(0)
        for coeff, folds in groups:
            for fold in folds:
                abc = definition.affine_coefficients(fold.p, fold.n)
                if abc is None:
                    return SolveOutcome(excluded=True, evidence={
                        "score": score_id,
                        "fold": {"p": fold.p, "n": fold.n},
                        "reason": "score undefined on this fold for every "
                                  "outcome, so no finite mean exists",
                    })
                a, b, c = abc
                coeffs.append(coeff * a)
                coeffs.append(coeff * b)
                constant += coeff * c
        constraints.append(
            AffineConstraint(tuple(coeffs), constant, target, label=score_id))

    assignment = solve(domains, constraints)
    if assignment is None:
        return SolveOutcome(evidence={
            "reason": "no integer assignment satisfies all mean constraints"})
    shaped: list[list[dict]] = []
    idx = 0
    for _, folds in groups:
        fold_counts = []
        for _ in folds:
            fold_counts.append({"tp": assignment[idx], "tn": assignment[idx + 1]})
            idx += 2
        shaped.append(fold_counts)
    return SolveOutcome(shaped, {})


def check_mos_known_folds(folds: Sequence[Testset], scores: ScoreReport,
                          uncertainty: Uncertainty,
                          registry: Optional[ScoreRegistry] = None,
                          procedure: str = "mos_known_folds",
                          extra_evidence: Optional[dict] = None
                          ) -> ConsistencyResult:
    """Does any per-fold outcome make every reported fold-mean land in its
    target interval? Exact for affine scores; others are refused."""
    registry = registry or default_registry()
    folds = list(folds)
    if not folds:
        raise EmptyExperiment("mean of scores needs at least one fold")
    _require_linear(scores, registry)
    targets, violation = compute_targets(scores, uncertainty, registry)
    extra = extra_evidence or {}
    if violation is not None:
        return ConsistencyResult(True, procedure,
                                 evidence={**violation, **extra})
    k = len(folds)
    groups = [(Fraction(1, k), tuple(folds))]
    outcome = _solve_mos_groups(groups, targets, registry)
    witness = {"folds": outcome.solution[0]} if outcome.feasible else None
    return ConsistencyResult(not outcome.feasible, procedure, witness=witness,
                             evidence={**outcome.evidence, **extra})


def check_mos_unknown_folds(testset: Testset, k: int, scores: ScoreReport,
                            uncertainty: Uncertainty,
                            registry: Optional[ScoreRegistry] = None,
                            cap: Optional[int] = None) -> ConsistencyResult:
    """Mean-of-scores consistency when only (p, n, k) is known: the report
    is consistent iff SOME fold-size configuration admits an outcome.

    Configurations on which a reported score is undefined for every outcome
    are excluded from the OR (they could not have produced a finite mean).
    Enumeration is canonical and capped (TooManyConfigurations past it).
    """
    registry = registry or default_registry()
    procedure = "mos_unknown_folds"
    _require_linear(scores, registry)
    targets, violation = compute_targets(scores, uncertainty, registry)
    if violation is not None:
        return ConsistencyResult(True, procedure, evidence=violation)
    limit = config_cap(cap)
    tried = excluded = 0
    for config in iter_fold_configurations((testset.p, testset.n), k):
        tried += 1
        if tried > limit:
            raise TooManyConfigurations(tried, limit)
        folds = tuple(Testset(fp, fn) for fp, fn in config)
        outcome = _solve_mos_groups([(Fraction(1, k), folds)], targets,
                                    registry)
        if outcome.excluded:
            excluded += 1
        elif outcome.feasible:
            return ConsistencyResult(
                False, procedure,
                witness={"configuration": [[f.p, f.n] for f in folds],
                         "folds": outcome.solution[0]},
                evidence={**outcome.evidence, "configurations_tried": tried})
    return ConsistencyResult(True, procedure, evidence={
        "configurations_tried": tried,
        "configurations_excluded": excluded,
        "reason": "no fold-size configuration admits a satisfying outcome",
    })


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
        scheme = ds.folding
        if not scheme.is_folded:
            return check_single_testset(ds.testset, scores, uncertainty, registry)
        if spec.fold_aggregation is AggregationMode.SCORE_OF_MEANS:
            # Pooling reproduces the dataset totals whatever the fold split,
            # so even unknown folds reduce to one single-testset decision.
            pooled = (reduce_som(scheme.folds)
                      if scheme.kind == "known_folds" else ds.testset)
            result = check_single_testset(pooled, scores, uncertainty, registry)
            return replace(result, procedure="som_pooled", evidence={
                **result.evidence, "pooled": {"p": pooled.p, "n": pooled.n}})
        if scheme.kind == "known_folds":
            return check_mos_known_folds(scheme.folds, scores, uncertainty,
                                         registry)
        if scheme.kind == "stratified_kfold":
            folds = enumerate_stratified_fold_sizes(
                ds.testset.p, ds.testset.n, scheme.k)
            return check_mos_known_folds(
                folds, scores, uncertainty, registry,
                procedure="mos_stratified_kfold",
                extra_evidence={"derived_folds": [[f.p, f.n] for f in folds]})
        return check_mos_unknown_folds(ds.testset, scheme.k, scores,
                                       uncertainty, registry, cap=cap)

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
    fold scores (nested coefficients 1/(D*k_d)). Datasets with unknown
    folds multiply in their configuration choices; the product of choices
    is capped."""
    procedure = "mos_datasets"
    _require_linear(scores, registry)
    targets, violation = compute_targets(scores, uncertainty, registry)
    if violation is not None:
        return ConsistencyResult(True, procedure, evidence=violation)

    D = len(spec.datasets)
    fold_mos = spec.fold_aggregation is AggregationMode.MEAN_OF_SCORES
    # alternatives[d]: list of (group, witness_kind, config_sizes) choices
    alternatives: list[list[tuple[_Group, str, Optional[list]]]] = []
    for ds in spec.datasets:
        scheme = ds.folding
        if scheme.is_folded and fold_mos:
            if scheme.kind == "known_folds":
                folds = tuple(scheme.folds)
            elif scheme.kind == "stratified_kfold":
                folds = tuple(enumerate_stratified_fold_sizes(
                    ds.testset.p, ds.testset.n, scheme.k))
            else:
                k = scheme.k
                configs = enumerate_fold_configurations(
                    ds.testset.p, ds.testset.n, k, cap=cap)
                alternatives.append([
                    ((Fraction(1, D * k), cfg), "config",
                     [[f.p, f.n] for f in cfg])
                    for cfg in configs])
                continue
            k = len(folds)
            alternatives.append([((Fraction(1, D * k), folds), "folds", None)])
        else:
            # No folding, or fold-level SoM: the dataset-level score is a
            # plain score of the dataset's (pooled) totals.
            kind = "pooled" if scheme.is_folded else "plain"
            alternatives.append([((Fraction(1, D), (ds.testset,)), kind, None)])

    limit = config_cap(cap)
    combos = 1
    for alts in alternatives:
        combos *= len(alts)
    if combos > limit:
        raise TooManyConfigurations(combos, limit)

    tried = excluded = 0
    for combo in itertools.product(*alternatives):
        tried += 1
        groups = [choice[0] for choice in combo]
        outcome = _solve_mos_groups(groups, targets, registry)
        if outcome.excluded:
            excluded += 1
        elif outcome.feasible:
            witness_datasets = []
            for (_, kind, config_sizes), counts in zip(combo, outcome.solution):
                if kind == "folds":
                    witness_datasets.append({"folds": counts})
                elif kind == "config":
                    witness_datasets.append(
                        {"configuration": config_sizes, "folds": counts})
                elif kind == "pooled":
                    witness_datasets.append(dict(counts[0], pooled=True))
                else:
                    witness_datasets.append(counts[0])
            return ConsistencyResult(
                False, procedure, witness={"datasets": witness_datasets},
                evidence={**outcome.evidence, "combinations_tried": tried})
    return ConsistencyResult(True, procedure, evidence={
        "combinations_tried": tried,
        "combinations_excluded": excluded,
        "reason": "no combination of fold configurations admits a "
                  "satisfying outcome",
    })
