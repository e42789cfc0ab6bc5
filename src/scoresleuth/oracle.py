"""Brute-force oracles and a true-report generator.

The engine earns trust by agreeing with something that cannot be clever.
The oracles here enumerate every outcome — every (tp, tn) pair, every
fold assignment, every confusion matrix with the given row sums — and
test the reported intervals by direct evaluation. No pruning, no
propagation, no solver: the only code shared with the engine is the score
definitions themselves and the interval type used for membership.

generate_true_report goes the other way: it samples a random genuine
outcome, computes its exact scores, and renders them to k decimals, so a
checker can be fed reports that are true by construction. Any
"inconsistent" verdict on such a report is a bug, which makes the
generator the engine's soundness probe.

Oracles are shipped, not test-only, so small verdicts can be audited by
anyone; they are exponential by design and capped, not optimized.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from typing import Optional, Sequence, Union

from .errors import InstanceTooLarge, UnsupportedExperiment
from .folds import stratified_split_counts
from .intervals import RationalInterval
from .model import (
    AggregationMode,
    ExperimentSpec,
    MulticlassTestset,
    ScoreReport,
    Testset,
    Uncertainty,
    validate_experiment,
)
from .regression import RegressionContext
from .scores import ScoreRegistry, default_registry
from .values import SqrtRational, sqrt_fraction

#: States an oracle is willing to enumerate.
ORACLE_CAP = 10 ** 6


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive verdict: inconsistency flag plus every witness found."""

    inconsistency: bool
    witnesses: list

    @property
    def consistent(self) -> bool:
        return not self.inconsistency


def _targets(scores: ScoreReport, uncertainty: Uncertainty) -> dict:
    out = {}
    for score_id, value in scores.items():
        radius = uncertainty.radius_for(score_id)
        out[score_id] = RationalInterval.closed(value - radius, value + radius)
    return out


def _check_cap(count: int) -> None:
    if count > ORACLE_CAP:
        raise InstanceTooLarge(count, ORACLE_CAP)


def brute_force_single(testset: Testset, scores: ScoreReport,
                       uncertainty: Uncertainty,
                       registry: Optional[ScoreRegistry] = None) -> OracleResult:
    """Every (tp, tn) pair, directly evaluated. Ground truth for the
    single-testset check; witnesses ascend in (tp, tn)."""
    registry = registry or default_registry()
    p, n = testset.p, testset.n
    _check_cap((p + 1) * (n + 1))
    defs = {sid: registry.get(sid) for sid in scores.ids}
    targets = _targets(scores, uncertainty)
    witnesses = []
    for tp in range(p + 1):
        for tn in range(n + 1):
            ok = True
            for sid, definition in defs.items():
                val = definition.value(tp, tn, p, n)
                if val is None or not targets[sid].contains(val):
                    ok = False
                    break
            if ok:
                witnesses.append((tp, tn))
    return OracleResult(not witnesses, witnesses)


def _rational_mean(values: Sequence) -> Fraction:
    total = Fraction(0)
    for v in values:
        if not isinstance(v, (Fraction, int)):
            raise UnsupportedExperiment(
                "the brute-force mean oracles require rational score values; "
                "square-root-valued scores cannot be averaged exactly here")
        total += v
    return total / len(values)


def brute_force_mos(folds: Sequence[Testset], scores: ScoreReport,
                    uncertainty: Uncertainty,
                    registry: Optional[ScoreRegistry] = None) -> OracleResult:
    """Every assignment of (tp_j, tn_j) to every fold; the mean of the
    per-fold score values must land in every target interval. A fold where
    a reported score is undefined invalidates the assignment (a finite
    mean could not have been computed from it)."""
    registry = registry or default_registry()
    folds = list(folds)
    count = 1
    for f in folds:
        count *= (f.p + 1) * (f.n + 1)
    _check_cap(count)
    defs = {sid: registry.get(sid) for sid in scores.ids}
    targets = _targets(scores, uncertainty)
    grids = [[(tp, tn) for tp in range(f.p + 1) for tn in range(f.n + 1)]
             for f in folds]
    witnesses = []
    for assignment in itertools.product(*grids):
        ok = True
        for sid, definition in defs.items():
            vals = [definition.value(tp, tn, f.p, f.n)
                    for (tp, tn), f in zip(assignment, folds)]
            if any(v is None for v in vals):
                ok = False
                break
            if not targets[sid].contains(_rational_mean(vals)):
                ok = False
                break
        if ok:
            witnesses.append(assignment)
    return OracleResult(not witnesses, witnesses)


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _ovr_counts(matrix: Sequence[Sequence[int]], index: int,
                grand_total: int) -> tuple[int, int, int, int]:
    """One-vs-rest (tp, tn, p, n) of one class in a confusion matrix."""
    c = len(matrix)
    tp = matrix[index][index]
    p = sum(matrix[index])
    fp = sum(matrix[row][index] for row in range(c) if row != index)
    n = grand_total - p
    return tp, n - fp, p, n


def brute_force_macro(testset: MulticlassTestset, scores: ScoreReport,
                      uncertainty: Uncertainty,
                      registry: Optional[ScoreRegistry] = None) -> OracleResult:
    """Every confusion matrix with the given row sums, directly averaged.

    Score ids carry their family prefix (micro-<id> / macro-<id>): micro
    values are computed once on the pooled one-vs-rest counts, macro
    values as the mean over classes (any undefined class value invalidates
    the matrix). Witnesses are matrices as tuples of rows.
    """
    registry = registry or default_registry()
    counts = testset.class_counts
    c = len(counts)
    total = sum(counts)
    states = 1
    for ci in counts:
        states *= comb(ci + c - 1, c - 1)
    _check_cap(states)

    entries = []
    for sid in scores.ids:
        if sid.startswith("micro-"):
            entries.append((sid, "micro", registry.get(sid[len("micro-"):])))
        elif sid.startswith("macro-"):
            entries.append((sid, "macro", registry.get(sid[len("macro-"):])))
        else:
            raise UnsupportedExperiment(
                f"score {sid!r} names no averaging family; use micro-<id> "
                f"or macro-<id>")
    targets = _targets(scores, uncertainty)

    witnesses = []
    for rows in itertools.product(*(_compositions(ci, c) for ci in counts)):
        ovr = [_ovr_counts(rows, i, total) for i in range(c)]
        ok = True
        for sid, family, definition in entries:
            if family == "micro":
                pooled = tuple(sum(x) for x in zip(*ovr))
                val = definition.value(*pooled)
                if val is None or not targets[sid].contains(val):
                    ok = False
                    break
            else:
                vals = [definition.value(*one) for one in ovr]
                if any(v is None for v in vals):
                    ok = False
                    break
                if not targets[sid].contains(_rational_mean(vals)):
                    ok = False
                    break
        if ok:
            witnesses.append(rows)
    return OracleResult(not witnesses, witnesses)


# ---------------------------------------------------------------------------
# true-report generation
# ---------------------------------------------------------------------------


def render_decimal(value, k_decimals: int, mode: str = "round") -> str:
    """Exact k-decimal rendering of a Fraction or q*sqrt(r) value.

    mode "round" rounds half away from zero, "truncate" drops digits
    toward zero; either way the printed number is within 10^-k of the
    true value, so a report built from these strings is honest at radius
    10^-k. All arithmetic is integer (isqrt for the irrational case).
    """
    if mode not in ("round", "truncate"):
        raise ValueError(f"mode must be 'round' or 'truncate', got {mode!r}")
    k = k_decimals
    if k < 0:
        raise ValueError("k_decimals must be nonnegative")
    if isinstance(value, SqrtRational):
        q, r = value.q, value.r
        negative = q < 0
        # |v| * 10^k = sqrt(A/B) with the radicand cleared to integers
        a = q.numerator * q.numerator * r.numerator * 10 ** (2 * k)
        b = q.denominator * q.denominator * r.denominator
        m = isqrt(a * b) // b
        if mode == "round" and 4 * a * b >= b * b * (2 * m + 1) ** 2:
            m += 1
    else:
        value = Fraction(value)
        negative = value < 0
        num, den = abs(value).numerator * 10 ** k, abs(value).denominator
        if mode == "round":
            m = (2 * num + den) // (2 * den)
        else:
            m = num // den
    sign = "-" if negative and m else ""
    if k == 0:
        return f"{sign}{m}"
    return f"{sign}{m // 10 ** k}.{m % 10 ** k:0{k}d}"


def _random_composition(rng: random.Random, total: int, parts: int
                        ) -> tuple[int, ...]:
    """Uniformly random composition of `total` into `parts` nonnegative
    ints (stars and bars)."""
    if parts == 1:
        return (total,)
    bars = sorted(rng.sample(range(total + parts - 1), parts - 1))
    cuts = [-1] + bars + [total + parts - 1]
    return tuple(cuts[i + 1] - cuts[i] - 1 for i in range(parts))


def _sample_leaf(rng: random.Random, ts) -> dict:
    """A uniformly random outcome on one testset: a (tp, tn) pair for a
    binary one, a full matrix for a multiclass one."""
    if isinstance(ts, MulticlassTestset):
        return {"matrix": [list(_random_composition(rng, ci, len(ts.class_counts)))
                           for ci in ts.class_counts]}
    return {"tp": rng.randint(0, ts.p), "tn": rng.randint(0, ts.n)}


def _split_with_nonempty_folds(rng: random.Random, totals: Sequence[int],
                               k: int) -> list[tuple[int, ...]]:
    """Random per-class split into k folds, resampled until no fold is
    empty (the configuration space excludes empty folds)."""
    while True:
        per_class = [_random_composition(rng, t, k) for t in totals]
        folds = [tuple(col[j] for col in per_class) for j in range(k)]
        if all(sum(f) for f in folds):
            return folds


def _leaf_testsets(rng: random.Random, ds) -> list:
    """The concrete fold testsets an outcome is sampled on (the testset
    itself when unfolded)."""
    scheme = ds.folding
    ts = ds.testset
    multi = isinstance(ts, MulticlassTestset)
    totals = ts.class_counts if multi else (ts.p, ts.n)
    if scheme.kind == "none":
        return [ts]
    if scheme.kind == "known_folds":
        return list(scheme.folds)
    if scheme.kind == "stratified_kfold":
        vectors = stratified_split_counts(totals, scheme.k)
    else:
        vectors = _split_with_nonempty_folds(rng, totals, scheme.k)
    if multi:
        return [MulticlassTestset(v) for v in vectors]
    return [Testset(v[0], v[1]) for v in vectors]


def _leaf_value(definition, family: Optional[str], leaf_ts, leaf_outcome):
    """Exact score value of one sampled leaf, or None when undefined."""
    if isinstance(leaf_ts, MulticlassTestset):
        matrix = leaf_outcome["matrix"]
        total = sum(leaf_ts.class_counts)
        ovr = [_ovr_counts(matrix, i, total)
               for i in range(len(leaf_ts.class_counts))]
        if family == "micro":
            pooled = tuple(sum(x) for x in zip(*ovr))
            return definition.value(*pooled)
        vals = [definition.value(*one) for one in ovr]
        if any(v is None for v in vals):
            return None
        return _rational_mean(vals)
    return definition.value(leaf_outcome["tp"], leaf_outcome["tn"],
                            leaf_ts.p, leaf_ts.n)


def _pool_leaves(leaf_testsets, leaf_outcomes):
    """Sum the sampled counts, mirroring score-of-means pooling."""
    if isinstance(leaf_testsets[0], MulticlassTestset):
        c = len(leaf_testsets[0].class_counts)
        matrix = [[0] * c for _ in range(c)]
        for out in leaf_outcomes:
            for i in range(c):
                for j in range(c):
                    matrix[i][j] += out["matrix"][i][j]
        counts = tuple(sum(row) for row in matrix)
        return MulticlassTestset(counts), {"matrix": matrix}
    pooled = Testset(sum(t.p for t in leaf_testsets),
                     sum(t.n for t in leaf_testsets))
    return pooled, {"tp": sum(o["tp"] for o in leaf_outcomes),
                    "tn": sum(o["tn"] for o in leaf_outcomes)}


def _dataset_value(definition, family, leaf_ts, leaf_outcomes, fold_mos: bool):
    """One dataset's contribution: pooled score, plain score, or the mean
    of its fold scores. None when any needed value is undefined."""
    if len(leaf_ts) == 1:
        return _leaf_value(definition, family, leaf_ts[0], leaf_outcomes[0])
    if not fold_mos:
        ts, outcome = _pool_leaves(leaf_ts, leaf_outcomes)
        return _leaf_value(definition, family, ts, outcome)
    vals = [_leaf_value(definition, family, t, o)
            for t, o in zip(leaf_ts, leaf_outcomes)]
    if any(v is None for v in vals):
        return None
    return _rational_mean(vals)


def _experiment_value(definition, family, spec: ExperimentSpec,
                      per_dataset_leaves, per_dataset_outcomes):
    fold_mos = spec.fold_aggregation is AggregationMode.MEAN_OF_SCORES
    if (len(per_dataset_leaves) > 1
            and spec.dataset_aggregation is AggregationMode.SCORE_OF_MEANS):
        if fold_mos:
            raise UnsupportedExperiment(
                "dataset-level score-of-means over fold-level mean-of-scores "
                "has no count semantics")
        # pooling across datasets subsumes any fold-level pooling
        all_ts = [t for leaves in per_dataset_leaves for t in leaves]
        all_outs = [o for outs in per_dataset_outcomes for o in outs]
        ts, outcome = _pool_leaves(all_ts, all_outs)
        return _leaf_value(definition, family, ts, outcome)
    ds_values = [
        _dataset_value(definition, family, leaves, outs, fold_mos)
        for leaves, outs in zip(per_dataset_leaves, per_dataset_outcomes)]
    if any(v is None for v in ds_values):
        return None
    if len(ds_values) == 1:
        return ds_values[0]
    return _rational_mean(ds_values)


def _id_pool(registry: ScoreRegistry, linear_only: bool) -> list[str]:
    ids = registry.ids(default_only=True)
    if linear_only:
        ids = [i for i in ids if registry.get(i).linear]
    return ids


def generate_true_report(spec: Union[ExperimentSpec, RegressionContext],
                         rng_seed, k_decimals: int, mode: str = "round",
                         registry: Optional[ScoreRegistry] = None
                         ) -> tuple[dict, ScoreReport]:
    """Sample a genuine outcome for `spec` and report its exact scores
    rendered to k decimals.

    Returns (outcome, report): the hidden outcome that produced the
    numbers, and a ScoreReport of decimal strings. Checking the report at
    radius 10^-k against the same spec must come back consistent; the
    score ids are drawn from the registry defaults, restricted to
    linear/affine ones wherever the experiment averages score values
    (which is also what the checkers accept there).

    `spec` is an ExperimentSpec, or a RegressionContext used as a shape
    (its n_samples is honored when set; targets, predictions and hence
    the variance are sampled fresh and returned in the outcome).
    """
    rng = random.Random(rng_seed)
    registry = registry or default_registry()

    if isinstance(spec, RegressionContext):
        return _generate_regression(rng, spec, k_decimals, mode)

    validate_experiment(spec)
    leaves = []
    outcomes = []
    for ds in spec.datasets:
        leaf_ts = _leaf_testsets(rng, ds)
        leaves.append(leaf_ts)
        outcomes.append([_sample_leaf(rng, t) for t in leaf_ts])

    multi = any(ds.is_multiclass for ds in spec.datasets)
    if multi and len(spec.datasets) > 1:
        raise UnsupportedExperiment(
            "multi-dataset experiments with a multiclass testset are not "
            "supported; generate per dataset instead")
    fold_mos = spec.fold_aggregation is AggregationMode.MEAN_OF_SCORES
    ds_mos = spec.dataset_aggregation is AggregationMode.MEAN_OF_SCORES
    averages_scores = ((fold_mos and any(len(l) > 1 for l in leaves))
                       or (ds_mos and len(leaves) > 1))

    if multi:
        family = rng.choice(["micro", "macro"])
        linear_only = averages_scores or family == "macro"
    else:
        family = None
        linear_only = averages_scores
    pool = _id_pool(registry, linear_only)

    chosen = rng.sample(pool, min(rng.randint(1, 4), len(pool)))
    entries = {}
    for sid in chosen:
        val = _experiment_value(registry.get(sid), family, spec,
                                leaves, outcomes)
        if val is None:
            continue
        key = f"{family}-{sid}" if family else sid
        entries[key] = render_decimal(val, k_decimals, mode)
    if not entries:
        val = _experiment_value(registry.get("acc"), family, spec,
                                leaves, outcomes)
        key = f"{family}-acc" if family else "acc"
        entries[key] = render_decimal(val, k_decimals, mode)

    outcome = {
        "kind": "experiment",
        "datasets": [
            {"fold_sizes": [(list(t.class_counts)
                             if isinstance(t, MulticlassTestset)
                             else [t.p, t.n]) for t in leaf_ts],
             "leaves": outs}
            for leaf_ts, outs in zip(leaves, outcomes)
        ],
    }
    return outcome, ScoreReport(entries)


def _generate_regression(rng: random.Random, ctx: RegressionContext,
                         k: int, mode: str) -> tuple[dict, ScoreReport]:
    n = ctx.n_samples if ctx.n_samples is not None else rng.randint(2, 30)
    targets = [rng.randint(-10, 10) for _ in range(n)]
    preds = [rng.randint(-10, 10) for _ in range(n)]
    errs = [Fraction(a - b) for a, b in zip(preds, targets)]
    mae = sum(abs(e) for e in errs) / n
    mse = sum(e * e for e in errs) / n
    mean_t = Fraction(sum(targets), n)
    var = sum((t - mean_t) ** 2 for t in targets) / n

    ids = rng.sample(["mae", "mse", "rmse", "r2"], rng.randint(1, 4))
    if var == 0 and "r2" in ids:
        ids.remove("r2")
    if not ids:
        ids = ["mse"]
    values = {"mae": mae, "mse": mse, "rmse": sqrt_fraction(mse)}
    if var > 0:
        values["r2"] = 1 - mse / var
    entries = {sid: render_decimal(values[sid], k, mode) for sid in ids}
    outcome = {
        "kind": "regression",
        "targets": targets,
        "predictions": preds,
        "n_samples": n,
        "target_variance": var,
    }
    return outcome, ScoreReport(entries)
