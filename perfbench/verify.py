"""Verdict verification, run after the timed loop.

Three checks, each independent of the decision procedures under test:

* a true-by-construction report must never be flagged;
* a consistent verdict's witness (tp/tn, per-fold counts, or confusion
  matrix) must reproduce every reported score within its radius when the
  score is recomputed with `ScoreDefinition.value` on the outcome the
  witness describes; the outcome's shape (fold sizes, configuration,
  pooled totals) is derived from the request, not taken from the verdict;
* an inconsistent verdict is cross-checked against the brute-force oracles
  (`brute_force_single`, `brute_force_mos`, `brute_force_macro`) on the
  instances they decide within ORACLE_CAP, smallest first, up to a summed
  budget of WORK_BUDGET score evaluations per run; the share covered is reported.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb
from typing import Optional

from scoresleuth.model import MulticlassTestset, ScoreReport, Testset, Uncertainty
from scoresleuth.multiclass import split_average_prefix
from scoresleuth.oracle import (
    ORACLE_CAP,
    brute_force_macro,
    brute_force_mos,
    brute_force_single,
)
from scoresleuth.scores import default_registry


class WitnessError(Exception):
    """The witness does not describe a valid outcome of the experiment."""


def radius(text: str) -> Fraction:
    """Half-width implied by the printed decimals: '0.846' -> 1/1000."""
    return Fraction(1, 10 ** len(text.strip().partition(".")[2]))


def _definition(score_id: str):
    return default_registry().get(split_average_prefix(score_id)[1])


# ---------------------------------------------------------------------------
# outcome shapes derived from the request
# ---------------------------------------------------------------------------


def _totals(testset: dict) -> tuple[int, ...]:
    if "class_counts" in testset:
        return tuple(testset["class_counts"])
    return testset["p"], testset["n"]


def _stratified(totals, k: int) -> list[tuple[int, ...]]:
    """The documented even split: the first c mod k folds of a class with c
    samples receive ceil(c/k), the others floor(c/k)."""
    columns = [[c // k + 1] * (c % k) + [c // k] * (k - c % k) for c in totals]
    return [tuple(col[j] for col in columns) for j in range(k)]


def _configuration(witness: dict, totals, k: int) -> list[tuple[int, ...]]:
    config = [tuple(v) for v in witness["configuration"]]
    if len(config) != k or any(sum(v) == 0 or min(v) < 0 for v in config):
        raise WitnessError(f"configuration {config} is not {k} nonempty folds")
    if tuple(map(sum, zip(*config))) != tuple(totals):
        raise WitnessError(f"configuration {config} does not sum to {totals}")
    return config


def _fold_vectors(dataset: dict, witness: dict) -> list[tuple[int, ...]]:
    folding = dataset.get("folding", {"kind": "none"})
    kind = folding["kind"]
    totals = _totals(dataset["testset"])
    if kind == "known_folds":
        return [_totals(f) for f in folding["folds"]]
    if kind == "stratified_kfold":
        return _stratified(totals, folding["k"])
    return _configuration(witness, totals, folding["k"])


# ---------------------------------------------------------------------------
# exact values on a witnessed outcome
# ---------------------------------------------------------------------------


def _binary_value(definition, leaf: dict, p: int, n: int):
    tp, tn = leaf["tp"], leaf["tn"]
    if not (0 <= tp <= p and 0 <= tn <= n):
        raise WitnessError(f"tp={tp}, tn={tn} outside p={p}, n={n}")
    return definition.value(tp, tn, p, n)


def _mean(values):
    if any(v is None for v in values):
        return None
    return sum(values, Fraction(0)) / len(values)


def _micro_value(definition, trace: int, counts) -> Optional[object]:
    total, c = sum(counts), len(counts)
    if not 0 <= trace <= total:
        raise WitnessError(f"trace {trace} outside [0, {total}]")
    return definition.value(trace, total * (c - 2) + trace, total,
                            total * (c - 1))


def _macro_value(definition, matrix, counts):
    c = len(counts)
    if len(matrix) != c or any(len(row) != c for row in matrix):
        raise WitnessError("matrix shape does not match the classes")
    if any(x < 0 for row in matrix for x in row):
        raise WitnessError("negative matrix entry")
    if tuple(sum(row) for row in matrix) != tuple(counts):
        raise WitnessError(f"matrix rows do not sum to {counts}")
    total = sum(counts)
    values = []
    for i in range(c):
        p = counts[i]
        fp = sum(matrix[r][i] for r in range(c)) - matrix[i][i]
        values.append(definition.value(matrix[i][i], total - p - fp, p,
                                       total - p))
    return _mean(values)


def _multiclass_value(definition, family, leaf: dict, counts):
    if family == "micro":
        return _micro_value(definition, leaf["trace"], counts)
    return _macro_value(definition, leaf["matrix"], counts)


def witnessed_values(request: dict, witness: dict) -> dict:
    """Every reported score recomputed on the outcome the witness names."""
    spec, scores = request["spec"], request["scores"]
    datasets = spec["datasets"]
    fold_mos = spec.get("fold_aggregation") == "mean_of_scores"
    out = {}
    for score_id in scores:
        definition = _definition(score_id)
        if "class_counts" in datasets[0]["testset"]:
            family = split_average_prefix(score_id)[0]
            ds = datasets[0]
            counts = _totals(ds["testset"])
            if not (fold_mos and ds.get("folding", {}).get("kind", "none") != "none"):
                out[score_id] = _multiclass_value(definition, family, witness, counts)
                continue
            vectors = _fold_vectors(ds, witness)
            if len(witness["folds"]) != len(vectors):
                raise WitnessError("one witness entry per fold expected")
            out[score_id] = _mean([
                _multiclass_value(definition, family, leaf, v)
                for leaf, v in zip(witness["folds"], vectors)])
            continue
        if len(datasets) > 1 and spec.get("dataset_aggregation") == "mean_of_scores":
            if len(witness["datasets"]) != len(datasets):
                raise WitnessError("one witness entry per dataset expected")
            out[score_id] = _mean([
                _dataset_value(definition, ds, leaf, fold_mos)
                for ds, leaf in zip(datasets, witness["datasets"])])
            continue
        if len(datasets) > 1:  # pooled across datasets
            p = sum(d["testset"]["p"] for d in datasets)
            n = sum(d["testset"]["n"] for d in datasets)
            out[score_id] = _binary_value(definition, witness, p, n)
            continue
        out[score_id] = _dataset_value(definition, datasets[0], witness, fold_mos)
    return out


def _dataset_value(definition, dataset: dict, leaf: dict, fold_mos: bool):
    p, n = _totals(dataset["testset"])
    kind = dataset.get("folding", {"kind": "none"})["kind"]
    if kind == "none" or not fold_mos:
        return _binary_value(definition, leaf, p, n)
    vectors = _fold_vectors(dataset, leaf)
    if len(leaf["folds"]) != len(vectors):
        raise WitnessError("one witness entry per fold expected")
    return _mean([_binary_value(definition, f, fp, fn)
                  for f, (fp, fn) in zip(leaf["folds"], vectors)])


def witness_problem(request: dict, witness: Optional[dict]) -> Optional[str]:
    """None when the witness reproduces every reported score within its
    radius; otherwise a description of the first failure."""
    if not witness:
        return "consistent verdict without a witness"
    try:
        values = witnessed_values(request, witness)
    except (WitnessError, KeyError, TypeError, IndexError) as exc:
        return f"malformed witness: {type(exc).__name__}: {exc}"
    for score_id, text in request["scores"].items():
        value = values[score_id]
        reported, r = Fraction(text), radius(text)
        if value is None or not (reported - r <= value <= reported + r):
            return (f"witness gives {score_id}={value}, reported {text} "
                    f"(radius {r})")
    return None


# ---------------------------------------------------------------------------
# brute-force cross-checks of inconsistent verdicts
# ---------------------------------------------------------------------------


def _oracle_inputs(request: dict):
    """(oracle, instance argument) for the shapes the oracles decide, or
    None for the others (unknown folds, dataset-level or multiclass fold
    means)."""
    spec = request["spec"]
    datasets = spec["datasets"]
    ds = datasets[0]
    kind = ds.get("folding", {"kind": "none"})["kind"]
    fold_mos = spec.get("fold_aggregation") == "mean_of_scores"
    if "class_counts" in ds["testset"]:
        if kind == "none" or not fold_mos:
            return brute_force_macro, MulticlassTestset(ds["testset"]["class_counts"])
        return None
    if len(datasets) > 1:
        if spec.get("dataset_aggregation") == "mean_of_scores":
            return None
        return brute_force_single, Testset(sum(d["testset"]["p"] for d in datasets),
                                           sum(d["testset"]["n"] for d in datasets))
    p, n = _totals(ds["testset"])
    if kind == "none" or not fold_mos:
        return brute_force_single, Testset(p, n)
    if kind == "known_folds":
        return brute_force_mos, [Testset(*_totals(f)) for f in ds["folding"]["folds"]]
    if kind == "stratified_kfold":
        return brute_force_mos, [Testset(*v) for v in _stratified((p, n), ds["folding"]["k"])]
    return None


#: Oracle work cross-checked per run, in score evaluations (states times
#: the folds or classes each state evaluates), summed over instances. Keeps
#: the verification a small share of a run; each instance is still bounded
#: by the oracles' own ORACLE_CAP on states.
WORK_BUDGET = 400_000


def _states_and_leaves(oracle, instance) -> tuple[int, int]:
    if oracle is brute_force_single:
        return (instance.p + 1) * (instance.n + 1), 1
    if oracle is brute_force_mos:
        states = 1
        for fold in instance:
            states *= (fold.p + 1) * (fold.n + 1)
        return states, len(instance)
    counts = instance.class_counts
    states = 1
    for ci in counts:
        states *= comb(ci + len(counts) - 1, len(counts) - 1)
    return states, len(counts)


def oracle_problem(request: dict):
    """Cross-check an inconsistent verdict at the digit-implied radius of
    each score; None when the oracle agrees."""
    oracle, instance = _oracle_inputs(request)
    scores = request["scores"]
    uncertainty = Uncertainty(0, per_score_radius={
        sid: radius(text) for sid, text in scores.items()})
    result = oracle(instance, ScoreReport(scores), uncertainty)
    if result.consistent:
        return f"oracle finds a witness: {result.witnesses[0]}"
    return None


def oracle_work(request: dict) -> Optional[int]:
    """Score evaluations the oracle would make, or None when no oracle
    decides the instance within ORACLE_CAP states."""
    found = _oracle_inputs(request)
    if found is None:
        return None
    states, leaves = _states_and_leaves(*found)
    return states * leaves if states <= ORACLE_CAP else None


def verify(requests, outcomes) -> dict:
    """Verify every delivered verdict. Inconsistent verdicts are
    cross-checked smallest instance first while the summed oracle work
    stays within WORK_BUDGET. Returns the problems found (empty when
    every verdict holds) and the cross-check coverage."""
    problems = []
    inconsistent = []
    for req, out in zip(requests, outcomes):
        if out.response is None:
            continue
        request = json.loads(req.text)
        verdict = json.loads(out.response)
        if not verdict["inconsistency"]:
            problem = witness_problem(request, verdict["witness"])
            if problem:
                problems.append((req.id, problem))
        elif req.true_by_construction:
            problems.append((req.id, "true-by-construction report flagged"))
        else:
            inconsistent.append((req.id, request))
    sized = sorted((work, request_id, request)
                   for request_id, request in inconsistent
                   if (work := oracle_work(request)) is not None)
    covered = spent = 0
    for work, request_id, request in sized:
        if spent + work > WORK_BUDGET:
            break
        spent += work
        covered += 1
        problem = oracle_problem(request)
        if problem:
            problems.append((request_id, problem))
    return {
        "problems": problems,
        "inconsistent": len(inconsistent),
        "oracle_covered": covered,
    }
