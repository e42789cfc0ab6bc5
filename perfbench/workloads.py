"""Seeded request generation for the verdict benchmark.

A workload is a fixed list of check requests made from the workload name
and the seed alone: the same (workload, seed) always yields the same JSON
texts in the same order. Each request is what a client would send to
`scoresleuth check --infer-eps`: an experiment spec and a report whose
scores are decimal strings, so the uncertainty is inferred from the digits.

Every list is stratified. Each stratum contributes a fixed number of
requests of one experiment shape with seed-drawn sizes; half of them carry a
true-by-construction report (`oracle.generate_true_report`) and half the
same kind of report with one score shifted by 2 or 3 units in its last
digit, at 2, 3 and 4 decimals in turn. On top of that, every workload draws
a fixed number of requests from `hard_cases.json`: instances on which the
solver is known to run far past the per-check deadline. Fixed stratum
counts keep the mix, and with it the share of deadline misses, the same
from seed to seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from scoresleuth.model import (
    AggregationMode,
    DatasetSpec,
    ExperimentSpec,
    FoldingScheme,
    MulticlassTestset,
    Testset,
    experiment_to_payload,
)
from scoresleuth.multiclass import split_average_prefix
from scoresleuth.oracle import generate_true_report, render_decimal
from scoresleuth.scores import default_registry

SOM = AggregationMode.SCORE_OF_MEANS
MOS = AggregationMode.MEAN_OF_SCORES

HARD_CASES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "hard_cases.json")


@dataclass(frozen=True)
class Request:
    """One check request: its id, the JSON text the program receives, and
    what the benchmark knows about it (never shown to the program)."""

    id: str
    text: str
    stratum: str
    true_by_construction: bool


# ---------------------------------------------------------------------------
# experiment shapes
# ---------------------------------------------------------------------------
#
# A builder takes the list's random generator and u, the request's position
# within its stratum spread over [0, 1) (request i of a stratum of m gets u
# in [i/m, (i+1)/m)). Drawing the main size from u instead of the generator
# covers each stratum's size range evenly in every list, which keeps the
# lists of different seeds alike.


def _log_size(u: float, lo: int, hi: int) -> int:
    """The size at position u of [lo, hi] on a log scale."""
    return min(hi, int(math.exp(math.log(lo) + u * math.log((hi + 1) / lo))))


def _log_int(rng: random.Random, lo: int, hi: int) -> int:
    return _log_size(rng.random(), lo, hi)


def _known_folds(rng: random.Random, p: int, n: int, k: int) -> FoldingScheme:
    """Explicit binary folds: p and n dealt out at random, no fold empty."""
    while True:
        ps, ns = [0] * k, [0] * k
        for _ in range(p):
            ps[rng.randrange(k)] += 1
        for _ in range(n):
            ns[rng.randrange(k)] += 1
        if all(a + b for a, b in zip(ps, ns)):
            return FoldingScheme.known([Testset(a, b) for a, b in zip(ps, ns)])


def _binary_single(rng, u, p_range, n_range):
    return ExperimentSpec.single(
        Testset(_log_size(u, *p_range), _log_int(rng, *n_range)))


def _binary_som_folds(rng, u):
    """k-fold score of means: known, stratified or unknown folds, which all
    pool to the totals."""
    p, n = _log_size(u, 20, 600), _log_int(rng, 50, 10000)
    k = rng.choice([5, 10])
    scheme = rng.choice([lambda: _known_folds(rng, p, n, k),
                         lambda: FoldingScheme.stratified(k),
                         lambda: FoldingScheme.unknown(k)])()
    return ExperimentSpec.single(Testset(p, n), scheme, SOM)


def _binary_pooled_datasets(rng, u):
    """2-3 datasets pooled by score of means, some of them folded."""
    datasets = []
    for _ in range(rng.randint(2, 3)):
        ts = Testset(_log_size(u, 10, 200), _log_int(rng, 20, 3000))
        folding = FoldingScheme.stratified(5) if rng.random() < 0.5 else None
        datasets.append(DatasetSpec(ts, folding or FoldingScheme.none()))
    folded = any(d.folding.is_folded for d in datasets)
    return ExperimentSpec(tuple(datasets), fold_aggregation=SOM if folded else None,
                          dataset_aggregation=SOM)


def _mos_known(rng, u, k, sizes):
    """k known folds, each of (p, n) drawn from `sizes`."""
    folds = [Testset(*rng.choice(sizes)) for _ in range(k)]
    return ExperimentSpec.single(
        Testset(sum(f.p for f in folds), sum(f.n for f in folds)),
        FoldingScheme.known(folds), MOS)


def _mos_stratified(rng, u, k, p_range, n_range):
    p = p_range[0] + int(u * (p_range[1] - p_range[0] + 1))
    return ExperimentSpec.single(Testset(p, rng.randint(*n_range)),
                                 FoldingScheme.stratified(k), MOS)


def _mos_unknown(rng, u, total_range):
    k = 3 + int(u * 3)
    p = rng.randint(*total_range)
    n = rng.randint(max(total_range[0], k), total_range[1])
    return ExperimentSpec.single(Testset(p, n), FoldingScheme.unknown(k), MOS)


def _mos_datasets(rng, u, size):
    """Dataset-level mean of scores over 2-3 unfolded datasets."""
    datasets = tuple(DatasetSpec(Testset(rng.randint(*size), rng.randint(*size)))
                     for _ in range(2 + int(u * 2)))
    return ExperimentSpec(datasets, dataset_aggregation=MOS)


def _multiclass(rng, u, classes, per_class, folding=None):
    """C = classes[0] + position share of the range, class sizes at random;
    folded testsets are averaged over folds as scores."""
    c = classes[0] + int(u * (classes[1] - classes[0] + 1))
    counts = [rng.randint(*per_class) for _ in range(c)]
    if folding is None:
        return ExperimentSpec.single(MulticlassTestset(counts))
    counts[0] = max(counts[0], folding.k)  # k folds need a class of k samples
    return ExperimentSpec.single(MulticlassTestset(counts), folding, MOS)


K10_FOLDS = [(1, 0), (1, 0), (0, 1), (0, 1), (1, 1)]

PLAIN_SCORES = ["acc", "sens", "spec", "ppv", "npv", "f1", "bacc"]


def _sqrt_report(spec, rng, decimals):
    """gm, a square-root score, and two plain scores of a random outcome at
    3 or 4 decimals: the tp-column scan over a testset in the thousands.
    mcc and fm are left out, as are one plain score and 2 decimals: near an
    uninformative outcome those take seconds at these sizes and pass the
    deadline (see README.md), so they are in the hard cases only. mcc and
    fm appear in the generated reports of the other strata, with p up to
    600."""
    ts = spec.datasets[0].testset
    while True:
        tp, tn = rng.randint(0, ts.p), rng.randint(0, ts.n)
        ids = ["gm"] + rng.sample(PLAIN_SCORES, 2)
        values = [default_registry().get(i).value(tp, tn, ts.p, ts.n) for i in ids]
        if None not in values:
            return {i: render_decimal(v, max(decimals, 3)) for i, v in zip(ids, values)}


def _generated(family=None):
    """Reports from `true_report`; `family` pins the averaging of
    multiclass reports ("micro"/"macro")."""
    return lambda spec, rng, decimals: true_report(spec, rng, family, decimals)


# Each stratum: (name, requests per list, spec builder, report builder).
WORKLOADS = {
    "single_audit": [
        ("single_small", 240, lambda r, u: _binary_single(r, u, (10, 300), (10, 3000)), _generated()),
        ("single_large", 180, lambda r, u: _binary_single(r, u, (300, 600), (1000, 30000)), _generated()),
        ("sqrt_scan", 90, lambda r, u: _binary_single(r, u, (1000, 9999), (1000, 30000)), _sqrt_report),
        ("som_kfold", 150, _binary_som_folds, _generated()),
        ("som_datasets", 150, _binary_pooled_datasets, _generated()),
    ],
    "mos_kfold": [
        ("known_k5", 240, lambda r, u: _mos_known(r, u, 5, [(1, 1), (1, 2), (2, 1), (2, 2)]), _generated()),
        ("known_k10", 120, lambda r, u: _mos_known(r, u, 10, K10_FOLDS), _generated()),
        ("stratified_k5", 210, lambda r, u: _mos_stratified(r, u, 5, (5, 10), (5, 10)), _generated()),
        ("stratified_k5_deep", 60, lambda r, u: _mos_stratified(r, u, 5, (10, 12), (10, 12)), _generated()),
        ("stratified_k10", 90, lambda r, u: _mos_stratified(r, u, 10, (10, 10), (1, 3)), _generated()),
        ("unknown_k3_5", 210, lambda r, u: _mos_unknown(r, u, (3, 5)), _generated()),
        ("datasets", 180, lambda r, u: _mos_datasets(r, u, (3, 10)), _generated()),
    ],
    "multiclass": [
        ("micro_plain", 360, lambda r, u: _multiclass(r, u, (3, 5), (5, 300)), _generated("micro")),
        ("macro_plain", 300, lambda r, u: _multiclass(r, u, (3, 4), (1, 3)), _generated("macro")),
        ("micro_stratified", 240, lambda r, u: _multiclass(
            r, u, (3, 4), (5, 15), FoldingScheme.stratified(5)), _generated("micro")),
        ("micro_unknown", 240, lambda r, u: _multiclass(
            r, u, (3, 3), (2, 3), FoldingScheme.unknown(3)), _generated("micro")),
        ("macro_stratified", 240, lambda r, u: _multiclass(
            r, u, (3, 3), (2, 3), FoldingScheme.stratified(2)), _generated("macro")),
    ],
}

#: Requests per list drawn from hard_cases.json.
HARD_PER_LIST = 3


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _decimals(text: str) -> int:
    return len(text.partition(".")[2])


def _score_range(score_id: str):
    return default_registry().get(split_average_prefix(score_id)[1]).range


def perturb(scores: dict, rng: random.Random) -> dict:
    """Shift one score by 2 or 3 units in its last printed digit, towards
    the inside of the score's theoretical range when one side is closed."""
    out = dict(scores)
    score_id = rng.choice(sorted(out))
    text = out[score_id]
    k = _decimals(text)
    step = Fraction(rng.choice([2, 3]), 10 ** k)
    value = Fraction(text)
    shifted = value + step if rng.random() < 0.5 else value - step
    rng_ = _score_range(score_id)
    if rng_.lo is not None and shifted < rng_.lo:
        shifted = value + step
    if rng_.hi is not None and shifted > rng_.hi:
        shifted = value - step
    out[score_id] = render_decimal(shifted, k)
    return out


def true_report(spec: ExperimentSpec, rng: random.Random, family,
                decimals: int) -> dict:
    """A true-by-construction report; for multiclass specs the averaging
    family is redrawn until it matches `family`."""
    while True:
        _, report = generate_true_report(spec, rng.getrandbits(64), decimals)
        ids = report.ids
        if family is None or ids[0].startswith(family + "-"):
            return {i: report.text(i) for i in ids}


def _payload(spec: ExperimentSpec, scores: dict) -> str:
    return json.dumps({"spec": experiment_to_payload(spec), "scores": scores},
                      sort_keys=True)


def build(workload: str, seed: int) -> list[Request]:
    """The request list of one workload for one seed."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    drafts = []
    for name, count, make_spec, make_report in WORKLOADS[workload]:
        for i in range(count):
            spec = make_spec(rng, (i + rng.random()) / count)
            # every (truthful, decimals) pair recurs evenly down the stratum
            scores = make_report(spec, rng, 2 + i // 2 % 3)
            truthful = i % 2 == 0
            if not truthful:
                scores = perturb(scores, rng)
            drafts.append((_payload(spec, scores), name, truthful))
    with open(HARD_CASES, encoding="utf-8") as fh:
        cases = json.load(fh)[workload]
    for case in rng.sample(cases, HARD_PER_LIST):
        drafts.append((json.dumps({"spec": case["spec"], "scores": case["scores"]},
                                  sort_keys=True),
                       "hard", case["true_by_construction"]))
    rng.shuffle(drafts)
    return [Request(f"{workload}/{seed}/{i:03d}", text, stratum, truthful)
            for i, (text, stratum, truthful) in enumerate(drafts)]
