"""Single-testset decisions: worked examples, the feasible region, and the
properties that make the verdict trustworthy (oracle agreement and the two
monotonicity laws)."""

import random
from fractions import Fraction

import pytest

from scoresleuth import binary
from scoresleuth.binary import check_single_testset, compute_targets, feasible_region
from scoresleuth.errors import RegionTooLarge, UnknownScoreId
from scoresleuth.model import ScoreReport, Testset, Uncertainty, infer_uncertainty
from scoresleuth.oracle import brute_force_single
from scoresleuth.scores import ScoreDefinition, default_registry, target_ends

F = Fraction


def U(k):
    return Uncertainty(F(1, 10 ** k))


TEXTBOOK = ScoreReport.of(acc="0.8464", sens="0.81", f1="0.4894")


def test_textbook_report_consistent_with_witness():
    res = check_single_testset(Testset(100, 1000), TEXTBOOK, U(4))
    assert not res.inconsistency
    assert res.witness == {"tp": 81, "tn": 850}
    assert res.procedure == "single_testset"


def test_textbook_accuracy_perturbed():
    scores = ScoreReport.of(acc="0.8474", sens="0.81", f1="0.4894")
    res = check_single_testset(Testset(100, 1000), scores, U(4))
    assert res.inconsistency
    assert res.witness is None


def test_textbook_wrong_p():
    res = check_single_testset(Testset(110, 1000), TEXTBOOK, U(4))
    assert res.inconsistency


def test_perfect_classifier():
    res = check_single_testset(Testset(1, 1), ScoreReport.of(acc="1.0"), U(4))
    assert not res.inconsistency and res.witness == {"tp": 1, "tn": 1}


def test_value_out_of_range_is_verdict_not_exception():
    res = check_single_testset(Testset(5, 5), ScoreReport.of(acc="1.5"), U(4))
    assert res.inconsistency
    assert res.evidence["score"] == "acc"
    assert "theoretical_range" in res.evidence


def test_unknown_score_id():
    with pytest.raises(UnknownScoreId):
        check_single_testset(Testset(5, 5), ScoreReport.of(accuracy="0.5"), U(2))


def test_compute_targets_intersects_range():
    targets, violation = compute_targets(
        ScoreReport.of(acc="1.0"), U(2), default_registry())
    assert violation is None
    assert targets["acc"].hi == 1  # clipped at the theoretical maximum


def test_feasible_region_sens_pins_tp():
    region = feasible_region(Testset(100, 1000), ScoreReport.of(sens="0.81"), U(4))
    assert len(region) == 1001
    assert all(tp == 81 for tp, _ in region)
    assert region == sorted(region)


def test_feasible_region_small_acc():
    region = feasible_region(Testset(2, 2), ScoreReport.of(acc="0.5"), U(2))
    assert region == [(0, 2), (1, 1), (2, 0)]
    assert feasible_region(Testset(2, 2), ScoreReport.of(acc="0.3"), U(2)) == []


def test_feasible_region_cap():
    with pytest.raises(RegionTooLarge):
        feasible_region(Testset(100, 1000), ScoreReport.of(acc="0.5"), U(1), cap=10)


def test_oracle_agreement_random():
    rng = random.Random(20260815)
    ids = ["acc", "sens", "spec", "ppv", "f1", "bacc", "mcc", "gm", "fm", "youden"]
    for _ in range(250):
        p, n = rng.randint(1, 25), rng.randint(1, 25)
        chosen = rng.sample(ids, rng.randint(1, 4))
        rep = ScoreReport({sid: f"{rng.random():.3f}" for sid in chosen})
        k = rng.choice([2, 3, 4])
        engine = check_single_testset(Testset(p, n), rep, U(k))
        oracle = brute_force_single(Testset(p, n), rep, U(k))
        assert engine.inconsistency == oracle.inconsistency, (p, n, dict(rep.items()), k)
        if not engine.inconsistency:
            w = (engine.witness["tp"], engine.witness["tn"])
            assert w == oracle.witnesses[0]  # both enumerate ascending
            assert feasible_region(Testset(p, n), rep, U(k)) == oracle.witnesses


def _oracle_report(rng, ids, p, n):
    """1-3 distinct registry scores at 1-3 decimals: half the time the
    values of one random (tp, tn), rounded, otherwise random values (some
    outside the scores' ranges)."""
    registry = default_registry()
    decimals = rng.randint(1, 3)
    tp, tn = rng.randint(0, p), rng.randint(0, n)
    entries = {}
    for sid in rng.sample(ids, rng.randint(1, 3)):
        value = registry.get(sid).value(tp, tn, p, n)
        if value is None or rng.random() < 0.5:
            value = rng.uniform(-1.2, 2.5)
        entries[sid] = f"{float(value):.{decimals}f}"
    return ScoreReport(entries), U(decimals)


def test_integer_scan_matches_brute_force():
    """feasible_region equals brute_force_single, and the witness of
    check_single_testset is its first pair, on seeded random reports over
    every registry score, p and n in 0..12 (0 and 1 often; p + n >= 1)."""
    rng = random.Random(20261018)
    ids = default_registry().ids()
    sizes = (0, 1, 0, 1) + tuple(range(13))
    outcomes = {True: 0, False: 0}
    for _ in range(2500):
        p, n = rng.choice(sizes), rng.choice(sizes)
        if p + n == 0:
            continue
        testset = Testset(p, n)
        report, uncertainty = _oracle_report(rng, ids, testset.p, testset.n)
        oracle = brute_force_single(testset, report, uncertainty)
        case = (testset, dict(report.items()))
        assert feasible_region(testset, report, uncertainty) == oracle.witnesses, case
        engine = check_single_testset(testset, report, uncertainty)
        assert engine.inconsistency == oracle.inconsistency, case
        if oracle.witnesses:
            witness = (engine.witness["tp"], engine.witness["tn"])
            assert witness == oracle.witnesses[0], case
        outcomes[oracle.inconsistency] += 1
    assert min(outcomes.values()) >= 500, outcomes


@pytest.mark.parametrize("p, n, entries, inversions, result", [
    # a sqrt_scan-shaped report (gm plus two plain scores): the scan runs
    # over 112 columns of tp
    (3416, 1889, {"acc": "0.608", "gm": "0.632", "npv": "0.469"}, 237,
     (False, {"tp": 1701, "tn": 1520},
      {"tp_range": ["1701", "1812"], "tn_range": ["1418", "1520"]})),
    # acc and err with parallel level sets: pruning takes 98 passes to
    # empty the boxes
    (349, 14552, {"acc": "0.012", "err": "0.986"}, 390,
     (True, None, {"tp_range": "empty", "tn_range": "empty"})),
])
def test_inversion_count_is_pinned(monkeypatch, p, n, entries, inversions,
                                   result):
    """The prune and the scan call ScoreDefinition.invert, at class level,
    exactly as often as pinned here. The benchmark's tracer wraps that
    name, so an inversion under another name would read as zero calls
    there."""
    calls = []
    invert = ScoreDefinition.invert

    def counted(self, *args):
        calls.append(self.score_id)
        return invert(self, *args)

    monkeypatch.setattr(ScoreDefinition, "invert", counted)
    report = ScoreReport(entries)
    res = check_single_testset(Testset(p, n), report, infer_uncertainty(report))
    assert len(calls) == inversions
    assert (res.inconsistency, res.witness, res.evidence) == result


@pytest.mark.parametrize("p, n, entries, compares, inversions, result", [
    # single_audit hard case 3: 587197 compare() calls with bisections,
    # 130560 with gallops on every axis
    (9237, 92296, {"fdr": "0.22", "mcc": "0.88"}, 88593, 18213,
     (False, {"tp": 9109, "tn": 89874},
      {"tp_range": ["0", "9237"], "tn_range": ["89537", "92296"]})),
    # single_audit hard case 9: 616828 with bisections, 283558 with gallops
    (8557, 61698, {"mcc": "-0.07", "ppv": "0.13"}, 166415, 16728,
     (False, {"tp": 8361, "tn": 384},
      {"tp_range": ["0", "8557"], "tn_range": ["0", "61698"]})),
    # 98 pruning passes on parallel level sets: 10678 with bisections,
    # 2745 with gallops
    (349, 14552, {"acc": "0.012", "err": "0.986"}, 1171, 390,
     (True, None, {"tp_range": "empty", "tn_range": "empty"})),
])
def test_compare_count_is_pinned(monkeypatch, p, n, entries, compares,
                                 inversions, result):
    """An inversion over a linear-fractional axis makes no compare() call
    on the interior (closed form), and any other is seeded from the
    previous column's or round's box and gallops instead of bisecting the
    whole axis: the number of ScoreDefinition.compare calls (wrapped at
    class level) drops, while the inversions, the witness and the evidence
    stay those of the bisecting scan."""
    counts = {"compare": 0, "invert": 0}
    for name in counts:
        method = getattr(ScoreDefinition, name)

        def counted(self, *args, _name=name, _method=method):
            counts[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(ScoreDefinition, name, counted)
    report = ScoreReport(entries)
    res = check_single_testset(Testset(p, n), report, infer_uncertainty(report))
    assert counts == {"compare": compares, "invert": inversions}
    assert (res.inconsistency, res.witness, res.evidence) == result


def _verdict(testset, report, uncertainty):
    res = check_single_testset(testset, report, uncertainty)
    return res.inconsistency, res.witness


def _scored(testset, report, uncertainty):
    """The (definition, target ends) pairs the search prunes and scans
    with, or None when a reported value lies outside its range."""
    registry = default_registry()
    defs = {score_id: registry.get(score_id) for score_id in report.ids}
    targets, violation = compute_targets(report, uncertainty, defs)
    if violation is not None:
        return None
    return [(defs[score_id], target_ends(targets[score_id]))
            for score_id in sorted(targets)]


def _pruning_cases():
    """The reports of test_integer_scan_matches_brute_force, after acc/err
    with parallel level sets (98 pruning passes to empty its boxes)."""
    rng = random.Random(20261018)
    ids = default_registry().ids()
    sizes = (0, 1, 0, 1) + tuple(range(13))
    acc_err = ScoreReport({"acc": "0.012", "err": "0.986"})
    cases = [(Testset(349, 14552), acc_err, infer_uncertainty(acc_err))]
    while len(cases) < 800:
        p, n = rng.choice(sizes), rng.choice(sizes)
        if p + n:
            cases.append((Testset(p, n), *_oracle_report(rng, ids, p, n)))
    return cases


def test_pruning_keeps_verdicts():
    """The scan alone, over the unpruned boxes [0, p] and [0, n], verifies
    every pair it visits: its pairs are the feasible region of the pruned
    search, and its first pair the witness, on the reports of
    test_integer_scan_matches_brute_force and on acc/err."""
    for case in _pruning_cases():
        testset, report, uncertainty = case
        p, n = testset.p, testset.n
        scored = _scored(*case)
        pairs = ([] if scored is None
                 else list(binary._scan(scored, (0, p), (0, n), p, n)))
        witness = {"tp": pairs[0][0], "tn": pairs[0][1]} if pairs else None
        assert feasible_region(*case) == pairs, case
        assert _verdict(*case) == (not pairs, witness), case


@pytest.mark.parametrize("rounds", [1, 2])
def test_prune_cap_keeps_verdicts(monkeypatch, rounds):
    """Stopping the prune after 1 or 2 passes (a tp sweep and a tn sweep
    each) leaves wider boxes, but the scan verifies every pair it visits:
    the verdict, the witness and the feasible region equal those of the
    prune run to its fixpoint, on the reports of
    test_pruning_keeps_verdicts, and acc/err (98 passes to empty its
    boxes) is still found inconsistent."""
    cases = _pruning_cases()
    full = [_verdict(*case) for case in cases]
    regions = [feasible_region(*case) for case in cases[1:]]
    prune, sweep = binary._prune_boxes, binary._sweep

    def capped(scored, tp_box, tn_box, p, n):
        calls = []

        def counted(scored, other, box, p, n, axis, near):
            calls.append(axis)
            if len(calls) > 2 * rounds:
                return box  # unchanged boxes end the prune's loop
            return sweep(scored, other, box, p, n, axis, near)
        monkeypatch.setattr(binary, "_sweep", counted)
        try:
            return prune(scored, tp_box, tn_box, p, n)
        finally:
            monkeypatch.setattr(binary, "_sweep", sweep)

    monkeypatch.setattr(binary, "_prune_boxes", capped)
    assert [_verdict(*case) for case in cases] == full
    assert [feasible_region(*case) for case in cases[1:]] == regions
    assert full[0] == (True, None)
    assert check_single_testset(*cases[0]).evidence != {
        "tp_range": "empty", "tn_range": "empty"}  # the cap did bind


def test_prune_reaches_a_fixpoint(monkeypatch):
    """One more tp sweep and tn sweep over the boxes the prune returns
    moves neither, on the reports of test_pruning_keeps_verdicts and on
    kappa/ppv, which needs more passes than the old cap of 100 rounds
    (295 rounds of the interleaved prune)."""
    kappa_ppv = ScoreReport({"kappa": "-0.0040", "ppv": "0.0624"})
    cases = [(Testset(519, 7564), kappa_ppv, infer_uncertainty(kappa_ppv)),
             *_pruning_cases()]
    sweep = binary._sweep
    sweeps = []
    monkeypatch.setattr(binary, "_sweep",
                        lambda *args: sweeps.append(args[5]) or sweep(*args))
    passes = []
    for case in cases:
        testset, report, uncertainty = case
        p, n = testset.p, testset.n
        scored = _scored(*case)
        if scored is None:
            continue
        sweeps.clear()
        tp_box, tn_box = binary._prune_boxes(scored, (0, p), (0, n), p, n)
        passes.append(sweeps.count("tp"))
        if tp_box is None:
            assert tn_box is None
            continue
        near = [None] * len(scored)
        assert sweep(scored, tn_box, tp_box, p, n, "tp", near) == tp_box, case
        near = [None] * len(scored)
        assert sweep(scored, tp_box, tn_box, p, n, "tn", near) == tn_box, case
    assert passes[0] > 100 and passes[1] == 98, passes[:2]


def _prune_until_neither_moves(scored, tp_box, tn_box, p, n):
    """The reference for _prune_boxes: passes run until neither box
    moves."""
    near_tp, near_tn = [None] * len(scored), [None] * len(scored)
    while True:
        new_tp = binary._sweep(scored, tn_box, tp_box, p, n, "tp", near_tp)
        if new_tp is None:
            return None, None
        new_tn = binary._sweep(scored, new_tp, tn_box, p, n, "tn", near_tn)
        if new_tn is None:
            return None, None
        if (new_tp, new_tn) == (tp_box, tn_box):
            return tp_box, tn_box
        tp_box, tn_box = new_tp, new_tn


def test_prune_stops_at_the_boxes_of_the_full_loop():
    """Stopping when the tn sweep leaves the tn box unchanged returns the
    boxes that passes run until neither box moves return, on the reports
    of test_pruning_keeps_verdicts, on kappa/ppv (295 passes) and on
    random reports over testsets of up to 400 per class."""
    kappa_ppv = ScoreReport({"kappa": "-0.0040", "ppv": "0.0624"})
    cases = [(Testset(519, 7564), kappa_ppv, infer_uncertainty(kappa_ppv)),
             *_pruning_cases()]
    rng = random.Random(20261019)
    ids = default_registry().ids()
    for _ in range(400):
        testset = Testset(rng.randint(1, 400), rng.randint(0, 400))
        cases.append((testset,
                      *_oracle_report(rng, ids, testset.p, testset.n)))
    moved = 0
    for case in cases:
        scored = _scored(*case)
        if scored is None:
            continue
        p, n = case[0].p, case[0].n
        boxes = binary._prune_boxes(scored, (0, p), (0, n), p, n)
        assert boxes == _prune_until_neither_moves(
            scored, (0, p), (0, n), p, n), case
        moved += boxes[0] not in (None, (0, p))
    assert moved > 50, moved


def test_epsilon_monotonicity():
    rng = random.Random(7)
    for _ in range(120):
        p, n = rng.randint(1, 20), rng.randint(1, 20)
        rep = ScoreReport({"acc": f"{rng.random():.3f}",
                           "sens": f"{rng.random():.3f}"})
        narrow = check_single_testset(Testset(p, n), rep, U(4))
        wide = check_single_testset(Testset(p, n), rep, U(2))
        if not narrow.inconsistency:
            assert not wide.inconsistency


def test_score_set_monotonicity():
    rng = random.Random(8)
    for _ in range(120):
        p, n = rng.randint(1, 20), rng.randint(1, 20)
        entries = {"acc": f"{rng.random():.3f}", "sens": f"{rng.random():.3f}",
                   "spec": f"{rng.random():.3f}"}
        full = check_single_testset(Testset(p, n), ScoreReport(entries), U(3))
        fewer = {k: entries[k] for k in ("acc", "sens")}
        sub = check_single_testset(Testset(p, n), ScoreReport(fewer), U(3))
        if not full.inconsistency:
            assert not sub.inconsistency  # dropping constraints cannot flag


@pytest.mark.parametrize("entries", [
    {"sens": "0.50", "acc": "0.90"},   # the tp axis empties first
    {"spec": "0.50", "acc": "0.90"},   # the tn axis empties first
])
def test_emptied_axis_empties_both_ranges(entries):
    """acc = 0.90 on p = n = 10 needs tp, tn >= 8, which sens or spec =
    0.50 contradicts. Whichever axis pruning empties, the evidence shows
    both ranges empty rather than the other axis at an earlier round."""
    res = check_single_testset(Testset(10, 10), ScoreReport(entries), U(2))
    assert res.inconsistency
    assert res.evidence == {"tp_range": "empty", "tn_range": "empty"}


@pytest.mark.parametrize("p, n, entries", [
    (7719, 84955, {"mcc": "-0.12", "ppv": "0.07"}),
    (8004, 43505, {"fm": "0.24", "ppv": "0.10"}),
])
def test_large_square_root_testsets_are_decided(p, n, entries):
    """Two reports once kept as hard cases (mcc or fm with ppv, p near
    10^4, n up to 10^5) are decided consistent; the witness, recomputed
    with value(), reproduces every score within its radius."""
    report = ScoreReport(entries)
    uncertainty = infer_uncertainty(report)
    res = check_single_testset(Testset(p, n), report, uncertainty)
    assert not res.inconsistency
    tp, tn = res.witness["tp"], res.witness["tn"]
    registry = default_registry()
    for score_id, text in entries.items():
        value = registry.get(score_id).value(tp, tn, p, n)
        radius = uncertainty.radius_for(score_id)
        assert value is not None
        assert F(text) - radius <= value <= F(text) + radius
