"""Score registry: exact values, ranges, interval evaluation, inversion,
monotone directions, and the F-beta factory."""

import itertools
import random
from fractions import Fraction

import pytest

from scoresleuth.errors import UnknownScoreId
from scoresleuth.intervals import RationalInterval
from scoresleuth.scores import (
    ConfusionCounts,
    ScoreDefinition,
    default_registry,
    evaluate,
    evaluate_interval,
    fbeta_definition,
    invert_tn,
    invert_tp,
)
from scoresleuth.values import SqrtRational

F = Fraction
I = RationalInterval.closed


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def test_twenty_defaults_and_two_extras(registry):
    defaults = registry.ids(default_only=True)
    assert len(defaults) == 20
    assert "acc" in defaults and "f1" in defaults
    everything = registry.ids()
    assert len(everything) == 22
    assert "plr" in everything and "plr" not in defaults
    assert "nlr" in everything and "nlr" not in defaults
    # the non-default entries resolve through the same interface
    assert registry.get("plr").value(1, 1, 2, 2) == F(1, 2) / F(1, 2)


def test_unknown_id(registry):
    with pytest.raises(UnknownScoreId):
        registry.get("made_up")


def test_textbook_values():
    counts = ConfusionCounts(tp=81, tn=850, p=100, n=1000)
    assert evaluate("acc", counts) == F(931, 1100)
    assert evaluate("f1", counts) == F(162, 331)
    assert evaluate("sens", counts) == F(81, 100)


def test_zero_numerator_and_undefined():
    assert evaluate("sens", ConfusionCounts(0, 3, 4, 5)) == 0
    # tp + fp = 0: precision undefined
    assert evaluate("ppv", ConfusionCounts(0, 5, 3, 5)) is None


def test_sqrt_valued_scores_are_exact():
    counts = ConfusionCounts(1, 1, 2, 3)
    gm = evaluate("gm", counts)  # sqrt(1/2 * 1/3)
    assert isinstance(gm, SqrtRational)
    assert F(40, 100) < gm < F(41, 100)
    mcc = evaluate("mcc", ConfusionCounts(2, 1, 3, 3))
    assert mcc is not None


def test_score_ranges(registry):
    assert registry.get("acc").range == I(0, 1)
    assert registry.get("mcc").range == I(-1, 1)
    assert registry.get("youden").range == I(-1, 1)


def test_evaluate_interval_examples():
    assert evaluate_interval("sens", I(80, 82), I(0, 1000), 100, 1000) == \
        I(F(4, 5), F(41, 50))
    assert evaluate_interval("acc", I(0, 100), I(0, 1000), 100, 1000) == I(0, 1)
    assert evaluate_interval("f1", I(81, 81), I(850, 850), 100, 1000) == \
        I(F(162, 331), F(162, 331))


def test_invert_examples():
    assert invert_tp("sens", I(F(8099, 10000), F(8101, 10000)),
                     I(0, 1000), 100, 1000) == I(81, 81)
    assert invert_tp("spec", I(0, 1), I(0, 1000), 100, 1000) == I(0, 100)
    assert invert_tp("acc", I(F(8463, 10000), F(8465, 10000)),
                     I(850, 850), 100, 1000) == I(81, 81)


def test_interval_containment_random_boxes(registry):
    rng = random.Random(4)
    ids = registry.ids(default_only=True)
    for _ in range(200):
        p, n = rng.randint(1, 12), rng.randint(1, 12)
        t0, t1 = sorted(rng.sample(range(p + 1), 2)) if p else (0, 0)
        u0, u1 = sorted(rng.sample(range(n + 1), 2)) if n else (0, 0)
        sid = rng.choice(ids)
        box = evaluate_interval(sid, I(t0, t1), I(u0, u1), p, n)
        definition = registry.get(sid)
        for tp in range(t0, t1 + 1):
            for tn in range(u0, u1 + 1):
                val = definition.value(tp, tn, p, n)
                if val is not None:
                    assert box.contains(val), (sid, tp, tn, p, n)


def test_inversion_soundness_brute_force(registry):
    rng = random.Random(11)
    ids = registry.ids(default_only=True)
    for _ in range(150):
        p, n = rng.randint(1, 9), rng.randint(1, 9)
        sid = rng.choice(ids)
        definition = registry.get(sid)
        lo = F(rng.randint(-2, 9), 10)
        target = I(lo, lo + F(rng.randint(1, 4), 10))
        tp_box = invert_tp(sid, target, I(0, n), p, n)
        tn_box = invert_tn(sid, target, I(0, p), p, n)
        for tp in range(p + 1):
            for tn in range(n + 1):
                val = definition.value(tp, tn, p, n)
                if val is not None and target.contains(val):
                    assert tp_box.contains(tp), (sid, tp, tn, p, n)
                    assert tn_box.contains(tn), (sid, tp, tn, p, n)


def test_monotone_directions_exhaustive(registry):
    """The declared tp/tn directions hold at every interior step of a small
    grid (undefined corner values are skipped; they are the documented
    exceptions at the box extremes)."""
    p = n = 4
    for sid in registry.ids():
        d = registry.get(sid)
        for tp, tn in itertools.product(range(p), range(n + 1)):
            a, b = d.value(tp, tn, p, n), d.value(tp + 1, tn, p, n)
            if a is None or b is None:
                continue
            assert d.mono_tp * _sign(b, a) >= 0, (sid, tp, tn, "tp")
        for tp, tn in itertools.product(range(p + 1), range(n)):
            a, b = d.value(tp, tn, p, n), d.value(tp, tn + 1, p, n)
            if a is None or b is None:
                continue
            assert d.mono_tn * _sign(b, a) >= 0, (sid, tp, tn, "tn")


def test_monotone_metadata_is_required(registry):
    entry = registry.get("acc").to_payload()
    assert ScoreDefinition.from_payload(entry).mono_tp == 1
    missing = {k: v for k, v in entry.items() if k != "monotone"}
    with pytest.raises(ValueError):
        ScoreDefinition.from_payload(missing)
    for bad in ({"tp": 2, "tn": 1}, {"tp": 1}, {"tp": 1, "tn": True}):
        with pytest.raises(ValueError):
            ScoreDefinition.from_payload(dict(entry, monotone=bad))


def _sign(b, a):
    if b == a:
        return 0
    return 1 if b > a else -1


def test_fbeta_factory(registry):
    counts = ConfusionCounts(3, 2, 5, 4)
    f2 = fbeta_definition(2)
    assert f2.value(*_as_args(counts)) == registry.get("fbeta").value(*_as_args(counts))
    f1_again = fbeta_definition(1)
    assert f1_again.value(*_as_args(counts)) == registry.get("f1").value(*_as_args(counts))
    with pytest.raises(ValueError):
        fbeta_definition(0)


def _as_args(c):
    return (c.tp, c.tn, c.p, c.n)
