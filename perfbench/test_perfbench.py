"""Tests of the benchmark itself: seeded generation, verification and
span accounting. Run with `python3 -m pytest perfbench`."""

import json

import pytest

import loop
import speed
import tracing
import verify
import workloads

TEXTBOOK = {"spec": {"datasets": [{"testset": {"p": 100, "n": 1000}}]},
            "scores": {"acc": "0.8464", "sens": "0.81", "f1": "0.4894"}}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_per_seed(workload):
    first = workloads.build(workload, 7)
    assert first == workloads.build(workload, 7)
    assert [r.text for r in first] != [r.text for r in workloads.build(workload, 8)]
    per_list = sum(count for _, count, _, _ in workloads.WORKLOADS[workload])
    assert len(first) == per_list + workloads.HARD_PER_LIST
    assert len({r.id for r in first}) == len(first)


def test_program_receives_only_the_generated_payloads(monkeypatch):
    requests = workloads.build("multiclass", 3)[:20]
    received = []
    monkeypatch.setattr(loop, "handle",
                        lambda text: received.append(text) or json.dumps(
                            {"inconsistency": False}))
    loop.run_pass(requests, speed.Gauge())
    assert received == [r.text for r in requests]
    for text in received:
        assert set(json.loads(text)) == {"spec", "scores"}


def test_textbook_witness_verifies():
    assert verify.witness_problem(TEXTBOOK, {"tp": 81, "tn": 850}) is None


@pytest.mark.parametrize("request_, witness", [
    (TEXTBOOK, {"tp": 81, "tn": 851}),
    (TEXTBOOK, {"tp": 101, "tn": 850}),
    (TEXTBOOK, None),
    ({"spec": {"datasets": [{"testset": {"p": 4, "n": 4},
                             "folding": {"kind": "stratified_kfold", "k": 2}}],
               "fold_aggregation": "mean_of_scores"},
      "scores": {"acc": "0.75"}},
     {"folds": [{"tp": 2, "tn": 2}, {"tp": 0, "tn": 1}]}),
    ({"spec": {"datasets": [{"testset": {"p": 4, "n": 4},
                             "folding": {"kind": "unknown_folds_kfold", "k": 2}}],
               "fold_aggregation": "mean_of_scores"},
      "scores": {"acc": "0.75"}},
     {"configuration": [[2, 2], [2, 1]],
      "folds": [{"tp": 2, "tn": 2}, {"tp": 1, "tn": 0}]}),
    ({"spec": {"datasets": [{"testset": {"class_counts": [2, 2, 2]}}]},
      "scores": {"macro-acc": "1.00"}},
     {"matrix": [[2, 0, 0], [0, 2, 0], [0, 0, 1]]}),
])
def test_verification_rejects_a_planted_wrong_witness(request_, witness):
    assert verify.witness_problem(request_, witness) is not None


def test_valid_fold_and_matrix_witnesses_verify():
    folds = {"spec": {"datasets": [{"testset": {"p": 4, "n": 4},
                                    "folding": {"kind": "stratified_kfold", "k": 2}}],
                      "fold_aggregation": "mean_of_scores"},
             "scores": {"acc": "0.75"}}
    assert verify.witness_problem(
        folds, {"folds": [{"tp": 2, "tn": 2}, {"tp": 0, "tn": 2}]}) is None
    matrix = {"spec": {"datasets": [{"testset": {"class_counts": [2, 2, 2]}}]},
              "scores": {"macro-acc": "1.00"}}
    assert verify.witness_problem(
        matrix, {"matrix": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]}) is None


def _outcome(request_id, payload):
    response = json.dumps(payload)
    status = loop.INCONSISTENT if payload["inconsistency"] else loop.CONSISTENT
    return loop.Outcome(request_id, status, 0.0, 0.001, response)


def test_verify_flags_wrong_verdicts():
    text = json.dumps(TEXTBOOK)
    truthful = workloads.Request("a", text, "test", True)
    summary = verify.verify(
        [truthful, truthful],
        [_outcome("a", {"inconsistency": False, "witness": {"tp": 80, "tn": 850}}),
         _outcome("a", {"inconsistency": True, "witness": None})])
    reasons = [problem for _, problem in summary["problems"]]
    assert len(reasons) == 2
    assert "true-by-construction" in reasons[1]


def test_verify_cross_checks_inconsistent_verdicts_with_the_oracle():
    small = {"spec": {"datasets": [{"testset": {"p": 5, "n": 5}}]},
             "scores": {"acc": "0.60"}}
    request = workloads.Request("b", json.dumps(small), "test", False)
    summary = verify.verify(
        [request], [_outcome("b", {"inconsistency": True, "witness": None})])
    assert summary["oracle_covered"] == 1
    assert "oracle finds a witness" in summary["problems"][0][1]


def test_rescale_divides_by_the_local_slowdown():
    gauge = speed.Gauge()
    # 40 probes at reference speed, then 40 at half of it
    gauge.starts = [0.1 * i for i in range(80)]
    gauge.times = [speed.REFERENCE_S * (1 if i < 40 else 2) for i in range(80)]
    early = loop.Outcome("a", loop.CONSISTENT, 1.05, 0.010)
    late = loop.Outcome("b", loop.INCONSISTENT, 7.05, 0.010)
    missed = loop.Outcome("c", loop.TIMED_OUT, 7.05, 7.0)
    loop.rescale([early, late, missed], gauge)
    assert early.latency_s == pytest.approx(0.010)
    assert late.latency_s == pytest.approx(0.005)
    assert missed.latency_s == loop.DEADLINE_S


def test_self_time_on_a_synthetic_span_tree():
    #   1 a.root [0, 10]
    #   +- 2 b.left [1, 4]
    #   +- 3 a.right [5, 9]
    #   |  +- 4 c.leaf [6, 7]
    #   +- rolled up: 5 calls of d.hot, 0.5 s in total
    spans = [(1, None, "a.root", 0.0, 10.0, "r"),
             (2, 1, "b.left", 1.0, 4.0, "r"),
             (3, 1, "a.right", 5.0, 9.0, "r"),
             (4, 3, "c.leaf", 6.0, 7.0, "r")]
    rollups = {(1, "d.hot"): [5, 0.5]}
    own = tracing.self_times(spans, rollups)
    assert own == {1: pytest.approx(2.5), 2: pytest.approx(3.0),
                   3: pytest.approx(3.0), 4: pytest.approx(1.0)}
    layers = tracing.layer_self_ms(spans, rollups)
    assert layers == {"a": pytest.approx(5500.0), "b": pytest.approx(3000.0),
                      "c": pytest.approx(1000.0)}


def test_tracer_counts_calls_where_callers_look_them_up():
    from scoresleuth import aggregate, feasibility
    original = aggregate.solve
    payload = json.dumps({
        "spec": {"datasets": [{"testset": {"p": 3, "n": 3},
                               "folding": {"kind": "unknown_folds_kfold", "k": 2}}],
                 "fold_aggregation": "mean_of_scores"},
        "scores": {"acc": "0.50"}})
    with tracing.Tracer() as tracer:
        tracer.begin("t")
        loop.handle(payload)
    assert aggregate.solve is original and feasibility.solve is original
    assert tracer.calls["request"] == 1
    assert tracer.calls["aggregate.check_experiment"] == 1
    assert tracer.calls["feasibility.solve"] >= 1
    assert tracer.counts["folds.configurations"] >= 1
    assert tracer.calls["binary.check_single_testset"] == 0
    names = {name for _, _, name, _, _, _ in tracer.spans}
    assert {"request", "model.parse", "model.emit"} <= names
    own = tracing.self_times(tracer.spans, tracer.rollups)
    assert all(value >= -1e-9 for value in own.values())
