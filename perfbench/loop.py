"""The request path and the closed loop that times it.

`handle` is the path of `scoresleuth check --infer-eps`: JSON text in,
verdict JSON text out. The three stages are module-level functions so the
tracer can wrap them under the `model` layer's names.

Each check runs under one per-check deadline, enforced in the main thread
by SIGALRM (`signal.setitimer`, the sub-second form of `signal.alarm`).
The solver paths are pure Python, so the alarm interrupts them between
bytecodes; their only global state is lazy caches, which `warm_up` fills
before anything is timed.

Times are kept at the reference speed of `speed.py`: the loop probes the
machine between checks, the deadline is DEADLINE_S at reference speed, and
`rescale` turns each check's measured time into its time at that speed.
"""

from __future__ import annotations

import json
import signal
import time
from dataclasses import dataclass
from typing import Optional

from scoresleuth import aggregate, model
from scoresleuth.errors import NonlinearScoreUnsupported, ResourceLimit
from scoresleuth.scores import default_registry

import speed

#: Per-check deadline in seconds at reference speed.
DEADLINE_S = 2.0

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
TIMED_OUT = "deadline"
REFUSED = "refused"


def parse(text: str):
    payload = json.loads(text)
    spec = model.experiment_from_payload(payload["spec"])
    report = model.report_from_payload(payload["scores"])
    return spec, report, model.infer_uncertainty(report)


def emit(result) -> str:
    return json.dumps(result.to_dict(), indent=2)


def handle(text: str) -> str:
    spec, report, uncertainty = parse(text)
    return emit(aggregate.check_experiment(spec, report, uncertainty))


class DeadlineExceeded(BaseException):
    """Raised by the alarm; a BaseException so no handler in the program
    can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Outcome:
    id: str
    status: str
    start: float
    #: measured seconds; `latency_s` is the time at reference speed, which
    #: `rescale` sets
    wall_s: float
    response: Optional[str] = None
    latency_s: float = 0.0

    @property
    def failed(self) -> bool:
        return self.status in (TIMED_OUT, REFUSED)


def check_once(request_id: str, text: str, deadline: float) -> Outcome:
    """Run one request under a deadline of `deadline` measured seconds."""
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        response = handle(text)
    except DeadlineExceeded:
        return Outcome(request_id, TIMED_OUT, start, time.perf_counter() - start)
    except (ResourceLimit, NonlinearScoreUnsupported):
        return Outcome(request_id, REFUSED, start, time.perf_counter() - start)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    if wall > deadline:  # finished between the alarm and its delivery
        return Outcome(request_id, TIMED_OUT, start, wall)
    verdict = json.loads(response)["inconsistency"]
    return Outcome(request_id, INCONSISTENT if verdict else CONSISTENT,
                   start, wall, response)


def install_alarm() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


def run_pass(requests, gauge: speed.Gauge) -> list[Outcome]:
    """One closed-loop pass: each request is sent when the previous one has
    completed. The deadline is DEADLINE_S at the current machine speed."""
    outcomes = []
    for r in requests:
        gauge.tick()
        outcomes.append(check_once(r.id, r.text, DEADLINE_S * gauge.current()))
    gauge.sample()
    return outcomes


def rescale(outcomes, gauge: speed.Gauge) -> None:
    """Set each outcome's time at reference speed. A miss or a refusal is
    recorded at the deadline, as if the client had given up there."""
    for o in outcomes:
        o.latency_s = DEADLINE_S if o.failed else o.wall_s / gauge.around(o.start)


WARM_UP = [
    {"spec": {"datasets": [{"testset": {"p": 100, "n": 1000}}]},
     "scores": {"acc": "0.8464", "sens": "0.81", "f1": "0.4894"}},
    {"spec": {"datasets": [{"testset": {"p": 40, "n": 60},
                            "folding": {"kind": "stratified_kfold", "k": 5}}],
              "fold_aggregation": "mean_of_scores"},
     "scores": {"acc": "0.61", "sens": "0.55"}},
    {"spec": {"datasets": [{"testset": {"class_counts": [5, 6, 7]}}]},
     "scores": {"macro-acc": "0.8", "macro-sens": "0.61"}},
    {"spec": {"datasets": [{"testset": {"class_counts": [30, 20, 10]}}]},
     "scores": {"micro-mcc": "0.4", "micro-f1": "0.6"}},
]


def warm_up() -> None:
    """Fill the program's lazy caches (the score registry and its compiled
    formulas) so that the timed loop sees steady-state behaviour."""
    default_registry()
    for payload in WARM_UP:
        handle(json.dumps(payload))
