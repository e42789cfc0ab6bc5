"""Per-layer tracing from the benchmark's own files.

The tracer wraps each layer's public functions where their callers look
them up (`aggregate` binds `solve`, `propagate`, `check_single_testset` and
the fold enumerators at import, `multiclass` binds `solve` and
`iter_fold_configurations`), so patching `scoresleuth.feasibility.solve`
alone would record nothing.

Every wrapped call is one span: name, start, end, parent and the id of the
request it serves. Spans stay in memory and are written out at the end.
The innermost functions (score evaluation and inversion, the square-root
arithmetic, each step of a fold enumeration) run millions of times per
pass, so their spans are rolled up: one record per (parent span, name)
with a call count and a summed duration. That keeps memory flat and still
lets `self_times` derive each span's self time as its duration minus the
time its children cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from scoresleuth import aggregate, binary, feasibility, folds, multiclass, scores
from scoresleuth.values import SqrtRational

import loop

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []     # (id, parent, name, start, end, request)
        self.rollups: dict = {}          # (parent id, name) -> [calls, seconds]
        self.calls: dict = defaultdict(int)
        self.seconds: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.request = None
        self._stack: list = []           # frames: [id, hot, child seconds]
        self._next_id = 0
        self._patches: list = []

    def begin(self, request_id: str) -> None:
        """Start a request; a frame left open by an interrupted call of the
        previous request is discarded."""
        self.request = request_id
        self._stack.clear()

    def call(self, fn, name: str, hot: bool, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        self._next_id += 1
        frame = [self._next_id, hot, 0.0]
        stack.append(frame)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            if stack and stack[-1] is frame:
                stack.pop()
            elapsed = end - start
            self.calls[name] += 1
            self.seconds[name] += elapsed
            if parent is not None:
                parent[2] += elapsed
            if not hot:
                self.spans.append((frame[0], parent and parent[0], name,
                                   start, end, self.request))
            elif parent is not None and not parent[1]:
                entry = self.rollups.setdefault((parent[0], name), [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed

    # -- wrappers --------------------------------------------------------

    def wrap(self, fn, name: str, hot: bool = False, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(fn, name, hot, args, kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def wrap_generator(self, fn, name: str, counter: str):
        """Each next() on the returned generator is a rolled-up span;
        `counter` counts the items it yields."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = tracer.call(next, name, True, (inner,), {})
                except StopIteration:
                    return
                tracer.counts[counter] += 1
                yield item
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap every traced function at the names callers use."""
        def count_feasible(result):
            if result is not None:
                self.counts["feasibility.solve.feasible"] += 1

        request = self.wrap(loop.handle, "request")
        parse = self.wrap(loop.parse, "model.parse")
        emit = self.wrap(loop.emit, "model.emit")
        check = self.wrap(aggregate.check_experiment, "aggregate.check_experiment")
        single = self.wrap(binary.check_single_testset, "binary.check_single_testset")
        mc = self.wrap(multiclass.check_multiclass_dataset,
                       "multiclass.check_multiclass_dataset")
        solve = self.wrap(feasibility.solve, "feasibility.solve",
                          on_result=count_feasible)
        propagate = self.wrap(feasibility.propagate, "feasibility.propagate")
        enumerate_ = self.wrap(folds.enumerate_fold_configurations,
                               "folds.enumerate_fold_configurations")
        iter_ = self.wrap_generator(folds.iter_fold_configurations, "folds.next",
                                    "folds.configurations")
        for owner, attr, fn in [
                (loop, "handle", request), (loop, "parse", parse),
                (loop, "emit", emit),
                (aggregate, "check_experiment", check),
                (aggregate, "check_single_testset", single),
                (binary, "check_single_testset", single),
                (multiclass, "check_multiclass_dataset", mc),
                (aggregate, "solve", solve), (multiclass, "solve", solve),
                (feasibility, "solve", solve),
                (aggregate, "propagate", propagate),
                (feasibility, "propagate", propagate),
                (aggregate, "enumerate_fold_configurations", enumerate_),
                (folds, "enumerate_fold_configurations", enumerate_),
                (aggregate, "iter_fold_configurations", iter_),
                (multiclass, "iter_fold_configurations", iter_),
                (folds, "iter_fold_configurations", iter_)]:
            self.patch(owner, attr, fn)
        definition = scores.ScoreDefinition
        self.patch(definition, "value",
                   self.wrap(definition.value, "scores.value", hot=True))
        self.patch(definition, "invert",
                   self.wrap(definition.invert, "scores.invert", hot=True))
        self.patch(scores, "sqrt_fraction",
                   self.wrap(scores.sqrt_fraction, "values.sqrt_fraction", hot=True))
        self.patch(scores, "times_sqrt",
                   self.wrap(scores.times_sqrt, "values.times_sqrt", hot=True))
        self.patch(SqrtRational, "_cmp",
                   self.wrap(SqrtRational._cmp, "values.cmp", hot=True))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ----------------------------------------------------------

    def write(self, path: str) -> None:
        """All spans and rolled-up spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, request in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "request": request}) + "\n")
            for (parent, name), (calls, seconds) in self.rollups.items():
                fh.write(json.dumps({"parent": parent, "name": name,
                                     "calls": calls, "seconds": seconds}) + "\n")


def self_times(spans, rollups) -> dict:
    """Self time of each span: its duration minus the durations of its
    direct children, full spans and rolled-up ones alike."""
    covered: dict = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    for (parent, _), (_, seconds) in rollups.items():
        covered[parent] += seconds
    return {sid: (end - start) - covered[sid]
            for sid, _, _, start, end, _ in spans}


def layer_self_ms(spans, rollups) -> dict:
    """Summed self time per layer (the span name up to its first dot), ms."""
    own = self_times(spans, rollups)
    out: dict = defaultdict(float)
    for sid, _, name, _, _, _ in spans:
        out[name.split(".", 1)[0]] += own[sid] * 1e3
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics the benchmark reports, from one traced pass."""
    calls, ms = tracer.calls, {k: v * 1e3 for k, v in tracer.seconds.items()}
    selfs = layer_self_ms(tracer.spans, tracer.rollups)
    solves = calls["feasibility.solve"]
    out = {
        "model.parse_ms": (ms.get("model.parse", 0.0), "ms"),
        "model.emit_ms": (ms.get("model.emit", 0.0), "ms"),
        "aggregate.check_experiment.calls": (calls["aggregate.check_experiment"], "count"),
        "aggregate.self_ms": (selfs.get("aggregate", 0.0), "ms"),
        "binary.check_single_testset.calls": (calls["binary.check_single_testset"], "count"),
        "binary.check_single_testset.ms": (ms.get("binary.check_single_testset", 0.0), "ms"),
        "binary.self_ms": (selfs.get("binary", 0.0), "ms"),
        "scores.value.calls": (calls["scores.value"], "count"),
        "scores.value.ms": (ms.get("scores.value", 0.0), "ms"),
        "scores.invert.calls": (calls["scores.invert"], "count"),
        "scores.invert.ms": (ms.get("scores.invert", 0.0), "ms"),
        "values.sqrt.ms": (sum(ms.get(k, 0.0) for k in (
            "values.sqrt_fraction", "values.times_sqrt", "values.cmp")), "ms"),
        "feasibility.solve.calls": (solves, "count"),
        "feasibility.solve.ms": (ms.get("feasibility.solve", 0.0), "ms"),
        "feasibility.solve.feasible_ratio": (
            tracer.counts["feasibility.solve.feasible"] / solves if solves else 0.0, "1"),
        "feasibility.propagate.calls": (calls["feasibility.propagate"], "count"),
        "feasibility.propagate.ms": (ms.get("feasibility.propagate", 0.0), "ms"),
        "folds.configurations": (tracer.counts["folds.configurations"], "count"),
        "folds.enum_ms": (ms.get("folds.next", 0.0), "ms"),
        "multiclass.check_multiclass_dataset.calls": (
            calls["multiclass.check_multiclass_dataset"], "count"),
        "multiclass.check_multiclass_dataset.ms": (
            ms.get("multiclass.check_multiclass_dataset", 0.0), "ms"),
        "multiclass.self_ms": (selfs.get("multiclass", 0.0), "ms"),
    }
    return out
