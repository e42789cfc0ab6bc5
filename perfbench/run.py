"""Verdict benchmark for scoresleuth.

    python3 perfbench/run.py --workload single_audit --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/` directory. Each workload is a closed loop with one client in one
process: the seeded request list (see workloads.py) is sent request by
request, each through the path of `scoresleuth check --infer-eps`, under a
per-check deadline of loop.DEADLINE_S. Whole passes over the list repeat
until --seconds have elapsed; the first pass's verdicts are verified after
the loop (verify.py) and every later pass must repeat them byte for byte.

Times are reported at the reference speed of speed.py: the loop probes the
machine between checks and divides each measured time by the slowdown
around it, so that swings of the host's speed do not show as changes of
the program. The measured times and the slowdown are printed as well.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced pass,
then a traced pass over the checks that met the deadline, and prints the
per-layer metrics (tracing.py). Spans are written to .perfbench/ in the
checkout. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 when every
verdict verified, 1 when one did not, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh processes started to measure set-up time; the median is reported.
SETUP_REPEATS = 9
#: Speed probes taken around each of them.
SETUP_PROBES = 5
#: Safety deadline of the traced pass, which only replays checks that met
#: the real deadline untraced.
TRACE_DEADLINE_S = 20.0


def _locate_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "scoresleuth", "__init__.py")):
        print(f"run.py: no scoresleuth sources under {SRC}; run the "
              f"benchmark from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    sample at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def measure_setup(gauge) -> tuple[float, float]:
    """Median set-up time over SETUP_REPEATS fresh processes, as measured
    and at reference speed."""
    probe = os.path.join(HERE, "setup_probe.py")
    measured = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            gauge.sample()
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-s", probe, SRC],
                              capture_output=True, text=True, timeout=60,
                              check=True, cwd=ROOT)
        measured.append((start, float(done.stdout.strip().splitlines()[-1])))
    for _ in range(SETUP_PROBES):
        gauge.sample()
    rescaled = [t / gauge.around(start) for start, t in measured]
    return (statistics.median(t for _, t in measured),
            statistics.median(rescaled))


def timed_loop(loop, requests, gauge, seconds: float):
    """Whole passes until `seconds` have elapsed (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(loop.run_pass(requests, gauge))
        if time.perf_counter() - start >= seconds:
            break
    for outcomes in passes:
        loop.rescale(outcomes, gauge)
    return passes


def end_to_end(outcomes, setup_s: float) -> dict:
    """Times at reference speed; checks_per_s is verdicts delivered over the
    summed time of every check, failed ones at the deadline."""
    latencies = [o.latency_s * 1e3 for o in outcomes]
    by_status = {}
    for o in outcomes:
        by_status.setdefault(o.status, []).append(o.latency_s * 1e3)
    failed = sum(o.failed for o in outcomes)
    busy_s = sum(o.latency_s for o in outcomes)
    return {
        "setup_s": (setup_s, "s"),
        "checks_per_s": ((len(outcomes) - failed) / busy_s, "1/s"),
        "latency_p50_ms": (percentile(latencies, 0.5), "ms"),
        "latency_p95_ms": (percentile(latencies, 0.95), "ms"),
        "consistent_p50_ms": (percentile(by_status.get("consistent", [0.0]), 0.5), "ms"),
        "inconsistent_p50_ms": (percentile(by_status.get("inconsistent", [0.0]), 0.5), "ms"),
        "failed_ratio": (failed / len(outcomes), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_pass(loop, speed, tracing, requests, first, gauge, out_path: str):
    """Replay the checks that met the deadline with every layer traced."""
    kept = [(r, o) for r, o in zip(requests, first) if not o.failed]
    tracer = tracing.Tracer()
    traced = []
    first_probe = len(gauge.times)
    with tracer:
        for req, _ in kept:
            gauge.tick()
            tracer.begin(req.id)
            traced.append(loop.check_once(req.id, req.text, TRACE_DEADLINE_S))
    gauge.sample()
    loop.rescale(traced, gauge)
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    tracer.write(out_path)
    mismatched = [r.id for (r, o), t in zip(kept, traced)
                  if t.response != o.response]
    # layer times are sums over the pass, rescaled by its median slowdown
    slowdown = statistics.median(gauge.times[first_probe:]) / speed.REFERENCE_S
    metrics = {name: (value / slowdown if unit == "ms" else value, unit)
               for name, (value, unit) in tracing.layer_metrics(tracer).items()}
    untraced_s = sum(o.latency_s for _, o in kept)
    metrics["trace.overhead_ratio"] = (
        sum(t.latency_s for t in traced) / untraced_s, "1")
    return metrics, mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="scoresleuth verdict benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    _locate_program()
    import loop
    import speed
    import tracing
    import verify
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    phases = {}
    clock = time.perf_counter()
    requests = workloads.build(args.workload, args.seed)
    phases["generate"] = time.perf_counter() - clock
    gauge = speed.Gauge()
    clock = time.perf_counter()
    if args.trace == 0:
        setup_measured, setup_s = measure_setup(gauge)
    phases["setup"] = time.perf_counter() - clock
    clock = time.perf_counter()
    loop.install_alarm()
    loop.warm_up()
    # keep the objects of import and warm-up out of the collector's scans
    gc.collect()
    gc.freeze()

    problems = []
    if args.trace == 0:
        passes = timed_loop(loop, requests, gauge, args.seconds)
        outcomes = [o for p in passes for o in p]
        metrics = end_to_end(outcomes, setup_s)
        first = passes[0]
        for later in passes[1:]:
            problems += [(a.id, "verdict differs from the first pass")
                         for a, b in zip(first, later) if a.response != b.response]
    else:
        first = loop.run_pass(requests, gauge)
        loop.rescale(first, gauge)
        outcomes = first
        out_path = os.path.join(ROOT, ".perfbench",
                                f"trace-{args.workload}-{args.seed}.jsonl")
        metrics, mismatched = traced_pass(loop, speed, tracing, requests,
                                          first, gauge, out_path)
        problems += [(i, "traced verdict differs from the untraced one")
                     for i in mismatched]

    phases["loop"] = time.perf_counter() - clock
    clock = time.perf_counter()
    summary = verify.verify(requests, first)
    problems += summary["problems"]
    phases["verify"] = time.perf_counter() - clock
    failed = sum(o.failed for o in outcomes)

    print(f"workload {args.workload} seed {args.seed}: {len(requests)} requests "
          f"per pass, {len(outcomes)} checks, deadline {loop.DEADLINE_S} s")
    slowdowns = [t / speed.REFERENCE_S for t in gauge.times]
    print(f"machine slowdown over {len(slowdowns)} probes: median "
          f"{statistics.median(slowdowns):.3f}, range {min(slowdowns):.3f}-"
          f"{max(slowdowns):.3f}; times below are at reference speed")
    if args.trace == 0:
        print(f"  setup_s as measured {setup_measured:.4f} s, checks "
              f"{sum(o.wall_s for o in outcomes):.2f} s as measured")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.4f} {unit}")
    for status in (loop.TIMED_OUT, loop.REFUSED):
        ids = sorted({o.id for o in outcomes if o.status == status})
        print(f"failed ids, {status} ({len(ids)}): {' '.join(ids)}")
    covered = summary["oracle_covered"]
    print(f"verification: {len(problems)} problems; oracle cross-checked "
          f"{covered} of {summary['inconsistent']} inconsistent verdicts")
    for request_id, problem in problems:
        print(f"  WRONG {request_id}: {problem}")
    print("phases (s): " + " ".join(f"{k} {v:.1f}" for k, v in phases.items()))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
