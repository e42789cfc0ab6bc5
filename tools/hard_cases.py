"""Time a workload's hard cases, repeated, and flag those near the deadline.

    python3 tools/hard_cases.py --workload multiclass --repeats 3
    python3 tools/hard_cases.py --workload multiclass --root OLD_CHECKOUT
    python3 tools/hard_cases.py --workload multiclass --cases cases.json

The library (`src/`) and the benchmark's `loop.py` and `speed.py`
(`perfbench/`) are imported from the checkout under --root. The cases are
that checkout's `perfbench/hard_cases.json` list for the workload, or the
JSON list in --cases (entries of the same form: "spec" and "scores").
After the benchmark's warm-up, each repeat sends every case through
`loop.check_once`, the benchmark's request path, under an alarm of
ALARM_S seconds at reference speed. Measured times are divided by the
machine's slowdown around them (`speed.Gauge`), as `run.py` does, so the
printed seconds are at reference speed.

Per case it prints the status and the seconds of each repeat. A case is
flagged when its statuses differ between repeats, or when a time falls in
STRADDLE_S around the benchmark's 2 s deadline: such a case is decided in
one run of the benchmark and missed in another. The exit code is 1 when a
case is flagged and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: Alarm per check, in seconds at reference speed.
ALARM_S = 5.0
#: A time in this window, in seconds at reference speed, is flagged.
STRADDLE_S = (1.5, 3.0)
#: Speed probes taken before each check and after the last.
PROBES = 5


def straddles(statuses, seconds) -> bool:
    """Whether a case's repeats disagree on the status, or one of them
    falls in STRADDLE_S."""
    lo, hi = STRADDLE_S
    return len(set(statuses)) > 1 or any(lo <= s <= hi for s in seconds)


def run_cases(cases, repeats: int, loop, speed) -> list[tuple[list, list]]:
    """(statuses, seconds at reference speed) per case over `repeats`
    rounds, each round sending every case once in order."""
    gauge = speed.Gauge()
    texts = [json.dumps({"spec": c["spec"], "scores": c["scores"]},
                        sort_keys=True) for c in cases]
    runs = [[] for _ in cases]
    for _ in range(repeats):
        for i, text in enumerate(texts):
            for _ in range(PROBES):
                gauge.sample()
            runs[i].append(loop.check_once(f"case {i}", text,
                                           ALARM_S * gauge.current()))
    for _ in range(PROBES):
        gauge.sample()
    return [([o.status for o in outcomes],
             [o.wall_s / gauge.around(o.start) for o in outcomes])
            for outcomes in runs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--root", default=".", help="checkout to import")
    parser.add_argument("--cases", help="JSON list of cases to run instead "
                                        "of the workload's hard cases")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import loop
    import speed

    path = args.cases or os.path.join(root, "perfbench", "hard_cases.json")
    with open(path, encoding="utf-8") as fh:
        cases = json.load(fh)
    if not args.cases:
        cases = cases[args.workload]
    loop.install_alarm()
    loop.warm_up()
    flagged = 0
    print(f"{args.workload}: {len(cases)} cases, {args.repeats} repeats, "
          f"alarm {ALARM_S} s; seconds at reference speed")
    for i, (statuses, seconds) in enumerate(run_cases(cases, args.repeats,
                                                      loop, speed)):
        flag = straddles(statuses, seconds)
        flagged += flag
        runs = " | ".join(f"{s} {t:.3f}" for s, t in zip(statuses, seconds))
        print(f"case {i:2d}: {runs}{'  FLAGGED' if flag else ''}")
    print(f"{flagged} cases flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
