"""Compare the verdicts of two checkouts on the benchmark's request lists.

    python3 tools/verdict_diff.py dump --root OLD_CHECKOUT --out old.json
    python3 tools/verdict_diff.py dump --root NEW_CHECKOUT --out new.json
    python3 tools/verdict_diff.py compare old.json new.json

`dump` imports the library (`src/`) and the benchmark's `workloads.py` and
`loop.py` (`perfbench/`) of the checkout under --root, builds the request
lists of every workload for the seeds in SEEDS (1-3), and sends each
request that is not a hard case through `loop.check_once`, the
benchmark's own request path. The
dump maps a SHA-256 of each request's text to its workload, stratum,
status, parsed response and a SHA-256 of the raw response text. Keyed by
request text, the dumps of two checkouts pair up request by request
whatever the order of the lists (requests with the same text share one
entry).

`compare` counts, by workload, stratum and top-level response field, the
requests whose responses differ, out of the requests of that stratum
paired in both dumps. The pseudo-field `bytes` counts the responses
whose raw text differs, which also catches a change of key order that
leaves every parsed field equal. It lists each flip between the
consistent and the inconsistent verdict. It exits 1 when there is a flip
and 0 otherwise: a changed witness or evidence is printed, not failed, as
a new search order may find another witness. A request that is decided
in one dump and refused or out of time in the other is printed too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import Counter

SEEDS = (1, 2, 3)
#: Deadline per request in seconds. The non-hard requests take
#: milliseconds; the deadline only stops a hang.
DEADLINE_S = 60.0


def request_key(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def response_digest(text: str | None) -> str | None:
    if text is None:
        return None
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dump(root: str) -> dict:
    """Every non-hard request's outcome under the checkout `root`."""
    root = os.path.abspath(root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import loop
    import workloads

    loop.install_alarm()
    out = {}
    for workload in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            for request in workloads.build(workload, seed):
                if request.stratum == "hard":
                    continue
                outcome = loop.check_once(request.id, request.text, DEADLINE_S)
                out[request_key(request.text)] = {
                    "workload": workload, "stratum": request.stratum,
                    "id": request.id, "status": outcome.status,
                    "response": outcome.response and json.loads(outcome.response),
                    "sha256": response_digest(outcome.response),
                }
    return out


def compare(old: dict, new: dict) -> tuple[list, list, Counter]:
    """(flips, status changes, changed fields): the requests of both dumps
    whose verdict flipped, those decided in one dump only, and a count of
    the differing response fields per (workload, stratum, field), with
    the field "bytes" for differing raw response texts (compared only
    where both dumps hold their digests)."""
    flips, statuses, fields = [], [], Counter()
    decided = ("consistent", "inconsistent")
    for key in sorted(old.keys() & new.keys(), key=lambda k: old[k]["id"]):
        a, b = old[key], new[key]
        if a["status"] != b["status"]:
            both = a["status"] in decided and b["status"] in decided
            (flips if both else statuses).append((a, b))
            continue
        if None not in (a.get("sha256"), b.get("sha256")) \
                and a["sha256"] != b["sha256"]:
            fields[a["workload"], a["stratum"], "bytes"] += 1
        ra, rb = a["response"] or {}, b["response"] or {}
        for field in sorted(ra.keys() | rb.keys()):
            if ra.get(field) != rb.get(field):
                fields[a["workload"], a["stratum"], field] += 1
    return flips, statuses, fields


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="dump the responses of one checkout")
    d.add_argument("--root", default=".", help="checkout to import")
    d.add_argument("--out", required=True, help="JSON file to write")
    c = sub.add_parser("compare", help="compare two dumps")
    c.add_argument("old")
    c.add_argument("new")
    args = parser.parse_args(argv)

    if args.command == "dump":
        records = dump(args.root)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(records, fh, sort_keys=True)
        print(f"{len(records)} responses written to {args.out}")
        return 0

    with open(args.old, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    flips, statuses, fields = compare(old, new)
    paired = old.keys() & new.keys()
    per_stratum = Counter((old[key]["workload"], old[key]["stratum"])
                          for key in paired)
    print(f"{len(paired)} requests paired; {len(old) - len(paired)} only in "
          f"{args.old}, {len(new) - len(paired)} only in {args.new}")
    for (workload, stratum, field), count in sorted(fields.items()):
        print(f"changed {field}: {workload}/{stratum}: {count} of "
              f"{per_stratum[workload, stratum]}")
    for a, b in statuses:
        print(f"status {a['status']} -> {b['status']}: {a['id']} -> {b['id']}")
    for a, b in flips:
        print(f"FLIP {a['status']} -> {b['status']}: {a['id']} -> {b['id']}")
    print(f"{len(flips)} verdict flips")
    return 1 if flips else 0


if __name__ == "__main__":
    sys.exit(main())
