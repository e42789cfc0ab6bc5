"""Command-line front end.

Three subcommands: `check` runs an experiment spec file against a scores
file, `bundle` does the same against a packaged dataset bundle, and
`list` prints the registered scores, bundles or decision procedures as
JSON lines.

Exit codes are part of the interface:

  0  verdict: consistent
  1  verdict: inconsistency identified (a certain finding)
  2  usage error, malformed/unsupported input, or a file that cannot be
     read or written
  3  resource refusal (an enumeration cap was exceeded) — deliberately
     distinct from the verdicts so a pipeline never mistakes
     "couldn't decide" for "consistent"

The verdict JSON follows data/schemas/consistency_result.schema.json and
is byte-identical across identical invocations; --timestamp adds the one
intentionally non-reproducible field and is off by default.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from typing import Optional

from . import aggregate, binary, multiclass, regression
from .aggregate import check_experiment
from .bundles import check_bundle, list_bundles, load_bundle
from .errors import ParseError, ResourceLimit, ScoreSleuthError
from .model import (
    Uncertainty,
    as_fraction,
    experiment_from_payload,
    experiment_to_payload,
    infer_uncertainty,
    report_from_payload,
)
from .scores import default_registry

EXIT_CONSISTENT = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoresleuth",
        description="Exact consistency testing of reported ML performance "
                    "scores: a flagged report is provably wrong for the "
                    "described experiment.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scores", required=True, metavar="FILE",
                       help="JSON file mapping score ids to reported values; "
                            "keep values as decimal strings so --infer-eps "
                            "can count digits")
        eps = p.add_mutually_exclusive_group(required=True)
        eps.add_argument("--eps", metavar="RATIONAL",
                         help="uncertainty radius for every score, e.g. 1e-4 "
                              "or 1/10000")
        eps.add_argument("--infer-eps", action="store_true",
                         help="derive each score's radius from its decimal "
                              "digit count (requires string values)")
        p.add_argument("--out", metavar="FILE",
                       help="write the verdict JSON here instead of stdout")
        p.add_argument("--timestamp", action="store_true",
                       help="include an invocation timestamp in the verdict")

    check = sub.add_parser(
        "check", help="test a report against an experiment spec file")
    check.add_argument("--spec", required=True, metavar="FILE",
                       help="JSON experiment spec: datasets, folding, "
                            "aggregation modes")
    add_common(check)

    bundle = sub.add_parser(
        "bundle", help="test a report against a packaged dataset bundle")
    bundle.add_argument("--name", required=True, metavar="ID",
                        help="bundle id, e.g. isic2016 (see: list --bundles)")
    add_common(bundle)

    lst = sub.add_parser(
        "list", help="print registered scores, bundles or procedures as "
                     "JSON lines")
    what = lst.add_mutually_exclusive_group(required=True)
    what.add_argument("--scores", action="store_true",
                      help="the default score definitions")
    what.add_argument("--bundles", action="store_true",
                      help="the populated dataset bundles")
    what.add_argument("--procedures", action="store_true",
                      help="the decision procedures verdicts may name")
    return parser


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ScoreSleuthError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # also text that is not UTF-8, integers past the int/str conversion
        # limit, and arrays or objects nested past the recursion limit
        raise ParseError(f"cannot parse {path} as JSON: {exc}") from None


def _uncertainty(args, report) -> Uncertainty:
    if args.infer_eps:
        return infer_uncertainty(report)
    eps = as_fraction(args.eps)
    if eps < 0:
        raise ScoreSleuthError(f"--eps must be nonnegative, got {args.eps}")
    return Uncertainty(eps)


def _emit(result, args) -> int:
    payload = result.to_dict()
    if args.timestamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ScoreSleuthError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)
    return EXIT_INCONSISTENT if result.inconsistency else EXIT_CONSISTENT


def cmd_check(args) -> int:
    spec = experiment_from_payload(_load_json(args.spec))
    report = report_from_payload(_load_json(args.scores))
    result = check_experiment(spec, report, _uncertainty(args, report))
    return _emit(result, args)


def cmd_bundle(args) -> int:
    report = report_from_payload(_load_json(args.scores))
    result = check_bundle(args.name, report, _uncertainty(args, report))
    return _emit(result, args)


def cmd_list(args) -> int:
    lines = []
    if args.scores:
        registry = default_registry()
        for sid in registry.ids(default_only=True):
            lines.append(registry.get(sid).to_payload())
    elif args.bundles:
        for bid in list_bundles():
            b = load_bundle(bid)
            lines.append({"id": b.id, "citation": b.citation,
                          "notes": b.notes,
                          "spec": experiment_to_payload(b.spec)})
    else:
        procedures = {}
        for module in (binary, aggregate, multiclass, regression):
            procedures.update(module.PROCEDURES)
        for pid in sorted(procedures):
            lines.append({"id": pid, "description": procedures[pid]})
    for entry in lines:
        sys.stdout.write(json.dumps(entry) + "\n")
    return EXIT_CONSISTENT


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code
        return int(exc.code or 0)
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "bundle":
            return cmd_bundle(args)
        return cmd_list(args)
    except ResourceLimit as exc:
        print(f"scoresleuth: refused: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ScoreSleuthError as exc:
        print(f"scoresleuth: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
