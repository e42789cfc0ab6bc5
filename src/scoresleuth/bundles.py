"""Predefined experiment specs for named public datasets.

A bundle pairs a dataset id with the experiment spec describing its
published evaluation protocol, so a report can be tested without spelling
out the counts by hand. Bundles are data files under data/bundles/, not
code: contributing one means dropping a JSON file and adding an index
entry. data/bundles/index.json lists populated bundles plus documented
placeholders whose counts have not been transcribed yet.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .aggregate import check_experiment
from .errors import ParseError, UnknownBundle
from .model import (
    ConsistencyResult,
    ExperimentSpec,
    ScoreReport,
    Uncertainty,
    experiment_from_payload,
)
from .scores import ScoreRegistry


@dataclass(frozen=True)
class Bundle:
    """A registered experiment spec with its citation and notes."""

    id: str
    spec: ExperimentSpec
    citation: str
    notes: str


def _data(name: str) -> str:
    return resources.files("scoresleuth").joinpath(
        f"data/bundles/{name}").read_text("utf-8")


@functools.cache
def _index() -> dict:
    return json.loads(_data("index.json"))


def list_bundles() -> list[str]:
    """Ids of the populated bundles, sorted."""
    return sorted(e["id"] for e in _index()["bundles"]
                  if e["status"] == "populated")


@functools.cache
def load_bundle(bundle_id: str) -> Bundle:
    """Load a bundle by id (cached); its spec is validated on load.

    Raises UnknownBundle (listing the populated ids) for ids that do not
    exist or whose counts are documented placeholders only.
    """
    entries = {e["id"]: e for e in _index()["bundles"]}
    entry = entries.get(bundle_id)
    if entry is None or entry["status"] != "populated":
        known = ", ".join(list_bundles())
        detail = (f"bundle {bundle_id!r} is a documented placeholder without "
                  f"transcribed counts" if entry is not None
                  else f"no bundle named {bundle_id!r}")
        raise UnknownBundle(f"{detail}; populated bundles: {known}")
    payload = json.loads(_data(entry["file"]))
    for field in ("id", "citation", "notes", "spec"):
        if field not in payload:
            raise ParseError(
                f"bundle file {entry['file']} is missing {field!r}")
    return Bundle(
        id=payload["id"],
        spec=experiment_from_payload(payload["spec"]),
        citation=payload["citation"],
        notes=payload["notes"],
    )


def check_bundle(bundle_id: str, scores: ScoreReport,
                 uncertainty: Uncertainty,
                 registry: Optional[ScoreRegistry] = None,
                 cap: Optional[int] = None) -> ConsistencyResult:
    """check_experiment against the named bundle's spec."""
    bundle = load_bundle(bundle_id)
    return check_experiment(bundle.spec, scores, uncertainty,
                            registry=registry, cap=cap)
