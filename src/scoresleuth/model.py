"""Shared data model: experiment descriptions, score reports, uncertainty,
and verdicts.

Everything in this module is immutable after construction and safe to share
across threads. The value types are frozen dataclasses that validate in
__post_init__; ScoreReport alone is a hand-written class, because it keeps
each value's decimal text beside it and compares on the values only. The
stratified even-split rule (stratified_split_counts) lives here too, so
validation and the fold layouts apply one rule.

Reported score values are parsed from decimal text into exact rationals; no
binary floating point enters any decision procedure. Floats are accepted
for convenience and interpreted through their shortest round-tripping
decimal representation (`repr`), because a reported score is a decimal
artifact, not a binary one.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .errors import (
    EmptyExperiment,
    ExtraneousAggregationMode,
    FoldTotalsMismatch,
    InvalidFoldCount,
    MissingAggregationMode,
    ParseError,
    SpecError,
)

# ---------------------------------------------------------------------------
# rational parsing
# ---------------------------------------------------------------------------


#: No numeral may need a power of ten of more digits: CPython's default
#: int/str conversion limit, which already refuses longer JSON integers.
MAX_POWER_DIGITS = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def _check_power(text: str, magnitude: Optional[int] = None) -> None:
    """ParseError when numeral `text` needs 10**magnitude (by default, its
    exponent's) and that has more than MAX_POWER_DIGITS digits. Fraction
    builds 10**|exponent| first, so the exponent is read from its text."""
    if magnitude is None:
        match = _EXPONENT.search(text)
        digits = match.group(1).replace("_", "").lstrip("0") if match else ""
        magnitude = int(digits or "0") if len(digits) < 6 else MAX_POWER_DIGITS
    if magnitude >= MAX_POWER_DIGITS:
        raise ParseError(f"{reprlib.repr(text)} needs a power of ten of more "
                         f"than {MAX_POWER_DIGITS} digits")


def as_fraction(value) -> Fraction:
    """Parse a reported number into an exact Fraction.

    Accepts Fraction, int, float (via repr) and strings in decimal
    ("0.8464"), scientific ("1e-4", |exponent| < MAX_POWER_DIGITS) or
    ratio ("1/10000") notation.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"{value!r} is not a number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        value = repr(value)
    if isinstance(value, str):
        _check_power(value)
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"cannot parse {value!r} as a rational: {exc}") from None
    raise ParseError(f"cannot parse {value!r} as a rational")


def infer_radius_from_text(value_text: str) -> Fraction:
    """Uncertainty radius implied by the number of decimal digits shown.

    "0.8464" carries four digits after the point, so the underlying value is
    within 10^-4 of the printed one whether it was rounded or truncated.
    Integer-valued text gets the deliberately conservative radius 1, since
    "1" may be anything that printed as 1 at zero decimals. Scientific
    notation shifts the count by the exponent ("5e-3" -> 10^-3). Both the
    exponent and the count must be below MAX_POWER_DIGITS in magnitude.
    """
    if not isinstance(value_text, str):
        raise ParseError(f"expected decimal text, got {value_text!r}")
    _check_power(value_text)
    text = value_text.strip()
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot parse {value_text!r} as a decimal numeral") from None
    if "/" in text:
        raise ParseError(
            f"{value_text!r} is a ratio, not decimal text; pass an explicit radius")
    mantissa, _, exponent = text.lower().partition("e")
    exp = int(exponent) if exponent else 0
    _, point, frac_digits = mantissa.partition(".")
    k = (len(frac_digits) if point else 0) - exp
    _check_power(value_text, abs(k))
    return Fraction(1, 10 ** k) if k >= 0 else Fraction(10 ** -k)


# ---------------------------------------------------------------------------
# testsets and folding
# ---------------------------------------------------------------------------


def _check_count(label: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SpecError(f"{label} must be an integer, got {v!r}")
    if v < 0:
        raise SpecError(f"{label} must be nonnegative, got {v}")
    return v


@dataclass(frozen=True)
class Testset:
    """A binary testset: p positive and n negative samples."""

    p: int
    n: int

    def __post_init__(self):
        _check_count("p", self.p)
        _check_count("n", self.n)
        if self.p + self.n < 1:
            raise EmptyExperiment("a testset must contain at least one sample")

    @property
    def size(self) -> int:
        return self.p + self.n


@dataclass(frozen=True, slots=True)
class MulticlassTestset:
    """A multiclass testset: ordered per-class sample counts c_1..c_C,
    given as any sequence and stored as a tuple."""

    class_counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(self.class_counts)
        if len(counts) < 2:
            raise SpecError("a multiclass testset needs at least two classes")
        for i, c in enumerate(counts):
            _check_count(f"class_counts[{i}]", c)
        if sum(counts) < 1:
            raise EmptyExperiment("a testset must contain at least one sample")
        object.__setattr__(self, "class_counts", counts)

    @property
    def num_classes(self) -> int:
        return len(self.class_counts)

    @property
    def size(self) -> int:
        return sum(self.class_counts)


AnyTestset = Union[Testset, MulticlassTestset]

FOLD_KINDS = ("none", "known_folds", "stratified_kfold", "unknown_folds_kfold")


@dataclass(frozen=True)
class FoldingScheme:
    """How a testset was split for cross-validation.

    kind "none" means no folding; "known_folds" carries the explicit fold
    testsets; "stratified_kfold" and "unknown_folds_kfold" carry only k, the
    fold sizes being derived (deterministic even split) or enumerated.
    """

    kind: str = "none"
    folds: Optional[tuple[AnyTestset, ...]] = None
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind not in FOLD_KINDS:
            raise SpecError(
                f"unknown folding kind {self.kind!r}; expected one of {FOLD_KINDS}")
        if self.kind == "known_folds":
            if not self.folds:
                raise SpecError("known_folds requires a nonempty list of folds")
            object.__setattr__(self, "folds", tuple(self.folds))
            if self.k is not None and self.k != len(self.folds):
                raise SpecError("k disagrees with the number of known folds")
        else:
            if self.folds is not None:
                raise SpecError(f"folds are only allowed with known_folds")
            if self.kind == "none":
                if self.k is not None:
                    raise SpecError("k is meaningless without folding")
            else:
                if not isinstance(self.k, int) or isinstance(self.k, bool):
                    raise SpecError(f"{self.kind} requires an integer k")
                if self.k < 1:
                    raise InvalidFoldCount(f"k must be at least 1, got {self.k}")

    @staticmethod
    def none() -> "FoldingScheme":
        return FoldingScheme("none")

    @staticmethod
    def known(folds: Sequence[AnyTestset]) -> "FoldingScheme":
        return FoldingScheme("known_folds", folds=tuple(folds))

    @staticmethod
    def stratified(k: int) -> "FoldingScheme":
        return FoldingScheme("stratified_kfold", k=k)

    @staticmethod
    def unknown(k: int) -> "FoldingScheme":
        return FoldingScheme("unknown_folds_kfold", k=k)

    @property
    def is_folded(self) -> bool:
        return self.kind != "none"

class AggregationMode(Enum):
    SCORE_OF_MEANS = "score_of_means"
    MEAN_OF_SCORES = "mean_of_scores"


@dataclass(frozen=True)
class DatasetSpec:
    """One dataset in an experiment: its testset and how it was folded."""

    testset: AnyTestset
    folding: FoldingScheme = FoldingScheme("none")

    def __post_init__(self):
        if not isinstance(self.testset, (Testset, MulticlassTestset)):
            raise SpecError(f"not a testset: {self.testset!r}")

    @property
    def is_multiclass(self) -> bool:
        return isinstance(self.testset, MulticlassTestset)


@dataclass(frozen=True)
class ExperimentSpec:
    """A full experiment description: datasets with their folding schemes,
    plus the aggregation modes used when scores cross folds or datasets.

    Valid by construction: known folds sum to their parent, k fits the
    testset (and the stratified split), and each aggregation mode is set
    iff folds or several datasets need it. Errors about one dataset start
    with "dataset {idx}: ".
    """

    datasets: tuple[DatasetSpec, ...]
    fold_aggregation: Optional[AggregationMode] = None
    dataset_aggregation: Optional[AggregationMode] = None

    def __post_init__(self):
        object.__setattr__(self, "datasets", tuple(self.datasets))
        for d in self.datasets:
            if not isinstance(d, DatasetSpec):
                raise SpecError(f"not a DatasetSpec: {d!r}")
        for label in ("fold_aggregation", "dataset_aggregation"):
            v = getattr(self, label)
            if v is not None and not isinstance(v, AggregationMode):
                try:
                    object.__setattr__(self, label, AggregationMode(v))
                except ValueError:
                    raise ParseError(
                        f"{label} must be one of "
                        f"{[m.value for m in AggregationMode]}, "
                        f"got {v!r}") from None
        if not self.datasets:
            raise EmptyExperiment("an experiment needs at least one dataset")
        for idx, ds in enumerate(self.datasets):
            scheme, where = ds.folding, f"dataset {idx}: "
            if not isinstance(scheme, FoldingScheme):
                raise SpecError(f"{where}not a FoldingScheme: {scheme!r}")
            if scheme.kind == "known_folds":
                check_fold_totals(ds.testset, scheme.folds, where)
            elif scheme.is_folded:
                if scheme.k > ds.testset.size:
                    raise InvalidFoldCount(
                        f"{where}cannot split {ds.testset.size} samples "
                        f"into {scheme.k} nonempty folds")
                if scheme.kind == "stratified_kfold":
                    try:
                        stratified_split_counts(class_totals(ds.testset),
                                                scheme.k)
                    except InvalidFoldCount as exc:
                        raise InvalidFoldCount(f"{where}{exc}") from None
        any_folding = any(ds.folding.is_folded for ds in self.datasets)
        if any_folding and self.fold_aggregation is None:
            raise MissingAggregationMode(
                "folding is present but fold_aggregation is not set")
        if not any_folding and self.fold_aggregation is not None:
            raise ExtraneousAggregationMode(
                "fold_aggregation is set but no dataset is folded")
        if len(self.datasets) > 1 and self.dataset_aggregation is None:
            raise MissingAggregationMode(
                "multiple datasets but dataset_aggregation is not set")
        if len(self.datasets) == 1 and self.dataset_aggregation is not None:
            raise ExtraneousAggregationMode(
                "dataset_aggregation is set but there is only one dataset")

    @staticmethod
    def single(testset: AnyTestset,
               folding: Optional[FoldingScheme] = None,
               fold_aggregation: Optional[AggregationMode] = None) -> "ExperimentSpec":
        ds = DatasetSpec(testset, folding or FoldingScheme("none"))
        return ExperimentSpec((ds,), fold_aggregation=fold_aggregation)


def class_totals(ts: AnyTestset) -> tuple[int, ...]:
    if isinstance(ts, MulticlassTestset):
        return ts.class_counts
    return (ts.p, ts.n)


def stratified_split_counts(totals: Sequence[int], k: int) -> list[tuple[int, ...]]:
    """Deterministic even split of each class across k folds.

    For a class with c samples, the first (c mod k) folds receive
    ceil(c/k) and the rest floor(c/k); folds are paired by index across
    classes. Raises InvalidFoldCount when the rule leaves a fold empty.
    """
    if k < 1:
        raise InvalidFoldCount(f"k must be at least 1, got {k}")
    per_class = []
    for c in totals:
        q, r = divmod(c, k)
        per_class.append([q + 1] * r + [q] * (k - r))
    folds = [tuple(col[j] for col in per_class) for j in range(k)]
    if any(sum(f) == 0 for f in folds):
        raise InvalidFoldCount(
            f"stratified split of totals {tuple(totals)} into k={k} folds "
            f"leaves a fold empty")
    return folds


def check_fold_totals(testset: AnyTestset, folds: Sequence[AnyTestset],
                      context: str = "") -> None:
    """Raise FoldTotalsMismatch unless every known fold has the parent's
    kind and number of classes and the fold class counts sum to the
    parent's; `context` prefixes the message."""
    want = class_totals(testset)
    got = [0] * len(want)
    for fold in folds:
        totals = class_totals(fold)
        if len(totals) != len(want) or isinstance(
                testset, MulticlassTestset) != isinstance(fold, MulticlassTestset):
            raise FoldTotalsMismatch(
                f"{context}fold shape {fold!r} does not match the parent "
                f"testset {testset!r}")
        for i, c in enumerate(totals):
            got[i] += c
    if tuple(got) != want:
        raise FoldTotalsMismatch(
            f"{context}fold totals {tuple(got)} differ from parent totals "
            f"{want}")


def validate_experiment(spec: ExperimentSpec) -> ExperimentSpec:
    """Return `spec` when it is an ExperimentSpec, which validates itself
    on construction; raise SpecError otherwise."""
    if not isinstance(spec, ExperimentSpec):
        raise SpecError(f"not an ExperimentSpec: {spec!r}")
    return spec


# ---------------------------------------------------------------------------
# uncertainty and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Uncertainty:
    """Numeric uncertainty of the reported values.

    default_radius is the half-width of the interval around each reported
    value (typically 10^-k for k printed decimals); per_score_radius
    overrides it per score id. Both are parsed with as_fraction and stored
    as Fractions, the overrides in a dict of their own.
    """

    default_radius: Fraction
    per_score_radius: Optional[Mapping[str, Fraction]] = None

    def __post_init__(self):
        radius = as_fraction(self.default_radius)
        per_score = {k: as_fraction(v)
                     for k, v in (self.per_score_radius or {}).items()}
        for label, v in [("default_radius", radius),
                         *((f"radius for {k!r}", v) for k, v in per_score.items())]:
            if v < 0:
                raise SpecError(f"{label} must be nonnegative, got {v}")
        object.__setattr__(self, "default_radius", radius)
        object.__setattr__(self, "per_score_radius", per_score)

    def radius_for(self, score_id: str) -> Fraction:
        return self.per_score_radius.get(score_id, self.default_radius)


class ScoreReport:
    """Reported score values, keyed by score id.

    Values are stored as exact rationals. When a value arrives as decimal
    text its raw form is kept alongside, so the implied uncertainty radius
    can later be inferred from the digit count.
    """

    __slots__ = ("_values", "_texts")

    def __init__(self, entries: Mapping[str, object]):
        if not entries:
            raise SpecError("a score report needs at least one entry")
        values: dict[str, Fraction] = {}
        texts: dict[str, Optional[str]] = {}
        for score_id, raw in entries.items():
            if not isinstance(score_id, str):
                raise SpecError(f"score id must be a string, got {score_id!r}")
            values[score_id] = as_fraction(raw)
            texts[score_id] = raw.strip() if isinstance(raw, str) else None
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_texts", texts)

    def __setattr__(self, name, value):
        raise AttributeError("ScoreReport is immutable")

    @staticmethod
    def of(**entries) -> "ScoreReport":
        return ScoreReport(entries)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self._values)

    def value(self, score_id: str) -> Fraction:
        return self._values[score_id]

    def text(self, score_id: str) -> Optional[str]:
        """The raw decimal text, or None if the value arrived numerically."""
        return self._texts[score_id]

    def items(self):
        return self._values.items()

    def __contains__(self, score_id: str) -> bool:
        return score_id in self._values

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other):
        return isinstance(other, ScoreReport) and self._values == other._values

    def __repr__(self):
        inner = ", ".join(f"{k}={v!s}" for k, v in self._values.items())
        return f"ScoreReport({inner})"


def infer_uncertainty(report: ScoreReport) -> Uncertainty:
    """Build an Uncertainty from the decimal texts of a report, giving each
    score the radius implied by its own digit count."""
    per_score = {}
    for score_id in report.ids:
        text = report.text(score_id)
        if text is None:
            raise ParseError(
                f"score {score_id!r} was reported numerically; the implied "
                f"radius can only be inferred from decimal text")
        per_score[score_id] = infer_radius_from_text(text)
    return Uncertainty(0, per_score_radius=per_score)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyResult:
    """Outcome of a consistency test.

    inconsistency == True means no valid experimental outcome can reproduce
    the reported scores within their radii: a certain finding. False means
    a witness outcome exists (carried in `witness`, except for the
    regression test, whose evidence is interval-based). `evidence` explains
    the verdict; `procedure` identifies the decision procedure used.
    """

    inconsistency: bool
    procedure: str
    witness: Optional[dict] = None
    evidence: Optional[dict] = None

    @property
    def consistent(self) -> bool:
        return not self.inconsistency

    def to_dict(self) -> dict:
        return {
            "inconsistency": self.inconsistency,
            "procedure": self.procedure,
            "witness": self.witness,
            "evidence": self.evidence,
        }


# ---------------------------------------------------------------------------
# JSON payloads (shapes documented field-for-field in the cli module)
# ---------------------------------------------------------------------------


def testset_to_payload(ts: AnyTestset) -> dict:
    if isinstance(ts, MulticlassTestset):
        return {"class_counts": list(ts.class_counts)}
    return {"p": ts.p, "n": ts.n}


def _array(value, what: str) -> Sequence:
    """`value` if it is a JSON array (a sequence but not a string)."""
    if isinstance(value, str) or not isinstance(value, Sequence):
        raise ParseError(f"{what} must be an array, got {value!r}")
    return value


def testset_from_payload(payload: Mapping) -> AnyTestset:
    if not isinstance(payload, Mapping):
        raise ParseError(f"testset must be an object, got {payload!r}")
    if "class_counts" in payload:
        return MulticlassTestset(_array(payload["class_counts"], "class_counts"))
    if "p" in payload and "n" in payload:
        return Testset(payload["p"], payload["n"])
    raise ParseError(f"testset needs either p/n or class_counts: {dict(payload)!r}")


def folding_to_payload(scheme: FoldingScheme) -> dict:
    out: dict = {"kind": scheme.kind}
    if scheme.folds is not None:
        out["folds"] = [testset_to_payload(f) for f in scheme.folds]
    if scheme.k is not None:
        out["k"] = scheme.k
    return out


def folding_from_payload(payload: Mapping) -> FoldingScheme:
    if not isinstance(payload, Mapping):
        raise ParseError(f"folding must be an object, got {payload!r}")
    kind = payload.get("kind", "none")
    folds = payload.get("folds")
    if folds is not None:
        folds = tuple(map(testset_from_payload, _array(folds, "folds")))
    return FoldingScheme(kind, folds=folds, k=payload.get("k"))


def experiment_to_payload(spec: ExperimentSpec) -> dict:
    out: dict = {
        "datasets": [
            {"testset": testset_to_payload(d.testset),
             "folding": folding_to_payload(d.folding)}
            for d in spec.datasets
        ]
    }
    if spec.fold_aggregation is not None:
        out["fold_aggregation"] = spec.fold_aggregation.value
    if spec.dataset_aggregation is not None:
        out["dataset_aggregation"] = spec.dataset_aggregation.value
    return out


def experiment_from_payload(payload: Mapping) -> ExperimentSpec:
    if not isinstance(payload, Mapping):
        raise ParseError(f"experiment must be an object, got {payload!r}")
    datasets = []
    for entry in _array(payload.get("datasets"), "experiment 'datasets'"):
        if not isinstance(entry, Mapping) or "testset" not in entry:
            raise ParseError(f"dataset entry needs a 'testset': {entry!r}")
        ts = testset_from_payload(entry["testset"])
        scheme = folding_from_payload(entry.get("folding", {"kind": "none"}))
        datasets.append(DatasetSpec(ts, scheme))
    return ExperimentSpec(tuple(datasets),
                          fold_aggregation=payload.get("fold_aggregation"),
                          dataset_aggregation=payload.get("dataset_aggregation"))


def report_from_payload(payload: Mapping) -> ScoreReport:
    if not isinstance(payload, Mapping):
        raise ParseError(f"scores must be an object, got {payload!r}")
    return ScoreReport(payload)
