"""Exact consistency testing for reported ML performance scores.

Given a description of an experiment (testset sizes, cross-validation
scheme, aggregation mode) and the scores a paper reports, decide whether
ANY valid outcome could have produced those numbers within their rounding
radius. All arithmetic is exact rational/algebraic, so an "inconsistent"
verdict is a mathematical certainty, never a numerical artifact; a
"consistent" verdict comes with a concrete witness outcome.

The usual entry points:

    check_single_testset   one binary testset
    check_experiment       any supported experiment tree (folds, datasets,
                           multiclass micro/macro averaging)
    check_regression       mae/mse/rmse/r2 as one (mae, mse) window
    check_bundle           a packaged dataset's predefined spec
    brute_force_single     shipped oracles for auditing small verdicts
    generate_true_report   sampler for reports that are true by construction

The names from `bundles`, `multiclass`, `oracle` and `regression` are
resolved on first access (PEP 562), so `import scoresleuth` does not load
those modules until a name from them is used.
"""

import importlib

from .aggregate import (
    check_experiment,
    check_mos_known_folds,
    check_mos_unknown_folds,
    reduce_som,
)
from .binary import check_single_testset, feasible_region
from .errors import (
    EmptyExperiment,
    InstanceTooLarge,
    MissingVariance,
    NonlinearScoreUnsupported,
    ParseError,
    RegionTooLarge,
    ResourceLimit,
    ScoreSleuthError,
    SpecError,
    TooManyConfigurations,
    UnknownBundle,
    UnknownScoreId,
    UnsupportedExperiment,
)
from .intervals import RationalInterval
from .model import (
    AggregationMode,
    ConsistencyResult,
    DatasetSpec,
    ExperimentSpec,
    FoldingScheme,
    MulticlassTestset,
    ScoreReport,
    Testset,
    Uncertainty,
    infer_radius_from_text,
    infer_uncertainty,
    validate_experiment,
)
from .scores import (
    ScoreDefinition,
    ScoreRegistry,
    default_registry,
    evaluate,
    fbeta_definition,
)
from .values import SqrtRational

__version__ = "0.1.0"

#: Exported names resolved on first access, by the module that defines them.
_LAZY = {
    **dict.fromkeys(("Bundle", "check_bundle", "list_bundles", "load_bundle"),
                    "bundles"),
    "check_multiclass_dataset": "multiclass",
    **dict.fromkeys(("OracleResult", "brute_force_macro", "brute_force_mos",
                     "brute_force_single", "generate_true_report",
                     "render_decimal"), "oracle"),
    **dict.fromkeys(("RegressionContext", "check_regression"), "regression"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "AggregationMode",
    "Bundle",
    "ConsistencyResult",
    "DatasetSpec",
    "ExperimentSpec",
    "FoldingScheme",
    "EmptyExperiment",
    "InstanceTooLarge",
    "MissingVariance",
    "MulticlassTestset",
    "NonlinearScoreUnsupported",
    "OracleResult",
    "ParseError",
    "RationalInterval",
    "RegionTooLarge",
    "RegressionContext",
    "ResourceLimit",
    "ScoreDefinition",
    "ScoreRegistry",
    "ScoreReport",
    "ScoreSleuthError",
    "SpecError",
    "SqrtRational",
    "Testset",
    "TooManyConfigurations",
    "Uncertainty",
    "UnknownBundle",
    "UnknownScoreId",
    "UnsupportedExperiment",
    "brute_force_macro",
    "brute_force_mos",
    "brute_force_single",
    "check_bundle",
    "check_experiment",
    "check_mos_known_folds",
    "check_mos_unknown_folds",
    "check_multiclass_dataset",
    "check_regression",
    "check_single_testset",
    "default_registry",
    "evaluate",
    "fbeta_definition",
    "feasible_region",
    "generate_true_report",
    "infer_radius_from_text",
    "infer_uncertainty",
    "list_bundles",
    "load_bundle",
    "reduce_som",
    "render_decimal",
    "validate_experiment",
    "__version__",
]
