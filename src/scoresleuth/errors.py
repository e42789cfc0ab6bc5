"""Exception hierarchy.

Everything raised on purpose by this package derives from ScoreSleuthError.
Two broad families matter to callers: specification problems (bad experiment
descriptions, unknown ids, unsupported requests) and resource refusals
(enumerations that would exceed a configured cap). The CLI maps the former to
exit code 2 and the latter to exit code 3. A refusal is built from the count
reached and the cap it exceeds by the one ResourceLimit constructor, and
each kind of refusal differs only in its docstring and message.

Note that an *inconsistent report* is never an exception: it is a regular
verdict carried by ConsistencyResult.
"""


class ScoreSleuthError(Exception):
    """Base class for all errors raised by scoresleuth."""


class SpecError(ScoreSleuthError):
    """An experiment description, report or request violates the data model."""


class EmptyExperiment(SpecError):
    """No datasets, or a testset with no samples at all."""


class FoldTotalsMismatch(SpecError):
    """Known folds do not add up to the parent testset totals."""


class MissingAggregationMode(SpecError):
    """Folding or multiple datasets present but no aggregation mode given."""


class ExtraneousAggregationMode(SpecError):
    """An aggregation mode was given where nothing is aggregated."""


class InvalidFoldCount(SpecError):
    """A fold count k that cannot produce k nonempty folds."""


class ParseError(SpecError):
    """Text that should denote a number (or a JSON document) does not."""


class UnknownScoreId(SpecError):
    """A reported score id is not in the registry."""


class NonlinearScoreUnsupported(SpecError):
    """Mean-of-scores feasibility was requested for a score that is not
    affine in the confusion counts."""


class UnsupportedExperiment(SpecError):
    """A structurally valid experiment whose semantics this package
    deliberately refuses to guess (see the ledger of refused combinations
    in the package docs)."""


class UnknownBundle(SpecError):
    """No populated bundle with the requested id."""


class MissingVariance(SpecError):
    """r-squared was reported but the regression context carries no
    target variance."""


class ResourceLimit(ScoreSleuthError):
    """An enumeration or search would exceed a configured cap. The request
    is refused rather than silently truncated.

    Every refusal carries the `count` that was reached and the `cap` it
    exceeds; each subclass only names its `message`, a format string over
    both."""

    message = "{count} exceeds cap {cap}"

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(self.message.format(count=count, cap=cap))


class TooManyConfigurations(ResourceLimit):
    """Unknown-fold enumeration exceeds the configuration cap."""

    message = ("fold configuration enumeration exceeds cap ({count}+ > {cap}); "
               "raise the cap (SCORESLEUTH_CONFIG_CAP or the cap argument) "
               "to proceed")


class RegionTooLarge(ResourceLimit):
    """feasible_region would enumerate more candidate pairs than the cap."""

    message = ("feasible region enumeration of {count} candidate pairs "
               "exceeds cap {cap}")


class InstanceTooLarge(ResourceLimit):
    """A brute-force oracle was asked to enumerate more states than its cap."""

    message = "brute-force enumeration of {count} states exceeds cap {cap}"
