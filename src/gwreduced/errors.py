"""Exception and warning types shared across the package."""


class GWReducedError(Exception):
    """Base class for all errors raised by this package."""


class NonCriticalError(GWReducedError):
    """Offspring law whose mean is not 1 within tolerance."""


class DegenerateVarianceError(GWReducedError):
    """Offspring law with zero variance (deterministic branching)."""


class SeriesBudgetError(GWReducedError):
    """Requested series iteration exceeds the configured cost cap."""


class JetOverflowError(GWReducedError):
    """Propagated derivative values left the double-precision range."""


class ConditioningImpossibleError(GWReducedError):
    """Conditioning event has probability zero."""


class AcceptanceBudgetExhausted(UserWarning):
    """Fewer than 10 accepted replicates at the replicate budget.

    The batch is still returned, flagged low-confidence.
    """
