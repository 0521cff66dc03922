"""Exception and warning types shared across the package, and the one
rule for whole-number arguments (counts, bounds and generations)."""


def whole_number(name: str, value, low: int = 0, high: int | None = None) -> int:
    """``value`` as an int; a ValueError naming ``name`` unless it is a
    finite whole number in [low, high] (no upper end if ``high`` is None)."""
    try:
        ok = int(value) == value and low <= value and (high is None or value <= high)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        span = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be a whole number {span}, got {value}")
    return int(value)


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
