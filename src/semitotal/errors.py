"""Exception types shared across the package."""


class CapacityError(ValueError):
    """Graph would exceed the fixed word budget (WORD_BITS vertices)."""


class EmptyGraphError(ValueError):
    """Operation requires at least one vertex."""


class IsolatesError(ValueError):
    """Operation requires an isolate-free graph."""


class BudgetExceededError(ValueError):
    """Instance is larger than the enumeration budget of the operation."""


class ResampleBudgetError(RuntimeError):
    """Random generator exhausted its retry budget without a usable sample."""


# The failures a computation may report on a legal call.  The CLI maps them to
# exit code 2 and the claim harness to an UNDEFINED row; anything else is a bug.
COMPUTATION_ERRORS = (BudgetExceededError, EmptyGraphError, IsolatesError, ResampleBudgetError, CapacityError)
