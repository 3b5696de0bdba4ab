"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed token or line in an edge-list source."""


class LoopError(ValueError):
    """An edge joins a vertex to itself."""


class DisconnectedInput(ValueError):
    """Operation requires a connected graph."""


class DomainError(ValueError):
    """Family parameters violate the family's domain constraints."""


class NoFormula(LookupError):
    """No closed-form value is known for the given family parameters."""


class TooSmall(ValueError):
    """Reduction source graph has fewer than three vertices."""


class NotIndependent(ValueError):
    """Candidate set contains two adjacent source vertices."""


class BudgetExceeded(RuntimeError):
    """Solver hit its work budget before finishing.

    `calls` holds the number of work units spent when the cap was hit.  A
    failed-parameter solver also reports what it had proven by then: the
    largest size with a failing set found, `lower_bound`, and that set's
    members, `witness` (both None when no stratum had finished).
    """

    def __init__(self, calls: int, budget: int, lower_bound=None, witness=None):
        super().__init__(f"work budget exhausted after {calls} calls (budget {budget})")
        self.calls = calls
        self.budget = budget
        self.lower_bound = lower_bound
        self.witness = witness

    def __reduce__(self):
        # the default rebuilds from `args`, the message alone, which
        # `__init__` cannot take
        return type(self), (self.calls, self.budget, self.lower_bound, self.witness)
