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

    `calls` holds the number of work units spent when the cap was hit.
    """

    def __init__(self, calls: int, budget: int):
        super().__init__(f"work budget exhausted after {calls} calls (budget {budget})")
        self.calls = calls
        self.budget = budget

    def __reduce__(self):
        # the default rebuilds from `args`, the message alone, which
        # `__init__` cannot take
        return type(self), (self.calls, self.budget)
