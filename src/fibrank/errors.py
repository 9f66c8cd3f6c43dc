"""Exception types shared across the package."""


class ScanBoundError(RuntimeError):
    """A rank computation broke a law it rests on: a residue scan ran past
    z(m) <= 6m, or a prime p failed to divide F_{p - (5/p)}.

    Hitting this means an arithmetic bug, never a legitimate outcome.
    """


class BudgetExceededError(RuntimeError):
    """An oracle scan would need (or needed) more steps than the caller allowed.

    Carries the offending step estimate so sweeps can skip gracefully.
    """

    def __init__(self, message: str, *, estimate: int | None = None,
                 budget: int | None = None) -> None:
        super().__init__(message)
        self.estimate = estimate
        self.budget = budget
