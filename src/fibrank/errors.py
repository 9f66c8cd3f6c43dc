"""Exception types shared across the package."""


class ScanBoundError(RuntimeError):
    """A rank computation could not be completed from the laws it rests on.

    The scan bound z(m) <= 6m, p | F_{p - (5/p)} and p | F_z(p) (the
    "inconsistent" check of vp_fib_at_rank) are theorems, so breaking one
    means an arithmetic bug.  vp_fib_at_rank also raises it when
    v_p(F_z(p)) exceeds its cap of 64: that means the valuation cannot be
    settled there, not that the arithmetic is wrong.
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
