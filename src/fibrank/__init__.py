"""Order of appearance of integers in the Fibonacci sequence, with
closed forms for products of consecutive Fibonacci and Lucas numbers."""

from .bigmath import fib, fib_mod, is_prime, lucas, v_int
from .errors import BudgetExceededError, ScanBoundError
from .fibstruct import (
    GcdCaseResult,
    fib_divides,
    gcd_fib,
    gcd_fib_lucas,
    gcd_lucas_lucas,
    lucas_divides_fib,
    z_oracle,
)
from .lcmkit import (
    cofactor_f,
    g_rec,
    lcm_fib_run,
    lcm_lucas_run,
    lcm_run,
    lcm_run_closed,
    run_product,
)
from .orderprod import (
    DEFAULT_ORACLE_BUDGET,
    ProductSpec,
    ZResult,
    corollary_plain_form,
    corollary_table,
    theorem_table,
    z_product_closed,
    z_product_general,
    z_product_oracle,
)
from .valuation import (
    ValuationLawResult,
    rank_of_apparition_prime,
    vp_fib,
    vp_fib_at_rank,
    vp_lucas,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DEFAULT_ORACLE_BUDGET",
    "GcdCaseResult",
    "ProductSpec",
    "ScanBoundError",
    "ValuationLawResult",
    "ZResult",
    "cofactor_f",
    "corollary_plain_form",
    "corollary_table",
    "fib",
    "fib_divides",
    "fib_mod",
    "g_rec",
    "gcd_fib",
    "gcd_fib_lucas",
    "gcd_lucas_lucas",
    "is_prime",
    "lcm_fib_run",
    "lcm_lucas_run",
    "lcm_run",
    "lcm_run_closed",
    "lucas",
    "lucas_divides_fib",
    "rank_of_apparition_prime",
    "run_product",
    "theorem_table",
    "v_int",
    "vp_fib",
    "vp_fib_at_rank",
    "vp_lucas",
    "z_oracle",
    "z_product_closed",
    "z_product_general",
    "z_product_oracle",
]
