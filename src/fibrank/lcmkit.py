"""Least common multiples of runs: consecutive integers, consecutive
Fibonacci numbers, consecutive Lucas numbers.

A "run" is n, n+1, ..., n+k (k+1 terms).  The product of a run always
equals its lcm times a cofactor, which need not be small: for F_1000,
..., F_{1000+k} it has 861 bits at k = 64 (the prime 2710260697 among
its factors) and 8544 at k = 200.  The cofactor for integer runs
follows a gcd recursion.  For k <= 6 every cofactor is a closed form in
n; only cofactor_f at k > 6 folds lcms over the exact run.
"""

from __future__ import annotations

from functools import reduce
from math import gcd, lcm, prod

from .bigmath import fib, lucas
from .valuation import vp_lucas

FAMILIES = ("fib", "lucas")


def _check_run(n: int, k: int, *, k_min: int = 0) -> None:
    if n < 1:
        raise ValueError("run must start at n >= 1")
    if k < k_min:
        raise ValueError(f"run length parameter k must be >= {k_min}")


def _require_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")


def run_product(n: int, k: int) -> int:
    """n(n+1)...(n+k)."""
    _check_run(n, k)
    return prod(range(n, n + k + 1))


def g_rec(n: int, k: int) -> int:
    """Cofactor n(n+1)...(n+k) / [n, ..., n+k] via the gcd recursion.

    g_0 = g_1 = 1 and g_k = gcd(k!, (n+k) * g_{k-1}); no lcm is ever
    folded.  The cofactor always divides k!.

    >>> g_rec(2, 2)
    2
    """
    _check_run(n, k)
    g = 1
    factorial = 1
    for i in range(2, k + 1):
        factorial *= i
        g = gcd(factorial, (n + i) * g)
    return g


def lcm_run(n: int, k: int) -> int:
    """[n, n+1, ..., n+k] as product / g_rec; works for any k >= 0."""
    return run_product(n, k) // g_rec(n, k)


def lcm_run_closed(n: int, k: int) -> int:
    """[n, ..., n+k] for 1 <= k <= 6 from the closed-form denominators.

    >>> lcm_run_closed(2, 4)
    60
    """
    _check_run(n, k, k_min=1)
    if k > 6:
        raise ValueError("closed forms stop at k = 6; use lcm_run")
    p = run_product(n, k)
    if k == 1:
        return p
    if k == 2:
        return p // gcd(2, n)
    if k == 3:
        return p // (2 * gcd(3, n))
    if k == 4:
        return p // (2 * gcd(4, n) * gcd(3, n * (n + 1)))
    if k == 5:
        return p // (6 * gcd(5, n) * gcd(4, n * (n + 1)))
    return p // (12 * gcd(3, n) * gcd(5, n * (n + 1))
                 * gcd(4, (n + 2) * gcd(2, n * (n + 1) // 2)))


def _family_values(family: str, n: int, k: int) -> list[int]:
    evaluate = fib if family == "fib" else lucas
    return [evaluate(n + i) for i in range(k + 1)]


def _exact_quotient(product: int, divisor: int, family: str, n: int, k: int) -> int:
    quotient, remainder = divmod(product, divisor)
    if remainder:
        raise RuntimeError(
            f"the {family} run ({n}, k={k}) does not split as lcm * cofactor")
    return quotient


def _fib_cofactor(n: int, k: int) -> int:
    """Run product / [F_n, ..., F_{n+k}] for 1 <= k <= 6, from n alone:
    1, 2 or 6 times F_{gcd}-style terms whose indices are at most 6."""
    if k <= 2:
        return 1
    if k == 3:
        return fib(gcd(n, 3))
    if k == 4:
        d = fib(gcd(n, 4))
        return d if n % 3 == 1 else 2 * d
    if k == 5:
        return fib(gcd(n, 5)) * (2 if n % 4 in (1, 2) else 6)
    d = fib(gcd(n * (n + 1), 5)) * fib(gcd(n, 6))
    return d * (2 if n % 4 == 1 else 6)


def _lucas_cofactor(n: int, k: int) -> int:
    """Run product / [L_n, ..., L_{n+k}] for 1 <= k <= 6, from n alone.

    The k = 4 term uses F_{gcd(n-2, 4)}; for n in {1, 2} the gcd is taken
    on |n-2| with gcd(0, 4) = 4, which the direct-lcm tests pin down as
    the correct reading.
    """
    if k <= 2:
        return 1
    if k == 3:
        return fib(gcd(n, 3))
    if k == 4:
        d = fib(gcd(n - 2, 4))
        return d if n % 3 == 1 else 2 * d
    if k == 5:
        return 6 if n % 4 in (1, 2) else 2
    d = 2 ** (vp_lucas(2, n).order + 1)
    return 3 * d if n % 4 in (0, 1, 2) else d


_CLOSED_COFACTORS = {"fib": _fib_cofactor, "lucas": _lucas_cofactor}


def _closed_run_lcm(family: str, n: int, k: int) -> int:
    _check_run(n, k, k_min=1)
    if k > 6:
        raise ValueError("closed forms stop at k = 6")
    product = prod(_family_values(family, n, k))
    return _exact_quotient(product, _CLOSED_COFACTORS[family](n, k), family, n, k)


def lcm_fib_run(n: int, k: int) -> int:
    """[F_n, ..., F_{n+k}] for 1 <= k <= 6: run product / closed cofactor.

    >>> lcm_fib_run(1, 5)
    120
    """
    return _closed_run_lcm("fib", n, k)


def lcm_lucas_run(n: int, k: int) -> int:
    """[L_n, ..., L_{n+k}] for 1 <= k <= 6: run product / closed cofactor.

    >>> lcm_lucas_run(1, 2)
    12
    """
    return _closed_run_lcm("lucas", n, k)


def cofactor_f(n: int, k: int, family: str = "fib") -> int:
    """Cofactor (run product) / (run lcm) for a Fibonacci or Lucas run.

    For k <= 6 this is the closed form in n, and no term of the run is
    evaluated.  Larger k evaluates the run once and folds pairwise lcms
    over the exact big integers.

    >>> cofactor_f(1, 5, "lucas")
    6
    """
    _require_family(family)
    _check_run(n, k, k_min=1)
    if k <= 6:
        return _CLOSED_COFACTORS[family](n, k)
    values = _family_values(family, n, k)
    return _exact_quotient(prod(values), reduce(lcm, values), family, n, k)
