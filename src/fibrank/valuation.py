"""Closed-form p-adic valuation laws for Fibonacci and Lucas numbers.

Every valuation is computed from the index alone; the Fibonacci or Lucas
number itself is never materialized.  The only sequence arithmetic that
happens at all is modular: the z(p) descent and vp_fib_at_rank.

For a prime p, z(p) denotes the rank of apparition: the least i >= 1
with p | F_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bigmath import fib_mod, is_prime, prime_factors, v_int
from .errors import ScanBoundError

# Branch labels for vp_fib.
BRANCH_F2_COPRIME = "n≡1,2 (mod 3)"
BRANCH_F2_HALF = "n≡3 (mod 6)"
BRANCH_F2_FULL = "n≡0 (mod 6)"
BRANCH_F5 = "v5(n)"
BRANCH_RANK_DIVIDES = "z(p)|n"
BRANCH_RANK_MISSES = "z(p)∤n"

# Branch labels for vp_lucas.
BRANCH_L2_COPRIME = "n≡1,2 (mod 3)"
BRANCH_L2_DOUBLE = "n≡3 (mod 6)"
BRANCH_L2_SINGLE = "n≡0 (mod 6)"
BRANCH_HALF_RANK = "n≡z(p)/2 (mod z(p))"
BRANCH_NO_HALF_RANK = "n≢z(p)/2 (mod z(p))"

_VALUATION_CAP = 64


@dataclass(frozen=True)
class ValuationLawResult:
    """Order of p in F_n (or L_n) together with the law branch that fired."""

    p: int
    n: int
    order: int
    branch: str


def _require_index(n: int) -> None:
    if n < 1:
        raise ValueError("index must be at least 1")


@lru_cache(maxsize=None)
def rank_of_apparition_prime(p: int) -> int:
    """z(p) for prime p, by descent from N = p - (5/p) (N = 3, 5 for
    p = 2, 5), a multiple of z(p) by Lucas's law.  Strong divisibility
    makes {i : p | F_i} = z(p)Z, so stripping each prime q of N while
    p | F_{N/q} leaves z(p) exactly, given p | F_N.  That is evaluated
    after the descent, and only if nothing was stripped (a failure is an
    internal ScanBoundError).

    This is the laws' one primality gate: every law reaches it before it
    uses p, and a non-prime p raises ValueError here.  lru_cache stores
    no exception, so a composite p raises again on every call, while a
    prime is tested once per process.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p in (2, 5):
        n = 3 if p == 2 else 5
    else:  # (5/p) by Euler's criterion
        n = p - 1 if pow(5, (p - 1) // 2, p) == 1 else p + 1
    z = n
    for q in prime_factors(n):
        while z % q == 0 and fib_mod(z // q, p) == 0:
            z //= q
    # Each strip proved p | F_z for the z it left, so only an unstripped
    # N still needs p | F_N evaluated.
    if z == n and fib_mod(n, p) != 0:
        raise ScanBoundError(f"{p} does not divide F_{n}")
    return z


@lru_cache(maxsize=None)
def vp_fib_at_rank(p: int) -> int:
    """v_p(F_z(p)) for a prime p not in {2, 5}.

    Found by evaluating F_z(p) modulo p**e for growing e from 2 until a
    nonzero residue appears; the residue mod p**2 also re-checks
    p | F_z.  The exponent is capped at 64: every prime ever checked has
    order 1, and a cap violation would merely mean this machine cannot
    settle the valuation, so it is a hard error.  A non-prime p raises
    ValueError through rank_of_apparition_prime.
    """
    if p in (2, 5):
        raise ValueError("the laws for p = 2 and p = 5 are fully explicit")
    z = rank_of_apparition_prime(p)
    r = fib_mod(z, p * p)
    if r % p != 0:
        raise ScanBoundError(f"rank of apparition of {p} is inconsistent")
    if r != 0:
        return 1
    for e in range(3, _VALUATION_CAP + 2):
        if fib_mod(z, p ** e) != 0:
            return e - 1
    raise ScanBoundError(
        f"v_{p}(F_z) exceeds {_VALUATION_CAP}; refusing to guess")


def vp_fib(p: int, n: int) -> ValuationLawResult:
    """Order of prime p in F_n, straight from the closed-form laws.

    p = 2 branches on n mod 6, p = 5 reduces to v_5(n), and any other
    prime contributes v_p(n) + v_p(F_z(p)) exactly when z(p) | n.  A
    non-prime p raises ValueError through rank_of_apparition_prime.

    >>> vp_fib(2, 6).order    # F_6 = 8
    3
    """
    _require_index(n)
    if p == 2:
        r = n % 6
        if r % 3 != 0:
            return ValuationLawResult(p, n, 0, BRANCH_F2_COPRIME)
        if r == 3:
            return ValuationLawResult(p, n, 1, BRANCH_F2_HALF)
        return ValuationLawResult(p, n, v_int(2, n) + 2, BRANCH_F2_FULL)
    if p == 5:
        return ValuationLawResult(p, n, v_int(5, n), BRANCH_F5)
    z = rank_of_apparition_prime(p)
    if n % z == 0:
        order = v_int(p, n) + vp_fib_at_rank(p)
        return ValuationLawResult(p, n, order, BRANCH_RANK_DIVIDES)
    return ValuationLawResult(p, n, 0, BRANCH_RANK_MISSES)


def vp_lucas(p: int, n: int) -> ValuationLawResult:
    """Order of prime p != 5 in L_n.

    p = 2 branches on n mod 6.  An odd prime divides a Lucas number only
    when z(p) is even and n sits in the half-rank class z(p)/2 mod z(p),
    where it contributes v_p(n) + v_p(F_z(p)).  A non-prime p raises
    ValueError through rank_of_apparition_prime.

    p = 5 is rejected with ValueError: no Lucas number is divisible by 5
    (v_5(L_n) = 0 for every n), so no route ever asks for it.
    """
    if p == 5:
        raise ValueError("p = 5 is rejected: no Lucas number is divisible by 5")
    _require_index(n)
    if p == 2:
        r = n % 6
        if r % 3 != 0:
            return ValuationLawResult(p, n, 0, BRANCH_L2_COPRIME)
        if r == 3:
            return ValuationLawResult(p, n, 2, BRANCH_L2_DOUBLE)
        return ValuationLawResult(p, n, 1, BRANCH_L2_SINGLE)
    z = rank_of_apparition_prime(p)
    if z % 2 == 0 and n % z == z // 2:
        order = v_int(p, n) + vp_fib_at_rank(p)
        return ValuationLawResult(p, n, order, BRANCH_HALF_RANK)
    return ValuationLawResult(p, n, 0, BRANCH_NO_HALF_RANK)
