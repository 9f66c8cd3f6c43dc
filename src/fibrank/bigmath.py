"""Arbitrary-precision integer primitives.

Fibonacci and Lucas evaluation by fast doubling (plain and modular),
p-adic valuation of integers, a Miller-Rabin primality check, and a
factoriser (trial division, then Pollard rho) for the distinct primes
of an integer.

Conventions: F_0 = 0, F_1 = F_2 = 1 and L_0 = 2, L_1 = 1, L_2 = 3.
"""

from __future__ import annotations

from itertools import chain, count
from math import gcd


def _fib_pair(n: int, m: int | None = None) -> tuple[int, int]:
    """(F_n, F_{n+1}) by fast doubling over the bits of n, high to low,
    with every step reduced mod m when a modulus is given."""
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
        if m is not None:
            a, b = a % m, b % m
    return a, b


def fib(n: int) -> int:
    """F_n via fast doubling; O(log n) big-integer multiplications.

    >>> fib(10)
    55
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    return _fib_pair(n)[0]


def lucas(n: int) -> int:
    """L_n = 2*F_{n+1} - F_n.

    >>> lucas(6)
    18
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    a, b = _fib_pair(n)
    return 2 * b - a


def fib_pair_mod(n: int, m: int) -> tuple[int, int]:
    """(F_n mod m, F_{n+1} mod m) by fast doubling in residues."""
    if n < 0:
        raise ValueError("index must be non-negative")
    if m < 1:
        raise ValueError("modulus must be positive")
    return _fib_pair(n, m)


def fib_mod(n: int, m: int) -> int:
    """F_n mod m without materializing F_n."""
    return fib_pair_mod(n, m)[0]


def v_int(p: int, n: int) -> int:
    """Largest e such that p**e divides n.

    n = 0 is rejected (the order would be infinite).
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if n < 0:
        n = -n
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Trial division by the prime bases 2..41, then Miller-Rabin in two
    tiers.

    Below 3215031751 the bases 2, 3, 5, 7 are deterministic (Jaeschke,
    Math. Comp. 1993); 3215031751 = 151 * 751 * 28351 is the least strong
    pseudoprime to all four.  From there on all thirteen bases 2..41 run,
    deterministic below psi_13 = 3317044064679887385961981 (about 3.3e24;
    Sorenson and Webster, Math. Comp. 2017); above that bound it is a
    strong probable-prime test.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = ((d & -d).bit_length()) - 1
    d >>= s
    for a in _MR_WITNESSES if n >= 3215031751 else _MR_WITNESSES[:4]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _large_primes(n: int) -> set[int]:
    """Distinct primes of n > 1, which has no prime below 1000: Floyd's
    Pollard rho on x -> x^2 + c, trying the next c when it finds only n."""
    if is_prime(n):
        return {n}
    for c in count(1):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(x - y, n)
        if g != n:
            return _large_primes(g) | _large_primes(n // g)


def prime_factors(n: int) -> list[int]:
    """Sorted distinct primes of n >= 1: trial division by 2 and the odd
    numbers below 1000 until p*p > n, then Pollard rho until every part
    passes is_prime.  A survivor of the trial division that stops at
    p*p > n has no prime below p, so it is 1 or a prime, and it is
    returned as it is; only one that outlasts the candidates goes on to
    is_prime and rho.

    >>> prime_factors(2 * 104729)
    [2, 104729]
    >>> prime_factors(2 ** 10 * 5 * 104600155609 * 3317044064679887385961813)
    [2, 5, 104600155609, 3317044064679887385961813]
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    primes = []
    for p in chain((2,), range(3, 1000, 2)):
        if p * p > n:
            return primes + [n] if n > 1 else primes
        if n % p == 0:
            primes.append(p)
            n //= p ** v_int(p, n)
    return primes + sorted(_large_primes(n))
