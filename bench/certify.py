"""Answer checker for the benchmark, independent of the fibrank package.

It uses the standard library only and its own fast doubling modulo m.
It never calls fibrank's ``fib_mod``, its valuation laws or its oracle,
so an answer the benchmark times is judged by arithmetic that the code
under test does not share.

For a run b = T_n T_{n+1} ... T_{n+k} (T = F or L), strong divisibility
gives {i : b | F_i} = z(b)·Z.  So z is z(b) exactly when b | F_z and
b ∤ F_{z/q} for every prime q | z.  b | F_M is decided without forming b:

* F_m | F_M iff m | M for m >= 3, and L_m | F_M iff 2m | M for m >= 2
  (F_1 = F_2 = L_1 = 1 divide everything);
* a prime that divides two terms of the run divides F_d with d <= k
  (Fibonacci) or d <= 2k (Lucas), because gcd(F_i, F_j) = F_gcd(i, j)
  and L_i | F_2i.  So for every other prime the term that holds it
  already divides F_M, and only the primes of F_1 ... F_k
  (F_1 ... F_2k) need p^{v_p(b)} | F_M checked on its own.
"""

from __future__ import annotations

import math
from functools import lru_cache

SIEVE_LIMIT = 1 << 18  # trial division covers every z whose second-largest prime is below this


def fib_pair_mod(n: int, m: int) -> tuple[int, int]:
    """(F_n mod m, F_{n+1} mod m) by iterative fast doubling."""
    a, b = 0, 1 % m
    for bit in bin(n)[2:]:
        c = a * (2 * b - a) % m
        d = (a * a + b * b) % m
        if bit == "1":
            a, b = d, (c + d) % m
        else:
            a, b = c, d
    return a, b


def term_mod(family: str, i: int, m: int) -> int:
    """F_i or L_i = 2F_{i+1} - F_i, modulo m."""
    f, g = fib_pair_mod(i, m)
    return f if family == "fib" else (2 * g - f) % m


def primes_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]]


PRIMES = primes_below(SIEVE_LIMIT)


def prime_factors(n: int) -> list[int] | None:
    """Distinct prime factors of n >= 1 by trial division, or None when a
    cofactor above SIEVE_LIMIT**2 is left that trial division cannot split."""
    factors = []
    for p in PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            factors.append(p)
            while n % p == 0:
                n //= p
    else:
        if n >= SIEVE_LIMIT * SIEVE_LIMIT:
            return None
    if n > 1:
        factors.append(n)
    return factors


def _factor(n: int) -> list[int]:
    factors = prime_factors(n)
    if factors is None:
        raise ArithmeticError(f"cannot factor {n} by trial division")
    return factors


def _v_int(p: int, n: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


@lru_cache(maxsize=4096)  # neighbouring runs of a sweep share most terms
def term_valuation(family: str, i: int, p: int) -> int:
    """v_p(T_i) from T_i mod p^E, doubling E until the residue is nonzero
    (T_i >= 1, so it always becomes nonzero)."""
    exponent = max(1, 64 // p.bit_length())
    while True:
        r = term_mod(family, i, p ** exponent)
        if r:
            return _v_int(p, r)
        exponent *= 2


@lru_cache(maxsize=None)
def shared_primes(family: str, k: int) -> tuple[int, ...]:
    """Primes of F_1 ... F_k (F_1 ... F_2k for Lucas runs): the only primes
    that can divide two terms of a run of k+1 terms."""
    top = k if family == "fib" else 2 * k
    found: set[int] = set()
    a, b = 1, 1  # F_1, F_2
    for _ in range(top):
        found.update(prime_factors(a) or ())
        a, b = b, a + b
    return tuple(sorted(found))


class RunCertificate:
    """Decides b | F_M for one run b without forming b."""

    def __init__(self, family: str, n: int, k: int) -> None:
        if family not in ("fib", "lucas") or n < 1 or k < 1:
            raise ValueError(f"bad run ({family!r}, {n}, {k})")
        self.family = family
        step = 1 if family == "fib" else 2
        start = 3 if family == "fib" else 2
        self.index_divisors = [step * m for m in range(max(n, start), n + k + 1)]
        self.base = math.lcm(*range(n, n + k + 1)) * step
        self.valuations = {}
        for p in shared_primes(family, k):
            v = sum(term_valuation(family, n + i, p) for i in range(k + 1))
            if v:
                self.valuations[p] = v
        self.prime_powers = [p ** v for p, v in self.valuations.items()]

    def divides_fib(self, m: int) -> bool:
        """Whether b | F_m."""
        if any(m % d for d in self.index_divisors):
            return False
        return all(fib_pair_mod(m, q)[0] == 0 for q in self.prime_powers)

    def is_rank(self, z: object) -> bool:
        """Whether z = z(b): b | F_z and b ∤ F_{z/q} for each prime q | z."""
        if type(z) is not int or z < 1 or not self.divides_fib(z):
            return False
        factors = prime_factors(z)
        if factors is None:
            return False
        return not any(self.divides_fib(z // q) for q in factors)

    def rank(self) -> int:
        """z(b), by descent from the multiple base * prod z(p) p^{v_p(b)}
        over the shared primes (z(p^v) divides z(p) p^v).  Used to build
        inputs, never to check them."""
        m = self.base
        for p, v in self.valuations.items():
            m *= rank_of_prime(p) * p ** v
        if not self.divides_fib(m):
            raise ArithmeticError("the starting multiple is not a multiple of z(b)")
        for q in _factor(m):
            while m % q == 0 and self.divides_fib(m // q):
                m //= q
        return m


def accept_z(family: str, n: int, k: int, z: object) -> bool:
    """Whether z is the order of appearance of T_n ... T_{n+k}."""
    return RunCertificate(family, n, k).is_rank(z)


def accept_valuation(family: str, p: int, n: int, e: object) -> bool:
    """Whether p^e divides T_n and p^{e+1} does not."""
    if type(e) is not int or e < 0:
        return False
    r = term_mod(family, n, p ** (e + 1))
    return r != 0 and r % p ** e == 0


def rank_of_prime(p: int) -> int:
    """z(p) for a prime p, by descending from p - (5/p), which z(p)
    divides for p not in {2, 5}.  Used to build inputs, never to check them."""
    if p == 5:
        return 5
    if p == 2:
        return 3
    legendre = pow(5, (p - 1) // 2, p)
    z = p - 1 if legendre == 1 else p + 1
    for q in _factor(z):
        while z % q == 0 and fib_pair_mod(z // q, p)[0] == 0:
            z //= q
    return z
