"""Self-test of the benchmark's answer checker.

For every run with n <= 10 and k <= 8, both families, z(b) is found by
scanning F_i mod b (b formed exactly, here only) under a step budget.
On every cell the scan settles, the checker must accept z, reject z*q
for q in {2, 3, 5, 7} and reject z/q for every prime q | z.  Valuation
answers are checked the same way: e accepted, e - 1 and e + 1 rejected.

    python3 bench/selftest.py

Exits 0 and prints one summary line when every assertion holds.
"""

from __future__ import annotations

import sys
import time

import certify

BUDGET = 2 * 10 ** 6


def _scan_rank(b: int, budget: int) -> int | None:
    if b == 1:
        return 1
    a, c = 1, 1 % b  # F_1, F_2
    for i in range(3, budget + 1):
        a, c = c, (a + c) % b
        if c == 0:
            return i
    return None


def _term(family: str, i: int) -> int:
    return certify.term_mod(family, i, 1 << (i + 2))  # T_i < 2^(i+2), so exact


def check_cells(max_n: int = 10, max_k: int = 8, budget: int = BUDGET) -> tuple[int, int]:
    settled = skipped = 0
    for family in ("fib", "lucas"):
        for n in range(1, max_n + 1):
            for k in range(1, max_k + 1):
                b = 1
                for i in range(n, n + k + 1):
                    b *= _term(family, i)
                z = _scan_rank(b, budget)
                if z is None:
                    skipped += 1
                    continue
                cert = certify.RunCertificate(family, n, k)
                cell = (family, n, k, z)
                assert cert.is_rank(z), f"rejected the true z: {cell}"
                for q in (2, 3, 5, 7):
                    assert not cert.is_rank(z * q), f"accepted z*{q}: {cell}"
                for q in certify.prime_factors(z):
                    assert not cert.is_rank(z // q), f"accepted z/{q}: {cell}"
                settled += 1
    return settled, skipped


def check_valuations() -> int:
    checked = 0
    for family in ("fib", "lucas"):
        for p in (2, 3, 5, 7, 11, 47, 1597):
            for n in range(1, 200):
                t = _term(family, n)
                e = 0
                while t % p == 0:
                    t //= p
                    e += 1
                assert certify.accept_valuation(family, p, n, e), (family, p, n, e)
                assert not certify.accept_valuation(family, p, n, e + 1), (family, p, n, e)
                if e:
                    assert not certify.accept_valuation(family, p, n, e - 1), (family, p, n, e)
                checked += 1
    return checked


def check_prime_ranks() -> int:
    for p in certify.PRIMES[:300]:
        f, g, i = 1 % p, 1 % p, 2  # F_1, F_2
        while f:
            f, g, i = g, (f + g) % p, i + 1
        assert certify.rank_of_prime(p) == i - 1, p
    return 300


def main() -> int:
    started = time.perf_counter()
    settled, skipped = check_cells()
    valuations = check_valuations()
    ranks = check_prime_ranks()
    print(f"selftest ok: {settled} cells certified ({skipped} over the scan budget "
          f"{BUDGET}), {valuations} valuations, {ranks} prime ranks "
          f"[{time.perf_counter() - started:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
