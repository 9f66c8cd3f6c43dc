"""Run lcms: gcd recursion, closed forms, and the sequence analogues."""

import math
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrank import (
    cofactor_f,
    fib,
    g_rec,
    lcm_fib_run,
    lcm_lucas_run,
    lcm_run,
    lcm_run_closed,
    lucas,
    run_product,
)


def direct_lcm(values):
    return reduce(math.lcm, values)


def small_prime_factors(m):
    factors = []
    for p in (2, 3, 5, 7, 11, 13):
        if m % p == 0:
            factors.append(p)
            while m % p == 0:
                m //= p
    assert m == 1, "cofactor has an unexpectedly large prime factor"
    return factors


def test_g_rec_small_values():
    assert g_rec(7, 1) == 1
    assert g_rec(2, 2) == 2
    assert g_rec(5, 5) == 60


def test_g_rec_base_cases_are_one():
    for n in (1, 2, 9, 100):
        assert g_rec(n, 0) == 1
        assert g_rec(n, 1) == 1


def test_g_rec_divides_factorial():
    for n in range(1, 1001):
        factorial = 1
        for k in range(1, 9):
            factorial *= k
            assert factorial % g_rec(n, k) == 0


def test_lcm_run_closed_small_values():
    assert lcm_run_closed(3, 1) == 12
    assert lcm_run_closed(2, 4) == 60
    assert lcm_run_closed(1, 6) == 420


def test_lcm_run_small_values():
    assert lcm_run(1, 0) == 1
    assert lcm_run(6, 3) == 504
    assert lcm_run(10, 7) == 4084080


def test_lcm_run_equals_direct_folding():
    for n in range(1, 301):
        for k in range(9):
            assert lcm_run(n, k) == direct_lcm(range(n, n + k + 1)), (n, k)


def test_closed_forms_equal_the_recursion_route():
    for n in range(1, 3001):
        for k in range(1, 7):
            assert lcm_run_closed(n, k) == lcm_run(n, k), (n, k)


@given(n=st.integers(min_value=1, max_value=5000),
       k=st.integers(min_value=0, max_value=10))
@settings(max_examples=100, deadline=None)
def test_lcm_run_is_a_common_multiple_dividing_the_product(n, k):
    value = lcm_run(n, k)
    assert run_product(n, k) % value == 0
    for i in range(k + 1):
        assert value % (n + i) == 0


def test_run_bounds_are_enforced():
    with pytest.raises(ValueError):
        lcm_run(0, 3)
    with pytest.raises(ValueError):
        lcm_run(3, -1)
    for bad_k in (0, 7):
        with pytest.raises(ValueError):
            lcm_run_closed(3, bad_k)
        with pytest.raises(ValueError):
            lcm_fib_run(3, bad_k)
        with pytest.raises(ValueError):
            lcm_lucas_run(3, bad_k)


def test_fib_run_small_values():
    assert lcm_fib_run(4, 3) == 1560
    assert lcm_fib_run(3, 3) == 120
    assert lcm_fib_run(1, 5) == 120


def test_lucas_run_small_values():
    assert lcm_lucas_run(3, 3) == 2772
    assert lcm_lucas_run(1, 2) == 12
    product = math.prod(lucas(5 + i) for i in range(6))
    assert lcm_lucas_run(5, 5) == product // 6


def test_sequence_runs_equal_direct_folds():
    for n in range(1, 151):
        fib_values = [fib(n + i) for i in range(7)]
        lucas_values = [lucas(n + i) for i in range(7)]
        for k in range(1, 7):
            assert lcm_fib_run(n, k) == direct_lcm(fib_values[:k + 1]), (n, k)
            assert lcm_lucas_run(n, k) == direct_lcm(lucas_values[:k + 1]), (n, k)


def test_lucas_runs_starting_at_one_and_two():
    # the k = 4 divisor is keyed on n - 2, which is 0 or negative here;
    # the direct folds decide what the right reading is
    for n in (1, 2):
        for k in range(1, 7):
            values = [lucas(n + i) for i in range(k + 1)]
            assert lcm_lucas_run(n, k) == direct_lcm(values), (n, k)


def test_cofactor_is_the_product_over_the_folded_lcm():
    for family in ("fib", "lucas"):
        evaluate = fib if family == "fib" else lucas
        for n in range(1, 301):
            values = [evaluate(n + i) for i in range(10)]
            for k in range(1, 10):
                run = values[:k + 1]
                expected = math.prod(run) // direct_lcm(run)
                assert cofactor_f(n, k, family) == expected, (family, n, k)


@given(family=st.sampled_from(("fib", "lucas")),
       n=st.integers(min_value=1, max_value=20_000),
       k=st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_closed_cofactor_matches_the_run_at_large_n(family, n, k):
    evaluate = fib if family == "fib" else lucas
    run = [evaluate(n + i) for i in range(k + 1)]
    assert cofactor_f(n, k, family) == math.prod(run) // direct_lcm(run)


def test_cofactor_rejects_bad_runs():
    with pytest.raises(ValueError):
        cofactor_f(3, 4, "pell")
    with pytest.raises(ValueError):
        cofactor_f(0, 4)
    with pytest.raises(ValueError):
        cofactor_f(3, 0)


def test_cofactor_small_values():
    assert cofactor_f(4, 3, "fib") == 1
    assert cofactor_f(3, 3, "fib") == 2
    assert cofactor_f(1, 5, "lucas") == 6


def test_cofactor_primes_divide_at_least_two_run_members():
    for family in ("fib", "lucas"):
        evaluate = fib if family == "fib" else lucas
        for n in range(1, 101):
            for k in range(1, 7):
                for p in small_prime_factors(cofactor_f(n, k, family)):
                    hits = sum(1 for i in range(k + 1) if evaluate(n + i) % p == 0)
                    assert hits >= 2, (family, n, k, p)
