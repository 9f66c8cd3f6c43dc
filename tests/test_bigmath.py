"""Arithmetic primitives: fast doubling, modular evaluation, valuations."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrank import fib, fib_mod, gcd, is_prime, lcm, lucas, v_int
from fibrank.bigmath import fib_pair_mod, prime_factors


def test_fib_base_values():
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(2) == 1
    assert fib(10) == 55


def test_lucas_base_values():
    assert lucas(0) == 2
    assert lucas(1) == 1
    assert lucas(2) == 3
    assert lucas(6) == 18


def test_negative_indices_are_rejected():
    for evaluate in (fib, lucas):
        with pytest.raises(ValueError):
            evaluate(-1)


def test_recurrence_holds_to_2000(fib_table, lucas_table):
    for n in range(1, 2001):
        assert fib(n) == fib_table[n]
        assert lucas(n) == lucas_table[n]
        assert fib_table[n + 1] == fib_table[n] + fib_table[n - 1]
        assert lucas_table[n + 1] == lucas_table[n] + lucas_table[n - 1]


def test_lucas_is_the_neighbour_sum_of_fib(fib_table):
    for n in range(1, 2001):
        assert lucas(n) == fib_table[n - 1] + fib_table[n + 1]


def test_fast_doubling_matches_naive_iteration():
    a, b = 0, 1
    for n in range(10_001):
        assert fib(n) == a
        a, b = b, a + b


@given(n=st.integers(min_value=2, max_value=200_000))
@settings(max_examples=40, deadline=None)
def test_recurrence_at_random_large_indices(n):
    assert fib(n + 1) == fib(n) + fib(n - 1)
    assert lucas(n) == 2 * fib(n + 1) - fib(n)


def test_fib_mod_agrees_with_exact_values():
    for n in (0, 1, 2, 3, 59, 60, 1000, 12345):
        exact = fib(n)
        for m in (1, 2, 3, 10, 97, 10**9 + 7, 2**61 - 1):
            assert fib_mod(n, m) == exact % m
        assert fib_pair_mod(n, 1) == (0, 0)


@given(n=st.integers(min_value=0, max_value=30_000),
       m=st.integers(min_value=1, max_value=10**12))
@settings(max_examples=80, deadline=None)
def test_fib_pair_mod_matches_plain_evaluation(n, m):
    low, high = fib_pair_mod(n, m)
    assert low == fib(n) % m
    assert high == fib(n + 1) % m


def test_fib_mod_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fib_mod(-1, 5)
    with pytest.raises(ValueError):
        fib_mod(5, 0)


def test_gcd_lcm_basics_and_degenerate_inputs():
    assert gcd(12, 18) == 6
    assert lcm(4, 6) == 12
    assert gcd(0, 0) == 0
    assert lcm(4, 0) == 0
    assert gcd(fib(12), fib(18)) == 8


def test_v_int_examples():
    assert v_int(2, 12) == 2
    assert v_int(3, 12) == 1
    assert v_int(5, 7) == 0


def test_v_int_rejects_zero_and_tiny_base():
    with pytest.raises(ValueError):
        v_int(2, 0)
    with pytest.raises(ValueError):
        v_int(1, 12)
    with pytest.raises(ValueError):
        v_int(0, 12)


def test_v_int_uses_the_magnitude_of_negatives():
    assert v_int(2, -8) == 3
    assert v_int(3, -5) == 0


def test_v_int_extracts_the_exact_prime_power():
    for n in range(1, 501):
        value = fib(n)
        for p in (2, 3, 5, 7, 13):
            e = v_int(p, value)
            assert value % p**e == 0
            assert value % p**(e + 1) != 0


def test_is_prime_matches_a_sieve_below_10000():
    limit = 10_000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    for n in range(limit):
        assert is_prime(n) == sieve[n], n


def test_is_prime_on_carmichael_numbers_and_large_inputs():
    assert not is_prime(561)
    assert not is_prime(1105)
    assert not is_prime(1729)
    assert is_prime(2**61 - 1)
    assert is_prime(2**89 - 1)
    assert not is_prime(2**67 - 1)
    assert not is_prime((2**61 - 1) * (2**89 - 1))
    # a strong pseudoprime to every prime base up to 37; base 41 exposes it
    assert not is_prime(318665857834031151167461)  # 399165290221 * 798330580441
    # the least strong pseudoprime to bases 2, 3, 5, 7: the first n that
    # needs the thirteen-base tier
    bound = 3215031751  # 151 * 751 * 28351
    assert not is_prime(bound)
    for n in range(bound - 200, bound + 201, 2):
        by_trial = all(n % d for d in range(3, math.isqrt(n) + 1, 2))
        assert is_prime(n) == by_trial, n


def test_thousand_digit_values_round_trip_decimal_strings():
    value = fib(10_000)
    text = str(value)
    assert len(text) == 2090
    assert int(text) == value


def test_fib_at_ten_million_is_feasible():
    value = fib(10**7)
    assert value.bit_length() == 6942418
    assert value % 10**9 == fib_mod(10**7, 10**9)


def test_prime_factors_against_trial_division_and_rho_products():
    for n in range(1, 3000):
        expected = [p for p in range(2, n + 1) if n % p == 0 and is_prime(p)]
        assert prime_factors(n) == expected, n
    large = [p for p in range(1000, 1100) if is_prime(p)]
    for p in large:
        for q in large:
            assert prime_factors(6 * p * q**3) == sorted({2, 3, p, q}), (p, q)
    assert prime_factors(1000003 * 10000019**2 * (2**89 - 1)) == [
        1000003, 10000019, 2**89 - 1]
    with pytest.raises(ValueError):
        prime_factors(0)
