"""Structural identities and the residue-scan oracle for z(m)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrank import (
    BudgetExceededError,
    GcdCaseResult,
    fib,
    fib_divides,
    gcd_fib,
    gcd_fib_lucas,
    gcd_lucas_lucas,
    lucas_divides_fib,
    z_oracle,
)
from fibrank.fibstruct import CASE_BOTH_ODD, CASE_MIXED_PARITY, CASE_ONE, CASE_TWO


def test_fib_divides_examples():
    assert fib_divides(3, 6)
    assert not fib_divides(4, 6)
    assert fib_divides(5, 25)
    assert fib_divides(4, 12)


def test_fib_divides_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        fib_divides(2, 10)
    with pytest.raises(ValueError):
        fib_divides(3, 0)


def test_fib_divides_matches_big_integer_divisibility(fib_table):
    for n in range(3, 61):
        for m in range(1, 121):
            assert fib_divides(n, m) == (fib_table[m] % fib_table[n] == 0), (n, m)


def test_gcd_fib_examples():
    assert gcd_fib(12, 18) == 8
    assert gcd_fib(7, 11) == 1
    assert gcd_fib(5, 10) == 5
    with pytest.raises(ValueError):
        gcd_fib(0, 3)


def test_gcd_fib_matches_direct_gcd(fib_table):
    for m in range(1, 101):
        for n in range(1, 101):
            assert gcd_fib(m, n) == math.gcd(fib_table[m], fib_table[n])


def test_lucas_divides_fib_examples():
    assert lucas_divides_fib(2, 4)
    assert lucas_divides_fib(3, 6)
    assert not lucas_divides_fib(3, 9)
    with pytest.raises(ValueError):
        lucas_divides_fib(1, 2)
    with pytest.raises(ValueError):
        lucas_divides_fib(3, 0)


def test_lucas_divides_fib_matches_big_integers(fib_table, lucas_table):
    for n in range(2, 61):
        for m in range(1, 241):
            assert lucas_divides_fib(n, m) == (fib_table[m] % lucas_table[n] == 0)


def test_lucas_gcd_examples():
    assert gcd_lucas_lucas(3, 9) == GcdCaseResult(4, CASE_BOTH_ODD)
    assert gcd_lucas_lucas(3, 6) == GcdCaseResult(2, CASE_TWO)
    assert gcd_lucas_lucas(2, 4) == GcdCaseResult(1, CASE_ONE)
    with pytest.raises(ValueError):
        gcd_lucas_lucas(0, 1)


def test_mixed_gcd_examples():
    assert gcd_fib_lucas(6, 3) == GcdCaseResult(4, CASE_MIXED_PARITY)
    assert gcd_fib_lucas(3, 3) == GcdCaseResult(2, CASE_TWO)
    assert gcd_fib_lucas(5, 4) == GcdCaseResult(1, CASE_ONE)
    with pytest.raises(ValueError):
        gcd_fib_lucas(1, 0)


def test_gcd_cases_match_direct_gcds_with_consistent_labels(fib_table, lucas_table):
    for m in range(1, 81):
        for n in range(1, 81):
            d = math.gcd(m, n)
            both = gcd_lucas_lucas(m, n)
            assert both.value == math.gcd(lucas_table[m], lucas_table[n]), (m, n)
            if (m // d) % 2 and (n // d) % 2:
                assert both.case_label == CASE_BOTH_ODD
                assert both.value == lucas_table[d]
            else:
                assert both.case_label == (CASE_TWO if d % 3 == 0 else CASE_ONE)
            mixed = gcd_fib_lucas(m, n)
            assert mixed.value == math.gcd(fib_table[m], lucas_table[n]), (m, n)
            if (m // d) % 2 == 0 and (n // d) % 2 == 1:
                assert mixed.case_label == CASE_MIXED_PARITY
                assert mixed.value == lucas_table[d]
            else:
                assert mixed.case_label == (CASE_TWO if d % 3 == 0 else CASE_ONE)


def test_z_oracle_examples():
    assert z_oracle(1) == 1
    assert z_oracle(5) == 5
    assert z_oracle(10) == 15
    assert z_oracle(30) == 60


def test_z_oracle_rejects_non_positive_m():
    with pytest.raises(ValueError):
        z_oracle(0)


def test_z_oracle_finds_the_first_divisible_index():
    for m in range(1, 2001):
        z = z_oracle(m)
        first = None
        a, b = 0, 1 % m
        for i in range(1, z + 1):
            a, b = b, (a + b) % m
            if a == 0:
                first = i
                break
        assert first == z, m


def test_z_oracle_is_multiplicative_over_coprime_factors():
    cache = {m: z_oracle(m) for m in range(1, 201)}
    for m1 in range(2, 201):
        for m2 in range(m1 + 1, 201):
            if math.gcd(m1, m2) == 1:
                assert z_oracle(m1 * m2) == math.lcm(cache[m1], cache[m2]), (m1, m2)


def test_z_oracle_budget_guard():
    with pytest.raises(BudgetExceededError) as caught:
        z_oracle(1000, max_steps=10)
    assert caught.value.budget == 10
    assert z_oracle(1000, max_steps=2000) == 750  # lcm(z(8), z(125)) = lcm(6, 125)


def test_z_oracle_handles_huge_moduli():
    # z(F_n) = n for n >= 3; the scan only ever holds two residues
    for n in (50, 300):
        assert z_oracle(fib(n)) == n


@given(n=st.integers(min_value=3, max_value=400))
@settings(max_examples=30, deadline=None)
def test_z_oracle_inverts_fib(n):
    assert z_oracle(fib(n)) == n
