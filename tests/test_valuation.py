"""Valuation laws: closed-form p-adic orders against direct factoring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibrank import (
    ScanBoundError,
    fib,
    fib_mod,
    is_prime,
    rank_of_apparition_prime,
    v_int,
    vp_fib,
    vp_fib_at_rank,
    vp_lucas,
)
from fibrank import fibstruct, valuation
from fibrank.bigmath import prime_factors
from fibrank.valuation import (
    BRANCH_F2_COPRIME,
    BRANCH_F2_FULL,
    BRANCH_F2_HALF,
    BRANCH_F5,
    BRANCH_HALF_RANK,
    BRANCH_L2_COPRIME,
    BRANCH_L2_DOUBLE,
    BRANCH_L2_SINGLE,
    BRANCH_NO_HALF_RANK,
    BRANCH_RANK_DIVIDES,
    BRANCH_RANK_MISSES,
)

PRIMES = (2, 3, 5, 7, 11, 13, 17)


def test_rank_examples():
    assert rank_of_apparition_prime(2) == 3
    assert rank_of_apparition_prime(5) == 5
    assert rank_of_apparition_prime(7) == 8
    assert rank_of_apparition_prime(11) == 10


def test_rank_rejects_composites():
    for bad in (1, 4, 6, 561):
        with pytest.raises(ValueError):
            rank_of_apparition_prime(bad)


def test_rank_is_the_first_zero_residue_and_within_bound():
    for p in range(2, 20_000):
        if not is_prime(p):
            continue
        first = None
        a, b = 0, 1
        for i in range(1, 6 * p + 1):
            a, b = b, (a + b) % p
            if a == 0:
                first = i
                break
        z = rank_of_apparition_prime(p)
        assert z == first, p
        assert z <= 6 * p


def test_rank_of_a_prime_the_scan_cannot_reach():
    p = 3317044064679887385961813  # p ≡ 3 (mod 5), so (5/p) = -1
    z = rank_of_apparition_prime(p)
    assert (p + 1) % z == 0
    assert fib_mod(z, p) == 0
    assert all(fib_mod(z // q, p) != 0 for q in prime_factors(z))


def test_rank_never_scans(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("z_oracle called")

    monkeypatch.setattr(fibstruct, "z_oracle", no_scan)
    monkeypatch.setattr(valuation, "z_oracle", no_scan, raising=False)
    rank_of_apparition_prime.cache_clear()
    assert [rank_of_apparition_prime(p) for p in (2, 3, 5, 7, 89, 10000019)] == [
        3, 4, 5, 8, 11, 10000018]
    assert vp_fib(10000019, 10000018 * 7).order == 1


def test_vp_fib_examples_with_branches():
    result = vp_fib(2, 6)
    assert (result.order, result.branch) == (3, BRANCH_F2_FULL)
    assert (result.p, result.n) == (2, 6)
    assert vp_fib(5, 25).order == 2
    assert vp_fib(5, 25).branch == BRANCH_F5
    assert vp_fib(7, 8).order == 1
    assert vp_fib(3, 7).order == 0
    assert vp_fib(3, 7).branch == BRANCH_RANK_MISSES
    assert vp_fib(2, 3).order == 1
    assert vp_fib(2, 3).branch == BRANCH_F2_HALF
    assert vp_fib(2, 4).order == 0
    assert vp_fib(2, 4).branch == BRANCH_F2_COPRIME


def test_vp_lucas_examples_with_branches():
    result = vp_lucas(2, 3)
    assert (result.order, result.branch) == (2, BRANCH_L2_DOUBLE)
    assert vp_lucas(3, 2).order == 1
    assert vp_lucas(3, 2).branch == BRANCH_HALF_RANK
    assert vp_lucas(7, 4).order == 1
    assert vp_lucas(11, 1).order == 0
    assert vp_lucas(11, 1).branch == BRANCH_NO_HALF_RANK
    assert vp_lucas(2, 6).order == 1
    assert vp_lucas(2, 6).branch == BRANCH_L2_SINGLE
    assert vp_lucas(2, 1).order == 0
    assert vp_lucas(2, 1).branch == BRANCH_L2_COPRIME


def test_vp_lucas_has_no_five_adic_law():
    with pytest.raises(ValueError):
        vp_lucas(5, 7)


def test_no_lucas_number_is_divisible_by_five(lucas_table):
    # this fact is why the missing 5-adic Lucas law never hurts
    assert all(lucas_table[n] % 5 != 0 for n in range(1, 2001))


def test_laws_reject_non_prime_p_and_bad_indices():
    # lru_cache stores no exception: a composite p raises on every call
    for call in (lambda: vp_fib(9, 10), lambda: vp_fib(9, 10),
                 lambda: vp_lucas(9, 10), lambda: vp_fib_at_rank(9)):
        with pytest.raises(ValueError):
            call()
    with pytest.raises(ValueError):
        vp_fib(3, 0)
    with pytest.raises(ValueError):
        vp_lucas(3, 0)


def test_laws_test_a_prime_once(monkeypatch):
    calls = []

    def counting_is_prime(p):
        calls.append(p)
        return is_prime(p)

    monkeypatch.setattr(valuation, "is_prime", counting_is_prime)
    rank_of_apparition_prime.cache_clear()
    vp_fib_at_rank.cache_clear()
    for n in range(1, 301):
        vp_fib(89, n)
        vp_lucas(89, n)
    vp_fib_at_rank(89)
    assert calls == [89]


def test_a_fresh_prime_evaluates_each_residue_once(monkeypatch):
    calls = []

    def counting_fib_mod(n, m):
        calls.append((n, m))
        return fib_mod(n, m)

    monkeypatch.setattr(valuation, "fib_mod", counting_fib_mod)
    rank_of_apparition_prime.cache_clear()
    vp_fib_at_rank.cache_clear()
    # N = 88 halves three times to 11, then F_1 fails; F_88 is never needed
    assert rank_of_apparition_prime(89) == 11
    assert calls == [(44, 89), (22, 89), (11, 89), (1, 89)]
    calls.clear()
    assert vp_fib_at_rank(89) == 1
    assert calls == [(11, 89 * 89)]
    calls.clear()
    # N = 8 is z(7) itself: nothing is stripped, so F_8 is evaluated
    assert rank_of_apparition_prime(7) == 8
    assert calls == [(4, 7), (8, 7)]


@pytest.fixture
def fake_fib_mod(monkeypatch):
    """Install a fake fib_mod with z(89) cached; clear both caches after."""
    rank_of_apparition_prime(89)
    vp_fib_at_rank.cache_clear()
    yield lambda fake: monkeypatch.setattr(valuation, "fib_mod", fake)
    rank_of_apparition_prime.cache_clear()
    vp_fib_at_rank.cache_clear()


def test_constant_at_rank_reads_higher_orders_and_errors(fake_fib_mod):
    p = 89
    fake_fib_mod(lambda n, m: 0 if m <= p**2 else p**2)
    assert vp_fib_at_rank(p) == 2
    vp_fib_at_rank.cache_clear()
    fake_fib_mod(lambda n, m: 0)
    with pytest.raises(ScanBoundError, match="exceeds 64"):
        vp_fib_at_rank(p)
    fake_fib_mod(lambda n, m: 1)
    with pytest.raises(ScanBoundError, match="inconsistent"):
        vp_fib_at_rank(p)


def test_rank_raises_when_p_divides_no_term(fake_fib_mod):
    fake_fib_mod(lambda n, m: 1)
    rank_of_apparition_prime.cache_clear()
    for p in (7, 89):
        with pytest.raises(ScanBoundError, match="does not divide"):
            rank_of_apparition_prime(p)


def test_laws_match_direct_factoring(fib_table, lucas_table):
    for n in range(1, 601):
        for p in PRIMES:
            assert vp_fib(p, n).order == v_int(p, fib_table[n]), (p, n)
            if p != 5:
                assert vp_lucas(p, n).order == v_int(p, lucas_table[n]), (p, n)


@given(n=st.integers(min_value=1, max_value=3000),
       p=st.sampled_from((2, 3, 5, 7, 11, 13, 17, 29, 47)))
@settings(max_examples=60, deadline=None)
def test_fib_law_matches_factoring_at_random_points(n, p):
    assert vp_fib(p, n).order == v_int(p, fib(n))


def test_positive_order_exactly_on_rank_multiples():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        z = rank_of_apparition_prime(p)
        for n in range(1, 501):
            assert (vp_fib(p, n).order > 0) == (n % z == 0), (p, n)


def test_exactly_one_branch_fires_per_input():
    for n in range(1, 301):
        expected_fib2 = (BRANCH_F2_COPRIME if n % 3 else
                         BRANCH_F2_HALF if n % 6 == 3 else BRANCH_F2_FULL)
        assert vp_fib(2, n).branch == expected_fib2
        assert vp_fib(5, n).branch == BRANCH_F5
        expected_lucas2 = (BRANCH_L2_COPRIME if n % 3 else
                           BRANCH_L2_DOUBLE if n % 6 == 3 else BRANCH_L2_SINGLE)
        assert vp_lucas(2, n).branch == expected_lucas2
        for p in (3, 7, 11, 13):
            z = rank_of_apparition_prime(p)
            assert vp_fib(p, n).branch == (
                BRANCH_RANK_DIVIDES if n % z == 0 else BRANCH_RANK_MISSES)
            if z % 2 == 0 and n % z == z // 2:
                assert vp_lucas(p, n).branch == BRANCH_HALF_RANK
            else:
                assert vp_lucas(p, n).branch == BRANCH_NO_HALF_RANK


def test_constant_at_rank_matches_direct_factoring():
    for p in range(3, 201):
        if not is_prime(p) or p == 5:
            continue
        z = rank_of_apparition_prime(p)
        assert vp_fib_at_rank(p) == v_int(p, fib(z))
        assert vp_fib_at_rank(p) >= 1


def test_constant_at_rank_rejects_the_explicit_laws():
    for p in (2, 5):
        with pytest.raises(ValueError):
            vp_fib_at_rank(p)
