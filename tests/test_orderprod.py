"""Three routes to z of a product of consecutive Fibonacci/Lucas numbers.

The closed-form residue tables, the per-prime valuation matcher and the
big-integer scanning oracle must agree wherever they overlap; these
tests hold them to that and pin the table data itself.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fibrank.lcmkit
import fibrank.orderprod
from fibrank import (
    BudgetExceededError,
    DEFAULT_ORACLE_BUDGET,
    ProductSpec,
    ZResult,
    corollary_plain_form,
    corollary_table,
    fib_mod,
    is_prime,
    theorem_table,
    z_oracle,
    z_product_closed,
    z_product_general,
    z_product_oracle,
)
from fibrank.orderprod import (
    BUDGET_ENV_VAR,
    base_a,
    resolve_budget,
    run_product_value,
)

FAMILIES = ("fib", "lucas")


def _rho_divisor(m):
    """A proper divisor of the odd composite m by Pollard's rho."""
    for c in itertools.count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % m
            y = (y * y + c) % m
            y = (y * y + c) % m
            d = math.gcd(x - y, m)
        if d != m:
            return d


def distinct_primes(m):
    """Sorted distinct primes of m: trial division below 1000, Pollard's
    rho above, splitting until every part passes is_prime."""
    primes = {p for p in range(2, 1000) if m % p == 0 and is_prime(p)}
    for p in primes:
        while m % p == 0:
            m //= p
    parts = [m] if m > 1 else []
    while parts:
        part = parts.pop()
        if is_prime(part):
            primes.add(part)
        else:
            d = _rho_divisor(part)
            parts += [d, part // d]
    return sorted(primes)


def test_product_spec_validates_its_fields():
    with pytest.raises(ValueError):
        ProductSpec("pell", 3, 4)
    with pytest.raises(ValueError):
        ProductSpec("fib", 0, 4)
    with pytest.raises(ValueError):
        ProductSpec("fib", 3, 0)


def test_zresult_rejects_inconsistent_decompositions():
    with pytest.raises(ValueError):
        ZResult(z=10, base_a=3, multiplier_j=3, extra_c=1, route="oracle")


def test_run_product_value_and_base():
    spec = ProductSpec("fib", 1, 4)
    assert run_product_value(spec) == 30  # 1 * 1 * 2 * 3 * 5
    assert base_a(spec) == 60
    lucas_spec = ProductSpec("lucas", 1, 4)
    assert run_product_value(lucas_spec) == 1 * 3 * 4 * 7 * 11
    assert base_a(lucas_spec) == 120  # doubled run lcm
    # F_1 = F_2 = 1 are left out, which changes a on three runs only
    assert [base_a(ProductSpec("fib", n, k))
            for n, k in ((1, 1), (1, 2), (2, 1))] == [1, 3, 3]


def test_closed_route_fibonacci_spot_values():
    result = z_product_closed(ProductSpec("fib", 1, 4))
    assert (result.z, result.base_a, result.multiplier_j, result.extra_c) == (60, 60, 1, 1)
    assert result.residue_case == "n≡1 (mod 12)"
    assert result.route == "closed_form"
    # the mod-72 refinements surface in the matched label when they fire
    assert z_product_closed(ProductSpec("fib", 8, 4)).residue_case == "n≡8 (mod 72)"
    assert z_product_closed(ProductSpec("lucas", 4, 4)).residue_case == "otherwise"


def test_closed_route_lucas_spot_values():
    result = z_product_closed(ProductSpec("lucas", 2, 4))
    assert result.multiplier_j == 3
    assert result.z == 3 * result.base_a
    assert z_product_closed(ProductSpec("lucas", 4, 4)).multiplier_j == 1


def test_result_routes_are_labelled():
    spec = ProductSpec("fib", 7, 5)
    assert z_product_closed(spec).route == "closed_form"
    assert z_product_general(spec).route == "general"
    assert z_product_oracle(spec).route == "oracle"
    assert z_product_general(spec).residue_case == ""


def test_extra_factor_tracks_the_five_adic_content():
    for n in range(1, 101):
        assert z_product_closed(ProductSpec("fib", n, 4)).extra_c == 1
        assert z_product_closed(ProductSpec("fib", n, 5)).extra_c == math.gcd(5, n)
        assert (z_product_closed(ProductSpec("fib", n, 6)).extra_c
                == math.gcd(5, n * (n + 1)))
        for k in (4, 5, 6):
            assert z_product_closed(ProductSpec("lucas", n, k)).extra_c == 1


def test_routes_agree_three_ways_at_small_inputs():
    for family in FAMILIES:
        for k in (4, 5, 6):
            for n in range(1, 7):
                spec = ProductSpec(family, n, k)
                values = {z_product_closed(spec).z,
                          z_product_general(spec).z,
                          z_product_oracle(spec).z}
                assert len(values) == 1, (family, n, k, values)


def test_closed_equals_general_to_2000():
    for family in FAMILIES:
        for k in (4, 5, 6):
            for n in range(1, 2001):
                spec = ProductSpec(family, n, k)
                closed = z_product_closed(spec)
                general = z_product_general(spec)
                assert closed.z == general.z, (family, n, k, closed, general)


@given(family=st.sampled_from(FAMILIES),
       n=st.integers(min_value=1, max_value=50_000),
       k=st.sampled_from((4, 5, 6)))
@settings(max_examples=60, deadline=None)
def test_closed_equals_general_at_random_points(family, n, k):
    spec = ProductSpec(family, n, k)
    assert z_product_closed(spec).z == z_product_general(spec).z


def test_general_route_covers_short_runs():
    for family in FAMILIES:
        for k in (1, 2, 3):
            for n in range(1, 16):
                spec = ProductSpec(family, n, k)
                assert z_product_general(spec).z == z_product_oracle(spec).z, (family, n, k)


def test_general_route_covers_runs_that_start_at_a_unit_term():
    for family in FAMILIES:
        for n in (1, 2):
            for k in range(1, 9):
                spec = ProductSpec(family, n, k)
                general = z_product_general(spec)
                assert general.route == "general", (family, n, k)
                assert general.z % general.base_a == 0, (family, n, k)
                assert general.z == z_product_oracle(spec).z, (family, n, k)


def test_short_prefix_products_take_the_general_route():
    # F_1 = F_2 = 1 impose no constraint, so a leaves their indices out
    # and the general route needs no scan
    result = z_product_general(ProductSpec("fib", 2, 1))
    assert (result.z, result.base_a, result.multiplier_j, result.extra_c) == (3, 3, 1, 1)
    assert result.route == "general"
    lucas_result = z_product_oracle(ProductSpec("lucas", 1, 4))
    assert lucas_result.z == z_oracle(1 * 3 * 4 * 7 * 11)


def test_stored_tables_cover_every_index_exactly_once():
    tables = [theorem_table(family, k) for family in FAMILIES for k in (4, 5, 6)]
    tables += [corollary_table("fib", 4), corollary_table("fib", 5)]
    for table in tables:
        has_fallback = any(branch.otherwise for branch in table.branches)
        # lookup takes the first branch that fits, so a fallback must be last
        assert not any(branch.otherwise for branch in table.branches[:-1])
        for n in range(1, 433):
            hits = [branch for branch in table.branches
                    if not branch.otherwise and branch.matches(n)]
            if has_fallback:
                assert len(hits) <= 1, (table.family, table.k, table.variant, n)
            else:
                assert len(hits) == 1, (table.family, table.k, table.variant, n)


def test_table_branch_labels_read_naturally():
    table = theorem_table("fib", 4)
    assert table.branches[0].case_label == "n≡1,2,3,4,5,6,7,10 (mod 12) or n≡8,60 (mod 72)"
    assert theorem_table("lucas", 4).branches[1].case_label == "otherwise"
    assert table.branches[0].multiplier.label("a") == "a"
    assert table.branches[1].multiplier.label("a") == "2a"
    k6 = theorem_table("fib", 6)
    labels = [branch.multiplier.label(k6.c_suffix()) for branch in k6.branches]
    assert "1728ac/((64,n+2)(27,n(n+3)))" in labels
    assert "432ac/((27,n(n+3)))" in labels


def test_corollary_variant_agrees_with_theorem_variant():
    for k in (4, 5):
        for n in range(1, 433):
            spec = ProductSpec("fib", n, k)
            assert (z_product_closed(spec, variant="corollary").z
                    == z_product_closed(spec, variant="theorem").z), (n, k)


def test_plain_product_form_agrees_with_the_table():
    for n in range(1, 433):
        assert corollary_plain_form(n) == z_product_closed(ProductSpec("fib", n, 4)).z
    with pytest.raises(ValueError):
        corollary_plain_form(0)


def test_unknown_closed_forms_are_rejected():
    with pytest.raises(ValueError):
        theorem_table("fib", 7)
    with pytest.raises(ValueError):
        corollary_table("lucas", 4)
    with pytest.raises(ValueError):
        z_product_closed(ProductSpec("fib", 3, 4), variant="folklore")
    with pytest.raises(ValueError):
        z_product_closed(ProductSpec("fib", 3, 3))


def test_z_divides_its_product_with_per_prime_minimality():
    """b | F_z and b does not divide F_{z/p} for any prime p | z.

    Together these prove z is exactly the order of appearance of b,
    via modular fast doubling only (no valuation laws involved).  The
    closed tables are checked, and the general route on long runs
    (k >= 20), whose cofactors carry large primes that only the
    rank-class split finds quickly (fib n = 1, k = 100 among them).
    """
    cells = [("fib", n, k) for n in range(3, 16) for k in (4, 5, 6)]
    cells += [("lucas", n, k) for n in range(3, 14) for k in (4, 5)]
    # 2-adic corner of the k = 6 table, where the correction to the
    # residue-table multiplier (16, not 8) lives:
    cells += [("fib", 18, 6), ("fib", 42, 6)]
    checks = [(z_product_closed, cell) for cell in cells]
    checks += [(z_product_general, (family, n, k)) for family in FAMILIES
               for n in (1, 3, 10) for k in (20, 24, 30, 64)]
    checks += [(z_product_general, ("fib", 1, 100))]
    for route, (family, n, k) in checks:
        spec = ProductSpec(family, n, k)
        result = route(spec)
        product = run_product_value(spec)
        assert fib_mod(result.z, product) == 0, (family, n, k)
        for p in distinct_primes(result.z):
            assert fib_mod(result.z // p, product) != 0, (family, n, k, p)


def test_general_route_evaluates_the_run_only_past_k_6(monkeypatch):
    indices = []

    def recording(evaluate):
        def wrapper(i):
            indices.append(i)
            return evaluate(i)
        return wrapper

    for module in (fibrank.lcmkit, fibrank.orderprod):
        for name in ("fib", "lucas"):
            monkeypatch.setattr(module, name, recording(getattr(module, name)))
    for family in FAMILIES:
        for k in range(1, 7):
            z_product_general(ProductSpec(family, 1000, k))
        assert max(indices, default=0) <= 6, family
        indices.clear()
        z_product_general(ProductSpec(family, 1000, 9))
        # k > 6: the run is evaluated once, nothing else past index 6
        assert sorted(i for i in indices if i > 6) == list(range(1000, 1010)), family
        indices.clear()


def test_oracle_route_refuses_over_budget_scans():
    spec = ProductSpec("lucas", 13, 6)
    expected = z_product_general(spec).z
    assert expected == 126_977_760
    with pytest.raises(BudgetExceededError) as caught:
        z_product_oracle(spec, budget=10**6)
    assert caught.value.estimate == expected
    assert caught.value.budget == 10**6


def test_budget_resolution_order(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    assert resolve_budget(None) == DEFAULT_ORACLE_BUDGET
    monkeypatch.setenv(BUDGET_ENV_VAR, "12345")
    assert resolve_budget(None) == 12345
    assert resolve_budget(777) == 777
    monkeypatch.setenv(BUDGET_ENV_VAR, "0")
    with pytest.raises(ValueError):
        resolve_budget(None)
    monkeypatch.setenv(BUDGET_ENV_VAR, "junk")
    with pytest.raises(ValueError):
        resolve_budget(None)


def test_environment_budget_reaches_the_oracle(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "100")
    with pytest.raises(BudgetExceededError):
        z_product_oracle(ProductSpec("fib", 4, 4))
