"""Order of appearance of products of consecutive Fibonacci or Lucas
numbers.

For b = F_n * ... * F_{n+k} (or the Lucas analogue), z(b) is always a
small multiple of a, the lcm of the indices of the terms that are not 1,
doubled for Lucas runs: a = [n, ..., n+k] for Fibonacci runs and
a = 2[n, ..., n+k] for Lucas runs, except that the Fibonacci runs
(n, k) = (1, 1), (1, 2), (2, 1) have a = 1, 3, 3.  Three routes
compute it:

* closed form: k in {4, 5, 6}, residue tables keyed on n mod 12/24/36/72,
  stored as data so the CLI prints exactly what the computation uses;
* general: for any n and k, match p-adic valuations of b against
  F_{a*j} per prime dividing the run cofactor, taking the least
  feasible j;
* oracle: evaluate b exactly and scan Fibonacci residues mod b.

All three must agree; the test suite enforces it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import gcd, prod

from .bigmath import fib, lucas, prime_factors, v_int
from .errors import BudgetExceededError
from .fibstruct import z_oracle
from .lcmkit import FAMILIES, cofactor_f, lcm_run
from .valuation import vp_fib, vp_lucas

DEFAULT_ORACLE_BUDGET = 10 ** 8
BUDGET_ENV_VAR = "FIBRANK_ORACLE_BUDGET"

ROUTE_CLOSED = "closed_form"
ROUTE_GENERAL = "general"
ROUTE_ORACLE = "oracle"


@dataclass(frozen=True)
class ProductSpec:
    """One product of k+1 consecutive Fibonacci or Lucas numbers."""

    family: str
    n: int
    k: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.k < 1:
            raise ValueError("k must be at least 1")


@dataclass(frozen=True)
class ZResult:
    """z decomposed as base_a * multiplier_j * extra_c, with provenance."""

    z: int
    base_a: int
    multiplier_j: int
    extra_c: int
    route: str
    residue_case: str = ""

    def __post_init__(self) -> None:
        if self.z != self.base_a * self.multiplier_j * self.extra_c:
            raise ValueError("decomposition does not multiply out to z")


# ---------------------------------------------------------------------------
# Residue tables, stored as data.


def _poly_label(offsets: tuple[int, ...]) -> str:
    def term(o: int, bare: bool) -> str:
        if o == 0:
            return "n"
        body = f"n+{o}" if o > 0 else f"n-{-o}"
        return body if bare else f"({body})"

    if len(offsets) == 1:
        return term(offsets[0], bare=True)
    return "".join(term(o, bare=False) for o in offsets)


@dataclass(frozen=True)
class GcdTerm:
    """One factor gcd(modulus, poly(n)), in a table denominator or as its
    c, with poly(n) the product of (n + offset) over the stored offsets."""

    modulus: int
    offsets: tuple[int, ...]

    def value(self, n: int) -> int:
        return gcd(self.modulus, prod(n + o for o in self.offsets))

    def label(self) -> str:
        return f"({self.modulus},{_poly_label(self.offsets)})"


@dataclass(frozen=True)
class Multiplier:
    """numerator / prod(gcd terms), guaranteed integral on its branch."""

    numerator: int
    gcd_terms: tuple[GcdTerm, ...] = ()

    def value(self, n: int) -> int:
        denominator = prod(t.value(n) for t in self.gcd_terms)
        q, r = divmod(self.numerator, denominator)
        if r:
            raise RuntimeError(
                f"table multiplier {self.label('a')} not integral at n={n}")
        return q

    def label(self, base: str) -> str:
        head = base if self.numerator == 1 else f"{self.numerator}{base}"
        if not self.gcd_terms:
            return head
        return f"{self.numerator}{base}/({''.join(t.label() for t in self.gcd_terms)})"


Condition = tuple[int, tuple[int, ...]]  # (modulus, residues)


def _condition_label(conditions: tuple[Condition, ...], otherwise: bool) -> str:
    if otherwise:
        return "otherwise"
    return " or ".join(
        f"n≡{','.join(str(r) for r in residues)} (mod {modulus})"
        for modulus, residues in conditions)


@dataclass(frozen=True)
class TableBranch:
    multiplier: Multiplier
    conditions: tuple[Condition, ...]
    otherwise: bool = False

    def matches(self, n: int) -> bool:
        return any(n % modulus in residues for modulus, residues in self.conditions)

    def matched_case(self, n: int) -> str:
        """The one congruence this n satisfies, e.g. "n≡8 (mod 72)"."""
        for modulus, residues in self.conditions:
            if n % modulus in residues:
                return f"n≡{n % modulus} (mod {modulus})"
        return "otherwise"

    @property
    def case_label(self) -> str:
        return _condition_label(self.conditions, self.otherwise)


@dataclass(frozen=True)
class ResidueTable:
    """Branches of one closed form.  c, when set, is a factor
    gcd(5, poly(n)) of every branch."""

    family: str
    k: int
    variant: str
    c: GcdTerm | None
    branches: tuple[TableBranch, ...]

    def c_suffix(self) -> str:
        return "a" if self.c is None else "ac"

    def lookup(self, n: int) -> TableBranch:
        fallback = None
        for branch in self.branches:
            if branch.otherwise:
                fallback = branch
            elif branch.matches(n):
                return branch
        if fallback is not None:
            return fallback
        raise RuntimeError(
            f"residue table ({self.family}, k={self.k}) has no branch for n={n}")


def _mult(numerator: int, *terms: tuple[int, tuple[int, ...]]) -> Multiplier:
    return Multiplier(numerator, tuple(GcdTerm(m, offs) for m, offs in terms))


def _branch(multiplier: Multiplier, *conditions: Condition,
            otherwise: bool = False) -> TableBranch:
    return TableBranch(multiplier, conditions, otherwise)


_THEOREM_TABLES: dict[tuple[str, int], ResidueTable] = {
    ("fib", 4): ResidueTable("fib", 4, "theorem", None, (
        _branch(_mult(1), (12, (1, 2, 3, 4, 5, 6, 7, 10)), (72, (8, 60))),
        _branch(_mult(2), (12, (9, 11)), (72, (24, 44))),
        _branch(_mult(3), (72, (12, 32, 36, 56))),
        _branch(_mult(6), (72, (0, 20, 48, 68))),
    )),
    ("fib", 5): ResidueTable("fib", 5, "theorem", GcdTerm(5, (0,)), (
        _branch(_mult(1), (12, (1, 2, 3, 4, 5, 6)), (72, (7, 8, 59, 60))),
        _branch(_mult(2), (12, (9, 10)), (72, (23, 24, 43, 44))),
        _branch(_mult(3), (72, (11, 12, 31, 32, 35, 36, 55, 56))),
        _branch(_mult(6), (72, (0, 19, 20, 47, 48, 67, 68, 71))),
    )),
    ("fib", 6): ResidueTable("fib", 6, "theorem", GcdTerm(5, (0, 1)), (
        _branch(_mult(1), (12, (1, 2, 3, 4, 5))),
        _branch(_mult(1728, (64, (2,)), (27, (0, 3))), (24, (6,))),
        # For n ≡ 18 (mod 24): v_2(b) = v_2(n+6) + 6 while 6 | aj gives
        # v_2(F_aj) = v_2(n+6) + v_2(j) + 2, so matching needs v_2(j) = 4
        # and the numerator carries 16 * 27 (at n = 18 the run product
        # divides F_16a but not F_8a).
        _branch(_mult(432, (27, (0, 3))), (24, (18,))),
        _branch(_mult(72, (8, (-7,)), (9, (-7,))), (12, (7,))),
        _branch(_mult(72, (8, (-8,)), (9, (-8,))), (12, (8,))),
        _branch(_mult(4), (12, (9,))),
        _branch(_mult(72, (8, (6,)), (9, (5,))), (12, (10,))),
        _branch(_mult(72, (8, (5,)), (9, (4,))), (12, (11,))),
        _branch(_mult(1728, (64, (4,)), (27, (3, 6))), (12, (0,))),
    )),
    ("lucas", 4): ResidueTable("lucas", 4, "theorem", None, (
        _branch(_mult(3), (36, (2, 14, 18, 30))),
        _branch(_mult(1), otherwise=True),
    )),
    ("lucas", 5): ResidueTable("lucas", 5, "theorem", None, (
        _branch(_mult(3), (36, (1, 2, 13, 14, 17, 18, 29, 30))),
        _branch(_mult(1), otherwise=True),
    )),
    ("lucas", 6): ResidueTable("lucas", 6, "theorem", None, (
        _branch(_mult(3), (36, (1, 2, 12, 13, 14, 16, 17, 18, 28, 29))),
        _branch(_mult(1), otherwise=True),
    )),
}

_COROLLARY_TABLES: dict[tuple[str, int], ResidueTable] = {
    ("fib", 4): ResidueTable("fib", 4, "corollary", None, (
        _branch(_mult(1), (3, (1,)), (12, (2, 3, 5, 6))),
        _branch(_mult(2), (12, (9, 11))),
        _branch(_mult(72, (8, (0,)), (9, (1,))), (12, (8,))),
        _branch(_mult(72, (8, (4,)), (9, (3,))), (12, (0,))),
    )),
    ("fib", 5): ResidueTable("fib", 5, "corollary", GcdTerm(5, (0,)), (
        _branch(_mult(1), (12, (1, 2, 3, 4, 5, 6))),
        _branch(_mult(2), (12, (9, 10))),
        _branch(_mult(72, (8, (1,)), (9, (2,))), (12, (7,))),
        _branch(_mult(72, (8, (0,)), (9, (1,))), (12, (8,))),
        _branch(_mult(72, (8, (5,)), (9, (4,))), (12, (11,))),
        _branch(_mult(72, (8, (4,)), (9, (3,))), (12, (0,))),
    )),
}

# Plain-product form for Fibonacci k = 4:
# z = n(n+1)(n+2)(n+3)(n+4) / divisor.
_PLAIN_K4_ROWS: tuple[tuple[int, tuple[Condition, ...]], ...] = (
    (2, ((12, (1, 7)),)),
    (3, ((12, (9, 11)),)),
    (4, ((12, (10,)), (72, (0, 20, 48, 68)))),
    (6, ((12, (3, 5)),)),
    (8, ((12, (4,)), (72, (12, 32, 36, 56)))),
    (12, ((12, (2, 6)), (72, (24, 44)))),
    (24, ((72, (8, 60)),)),
)

CLOSED_FORM_KS = (4, 5, 6)


def theorem_table(family: str, k: int) -> ResidueTable:
    """The stored residue table behind z_product_closed."""
    try:
        return _THEOREM_TABLES[(family, k)]
    except KeyError:
        raise ValueError(
            f"no closed form for family={family!r}, k={k}; "
            f"closed forms cover k in {CLOSED_FORM_KS}") from None


def corollary_table(family: str, k: int) -> ResidueTable:
    """The gcd-style restatement of the k = 4 and k = 5 Fibonacci tables."""
    try:
        return _COROLLARY_TABLES[(family, k)]
    except KeyError:
        raise ValueError(
            f"no corollary form for family={family!r}, k={k}") from None


# ---------------------------------------------------------------------------
# Routes.


def run_product_value(spec: ProductSpec) -> int:
    """b: the product of the k+1 sequence values, as an exact integer."""
    evaluate = fib if spec.family == "fib" else lucas
    return prod(evaluate(spec.n + i) for i in range(spec.k + 1))


def base_a(spec: ProductSpec) -> int:
    """a: the lcm of the indices of the terms that are not 1, doubled for
    Lucas runs.

    F_1 = F_2 = 1 and L_1 = 1 are skipped, so every term left has
    z(term) equal to its index (twice it for Lucas), and a | z(b) for
    every n >= 1.  This is [n, ..., n+k] (doubled for Lucas) except at
    the Fibonacci runs (1, 1), (1, 2) and (2, 1), where a is 1, 3, 3.
    """
    first = max(spec.n, 3 if spec.family == "fib" else 2)
    k = spec.n + spec.k - first
    a = lcm_run(first, k) if k >= 0 else 1
    return 2 * a if spec.family == "lucas" else a


def resolve_budget(budget: int | None) -> int:
    """The oracle step budget: budget if given, else the value of
    FIBRANK_ORACLE_BUDGET, else DEFAULT_ORACLE_BUDGET."""
    if budget is not None:
        return budget
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is not None:
        value = int(raw)
        if value < 1:
            raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
        return value
    return DEFAULT_ORACLE_BUDGET


def _prime_factors(f: int, k: int) -> tuple[int, ...]:
    """Sorted distinct primes of the run cofactor f, split by rank class.

    Each prime of f divides two terms of the run, so z(p) <= k.  With
    the primes of rank < d stripped, gcd(f, F_d) holds those of rank d;
    each such gcd, at most F_d, is split by prime_factors.

    >>> _prime_factors(cofactor_f(1000, 64, "fib"), 64)[-2:]
    (55945741, 2710260697)
    """
    primes = []
    f_d, f_next = 2, 3
    for d in range(3, k + 1):
        for p in prime_factors(gcd(f, f_d)):
            primes.append(p)
            f //= p ** v_int(p, f)
        f_d, f_next = f_next, f_d + f_next
    if f > 1:
        raise RuntimeError(f"cofactor part {f} has no prime of rank <= {k}")
    return tuple(sorted(primes))


def z_product_general(spec: ProductSpec) -> ZResult:
    """z(b) for any n, k >= 1 by per-prime valuation matching.

    With a = base_a(spec), only primes of the run cofactor f can need
    j > 1; they come by rank class, and z(p) | a gives v_p(F_{a*p^e}) =
    v_p(F_a) + e (Lengyel 1995), so j = prod p^max(0, v_p(b) - v_p(F_a)).
    For k <= 6 f is a closed form in n and no term of the run is
    evaluated; larger k evaluates the run once to find f.
    """
    vp = vp_fib if spec.family == "fib" else vp_lucas
    a = base_a(spec)
    f = cofactor_f(spec.n, spec.k, spec.family)
    targets = {p: sum(vp(p, spec.n + i).order for i in range(spec.k + 1))
               for p in _prime_factors(f, spec.k)}
    j = prod(p ** max(0, t - vp_fib(p, a).order) for p, t in targets.items())
    # Re-derive every valuation on the final candidate from the full law;
    # branch shifts under multiplication would surface here.
    for p, target in targets.items():
        if vp_fib(p, a * j).order < target:
            raise RuntimeError(
                f"valuation check failed at p={p} for a*j={a * j}")
    return ZResult(a * j, a, j, 1, ROUTE_GENERAL)


def z_product_closed(spec: ProductSpec, variant: str = "theorem") -> ZResult:
    """z(b) for k in {4, 5, 6} from the stored residue tables.

    variant="corollary" evaluates the gcd-style restatement instead
    (Fibonacci k in {4, 5} only); both variants must agree, and the
    tests hold them to that.
    """
    if variant == "theorem":
        table = theorem_table(spec.family, spec.k)
    elif variant == "corollary":
        table = corollary_table(spec.family, spec.k)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    branch = table.lookup(spec.n)
    a = base_a(spec)
    multiplier = branch.multiplier.value(spec.n)
    c = 1 if table.c is None else table.c.value(spec.n)
    return ZResult(a * multiplier * c, a, multiplier, c, ROUTE_CLOSED,
                   branch.matched_case(spec.n))


def z_product_oracle(spec: ProductSpec, *, budget: int | None = None) -> ZResult:
    """z(b) by exact big-integer scan, guarded by a step budget.

    The general route gives the expected z and a.  An estimate over the
    budget refuses the scan, so sweeps can skip gracefully; the scan itself
    is capped at the budget too.  ZResult rejects a z that a does not divide.
    """
    steps = resolve_budget(budget)
    general = z_product_general(spec)
    if general.z > steps:
        raise BudgetExceededError(
            f"z estimate {general.z} exceeds budget {steps} for "
            f"({spec.family}, n={spec.n}, k={spec.k})",
            estimate=general.z, budget=steps)
    z = z_oracle(run_product_value(spec), max_steps=steps)
    return ZResult(z, general.base_a, z // general.base_a, 1, ROUTE_ORACLE)


def corollary_plain_form(n: int) -> int:
    """Fibonacci k = 4 as a plain product: n(n+1)(n+2)(n+3)(n+4)/d with
    d in {2, 3, 4, 6, 8, 12, 24} keyed on n mod 12 / mod 72.

    >>> corollary_plain_form(9)
    51480
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    product = prod(range(n, n + 5))
    for divisor, conditions in _PLAIN_K4_ROWS:
        if any(n % modulus in residues for modulus, residues in conditions):
            q, r = divmod(product, divisor)
            if r:
                raise RuntimeError(f"plain-form divisor {divisor} fails at n={n}")
            return q
    raise RuntimeError(f"plain-form rows do not cover n={n}")
