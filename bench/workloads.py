"""The benchmark's workloads: seeded rounds of timed calls into fibrank.

Every round of a workload holds the same cells in the same numbers; the
seed only picks the inputs inside each cell (a narrow range of n, or of
z).  So runs with different seeds and different numbers of rounds time
the same mix, and a few slow calls cannot swing the totals.  Inputs for
a round are built before the round is timed, and its answers are
checked after.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable

import fibrank
import fibrank.cli

import certify

FAMILIES = ("fib", "lucas")


class Failed(Exception):
    """An operation that produced no accepted answer.  ``wrong`` marks an
    answer that was given but is not right, as opposed to a missing one."""

    def __init__(self, reason: str, *, wrong: bool) -> None:
        super().__init__(reason)
        self.wrong = wrong


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], int]  # accepted answers, or raises Failed


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise Failed(reason, wrong=True)


# ---------------------------------------------------------------------------
# sweep: the CLI verify sweep over blocks of n, default routes closed,general.

SWEEP_KS = (4, 5, 6)
SWEEP_BLOCK = 20
# Block starts are drawn from each stratum once per family per round.
SWEEP_STRATA = ((1, 150), (150, 500), (500, 1000), (1000, 1800), (1800, 2800))


def _verify_call(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = fibrank.cli.main(argv)
        return code, out.getvalue()
    return call


def _verify_check(family: str, n0: int, n1: int) -> Callable[[object], int]:
    expected = {(n, k) for n in range(n0, n1 + 1) for k in SWEEP_KS}

    def check(result: object) -> int:
        code, text = result
        rows = list(csv.DictReader(io.StringIO(text)))
        seen = {(int(row["n"]), int(row["k"])) for row in rows}
        _require(seen == expected and len(rows) == len(expected),
                 f"verify rows {sorted(seen)[:3]}... do not cover the block")
        for row in rows:
            if row["status"] == "skipped":
                raise Failed(f"skipped row {row}", wrong=False)
            _require(row["status"] == "ok" and row["z_closed"] == row["z_general"],
                     f"route mismatch {row}")
            _require(certify.accept_z(family, int(row["n"]), int(row["k"]),
                                      int(row["z_closed"])),
                     f"rejected {row}")
        if code != 0:
            raise Failed(f"verify exit code {code}", wrong=False)
        return len(rows)

    return check


class Sweep:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"sweep-{seed}")

    def round(self) -> list[Op]:
        ops = []
        for family in FAMILIES:
            for lo, hi in SWEEP_STRATA:
                n0 = self.rng.randrange(lo, hi)
                n1 = n0 + SWEEP_BLOCK - 1
                argv = ["verify", family, str(n0), str(n1),
                        ",".join(map(str, SWEEP_KS)), "--format", "csv"]
                ops.append(Op(f"verify {family} {n0} {n1}", _verify_call(argv),
                              _verify_check(family, n0, n1)))
        return ops


# ---------------------------------------------------------------------------
# deep: the general route at large n.

# (n range, k values, calls per family per round).  Larger n gets fewer k
# values so that no stratum carries most of the time.
DEEP_CELLS = (
    ((10_000, 12_000), range(4, 13), 2),
    ((22_000, 24_000), range(4, 13), 1),
    ((36_000, 40_000), range(4, 13), 1),
    ((92_000, 100_000), range(4, 7), 1),
)


def _z_check(family: str, n: int, k: int) -> Callable[[object], int]:
    def check(result: object) -> int:
        _require(certify.accept_z(family, n, k, result.z),
                 f"rejected z={result.z} for ({family}, {n}, {k})")
        return 1
    return check


def _general_call(spec) -> Callable[[], object]:
    return lambda: fibrank.z_product_general(spec)


class Deep:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"deep-{seed}")

    def round(self) -> list[Op]:
        ops = []
        for family in FAMILIES:
            for (lo, hi), ks, repeats in DEEP_CELLS:
                for k in ks:
                    for _ in range(repeats):
                        n = self.rng.randrange(lo, hi)
                        spec = fibrank.ProductSpec(family, n, k)
                        ops.append(Op(f"general {family} {n} {k}",
                                      _general_call(spec), _z_check(family, n, k)))
        self.rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# scan: the two linear scans, z_oracle and rank_of_apparition_prime.

# z of the oracle cells: one cell within 10% of each target per family per round.
ORACLE_Z = (20_000, 60_000, 200_000, 600_000)
ORACLE_MAX_N = 100
# z(p) of the valuation primes: within 3% of each target, one query that
# takes the nonzero branch and one that does not, per family per round.
RANK_Z = (150_000, 400_000, 900_000)
PRIME_RANGE = (100_000, 1_000_000)


def oracle_cells() -> dict[tuple[str, int], list[tuple[int, int, int]]]:
    """(family, target) -> [(n, k, z)] for k <= 6, n <= ORACLE_MAX_N, with z
    found by the checker's own descent."""
    cells: dict[tuple[str, int], list[tuple[int, int, int]]] = {
        (family, target): [] for family in FAMILIES for target in ORACLE_Z}
    top = max(ORACLE_Z) * 1.1
    for family in FAMILIES:
        for k in range(1, 7):
            for n in range(1, ORACLE_MAX_N + 1):
                if math.lcm(*range(n, n + k + 1)) > top:  # for n >= 3 every index divides z
                    continue
                z = certify.RunCertificate(family, n, k).rank()
                for target in ORACLE_Z:
                    if abs(z - target) <= target // 10:
                        cells[(family, target)].append((n, k, z))
    return cells


def _oracle_call(spec) -> Callable[[], object]:
    return lambda: fibrank.z_product_oracle(spec)


def _vp_call(family: str, p: int, n: int) -> Callable[[], object]:
    if family == "fib":
        return lambda: fibrank.vp_fib(p, n)
    return lambda: fibrank.vp_lucas(p, n)


def _vp_check(family: str, p: int, n: int) -> Callable[[object], int]:
    def check(result: object) -> int:
        _require(certify.accept_valuation(family, p, n, result.order),
                 f"rejected v_{p}({family}_{n}) = {result.order}")
        return 1
    return check


class Scan:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"scan-{seed}")
        self.cells = oracle_cells()
        lo, hi = PRIME_RANGE
        primes = [p for p in certify.primes_below(hi) if p >= lo]
        self.rng.shuffle(primes)
        self.stream = iter(primes)
        # (target, z(p) even) -> primes not yet asked
        self.pending: dict[tuple[int, bool], deque] = {
            (target, even): deque() for target in RANK_Z for even in (False, True)}

    def _fresh_prime(self, target: int, need_even: bool) -> tuple[int, int]:
        """A prime never handed out before, with z(p) within 3% of target
        (and z(p) even when asked)."""
        while True:
            for even in ((True,) if need_even else (False, True)):
                queue = self.pending[(target, even)]
                if queue:
                    return queue.popleft()
            p = next(self.stream)  # StopIteration ends a run that used up the range
            z = certify.rank_of_prime(p)
            for t in RANK_Z:
                if abs(z - t) * 100 <= 3 * t:
                    self.pending[(t, z % 2 == 0)].append((p, z))

    def _vp_ops(self, family: str) -> list[Op]:
        ops = []
        for target in RANK_Z:
            for branch in (True, False):
                p, z = self._fresh_prime(target, need_even=family == "lucas" and branch)
                t = self.rng.randrange(1, 1000)
                if family == "fib":
                    n = z * t if branch else z * t + self.rng.randrange(1, z)
                elif branch:
                    n = (z // 2) * (2 * t + 1)
                else:
                    r = self.rng.randrange(0, z)
                    n = z * t + (0 if 2 * r == z else r)
                ops.append(Op(f"vp {family} {p} {n}", _vp_call(family, p, n),
                              _vp_check(family, p, n)))
        return ops

    def round(self) -> list[Op]:
        ops = []
        for family in FAMILIES:
            for target in ORACLE_Z:
                n, k, _ = self.rng.choice(self.cells[(family, target)])
                spec = fibrank.ProductSpec(family, n, k)
                ops.append(Op(f"oracle {family} {n} {k}", _oracle_call(spec),
                              _z_check(family, n, k)))
            ops.extend(self._vp_ops(family))
        self.rng.shuffle(ops)
        return ops


WORKLOADS = {"sweep": Sweep, "deep": Deep, "scan": Scan}
