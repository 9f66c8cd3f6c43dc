"""Command-line front end.

Subcommands: fib, lucas, z, vp, lcm, zprod, verify, table.

Every command emits one record -- text by default, or JSON/CSV via
--format.  JSON records hold all big integers as exact decimal strings
and re-serialize byte-identically.  A record's ms field is the wall time
of the command's handler: the computation and building the record, not
argument parsing or printing.  Exit codes: 0 success, 1
verification mismatch, 2 usage error, 3 oracle budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from functools import cache

from .bigmath import fib, lucas
from .errors import BudgetExceededError
from .fibstruct import z_oracle
from .lcmkit import lcm_fib_run, lcm_lucas_run, lcm_run
from .orderprod import (
    CLOSED_FORM_KS,
    ProductSpec,
    ZResult,
    resolve_budget,
    theorem_table,
    z_product_closed,
    z_product_general,
    z_product_oracle,
)
from .valuation import vp_fib, vp_lucas

FORMATS = ("text", "json", "csv")
ROUTES = ("closed", "general", "oracle")

_ROUTE_FUNCS = {
    "closed": z_product_closed,
    "general": z_product_general,
    "oracle": z_product_oracle,
}


def _record(command: str, inputs: dict, result: dict) -> dict:
    return {"command": command, "inputs": inputs, "result": result}


def _emit_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False)


def _flatten(record: dict) -> dict:
    flat: dict[str, object] = {}
    for key, value in record.items():
        if isinstance(value, dict):
            for inner, leaf in value.items():
                flat[f"{key}.{inner}"] = leaf
        else:
            flat[key] = value
    return flat


def _emit_csv_rows(rows: list[dict]) -> str:
    buffer = io.StringIO()
    fieldnames: list[str] = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def _print_record(record: dict, fmt: str, text_lines: list[str],
                  csv_rows: list[dict] | None = None) -> None:
    if fmt == "json":
        print(_emit_json(record))
    elif fmt == "csv":
        rows = csv_rows if csv_rows is not None else [_flatten(record)]
        print(_emit_csv_rows(rows))
    else:
        for line in text_lines:
            print(line)


def _zresult_payload(res: ZResult) -> dict:
    payload = {
        "z": str(res.z),
        "a": str(res.base_a),
        "j": str(res.multiplier_j),
        "c": str(res.extra_c),
        "route": res.route,
    }
    if res.residue_case:
        payload["branch"] = res.residue_case
    return payload


def _zprod_result(spec: ProductSpec, route: str) -> ZResult:
    if route == "auto":
        route = "closed" if spec.k in CLOSED_FORM_KS else "general"
    return _ROUTE_FUNCS[route](spec)


# ---------------------------------------------------------------------------
# verify sweep


def _verify_row(family: str, n: int, k: int, routes: tuple[str, ...]) -> dict:
    spec = ProductSpec(family, n, k)
    values: dict[str, str] = {}
    skipped: list[str] = []
    for route in routes:
        try:
            values[route] = str(_ROUTE_FUNCS[route](spec).z)
        except BudgetExceededError:
            skipped.append(route)
    status = "ok"
    if len(set(values.values())) > 1:
        status = "mismatch"
    elif skipped:
        status = "skipped"
    return {"family": family, "n": str(n), "k": str(k),
            "routes": values, "skipped": skipped, "status": status}


def _verify_chunk(args: tuple) -> list[dict]:
    family, ns, ks, routes = args
    return [_verify_row(family, n, k, routes) for n in ns for k in ks]


def _run_verify(family: str, n_lo: int, n_hi: int, ks: tuple[int, ...],
                routes: tuple[str, ...], jobs: int) -> list[dict]:
    ns = list(range(n_lo, n_hi + 1))
    workers = min(jobs, len(ns), os.cpu_count() or 1)
    if workers <= 1:
        rows = _verify_chunk((family, ns, ks, routes))
    else:
        work = [(family, ns[i::workers], ks, routes) for i in range(workers)]
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for part in pool.map(_verify_chunk, work) for row in part]
    rows.sort(key=lambda row: (int(row["n"]), int(row["k"])))
    return rows


# ---------------------------------------------------------------------------
# command handlers: each returns (record, text_lines, csv_rows, exit_code)


def _cmd_fib(args) -> tuple[dict, list[str], list[dict] | None, int]:
    value = fib(args.n) if args.command == "fib" else lucas(args.n)
    record = _record(args.command, {"n": str(args.n)}, {"value": str(value)})
    return record, [str(value)], None, 0


def _cmd_z(args):
    value = z_oracle(args.m, max_steps=resolve_budget(None))
    record = _record("z", {"m": str(args.m)}, {"z": str(value)})
    return record, [str(value)], None, 0


def _cmd_vp(args):
    law = vp_fib if args.family == "fib" else vp_lucas
    res = law(args.p, args.n)
    record = _record("vp", {"family": args.family, "p": str(args.p), "n": str(args.n)},
                     {"order": str(res.order), "branch": res.branch})
    return record, [f"{res.order} [{res.branch}]"], None, 0


def _cmd_lcm(args):
    if args.kind == "ints":
        value = lcm_run(args.n, args.k)
    elif args.kind == "fib":
        value = lcm_fib_run(args.n, args.k)
    else:
        value = lcm_lucas_run(args.n, args.k)
    record = _record("lcm", {"kind": args.kind, "n": str(args.n), "k": str(args.k)},
                     {"value": str(value)})
    return record, [str(value)], None, 0


def _cmd_zprod(args):
    spec = ProductSpec(args.family, args.n, args.k)
    res = _zprod_result(spec, args.route)
    payload = _zresult_payload(res)
    record = _record("zprod",
                     {"family": args.family, "n": str(args.n), "k": str(args.k),
                      "route": args.route},
                     payload)
    lines = [f"{key} = {payload[key]}" for key in
             ("z", "a", "j", "c", "route", "branch") if key in payload]
    return record, lines, None, 0


def _cmd_verify(args):
    if args.n_min > args.n_max:
        raise ValueError(f"empty range: n_min {args.n_min} > n_max {args.n_max}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    ks = _parse_int_set(args.ks, "k")
    routes = tuple(_parse_name_set(args.routes, ROUTES, "route"))
    for k in ks:
        if "closed" in routes and k not in CLOSED_FORM_KS:
            raise ValueError(
                f"closed route needs k in {CLOSED_FORM_KS}, got k={k}")
    rows = _run_verify(args.family, args.n_min, args.n_max, ks, routes, args.jobs)
    mismatches = [row for row in rows if row["status"] == "mismatch"]
    skipped = [row for row in rows if row["status"] == "skipped"]
    record = _record("verify",
                     {"family": args.family, "n_min": str(args.n_min),
                      "n_max": str(args.n_max),
                      "ks": ",".join(str(k) for k in ks),
                      "routes": ",".join(routes), "jobs": str(args.jobs)},
                     {"checked": str(len(rows)),
                      "mismatches": mismatches, "skipped": skipped})
    lines = [f"checked {len(rows)} combinations: "
             f"{len(mismatches)} mismatches, {len(skipped)} skipped (budget)"]
    for row in mismatches:
        detail = ", ".join(f"{route}={z}" for route, z in row["routes"].items())
        lines.append(f"MISMATCH n={row['n']} k={row['k']}: {detail}")
    for row in skipped:
        lines.append(f"skipped n={row['n']} k={row['k']}: "
                     f"routes {','.join(row['skipped'])} over budget")
    csv_rows = []
    for row in rows:
        flat = {"family": row["family"], "n": row["n"], "k": row["k"],
                "status": row["status"]}
        for route in routes:
            flat[f"z_{route}"] = row["routes"].get(route, "")
        csv_rows.append(flat)
    return record, lines, csv_rows, (1 if mismatches else 0)


def _cmd_table(args):
    table = theorem_table(args.family, args.k)
    suffix = table.c_suffix()
    rows = []
    for branch in table.branches:
        rows.append({
            "multiplier": branch.multiplier.label(suffix),
            "case": branch.case_label,
            "conditions": [{"modulus": str(modulus),
                            "residues": [str(r) for r in residues]}
                           for modulus, residues in branch.conditions],
            "otherwise": branch.otherwise,
        })
    record = _record("table", {"family": args.family, "k": str(args.k)},
                     {"c": "1" if table.c is None else table.c.label(),
                      "rows": rows})
    lines = [f"closed form for {args.family}, k={args.k} "
             f"(z = multiplier x a{' x c' if table.c else ''})"]
    for row in rows:
        lines.append(f"{row['multiplier']:<40} {row['case']}")
    csv_rows = [{"family": args.family, "k": str(args.k),
                 "multiplier": row["multiplier"], "case": row["case"]}
                for row in rows]
    return record, lines, csv_rows, 0


# ---------------------------------------------------------------------------
# parsing


def _parse_int_set(raw: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(sorted({int(part) for part in raw.split(",") if part}))
    except ValueError:
        raise ValueError(f"malformed {what} list: {raw!r}") from None
    if not values:
        raise ValueError(f"empty {what} list")
    return values

def _parse_name_set(raw: str, allowed: tuple[str, ...], what: str) -> list[str]:
    names = [part for part in raw.split(",") if part]
    if not names:
        raise ValueError(f"empty {what} list")
    seen = []
    for name in names:
        if name not in allowed:
            raise ValueError(f"unknown {what} {name!r}; allowed: {allowed}")
        if name not in seen:
            seen.append(name)
    return seen


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibrank",
        description="Order of appearance of products of consecutive "
                    "Fibonacci and Lucas numbers.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="text",
                        help="output format (default: text)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fib", parents=[common], help="evaluate F_n")
    p.add_argument("n", type=int)
    p = sub.add_parser("lucas", parents=[common], help="evaluate L_n")
    p.add_argument("n", type=int)

    p = sub.add_parser("z", parents=[common],
                       help="order of appearance z(m) by residue scan")
    p.add_argument("m", type=int)

    p = sub.add_parser("vp", parents=[common],
                       help="p-adic order of F_n or L_n from the closed laws")
    p.add_argument("family", choices=("fib", "lucas"))
    p.add_argument("p", type=int)
    p.add_argument("n", type=int)

    p = sub.add_parser("lcm", parents=[common],
                       help="lcm of a run of integers, Fibonacci or Lucas numbers")
    p.add_argument("kind", choices=("ints", "fib", "lucas"))
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    p = sub.add_parser("zprod", parents=[common],
                       help="z of a product of k+1 consecutive terms")
    p.add_argument("family", choices=("fib", "lucas"))
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--route", choices=("auto",) + ROUTES, default="auto")

    p = sub.add_parser("verify", parents=[common],
                       help="sweep a range of n, cross-checking routes")
    p.add_argument("family", choices=("fib", "lucas"))
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)
    p.add_argument("ks", help="comma-separated k values, e.g. 4,5,6")
    p.add_argument("routes", nargs="?", default="closed,general",
                   help="comma-separated routes (default: closed,general)")
    p.add_argument("--jobs", type=int, default=1,
                   help="partition the n range over this many processes, "
                        "at most one per CPU and one per n")

    p = sub.add_parser("table", parents=[common],
                       help="print the stored residue table for a closed form")
    p.add_argument("family", choices=("fib", "lucas"))
    p.add_argument("k", type=int)
    return parser


_parser = cache(build_parser)  # built on first use, reused by every main()
_HANDLERS = {
    "fib": _cmd_fib,
    "lucas": _cmd_fib,
    "z": _cmd_z,
    "vp": _cmd_vp,
    "lcm": _cmd_lcm,
    "zprod": _cmd_zprod,
    "verify": _cmd_verify,
    "table": _cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        record, lines, csv_rows, code = _HANDLERS[args.command](args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    record["ms"] = (time.perf_counter() - started) * 1000
    _print_record(record, args.format, lines, csv_rows)
    return code


if __name__ == "__main__":
    sys.exit(main())
