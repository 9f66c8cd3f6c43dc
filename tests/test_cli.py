"""Command-line interface: formats, exit codes, sweeps, tables."""

import concurrent.futures
import json
import os

import pytest

from fibrank import ProductSpec, ZResult, cli, z_product_general, z_product_oracle
from fibrank.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_fib_and_lucas_commands(capsys):
    assert run_cli(capsys, "fib", "10") == (0, "55\n", "")
    assert run_cli(capsys, "lucas", "2") == (0, "3\n", "")
    assert run_cli(capsys, "fib", "0") == (0, "0\n", "")


def test_z_command(capsys):
    assert run_cli(capsys, "z", "5")[:2] == (0, "5\n")
    assert run_cli(capsys, "z", "30")[:2] == (0, "60\n")
    assert run_cli(capsys, "z", "1")[:2] == (0, "1\n")


def test_vp_command_reports_order_and_branch(capsys):
    code, out, _ = run_cli(capsys, "vp", "fib", "2", "6")
    assert code == 0
    assert out.startswith("3 [")
    code, out, _ = run_cli(capsys, "vp", "fib", "5", "25")
    assert code == 0
    assert out.startswith("2 [")
    code, out, _ = run_cli(capsys, "vp", "lucas", "2", "3")
    assert code == 0
    assert out.startswith("2 [")


def test_vp_at_a_prime_of_rank_above_ten_million(capsys):
    # z(10000019) = 10000018, which a scan takes ~1 s to reach
    code, out, _ = run_cli(capsys, "vp", "fib", "10000019", "7")
    assert code == 0
    assert out.startswith("0 [")
    code, out, _ = run_cli(capsys, "vp", "fib", "10000019", str(10000018 * 7))
    assert code == 0
    assert out.startswith("1 [")


def test_vp_rejects_bad_prime_with_usage_exit(capsys):
    code, _, err = run_cli(capsys, "vp", "lucas", "5", "7")
    assert code == 2
    assert "usage error" in err


def test_lcm_command(capsys):
    assert run_cli(capsys, "lcm", "ints", "2", "4")[:2] == (0, "60\n")
    assert run_cli(capsys, "lcm", "fib", "3", "3")[:2] == (0, "120\n")
    assert run_cli(capsys, "lcm", "lucas", "3", "3")[:2] == (0, "2772\n")


def test_zprod_text_output(capsys):
    code, out, _ = run_cli(capsys, "zprod", "fib", "1", "4")
    assert code == 0
    assert "z = 60" in out
    assert "a = 60" in out
    assert "j = 1" in out
    assert "branch = n≡1 (mod 12)" in out


def test_zprod_json_round_trips_byte_identically(capsys):
    code, out, _ = run_cli(capsys, "zprod", "fib", "1", "4", "--format", "json")
    assert code == 0
    line = out.strip()
    record = json.loads(line)
    assert record["command"] == "zprod"
    assert record["result"]["z"] == "60"
    assert record["result"]["a"] == "60"
    assert record["result"]["j"] == "1"
    assert record["result"]["c"] == "1"
    assert record["result"]["branch"] == "n≡1 (mod 12)"
    assert isinstance(record["ms"], float)
    assert json.dumps(record, sort_keys=True, ensure_ascii=False) == line


def test_zprod_lucas_triple_multiplier(capsys):
    code, out, _ = run_cli(capsys, "zprod", "lucas", "2", "4", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["j"] == "3"
    assert int(result["z"]) == 3 * int(result["a"])


def test_zprod_general_route_matches_the_oracle_and_omits_branch(capsys):
    code, out, _ = run_cli(capsys, "zprod", "fib", "5", "8",
                           "--route", "general", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert "branch" not in result
    assert result["route"] == "general"
    assert result["z"] == str(z_product_oracle(ProductSpec("fib", 5, 8)).z)


def test_zprod_auto_prefers_closed_then_general(capsys):
    code, out, _ = run_cli(capsys, "zprod", "fib", "9", "6", "--format", "json")
    assert json.loads(out)["result"]["route"] == "closed_form"
    code, out, _ = run_cli(capsys, "zprod", "fib", "9", "2", "--format", "json")
    assert json.loads(out)["result"]["route"] == "general"


def test_verify_sweep_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "fib", "1", "10", "4,5,6")
    assert code == 0
    assert "30 combinations" in out
    assert "0 mismatches" in out


def test_verify_with_jobs_gives_identical_output(capsys):
    args = ("verify", "fib", "1", "6", "4,5", "closed,general,oracle")
    code_single, out_single, _ = run_cli(capsys, *args)
    code_forked, out_forked, _ = run_cli(capsys, *args, "--jobs", "2")
    assert code_single == code_forked == 0
    assert out_single == out_forked


def test_verify_caps_jobs_at_cpus_and_range(capsys, monkeypatch):
    # a fake pool maps in process and records its size: no process starts
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    args = ("verify", "fib", "1", "3", "4,5")
    code, out_single, _ = run_cli(capsys, *args, "--jobs", "1")
    assert code == 0 and sizes == []
    for cpus, expected in ((2, [2]), (8, [3]), (None, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sizes.clear()
        code, out, _ = run_cli(capsys, *args, "--jobs", "1000000000")
        assert code == 0 and out == out_single
        assert sizes == expected
    code, _, err = run_cli(capsys, *args, "--jobs", "0")
    assert code == 2
    assert "usage error" in err


def test_verify_empty_range_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "fib", "1", "0", "4")
    assert code == 2
    assert "usage error" in err
    for ks, routes, message in (("4,x", "closed", "malformed k list"),
                                (",", "closed", "empty k list"),
                                ("4", "closed,bogus", "unknown route"),
                                ("4", ",", "empty route list")):
        code, _, err = run_cli(capsys, "verify", "fib", "1", "3", ks, routes)
        assert code == 2
        assert err.startswith(f"usage error: {message}"), (ks, routes, err)


def test_verify_reports_budget_skips(capsys, monkeypatch):
    # z for fib n = 3, 4 at k = 4 is 420 and 840, both over a budget of 100
    monkeypatch.setenv("FIBRANK_ORACLE_BUDGET", "100")
    args = ("verify", "fib", "3", "4", "4", "closed,oracle")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "2 skipped (budget)" in out
    assert "skipped n=3 k=4: routes oracle over budget" in out
    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "fib,3,4,skipped,420,"


def test_verify_reports_mismatches(capsys, monkeypatch):
    def doubled(spec):
        z = 2 * z_product_general(spec).z
        return ZResult(z, z, 1, 1, "general")

    monkeypatch.setitem(cli._ROUTE_FUNCS, "general", doubled)
    code, out, _ = run_cli(capsys, "verify", "fib", "3", "3", "4")
    assert code == 1
    assert "MISMATCH n=3 k=4: closed=420, general=840" in out


def test_verify_rejects_closed_route_outside_table_range(capsys):
    code, _, err = run_cli(capsys, "verify", "fib", "1", "5", "3", "closed,general")
    assert code == 2
    assert "usage error" in err


def test_verify_csv_lists_one_row_per_combination(capsys):
    code, out, _ = run_cli(capsys, "verify", "lucas", "1", "4", "4",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,n,k,status,z_closed,z_general"
    assert len(lines) == 5
    assert all(line.startswith("lucas,") for line in lines[1:])


def test_table_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "table", "fib", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5  # heading plus one line per multiplier class
    code, out, _ = run_cli(capsys, "table", "lucas", "5", "--format", "json")
    assert code == 0
    record = json.loads(out)
    multipliers = [row["multiplier"] for row in record["result"]["rows"]]
    assert multipliers == ["3a", "a"]
    assert record["result"]["rows"][1]["otherwise"] is True
    assert record["result"]["c"] == "1"
    for k, c in (("4", "1"), ("5", "(5,n)"), ("6", "(5,n(n+1))")):
        code, out, _ = run_cli(capsys, "table", "fib", k, "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["c"] == c
    assert record["ms"] > 0  # timed like every other command


def test_table_without_a_closed_form_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "table", "fib", "7")
    assert code == 2
    assert "usage error" in err


def test_budget_exhaustion_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("FIBRANK_ORACLE_BUDGET", "10")
    code, _, err = run_cli(capsys, "z", "1000")
    assert code == 3
    assert "budget exceeded" in err


def test_malformed_number_is_a_usage_error(capsys):
    code = main(["fib", "xyz"])
    capsys.readouterr()
    assert code == 2


def test_csv_flattens_single_records(capsys):
    code, out, _ = run_cli(capsys, "fib", "9", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[:3] == ["command", "inputs.n", "result.value"]
    assert row.split(",")[:3] == ["fib", "9", "34"]


def test_json_output_is_ascii_safe_for_big_values(capsys):
    code, out, _ = run_cli(capsys, "fib", "5000", "--format", "json")
    assert code == 0
    record = json.loads(out)
    value = int(record["result"]["value"])
    assert value == int(str(value))
    assert len(record["result"]["value"]) == 1045
