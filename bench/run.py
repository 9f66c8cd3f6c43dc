"""fibrank benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload {sweep,deep,scan} --seed N --seconds S --trace {0,1}

Runs whole rounds of the workload (see workloads.py) until the timed
calls have taken S seconds and at least MIN_OPS calls were made, checks
every answer with the independent checker in certify.py, and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s,
answers_per_s, op_ms_p50, op_ms_p90, peak_rss_mb).  With --trace 1 the
fibrank functions of each layer are wrapped (tracing.py) and the
metrics are per-layer call counts and self times, per timed call.  The
same object, with the per-call timings, is written to
bench/out/<workload>-seed<N>-trace<T>.json.

The package is imported from src/ next to this directory; there is
nothing to build.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_OPS = 100
SETUP_SPAWNS = 15
SETUP_CHILD = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import fibrank, fibrank.cli; "
               "print(time.perf_counter() - t)")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "deep", "scan"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_fibrank() -> None:
    """Import fibrank from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    import fibrank
    if Path(fibrank.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"fibrank was imported from {fibrank.__file__}, not from {SRC}")


def measure_setup() -> float:
    """Median time for a fresh interpreter to import fibrank and fibrank.cli.
    The first spawn is not counted: it may compile the bytecode cache."""
    times = []
    for spawn in range(SETUP_SPAWNS + 1):
        child = subprocess.run([sys.executable, "-I", "-c", SETUP_CHILD, str(SRC)],
                               check=True, capture_output=True, text=True, timeout=60)
        if spawn:
            times.append(float(child.stdout))
    return statistics.median(times)


def run_rounds(workload, seconds: float) -> dict:
    """Time whole rounds until `seconds` of timed calls and MIN_OPS calls."""
    from workloads import Failed

    times: list[float] = []
    labels: list[str] = []
    measured = 0.0
    answers = failed = wrong = rounds = 0
    failures: list[str] = []
    clock = time.perf_counter
    while measured < seconds or len(times) < MIN_OPS:
        ops = workload.round()
        outcomes = []
        round_start = clock()
        for op in ops:
            start = clock()
            try:
                outcomes.append((op, op.call(), None))
            except Exception as exc:  # an exception is a failed operation, not a crash
                outcomes.append((op, None, exc))
            times.append(clock() - start)
        measured += clock() - round_start
        rounds += 1
        for op, result, error in outcomes:
            labels.append(op.label)
            try:
                if error is not None:
                    raise Failed(f"{type(error).__name__}: {error}", wrong=False)
                try:
                    answers += op.check(result)
                except (TypeError, ValueError, AttributeError, KeyError) as exc:
                    raise Failed(f"malformed answer: {exc!r}", wrong=True) from exc
            except Failed as exc:
                failed += 1
                wrong += exc.wrong
                if len(failures) < 20:
                    failures.append(f"{op.label}: {exc}")
    return {"times": times, "labels": labels, "measured_s": measured,
            "answers": answers, "failed": failed, "wrong": wrong,
            "rounds": rounds, "failures": failures}


def end_to_end_metrics(run: dict, setup_s: float) -> dict:
    ms = [t * 1000 for t in run["times"]]
    deciles = statistics.quantiles(ms, n=10)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "answers_per_s": {"value": run["answers"] / run["measured_s"], "unit": "1/s"},
        "op_ms_p50": {"value": deciles[4], "unit": "ms"},
        "op_ms_p90": {"value": deciles[8], "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def per_layer_metrics(tracer, ops: int, rank_misses: int | None) -> dict:
    metrics = {}
    for layer in tracer.calls:
        if layer != "cli.verify":
            metrics[f"{layer}.calls"] = {"value": tracer.calls[layer] / ops,
                                         "unit": "count/op"}
        metrics[f"{layer}.self_ms"] = {"value": tracer.self_s[layer] * 1000 / ops,
                                       "unit": "ms/op"}
    if rank_misses is None:  # no cache: every call computes z(p)
        rank_misses = tracer.calls["valuation.rank"]
    metrics["valuation.rank.misses"] = {"value": rank_misses / ops, "unit": "count/op"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        import_fibrank()
    except ImportError as exc:
        print(f"cannot import fibrank from {SRC}: {exc}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    setup_s = None if args.trace else measure_setup()
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        misses_before = tracing.rank_cache_misses()
        with tracing.Tracer() as tracer:
            run = run_rounds(workload, args.seconds)
        misses_after = tracing.rank_cache_misses()
        misses = None if misses_after is None else misses_after - misses_before
        metrics = per_layer_metrics(tracer, len(run["times"]), misses)
        detail = {"unwrapped": tracer.missing}
    else:
        run = run_rounds(workload, args.seconds)
        metrics = end_to_end_metrics(run, setup_s)
        detail = {}
    result = {"correct": run["wrong"] == 0, "attempted": len(run["times"]),
              "failed": run["failed"], "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=run["rounds"], measured_s=run["measured_s"],
                  answers=run["answers"], failures=run["failures"],
                  ops=[[label, t * 1000] for label, t in zip(run["labels"], run["times"])],
                  **detail)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for failure in run["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
