"""Per-layer call counts and self times for the traced benchmark run.

Each layer is a set of fibrank functions.  While a Tracer is installed,
every reference to such a function inside the fibrank modules (module
globals, and module-level dicts such as the CLI's route and handler
tables) points at a wrapper that records a span around the call.  A
span's self time is its duration minus the durations of the spans that
run inside it.  Untraced runs never install a Tracer, so nothing is
wrapped.

A function that no longer exists is skipped: its layer then reads zero
calls, and the run still completes.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> (defining module, function name) pairs
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "bigmath.fib": (("fibrank.bigmath", "fib"), ("fibrank.bigmath", "lucas")),
    "bigmath.fib_mod": (("fibrank.bigmath", "fib_mod"),),
    "bigmath.is_prime": (("fibrank.bigmath", "is_prime"),),
    "lcmkit.cofactor": (("fibrank.lcmkit", "cofactor_f"),
                        ("fibrank.lcmkit", "run_decomposition"),
                        ("fibrank.lcmkit", "lcm_fib_run"),
                        ("fibrank.lcmkit", "lcm_lucas_run")),
    "lcmkit.lcm_run": (("fibrank.lcmkit", "lcm_run"),),
    "valuation.vp": (("fibrank.valuation", "vp_fib"), ("fibrank.valuation", "vp_lucas")),
    "valuation.rank": (("fibrank.valuation", "rank_of_apparition_prime"),),
    "valuation.vp_at_rank": (("fibrank.valuation", "vp_fib_at_rank"),),
    "fibstruct.z_oracle": (("fibrank.fibstruct", "z_oracle"),),
    "orderprod.closed": (("fibrank.orderprod", "z_product_closed"),),
    "orderprod.general": (("fibrank.orderprod", "z_product_general"),),
    "orderprod.oracle": (("fibrank.orderprod", "z_product_oracle"),),
    "cli.verify": (("fibrank.cli", "_cmd_verify"),),
}

# The lru_cache whose misses are reported as valuation.rank.misses.
RANK_CACHE = ("fibrank.valuation", "rank_of_apparition_prime")


class Tracer:
    """Aggregated spans: calls and self seconds per layer."""

    def __init__(self) -> None:
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, object, object]] = []

    def _wrap(self, layer: str, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                calls[layer] += 1
                self_s[layer] += spent - children[0]
                if stack:
                    stack[-1][0] += spent

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fibrank" or name.startswith("fibrank."))]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                original = getattr(sys.modules.get(module_name), attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrap(layer, original)
                for module in modules:
                    namespace = vars(module)
                    for key, value in list(namespace.items()):
                        if value is original:
                            self._undo.append((namespace, key, value))
                            namespace[key] = wrapper
                        elif type(value) is dict:
                            for dkey, dvalue in list(value.items()):
                                if dvalue is original:
                                    self._undo.append((value, dkey, dvalue))
                                    value[dkey] = wrapper

    def uninstall(self) -> None:
        while self._undo:
            container, key, value = self._undo.pop()
            container[key] = value

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def rank_cache_misses() -> int | None:
    """Misses of the z(p) cache so far, or None when it has no cache."""
    module_name, attr = RANK_CACHE
    fn = getattr(sys.modules.get(module_name), attr, None)
    info = getattr(fn, "cache_info", None)
    return None if info is None else info().misses
