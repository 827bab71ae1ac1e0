"""Run `supercong verify` with spans around each layer's public functions.

Usage: python3 traced.py TRACE_JSON VERIFY_ARGS...  (with supercong importable)

Every public function defined in supercong.suite, supercong.congruences and
supercong.sequences is wrapped at runtime, in every supercong module that
binds it, so calls between modules pass through the wrapper.  Spans stay in
memory as per-function aggregates: calls, total time and self time (the
span's duration minus the part its child spans cover).  Calls of
t_table_mod and s_table_mod also record their (p, e, x) so that table
requests and distinct tables are counted where the work happens.  The
aggregates are written to TRACE_JSON when verify returns.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

from supercong import cli, congruences, sequences, suite

LAYERS = {"suite": suite, "congruences": congruences, "sequences": sequences}
TABLE_FUNCTIONS = ("t_table_mod", "s_table_mod")


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total, self]
        self.stack: list[float] = []  # child time covered, per open span
        self.tables: list[tuple] = []

    def wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        tables = self.tables if fn.__name__ in TABLE_FUNCTIONS else None

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if tables is not None:
                tables.append((fn.__name__, *map(str, args[:3])))
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
        return spanned

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name.split(".")[0] == "supercong"]
        for layer, module in LAYERS.items():
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                spanned = self.wrap(layer, fn)
                for other in modules:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, spanned)

    def summary(self) -> dict:
        layers = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.stats.items():
            layers[name.split(".")[0]] += self_s
        return {
            "layers_self_s": layers,
            "functions": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                          for k, v in self.stats.items() if v[0]},
            "table_requests": len(self.tables),
            "distinct_tables": len(set(self.tables)),
        }


def main() -> int:
    trace_path, verify_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = cli.main(["verify", *verify_args])
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
