"""Outside-in layer tracing for the benchmark's child process.

The tracer wraps public entry points of the howe5 modules from outside the
package: it replaces each wrapped function in every howe5 module that bound
it (``cli`` and ``search_engine`` import names from ``howe_factory``, for
instance), so calls through either name are seen.  Spans (name, start, end,
parent, run id) are kept in memory and written out at the end.  Functions
called hundreds of thousands of times get a call counter instead of a span,
and ``FieldElement`` operators are never wrapped.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, attribute, span name).  One span name may cover several
# functions; spans nested inside a span of the same name add no total time.
SPANS = (
    ("howe5.search_engine", "_scan_chunk", "search_engine.scan_chunk"),
    ("howe5.search_engine", "_confirm", "search_engine.confirm"),
    ("howe5.search_engine", "_tables", "search_engine.tables"),
    ("howe5.search_engine", "_class_masks", "search_engine.tables"),
    ("howe5.hasse_serre", "hasse_poly_table", "search_engine.tables"),
    ("howe5.howe_factory", "validate", "howe_factory.validate"),
    ("howe5.howe_factory", "decompose_genus5", "howe_factory.decompose"),
    ("howe5.howe_factory", "howe_counts", "howe_factory.howe_counts"),
    ("howe5.hasse_serre", "attains_serre_fp", "hasse_serre.predicates"),
    ("howe5.hasse_serre", "maximal_fp2", "hasse_serre.predicates"),
    ("howe5.hasse_serre", "attains_serre_fp3", "hasse_serre.predicates"),
    ("howe5.field_arith", "build_extension", "field_arith.build_extension"),
    ("howe5.tables", "load_table", "tables.load_table"),
    ("howe5.cli", "cmd_verify_tables", "cli.verify_tables"),
)

# (module, attribute, counter name): calls counted, not timed.
COUNTERS = (
    ("howe5.field_arith", "legendre_symbol", "field_arith.legendre_symbol.calls"),
    ("howe5.field_arith", "sqrt_mod_p", "field_arith.sqrt_mod_p.calls"),
    ("howe5.hasse_serre", "zeta_lift", "hasse_serre.zeta_lift.calls"),
)

COUNT_SPAN = {1: "curve_models.count_fp", 2: "curve_models.count_fp2", 3: "curve_models.count_fp3"}


class Tracer:
    """Span and counter store for one traced workload iteration."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _span(self, fn, name_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name_of(args, kwargs), t0, t1, parent)

        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch every howe5 module that bound a wrapped name."""
        for module, attr, name in SPANS:
            fn = getattr(sys.modules[module], attr)
            _rebind(fn, self._span(fn, lambda a, k, name=name: name))
        for module, attr, name in COUNTERS:
            fn = getattr(sys.modules[module], attr)
            _rebind(fn, self._counter(fn, name))

        counts = self.counts
        count_points = sys.modules["howe5.curve_models"].count_points

        @functools.wraps(count_points)
        def counted(*args, **kwargs):
            pc = count_points(*args, **kwargs)
            counts["curve_models.elements"] += pc.q
            return pc

        def count_name(args, kwargs):
            return COUNT_SPAN[args[1] if len(args) > 1 else kwargs.get("j", 1)]

        _rebind(count_points, self._span(counted, count_name))

        report_cls = sys.modules["howe5.howe_factory"].DecompositionReport
        build = report_cls.__dict__["build"].__func__
        report_cls.build = classmethod(self._span(build, lambda a, k: "howe_factory.report"))

    def layer_stats(self) -> dict:
        """Per span name: calls, self_s (duration minus child spans) and
        total_s (spans not nested in a span of the same name)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, t0, t1, parent) in enumerate(spans):
            s = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            s["calls"] += 1
            s["self_s"] += (t1 - t0 - child_ns[i]) / 1e9
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                s["total_s"] += (t1 - t0) / 1e9
        return out

    def write(self, path: str) -> None:
        """Append this iteration's spans, one JSON object per line."""
        with open(path, "a") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start_ns": t0, "end_ns": t1, "parent": parent},
                                    separators=(",", ":")))
                fh.write("\n")


def _rebind(fn, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if name == "howe5" or name.startswith("howe5."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
