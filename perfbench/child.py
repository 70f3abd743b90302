"""One workload iteration in a fresh interpreter.

Started by run.py with ``python -I`` and ``HOWE_THREADS=1``, so the per-prime
caches start cold, as they do for a command-line user, and the caller's
environment does not reach the program.  Set-up is ``import howe5`` (with
the command-line module) and loading the three bundled tables; the monotonic
time it ends is reported so run.py can measure set-up from the moment it
started this process.  The workload runs in pieces (one search per prime;
one ``verify-tables`` per table and one report per row), each timed on its
own after a timing of a host-speed kernel.  Prints one JSON object on
stdout.

    python -I perfbench/child.py --workload hunt --seed 1 --mode run --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

STAT_KEYS = ("primes", "prefixes", "probes", "tuples", "hits", "confirm_failures", "truncated")


class Pieces:
    """Wall times of the pieces of one iteration, each timed on its own, and
    a timing of the workload's host-speed kernel (calibrate.py) before each
    piece."""

    def __init__(self, kernel: str) -> None:
        # Imported here, after set-up, so that set-up time and memory are the
        # program's own.
        from calibrate import time_kernel

        self.time_kernel = functools.partial(time_kernel, kernel)
        self.times: dict[str, float] = {}
        self.host: list[float] = []

    @contextlib.contextmanager
    def piece(self, label: str):
        self.host.append(self.time_kernel())
        t0 = time.perf_counter()
        yield
        self.times[label] = time.perf_counter() - t0

    def record(self) -> dict:
        return {"wall_s": sum(self.times.values()), "pieces": self.times, "host_s": self.host}


def run_search_workload(cfg: dict) -> dict:
    """One search per prime of the range.  Each prime is searched
    independently of the others (its caches and candidate order depend only
    on p, the target and the seed), so the per-prime searches give exactly
    the hits and statistics of one search over the range."""
    from howe5.search_engine import SearchConfig, primes_in, run_search

    hits, timer = [], Pieces(cfg["kernel"])
    stats = dict.fromkeys(STAT_KEYS, 0)
    for p in primes_in(cfg["p_min"], cfg["p_max"]):
        config = SearchConfig(
            p_min=p,
            p_max=p,
            target=cfg["target"],
            max_candidates=cfg["max_candidates"],
            max_hits=cfg.get("max_hits"),
            seed=cfg["seed"],
        )
        with timer.piece(f"p={p}"):
            prime_hits, prime_stats = run_search(config)
        hits += [[list(h.row()), {str(j): n for j, n in h.counts.items()}] for h in prime_hits]
        for k in STAT_KEYS:
            stats[k] += getattr(prime_stats, k)
    stats["truncated"] = bool(stats["truncated"])
    return {**timer.record(), "hits": hits, "stats": stats}


def run_report_workload(cfg: dict, rows: dict) -> dict:
    """``verify-tables`` one table at a time, then one JSON report per row."""
    from howe5 import cli
    from howe5.howe_factory import DecompositionReport
    from workloads import report_exts, report_order

    order = report_order({t: [r.mod.p for r in rs] for t, rs in rows.items()}, cfg)
    timer, rc, lines = Pieces(cfg["kernel"]), 0, []
    for t in cfg["verify_tables"]:
        buf = io.StringIO()
        with timer.piece(f"verify-tables {t}"), contextlib.redirect_stdout(buf):
            rc_t = cli.main(["verify-tables", str(t)])
        rc = rc or rc_t
        lines += buf.getvalue().splitlines()
    reported = []
    for t, i in order:
        params = rows[t][i]
        with timer.piece(f"report {t}:{i}"):
            doc = DecompositionReport.build(params, exts=report_exts(params.mod.p)).to_json()
        d = json.loads(doc)
        reported.append({"table": t, "index": i, "p": d["p"],
                         "counts": d["counts"], "verdicts": d["verdicts"]})
    return {**timer.record(), "verify_rc": rc, "verify_last": lines[-1] if lines else "",
            "rows": reported}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="append the spans of a traced iteration here")
    ap.add_argument("--run-id", default="")
    args = ap.parse_args(argv)

    import howe5
    import howe5.cli  # noqa: F401  (the command-line user's import)
    from howe5 import tables

    rows = {t: tables.load_table(t) for t in (1, 2, 3)}
    out = {"setup_done": time.monotonic()}

    if args.mode == "run":
        import numpy
        import workloads

        cfg = workloads.config(args.workload, args.seed, args.size)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(args.run_id)
            tracer.install()
        if args.workload == "report":
            out.update(run_report_workload(cfg, rows))
        else:
            out.update(run_search_workload(cfg))
        if tracer is not None:
            out["layers"] = tracer.layer_stats()
            out["counts"] = dict(tracer.counts)
            if args.spans:
                tracer.write(args.spans)
        out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "howe5": howe5.__version__}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
