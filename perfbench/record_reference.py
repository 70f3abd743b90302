"""Record the reference outputs the correctness gate compares against.

Run once at the commit the benchmark was defined on, never by the benchmark
itself:

    python3 perfbench/record_reference.py

It writes perfbench/reference.json with every bundled row's report counts
and verdicts; for every search seed and both sizes, the prefix, probe and
tuple totals of the scan search; and the primes on which the hunt search
yields hits.  Those primes are checked to be the same for every search seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]


def main() -> int:
    os.environ["HOWE_THREADS"] = "1"
    from howe5 import tables
    from howe5.howe_factory import DecompositionReport
    from howe5.search_engine import SearchConfig, run_search

    import workloads

    def search(workload: str, seed: int, size: str):
        cfg = workloads.config(workload, seed, size)
        return run_search(SearchConfig(
            p_min=cfg["p_min"], p_max=cfg["p_max"], target=cfg["target"],
            max_candidates=cfg["max_candidates"], max_hits=cfg.get("max_hits"),
            seed=cfg["seed"]))

    report = []
    for t in (1, 2, 3):
        for i, params in enumerate(tables.load_table(t)):
            p = params.mod.p
            d = DecompositionReport.build(params, exts=workloads.report_exts(p)).to_json_dict()
            report.append({"table": t, "index": i, "p": p, "counts": d["counts"],
                           "verdicts": d["verdicts"]})
            print(f"table {t} p={p}: {sorted(d['counts'])}", file=sys.stderr)

    seeds = range(workloads.SEARCH_SEEDS)
    scan: dict = {}
    hunt: dict = {}
    for size in ("full", "tiny"):
        scan[size] = {}
        for seed in seeds:
            _, stats = search("scan", seed, size)
            scan[size][str(seed)] = {k: getattr(stats, k)
                                     for k in ("prefixes", "probes", "tuples")}
            print(f"scan {size} seed {seed}: {scan[size][str(seed)]}", file=sys.stderr)
        hit_primes = None
        for seed in seeds:
            hits, _ = search("hunt", seed, size)
            primes = sorted({h.params.mod.p for h in hits})
            print(f"hunt {size} seed {seed}: hits at {primes}", file=sys.stderr)
            if hit_primes is not None and primes != hit_primes:
                print(f"seed {seed} yields hits at {primes}, seed 0 at {hit_primes}",
                      file=sys.stderr)
                return 1
            hit_primes = primes
        hunt[size] = {"hit_primes": hit_primes}

    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True).stdout.strip()
    ref = {
        "commit": rev,
        "search_seeds": workloads.SEARCH_SEEDS,
        "scan": scan,
        "hunt": hunt,
        "report": report,
    }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
