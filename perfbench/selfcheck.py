"""Self-check of the benchmark at a tiny size.

    python3 perfbench/selfcheck.py

1. Every workload in BENCHMARK.json, untraced and traced, prints a result
   line with exactly the contract's keys, passes its gate, and emits every
   metric BENCHMARK.json names, with its unit, and no other.
2. Negative controls: the gate must reject a wrong reference count, a
   missing row and an unknown row on report; a wrong hit count and a
   reference prime without hits on hunt; and a probe total outside the caps
   and a tuple total off the reference on scan.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_outputs(bench: dict) -> None:
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, *bench["command"][1:], "--workload", w, "--seed", str(SEED),
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            tag = f"{w} --trace {trace}"
            expect(proc.returncode == 0, f"{tag}: exit code 0 (got {proc.returncode})")
            try:
                res = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                expect(False, f"{tag}: last stdout line is JSON")
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys")
            expect(res.get("correct") is True and res.get("failed") == 0
                   and res.get("attempted", 0) >= 1, f"{tag}: correct, none failed")
            got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
            expect(got == wanted[trace], f"{tag}: metric names and units match BENCHMARK.json")
            expect(all(isinstance(v.get("value"), (int, float))
                       for v in res.get("metrics", {}).values()), f"{tag}: numeric values")


def check_negative_controls() -> None:
    reference = gate.load_reference()
    outs = {}
    for w in workloads.NAMES:
        rec, why = run.spawn(["--mode", "run"], w, SEED, "tiny")
        if rec is None:
            expect(False, f"{w}: tiny iteration ran ({why})")
            return
        outs[w] = rec
        cfg = workloads.config(w, SEED, "tiny")
        expect(gate.Gate(w, cfg, reference).check(rec) == [], f"{w}: true output passes")

    cfg = workloads.config("report", SEED, "tiny")
    wrong = copy.deepcopy(reference)
    row = next(r for r in wrong["report"]
               if (r["table"], r["index"]) == (outs["report"]["rows"][0]["table"],
                                               outs["report"]["rows"][0]["index"]))
    row["counts"]["1"]["C"] += 1
    expect(gate.Gate("report", cfg, wrong).check(outs["report"]) != [],
           "report: a wrong reference count is caught")
    bad = copy.deepcopy(outs["report"])
    del bad["rows"][0]
    expect(gate.Gate("report", cfg, reference).check(bad) != [],
           "report: a missing row is caught")
    bad = copy.deepcopy(outs["report"])
    bad["rows"][0]["index"] = 99
    expect(gate.Gate("report", cfg, reference).check(bad) != [],
           "report: a row not in the reference is caught")

    cfg = workloads.config("hunt", SEED, "tiny")
    bad = copy.deepcopy(outs["hunt"])
    bad["hits"][0][1]["2"] += 1
    expect(gate.Gate("hunt", cfg, reference).check(bad) != [],
           "hunt: a hit count the naive counter disagrees with is caught")
    wrong = copy.deepcopy(reference)
    wrong["hunt"]["tiny"]["hit_primes"].append(19)
    expect(gate.Gate("hunt", cfg, wrong).check(outs["hunt"]) != [],
           "hunt: a reference prime without hits is caught")

    cfg = workloads.config("scan", SEED, "tiny")
    bad = copy.deepcopy(outs["scan"])
    bad["stats"]["probes"] -= 1000
    expect(gate.Gate("scan", cfg, reference).check(bad) != [],
           "scan: a probe total outside the caps is caught")
    expect(outs["scan"]["stats"]["tuples"] > 0, "scan: candidates pass every filter")
    bad = copy.deepcopy(outs["scan"])
    bad["stats"]["tuples"] -= 1
    expect(gate.Gate("scan", cfg, reference).check(bad) != [],
           "scan: a tuple total off the reference is caught")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    print("outputs at tiny size:")
    check_outputs(bench)
    print("negative controls:")
    check_negative_controls()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
