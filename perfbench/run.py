"""howe5 benchmark: three workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload {scan,hunt,report} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout; it needs numpy and the standard
library and builds nothing.  The loop is closed and single-process: each
workload iteration runs in a fresh interpreter (child.py) with
HOWE_THREADS=1, one after another, until --seconds have passed.  Before the
iterations, set-up-only interpreters measure start-up, each followed by a
start of the calibration interpreter (calibrate.py); the first pair, which
also compiles bytecode, is discarded.  Every iteration's output goes through
the correctness gate (gate.py) outside the timed region.

Each iteration times its pieces one by one: one search per prime on scan
and hunt; ``verify-tables`` per table and one report per row on report.
Before each piece it times the workload's calibration kernel, which
measures how fast the shared host runs that kind of code at that moment.

--trace 0 prints the end-to-end metrics, with times at the reference host
speed of calibrate.py: wall_ref_s, the wall time of one pass over the
workload with every piece at its fastest over the iterations (the sum of
the per-piece minima), times the reference time of the workload's kernel
(workloads.KERNEL) over the 5th percentile of its timings in the run;
setup_s, the shortest time from process start through ``import
howe5`` and the bundled-table load over the set-up probes, times
START_REF_S over the calibration interpreter's fastest start; peak_rss_mb,
the median peak resident set of an iteration.  --trace 1 alternates
untraced and traced iterations and prints the per-layer metrics from the
traced ones (medians over iterations; trace.wall_ref_s is wall_ref_s of the
traced iterations), plus the tracing overhead, trace.wall_ref_s minus the
untraced wall_ref_s.  The unscaled figures go to the provenance line.
Failed operations (crashed iterations, confirmation failures, gate
mismatches) are reported as ``failed`` out of ``attempted``; any failure
makes ``correct`` false and the exit code 1.  The last stdout line is the
result JSON; the line before it is the provenance.  Spans and a full record
go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402
from tracing import COUNTERS  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_PROBES = 12
CHILD_ENV = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "HOWE_THREADS": "1", "LC_ALL": "C"}
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 120
COUNTED = {name for _, _, name in COUNTERS} | {"curve_models.elements"}

END_TO_END = (("wall_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("search_engine.scan_chunk.calls", "count"),
    ("search_engine.scan_chunk.self_s", "s"),
    ("search_engine.probes", "count"),
    ("search_engine.tuples", "count"),
    ("search_engine.probes_per_scan_s", "1/s"),
    ("search_engine.confirm.calls", "count"),
    ("search_engine.confirm.self_s", "s"),
    ("search_engine.confirm.total_s", "s"),
    ("search_engine.confirm_useful_ratio", "ratio"),
    ("search_engine.tables.total_s", "s"),
    ("howe_factory.validate.calls", "count"),
    ("howe_factory.validate.self_s", "s"),
    ("howe_factory.validate_per_confirm", "ratio"),
    ("howe_factory.decompose.calls", "count"),
    ("howe_factory.decompose.self_s", "s"),
    ("howe_factory.howe_counts.calls", "count"),
    ("howe_factory.howe_counts.self_s", "s"),
    ("howe_factory.report.total_s", "s"),
    ("curve_models.count_fp.calls", "count"),
    ("curve_models.count_fp.self_s", "s"),
    ("curve_models.count_fp2.calls", "count"),
    ("curve_models.count_fp2.self_s", "s"),
    ("curve_models.count_fp3.calls", "count"),
    ("curve_models.count_fp3.self_s", "s"),
    ("curve_models.elements", "count"),
    ("curve_models.elements_per_s", "1/s"),
    ("hasse_serre.predicates.calls", "count"),
    ("hasse_serre.predicates.self_s", "s"),
    ("hasse_serre.zeta_lift.calls", "count"),
    ("field_arith.build_extension.calls", "count"),
    ("field_arith.build_extension.total_s", "s"),
    ("field_arith.legendre_symbol.calls", "count"),
    ("field_arith.sqrt_mod_p.calls", "count"),
    ("tables.load_table.total_s", "s"),
    ("cli.verify_tables.total_s", "s"),
    ("trace.wall_ref_s", "s"),
    ("trace.overhead_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was attempted (den = 0)."""
    return num / den if den else 0.0


def layer_values(rec: dict) -> dict:
    """Per-layer values of one traced iteration (all but the trace.* ones)."""
    layers, counts = rec["layers"], rec["counts"]
    stats = rec.get("stats", {})

    def get(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0)

    v = {}
    for name, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if name in COUNTED:
            v[name] = counts.get(name, 0)
        elif field in ("calls", "self_s", "total_s"):
            v[name] = get(layer, field)
    v["search_engine.probes"] = stats.get("probes", 0)
    v["search_engine.tuples"] = stats.get("tuples", 0)
    v["search_engine.probes_per_scan_s"] = _ratio(
        v["search_engine.probes"], v["search_engine.scan_chunk.self_s"])
    confirms = v["search_engine.confirm.calls"]
    v["search_engine.confirm_useful_ratio"] = _ratio(stats.get("hits", 0), confirms)
    v["howe_factory.validate_per_confirm"] = _ratio(v["howe_factory.validate.calls"], confirms)
    count_s = sum(get(f"curve_models.count_fp{k}", "total_s") for k in ("", "2", "3"))
    v["curve_models.elements_per_s"] = _ratio(v["curve_models.elements"], count_s)
    return v


def wall_min(recs: list[dict]) -> float:
    """Sum over the pieces of each piece's fastest time in recs."""
    return sum(min(r["pieces"][k] for r in recs) for k in recs[0]["pieces"])


def host_time(recs: list[dict]) -> float:
    """The kernel time the host beats in a twentieth of the timings in recs.
    The very fastest comes from the rare short burst of speed that a piece
    of a tenth of a second or more cannot use."""
    return statistics.quantiles([t for r in recs for t in r["host_s"]], n=20)[0]


def spawn(args: list, workload: str, seed: int, size: str) -> tuple[dict | None, str]:
    """Run one child interpreter; (record, "") or (None, reason)."""
    cmd = [sys.executable, "-I", CHILD, "--workload", workload, "--seed", str(seed),
           "--size", size, *args]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        rec = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return None, f"no JSON record on stdout: {proc.stdout[-500:]!r}"
    rec["setup_s"] = rec["setup_done"] - t0
    return rec, ""


def provenance(workload: str, seed: int, cfg: dict, versions: dict, samples: dict) -> dict:
    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    return {
        "workload": workload,
        "seed": seed,
        "params": {k: list(v) if isinstance(v, tuple) else v for k, v in cfg.items()},
        "git_rev": git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(git("status", "--porcelain")) if in_repo else None,
        "versions": versions,
        "nproc": os.cpu_count(),
        "samples": samples,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the self-check only")
    args = ap.parse_args(argv)
    # Turn SIGTERM into an exception, so that subprocess.run kills and reaps
    # the running child before run.py exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "howe5", "__init__.py")):
        print(f"error: no howe5 sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # One spans file per workload, replaced by each traced run.
    spans_path = os.path.join(OUT_DIR, f"{args.workload}.spans.jsonl")
    if os.path.exists(spans_path):
        os.remove(spans_path)

    cfg = workloads.config(args.workload, args.seed, args.size)
    check = gate.Gate(args.workload, cfg, gate.load_reference())
    attempted = failed = 0
    problems: list[str] = []

    def run_child(child_args: list) -> dict | None:
        nonlocal attempted, failed
        attempted += 1
        rec, why = spawn(child_args, args.workload, args.seed, args.size)
        if rec is None:
            bad = [why]
        else:  # set-up-only records carry no outputs to check
            bad = check.check(rec) if "wall_s" in rec else []
        if bad:
            failed += 1
            problems.extend(bad)
        return rec

    # Set-up probes, each next to a start of the calibration interpreter; the
    # first pair, which also compiles bytecode, is discarded.
    setups: list[float] = []
    starts: list[float] = []
    for i in range(SETUP_PROBES + 1):
        rec = run_child(["--mode", "setup"])
        start = calibrate.time_start(CHILD_ENV)
        if i > 0:
            starts.append(start)
            if rec is not None:
                setups.append(rec["setup_s"])

    plain: list[dict] = []
    traced: list[dict] = []
    t_end = time.monotonic() + args.seconds
    i = 0
    last = 0.0
    while True:
        now = time.monotonic()
        enough = len(plain) >= MIN_ITERATIONS and (
            not args.trace or len(traced) >= MIN_ITERATIONS - 1)
        # Skip an iteration that would mostly run past the window.
        if (enough and now + last / 2 >= t_end) or (
                now >= t_end and i >= 3 * MIN_ITERATIONS):
            break
        with_trace = bool(args.trace and i % 2)
        child_args = ["--mode", "run", "--trace", str(int(with_trace))]
        if with_trace:
            child_args += ["--spans", spans_path, "--run-id", f"{tag}-it{i}"]
        rec = run_child(child_args)
        i += 1
        last = time.monotonic() - now
        if rec is not None:
            (traced if with_trace else plain).append(rec)

    if not setups or not plain or (args.trace and not traced):
        print("error: no set-up probe or no iteration completed:\n  " + "\n  ".join(problems[:20]),
              file=sys.stderr)
        return 1

    # A shared host changes speed by up to 1.6x, for under a second or for
    # minutes at a time, so the median of one run lands in either state.  Each
    # piece of an iteration (a fraction of a second for most) has many
    # chances to run at the run's best speed, so the sum of the per-piece
    # minima is the pass at that speed; the kernel's timings measure the
    # same speed, and scaling by them leaves the time at a fixed speed.
    # Set-up is mostly process start and imports, which slow down in phases
    # of their own; the calibration interpreter's start measures that speed.
    raw = {"wall_min_s": wall_min(plain), "host_q05_s": host_time(plain + traced),
           "setup_min_s": min(setups), "start_min_s": min(starts)}
    scale = calibrate.KERNELS[cfg["kernel"]][1] / raw["host_q05_s"]
    wall = raw["wall_min_s"] * scale
    if args.trace:
        per_iter = [layer_values(r) for r in traced]
        values = {name: statistics.median(v[name] for v in per_iter)
                  for name, _ in PER_LAYER if not name.startswith("trace.")}
        raw["trace.wall_min_s"] = wall_min(traced)
        values["trace.wall_ref_s"] = raw["trace.wall_min_s"] * scale
        values["trace.overhead_s"] = values["trace.wall_ref_s"] - wall
        units = dict(PER_LAYER)
        samples = {name: len(traced) for name in units}
        samples["trace.overhead_s"] = {"traced": len(traced), "untraced": len(plain)}
    else:
        values = {
            "wall_ref_s": wall,
            "setup_s": raw["setup_min_s"] * calibrate.START_REF_S / raw["start_min_s"],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = dict(END_TO_END)
        samples = {"wall_ref_s": len(plain), "setup_s": len(setups),
                   "peak_rss_mb": len(plain)}
    samples["host_s"] = sum(len(r["host_s"]) for r in plain + traced)
    samples["start_s"] = len(starts)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    prov = provenance(args.workload, args.seed, cfg, plain[0]["versions"], samples)
    prov["unscaled"] = raw
    if args.trace:
        # Mean share of traced wall time spent in each layer's own code.
        share: dict[str, float] = {}
        for r in traced:
            for name, s in r["layers"].items():
                share[name] = share.get(name, 0.0) + s["self_s"] / r["wall_s"] / len(traced)
        prov["self_time_share"] = dict(sorted(share.items(), key=lambda kv: -kv[1])[:5])
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        first = plain[0]
        outputs = first["stats"] if "stats" in first else {
            "rows": len(first["rows"]), "verify_rc": first["verify_rc"]}
        json.dump({"provenance": prov, "result": result, "problems": problems,
                   "outputs": outputs,
                   "iterations": {"untraced": [r["wall_s"] for r in plain],
                                  "traced": [r["wall_s"] for r in traced],
                                  "setup": setups,
                                  "start": starts,
                                  "pieces": [r["pieces"] for r in plain],
                                  "host_s": [r["host_s"] for r in plain]}}, fh, indent=1)
    for msg in problems[:20]:
        print(f"gate: {msg}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
