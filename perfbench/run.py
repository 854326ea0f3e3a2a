"""pglcensus benchmark: time to verified census and verification verdicts.

Usage (from the repository root):

    python3 perfbench/run.py --workload census-sweep --seed 1 --seconds 30 --trace 0

Each pass of a workload runs in a fresh interpreter (perfbench/worker.py), so
every lru cache starts empty, as it does for a CLI user; the ops within a
pass share caches, as in a library session.  The client is closed-loop: one
op at a time, the next one issued when the previous one returns.  Every op's
output is checked against an answer the benchmark computes or recorded
itself (perfbench/workloads.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and one
traced pass and prints the per-layer metrics.  The last stdout line is one
JSON object; the lines before it are one JSON record per op.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import CACHES, LAYERS  # noqa: E402
from workloads import WORKLOADS, check, make_pass, s4_probe  # noqa: E402

# About the seconds one pass of each workload takes on a 2-core Xeon.  A run
# makes an even number of passes, about --seconds / this, so the number of
# ops, and with it the tail percentile, is fixed for a given --seconds, and
# each census query runs as often with --jobs 1 as with --jobs 2.
PASS_SECONDS = 6.0
SETUP_SAMPLES = 8
TAIL_BEYOND = 10
# Median time of worker.reference_loop() on that Xeon.  An op's
# latency is rescaled by REFERENCE_S over the mean of the loop times measured
# just before and just after it, and set-up by REFERENCE_S over the first loop
# time, so that the gated times follow the program and not the host's speed
# of the moment (see README.md).
REFERENCE_S = 0.016
DEADLINE_S = 170.0

# Per-layer metrics that are one function's call count or self time.
FUNCTION_METRICS = (
    ("gfq.poly_roots", ("calls", "self_s")),
    ("gfq.poly_eval", ("calls",)),
    ("gfq.fq_mul", ("calls",)),
    ("gfq.fq_add", ("calls",)),
    ("gfq.fq_inv", ("calls",)),
    ("moebius.mob_fixed_points", ("calls", "self_s")),
    ("moebius.mob_compose", ("calls",)),
    ("moebius.mob_order", ("calls",)),
    ("moebius.mob_apply", ("calls",)),
    ("moebius.mob_from_three_points", ("calls",)),
    ("stdgroups.stabilized_locus", ("calls", "self_s")),
    ("stdgroups.close_generators", ("calls", "self_s")),
    ("stdgroups.fingerprint", ("calls", "self_s")),
    ("stdgroups.conjugate_subgroup", ("calls",)),
    ("census.oracle_enum_elem_abelian", ("self_s",)),
    ("census.enum_additive_subgroups", ("self_s",)),
    ("census.enum_actions", ("self_s",)),
    ("elliptic.ec_add", ("calls",)),
    ("elliptic.ec_points", ("self_s",)),
    ("elliptic.enum_spf_actions", ("self_s",)),
    ("elliptic.verify_fpf_dichotomy", ("self_s",)),
    ("elliptic.verify_genus1_finiteness", ("self_s",)),
    ("elliptic.count_auts_fixing", ("self_s",)),
)


class BenchError(RuntimeError):
    pass


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError(f"benchmark exceeded {DEADLINE_S:.0f} s")
        return left


def run_worker(ops, deadline: Deadline, trace=False) -> dict:
    """Start a fresh interpreter, time it to "ready" (set-up), run the ops
    and return the worker's result with the set-up and run times added, raw
    and rescaled.  With no ops this measures set-up alone."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC)]
    if trace:
        cmd.append("--trace")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(deadline.left(), proc.kill)
    killer.start()
    try:
        if proc.stdout.readline() != "ready\n":
            raise BenchError("worker failed before it was ready (is src/pglcensus importable?)")
        setup_s = time.perf_counter() - t0
        proc.stdin.write(json.dumps(ops) + "\n")
        proc.stdin.close()
        line = proc.stdout.readline()
        if proc.wait() != 0 or not line:
            raise BenchError(f"worker exited with {proc.returncode}")
        result = json.loads(line)
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    ref = result["reference_s"]
    for i, rec in enumerate(result["ops"]):
        rec["scaled_s"] = rec["latency_s"] * REFERENCE_S * 2 / (ref[i] + ref[i + 1])
    result["raw_setup_s"] = setup_s
    result["setup_s"] = setup_s * REFERENCE_S / ref[0]
    result["raw_run_s"] = setup_s + sum(rec["latency_s"] for rec in result["ops"])
    result["run_s"] = result["setup_s"] + sum(rec["scaled_s"] for rec in result["ops"])
    return result


def checked(ops, result, pass_index) -> list[dict]:
    rows = []
    for i, (op, rec) in enumerate(zip(ops, result["ops"])):
        error = check(op, rec)
        rows.append(
            {
                "pass": pass_index,
                "op": i,
                "tag": op["tag"],
                "q_r": op["q_r"],
                "capture_q": op["capture_q"],
                "locus_size": op["locus_size"],
                "jobs": op["jobs"],
                "latency_s": rec["latency_s"],
                "scaled_s": rec["scaled_s"],
                "stdout_bytes": len(rec["stdout"].encode()),
                "ok": not error,
                "error": error,
                "argv": op["argv"],
            }
        )
    return rows


def probe_s4(deadline: Deadline) -> int:
    ops = s4_probe()
    rows = checked(ops, run_worker([op["argv"] for op in ops], deadline), "s4-probe")
    failed = [r for r in rows if not r["ok"]]
    for r in failed:
        print(f"known defect: {' '.join(r['argv'])}: {r['error']}", file=sys.stderr)
    return len(failed)


def tail(values: list[float]) -> tuple[float, float]:
    """The latency with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(values)
    k = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def sloc(path: Path) -> int:
    return sum(
        1
        for line in path.read_text().splitlines()
        if line.strip() and not line.strip().startswith("#")
    )


def time_metrics(setups, runs, latencies) -> dict:
    tail_s, _ = tail(latencies) if latencies else (0.0, 0.0)
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(runs),
        "op_p50_s": statistics.median(latencies) if latencies else 0.0,
        "op_tail_s": tail_s,
    }


def end_to_end(workload: str, seed: int, seconds: int, deadline: Deadline):
    setups = [run_worker([], deadline) for _ in range(SETUP_SAMPLES)]
    passes = 2 * max(1, int(seconds / PASS_SECONDS / 2))
    rows, runs, rss = [], [], []
    for i in range(passes):
        ops = make_pass(workload, seed, i)
        result = run_worker([op["argv"] for op in ops], deadline)
        setups.append(result)
        runs.append(result)
        rss.append(result["maxrss_kb"] / 1024.0)
        rows += checked(ops, result, i)
    probe_s4(deadline)
    good = [r for r in rows if r["ok"]]
    scaled = time_metrics(
        [w["setup_s"] for w in setups], [w["run_s"] for w in runs], [r["scaled_s"] for r in good]
    )
    raw = time_metrics(
        [w["raw_setup_s"] for w in setups], [w["raw_run_s"] for w in runs], [r["latency_s"] for r in good]
    )
    _, pct = tail([r["latency_s"] for r in good]) if good else (0.0, 0.0)
    print(
        f"{workload}: {passes} passes, {len(rows)} ops; op_tail_s is the p{pct:.1f} "
        f"latency of {len(good)} successful ops ({TAIL_BEYOND} beyond it); "
        f"unscaled: {json.dumps(raw)}",
        file=sys.stderr,
    )
    metrics = {name: (value, "s") for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (statistics.median(rss), "MB")
    return rows, metrics


def per_layer(workload: str, seed: int, deadline: Deadline):
    ops = make_pass(workload, seed, 0, single_job=True)
    argvs = [op["argv"] for op in ops]
    plain = run_worker(argvs, deadline)
    traced = run_worker(argvs, deadline, trace=True)
    rows = checked(ops, plain, "untraced") + checked(ops, traced, "traced")
    tr = traced["trace"]
    calls, self_s, layer_s, caches = tr["calls"], tr["self_s"], tr["layer_s"], tr["caches"]

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_s.get(layer, 0.0), "s")
    for key, kinds in FUNCTION_METRICS:
        for kind in kinds:
            if kind == "calls":
                metrics[f"{key}.calls"] = (calls.get(key, 0), "count")
            else:
                metrics[f"{key}.self_s"] = (self_s.get(key, 0.0), "s")
    metrics["gfq.elems_created"] = (tr["elems_created"], "count")
    compose = caches["moebius.mob_compose"]
    lookups = compose["hits"] + compose["misses"]
    metrics["moebius.mob_compose.hit_ratio"] = (compose["hits"] / lookups if lookups else 0.0, "ratio")
    metrics["moebius.mob_compose.cache_size"] = (compose["size"], "count")
    located = tr["locus_under_enum"]
    metrics["census.match_ratio"] = (tr["reported_matches"] / located if located else 0.0, "ratio")
    projected = tr["projections"]
    metrics["stdgroups.subgroup_project.rational_ratio"] = (
        tr["rational_projections"] / projected if projected else 0.0,
        "ratio",
    )
    metrics["census.to_json.self_s"] = (
        self_s.get("census.census_report_to_json", 0.0) + self_s.get("census.main_theorem_report_to_json", 0.0),
        "s",
    )
    metrics["cli.stdout_bytes"] = (sum(len(r["stdout"].encode()) for r in traced["ops"]), "B")
    for layer, name in CACHES:
        info = caches[f"{layer}.{name}"]
        for field in ("hits", "misses", "size"):
            metrics[f"cache.{layer}.{name}.{field}"] = (info[field], "count")
    for layer in LAYERS:
        metrics[f"{layer}.sloc"] = (sloc(SRC / "pglcensus" / f"{layer}.py"), "lines")
    metrics["src.sloc"] = (sum(sloc(path) for path in SRC.rglob("*.py")), "lines")
    # rescaled like run_s; the unscaled times are in the traced run's records
    metrics["trace.untraced_run_s"] = (plain["run_s"], "s")
    metrics["trace.run_s"] = (traced["run_s"], "s")
    metrics["trace.overhead_s"] = (traced["run_s"] - plain["run_s"], "s")
    metrics["census.s4_probe_failed"] = (probe_s4(deadline), "count")
    return rows, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pglcensus" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'pglcensus'}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind through run_worker's cleanup, which kills the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    deadline = Deadline(DEADLINE_S)
    try:
        run_worker([], deadline)  # compiles the .pyc files once
        if args.trace:
            rows, metrics = per_layer(args.workload, args.seed, deadline)
        else:
            rows, metrics = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    failed = sum(1 for r in rows if not r["ok"])
    summary = {
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
