"""The wlmpnn benchmark: one command, three seeded workloads, every output checked.

    python3 perfbench/run.py --workload {synth,engine,suite} --seed N --seconds S --trace {0,1}

Run from the repository root.  Each pass runs the workload's jobs in
CHUNKS fresh interpreters, SLOTS at a time, so module-level caches start
empty as they do for a CLI user and every chunk measures one set-up.
Passes repeat while another fits in --seconds (at least one runs).  Times
are at the reference speed of speed.py, which cancels the machine's drift.

--trace 0 prints the end-to-end metrics, measured untraced.  --trace 1 runs
each chunk untraced and then traced, back to back, and prints the per-layer
metrics, which come from wrappers installed around each module's public
functions (see tracer.py), plus trace.overhead_frac from the paired chunks.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.

At the recorded seed every job's output digest must equal the one in
baseline.json.  --record rewrites those digests instead, for a change that
means to alter outputs; it refuses unless the run is at the recorded seed
and every job of the pass ran and passed its own checks.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
CHUNKS = 10
SLOTS = 2
WORKER_TIMEOUT_S = 150
# A run's chunks are killed once it has taken DEADLINE_SECONDS times --seconds
# (twice that for --trace 1, whose pass runs each chunk twice).
DEADLINE_SECONDS = 2.5
WORKLOADS = ("synth", "engine", "suite")

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)


def tail_percentile(jobs_per_pass: int) -> int:
    """Highest whole percentile with at least ten of a pass's jobs beyond it."""
    return max(0, math.floor(100 * (jobs_per_pass - 10) / jobs_per_pass))


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def run_chunk(workload: str, seed: int, chunk: int, trace: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), f"{chunk}/{CHUNKS}", "1" if trace else "0"]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(0.1, min(WORKER_TIMEOUT_S, deadline - spawned)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"chunk": chunk, "error": "timeout"}
    if proc.returncode != 0 or not out.strip():
        return {"chunk": chunk, "error": f"exit {proc.returncode}"}
    result = json.loads(out.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and worker
    setup_wall = result["first_start"] - spawned - result["setup_probe_s"]
    result["setup_s"] = setup_wall * result["setup_factor"]
    return result


def run_pair(workload: str, seed: int, chunk: int, deadline: float) -> tuple[dict, dict]:
    """One chunk untraced, then traced: the pair's times see the same drift."""
    return run_chunk(workload, seed, chunk, False, deadline), run_chunk(workload, seed, chunk, True, deadline)


def run_pass(workload: str, seed: int, trace: bool, deadline: float) -> list:
    """A pass's chunk results, or with trace its (untraced, traced) pairs."""
    task = run_pair if trace else functools.partial(run_chunk, trace=False)
    with ThreadPoolExecutor(max_workers=SLOTS) as pool:
        return list(pool.map(lambda c: task(workload, seed, c, deadline=deadline), range(CHUNKS)))


def check_pass(chunks: list[dict], expected: dict, check_digests: bool) -> tuple[int, int, str]:
    """(attempted, failed, workload digest) for one pass; missing and
    unexpected jobs count as failed."""
    records = {}
    for chunk in chunks:
        for index, _, ok, digest, _ in chunk.get("jobs", ()):
            records[index] = (ok, digest)
    jobs = expected.get("jobs", len(records))
    attempted = max(jobs, len(records))
    failed = sum(i not in records for i in range(jobs))
    for index, (ok, digest) in records.items():
        wrong = index >= jobs or (check_digests and expected["job_digests"][index] != digest[:16])
        failed += (not ok) or wrong
    lines = "".join(f"{i} {records[i][1]}\n" for i in sorted(records))
    return attempted, failed, hashlib.sha256(lines.encode()).hexdigest()


def job_seconds(chunks: list[dict], column: int = 1) -> list[float]:
    """Sorted job times: column 1 at the reference speed, 4 wall."""
    return sorted(r[column] for c in chunks for r in c.get("jobs", ()))


def end_to_end(passes: list[list[dict]], per_pass_jobs: int) -> dict:
    chunks = [c for p in passes for c in p if "jobs" in c]
    times = job_seconds(chunks)
    return {
        "setup_s": statistics.median(c["setup_s"] for c in chunks),
        "jobs_per_s": len(times) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": nearest_rank(times, tail_percentile(per_pass_jobs)),
        "peak_rss_mb": max(c["rss_mb"] for c in chunks),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the recorded digests from this run")
    args = parser.parse_args(argv)
    if not __debug__:
        print("refusing to run under python -O: verification asserts would be stripped", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "wlmpnn" / "__init__.py").is_file():
        print(f"no wlmpnn sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONOPTIMIZE"):
        print("refusing to run with PYTHONOPTIMIZE set: workers would strip asserts", file=sys.stderr)
        return 2

    baseline = json.loads(BASELINE.read_text())
    if args.record and args.seed != baseline["recorded_seed"]:
        print(f"--record needs the recorded seed {baseline['recorded_seed']}", file=sys.stderr)
        return 2
    expected = baseline["workloads"][args.workload]
    check_digests = args.seed == baseline["recorded_seed"] and not args.record
    started = time.perf_counter()
    deadline = started + DEADLINE_SECONDS * args.seconds * (1 + args.trace)
    passes, traced = [], []
    while True:
        pass_start = time.perf_counter()
        if args.trace:
            pairs = run_pass(args.workload, args.seed, True, deadline)
            passes.append([untraced for untraced, _ in pairs])
            traced = [chunk for _, chunk in pairs]
            break
        passes.append(run_pass(args.workload, args.seed, False, deadline))
        pass_wall = time.perf_counter() - pass_start
        if time.perf_counter() - started + pass_wall > args.seconds:
            break

    attempted = failed = 0
    digests = set()
    for chunks in passes + ([traced] if traced else []):
        for chunk in chunks:
            if "error" in chunk:
                print(f"chunk {chunk['chunk']} failed: {chunk['error']}", file=sys.stderr)
        a, f, digest = check_pass(chunks, {} if args.record else expected, check_digests)
        attempted, failed = attempted + a, failed + f
        digests.add(digest)
    if len(digests) > 1:
        print("outputs differ between passes of one seed", file=sys.stderr)
        failed = attempted
    if check_digests and digests != {expected["sha256"]}:
        print(f"{args.workload} digest {sorted(digests)} != recorded {expected['sha256']}", file=sys.stderr)
    if args.record:
        if failed or any("error" in c for c in passes[0]):
            print("--record refused: a job failed or a chunk did not return", file=sys.stderr)
            return 1
        record(baseline, args.workload, passes[0])

    if args.trace:
        untraced_s = sum(job_seconds(passes[0]))
        traced_s = sum(job_seconds(traced))
        metrics = tracer.layer_metrics([c["trace"] for c in traced if "trace" in c])
        metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        metrics = end_to_end(passes, expected["jobs"])
        metrics["ok_frac"] = 1 - failed / attempted
        units = dict(END_TO_END)
    wall = job_seconds([c for p in passes for c in p], column=4)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  chunks/pass {CHUNKS}  "
          f"jobs/pass {expected['jobs']}  tail percentile p{tail_percentile(expected['jobs'])}")
    print(f"digest {sorted(digests)[0]}" + (" (recorded seed: checked)" if check_digests else ""))
    if wall:
        print(f"wall clock, not drift-corrected: jobs_per_s {len(wall) / sum(wall):.6g}  "
              f"job_p50_s {statistics.median(wall):.6g}  "
              f"job_tail_s {nearest_rank(wall, tail_percentile(expected['jobs'])):.6g}")
    for name in units:
        print(f"  {name:32s} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def record(baseline: dict, workload: str, chunks: list[dict]) -> None:
    """Store one complete, passing pass's digests, by job index."""
    digests = {r[0]: r[3] for c in chunks for r in c["jobs"]}
    jobs = len(digests)
    assert set(digests) == set(range(jobs)), "job indices of the pass are not 0..jobs-1"
    lines = "".join(f"{i} {digests[i]}\n" for i in range(jobs))
    entry = baseline["workloads"][workload]
    entry["jobs"] = jobs
    entry["tail_percentile"] = tail_percentile(jobs)
    entry["sha256"] = hashlib.sha256(lines.encode()).hexdigest()
    entry["job_digests"] = [digests[i][:16] for i in range(jobs)]
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
