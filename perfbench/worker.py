"""One measured repetition: a fresh interpreter that builds a workload's
inputs from the seed and runs the jobs of the groups it is given.

Usage (started by run.py):
    python3 perfbench/worker.py WORKLOAD SEED CHUNK/CHUNKS TRACE
The worker runs the jobs whose group is CHUNK modulo CHUNKS; TRACE is 0 or 1.

Prints one JSON line: the perf_counter time its first job started, the
reference-speed factor and probe time of its set-up, one [index, seconds,
ok, sha256, wall seconds] entry per job, peak RSS, and with TRACE 1 the
tracer's summary.  Seconds are at the reference speed (see speed.py).
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import speed  # noqa: E402  (first, so the probes cover the imports)

PROBE = speed.SpeedProbe()
PROBE.start()
STARTED = time.perf_counter()


def main(argv: list[str]) -> int:
    if not __debug__:
        print("refusing to run under python -O: verification asserts would be stripped", file=sys.stderr)
        return 2
    workload, seed, trace = argv[0], int(argv[1]), argv[3] == "1"
    chunk, chunks = (int(x) for x in argv[2].split("/"))
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing
    import workloads

    out_root = ROOT / "perfbench" / "out"
    out_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as scratch:
        jobs = [(i, job) for i, job in enumerate(workloads.WORKLOADS[workload](seed, Path(scratch))) if job.group % chunks == chunk]
        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        records, spans = [], []
        first_start = time.perf_counter()
        setup_probe_s = PROBE.spent
        for index, job in jobs:
            if tracer is not None:
                tracer.job = index
            spent = PROBE.spent
            start = time.perf_counter()
            try:
                ok, text = job.run()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok, text = False, None
            end = time.perf_counter()
            spans.append((start, end, end - start - (PROBE.spent - spent)))
            if not ok:
                print(f"job {index} {job.name} failed", file=sys.stderr)
            digest = hashlib.sha256(text.encode()).hexdigest() if text is not None else "error"
            records.append([index, None, bool(ok), digest])
        PROBE.stop()
    for record, (start, end, elapsed) in zip(records, spans):
        record[1] = elapsed * PROBE.factor(start, end)
        record.append(elapsed)
    result = {
        "first_start": first_start,
        "setup_factor": PROBE.factor(STARTED, first_start),
        "setup_probe_s": setup_probe_s,
        "jobs": records,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        wall = sum(r[4] for r in records)
        result["trace"] = tracer.summary() | {"time_factor": sum(r[1] for r in records) / wall if wall else 1.0}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
