"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload synth --seeds 1-10 [--trace 1 --repeat 2]

Spread is the interquartile distance of the runs' values (Python's
statistics.quantiles with n=4) as a share of their median, the figure the
end-to-end bounds in BENCHMARK.json are checked against.  With --repeat 2
each seed runs twice, and the summary lists every counter that must repeat
exactly (tracer.EXACT_COUNTS) but differed between the runs of one seed.
The summary also gives the spread of the wall-clock job figures, which
run.py prints without the drift correction, for comparison.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", default="0")
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    from tracer import EXACT_COUNTS

    seconds = str(json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    runs, unsteady = [], set()
    for seed in (s for s in args.seeds for _ in range(args.repeat)):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", seconds, "--trace", args.trace]
        out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        wall = next((line for line in out.splitlines() if line.startswith("wall clock")), ":")
        fields = wall.split(":", 1)[1].split()
        result["wall"] = dict(zip(fields[::2], map(float, fields[1::2])))
        if args.repeat > 1 and len(runs) % args.repeat:
            first = runs[-(len(runs) % args.repeat)]["metrics"]
            unsteady |= {k for k in EXACT_COUNTS if k in first and first[k] != result["metrics"][k]}
        runs.append(result)
        print(json.dumps({"seed": seed, **result}), flush=True)
    summary = {
        "workload": args.workload,
        "seeds": args.seeds,
        "failed": sum(r["failed"] for r in runs),
        "counts_differing_between_repeats": sorted(unsteady),
        "metrics": {name: spread([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]},
        "wall_metrics": {name: spread([r["wall"][name] for r in runs]) for name in runs[0]["wall"]},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
