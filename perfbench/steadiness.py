"""Run a workload on several seeds and report each metric's median and spread.

    python3 perfbench/steadiness.py --workload NAME [--runs 10] [--seconds S]

Each run is a fresh untraced process of run.py, on seeds 1 to --runs.  The
spread of a metric is the distance between the first and third quartiles of
its values (``statistics.quantiles(values, n=4)``) as a share of their
median; a benchmark bound is only meaningful when that spread sits well
inside it.
Prints one JSON object: per metric the values, median, quartiles and spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def summarise(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20)
    args = p.parse_args(argv)
    per_metric = {}
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        result = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode or not result["correct"]:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        for k, m in result["metrics"].items():
            per_metric.setdefault(k, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}"
                                          for k, m in result["metrics"].items()),
              file=sys.stderr, flush=True)
    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "metrics": {k: summarise(v) for k, v in per_metric.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
