"""Print perfbench's cases_per_s next to each case kind's summed latency.

perfbench/run.py reports one rate per workload: the number of cases over the
sum of their per-case medians, each scaled to the reference speed of
perfbench/speed.py.  This script makes the same timed run and splits that
sum by case kind, so that a change to one kind shows apart from the noise of
the others (on tables-primes the `split` cases are the largest share).
perfbench/run.py is loaded from its file and not changed; its own report
lines are printed first.

Run from anywhere, standard library only:

    python3 tools/kinds.py [--workload tables-primes] [--seed 1] [--seconds 30]
                           [--root CHECKOUT]

--root names the checkout whose perfbench/run.py and src/ are run (default:
the one that holds this script), so one copy of the script reads two trees.
The last line of stdout is JSON: the workload, seed, cases_per_s, and per
kind the number of cases and the summed scaled medians in ms.  A run with a
failed case exits 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent


def load_run(root: Path):
    """perfbench/run.py of the checkout `root`, loaded from its file; it
    puts that checkout's src/ first on sys.path as it loads."""
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def kind_sums(replay) -> dict:
    """{kind: summed scaled per-case median, ms} of a timed Replay."""
    sums = {}
    for case, scaled in zip(replay.cases, replay.scaled):
        sums[case.kind] = sums.get(case.kind, 0.0) + median(scaled) / 1e6
    return sums


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="tables-primes")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--root", type=Path, default=ROOT)
    args = p.parse_args(argv)
    run = load_run(args.root.resolve())
    if args.workload not in run.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(run.WORKLOADS)}")
    replay, metrics = run.timed_run(args.workload, args.seed, args.seconds)
    rate = metrics["cases_per_s"]["value"]
    sums, counts = kind_sums(replay), Counter(c.kind for c in replay.cases)
    print(f"cases_per_s {rate:.6g} 1/s")
    for kind in sorted(sums):
        print(f"  {kind:<10} {counts[kind]:>5} cases {sums[kind]:10.3f} ms")
    print(f"  {'all':<10} {len(replay.cases):>5} cases {sum(sums.values()):10.3f} ms")
    for key, err in replay.failures[:20]:
        print(f"FAILED {key}: {err}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "cases_per_s": rate,
                      "kinds": {k: {"cases": counts[k], "sum_ms": round(sums[k], 4)}
                                for k in sorted(sums)}}))
    return 1 if replay.failures else 0


if __name__ == "__main__":
    sys.exit(main())
