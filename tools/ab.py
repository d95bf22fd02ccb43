"""Interleaved A/B run of perfbench's workloads on two checkouts in one process.

perfbench/run.py reads one tree per process, so two trees are compared by
runs that follow each other, and the host's speed can change between them.
This script loads both trees into one interpreter and runs every case on
both sides back to back, in alternating order, so the two latencies of a
case see the same host.

Each checkout's src/torsorlab is loaded under its own package name
(`torsorlab_a` for PARENT, `torsorlab_b` for the checkout that holds this
script), every module of it imported.  Then that checkout's
perfbench/workloads.py is loaded from its file with sys.modules["torsorlab"]
set to the package while it loads, so its `from torsorlab import ...` lines
bind that side's modules.  perfbench/ is read, not changed.

A pass runs the case set in a seeded order; one warm-up call per case kind
and side comes first.  A case's latency is the median of its passes, and per
side the script prints cases_per_s (cases over the summed per-case medians),
the p50 and the tail percentile of perfbench's stats.py, then the summed
latency of each case kind.  Times are as measured: no speed probe, since
both sides of a pair run within a case's time of each other.

Run from anywhere, standard library only:

    python3 tools/ab.py PARENT [--workload W] [--passes N]

PARENT is the checkout to compare against (`.` compares this checkout with
itself).  Without --workload every workload runs.  The cases and their
order come from seed 1, perfbench's standard seed.  The last line of stdout
is JSON.  It exits 1 when a case raises or fails its check on either side,
or when the two sides' canonical answers to a case differ.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import random
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def _from_file(name: str, path: Path, package_dir: Path | None = None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None else [str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses and relative imports look it up here
    spec.loader.exec_module(module)
    return module


def load_side(root: Path, name: str):
    """(package, workloads module) of the checkout `root`, under `name`."""
    src = root / "src" / "torsorlab"
    package = _from_file(name, src / "__init__.py", src)
    for path in sorted(src.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{name}.{path.stem}")
    saved = sys.modules.get("torsorlab")
    sys.modules["torsorlab"] = package
    try:
        workloads = _from_file(f"{name}_workloads", root / "perfbench" / "workloads.py")
    finally:
        if saved is None:
            del sys.modules["torsorlab"]
        else:
            sys.modules["torsorlab"] = saved
    return package, workloads


def run_case(workloads, case):
    """(latency ns, canonical answer, error text or None)."""
    run, canon, check = workloads.KINDS[case.kind]
    start = time.perf_counter_ns()
    try:
        raw = run(case.args)
    except Exception as exc:  # a raise is a failed case
        return time.perf_counter_ns() - start, None, repr(exc)
    elapsed = time.perf_counter_ns() - start
    answer = canon(case.args, raw)
    return elapsed, answer, None if check(case.args, answer) else "wrong answer"


def summary(stats, cases, latencies) -> dict:
    per_case = [median(lat) for lat in latencies]
    ordered = sorted(per_case)
    pct = stats.tail_percentile(len(ordered))
    kinds = {}
    for case, ns in zip(cases, per_case):
        kinds[case.kind] = kinds.get(case.kind, 0.0) + ns / 1e6
    return {"cases_per_s": len(ordered) / (sum(ordered) / 1e9),
            "case_p50_ms": median(ordered) / 1e6,
            "case_tail_ms": stats.nearest_rank(ordered, pct) / 1e6,
            "tail": f"p{pct}",
            "kind_sum_ms": {k: round(v, 4) for k, v in sorted(kinds.items())}}


def compare(workload: str, sides: dict, passes: int, stats) -> tuple[dict, list]:
    """Run one workload on both sides; (per-side summaries, failures)."""
    cases = {s: wl.build(workload, SEED) for s, (_, wl) in sides.items()}
    a, b = cases["a"], cases["b"]
    failures = []
    if [c.key for c in a] != [c.key for c in b]:
        return {}, [(workload, "the two sides build different case sets")]
    for s, (_, wl) in sides.items():
        warmed = set()
        for case in cases[s]:
            if case.kind not in warmed:
                warmed.add(case.kind)
                run_case(wl, case)
    latency = {s: [[] for _ in a] for s in sides}
    rng = random.Random(SEED)
    for p in range(passes):
        order = list(range(len(a)))
        rng.shuffle(order)
        for k, cid in enumerate(order):
            answers = {}
            for s in (("a", "b") if (k + p) % 2 else ("b", "a")):
                ns, answers[s], err = run_case(sides[s][1], cases[s][cid])
                latency[s][cid].append(ns)
                if err:
                    failures.append((f"{s} {cases[s][cid].key}", err))
            if answers["a"] != answers["b"]:
                failures.append((str(a[cid].key), "the two sides answer differently"))
    return {s: summary(stats, cases[s], latency[s]) for s in sides}, failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path, help="the checkout to compare against")
    p.add_argument("--workload", help="one workload (default: every workload)")
    p.add_argument("--passes", type=int, default=3)
    args = p.parse_args(argv)
    if args.passes < 1:
        p.error("--passes must be at least 1")
    parent = args.parent.resolve()
    if not (parent / "src" / "torsorlab" / "__init__.py").is_file():
        p.error(f"no src/torsorlab under {parent}")
    stats = _from_file("perfbench_stats", ROOT / "perfbench" / "stats.py")
    sides = {"a": load_side(parent, "torsorlab_a"), "b": load_side(ROOT, "torsorlab_b")}
    names = sides["b"][1].WORKLOADS
    if args.workload is not None and args.workload not in names:
        p.error(f"--workload must be one of {', '.join(names)}")
    result, failures = {}, []
    for workload in ([args.workload] if args.workload else names):
        result[workload], failed = compare(workload, sides, args.passes, stats)
        failures += failed
        if not result[workload]:
            continue
        print(f"== {workload}: seed {SEED}, {args.passes} passes, a = {parent}, b = {ROOT}")
        for metric in ("cases_per_s", "case_p50_ms", "case_tail_ms"):
            va, vb = (result[workload][s][metric] for s in ("a", "b"))
            print(f"  {metric:<13} a {va:10.5g}  b {vb:10.5g}  b/a - 1 {100 * (vb / va - 1):+6.1f} %")
        for kind, sum_a in result[workload]["a"]["kind_sum_ms"].items():
            sum_b = result[workload]["b"]["kind_sum_ms"][kind]
            print(f"  {kind:<13} a {sum_a:10.3f}  b {sum_b:10.3f} ms summed")
    for key, err in failures[:20]:
        print(f"FAILED {key}: {err}")
    print(json.dumps({"seed": SEED, "passes": args.passes, "failed": len(failures),
                      "workloads": result}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
