"""torsor-lab benchmark: replay one workload's verification cases and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else.  One process, one thread, one case at a time.

``--trace 0`` times cases untraced.  Set-up (import, catalog construction,
input generation) is timed first; the import is repeated in fresh
interpreters and input generation in this one, and the medians are taken.
Then the first case of each kind runs once untimed, to finish lazy set-up,
and the measured loop replays the whole case set a fixed number of times,
each pass in its own seeded order.  The number of passes depends
only on the workload and ``--seconds`` (see PASSES_AT_30), never on how fast
the code runs, so every commit is read with the same estimator.  Every
case and every set-up step is bracketed by speed probes, and its time is
reported at the probe's reference speed (see speed.py), which cancels the
shared host's changing speed.  A case's latency is the median of its
scaled observations.  The times as measured are printed too.

``--trace 1`` runs one pass in which every case runs three times: plain,
under the timing spans, and under the counters (see tracing.py).  It
reports the per-layer metrics: self times from the spans, calls and sizes
from the counters.  The spans go to ``perfbench/out/``.

Every answer is checked against its theorem and every run of a case must
give the answer of the first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
if not (SRC / "torsorlab" / "__init__.py").is_file():
    sys.exit(f"error: no torsorlab sources under {SRC}; run from a checkout")

sys.path[:0] = [str(SRC), str(HERE)]
import speed  # noqa: E402

_probe_before = speed.probe()
_import_start = time.perf_counter_ns()
import sympy  # noqa: E402,F401  torsorlab imports it lazily; count it in set-up
import torsorlab  # noqa: E402
from stats import nearest_rank, tail_percentile  # noqa: E402
from workloads import KINDS, WORKLOADS, build, digest  # noqa: E402

IMPORT_NS = time.perf_counter_ns() - _import_start
IMPORT_S = speed.at_reference(IMPORT_NS, _probe_before, speed.probe()) / 1e9
if Path(torsorlab.__file__).resolve().parent != SRC / "torsorlab":
    sys.exit(f"error: imported torsorlab from {torsorlab.__file__}, not {SRC}")

# Passes a timed run makes at --seconds 30, the benchmark's standard length;
# other --seconds scale them, to at least one pass.  One pass takes 15-30 s
# for h1-permutation and 7-10 s for the other two on a busy 2-core machine.
PASSES_AT_30 = {"h1-permutation": 1, "serre-lattices": 3, "tables-primes": 3}
SETUP_REPEATS = 3
# The import is timed in this process and in IMPORT_REPEATS - 1 fresh
# interpreters, the same way, and set-up counts the median.
IMPORT_REPEATS = 5
FRESH_IMPORT = """
import sys, time
sys.path[:0] = sys.argv[1:]
import speed
before = speed.probe()
start = time.perf_counter_ns()
import sympy, torsorlab, stats, workloads
took = time.perf_counter_ns() - start
print(speed.at_reference(took, before, speed.probe()) / 1e9)
"""
END_TO_END = (("cases_per_s", "1/s"), ("case_p50_ms", "ms"), ("case_tail_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


def run_case(case):
    """(latency ns, answer or None, ok, error text or None) for one case."""
    run, canon, check = KINDS[case.kind]
    start = time.perf_counter_ns()
    try:
        raw = run(case.args)
    except Exception as exc:  # a raise is a failed case, never a crash
        return time.perf_counter_ns() - start, None, False, repr(exc)
    elapsed = time.perf_counter_ns() - start
    answer = canon(case.args, raw)
    return elapsed, answer, bool(check(case.args, answer)), None


class Replay:
    """Runs cases, keeps per-case latencies, first answers and failures.

    With ``probed`` every case is bracketed by speed probes (the probe after
    one case is the probe before the next), and ``scaled`` keeps each
    latency at the reference speed (see speed.py).
    """

    def __init__(self, cases, probed=False):
        self.cases = cases
        self.latency = [[] for _ in cases]
        self.scaled = [[] for _ in cases]
        self.probes = [speed.probe()] if probed else None
        self.answers = [None] * len(cases)
        self.attempted = 0
        self.failures = []

    def one(self, cid, tracer=None):
        if tracer is not None:
            tracer.case = cid
        ns, answer, ok, err = run_case(self.cases[cid])
        if tracer is not None:
            tracer.case = -1
        if self.probes is not None:
            self.probes.append(speed.probe())
            self.scaled[cid].append(speed.at_reference(ns, *self.probes[-2:]))
        self.attempted += 1
        if not self.latency[cid]:
            self.answers[cid] = answer
        elif answer != self.answers[cid]:
            ok, err = False, err or "answer differs from the first pass"
        self.latency[cid].append(ns)
        if not ok:
            self.failures.append((self.cases[cid].key, err or "wrong answer"))

    def digest(self) -> str:
        return digest([(c.key, a) for c, a in zip(self.cases, self.answers)])


def warm_up(cases):
    """Run the first case of each kind once, so lazy initialisation is not timed."""
    done = set()
    for case in cases:
        if case.kind not in done:
            done.add(case.kind)
            run_case(case)


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import what this one did, at the reference speed."""
    proc = subprocess.run([sys.executable, "-c", FRESH_IMPORT, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def timed_run(name, seed, seconds):
    gen = []
    for _ in range(SETUP_REPEATS):
        before = speed.probe()
        start = time.perf_counter_ns()
        cases = build(name, seed)
        gen.append(speed.at_reference(time.perf_counter_ns() - start, before, speed.probe()))
    imports = [IMPORT_S] + [fresh_import_s() for _ in range(IMPORT_REPEATS - 1)]
    setup_s = median(imports) + median(gen) / 1e9
    warm_up(cases)

    passes = max(1, round(PASSES_AT_30[name] * seconds / 30))
    rng = random.Random(seed)
    replay = Replay(cases, probed=True)
    start = time.perf_counter()
    for _ in range(passes):
        order = list(range(len(cases)))
        rng.shuffle(order)
        for cid in order:
            replay.one(cid)
    wall = time.perf_counter() - start

    per_case = sorted(median(lat) for lat in replay.scaled)
    measured = sorted(median(lat) for lat in replay.latency)
    n = len(per_case)
    pct = tail_percentile(n)
    values = {
        "setup_s": setup_s,
        "cases_per_s": n / (sum(per_case) / 1e9),
        "case_p50_ms": median(per_case) / 1e6,
        "case_tail_ms": nearest_rank(per_case, pct) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {name} seed {seed}: {n} cases, {passes} passes in {wall:.1f} s; "
          f"tail = p{pct} of {n} per-case latencies")
    print(f"as measured, before scaling to the reference speed: "
          f"cases_per_s {n / (sum(measured) / 1e9):.6g} 1/s, "
          f"case_p50_ms {median(measured) / 1e6:.6g} ms, "
          f"case_tail_ms {nearest_rank(measured, pct) / 1e6:.6g} ms; median probe "
          f"{median(replay.probes) / 1e3:.1f} us, reference {speed.REFERENCE_PROBE_NS / 1e3:.1f} us")
    return replay, {k: {"value": values[k], "unit": u} for k, u in END_TO_END}


def traced_run(name, seed):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install("time")  # set-up spans carry case id -1
    cases = build(name, seed)
    warm_up(cases)
    tracer.uninstall()

    # Each case runs plain and under the spans back to back, in alternating
    # order, so both runs of a case see the same speed of the shared
    # machine; then once more under the counters.
    order = list(range(len(cases)))
    random.Random(seed).shuffle(order)
    plain, timed, counted = Replay(cases), Replay(cases), Replay(cases)
    for k, cid in enumerate(order):
        for spans_on in ((True, False) if k % 2 else (False, True)):
            if spans_on:
                tracer.install("time")
                timed.one(cid, tracer)
                tracer.uninstall()
            else:
                plain.one(cid)
        tracer.install("count")
        counted.one(cid)
        tracer.uninstall()
    untraced_s = sum(lat[0] for lat in plain.latency) / 1e9
    traced_s = sum(lat[0] for lat in timed.latency) / 1e9

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.json"
    tracer.write(path, workload=name, seed=seed)
    for replay in (timed, counted):
        if replay.digest() != plain.digest():
            plain.failures.append(("digest", "traced and untraced answers differ"))
    spans = tracer.span_calls()
    if any(spans[n] != tracer.counts[n] for n in spans):
        plain.failures.append(("trace", "spans and counters disagree on call counts"))
    print(f"workload {name} seed {seed}: cases took {traced_s:.1f} s under spans, "
          f"{untraced_s:.1f} s plain; {len(tracer.spans)} spans written to {path}")
    for replay in (timed, counted):
        plain.attempted += replay.attempted
        plain.failures += replay.failures
    return plain, tracer.layer_metrics(traced_s - untraced_s)


def fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def single(args) -> int:
    if args.trace:
        replay, metrics = traced_run(args.workload, args.seed)
    else:
        replay, metrics = timed_run(args.workload, args.seed, args.seconds)
    failed = len(replay.failures)
    for key, err in replay.failures[:20]:
        print(f"FAILED {key}: {err}")
    print(f"digest {args.workload} {replay.digest()}")
    print(f"failed_frac {failed / replay.attempted:.6g} ({failed} of {replay.attempted})")
    for k, m in metrics.items():
        print(f"{k} {fmt(m['value'])} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": replay.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced, each in its own process."""
    ok = True
    for name in WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            if proc.returncode or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            digest = next(ln.split()[2] for ln in lines if ln.startswith("digest "))
            results[trace] = (json.loads(lines[-1]), digest)
        (e2e, d0), (layers, d1) = results[0], results[1]
        same = d0 == d1
        ok = ok and same and e2e["correct"] and layers["correct"]
        print(f"== {name}")
        print(f"  digest untraced {d0}")
        print(f"  digest traced   {d1} ({'same' if same else 'DIFFERENT'})")
        print(f"  failed_frac {e2e['failed'] / e2e['attempted']:.6g} "
              f"({e2e['failed']} of {e2e['attempted']})")
        for k, m in e2e["metrics"].items():
            print(f"  {k} {fmt(m['value'])} {m['unit']}")
        shares = layer_shares(layers["metrics"])
        total = sum(shares.values())
        print("  summed self_s by layer: " + ", ".join(
            f"{k} {v:.3f} s ({100 * v / total:.1f} %)" for k, v in shares.items()))
        print(f"  trace.overhead_s {layers['metrics']['trace.overhead_s']['value']:.3f} s")
    return 0 if ok else 1


def layer_shares(metrics) -> dict:
    out = {}
    for k, m in metrics.items():
        if k.endswith(".self_s"):
            layer = k.split(".")[0]
            out[layer] = out.get(layer, 0.0) + m["value"]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        p.error("--workload or --all is required")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
