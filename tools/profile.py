"""Profile the product paths by module: self time and calls per module of
src/torsorlab, then the functions with the most self time.

The runs are `torsorlab.checks.run_suite()`, as its checks called one at a
time with run_suite's defaults, and one seed-1 pass of each perfbench
workload: its case set built, then every case run, made canonical and
checked, as perfbench/run.py does once per case.  cProfile is enabled only
around each check and around each case's `run` call, the part that
perfbench times; building a case set, making answers canonical and checking
them stay outside.  perfbench/workloads.py and perfbench/speed.py are
loaded from their files and not changed.

Speed: every profiled call (each check, each case) is bracketed by the
probes of perfbench/speed.py, and its profile is scaled to the reference
speed as perfbench scales a case's time, by REFERENCE_PROBE_NS over the
mean of the two probes, before it is summed into its run.  Each table
prints the scaled seconds next to the seconds as measured; the profiler's
own overhead stays in both.

Booking: every Python function is booked to one row, by the file that
defines it: `torsorlab.<module>` for src/torsorlab/<module>.py, `perfbench`
for perfbench/, `stdlib` for the standard library and `other` for the rest
(this script, site-packages).  A builtin, or code that dataclasses generate
(file `<string>`), has no file of its own: its self time is added to its
callers in the shares that cProfile measured per caller, so it lands in the
rows of the Python functions that called it.  The rows then sum to the
profiled total.

Run from anywhere, standard library only (about 8 s on two cores: a
profiled pass runs about 2.5 times slower than a plain one, and the probes
and the per-call tables take about as long again):

    python3 tools/profile.py [--root CHECKOUT] [--ops]

--root names the checkout whose src/ and perfbench/ are profiled (default:
the one that holds this script), so one copy of the script reads two trees.
The last line of stdout is JSON: per run, the profiled total and, per row,
self time and calls, then the TOP functions with the most self time; every
time is at the reference speed, and `measured_s` gives the total and each
row's self time as measured.  It exits 1 when a check of run_suite reads
other than `verified` or raises, or a workload case fails.

--ops counts work instead of time, over the same calls: the bytecodes run
in the frames of src/torsorlab, per module, for each check of run_suite and
each case kind of each workload (OpCounter, by sys.settrace with opcode
events).  A count does not depend on the host's speed, and two runs under
one interpreter give the same counts, so it tells whether a wall time that
moved had its work move too.  Its limits, printed with it: work inside C
builtins is not seen, and counts are compared only under one Python
version.  The whole run takes about 10 s on two cores.  The last line of
stdout is JSON: per run and group, the total and the count of each module.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import sysconfig
from pathlib import Path

HERE = Path(__file__).resolve().parent
# this file's name shadows the stdlib module `profile`, which cProfile imports
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]

import cProfile  # noqa: E402
import pstats  # noqa: E402

ROOT = HERE.parent
TOP = 12
CALLERLESS = ("~", 0, "<top level>")  # where a builtin that no Python function called is booked
STDLIB = Path(sysconfig.get_paths()["stdlib"]).resolve()
SITE = Path(sysconfig.get_paths()["purelib"]).resolve()


def generated(filename: str) -> bool:
    """True for a builtin (`~`) or generated code (`<string>`): no row of its own."""
    return filename in ("~", "<string>")


def row_of(filename: str, root: Path = ROOT) -> str:
    """The row of a Python function defined in `filename`."""
    if filename.startswith("<frozen "):
        return "stdlib"
    path = Path(filename).resolve()
    if path.parent == root / "src" / "torsorlab":
        return f"torsorlab.{path.stem}"
    if path.parent == root / "perfbench":
        return "perfbench"
    if path.is_relative_to(SITE) or not path.is_relative_to(STDLIB):
        return "other"
    return "stdlib"


def booked(stats: dict) -> dict:
    """{Python function: self seconds} over pstats' `stats`, each builtin's or
    generated function's self time added to the Python functions that
    called it, in proportion to its self time under each caller (to its
    calls, when every share reads 0)."""

    def shares(key, seen) -> dict:
        if key not in stats:
            return {CALLERLESS: 1.0} if generated(key[0]) else {key: 1.0}
        if not generated(key[0]):
            return {key: 1.0}
        callers = {c: v for c, v in stats[key][4].items() if c not in seen}
        by = 2 if any(v[2] for v in callers.values()) else 0
        weight = sum(v[by] for v in callers.values())
        if not weight:
            return {CALLERLESS: 1.0}
        out = {}
        for caller, v in callers.items():
            for f, s in shares(caller, seen | {key}).items():
                out[f] = out.get(f, 0.0) + s * v[by] / weight
        return out

    own = {}
    for key, (_, _, tt, _, _) in stats.items():
        for f, s in shares(key, frozenset()).items():
            own[f] = own.get(f, 0.0) + tt * s
    return own


def module_rows(stats: dict, root: Path = ROOT) -> dict:
    """{row: {"self_s", "calls"}}: each Python function's booked self time and
    calls summed by its row; builtins count no calls of their own."""
    rows = {}
    for f, seconds in booked(stats).items():
        row = rows.setdefault("other" if f == CALLERLESS else row_of(f[0], root),
                              {"self_s": 0.0, "calls": 0})
        row["self_s"] += seconds
        row["calls"] += stats[f][1] if f in stats else 0
    return rows


def label(f) -> str:
    return f[2] if f == CALLERLESS else f"{Path(f[0]).name}:{f[1]} {f[2]}"


def report(name: str, prof: Probed, note: str, root: Path) -> dict:
    """Print one run's table and return it for the JSON line."""
    stats = prof.stats
    total = sum(v[2] for v in stats.values())
    rows = sorted(module_rows(stats, root).items(), key=lambda kv: -kv[1]["self_s"])
    raw = module_rows(prof.raw, root)
    measured = sum(v[2] for v in prof.raw.values())
    own = sorted(booked(stats).items(), key=lambda kv: -kv[1])[:TOP]
    print(f"== {name}: {note}; {total:.3f} s profiled at reference speed, "
          f"{measured:.3f} s as measured")
    print(f"  {'row':<22} {'reference':>11} {'share':>8} {'measured':>11} {'calls':>16}")
    for row, v in rows:
        print(f"  {row:<22} {v['self_s']:9.3f} s {100 * v['self_s'] / total:6.1f} % "
              f"{raw[row]['self_s']:9.3f} s {v['calls']:>10} calls")
    print(f"  top {TOP} functions by self time at reference speed, builtins booked to "
          f"their callers:")
    for f, seconds in own:
        calls = stats[f][1] if f in stats else 0
        print(f"  {seconds:9.3f} s {calls:>9} calls  {label(f)}")
    return {"note": note, "profiled_s": round(total, 6), "measured_s": round(measured, 6),
            "modules": {row: {"self_s": round(v["self_s"], 6),
                              "measured_s": round(raw[row]["self_s"], 6), "calls": v["calls"]}
                        for row, v in rows},
            "top": [{"function": label(f), "self_s": round(s, 6),
                     "calls": stats[f][1] if f in stats else 0} for f, s in own]}


def scaled(stats: dict, factor: float) -> dict:
    """pstats' `stats` with every time, its callers' included, multiplied by
    `factor`; the call counts are kept."""
    return {f: (cc, nc, tt * factor, ct * factor,
                {c: (v[0], v[1], v[2] * factor, v[3] * factor) for c, v in callers.items()})
            for f, (cc, nc, tt, ct, callers) in stats.items()}


class Probed:
    """cProfile stats summed over the calls made through `runcall`: `raw` as
    measured, `stats` at the reference speed of `speed` (perfbench/speed.py),
    each call scaled by the probes taken just before and just after it."""

    def __init__(self, speed):
        self.speed, self.raw, self.stats = speed, {}, {}
        speed.probe()  # the first probes of a process run cold and read slow

    def runcall(self, func, *args):
        prof = cProfile.Profile()
        before = self.speed.probe()
        try:
            return prof.runcall(func, *args)
        finally:
            factor = self.speed.at_reference(1.0, before, self.speed.probe())
            stats = pstats.Stats(prof).stats
            for total, add in ((self.raw, stats), (self.stats, scaled(stats, factor))):
                for f, v in add.items():
                    total[f] = pstats.add_func_stats(total.get(f, (0, 0, 0, 0, {})), v)


def load(root: Path, name: str):
    """perfbench/<name>.py of the checkout `root`, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", root / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


class OpCounter:
    """Bytecodes run in the frames of `root`'s src/torsorlab, per module,
    summed over the calls made through `runcall`.

    sys.settrace's global tracer is called as each frame starts (or a
    generator resumes); for a frame whose code is defined in a module of
    src/torsorlab it turns on opcode events (`f_trace_opcodes`) and off line
    events, and returns that module's local tracer, which adds one to the
    module's count per opcode event.  Every other frame gets no local tracer
    and counts nothing; the frames it calls are judged on their own."""

    def __init__(self, root: Path):
        self.root, self.counts, self._local = root, {}, {}

    def _tracer_of(self, filename: str):
        row = "other" if generated(filename) else row_of(filename, self.root)
        if not row.startswith("torsorlab."):
            return None
        counts = self.counts
        counts.setdefault(row, 0)

        def local(frame, event, arg):
            if event == "opcode":
                counts[row] += 1
            return local

        return local

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self._local:
            self._local[filename] = self._tracer_of(filename)
        local = self._local[filename]
        if local is not None:
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
        return local

    def runcall(self, func, *args):
        sys.settrace(self._global)
        try:
            return func(*args)
        finally:
            sys.settrace(None)


OPS_LIMITS = (
    "C builtins are not seen: work done inside big-int arithmetic, sorted, "
    "set and list operations or any other C code runs no bytecode of "
    "src/torsorlab and counts nothing",
    "counts depend on the interpreter: compare them only between runs under "
    "one Python version, never across versions",
)


def walk(root: Path, runner) -> tuple[dict, bool]:
    """Run every check of run_suite and every case of the seed-1 workloads,
    each through `runner(run, group).runcall`, where run is `suite` or a
    workload and group the check's name or the case's kind.  Returns
    ({run: note}, ok), ok False when a check reads other than `verified` or
    raises, or a case fails."""
    notes, ok = {}, True
    for name in ("suite", "h1-permutation", "serre-lattices", "tables-primes"):
        if name == "suite":
            from torsorlab import checks

            # run_suite's default run, one check at a time, so that each
            # check is scaled by the probes around it, or counted apart
            unverified = 0
            for check_name, check in checks.ALL_CHECKS:
                try:
                    unverified += runner(name, check_name).runcall(check).verdict != "verified"
                except Exception:
                    unverified += 1
            notes[name] = f"run_suite, {unverified} checks not verified"
            ok = ok and not unverified
        else:
            workloads = load(root, "workloads")
            cases, failed = workloads.build(name, 1), 0
            for case in cases:
                run, canon, check = workloads.KINDS[case.kind]
                try:
                    answer = runner(name, case.kind).runcall(run, case.args)
                    failed += not check(case.args, canon(case.args, answer))
                except Exception:
                    failed += 1
            notes[name] = f"seed 1, {len(cases)} cases, {failed} failed"
            ok = ok and not failed
    return notes, ok


def ops_report(name: str, note: str, counters: dict) -> dict:
    """Print one run's bytecode counts per group and module, and return them
    for the JSON line."""
    print(f"== {name}: {note}; bytecodes run in src/torsorlab frames")
    groups = {}
    for group, counter in counters.items():
        modules = dict(sorted(counter.counts.items(), key=lambda kv: (-kv[1], kv[0])))
        groups[group] = {"total": sum(modules.values()), "modules": modules}
        print(f"  {group:<36} {groups[group]['total']:>10,}  " + "  ".join(
            f"{row.removeprefix('torsorlab.')} {n:,}" for row, n in modules.items()))
    return {"note": note, "total": sum(g["total"] for g in groups.values()), "groups": groups}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--root", type=Path, default=ROOT)
    p.add_argument("--ops", action="store_true",
                   help="count the bytecodes run in src/torsorlab per module instead")
    args = p.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    runners = {}
    if args.ops:
        def runner(name, group):
            return runners.setdefault(name, {}).setdefault(group, OpCounter(root))
    else:
        speed = load(root, "speed")

        def runner(name, group):
            if name not in runners:
                runners[name] = Probed(speed)
            return runners[name]
    notes, ok = walk(root, runner)
    if args.ops:
        out = {name: ops_report(name, notes[name], runners[name]) for name in notes}
        for limit in OPS_LIMITS:
            print(f"limit: {limit}")
        print(json.dumps({"root": str(root), "seed": 1, "python": sys.version.split()[0],
                          "limits": list(OPS_LIMITS), "runs": out}))
    else:
        out = {name: report(name, runners[name], notes[name], root) for name in notes}
        print(json.dumps({"root": str(root), "seed": 1, "runs": out}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
