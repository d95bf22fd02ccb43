"""Spans and counters around torsorlab's layer functions, installed from outside.

``Tracer.install(mode)`` replaces each function of TIMED and COUNTED by a
wrapper, in every ``torsorlab`` module namespace that binds it (so
``from .linalg import smith_normal_form`` in ``lattices`` is wrapped too), and
on the class for methods.  ``uninstall()`` puts the originals back.  The
wrappers are built once per mode; ``install`` and ``uninstall`` only rebind
them, so a run can switch tracing on and off around single cases.

The two modes are used in separate runs of a case, so neither disturbs the
other's figures:

- ``"time"`` wraps the TIMED functions only.  Each call records one span:
  name, start, end, parent span and the id of the case being run (-1
  outside cases).  Nothing else runs inside a span, so a span's self time
  is the function's own time plus the wrapper's bookkeeping.
- ``"count"`` wraps TIMED and COUNTED functions with counters, and runs the
  HOOKS that read sizes from arguments and results.  COUNTED functions
  run millions of times per pass, and timing each call would cost more
  than the call.

Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

from stats import self_times

# (module, attribute) of each function that gets a span
TIMED = (
    ("linalg", "smith_normal_form"),
    ("linalg", "kernel_basis"),
    ("linalg", "solve_int"),
    ("linalg", "column_space_basis"),
    ("groups", "all_subgroups"),
    ("groups", "generated_subgroup"),
    ("groups", "generating_set"),
    ("gsets", "coset_gset"),
    ("lattices", "equivariant_sublattice"),
    ("lattices", "exactness_report"),
    ("lattices", "permutation_lattice"),
    ("cohomology", "h1_abelian"),
    ("cohomology", "enumerate_cocycles"),
    ("cohomology", "h1_nonabelian"),
    ("torsors", "verify_twist_bijection"),
    ("invsys", "lim1_truncated"),
    ("numtheory", "factor_mod_p"),
    ("numtheory", "dedekind_split"),
    ("numtheory", "abelian_split"),
    ("numtheory", "abelian_defining_polynomial"),
    ("serre", "build_serre"),
    ("serre", "cm_type_basis"),
    ("serre", "verify_serre_sequence"),
    ("serre", "conjugation_block_decomposition"),
)

# (module, attribute) of each function that is only counted
COUNTED = (
    ("linalg", "lattice_contains"),
    ("groups", "FiniteGroup.mul"),
    ("groups", "FiniteGroup.inv"),
    ("groups", "GroupHom.__call__"),
    ("cohomology", "CrossedHom.from_generators"),
)

FACTOR_DEGREES = (2, 3, 4, 5, 6)


def _shape(matrix) -> tuple:
    shape = np.shape(matrix)
    if len(shape) == 2:
        return shape
    return (1, shape[0]) if len(shape) == 1 else (1, 1)


def _bits(values) -> int:
    return max((abs(int(v)).bit_length() for v in values), default=0)


def _snf_stats(tracer, st, args, out, _):
    rows, cols = _shape(args[0])
    st["max_rows"] = max(st.get("max_rows", 0), rows)
    st["max_cols"] = max(st.get("max_cols", 0), cols)
    st["cells"] = st.get("cells", 0) + rows * cols
    # the diagonal and the column transforms; the row transforms are
    # rows x rows and reading them would cost more than the call
    bits = _bits(out.diagonal)
    for name in ("right", "right_inv"):
        m = getattr(out, name, None)
        if m is not None:
            bits = max(bits, _bits(m.flat))
    st["max_out_bits"] = max(st.get("max_out_bits", 0), bits)


def _kernel_stats(tracer, st, args, out, _):
    st["max_rows"] = max(st.get("max_rows", 0), _shape(args[0])[0])


def _enum_pre(tracer):
    return tracer.counts["cohomology.CrossedHom.from_generators"]


def _enum_stats(tracer, st, args, out, before):
    # every candidate assignment is closed by one from_generators call
    st["candidates"] = st.get("candidates", 0) + (
        tracer.counts["cohomology.CrossedHom.from_generators"] - before)
    st["kept"] = st.get("kept", 0) + len(out)


def _lim1_stats(tracer, st, args, out, _):
    st["set_size"] = st.get("set_size", 0) + out.set_size
    st["checked"] = st.get("checked", 0) + out.checked_pairs


def _factor_stats(tracer, st, args, out, _):
    poly, p = args[0], args[1]
    deg = max((i for i, c in enumerate(poly) if c % p), default=-1)
    st[f"deg{deg}.calls"] = st.get(f"deg{deg}.calls", 0) + 1


HOOKS = {
    "linalg.smith_normal_form": (None, _snf_stats),
    "linalg.kernel_basis": (None, _kernel_stats),
    "cohomology.enumerate_cocycles": (_enum_pre, _enum_stats),
    "invsys.lim1_truncated": (None, _lim1_stats),
    "numtheory.factor_mod_p": (None, _factor_stats),
}

# name, unit, better: the per-layer metrics a traced run reports
PER_LAYER = tuple(
    [(f"{m}.{f}.{s}", unit, "lower") for m, f in TIMED
     for s, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"{m}.{f}.calls", "count", "lower") for m, f in COUNTED]
    + [
        ("linalg.smith_normal_form.max_rows", "rows", "lower"),
        ("linalg.smith_normal_form.max_cols", "cols", "lower"),
        ("linalg.smith_normal_form.cells", "cells", "lower"),
        ("linalg.smith_normal_form.max_out_bits", "bits", "lower"),
        ("linalg.kernel_basis.max_rows", "rows", "lower"),
        ("cohomology.enumerate_cocycles.candidates", "count", "lower"),
        ("cohomology.enumerate_cocycles.kept", "count", "lower"),
        ("cohomology.enumerate_cocycles.kept_ratio", "ratio", "higher"),
        ("invsys.lim1_truncated.set_size", "count", "lower"),
        ("invsys.lim1_truncated.checked", "count", "lower"),
    ]
    + [(f"numtheory.factor_mod_p.deg{d}.calls", "count", "lower") for d in FACTOR_DEGREES]
    + [("trace.overhead_s", "s", "lower")]
)


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in TIMED]
        self.index = {n: i for i, n in enumerate(self.names)}
        self.spans = []  # [name index, start ns, end ns, parent, case]
        self.stack = []
        self.case = -1
        self.counts = {f"{m}.{f}": 0 for m, f in TIMED + COUNTED}
        self.stats = {n: {} for n in self.names}
        self.bindings = {}  # mode -> [(namespace, attribute, original, wrapper)]

    # -- installation -------------------------------------------------------

    def install(self, mode: str):
        if mode not in self.bindings:
            mods = [m for name, m in sorted(sys.modules.items())
                    if name == "torsorlab" or name.startswith("torsorlab.")]
            out = self.bindings[mode] = []
            if mode == "time":
                for m, f in TIMED:
                    self._bind(out, mods, m, f, self._timed)
            else:
                for m, f in TIMED + COUNTED:
                    self._bind(out, mods, m, f, self._counted)
        self.mode = mode
        for owner, attr, _, wrapped in self.bindings[mode]:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig, _ in self.bindings[self.mode]:
            setattr(owner, attr, orig)

    @staticmethod
    def _bind(out, mods, module, attr, make):
        name = f"{module}.{attr}"
        owner = sys.modules[f"torsorlab.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            if isinstance(orig, classmethod):
                wrapped = classmethod(make(name, orig.__func__))
            else:
                wrapped = make(name, orig)
            out.append((cls, meth, orig, wrapped))
            return
        orig = getattr(owner, attr)
        wrapped = make(name, orig)
        for m in mods:
            for key, value in vars(m).items():
                if value is orig:
                    out.append((m, key, orig, wrapped))

    def _timed(self, name, fn):
        idx = self.index[name]
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [idx, 0, 0, stack[-1] if stack else -1, self.case]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        pre, post = HOOKS.get(name, (None, None))
        if post is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        stats = self.stats[name]

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            counts[name] += 1
            state = pre(self) if pre else None
            out = fn(*args, **kwargs)
            post(self, stats, args, out, state)
            return out

        return hooked

    # -- results ------------------------------------------------------------

    def span_calls(self) -> dict:
        """Spans of cases (case id >= 0) per TIMED function."""
        out = dict.fromkeys(self.names, 0)
        for rec in self.spans:
            if rec[4] >= 0:
                out[self.names[rec[0]]] += 1
        return out

    def layer_metrics(self, overhead_s: float) -> dict:
        """PER_LAYER values: self_s from the spans of cases (case id >= 0),
        calls and sizes from the counting runs."""
        selfs = self_times([(r[1], r[2], r[3]) for r in self.spans])
        self_ns = dict.fromkeys(self.names, 0)
        for rec, s in zip(self.spans, selfs):
            if rec[4] >= 0:
                self_ns[self.names[rec[0]]] += s
        values = {f"{n}.calls": c for n, c in self.counts.items()}
        for n in self.names:
            values[f"{n}.self_s"] = self_ns[n] / 1e9
            for k, v in self.stats[n].items():
                values[f"{n}.{k}"] = v
        enum = self.stats["cohomology.enumerate_cocycles"]
        cand = enum.get("candidates", 0)
        values["cohomology.enumerate_cocycles.kept_ratio"] = enum.get("kept", 0) / cand if cand else 0.0
        values["trace.overhead_s"] = overhead_s
        units = {n: u for n, u, _ in PER_LAYER}
        return {n: {"value": values.get(n, 0), "unit": units[n]} for n in units}

    def write(self, path, **meta):
        with open(path, "w") as fh:
            json.dump({**meta, "names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))
