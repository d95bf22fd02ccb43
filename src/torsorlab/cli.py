"""Command-line front end: machine-first JSON on stdout, summary on stderr.

Exit codes: 0 verified/ok, 1 refuted, 2 unknown at horizon, 3 error.
Reports are byte-identical for a fixed config and seed; wall-clock timing
is emitted only with --timing and is excluded from that guarantee.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import SBAR_CONDITION, __version__
from . import cohomology as co
from . import groups as gr
from . import gsets as gs
from . import invsys as iv
from . import lattices as lt
from . import linalg as la
from . import numtheory as nt
from . import serre as sr
from . import torsors as to
from . import jsonio
from .checks import blocks_hold, run_suite, sequences_hold, twist_holds, verdict, worst

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3
# the exit code of each verdict but "error"
_EXITS = {"ok": EXIT_OK, "verified": EXIT_OK, "refuted": EXIT_REFUTED,
          "unknown-at-horizon": EXIT_UNKNOWN}


def _emit(claim, verdict, evidence, args):
    rep = {
        "claim": claim,
        "verdict": verdict,
        "evidence": evidence,
        "tool_version": __version__,
        "conventions": {"sbar-condition": SBAR_CONDITION},
        "config": {"seed": args.seed, "horizon": args.horizon, "budget": args.budget},
    }
    if args.timing:
        rep["timing_ms"] = int((time.time() - args._t0) * 1000)
    text = json.dumps(rep, indent=2, sort_keys=True)
    # a failed write, to --out or to stdout (a closed pipe), is the
    # report's own error, not one of reading the input
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
            sys.stdout.flush()
    except OSError as e:
        print(f"[torsor-lab] write error: {e}", file=sys.stderr)
        return EXIT_ERROR
    print(f"[torsor-lab] {claim}: {verdict}", file=sys.stderr)
    return _EXITS.get(verdict, EXIT_ERROR)


def _decided(status) -> str:
    """The verdict of a dichotomy: both of its outcomes are verified, and
    only a status left unknown is not."""
    return verdict([None if status in ("unknown", "unknown-at-horizon") else True])


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the parsed arguments and the <ref> of each
# file its COMMANDS row names, in that order


def cmd_groups_classes(args, group):
    g = jsonio.group_from_json(group)
    classes = gr.conjugacy_classes(g)
    evidence = {
        "order": g.order,
        "class_count": len(classes),
        "classes": [list(c) for c in classes],
        "centralizer_orders": [len(gr.centralizer(g, c[0])) for c in classes],
    }
    return _emit("conjugacy-classes", "ok", evidence, args)


def cmd_gset_orbits(args, gset):
    dec = gs.orbits(jsonio.gset_from_json(gset))
    evidence = {
        "orbits": [list(o) for o in dec.orbit_sets],
        "stabilizer_orders": [len(s) for s in dec.stabilizers],
    }
    return _emit("gset-orbits", "ok", evidence, args)


def cmd_gset_descent(args, gset):
    # one restriction-of-scalars factor per orbit, of degree the orbit size
    evidence = [
        {"representative": orb[0], "degree": len(orb), "stabilizer_order": len(stab)}
        for orb, stab in gs.orbits(jsonio.gset_from_json(gset)).orbits
    ]
    return _emit("descent-factors", "ok", evidence, args)


def cmd_gset_iso(args, gset, other):
    m = gs.gset_iso(jsonio.gset_from_json(gset), jsonio.gset_from_json(other))
    evidence = {"isomorphic": m is not None, "bijection": list(m) if m else None}
    return _emit("gset-isomorphism", "ok", evidence, args)


def cmd_lattice_snf(args, matrix):
    s = la.smith_normal_form(jsonio.matrix_from_json(matrix), transforms=("left", "right"))
    evidence = {"diagonal": s.diagonal, "left": s.left, "right": s.right}
    return _emit("smith-normal-form", "ok", evidence, args)


def cmd_lattice_exact(args, sequence):
    rep = lt.exactness_report(jsonio.exact_sequence_from_json(sequence))
    evidence = {
        "joints": [
            {
                "composite_zero": j.composite_zero,
                "saturated": j.image_equals_kernel_saturated,
                "integral": j.image_equals_kernel_integral,
            }
            for j in rep.joints
        ],
        "first_injective": rep.first_injective,
        "last_surjective": rep.last_surjective,
    }
    return _emit("lattice-exactness", verdict([rep.exact]), evidence, args)


def cmd_lattice_iso(args, lattice_map):
    ok = lt.is_equivariant_iso(jsonio.lattice_map_from_json(lattice_map))
    return _emit("lattice-isomorphism", verdict([ok]), {"is_isomorphism": ok}, args)


def cmd_cohomology_h1(args, module):
    m = jsonio.module_from_json(module)
    if isinstance(m, lt.ZGLattice):
        H = co.h1_abelian(m.group, m)
        evidence = {"invariants": [int(d) for d in H.invariants], "order": H.order()}
        return _emit("lattice-h1", "ok", evidence, args)
    H = co.h1_nonabelian(m.gamma, m, budget=args.budget)
    evidence = {
        "class_count": H.count,
        "orbit_sizes": list(H.sizes),
        "cocycle_count": H.cocycle_count,
        "representatives": [list(cls.values) for cls in H.classes],
    }
    return _emit("nonabelian-h1", "ok", evidence, args)


def cmd_torsor_verify(args, seq, base):
    seq = jsonio.torsor_sequence_from_json(seq)
    rep = to.verify_twist_bijection(seq, jsonio.base_class_from_json(base, seq),
                                    budget=args.budget)
    evidence = {
        "class_count": len(rep.kernel_h1_classes),
        "relative_count": len(rep.relative_classes),
        "mapping": list(rep.mapping),
        "bijective": rep.bijective,
        "neutral_to_base": rep.neutral_to_base,
        "abelian_kernel_action_factors": rep.abelian_kernel_action_factors,
        "table": [
            {
                "kernel_class": list(cls.values),
                "relative_class": list(rep.relative_classes[m].values),
            }
            for cls, m in zip(rep.kernel_h1_classes, rep.mapping)
            if m >= 0
        ],
    }
    return _emit("twist-bijection", verdict([twist_holds(rep)]), evidence, args)


def _emit_lim1(claim, v, args):
    evidence = {"status": v.status, "reason": v.reason, "certificate": v.certificate}
    return _emit(claim, _decided(v.status), evidence, args)


def cmd_invsys_classify(args, recipe):
    recipe = jsonio.recipe_from_json(recipe)
    return _emit_lim1("lim1-classification", iv.lim1_classify(recipe, args.horizon), args)


def cmd_nt_split(args):
    if args.poly:
        poly = jsonio.parse_poly(args.poly)
        fld = nt.NumberFieldDatum(poly)
        st = nt.dedekind_split(fld, args.p)
        route = "dedekind"
    else:
        if args.conductor is None or args.subgroup is None:
            raise ValueError("nt split needs --poly, or --conductor and --subgroup")
        fld = nt.AbelianFieldDatum(
            args.conductor, tuple(int(x) for x in args.subgroup.split(","))
        )
        st = nt.abelian_split(fld, args.p)
        route = "frobenius-order"
    evidence = {
        "route": route,
        "pairs": [list(pair) for pair in st.pairs],
        "degree": st.degree,
        "norm_valuation_generator": nt.norm_image_valuation(st, args.p),
    }
    return _emit("prime-splitting", "ok", evidence, args)


def cmd_nt_tower(args, tower):
    tower = jsonio.norm_tower_from_json(tower)
    analysis = nt.norm_tower_certificate(tower.levels, law=tower.law, horizon=args.horizon)
    evidence = {
        "ml_status": analysis.status,
        "law": analysis.law,
        "certificate": analysis.certificate,
    }
    return _emit("norm-tower-certificate", _decided(analysis.status), evidence, args)


def cmd_serre_blocks(args, gamma_f):
    f_group = jsonio.group_from_json(gamma_f)
    dec = sr.conjugation_block_decomposition(f_group)
    van = sr.block_h1_vanishing(f_group)
    evidence = {
        "block_ranks": list(dec.block_ranks),
        "total_rank": dec.total_rank,
        "first_map_iso": dec.first_map_iso,
        "twisted_sub_is_block_lattice": dec.twisted_sub_iso,
        "class_embeddings_isomorphic": dec.class_embedding_iso,
        "h1_blocks_vanish": van.all_vanish,
    }
    findings = [blocks_hold(f_group, dec), van.all_vanish]
    return _emit("twisted-quotient-blocks", verdict(findings), evidence, args)


def cmd_serre_sequence(args, datum):
    rep = sr.verify_serre_sequence(jsonio.datum_from_json(datum))
    evidence = {
        "ranks": list(rep.ranks),
        "rank_law": rep.rank_law_holds,
        "with_constant_exact": rep.with_constant_exact,
        "quotient_exact": rep.quotient_exact,
    }
    return _emit("character-sequences", verdict([sequences_hold(rep)]), evidence, args)


def cmd_serre_tower(args, chain):
    recipe = sr.serre_tower_recipe(jsonio.chain_from_json(chain))
    return _emit_lim1(
        "serre-tower-classification", iv.lim1_classify(recipe, args.horizon), args
    )


def cmd_suite(args):
    results = run_suite(seed=args.seed, horizon=args.horizon)
    for r in results:
        print(f"[torsor-lab] {r.criterion:2d} {r.claim}: {r.verdict}", file=sys.stderr)
    return _emit("verification-suite", worst(r.verdict for r in results),
                 {"entries": [dataclasses.asdict(r) for r in results]}, args)


# (module, op, handler, options): an option that is a string is a required
# file, whose <ref> goes to the handler; any other is (flag, argparse keywords)
COMMANDS = (
    ("groups", "classes", cmd_groups_classes, ("--in",)),
    ("gset", "orbits", cmd_gset_orbits, ("--in",)),
    ("gset", "iso", cmd_gset_iso, ("--in", "--other")),
    ("gset", "descent", cmd_gset_descent, ("--in",)),
    ("lattice", "snf", cmd_lattice_snf, ("--in",)),
    ("lattice", "exact", cmd_lattice_exact, ("--in",)),
    ("lattice", "iso", cmd_lattice_iso, ("--in",)),
    ("cohomology", "h1", cmd_cohomology_h1, ("--module",)),
    ("torsor", "verify-twist", cmd_torsor_verify, ("--seq", "--base")),
    ("invsys", "classify", cmd_invsys_classify, ("--recipe",)),
    ("nt", "split", cmd_nt_split, (("--poly", {}), ("--conductor", {"type": int}),
                                   ("--subgroup", {"help": "comma-separated residues"}),
                                   ("--p", {"type": int, "required": True}))),
    ("nt", "tower-cert", cmd_nt_tower, ("--tower",)),
    ("serre", "verify-blocks", cmd_serre_blocks, ("--gamma-f",)),
    ("serre", "sequence", cmd_serre_sequence, ("--datum",)),
    ("serre", "tower", cmd_serre_tower, ("--chain",)),
    ("suite", "checks", cmd_suite, ()),
)


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which here means "unknown"; a
    malformed command line is an error (3). Subcommand parsers inherit this."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _nonnegative(text) -> int:
    """--horizon and --budget: an integer >= 0, else a usage error (exit 3)."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="torsor-lab",
        description="finite-group torsor calculus: cohomology, lattices, "
        "inverse limits, splitting certificates",
    )
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=_nonnegative, default=32)
    p.add_argument("--budget", type=_nonnegative, default=co.DEFAULT_BUDGET)
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock milliseconds (breaks byte-for-byte "
                   "reproducibility of reports)")
    sub = p.add_subparsers(dest="module", required=True)
    ops = {}
    for module, op, handler, options in COMMANDS:
        if module not in ops:
            ops[module] = sub.add_parser(module).add_subparsers(dest="op", required=True)
        sp = ops[module].add_parser(op)
        files = [o for o in options if isinstance(o, str)]
        for flag in files:
            sp.add_argument(flag, dest=flag, metavar="FILE", required=True)
        for flag, keywords in (o for o in options if not isinstance(o, str)):
            sp.add_argument(flag, **keywords)
        sp.set_defaults(func=handler, files=files)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.time()
    try:
        return args.func(args, *(getattr(args, flag) for flag in args.files))
    except (jsonio.ParseError, json.JSONDecodeError, OSError) as e:
        print(f"[torsor-lab] parse error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (co.BudgetExceeded, ValueError) as e:
        print(f"[torsor-lab] error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:
        # a fault of the program, never a verdict: refuted's exit code is 1
        print(f"[torsor-lab] internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
