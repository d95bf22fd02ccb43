"""Command-line front end: machine-first JSON on stdout, summary on stderr.

Exit codes: 0 verified/ok, 1 refuted, 2 unknown at horizon, 3 error.
Reports are byte-identical for a fixed config and seed; wall-clock timing
is emitted only with --timing and is excluded from that guarantee.
"""

from __future__ import annotations

import argparse
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
from .checks import run_suite

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3


def _report(claim, verdict, evidence, args, extra_config=None):
    config = {"seed": args.seed, "horizon": args.horizon, "budget": args.budget}
    if extra_config:
        config.update(extra_config)
    rep = {
        "claim": claim,
        "verdict": verdict,
        "evidence": evidence,
        "tool_version": __version__,
        "conventions": {"sbar-condition": SBAR_CONDITION},
        "config": config,
    }
    if args.timing:
        rep["timing_ms"] = int((time.time() - args._t0) * 1000)
    return rep


def _emit(rep, args):
    text = json.dumps(rep, indent=2, sort_keys=True, default=_default)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    verdict = rep.get("verdict", "ok")
    print(f"[torsor-lab] {rep['claim']}: {verdict}", file=sys.stderr)
    if verdict in ("ok", "verified"):
        return EXIT_OK
    if verdict == "refuted":
        return EXIT_REFUTED
    if verdict in ("unknown", "unknown-at-horizon"):
        return EXIT_UNKNOWN
    return EXIT_ERROR


def _default(obj):
    if hasattr(obj, "__dict__"):
        return obj.__dict__
    return str(obj)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_groups_classes(args):
    g = jsonio.group_from_json(args.infile)
    classes = gr.conjugacy_classes(g)
    evidence = {
        "order": g.order,
        "class_count": len(classes),
        "classes": [list(c) for c in classes],
        "centralizer_orders": [len(gr.centralizer(g, c[0])) for c in classes],
    }
    return _emit(_report("conjugacy-classes", "ok", evidence, args), args)


def cmd_gset(args):
    x = jsonio.gset_from_json(args.infile)
    if args.op == "orbits":
        dec = gs.orbits(x)
        evidence = {
            "orbits": [list(o) for o in dec.orbit_sets],
            "stabilizer_orders": [len(s) for s in dec.stabilizers],
        }
        return _emit(_report("gset-orbits", "ok", evidence, args), args)
    if args.op == "descent":
        factors = gs.descent_orbit_decomposition(x)
        evidence = [
            {
                "representative": f.representative,
                "degree": f.degree,
                "stabilizer_order": len(f.stabilizer),
            }
            for f in factors
        ]
        return _emit(_report("descent-factors", "ok", evidence, args), args)
    y = jsonio.gset_from_json(args.other)
    m = gs.gset_iso(x, y)
    evidence = {"isomorphic": m is not None, "bijection": list(m) if m else None}
    return _emit(_report("gset-isomorphism", "ok", evidence, args), args)


def cmd_lattice(args):
    if args.op == "snf":
        with open(args.infile) as fh:
            mat = jsonio.matrix_from_json(json.load(fh))
        s = la.smith_normal_form(mat)
        evidence = {
            "diagonal": [int(d) for d in s.diagonal],
            "left": s.left.tolist(),
            "right": s.right.tolist(),
        }
        return _emit(_report("smith-normal-form", "ok", evidence, args), args)
    with open(args.infile) as fh:
        obj = json.load(fh)
    import os

    basedir = os.path.dirname(args.infile)
    if args.op == "exact":
        rep = lt.exactness_report(jsonio.exact_sequence_from_json(obj, basedir))
        verdict = "verified" if rep.exact else "refuted"
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
        return _emit(_report("lattice-exactness", verdict, evidence, args), args)
    ok = lt.is_equivariant_iso(jsonio.lattice_map_from_json(obj, basedir))
    return _emit(
        _report(
            "lattice-isomorphism", "verified" if ok else "refuted",
            {"is_isomorphism": ok}, args,
        ),
        args,
    )


def cmd_cohomology_h1(args):
    with open(args.infile) as fh:
        obj = json.load(fh)
    import os

    basedir = os.path.dirname(args.infile)
    if "rho" in obj:
        m = jsonio.lattice_from_json(obj, basedir)
        H = co.h1_abelian(m.group, m)
        evidence = {"invariants": [int(d) for d in H.invariants], "order": H.order()}
        return _emit(_report("lattice-h1", "ok", evidence, args), args)
    n = jsonio.gamma_group_from_json(obj, basedir)
    H = co.h1_nonabelian(n.gamma, n, budget=args.budget)
    evidence = {
        "class_count": H.count,
        "orbit_sizes": list(H.sizes),
        "cocycle_count": H.cocycle_count,
        "representatives": [list(cls.values) for cls in H.classes],
    }
    return _emit(_report("nonabelian-h1", "ok", evidence, args), args)


def cmd_torsor_verify(args):
    seq = jsonio.torsor_sequence_from_json(args.seq)
    base = jsonio.base_class_from_json(args.base, seq)
    rep = to.verify_twist_bijection(seq, base, budget=args.budget)
    ok = rep.bijective and rep.neutral_to_base
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
                "relative_class": list(rep.relative_classes[m].p.cocycle.values),
            }
            for cls, m in zip(rep.kernel_h1_classes, rep.mapping)
            if m >= 0
        ],
    }
    return _emit(
        _report("twist-bijection", "verified" if ok else "refuted", evidence, args),
        args,
    )


def cmd_invsys_classify(args):
    recipe = jsonio.recipe_from_json(args.recipe)
    v = iv.lim1_classify(recipe, horizon=args.horizon)
    verdict = {"trivial": "verified", "uncountable": "verified", "unknown": "unknown-at-horizon"}[v.status]
    evidence = {"status": v.status, "reason": v.reason, "certificate": v.certificate}
    return _emit(_report("lim1-classification", verdict, evidence, args), args)


def cmd_nt_split(args):
    if args.poly:
        poly = jsonio.parse_poly(args.poly)
        fld = nt.NumberFieldDatum(poly)
        st = nt.dedekind_split(fld, args.p, seed=args.seed)
        route = "dedekind"
    else:
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
    return _emit(_report("prime-splitting", "ok", evidence, args), args)


def cmd_nt_tower(args):
    tower = jsonio.norm_tower_from_json(args.tower)
    analysis = iv._tower_analysis(tower, args.horizon)
    verdict = {
        "fails": "verified",
        "holds": "verified",
        "unknown-at-horizon": "unknown-at-horizon",
    }[analysis.status]
    evidence = {
        "ml_status": analysis.status,
        "law": analysis.law,
        "certificate": analysis.certificate,
    }
    return _emit(_report("norm-tower-certificate", verdict, evidence, args), args)


def cmd_serre_blocks(args):
    f_group = jsonio.group_from_json(args.gamma_f)
    dec = sr.conjugation_block_decomposition(f_group)
    van = sr.block_h1_vanishing(f_group)
    ok = dec.twisted_sub_iso and dec.class_embedding_iso and van.all_vanish
    evidence = {
        "block_ranks": list(dec.block_ranks),
        "twisted_sub_is_block_lattice": dec.twisted_sub_iso,
        "class_embeddings_isomorphic": dec.class_embedding_iso,
        "h1_blocks_vanish": van.all_vanish,
    }
    return _emit(
        _report(
            "twisted-quotient-blocks", "verified" if ok else "refuted", evidence, args
        ),
        args,
    )


def cmd_serre_sequence(args):
    d = jsonio.datum_from_json(args.datum)
    rep = sr.verify_serre_sequence(d)
    ok = rep.rank_law_holds and rep.with_constant_exact and rep.quotient_exact
    evidence = {
        "ranks": list(rep.ranks),
        "rank_law": rep.rank_law_holds,
        "with_constant_exact": rep.with_constant_exact,
        "quotient_exact": rep.quotient_exact,
    }
    return _emit(
        _report(
            "character-sequences", "verified" if ok else "refuted", evidence, args
        ),
        args,
    )


def cmd_serre_tower(args):
    chain = jsonio.chain_from_json(args.chain)
    recipe = sr.serre_tower_recipe(chain)
    v = iv.lim1_classify(recipe, horizon=args.horizon)
    verdict = {"trivial": "verified", "uncountable": "verified", "unknown": "unknown-at-horizon"}[v.status]
    evidence = {"status": v.status, "reason": v.reason, "certificate": v.certificate}
    return _emit(_report("serre-tower-classification", verdict, evidence, args), args)


def cmd_suite(args):
    results = run_suite(seed=args.seed, horizon=args.horizon)
    entries = []
    all_ok = True
    for r in results:
        entries.append(
            {
                "claim": r.claim,
                "criterion": r.criterion,
                "verdict": r.verdict,
                "evidence": r.evidence,
            }
        )
        print(f"[torsor-lab] {r.criterion:2d} {r.claim}: {r.verdict}", file=sys.stderr)
        all_ok = all_ok and r.ok
    rep = _report(
        "verification-suite",
        "verified" if all_ok else "refuted",
        {"entries": entries},
        args,
    )
    return _emit(rep, args)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="torsor-lab",
        description="finite-group torsor calculus: cohomology, lattices, "
        "inverse limits, splitting certificates",
    )
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=int, default=32)
    p.add_argument("--budget", type=int, default=co.DEFAULT_BUDGET)
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock milliseconds (breaks byte-for-byte "
                   "reproducibility of reports)")
    sub = p.add_subparsers(dest="module", required=True)

    g = sub.add_parser("groups").add_subparsers(dest="op", required=True)
    gc = g.add_parser("classes")
    gc.add_argument("--in", dest="infile", required=True)
    gc.set_defaults(func=cmd_groups_classes)

    gs_ = sub.add_parser("gset")
    gs_sub = gs_.add_subparsers(dest="op", required=True)
    for opname in ("orbits", "iso", "descent"):
        sp = gs_sub.add_parser(opname)
        sp.add_argument("--in", dest="infile", required=True)
        if opname == "iso":
            sp.add_argument("--other", required=True)
        sp.set_defaults(func=cmd_gset)

    lat = sub.add_parser("lattice")
    lat_sub = lat.add_subparsers(dest="op", required=True)
    for opname in ("snf", "exact", "iso"):
        sp = lat_sub.add_parser(opname)
        sp.add_argument("--in", dest="infile", required=True)
        sp.set_defaults(func=cmd_lattice)

    coh = sub.add_parser("cohomology").add_subparsers(dest="op", required=True)
    ch = coh.add_parser("h1")
    ch.add_argument("--module", dest="infile", required=True)
    ch.set_defaults(func=cmd_cohomology_h1)

    tor = sub.add_parser("torsor").add_subparsers(dest="op", required=True)
    tv = tor.add_parser("verify-twist")
    tv.add_argument("--seq", required=True)
    tv.add_argument("--base", required=True)
    tv.set_defaults(func=cmd_torsor_verify)

    inv = sub.add_parser("invsys").add_subparsers(dest="op", required=True)
    ic = inv.add_parser("classify")
    ic.add_argument("--recipe", required=True)
    ic.set_defaults(func=cmd_invsys_classify)

    ntp = sub.add_parser("nt").add_subparsers(dest="op", required=True)
    ns = ntp.add_parser("split")
    ns.add_argument("--poly")
    ns.add_argument("--conductor", type=int)
    ns.add_argument("--subgroup", help="comma-separated residues")
    ns.add_argument("--p", type=int, required=True)
    ns.set_defaults(func=cmd_nt_split)
    ntc = ntp.add_parser("tower-cert")
    ntc.add_argument("--tower", required=True)
    ntc.set_defaults(func=cmd_nt_tower)

    ser = sub.add_parser("serre").add_subparsers(dest="op", required=True)
    sb = ser.add_parser("verify-blocks")
    sb.add_argument("--gamma-f", dest="gamma_f", required=True)
    sb.set_defaults(func=cmd_serre_blocks)
    ss = ser.add_parser("sequence")
    ss.add_argument("--datum", required=True)
    ss.set_defaults(func=cmd_serre_sequence)
    st = ser.add_parser("tower")
    st.add_argument("--chain", required=True)
    st.set_defaults(func=cmd_serre_tower)

    su = sub.add_parser("suite").add_subparsers(dest="op", required=True)
    sp = su.add_parser("checks")
    sp.set_defaults(func=cmd_suite)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.time()
    try:
        return args.func(args)
    except (jsonio.ParseError, json.JSONDecodeError, FileNotFoundError) as e:
        print(f"[torsor-lab] parse error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (
        co.BudgetExceeded,
        co.NotCocycle,
        iv.NotMaterializable,
        nt.NotIrreducible,
        nt.IndexDivisor,
        nt.Ramified,
        nt.HypothesisFailed,
        sr.InvalidDatum,
        sr.NotATower,
        to.NotExact,
        ValueError,
    ) as e:
        print(f"[torsor-lab] error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
