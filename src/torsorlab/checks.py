"""The verification suite: every desk-scale claim as one executable check.

Each check returns a CheckResult whose evidence dict replays the verdict
through the public module APIs alone.  The suite is deterministic for a
fixed seed.  A check records one finding per case, and its verdict is the
fold of those findings (`verdict`); the CLI commands that judge a single
case of criteria 2, 4 and 6 call the same judges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import cohomology as co
from . import groups as gr
from . import invsys as iv
from . import lattices as lt
from . import numtheory as nt
from . import serre as sr
from . import torsors as to
from .catalog import central_involutions, group_catalog
from .gsets import coset_gset


@dataclass(frozen=True)
class CheckResult:
    claim: str
    criterion: int
    verdict: str  # "verified" | "refuted" | "unknown-at-horizon" | "error"
    evidence: dict


# the worst first: a suite, or a set of findings, reads as the first of these
# that occurs
VERDICTS = ("refuted", "error", "unknown-at-horizon", "verified")


def worst(verdicts) -> str:
    """The first of VERDICTS among `verdicts`; "verified" when there is none."""
    return min(verdicts, key=VERDICTS.index, default="verified")


def verdict(findings) -> str:
    """The worst verdict of the findings: one that holds (True) verifies, one
    that fails (False) refutes, and an undecided one (None) is unknown at the
    horizon."""
    return worst("unknown-at-horizon" if f is None else "verified" if f else "refuted"
                 for f in findings)


def _result(claim, criterion, findings, evidence) -> CheckResult:
    return CheckResult(claim, criterion, verdict(findings), evidence)


def blocks_hold(f_group, dec) -> bool:
    """Criterion 2's judge of conjugation_block_decomposition(f_group)."""
    return (dec.twisted_sub_iso and dec.first_map_iso and dec.class_embedding_iso
            and dec.total_rank == f_group.order)


def sequences_hold(rep) -> bool:
    """Criterion 4's judge of a verify_serre_sequence report."""
    return rep.rank_law_holds and rep.with_constant_exact and rep.quotient_exact


def twist_holds(rep) -> bool:
    """Criterion 6's judge of a verify_twist_bijection report; the kernel
    action factor is read where the kernel is abelian (None otherwise)."""
    return (rep.bijective and rep.neutral_to_base
            and rep.abelian_kernel_action_factors in (None, True))


# ---------------------------------------------------------------------------
# 1. the exponent-l extraspecial group


def check_extraspecial_structure() -> CheckResult:
    evidence, findings = {}, []
    for l in (3, 5):
        sp, gens = gr.heisenberg_group(l)
        g = sp.group
        a, b, c = gens["a"], gens["b"], gens["c"]
        orders_ok = all(g.element_order(x) == l for x in g.elements() if x != 0)
        zb = gr.generated_subgroup(g, [b])
        center_ok = gr.center(g) == zb and len(zb) == l
        fiber = gr.class_fiber(sp.project_q, (1,))
        fiber_ok = len(fiber) == l and all(len(x) == l for x in fiber)
        cz = gr.centralizer(g, g.mul(a, c))
        cz_ok = len(cz) == l * l and b in cz
        findings.append(g.order == l**3 and orders_ok and center_ok and fiber_ok and cz_ok)
        evidence[f"l={l}"] = {
            "order": g.order,
            "all_orders_l": orders_ok,
            "center_size": len(zb),
            "fiber_classes": [list(x) for x in fiber],
            "centralizer_order": len(cz),
        }
    return _result("extraspecial-class-structure", 1, findings, evidence)


# ---------------------------------------------------------------------------
# 2. block decomposition of the twisted quotient lattice


def check_block_decomposition() -> CheckResult:
    c2 = gr.cyclic_group(2)
    cases = [
        ("C1", gr.trivial_group()),
        ("C2", c2),
        ("C3", gr.cyclic_group(3)),
        ("C2xC2", gr.direct_product(c2, c2)),
        ("S3", gr.symmetric_group(3)),
        ("D4", gr.dihedral_group(4)),
    ]
    evidence, findings = {}, []
    for name, f_group in cases:
        dec = sr.conjugation_block_decomposition(f_group)
        findings.append(blocks_hold(f_group, dec))
        evidence[name] = {
            "block_ranks": list(dec.block_ranks),
            "first_map_iso": dec.first_map_iso,
            "second_map_iso": dec.twisted_sub_iso,
        }
    return _result("twisted-quotient-block-decomposition", 2, findings, evidence)


# ---------------------------------------------------------------------------
# 3. permutation lattices have trivial H^1


def coset_lattices(max_order: int = 24):
    """(group name, H, Z[G/H]) for every subgroup H of every catalog group of
    order <= max_order."""
    for name, g in group_catalog(max_order):
        for h in gr.all_subgroups(g):
            yield name, h, lt.permutation_lattice(coset_gset(g, h))


def check_permutation_h1_vanishing(max_order: int = 24, lattices=None) -> CheckResult:
    """H^1(G, M) = 0 for each (group name, H, M) of `lattices`, by default
    coset_lattices(max_order): H^1(G, Z[G/H]) = H^1(H, Z) = 0 by Shapiro's
    lemma, the lattice shadow of Hilbert 90.  A lattice with H^1 != 0
    refutes."""
    evidence, findings = {"checked": 0, "failures": []}, []
    for name, h, m in coset_lattices(max_order) if lattices is None else lattices:
        findings.append(co.h1_abelian(m.group, m).is_trivial)
        evidence["checked"] += 1
        if not findings[-1]:
            evidence["failures"].append({"group": name, "subgroup": list(h)})
    return _result("permutation-lattice-h1-vanishes", 3, findings, evidence)


# ---------------------------------------------------------------------------
# 4. exactness of the character sequences


def check_character_sequences(max_order: int = 16) -> CheckResult:
    evidence, findings = {"data_checked": 0, "failures": []}, []
    for name, g in group_catalog(max_order):
        for iota in central_involutions(g):
            findings.append(sequences_hold(sr.verify_serre_sequence(sr.CMGaloisDatum(g, iota))))
            evidence["data_checked"] += 1
            if not findings[-1]:
                evidence["failures"].append({"group": name, "iota": iota})
    return _result("character-sequences-exact", 4, findings, evidence)


# ---------------------------------------------------------------------------
# 5. CM-type bases


def check_cm_type_bases(max_order: int = 12) -> CheckResult:
    evidence, findings = {"data_checked": 0, "types_checked": 0, "failures": []}, []
    for name, g in group_catalog(max_order):
        for iota in central_involutions(g):
            d = sr.CMGaloisDatum(g, iota)
            evidence["data_checked"] += 1
            for phi, rep in zip(sr.all_cm_types(d), sr.cm_type_bases(d)):
                evidence["types_checked"] += 1
                findings.append(rep.in_lattice and rep.is_basis)
                if not findings[-1]:
                    evidence["failures"].append(
                        {"group": name, "iota": iota, "phi": list(phi)}
                    )
    return _result("cm-type-basis", 5, findings, evidence)


# ---------------------------------------------------------------------------
# 6. the twist bijection for torsor lifts


def _lift_case(gamma, a, b, inc, proj, lift):
    """The exact sequence 1 -> A -> B -> C -> 1 of a, b and proj's target,
    each with the trivial action of gamma, and two base classes over it: the
    trivial lift, and the cocycle `lift` of B over q = proj o lift."""
    A, B, C = (co.trivial_gamma_group(gamma, g) for g in (a, b, proj.target))
    seq = to.ExactGammaSequence(
        A, B, C, to.EquivariantHom(A, B, inc), to.EquivariantHom(B, C, proj)
    )
    q = co.CrossedHom(gamma, C, tuple(map(proj, lift)))
    return seq, [
        to.RelativeClass(seq.project, to.trivial_torsor(C), to.trivial_torsor(B)),
        to.RelativeClass(seq.project, q, co.CrossedHom(gamma, B, lift)),
    ]


def _twist_cases():
    """(name, sequence, base classes) for each case of criterion 6."""
    c2, c3, c4 = (gr.cyclic_group(n) for n in (2, 3, 4))
    s3, a4 = gr.symmetric_group(3), gr.alternating_group_4()
    c2c2 = gr.direct_product(c2, c2)
    # V4 is elementary abelian, so its sorted elements 0 < x < y < xy are the
    # images of 0, 1, 2, 3 in C2 x C2
    v4 = next(h for h in gr.all_subgroups(a4) if len(h) == 4)
    t = next(x for x in a4.elements() if a4.element_order(x) == 3)
    # (name, Gamma, A, B, A -> B, lift); B -> C is the quotient by A
    rows = (
        ("kernel-C3-total-S3", c2, c3, s3,
         gr.GroupHom(c3, s3, tuple(s3.power(2, k) for k in range(3))), (0, 1)),
        # two distinct base lifts over the trivial base
        ("kernel-C2-total-C4", c2, c2, c4, gr.GroupHom(c2, c4, (0, 2)), (0, 2)),
        ("kernel-V4-total-A4", c3, c2c2, a4, gr.GroupHom(c2c2, a4, v4),
         tuple(a4.power(t, k) for k in range(3))),
    )
    cases = [(name, *_lift_case(gamma, a, b, inc, gr.quotient(b, inc.map)[1], lift))
             for name, gamma, a, b, inc, lift in rows]
    # 1 -> S3 -> S3 x C2 -> C2 -> 1 over Gamma = S3, lifting the sign: x
    # goes to (x, sign x), and the odd x are those of order 2
    s3c2 = gr.direct_product(s3, c2)
    e1, _, _, p2 = gr.product_embeddings(s3, c2, s3c2)
    sign_lift = tuple(x + s3.order * (s3.element_order(x) == 2) for x in s3.elements())
    cases.append(("kernel-S3-total-S3xC2", *_lift_case(s3, s3, s3c2, e1, p2, sign_lift)))
    return cases


def check_twist_bijection() -> CheckResult:
    evidence, findings = {}, []
    for name, seq, bases in _twist_cases():
        rows = []
        for i, base in enumerate(bases):
            rep = to.verify_twist_bijection(seq, base)
            findings.append(twist_holds(rep))
            rows.append(
                {
                    "base": i,
                    "classes": len(rep.kernel_h1_classes),
                    "bijective": rep.bijective,
                    "neutral_to_base": rep.neutral_to_base,
                }
            )
        evidence[name] = rows
    return _result("torsor-lift-twist-bijection", 6, findings, evidence)


# ---------------------------------------------------------------------------
# 7. truncated systems: one orbit, witness-independent obstructions


def _every_witness_choice_trivial(system, fam, famp, evidence) -> bool:
    """Whether lim1_obstructions finds a trivial obstruction for every choice
    of level witnesses twisting fam into famp, and there is at least one
    choice; each choice counts in `scan_choices`."""
    reps = co.lim1_obstructions(system, fam, famp)
    evidence["scan_choices"] += len(reps)
    return bool(reps) and all(r.trivial for r in reps)


def _twisted_family(system, fam, a_top):
    """fam twisted at each level by a_top pushed down the transitions: a
    coherent choice of witnesses, so every choice must be trivial."""
    avals = [a_top]
    for u in reversed(system.transitions):
        avals.insert(0, u(avals[0]))
    return tuple(co.twist_cocycle(f, a) for f, a in zip(fam, avals))


def _random_chain(rng, pool, length) -> tuple:
    """(groups, maps) of a random truncated system: length + 1 groups drawn
    from pool, then for each i a homomorphism groups[i + 1] -> groups[i]
    drawn from all_homs."""
    groups = tuple(rng.choice(pool) for _ in range(length + 1))
    return groups, tuple(rng.choice(co.all_homs(h, g)) for g, h in zip(groups, groups[1:]))


def check_truncated_orbit_transitivity(seed: int = 0, count: int = 50) -> CheckResult:
    rng = random.Random(seed)
    pool = [
        gr.cyclic_group(n) for n in (2, 3, 4, 5, 6, 8, 12)
    ] + [gr.symmetric_group(3), gr.dihedral_group(4)]
    evidence = {"systems": 0, "orbit_failures": 0, "scan_systems": 0, "scan_choices": 0}
    findings = []
    for _ in range(count):
        groups, maps = _random_chain(rng, pool, rng.randint(1, 5))
        rep = iv.lim1_truncated(iv.ExplicitFinite(groups, maps), budget=50000)
        evidence["systems"] += 1
        findings.append(rep.orbit_count == 1)
        if not findings[-1]:
            evidence["orbit_failures"] += 1
    # witness-choice independence on small Gamma-systems
    gamma_pool = [gr.cyclic_group(2), gr.cyclic_group(3)]
    level_pool = [gr.cyclic_group(2), gr.cyclic_group(3), gr.cyclic_group(4),
                  gr.symmetric_group(3)]
    for _ in range(8):
        gamma = rng.choice(gamma_pool)
        groups, maps = _random_chain(rng, level_pool, rng.randint(1, 2))
        levels = tuple(co.trivial_gamma_group(gamma, g) for g in groups)
        system = co.TruncatedGammaSystem(levels, maps)
        # all_homs holds the trivial hom, so there is a top to draw
        top_hom = rng.choice(co.all_homs(gamma, groups[-1]))
        fam = co.compatible_family(system, co.CrossedHom(gamma, levels[-1], top_hom.map))
        famp = _twisted_family(system, fam, rng.randrange(groups[-1].order))
        findings.append(_every_witness_choice_trivial(system, fam, famp, evidence))
        evidence["scan_systems"] += 1
    # systems with a nontrivial action at every level
    c2 = gr.cyclic_group(2)
    c3 = gr.cyclic_group(3)
    inv = co.GammaGroup(c2, c3, ((0, 1, 2), (0, 2, 1)))
    doubling = gr.GroupHom(c3, c3, (0, 2, 1))  # equivariant with inversion
    evidence["nontrivial_action_systems"] = 0
    for transition in (gr.identity_hom(c3), doubling):
        system = co.TruncatedGammaSystem((inv, inv, inv), (transition, transition))
        for top_val in range(3):
            top = co.CrossedHom(c2, inv, (0, top_val))
            fam = co.compatible_family(system, top)
            for a_top in range(3):
                famp = _twisted_family(system, fam, a_top)
                findings.append(_every_witness_choice_trivial(system, fam, famp, evidence))
        evidence["nontrivial_action_systems"] += 1
    return _result("truncated-orbit-transitivity", 7, findings, evidence)


# ---------------------------------------------------------------------------
# 8. the trivial/uncountable dichotomy with recomputed certificates


def check_lim1_dichotomy(horizon: int = 8) -> CheckResult:
    """Each recipe classifies as expected; an "unknown" status decides
    nothing, and the tower's certificate must come out the same when it is
    recomputed from the tower's recipe."""
    evidence, findings, verdicts = {}, [], {}
    tower = sr.layered_obstruction_tower(3, 7, levels=1)
    cases = (
        ("halving-subgroup-chain", iv.SubgroupChain(1, ((2,),), ((1,),)), "uncountable"),
        ("identity-endomorphism", iv.ConstantEndo((0,), ((1,),)), "trivial"),
        ("layered-obstruction-tower", tower, "uncountable"),
    )
    for name, recipe, expected in cases:
        v = verdicts[name] = iv.lim1_classify(recipe, horizon)
        evidence[name] = v.status
        findings.append(None if v.status == "unknown" else v.status == expected)
    certificate = verdicts["layered-obstruction-tower"].certificate
    if certificate:
        again = nt.norm_tower_certificate(tower.levels, law=tower.law, horizon=horizon)
        replay_ok = again.status == "fails" and again.certificate == certificate
        evidence["certificate-replay-identical"] = replay_ok
        evidence["certificate"] = certificate
        findings.append(replay_ok)
    return _result("lim1-dichotomy", 8, findings, evidence)


# ---------------------------------------------------------------------------
# 9. dual-oracle prime splitting


def splitting_fields():
    """(abelian field, its period polynomial datum) for the first three
    fields of degree 2..6 of each conductor, in unit_subgroups order."""
    conductors = [5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20, 21, 24, 28,
                  32, 33, 35, 36, 40, 44, 45, 48, 60, 63, 65, 72, 84, 88, 100]
    for m in conductors:
        fields = [fld for fld in (nt.AbelianFieldDatum(m, h) for h in nt.unit_subgroups(m))
                  if 2 <= fld.degree <= 6]
        for fld in fields[:3]:
            yield fld, nt.abelian_defining_polynomial(fld)


def check_splitting_dual_oracle(target: int = 500, fields=None) -> CheckResult:
    """The Dedekind route on the polynomial and the Frobenius-order route on
    the field agree on the splitting of each unramified prime, for each
    (AbelianFieldDatum, NumberFieldDatum) pair of `fields`, by default
    splitting_fields().  A polynomial that defines another field refutes."""
    prime_pool = [p for p in nt.primes_up_to(60) if p > 2]
    prime_pool += [101, 151, 199, 503, 997, 1009, 2003, 4999, 7919, 9973]
    skipped_index = 0
    findings, sum_rule, mismatch = [], [], []
    for fld, poly in splitting_fields() if fields is None else fields:
        m = fld.conductor
        for p in prime_pool:
            if len(sum_rule) >= target * 2:
                break
            if m % p == 0:
                continue
            try:
                ded = nt.dedekind_split(poly, p)
            except nt.IndexDivisor:
                skipped_index += 1
                continue
            findings.append(ded.pairs == nt.abelian_split(fld, p).pairs)
            if not findings[-1]:
                mismatch.append({"m": m, "H": list(fld.subgroup),
                                 "poly": list(poly.poly), "p": p})
            sum_rule.append(sum(e * f for e, f in ded.pairs) == fld.degree)
    return _result(
        "splitting-dual-oracle",
        9,
        findings + sum_rule + [len(sum_rule) >= target],
        {
            "comparisons": len(sum_rule),
            "index_divisor_skips": skipped_index,
            "mismatches": mismatch,
            "sum_rule": all(sum_rule),
        },
    )


# ---------------------------------------------------------------------------
# 10. the tame norm-unit index


def check_tame_norm_index() -> CheckResult:
    findings = [nt.tame_local_norm_index(l, p).index == l
                for l in (3, 5, 7) for p in nt.primes_up_to(200) if (p - 1) % l == 0]
    return _result(
        "tame-norm-unit-index", 10, findings,
        {"cases": len(findings), "all_equal_l": all(findings)},
    )


# ---------------------------------------------------------------------------
# 11. products of coefficient groups


def gamma_group_products() -> list:
    """Four products of Gamma-groups over C2, as (gamma_group_product of the
    factors, factors) pairs."""
    c2 = gr.cyclic_group(2)
    t2, t3, ts3 = (co.trivial_gamma_group(c2, g)
                   for g in (c2, gr.cyclic_group(3), gr.symmetric_group(3)))
    inv_c3 = co.GammaGroup(c2, t3.underlying, ((0, 1, 2), (0, 2, 1)))
    return [(co.gamma_group_product(factors), factors)
            for factors in ([t2, t3], [t2, ts3, t2], [inv_c3, t2], [t2, t2, t3, ts3])]


def check_product_h1(products=None) -> CheckResult:
    """H^1 of a product is the product of the factors' H^1, for each
    ((product, projections), factors) pair of `products`, by default
    gamma_group_products(): the class counts multiply, and projecting each
    class of the product to the factors is a bijection onto the tuples of
    their classes, each read off the factor's partition (NonabelianH1).  A
    Gamma-group paired with factors it is not the product of refutes, and
    so does a projection that sends a class outside a factor's cocycles."""
    evidence, findings, h1s = [], [], {}
    for (prod, proj_maps), factors in gamma_group_products() if products is None else products:
        h_prod = co.h1_nonabelian(prod.gamma, prod)
        # each distinct factor's H^1 once per call, known by its tables
        h_factors = [h1s.get(k) or h1s.setdefault(k, co.h1_nonabelian(prod.gamma, f))
                     for f in factors for k in [(prod.gamma.rows, f.underlying.rows, f.action)]]
        expect = 1
        for h in h_factors:
            expect *= h.count
        count_ok = h_prod.count == expect
        # the classwise projection map is a bijection onto the product set:
        # each projected table is read off its factor's partition, and one
        # that is no cocycle of the factor has no label (None) and refutes
        canon = [tuple(h.partition.get(tuple(pmap[v] for v in cls.values))
                       for (_, pmap), h in zip(proj_maps, h_factors))
                 for cls in h_prod.classes]
        bijective = (all(None not in c for c in canon)
                     and len(set(canon)) == len(canon) == expect)
        findings.append(count_ok and bijective)
        evidence.append(
            {
                "factor_counts": [h.count for h in h_factors],
                "product_count": h_prod.count,
                "bijective": bijective,
            }
        )
    return _result("product-h1-factorization", 11, findings, evidence)


# ---------------------------------------------------------------------------
# suite


ALL_CHECKS = (
    ("extraspecial-class-structure", check_extraspecial_structure),
    ("twisted-quotient-block-decomposition", check_block_decomposition),
    ("permutation-lattice-h1-vanishes", check_permutation_h1_vanishing),
    ("character-sequences-exact", check_character_sequences),
    ("cm-type-basis", check_cm_type_bases),
    ("torsor-lift-twist-bijection", check_twist_bijection),
    ("truncated-orbit-transitivity", check_truncated_orbit_transitivity),
    ("lim1-dichotomy", check_lim1_dichotomy),
    ("splitting-dual-oracle", check_splitting_dual_oracle),
    ("tame-norm-unit-index", check_tame_norm_index),
    ("product-h1-factorization", check_product_h1),
)


def run_suite(seed: int = 0, horizon: int = 8) -> tuple:
    """All checks in criterion order; first-error-continue."""
    out = []
    for name, fn in ALL_CHECKS:
        try:
            if fn is check_truncated_orbit_transitivity:
                out.append(fn(seed=seed))
            elif fn is check_lim1_dichotomy:
                out.append(fn(horizon=horizon))
            else:
                out.append(fn())
        except Exception as e:
            out.append(
                CheckResult(name, len(out) + 1, "error", {"exception": repr(e)})
            )
    return tuple(out)
