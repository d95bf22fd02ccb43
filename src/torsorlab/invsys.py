"""Inverse systems by finite recipe: lim, lim^1 orbits, Mittag-Leffler.

Systems are indexed by the natural numbers with transition maps pointing
down (level n+1 -> n).  Verdicts carry their justification: uncountability
is only ever reported on the strength of a replayable failure certificate
for countable terms, never as a computed cardinality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import linalg as la
from . import numtheory as nt
from .groups import is_normal, left_cosets


class NotMaterializable(ValueError):
    pass


class NotInjective(ValueError):
    pass


class NotNormalLevelwise(ValueError):
    pass


DEFAULT_HORIZON = 32


# ---------------------------------------------------------------------------
# recipes


@dataclass(frozen=True)
class ExplicitFinite:
    """A truncated system of finite groups given outright."""

    groups: tuple  # FiniteGroup per level
    maps: tuple  # maps[i]: groups[i+1] -> groups[i]

    def __post_init__(self):
        if len(self.maps) != len(self.groups) - 1:
            raise ValueError("need one map per adjacent pair")
        for i, u in enumerate(self.maps):
            if u.source != self.groups[i + 1] or u.target != self.groups[i]:
                raise ValueError("map %d connects the wrong groups" % i)


@dataclass(frozen=True)
class ConstantEndo:
    """Constant system A <- A <- ... with one endomorphism as every map."""

    module: la.FgAbelian
    endo: tuple  # square integer matrix, ngens x ngens

    def __post_init__(self):
        m = la.int_rows(self.endo)
        n = self.module.ngens
        if (len(m), la.width(m)) != (n, n):
            raise ValueError("endomorphism shape mismatch")
        object.__setattr__(self, "endo", m)
        # must respect the relation lattice
        for j, dj in enumerate(self.module.relations):
            for i, di in enumerate(self.module.relations):
                if di and (dj * m[i][j]) % di != 0:
                    raise ValueError("endomorphism does not preserve relations")


@dataclass(frozen=True)
class SubgroupChain:
    """Descending subgroups L_n = T^n B of the ambient free group Z^rank."""

    rank: int
    step: tuple  # T
    base: tuple  # B, columns generate level 0

    def __post_init__(self):
        T = la.int_rows(self.step)
        B = la.int_rows(self.base)
        if (len(T), la.width(T)) != (self.rank, self.rank) or len(B) != self.rank:
            raise ValueError("shape mismatch")
        object.__setattr__(self, "step", T)
        object.__setattr__(self, "base", B)
        # descending chain required
        L0 = la.column_space_basis(B)
        L1 = la.column_space_basis(la.matmul(T, B))
        if not la.lattice_contains(L0, L1):
            raise ValueError("step does not descend the chain")

    def level(self, n: int) -> tuple:
        M = self.base
        for _ in range(n):
            M = la.matmul(self.step, M)
        return la.column_space_basis(M)


@dataclass(frozen=True)
class NormTower:
    """Unit groups of a tower of abelian fields, transition = norm maps."""

    levels: tuple  # AbelianFieldDatum prefix
    law: object = None  # optional continuation law (numtheory)

    def __post_init__(self):
        nt.verify_tower_containments(self.levels)


@dataclass(frozen=True)
class Product:
    factors: tuple


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class MLVerdict:
    status: str  # "holds" | "fails" | "unknown-at-horizon"
    level: int | None = None  # stabilization level when it holds
    proof: str = ""
    certificate: dict | None = None

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    @property
    def fails(self) -> bool:
        return self.status == "fails"


@dataclass(frozen=True)
class Lim1Verdict:
    status: str  # "trivial" | "uncountable" | "unknown"
    reason: str = ""
    certificate: dict | None = None
    factors: tuple = ()


# ---------------------------------------------------------------------------
# truncation and limits


def truncate(recipe, n: int):
    """Materialized levels 0..n: an ExplicitFinite, or per-level abelian data."""
    if isinstance(recipe, ExplicitFinite):
        if n >= len(recipe.groups):
            raise NotMaterializable("truncation beyond the given data")
        return ExplicitFinite(recipe.groups[: n + 1], recipe.maps[:n])
    if isinstance(recipe, ConstantEndo):
        return tuple((recipe.module, recipe.endo) for _ in range(n + 1))
    if isinstance(recipe, SubgroupChain):
        return tuple(recipe.level(k) for k in range(n + 1))
    if isinstance(recipe, Product):
        return tuple(truncate(f, n) for f in recipe.factors)
    if isinstance(recipe, NormTower):
        raise NotMaterializable(
            "unit groups of number fields are infinite; use the valuation "
            "certificates instead"
        )
    raise TypeError("unknown recipe kind")


@dataclass(frozen=True)
class TruncatedLimit:
    """lim of a finite truncation: compatible tuples, recorded via the
    bijection with the top level, plus the shadow subgroup at level 0."""

    size: int
    tuples: tuple  # compatible families (x_0, ..., x_N)
    level0_image: tuple  # image of the limit in the bottom group


def lim_truncated(sys: ExplicitFinite) -> TruncatedLimit:
    """Compatible families of a finite truncation.

    A family is determined by its top coordinate, so lim is in bijection
    with the top group; the level-0 image records how much of the bottom
    group survives to this depth.
    """
    groups, maps = sys.groups, sys.maps
    N = len(groups) - 1
    fams = []
    for x in groups[N].elements():
        fam = [0] * (N + 1)
        fam[N] = x
        for i in range(N - 1, -1, -1):
            fam[i] = maps[i](fam[i + 1])
        fams.append(tuple(fam))
    level0 = tuple(sorted({f[0] for f in fams}))
    size = len(fams)
    return TruncatedLimit(
        size=size,
        tuples=tuple(fams),
        level0_image=level0,
    )


@dataclass(frozen=True)
class Lim1Orbits:
    """What lim1_truncated found on a finite truncation of lim^1.

    One orbit there is a theorem for any maps: the transport equation
    a_n x_n f_n(a_{n+1})^-1 = y_n is solved top down by a_n = y_n f_n(a_{n+1})
    x_n^-1 whatever the f_n are, and for homomorphisms the stabilizer of the
    basepoint, {a : a_n = f_n(a_{n+1})}, has |G_{N+1}| elements.  What the
    check can refute is a transport: the replay re-checks the transport
    equation level by level, in a computation apart from the step that
    solved it.  In the exhaustive mode `checked_pairs` counts every tuple of
    the product, their replays decided over shared suffixes; in the
    constructive mode it counts the 200 sampled tuples, each replayed whole.
    """

    orbit_count: int  # 1 when every transport was verified, else 0: not shown
    verified_mode: str  # "exhaustive" | "constructive"
    set_size: int
    checked_pairs: int
    failed_transports: int = 0  # transports that missed the basepoint


def _transport_step(g, push, x, y):
    """Level n of a transport: the a_n with a_n x_n push^-1 = y_n, where
    push = f_n(a_{n+1}), i.e. a_n = y_n push x_n^-1."""
    rows = g.rows
    return rows[rows[y][push]][g.inverses[x]]


def _action_step(g, push, a, x):
    """Level n of the lim^1 action: a_n x_n f_n(a_{n+1})^-1, push = f_n(a_{n+1})."""
    rows = g.rows
    return rows[rows[a][x]][g.inverses[push]]


def _transport(groups, maps, x, y):
    """Group tuple (a_0..a_{N+1}) carrying x to y under the lim^1 action,
    built top down by one transport step per level.  The completion
    coordinate a_{N+1} is the identity of the top group, into which it maps
    by the identity."""
    N = len(groups) - 1
    a = [0] * (N + 2)
    for n in range(N, -1, -1):
        push = maps[n].map[a[n + 1]] if n < N else a[N + 1]
        a[n] = _transport_step(groups[n], push, x[n], y[n])
    return tuple(a)


def _apply_action(groups, maps, a, x):
    N = len(groups) - 1
    return tuple(
        _action_step(groups[n], maps[n].map[a[n + 1]] if n < N else a[N + 1], a[n], x[n])
        for n in range(N + 1)
    )


def _replayed_tuples(groups, maps, y) -> int:
    """How many tuples x of the product the transport carries to y, replayed.

    Level n of a transport and of its replay reads only a_{n+1} and x_n, so
    the levels are walked top down keeping {a_{n+1}: the number of suffixes
    (x_{n+1}, ..., x_N) whose levels all replayed}: each state and each x_n
    takes one transport step and one replay of that level, sum_n
    |G_{n+1}| |G_n| steps in all instead of N + 1 per tuple.
    """
    N = len(groups) - 1
    counts = {0: 1}  # a_{N+1}: the transport starts from the identity
    for n in range(N, -1, -1):
        g, yn = groups[n], y[n]
        below = {}
        for up, c in counts.items():
            push = maps[n].map[up] if n < N else up
            for x in g.elements():
                a = _transport_step(g, push, x, yn)
                if _action_step(g, push, a, x) == yn:
                    below[a] = below.get(a, 0) + c
        counts = below
    return sum(counts.values())


def lim1_truncated(sys: ExplicitFinite, budget: int = 200000) -> Lim1Orbits:
    """Orbit count of the lim^1 action on a finite truncation: one by theory,
    for any maps (see Lim1Orbits), so what is checked is the transport.

    When the product has at most `budget` elements, every tuple's transport
    to the basepoint is replayed, level by level over shared suffixes (see
    _replayed_tuples); otherwise each of 200 tuples drawn from a fixed seed is
    transported and replayed whole.  A transport that misses the basepoint is
    counted in `failed_transports`, and then no single orbit is shown
    (orbit_count 0).
    """
    groups, maps = sys.groups, sys.maps
    total = 1
    for g in groups:
        total *= g.order
    base = tuple(0 for _ in groups)
    if total <= budget:
        mode, checked = "exhaustive", total
        failed = total - _replayed_tuples(groups, maps, base)
    else:
        mode, checked = "constructive", 200
        rng = random.Random(0)
        failed = 0
        for _ in range(checked):
            x = tuple(rng.randrange(g.order) for g in groups)
            if _apply_action(groups, maps, _transport(groups, maps, x, base), x) != base:
                failed += 1
    return Lim1Orbits(0 if failed else 1, mode, total, checked, failed)


# ---------------------------------------------------------------------------
# Mittag-Leffler analysis


def _lattice_chain_verdict(step, L0, horizon: int) -> MLVerdict:
    """Stabilization of L_{k+1} = step L_k (column lattices): equality
    detection, or a strict drop at stable rank, which repeats forever under an
    invertible step.  Each level's width is its rank, and the index
    [L_k : L_{k+1}] is 1 exactly when the levels are equal."""
    prev = L0
    for k in range(horizon):
        nxt = la.column_space_basis(la.matmul(step, prev))
        idx = la.lattice_index(prev, nxt)
        if idx == 1:
            return MLVerdict("holds", level=k, proof="image chain stabilizes")
        if la.width(nxt) == la.width(prev):
            # strict inclusion at stable rank: the step is invertible on the
            # common rational span, so strictness repeats at every level
            cert = {
                "witness_level": k,
                "index": idx,
                "law": "strict drop at stable rank repeats under an "
                "invertible step",
            }
            return MLVerdict("fails", level=k, proof="strict chain", certificate=cert)
        prev = nxt
    return MLVerdict("unknown-at-horizon", level=horizon)


def ml_check(recipe, horizon: int = DEFAULT_HORIZON) -> MLVerdict:
    """Mittag-Leffler: image chains at every level eventually constant."""
    if isinstance(recipe, ExplicitFinite):
        # finite terms: every decreasing chain of subsets stabilizes
        level = 0
        for m in range(len(recipe.groups)):
            image = set(recipe.groups[m].elements())
            prev_size = len(image)
            for n in range(m + 1, len(recipe.groups)):
                comp = tuple(recipe.groups[n].elements())
                for i in range(n - 1, m - 1, -1):
                    comp = tuple(recipe.maps[i](x) for x in comp)
                image = set(comp)
                if len(image) == prev_size:
                    break
                prev_size = len(image)
                level = max(level, n)
        return MLVerdict(
            "holds", level=level, proof="finite terms: image chains stabilize"
        )
    if isinstance(recipe, ConstantEndo):
        # reduce to the free quotient: the torsion part is finite and its
        # image chain always stabilizes
        rel = recipe.module.relations
        U = recipe.endo
        free_idx = [i for i, d in enumerate(rel) if d == 0]
        if not free_idx:
            return MLVerdict("holds", level=0, proof="finite module")
        Ufree = tuple(tuple(U[i][j] for j in free_idx) for i in free_idx)
        return _lattice_chain_verdict(Ufree, la.identity(len(free_idx)), horizon)
    if isinstance(recipe, SubgroupChain):
        L0 = la.column_space_basis(recipe.base)
        return _lattice_chain_verdict(recipe.step, L0, horizon)
    if isinstance(recipe, NormTower):
        analysis = _tower_analysis(recipe, horizon)
        if analysis.status == "fails":
            return MLVerdict(
                "fails",
                proof="prime-valuation certificate (%s law)" % analysis.law,
                certificate=analysis.certificate,
            )
        if analysis.status == "holds":
            return MLVerdict("holds", level=0, proof="constant tower")
        return MLVerdict("unknown-at-horizon", level=horizon)
    if isinstance(recipe, Product):
        verdicts = [ml_check(f, horizon) for f in recipe.factors]
        if all(v.holds for v in verdicts):
            return MLVerdict("holds", level=max(v.level or 0 for v in verdicts),
                             proof="all factors stabilize")
        if any(v.fails for v in verdicts):
            bad = next(v for v in verdicts if v.fails)
            return MLVerdict("fails", proof="a factor fails", certificate=bad.certificate)
        return MLVerdict("unknown-at-horizon", level=horizon)
    raise TypeError("unknown recipe kind")


def _tower_analysis(recipe: NormTower, horizon: int) -> nt.TowerAnalysis:
    return nt.norm_tower_certificate(
        recipe.levels, law=recipe.law, horizon=min(horizon, 6)
    )


def _terms_countable(recipe) -> str | None:
    """A reason string when the recipe certifies countable terms."""
    if isinstance(recipe, ExplicitFinite):
        return "finite groups"
    if isinstance(recipe, ConstantEndo):
        return "finitely generated abelian group"
    if isinstance(recipe, SubgroupChain):
        return "subgroups of a finitely generated free abelian group"
    if isinstance(recipe, NormTower):
        return "unit groups of number fields"
    if isinstance(recipe, Product):
        reasons = [_terms_countable(f) for f in recipe.factors]
        if all(reasons):
            return "countable product factors"
        return None
    return None


def lim1_classify(recipe, horizon: int = DEFAULT_HORIZON) -> Lim1Verdict:
    """Trivial under (ML); uncountable when (ML) fails with countable terms."""
    if isinstance(recipe, Product):
        sub = tuple(lim1_classify(f, horizon) for f in recipe.factors)
        if all(v.status == "trivial" for v in sub):
            return Lim1Verdict("trivial", reason="every factor is trivial", factors=sub)
        if any(v.status == "uncountable" for v in sub):
            bad = next(v for v in sub if v.status == "uncountable")
            return Lim1Verdict(
                "uncountable", reason="a factor is uncountable",
                certificate=bad.certificate, factors=sub,
            )
        return Lim1Verdict("unknown", reason="undecided factor", factors=sub)
    verdict = ml_check(recipe, horizon)
    if verdict.holds:
        return Lim1Verdict("trivial", reason="Mittag-Leffler holds: " + verdict.proof)
    if verdict.fails:
        countable = _terms_countable(recipe)
        if countable:
            return Lim1Verdict(
                "uncountable",
                reason="countable terms (%s) and a replayable (ML) failure"
                % countable,
                certificate=verdict.certificate,
            )
        return Lim1Verdict("unknown", reason="(ML) fails but terms not certified countable")
    return Lim1Verdict("unknown", reason="undecided at horizon %d" % horizon)


# ---------------------------------------------------------------------------
# six-term sequence on truncations


@dataclass(frozen=True)
class SixTermReport:
    lim_exact_at_b: bool
    quotient_fibres_are_limB_orbits: bool
    lim1_a_single_orbit: bool
    lim1_exact_at_a: bool | None  # normal case only
    sizes: dict


def six_term_check(
    sub: ExplicitFinite, total: ExplicitFinite, inclusions, normal: bool = False,
    budget: int = 200000,
) -> SixTermReport:
    """Exactness of the limit sequence of a levelwise inclusion, orbit sense.

    Checks: lim A = ker(lim B -> lim(B/A)); the fibres of the connecting
    map out of lim(B/A) are the orbits of lim B; lim^1 A is a single orbit;
    and, in the normal case, the fibres of lim^1 A -> lim^1 B are orbits of
    lim C (degenerate but computed honestly on the truncation).
    """
    A_groups, B_groups = sub.groups, total.groups
    if len(A_groups) != len(B_groups):
        raise ValueError("levelwise data of different lengths")
    inclusions = tuple(inclusions)
    for i, inc in enumerate(inclusions):
        if not inc.is_injective():
            raise NotInjective("inclusion at level %d is not injective" % i)
        if inc.source != A_groups[i] or inc.target != B_groups[i]:
            raise ValueError("inclusion %d connects the wrong groups" % i)
    # squares commute
    for i in range(len(A_groups) - 1):
        for x in A_groups[i + 1].elements():
            if inclusions[i](sub.maps[i](x)) != total.maps[i](inclusions[i + 1](x)):
                raise ValueError("inclusions do not commute with transitions")
    images = [set(inc.map) for inc in inclusions]
    if normal:
        for i, img in enumerate(images):
            if not is_normal(B_groups[i], img):
                raise NotNormalLevelwise("level %d subgroup is not normal" % i)

    N = len(B_groups) - 1
    # coset spaces and induced transitions
    cosets_per_level, coset_of = zip(
        *(left_cosets(g, img) for g, img in zip(B_groups, images))
    )

    lim_b = lim_truncated(total)
    # kernel of lim B -> lim(B/A): families with every entry in A's image
    kernel_fams = {
        fam for fam in lim_b.tuples if all(x in images[i] for i, x in enumerate(fam))
    }
    lim_a = lim_truncated(sub)
    embedded_a = {
        tuple(inclusions[i](x) for i, x in enumerate(fam)) for fam in lim_a.tuples
    }
    exact_at_b = kernel_fams == embedded_a

    # lim(B/A): compatible coset families, determined by the top coset
    coset_fams = []
    for top in range(len(cosets_per_level[N])):
        fam = [0] * (N + 1)
        fam[N] = top
        for i in range(N - 1, -1, -1):
            rep = cosets_per_level[i + 1][fam[i + 1]][0]
            fam[i] = coset_of[i][total.maps[i](rep)]
        coset_fams.append(tuple(fam))
    coset_fams = sorted(set(coset_fams))

    # connecting data: delta(fam) = orbit of (e_n) with e_n = b_n^-1 u(b_{n+1})
    def delta(fam):
        lifts = [cosets_per_level[i][fam[i]][0] for i in range(N + 1)]
        es = []
        for n in range(N):
            g = B_groups[n]
            e = g.mul(g.inv(lifts[n]), total.maps[n](lifts[n + 1]))
            if e not in images[n]:
                raise ValueError("connecting element outside the subgroup at "
                                 "level %d" % n)
            es.append(e)
        return tuple(es)

    # every connecting tuple lands in the kernel levels (checked inside)
    for fam in coset_fams:
        delta(fam)

    # orbits of lim B acting on the coset families
    fam_set = set(coset_fams)
    seen = set()
    orbits = []
    for fam in coset_fams:
        if fam in seen:
            continue
        orbit = set()
        for b in lim_b.tuples:
            moved = tuple(
                coset_of[i][B_groups[i].mul(b[i], cosets_per_level[i][fam[i]][0])]
                for i in range(N + 1)
            )
            orbit.add(moved)
        if not orbit <= fam_set:
            raise ValueError("lim B moves a coset family out of lim(B/A)")
        seen |= orbit
        orbits.append(orbit)
    # the connecting map is constant on orbits iff fibres are unions of
    # orbits; with lim^1 A a single orbit on the truncation the fibre is
    # everything, so exactness says the action is transitive
    fibres_ok = len(orbits) == 1

    o1 = lim1_truncated(sub, budget)
    lim1_a_single = o1.orbit_count == 1

    lim1_exact_at_a = None
    if normal:
        # fibres of lim^1 A -> lim^1 B are lim C orbits; on a truncation both
        # pointed sets are single points, so the check is that the (single)
        # fibre equals the (single) orbit
        lim1_exact_at_a = lim1_a_single and lim1_truncated(total, budget).orbit_count == 1

    sizes = {
        "lim_a": lim_a.size,
        "lim_b": lim_b.size,
        "lim_quotient": len(coset_fams),
        "limB_orbit_count": len(orbits),
    }
    return SixTermReport(
        lim_exact_at_b=exact_at_b,
        quotient_fibres_are_limB_orbits=fibres_ok,
        lim1_a_single_orbit=lim1_a_single,
        lim1_exact_at_a=lim1_exact_at_a,
        sizes=sizes,
    )
