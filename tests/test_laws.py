"""Every homomorphism, action and cocycle law is checked on a generating set.

The reference checks below are the all-pairs loops the classes used before:
each law is tested at every pair of elements.  On valid inputs built from the
catalog groups of order <= 12, the generator checks must accept, and on
every single-entry change of a table they must give the reference's verdict
(most changes break the law).  Tables whose rows are automorphisms also get
every replacement of one row by another row, which keeps each row bijective,
so only the law can reject it.

A single changed entry already breaks the law at any one generator, so on
groups with two generators (V4 and S3) every table of a kind is compared too:
a check that skipped a generator would then accept tables the reference
rejects.
"""

import itertools

from torsorlab import catalog
from torsorlab import cohomology as co
from torsorlab import groups as gr
from torsorlab import torsors as to

GROUPS = [g for _, g in catalog.group_catalog(12)]


# ---------------------------------------------------------------------------
# the all-pairs reference checks


def ref_hom(src, tgt, f) -> bool:
    return f[0] == 0 and all(
        f[src.mul(a, b)] == tgt.mul(f[a], f[b]) for a in src.elements() for b in src.elements()
    )


def ref_automorphisms(n, perms) -> bool:
    # bijectivity first: the verdict is the same and a changed entry fails fast
    return all(sorted(p) == list(n.elements()) for p in perms) and all(
        ref_hom(n, n, p) for p in perms
    )


def ref_gamma_group(gamma, n, action) -> bool:
    return (
        action[0] == tuple(n.elements())
        and ref_automorphisms(n, action)
        and all(
            tuple(action[t1][x] for x in action[t2]) == action[gamma.mul(t1, t2)]
            for t1 in gamma.elements() for t2 in gamma.elements()
        )
    )


def ref_cocycle(gamma, c, vals) -> bool:
    n = c.underlying
    return all(v in n.elements() for v in vals) and vals[0] == 0 and all(
        n.mul(vals[s], c.act(s, vals[t])) == vals[gamma.mul(s, t)]
        for s in gamma.elements() for t in gamma.elements()
    )


def ref_equivariant(src, tgt, f) -> bool:
    return all(
        f[src.act(t, x)] == tgt.act(t, f[x])
        for t in src.gamma.elements() for x in src.underlying.elements()
    )


def every_table(first, choices, count):
    """Every tuple of `count` entries from `choices` after the entry `first`."""
    return ((first,) + rest for rest in itertools.product(choices, repeat=count))


def accepts(build, error) -> bool:
    try:
        build()
    except error:
        return False
    return True


# ---------------------------------------------------------------------------
# single-entry changes


def changed_entries(values, choices):
    """Every tuple that differs from `values` at exactly one position, the
    new value drawn from `choices`."""
    for i, v in enumerate(values):
        for w in choices:
            if w != v:
                yield values[:i] + (w,) + values[i + 1 :]


def changed_tables(rows, choices):
    """Every table that differs from `rows` in exactly one entry, then every
    table with one row replaced by another row of it."""
    for t, row in enumerate(rows):
        for new in changed_entries(row, choices):
            yield rows[:t] + (new,) + rows[t + 1 :]
    for t in range(len(rows)):
        for other in set(rows) - {rows[t]}:
            yield rows[:t] + (other,) + rows[t + 1 :]


def verdicts(tables, build, error, reference):
    """(accepted, rejected) over the tables; the check must agree with the
    reference on each."""
    accepted = rejected = 0
    for table in tables:
        ok = reference(table)
        assert accepts(lambda: build(table), error) == ok, table
        accepted += ok
        rejected += not ok
    return accepted, rejected


def agree(valid, changes, build, error, reference):
    """Check the valid tables and their changes; (accepted, rejected)."""
    accepted = rejected = 0
    for table in valid:
        assert reference(table) and accepts(lambda: build(table), error)
        a, r = verdicts(changes(table), build, error, reference)
        accepted += a
        rejected += r
    return accepted, rejected


# ---------------------------------------------------------------------------
# valid inputs


def conjugation(g):
    """g acting on itself by conjugation."""
    return gr.GammaGroup(g, g, [[g.conj(t, x) for x in g.elements()] for t in g.elements()])


def inversion(a):
    """C2 acting on the abelian group a by inversion."""
    return gr.GammaGroup(gr.cyclic_group(2), a, [tuple(a.elements()), a.inverses])


V4 = gr.direct_product(gr.cyclic_group(2), gr.cyclic_group(2))
S3 = gr.symmetric_group(3)
C3 = gr.cyclic_group(3)
C4 = gr.cyclic_group(4)


def permutations_fixing_0(n):
    """Every bijection of n's elements that fixes the identity; for C4 most
    of them are no automorphisms."""
    return [(0,) + p for p in itertools.permutations(range(1, n.order))]


def through_sign(gamma):
    """gamma acting on C3 through a homomorphism onto C2, by inversion."""
    sign = next(h for h in co.all_homs(gamma, gr.cyclic_group(2)) if h.is_surjective())
    return gr.GammaGroup(gamma, C3, [((0, 1, 2), (0, 2, 1))[sign(t)] for t in gamma.elements()])


def gamma_groups():
    """Conjugation on every catalog group of order <= 12, inversion on the
    abelian ones, and the Frobenius actions of C4 on C5 and C3 on C7."""
    out = [conjugation(g) for g in GROUPS]
    out += [inversion(a) for a in GROUPS if a.is_abelian() and a.order > 2]
    for q, p, r in ((4, 5, 2), (3, 7, 2)):
        theta = [[pow(r, i, p) * x % p for x in range(p)] for i in range(q)]
        out.append(gr.GammaGroup(gr.cyclic_group(q), gr.cyclic_group(p), theta))
    return out


def test_group_hom_agrees_with_the_all_pairs_reference():
    # per pair of groups, the homomorphisms with the most and the fewest
    # distinct images, each with every single-entry change
    accepted = rejected = 0
    for src in GROUPS:
        for tgt in GROUPS:
            homs = sorted((h.map for h in co.all_homs(src, tgt)), key=lambda f: (len(set(f)), f))
            a, r = agree(
                {homs[0], homs[-1]},
                lambda f: changed_entries(f, tgt.elements()),
                lambda f: gr.GroupHom(src, tgt, f),
                gr.InvalidHom,
                lambda f: ref_hom(src, tgt, f),
            )
            accepted += a
            rejected += r
    assert rejected > 50000 and accepted > 0


def test_gamma_group_agrees_with_the_all_pairs_reference():
    accepted = rejected = 0
    for n in gamma_groups():
        a, r = agree(
            [n.action],
            lambda rows: changed_tables(rows, n.underlying.elements()),
            lambda rows: gr.GammaGroup(n.gamma, n.underlying, rows),
            gr.NotAction,
            lambda rows: ref_gamma_group(n.gamma, n.underlying, rows),
        )
        accepted += a
        rejected += r
    assert rejected > 17000 and accepted > 0


def test_crossed_hom_agrees_with_the_all_pairs_reference():
    # each changed entry is an element of N, or -1 or |N|, which are none
    accepted = rejected = 0
    for n in gamma_groups():
        cocycles = co.enumerate_cocycles(n.gamma, n)
        a, r = agree(
            {cocycles[0], cocycles[-1]},
            lambda vals: changed_entries(vals, range(-1, n.underlying.order + 1)),
            lambda vals: co.CrossedHom(n.gamma, n, vals),
            co.NotCocycle,
            lambda vals: ref_cocycle(n.gamma, n, vals),
        )
        accepted += a
        rejected += r
    assert rejected > 4000 and accepted > 0


def test_equivariant_hom_agrees_with_the_all_pairs_reference():
    # the identity of every Gamma-group, and g -> g/N for each proper normal
    # subgroup N, g acting on both by conjugation; a changed map is passed
    # unvalidated, so only the equivariance check can reject it
    maps = [(n, n, tuple(n.underlying.elements())) for n in gamma_groups()]
    for g in GROUPS:
        b = conjugation(g)
        for elems in gr.all_subgroups(g):
            if 1 < len(elems) < g.order and gr.is_normal(g, elems):
                q, proj = gr.quotient(g, elems)
                lift = {proj(x): x for x in g.elements()}
                action = [[proj(g.conj(t, lift[c])) for c in q.elements()] for t in g.elements()]
                maps.append((b, gr.GammaGroup(g, q, action), proj.map))
    accepted = rejected = 0
    for src, tgt, f in maps:
        a, r = agree(
            [f],
            lambda f: changed_entries(f, tgt.underlying.elements()),
            lambda f: to.EquivariantHom(
                src, tgt, gr.GroupHom(src.underlying, tgt.underlying, f, validate=False)
            ),
            to.IncompatibleActions,
            lambda f: ref_equivariant(src, tgt, f),
        )
        accepted += a
        rejected += r
    assert rejected > 1800 and accepted > 0


# ---------------------------------------------------------------------------
# every table, on groups with two generators


def test_group_hom_agrees_with_the_reference_on_every_map():
    accepted = rejected = 0
    for src in (V4, S3):
        for tgt in (g for g in GROUPS if g.order <= 6):
            a, r = verdicts(
                every_table(0, tgt.elements(), src.order - 1),
                lambda f: gr.GroupHom(src, tgt, f),
                gr.InvalidHom,
                lambda f: ref_hom(src, tgt, f),
            )
            accepted += a
            rejected += r
    assert rejected > 20000 and accepted > 30


def test_gamma_group_agrees_with_the_reference_on_every_table():
    accepted = rejected = 0
    for gamma, n in ((V4, C3), (V4, V4), (V4, C4), (S3, C3), (S3, C4)):
        a, r = verdicts(
            every_table(tuple(n.elements()), permutations_fixing_0(n), gamma.order - 1),
            lambda rows: gr.GammaGroup(gamma, n, rows),
            gr.NotAction,
            lambda rows: ref_gamma_group(gamma, n, rows),
        )
        accepted += a
        rejected += r
    assert rejected > 7000 and accepted > 10


def test_crossed_hom_agrees_with_the_reference_on_every_table():
    accepted = rejected = 0
    for n in (co.trivial_gamma_group(V4, S3), conjugation(S3), through_sign(V4), through_sign(S3)):
        a, r = verdicts(
            every_table(0, n.underlying.elements(), n.gamma.order - 1),
            lambda vals: co.CrossedHom(n.gamma, n, vals),
            co.NotCocycle,
            lambda vals: ref_cocycle(n.gamma, n, vals),
        )
        accepted += a
        rejected += r
    assert rejected > 7000 and accepted > 10


def test_equivariant_hom_agrees_with_the_reference_on_every_map():
    accepted = rejected = 0
    pairs = [(conjugation(S3), conjugation(S3)), (conjugation(S3), through_sign(S3)),
             (through_sign(S3), through_sign(S3)), (through_sign(V4), through_sign(V4))]
    for src, tgt in pairs:
        a, r = verdicts(
            every_table(0, tgt.underlying.elements(), src.underlying.order - 1),
            lambda f: to.EquivariantHom(
                src, tgt, gr.GroupHom(src.underlying, tgt.underlying, f, validate=False)
            ),
            to.IncompatibleActions,
            lambda f: ref_equivariant(src, tgt, f),
        )
        accepted += a
        rejected += r
    assert rejected > 7000 and accepted > 10
