"""Named corpus of small groups driving the verification suites."""

from __future__ import annotations

from .groups import (
    FiniteGroup,
    GammaGroup,
    alternating_group_4,
    cyclic_group,
    dihedral_group,
    direct_product,
    quaternion_group,
    semidirect_product,
    special_linear_2_3,
    symmetric_group,
)


def _frobenius(cn: FiniteGroup, ck: FiniteGroup, r: int) -> FiniteGroup:
    # Cn x| Ck with the generator acting by x -> r x (r of order k mod n);
    # the semidihedral group of order 16 is C8 x| C2 by x -> 3x
    n, k = cn.order, ck.order
    theta = [tuple(pow(r, i, n) * x % n for x in range(n)) for i in range(k)]
    return semidirect_product(GammaGroup(ck, cn, theta)).group


def group_catalog(max_order: int = 24) -> tuple:
    """(name, group) pairs, deduplicated by name, orders <= max_order."""
    # each cyclic group is built and checked once, and read by every entry
    cyclic = {n: cyclic_group(n) for n in range(1, 25)}
    c2 = cyclic[2]
    entries = [(f"C{n}", g) for n, g in cyclic.items()]
    entries += [
        ("C2xC2", direct_product(c2, c2)),
        ("C2xC4", direct_product(c2, cyclic[4])),
        ("C2xC6", direct_product(c2, cyclic[6])),
        ("C2xC8", direct_product(c2, cyclic[8])),
        ("C2xC10", direct_product(c2, cyclic[10])),
        ("C2xC12", direct_product(c2, cyclic[12])),
        ("C3xC3", direct_product(cyclic[3], cyclic[3])),
        ("C3xC6", direct_product(cyclic[3], cyclic[6])),
        ("C4xC4", direct_product(cyclic[4], cyclic[4])),
        ("C2xC2xC2", direct_product(c2, direct_product(c2, c2))),
        ("C2xC2xC4", direct_product(c2, direct_product(c2, cyclic[4]))),
        ("C2xC2xC6", direct_product(c2, direct_product(c2, cyclic[6]))),
        (
            "C2xC2xC2xC2",
            direct_product(direct_product(c2, c2), direct_product(c2, c2)),
        ),
        ("S3", symmetric_group(3)),
        ("D4", dihedral_group(4)),
        ("Q8", quaternion_group(8)),
        ("D5", dihedral_group(5)),
        ("D6", dihedral_group(6)),
        ("Dic3", quaternion_group(12)),
        ("A4", alternating_group_4()),
        ("D7", dihedral_group(7)),
        ("D8", dihedral_group(8)),
        ("Q16", quaternion_group(16)),
        ("SD16", _frobenius(cyclic[8], c2, 3)),
        ("C2xD4", direct_product(c2, dihedral_group(4))),
        ("C2xQ8", direct_product(c2, quaternion_group(8))),
        ("D9", dihedral_group(9)),
        ("C3xS3", direct_product(cyclic[3], symmetric_group(3))),
        ("D10", dihedral_group(10)),
        ("Dic5", quaternion_group(20)),
        ("F20", _frobenius(cyclic[5], cyclic[4], 2)),
        ("F21", _frobenius(cyclic[7], cyclic[3], 2)),
        ("D11", dihedral_group(11)),
        ("S4", symmetric_group(4)),
        ("SL(2,3)", special_linear_2_3()),
        ("C2xA4", direct_product(c2, alternating_group_4())),
        ("D12", dihedral_group(12)),
        ("Dic6", quaternion_group(24)),
        ("C3xD4", direct_product(cyclic[3], dihedral_group(4))),
        ("C3xQ8", direct_product(cyclic[3], quaternion_group(8))),
    ]
    return tuple((name, g) for name, g in entries if g.order <= max_order)


def central_involutions(g: FiniteGroup) -> tuple:
    from .groups import center

    return tuple(
        x for x in center(g) if x != g.identity and g.mul(x, x) == g.identity
    )
