import pytest

from torsorlab import cohomology as co
from torsorlab import groups as gr
from torsorlab import gsets as gs
from torsorlab import torsors as to


def c2_on_c2_structure():
    c2 = gr.cyclic_group(2)
    return co.trivial_gamma_group(c2, gr.cyclic_group(2))


def s3_sequence():
    """1 -> C3 -> S3 -> C2 -> 1 with Gamma = C2 acting trivially."""
    gamma = gr.cyclic_group(2)
    s3 = gr.symmetric_group(3)
    c3 = gr.cyclic_group(3)
    a_elems = gr.generated_subgroup(s3, [2])
    inc = gr.GroupHom(c3, s3, tuple(s3.power(2, k) for k in range(3)))
    cq, proj = gr.quotient(s3, a_elems)
    A = co.trivial_gamma_group(gamma, c3)
    B = co.trivial_gamma_group(gamma, s3)
    C = co.trivial_gamma_group(gamma, cq)
    seq = to.ExactGammaSequence(
        A, B, C,
        to.EquivariantHom(A, B, inc),
        to.EquivariantHom(B, C, proj),
    )
    return seq


def test_torsor_rep_and_point_action():
    n = c2_on_c2_structure()
    triv = to.trivial_torsor(n)
    pts = triv.twisted_point_action()
    assert pts == gs.trivial_gset(n.gamma, 2)
    f = co.CrossedHom(n.gamma, n, (0, 1))
    p = to.TorsorRep(n, f)
    pts = p.twisted_point_action()
    assert pts.apply(1, 0) == 1  # nontrivial twist moves the base point


def test_contracted_product_trivial_torsor():
    seq = s3_sequence()
    B = seq.b
    triv = to.trivial_torsor(B)
    x = to.left_translation_aset(B)
    out = to.contracted_product(triv, x)
    assert out.action == B.action  # X keeps its own action


def test_contracted_product_unit_law():
    # P wedge^A A (left translation) is P itself
    n = c2_on_c2_structure()
    f = co.CrossedHom(n.gamma, n, (0, 1))
    p = to.TorsorRep(n, f)
    out = to.contracted_product(p, to.left_translation_aset(n))
    assert out == p.twisted_point_action()


def test_contracted_product_extension_of_structure():
    # pushing a nontrivial C2-torsor along C2 -> C2 x C2 gives the torsor of
    # the pushed cocycle
    gamma = gr.cyclic_group(2)
    c2 = gr.cyclic_group(2)
    v4 = gr.direct_product(c2, c2)
    A = co.trivial_gamma_group(gamma, c2)
    Bg = co.trivial_gamma_group(gamma, v4)
    vhom = gr.GroupHom(c2, v4, (0, 1))
    f = co.CrossedHom(gamma, A, (0, 1))
    p = to.TorsorRep(A, f)
    pushed_set = to.contracted_product(p, to.pushforward_aset(vhom, Bg, A))
    pushed_cocycle = co.CrossedHom(gamma, Bg, tuple(vhom(x) for x in f.values))
    expected = to.TorsorRep(Bg, pushed_cocycle).twisted_point_action()
    assert pushed_set == expected


def test_contracted_product_of_conjugation_aset_is_inner_form():
    # dual route: the contracted product with the inner-action set carries
    # exactly the inner form's Galois action, and that action is by
    # automorphisms of the unchanged multiplication table
    gamma = gr.cyclic_group(2)
    s3 = gr.symmetric_group(3)
    B = co.trivial_gamma_group(gamma, s3)
    f = co.CrossedHom.from_generators(gamma, B, {1: 1})
    p = to.TorsorRep(B, f)
    via_set = to.contracted_product(p, to.conjugation_aset(B))
    tw = to.inner_twist(p)
    assert via_set.action == tw.action
    assert tw.underlying is B.underlying  # multiplication untouched


def test_inner_twist_and_automorphisms():
    gamma = gr.cyclic_group(2)
    s3 = gr.symmetric_group(3)
    B = co.trivial_gamma_group(gamma, s3)
    assert to.inner_twist(to.trivial_torsor(B)) == B
    f = co.CrossedHom.from_generators(gamma, B, {1: 1})
    p = to.TorsorRep(B, f)
    tw = to.inner_twist(p)
    fixed = tw.fixed_points()
    assert to.torsor_automorphism_count(p) == len(fixed)
    # double twist by the opposite cocycle restores the action
    ginv = co.CrossedHom(gamma, tw, tuple(s3.inv(v) for v in f.values))
    assert co.twist_group(tw, ginv).action == B.action


def test_relative_h1_plain_h1_when_base_trivial_group():
    gamma = gr.cyclic_group(2)
    s3 = gr.symmetric_group(3)
    B = co.trivial_gamma_group(gamma, s3)
    C = co.trivial_gamma_group(gamma, gr.trivial_group())
    v = to.EquivariantHom(B, C, gr.GroupHom(s3, gr.trivial_group(), (0,) * 6))
    q = to.trivial_torsor(C)
    reps = to.relative_h1(v, q)
    plain = co.h1_nonabelian(gamma, B)
    assert len(reps) == plain.count == 2


def test_relative_h1_identity_map_single_class():
    n = c2_on_c2_structure()
    v = to.EquivariantHom(n, n, gr.identity_hom(n.underlying))
    q = to.TorsorRep(n, co.CrossedHom(n.gamma, n, (0, 1)))
    reps = to.relative_h1(v, q)
    assert len(reps) == 1
    assert reps[0].p.cocycle.values == q.cocycle.values


def test_relative_h1_s3_sequence_counts():
    seq = s3_sequence()
    v = seq.project
    q_triv = to.trivial_torsor(seq.c)
    reps = to.relative_h1(v, q_triv)
    # lifts valued in the kernel: only the trivial hom C2 -> C3
    assert len(reps) == 1
    q_id = to.TorsorRep(seq.c, co.CrossedHom(seq.c.gamma, seq.c, (0, 1)))
    reps = to.relative_h1(v, q_id)
    # three transposition lifts, fused by kernel conjugation
    assert len(reps) == 1


def test_twist_bijection_s3():
    seq = s3_sequence()
    bases = []
    q_triv = to.trivial_torsor(seq.c)
    bases.append(to.RelativeClass(
        seq.project, q_triv, to.trivial_torsor(seq.b)
    ))
    q_id = to.TorsorRep(seq.c, co.CrossedHom(seq.c.gamma, seq.c, (0, 1)))
    p_lift = to.TorsorRep(seq.b, co.CrossedHom(seq.b.gamma, seq.b, (0, 1)))
    bases.append(to.RelativeClass(seq.project, q_id, p_lift))
    for base in bases:
        rep = to.verify_twist_bijection(seq, base)
        assert rep.bijective
        assert rep.neutral_to_base
        assert rep.abelian_kernel_action_factors is True
        assert len(rep.kernel_h1_classes) == len(rep.relative_classes)


def test_twist_bijection_degenerate_c_trivial():
    gamma = gr.cyclic_group(2)
    c2 = gr.cyclic_group(2)
    A = co.trivial_gamma_group(gamma, c2)
    B = co.trivial_gamma_group(gamma, c2)
    C = co.trivial_gamma_group(gamma, gr.trivial_group())
    seq = to.ExactGammaSequence(
        A, B, C,
        to.EquivariantHom(A, B, gr.identity_hom(c2)),
        to.EquivariantHom(B, C, gr.GroupHom(c2, gr.trivial_group(), (0, 0))),
    )
    base = to.RelativeClass(seq.project, to.trivial_torsor(C), to.trivial_torsor(B))
    rep = to.verify_twist_bijection(seq, base)
    assert rep.bijective and rep.neutral_to_base
    # A = B: classes are plain H^1(Gamma, C2): two of them
    assert len(rep.kernel_h1_classes) == 2


def test_twist_bijection_nonabelian_kernel():
    # 1 -> S3 -> S3 x C2 -> C2 -> 1 over Gamma = C2 with trivial action
    gamma = gr.cyclic_group(2)
    s3 = gr.symmetric_group(3)
    c2 = gr.cyclic_group(2)
    b = gr.direct_product(s3, c2)
    e1, e2, p1, p2 = gr.product_embeddings(s3, c2, b)
    A = co.trivial_gamma_group(gamma, s3)
    B = co.trivial_gamma_group(gamma, b)
    C = co.trivial_gamma_group(gamma, c2)
    seq = to.ExactGammaSequence(
        A, B, C, to.EquivariantHom(A, B, e1), to.EquivariantHom(B, C, p2)
    )
    base = to.RelativeClass(seq.project, to.trivial_torsor(C), to.trivial_torsor(B))
    rep = to.verify_twist_bijection(seq, base)
    assert rep.bijective and rep.neutral_to_base
    assert rep.abelian_kernel_action_factors is None


def test_twist_bijection_v4_kernel():
    # 1 -> V4 -> A4 -> C3 -> 1 over Gamma = C2 with trivial action
    gamma = gr.cyclic_group(2)
    a4 = gr.alternating_group_4()
    v4_elems = next(
        h for h in gr.all_subgroups(a4) if len(h) == 4
    )
    v4 = gr.direct_product(gr.cyclic_group(2), gr.cyclic_group(2))
    # build the inclusion by matching an iso V4 -> subgroup
    sub = sorted(v4_elems)
    inc_map = None
    for img1 in sub[1:]:
        for img2 in sub[1:]:
            if img2 == img1:
                continue
            cand = {0: 0, 1: img1, 2: img2, 3: a4.mul(img1, img2)}
            try:
                hom = gr.GroupHom(v4, a4, tuple(cand[i] for i in range(4)))
            except gr.InvalidHom:
                continue
            inc_map = hom
            break
        if inc_map:
            break
    assert inc_map is not None
    cq, proj = gr.quotient(a4, v4_elems)
    A = co.trivial_gamma_group(gamma, v4)
    B = co.trivial_gamma_group(gamma, a4)
    C = co.trivial_gamma_group(gamma, cq)
    seq = to.ExactGammaSequence(
        A, B, C, to.EquivariantHom(A, B, inc_map), to.EquivariantHom(B, C, proj)
    )
    base = to.RelativeClass(seq.project, to.trivial_torsor(C), to.trivial_torsor(B))
    rep = to.verify_twist_bijection(seq, base)
    assert rep.bijective and rep.neutral_to_base
    # V4 is abelian and central-free in A4, conjugation factors through C3
    assert rep.abelian_kernel_action_factors is True
    assert len(rep.kernel_h1_classes) == 4


def test_exactness_guards():
    seq = s3_sequence()
    with pytest.raises(to.NotExact):
        to.ExactGammaSequence(
            seq.a, seq.b, seq.b,
            seq.include,
            to.EquivariantHom(seq.b, seq.b, gr.identity_hom(seq.b.underlying)),
        )
