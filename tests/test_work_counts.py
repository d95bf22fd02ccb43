"""Work counts that a regression cannot slip past: deterministic call counts
of the default runs, read by wrapping functions in-process.  A bound may be
lowered when the work falls; it is not raised to make a run pass."""

from torsorlab import checks
from torsorlab import cohomology as co
from torsorlab import groups as gr
from torsorlab import gsets as gs
from torsorlab import invsys as iv
from torsorlab import lattices as lt
from torsorlab import linalg as la
from torsorlab import numtheory as nt
from torsorlab import serre as sr
from helpers import perfbench_workloads


def _calls(monkeypatch, run, *targets) -> list:
    """How often each (owner, attribute name) of targets is called while
    run() runs; a method is counted by patching its class."""
    counts = [0] * len(targets)
    originals = [getattr(owner, name) for owner, name in targets]
    for i, ((owner, name), f) in enumerate(zip(targets, originals)):
        def counted(*args, _i=i, _f=f, **kw):
            counts[_i] += 1
            return _f(*args, **kw)

        monkeypatch.setattr(owner, name, counted)
    run()
    for (owner, name), f in zip(targets, originals):
        monkeypatch.setattr(owner, name, f)
    return counts


def _snf_calls(monkeypatch, run) -> list:
    """(rows, columns, transforms tracked) of each smith_normal_form call
    while run() runs; every caller reaches it through linalg."""
    snf, calls = la.smith_normal_form, []

    def recorded(matrix, *, transforms=la.SNF_TRANSFORMS):
        calls.append((len(matrix), la.width(matrix), tuple(transforms)))
        return snf(matrix, transforms=transforms)

    monkeypatch.setattr(la, "smith_normal_form", recorded)
    run()
    monkeypatch.setattr(la, "smith_normal_form", snf)
    return calls


def _matmul_calls(monkeypatch, run) -> int:
    return _calls(monkeypatch, run, (la, "matmul"))[0]


def test_block_decompositions_multiply_only_to_compose(monkeypatch):
    # the twists and equivariance checks of criterion 2 read the points of
    # their lattices, so the one product per group is its compose (930 and
    # 337 calls when the twists and checks multiplied matrices); each
    # twisted sequence is decided by one kernel_sequence_exact, which
    # multiplies on the nonzeros of K's rows and calls no la.matmul (18
    # calls, 12 of them its W K and E K, when it did).  twist_serre reads
    # the nonzeros of K and W once (la._pair_rows) for both the restricted
    # action and the sequence; with the distinct rows of the twisted
    # middle's action, the restriction map E and the two factors of the one
    # compose, that is 6 reads per group (8 when restricted_action and
    # kernel_sequence_exact each read K and W)
    products, sequences, sparse = _calls(
        monkeypatch, checks.check_block_decomposition,
        (la, "matmul"), (sr, "kernel_sequence_exact"), (la, "_sparse"))
    assert products <= 6 and sequences == 6 and sparse == 36
    d4 = gr.dihedral_group(4)
    products, sequences = _calls(monkeypatch, lambda: sr.conjugation_block_decomposition(d4),
                                 (la, "matmul"), (sr, "kernel_sequence_exact"))
    assert products <= 1 and sequences == 1


def test_block_decompositions_work(monkeypatch):
    # criterion 2 over six groups: per group one saturated kernel of
    # X*(Sbar), two twists (the middle and the quotient), and one
    # restriction, of the twisted middle's action; no SNF, since the pair
    # equations of X*(Sbar) eliminate on their unit pivots and every other
    # read is elementary divisors by unit pivots alone (6 SNF calls, all
    # tracking, when the saturated kernel took one; 36 when the divisors
    # took one each too; 54 calls, 12 tracking, 18 twists, 12 restrictions
    # and 18 check_rho when X*(Sbar) was twisted apart and the sequence had
    # a second kernel)
    snf = _snf_calls(monkeypatch, checks.check_block_decomposition)
    assert len(snf) == 0
    twists, restrictions, action_checks = _calls(
        monkeypatch, checks.check_block_decomposition, (sr, "twist_lattice"),
        (la, "restricted_action"), (lt, "check_rho"))
    assert twists == 12
    assert restrictions <= 6
    assert action_checks <= 12


def test_permutation_h1_multiplies_nothing(monkeypatch):
    # criterion 3's lattices act by permutation matrices, so checking the
    # action law multiplies no matrix
    lattices = [m for _, _, m in checks.coset_lattices()]
    assert len(lattices) == 747

    def run():
        for m in lattices:
            co.h1_abelian(m.group, m)

    assert _matmul_calls(monkeypatch, run) == 0


def test_permutation_h1_work(monkeypatch):
    # criterion 3: no SNF, since the stacked rho(s) - I of a coset lattice is
    # a signed incidence matrix, whose elementary divisors come by unit
    # pivots alone (747 invariants-only SNFs, the largest 72x24, when each
    # lattice took one), and the subgroup closures of the catalog groups it
    # draws the lattices from (9,897 when each subgroup was closed from {0})
    snf = []
    closures, = _calls(monkeypatch, lambda: snf.extend(
        _snf_calls(monkeypatch, checks.check_permutation_h1_vanishing)), (gr, "_closure"))
    assert len(snf) == 0
    assert max((rows for rows, _, _ in snf), default=0) <= 72
    assert max((cols for _, cols, _ in snf), default=0) <= 24
    assert closures <= 3913


def test_character_sequences_snf_work(monkeypatch):
    # criterion 4 over 65 data: per sequence one saturated kernel and the
    # elementary divisors of E, and no SNF: the pair equations and E both
    # eliminate on their unit pivots (130 calls, all tracking right and
    # right_inv, when each saturated kernel took an SNF; 260 when E took a
    # transform-free one too; 520 with a second kernel and a cokernel per
    # joint)
    calls = _snf_calls(monkeypatch, checks.check_character_sequences)
    assert len(calls) == 0


def test_cm_type_bases_snf_work(monkeypatch):
    # criterion 5 over 26 data and 650 types: no SNF; the 0/1 vectors of
    # each type give their elementary divisors by unit pivots alone (650
    # transform-free SNFs when each type took one), and the rank of X*(S) is
    # a count (26 tracked when each datum built a saturated kernel, 676
    # calls when each datum took one more SNF for that rank)
    calls = _snf_calls(monkeypatch, checks.check_cm_type_bases)
    assert len(calls) == 0


def test_cm_type_bases_read_the_involution_row(monkeypatch):
    # criterion 5 reads the equations of X*(S) off row iota of the group
    # table (26 _pair_equations calls when each datum built the dense
    # |G| x (|G| + 1) equations to deduplicate them)
    assert _calls(monkeypatch, checks.check_cm_type_bases, (sr, "_pair_equations")) == [0]


def test_permutation_lattices_build_no_matrices(monkeypatch):
    # a permutation lattice keeps its points and builds its matrices only
    # when they are read (lattices._permutation_matrices): the H^1 of
    # criterion 3 and the maps of criterion 4 read the points, and
    # criterion 2 builds the matrices of its six twisted middles alone,
    # which restricted_action reads (747, 260 and 90 dense actions when
    # every permutation, trivial, summed and twisted lattice was built as
    # matrices)
    for run, dense in ((checks.check_permutation_h1_vanishing, 0),
                       (checks.check_character_sequences, 0),
                       (checks.check_block_decomposition, 6)):
        assert _calls(monkeypatch, run, (lt, "_permutation_matrices")) == [dense]


def test_character_sequences_read_points_and_distinct_equations(monkeypatch):
    # criterion 4 validates its 130 fibre-sum maps on the points of their
    # ends, with no product of matrices (344 column permutations and 344
    # signed-row reads of a monomial product when it read the matrices at
    # the generators), and takes X*(S) and X*(Sbar) from the |G|/2 distinct
    # equations (130 _pair_equations calls when each kernel eliminated all
    # |G| rows); each sequence multiplies on sparse rows, so la.matmul is
    # not called at all (260 calls, W K and E K per sequence, when
    # kernel_sequence_exact took them and they were counted apart)
    assert _calls(monkeypatch, checks.check_character_sequences, (sr, "_pair_equations")) == [0]
    assert _matmul_calls(monkeypatch, checks.check_character_sequences) == 0


def test_character_sequences_read_each_kernel_once(monkeypatch):
    # criterion 4 reads the nonzeros of each kernel K, of its retraction W
    # and of each fibre-sum map E once (la._sparse), and decides the weight
    # checks, W K == I and E K == 0 on those rows: 3 reads per sequence,
    # 390 over the 65 data (910 when each weight check read K, W and the
    # weight column through la.coordinates and W K and E K each read K
    # again through la.matmul); the products stay 8 per datum, and each of
    # the 130 sequences is decided by one kernel_sequence_exact on the rows
    sparse, products, sequences = _calls(
        monkeypatch, checks.check_character_sequences,
        (la, "_sparse"), (la, "_times"), (sr, "kernel_sequence_exact"))
    assert sparse <= 390
    assert products == 520
    assert sequences == 130


def test_permutation_h1_checks_each_action_once(monkeypatch):
    # criterion 3: left multiplication permutes the cosets of a subgroup, so
    # coset_gset builds its 747 G-sets unchecked, and h1_abelian trusts
    # their permutation lattices (747 check_rho and 747 more check_action
    # calls when both re-proved the law); the 51 check_action calls are the
    # catalog's group tables that no theorem vouches for, each cyclic group
    # checked once (72 when each product built and checked its own cyclic
    # factors, 98 when the direct and semidirect products were checked too).
    # test_trusted_constructors.py runs the validators on what these
    # constructors build
    tables, gsets, lattice_laws = _calls(
        monkeypatch, checks.check_permutation_h1_vanishing,
        (gr, "check_action"), (gs, "check_action"), (lt, "check_rho"))
    assert lattice_laws == 0
    assert tables + gsets == 51


def test_permutation_h1_builds_no_identity(monkeypatch):
    # check_rho reads rho(1) against the unit rows in place (747 la.identity
    # calls when it built I for each lattice)
    lattices = [m for _, _, m in checks.coset_lattices()]

    def run():
        for m in lattices:
            co.h1_abelian(m.group, m)

    assert _calls(monkeypatch, run, (la, "identity")) == [0]


def test_permutation_h1_reads_no_row_twice(monkeypatch):
    # h1_abelian builds the rows of the stacked rho(s) - I itself from rows
    # its lattice already holds and hands them to la._divisors unread (one
    # _rows read per lattice, 747, when it went through elementary_divisors;
    # 819 over criterion 3, whose other reads are the catalog's group tables,
    # 51 since each cyclic group is built once, 72 before)
    lattices = [m for _, _, m in checks.coset_lattices()]

    def run():
        for m in lattices:
            co.h1_abelian(m.group, m)

    assert _calls(monkeypatch, run, (la, "_rows")) == [0]
    assert _calls(monkeypatch, checks.check_permutation_h1_vanishing, (la, "_rows"))[0] <= 51


def test_permutation_h1_divisor_rows(monkeypatch):
    # criterion 3 hands la._divisors k - 1 rows per cycle of length k of each
    # generator, which eliminate to its 3,643 unit divisors (8,799 rows when
    # each cycle kept its closing row, one row per moved point, 5,156 of them
    # ending zero; 5,590 rows and 1,947 ending zero without it)
    divisors, work = la._divisors, [0, 0]

    def counted(rows):
        work[0] += len(rows)
        d = divisors(rows)
        work[1] += len(d)
        return d

    monkeypatch.setattr(la, "_divisors", counted)
    checks.check_permutation_h1_vanishing()
    monkeypatch.setattr(la, "_divisors", divisors)
    rows, rank = work
    assert rows <= 5590
    assert rank == 3643


def _cayley_work(monkeypatch, run) -> tuple:
    """(_cayley_search calls, value tables they return) while run() runs."""
    search, counts = co._cayley_search, [0, 0]

    def counted(*args):
        tables = search(*args)
        counts[0] += 1
        counts[1] += len(tables)
        return tables

    monkeypatch.setattr(co, "_cayley_search", counted)
    run()
    monkeypatch.setattr(co, "_cayley_search", search)
    return tuple(counts)


def _twist_steps_read(monkeypatch, run) -> int:
    """How many steps run() reads off cohomology._twist_steps: a class walk
    twists a table once per step it reads, and so does twist_values, so
    this counts the twisted tables built."""
    twist_steps, built = co._twist_steps, [0]

    class CountedSteps(list):
        def __iter__(self):
            for step in super().__iter__():
                built[0] += 1
                yield step

    monkeypatch.setattr(co, "_twist_steps", lambda *args: CountedSteps(twist_steps(*args)))
    run()
    monkeypatch.setattr(co, "_twist_steps", twist_steps)
    return built[0]


def test_lim1_dichotomy_snf_work(monkeypatch):
    # criterion 8 reads its two lattice chains off elementary divisors alone:
    # the divisors of B and of [B | T B] for the subgroup chain's descent,
    # once when it is built (8 calls when each verdict checked descent
    # again), then per chain those of B and of T B; only the halving chain's
    # (2) leaves a remainder for a transform-free SNF (8 SNF calls tracking
    # transforms, 5 right, 2 left and right, 1 left, when the chains were
    # read through column-space bases, containment and indices by solving)
    calls = _snf_calls(monkeypatch, checks.check_lim1_dichotomy)
    assert calls == [(1, 1, ())]
    divisors, = _calls(monkeypatch, checks.check_lim1_dichotomy, (la, "elementary_divisors"))
    assert divisors == 6


def test_norm_tower_work(monkeypatch):
    # the explicit tower Q in Q(zeta_7)^+ is decided by its containments
    # alone (92 abelian_split calls when it also scanned the primes below
    # 200 for valuations that no verdict read); criterion 8 analyses its
    # tower in lim1_classify and once more to recompute the certificate (3
    # calls when a replay of the analysis ran a third)
    tower = [nt.AbelianFieldDatum(1, (0,)), nt.AbelianFieldDatum(7, (1, 6))]
    splits, = _calls(monkeypatch, lambda: nt.norm_tower_certificate(tower), (nt, "abelian_split"))
    assert splits == 0
    analyses, = _calls(monkeypatch, checks.check_lim1_dichotomy,
                       (nt, "split_obstruction_certificate"))
    assert analyses == 2


def test_twist_work(monkeypatch):
    # the tables twisted by the class walks of the H^1 of products and of
    # the twist bijections; every other class is read off a walk's partition
    # (293 and 193 when criterion 11 and verify_twist_bijection took each
    # table's least twist by twist_values, 397 and 204 before that, when the
    # walks also twisted by the central, Gamma-fixed generators, which twist
    # nothing; 89 for criterion 11 when it walked each repeated factor again)
    assert _twist_steps_read(monkeypatch, checks.check_product_h1) == 81
    assert _twist_steps_read(monkeypatch, checks.check_twist_bijection) == 105


def test_benchmark_twist_work(monkeypatch):
    # the tables twisted on the seed-1 tables-primes cases of the two kinds
    # that walk twist classes: each twist bijection reads its lifts off the
    # partition of relative_h1 (740 steps when it also took each lift's
    # least twist by the kernel), and the products walk as before
    with perfbench_workloads() as workloads:
        cases = workloads.build("tables-primes", 1)
        for kind, steps in (("twist", 64), ("product", 12223)):
            run, canon, check = workloads.KINDS[kind]
            held = []
            assert _twist_steps_read(monkeypatch, lambda: held.extend(
                check(c.args, canon(c.args, run(c.args))) for c in cases if c.kind == kind)
            ) == steps, kind
            assert held and all(held)


def test_cayley_search_work(monkeypatch):
    # the criteria that search for cocycles, homomorphisms or lifts: the
    # twist bijections (6), the truncated orbits at seed 0 (7) and the H^1
    # of products (11), where each distinct factor is searched once (15 and
    # 65 when each of its 11 factors was)
    assert _cayley_work(monkeypatch, checks.check_twist_bijection) == (16, 66)
    assert _cayley_work(monkeypatch, checks.check_truncated_orbit_transitivity) == (159, 545)
    assert _cayley_work(monkeypatch, checks.check_product_h1) == (8, 50)


def test_product_h1_takes_each_distinct_factor_once(monkeypatch):
    # criterion 11's four products over C2 have 11 factors, 4 of them
    # distinct: 4 + 4 H^1 (15 when each factor's was computed again)
    calls, = _calls(monkeypatch, checks.check_product_h1, (co, "h1_nonabelian"))
    assert calls == 8


def test_splitting_dual_oracle_work(monkeypatch):
    # criterion 9: the closures of the unit subgroups (7,045 when each was
    # closed from {0}), the F_p remainders of the Dedekind route and the
    # period polynomials (29,859 when x^p mod g was taken on lists, two
    # remainders per bit; 18,815 when Yun's loop ran on after gcd(f, f') = 1
    # and the cofactor was divided out), one packed x^p per distinct-degree
    # stage, and the gcds and quotients (5,854 and 4,597 then)
    closures, remainders, xpows, gcds, quotients = _calls(
        monkeypatch, checks.check_splitting_dual_oracle,
        (gr, "_closure"), (nt, "_fp_rem"), (nt, "_fp_xpow"), (nt, "_fp_gcd"), (nt, "_fp_quo"))
    assert closures <= 2223
    assert remainders <= 11811
    assert xpows <= 1004
    assert gcds <= 2854
    assert quotients <= 593


def test_gamma_group_law_checks(monkeypatch):
    # the automorphism law is checked at construction and before each class
    # walk of criteria 7 and 11, and not again; criterion 7 twists each level
    # once per family pair it scans (613 calls when each of its witness
    # choices twisted every level again); criterion 11 builds its four
    # products and their underlying groups unchecked (20 check_automorphisms
    # and 30 check_action calls when construction checked them), so its
    # check_action calls are those of check_automorphisms and of the factors'
    # group tables (16 and 19 when each repeated factor was walked again)
    automorphisms = (gr.GammaGroup, "check_automorphisms")
    assert _calls(monkeypatch, checks.check_truncated_orbit_transitivity, automorphisms)[0] <= 75
    product_laws, action_laws = _calls(monkeypatch, checks.check_product_h1, automorphisms,
                                       (gr, "check_action"))
    assert product_laws <= 9
    assert action_laws <= 12


def test_truncated_orbit_obstruction_work(monkeypatch):
    # criterion 7 at seed 0 scans 26 family pairs and 213 witness choices:
    # each pair's two families are checked, and each level twisted and its
    # witnesses listed, once per pair (452 check_family, 612 twist_group and
    # 686 level_witnesses calls when each choice repeated them)
    families, twists, witnesses = _calls(
        monkeypatch, checks.check_truncated_orbit_transitivity,
        (co, "check_family"), (co, "twist_group"), (co, "level_witnesses"))
    assert families <= 52
    assert twists <= 74
    assert witnesses <= 74


def test_truncated_orbit_transport_steps(monkeypatch):
    # criterion 7 replays every tuple of each of its 50 truncations by the
    # level walk (8,703 steps when truncations above 50,000 tuples were
    # sampled, 200 tuples replayed whole)
    steps, = _calls(monkeypatch, checks.check_truncated_orbit_transitivity,
                    (iv, "_transport_step"))
    assert steps <= 5092
