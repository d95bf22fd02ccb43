import builtins
import dataclasses
import hashlib
import json
import random
import re
import subprocess
import sys
import types
from collections import Counter

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torsorlab import numtheory as nt
from helpers import (perfbench_workloads, period_expansion_by_rotations, period_polynomial_by_rotations,
                     poly_divmod, poly_mul, poly_trim, powmod_reference, squarefree_decomposition_reference)
from test_acceptance import _env


def sympy_factor_mod(poly, p):
    x = sympy.Symbol("x")
    expr = sum(int(c) * x**i for i, c in enumerate(poly))
    lc, factors = sympy.Poly(expr, x, modulus=p, symmetric=False).factor_list()
    out = []
    for fac, mult in factors:
        coeffs = [int(c) % p for c in reversed(fac.all_coeffs())]
        out.append((poly_trim(coeffs), int(mult)))
    return tuple(sorted(out, key=lambda t: (len(t[0]), t[0])))


def test_poly_arithmetic():
    # the list kernel over F_5, and the exact division over Z
    assert nt._fp(nt._mul([1, 1], [1, 1]), 5) == [1, 2, 1]
    assert nt._fp_quo([1, 2, 1], [1, 1], 5) == [1, 1]
    assert nt._fp_rem([1, 2, 1], [1, 1], 5) == []
    assert nt._fp_gcd([1, 2, 1], [1, 1], 5) == [1, 1]
    assert nt._fp_powmod([0, 1], 5, [1, 0, 1], 5) == nt._fp_rem([0, 0, 0, 0, 0, 1], [1, 0, 1], 5)
    assert nt._fp_deriv([1, 2, 3, 4, 5, 6], 5) == [2, 1, 2]
    assert nt._zdiv_exact((1, 2, 1), (1, 1)) == (1, 1)


def test_trim_and_reduction_with_and_without_modulus():
    # a sum or difference is trimmed over Z by _trim and reduced by _fp
    assert nt._trim([1 + 4, 2 - 2, 3 - 3]) == [5]
    assert nt._trim([1 - 1, 2 - 2, -7]) == [0, 0, -7]
    assert nt._fp([1 + 4, 2 + 3, 3 + 2], 5) == []
    assert nt._fp([1 - 1, 2 - 2, -7], 5) == [0, 0, 3]
    f = [0, 3, 0, 0]
    assert nt._trim(f) is f and f == [0, 3]  # in place


_COEFFS = st.lists(st.integers(-60, 60), max_size=10)


def _squarefree_mod(f, p) -> bool:
    """Is f, nonzero mod p, coprime to its derivative over F_p?  By sympy."""
    poly = _sympy_poly(list(f), modulus=p)
    return poly.gcd(poly.diff()).degree() == 0


def _sympy_poly(coeffs, **domain):
    return sympy.Poly(list(reversed(coeffs)) or [0], sympy.Symbol("x"), **domain)


def _little_endian(poly):
    return list(reversed(poly.all_coeffs()))


@settings(derandomize=True, deadline=None)
@given(_COEFFS, _COEFFS, st.sampled_from((2, 3, 5, 7, 13, 9973)))
def test_fp_quo_and_rem_agree_with_sympy(f, g, p):
    g_fp = nt._fp(g, p)
    if not g_fp:
        with pytest.raises(ZeroDivisionError):
            nt._fp_quo(f, g_fp, p)
        return
    q, r = nt._fp_quo(f, g_fp, p), nt._fp_rem(list(f), g_fp, p)
    assert len(r) < len(g_fp)
    sq, sr = sympy.div(_sympy_poly(f, modulus=p), _sympy_poly(g, modulus=p))
    assert (q, r) == (nt._fp(_little_endian(sq), p), nt._fp(_little_endian(sr), p))


@settings(derandomize=True, deadline=None)
@given(_COEFFS, st.lists(st.integers(-60, 60), max_size=6))
def test_zdiv_exact_with_a_monic_divisor_agrees_with_sympy(f, g):
    # the quotient of an exact division, and a remainder refused
    g = [*g, 1]
    sq, sr = sympy.div(_sympy_poly(f), _sympy_poly(g))
    q = poly_trim(_little_endian(sq))
    if poly_trim(_little_endian(sr)):
        with pytest.raises(ValueError, match="remainder"):
            nt._zdiv_exact(f, g)
    assert nt._zdiv_exact(poly_mul(q, g), g) == q


@settings(derandomize=True, deadline=None)
@given(_COEFFS, st.lists(st.integers(-60, 60), max_size=5), st.integers(2, 6))
def test_zdiv_exact_raises_exactly_when_the_quotient_is_not_integral(f, g, lead):
    # the rational quotient is integral or the division must refuse; an
    # integral one with a remainder is refused as such
    g = [*g, lead]
    sq, sr = sympy.div(_sympy_poly(f, domain="QQ"), _sympy_poly(g, domain="QQ"))
    if not all(c.is_integer for c in sq.all_coeffs()):
        with pytest.raises(ValueError, match="not exact"):
            nt._zdiv_exact(f, g)
    elif poly_trim(_little_endian(sr)):
        with pytest.raises(ValueError, match="remainder"):
            nt._zdiv_exact(f, g)
    else:
        assert nt._zdiv_exact(f, g) == poly_trim(_little_endian(sq))


_FP_PRIMES = st.sampled_from((2, 3, 5, 7, 13, 9973))
_PRIMES = st.sampled_from((2, 3, 5, 7, 13))


@st.composite
def _raw_dividend(draw):
    # negative coefficients, zero top coefficients and top multiples of p
    return draw(_COEFFS) + draw(st.lists(st.sampled_from((0, 1, -2)), max_size=3))


@settings(derandomize=True, deadline=None)
@given(_raw_dividend(), _COEFFS, _FP_PRIMES)
@example([0, 0, 0], [5], 5)
@example([-1, 0, 0, 0], [2, 0, 4], 2)
def test_fp_kernel_agrees_with_the_tuple_helpers_and_sympy(f, g, p):
    # _fp_rem and _fp_quo divide by a trimmed divisor over F_p; the dividend
    # may be any int list, with its top a multiple of p or zero
    raw = [c * p for c in f[len(f) // 2:]]  # a top that vanishes mod p
    f = f + raw
    g_fp = nt._fp(g, p)
    if not g_fp:
        for divide in (nt._fp_rem, nt._fp_quo):
            with pytest.raises(ZeroDivisionError):
                divide(list(f), g_fp, p)
        with pytest.raises(ZeroDivisionError):
            poly_divmod(f, g, p)
        return
    left = list(f)
    r = nt._fp_rem(left, g_fp, p)
    assert r is left  # the remainder is computed in the list it was given
    q = nt._fp_quo(f, g_fp, p)
    for out in (q, r):
        assert all(0 <= c < p for c in out) and (not out or out[-1])
    assert (tuple(q), tuple(r)) == poly_divmod(f, g, p)
    sq, sr = sympy.div(_sympy_poly(f, modulus=p), _sympy_poly(g, modulus=p))
    assert (tuple(q), tuple(r)) == (poly_trim(_little_endian(sq), p), poly_trim(_little_endian(sr), p))
    gcd = nt._fp_gcd(f, g, p)
    assert gcd and gcd[-1] == 1  # g is nonzero mod p, so the gcd is monic
    sgcd = _sympy_poly(f, modulus=p).gcd(_sympy_poly(g, modulus=p))
    assert tuple(gcd) == poly_trim(_little_endian(sgcd), p)


@settings(derandomize=True, deadline=None)
@given(_raw_dividend(), _FP_PRIMES)
def test_fp_gcd_with_zero_is_the_monic_other_input(f, p):
    zero = [0, p, -p]  # vanishes mod p
    monic = nt._fp_monic(nt._fp(f, p), p)
    assert nt._fp_gcd(f, zero, p) == nt._fp_gcd(zero, f, p) == monic
    assert nt._fp_gcd(zero, zero, p) == []


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=8), st.integers(1, 3), _FP_PRIMES)
@example([1, 0, 0, 0, 1, 0, 1], 1, 9973)
def test_factor_stages_agree_with_sympy(coeffs, power, p):
    # the squarefree and distinct-degree stages on lists, with the Frobenius
    # table from d = 2 on, against the product of sympy's irreducible
    # factors of each degree and multiplicity
    poly = poly_mul(coeffs + [1], coeffs[:2] + [1])
    for _ in range(power - 1):
        poly = poly_mul(poly, coeffs + [1])
    expected = {}
    for irr, mult in sympy_factor_mod(poly, p):
        key = (len(irr) - 1, mult)
        expected[key] = poly_mul(expected.get(key, (1,)), irr, p)
    got = {(d, mult): tuple(h) for h, d, mult in nt._factor_stages(poly, p)}
    assert got == expected


@st.composite
def _monic_mod_p_with_planted_powers(draw):
    # a random monic part times planted factors mod p, each raised to a drawn
    # multiplicity or to the p-th power, g(x)^p = g(x^p) over F_p
    p = draw(_PRIMES)
    monic = st.lists(st.integers(0, p - 1), min_size=1, max_size=3).map(lambda c: c + [1])
    f = draw(st.lists(st.integers(0, p - 1), max_size=4)) + [1]
    for g in draw(st.lists(monic, max_size=3)):
        if draw(st.booleans()):
            g = [c for x in g[:-1] for c in [x] + [0] * (p - 1)] + [1]
        for _ in range(draw(st.integers(1, 3))):
            f = list(poly_mul(f, g, p))
    return f, p


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_monic_mod_p_with_planted_powers())
@example(([1, 0, 1], 2))  # (x + 1)^2
@example(([1, 0, 0, 0, 0, 1], 5))  # (x + 1)^5, lost by the derivative
@example(([0, 0, 0, 1, 0, 1], 3))  # x^3 (x^2 + 1)
def test_squarefree_decomposition_matches_yuns_full_loop(case):
    # the stop at gcd(f, f') = 1 against Yun's loop run to its end: the same
    # list, in the same order; both routes are taken among the draws
    f, p = case
    got = nt._squarefree_decomposition(f, p)
    assert got == squarefree_decomposition_reference(f, p)
    product = (1,)
    for g, mult in got:
        assert _squarefree_mod(g, p)
        for _ in range(mult):
            product = poly_mul(product, g, p)
    assert list(product) == f


def test_squarefree_decomposition_stops_at_a_unit_gcd(monkeypatch):
    # a squarefree f takes one gcd and no quotient; a square does not stop
    calls = Counter()
    for name in ("_fp_gcd", "_fp_quo"):
        f = getattr(nt, name)
        monkeypatch.setattr(nt, name, lambda *a, _f=f, _n=name: calls.update([_n]) or _f(*a))
    assert nt._squarefree_decomposition([1, 1, 1], 5) == [([1, 1, 1], 1)]
    assert calls == {"_fp_gcd": 1}
    assert nt._squarefree_decomposition([1, 2, 1], 5) == [([1, 1], 2)]
    assert calls["_fp_quo"] > 0


# sha256 of the defining polynomials below, taken before padd/psub took over
# the integer period sums
PERIOD_POLYNOMIALS_SHA256 = (
    "4e194191ed873ea1d1a5bf83d3539638a96e650cfcc0061de55e2d851c5773df")


def test_abelian_defining_polynomial_on_benchmark_fields():
    # every conductor and subgroup the benchmark's splitting cases draw from
    with perfbench_workloads() as wl:
        fields = [(m, h) for m in wl.CONDUCTORS for h in wl.split_fields(m)]
    rows = [[m, list(h), list(nt.abelian_defining_polynomial(nt.AbelianFieldDatum(m, h)).poly)]
            for m, h in fields]
    assert len(rows) == 267
    blob = json.dumps(rows, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == PERIOD_POLYNOMIALS_SHA256


def _certified(fld):
    # the one-prime proof of the period route, checked again here and against
    # the factorization over Q
    datum = nt.abelian_defining_polynomial(fld)
    proof = datum.irreducibility
    assert proof.startswith("squarefree mod ")
    assert proof.endswith("; period polynomial, Lang VI §5")
    p = int(proof.removeprefix("squarefree mod ").partition(";")[0])
    assert _squarefree_mod(datum.poly, p)
    assert nt._sympy_irreducible(datum.poly)


def test_period_polynomials_are_proved_irreducible_by_one_prime(monkeypatch):
    # the benchmark's splitting fields, and every field criterion 9 builds
    from torsorlab import checks

    with perfbench_workloads() as wl:
        fields = [nt.AbelianFieldDatum(m, h) for m in wl.CONDUCTORS for h in wl.split_fields(m)]
    built = nt.abelian_defining_polynomial
    monkeypatch.setattr(nt, "abelian_defining_polynomial",
                        lambda fld: fields.append(fld) or built(fld))
    assert checks.check_splitting_dual_oracle().verdict == "verified"
    monkeypatch.undo()
    assert len(fields) > 267
    for fld in fields:
        _certified(fld)


def test_a_squared_period_polynomial_is_refuted_within_the_bound(monkeypatch):
    # (x^2 + x - 1)^2 has discriminant 0, so it is squarefree mod no prime.
    # |f|_2^2 = 11 and |f'|_2^2 = 60 give the Hadamard bound
    # sqrt(11^3 60^4) ~ 131,340 on |disc f|; 2*3*...*13 = 30,030 is below it
    # and 2*3*...*17 = 510,510 above, so the search stops after 17.
    square = poly_mul((-1, 1, 1), (-1, 1, 1))
    tried = []
    deriv = nt._fp_deriv
    monkeypatch.setattr(nt, "_fp_deriv", lambda f, p: tried.append(p) or deriv(f, p))
    with pytest.raises(nt.NotIrreducible, match="not squarefree"):
        nt._period_field(square)
    assert tried == [2, 3, 5, 7, 11, 13, 17]
    # the square root itself is proved at the first prime
    assert nt._period_field((-1, 1, 1)).irreducibility.startswith("squarefree mod 2;")


def test_the_one_prime_route_is_closed_to_outside_polynomials(monkeypatch):
    # x^2 - 1 is squarefree mod 3 but reducible: one prime proves nothing for
    # a polynomial that is not a period polynomial
    assert nt._period_field((-1, 0, 1)).irreducibility.startswith("squarefree mod 3;")
    with pytest.raises(nt.NotIrreducible, match="factors over the rationals"):
        nt.NumberFieldDatum((-1, 0, 1))
    # the datum takes the polynomial alone: no prime, no route, no record
    assert [f.name for f in dataclasses.fields(nt.NumberFieldDatum) if f.init] == ["poly"]
    with pytest.raises(TypeError):
        nt.NumberFieldDatum((-1, 0, 1), "squarefree mod 3")
    # a period polynomial passed in from outside is factored over Q as well
    factored = []
    monkeypatch.setattr(nt, "_sympy_irreducible", lambda poly: factored.append(poly) or True)
    period = nt.abelian_defining_polynomial(nt.AbelianFieldDatum(7, (1, 6)))
    assert factored == []
    outside = nt.NumberFieldDatum(period.poly)
    assert factored == [period.poly] and outside.irreducibility == "factored over Q"
    assert outside == period  # the record is left out of equality


@settings(derandomize=True, deadline=None)
@given(_COEFFS, st.integers(0, 10**6), _COEFFS, st.sampled_from((2, 3, 5, 7, 13, 9973)))
@example([0, 1], 5, [1, 0, 1], 5)
@example([3], 0, [4], 2)  # a modulus that vanishes mod p
def test_fp_powmod_agrees_with_whole_divisions(base, e, mod, p):
    mod_fp = nt._fp(mod, p)
    if not mod_fp:
        with pytest.raises(ZeroDivisionError):
            nt._fp_powmod(base, e, mod_fp, p)
        with pytest.raises(ZeroDivisionError):
            powmod_reference(base, e, mod, p)
        return
    assert tuple(nt._fp_powmod(base, e, mod_fp, p)) == powmod_reference(base, e, mod, p)


def test_degree_counts_the_units():
    # the degree is the index of the subgroup in the units, phi(m) / |H|
    for m in range(1, 50):
        for h in nt.unit_subgroups(m):
            assert nt.AbelianFieldDatum(m, h).degree * len(h) == sympy.totient(m)


def test_factor_fixed_examples():
    assert nt.factor_mod_p((1, 0, 1), 5) == (((2, 1), 1), ((3, 1), 1))
    assert nt.factor_mod_p((1, 0, 1), 3) == (((1, 0, 1), 1),)
    assert nt.factor_mod_p((1, 0, 1), 2) == (((1, 1), 2),)
    assert nt.factor_mod_p((0, 1), 7) == (((0, 1), 1),)


def test_factor_against_sympy():
    rng = random.Random(5)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        deg = rng.randint(1, 8)
        poly = [rng.randrange(p) for _ in range(deg)] + [1]
        mine = nt.factor_mod_p(poly, p)
        ref = sympy_factor_mod(poly, p)
        assert mine == ref


def test_factor_determinism():
    poly = (3, 1, 4, 1, 5, 9, 2, 6, 1)
    assert nt.factor_mod_p(poly, 101) == nt.factor_mod_p(poly, 101) == sympy_factor_mod(poly, 101)


def test_number_field_datum_validation():
    nt.NumberFieldDatum((1, 0, 1))
    with pytest.raises(nt.NotIrreducible):
        nt.NumberFieldDatum((0, 1, 1))  # x(x+1) has root 0... x^2+x
    with pytest.raises(nt.NotIrreducible):
        nt.NumberFieldDatum((-1, 0, 1))  # x^2 - 1
    with pytest.raises(nt.NotIrreducible):
        nt.NumberFieldDatum((1, 0, 2))  # not monic
    with pytest.raises(nt.NotIrreducible):
        nt.NumberFieldDatum((1, 2, 1))  # (x+1)^2, no rational-root shortcut
    # biquadratic-style irreducible with reducible reductions everywhere
    nt.NumberFieldDatum((1, 0, 0, 0, 1))  # x^4 + 1


def test_dedekind_split_gaussian():
    fld = nt.NumberFieldDatum((1, 0, 1))
    assert nt.dedekind_split(fld, 5).pairs == ((1, 1), (1, 1))
    assert nt.dedekind_split(fld, 3).pairs == ((1, 2),)
    assert nt.dedekind_split(fld, 2).pairs == ((2, 1),)


def test_dedekind_index_divisor_detected():
    # x^2 - x - 3: discriminant 13; try a clean prime and check sum rule
    fld = nt.NumberFieldDatum((-3, -1, 1))
    st = nt.dedekind_split(fld, 13)
    assert sum(e * f for e, f in st.pairs) == 2
    # classical index-divisor example: x^3 - x^2 - 2x - 8 at p = 2
    fld2 = nt.NumberFieldDatum((-8, -2, -1, 1))
    with pytest.raises(nt.IndexDivisor):
        nt.dedekind_split(fld2, 2)


def _reference_dedekind(fld, p):
    # the route through the full factorization: the radical is the product
    # of the irreducible factors, then the same index test
    factors = nt.factor_mod_p(fld.poly, p)
    g_bar = (1,)
    for irr, _ in factors:
        g_bar = poly_mul(g_bar, irr, p)
    h_bar = poly_divmod(fld.poly, g_bar, p)[0]
    diff = list(poly_mul(g_bar, h_bar))
    diff += [0] * (len(fld.poly) - len(diff))
    for i, c in enumerate(fld.poly):
        diff[i] -= c
    if any(c % p for c in diff):
        raise ValueError("the radical does not divide the polynomial mod p")

    def mod_p(f):
        return _sympy_poly(list(f), modulus=p)

    inner = mod_p(g_bar).gcd(mod_p(h_bar))
    if mod_p([c // p for c in diff]).gcd(inner).degree() > 0:
        raise nt.IndexDivisor(f"Dedekind test fails at p={p}")
    return nt.SplittingType(tuple((m, len(irr) - 1) for irr, m in factors), fld.degree)



@st.composite
def _monic_with_prime(draw):
    kind = draw(st.sampled_from(("random", "planted", "eisenstein")))
    p = draw(_PRIMES)
    if kind == "random":
        poly = draw(st.lists(st.integers(-20, 20), min_size=2, max_size=6)) + [1]
    elif kind == "planted":
        # g^k + p r reduces to the k-th power of g mod p
        g = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=2)) + [1]
        power = (1,)
        for _ in range(draw(st.integers(2, 4))):
            power = poly_mul(power, g)
        r = draw(st.lists(st.integers(-5, 5), max_size=len(power) - 1))
        poly = [c + p * (r[i] if i < len(r) else 0) for i, c in enumerate(power)]
    else:
        # x^q - q u is Eisenstein at q and reduces to x^q there
        q = draw(_PRIMES)
        u = draw(st.integers(1, 30).filter(lambda u: u % q))
        poly = [-q * u] + [0] * (q - 1) + [1]
    return poly, p


class _Forbidden:
    def __getattr__(self, name):
        raise RuntimeError(f"random.{name} reached on the verdict path")


def _no_equal_degree(*args):
    raise RuntimeError("_equal_degree reached on the verdict path")


def test_dedekind_split_agrees_with_the_full_factorization():
    # the squarefree and distinct-degree stages against the radical of the
    # complete factorization; the equal-degree split must not be reached.
    # The index test runs only when the cofactor h~ = prod h^(mult - 1) is
    # not 1, so some draws must repeat a factor mod p
    cofactor_draws = 0

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(_monic_with_prime())
    @example(((1, 0, 0, 0, 1), 2))  # x^4 + 1 is (x + 1)^4 mod 2
    @example(((-8, -2, -1, 1), 2))  # an index divisor
    @example(((-5 * 3, 0, 0, 0, 0, 1), 5))  # x^5 - 15 is x^5 mod 5
    def agrees(case):
        nonlocal cofactor_draws
        poly, p = case
        try:
            fld = nt.NumberFieldDatum(poly)
        except nt.NotIrreducible:
            return
        try:
            expected = _reference_dedekind(fld, p)
        except ValueError as e:
            expected = type(e)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nt, "_equal_degree", _no_equal_degree)
            mp.setattr(nt, "random", _Forbidden())
            try:
                got = nt.dedekind_split(fld, p)
            except ValueError as e:
                got = type(e)
        if isinstance(expected, nt.SplittingType):
            assert isinstance(got, nt.SplittingType) and got.pairs == expected.pairs
        else:
            assert got is expected
        cofactor_draws += any(mult > 1 for _, mult in nt.factor_mod_p(fld.poly, p))

    agrees()
    assert cofactor_draws > 0


def test_split_path_makes_no_tuple_division(monkeypatch):
    # the seed-1 benchmark split cases of one conductor, after a first call
    # that fills the cached cyclotomic polynomials: the one division on
    # tuples, the exact one over Z, is not taken again, and neither is the
    # equal-degree split; F_p[x] runs on the list kernel, whose derivative
    # the squarefree stage reads
    with perfbench_workloads() as wl:
        cases = [c.args for c in wl.build("tables-primes", 1)
                 if c.kind == "split" and c.args[0] == 40]
    assert len(cases) > 10

    def run():
        for m, h, p in cases:
            fld = nt.AbelianFieldDatum(m, h)
            ded = nt.dedekind_split(nt.abelian_defining_polynomial(fld), p)
            assert ded.pairs == nt.abelian_split(fld, p).pairs

    run()
    # a datum computes its units once; one that is not at its conductor
    # builds the reduced datum, which computes its own
    reduced = sum(nt.reduce_to_conductor(nt.AbelianFieldDatum(m, h)).conductor != m
                  for m, h, _ in cases)
    calls = Counter()

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    for name in ("_zdiv_exact", "_equal_degree", "_fp_deriv", "units_mod"):
        monkeypatch.setattr(nt, name, counted(name, getattr(nt, name)))
    run()
    assert calls["_zdiv_exact"] == calls["_equal_degree"] == 0
    assert calls["_fp_deriv"] > 0
    assert calls["units_mod"] == len(cases) + reduced
    # the counters are live: an uncached cofactor divides over Z, and
    # factor_mod_p splits equal-degree products
    nt._cyclotomic_cofactor.__wrapped__(40)
    nt.factor_mod_p((1, 0, 1), 5)
    assert calls["_zdiv_exact"] > 0 and calls["_equal_degree"] > 0


def test_the_dedekind_checks_can_fire(monkeypatch):
    # negative controls: stages that lose a factor fail the multiply-back
    # check, and a radical that does not divide the polynomial is refused
    fld = nt.NumberFieldDatum((1, 0, 1))
    stages = nt._squarefree_decomposition
    monkeypatch.setattr(nt, "_squarefree_decomposition", lambda f, p: stages(f, p)[:-1])
    with pytest.raises(ValueError, match="do not multiply back"):
        nt.dedekind_split(fld, 3)
    monkeypatch.undo()
    # x + 1 does not divide x^2 + 1 mod 3: (x + 1)(x + 2) - (x^2 + 1) = 3x + 1
    monkeypatch.setattr(nt, "_factor_stages", lambda poly, p: [([1, 1], 1, 1)])
    with pytest.raises(ValueError, match="radical does not divide"):
        nt.dedekind_split(fld, 3)


def test_abelian_datum_and_split():
    ab = nt.AbelianFieldDatum(7, (1, 6))
    assert ab.degree == 3
    # the subgroup's set, kept for abelian_split, is no part of the datum's
    # equality, hash or repr
    same = nt.AbelianFieldDatum(7, (13, 1, 6))
    assert same == ab and hash(same) == hash(ab) and repr(same) == repr(ab)
    assert ab.subgroup_set == frozenset(ab.subgroup) and "subgroup_set" not in repr(ab)
    assert nt.abelian_split(ab, 2).pairs == ((1, 3),)
    assert nt.abelian_split(ab, 13).pairs == ((1, 1), (1, 1), (1, 1))
    # p = 1 mod m splits completely
    assert nt.abelian_split(ab, 29).pairs == ((1, 1), (1, 1), (1, 1))
    # tame totally ramified at the prime conductor
    assert nt.abelian_split(ab, 7).pairs == ((3, 1),)
    with pytest.raises(nt.Ramified):
        nt.abelian_split(nt.AbelianFieldDatum(8, (1,)), 2)
    with pytest.raises(ValueError):
        nt.AbelianFieldDatum(7, (1, 2))  # not closed: 2*2=4 missing


def test_abelian_datum_closure_matches_all_pairs():
    # the datum closes H from a few generators; every subset of the units of
    # small conductors containing 1 is accepted iff all |H|^2 products stay
    rng = random.Random(5)
    for m in range(2, 40):
        units = nt.units_mod(m)
        subsets = [tuple(h) for h in nt.unit_subgroups(m)]
        subsets += [(1, *rng.sample(units[1:], rng.randrange(len(units)))) for _ in range(20)]
        for h in subsets:
            closed = all(a * b % m in h for a in h for b in h)
            try:
                nt.AbelianFieldDatum(m, h)
                assert closed, (m, h)
            except ValueError as err:
                assert not closed and "not closed" in str(err), (m, h)


def test_tower_level_of_half_a_million_squares_in_a_subprocess(tmp_path):
    # the squares mod 999,983 are a subgroup of order 499,991: checking all
    # pairs of it once took hours; with one entry swapped for a non-square
    # it must still be refused.  The timeout turns a hang into a failure.
    m = 999983
    squares = sorted({x * x % m for x in range(1, m)})
    bad = [x for x in squares if x != 4] + [5]  # 5 is no square mod m
    assert pow(5, (m - 1) // 2, m) == m - 1
    for subgroup, code, status in ((squares, 0, "holds"), (bad, 3, None)):
        path = tmp_path / "tower.json"
        path.write_text(json.dumps({"levels": [{"conductor": m, "subgroup": subgroup}]}))
        proc = subprocess.run([sys.executable, "-m", "torsorlab.cli", "nt", "tower-cert",
                               "--tower", str(path)],
                              capture_output=True, text=True, timeout=60, env=_env())
        assert proc.returncode == code, proc.stderr
        if status:
            assert json.loads(proc.stdout)["evidence"]["ml_status"] == status
        else:
            assert "not closed" in proc.stderr and "Traceback" not in proc.stderr


def test_norm_image_valuation():
    assert nt.norm_image_valuation(nt.SplittingType(((1, 1), (1, 1)), 2), 5) == 1
    assert nt.norm_image_valuation(nt.SplittingType(((1, 2),), 2), 3) == 2
    assert nt.norm_image_valuation(nt.SplittingType(((2, 1),), 2), 2) == 1
    # reordering invariance
    a = nt.SplittingType(((1, 4), (1, 2), (1, 2)), 8)
    b = nt.SplittingType(((1, 2), (1, 4), (1, 2)), 8)
    assert nt.norm_image_valuation(a, 3) == nt.norm_image_valuation(b, 3) == 2


def test_splitting_type_sum_rule():
    with pytest.raises(ValueError):
        nt.SplittingType(((1, 1),), 2)
    with pytest.raises(ValueError):
        nt.SplittingType(((0, 1),), 0)


def test_cyclotomic_polynomials_vs_sympy():
    for m in [1, 2, 3, 4, 6, 7, 8, 9, 12, 15, 16, 24, 36, 100]:
        mine = nt.cyclotomic_polynomial(m)
        ref = tuple(int(c) for c in reversed(sympy.polys.specialpolys.cyclotomic_poly(m, sympy.Symbol("x"), polys=True).all_coeffs()))
        assert mine == ref


def test_period_polynomials():
    # 2cos(2pi/7): x^3 + x^2 - 2x - 1
    ab = nt.AbelianFieldDatum(7, (1, 6))
    assert nt.abelian_defining_polynomial(ab).poly == (-1, -2, 1, 1)
    # quadratic subfield of conductor 7: x^2 + x + 2
    ab2 = nt.AbelianFieldDatum(7, (1, 2, 4))
    assert nt.abelian_defining_polynomial(ab2).poly == (2, 1, 1)
    # full cyclotomic field: the cyclotomic polynomial itself
    full = nt.AbelianFieldDatum(5, (1,))
    assert nt.abelian_defining_polynomial(full).poly == nt.cyclotomic_polynomial(5)


def _period_oracle_fields() -> list:
    # every unit subgroup of every conductor m <= 60, and every field the
    # benchmark's splitting cases draw from
    with perfbench_workloads() as wl:
        bench = [nt.AbelianFieldDatum(m, h) for m in wl.CONDUCTORS for h in wl.split_fields(m)]
    return [nt.AbelianFieldDatum(m, h) for m in range(1, 61) for h in nt.unit_subgroups(m)] + bench


def test_packed_period_polynomials_match_the_rotation_oracle():
    fields = _period_oracle_fields()
    assert len(fields) == 522 + 267
    for fld in fields:
        assert nt.abelian_defining_polynomial(fld).poly == period_polynomial_by_rotations(fld)


def _cyclic_product(f, g, m) -> list:
    # f g in Z[x]/(x^m - 1), from a list product over Z
    out = [0] * m
    for i, c in enumerate(nt._mul(f, g)):
        out[i % m] += c
    return out


def test_no_packed_period_slot_carries():
    # every slot of E = prod (1 + eta_j T), of W = E Psi_m mod x^m - 1 (as
    # its halves E Psi^+ and E Psi^-) and of r Psi_m lies strictly within
    # +-2^(w - 1), w the bits per slot; recomputed from the rotation oracle's
    # e_k by list products.  The e_k bound the partial e_k and the products
    # on the way, as every period has nonnegative slots.
    widest = 0
    for fld in map(nt.reduce_to_conductor, _period_oracle_fields()):
        m = fld.conductor
        if m == 1 or fld.degree == 1:
            continue
        cosets = nt._period_cosets(fld)
        d = len(cosets)
        psi = nt._cyclotomic_cofactor(m)
        assert nt._mul(psi, nt.cyclotomic_polynomial(m)) == [-1] + [0] * (m - 1) + [1]
        w = nt._period_slot_bits(d, max(map(len, cosets)), psi)
        half = 2 ** (w - 1)
        expected = period_expansion_by_rotations(cosets, m)[::-1]  # e_0 first
        e = [[(-1) ** k * x for x in c] for k, c in enumerate(expected)]
        plus = [max(a, 0) for a in psi]
        minus = [max(-a, 0) for a in psi]
        poly = nt.abelian_defining_polynomial(fld).poly
        for k, c in enumerate(e):
            assert all(0 <= x < half for x in c)
            wp, wm = _cyclic_product(c, plus, m), _cyclic_product(c, minus, m)
            assert all(0 <= x < half for x in wp + wm)
            r = wm[0] - wp[0]  # Psi_m(0) = -1
            assert all(abs(r * a) < half for a in psi)
            # the period polynomial is rational: W = r Psi_m, slot by slot
            assert [a - b for a, b in zip(wp, wm)] == [r * a for a in psi] + [0] * (m - len(psi))
            assert poly[d - k] == (-1) ** k * r
        widest = max(widest, w)
    assert widest > 16  # some field needs more than two bytes per slot


def _period_polynomial_with_cosets(monkeypatch, fld, cosets):
    monkeypatch.setattr(nt, "_period_cosets", lambda _: cosets)
    return nt.abelian_defining_polynomial(fld).poly


def _rotation_polynomial_with_cosets(monkeypatch, fld, cosets):
    monkeypatch.setattr(nt, "_period_cosets", lambda _: cosets)
    return period_polynomial_by_rotations(fld)


def test_period_polynomial_rejects_cosets_with_one_element_swapped(monkeypatch):
    # at a prime conductor the powers of zeta in the units are a basis, so
    # the periods are Galois-stable only over the cosets of one subgroup; a
    # swap between two cosets leaves the block of 1 no subgroup
    swapped, period_cosets = 0, nt._period_cosets
    for m in (7, 11, 13, 31, 37):
        for h in nt.unit_subgroups(m):
            fld = nt.AbelianFieldDatum(m, h)
            cosets = period_cosets(fld)
            if len(cosets) < 2 or len(h) < 2:
                continue
            (a, *rest), (b, *more) = cosets[0], cosets[1]
            bad = [(b, *rest), (a, *more), *cosets[2:]]
            with pytest.raises(ValueError, match="not rational"):
                _rotation_polynomial_with_cosets(monkeypatch, fld, bad)
            with pytest.raises(ValueError, match="not rational"):
                _period_polynomial_with_cosets(monkeypatch, fld, bad)
            swapped += 1
    assert swapped == 21


def test_period_slot_width_is_taken_from_the_largest_coset(monkeypatch):
    # blocks of unequal sizes, the first the smallest: all units of 7 once
    # (period -1) and a hundred times (period -100), so
    # f = (T + 1)(T + 100).  e_2 has a slot of 600, which a width taken
    # from the first block's size (8 bits) cannot hold
    fld = nt.AbelianFieldDatum(7, (1, 2, 4))
    units = nt.units_mod(7)
    blocks = [units, units * 100]
    assert _rotation_polynomial_with_cosets(monkeypatch, fld, blocks) == (100, 101, 1)
    assert _period_polynomial_with_cosets(monkeypatch, fld, blocks) == (100, 101, 1)
    assert nt._period_slot_bits(2, len(units), nt._cyclotomic_cofactor(7)) == 8


def _xpow_replay_max(e, g, p) -> int:
    # the largest slot of every step of _fp_xpow, replayed on lists: square,
    # fold slots n .. 2n - 2 by x^k mod g, times x, each before the mod p pass
    n = len(g) - 1
    rows = [nt._fp_rem([0] * k + [1], g, p) for k in range(n, max(n, 2 * n - 2) + 1)]
    rows = [r + [0] * (n - len(r)) for r in rows]
    a, widest = [1] + [0] * (n - 1), 0
    for bit in bin(e)[2:]:
        sq = nt._mul(a, a) + [0] * (2 * n)
        a = sq[:n]
        for c, r in zip(sq[n:2 * n - 1], rows):
            a = [x + c * y for x, y in zip(a, r)]
        widest = max(widest, *a)
        if bit == "1":
            a = [0] + a
            c = a.pop()
            a = [x + c * y for x, y in zip(a, rows[0])]
            widest = max(widest, *a)
        a = [x % p for x in a]
    return widest


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(st.integers(0, 2**61), min_size=2, max_size=8), st.integers(0, 10**6),
       st.sampled_from((2, 3, 9973, 2**31 - 1, 2**61 - 1)))
@example([0, 0], 10**6, 2)
def test_packed_xpow_matches_square_and_multiply(coeffs, e, p):
    # x^e mod a monic g of degree 2..8 on packed ints equals the list
    # square and multiply, and no slot of any step reaches 2^w
    g = [c % p for c in coeffs] + [1]
    assert nt._fp_xpow(e, g, p) == nt._fp_powmod([0, 1], e, g, p)
    n = len(g) - 1
    w = nt._xpow_slot_bits(n, p)
    assert _xpow_replay_max(e, g, p) < 2**w
    # the worst case: every slot of the residue and of every row p - 1
    s = n * (p - 1) ** 2 + (n - 1) * n * (p - 1) ** 3
    assert s + s * (p - 1) < 2**w


def test_dual_oracle_small_batch():
    # dedekind and abelian splitting agree field by field, prime by prime
    rng = random.Random(11)
    count = 0
    for m in [5, 7, 8, 9, 11, 12, 13, 15, 16]:
        for H in nt.unit_subgroups(m):
            fld = nt.AbelianFieldDatum(m, H)
            if fld.degree < 2 or fld.degree > 6:
                continue
            poly = nt.abelian_defining_polynomial(fld)
            for p in nt.primes_up_to(60):
                if m % p == 0:
                    continue
                try:
                    ded = nt.dedekind_split(poly, p)
                except nt.IndexDivisor:
                    continue
                ab = nt.abelian_split(fld, p)
                assert ded.pairs == ab.pairs, (m, H, p)
                count += 1
    assert count > 150


def test_tame_local_norm_index():
    rep = nt.tame_local_norm_index(3, 7)
    assert rep.index == 3 and rep.power_subgroup_order == 2
    # cubes mod 7 are exactly {1, 6}
    assert sorted({pow(x, 3, 7) for x in range(1, 7)}) == [1, 6]
    rep = nt.tame_local_norm_index(5, 11)
    assert rep.index == 5 and rep.power_subgroup_order == 2
    with pytest.raises(nt.HypothesisFailed):
        nt.tame_local_norm_index(3, 5)



def _power_off_by_one(x, e, m):
    # wrong on purpose: x^(e+1) for x^e, so the "cubes" mod 13 are the
    # fourth powers and the measured index there is 4 = l + 1
    return builtins.pow(x, e + 1, m)


def test_tame_local_norm_index_reports_what_it_measures(monkeypatch):
    monkeypatch.setattr(nt, "pow", _power_off_by_one, raising=False)
    rep = nt.tame_local_norm_index(3, 13)
    assert rep.index == 4 and rep.power_subgroup_order == 3


def test_criterion_10_refutes_a_wrong_index(monkeypatch):
    from torsorlab import checks as pc

    monkeypatch.setattr(nt, "pow", _power_off_by_one, raising=False)
    r = pc.check_tame_norm_index()
    assert r.verdict == "refuted"
    assert not r.evidence["all_equal_l"]


def _index_plus_one(monkeypatch):
    measured = nt.tame_local_norm_index
    monkeypatch.setattr(nt, "tame_local_norm_index", lambda l, p: dataclasses.replace(
        measured(l, p), index=l + 1))


def test_split_obstruction_raises_on_a_wrong_index(monkeypatch):
    _index_plus_one(monkeypatch)
    with pytest.raises(nt.HypothesisFailed, match="norm-unit index"):
        nt.split_obstruction_certificate(nt.SplitObstructionLaw(3, 7, levels=1))


_OPTIMIZED_CRITERION_10 = """
import builtins, dataclasses, json
from torsorlab import checks, numtheory as nt
assert False, "assert statements must be stripped"
nt.pow = lambda x, e, m: builtins.pow(x, e + 1, m)
off = [nt.tame_local_norm_index(3, 13).index, checks.check_tame_norm_index().verdict]
del nt.pow
measured = nt.tame_local_norm_index
nt.tame_local_norm_index = lambda l, p: dataclasses.replace(measured(l, p), index=l + 1)
try:
    nt.split_obstruction_certificate(nt.SplitObstructionLaw(3, 7, levels=1))
    split = "no raise"
except nt.HypothesisFailed:
    split = "HypothesisFailed"
print(json.dumps(off + [checks.check_tame_norm_index().verdict, split]))
"""


def test_criterion_10_refutes_a_wrong_index_without_asserts():
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CRITERION_10],
                          capture_output=True, text=True, timeout=120, env=_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [4, "refuted", "refuted", "HypothesisFailed"]


def test_inexact_division_raises():
    with pytest.raises(ValueError, match="not exact"):
        nt._zdiv_exact((1, 0, 1), (0, 2))  # 2x does not divide x^2 + 1 over Z
    with pytest.raises(ValueError, match="remainder"):
        nt._zdiv_exact((1, 0, 1), (1, 1))  # x^2 + 1 = (x - 1)(x + 1) + 2


def test_period_polynomial_rejects_a_non_subgroup(monkeypatch):
    # {1, 2} is no subgroup of (Z/7)^*: its "periods" are not Galois-stable
    fake = types.SimpleNamespace(conductor=7, subgroup=(1, 2), degree=3,
                                 units=nt.units_mod(7))
    monkeypatch.setattr(nt, "reduce_to_conductor", lambda fld: fake)
    with pytest.raises(ValueError, match="not rational"):
        nt.abelian_defining_polynomial(fake)


def test_embedding_skeleton():
    for l in (3, 5):
        sk = nt.scholz_reichardt_skeleton(l)
        assert sk.group_order == l**3
        assert sk.fiber_class_count == l
        assert sk.fiber_class_sizes == (l,) * l
        assert sk.centralizer_orders == (l * l,) * l
        assert sk.component_field_index == l
        assert sk.quotient_abelian and sk.quotient_exponent == l


def test_cyclotomic_tower_certificate():
    ta = nt.cyclotomic_tower_certificate(nt.CyclotomicPowerLaw(3), horizon=4)
    assert ta.status == "fails"
    vals = ta.certificate["valuations"]
    assert all(b == 3 * a for a, b in zip(vals[1:], vals[2:]))
    assert nt.cyclotomic_tower_certificate(nt.CyclotomicPowerLaw(3), horizon=4) == ta
    # a prime congruent to 1 mod 27 splits completely low in the tower and
    # cannot witness growth there; the scan must pass over such primes
    level1 = nt.CyclotomicPowerLaw(3).materialize(1)
    assert nt.abelian_split(level1, 109).pairs == ((1, 1),) * 3
    assert ta.certificate["prime"] == 2


def test_conductors_above_the_bound_are_refused():
    # each refusal comes before units_mod scans the residues
    bound = nt.MAX_CONDUCTOR
    with pytest.raises(nt.HypothesisFailed, match="above the bound"):
        nt.AbelianFieldDatum(bound + 1, (1,))
    with pytest.raises(nt.HypothesisFailed, match="above the bound"):
        nt.CyclotomicPowerLaw(10007).materialize(1)
    with pytest.raises(nt.HypothesisFailed, match="above the bound"):
        nt.verify_tower_containments([nt.AbelianFieldDatum(999983, (1,)),
                                      nt.AbelianFieldDatum(999979, (1,))])
    # the horizon-6 levels of l = 7 stay below it: 7^7 = 823,543
    assert nt.CyclotomicPowerLaw(7).materialize(6).conductor == 7 ** 7 <= bound


def test_norm_tower_certificate_dispatcher():
    ta = nt.norm_tower_certificate((), law=nt.CyclotomicPowerLaw(3), horizon=3)
    assert ta.status == "fails"
    ta0 = nt.norm_tower_certificate((), law=nt.CyclotomicPowerLaw(3), horizon=0)
    assert ta0 == nt.TowerAnalysis("unknown-at-horizon", "cyclotomic-power", None)
    assert nt.norm_tower_certificate((), law=nt.CyclotomicPowerLaw(3), horizon=3) == ta
    # the cyclotomic horizon is capped at 6: a larger one analyses the same levels
    assert (nt.norm_tower_certificate((), law=nt.CyclotomicPowerLaw(3), horizon=32)
            == nt.cyclotomic_tower_certificate(nt.CyclotomicPowerLaw(3), horizon=6))
    const = nt.norm_tower_certificate([nt.AbelianFieldDatum(7, (1, 6))] * 2)
    assert const.status == "holds"


def test_a_law_certifies_only_a_prefix_of_its_own_tower():
    q, first = nt.AbelianFieldDatum(1, (0,)), nt.degree_l_datum(3, 7)
    split, cyclo = nt.SplitObstructionLaw(3, 7, levels=1), nt.CyclotomicPowerLaw(3)
    cert = nt.split_obstruction_certificate(split)
    # Q, the first layer, Q then it, and the layer written at conductor 14
    for levels in ((), (q,), (first,), (q, first), (nt.AbelianFieldDatum(14, (1, 13)),)):
        assert nt.norm_tower_certificate(levels, law=split) == cert
    ta = nt.norm_tower_certificate((), law=cyclo, horizon=3)
    assert nt.norm_tower_certificate([cyclo.materialize(n) for n in range(4)],
                                     law=cyclo, horizon=3) == ta
    refused = [
        ((q, first, nt.degree_l_datum(3, 13)), split, "level 2 lies above the first layer"),
        ((first, first), split, "level 1 lies above the first layer"),
        ((q, q), split, "level 1 (conductor 1"),
        ((nt.degree_l_datum(3, 13),), split, "level 0 (conductor 13"),
        ((first,), cyclo, "level 0 (conductor 7"),
        ((q, cyclo.materialize(2)), cyclo, "level 1 (conductor 27"),
        ((q,) * 30, cyclo, "level 1 (conductor 1"),
    ]
    for levels, law, message in refused:
        for horizon in (0, 1, 6):
            with pytest.raises(nt.NotATower, match=re.escape(message)):
                nt.norm_tower_certificate(levels, law=law, horizon=horizon)


def test_split_obstruction_certificate():
    ta = nt.split_obstruction_certificate(nt.SplitObstructionLaw(3, 7, levels=1))
    assert ta.status == "fails"
    lv = ta.certificate["levels"][0]
    p1 = lv["prime"]
    assert (p1 - 1) % 3 == 0
    assert pow(7, (p1 - 1) // 3, p1) == 1  # base prime is a cube mod p1
    assert lv["norm_unit_index"] == 3
    assert lv["new_layer_ramification"] == ((3, 1),)
    assert nt.norm_tower_certificate((), law=nt.SplitObstructionLaw(3, 7, levels=1)) == ta


def test_explicit_tower():
    const = nt.explicit_tower_certificate([nt.AbelianFieldDatum(7, (1, 6))] * 3)
    assert const.status == "holds"
    grow = nt.explicit_tower_certificate(
        [nt.AbelianFieldDatum(1, (0,)), nt.AbelianFieldDatum(7, (1, 6))]
    )
    assert grow.status == "unknown-at-horizon"
    with pytest.raises(nt.NotATower):
        nt.verify_tower_containments(
            [nt.AbelianFieldDatum(7, (1, 6)), nt.AbelianFieldDatum(5, (1,))]
        )


def test_reduce_to_conductor():
    # (8, {1,5}) presents Q(i), true conductor 4
    red = nt.reduce_to_conductor(nt.AbelianFieldDatum(8, (1, 5)))
    assert red.conductor == 4 and red.subgroup == (1,)
    # primitive data are left alone: the datum itself comes back, built and
    # validated once
    prim = nt.AbelianFieldDatum(8, (1, 3))
    assert nt.reduce_to_conductor(prim) is prim
    prime = nt.AbelianFieldDatum(7, (1, 6))
    assert nt.reduce_to_conductor(prime) is prime
    # whole unit group reduces to the rational field
    assert nt.reduce_to_conductor(nt.AbelianFieldDatum(12, (1, 5, 7, 11))).conductor == 1
    # splitting is conductor-independent
    for p in (3, 5, 7, 13):
        assert (
            nt.abelian_split(nt.AbelianFieldDatum(8, (1, 5)), p).pairs
            == nt.abelian_split(red, p).pairs
        )


def test_unit_subgroups():
    subs = nt.unit_subgroups(7)
    assert (1,) in subs and tuple(sorted((1, 2, 4))) in subs
    assert len(subs) == 4  # cyclic of order 6: one subgroup per divisor


def test_is_prime_agrees_with_sympy_below_10_5():
    assert [n for n in range(10 ** 5) if nt._is_prime(n)] == list(sympy.primerange(10 ** 5))


@pytest.mark.parametrize("n", [
    3215031751,  # a strong pseudoprime to the bases 2, 3, 5 and 7
    3825123056546413051,  # to every base up to 31: base 37 refutes it
    318665857834031151167461,  # to every base up to 37: base 41 refutes it
])
def test_is_prime_refutes_strong_pseudoprimes(n):
    assert not sympy.isprime(n)
    assert not nt._is_prime(n)


def test_is_prime_on_large_primes():
    below = sympy.prevprime(nt._PRIME_BOUND)
    for p in (2 ** 31 - 1, 2 ** 61 - 1, below):
        assert nt._is_prime(p)
        assert not nt._is_prime(3 * p) and not nt._is_prime(p + 1)


def test_is_prime_refuses_beyond_its_proven_range():
    # the bound itself is a strong pseudoprime to all 13 bases, and 2^89 - 1
    # is a prime past it; an even number is still answered by its divisor 2
    for n in (nt._PRIME_BOUND, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="proven range"):
            nt._is_prime(n)
    assert not nt._is_prime(2 ** 90)
