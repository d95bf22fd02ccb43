"""Prime splitting, norm-image valuations, and tower certificates.

Polynomials are little-endian integer coefficients: tuples in the data
(`NumberFieldDatum.poly`, the cyclotomic polynomials, `factor_mod_p`'s
factors), lists in the arithmetic.  Arithmetic over F_p runs on one kernel
of trimmed int lists, reduced in place and taken mod p once per division
(`_fp_rem`, `_fp_quo`, `_fp_gcd`); the exact division over Z is
`_zdiv_exact`.  The Dedekind route stays on lists except for its first
Frobenius power, x^p mod g, which `_fp_xpow` takes on packed integers.  A
packed integer holds a polynomial's coefficients in slots of a fixed number
of bits, wide enough that no slot carries, so a polynomial product is one
int product (Kronecker substitution; Harvey, J. Symbolic Comput. 2009).  A Gaussian-period
polynomial is expanded as one bivariate packed int in Z[x]/(x^m - 1)[T],
each period multiplied in as one shifted add per element of its coset,
and its coefficients are proved rational by one product with the cofactor
Psi_m = (x^m - 1) / Phi_m instead of a reduction mod Phi_m; both slot
bounds are stated where the widths are chosen (`_xpow_slot_bits`,
`_period_slot_bits`).  Splitting in abelian fields is pure modular
arithmetic on (conductor, unit subgroup) data; splitting via a defining
polynomial goes through the Dedekind criterion, and the two routes
cross-check each other.  The Dedekind route reads only the squarefree and
distinct-degree stages of factoring mod p; only `factor_mod_p` splits
equal-degree products.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

from .groups import FiniteGroup, all_subgroups


class NotIrreducible(ValueError):
    pass


class IndexDivisor(ValueError):
    pass


class Ramified(ValueError):
    pass


class HypothesisFailed(ValueError):
    pass


class NotATower(ValueError):
    pass


# ---------------------------------------------------------------------------
# polynomial arithmetic, little-endian
#
# One kernel on int lists: `_fp_rem`, `_fp_quo` and `_fp_gcd` reduce the
# dividend in place and take coefficients mod p once per call, at the end,
# not once per step.  A list over F_p is trimmed (no zero at the top) with
# its entries in [0, p); the dividend of `_fp_rem` and `_fp_quo` may be any
# int list.


def _trim(f):
    """f with its zero top coefficients popped, in place."""
    while f and not f[-1]:
        f.pop()
    return f


def _fp(f, p):
    """A new trimmed list of the coefficients of f reduced mod p."""
    return _trim([c % p for c in f])


def _fp_rem(f, g, p, q=None):
    """f mod g over F_p, computed in the list f and returned trimmed.

    g is a trimmed list over F_p; the empty list is zero and raises
    ZeroDivisionError.  Each step pops the top coefficient of f, which the
    multiple of g cancels; the quotient coefficients go into q when given."""
    if not g:
        raise ZeroDivisionError
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    for k in range(len(f) - 1 - dg, -1, -1):
        c = f.pop() * inv % p
        if c:
            if q is not None:
                q[k] = c
            for i in range(dg):
                f[k + i] -= c * g[i]
    f[:] = [c % p for c in f]
    return _trim(f)


def _fp_quo(f, g, p):
    """The quotient of f by g over F_p, as a trimmed list; f is left alone."""
    q = [0] * max(0, len(f) - len(g) + 1)
    _fp_rem(list(f), g, p, q)
    return _trim(q)


def _fp_gcd(f, g, p):
    """The monic gcd of f and g over F_p, by Euclid on remainders; the
    inputs are left alone."""
    f, g = _fp(f, p), _fp(g, p)
    while g:
        f, g = g, _fp_rem(f, g, p)
    return _fp_monic(f, p)


def _fp_monic(f, p):
    """The list f over F_p scaled to lead 1: f itself when it is monic or
    zero, else a new list."""
    if not f or f[-1] == 1:
        return f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _mul(f, g):
    """The product of f and g over Z, as a list."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _fp_powmod(base, e, mod, p):
    """base^e modulo the trimmed list mod over F_p, as a trimmed list, by
    square and multiply from the top bit: every product is by base itself,
    which for base x is a shift and one reduction step."""
    base = _fp_rem(list(base), mod, p)
    if not e:
        return [1]
    result = base
    for bit in bin(e)[3:]:
        result = _fp_rem(_mul(result, result), mod, p)
        if bit == "1":
            result = _fp_rem(_mul(result, base), mod, p)
    return result


def _xpow_slot_bits(n: int, p: int) -> int:
    """Bits w per slot of `_fp_xpow` mod a degree-n g over F_p:
    2^w > p n (p - 1)^2 (1 + (n - 1)(p - 1)).

    A square of n slots in [0, p) has slots at most n (p - 1)^2.  Adding
    its n - 1 top slots, each at most that, times rows in [0, p) gives
    S = n (p - 1)^2 (1 + (n - 1)(p - 1)); a product by x adds at most S
    (p - 1) more to a slot of at most S.  No slot of any step carries."""
    return (p * n * (p - 1) ** 2 * (1 + (n - 1) * (p - 1))).bit_length()


def _fp_xpow(e, g, p):
    """x^e modulo the monic trimmed list g over F_p, deg g >= 1, as a
    trimmed list, by square and multiply on packed ints.

    A residue is one int with its n = deg g coefficients in slots of w bits,
    w from `_xpow_slot_bits`.  Each step is one int square; its slots
    n .. 2n - 2 are folded back by the packed rows x^k mod g; a product by
    x is a shift and one row, x^n mod g; and one pass takes the n slots
    mod p."""
    n = len(g) - 1
    w = _xpow_slot_bits(n, p)
    top = (1 << w) - 1
    high = n * w
    low = (1 << high) - 1
    # x^k mod g for k = n .. max(n, 2n - 2), each from the last times x
    row = [-c % p for c in g[:n]]
    rows = [row]
    for _ in range(n - 2):
        row = [0] + row
        c = row.pop()
        row = [(a + c * b) % p for a, b in zip(row, rows[0])]
        rows.append(row)
    rows = [sum(c << (i * w) for i, c in enumerate(r)) for r in rows]
    xn = rows[0]
    fold = rows[:n - 1]
    shifts = range(0, high, w)
    a = 1
    for bit in bin(e)[2:]:
        t = a * a
        a = t & low
        t >>= high
        for r in fold:
            a += (t & top) * r
            t >>= w
        if bit == "1":
            a <<= w
            a = (a & low) + (a >> high) * xn
        b = 0
        for s in shifts:
            b |= (a >> s & top) % p << s
        a = b
    return _trim([a >> s & top for s in shifts])


def _fp_deriv(f, p):
    """The derivative of the int list f over F_p, as a trimmed list."""
    return _fp([i * f[i] for i in range(1, len(f))], p)


# ---------------------------------------------------------------------------
# factorization over the p-element field, on lists over F_p


def _squarefree_decomposition(f, p):
    """[(g, multiplicity)] with f = prod g^m, each g squarefree; f is a
    monic list over F_p and so is each g.

    Yun's algorithm (SYMSAC 1976), with the p-th power left over when f' has
    lost the multiplicities divisible by p.  When c = gcd(f, f') is 1, f is
    squarefree over the perfect field F_p and [(f, 1)] is returned at once:
    the loop would find w = f and y = 1 and return the same list."""
    out = []
    if len(f) <= 1:
        return out
    c = _fp_gcd(f, _fp_deriv(f, p), p)
    if len(c) == 1:
        return [(f, 1)]
    w = _fp_quo(f, c, p)
    i = 1
    while len(w) > 1:
        y = _fp_gcd(w, c, p)
        fac = _fp_quo(w, y, p)
        if len(fac) > 1:
            out.append((fac, i))
        w = y
        c = _fp_quo(c, y, p)
        i += 1
    if len(c) > 1:
        # c is a p-th power; over the prime field the root keeps coefficients
        for g, m in _squarefree_decomposition(c[::p], p):
            out.append((g, m * p))
    return out


def _distinct_degree(f, p):
    """[(product of irreducibles of degree d, d)] for a squarefree monic list
    f over F_p.

    h runs through x^(p^d) mod g.  The first step is one power by square and
    multiply on packed ints (`_fp_xpow`).  The p-th power is additive and
    fixes F_p, so after it h^p = sum h_i frob[i] mod g with
    frob[i] = x^(i p) mod g, and each later step is one product of h with
    that table (the Berlekamp matrix)."""
    out = []
    h = [0, 1]
    frob = None
    g = f
    d = 1
    while len(g) > 2 * d:
        if frob is None:
            h = _fp_xpow(p, g, p)
            frob = [[1], h[:]]
        else:
            while len(frob) < len(g) - 1:
                frob.append(_fp_rem(_mul(frob[-1], frob[1]), g, p))
            hp = [0] * (len(g) - 1)
            for a, col in zip(h, frob):
                if a:
                    for j, c in enumerate(col):
                        hp[j] += a * c
            h = _fp(hp, p)
        h_minus_x = h + [0] * (2 - len(h))
        h_minus_x[1] -= 1
        gd = _fp_gcd(h_minus_x, g, p)
        if len(gd) > 1:
            out.append((gd, d))
            g = _fp_quo(g, gd, p)
            h = _fp_rem(h, g, p)
            frob = [_fp_rem(list(col), g, p) for col in frob[:len(g) - 1]]
        d += 1
    if len(g) > 1:
        out.append((g, len(g) - 1))
    return out


def _equal_degree(f, d, p, rng):
    """Cantor-Zassenhaus split of f, a monic squarefree list over F_p that
    is a product of degree-d irreducibles.  The splitting polynomial b is
    left unreduced, as `_fp_gcd` reads it mod p."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        if p == 2:
            # the trace a + a^2 + ... + a^(2^(d - 1))
            b = a + [0] * (n - len(a))
            t = a
            for _ in range(d - 1):
                t = _fp_powmod(t, 2, f, p)
                for i, c in enumerate(t):
                    b[i] += c
        else:
            b = _fp_powmod(a, (p**d - 1) // 2, f, p) or [0]
            b[0] -= 1
        g = _fp_gcd(b, f, p)
        if 1 < len(g) <= n:
            return _equal_degree(g, d, p, rng) + _equal_degree(_fp_quo(f, g, p), d, p, rng)


def _factor_stages(poly, p) -> list:
    """[(h, d, mult)]: the monic reduction of poly mod p is the product of the
    h^mult, each h a squarefree product of irreducibles of degree d."""
    f = _fp_monic(_fp(poly, p), p)
    if len(f) < 2:
        return []
    out = []
    prod = [1]
    for g, mult in _squarefree_decomposition(f, p):
        out += [(h, d, mult) for h, d in _distinct_degree(g, p)]
        for _ in range(mult):
            prod = _fp(_mul(prod, g), p)
    # exactness: the squarefree parts must reproduce the monic part
    if prod != f:
        raise ValueError("the factors do not multiply back to the polynomial")
    return out


def factor_mod_p(poly, p) -> tuple:
    """Full factorization over F_p: sorted ((coeffs), multiplicity) pairs,
    from the two stages and then the package's only equal-degree split
    (Cantor-Zassenhaus, randomized with a fixed seed)."""
    rng = random.Random(0)
    out = [(tuple(irr), mult) for h, d, mult in _factor_stages(poly, p)
           for irr in _equal_degree(h, d, p, rng)]
    return tuple(sorted(out, key=lambda t: (len(t[0]), t[0])))


# ---------------------------------------------------------------------------
# number fields by defining polynomial


def _sympy_irreducible(poly) -> bool:
    import sympy

    x = sympy.Symbol("x")
    expr = sum(int(c) * x**i for i, c in enumerate(poly))
    _, factors = sympy.Poly(expr, x).factor_list()
    return len(factors) == 1 and factors[0][1] == 1


def _monic_nonconstant(poly) -> tuple:
    poly = tuple(_trim([int(c) for c in poly]))
    if len(poly) < 2:
        raise NotIrreducible("polynomial must be nonconstant")
    if poly[-1] != 1:
        raise NotIrreducible("polynomial must be monic")
    return poly


def _squarefree_prime(poly) -> int:
    """The least prime p with the monic poly squarefree mod p.

    p exists iff disc(poly) = +-Res(poly, poly') is nonzero, and every prime
    that fails divides it.  So once the product of the failed primes exceeds
    the Hadamard bound |Res(f, f')| <= |f|_2^(n-1) |f'|_2^n, the
    discriminant is 0 and NotIrreducible is raised."""
    n = len(poly) - 1
    norm2 = sum(c * c for c in poly)
    deriv2 = sum((i * c) ** 2 for i, c in enumerate(poly))
    bound2 = norm2 ** (n - 1) * deriv2**n  # the bound, squared
    failed = 1
    p = 2
    while True:
        if _is_prime(p):
            if _fp_gcd(poly, _fp_deriv(poly, p), p) == [1]:
                return p
            failed *= p
            if failed * failed > bound2:
                raise NotIrreducible("polynomial is not squarefree")
        p += 1


@dataclass(frozen=True)
class NumberFieldDatum:
    """Field presented by a monic irreducible integer polynomial.

    A datum built from a polynomial is proved irreducible by factoring it
    over Q (sympy).  Period polynomials take another route, in
    `abelian_defining_polynomial`; `irreducibility` records which proof
    was given and is part of no report."""

    poly: tuple
    irreducibility: str = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        poly = _monic_nonconstant(self.poly)
        object.__setattr__(self, "poly", poly)
        if not _sympy_irreducible(poly):
            raise NotIrreducible("polynomial factors over the rationals")
        object.__setattr__(self, "irreducibility", "factored over Q")

    @property
    def degree(self) -> int:
        return len(self.poly) - 1


@dataclass(frozen=True)
class SplittingType:
    """Ramification/residue pairs (e_i, f_i) with sum e_i f_i = degree."""

    pairs: tuple
    degree: int

    def __post_init__(self):
        pairs = tuple(sorted((int(e), int(f)) for e, f in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        if any(e <= 0 or f <= 0 for e, f in pairs):
            raise ValueError("entries must be positive")
        if sum(e * f for e, f in pairs) != self.degree:
            raise ValueError("sum e_i f_i must equal the degree")

    @property
    def residue_degrees(self) -> tuple:
        return tuple(f for _, f in self.pairs)


def dedekind_split(fld: NumberFieldDatum, p: int) -> SplittingType:
    """Splitting type and the full Dedekind index test from the squarefree
    and distinct-degree stages mod p alone; IndexDivisor when p may divide
    the index of the equation order (Cohen, GTM 138, 6.1.4).

    The stages (h, d, mult) give the radical g = prod h and the cofactor
    h~ = prod h^(mult - 1), lifted with coefficients in [0, p), with no
    division: their product is the reduction of f, as _factor_stages checks
    that the stages multiply back, and g h~ - f = 0 mod p is checked here
    again.  p divides the index iff gcd(F, g, h~) != 1 mod p for
    F = (g h~ - f) / p; when h~ = 1 that gcd is 1, so F and the gcd are
    formed only when h~ != 1."""
    if not _is_prime(p):
        raise ValueError(f"p={p} is not a prime")
    poly = fld.poly
    # radical and cofactor over F_p, read as monic integer polynomials
    g_bar = h_bar = [1]
    pairs = []
    for h, d, mult in _factor_stages(poly, p):
        g_bar = _fp(_mul(g_bar, h), p) if len(g_bar) > 1 else h
        for _ in range(mult - 1):
            h_bar = _fp(_mul(h_bar, h), p)
        pairs += [(mult, d)] * ((len(h) - 1) // d)
    diff = _mul(g_bar, h_bar) if len(h_bar) > 1 else list(g_bar)
    diff += [0] * (len(poly) - len(diff))
    for i, c in enumerate(poly):
        diff[i] -= c
    if any(c % p for c in diff):
        raise ValueError("the radical does not divide the polynomial mod p")
    if len(h_bar) > 1:
        inner = _fp_gcd(g_bar, h_bar, p)
        if len(_fp_gcd([c // p for c in diff], inner, p)) > 1:
            raise IndexDivisor(f"Dedekind test fails at p={p}")
    return SplittingType(tuple(pairs), len(poly) - 1)


# ---------------------------------------------------------------------------
# abelian fields by (conductor, unit subgroup)


# the largest conductor whose units are listed: units_mod scans every
# residue, about 0.3 s at this bound, and the towers scan it again per level
MAX_CONDUCTOR = 10**6
# the most levels a tower or chain may ask for: a constant chain this long
# is built and classified in about 0.3 s
MAX_TOWER_LEVELS = 10**5
# the largest group order of a level of a layered-obstruction tower: its
# table has order^2 entries, 4 * 10^6 at this bound
MAX_LEVEL_ORDER = 2000


def _check_conductor(m: int) -> None:
    if m > MAX_CONDUCTOR:
        raise HypothesisFailed(f"conductor {m} is above the bound {MAX_CONDUCTOR}")


def units_mod(m: int) -> tuple:
    if m == 1:
        return (0,)
    return tuple(x for x in range(1, m) if math.gcd(x, m) == 1)


def unit_subgroups(m: int) -> tuple:
    """All subgroups of the unit group mod m, as sorted residue tuples: the
    units ascending are the elements, so index order is residue order."""
    if m == 1:
        return ((0,),)
    units = units_mod(m)
    index = {u: i for i, u in enumerate(units)}
    table = tuple(tuple(index[a * b % m] for b in units) for a in units)
    g = FiniteGroup(table, validate=False)
    return tuple(tuple(units[i] for i in h) for h in all_subgroups(g))


@dataclass(frozen=True)
class AbelianFieldDatum:
    """Subfield of the m-th cyclotomic field fixed by the unit subgroup.

    `units` is units_mod(conductor), computed once here for the readers of
    the datum (reduce_to_conductor, abelian_defining_polynomial), and
    `subgroup_set` is the subgroup as a set, built once for the closure
    check and read by abelian_split.
    """

    conductor: int
    subgroup: tuple
    units: tuple = field(init=False, repr=False, compare=False)
    subgroup_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = int(self.conductor)
        object.__setattr__(self, "conductor", m)
        h = tuple(sorted({int(x) % m if m > 1 else 0 for x in self.subgroup}))
        object.__setattr__(self, "subgroup", h)
        hs = frozenset(h)
        object.__setattr__(self, "subgroup_set", hs)
        if m < 1:
            raise ValueError("conductor must be positive")
        _check_conductor(m)
        object.__setattr__(self, "units", units_mod(m))
        if m == 1:
            if h != (0,):
                raise ValueError("trivial modulus needs the trivial subgroup")
            return
        units = set(self.units)
        if not h or any(x not in units for x in h):
            raise ValueError("subgroup entries must be units")
        if 1 not in h:
            raise ValueError("subgroup must contain 1")
        # close {1} under the least entries not yet reached: each new
        # generator s adds the cosets C s, C s^2, ... of the closure C so far
        # until s^i falls in C, so every entry is reached once and H is a
        # subgroup iff no product leaves it
        closure = {1}
        for s in h:
            if s in closure:
                continue
            layer, t = tuple(closure), s
            while t not in closure:
                coset = [x * t % m for x in layer]
                if not hs.issuperset(coset):
                    raise ValueError("not closed under multiplication")
                closure.update(coset)
                t = t * s % m

    @property
    def degree(self) -> int:
        return len(self.units) // len(self.subgroup)


def abelian_split(fld: AbelianFieldDatum, p: int) -> SplittingType:
    """Frobenius-order splitting; unramified p only, except the tame
    totally ramified case of a prime conductor."""
    if not _is_prime(p):
        raise ValueError(f"p={p} is not a prime")
    m = fld.conductor
    if m == 1:
        return SplittingType(((1, 1),), 1)
    if p % m == 0 or math.gcd(p, m) > 1:
        d = fld.degree
        if _is_prime(m) and (m - 1) % d == 0 and p == m:
            return SplittingType(((d, 1),), d)
        raise Ramified(f"p={p} ramifies in conductor {m}")
    hs = fld.subgroup_set
    f = 1
    acc = p % m
    while acc not in hs:
        acc = (acc * p) % m
        f += 1
    d = fld.degree
    if d % f:
        raise ValueError("the residue degree does not divide the degree")
    return SplittingType(tuple((1, f) for _ in range(d // f)), d)


def norm_image_valuation(split: SplittingType, p: int) -> int:
    """ord_p of the norm-image group is generated by the gcd of the residue
    degrees of the primes above p."""
    g = 0
    for f in split.residue_degrees:
        g = math.gcd(g, f)
    return g


# the first 13 primes, and the least composite that is a strong probable prime
# to all of them (Sorenson and Webster, Math. Comp. 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the bases as divisors, then as witnesses,
    exact below _PRIME_BOUND; ValueError from there on."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:
        return True
    if n >= _PRIME_BOUND:
        raise ValueError(f"{n} is beyond the proven range of the primality test")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> tuple:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return tuple(i for i in range(n + 1) if sieve[i])


# ---------------------------------------------------------------------------
# cyclotomic and Gaussian-period polynomials


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Little-endian integer coefficients, computed by exact division."""
    f = tuple([-1] + [0] * (m - 1) + [1])  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            f = _zdiv_exact(f, cyclotomic_polynomial(d))
    return f


def _zdiv_exact(f, g):
    """The quotient f / g over Z, as a tuple, for g with a nonzero top;
    ValueError unless every quotient coefficient is an integer and the
    remainder is zero."""
    f = _trim(list(f))
    lead, dg = g[-1], len(g) - 1
    q = [0] * max(0, len(f) - dg)
    # each step pops the top coefficient, which cancels by construction
    for k in range(len(f) - 1 - dg, -1, -1):
        c, r = divmod(f.pop(), lead)
        if r:
            raise ValueError("polynomial division is not exact over Z")
        if c:
            q[k] = c
            for i in range(dg):
                f[k + i] -= c * g[i]
    if any(f):
        raise ValueError("polynomial division leaves a remainder")
    return tuple(q)


def reduce_to_conductor(fld: AbelianFieldDatum) -> AbelianFieldDatum:
    """Smallest modulus presenting the same field: divisors m' of m whose
    reduction kernel lies inside the subgroup.  When that is m itself, fld
    is returned as it is."""
    m = fld.conductor
    if m == 1:
        return fld
    hs = set(fld.subgroup)
    units = fld.units
    for mp in (d for d in range(1, m) if m % d == 0):
        if mp == 1:
            if hs == set(units):
                return AbelianFieldDatum(1, (0,))
            continue
        kernel = {x for x in units if x % mp == 1}
        if kernel <= hs:
            reduced = tuple(sorted({x % mp for x in hs}))
            return AbelianFieldDatum(mp, reduced)
    return fld


def _period_cosets(fld: AbelianFieldDatum) -> list:
    """The cosets uH of the subgroup in the units, each sorted, in the order
    of their first unit: the exponents of the Gaussian periods."""
    m = fld.conductor
    cosets = []
    seen = set()
    for u in fld.units:
        if u in seen:
            continue
        coset = tuple(sorted((u * h) % m for h in fld.subgroup))
        seen.update(coset)
        cosets.append(coset)
    return cosets


@lru_cache(maxsize=None)
def _cyclotomic_cofactor(m: int) -> tuple:
    """Psi_m = (x^m - 1) / Phi_m, the product of the Phi_d over the proper
    divisors d of m, little-endian; Psi_m(0) = -1 for m > 1."""
    return _zdiv_exact((-1,) + (0,) * (m - 1) + (1,), cyclotomic_polynomial(m))


def _period_slot_bits(d: int, h: int, psi) -> int:
    """Bits w per slot of the packed period expansion, for d periods of at
    most h terms each: 2^(w - 1) > M |psi|_1 |psi|_inf, M = max C(d, k) h^k.

    A period is a sum of at most h powers of x, so its slots sum to at most
    h, and a slot sum is multiplicative over Z[x]/(x^m - 1) with nonnegative
    entries.  Each slot of e_k, a sum of C(d, k) products of k periods, is
    thus at most its slot sum C(d, k) h^k <= M, and so is each slot of a
    partial e_k or a product by a period on the way.  A slot of e_k Psi^+
    or e_k Psi^- mod x^m - 1 is at most M |psi|_inf, and so is |r_k|, the
    difference of two of them; a slot of r_k Psi is at most M |psi|_inf^2.  All of
    them lie strictly within +-2^(w - 1), for any cosets, so no slot ever
    carries and two packed ints are equal iff their slots are."""
    bound = max(math.comb(d, k) * h**k for k in range(d + 1))
    bound *= sum(map(abs, psi)) * max(map(abs, psi))
    return bound.bit_length() + 1


def abelian_defining_polynomial(fld: AbelianFieldDatum) -> NumberFieldDatum:
    """Minimal polynomial of the Gaussian period attached to the datum.

    Exists so the Dedekind route can be cross-checked against the modular
    route; representation of abelian fields stays (conductor, subgroup).
    The datum is first reduced to its true conductor, where the period is
    a primitive element.

    The roots of f = prod (T - eta_j) are the periods over the cosets of H,
    the conjugates of eta, so f is the characteristic polynomial of eta for
    K/Q and a power of its minimal polynomial (Lang, Algebra, VI §5).  Hence
    f is irreducible iff squarefree, and it is squarefree if f mod p is for
    one prime p, as f is monic.  `_squarefree_prime` finds the least such p
    and raises NotIrreducible when the primes it rules out multiply past
    the Hadamard bound on |disc f|; no factorization over Q is made.

    f = sum (-1)^k e_k T^(d - k), with e_k the elementary symmetric
    functions of the periods, computed in Z[x]/(x^m - 1), which maps onto
    Z[zeta_m].  E = prod (1 + eta_j T) is one bivariate packed int
    (Kronecker substitution; Harvey, J. Symbolic Comput. 2009): slot (i, k),
    the x^i coefficient of e_k, sits at bit (i (d + 1) + k) w, with w from
    `_period_slot_bits`.  A period over a coset H has one set slot per
    element of H, so multiplying E by it costs |H| shifted adds of E (no
    dense int product), then one cyclic wrap of the x rows m .. 2m - 2 and
    a shift by one slot for T.

    e_k must be a rational r_k mod Phi_m.  As Q[x] is a domain and Phi_m is
    monic, c = r mod Phi_m iff c Psi_m = r Psi_m mod x^m - 1, with the
    cofactor Psi_m = (x^m - 1) / Phi_m; as Psi_m(0) = -1, r_k is minus slot
    (0, k) of W = E Psi_m mod x^m - 1.  So one comparison of W with r Psi_m
    decides every coefficient.  W is taken as E Psi^+ - E Psi^-, each
    product wrapped on its own: a mask on a packed int with negative slots
    would borrow across slots.  Every slot of E is at most
    M = max C(d, k) h^k, h the largest coset, and every slot of the halves
    of W and of r Psi_m at most M |Psi_m|_1 |Psi_m|_inf, for any cosets,
    rational or not; w keeps both strictly within +-2^(w - 1), so reading
    r_k and comparing W with r Psi_m are exact.
    """
    fld = reduce_to_conductor(fld)
    m = fld.conductor
    if m == 1 or fld.degree == 1:
        return _period_field((0, 1))
    cosets = _period_cosets(fld)
    psi = _cyclotomic_cofactor(m)
    d = len(cosets)
    w = _period_slot_bits(d, max(map(len, cosets)), psi)
    row = (d + 1) * w  # the bits of one power of x
    shift = m * row
    mask = (1 << shift) - 1
    e = 1
    for coset in cosets:
        # E += T eta E: the product's top k is at most d - 1 before the shift
        t = sum([e << (c * row) for c in coset])
        e += ((t & mask) + (t >> shift)) << w
    plus = sum(a << (i * row) for i, a in enumerate(psi) if a > 0)
    minus = sum(-a << (i * row) for i, a in enumerate(psi) if a < 0)
    wp, wm = e * plus, e * minus
    wp = (wp & mask) + (wp >> shift)
    wm = (wm & mask) + (wm >> shift)
    top = (1 << w) - 1
    r = [((wm >> (k * w)) & top) - ((wp >> (k * w)) & top) for k in range(d + 1)]
    # r Psi_m has x degree below m and one term per slot: no wrap
    if wp - wm != sum(c << (k * w) for k, c in enumerate(r)) * (plus - minus):
        raise ValueError("period polynomial coefficient is not rational")
    return _period_field([-r[k] if k % 2 else r[k] for k in range(d, -1, -1)])


def _period_field(poly) -> NumberFieldDatum:
    """The datum of a period polynomial, proved irreducible by one prime
    (see `abelian_defining_polynomial`) instead of a factorization."""
    poly = _monic_nonconstant(poly)
    p = _squarefree_prime(poly)
    fld = object.__new__(NumberFieldDatum)
    object.__setattr__(fld, "poly", poly)
    object.__setattr__(fld, "irreducibility",
                       f"squarefree mod {p}; period polynomial, Lang VI §5")
    return fld


# ---------------------------------------------------------------------------
# local obstruction and the group-theoretic skeleton


@dataclass(frozen=True)
class TameNormIndexReport:
    l: int
    p: int
    power_subgroup_order: int
    index: int


def tame_local_norm_index(l: int, p: int) -> TameNormIndexReport:
    """Index of l-th powers in the units mod p: the norm-unit obstruction of
    the tame totally ramified cyclic degree-l local extension.

    The index is measured, not assumed: theory says it is l, and the
    callers decide what a different value means."""
    if not _is_prime(l) or not _is_prime(p):
        raise HypothesisFailed("both arguments must be prime")
    if (p - 1) % l != 0:
        raise HypothesisFailed(f"{l} does not divide {p}-1")
    powers = {pow(x, l, p) for x in range(1, p)}
    return TameNormIndexReport(l, p, len(powers), (p - 1) // len(powers))


@dataclass(frozen=True)
class EmbeddingSkeletonReport:
    l: int
    group_order: int
    center: tuple
    quotient_abelian: bool
    quotient_exponent: int
    fiber_class_count: int
    fiber_class_sizes: tuple
    centralizer_orders: tuple
    component_field_index: int  # [G : <b, a^j c>], one component per class


def scholz_reichardt_skeleton(l: int) -> EmbeddingSkeletonReport:
    """Group-theoretic scaffolding of the embedding-problem step: the
    exponent-l extraspecial group, its central extension over C_l x C_l,
    the fiber classes over the distinguished generator, and the degree
    bookkeeping of the component fixed fields.  No field is constructed."""
    from . import groups as gr

    sp, gens = gr.heisenberg_group(l)
    g = sp.group
    b = gens["b"]
    bgrp = gr.generated_subgroup(g, [b])
    if gr.center(g) != bgrp:
        raise HypothesisFailed("b does not generate the center")
    quot, _ = gr.quotient(g, bgrp)
    fiber = gr.class_fiber(sp.project_q, (1,))
    centralizers = tuple(len(gr.centralizer(g, cls[0])) for cls in fiber)
    idx = g.order // centralizers[0]
    return EmbeddingSkeletonReport(
        l=l,
        group_order=g.order,
        center=bgrp,
        quotient_abelian=quot.is_abelian(),
        quotient_exponent=quot.exponent(),
        fiber_class_count=len(fiber),
        fiber_class_sizes=tuple(len(c) for c in fiber),
        centralizer_orders=centralizers,
        component_field_index=idx,
    )


# ---------------------------------------------------------------------------
# norm towers


@dataclass(frozen=True)
class CyclotomicPowerLaw:
    """Level n is the degree-l^n subfield of the l^(n+1)-th cyclotomic field."""

    kind: ClassVar[str] = "cyclotomic-power"
    l: int

    def __post_init__(self):
        if not _is_prime(self.l):
            raise HypothesisFailed(f"the tower law needs a prime l, not {self.l}")

    def materialize(self, n: int) -> AbelianFieldDatum:
        if n == 0:
            return AbelianFieldDatum(1, (0,))
        m = self.l ** (n + 1)
        _check_conductor(m)
        torsion = tuple(
            x for x in units_mod(m) if pow(x, self.l - 1, m) == 1
        )
        return AbelianFieldDatum(m, torsion)


@dataclass(frozen=True)
class SplitObstructionLaw:
    """Tower law behind the embedding-problem construction: each level adds a
    cyclic degree-l layer ramified at a fresh prime chosen by splitting
    conditions, and the added layer shrinks the norm image at that prime."""

    kind: ClassVar[str] = "split-obstruction"
    l: int
    p0: int
    levels: int = 2
    prime_bound: int = 20000

    def __post_init__(self):
        if not _is_prime(self.l):
            raise HypothesisFailed(f"the tower law needs a prime l, not {self.l}")
        if not _is_prime(self.p0) or (self.p0 - 1) % self.l != 0:
            raise HypothesisFailed("the base prime must split in the l-th roots of unity")
        if not 0 <= self.levels <= MAX_TOWER_LEVELS:
            raise HypothesisFailed(f"levels {self.levels} is outside 0..{MAX_TOWER_LEVELS}")
        # each chosen prime becomes the conductor of a new layer
        if not 0 <= self.prime_bound <= MAX_CONDUCTOR:
            raise HypothesisFailed(
                f"prime bound {self.prime_bound} is outside 0..{MAX_CONDUCTOR}")


def degree_l_datum(l: int, q: int) -> AbelianFieldDatum:
    """Degree-l subfield of the q-th cyclotomic field (q prime, l | q-1)."""
    _check_conductor(q)
    powers = tuple(sorted({pow(x, l, q) for x in range(1, q)}))
    return AbelianFieldDatum(q, powers)


def verify_tower_containments(levels) -> None:
    """Each field must contain the previous one: on the common conductor the
    corresponding unit subgroups must be nested (kernels shrink)."""
    for a, b in zip(levels, levels[1:]):
        m = math.lcm(a.conductor, b.conductor)
        _check_conductor(m)
        ha = _lift_subgroup(a, m)
        hb = _lift_subgroup(b, m)
        if not hb <= ha:
            raise NotATower("levels are not nested")


def _lift_subgroup(fld: AbelianFieldDatum, m: int) -> set:
    if fld.conductor == 1:
        return set(units_mod(m)) if m > 1 else {0}
    sub = set(fld.subgroup)
    return {x for x in units_mod(m) if x % fld.conductor in sub}


@dataclass(frozen=True)
class TowerAnalysis:
    status: str  # "holds" | "fails" | "unknown-at-horizon"
    law: str  # "cyclotomic-power" | "split-obstruction" | "explicit"
    certificate: dict | None


def cyclotomic_tower_certificate(law: CyclotomicPowerLaw, horizon: int = 5) -> TowerAnalysis:
    """Find a prime below 100 whose residue degree provably grows without
    bound up the cyclotomic power tower (multiplicative-order lifting), and
    record the per-level valuations."""
    l = law.l
    levels = [law.materialize(n) for n in range(horizon + 1)]
    verify_tower_containments(levels)
    for p in primes_up_to(100):
        if p == l:
            continue
        t = 1
        acc = p % l
        while acc != 1:
            acc = (acc * p) % l
            t += 1
        v = 0
        x = pow(p, t, l ** (horizon + 3))
        y = x - 1
        while y % l == 0:
            v += 1
            y //= l
        vals = []
        ok = True
        for n, fld in enumerate(levels):
            split = abelian_split(fld, p)
            g = norm_image_valuation(split, p)
            vals.append(g)
            expected = l ** max(0, (n + 1) - v) if n > 0 else 1
            if g != expected:
                ok = False
                break
        if not ok or len(set(vals)) <= 1:
            continue
        cert = {
            "prime": p,
            "order_mod_l": t,
            "lift_valuation": v,
            "valuations": vals,
            "growth_law": "order-lifting: beyond level v the l-part of the "
            "multiplicative order gains one factor of l per level",
        }
        return TowerAnalysis("fails", law.kind, cert)
    return TowerAnalysis("unknown-at-horizon", law.kind, None)


def split_obstruction_certificate(law: SplitObstructionLaw) -> TowerAnalysis:
    """Build the layered tower: at each level a fresh prime p_k splits
    completely in everything so far and in the auxiliary radical conditions,
    while the new layer is totally ramified at p_k with norm-unit index l.

    The group-theoretic side (the exponent-l extraspecial embedding) is
    verified abstractly; the existence of the solving field is cited, and
    the per-level local data recorded here replays by modular arithmetic.
    """
    l, p0 = law.l, law.p0
    skeleton = scholz_reichardt_skeleton(l)
    fields = [degree_l_datum(l, p0)]
    used = [p0]
    level_payload = []
    for _ in range(law.levels):
        chosen = None
        for p in primes_up_to(law.prime_bound):
            if p == l or p in used:
                continue
            if (p - 1) % l != 0:
                continue  # must split in the l-th roots of unity
            # splits completely in every layer so far
            if any(
                abelian_split(f, p).pairs != tuple((1, 1) for _ in range(f.degree))
                for f in fields
            ):
                continue
            # the base prime becomes an l-th power mod p
            if pow(p0, (p - 1) // l, p) != 1:
                continue
            chosen = p
            break
        if chosen is None:
            return TowerAnalysis("unknown-at-horizon", law.kind, None)
        new_layer = degree_l_datum(l, chosen)
        # lower levels are locally full at the new prime (split completely);
        # the new layer is totally ramified there with norm-unit index l
        ram = abelian_split(new_layer, chosen)
        if ram.pairs != ((l, 1),):
            raise HypothesisFailed(f"the new layer is not totally ramified at {chosen}")
        obstruction = tame_local_norm_index(l, chosen)
        if obstruction.index != l:
            raise HypothesisFailed(
                f"the norm-unit index at {chosen} is {obstruction.index}, not {l}"
            )
        back_split = abelian_split(fields[0], chosen)
        level_payload.append(
            {
                "prime": chosen,
                "splits_in_previous": True,
                "base_prime_lth_power": True,
                "new_layer_conductor": chosen,
                "new_layer_ramification": ram.pairs,
                "norm_unit_index": obstruction.index,
                "base_level_split": back_split.pairs,
            }
        )
        used.append(chosen)
        fields.append(new_layer)
    cert = {
        "base_prime": p0,
        "skeleton": {
            "group_order": skeleton.group_order,
            "fiber_class_count": skeleton.fiber_class_count,
            "centralizer_orders": skeleton.centralizer_orders,
            "component_field_index": skeleton.component_field_index,
        },
        "levels": level_payload,
        "growth_law": "each level's fresh prime is a norm locally everywhere "
        "below but meets an index-l unit obstruction in the lifted layer",
    }
    return TowerAnalysis("fails", law.kind, cert)


def norm_tower_certificate(levels, law=None, horizon: int = 6) -> TowerAnalysis:
    """Mittag-Leffler analysis of a norm tower: a failure certificate with a
    symbolic continuation law, constancy, or an honest unknown.  A
    cyclotomic-power level n has conductor l^(n+1), so its horizon is capped
    at 6, where l <= 7 stays within MAX_CONDUCTOR."""
    if law is not None:
        if not isinstance(law, (CyclotomicPowerLaw, SplitObstructionLaw)):
            raise NotATower(f"unknown tower law {law!r}")
        _check_law_levels(tuple(levels), law)
    if horizon <= 0:
        return TowerAnalysis("unknown-at-horizon", "explicit" if law is None else law.kind, None)
    if isinstance(law, CyclotomicPowerLaw):
        return cyclotomic_tower_certificate(law, horizon=min(horizon, 6))
    if isinstance(law, SplitObstructionLaw):
        return split_obstruction_certificate(law)
    return explicit_tower_certificate(levels)


def _check_law_levels(levels, law) -> None:
    """A law certifies its own tower, so the given levels must be a prefix
    of it, compared at their true conductors.  Level n of a cyclotomic-power
    law is law.materialize(n), level 0 being Q.  A split-obstruction law
    chooses every layer above its first, degree_l_datum(l, p0), inside the
    certificate, so its given levels are Q, that layer, or Q then that
    layer.  A mismatch raises NotATower naming the level."""
    q = AbelianFieldDatum(1, (0,))
    if isinstance(law, CyclotomicPowerLaw):
        expected = map(law.materialize, range(len(levels)))
    else:
        expected = [q] if levels and reduce_to_conductor(levels[0]) == q else []
        if len(levels) > len(expected):
            expected.append(degree_l_datum(law.l, law.p0))
        if len(levels) > len(expected):
            raise NotATower(f"level {len(expected)} lies above the first layer of the "
                            f"{law.kind} tower, whose layers the certificate chooses")
    for n, (given, want) in enumerate(zip(levels, expected)):
        if reduce_to_conductor(given) != reduce_to_conductor(want):
            raise NotATower(
                f"level {n} (conductor {given.conductor}, subgroup {list(given.subgroup)}) is "
                f"not level {n} of the {law.kind} tower (conductor {want.conductor}, "
                f"subgroup {list(want.subgroup)})")


def explicit_tower_certificate(levels) -> TowerAnalysis:
    """A finite list of levels can certify constancy but never unbounded
    growth."""
    levels = tuple(levels)
    verify_tower_containments(levels)
    if all(f == levels[0] for f in levels):
        return TowerAnalysis("holds", "explicit", {"reason": "constant tower"})
    return TowerAnalysis("unknown-at-horizon", "explicit", None)
