import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frey2.algebra import Poly, PolyRing, PrimeField
from frey2.errors import ZeroInput
from frey2.gf2 import (
    GF2,
    IRREDUCIBLE,
    embed,
    gf2_poly_irreducible,
    gf2k,
    irreducible_factor_degrees,
    linear_factor_count,
    roots_in_gf2k,
)


def gpoly(field, *coeffs):
    return Poly(PolyRing(field, "x"), coeffs)


def test_builtin_moduli_are_irreducible():
    for k, m in IRREDUCIBLE.items():
        assert m.bit_length() - 1 == k
        assert gf2_poly_irreducible(m)
    assert not gf2_poly_irreducible(0b10101)  # x^4+x^2+1 = (x^2+x+1)^2


def test_field_axioms_gf16(rng):
    F = gf2k(4)
    for _ in range(60):
        a, b, c = (rng.randrange(16) for _ in range(3))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(a, b) == F.mul(b, a)
    for a in range(1, 16):
        assert F.mul(a, F.inv(a)) == 1


def test_frobenius_is_bijection():
    for k in (1, 2, 3, 4, 8):
        F = gf2k(k)
        images = {F.mul(a, a) for a in F.elements()}
        assert images == set(F.elements())


def test_sqrt():
    F = gf2k(6)
    for a in range(64):
        s = F.sqrt(a)
        assert F.mul(s, s) == a


def test_roots_examples():
    # x^2 + x over GF(2)
    assert roots_in_gf2k(gpoly(GF2, 0, 1, 1), GF2) == [0, 1]
    # x^3 + 1 over GF(4): all three cube roots of unity
    F4 = gf2k(2)
    roots = roots_in_gf2k(gpoly(F4, 1, 0, 0, 1), F4)
    assert sorted(roots) == [1, 2, 3]
    w = 2
    assert F4.mul(w, w) == F4.add(w, 1)  # w^2 = w + 1
    # x^3 + x^2 + 1 is irreducible over GF(2): no roots there, three in GF(8)
    assert roots_in_gf2k(gpoly(GF2, 1, 0, 1, 1), GF2) == []
    F8 = gf2k(3)
    assert len(roots_in_gf2k(gpoly(F8, 1, 0, 1, 1), F8)) == 3


def test_roots_zero_poly_raises():
    with pytest.raises(ZeroInput):
        roots_in_gf2k(Poly(PolyRing(GF2, "x"), ()), GF2)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=8),
)
def test_root_count_matches_gcd_count(k, coeffs):
    F = gf2k(k)
    cs = [c % F.order for c in coeffs]
    H = gpoly(F, *cs)
    if H.is_zero():
        return
    roots = roots_in_gf2k(H, F)
    if H.degree() < 1:
        assert roots == []
        return
    assert len(set(roots)) == len(roots)
    assert len(roots) == linear_factor_count(H, F)


def test_factor_degrees():
    R = PolyRing(GF2, "x")
    # x^3 + 1 = (x+1)(x^2+x+1) over GF(2)
    assert irreducible_factor_degrees(Poly(R, (1, 0, 0, 1))) == {1, 2}
    # x^3 + x^2 + 1 irreducible
    assert irreducible_factor_degrees(Poly(R, (1, 0, 1, 1))) == {3}
    # (x+1)^2: repeated factor still reports degree 1
    assert irreducible_factor_degrees(Poly(R, (1, 0, 1))) == {1}


def test_embedding_is_field_hom():
    F2 = gf2k(2)
    F8s = gf2k(4)
    for a in F2.elements():
        for b in F2.elements():
            ea, eb = embed(a, F2, F8s), embed(b, F2, F8s)
            assert embed(F2.mul(a, b), F2, F8s) == F8s.mul(ea, eb)
            assert embed(F2.add(a, b), F2, F8s) == F8s.add(ea, eb)
    with pytest.raises(ValueError):
        embed(1, gf2k(3), gf2k(4))


def clmul_mod(a, b, modulus, k):
    """Reference product in GF(2^k): shift-and-add, then reduce."""
    r = 0
    for i in range(k):
        if (b >> i) & 1:
            r ^= a << i
    for i in range(2 * k - 2, k - 1, -1):
        if (r >> i) & 1:
            r ^= modulus << (i - k)
    return r


@pytest.mark.parametrize("k", range(1, 9))
def test_table_arithmetic_exhaustive(k):
    F = gf2k(k)
    for a in F.elements():
        for b in F.elements():
            assert F.mul(a, b) == clmul_mod(a, b, F.modulus, k)
        s = F.sqrt(a)
        assert clmul_mod(s, s, F.modulus, k) == a
        if a:
            assert clmul_mod(a, F.inv(a), F.modulus, k) == 1


def test_table_arithmetic_gf2_16_samples():
    F = gf2k(16)
    rng = random.Random(16)
    for _ in range(3000):
        a, b = rng.randrange(F.order), rng.randrange(F.order)
        assert F.mul(a, b) == clmul_mod(a, b, F.modulus, 16)
        s = F.sqrt(a)
        assert clmul_mod(s, s, F.modulus, 16) == a
        if a:
            assert clmul_mod(a, F.inv(a), F.modulus, 16) == 1
            assert F.pow(a, F.order - 1) == 1
    for a in (0, 1, 2, F.order - 1):
        assert F.mul(a, F.mul(a, a)) == F.pow(a, 3)


@st.composite
def gf2k_polys(draw):
    """(k, H): a cofactor (constant, rootless or not) times chosen linear
    factors, repeated roots and the root 0 included."""
    k = draw(st.integers(min_value=1, max_value=10))
    F = gf2k(k)
    elem = st.integers(min_value=0, max_value=F.order - 1)
    cof = draw(st.lists(elem, min_size=0, max_size=4))
    cof.append(draw(st.integers(min_value=1, max_value=F.order - 1)))
    roots = draw(st.lists(elem, min_size=0, max_size=5))
    H = gpoly(F, *cof)
    for a in roots:
        H = H * gpoly(F, a, 1)
    return F, H


@settings(max_examples=60, deadline=None)
@given(gf2k_polys())
@example((gf2k(1), gpoly(GF2, 1)))  # nonzero constant
@example((gf2k(1), gpoly(GF2, 1, 1, 1)))  # irreducible: no roots
@example((gf2k(3), gpoly(gf2k(3), 0, 0, 5, 0, 1)))  # x^2 (x^2 + 5): 0 twice
@example((gf2k(10), gpoly(gf2k(10), 1, 0, 1)))  # (x + 1)^2
def test_roots_match_exhaustive_evaluation(case):
    F, H = case
    assert roots_in_gf2k(H, F) == [a for a in F.elements() if H.eval(a) == 0]


@pytest.mark.parametrize("seed", [1, 2])
def test_roots_gf2_16_known_roots(seed):
    F = gf2k(16)
    rng = random.Random(seed)
    roots = sorted(rng.sample(range(F.order), 6))
    H = gpoly(F, rng.randrange(1, F.order))
    for a in roots:
        H = H * gpoly(F, a, 1)
    H = H * gpoly(F, rng.randrange(F.order), rng.randrange(F.order), 1)
    got = roots_in_gf2k(H, F)
    assert set(roots) <= set(got)
    assert got == [a for a in F.elements() if H.eval(a) == 0]


def _factor_degrees_by_trial_division(H):
    """Divide out every monic polynomial of degree d = 1, 2, ... up to deg/2.

    Smaller factors are removed first, so each divisor found is
    irreducible; what is left after degree deg/2 is irreducible or 1.
    """
    K, ring = H.base, H.ring
    H = H.monic()
    degs = set()
    d = 1
    while 2 * d <= H.degree():
        for low in itertools.product(range(K.order), repeat=d):
            g = Poly(ring, low + (1,))
            while H.degree() >= d and H.divmod(g)[1].is_zero():
                H = H.divmod(g)[0]
                degs.add(d)
        d += 1
    if H.degree() >= 1:
        degs.add(H.degree())
    return degs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_degrees_over_prime_fields(p):
    K = PrimeField(p)
    R = PolyRing(K, "x")
    rng = random.Random(p)
    for n in range(1, 7):
        if p**n <= 729:
            lows = itertools.product(range(p), repeat=n)
        else:
            lows = (tuple(rng.randrange(p) for _ in range(n)) for _ in range(150))
        for low in lows:
            H = Poly(R, low + (rng.randrange(1, p),))
            assert irreducible_factor_degrees(H) == _factor_degrees_by_trial_division(H), H
