import functools
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frey2 import gf2
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


def _embed_by_power_walk(x, dst, root, src_k):
    """Reference embedding: the XOR of root^i over the set bits i of x,
    walking the powers of the embedding root one product at a time."""
    out, power = 0, 1
    for i in range(src_k):
        if (x >> i) & 1:
            out ^= power
        power = dst.mul(power, root)
    return out


@pytest.mark.parametrize("src_k, dst_k", [(1, 16), (2, 4), (2, 16), (4, 8), (4, 16), (8, 16)])
def test_embed_matches_the_power_walk(src_k, dst_k):
    src, dst = gf2k(src_k), gf2k(dst_k)
    root = gf2._embedding_root(src_k, dst_k)
    if src.order <= 16:
        xs = list(src.elements())
    else:
        xs = random.Random(src_k * 100 + dst_k).sample(range(src.order), 64)
    for x in xs:
        assert embed(x, src, dst) == _embed_by_power_walk(x, dst, root, src_k), x


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


@pytest.mark.parametrize("k", range(9, 16))
def test_table_arithmetic_samples(k):
    F = gf2k(k)
    rng = random.Random(k)
    pairs = [(a, b) for a in (0, 1, 2, F._exp[1], F.order - 1) for b in (0, 1, F.order - 1)]
    pairs += [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(1000)]
    for a, b in pairs:
        assert F.mul(a, b) == clmul_mod(a, b, F.modulus, k)
        s = F.sqrt(a)
        assert clmul_mod(s, s, F.modulus, k) == a
        if a:
            assert clmul_mod(a, F.inv(a), F.modulus, k) == 1
            assert F.pow(a, F.order - 1) == 1


def _tables_one_product_per_power(k, modulus):
    """Reference (exp, log) tables: the smallest g of order 2^k - 1 (g is
    a generator iff g^(order/p) != 1 for every prime p | order), then one
    carry-less product per power."""
    order = (1 << k) - 1
    primes, n, d = [], order, 2
    while n > 1:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1

    def power(a, e):
        acc = 1
        while e:
            if e & 1:
                acc = clmul_mod(acc, a, modulus, k)
            a = clmul_mod(a, a, modulus, k)
            e >>= 1
        return acc

    gen = next((g for g in range(2, order + 1) if all(power(g, order // p) != 1 for p in primes)), 1)
    exp, log = [1] * (2 * order), [0] * (1 << k)
    v = 1
    for i in range(order):
        exp[i] = exp[i + order] = v
        log[v] = i
        v = clmul_mod(v, gen, modulus, k)
    return exp, log


@pytest.mark.parametrize("k", range(1, 17))
def test_tables_match_one_product_per_power(k):
    F = gf2k(k)
    order = F.order - 1
    exp, log = _tables_one_product_per_power(k, F.modulus)
    assert F._exp == exp
    assert F._log == log
    assert all(F._log[F._exp[i]] == i for i in range(order))
    # exp[1] is the smallest generator: a smaller g has log g sharing a factor with the order
    assert all(math.gcd(F._log[g], order) > 1 for g in range(2, F._exp[1]))


def test_table_build_is_not_one_product_per_power(monkeypatch):
    """Building GF(2^16) takes 872 carry-less products (the generator
    search, the first 256 powers and two half tables of 256), not one for
    each of its 65,535 powers."""
    calls = 0
    clmul = gf2._clmul_mod

    def counting(*args):
        nonlocal calls
        calls += 1
        return clmul(*args)

    monkeypatch.setattr(gf2, "_clmul_mod", counting)
    gf2.GF2k(16)
    assert 0 < calls <= 2048


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


def _monic_irreducibles(ring, d, found):
    """Monic irreducibles of degree d: the monic polynomials with no monic
    factor of degree 1..d/2.  `found` memoises them by degree."""
    if d not in found:
        lower = [f for e in range(1, d // 2 + 1) for f in _monic_irreducibles(ring, e, found)]
        found[d] = [
            g for low in itertools.product(range(ring.base.order), repeat=d)
            for g in (Poly(ring, low + (1,)),)
            if all(not g.divmod(f)[1].is_zero() for f in lower)
        ]
    return found[d]


def _factor_degrees_by_trial_division(H, found):
    """Divide out every monic irreducible of degree d = 1, 2, ... up to deg/2;
    what is left after degree deg/2 is irreducible or 1."""
    H = H.monic()
    degs = set()
    d = 1
    while 2 * d <= H.degree():
        for g in _monic_irreducibles(H.ring, d, found):
            while H.degree() >= d:
                quo, rem = H.divmod(g)
                if not rem.is_zero():
                    break
                H = quo
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
    found = {}
    for n in range(1, 7):
        if p**n <= 729:
            lows = itertools.product(range(p), repeat=n)
        else:
            lows = (tuple(rng.randrange(p) for _ in range(n)) for _ in range(150))
        for low in lows:
            H = Poly(R, low + (rng.randrange(1, p),))
            assert irreducible_factor_degrees(H) == _factor_degrees_by_trial_division(H, found), H


@pytest.mark.parametrize("k", [2, 3, 4])
def test_factor_degrees_over_gf2k(k):
    """Every monic polynomial while q^n <= 4096, then seeded degree-n
    samples up to q^n <= 2^20 (random, a product of two random factors, and
    one with a repeated factor), all against trial division."""
    K = gf2k(k)
    R = PolyRing(K, "x")
    q = K.order
    rng = random.Random(k)
    found = {}

    def monic(n):
        return Poly(R, [rng.randrange(q) for _ in range(n)] + [1])

    n = 1
    while q**n <= 4096:
        for low in itertools.product(range(q), repeat=n):
            H = Poly(R, low + (1,))
            assert irreducible_factor_degrees(H) == _factor_degrees_by_trial_division(H, found), H
        n += 1
    while q**n <= 1 << 20:
        for _ in range(25):
            a, b = rng.randrange(1, n), rng.randrange(1, n // 2 + 1)
            G = monic(b)
            for H in (monic(n), monic(a) * monic(n - a), G * G * monic(n - 2 * b)):
                H = H * Poly(R, [rng.randrange(1, q)])
                assert irreducible_factor_degrees(H) == _factor_degrees_by_trial_division(H, found), H
        n += 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_roots_gf2_16_deep_trace_splitting(seed):
    """Squarefree products of degree >= 10 whose roots lie mostly in the
    subfields GF(2^2), GF(2^4), GF(2^8) of GF(2^16): many beta_j give such
    roots equal traces, so the split runs through many levels."""
    F = gf2k(16)
    R = PolyRing(F, "x")
    rng = random.Random(seed)
    roots = set()
    for sub, count in ((2, 4), (4, 5), (8, 5)):
        S = gf2k(sub)
        roots |= {embed(a, S, F) for a in rng.sample(range(S.order), count)}
    roots |= set(rng.sample(range(F.order), 3))
    H = Poly(R, [rng.randrange(1, F.order)])
    for a in roots:
        H = H * Poly(R, [a, 1])
    # x^2 + x + c has no root in GF(2^16) iff Tr(c) = 1
    c = next(c for c in iter(lambda: rng.randrange(F.order), None)
             if functools.reduce(F.add, (F.pow(c, 1 << i) for i in range(16))) == 1)
    for G in (H, H * Poly(R, [c, 1, 1])):
        assert G.degree() >= 10
        got = roots_in_gf2k(G, F)
        assert got == sorted(roots)
        assert len(got) == linear_factor_count(G, F)
