from fractions import Fraction as F

import pytest

from frey2.algebra import Poly, PolyRing, QQ, rational_residue_bit
from frey2.errors import NonIntegralCoefficient, PointNotOnCurve
from frey2.fibers import (
    AFFINE,
    NODE,
    NON_SEMISTABLE,
    SMOOTH,
    SpecialFiber,
    INFINITY,
    brute_force_singular,
    fiber_kind,
    fiber_type,
    singular_points,
    splitting_field,
)
from frey2.gf2 import GF2, GF2k, embed, embed_poly, gf2k


def reduce_mod2(H: Poly) -> Poly:
    """Coefficient-wise reduction of a 2-integral rational polynomial to GF(2)."""
    return Poly(PolyRing(GF2, H.ring.var), [rational_residue_bit(c) for c in H.cs])


def minpoly_over_subfield(a: int, big: GF2k, sub: GF2k) -> Poly:
    """Minimal polynomial of a over the embedded subfield, coefficients in `sub`.

    Conjugates are taken under x -> x^(2^sub.k); the product's coefficients
    are pulled back through the canonical embedding.
    """
    back = {embed(c, sub, big): c for c in sub.elements()}
    ring = PolyRing(big, "x")
    conj = []
    c = a
    while c not in conj:
        conj.append(c)
        c = big.pow(c, 1 << sub.k)
    P = ring.one
    for c in conj:
        P = P * Poly(ring, [c, big.one])
    return Poly(PolyRing(sub, "x"), [back[c] for c in P.cs])


def test_reduce_mod2_examples():
    xq = PolyRing(QQ, "x").gen
    H = reduce_mod2(xq**3 - 3 * xq + 7)
    assert H == Poly(PolyRing(GF2, "x"), (1, 1, 0, 1))  # x^3 + x + 1
    H2 = reduce_mod2((xq + 2) * (1 - xq))
    assert H2 == Poly(PolyRing(GF2, "x"), (0, 1, 1))  # x^2 + x
    with pytest.raises(NonIntegralCoefficient):
        reduce_mod2(xq.scale(F(1, 2)) + 1)


def test_minpoly_over_subfield():
    F4 = gf2k(2)
    F16 = gf2k(4)
    # an element of F16 not in the image of F4 has degree-2 minpoly over F4
    image = {embed(a, F4, F16) for a in F4.elements()}
    outside = next(a for a in F16.elements() if a not in image)
    mp = minpoly_over_subfield(outside, F16, F4)
    assert mp.degree() == 2
    # elements of the subfield have linear minpolys
    inside = embed(2, F4, F16)
    assert minpoly_over_subfield(inside, F16, F4).degree() == 1


def classify_point(F: SpecialFiber, patch: str, a: int, b: int, field: GF2k | None = None) -> str:
    """Kind of a point on the given chart, by the Jacobian criterion:
    smooth, node, or worse; the fiber is embedded into `field` if given."""
    field = field or F.field
    for name, Q, P in F.patches():
        if name != patch:
            continue
        if field != F.field:
            ring = PolyRing(field, Q.ring.var)
            Q = embed_poly(Q, F.field, ring)
            P = embed_poly(P, F.field, ring)
        qa, pa = Q.eval(a), P.eval(a)
        if field.add(field.mul(b, b), field.mul(b, qa)) != pa:
            raise PointNotOnCurve(f"({a}, {b}) does not satisfy the equation")
        qda, pda = Q.derivative().eval(a), P.derivative().eval(a)
        if qa != 0 or field.mul(pda, pda) != field.mul(field.mul(qda, qda), pa):
            return SMOOTH
        return NODE if qda != 0 else NON_SEMISTABLE
    raise ValueError(f"unknown patch {patch!r}")


def fib(q_coeffs, p_coeffs, g, field=GF2):
    R = PolyRing(field, "x")
    return SpecialFiber(field, Poly(R, q_coeffs), Poly(R, p_coeffs), g)


def test_singular_points_toric_35_fiber():
    # y^2 + y(x^3+1) = x+1: singular exactly at the primitive cube roots of 1
    Fb = fib([1, 0, 0, 1], [1, 1], 2)
    pts = singular_points(Fb)
    assert len(pts) == 2
    big = pts[0].field
    assert big.k == 2
    for p in pts:
        assert p.patch == AFFINE
        assert p.kind == NODE
        # a is a primitive cube root: a^2 + a + 1 = 0
        assert big.add(big.add(big.mul(p.a, p.a), p.a), 1) == 0
        # b solves b^2 = P(a)
        assert big.mul(p.b, p.b) == Poly(PolyRing(big, "x"), [1, 1]).eval(p.a)


def test_singular_points_ppr_toric_fiber():
    # y^2 + (x^2+x) y = 0: nodes at (0,0) and (1,0)
    Fb = fib([0, 1, 1], [], 1)
    pts = singular_points(Fb)
    coords = sorted((p.a, p.b) for p in pts if p.patch == AFFINE)
    assert coords == [(0, 0), (1, 0)]
    assert all(p.kind == NODE for p in pts)


def test_singular_points_none():
    # y^2 + y = x^3 + x: Q = 1 never vanishes
    Fb = fib([1], [0, 1, 0, 1], 1)
    assert singular_points(Fb) == []
    assert fiber_type(Fb) == (SMOOTH, 0)


def test_classify_point_examples():
    Fb35 = fib([1, 0, 0, 1], [1, 1], 2)
    pts = singular_points(Fb35)
    assert all(
        classify_point(Fb35, p.patch, p.a, p.b, p.field) == NODE for p in pts
    )
    # (0,0) on y^2 = x^3: triple vanishing
    Fcusp = fib([], [0, 0, 0, 1], 1)
    assert classify_point(Fcusp, AFFINE, 0, 0) == NON_SEMISTABLE
    # (0,0) on y^2 + y = x^3
    Fsm = fib([1], [0, 0, 0, 1], 1)
    assert classify_point(Fsm, AFFINE, 0, 0) == SMOOTH
    with pytest.raises(PointNotOnCurve):
        classify_point(Fsm, AFFINE, 1, 0)  # 0 != 1


def test_fiber_type_examples():
    assert fiber_type(fib([1, 0, 0, 1], [1, 1], 2)) == ("nodal", 2)
    assert fiber_type(fib([0, 1, 1], [], 1)) == ("nodal", 2)
    assert fiber_type(fib([], [0, 0, 0, 1], 1)) == ("non-semistable", 0)


def test_double_root_of_p_is_not_semistable():
    # y^2 = x^2 (x+1): a = 0 is a double root of P
    Fb = fib([], [0, 0, 1, 1], 1)
    pts = singular_points(Fb)
    assert any(p.a == 0 and p.kind == NON_SEMISTABLE for p in pts)


def _node_count_fibers(r):
    """The two toric fibers of the even-degree (p,p,r) family."""
    from frey2.families import darmon_f, omega_min_poly

    h = omega_min_poly(r)
    x = h.ring.gen
    h_neg = h.compose(-x)
    # v2(t) > 0 reduction: y^2 + x h(x) y = 0  (signs vanish mod 2)
    Q1 = reduce_mod2((x + 2) * h_neg)
    fib1 = SpecialFiber(GF2, Q1, Q1.ring.zero, (r - 1) // 2)
    # v2(1-t) > 0 reduction: y^2 + x h(x) y = h(x)^2
    Q2 = reduce_mod2(x * h)
    P2 = reduce_mod2(h * h)
    fib2 = SpecialFiber(GF2, Q2, P2, (r - 1) // 2)
    return fib1, fib2


@pytest.mark.parametrize("r", [3, 5, 7, 11])
def test_node_counts(r):
    fib1, fib2 = _node_count_fibers(r)
    assert fiber_type(fib1) == ("nodal", (r + 1) // 2)
    assert fiber_type(fib2) == ("nodal", (r - 1) // 2)


def _points_by_minpoly(F, pts):
    """Canonical signature of a point set: minimal polynomials of the a-coords."""
    out = []
    for p in pts:
        mp = minpoly_over_subfield(p.a, p.field, F.field)
        out.append((p.patch, tuple(mp.cs)))
    return sorted(out)


def _expected_in_gf2m(F, pts, m):
    """Project the computed points into GF(2^m): roots of their minpolys there."""
    big = gf2k(m)
    R = PolyRing(big, "x")
    from frey2.gf2 import embed_poly, roots_in_gf2k

    expected = set()
    for patch, Q, P in F.patches():
        Qb = embed_poly(Q, F.field, R)
        Pb = embed_poly(P, F.field, R)
        for p in pts:
            if p.patch != patch:
                continue
            mp = minpoly_over_subfield(p.a, p.field, F.field)
            if (mp.degree() * F.field.k) > m or m % (mp.degree() * F.field.k):
                continue
            mp_big = embed_poly(mp, F.field, R)
            for a in roots_in_gf2k(mp_big, big):
                b = big.sqrt(Pb.eval(a))
                expected.add((patch, a, b))
    return expected


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_brute_force_agreement_paper_fibers(m):
    for Fb in (
        fib([1, 0, 0, 1], [1, 1], 2),
        fib([0, 1, 1], [], 1),
        fib([1], [0, 1, 0, 1], 1),
        fib([], [0, 0, 1, 1], 1),
    ):
        pts = singular_points(Fb)
        brute = brute_force_singular(Fb, m)
        assert brute == _expected_in_gf2m(Fb, pts, m)


def random_fiber(rng, k):
    field = gf2k(k)
    R = PolyRing(field, "x")
    while True:
        g = rng.choice([1, 2])
        q = [rng.randrange(field.order) for _ in range(rng.randint(0, g + 2))]
        p = [rng.randrange(field.order) for _ in range(rng.randint(1, 2 * g + 3))]
        Q, P = Poly(R, q), Poly(R, p)
        if Q.is_zero() and P.derivative().is_zero():
            continue
        inf_q = Q.reversed_to(g + 1)
        inf_p = P.reversed_to(2 * g + 2)
        if inf_q.is_zero() and inf_p.derivative().is_zero():
            continue
        fibr = SpecialFiber(field, Q, P, g)
        try:
            splitting_field(fibr)
        except Exception:
            continue
        return fibr


def test_brute_force_agreement_random_fibers(rng):
    checked = 0
    while checked < 50:
        k = rng.choice([1, 1, 2, 2, 3, 4])
        Fb = random_fiber(rng, k)
        pts = singular_points(Fb)
        for m in range(k, 9, k):
            brute = brute_force_singular(Fb, m)
            assert brute == _expected_in_gf2m(Fb, pts, m), (Fb, m)
        checked += 1


def test_lemma_24_equivalence(rng):
    """Non-semistable exactly when Q(a) = Q'(a) = P'(a) = 0 at an on-curve point."""
    for _ in range(30):
        Fb = random_fiber(rng, rng.choice([1, 2]))
        for p in singular_points(Fb):
            big = p.field
            for patch, Q, P in Fb.patches():
                if patch != p.patch:
                    continue
                from frey2.gf2 import embed_poly

                R = PolyRing(big, "x")
                Qb, Pb = embed_poly(Q, Fb.field, R), embed_poly(P, Fb.field, R)
                triple = (
                    Qb.eval(p.a) == 0
                    and Qb.derivative().eval(p.a) == 0
                    and Pb.derivative().eval(p.a) == 0
                )
                assert (p.kind == NON_SEMISTABLE) == triple


def _literal_scan(F, m):
    """Every (a, b) of GF(2^m)^2 meeting all three Jacobian equations."""
    from frey2.gf2 import embed_poly

    big = gf2k(m)
    R = PolyRing(big, "x")
    found = set()
    for patch, Q, P in F.patches():
        Qb, Pb = embed_poly(Q, F.field, R), embed_poly(P, F.field, R)
        dQ, dP = Qb.derivative(), Pb.derivative()
        for a in big.elements():
            if patch == INFINITY and a != 0:
                continue
            qa, pa, dqa, dpa = Qb.eval(a), Pb.eval(a), dQ.eval(a), dP.eval(a)
            for b in big.elements():
                on_curve = big.add(big.mul(b, b), big.mul(b, qa)) == pa
                if on_curve and qa == 0 and big.mul(b, dqa) == dpa:
                    found.add((patch, a, b))
    return found


def test_brute_force_matches_literal_scan(rng):
    fibers = [
        fib([1, 0, 0, 1], [1, 1], 2),
        fib([0, 1, 1], [], 1),
        fib([], [0, 0, 1, 1], 1),
        fib([], [0, 0, 0, 1], 1),
    ]
    fibers += [random_fiber(rng, rng.choice([1, 2, 4])) for _ in range(25)]
    for Fb in fibers:
        for m in range(Fb.field.k, 5, Fb.field.k):
            assert brute_force_singular(Fb, m) == _literal_scan(Fb, m), (Fb, m)


def test_fiber_kind_of_singular_points(rng):
    for _ in range(20):
        Fb = random_fiber(rng, rng.choice([1, 2]))
        assert fiber_kind(singular_points(Fb)) == fiber_type(Fb)
    assert fiber_kind([]) == ("smooth", 0)


def test_special_fiber_equality():
    a = fib([1, 0, 0, 1], [1, 1], 2)
    b = fib([1, 0, 0, 1], [1, 1], 2)
    assert a == b and hash(a) == hash(b)
    assert a != fib([1, 0, 0, 1], [1, 1], 2, field=gf2k(2))
    assert a != fib([1, 0, 0, 1], [0, 1], 2)
    assert a != fib([1, 0, 0, 1], [1, 1], 3)
    assert a != a.eq
