from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frey2.algebra import Poly, PolyRing, QQ
from frey2.curves import (
    HyperEq,
    MobiusChange,
    apply_change,
    hyper_discriminant,
    infinity_patch,
)
from frey2.errors import DegreeViolation, SingularChange
from frey2.families import C_ZS, build_curve, darmon_f, omega_min_poly
from frey2.localfield import FormalParam, Laurent, LaurentRing, TameField

R = PolyRing(QQ, "x")
x = R.gen

Rt = PolyRing(QQ, "t")
Rxt = PolyRing(Rt, "x")
t = Rt.gen
X = Rxt.gen


def test_degree_window():
    HyperEq(R.zero, x**3 + 1, 1)
    HyperEq(R.one, x**3, 1)
    with pytest.raises(DegreeViolation):
        HyperEq(R.zero, x**2 + 1, 1)  # max(0, 2) < 2g+1
    with pytest.raises(DegreeViolation):
        HyperEq(x**3, x**3 + 1, 1)  # deg Q > g+1
    with pytest.raises(DegreeViolation):
        HyperEq(R.zero, x**5, 1)  # deg P > 2g+2


def test_discriminant_examples():
    assert hyper_discriminant(HyperEq(R.one, x**3, 1)) == -27
    assert hyper_discriminant(HyperEq(R.zero, x**3 - 3 * x + F(7, 4), 1)) == 405
    # the curve discriminant of y^2 = (x+2)(x^3-3x+2-4t); the printed family
    # value 2^8 3^3 t^3 (1-t) is the discriminant of the defining polynomial,
    # smaller by exactly 2^(4g) = 2^4
    E = HyperEq(Rxt.zero, (X + 2) * (X**3 - 3 * X + Rxt.const(2 - 4 * t)), 1)
    d = hyper_discriminant(E)
    printed = Rt.const(F(2**8 * 27)) * (t**3) * (1 - t)
    assert d == Rt.const(F(16)) * printed
    assert d == Rt.const(F(2**12 * 27)) * (t**3) * (1 - t)


def test_two_formulas_agree_on_monic_odd(rng):
    # P monic of degree 2g+1, deg Q <= g: Delta_E = 2^(4g) disc(P + Q^2/4)
    from frey2.algebra import discriminant

    for _ in range(40):
        g = rng.choice([1, 2])
        Q = Poly(R, [F(rng.randint(-3, 3)) for _ in range(g + 1)])
        P = Poly(R, [F(rng.randint(-5, 5)) for _ in range(2 * g + 1)] + [F(1)])
        E = HyperEq(Q, P, g)
        direct = hyper_discriminant(E)
        other = F(2 ** (4 * g)) * discriminant(P + (Q * Q).scale(F(1, 4)))
        assert direct == other


def test_infinity_patch_examples():
    E = HyperEq(R.zero, x**3 + 1, 1)
    pat = infinity_patch(E)
    assert pat.P == x + x**4  # u^4 P(1/u) = u + u^4
    assert pat.Q.is_zero()
    E2 = HyperEq(R.one, x**3, 1)
    pat2 = infinity_patch(E2)
    assert pat2.P == x
    assert pat2.Q == x * x


def test_infinity_patch_involution(rng):
    for _ in range(30):
        g = rng.choice([1, 2])
        Q = Poly(R, [F(rng.randint(-3, 3)) for _ in range(g + 2)])
        P = Poly(R, [F(rng.randint(-4, 4)) for _ in range(2 * g + 2)] + [F(1)])
        try:
            E = HyperEq(Q, P, g)
        except DegreeViolation:
            continue
        back = infinity_patch(infinity_patch(E))
        assert back.Q == E.Q and back.P == E.P


def test_patch_preserves_discriminant(rng):
    for _ in range(30):
        g = rng.choice([1, 2])
        Q = Poly(R, [F(rng.randint(-3, 3)) for _ in range(g + 2)])
        P = Poly(R, [F(rng.randint(-4, 4)) for _ in range(2 * g + 2)] + [F(1)])
        try:
            E = HyperEq(Q, P, g)
        except DegreeViolation:
            continue
        pat = infinity_patch(E)
        if pat.R().degree() < 2 * g + 1:
            continue
        assert hyper_discriminant(pat) == hyper_discriminant(E)


def test_apply_change_identity():
    E = HyperEq(R.one, x**3, 1)
    res = apply_change(E, MobiusChange.identity(R))
    assert res.equation == E
    assert res.factor == 1


def test_apply_change_rejects_singular():
    E = HyperEq(R.one, x**3, 1)
    with pytest.raises(SingularChange):
        apply_change(E, MobiusChange(F(1), F(1), F(1), F(1), F(1), R.zero))
    with pytest.raises(SingularChange):
        apply_change(E, MobiusChange(F(1), F(0), F(0), F(1), F(0), R.zero))


def _random_change_law_checks(rng, count):
    checked = 0
    while checked < count:
        g = rng.choice([1, 2])
        Q = Poly(R, [F(rng.randint(-3, 3)) for _ in range(g + 2)])
        P = Poly(R, [F(rng.randint(-4, 4)) for _ in range(2 * g + 2)] + [F(rng.choice([1, -1, 2]))])
        try:
            E = HyperEq(Q, P, g)
        except DegreeViolation:
            continue
        a, b, c, d = (F(rng.randint(-3, 3)) for _ in range(4))
        if a * d - b * c == 0:
            continue
        e = F(rng.choice([1, -1, 2, 3, F(1, 2)]))
        shift = Poly(R, [F(rng.randint(-2, 2)) for _ in range(g + 2)])
        try:
            res = apply_change(E, MobiusChange(a, b, c, d, e, shift))
            lhs = hyper_discriminant(res.equation)
            rhs = QQ.mul(res.factor, hyper_discriminant(E))
        except DegreeViolation:
            # 4P + Q^2 can collapse below degree 2g+1, leaving the
            # discriminant normalization undefined for that sample
            continue
        assert lhs == rhs
        checked += 1


def test_change_of_variables_law_rationals(rng):
    _random_change_law_checks(rng, 60)


def test_change_law_rationals_in_t(rng):
    # the same law, exactly, over Q[t] coefficients
    for _ in range(25):
        g = 1
        Q = Poly(Rxt, [Rt.from_coeffs([rng.randint(-2, 2), rng.randint(-1, 1)]) for _ in range(g + 2)])
        P = Poly(
            Rxt,
            [Rt.from_coeffs([rng.randint(-2, 2), rng.randint(-2, 2)]) for _ in range(2 * g + 2)]
            + [Rt.one],
        )
        try:
            E = HyperEq(Q, P, g)
        except DegreeViolation:
            continue
        M = MobiusChange(Rt.one, Rt.from_int(rng.randint(-2, 2)), Rt.zero, Rt.one,
                         Rt.from_int(2), Rxt.zero)
        res = apply_change(E, M)
        assert hyper_discriminant(res.equation) == Rt.mul(res.factor, hyper_discriminant(E))


def test_model_change_reproduces_stated_form():
    # y -> 2y + (x+2)h(-x) turns y^2 = (x+2)(f+2-4t) into
    # y^2 + (x+2)h(-x) y = -t(x+2) with discriminant r^r t^((r+3)/2) (1-t)^((r-1)/2)
    for r in (3, 5):
        h = omega_min_poly(r)
        f = darmon_f(r)
        ring = Rxt
        fx = Poly(ring, [Rt.const(c) for c in f.cs])
        E = HyperEq(ring.zero, (X + 2) * (fx + ring.const(2 - 4 * t)), (r - 1) // 2)
        hneg = h.compose(-h.ring.gen)
        shift = Poly(ring, [Rt.const(c) for c in ((x + 2) * hneg).cs])
        res = apply_change(E, MobiusChange.y_sub(ring, Rt.from_int(2), shift))
        assert res.equation.P == (-X - 2).scale(t)
        d = hyper_discriminant(res.equation)
        expected = Rt.const(F(r**r)) * t ** ((r + 3) // 2) * (1 - t) ** ((r - 1) // 2)
        assert d == expected


def _reference_clearing_transform(H, a, b, c, d, cap):
    """sum_i h_i (a X + b)^i (c X + d)^(cap-i), every product multiplied out."""
    ring = H.ring
    base = ring.base
    num = Poly(ring, (b, a))
    den = Poly(ring, (d, c))
    out = ring.zero
    num_pow = ring.one
    den_pows = [ring.one]
    for _ in range(cap):
        den_pows.append(den_pows[-1] * den)
    for i in range(H.degree() + 1):
        ci = H.coeff(i)
        if not base.is_zero(ci):
            out = out + (num_pow * den_pows[cap - i]).scale(ci)
        if i < H.degree():
            num_pow = num_pow * num
    return out


def _reference_change(E, M):
    """(Q, P, factor) of `apply_change`, from the cubic expansion and one
    exact division per coefficient and for the factor."""
    base, g = E.base, E.g
    q_star = _reference_clearing_transform(E.Q, M.a, M.b, M.c, M.d, g + 1)
    p_star = _reference_clearing_transform(E.P, M.a, M.b, M.c, M.d, 2 * g + 2)
    num_Q = M.shift.scale(base.from_int(2)) + q_star
    num_P = p_star - M.shift * M.shift - q_star * M.shift
    e2 = base.mul(M.e, M.e)
    det = base.sub(base.mul(M.a, M.d), base.mul(M.b, M.c))
    return (
        num_Q.map_coeffs(lambda co: base.exact_div(co, M.e), E.ring),
        num_P.map_coeffs(lambda co: base.exact_div(co, e2), E.ring),
        base.exact_div(
            base.pow(det, 2 * (g + 1) * (2 * g + 1)), base.pow(M.e, 4 * (2 * g + 1))
        ),
    )


def _tame_elements(field):
    """Monomials c pi^i and dense elements of Q(2^(1/r)), both nonzero."""
    coeff = st.builds(F, st.integers(-4, 4).filter(bool), st.sampled_from([1, 2, 3]))
    monomial = st.builds(
        lambda i, c: field.element([0] * i + [c]), st.integers(0, field.r - 1), coeff
    )
    dense = st.lists(st.integers(-3, 3), min_size=field.r, max_size=field.r).map(
        field.element
    )
    return st.one_of(monomial, dense.filter(any))


FIELD_ELEMENTS = {
    "qq": (QQ, st.builds(F, st.integers(-(2**40), 2**40).filter(bool), st.integers(1, 12))),
    **{f"tame{r}": (TameField(r), _tame_elements(TameField(r))) for r in (3, 5, 7)},
}


def _draw_curve(data, ring, nonzero):
    """y^2 + Q y = P with deg Q <= g and deg P in {2g+1, 2g+2}."""
    base = ring.base
    element = st.one_of(st.just(base.zero), nonzero)
    g = data.draw(st.sampled_from([1, 2]))
    top = data.draw(st.sampled_from([2 * g + 1, 2 * g + 2]))
    Q = Poly(ring, data.draw(st.lists(element, max_size=g + 1)))
    P = Poly(ring, data.draw(st.lists(element, min_size=top, max_size=top)) + [data.draw(nonzero)])
    return HyperEq(Q, P, g)


@pytest.mark.parametrize("domain", FIELD_ELEMENTS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_apply_change_matches_cubic_reference(domain, data):
    base, nonzero = FIELD_ELEMENTS[domain]
    ring = PolyRing(base, "x")
    E = _draw_curve(data, ring, nonzero)
    element = st.one_of(st.just(base.zero), nonzero)
    e = data.draw(nonzero)
    if data.draw(st.booleans(), label="diagonal"):
        a, d = data.draw(nonzero), data.draw(nonzero)
        b = c = base.zero
    else:
        a, b, c, d = (data.draw(element) for _ in range(4))
        assume(not base.is_zero(base.sub(base.mul(a, d), base.mul(b, c))))
    shift = Poly(ring, data.draw(st.lists(element, max_size=E.g + 2)))
    M = MobiusChange(a, b, c, d, e, shift)
    try:
        res = apply_change(E, M)
    except DegreeViolation:
        # the image of infinity can drop the degree below the window
        assume(False)
    assert (res.equation.Q, res.equation.P, res.factor) == _reference_change(E, M)


@pytest.mark.parametrize(
    "Q,P,change",
    [
        # c = 0 with b != 0: a translation, no inversion
        ([1, F(1, 3)], [F(5, 2), 0, F(-7, 12), 0, 1], (F(2, 5), F(-3, 7), 0, F(11, 4))),
        # a = 0: infinity and a finite point trade places
        ([0, 1], [F(2, 9), 1, 0, F(-3, 2), F(1, 6)], (0, F(5, 3), F(-1, 2), F(7, 8))),
        # deg Q = 0 < g + 1 and deg P = 2g + 1 < 2g + 2
        ([F(3, 4)], [F(1, 5), 0, F(9, 2), F(-4, 3)], (F(1, 2), F(-1, 3), F(3, 4), 2)),
        # y^2 = (5/7) x^4: the cleared x^4 coefficient of the image is
        # 5 * 3^4 = ||5 x^4||_1 * max(|3| + |0|, |1| + |2|)^4, the bound itself
        ([], [0, 0, 0, 0, F(5, 7)], (F(3, 2), 0, F(1, 2), 1)),
    ],
    ids=["c0", "a0", "low-degree", "at-bound"],
)
def test_rational_change_edge_cases_match_cubic_reference(Q, P, change):
    E = HyperEq(R.from_coeffs(Q), R.from_coeffs(P), 1)
    M = MobiusChange(*map(F, change), F(3, 2), R.from_coeffs([F(1, 2), -1]))
    res = apply_change(E, M)
    assert (res.equation.Q, res.equation.P, res.factor) == _reference_change(E, M)


LAURENT = LaurentRing(FormalParam.positive("u", 1))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_diagonal_laurent_change_matches_cubic_reference(data):
    coeff = st.integers(-4, 4).filter(bool)
    monomial = st.builds(LAURENT.term, coeff, st.integers(-3, 3))
    dense = st.lists(st.tuples(st.integers(-3, 3), coeff), min_size=1, max_size=3).map(
        lambda terms: Laurent(LAURENT, terms)
    ).filter(lambda el: not el.is_zero())
    nonzero = st.one_of(monomial, dense)
    ring = PolyRing(LAURENT, "x")
    E = _draw_curve(data, ring, nonzero)
    # e must be a unit of the Laurent ring, a single term
    a, d, e = data.draw(nonzero), data.draw(nonzero), data.draw(monomial)
    shift = Poly(ring, data.draw(st.lists(nonzero, max_size=E.g + 2)))
    M = MobiusChange(a, LAURENT.zero, LAURENT.zero, d, e, shift)
    res = apply_change(E, M)
    assert (res.equation.Q, res.equation.P, res.factor) == _reference_change(E, M)


def test_pipeline_charts_match_cubic_reference(monkeypatch):
    """Every change a pipeline makes is diagonal and agrees with the reference."""
    import frey2.pipelines as pipelines_mod

    seen = set()

    def checked(E, M):
        base = E.base
        assert base.is_zero(M.b) and base.is_zero(M.c)
        res = apply_change(E, M)
        assert (res.equation.Q, res.equation.P, res.factor) == _reference_change(E, M)
        seen.add(type(base).__name__)
        return res

    monkeypatch.setattr(pipelines_mod, "apply_change", checked)
    for case in pipelines_mod.PPR_EVEN_CASES:
        pipelines_mod.pipeline_ppr_even(case, 5)
    for case in pipelines_mod.P35_CASES:
        pipelines_mod.pipeline_35p(case)
    for z, s, r in ((1, F(7, 4), 3), (2**4, F(5), 3), (2**6, F(-3, 16), 5), (1, F(1, 4), 7)):
        pipelines_mod.pipeline_odd_good_reduction(z, s, r)
    assert seen == {"LaurentRing", "TameField"}


def quadratic_twist(E: HyperEq, delta) -> HyperEq:
    """Twist of y^2 = F(x) by delta: isomorphic over any field containing sqrt(delta).

    Odd deg F = 2g+1: returns y^2 = delta^(2g+1) F(x/delta); even degree:
    y^2 = delta F(x).
    """
    base = E.base
    if not E.Q.is_zero():
        raise ValueError("quadratic twists need Q = 0")
    if base.is_zero(delta):
        raise ValueError("twist by zero")
    F = E.P
    if F.degree() == 2 * E.g + 1:
        # delta^(2g+1) F(x/delta): coefficient of x^i picks up delta^(2g+1-i)
        cs = [
            base.mul(F.coeff(i), base.pow(delta, 2 * E.g + 1 - i))
            for i in range(F.degree() + 1)
        ]
        return HyperEq(E.ring.zero, Poly(E.ring, cs), E.g)
    return HyperEq(E.ring.zero, F.scale(delta), E.g)


def test_quadratic_twist_examples():
    E = HyperEq(R.zero, x**3 + 1, 1)
    assert quadratic_twist(E, F(1)) == E
    assert quadratic_twist(E, F(2)).P == x**3 + 8
    with pytest.raises(ValueError, match="twist by zero"):
        quadratic_twist(E, F(0))
    with pytest.raises(ValueError, match="need Q = 0"):
        quadratic_twist(HyperEq(R.one, x**3, 1), F(2))


def test_twist_matches_parameter_action(rng):
    # the delta-twist of C(z, s) is exactly C(delta^2 z, delta^r s)
    for r in (3, 5):
        for _ in range(20):
            z = F(rng.randint(1, 9))
            s = F(rng.randint(1, 9))
            if s * s == 4 * z**r:
                continue
            delta = F(rng.choice([-1, 2, -2, 3]))
            E = build_curve(C_ZS, r, z=z, s=s).equation
            twisted = quadratic_twist(E, delta)
            direct = build_curve(C_ZS, r, z=delta * delta * z, s=delta**r * s).equation
            assert twisted == direct


def test_even_degree_twist():
    E = HyperEq(R.zero, x**4 + x + 1, 1)
    tw = quadratic_twist(E, F(3))
    assert tw.P == (x**4 + x + 1).scale(F(3))


def test_family_nonsingular_off_degenerate_set():
    from frey2.families import ALL_FAMILIES, H_35, build_curve

    for fam in ALL_FAMILIES:
        for tv in (F(3), F(1, 2), F(-5, 3)):
            kwargs = {"t": tv}
            if fam == C_ZS:
                kwargs = {"z": F(2), "s": tv}
            elif fam == "C_s":
                kwargs = {"s": tv}
            r = None if fam == H_35 else 5
            inst = build_curve(fam, r, **kwargs)
            assert hyper_discriminant(inst.equation) != 0
