import re
from fractions import Fraction as F

import pytest

from frey2.algebra import PolyRing, QQ, poly_sqrt, poly_str
from frey2.curves import hyper_discriminant
import frey2.families as families_mod
from frey2.errors import DegenerateParameter, NotOddPrime, PipelineAssertionFailed
from frey2.families import (
    ALL_FAMILIES,
    C_MINUS,
    C_PLUS,
    C_S,
    C_ZS,
    CLOSED_FORM_FAMILIES,
    H_2R,
    H_35,
    H_RR,
    build_curve,
    c_coefficients,
    closed_form_certificate,
    czs_polynomial,
    darmon_f,
    irreducibility_witness,
    omega_min_poly,
    printed_disc,
    proved_disc,
    verify_closed_form_disc,
    verify_identities,
    zs_params,
)

R = PolyRing(QQ, "x")
x = R.gen

ALL_R = (3, 5, 7, 11, 13, 17, 19)


def test_darmon_f_examples():
    assert darmon_f(3) == x**3 - 3 * x
    assert darmon_f(5) == x**5 - 5 * x**3 + 5 * x
    assert darmon_f(7) == x**7 - 7 * x**5 + 14 * x**3 - 7 * x


def test_omega_min_poly_examples():
    assert omega_min_poly(3) == x + 1
    assert omega_min_poly(5) == x * x + x - 1
    assert omega_min_poly(7) == x**3 + x * x - 2 * x - 1


def test_not_odd_prime():
    for bad in (2, 4, 9, 1, 15):
        with pytest.raises(NotOddPrime):
            darmon_f(bad)
        with pytest.raises(NotOddPrime):
            omega_min_poly(bad)


@pytest.mark.parametrize("r", ALL_R)
def test_degrees_and_integrality(r):
    f, h = darmon_f(r), omega_min_poly(r)
    assert f.degree() == r and f.lc() == 1
    assert h.degree() == (r - 1) // 2 and h.lc() == 1
    assert all(c.denominator == 1 for c in f.cs)
    assert all(c.denominator == 1 for c in h.cs)
    # odd polynomial: even-degree coefficients vanish
    assert all(f.coeff(i) == 0 for i in range(0, r + 1, 2))


@pytest.mark.parametrize("r", ALL_R)
def test_values_at_pm2(r):
    f = darmon_f(r)
    assert f.eval(F(2)) == 2
    assert f.eval(F(-2)) == -2


@pytest.mark.parametrize("r", ALL_R)
def test_irreducibility_witness(r):
    assert irreducibility_witness(omega_min_poly(r)) is not None


@pytest.mark.parametrize("r", ALL_R)
def test_identity_suite(r):
    rep = verify_identities(r)
    assert rep.f_plus_2_printed
    assert rep.f_squared_minus_4
    assert rep.recurrence_matches_definition
    # the printed f-2 factor h(-x) is wrong; the computed factor is h(x)
    assert rep.f_minus_2_factor_is == "h(x)"
    assert not rep.f_minus_2_printed


@pytest.mark.parametrize("r", [5, 7])
@pytest.mark.parametrize("substitute", ["h", "h(-x)", "-h", "h+1"])
def test_identity_square_factor_against_the_square_root(monkeypatch, r, substitute):
    # verify_identities names the square factor of (f-2)/(x-2) by product
    # checks; the reference takes its monic square root.  Besides h, the
    # substitutes match h(-x) (monic at r = 5, not at r = 7), h up to sign,
    # and nothing.
    f = darmon_f(r)  # cached before omega_min_poly is replaced
    h = omega_min_poly(r)
    sub = {"h": h, "h(-x)": h.compose(-x), "-h": -h, "h+1": h + 1}[substitute]
    monkeypatch.setattr(families_mod, "omega_min_poly", lambda _: sub)
    rep = verify_identities(r)
    root = poly_sqrt((f - 2).exact_div(x - 2))
    which = "h(x)" if root == sub else "h(-x)" if root == sub.compose(-x) else "other"
    assert rep.f_minus_2_square_factor == root
    assert rep.f_minus_2_factor_is == which


def test_c_coefficients():
    assert c_coefficients(3) == [-3]
    assert c_coefficients(5) == [-5, 5]


def test_build_curve_symbolic_examples():
    inst = build_curve(C_ZS, 3)
    assert poly_str(inst.equation.P) == "x^3 + (-3*z)*x + s"
    inst = build_curve(H_2R, 3)
    assert poly_str(inst.equation.P) == "x^3 + (-3*t^2 + 3*t)*x + 2*t^3 - 2*t^2"
    inst = build_curve(H_35)
    E = inst.equation
    assert poly_str(E.Q) == "x^3 + t^3 - 2*t^2 + t"
    assert E.P.coeff(3) == E.Q.ring.base.from_coeffs([0, 2, -4, 2])  # 2t(1-t)^2


def test_build_curve_polynomial_coefficients():
    """No denominators survive expansion for symbolic parameters."""
    for fam in ALL_FAMILIES:
        r = None if fam == H_35 else 7
        inst = build_curve(fam, r)
        for c in inst.equation.Q.cs + inst.equation.P.cs:
            stack = [c]
            while stack:
                v = stack.pop()
                if isinstance(v, F):
                    assert v.denominator == 1
                else:
                    stack.extend(v.cs)


def test_build_curve_matches_direct_expansion():
    # P(z = u^2, x) must equal u^r f(x/u) cleared: sum f_i x^i u^(r-i)
    for r in (3, 5, 7):
        f = darmon_f(r)
        Ru = PolyRing(QQ, "u")
        Rxu = PolyRing(Ru, "x")
        u = Ru.gen
        inst = build_curve(C_ZS, r)
        # substitute z -> u^2, s -> 0 into the x-coefficients
        P = inst.equation.P
        for i in range(r + 1):
            c = P.coeff(i)  # element of Q[z][s]
            czs = c.coeff(0)  # s = 0 part, element of Q[z]
            got = Ru.coerce(czs.eval(u * u))  # z = u^2
            expected = Ru.coerce(f.coeff(i)) * u ** (r - i)
            assert got == expected, (r, i)


def test_degenerate_parameters():
    with pytest.raises(DegenerateParameter):
        build_curve(C_PLUS, 3, t=F(1))
    with pytest.raises(DegenerateParameter):
        build_curve(H_35, t=F(0))
    with pytest.raises(DegenerateParameter):
        build_curve(C_ZS, 3, z=F(1), s=F(2))  # s^2 = 4 z^3
    with pytest.raises(DegenerateParameter):
        build_curve(C_S, 3, s=F(-2))


def test_numeric_instances_match_symbolic():
    for fam, r in ((C_PLUS, 3), (C_MINUS, 5), (H_RR, 3), (H_2R, 5)):
        tv = F(3, 7)
        sym = build_curve(fam, r)
        num = build_curve(fam, r, t=tv)
        evaluated = [c.eval(tv) for c in sym.equation.P.cs]
        assert evaluated == list(num.equation.P.cs)


# r = 23 lies beyond the CLI's r <= 19
@pytest.mark.parametrize("fam,r", [(C_ZS, 3), (C_ZS, 5), (H_RR, 3), (H_RR, 5),
                                   (H_2R, 3), (H_2R, 5), (H_35, None),
                                   (C_ZS, 23), (H_RR, 23), (H_2R, 23)])
def test_closed_forms_exact(fam, r):
    rep = verify_closed_form_disc(fam, r)
    assert rep.equal, f"{fam} r={r}: ratio {rep.ratio}"


@pytest.mark.parametrize("r", [3, 5, 7, 23])
def test_closed_form_cplus_documented_gap(r):
    rep = verify_closed_form_disc(C_PLUS, r)
    assert not rep.equal
    assert rep.documented_mismatch
    g = (r - 1) // 2
    assert rep.ratio == PolyRing(QQ, "t").from_rational(F(2 ** (4 * g)))


@pytest.mark.parametrize("r", [3, 5, 7, 11, 13, 19])
def test_packed_closed_forms_equal_the_formulas_over_polynomials(r):
    """`verify_closed_form_disc` evaluates the closed forms on integers at
    t = 2^K (and lifts the C_zs ones from their z = 1 slice); the oracle runs
    the same formulas on QQ[t] and QQ[z][s] polynomials."""
    z, s, Rzs = families_mod._resolve_zs(None, None, None)
    rep = verify_closed_form_disc(C_ZS, r)
    assert rep.direct == proved_disc(C_ZS, r, Rzs, (z, s))
    assert rep.printed == printed_disc(C_ZS, r, Rzs, (z, s))
    Rt = PolyRing(QQ, "t")
    t = Rt.gen
    for fam in (H_RR, H_2R, C_PLUS):
        rep = verify_closed_form_disc(fam, r)
        assert rep.direct == proved_disc(fam, r, Rt, t), fam
        assert rep.printed == printed_disc(fam, r, Rt, t), fam
    assert verify_closed_form_disc(H_35).printed == printed_disc(H_35, None, Rt, t)


@pytest.mark.parametrize("fam,r", [*((f, r) for f in (C_ZS, H_RR, H_2R, C_PLUS)
                                     for r in (3, 5, 7)),
                                   (H_RR, 11), (H_2R, 11)])
def test_certificate_equals_direct_determinant(fam, r):
    """The direct resultant (over QQ[z][s] for C_zs) is the oracle for the
    proved discriminant that the certificate carries."""
    direct = hyper_discriminant(build_curve(fam, r).equation)
    assert closed_form_certificate(fam, r).direct == direct


@pytest.mark.parametrize("r", [3, 5, 7, 11, 13, 17, 19, 23])
def test_proved_disc_against_direct_resultants(r):
    """The resultants of C_S over QQ[s] and of C_plus over QQ[t] are the
    oracle for `proved_disc`, which computes none."""
    Rs = PolyRing(QQ, "s")
    direct = hyper_discriminant(build_curve(C_S, r).equation)
    assert direct == proved_disc(C_ZS, r, Rs, (Rs.one, Rs.gen))
    Rt = PolyRing(QQ, "t")
    direct = hyper_discriminant(build_curve(C_PLUS, r).equation)
    assert direct == proved_disc(C_PLUS, r, Rt, Rt.gen)


# each corrupted h, whether f is rebuilt as (x - 2) h^2 + 2 around it, and
# the first claim of the proof it violates
PROOF_FAULTS = {
    "h(-x)": (lambda h: h.compose(-h.ring.gen), False, "f - 2 = (x - 2) h(x)^2"),
    "h+1": (lambda h: h + 1, False, "f - 2 = (x - 2) h(x)^2"),
    "-h": (lambda h: -h, False, "f' = r lc(h(-x)) h(x) h(-x), h monic of degree m"),
    "h+1, f from it": (lambda h: h + 1, True, "f + 2 = (x + 2) h(-x)^2"),
}


@pytest.mark.parametrize("r", [5, 7])
@pytest.mark.parametrize("fault", PROOF_FAULTS)
def test_proof_step_failure_names_its_claim(monkeypatch, fault, r):
    corrupt, rebuild_f, claim = PROOF_FAULTS[fault]
    bad = corrupt(omega_min_poly(r))
    darmon_f(r)  # f is cached before h is corrupted
    families_mod._cs_disc_constant.cache_clear()
    closed_form_certificate.cache_clear()
    monkeypatch.setattr(families_mod, "omega_min_poly", lambda r_: bad)
    if rebuild_f:
        monkeypatch.setattr(families_mod, "darmon_f", lambda r_: (x - 2) * bad * bad + 2)
    for fam in (C_ZS, H_RR, H_2R, C_PLUS):
        with pytest.raises(PipelineAssertionFailed,
                           match=re.escape(f"[C_S disc proof, r={r}] violated claim: {claim}")):
            closed_form_certificate(fam, r)
    # a failed proof or certificate is not cached: it passes once h is sound
    assert families_mod._cs_disc_constant.cache_info().currsize == 0
    assert closed_form_certificate.cache_info().currsize == 0
    monkeypatch.undo()
    assert closed_form_certificate(C_ZS, r).equal


def test_no_curve_discriminant_behind_the_four_certificates(monkeypatch):
    """Only H_35 takes a resultant; the other certificates rest on the proof."""
    seen = []
    real = families_mod.hyper_discriminant

    def recording(E):
        seen.append(E)
        return real(E)

    monkeypatch.setattr(families_mod, "hyper_discriminant", recording)
    families_mod._cs_disc_constant.cache_clear()
    closed_form_certificate.cache_clear()
    for r in (3, 5, 7, 11):
        for fam in (C_ZS, C_PLUS, H_RR, H_2R):
            verify_closed_form_disc(fam, r)
            closed_form_certificate(fam, r)
    assert seen == []
    closed_form_certificate(H_35)
    assert [E.base for E in seen] == [PolyRing(QQ, "t")]


@pytest.mark.parametrize("extra", [1, 3, 6])  # odd, odd, over-degree (2m = 4)
def test_weight_lift_rejects_a_slice_off_the_weights(monkeypatch, extra):
    """A C_zs formula with a term off the weights (1, 2, r) fails `_even_slice`
    on either side of the comparison."""
    for name in ("proved_disc", "printed_disc"):
        real = getattr(families_mod, name)

        def off_weight(family, r, dom, params, real=real):
            return dom.add(real(family, r, dom, params), dom.pow(params[1], extra))

        with monkeypatch.context() as m:
            m.setattr(families_mod, name, off_weight)
            with pytest.raises(PipelineAssertionFailed, match="isobaric"):
                verify_closed_form_disc(C_ZS, 5)


def test_closed_form_families_list():
    assert set(CLOSED_FORM_FAMILIES) == {C_ZS, C_PLUS, H_RR, H_2R, H_35}
    with pytest.raises(ValueError):
        verify_closed_form_disc(C_MINUS, 3)


def test_irreducibility_witness_primes():
    """The distinct-degree test over GF(p) finds the same primes as before."""
    got = [irreducibility_witness(omega_min_poly(r)) for r in ALL_R]
    assert got == [2, 2, 2, 2, 2, 3, 2]
    # reducible over Q, so no prime can witness irreducibility
    assert irreducibility_witness((x + 1) * (x - 2)) is None


@pytest.mark.parametrize("r", [3, 5, 7])
def test_printed_cplus_times_gap_is_curve_discriminant(r):
    g = (r - 1) // 2
    for t in (F(3), F(-1, 2), F(5, 8), F(16), F(1, 32), F(-7, 3)):
        direct = hyper_discriminant(build_curve(C_PLUS, r, t=t).equation)
        assert printed_disc(C_PLUS, r, QQ, t) * 2 ** (4 * g) == direct, t


def _zs_by_hand(fam, r, t):
    if fam == C_MINUS:
        return F(1), 2 - 4 * t
    z = t * (t - 1)
    if fam == H_RR:
        return z, z ** ((r - 1) // 2) * (2 * t - 1)
    return z, 2 * (t - 1) ** ((r - 1) // 2) * t ** ((r + 1) // 2)


@pytest.mark.parametrize("fam", [C_MINUS, H_RR, H_2R])
def test_zs_params_give_the_family_polynomial(fam):
    for r in (3, 5, 7):
        for t in (F(3), F(-1, 2), F(1, 16), F(17)):
            z, s = zs_params(fam, r, QQ, t)
            assert (z, s) == _zs_by_hand(fam, r, t)
            P = build_curve(fam, r, t=t).equation.P
            assert P == build_curve(C_ZS, r, z=z, s=s).equation.P
        # symbolic t: the family polynomial is the C_zs polynomial at (z(t), s(t))
        inst = build_curve(fam, r)
        ring = inst.equation.ring
        z, s = zs_params(fam, r, ring.base, inst.params["t"])
        assert inst.equation.P == czs_polynomial(r, z, s, ring)
    with pytest.raises(ValueError):
        zs_params(C_PLUS, 3, QQ, F(3))
