"""The Frey hyperelliptic curve families and their printed invariants.

The three-term recurrence V_{k+1} = x V_k - V_{k-1} (V_0 = 2, V_1 = x)
runs once per r and builds both polynomials every family rests on:
`darmon_f` is f = V_r, and `omega_min_poly` is the minimal polynomial
h = 1 + V_1 + ... + V_m of 2cos(2*pi/r), m = (r-1)/2.  It is minimal by
the cyclotomic identity x^m h(x + 1/x) = 1 + x + ... + x^(r-1), whose
right side is irreducible for every prime r (Eisenstein), so no search is
needed.  Both that identity and the definitional formula
f = (-1)^m x h(2-x^2) are checked at each r.

Each formula of the paper has one home here, over any coefficient domain:
`zs_params` is the (z, s) parametrisation of the odd-degree t-families
(C_minus, H_rr, H_2r), which `build_curve` and the classifier share, and
`printed_disc` is the table of printed closed-form discriminants.

`verify_identities` checks the three factorization identities exactly and
reports which square factor f-2 actually has (h(x), not the h(-x) some
sources print).  `proved_disc` derives the curve discriminants of C_zs,
H_rr, H_2r and C_plus from those identities by the resultant laws, with no
elimination; only H_35 takes its one fixed-size resultant.
`verify_closed_form_disc` compares each with its printed closed form, both
evaluated on integers at t = 2^K (`algebra.kronecker_coeffs`), and reports
the exact ratio 2^(4g) where the printed form is the bare polynomial
discriminant (the C_r^+ family).  `certified_disc` hands the pipelines the
certified closed form at their parameter.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import Poly, PolyRing, QQ, check_odd_prime, kronecker_coeffs
from .curves import HyperEq, hyper_discriminant
from .errors import DegenerateParameter, Frey2Error, _require

C_S = "C_s"
C_PLUS = "C_plus"
C_MINUS = "C_minus"
C_ZS = "C_zs"
H_RR = "H_rr"
H_2R = "H_2r"
H_35 = "H_35"

ALL_FAMILIES = (C_S, C_PLUS, C_MINUS, C_ZS, H_RR, H_2R, H_35)
CLOSED_FORM_FAMILIES = (C_ZS, C_PLUS, H_RR, H_2R, H_35)


@lru_cache(maxsize=None)
def _chebyshev(r: int) -> tuple[Poly, ...]:
    """V_0..V_r by the recurrence V_{k+1} = x V_k - V_{k-1}, V_0 = 2, V_1 = x."""
    check_odd_prime(r)
    ring = PolyRing(QQ, "x")
    x = ring.gen
    vs = [ring.from_coeffs([2]), x]
    for _ in range(r - 1):
        vs.append(x * vs[-1] - vs[-2])
    return tuple(vs)


def darmon_f(r: int) -> Poly:
    """Monic odd degree-r polynomial with f(2cos a) = 2cos(r a): V_r."""
    return _chebyshev(r)[r]


@lru_cache(maxsize=None)
def omega_min_poly(r: int) -> Poly:
    """Minimal polynomial h of 2cos(2*pi/r), integer monic of degree m = (r-1)/2.

    h = 1 + V_1 + ... + V_m, since V_k(x + 1/x) = x^k + x^-k makes
    x^m h(x + 1/x) the cyclotomic polynomial 1 + x + ... + x^(r-1).  That
    is irreducible for every prime r (Eisenstein at r on Phi_r(x + 1)), and
    a factorization h = a b would factor it as x^deg(a) a(x + 1/x) times
    x^deg(b) b(x + 1/x); so h is irreducible with no search.  Both the
    cyclotomic identity and the definitional f = (-1)^m x h(2 - x^2) are
    checked, the lift by Horner in y = x + 1/x.
    """
    vs = _chebyshev(r)
    m = (r - 1) // 2
    h = sum(vs[1:m + 1], vs[0] - 1)
    lift = [h.lc()]  # x^n h(x + 1/x), n = deg h: lift <- lift (x^2 + 1) + h_k x^(n-k)
    n = h.degree()
    for k in range(n - 1, -1, -1):
        lift = [a + b for a, b in zip(lift + [0, 0], [0, 0] + lift)]
        lift[n - k] += h.cs[k]
    label = f"omega_min_poly, r={r}"
    _require(lift == [1] * r, label, "x^m h(x + 1/x) = 1 + x + ... + x^(r-1)")
    ring = h.ring
    sign = Fraction(-1 if m % 2 else 1)
    _require(vs[r] == (ring.gen * h.compose(ring.from_coeffs([2, 0, -1]))).scale(sign),
             label, "f = (-1)^m x h(2 - x^2)")
    return h


def c_coefficients(r: int) -> list[Fraction]:
    """c_1..c_((r-1)/2) with f = x^r + sum_k c_k x^(r-2k)."""
    f = darmon_f(r)
    return [f.coeff(r - 2 * k) for k in range(1, (r - 1) // 2 + 1)]


# --- family construction ----------------------------------------------------


@dataclass(frozen=True)
class CurveInstance:
    family: str
    r: int | None
    params: dict
    equation: HyperEq

    def __repr__(self):
        from .curves import equation_str

        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.family}({ps}): {equation_str(self.equation)}"


def czs_polynomial(r: int, z, s, ring: PolyRing) -> Poly:
    """x^r + sum_k c_k z^k x^(r-2k) + s over the given x-ring."""
    dom = ring.base
    cs = [dom.zero] * (r + 1)
    cs[r] = dom.one
    zk = dom.one
    for k, ck in enumerate(c_coefficients(r), start=1):
        zk = dom.mul(zk, z)
        cs[r - 2 * k] = dom.mul(dom.from_rational(ck), zk)
    cs[0] = dom.add(cs[0], s)
    return Poly(ring, cs)


def zs_params(family: str, r: int, dom, t):
    """The Frey parametrisation (z, s) of an odd-degree t-family at t.

    C_minus: z = 1, s = 2 - 4t; H_rr: z = t(t-1), s = z^((r-1)/2) (2t-1);
    H_2r: z = t(t-1), s = 2 (t-1)^((r-1)/2) t^((r+1)/2).  The member is
    the C_zs curve at (z, s); t may be an element of any domain `dom`.
    """
    one, two = dom.one, dom.from_int(2)
    if family == C_MINUS:
        return one, dom.sub(two, dom.mul(dom.from_int(4), t))
    z = dom.mul(t, dom.sub(t, one))
    if family == H_RR:
        return z, dom.mul(dom.pow(z, (r - 1) // 2), dom.sub(dom.mul(two, t), one))
    if family == H_2R:
        return z, dom.mul(
            two, dom.mul(dom.pow(dom.sub(t, one), (r - 1) // 2), dom.pow(t, (r + 1) // 2))
        )
    raise ValueError(f"{family} has no (z, s) parametrisation")


def build_curve(family: str, r: int | None = None, *, t=None, z=None, s=None,
                dom=None, var="x") -> CurveInstance:
    """Construct a family member exactly.

    Parameters left as None are kept symbolic (the evaluation domain
    becomes a polynomial ring in them); Fractions/ints give a curve over
    Q; elements of an explicit coefficient domain `dom` give a curve over
    that domain.
    """
    if family not in ALL_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family == H_35:
        r = None
    else:
        check_odd_prime(r)

    if family in (C_ZS, C_S):
        if family == C_ZS:
            z, s, dom = _resolve_zs(z, s, dom)
        else:
            s, dom = _resolve_single(s, dom, "s")
            z = dom.one
        _check_nondegenerate_zs(r, z, s, dom)
        ring = PolyRing(dom, var)
        eq = HyperEq(ring.zero, czs_polynomial(r, z, s, ring), (r - 1) // 2)
        params = {"z": z, "s": s} if family == C_ZS else {"s": s}
        return CurveInstance(family, r, params, eq)

    t, dom = _resolve_single(t, dom, "t")
    _check_nondegenerate_t(t, dom)
    ring = PolyRing(dom, var)
    g = 2 if family == H_35 else (r - 1) // 2
    one = dom.one

    if family == C_PLUS:
        # (x+2) times the C_minus polynomial f + 2 - 4t
        P = czs_polynomial(r, *zs_params(C_MINUS, r, dom, t), ring)
        eq = HyperEq(ring.zero, Poly(ring, (dom.from_int(2), one)) * P, g)
    elif family in (C_MINUS, H_RR, H_2R):
        eq = HyperEq(ring.zero, czs_polynomial(r, *zs_params(family, r, dom, t), ring), g)
    elif family == H_35:
        omt = dom.sub(one, t)  # 1 - t
        a = dom.mul(t, dom.pow(omt, 2))  # t(1-t)^2
        p1 = dom.mul(dom.from_int(3), dom.mul(a, dom.mul(t, omt)))  # 3t^2(1-t)^3
        eq = HyperEq(*h35_polys(ring, a, p1), g)
    else:  # pragma: no cover
        raise ValueError(family)
    return CurveInstance(family, r, {"t": t}, eq)


def h35_polys(ring: PolyRing, q0, p1) -> tuple[Poly, Poly]:
    """(x^3 + q0, 2 q0 x^3 + p1 x + q0^2): the shape of H_35 and of every (3,5,p) model."""
    dom = ring.base
    return (
        Poly(ring, [q0, dom.zero, dom.zero, dom.one]),
        Poly(ring, [dom.mul(q0, q0), p1, dom.zero, dom.mul(dom.from_int(2), q0)]),
    )


def _resolve_single(value, dom, name):
    if value is None:
        if dom is not None:
            raise ValueError(f"symbolic {name} cannot take an explicit domain")
        dom = PolyRing(QQ, name)
        return dom.gen, dom
    if isinstance(value, (int, Fraction)):
        return Fraction(value), QQ
    if dom is None:
        raise ValueError(f"domain required for non-rational {name}")
    return value, dom


def _resolve_zs(z, s, dom):
    if z is None and s is None:
        if dom is not None:
            raise ValueError("symbolic (z, s) cannot take an explicit domain")
        zring = PolyRing(QQ, "z")
        sring = PolyRing(zring, "s")
        return sring.const(zring.gen), sring.gen, sring
    if isinstance(z, (int, Fraction)) and isinstance(s, (int, Fraction)):
        return Fraction(z), Fraction(s), QQ
    if dom is None:
        raise ValueError("domain required for non-rational (z, s)")
    return z, s, dom


def _check_nondegenerate_t(t, dom):
    if dom is QQ and t in (Fraction(0), Fraction(1)):
        raise DegenerateParameter(f"t = {t} is a degenerate parameter")


def _check_nondegenerate_zs(r, z, s, dom):
    if dom is QQ:
        if Fraction(s) ** 2 == 4 * Fraction(z) ** r:
            raise DegenerateParameter("s^2 = 4 z^r is degenerate")


# --- verification reports ----------------------------------------------------


@dataclass
class IdentityReport:
    r: int
    f: Poly
    h: Poly
    f_plus_2_printed: bool          # f+2 = (x+2) h(-x)^2
    f_minus_2_factor_is: str        # square factor of (f-2)/(x-2): 'h(x)' | 'h(-x)' | 'other'
    f_minus_2_printed: bool         # the printed form f-2 = (x-2) h(-x)^2
    f_squared_minus_4: bool         # f^2-4 = (x^2-4)(h(x)h(-x))^2


def verify_identities(r: int) -> IdentityReport:
    check_odd_prime(r)
    f = darmon_f(r)
    h = omega_min_poly(r)
    ring = f.ring
    x = ring.gen
    h_neg = h.compose(-x)
    plus_ok = (f + 2) == (x + 2) * h_neg * h_neg
    f_minus_2, x_minus_2 = f - 2, x - 2
    minus_printed = f_minus_2 == x_minus_2 * h_neg * h_neg
    # (f-2)/(x-2) has one monic square root, so a product check names it
    which = next((name for g, name in ((h, "h(x)"), (h_neg, "h(-x)"))
                  if g.lc() == 1 and f_minus_2 == x_minus_2 * g * g), "other")
    prod = h * h_neg
    sq_ok = (f * f - 4) == (x * x - 4) * prod * prod
    return IdentityReport(
        r=r,
        f=f,
        h=h,
        f_plus_2_printed=plus_ok,
        f_minus_2_factor_is=which,
        f_minus_2_printed=minus_printed,
        f_squared_minus_4=sq_ok,
    )


@dataclass
class DiscReport:
    family: str
    r: int | None
    direct: Poly
    printed: Poly
    equal: bool
    ratio: object          # direct/printed when the quotient is exact, else None
    documented_mismatch: bool
    note: str = ""


def printed_disc(family: str, r: int | None, dom, params):
    """The printed closed-form discriminant of a family, evaluated in `dom`.

    `params` is the pair (z, s) for C_zs and the element t for the other
    families.  The C_plus value is the bare polynomial discriminant, 2^(4g)
    below the curve discriminant (see `printed_gap`).
    """
    lead = dom.from_int
    sign = -1 if r is not None and ((r - 1) // 2) % 2 else 1
    if family == C_ZS:
        z, s = params
        core = dom.sub(dom.mul(s, s), dom.mul(lead(4), dom.pow(z, r)))
        return dom.mul(lead(sign * 2 ** (2 * (r - 1)) * r**r), dom.pow(core, (r - 1) // 2))
    t = params
    if family == C_PLUS:
        return dom.mul(
            lead(2 ** (2 * (r + 1)) * r**r),
            dom.mul(dom.pow(t, (r + 3) // 2), dom.pow(dom.sub(dom.one, t), (r - 1) // 2)),
        )
    t_minus_1 = dom.sub(t, dom.one)
    if family == H_RR:
        return dom.mul(
            lead(sign * 2 ** (2 * (r - 1)) * r**r),
            dom.pow(dom.mul(t, t_minus_1), (r - 1) ** 2 // 2),
        )
    if family == H_2R:
        return dom.mul(
            lead(sign * 2 ** (3 * (r - 1)) * r**r),
            dom.mul(dom.pow(t, r * (r - 1) // 2), dom.pow(t_minus_1, (r - 1) ** 2 // 2)),
        )
    if family == H_35:
        return dom.mul(
            lead(3**6 * 5**5), dom.mul(dom.pow(t, 10), dom.pow(t_minus_1, 18))
        )
    raise ValueError(f"{family} has no printed closed form")


def printed_gap(family: str, r: int | None) -> int:
    """Curve discriminant over printed form: 2^(4g) for C_plus, else 1."""
    return 2 ** (4 * ((r - 1) // 2)) if family == C_PLUS else 1


@lru_cache(maxsize=None)
def _cs_disc_constant(r: int) -> Fraction:
    """K with Delta(C_S) = K (s^2 - 4)^m, m = (r-1)/2, proved without elimination.

    With f = `darmon_f(r)` and h = `omega_min_poly(r)` it checks (i) f - 2 =
    (x-2) h^2, (ii) f + 2 = (x+2) h(-x)^2 and (iii) f' = r lc(h(-x)) h h(-x).
    By (iii), Res(A, BC) = Res(A, B) Res(A, C) and (-1)^(rm) per swap,
    Res(f+s, f') is (r lc(h(-x)))^r Res(h, f+s) Res(h(-x), f+s); as f = +-2
    mod h(+-x) by (i), (ii), Res(G, F) = lc(G)^(deg F - deg(F mod G))
    Res(G, F mod G) makes these lc(h(+-x))^r (s +- 2)^m.  Then disc(f+s) =
    (-1)^(r(r-1)/2) Res(f+s, f'), and Delta(C_S) = 2^(4m) disc(f+s).
    """
    f, h, m = darmon_f(r), omega_min_poly(r), (r - 1) // 2
    x = f.ring.gen
    h_neg = h.compose(-x)
    label = f"C_S disc proof, r={r}"
    _require(f - 2 == (x - 2) * h * h, label, "f - 2 = (x - 2) h(x)^2")
    _require(f + 2 == (x + 2) * h_neg * h_neg, label, "f + 2 = (x + 2) h(-x)^2")
    _require(h.degree() == m and h.lc() == 1
             and f.derivative() == (h * h_neg).scale(r * h_neg.lc()), label,
             "f' = r lc(h(-x)) h(x) h(-x), h monic of degree m")
    swap = (-1) ** (r * m)
    res = (r * h_neg.lc()) ** r * (swap * h.lc() ** r) * (swap * h_neg.lc() ** r)
    return 2 ** (4 * m) * (-1) ** (r * (r - 1) // 2) * res


def proved_disc(family: str, r: int, dom, params):
    """The proved curve discriminant of C_zs, H_rr, H_2r or C_plus in `dom`.

    Delta(C_zs) = K (s^2 - 4 z^r)^m lifts Delta(C_S) (`_cs_disc_constant`)
    isobarically for the weights (1, 2, r) of (x, z, s) (Gelfand-Kapranov-
    Zelevinsky 1994, ch. 12); H_rr, H_2r are C_zs at `zs_params`.  C_plus is
    (x+2)(f+s) at s = 2 - 4t: disc(AB) = disc(A) disc(B) Res(A, B)^2 with
    Res(x+2, f+s) = f(-2) + s = -4t by (ii) gives 16 t^2 Delta(C_S).
    """
    if family == C_PLUS:
        cs = proved_disc(C_ZS, r, dom, zs_params(C_MINUS, r, dom, params))
        return dom.mul(dom.mul(dom.from_int(16), dom.mul(params, params)), cs)
    z, s = params if family == C_ZS else zs_params(family, r, dom, params)
    core = dom.sub(dom.mul(s, s), dom.mul(dom.from_int(4), dom.pow(z, r)))
    return dom.mul(dom.from_rational(_cs_disc_constant(r)), dom.pow(core, (r - 1) // 2))


def _even_slice(r: int, cs, claim: str) -> tuple:
    """The coefficients of s^0, s^2, ..., s^(2m) of a z = 1 slice cs (low
    first), after checking that it has no odd and no higher term."""
    m = (r - 1) // 2
    _require(len(cs) <= 2 * m + 1 and not any(cs[1::2]), f"{claim}/r={r}",
             "discriminant isobaric for weights (1, 2, r)")
    return tuple(cs[0::2]) + (QQ.zero,) * (m + 1 - (len(cs) + 1) // 2)


def _czs_lift(r: int, ring: PolyRing, a) -> Poly:
    """sum_k a_k z^(r(m-k)) s^(2k) in QQ[z][s] (`ring`): the form of weight
    r(r-1) whose z = 1 slice has the coefficients a at s^0, s^2, ..."""
    zring, m = ring.base, (r - 1) // 2
    cs = [zring.zero] * (2 * m + 1)
    for k, ak in enumerate(a):
        cs[2 * k] = Poly(zring, [QQ.zero] * (r * (m - k)) + [ak])
    return Poly(ring, cs)


def _table_poly(table, family: str, r: int | None, dom) -> Poly:
    """`table` (`proved_disc` or `printed_disc`) over `dom`, on integers by
    `kronecker_coeffs`: in t, or for C_zs at z = 1 lifted by the weights."""
    if family == C_ZS:
        slice_ = kronecker_coeffs(lambda d, s: table(C_ZS, r, d, (d.one, s)))
        return _czs_lift(r, dom, _even_slice(r, slice_, C_ZS))
    return Poly(dom, kronecker_coeffs(lambda d, t: table(family, r, d, t)), normalized=True)


def verify_closed_form_disc(family: str, r: int | None = None) -> DiscReport:
    """Compare the curve discriminant with the printed closed form, exactly.

    The curve discriminant is `proved_disc`, or for H_35 its one QQ[t]
    resultant; both sides are evaluated by `_table_poly`.  When they
    differ, the exact ratio is reported; a ratio of `printed_gap` is a
    documented mismatch rather than a failure.
    """
    if family not in CLOSED_FORM_FAMILIES:
        raise ValueError(f"{family} has no printed closed form")
    dom = PolyRing(PolyRing(QQ, "z"), "s") if family == C_ZS else PolyRing(QQ, "t")
    direct = (hyper_discriminant(build_curve(H_35).equation) if family == H_35
              else _table_poly(proved_disc, family, r, dom))
    printed = _table_poly(printed_disc, family, r, dom)
    equal = direct == printed
    ratio, documented, note = None, False, ""
    if not equal:
        try:
            ratio = dom.exact_div(direct, printed)
        except Frey2Error:
            pass
        gap = printed_gap(family, r)
        if gap != 1 and ratio == dom.from_int(gap):
            documented = True
            note = (
                "printed value is the discriminant of the defining polynomial; "
                f"the curve discriminant is 2^(4g) = 2^{gap.bit_length() - 1} times it"
            )
    return DiscReport(family=family, r=r, direct=direct, printed=printed, equal=equal,
                      ratio=ratio, documented_mismatch=documented, note=note)


@lru_cache(maxsize=None)
def closed_form_certificate(family: str, r: int | None = None) -> DiscReport:
    """`verify_closed_form_disc` up to `printed_gap`, cached once it holds."""
    rep = verify_closed_form_disc(family, r)
    _require(rep.documented_mismatch if printed_gap(family, r) != 1 else rep.equal,
             f"{family} certificate, r={r}",
             "closed-form discriminant equals the computed one")
    return rep


def certified_disc(family: str, r: int | None, dom, params):
    """The curve discriminant of the family member at `params`, in `dom`.

    Specialisation is a ring homomorphism, so the certified identity over
    QQ[t] or QQ[z][s] holds in any Laurent or tame domain.
    """
    closed_form_certificate(family, r)
    return dom.mul(dom.from_int(printed_gap(family, r)), printed_disc(family, r, dom, params))
