"""Case-by-case 2-adic reduction pipelines.

Each pipeline builds a curve family member E0 over an exact local
coefficient domain, applies the appropriate substitution chain through
`curves.apply_change` (which tracks the exact discriminant factor), and
hands the final model to one certification tail, `_certify`.  It
*asserts* the four claims every pipeline ends on: the final model matches
its expected display termwise, is integral, has the stated discriminant
valuation (identically at every weight from the declared least weight on
in the formal cases), and has the stated special-fiber type.  The tail
asks the domain through its `val`, `is_integral` and `residue_bit`, the
valuation protocol that `LaurentRing` and `TameField` share, and reduces
the model over GF(2) in `_fiber`, the one place that runs
`singular_points`.  A violated claim raises PipelineAssertionFailed
rather than producing a report.

The final model's discriminant is factor * Delta(E0) by the
transformation law (Lockhart, Trans. AMS 342, 1994), with Delta(E0) the
certified closed form at the pipeline's parameter (`certified_disc`), so
no resultant runs over a Laurent or tame domain.

The even-degree (formal-parameter) cases prove their claims uniformly in
v2(t) via Laurent models.  The odd-degree chain has two forms.
`odd_good_certificate(r)` proves it once per r for every (z, s) of the
hypothesis, with pi^((v+2)/2), the scaled z and the unit part of s as
symbols.  It also proves that the model is defined over Q_2 iff
zeta = z'/pi^(2v+4) is, so `cross_validate` (hence `frey2 table` and
`classify --oracle-check`) reads a row's exponent off the certificate and
one tame-field value (`OddGoodCertificate.base_defined`).  The row's full
result (`OddGoodCertificate.result`) is built only when read.
`pipeline_odd_good_reduction` runs the chain over the tame field
Q(2^(1/r)) with concrete rational parameters; it serves
`frey2 reduce --pipeline odd-good` and is the test oracle of the
certificate.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import NamedTuple

from .algebra import Poly, PolyRing, QQ, check_odd_prime, rational_residue_bit, v2
from .curves import HyperEq, MobiusChange, apply_change, equation_str
# not called here; kept importable as `pipelines.hyper_discriminant`,
# which perfbench/test_perfbench.py checks after tracing
from .curves import hyper_discriminant  # noqa: F401
from .errors import HypothesisViolated, _require
from .families import (
    C_PLUS,
    C_ZS,
    H_35,
    build_curve,
    c_coefficients,
    certified_disc,
    czs_polynomial,
    h35_polys,
    omega_min_poly,
)
from .fibers import PointReport, SpecialFiber, fiber_kind, singular_points
from .gf2 import GF2
from .localfield import AffineVal, FormalParam, LaurentRing, TameField, normalize_twist

PPR_EVEN_CASES = ("v_neg", "v_t_pos", "v_1mt_pos")
P35_CASES = ("v_t_pos", "v_1mt_pos", "v_neg")
SMOOTH = ("smooth", 0)
UNIT = AffineVal(Fraction(0))


@dataclass
class PipelineResult:
    label: str
    r: int | None
    model: HyperEq
    integral: bool
    disc: object  # tracked factor times the certified E0 discriminant
    disc_val: AffineVal | Fraction
    display_matches: bool
    fiber: SpecialFiber
    fiber_kind: str
    node_count: int
    points: list[PointReport]
    field_of_definition: str  # 'base' | 'ramified-degree-r' | 'unramified-or-base'
    base_defined: bool | None = None
    factor_consistent: bool = True  # disc is factor * Delta(E0) by construction
    notes: list[str] = field(default_factory=list)

    @cached_property
    def witness(self) -> str:
        """Model and special fiber on one line, rendered once per result."""
        return (f"{equation_str(self.model)}  |  fiber: {equation_str(self.fiber.eq)} "
                f"({self.fiber_kind})")


class CertifiedFiber(NamedTuple):
    """One certified special fiber, its singular points and their type."""

    fiber: SpecialFiber
    kind: str
    nodes: int
    points: list[PointReport]


def _fiber(E: HyperEq, residue) -> CertifiedFiber:
    """E's special fiber over GF(2), `residue` reducing each coefficient,
    with its singular points and their type."""
    gring = PolyRing(GF2, E.ring.var)
    Qbar, Pbar = (Poly(gring, [residue(c) for c in F.cs]) for F in (E.Q, E.P))
    fib = SpecialFiber(GF2, Qbar, Pbar, E.g)
    pts = singular_points(fib)
    return CertifiedFiber(fib, *fiber_kind(pts), pts)


def _result(label, r, model, disc, disc_val, fib: CertifiedFiber, **rest) -> PipelineResult:
    """A certified result: its model is integral and matches its display."""
    return PipelineResult(
        label=label, r=r, model=model, integral=True, disc=disc, disc_val=disc_val,
        display_matches=True, fiber=fib.fiber, fiber_kind=fib.kind, node_count=fib.nodes,
        points=list(fib.points), **rest,
    )


def _certify(label, r, ring, model, factor, expected, disc0, disc_val, fiber,
             fiber_check=None, **rest) -> PipelineResult:
    """The four claims every pipeline ends on, checked over its local `ring`.

    `model` must equal the display `expected` = (Q, P) and be integral; its
    discriminant, `factor` times the certified discriminant `disc0` of E0,
    must have valuation `disc_val`; its special fiber must have type
    `fiber` = (kind, nodes), after `fiber_check`, if given, has asserted
    more of it.  `rest` completes the PipelineResult.
    """
    _require((model.Q, model.P) == expected, label, "final model matches the expected display")
    _require(all(ring.is_integral(c) for c in model.Q.cs + model.P.cs), label,
             "final model is integral")
    disc = ring.mul(factor, disc0)
    dval = ring.val(disc)
    _require(dval == disc_val, label, f"discriminant valuation {disc_val!r}")
    fib = _fiber(model, ring.residue_bit)
    if fiber_check is not None:
        fiber_check(fib)
    _require((fib.kind, fib.nodes) == fiber, label, f"fiber type {fiber}")
    return _result(label, r, model, disc, dval, fib, **rest)


def _lift(p: Poly, ring: PolyRing) -> Poly:
    dom = ring.base
    return Poly(ring, [dom.from_rational(c) for c in p.cs])


def _split_factor_polys(r: int):
    """(h(-x), h(x), (x+2)h(-x), x*h(x)) over Q, used by the even pipelines."""
    ring = PolyRing(QQ, "x")
    x = ring.gen
    h = omega_min_poly(r)
    h_neg = h.compose(-x)
    return h_neg, h, (x + 2) * h_neg, x * h


def pipeline_ppr_even(case: str, r: int) -> PipelineResult:
    """Even-degree signature (p,p,r): the three valuation cases."""
    check_odd_prime(r)
    if case not in PPR_EVEN_CASES:
        raise ValueError(f"unknown case {case!r}")
    g = (r - 1) // 2
    notes = []

    if case == "v_neg":
        ring = LaurentRing(FormalParam("u", Fraction(1, r)))
        t = ring.term(1, -r)  # t = u^(-r)
    elif case == "v_t_pos":
        ring = LaurentRing(FormalParam("t", 1))
        t = ring.gen
    else:
        ring = LaurentRing(FormalParam("s1", 1))  # s1 = 1 - t
        t = ring.sub(ring.one, ring.gen)

    Rx = PolyRing(ring, "x")
    E0 = build_curve(C_PLUS, r, t=t, dom=ring).equation
    h_neg, h, q_plus, q_new = _split_factor_polys(r)

    if case == "v_1mt_pos":
        # y -> 2y + x h(x) with the *computed* square factor of f-2
        shift = _lift(q_new, Rx)
        notes.append(
            "square factor of f-2 is h(x); the sometimes-printed h(-x) fails "
            "the exact identity and the model is built with the computed factor"
        )
    else:
        shift = _lift(q_plus, Rx)
    res = apply_change(E0, MobiusChange.y_sub(Rx, ring.from_int(2), shift))
    model, factor = res.equation, res.factor

    if case == "v_neg":
        u = ring.gen
        res = apply_change(model, MobiusChange(ring.one, ring.zero, ring.zero, u, ring.one, Rx.zero))
        model, factor = res.equation, ring.mul(factor, res.factor)
        # expected display: y^2 + (x+2u) u^((r-1)/2) h(-x/u) y = -(x+2u)
        hu = Poly(Rx, [ring.term(h_neg.coeff(j), g - j) for j in range(g + 1)])
        x_plus_2u = Poly(Rx, [ring.term(2, 1), ring.one])
        expected = (x_plus_2u * hu, -x_plus_2u)
        disc_val, fiber = UNIT, SMOOTH
    elif case == "v_t_pos":
        expected = (_lift(q_plus, Rx),
                    Poly(Rx, [ring.mul(ring.neg(t), ring.from_int(2)), ring.neg(t)]))
        disc_val, fiber = AffineVal(Fraction(0), (r + 3) // 2), ("nodal", (r + 1) // 2)
    else:
        h_lift = _lift(h, Rx)
        expected = (_lift(q_new, Rx),
                    -(h_lift * h_lift) + Poly(Rx, [ring.term(2, 1), ring.gen]))
        disc_val, fiber = AffineVal(Fraction(0), (r - 1) // 2), ("nodal", (r - 1) // 2)

    return _certify(
        f"ppr-even/{case}/r={r}", r, ring, model, factor, expected,
        certified_disc(C_PLUS, r, ring, t), disc_val, fiber,
        field_of_definition="ramified-degree-r" if case == "v_neg" else "base", notes=notes,
    )


def pipeline_35p(case: str) -> PipelineResult:
    """Signature (3,5,p): good reduction over degree-3/degree-5 tame charts,
    toric reduction in the negative-valuation case.

    In case v_neg the model lives in tau = 1/t; its display is that of the
    unit w = (1-t)/t = tau - 1, and its fiber is read in tau, which reduces
    to 0 and so sends w to 1."""
    if case not in P35_CASES:
        raise ValueError(f"unknown case {case!r}")
    label = f"35p/{case}"
    notes, fiber_check = [], None

    # the chart x = a X / d, y = e Y / d^3; the display is written in the unit w
    if case == "v_t_pos":
        ring = LaurentRing(FormalParam("u", Fraction(1, 3)))
        u = ring.gen
        t = ring.term(1, 3)  # t = u^3
        a, d, e = u, ring.one, ring.pow(u, 3)
        w = ring.sub(ring.one, ring.pow(u, 3))  # 1 - u^3
        q0, p1 = ring.pow(w, 2), ring.mul(ring.from_int(3), ring.mul(u, ring.pow(w, 3)))
        disc_val, fiber = UNIT, SMOOTH
    elif case == "v_1mt_pos":
        ring = LaurentRing(FormalParam("u", Fraction(1, 5)))
        u = ring.gen
        t = ring.sub(ring.one, ring.term(1, 5))  # t = 1 - u^5
        a, d, e = ring.pow(u, 3), ring.one, ring.pow(u, 9)
        w = ring.sub(ring.one, ring.pow(u, 5))  # 1 - u^5
        q0, p1 = ring.mul(w, u), ring.mul(ring.from_int(3), ring.pow(w, 2))
        disc_val, fiber = UNIT, SMOOTH
    else:
        ring = LaurentRing(FormalParam("tau", 1))  # tau = 1/t
        u = ring.gen
        t = ring.term(1, -1)
        a, d, e = ring.one, u, ring.one
        w = ring.sub(u, ring.one)  # tau - 1, the unit (1-t)/t in disguise
        q0, p1 = ring.pow(w, 2), ring.mul(ring.from_int(3), ring.pow(w, 3))
        disc_val, fiber = AffineVal(Fraction(0), 2), ("nodal", 2)
        # tau -> 0 sends the unit w = (1-t)/t = tau - 1 to -1 = 1 mod 2
        notes.append("toric chart: unit parameter w = (1-t)/t with residue 1")

        def fiber_check(fib):
            gring = fib.fiber.Q.ring
            _require(
                fib.fiber.Q == Poly(gring, [1, 0, 0, 1]) and fib.fiber.P == Poly(gring, [1, 1]),
                label,
                "special fiber y^2 + y(x^3 + 1) = x + 1",
            )
            _require(
                all(p.field.k == 2 and p.kind == "node" for p in fib.points)
                and len(fib.points) == 2,
                label,
                "two nodes at the primitive cube roots of unity in GF(4)",
            )

    Rx = PolyRing(ring, "x")
    E0 = build_curve(H_35, t=t, dom=ring).equation
    res = apply_change(E0, MobiusChange(a, ring.zero, ring.zero, d, e, Rx.zero))
    return _certify(
        label, None, ring, res.equation, res.factor, h35_polys(Rx, q0, p1),
        certified_disc(H_35, None, ring, t), disc_val, fiber, fiber_check,
        field_of_definition={
            "v_t_pos": "ramified-degree-3",
            "v_1mt_pos": "ramified-degree-5",
            "v_neg": "base",
        }[case],
        notes=notes,
    )


def _check_hypothesis(z, s, r: int) -> tuple[Fraction, Fraction]:
    """(z, s) as Fractions after checking z, s != 0 and v2(z^r) >= v2(s^2) + 4.

    Zero is tested first: its valuation is undefined.
    """
    check_odd_prime(r)
    z = Fraction(z)
    s = Fraction(s)
    if z == 0 or s == 0:
        raise HypothesisViolated(f"need z and s nonzero; got z = {z}, s = {s}")
    if r * v2(z) < 2 * v2(s) + 4:
        raise HypothesisViolated(
            f"need v2(z^r) >= v2(s^2) + 4; got {r * v2(z)} < {2 * v2(s) + 4}"
        )
    return z, s


def field_of_definition(z, s, r: int) -> bool:
    """True iff the good-reduction model descends to the 2-adic base field.

    Criterion: r divides v2(s'^2) + 4 after twist normalization (a twist
    moves v2(s^2) by 2r, so the class mod r is twist-invariant).
    """
    z, s = _check_hypothesis(z, s, r)
    _, _, s1 = normalize_twist(z, s, r)
    return (2 * v2(s1) + 4) % r == 0


def pipeline_odd_good_reduction(z, s, r: int) -> PipelineResult:
    """Odd-degree good-reduction chain over the tame field Q(2^(1/r)).

    Requires v2(z^r) >= v2(s^2) + 4.  Twists to the normalized (z', s'),
    then, with v = v2(s'), applies the one change of variables
    x = pi^(v+2) X, y = pi^(r(v+2)/2) Y + pi^(rv/2): x scaled by pi^v and
    y by pi^(rv/2), followed by x -> pi^2 x, y -> pi^r y + 1.  It
    certifies that the final model agrees termwise with

        y^2 + y = x^r + sum_k c_k (z'/pi^(v2(s'^2)+4))^k x^(r-2k)
                        + (s'/2^v2(s') - 1)/4,

    is integral, has unit discriminant, and has a smooth special fiber.
    """
    z, s = _check_hypothesis(z, s, r)
    label = f"odd-good/r={r}"
    delta, z1, s1 = normalize_twist(z, s, r)
    L = TameField(r)
    Rx = PolyRing(L, "x")
    E0 = build_curve(C_ZS, r, z=L.from_rational(z1), s=L.from_rational(s1), dom=L).equation

    v = v2(s1)
    res = apply_change(E0, MobiusChange(
        L.pi_power(v + 2), L.zero, L.zero, L.one, L.pi_power(r * (v + 2) // 2),
        Rx.const(L.pi_power(r * v // 2)),
    ))
    notes = [
        "second substitution scales x by pi^2 (termwise degree accounting; "
        "a plain pi scaling does not reproduce the stated final model)",
        "integrality of the constant term rests on s'/2^v2(s') = 1 mod 4, "
        "i.e. the s-form of the unit congruence",
        f"twist delta = {delta}, normalized (z', s') = ({z1}, {s1})",
    ]
    s_unit = s1 / Fraction(2) ** v
    const = (s_unit - 1) / 4
    exp_cs = [L.zero] * (r + 1)
    exp_cs[r] = L.one
    for k, ck in enumerate(c_coefficients(r), start=1):
        exp_cs[r - 2 * k] = L.mul(
            L.from_rational(ck * z1**k), L.pi_power(-(2 * v + 4) * k)
        )
    exp_cs[0] = L.add(exp_cs[0], L.from_rational(const))

    model = res.equation
    base_defined = all(L.is_base(c) for c in model.Q.cs + model.P.cs)
    result = _certify(
        label, r, L, model, res.factor, (Poly(Rx, [L.one]), Poly(Rx, exp_cs)),
        L.from_rational(certified_disc(C_ZS, r, QQ, (z1, s1))), UNIT, SMOOTH,
        field_of_definition="base" if base_defined else "ramified-degree-r",
        base_defined=base_defined, notes=notes,
    )
    _require(
        base_defined == field_of_definition(z, s, r),
        label,
        "base-definition matches the congruence criterion r | v2(s'^2)+4",
    )
    return result


@dataclass(frozen=True)
class OddGoodCertificate:
    """The odd-degree chain at one r, certified for the whole hypothesis class."""

    r: int
    fibers: dict  # (zeta mod pi, A mod 2) -> CertifiedFiber
    disc_val: Fraction  # of the final model, the same at every (z, s)

    def _chain_parameters(self, z, s):
        """(L, zeta, delta, z', s', v) at (z, s): L = Q(2^(1/r)), the twist,
        v = v2(s') and zeta = z'/pi^(2v+4) in L."""
        r = self.r
        z, s = _check_hypothesis(z, s, r)
        delta, z1, s1 = normalize_twist(z, s, r)
        v = v2(s1)
        L = TameField(r)
        return L, L.mul(L.from_rational(z1), L.pi_power(-(2 * v + 4))), delta, z1, s1, v

    def base_defined(self, z, s) -> bool:
        """Whether the certified model at (z, s) is defined over Q_2.

        Its X^(r-2) coefficient is c_1 zeta with c_1 != 0 and every other
        coefficient is an integer times a power of zeta or A, so this holds
        iff zeta lies in the base field.
        """
        L, zeta, *_ = self._chain_parameters(z, s)
        return L.is_base(zeta)

    def result(self, z, s) -> PipelineResult:
        """The odd-degree good-reduction result at (z, s), read off the certificate.

        Same model, fiber, discriminant and base-field verdict as
        `pipeline_odd_good_reduction(z, s, r)` without running its chain: the
        certified closed model is instantiated at (zeta, A), its fiber is the
        certified one of (zeta, A) mod pi, and its discriminant is the
        certified factor rho^(-2r(r-1)) = 2^(-(v+2)(r-1)) times the closed
        form at (z', s').
        """
        r = self.r
        L, zeta, delta, z1, s1, v = self._chain_parameters(z, s)
        Rx = PolyRing(L, "x")
        A = (s1 / Fraction(2) ** v - 1) / 4
        model = HyperEq(Rx.one, czs_polynomial(r, zeta, L.from_rational(A), Rx), (r - 1) // 2)
        base_defined = L.is_base(zeta)
        return _result(
            f"odd-good/r={r}", r, model,
            L.from_rational(
                certified_disc(C_ZS, r, QQ, (z1, s1)) / Fraction(2) ** ((v + 2) * (r - 1))
            ),
            self.disc_val,
            self.fibers[L.residue_bit(zeta), rational_residue_bit(A)],
            field_of_definition="base" if base_defined else "ramified-degree-r",
            base_defined=base_defined,
            notes=[f"certified for its congruence class by odd_good_certificate({r})",
                   f"twist delta = {delta}, normalized (z', s') = ({z1}, {s1})"],
        )


@lru_cache(maxsize=None)
def odd_good_certificate(r: int) -> OddGoodCertificate:
    """The odd-degree chain, certified once for every (z, s) of the hypothesis.

    After twist normalization v = v2(s') is even and s'/2^v = 1 mod 4.  With
    rho = pi^((v+2)/2), zeta = z'/rho^4 and A = (s'/2^v - 1)/4, the pair is
    z' = zeta rho^4, s' = rho^(2r) (1 + 4A)/4, so v enters only through rho.
    With rho, zeta and A as symbols, this certifies:

    * the chain's change x = rho^2 X, y = rho^r Y + rho^r/2 sends
      y^2 = C_zs(x; z', s') to y^2 + y = X^r + sum_k c_k zeta^k X^(r-2k) + A
      (C_zs is isobaric for the weights (x, z, s) = (1, 2, r); then the
      square is completed) and scales the discriminant by rho^(-2r(r-1));
    * the c_k are integers and c_1 = -r is odd; zeta has valuation
      (r v2(z') - 2v - 4)/r >= 0 by the hypothesis and A lies in Z_2, so
      the model is integral;
    * its X^(r-2) coefficient is c_1 zeta, so since c_1 != 0 the model is
      defined over Q_2 iff zeta is, i.e. iff r | 2v + 4
      (`OddGoodCertificate.base_defined`; `field_of_definition` is the
      congruence);
    * its special fiber, which depends only on (zeta, A) mod pi, is smooth
      for each of the four classes;
    * its discriminant, the closed form at (zeta, S = (1 + 4A)/4), is
      +-r^r ((1 + 4A)^2 - 64 zeta^r)^((r-1)/2): integral, with an odd
      constant term and every other coefficient even, hence a unit.

    A violated claim raises PipelineAssertionFailed, which is not cached.
    """
    check_odd_prime(r)
    label = f"odd-good certificate/r={r}"
    g = (r - 1) // 2
    cs = c_coefficients(r)
    _require(all(c.denominator == 1 for c in cs) and cs[0] == -r, label,
             "the c_k are integers and c_1 = -r is odd")

    # Q[rho^+-1][A][zeta]; rho's declared weight is never read, since the
    # identity is one of Laurent polynomials in rho and so holds at every rho
    lring = LaurentRing(FormalParam("rho", 1))
    aring = PolyRing(lring, "A")
    dom = PolyRing(aring, "zeta")
    Rx = PolyRing(dom, "x")
    rho = dom.const(aring.const(lring.gen))
    zeta, A = dom.gen, dom.const(aring.gen)
    rho_r = dom.pow(rho, r)
    s1 = dom.mul(dom.mul(rho_r, rho_r), dom.add(dom.from_rational(Fraction(1, 4)), A))
    E0 = build_curve(C_ZS, r, z=dom.mul(zeta, dom.pow(rho, 4)), s=s1, dom=dom).equation
    shift = Rx.const(dom.mul(rho_r, dom.from_rational(Fraction(1, 2))))
    res = apply_change(
        E0, MobiusChange(dom.pow(rho, 2), dom.zero, dom.zero, dom.one, rho_r, shift)
    )
    _require(
        res.equation == HyperEq(Rx.one, czs_polynomial(r, zeta, A, Rx), g),
        label,
        "x = rho^2 X, y = rho^r Y + rho^r/2 gives y^2 + y = X^r + sum_k c_k zeta^k "
        "X^(r-2k) + A for every rho",
    )
    _require(res.factor == dom.pow(rho, -2 * r * (r - 1)), label,
             "the change scales the discriminant by rho^(-2r(r-1))")
    _require(cs[0] != 0 and res.equation.P.coeff(r - 2) == dom.mul(dom.from_int(cs[0]), zeta),
             label, "the X^(r-2) coefficient is c_1 zeta with c_1 != 0, so the model "
             "is defined over Q_2 iff zeta is")

    # the model has integer coefficients in (zeta, A), so its reduction is
    # that of the integer model at the residues 0 or 1
    Qx = PolyRing(QQ, "x")
    fibers = {}
    for key in ((0, 0), (0, 1), (1, 0), (1, 1)):
        rep = HyperEq(Qx.one, czs_polynomial(r, Fraction(key[0]), Fraction(key[1]), Qx), g)
        fibers[key] = fib = _fiber(rep, rational_residue_bit)
        _require(fib.kind == "smooth", label, f"smooth special fiber at (zeta, A) = {key} mod pi")

    dring = PolyRing(PolyRing(QQ, "A"), "zeta")
    S = dring.add(dring.from_rational(Fraction(1, 4)), dring.const(dring.base.gen))
    disc = certified_disc(C_ZS, r, dring, (dring.gen, S))
    const = disc.coeff(0).coeff(0)
    rest = [c for i, zc in enumerate(disc.cs) for j, c in enumerate(zc.cs) if c and i + j]
    _require(
        const.denominator == 1 and const.numerator % 2 == 1
        and all(c.denominator == 1 and c.numerator % 2 == 0 for c in rest),
        label,
        "discriminant is integral with odd constant term and even other terms",
    )
    return OddGoodCertificate(r, fibers, Fraction(0))
