from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frey2.algebra import (
    Domain,
    Poly,
    PolyRing,
    QQ,
    ZZ,
    bareiss_det,
    _ONE_NORM,
    _unpack,
    discriminant,
    ext_gcd,
    gcd_monic,
    kronecker_coeffs,
    resultant,
    sylvester_matrix,
    v2,
)
from frey2.errors import DivisionByZero, InexactDivision, ZeroElement, ZeroInput
from frey2.gf2 import gf2k
from frey2.localfield import FormalParam, Laurent, LaurentRing, TameField

R = PolyRing(QQ, "x")
x = R.gen


def P(*coeffs):
    """Polynomial from coefficients, lowest degree first."""
    return R.from_coeffs(coeffs)


def test_v2():
    assert v2(8) == 3
    assert v2(Fraction(7, 4)) == -2
    assert v2(Fraction(-12, 5)) == 2
    with pytest.raises(ZeroElement):
        v2(0)


def test_resultant_examples():
    assert resultant(x, x * x + 1) == 1
    assert resultant(x - 2, x - 5) == -3
    assert resultant(x * x - 1, x - 1) == 0


def test_resultant_edge_cases():
    with pytest.raises(ZeroInput):
        resultant(R.zero, R.zero)
    assert resultant(R.zero, x + 1) == 0
    assert resultant(P(3), P(5)) == 1
    assert resultant(P(3), x**3 - 7) == 27
    assert resultant(x**3 - 7, P(3)) == 27


def test_discriminant_examples():
    assert discriminant(x * x + 3 * x + 2) == 1
    assert discriminant(x**3 - 3 * x + 2) == 0
    assert discriminant(x**3 - 3 * x + Fraction(7, 4)) == Fraction(405, 16)


def test_discriminant_linear_is_one():
    assert discriminant(2 * x + 5) == 1


coeffs = st.integers(min_value=-6, max_value=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(coeffs, min_size=2, max_size=6), st.lists(coeffs, min_size=2, max_size=6))
def test_resultant_swap_sign(ac, bc):
    A, B = P(*ac), P(*bc)
    if A.is_zero() or B.is_zero():
        return
    assert resultant(A, B) == (-1) ** (A.degree() * B.degree()) * resultant(B, A)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(coeffs, min_size=2, max_size=5),
    st.lists(coeffs, min_size=2, max_size=4),
    st.booleans(),
)
def test_disc_zero_iff_repeated_factor(ac, bc, plant):
    A, B = P(*ac), P(*bc)
    if A.degree() < 1 or B.degree() < 1:
        return
    H = A * A * B if plant else A * B
    if H.degree() < 1:
        return
    d = discriminant(H)
    g = gcd_monic(H, H.derivative())
    assert (d == 0) == (g.degree() > 0)
    if plant:
        assert d == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(coeffs, min_size=3, max_size=6), st.integers(min_value=-5, max_value=5))
def test_disc_homogeneity(ac, c):
    H = P(*ac)
    if H.degree() < 1 or c == 0:
        return
    n = H.degree()
    scaled = H.scale(Fraction(c))
    assert discriminant(scaled) == Fraction(c) ** (2 * n - 2) * discriminant(H)


def _fraction_gauss_det(rows):
    """Independent determinant: plain fraction Gaussian elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det


def test_bareiss_against_fraction_gauss(rng):
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(rows, QQ) == _fraction_gauss_det(rows)


def _cofactor_det(rows, dom):
    """Independent determinant: Laplace expansion along the first row."""
    if not rows:
        return dom.one
    det = dom.zero
    for j, a in enumerate(rows[0]):
        if dom.is_zero(a):
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = dom.mul(a, _cofactor_det(minor, dom))
        det = dom.add(det, term if j % 2 == 0 else dom.neg(term))
    return det


@st.composite
def square_matrices(draw):
    """(domain, rows): up to 5x5 over QQ, Q(2^(1/3)) or Q(2^(1/5)), sparse
    entries, and the top of the first column zeroed so Bareiss must swap rows."""
    dom = draw(st.sampled_from([QQ, TameField(3), TameField(5)]))
    n = draw(st.integers(min_value=1, max_value=5))
    rational = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
    )
    if dom is QQ:
        entry = rational
    else:
        entry = st.lists(rational, min_size=dom.r, max_size=dom.r).map(dom.element)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    for i in range(draw(st.integers(min_value=0, max_value=n))):
        rows[i][0] = dom.zero
    return dom, rows


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_bareiss_against_cofactor_expansion(case):
    dom, rows = case
    assert bareiss_det(rows, dom) == _cofactor_det(rows, dom)


Rt = PolyRing(QQ, "t")


@st.composite
def rational_matrices(draw):
    """(domain, rows): up to 5x5 over QQ or QQ[t] with entries of degree <= 3,
    signed rational coefficients with denominators, zero entries, and the
    top of the first column zeroed so the elimination must swap rows."""
    dom = draw(st.sampled_from([QQ, Rt]))
    n = draw(st.integers(min_value=1, max_value=5))
    rational = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
    )
    if dom is QQ:
        entry = rational
    else:
        entry = st.lists(rational, max_size=4).map(dom.from_coeffs)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    for i in range(draw(st.integers(min_value=0, max_value=n))):
        rows[i][0] = dom.zero
    return dom, rows


@settings(max_examples=80, deadline=None)
@given(rational_matrices())
def test_integer_bareiss_against_cofactor_expansion(case):
    dom, rows = case
    det = bareiss_det(rows, dom)
    assert det == _cofactor_det(rows, dom)
    coeffs = det.cs if dom is Rt else (det,)
    assert all(type(c) is Fraction for c in coeffs)


@pytest.mark.parametrize("dom", [QQ, Rt])
@pytest.mark.parametrize("sign", [1, -1])
def test_integer_bareiss_coefficient_at_the_bound(dom, sign):
    # Single-term diagonal entries: cleared row by row, the row norms are 3,
    # 5 and 17, and the one nonzero coefficient of the cleared determinant is
    # their product +-255, the Leibniz bound itself.  The elimination runs on
    # Fractions and QQ[t] entries; the one packed computation of this kind,
    # the curve discriminant over QQ and QQ[t], is held to the R formula in
    # `tests/test_curves.py`.
    t = Rt.gen if dom is Rt else QQ.one
    entries = [Fraction(3, 2), Fraction(5, 4), Fraction(17 * sign, 8)]
    rows = [[dom.zero] * 3 for _ in range(3)]
    for i, a in enumerate(entries):
        rows[i][i] = dom.mul(dom.from_rational(a), dom.pow(t, i + 1))
    det = bareiss_det(rows, dom)
    assert det == dom.mul(dom.from_rational(Fraction(255 * sign, 64)), dom.pow(t, 6))
    assert det == _cofactor_det(rows, dom)


@st.composite
def rational_operands(draw):
    """(domain, A, B) over QQ or QQ[t]: degrees 0 to 4, coefficients of degree
    <= 3 in t with signed numerators and denominators up to 12, larger than
    those of `prs_operands`."""
    dom = draw(st.sampled_from([QQ, Rt]))
    rational = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    entry = rational if dom is QQ else st.lists(rational, max_size=4).map(dom.from_coeffs)
    ring = PolyRing(dom, "x")
    nonzero = entry.filter(lambda e: not dom.is_zero(e))
    operand = st.builds(
        lambda low, top: ring.from_coeffs(low + [top]),
        st.lists(st.one_of(st.just(dom.zero), entry), max_size=4),
        nonzero,
    )
    return dom, draw(operand), draw(operand)


@settings(max_examples=80, deadline=None)
@given(rational_operands())
def test_packed_resultant_against_sylvester_elimination(case):
    dom, A, B = case
    res = resultant(A, B)
    assert res == bareiss_det(sylvester_matrix(A, B), dom)
    assert resultant(B, A) == dom.mul(dom.from_int((-1) ** (A.degree() * B.degree())), res)
    coeffs = res.cs if dom is Rt else (res,)
    assert all(type(c) is Fraction for c in coeffs)
    if dom is Rt and coeffs:
        assert coeffs[-1] != 0


@pytest.mark.parametrize("dom", [QQ, Rt])
@pytest.mark.parametrize("sign", [1, -1])
def test_packed_resultant_coefficient_in_the_top_bit(dom, sign):
    # A = x/2 and B = (x^2 + 256 sign t^3)/4 clear to x and x^2 + 256 sign t^3,
    # whose resultant 256 sign t^3 is as wide, 9 bits, as the Leibniz bound
    # 1^2 * 257 of their Sylvester rows.  The degrees differ, so over QQ and
    # QQ[t] alike Res(A, B) is the cleared resultant divided by 2^2 * 4^1,
    # not by 2^1 * 4^2, in either argument order.
    t = Rt.gen if dom is Rt else QQ.one
    ring = PolyRing(dom, "x")
    X = ring.gen
    A = X.scale(dom.from_rational(Fraction(1, 2)))
    B = (X * X + ring.const(dom.mul(dom.from_int(256 * sign), dom.pow(t, 3)))).scale(
        dom.from_rational(Fraction(1, 4))
    )
    want = dom.mul(dom.from_int(16 * sign), dom.pow(t, 3))
    assert resultant(A, B) == want
    assert resultant(B, A) == want
    assert want == bareiss_det(sylvester_matrix(A, B), dom)


QQzs = PolyRing(PolyRing(QQ, "z"), "s")
LAURENT = LaurentRing(FormalParam("u", 1))
GF16 = gf2k(4)
PRS_DOMAINS = [QQ, Rt, QQzs, TameField(3), TameField(5), LAURENT, GF16]


def _elements(dom):
    """Small, often zero, elements of one of PRS_DOMAINS."""
    q = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=3))
    if dom is QQ:
        return q
    if dom is GF16:
        return st.integers(min_value=0, max_value=15)
    if dom is LAURENT:
        return st.dictionaries(st.integers(min_value=-2, max_value=2), q, max_size=3).map(
            lambda terms: Laurent(dom, terms)
        )
    if dom is Rt:
        return st.lists(q, max_size=3).map(dom.from_coeffs)
    if dom is QQzs:
        inner = st.lists(q, max_size=2).map(dom.base.from_coeffs)
        return st.lists(inner, max_size=2).map(dom.from_coeffs)
    # at most two nonzero coordinates keep the oracle's tame inverses cheap
    return st.dictionaries(st.integers(min_value=0, max_value=dom.r - 1), q, max_size=2).map(
        lambda cs: dom.element([cs.get(i, 0) for i in range(dom.r)])
    )


@st.composite
def prs_operands(draw):
    """(domain, A, B) in one of four shapes, in either argument order:
    unrelated operands of degree 0 to 3; A = Q B + R with deg R <= deg B - 2,
    so the step from (B, R) skips a degree (a non-normal PRS); a common
    factor of degree 1, so the resultant is 0; and a constant A."""
    dom = draw(st.sampled_from(PRS_DOMAINS))
    elem = _elements(dom)
    nonzero = elem.filter(lambda e: not dom.is_zero(e))
    ring = PolyRing(dom, "x")

    # GF(2^k).from_int reduces mod 2, so its ints are field elements as they are
    build = (lambda cs: Poly(ring, cs)) if dom is GF16 else ring.from_coeffs

    def poly(max_deg, min_deg=0):
        deg = draw(st.integers(min_value=min_deg, max_value=max_deg))
        return build(draw(st.lists(elem, min_size=deg, max_size=deg)) + [draw(nonzero)])

    shape = draw(st.sampled_from(["plain", "gap", "common", "constant"]))
    if shape == "gap":
        B = poly(3, min_deg=2)
        A = poly(2) * B + poly(B.degree() - 2)
    elif shape == "common":
        C = poly(1, min_deg=1)
        A, B = poly(2) * C, poly(2) * C
    else:
        A, B = poly(0 if shape == "constant" else 3), poly(3)
    if draw(st.booleans()):
        A, B = B, A
    return dom, A, B


_GAP_B = P(1, 1, 0, 0, 3)


@settings(max_examples=80, deadline=None)
@given(prs_operands())
# the step from (B, 9(2x^2 + x + 5)) has delta = 2 and h = lc(B) = 3, and
# the h it leaves divides the last step: the general h^(1-delta) g^delta
@example((QQ, x * _GAP_B + P(5, 1, 2), _GAP_B))
def test_prs_resultant_against_sylvester_elimination(case):
    dom, A, B = case
    res = resultant(A, B)
    assert res == bareiss_det(sylvester_matrix(A, B), dom)
    sign = dom.from_int((-1) ** (A.degree() * B.degree()))
    assert resultant(B, A) == dom.mul(sign, res)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=1, max_size=4),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=1, max_size=3),
    st.booleans(),
)
def test_rational_discriminant_against_sylvester_elimination(ac, bc, square):
    # H = A^2 B has a repeated factor when deg A >= 1, so disc(H) = 0
    A, B = P(*ac), P(*bc)
    if A.is_zero() or B.is_zero():
        return
    H = A * A * B if square else A * B
    n = H.degree()
    if n < 1:
        return
    want = bareiss_det(sylvester_matrix(H, H.derivative()), QQ) / H.lc()
    d = discriminant(H)
    assert d == (-want if n * (n - 1) // 2 % 2 else want)
    assert type(d) is Fraction


def test_rational_pow():
    assert QQ.pow(Fraction(-2, 3), 3) == Fraction(-8, 27)
    assert QQ.pow(Fraction(-2, 3), -2) == Fraction(9, 4)
    assert type(QQ.pow(2, 0)) is Fraction and QQ.pow(2, 0) == 1
    assert QQ.pow(Fraction(0), 5) == 0
    with pytest.raises(DivisionByZero):
        QQ.pow(Fraction(0), -1)


def test_integer_ring_exact_division():
    assert ZZ.exact_div(12, -4) == -3
    assert ZZ.exact_div(-(3**80), 3**40) == -(3**40)
    with pytest.raises(InexactDivision):
        ZZ.exact_div(7, 2)
    with pytest.raises(DivisionByZero):
        ZZ.exact_div(1, 0)


def test_integer_ring_from_rational():
    assert ZZ.from_int(-5) == -5
    for q in (Fraction(3), Fraction(-12, 4), 7):
        assert ZZ.from_rational(q) == q and type(ZZ.from_rational(q)) is int
    for q in (Fraction(3, 2), Fraction(-1, 3)):
        with pytest.raises(InexactDivision):
            ZZ.from_rational(q)


# --- balanced digits and evaluation at 2^K --------------------------------


def _unpack_loop(n, B):
    """Reference: balanced base-2^B digits of n by one shift per digit
    (quadratic in the size of n)."""
    half, mask = 1 << (B - 1), (1 << B) - 1
    digits = []
    while n:
        c = n & mask
        if c >= half:
            c -= mask + 1
        digits.append(c)
        n = (n - c) >> B
    return digits


@st.composite
def digit_lists(draw):
    """(digits, B): balanced base-2^B digits, extremes drawn often."""
    B = draw(st.one_of(st.integers(2, 10), st.integers(2, 300), st.sampled_from([8, 16, 64])))
    half = 1 << (B - 1)
    digit = st.one_of(st.sampled_from([0, 1, -1, half - 1, -half]), st.integers(-half, half - 1))
    return draw(st.lists(digit, max_size=40)), B


@settings(max_examples=200, deadline=None)
@given(digit_lists(), st.integers(-(2**200), 2**200))
@example(([2**79 - 1, -(2**79)] * 1500, 80), 0)  # 3,000 digits of 80 bits
@example(([0] * 15 + [1], 2), -(2**30))  # the least values that take a group
def test_unpack_against_the_shift_loop(case, n):
    digits, B = case
    packed = sum(d << (B * i) for i, d in enumerate(digits))
    want = list(digits)
    while want and not want[-1]:
        want.pop()
    assert _unpack(packed, B) == _unpack_loop(packed, B) == want
    assert _unpack(n, B) == _unpack_loop(n, B)
    assert sum(d << (B * i) for i, d in enumerate(_unpack(n, B))) == n


# Random integer expressions in t, as trees, evaluated through the domain
# protocol like the closed-form formulas of `families`.
expressions = st.recursive(
    st.one_of(
        st.just(("t",)),
        st.tuples(st.sampled_from(["int", "rat"]), st.integers(-(2**40), 2**40)),
    ),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul"]), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("pow"), sub, st.integers(0, 5)),
    ),
    max_leaves=12,
)


def _evaluate(expr, dom, t):
    op = expr[0]
    if op == "t":
        return t
    if op == "int":
        return dom.from_int(expr[1])
    if op == "rat":
        return dom.from_rational(Fraction(2 * expr[1], 2))
    if op == "neg":
        return dom.neg(_evaluate(expr[1], dom, t))
    if op == "pow":
        return dom.pow(_evaluate(expr[1], dom, t), expr[2])
    a, b = _evaluate(expr[1], dom, t), _evaluate(expr[2], dom, t)
    return getattr(dom, op)(a, b)


@settings(max_examples=150, deadline=None)
@given(expressions)
@example(("sub", ("pow", ("t",), 3), ("pow", ("t",), 3)))  # zero
@example(("int", 2**40 - 1))  # a coefficient at the bound, in the top bit
@example(("mul", ("int", -(2**40)), ("pow", ("sub", ("t",), ("int", 1)), 5)))
def test_kronecker_coeffs_against_poly_arithmetic(expr):
    """The one-norm majorant bounds every coefficient, and the packed
    evaluation equals the same formula run on QQ[t] polynomials."""
    ref = _evaluate(expr, Rt, Rt.gen)
    bound = _evaluate(expr, _ONE_NORM, 1)
    assert sum(abs(c) for c in ref.cs) <= bound
    got = kronecker_coeffs(lambda dom, t: _evaluate(expr, dom, t))
    assert got == list(ref.cs) and all(type(c) is Fraction for c in got)


def test_kronecker_coeffs_never_rounds():
    with pytest.raises(InexactDivision):
        kronecker_coeffs(lambda dom, t: dom.mul(dom.from_rational(Fraction(1, 2)), t))
    assert kronecker_coeffs(lambda dom, t: dom.mul(dom.from_rational(Fraction(6, 3)), t)) == [0, 2]


@pytest.mark.parametrize("dom", [QQ, Rt])
def test_integer_bareiss_edge_cases(dom):
    t = dom.one if dom is QQ else Rt.gen
    a = dom.from_rational(Fraction(-7, 3))
    assert bareiss_det([], dom) == dom.one
    assert bareiss_det([[a]], dom) == a
    assert bareiss_det([[dom.mul(a, t)]], dom) == dom.mul(a, t)
    zero_row = [[a, t], [dom.zero, dom.zero]]
    assert bareiss_det(zero_row, dom) == dom.zero
    assert bareiss_det(zero_row[::-1], dom) == dom.zero


@pytest.mark.parametrize("base", [TameField(3), Rt], ids=["tame3", "qq_t"])
def test_fraction_coefficients_lift_into_the_base(base):
    R2 = PolyRing(base, "x")
    half = base.from_rational(Fraction(1, 2))
    p = R2.from_coeffs([Fraction(1, 2), 1])
    assert p.coeff(0) == half
    assert p * p == R2.from_coeffs([Fraction(1, 4), 1, 1])
    assert R2.coerce(Fraction(1, 2)) == R2.const(half)
    assert p - Fraction(1, 2) == R2.gen


def test_bivariate_resultant():
    Rt = PolyRing(QQ, "t")
    Rx = PolyRing(Rt, "x")
    t = Rt.gen
    X = Rx.gen
    # res_x(x - t, x - 2t) = t - 2t = -t  up to sign convention: eval at root
    A = X - Rx.const(t)
    B = X - Rx.const(2 * t)
    assert resultant(A, B) == -t
    # discriminant of x^2 - t is 4t
    assert discriminant(X * X - Rx.const(t)) == 4 * t


def test_exact_division():
    A = (x + 1) * (x * x - 3)
    assert A.exact_div(x + 1) == x * x - 3
    with pytest.raises(InexactDivision):
        A.exact_div(x + 2)
    Rt = PolyRing(QQ, "t")
    Rx = PolyRing(Rt, "x")
    t = Rt.gen
    X = Rx.gen
    B = (X.scale(t) + Rx.one) * (X - Rx.const(t))
    assert B.exact_div(X - Rx.const(t)) == X.scale(t) + Rx.one


def test_ext_gcd():
    A = (x + 1) * (x - 2)
    B = (x + 1) * (x + 3)
    g, u, v = ext_gcd(A, B)
    assert g == x + 1
    assert u * A + v * B == g


def test_divmod_roundtrip(rng):
    for _ in range(50):
        A = P(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 7))])
        B = P(*([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [1]))
        q, r = A.divmod(B)
        assert q * B + r == A
        assert r.degree() < B.degree()


def test_compose_and_eval():
    f = x**3 - 3 * x
    assert f.eval(Fraction(2)) == 2
    assert f.compose(-x) == -(x**3) + 3 * x
    assert f.compose(2 - x * x).eval(Fraction(0)) == f.eval(Fraction(2))


# --- products over QQ (packed) against the schoolbook loop, and pow -------


def _schoolbook(p, q):
    """Reference product: the coefficient loop, recursing into nested
    QQ polynomial coefficients, so no product here is packed."""
    if p.is_zero() or q.is_zero():
        return p.ring.zero
    base = p.base
    mul = _schoolbook if isinstance(base, PolyRing) else base.mul
    out = [base.zero] * (len(p.cs) + len(q.cs) - 1)
    for i, a in enumerate(p.cs):
        for j, b in enumerate(q.cs):
            out[i + j] = base.add(out[i + j], mul(a, b))
    return Poly(p.ring, out)


Rz = PolyRing(QQ, "z")
Rtx = PolyRing(Rt, "x")
Rzs = PolyRing(Rz, "s")

# Signed numerators up to 2^70 over small denominators, so the two operands
# usually have coprime denominator lcms; zero is drawn often so the lists
# carry interior zeros.
packed_rational = st.one_of(
    st.just(Fraction(0)),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**70), max_value=2**70),
        st.sampled_from([1, 2, 3, 4, 5, 7, 9, 16, 25, 27]),
    ),
)


@st.composite
def product_operands(draw):
    """(p, q) over QQ[x], QQ[t][x] or QQ[z][s], of independent lengths 0..7;
    QQ operands may hold plain ints, as `Poly(ring, [...])` keeps them."""
    ring = draw(st.sampled_from([R, Rtx, Rzs]))

    def operand():
        if ring is R:
            cs = draw(st.lists(st.one_of(packed_rational, st.integers(-9, 9)), max_size=7))
            return Poly(R, cs)
        inner = st.lists(packed_rational, max_size=4).map(ring.base.from_coeffs)
        return ring.from_coeffs(draw(st.lists(inner, max_size=5)))

    return operand(), operand()


def _rational_coeffs(p):
    return [c for inner in p.cs for c in inner.cs] if isinstance(p.base, PolyRing) else list(p.cs)


@settings(max_examples=200, deadline=None)
@given(product_operands())
@example((Poly(R, [Fraction(-5, 3)] * 3), Poly(R, [Fraction(-5, 7)] * 4)))  # middle = bound
def test_packed_product_against_schoolbook(case):
    p, q = case
    prod = p * q
    ref = _schoolbook(p, q)
    assert prod == ref and hash(prod) == hash(ref)
    assert prod == q * p
    assert all(type(c) is Fraction for c in _rational_coeffs(prod))
    assert not prod.cs or not prod.base.is_zero(prod.cs[-1])


@pytest.mark.parametrize("la, lb", [(1, 1), (3, 3), (2, 5), (6, 4)])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("den", [1, 6])
def test_packed_product_coefficient_at_the_bound(la, lb, sign, den):
    # Every coefficient is +-M/den, so after clearing every one is +-M and
    # the middle coefficients of the product are sign * min(la, lb) * M^2,
    # exactly the bound that sets the digit width.
    M = 2**13 - 1
    a = Poly(R, [Fraction(M, den)] * la)
    b = Poly(R, [Fraction(sign * M, den)] * lb)
    prod = a * b
    bound = min(la, lb) * M * M
    assert max(abs(c) for c in prod.cs) * den * den == bound
    assert prod.cs[min(la, lb) - 1] == Fraction(sign * bound, den * den)
    assert prod == _schoolbook(a, b)


def test_packed_product_invariants():
    a = Poly(R, [3, 0, -2])  # plain ints, kept as given
    b = Poly(R, [Fraction(1, 3), 5])
    for p, q in [(a, b), (b, a), (a, a)]:
        prod = p * q
        ref = _schoolbook(p, q)
        assert prod == ref and hash(prod) == hash(ref)
        assert all(type(c) is Fraction for c in prod.cs)
        assert prod.cs[-1] != 0
    assert (a * b).cs == (1, 15, Fraction(-2, 3), -10)
    for zero in (R.zero, Poly(R, [0, 0])):
        assert (a * zero) is R.zero and (zero * a) is R.zero


class _CountingDomain(Domain):
    """Delegates to `inner` and counts multiplications."""

    def __init__(self, inner):
        self.inner, self.one, self.count = inner, inner.one, 0

    def mul(self, a, b):
        self.count += 1
        return self.inner.mul(a, b)


class _CountingPolyRing(PolyRing):
    def __init__(self, base, var):
        super().__init__(base, var)
        self.count = 0

    def mul(self, a, b):
        self.count += 1
        return a * b


def _square_and_multiply_count(n):
    """bit_length(n) - 1 squarings and popcount(n) products; none for n = 0."""
    return n.bit_length() - 1 + bin(n).count("1") if n else 0


@pytest.mark.parametrize(
    "dom, a",
    [
        (QQ, Fraction(-3, 2)),
        (TameField(5), (Fraction(1), Fraction(-1, 3), 0, 0, Fraction(2))),
    ],
    ids=["qq", "tame5"],
)
def test_pow_is_one_square_and_multiply(dom, a):
    a = dom.element(a) if isinstance(dom, TameField) else a
    counting = _CountingDomain(dom)
    ref = dom.one
    for n in range(65):
        counting.count = 0
        assert counting.pow(a, n) == ref
        assert counting.count == _square_and_multiply_count(n)
        ref = dom.mul(ref, a)


def test_poly_pow_delegates_to_the_ring():
    ring = _CountingPolyRing(QQ, "t")
    a = ring.from_coeffs([Fraction(1, 2), -3, 0, Fraction(5, 7)])
    ref = ring.one
    for n in range(65):
        ring.count = 0
        assert a**n == ref
        assert ring.count == _square_and_multiply_count(n)
        ref = _schoolbook(ref, a)
    with pytest.raises(ValueError):
        a ** -1
