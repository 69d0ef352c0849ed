from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frey2.algebra import Poly, PolyRing, QQ, ext_gcd, v2
from frey2.errors import (
    DivisionByZero,
    NonIntegral,
    ValuationAmbiguous,
    ZeroElement,
)
from frey2.localfield import (
    AffineVal,
    FormalParam,
    Laurent,
    LaurentRing,
    TameField,
    _nonnegative_throughout,
    _strictly_below,
    _strictly_positive_attained,
    laurent_integral,
    laurent_residue,
    laurent_substitute,
    laurent_val,
    normalize_twist,
)

T3 = TameField(3)
T5 = TameField(5)


def test_tame_val_examples():
    assert T3.val(T3.pi) == F(1, 3)
    assert T3.val(T3.add(T3.one, T3.pi)) == 0
    assert T3.val(T3.element([2, 0, 4])) == 1  # min(1, 2 + 2/3)


def test_tame_val_zero_raises():
    with pytest.raises(ZeroElement):
        T3.val(T3.zero)
    with pytest.raises(DivisionByZero):
        T3.inv(T3.zero)


def test_tame_defining_relation():
    p3 = T3.mul(T3.mul(T3.pi, T3.pi), T3.pi)
    assert p3 == T3.from_rational(2)
    assert T5.pow(T5.pi, 5) == T5.from_rational(2)
    assert T3.pi_power(-3) == T3.from_rational(F(1, 2))
    assert T3.pi_power(4) == T3.mul(T3.from_rational(2), T3.pi)


def test_tame_inverse_example():
    field = TameField(3)
    field.inv(field.pi)
    assert "_modulus" not in vars(field)  # a monomial needs no modulus
    inv = field.inv(field.add(field.one, field.pi))
    assert inv == field.element([F(1, 3), F(-1, 3), F(1, 3)])
    assert field.mul(inv, field.add(field.one, field.pi)) == field.one
    assert field._modulus.cs == (-2, 0, 0, 1)


def _rand_elt(field, rng):
    while True:
        e = field.element([F(rng.randint(-8, 8), rng.choice([1, 2, 4])) for _ in range(field.r)])
        if any(e):
            return e


def test_tame_val_multiplicative(rng):
    for field in (T3, T5):
        for _ in range(120):
            a, b = _rand_elt(field, rng), _rand_elt(field, rng)
            assert field.val(field.mul(a, b)) == field.val(a) + field.val(b)


def test_tame_val_ultrametric(rng):
    for _ in range(200):
        a, b = _rand_elt(T3, rng), _rand_elt(T3, rng)
        s = T3.add(a, b)
        if not any(s):
            continue
        va, vb, vs = T3.val(a), T3.val(b), T3.val(s)
        assert vs >= min(va, vb)
        if va != vb:
            assert vs == min(va, vb)


def test_tame_val_unit_invariance(rng):
    """Multiplying by a random unit never changes the valuation."""
    for _ in range(100):
        a = _rand_elt(T3, rng)
        u = _rand_elt(T3, rng)
        if T3.val(u) != 0:
            continue
        assert T3.val(T3.mul(a, u)) == T3.val(a)


def _dense_mul(field, a, b):
    """Full product of the coefficient vectors, then pi^(r+k) = 2 pi^k."""
    r = field.r
    full = [F(0)] * (2 * r)
    for i in range(r):
        for j in range(r):
            full[i + j] += a[i] * b[j]
    return tuple(full[k] + 2 * full[k + r] for k in range(r))


def _ext_gcd_inverse(field, a):
    ring = PolyRing(QQ, "pi")
    modulus = Poly(ring, [F(-2)] + [F(0)] * (field.r - 1) + [F(1)])
    g, u, _ = ext_gcd(Poly(ring, a), modulus)
    assert g == ring.one
    return field.element(u.divmod(modulus)[1].cs)


def _is_tame_element(field, a):
    return len(a) == field.r and all(type(c) is F for c in a)


def _sparse_or_dense(r):
    coeff = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4]))
    sparse = st.dictionaries(st.integers(0, r - 1), coeff, max_size=2).map(
        lambda cs: tuple(cs.get(i, F(0)) for i in range(r))
    )
    dense = st.lists(coeff, min_size=r, max_size=r).map(tuple)
    return st.one_of(sparse, dense)


@pytest.mark.parametrize("r", [3, 5, 7])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tame_arithmetic_matches_dense_reference(r, data):
    field = TameField(r)
    a = data.draw(_sparse_or_dense(r))
    b = data.draw(_sparse_or_dense(r))
    for got, want in (
        (field.add(a, b), tuple(x + y for x, y in zip(a, b))),
        (field.sub(a, b), tuple(x - y for x, y in zip(a, b))),
        (field.mul(a, b), _dense_mul(field, a, b)),
    ):
        assert got == want
        assert _is_tame_element(field, got)
    if any(a):
        inv = field.inv(a)
        assert inv == _ext_gcd_inverse(field, a)
        assert field.mul(a, inv) == field.one


@pytest.mark.parametrize("r", [3, 5, 7])
def test_tame_monomial_inverse_matches_ext_gcd(r):
    field = TameField(r)
    for i in range(r):
        for c in (F(-1), F(-6), F(1, 2), F(-3, 8), F(5, 12)):
            a = field.element([0] * i + [c])
            inv = field.inv(a)
            assert inv == _ext_gcd_inverse(field, a)
            assert field.mul(a, inv) == field.one
            assert _is_tame_element(field, inv)


def test_tame_residue():
    assert T3.residue_bit(T3.from_rational(F(7, 3))) == 1
    assert T3.residue_bit(T3.add(T3.from_rational(2), T3.pi)) == 0
    with pytest.raises(NonIntegral):
        T3.residue_bit(T3.from_rational(F(1, 2)))


# --- Laurent models ----------------------------------------------------------


def test_laurent_val_examples():
    Ru = LaurentRing(FormalParam.positive("u", F(1, 7)))
    assert laurent_val(Ru.add(Ru.term(-1), Ru.term(1, 3))) == AffineVal(F(0), 0)
    # 2/u + 4: the falling form 1 - w stays below 2 for every weight
    assert laurent_val(Ru.add(Ru.term(2, -1), Ru.term(4))) == AffineVal(F(1), -1)

    # 4 + 2u^3: the forms 2 and 1 + 3w tie at the least weight 1/3
    R3 = LaurentRing(FormalParam.positive("u", F(1, 3)))
    with pytest.raises(ValuationAmbiguous):
        laurent_val(R3.add(R3.term(4), R3.term(2, 3)))


def test_laurent_val_zero_raises():
    Ru = LaurentRing(FormalParam.positive("u", 1))
    with pytest.raises(ZeroElement):
        laurent_val(Ru.zero)


def test_laurent_residue_examples():
    Ru = LaurentRing(FormalParam.positive("u", F(1, 7)))
    sq = Ru.mul(Ru.add(Ru.term(-1), Ru.term(1, 3)), Ru.add(Ru.term(-1), Ru.term(1, 3)))
    assert laurent_residue(sq) == 1

    Run = LaurentRing(FormalParam.unit("u", residue=1))
    assert laurent_residue(Run.term(1, 2)) == 1
    assert laurent_residue(Run.add(Run.term(3, 3), Run.term(2, 1))) == 1

    # u/2 has valuation w - 1 < 0 at the least weight 1/3
    R3 = LaurentRing(FormalParam.positive("u", F(1, 3)))
    with pytest.raises(NonIntegral):
        laurent_residue(R3.term(F(1, 2), 1))


def test_laurent_residue_refuses_nonuniform():
    # u/2 with least weight 1: integral, but valuation 0 is attained at w = 1
    R = LaurentRing(FormalParam.positive("u", 1))
    elt = R.term(F(1, 2), 1)
    assert laurent_integral(elt)
    with pytest.raises(ValuationAmbiguous):
        laurent_residue(elt)


def test_laurent_exact_div():
    R = LaurentRing(FormalParam.positive("u", 1))
    u = R.gen
    a = R.mul(R.add(u, R.one), R.term(3, -2))
    q = R.exact_div(a, R.add(u, R.one))
    assert q == R.term(3, -2)


# --- Laurent arithmetic against a normalising reference ----------------------
#
# The ring merges its operands' normalized terms without normalizing again;
# the reference accumulates plain dicts and normalizes every result.

def _ref_normalize(pairs):
    acc = {}
    for e, c in pairs:
        acc[e] = acc.get(e, 0) + F(c)
    return tuple(sorted((e, c) for e, c in acc.items() if c))


def _ref_mul(a, b):
    return _ref_normalize((ea + eb, ca * cb) for ea, ca in a for eb, cb in b)


def _assert_normalized(R, got, want_terms):
    want = Laurent(R, want_terms)  # the normalising constructor
    assert got.terms == want_terms and got == want and hash(got) == hash(want)
    exps = [e for e, _ in got.terms]
    assert all(x < y for x, y in zip(exps, exps[1:]))
    assert all(type(c) is F and c != 0 for _, c in got.terms)


laurent_coeffs = st.one_of(
    st.integers(-6, 6), st.builds(F, st.integers(-6, 6), st.integers(1, 6))
)
laurent_pairs = st.lists(st.tuples(st.integers(-5, 5), laurent_coeffs), max_size=5)


@settings(max_examples=300, deadline=None)
@given(laurent_pairs, laurent_pairs, st.booleans(), st.integers(-4, 4), laurent_coeffs)
def test_laurent_arithmetic_matches_normalising_reference(pa, pb, cancel, me, mc):
    R = LaurentRing(FormalParam.positive("u", 1))
    if cancel:  # b = extra - a, so a + b keeps at most the extra terms
        pb = [(e, -F(c)) for e, c in pa] + pb[:1]
    a, b = Laurent(R, pa), Laurent(R, pb)
    ra, rb = _ref_normalize(pa), _ref_normalize(pb)
    assert a.terms == ra and b.terms == rb
    _assert_normalized(R, R.add(a, b), _ref_normalize(ra + rb))
    _assert_normalized(R, R.sub(a, b), _ref_normalize(ra + tuple((e, -c) for e, c in rb)))
    _assert_normalized(R, R.neg(a), _ref_normalize((e, -c) for e, c in ra))
    _assert_normalized(R, R.mul(a, b), _ref_mul(ra, rb))
    if not b.is_zero():
        # (a b) / b = a, with b a monomial or not
        _assert_normalized(R, R.exact_div(R.mul(a, b), b), ra)
    if mc:
        # a one-term divisor shifts and divides; the dense route, reached by
        # multiplying both sides by 1 + u, must agree
        m = R.term(mc, me)
        quotient = _ref_normalize((e - me, c / F(mc)) for e, c in ra)
        _assert_normalized(R, R.exact_div(a, m), quotient)
        one_plus_u = R.add(R.one, R.gen)
        dense = R.exact_div(R.mul(a, one_plus_u), R.mul(m, one_plus_u))
        _assert_normalized(R, dense, quotient)


def test_laurent_substitute():
    src = LaurentRing(FormalParam.positive("tau", 1))
    dst = LaurentRing(FormalParam.unit("w", residue=1))
    # tau - 1 under tau -> w + 1 becomes w
    elt = src.add(src.gen, src.term(-1))
    image = laurent_substitute(elt, dst, dst.add(dst.gen, dst.one))
    assert image == dst.gen


def test_unit_param_tie_is_ambiguous():
    Run = LaurentRing(FormalParam.unit("u", residue=1))
    with pytest.raises(ValuationAmbiguous):
        laurent_val(Run.add(Run.gen, Run.term(-1)))  # u - 1: residues cancel


# --- least weights against evaluation of the term forms ----------------------
#
# On [least, oo) an affine inequality holds throughout iff it holds at
# `least` and at one weight beyond every crossing point: between the two the
# forms are affine, and past the last crossing no order or sign changes.

LEAST_WEIGHTS = (F(1, 5), F(1, 3), F(1, 7), F(1))


def _beyond(forms, least):
    """A weight above `least` and above every crossing of two forms or of a
    form with 0."""
    cuts = [least]
    pairs = [(f, g) for i, f in enumerate(forms) for g in forms[i + 1:]]
    pairs += [(f, AffineVal(F(0))) for f in forms]
    for f, g in pairs:
        if f.slope != g.slope:
            cuts.append((g.const - f.const) / (f.slope - g.slope))
    return max(cuts) + 1


affine_forms = st.builds(
    AffineVal,
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.integers(min_value=-3, max_value=3),
)


@settings(max_examples=200, deadline=None)
@given(affine_forms, affine_forms, st.sampled_from(LEAST_WEIGHTS))
def test_least_weight_predicates_match_evaluation(f, g, least):
    ws = (least, _beyond([f, g], least))
    assert _strictly_below(f, g, least) == all(f.at(w) < g.at(w) for w in ws)
    assert _nonnegative_throughout(f, least) == all(f.at(w) >= 0 for w in ws)
    assert _strictly_positive_attained(f, least) == all(f.at(w) > 0 for w in ws)


coefficients = st.builds(
    lambda sign, odd, k: sign * odd * F(2) ** k,
    st.sampled_from([1, -1]),
    st.sampled_from([1, 3, 5, 7]),
    st.integers(min_value=-3, max_value=3),
)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.integers(min_value=-3, max_value=4), coefficients,
                    min_size=1, max_size=4),
    st.sampled_from(LEAST_WEIGHTS),
)
def test_laurent_least_weight_verdicts_match_evaluation(terms, least):
    R = LaurentRing(FormalParam.positive("u", least))
    a = Laurent(R, terms)
    forms = {e: AffineVal(v2(c), e) for e, c in a.terms}
    ws = (least, _beyond(list(forms.values()), least))

    # valuation: one term strictly below all others at both weights
    winners = set()
    for w in ws:
        low = min(f.at(w) for f in forms.values())
        winners |= {e for e, f in forms.items() if f.at(w) == low}
    if len(winners) == 1:
        assert laurent_val(a) == forms[winners.pop()]
    else:
        with pytest.raises(ValuationAmbiguous):
            laurent_val(a)

    integral = all(f.at(w) >= 0 for f in forms.values() for w in ws)
    assert laurent_integral(a) == integral

    # residue: the constant term mod 2, once every other term is positive
    if not integral:
        with pytest.raises(NonIntegral):
            laurent_residue(a)
    elif any(f.at(w) <= 0 for e, f in forms.items() if e != 0 for w in ws):
        with pytest.raises(ValuationAmbiguous):
            laurent_residue(a)
    else:
        const = dict(a.terms).get(0, F(0))
        assert laurent_residue(a) == (1 if const and v2(const) == 0 else 0)


# --- twist normalization ------------------------------------------------------


def test_normalize_twist_examples():
    assert normalize_twist(1, F(7, 4), 3) == (-1, 1, F(-7, 4))
    assert normalize_twist(1, 2, 3) == (2, 4, 16)
    assert normalize_twist(1, 9, 3) == (1, 1, 9)


@settings(max_examples=1000, deadline=None)
@given(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=1, max_value=48),
    st.sampled_from([3, 5, 7]),
)
def test_normalize_twist_postcondition(zn, zd, sn, sd, r):
    if zn == 0 or sn == 0:
        return
    z, s = F(zn, zd), F(sn, sd)
    delta, z1, s1 = normalize_twist(z, s, r)
    assert delta in (1, -1, 2, -2)
    assert z1 == delta * delta * z
    assert s1 == F(delta) ** r * s
    assert v2(s1) % 2 == 0
    unit = s1 / F(2) ** v2(s1)
    assert (unit.numerator * unit.denominator) % 4 == 1
    # idempotence in the twist class: a second call is trivial
    d2, z2, s2 = normalize_twist(z1, s1, r)
    assert (d2, z2, s2) == (1, z1, s1)
