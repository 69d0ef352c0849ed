"""Cross-checks of the exact discriminants and of h against sympy, when it is installed."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frey2.algebra import QQ, PolyRing, discriminant
from frey2.curves import hyper_discriminant
from frey2.families import H_RR, build_curve, omega_min_poly

sympy = pytest.importorskip("sympy")

Rt = PolyRing(QQ, "t")
Rx = PolyRing(Rt, "x")
x, t = sympy.symbols("x t")


def _sympy_poly(p, var):
    """A polynomial over QQ as a sympy expression in var."""
    return sum(sympy.Rational(c.numerator, c.denominator) * var**i for i, c in enumerate(p.cs))


def _sympy_bivariate(H):
    """A polynomial in x over QQ[t] as a sympy expression in x and t."""
    return sum(_sympy_poly(c, t) * x**i for i, c in enumerate(H.cs))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                         max_size=3), min_size=2, max_size=5))
def test_discriminant_over_qq_t(cs):
    H = Rx.from_coeffs([Rt.from_coeffs(c) for c in cs])
    if H.degree() < 1:
        return
    expected = sympy.discriminant(_sympy_bivariate(H), x)
    assert sympy.expand(_sympy_poly(discriminant(H), t) - expected) == 0


def test_hyper_discriminant_h_rr_r7():
    E = build_curve(H_RR, 7).equation
    R = E.R()
    assert E.base == Rt and R.degree() == 2 * E.g + 1
    # odd degree 2g+1: Delta = lc(R)^2 disc(R) / 2^(4(g+1))
    lc = _sympy_poly(R.lc(), t)
    expected = sympy.discriminant(_sympy_bivariate(R), x) * lc**2 / sympy.Integer(2) ** (4 * (E.g + 1))
    assert sympy.expand(_sympy_poly(hyper_discriminant(E), t) - expected) == 0


@pytest.mark.parametrize("r", [3, 5, 7, 11, 13, 17, 19, 23])
def test_omega_min_poly_is_the_minimal_polynomial(r):
    expected = sympy.minimal_polynomial(2 * sympy.cos(2 * sympy.pi / r), x)
    assert sympy.expand(_sympy_poly(omega_min_poly(r), x) - expected) == 0
