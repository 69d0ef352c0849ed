"""Contract edge cases: exit codes on real failures, chart-2 singular points,
and input validation."""

from fractions import Fraction as F

import pytest

from frey2.algebra import Poly, PolyRing
from frey2.classify import classify
from frey2.cli import EXIT_ASSERTION, EXIT_OK, main
from frey2.errors import FieldTooLarge
from frey2.fibers import (
    INFINITY,
    NODE,
    SpecialFiber,
    brute_force_singular,
    fiber_type,
    singular_points,
)
from frey2.gf2 import GF2, GF2k
from frey2.localfield import FormalParam


def test_verify_exit_flips_on_real_failure(monkeypatch, capsys):
    """A check the source states verbatim failing must give a nonzero exit."""
    import frey2.cli as cli

    real = cli.verify_identities

    def broken(r):
        rep = real(r)
        rep.f_plus_2_printed = False
        return rep

    monkeypatch.setattr(cli, "verify_identities", broken)
    code = main(["verify", "--r", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_ASSERTION
    assert "FAIL" in out


def test_documented_mismatches_alone_keep_exit_zero(capsys):
    assert main(["verify", "--r", "3"]) == EXIT_OK


def test_singular_point_at_infinity():
    # y^2 + x y = x^4 + x^3 over GF(2): nodes at (0,0) and at infinity
    R = PolyRing(GF2, "x")
    fib = SpecialFiber(GF2, Poly(R, (0, 1)), Poly(R, (0, 0, 0, 1, 1)), 1)
    pts = singular_points(fib)
    assert fiber_type(fib) == ("nodal", 2)
    inf_pts = [p for p in pts if p.patch == INFINITY]
    assert len(inf_pts) == 1
    assert inf_pts[0].a == 0 and inf_pts[0].b == 1 and inf_pts[0].kind == NODE
    # the brute-force oracle sees the same two points
    assert brute_force_singular(fib, 1) == {("affine", 0, 0), (INFINITY, 0, 1)}


def test_classify_rejects_unknown_mode_and_signature():
    with pytest.raises(ValueError):
        classify("ppr-even", 3, F(1, 8), mode="bogus")
    with pytest.raises(ValueError):
        classify("nope", 3, F(1, 8))


def test_weight_interval_validation():
    with pytest.raises(ValueError):
        FormalParam("u", 0)  # a least weight of 0 is not positive
    with pytest.raises(ValueError):
        FormalParam("u", F(-1, 3))
    with pytest.raises(ValueError):
        FormalParam("u", None)  # no least weight


def test_field_size_caps():
    with pytest.raises(FieldTooLarge):
        GF2k(17)
    # splitting-field search refuses to exceed GF(2^16): an irreducible
    # sextic times an irreducible quintic needs lcm(5, 6) = 30
    R = PolyRing(GF2, "x")
    quintic = Poly(R, (1, 0, 1, 1, 1, 1))     # x^5+x^4+x^3+x^2+1, irreducible
    sextic = Poly(R, (1, 1, 0, 1, 1, 0, 1))   # x^6+x^4+x^3+x+1, irreducible
    from frey2.gf2 import irreducible_factor_degrees

    assert irreducible_factor_degrees(quintic) == {5}
    assert irreducible_factor_degrees(sextic) == {6}
    fib = SpecialFiber(GF2, quintic * sextic, Poly(R, (0, 0, 1)), 10)
    with pytest.raises(FieldTooLarge):
        singular_points(fib)
