"""Acceptance suite: one test per stated criterion, all checks exact.

Each test prints a PASS/FAIL line through the conftest terminal-summary
hook and pins its stated runtime budget.  The two known printed-source
discrepancies (the C_plus closed form, off by exactly 2^(4g), and the
odd-degree congruence class) are asserted in their exact corrected form
and additionally tracked as strict xfails so the literal printed claims
stay visible in the report without failing the suite.
"""

import time
from fractions import Fraction as F

import pytest

from conftest import record_criterion

from frey2.algebra import PolyRing, QQ, v2
from frey2.classify import (
    PRINCIPAL_SERIES,
    SUPERCUSPIDAL,
    TABLE_AS_PRINTED,
    classify,
    cross_validate,
    inertial_type,
)
from frey2.cli import generate_table
from frey2.curves import equation_str, hyper_discriminant
from frey2.families import (
    C_PLUS,
    C_ZS,
    H_2R,
    H_35,
    H_RR,
    build_curve,
    darmon_f,
    omega_min_poly,
    verify_closed_form_disc,
)
from frey2.fibers import brute_force_singular, singular_points
from frey2.localfield import AffineVal, TameField
from frey2.pipelines import (
    field_of_definition,
    pipeline_35p,
    pipeline_odd_good_reduction,
    pipeline_ppr_even,
)

IDENTITY_PRIMES = (3, 5, 7, 11, 13, 17, 19)
DISC_PRIMES = (3, 5, 7)


def test_criterion_1_identity_suite():
    start = time.monotonic()
    x = PolyRing(QQ, "x").gen
    for r in IDENTITY_PRIMES:
        f = darmon_f(r)
        h = omega_min_poly(r)  # internally asserts recurrence == definitional formula
        h_neg = h.compose(-x)
        assert f + 2 == (x + 2) * h_neg * h_neg, r
        prod = h * h_neg
        assert f * f - 4 == (x * x - 4) * prod * prod, r
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    record_criterion(
        1, f"identity suite, r in {IDENTITY_PRIMES}", True, f"{elapsed:.2f}s"
    )


def test_criterion_2_closed_form_discriminants():
    start = time.monotonic()
    for r in DISC_PRIMES:
        for fam in (C_ZS, H_RR, H_2R):
            rep = verify_closed_form_disc(fam, r)
            assert rep.equal, (fam, r)
        # C_plus: the printed value is the discriminant of the defining
        # polynomial; the curve discriminant exceeds it by exactly 2^(4g)
        rep = verify_closed_form_disc(C_PLUS, r)
        assert rep.documented_mismatch, r
        g = (r - 1) // 2
        assert rep.ratio == PolyRing(QQ, "t").from_rational(F(2 ** (4 * g))), r
    rep = verify_closed_form_disc(H_35)
    assert rep.equal
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    record_criterion(
        2,
        f"closed-form discriminants, r in {DISC_PRIMES}",
        True,
        f"{elapsed:.2f}s; C_plus printed form off by exactly 2^(4g), documented",
    )


@pytest.mark.xfail(
    strict=True,
    reason="printed C_plus closed form uses the bare polynomial-discriminant "
    "normalization; the curve discriminant is exactly 2^(4g) times it",
)
def test_criterion_2_cplus_printed_form_verbatim():
    assert verify_closed_form_disc(C_PLUS, 3).equal


def test_criterion_3_change_of_variables_law(rng):
    from frey2.curves import HyperEq, MobiusChange, apply_change
    from frey2.errors import DegreeViolation
    from frey2.algebra import Poly

    start = time.monotonic()
    R = PolyRing(QQ, "x")
    checked = 0
    while checked < 200:
        g = rng.choice([1, 2, 3])
        Q = Poly(R, [F(rng.randint(-3, 3)) for _ in range(g + 2)])
        P = Poly(
            R,
            [F(rng.randint(-4, 4)) for _ in range(2 * g + 2)]
            + [F(rng.choice([1, -1, 2, 3]))],
        )
        try:
            E = HyperEq(Q, P, g)
        except DegreeViolation:
            continue
        a, b, c, d = (F(rng.randint(-3, 3)) for _ in range(4))
        if a * d - b * c == 0:
            continue
        e = F(rng.choice([1, -1, 2, 3, F(1, 2), F(-2, 3)]))
        shift = Poly(R, [F(rng.randint(-2, 2)) for _ in range(g + 2)])
        try:
            res = apply_change(E, MobiusChange(a, b, c, d, e, shift))
            lhs = hyper_discriminant(res.equation)
            rhs = QQ.mul(res.factor, hyper_discriminant(E))
        except DegreeViolation:
            continue
        assert lhs == rhs
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    record_criterion(3, "discriminant law on 200 random changes", True, f"{elapsed:.2f}s")


def test_criterion_4_char2_oracle_equivalence(rng):
    from test_fibers import _expected_in_gf2m, random_fiber

    start = time.monotonic()
    paper_fibers = []
    for r in DISC_PRIMES:
        for case in ("v_neg", "v_t_pos", "v_1mt_pos"):
            paper_fibers.append(pipeline_ppr_even(case, r).fiber)
    for case in ("v_t_pos", "v_1mt_pos", "v_neg"):
        paper_fibers.append(pipeline_35p(case).fiber)
    paper_fibers.append(pipeline_odd_good_reduction(1, F(7, 4), 3).fiber)

    def check(fib):
        pts = singular_points(fib)
        k = fib.field.k
        for m in range(k, 9, k):
            assert brute_force_singular(fib, m) == _expected_in_gf2m(fib, pts, m)

    for fib in paper_fibers:
        check(fib)
    for _ in range(50):
        check(random_fiber(rng, rng.choice([1, 1, 2, 2, 3, 4])))
    elapsed = time.monotonic() - start
    record_criterion(
        4,
        "char-2 singular points vs brute force, 50 random + paper fibers",
        True,
        f"{elapsed:.2f}s",
    )


def test_criterion_5_formal_pipeline_fixtures():
    start = time.monotonic()
    for r in DISC_PRIMES:
        res = pipeline_ppr_even("v_neg", r)
        assert res.fiber_kind == "smooth" and res.disc_val == AffineVal(F(0), 0)
        assert res.integral and res.factor_consistent
        res = pipeline_ppr_even("v_t_pos", r)
        assert res.fiber_kind == "nodal" and res.node_count == (r + 1) // 2
        res = pipeline_ppr_even("v_1mt_pos", r)
        assert res.fiber_kind == "nodal" and res.node_count == (r - 1) // 2
    for case in ("v_t_pos", "v_1mt_pos"):
        res = pipeline_35p(case)
        assert res.disc_val == AffineVal(F(0), 0) and res.fiber_kind == "smooth"
    res = pipeline_35p("v_neg")
    assert equation_str(res.fiber.eq) == "y^2 + y*(x^3 + 1) = x + 1"
    assert res.node_count == 2
    assert all(p.field.k == 2 and p.kind == "node" for p in res.points)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    record_criterion(5, "formal reduction pipeline fixtures", True, f"{elapsed:.2f}s")


def test_criterion_6_odd_good_reduction_grid():
    start = time.monotonic()
    count = 0
    for r in DISC_PRIMES:
        for m in range(4, 10):  # C_minus parameters, v2(t) in {-4..-9}
            t = F(1, 2**m)
            z, s = F(1), 2 - 4 * t
            res = pipeline_odd_good_reduction(z, s, r)
            assert res.integral and res.disc_val == 0 and res.fiber_kind == "smooth"
            assert res.base_defined == field_of_definition(z, s, r)
            count += 1
        for m in range(4, 10):  # H_rr parameters, v2(t(t-1)) in {4..9}
            t = F(2**m)
            z = t * (t - 1)
            s = z ** ((r - 1) // 2) * (2 * t - 1)
            res = pipeline_odd_good_reduction(z, s, r)
            assert res.integral and res.disc_val == 0 and res.fiber_kind == "smooth"
            assert res.base_defined == field_of_definition(z, s, r)
            count += 1
        for m in range(6, 12):  # H_2r parameters, v2(t-1) in {6..11}
            t = 1 + F(2**m)
            z = t * (t - 1)
            s = 2 * (t - 1) ** ((r - 1) // 2) * t ** ((r + 1) // 2)
            res = pipeline_odd_good_reduction(z, s, r)
            assert res.integral and res.disc_val == 0 and res.fiber_kind == "smooth"
            assert res.base_defined == field_of_definition(z, s, r)
            count += 1

    # the fully worked instance
    L = TameField(3)
    res = pipeline_odd_good_reduction(1, F(7, 4), 3)
    assert res.model.Q.cs == (L.one,)
    assert res.model.P.cs == (
        L.from_rational(-2), L.from_rational(-3), L.zero, L.one,
    )
    assert hyper_discriminant(res.model) == L.from_rational(405)
    assert equation_str(res.fiber.eq) == "y^2 + y = x^3 + x"
    assert res.base_defined is True
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    record_criterion(
        6, f"odd-degree good-reduction grid ({count} runs) + worked instance",
        True, f"{elapsed:.2f}s",
    )


def _printed_row_exponent(signature, r, vt, v1t):
    """The stated summary-table rows, keyed by the two valuation columns."""
    if signature == "ppr-even":
        if vt < 0:
            return 0 if vt % r == 0 else 2
        return 1  # (>0, 0) and (0, >0) rows
    if signature == "ppr-odd":
        if vt <= -4:
            return 0 if (vt + 2) % r == 0 else 2
        return None
    if signature == "rrp":
        if vt >= 4 and v1t == 0:
            return 0 if (vt - 4) % r == 0 else 2
        if vt == 0 and v1t >= 4:
            return 0 if (v1t - 4) % r == 0 else 2
        return None
    if signature == "2rp":
        if vt == 0 and v1t >= 6:
            return 0 if (v1t - 6) % r == 0 else 2
        return None
    if signature == "35p":
        if vt > 0 and v1t == 0:
            return 0 if vt % 3 == 0 else 2
        if vt == 0 and v1t > 0:
            return 0 if v1t % 5 == 0 else 2
        if vt < 0:
            return 1
        return None
    raise ValueError(signature)


def test_criterion_7_table_reproduction():
    start = time.monotonic()
    rows = generate_table(list(DISC_PRIMES), -9, 11, with_oracle=True)
    conflicts = []
    for row in rows:
        t = F(row["t"])
        vt, v1t = v2(t), v2(1 - t)
        expected = _printed_row_exponent(row["signature"], row["r"], vt, v1t)
        got = row["exponent"]
        assert got == (expected if expected is not None else "not_covered"), row
        if "oracle_agrees" in row:
            if row["signature"] == "ppr-odd":
                if not row["oracle_agrees"]:
                    conflicts.append(row)
            else:
                assert row["oracle_agrees"], row
    assert conflicts, "expected structured ppr-odd conflicts on this grid"
    for row in conflicts:
        assert row["conflict"]  # structured conflict text is attached
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    record_criterion(
        7,
        f"summary-table reproduction on {len(rows)} grid rows",
        True,
        f"{elapsed:.2f}s; {len(conflicts)} ppr-odd printed-vs-oracle conflicts surfaced",
    )


@pytest.mark.xfail(
    strict=True,
    reason="printed odd-degree congruence (exponent 0 iff v2(t) = -2 mod r) "
    "contradicts the construction: the t = 1/16, r = 3 model is base-defined "
    "with good reduction, so the class is -4 mod r",
)
def test_criterion_7_ppr_odd_printed_rule_verbatim():
    cv = cross_validate("ppr-odd", 3, F(1, 16))
    assert cv.printed.exponent == cv.oracle_exponent


def test_criterion_8_inertial_types():
    start = time.monotonic()
    assert inertial_type(7) == PRINCIPAL_SERIES
    for r in (3, 5, 11, 13):
        assert inertial_type(r) == SUPERCUSPIDAL
    elapsed = time.monotonic() - start
    record_criterion(8, "inertial types via the divisibility criterion", True, f"{elapsed:.2f}s")
