import hashlib
from fractions import Fraction as F

import pytest

import frey2.algebra as algebra_mod
import frey2.families as families_mod
import frey2.pipelines as pipelines_mod
from frey2 import serialize
from frey2.algebra import QQ, PolyRing, v2
from frey2.classify import NOT_COVERED, ODD_FAMILY, cross_validate
from frey2.cli import EXIT_ASSERTION, generate_table, main
from frey2.curves import equation_str, hyper_discriminant
from frey2.errors import HypothesisViolated, PipelineAssertionFailed
from frey2.families import zs_params
from frey2.fibers import NODE, PointReport
from frey2.gf2 import GF2
from frey2.localfield import AffineVal, TameField
from frey2.pipelines import (
    P35_CASES,
    PPR_EVEN_CASES,
    certified_odd_good,
    field_of_definition,
    odd_good_certificate,
    pipeline_35p,
    pipeline_odd_good_reduction,
    pipeline_ppr_even,
)


# sha256 of the canonical JSON of every even-degree pipeline below, joined
# by newlines; any change to a certified model, valuation or fiber shows here
EVEN_PIPELINES_SHA256 = "eefa4fa9986c0aff9f1fe676abb6e7934850d0b453ef5e1d9168c459082a2cc0"


def test_even_pipelines_digest():
    results = [pipeline_ppr_even(case, r)
               for r in (3, 5, 7, 11, 13, 17, 19) for case in PPR_EVEN_CASES]
    results += [pipeline_35p(case) for case in P35_CASES]
    text = "\n".join(serialize.dumps(serialize.pipeline_json(res)) for res in results)
    assert hashlib.sha256(text.encode()).hexdigest() == EVEN_PIPELINES_SHA256


@pytest.mark.parametrize("r", [3, 5, 7])
def test_ppr_even_v_neg(r):
    res = pipeline_ppr_even("v_neg", r)
    assert res.integral
    assert res.display_matches
    assert res.factor_consistent
    assert res.disc_val == AffineVal(F(0), 0)
    assert res.fiber_kind == "smooth"
    assert res.field_of_definition == "ramified-degree-r"


def test_ppr_even_v_neg_fiber_r3():
    res = pipeline_ppr_even("v_neg", 3)
    assert equation_str(res.fiber.eq) == "y^2 + y*(x^2) = x"


@pytest.mark.parametrize("r", [3, 5, 7])
def test_ppr_even_v_t_pos(r):
    res = pipeline_ppr_even("v_t_pos", r)
    assert res.integral and res.display_matches and res.factor_consistent
    assert res.fiber_kind == "nodal"
    assert res.node_count == (r + 1) // 2
    assert res.disc_val == AffineVal(F(0), (r + 3) // 2)


def test_ppr_even_v_t_pos_nodes_r3():
    res = pipeline_ppr_even("v_t_pos", 3)
    coords = sorted((p.a, p.b) for p in res.points)
    assert coords == [(0, 0), (1, 0)]


@pytest.mark.parametrize("r", [3, 5, 7])
def test_ppr_even_v_1mt_pos(r):
    res = pipeline_ppr_even("v_1mt_pos", r)
    assert res.integral and res.display_matches and res.factor_consistent
    assert res.fiber_kind == "nodal"
    assert res.node_count == (r - 1) // 2
    assert res.disc_val == AffineVal(F(0), (r - 1) // 2)


def test_ppr_even_v_1mt_pos_single_node_r3():
    res = pipeline_ppr_even("v_1mt_pos", 3)
    assert [(p.a, p.b) for p in res.points] == [(1, 0)]


def test_35p_good_reduction_cases():
    for case in ("v_t_pos", "v_1mt_pos"):
        res = pipeline_35p(case)
        assert res.integral and res.display_matches and res.factor_consistent
        assert res.disc_val == AffineVal(F(0), 0)
        assert res.fiber_kind == "smooth"


def test_35p_toric_case():
    res = pipeline_35p("v_neg")
    assert res.integral and res.display_matches and res.factor_consistent
    assert res.disc_val == AffineVal(F(0), 2)
    assert res.fiber_kind == "nodal"
    assert res.node_count == 2
    assert equation_str(res.fiber.eq) == "y^2 + y*(x^3 + 1) = x + 1"
    assert all(p.field.k == 2 for p in res.points)


def test_unknown_cases_rejected():
    with pytest.raises(ValueError):
        pipeline_ppr_even("nope", 3)
    with pytest.raises(ValueError):
        pipeline_35p("nope")


def test_odd_good_worked_instance():
    res = pipeline_odd_good_reduction(1, F(7, 4), 3)
    L = TameField(3)
    E = res.model
    # y^2 + y = x^3 - 3x - 2
    assert E.Q.cs == (L.one,)
    assert E.P.cs == (
        L.from_rational(-2),
        L.from_rational(-3),
        L.zero,
        L.one,
    )
    assert hyper_discriminant(E) == L.from_rational(405)
    assert res.disc_val == 0
    assert res.fiber_kind == "smooth"
    assert equation_str(res.fiber.eq) == "y^2 + y = x^3 + x"
    assert res.base_defined is True
    assert any("delta = -1" in n for n in res.notes)


def test_odd_good_base_field_examples():
    # Remark criterion: v2(s'^2) + 4 = 0 mod r
    assert field_of_definition(1, F(-7, 4), 3) is True
    assert field_of_definition(1, F(7, 8), 3) is False
    assert field_of_definition(1, F(7, 8), 5) is False  # v2(s) = -3: -2 mod 5 != 0
    res = pipeline_odd_good_reduction(1, F(7, 8), 3)
    assert res.base_defined is False
    assert res.field_of_definition == "ramified-degree-r"
    assert res.fiber_kind == "smooth"


def test_odd_good_from_rrp_instance():
    # t = 16: z = t(t-1), s = (t(t-1))^((r-1)/2) (2t-1), r = 3
    t = F(16)
    z = t * (t - 1)
    s = z * (2 * t - 1)
    assert v2(z) == 4
    res = pipeline_odd_good_reduction(z, s, 3)
    assert res.base_defined is True
    assert res.fiber_kind == "smooth"


def test_hypothesis_violated():
    with pytest.raises(HypothesisViolated):
        pipeline_odd_good_reduction(1, F(1), 3)  # v2(s^2)+4 = 4 > 0
    with pytest.raises(HypothesisViolated):
        field_of_definition(1, 3, 5)


GRID = [
    ("C_minus", 3), ("C_minus", 5), ("C_minus", 7),
    ("H_rr", 3), ("H_rr", 5), ("H_rr", 7),
    ("H_2r", 3), ("H_2r", 5), ("H_2r", 7),
]


def _grid_params(source, r):
    if source == "C_minus":
        for m in range(4, 10):
            t = F(1, 2**m)
            yield t, F(1), 2 - 4 * t
    elif source == "H_rr":
        for m in range(4, 10):
            t = F(2**m)
            z = t * (t - 1)
            yield t, z, z ** ((r - 1) // 2) * (2 * t - 1)
    else:
        for m in range(6, 12):
            t = 1 + F(2**m)
            z = t * (t - 1)
            yield t, z, 2 * (t - 1) ** ((r - 1) // 2) * t ** ((r + 1) // 2)


@pytest.mark.parametrize("source,r", GRID)
def test_odd_good_grid(source, r):
    for t, z, s in _grid_params(source, r):
        res = pipeline_odd_good_reduction(z, s, r)
        assert res.integral
        assert res.disc_val == 0
        assert res.fiber_kind == "smooth"
        assert res.base_defined == field_of_definition(z, s, r)


def test_assertion_failure_is_loud(monkeypatch):
    """A printed closed form off by 2 fails the certificate every pipeline uses."""
    real = families_mod.printed_disc

    def wrong(family, r, dom, params):
        return dom.mul(dom.from_int(2), real(family, r, dom, params))

    monkeypatch.setattr(families_mod, "printed_disc", wrong)
    families_mod.closed_form_certificate.cache_clear()
    for run in (
        lambda: pipeline_ppr_even("v_t_pos", 3),
        lambda: pipeline_35p("v_neg"),
        lambda: pipeline_odd_good_reduction(1, F(7, 4), 3),
    ):
        with pytest.raises(PipelineAssertionFailed, match="closed-form discriminant"):
            run()
    # a failed certificate is not cached as passed: it fails again
    assert families_mod.closed_form_certificate.cache_info().currsize == 0
    with pytest.raises(PipelineAssertionFailed, match="closed-form discriminant"):
        pipeline_ppr_even("v_t_pos", 3)


# odd-good instances: the four of the CLI goldens plus two grid points per source
ODD_GOOD_ORACLE = [
    (1, F(7, 4), 3), (1, F(31, 16), 3), (1, F(255, 128), 5), (240, 7440, 3),
    *[(z, s, r) for source, r in GRID for _, z, s in list(_grid_params(source, r))[:2]],
]


@pytest.mark.parametrize("r", [3, 5, 7])
@pytest.mark.parametrize("case", PPR_EVEN_CASES)
def test_ppr_even_disc_equals_determinant(case, r):
    """The direct determinant is the oracle for factor * certified closed form."""
    res = pipeline_ppr_even(case, r)
    assert hyper_discriminant(res.model) == res.disc


@pytest.mark.parametrize("case", P35_CASES)
def test_35p_disc_equals_determinant(case):
    res = pipeline_35p(case)
    assert hyper_discriminant(res.model) == res.disc


@pytest.mark.parametrize("z,s,r", ODD_GOOD_ORACLE)
def test_odd_good_disc_equals_determinant(z, s, r):
    res = pipeline_odd_good_reduction(z, s, r)
    assert hyper_discriminant(res.model) == res.disc


def test_pipelines_take_one_rational_determinant_per_family_and_r(monkeypatch):
    """No determinant over a Laurent or tame domain; certificates are cached.

    A resultant over QQ[t] hands `bareiss_det` an integer matrix, so each
    determinant is recorded with the operand base of the resultant taking it.
    """
    bases, domains = [], []
    real_resultant, real_det = algebra_mod.resultant, algebra_mod.bareiss_det

    def resultant(A, B):
        bases.append(A.base)
        try:
            return real_resultant(A, B)
        finally:
            bases.pop()

    def bareiss_det(rows, dom):
        domains.append(bases[-1] if bases else dom)
        return real_det(rows, dom)

    monkeypatch.setattr(algebra_mod, "resultant", resultant)
    monkeypatch.setattr(algebra_mod, "bareiss_det", bareiss_det)
    families_mod.closed_form_certificate.cache_clear()
    families_mod._czs_weighted_coeffs.cache_clear()
    for _ in range(2):
        for r in (3, 5):
            pipeline_ppr_even("v_neg", r)
            pipeline_ppr_even("v_1mt_pos", r)
            pipeline_odd_good_reduction(1, F(7, 4), r)
        pipeline_35p("v_t_pos")
    # C_plus and C_zs at r = 3, 5 and H_35, each once over QQ[t] or QQ[s]
    assert len(domains) == 5
    assert all(isinstance(d, PolyRing) and d.base == QQ for d in domains)


@pytest.mark.parametrize(
    "run",
    [
        lambda: pipeline_ppr_even("v_t_pos", 3),
        lambda: pipeline_35p("v_neg"),
        lambda: pipeline_odd_good_reduction(1, F(7, 4), 3),
    ],
    ids=["ppr-even", "35p", "odd-good"],
)
def test_pipeline_computes_singular_points_once(monkeypatch, run):
    calls = []
    real = pipelines_mod.singular_points

    def counted(fib, *args):
        calls.append(fib)
        return real(fib, *args)

    monkeypatch.setattr(pipelines_mod, "singular_points", counted)
    res = run()
    assert len(calls) == 1
    assert res.points == real(res.fiber)


def _assert_certificate_path_is_the_chain(signature, r, t):
    """cross_validate's certificate path against the concrete chain at one row."""
    z, s = zs_params(ODD_FAMILY[signature], r, QQ, t)
    ref = pipeline_odd_good_reduction(z, s, r)
    res = certified_odd_good(z, s, r)
    cv = cross_validate(signature, r, t)
    assert cv.oracle_exponent == (0 if ref.base_defined else 2)
    assert res.base_defined == cv.pipeline.base_defined == ref.base_defined
    assert res.field_of_definition == ref.field_of_definition
    assert (res.model.Q, res.model.P) == (ref.model.Q, ref.model.P)
    assert (res.fiber.field, res.fiber.eq) == (ref.fiber.field, ref.fiber.eq)
    assert (res.fiber_kind, res.node_count, res.points) == (
        ref.fiber_kind, ref.node_count, ref.points)
    assert (res.disc, res.disc_val) == (ref.disc, ref.disc_val)
    assert cv.witness.encode() == res.witness.encode() == ref.witness.encode()


@pytest.mark.parametrize("r", [3, 5, 7, 11, 13, 17, 19])
def test_certificate_path_equals_the_chain_on_the_table(r):
    rows = [row for row in generate_table([r], with_oracle=False)
            if row["signature"] in ODD_FAMILY and row["exponent"] != NOT_COVERED]
    assert {row["signature"] for row in rows} == set(ODD_FAMILY)
    for row in rows:
        _assert_certificate_path_is_the_chain(row["signature"], r, F(row["t"]))


@pytest.mark.parametrize("source,r", GRID)
def test_certificate_path_equals_the_chain_on_the_grid(source, r):
    signature = {"C_minus": "ppr-odd", "H_rr": "rrp", "H_2r": "2rp"}[source]
    for t, _, _ in _grid_params(source, r):
        _assert_certificate_path_is_the_chain(signature, r, t)


def test_broken_fiber_check_refuses_the_certificate(monkeypatch, capsys):
    """One (zeta, A) class given a node: the certificate refuses, the CLI
    exits 4, and the refusal is not cached."""
    real = pipelines_mod.singular_points

    def node_at_class_1_1(fib, *args):
        if fib.P.coeff(0) == 1 and fib.P.coeff(1) == 1:  # r = 3: X^3 + X + 1
            return [PointReport("affine", GF2, 0, 1, NODE)]
        return real(fib, *args)

    odd_good_certificate.cache_clear()
    monkeypatch.setattr(pipelines_mod, "singular_points", node_at_class_1_1)
    refused = r"smooth special fiber at \(zeta, A\) = \(1, 1\)"
    with pytest.raises(PipelineAssertionFailed, match=refused):
        cross_validate("ppr-odd", 3, F(1, 16))
    argv = ["classify", "--signature", "ppr-odd", "--r", "3", "--t", "1/16", "--oracle-check"]
    capsys.readouterr()
    assert main(argv) == EXIT_ASSERTION
    err = capsys.readouterr().err
    assert err.startswith("assertion failure:") and err.count("\n") == 1
    assert odd_good_certificate.cache_info().currsize == 0

    monkeypatch.undo()
    before = odd_good_certificate.cache_info()
    cv = cross_validate("ppr-odd", 3, F(1, 16))
    after = odd_good_certificate.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 0)
    assert cv.pipeline.fiber_kind == "smooth" and after.currsize == 1
    cross_validate("rrp", 3, 16)
    assert odd_good_certificate.cache_info().hits == after.hits + 1
