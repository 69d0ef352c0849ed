import dataclasses
import types
from fractions import Fraction as F

import pytest

import frey2
import frey2.classify as classify_mod
import frey2.pipelines as pipelines_mod
from frey2.algebra import v2
from frey2.classify import (
    NOT_COVERED,
    ORACLE_CORRECTED,
    PRINCIPAL_SERIES,
    SUPERCUSPIDAL,
    TABLE_AS_PRINTED,
    classify,
    cross_validate,
    inertial_type,
    residue_degree,
)
from frey2.cli import generate_table
from frey2.errors import (
    DegenerateParameter,
    NotCovered,
    NotOddPrime,
    PipelineAssertionFailed,
)
from frey2.fibers import SpecialFiber
from frey2.pipelines import (
    P35_CASES,
    PPR_EVEN_CASES,
    field_of_definition,
    pipeline_35p,
    pipeline_ppr_even,
)
from frey2.serialize import crossval_json, dumps


def test_residue_degree_examples():
    assert residue_degree(3) == 1
    assert residue_degree(5) == 2
    assert residue_degree(7) == 3
    assert residue_degree(11) == 5
    assert residue_degree(13) == 6


def test_inertial_type_examples():
    assert inertial_type(7) == PRINCIPAL_SERIES
    assert inertial_type(3) == SUPERCUSPIDAL
    assert inertial_type(5) == SUPERCUSPIDAL
    assert inertial_type(11) == SUPERCUSPIDAL
    assert inertial_type(13) == SUPERCUSPIDAL
    with pytest.raises(NotOddPrime):
        inertial_type(4)


def test_classify_examples():
    assert classify("ppr-even", 5, F(1, 32)).exponent == 0
    assert classify("2rp", 5, 65).exponent == 0
    rep = classify("35p", None, F(3, 2))
    assert rep.exponent == 1 and rep.inertial_type == "toric"


def test_classify_degenerate():
    for t in (0, 1):
        with pytest.raises(DegenerateParameter):
            classify("ppr-even", 3, t)


def test_classify_not_covered():
    assert classify("rrp", 3, 6).exponent == NOT_COVERED
    assert classify("ppr-odd", 3, F(1, 8)).exponent == NOT_COVERED
    assert classify("2rp", 3, 1 + 32).exponent == NOT_COVERED  # v2(t-1) = 5 < 6


def test_ppr_even_rows():
    # v2(t) < 0 rows
    assert classify("ppr-even", 3, F(1, 8)).exponent == 0
    assert classify("ppr-even", 3, F(1, 16)).exponent == 2
    # toric rows
    assert classify("ppr-even", 3, F(4)).exponent == 1
    assert classify("ppr-even", 3, F(5)).exponent == 1  # v2(1-t) = 2


def test_ppr_even_symmetry(rng):
    """The exponent is symmetric under t <-> 1 - t."""
    for _ in range(150):
        num = rng.randint(-2**9, 2**9)
        den = rng.randint(1, 2**9)
        t = F(num, den)
        if t in (0, 1):
            continue
        for r in (3, 5, 7):
            a = classify("ppr-even", r, t).exponent
            b = classify("ppr-even", r, 1 - t).exponent
            assert a == b, (t, r)


def test_trichotomy_exhaustive(rng):
    """Exactly one of v2(t) > 0, v2(1-t) > 0, v2(t) < 0; classify never falls through."""
    for _ in range(300):
        t = F(rng.randint(-2**10, 2**10), rng.randint(1, 2**10))
        if t in (0, 1):
            continue
        cases = [v2(t) > 0, v2(1 - t) > 0, v2(t) < 0]
        assert sum(cases) == 1, t
        assert classify("ppr-even", 3, t).exponent in (0, 1, 2)
        assert classify("35p", None, t).exponent in (0, 1, 2)


def test_35p_rows():
    assert classify("35p", None, F(8)).exponent == 0       # v2(t) = 3
    assert classify("35p", None, F(4)).exponent == 2       # v2(t) = 2
    assert classify("35p", None, F(-31)).exponent == 0     # v2(1-t) = 5
    assert classify("35p", None, F(-3)).exponent == 2      # v2(1-t) = 2
    # principal series for the cube-root case, supercuspidal for the fifth-root case
    assert classify("35p", None, F(4)).inertial_type == PRINCIPAL_SERIES
    assert classify("35p", None, F(-3)).inertial_type == SUPERCUSPIDAL


def test_ppr_odd_modes():
    t = F(1, 16)  # v2(t) = -4
    assert classify("ppr-odd", 3, t, TABLE_AS_PRINTED).exponent == 2
    assert classify("ppr-odd", 3, t, ORACLE_CORRECTED).exponent == 0
    t2 = F(1, 32)  # v2(t) = -5 = 1 mod 3 = -2 mod 3
    assert classify("ppr-odd", 3, t2, TABLE_AS_PRINTED).exponent == 0
    assert classify("ppr-odd", 3, t2, ORACLE_CORRECTED).exponent == 2


def test_rrp_2rp_modes_agree(rng):
    """For these signatures the printed congruence equals the construction rule."""
    for r in (3, 5, 7):
        for m in range(4, 12):
            for t in (F(2**m), 1 + F(2**m)):
                a = classify("rrp", r, t, TABLE_AS_PRINTED).exponent
                b = classify("rrp", r, t, ORACLE_CORRECTED).exponent
                assert a == b, ("rrp", r, t)
        for m in range(6, 14):
            t = 1 + F(2**m)
            a = classify("2rp", r, t, TABLE_AS_PRINTED).exponent
            b = classify("2rp", r, t, ORACLE_CORRECTED).exponent
            assert a == b, ("2rp", r, t)


def test_remark_consistency_rrp_2rp():
    """Printed congruence classes equal the base-field criterion on a grid."""
    for r in (3, 5, 7):
        for m in range(4, 12):
            t = F(2**m)
            z = t * (t - 1)
            s = z ** ((r - 1) // 2) * (2 * t - 1)
            assert ((m - 4) % r == 0) == field_of_definition(z, s, r)
        for m in range(6, 14):
            t = 1 + F(2**m)
            z = t * (t - 1)
            s = 2 * (t - 1) ** ((r - 1) // 2) * t ** ((r + 1) // 2)
            assert ((m - 6) % r == 0) == field_of_definition(z, s, r)


def test_cross_validate_examples():
    cv = cross_validate("ppr-even", 3, F(1, 8))
    assert cv.printed.exponent == 0 and cv.oracle_exponent == 0 and cv.agree

    cv = cross_validate("ppr-odd", 3, F(1, 16))
    assert cv.printed.exponent == 2 and cv.oracle_exponent == 0
    assert not cv.agree and cv.conflict is not None
    assert cv.pipeline.base_defined is True

    cv = cross_validate("rrp", 3, 16)
    assert cv.printed.exponent == 0 and cv.oracle_exponent == 0 and cv.agree


def test_cross_validate_not_covered():
    with pytest.raises(NotCovered):
        cross_validate("rrp", 3, 6)


def test_ppr_odd_conflict_classes():
    """Printed and oracle rules disagree exactly on the -2 and -4 classes mod r."""
    for r in (3, 5):
        for m in range(4, 4 + 2 * r):
            t = F(1, 2**m)
            printed = classify("ppr-odd", r, t, TABLE_AS_PRINTED).exponent
            oracle = classify("ppr-odd", r, t, ORACLE_CORRECTED).exponent
            vt = -m
            if vt % r == (-2) % r:
                assert (printed, oracle) == (0, 2)
            elif vt % r == (-4) % r:
                assert (printed, oracle) == (2, 0)
            else:
                assert printed == oracle == 2


def test_internal_contradiction_is_a_hard_failure(monkeypatch):
    """Oracle-mode classify disagreeing with its own pipeline raises."""
    real = classify_mod.field_of_definition
    monkeypatch.setattr(
        classify_mod, "field_of_definition", lambda z, s, r: not real(z, s, r)
    )
    with pytest.raises(PipelineAssertionFailed, match="internal contradiction"):
        cross_validate("ppr-odd", 3, F(1, 16))
    with pytest.raises(PipelineAssertionFailed, match="internal contradiction"):
        cross_validate("rrp", 3, 16)


def test_even_oracle_reads_the_certified_fiber(monkeypatch, capsys):
    """The ppr-even/35p oracle exponent comes from the pipeline's fiber type."""
    real = classify_mod._even_pipeline
    flip = {"smooth": "nodal", "nodal": "smooth"}

    def flipped(*args):
        res = real(*args)
        return dataclasses.replace(res, fiber_kind=flip[res.fiber_kind])

    monkeypatch.setattr(classify_mod, "_even_pipeline", flipped)
    for signature, r, t in (("ppr-even", 3, F(1, 8)), ("ppr-even", 5, F(1, 8)),
                            ("35p", None, F(8)), ("35p", None, F(-3))):
        cv = cross_validate(signature, r, t)
        assert cv.oracle_exponent == 1 and not cv.agree, (signature, r, t)
        assert cv.conflict.startswith(f"printed exponent {cv.printed.exponent} vs ")
        assert cv.notes == ["nodal (toric) reduction"]
    for signature, r, t in (("ppr-even", 3, F(4)), ("ppr-even", 3, F(-3)),
                            ("35p", None, F(3, 2))):
        with pytest.raises(PipelineAssertionFailed, match="internal contradiction"):
            cross_validate(signature, r, t)
    argv = ["classify", "--signature", "ppr-even", "--r", "3", "--t", "4", "--oracle-check"]
    assert frey2.cli.main(argv) == frey2.cli.EXIT_ASSERTION
    assert "internal contradiction" in capsys.readouterr().err


def _residue_degree_reference(level):
    return next(f for f in range(1, level) if pow(2, f, level) in (1, level - 1))


def _printed_reference(signature, r, t, mode):
    """(case, exponent, inertial type) by the rules as printed, written out
    independently of frey2.classify; oracle mode moves ppr-odd's class to -4."""
    vt, v1t = v2(t), v2(1 - t)
    level = 5 if signature == "35p" else r
    if signature == "ppr-even":
        if vt > 0:
            return f"v2(t) = {vt} > 0", 1, "toric"
        if v1t > 0:
            return f"v2(1-t) = {v1t} > 0", 1, "toric"
        case, val, mod, cls = f"v2(t) = {vt} < 0", vt, r, 0
    elif signature == "35p":
        if vt > 0:
            case, val, mod, cls = f"v2(t) = {vt} > 0", vt, 3, 0
        elif v1t > 0:
            case, val, mod, cls = f"v2(1-t) = {v1t} > 0", v1t, 5, 0
        else:
            return f"v2(t) = {vt} < 0", 1, "toric"
    elif signature == "ppr-odd":
        if vt > -4:
            return f"v2(t) = {vt} > -4", NOT_COVERED, None
        case, val, mod = f"v2(t) = {vt} <= -4", vt, r
        cls = -4 if mode == ORACLE_CORRECTED else -2
    else:
        name, val, cls = (("t(t-1)", v2(t * (t - 1)), 4) if signature == "rrp"
                          else ("t-1", v2(t - 1), 6))
        if val < cls:
            return f"v2({name}) = {val} < {cls}", NOT_COVERED, None
        case, mod = f"v2({name}) = {val} >= {cls}", r
    if (val - cls) % mod == 0:
        return case, 0, "good"
    f = _residue_degree_reference(level)
    return case, 2, PRINCIPAL_SERIES if (2**f - 1) % mod == 0 else SUPERCUSPIDAL


def test_classify_matches_the_printed_rules_on_every_grid_form():
    forms = [F(2) ** v for v in range(-12, 13) if v]
    forms += [1 + sign * F(2) ** v for v in range(1, 13) for sign in (1, -1)]
    for signature in classify_mod.SIGNATURES:
        for r in ([None] if signature == "35p" else (3, 5, 7, 11, 13, 17, 19)):
            for t in forms:
                for mode in (TABLE_AS_PRINTED, ORACLE_CORRECTED):
                    rep = classify(signature, r, t, mode)
                    got = rep.case, rep.exponent, rep.inertial_type
                    assert got == _printed_reference(signature, r, t, mode), (
                        signature, r, t, mode)
                    assert (rep.signature, rep.r, rep.t, rep.mode) == (signature, r, t, mode)


def test_table_grid_runs_each_t_independent_pipeline_once(monkeypatch):
    calls = []
    for name in ("pipeline_ppr_even", "pipeline_35p"):
        real = getattr(classify_mod, name)

        def counting(*args, _real=real, _name=name):
            calls.append((_name, args))
            return _real(*args)

        monkeypatch.setattr(classify_mod, name, counting)
    classify_mod._even_pipeline.cache_clear()
    rows = generate_table([3, 5, 7])
    assert len(rows) == 217
    assert len(calls) == 12
    assert len(set(calls)) == 12


def _result_fields(res):
    out = {}
    for f in dataclasses.fields(res):
        value = getattr(res, f.name)
        if isinstance(value, SpecialFiber):
            value = (value.field, value.eq)
        out[f.name] = value
    return out


@pytest.mark.parametrize(
    "signature, case, r",
    [("ppr-even", c, 3) for c in PPR_EVEN_CASES] + [("35p", c, None) for c in P35_CASES],
)
def test_cached_pipeline_result_equals_fresh_run(signature, case, r):
    cached = classify_mod._even_pipeline(signature, case, r)
    assert classify_mod._even_pipeline(signature, case, r) is cached
    fresh = pipeline_ppr_even(case, r) if signature == "ppr-even" else pipeline_35p(case)
    assert fresh is not cached
    assert _result_fields(cached) == _result_fields(fresh)
    assert cached == fresh


def test_even_witness_is_rendered_once_per_cached_pipeline(monkeypatch):
    renders = []
    real = pipelines_mod.equation_str

    def counting(eq):
        renders.append(eq)
        return real(eq)

    monkeypatch.setattr(pipelines_mod, "equation_str", counting)
    classify_mod._even_pipeline.cache_clear()
    for signature, r, ts in (("ppr-even", 5, (F(1, 2), F(3, 4), F(-5, 8), F(7, 32))),
                             ("35p", None, (F(8), F(16), F(-24), F(40)))):
        first = cross_validate(signature, r, ts[0])
        renders.clear()
        for t in ts[1:]:
            cv = cross_validate(signature, r, t)
            assert cv.pipeline is first.pipeline and cv.witness is first.witness
        assert renders == [], signature
    classify_mod._even_pipeline.cache_clear()


@pytest.mark.parametrize("r", [None, 3, 5, 7])
def test_35p_r_is_normalised_alike_in_classify_and_cross_validate(r):
    for t in (F(8), F(-3), F(3, 2), F(33, 32)):
        cv = cross_validate("35p", r, t)
        assert (cv.r, cv.printed.r, cv.oracle.r) == (None, None, None)
        for mode in (TABLE_AS_PRINTED, ORACLE_CORRECTED):
            assert classify("35p", r, t, mode).r is None
        assert dumps(crossval_json(cv)) == dumps(crossval_json(cross_validate("35p", None, t)))


def test_frey2_classify_is_the_module():
    assert isinstance(frey2.classify, types.ModuleType)
    assert frey2.classify is classify_mod
    assert classify_mod.classify is classify
