"""Canonical JSON rendering: fixed key order, rationals as exact strings.

Rationals are serialized as "num/den" (plain "num" when integral) so no
precision is ever lost; polynomials as coefficient arrays, lowest degree
first; binary-field elements as {k, modulus_bits, element_bits}.  The
emitted JSON round-trips byte-identically through json.loads/dumps.
"""

import json
from fractions import Fraction

from .algebra import Poly
from .classify import ConductorReport, CrossValidation
from .curves import equation_str
from .fibers import PointReport
from .localfield import AffineVal
from .pipelines import PipelineResult


def frac_str(q) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def gf_elt_json(field, x: int) -> dict:
    return {"k": field.k, "modulus_bits": field.modulus, "element_bits": x}


def coeff_json(c):
    if isinstance(c, Poly):
        return poly_json(c)
    if isinstance(c, tuple):
        return [frac_str(a) for a in c]
    if isinstance(c, Fraction):
        return frac_str(c)
    if isinstance(c, int):
        return c
    if hasattr(c, "terms"):  # Laurent
        return {"terms": [[e, frac_str(co)] for e, co in c.terms]}
    return str(c)


def poly_json(p: Poly) -> dict:
    return {"coeffs": [coeff_json(c) for c in p.cs]}


def val_json(v):
    if isinstance(v, AffineVal):
        if v.slope == 0:
            return frac_str(v.const)
        return {"const": frac_str(v.const), "slope": v.slope}
    return frac_str(v)


def point_json(p: PointReport) -> dict:
    return {
        "patch": p.patch,
        "a": gf_elt_json(p.field, p.a),
        "b": gf_elt_json(p.field, p.b),
        "kind": p.kind,
    }


def report_json(rep: ConductorReport) -> dict:
    return {
        "signature": rep.signature,
        "r": rep.r,
        "t": frac_str(rep.t),
        "case": rep.case,
        "conductor_exponent": rep.exponent,
        "inertial_type": rep.inertial_type,
        "source": rep.source,
        "oracle": None,  # filled by `classify --oracle-check`
    }


def pipeline_json(res: PipelineResult) -> dict:
    return {
        "label": res.label,
        "r": res.r,
        "model": equation_str(res.model),
        "model_Q": poly_json(res.model.Q),
        "model_P": poly_json(res.model.P),
        "integral": res.integral,
        "discriminant_valuation": val_json(res.disc_val),
        "factor_consistent": res.factor_consistent,
        "display_matches": res.display_matches,
        "fiber": equation_str(res.fiber.eq),
        "fiber_kind": res.fiber_kind,
        "node_count": res.node_count,
        "points": [point_json(p) for p in res.points],
        "field_of_definition": res.field_of_definition,
        "base_defined": res.base_defined,
        "notes": res.notes,
    }


def crossval_json(cv: CrossValidation) -> dict:
    return {
        "signature": cv.signature,
        "r": cv.r,
        "t": frac_str(cv.t),
        "printed_exponent": cv.printed.exponent,
        "oracle_exponent": cv.oracle_exponent,
        "agree": cv.agree,
        "conflict": cv.conflict,
        "witness": cv.witness,
        "notes": cv.notes,
    }


def dumps(obj) -> str:
    return json.dumps(obj, indent=2)
