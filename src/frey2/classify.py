"""Conductor-exponent classification at the prime above 2, up to quadratic twist.

For a parameter t not in {0, 1}, exactly one of v2(t) > 0, v2(1-t) > 0,
v2(t) < 0 holds, and each supported signature assigns a conductor exponent
to its covered valuation range:

  ppr-even  all t:                0 / 2 by v2(t) mod r when v2(t) < 0, else 1
  35p       all t:                0 / 2 by mod-3/mod-5 congruences, else 1
  ppr-odd   v2(t) <= -4:          0 / 2 by a congruence on v2(t)
  rrp       v2(t(t-1)) >= 4:      0 iff v2(t(t-1)) = 4 mod r
  2rp       v2(t-1)  >= 6:        0 iff v2(t-1) = 6 mod r

Two modes are exposed.  `table_as_printed` reproduces the stated rules
verbatim (ppr-odd: exponent 0 iff v2(t) = -2 mod r).  `oracle_corrected`
derives the ppr-odd congruence from the good-reduction construction
instead (base-field model iff v2(s'^2) + 4 = 0 mod r with s = 2 - 4t,
i.e. v2(t) = -4 mod r).  `cross_validate` runs both plus the matching
reduction pipeline and reports conflicts without adjudicating them.
"""

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import QQ, check_odd_prime, v2
from .errors import DegenerateParameter, NotCovered, PipelineAssertionFailed
from .families import C_MINUS, H_2R, H_RR, zs_params
from .pipelines import (
    PipelineResult,
    field_of_definition,
    pipeline_35p,
    pipeline_odd_good_reduction,
    pipeline_ppr_even,
)

SIGNATURES = ("ppr-even", "ppr-odd", "rrp", "2rp", "35p")
# the odd-degree signatures and the t-family whose (z, s) they reduce at
ODD_FAMILY = {"ppr-odd": C_MINUS, "rrp": H_RR, "2rp": H_2R}

GOOD = "good"
TORIC = "toric"
PRINCIPAL_SERIES = "principal_series"
SUPERCUSPIDAL = "supercuspidal"

TABLE_AS_PRINTED = "table_as_printed"
ORACLE_CORRECTED = "oracle_corrected"
NOT_COVERED = "not_covered"


def residue_degree(r: int) -> int:
    """Residue degree of 2 in the real cyclotomic field of level r.

    The multiplicative order of 2 in (Z/rZ)* modulo {+-1}: the least f
    with 2^f = +-1 mod r.
    """
    check_odd_prime(r)
    f = 1
    p = 2 % r
    while p != 1 and p != r - 1:
        p = (p * 2) % r
        f += 1
    return f


def _tame_inertial_type(e: int, f: int) -> str:
    """Ramification degree e over a residue field of size 2^f."""
    return PRINCIPAL_SERIES if (2**f - 1) % e == 0 else SUPERCUSPIDAL


def inertial_type(r: int) -> str:
    """principal_series iff r divides the order 2^f - 1 of the residue units."""
    return _tame_inertial_type(r, residue_degree(r))


@dataclass
class ConductorReport:
    signature: str
    r: int | None
    t: Fraction
    case: str
    exponent: int | str  # 0 | 1 | 2 | 'not_covered'
    inertial_type: str | None
    source: str
    mode: str
    oracle: dict | None = None

    def covered(self) -> bool:
        return self.exponent != NOT_COVERED


def _validate(signature: str, r: int | None, t) -> Fraction:
    if signature not in SIGNATURES:
        raise ValueError(f"unknown signature {signature!r}")
    if signature != "35p":
        check_odd_prime(r)
    t = Fraction(t)
    if t in (0, 1):
        raise DegenerateParameter(f"t = {t} is degenerate")
    return t


def classify(signature: str, r: int | None, t, mode: str = TABLE_AS_PRINTED,
             p=None) -> ConductorReport:
    """Conductor exponent at the prime above 2, up to quadratic twist.

    `p` (the residual characteristic of the representation) is accepted as
    metadata and ignored: every covered exponent is independent of it.
    """
    del p
    if mode not in (TABLE_AS_PRINTED, ORACLE_CORRECTED):
        raise ValueError(f"unknown mode {mode!r}")
    t = _validate(signature, r, t)
    vt = v2(t)
    v1t = v2(1 - t)
    source = "printed-table" if mode == TABLE_AS_PRINTED else "construction-oracle"

    if signature == "ppr-even":
        if vt < 0:
            case = f"v2(t) = {vt} < 0"
            if vt % r == 0:
                return ConductorReport(signature, r, t, case, 0, GOOD, source, mode)
            return ConductorReport(signature, r, t, case, 2, inertial_type(r), source, mode)
        case = f"v2(t) = {vt} > 0" if vt > 0 else f"v2(1-t) = {v1t} > 0"
        return ConductorReport(signature, r, t, case, 1, TORIC, source, mode)

    if signature == "35p":
        f35 = residue_degree(5)
        if vt > 0:
            case = f"v2(t) = {vt} > 0"
            if vt % 3 == 0:
                return ConductorReport(signature, None, t, case, 0, GOOD, source, mode)
            return ConductorReport(
                signature, None, t, case, 2, _tame_inertial_type(3, f35), source, mode
            )
        if v1t > 0:
            case = f"v2(1-t) = {v1t} > 0"
            if v1t % 5 == 0:
                return ConductorReport(signature, None, t, case, 0, GOOD, source, mode)
            return ConductorReport(
                signature, None, t, case, 2, _tame_inertial_type(5, f35), source, mode
            )
        case = f"v2(t) = {vt} < 0"
        return ConductorReport(signature, None, t, case, 1, TORIC, source, mode)

    if signature == "ppr-odd":
        if vt > -4:
            return ConductorReport(
                signature, r, t, f"v2(t) = {vt} > -4", NOT_COVERED, None, source, mode
            )
        case = f"v2(t) = {vt} <= -4"
        if mode == TABLE_AS_PRINTED:
            zero = (vt - (-2)) % r == 0
        else:
            zero = field_of_definition(*zs_params(C_MINUS, r, QQ, t), r)
        if zero:
            return ConductorReport(signature, r, t, case, 0, GOOD, source, mode)
        return ConductorReport(signature, r, t, case, 2, inertial_type(r), source, mode)

    if signature == "rrp":
        m = v2(t * (t - 1))
        if m < 4:
            return ConductorReport(
                signature, r, t, f"v2(t(t-1)) = {m} < 4", NOT_COVERED, None, source, mode
            )
        case = f"v2(t(t-1)) = {m} >= 4"
        if mode == TABLE_AS_PRINTED:
            zero = (m - 4) % r == 0
        else:
            zero = field_of_definition(*zs_params(H_RR, r, QQ, t), r)
        if zero:
            return ConductorReport(signature, r, t, case, 0, GOOD, source, mode)
        return ConductorReport(signature, r, t, case, 2, inertial_type(r), source, mode)

    # 2rp
    m = v2(t - 1) if t != 1 else None
    if m is None or m < 6 or vt != 0:
        return ConductorReport(
            signature, r, t, f"v2(t-1) = {m} < 6", NOT_COVERED, None, source, mode
        )
    case = f"v2(t-1) = {m} >= 6"
    if mode == TABLE_AS_PRINTED:
        zero = (m - 6) % r == 0
    else:
        zero = field_of_definition(*zs_params(H_2R, r, QQ, t), r)
    if zero:
        return ConductorReport(signature, r, t, case, 0, GOOD, source, mode)
    return ConductorReport(signature, r, t, case, 2, inertial_type(r), source, mode)


@dataclass
class CrossValidation:
    signature: str
    r: int | None
    t: Fraction
    printed: ConductorReport
    oracle: ConductorReport
    pipeline: PipelineResult | None
    oracle_exponent: int
    agree: bool
    witness: str
    conflict: str | None = None
    notes: list[str] = field(default_factory=list)


@functools.lru_cache(maxsize=64)
def _even_pipeline(signature: str, case: str, r: int | None) -> PipelineResult:
    """The ppr-even or 35p pipeline of one valuation case, run once per process.

    These pipelines certify their case for every t at once, so the result
    depends on (signature, case, r) only.  The names are looked up in this
    module's globals at call time, so a miss runs whatever they are bound
    to.  Callers share the returned result and must not mutate it.
    """
    if signature == "ppr-even":
        return pipeline_ppr_even(case, r)
    return pipeline_35p(case)


def _oracle_exponent_even(signature: str, r: int | None, t: Fraction):
    """Pipeline plus congruence for the even-degree (all-t) signatures."""
    vt = v2(t)
    v1t = v2(1 - t)
    if signature == "ppr-even":
        if vt < 0:
            case = "v_neg"
            exp = 0 if vt % r == 0 else 2
            why = (
                "good reduction over the degree-r chart; the extension is "
                "unramified iff r | v2(t)"
            )
        else:
            case = "v_t_pos" if vt > 0 else "v_1mt_pos"
            exp, why = 1, "nodal (toric) reduction"
    elif vt > 0:
        case = "v_t_pos"
        exp = 0 if vt % 3 == 0 else 2
        why = "good reduction over the cube-root chart; unramified iff 3 | v2(t)"
    elif v1t > 0:
        case = "v_1mt_pos"
        exp = 0 if v1t % 5 == 0 else 2
        why = "good reduction over the fifth-root chart; unramified iff 5 | v2(1-t)"
    else:
        case = "v_neg"
        exp, why = 1, "nodal (toric) reduction"
    return _even_pipeline(signature, case, r if signature == "ppr-even" else None), exp, why


def cross_validate(signature: str, r: int | None, t) -> CrossValidation:
    """Printed rule vs construction oracle; conflicts are surfaced, not resolved."""
    t = _validate(signature, r, t)
    printed = classify(signature, r, t, TABLE_AS_PRINTED)
    oracle_rep = classify(signature, r, t, ORACLE_CORRECTED)
    notes = []

    if signature in ("ppr-even", "35p"):
        pipe, oracle_exp, why = _oracle_exponent_even(signature, r, t)
        notes.append(why)
    else:
        if not printed.covered():
            raise NotCovered(f"{signature} at t = {t}: no pipeline applies")
        pipe = pipeline_odd_good_reduction(*zs_params(ODD_FAMILY[signature], r, QQ, t), r)
        oracle_exp = 0 if pipe.base_defined else 2
        notes.append(
            "good-reduction model is base-defined"
            if pipe.base_defined
            else "good reduction only over the ramified degree-r extension"
        )

    agree = printed.exponent == oracle_exp
    conflict = None
    if not agree:
        conflict = (
            f"printed exponent {printed.exponent} vs construction-oracle "
            f"exponent {oracle_exp} at t = {t} (case {printed.case})"
        )
    if oracle_rep.covered() and oracle_rep.exponent != oracle_exp:
        raise PipelineAssertionFailed(
            f"internal contradiction for {signature} at t = {t}: oracle-mode "
            f"classify gives exponent {oracle_rep.exponent}, the pipeline it "
            f"wraps gives {oracle_exp}"
        )
    witness = f"{pipe.model_str()}  |  fiber: {pipe.fiber_str()} ({pipe.fiber_kind})"
    return CrossValidation(
        signature=signature,
        r=r,
        t=t,
        printed=printed,
        oracle=oracle_rep,
        pipeline=pipe,
        oracle_exponent=oracle_exp,
        agree=agree,
        witness=witness,
        conflict=conflict,
        notes=notes,
    )
