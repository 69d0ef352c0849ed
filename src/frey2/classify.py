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
reduction pipeline and reports conflicts without adjudicating them.  For
ppr-odd, rrp and 2rp that is the odd-degree chain's per-r certificate
(`pipelines.odd_good_certificate`), which proves the row's model defined
over Q_2 iff its zeta = z'/pi^(2v+4) is: the oracle exponent is 0 iff
zeta passes `TameField(r).is_base`.  Oracle-mode `classify` reaches its
exponent through the congruence `field_of_definition` instead, so a
disagreement between the two is an internal contradiction.  The row's
model and witness are built only when `CrossValidation.pipeline` or
`.witness` is read; the concrete chain `pipeline_odd_good_reduction`
runs only in `frey2 reduce`.

Each signature's case split is stated once, in its `CASES` function,
which `classify` and `cross_validate` both read.  The ppr-even/35p oracle
is the certified fiber of the case's pipeline plus the chart congruence:
nodal gives 1, smooth gives 0 or 2 by the chart degree (r, 3 or 5), and
smooth on a case without a chart is an internal contradiction.
"""

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .algebra import QQ, check_odd_prime, v2
from .errors import DegenerateParameter, NotCovered, PipelineAssertionFailed
from .families import C_MINUS, H_2R, H_RR, zs_params
from .pipelines import (
    PipelineResult,
    field_of_definition,
    odd_good_certificate,
    pipeline_35p,
    pipeline_ppr_even,
)

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

    def covered(self) -> bool:
        return self.exponent != NOT_COVERED


def _validate(signature: str, r: int | None, t) -> tuple[int | None, Fraction]:
    """(r, t) checked; r is None for 35p, whose exponents do not depend on it."""
    if signature not in CASES:
        raise ValueError(f"unknown signature {signature!r}")
    if signature == "35p":
        r = None
    else:
        check_odd_prime(r)
    t = Fraction(t)
    if t in (0, 1):
        raise DegenerateParameter(f"t = {t} is degenerate")
    return r, t


class Case(NamedTuple):
    """A valuation case: with a chart of degree `mod`, exponent 0 iff `val` =
    `cls` mod `mod`, else 2; covered without a chart, toric (exponent 1).
    `key` names the even-degree pipeline case that certifies it."""

    text: str
    covered: bool = True
    val: int | None = None
    mod: int | None = None
    cls: int = 0
    key: str | None = None

    def chart_exponent(self) -> int:
        return 0 if (self.val - self.cls) % self.mod == 0 else 2


def _ppr_even_case(r: int, t: Fraction) -> Case:
    vt = v2(t)
    if vt < 0:
        return Case(f"v2(t) = {vt} < 0", val=vt, mod=r, key="v_neg")
    if vt > 0:
        return Case(f"v2(t) = {vt} > 0", key="v_t_pos")
    return Case(f"v2(1-t) = {v2(1 - t)} > 0", key="v_1mt_pos")


def _35p_case(r: None, t: Fraction) -> Case:
    vt, v1t = v2(t), v2(1 - t)
    if vt > 0:
        return Case(f"v2(t) = {vt} > 0", val=vt, mod=3, key="v_t_pos")
    if v1t > 0:
        return Case(f"v2(1-t) = {v1t} > 0", val=v1t, mod=5, key="v_1mt_pos")
    return Case(f"v2(t) = {vt} < 0", key="v_neg")


def _ppr_odd_case(r: int, t: Fraction) -> Case:
    vt = v2(t)
    if vt > -4:
        return Case(f"v2(t) = {vt} > -4", covered=False)
    return Case(f"v2(t) = {vt} <= -4", val=vt, mod=r, cls=-2)


def _rrp_case(r: int, t: Fraction) -> Case:
    m = v2(t * (t - 1))
    if m < 4:
        return Case(f"v2(t(t-1)) = {m} < 4", covered=False)
    return Case(f"v2(t(t-1)) = {m} >= 4", val=m, mod=r, cls=4)


def _2rp_case(r: int, t: Fraction) -> Case:
    m = v2(t - 1)  # >= 6 forces v2(t) = 0
    if m < 6:
        return Case(f"v2(t-1) = {m} < 6", covered=False)
    return Case(f"v2(t-1) = {m} >= 6", val=m, mod=r, cls=6)


CASES = {
    "ppr-even": _ppr_even_case,
    "ppr-odd": _ppr_odd_case,
    "rrp": _rrp_case,
    "2rp": _2rp_case,
    "35p": _35p_case,
}
SIGNATURES = tuple(CASES)


def classify(signature: str, r: int | None, t, mode: str = TABLE_AS_PRINTED) -> ConductorReport:
    """Conductor exponent at the prime above 2, up to quadratic twist."""
    if mode not in (TABLE_AS_PRINTED, ORACLE_CORRECTED):
        raise ValueError(f"unknown mode {mode!r}")
    r, t = _validate(signature, r, t)
    source = "printed-table" if mode == TABLE_AS_PRINTED else "construction-oracle"
    case = CASES[signature](r, t)

    def report(exponent, inertia):
        return ConductorReport(signature, r, t, case.text, exponent, inertia, source, mode)

    if not case.covered:
        return report(NOT_COVERED, None)
    if case.mod is None:
        return report(1, TORIC)
    if mode == ORACLE_CORRECTED and signature in ODD_FAMILY:
        exponent = 0 if field_of_definition(*zs_params(ODD_FAMILY[signature], r, QQ, t), r) else 2
    else:
        exponent = case.chart_exponent()
    if exponent == 0:
        return report(0, GOOD)
    # 35p takes the residue degree of level 5 for both of its charts
    return report(2, _tame_inertial_type(case.mod, residue_degree(r or 5)))


@dataclass
class CrossValidation:
    signature: str
    r: int | None
    t: Fraction
    printed: ConductorReport
    oracle: ConductorReport
    oracle_exponent: int
    agree: bool
    conflict: str | None
    notes: list[str]
    # builds the matching pipeline result; called at most once, by `pipeline`
    build_pipeline: Callable[[], PipelineResult] = field(repr=False, compare=False)

    @functools.cached_property
    def pipeline(self) -> PipelineResult:
        """The matching pipeline result, built on first read."""
        return self.build_pipeline()

    @property
    def witness(self) -> str:
        """The pipeline's model and fiber, rendered on first read."""
        return self.pipeline.witness


@functools.lru_cache(maxsize=64)
def _even_pipeline(signature: str, case: str, r: int | None) -> PipelineResult:
    """The ppr-even or 35p pipeline of one valuation case, run once per process.

    These pipelines certify their case for every t at once, so the result
    depends on (signature, case, r) only.  The names are looked up in this
    module's globals at call time, so a miss runs whatever they are bound
    to.  Callers share the returned result and must not mutate it.  Its
    witness is rendered here, once for every row that shares it.
    """
    res = pipeline_ppr_even(case, r) if signature == "ppr-even" else pipeline_35p(case)
    res.witness  # fills the cached_property
    return res


NODAL_NOTE = "nodal (toric) reduction"
# what a smooth certified fiber means on each even-degree chart
CHART_NOTES = {
    ("ppr-even", "v_neg"): "good reduction over the degree-r chart; the extension is "
                           "unramified iff r | v2(t)",
    ("35p", "v_t_pos"): "good reduction over the cube-root chart; unramified iff 3 | v2(t)",
    ("35p", "v_1mt_pos"): "good reduction over the fifth-root chart; unramified iff 5 | v2(1-t)",
}


def cross_validate(signature: str, r: int | None, t) -> CrossValidation:
    """Printed rule vs construction oracle; conflicts are surfaced, not resolved."""
    return _cross_validate(classify(signature, r, t, TABLE_AS_PRINTED))


def _cross_validate(printed: ConductorReport) -> CrossValidation:
    """`cross_validate` of the row whose printed-mode report is `printed`."""
    signature, r, t = printed.signature, printed.r, printed.t
    oracle_rep = classify(signature, r, t, ORACLE_CORRECTED)
    if signature in ODD_FAMILY:
        if not printed.covered():
            raise NotCovered(f"{signature} at t = {t}: no pipeline applies")
        z, s = zs_params(ODD_FAMILY[signature], r, QQ, t)
        cert = odd_good_certificate(r)
        base_defined = cert.base_defined(z, s)
        build = functools.partial(cert.result, z, s)
        oracle_exp = 0 if base_defined else 2
        why = ("good-reduction model is base-defined" if base_defined
               else "good reduction only over the ramified degree-r extension")
        if oracle_rep.exponent != oracle_exp:
            raise PipelineAssertionFailed(
                f"internal contradiction for {signature} at t = {t}: oracle-mode "
                f"classify gives exponent {oracle_rep.exponent}, the certified "
                f"model gives {oracle_exp}"
            )
    else:
        # the certified fiber decides: nodal is toric, smooth is good over
        # the case's chart and unramified by the chart congruence
        case = CASES[signature](r, t)
        pipe = _even_pipeline(signature, case.key, r)
        build = lambda: pipe  # already built, and shared by its case's rows
        if pipe.fiber_kind == "nodal":
            oracle_exp, why = 1, NODAL_NOTE
        elif pipe.fiber_kind == "smooth" and case.mod is not None:
            oracle_exp, why = case.chart_exponent(), CHART_NOTES[signature, case.key]
        else:
            raise PipelineAssertionFailed(
                f"internal contradiction for {signature} at t = {t}: the "
                f"{pipe.label} pipeline certifies a {pipe.fiber_kind} fiber, "
                f"but case {case.text} has no good-reduction chart"
            )

    agree = printed.exponent == oracle_exp
    conflict = None
    if not agree:
        conflict = (
            f"printed exponent {printed.exponent} vs construction-oracle "
            f"exponent {oracle_exp} at t = {t} (case {printed.case})"
        )
    return CrossValidation(
        signature=signature,
        r=r,
        t=t,
        printed=printed,
        oracle=oracle_rep,
        oracle_exponent=oracle_exp,
        agree=agree,
        conflict=conflict,
        notes=[why],
        build_pipeline=build,
    )
