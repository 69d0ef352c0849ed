"""Command-line front end: verify | classify | reduce | table.

Exit codes: 0 success, 1 usage error (including an r that is not an odd
prime and an --out file that cannot be written), 2 degenerate parameter,
3 not covered, 4 pipeline assertion failure or any other internal error.
Known printed-source discrepancies are reported as "documented-mismatch"
and never change the exit code; only a failed check the source states
verbatim does.
"""

import argparse
import random
import sys
from fractions import Fraction

from .algebra import QQ, Poly, PolyRing, is_odd_prime
from .classify import (
    ORACLE_CORRECTED,
    TABLE_AS_PRINTED,
    _cross_validate,
    classify,
    cross_validate,
)
from .curves import HyperEq, MobiusChange, apply_change, hyper_discriminant
from .errors import (
    DegenerateParameter,
    Frey2Error,
    HypothesisViolated,
    NotCovered,
    NotOddPrime,
    PipelineAssertionFailed,
)
from .families import (
    C_PLUS,
    C_ZS,
    H_2R,
    H_35,
    H_RR,
    verify_closed_form_disc,
    verify_identities,
)
from .pipelines import pipeline_35p, pipeline_odd_good_reduction, pipeline_ppr_even
from . import serialize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_NOT_COVERED = 3
EXIT_ASSERTION = 4

PASS = "pass"
FAIL = "fail"
DOCUMENTED = "documented-mismatch"

PIPELINE_NAMES = {
    "ppr-even-vneg": ("ppr_even", "v_neg"),
    "ppr-even-vtpos": ("ppr_even", "v_t_pos"),
    "ppr-even-v1mtpos": ("ppr_even", "v_1mt_pos"),
    "35p-vtpos": ("35p", "v_t_pos"),
    "35p-v1mtpos": ("35p", "v_1mt_pos"),
    "35p-vneg": ("35p", "v_neg"),
    "odd-good": ("odd", None),
}


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message, EXIT_USAGE)


def parse_r_range(text: str) -> list[int]:
    """--r N or --r A..B with A <= B; bounds must be odd primes <= 19."""
    parts = text.split("..")
    if len(parts) == 1:
        vals = [_parse_odd_prime(parts[0])]
        return vals
    if len(parts) != 2:
        raise CliError(f"bad range {text!r}")
    lo = _parse_odd_prime(parts[0])
    hi = _parse_odd_prime(parts[1])
    if lo > hi:
        raise CliError(f"descending range {text!r}")
    return [r for r in range(lo, hi + 1) if is_odd_prime(r)]


def _parse_odd_prime(text: str) -> int:
    try:
        r = int(text)
    except ValueError:
        raise CliError(f"{text!r} is not an integer") from None
    if not is_odd_prime(r) or r > 19:
        raise CliError(f"{r} is not an odd prime <= 19")
    return r


def parse_fraction(text: str, name: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"--{name} expects a rational like 7/4, got {text!r}") from None


def _lemma_law_spot_checks(rng: random.Random, count: int) -> bool:
    """Random change-of-variables checks of the discriminant transformation law."""
    ring = PolyRing(QQ, "x")
    for _ in range(count):
        g = rng.choice([1, 2])
        while True:
            Q = Poly(ring, [Fraction(rng.randint(-3, 3)) for _ in range(g + 2)])
            P = Poly(ring, [Fraction(rng.randint(-4, 4)) for _ in range(2 * g + 2)]
                     + [Fraction(rng.choice([1, 2, -1]))])
            # 4P + Q^2 can fall below degree 2g+1 or be singular: draw again.
            try:
                E = HyperEq(Q, P, g)
                if hyper_discriminant(E) != 0:
                    break
            except Frey2Error:
                continue
        while True:
            a, b, c, d = (Fraction(rng.randint(-2, 2)) for _ in range(4))
            e = Fraction(rng.choice([1, -1, 2, 3]))
            if a * d - b * c != 0:
                break
        shift = Poly(ring, [Fraction(rng.randint(-2, 2)) for _ in range(g + 2)])
        try:
            res = apply_change(E, MobiusChange(a, b, c, d, e, shift))
        except Frey2Error:
            continue
        lhs = hyper_discriminant(res.equation)
        rhs = QQ.mul(res.factor, hyper_discriminant(E))
        if lhs != rhs:
            return False
    return True


def run_verify(args) -> tuple[dict, int]:
    rs = parse_r_range(args.r)
    checks = []

    def add(name, r, status, detail=""):
        checks.append({"check": name, "r": r, "status": status, "detail": detail})

    for r in rs:
        rep = verify_identities(r)
        add("identity f+2 = (x+2)h(-x)^2", r, PASS if rep.f_plus_2_printed else FAIL)
        add(
            "identity f-2 = (x-2)h(-x)^2 (printed form)",
            r,
            PASS if rep.f_minus_2_printed else DOCUMENTED,
            f"computed square factor is {rep.f_minus_2_factor_is}",
        )
        add("identity f^2-4 = (x^2-4)(h(x)h(-x))^2", r, PASS if rep.f_squared_minus_4 else FAIL)
        add("recurrence matches definitional formula", r, PASS)
        for fam in (C_ZS, C_PLUS, H_RR, H_2R):
            d = verify_closed_form_disc(fam, r)
            if d.equal:
                add(f"closed-form discriminant {fam}", r, PASS)
            elif d.documented_mismatch:
                add(f"closed-form discriminant {fam}", r, DOCUMENTED, d.note)
            else:
                add(f"closed-form discriminant {fam}", r, FAIL, d.note or "exact mismatch")
    d = verify_closed_form_disc(H_35)
    add(
        "closed-form discriminant H_35",
        None,
        PASS if d.equal else (DOCUMENTED if d.documented_mismatch else FAIL),
        d.note,
    )
    rng = random.Random(20260809)
    add(
        "discriminant change-of-variables law (30 random checks)",
        None,
        PASS if _lemma_law_spot_checks(rng, 30) else FAIL,
    )

    hard_failures = [c for c in checks if c["status"] == FAIL]
    doc = {
        "command": "verify",
        "r": rs,
        "checks": checks,
        "failures": len(hard_failures),
        "documented_mismatches": sum(1 for c in checks if c["status"] == DOCUMENTED),
    }
    return doc, (EXIT_OK if not hard_failures else EXIT_ASSERTION)


def render_verify_text(doc) -> str:
    lines = [f"verification over r in {doc['r']}"]
    for c in doc["checks"]:
        rpart = f" [r={c['r']}]" if c["r"] else ""
        detail = f"  ({c['detail']})" if c["detail"] else ""
        lines.append(f"  {c['status'].upper():20s} {c['check']}{rpart}{detail}")
    lines.append(
        f"{doc['failures']} failures, {doc['documented_mismatches']} documented mismatches"
    )
    return "\n".join(lines)


def run_classify(args) -> tuple[dict, int]:
    t = parse_fraction(args.t, "t")
    mode = ORACLE_CORRECTED if args.mode == "oracle" else TABLE_AS_PRINTED
    if args.signature != "35p" and args.r is None:
        raise CliError("--r is required for this signature")
    r = _parse_odd_prime(args.r) if args.signature != "35p" else None
    rep = classify(args.signature, r, t, mode)
    doc = serialize.report_json(rep)
    if args.oracle_check and rep.covered():
        cv = cross_validate(args.signature, r, t)
        doc["oracle"] = serialize.crossval_json(cv)
    code = EXIT_OK if rep.covered() else EXIT_NOT_COVERED
    return doc, code


def render_classify_text(doc) -> str:
    lines = [
        f"signature {doc['signature']}"
        + (f", r = {doc['r']}" if doc["r"] else "")
        + f", t = {doc['t']}",
        f"  case: {doc['case']}",
        f"  conductor exponent: {doc['conductor_exponent']}",
    ]
    if doc["inertial_type"]:
        lines.append(f"  inertial type: {doc['inertial_type']}")
    lines.append(f"  source: {doc['source']}")
    if doc.get("oracle"):
        o = doc["oracle"]
        lines.append(
            f"  oracle: exponent {o['oracle_exponent']}, agree = {o['agree']}"
        )
        if o.get("conflict"):
            lines.append(f"  CONFLICT: {o['conflict']}")
    return "\n".join(lines)


def run_reduce(args) -> tuple[dict, int]:
    if args.pipeline not in PIPELINE_NAMES:
        raise CliError(
            f"unknown pipeline {args.pipeline!r}; choose from {sorted(PIPELINE_NAMES)}"
        )
    kind, case = PIPELINE_NAMES[args.pipeline]
    if kind == "ppr_even":
        if args.r is None:
            raise CliError("--r is required for ppr-even pipelines")
        res = pipeline_ppr_even(case, _parse_odd_prime(args.r))
    elif kind == "35p":
        res = pipeline_35p(case)
    else:
        if args.z is None or args.s is None or args.r is None:
            raise CliError("odd-good needs --z, --s and --r")
        res = pipeline_odd_good_reduction(
            parse_fraction(args.z, "z"),
            parse_fraction(args.s, "s"),
            _parse_odd_prime(args.r),
        )
    return serialize.pipeline_json(res), EXIT_OK


def _val_text(v) -> str:
    if isinstance(v, dict):
        return f"{v['const']} + {v['slope']}*w"
    return str(v)


def render_reduce_text(doc) -> str:
    lines = [
        f"pipeline {doc['label']}",
        f"  model: {doc['model']}",
        f"  integral: {doc['integral']}, display matches: {doc['display_matches']}",
        f"  discriminant valuation: {_val_text(doc['discriminant_valuation'])}",
        f"  fiber: {doc['fiber']}  [{doc['fiber_kind']}, {doc['node_count']} node(s)]",
        f"  field of definition: {doc['field_of_definition']}",
    ]
    for p in doc["points"]:
        a, b = p["a"], p["b"]
        lines.append(
            f"  point ({p['patch']}): a={a['element_bits']:#x}, b={b['element_bits']:#x} "
            f"in GF(2^{a['k']}): {p['kind']}"
        )
    for n in doc["notes"]:
        lines.append(f"  note: {n}")
    return "\n".join(lines)


GRID_SIGNATURES = ("ppr-even", "ppr-odd", "rrp", "2rp", "35p")


def grid_parameters(signature: str, v: int):
    """Deterministic sample t values hitting valuation v for the signature."""
    if signature in ("ppr-even", "ppr-odd"):
        if v < 0:
            yield Fraction(1, 2**-v), f"v2(t)={v}"
        elif signature == "ppr-even" and v > 0:
            yield Fraction(2**v), f"v2(t)={v}"
            yield 1 - Fraction(2**v), f"v2(1-t)={v}"
    elif signature == "rrp":
        if v >= 4:
            yield Fraction(2**v), f"v2(t(t-1))={v} via v2(t)={v}"
            yield 1 + Fraction(2**v), f"v2(t(t-1))={v} via v2(t-1)={v}"
    elif signature == "2rp":
        if v >= 6:
            yield 1 + Fraction(2**v), f"v2(t-1)={v}"
    elif signature == "35p":
        if v < 0:
            yield Fraction(1, 2**-v), f"v2(t)={v}"
        elif v > 0:
            yield Fraction(2**v), f"v2(t)={v}"
            yield 1 - Fraction(2**v), f"v2(1-t)={v}"


def generate_table(r_values, vmin=-9, vmax=11, with_oracle=True) -> list[dict]:
    """Grid reproduction of the conductor table, deterministically ordered."""
    rows = []
    for signature in GRID_SIGNATURES:
        rs = [None] if signature == "35p" else r_values
        for r in rs:
            for v in range(vmin, vmax + 1):
                if v == 0:
                    continue
                for t, why in grid_parameters(signature, v):
                    rep = classify(signature, r, t, TABLE_AS_PRINTED)
                    row = {
                        "signature": signature,
                        "r": r,
                        "valuation": v,
                        "t": serialize.frac_str(t),
                        "grid": why,
                        "case": rep.case,
                        "exponent": rep.exponent,
                        "inertial_type": rep.inertial_type,
                    }
                    if with_oracle and rep.covered():
                        cv = _cross_validate(rep)
                        row["oracle_exponent"] = cv.oracle_exponent
                        row["oracle_agrees"] = cv.agree
                        if cv.conflict:
                            row["conflict"] = cv.conflict
                    rows.append(row)
    return rows


def run_table(args) -> tuple[dict, int]:
    rs = parse_r_range(args.r)
    vmin, vmax = -9, 11
    if args.grid_exponents:
        parts = args.grid_exponents.split("..")
        if len(parts) != 2:
            raise CliError("--grid-exponents expects LO..HI")
        try:
            vmin, vmax = int(parts[0]), int(parts[1])
        except ValueError:
            raise CliError("--grid-exponents expects integers") from None
        if vmin > vmax:
            raise CliError(f"descending --grid-exponents {args.grid_exponents!r}")
    rows = generate_table(rs, vmin, vmax, with_oracle=not args.no_oracle)
    conflicts = [r for r in rows if r.get("conflict")]
    doc = {
        "command": "table",
        "r": rs,
        "grid": [vmin, vmax],
        "rows": rows,
        "row_count": len(rows),
        "conflicts": len(conflicts),
    }
    return doc, EXIT_OK


def render_table_text(doc) -> str:
    lines = [
        f"conductor-exponent grid, r in {doc['r']}, valuations {doc['grid'][0]}..{doc['grid'][1]}"
    ]
    header = f"{'signature':9s} {'r':>2s} {'t':>12s} {'exp':>3s} {'oracle':>6s}  case"
    lines.append(header)
    for row in doc["rows"]:
        orc = row.get("oracle_exponent")
        mark = ""
        if "oracle_agrees" in row:
            mark = "=" if row["oracle_agrees"] else "!"
        lines.append(
            f"{row['signature']:9s} {str(row['r'] or '-'):>2s} {row['t']:>12s} "
            f"{str(row['exponent']):>3s} {str(orc if orc is not None else '-'):>4s}{mark:1s}  {row['case']}"
        )
    lines.append(f"{doc['row_count']} rows, {doc['conflicts']} printed-vs-oracle conflicts")
    return "\n".join(lines)


def build_parser() -> Parser:
    p = Parser(prog="frey2", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="identity and discriminant verification suite")
    v.add_argument("--r", required=True, help="odd prime or range A..B (primes <= 19)")

    c = sub.add_parser("classify", help="conductor exponent for one parameter")
    c.add_argument("--signature", required=True, choices=GRID_SIGNATURES)
    c.add_argument("--r", help="odd prime (ignored for 35p)")
    c.add_argument("--t", required=True, help="rational parameter, e.g. 7/4")
    c.add_argument("--mode", choices=["printed", "oracle"], default="printed")
    c.add_argument(
        "--oracle-check", action="store_true",
        help="also run the construction oracle and attach the comparison",
    )

    d = sub.add_parser("reduce", help="run one reduction pipeline")
    d.add_argument("--pipeline", required=True)
    d.add_argument("--r")
    d.add_argument("--z")
    d.add_argument("--s")

    t = sub.add_parser("table", help="regenerate the conductor table on a grid")
    t.add_argument("--r", required=True)
    t.add_argument("--grid-exponents", help="valuation range LO..HI (default -9..11)")
    t.add_argument("--no-oracle", action="store_true", help="skip oracle cross-checks")

    for s in (v, c, d, t):
        s.add_argument("--format", choices=["text", "json"], default="text")
        s.add_argument("--out", help="write output to a file instead of stdout")
    return p


TEXT_RENDERERS = {
    "verify": render_verify_text,
    "classify": render_classify_text,
    "reduce": render_reduce_text,
    "table": render_table_text,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        doc, code = {
            "verify": run_verify,
            "classify": run_classify,
            "reduce": run_reduce,
            "table": run_table,
        }[args.command](args)
    except CliError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return e.code
    except NotOddPrime as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateParameter as e:
        print(f"degenerate parameter: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (NotCovered, HypothesisViolated) as e:
        print(f"not covered: {e}", file=sys.stderr)
        return EXIT_NOT_COVERED
    except PipelineAssertionFailed as e:
        print(f"assertion failure: {e}", file=sys.stderr)
        return EXIT_ASSERTION
    except Frey2Error as e:
        # FieldTooLarge, ValuationAmbiguous, NonIntegral, ...: one line, no traceback
        message = " ".join(str(e).split())
        print(f"internal error: {type(e).__name__}: {message}", file=sys.stderr)
        return EXIT_ASSERTION

    if args.format == "json":
        text = serialize.dumps(doc)
    else:
        text = TEXT_RENDERERS[args.command](doc)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            print(f"usage error: cannot write {args.out!r}: {e.strerror}", file=sys.stderr)
            return EXIT_USAGE
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
