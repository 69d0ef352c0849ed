"""The `table` workload: the `frey2 table --r 3..7` grid at seeded t values.

The grid keeps the CLI's signatures, r values and valuations -9..11
(217 rows), but each t is 2^v times a seeded odd unit a/b with a and b of
a fixed bit size (or 1 -/+ that), so every seed lands in the same
valuation cases and has the same expected verdicts.  Each row runs the
printed `classify`, `cross_validate` and canonical-JSON serialization,
as `frey2 table` does.  This loads Bareiss over Laurent and tame-field
domains and calls the t-independent pipelines over and over, so it
shows both kernel and memoization changes.
"""

import importlib
import json
import random
from fractions import Fraction

from schedule import interleave

cli = importlib.import_module("frey2.cli")
serialize = importlib.import_module("frey2.serialize")

R_VALUES = (3, 5, 7)
VALUATIONS = [v for v in range(-9, 12) if v != 0]
UNIT_BITS = 6

# signature -> valuation -> the forms of t on the grid; u is the odd unit.
FORMS = {
    "ppr-even": lambda v: ["2^v u"] if v < 0 else ["2^v u", "1 - 2^v u"],
    "ppr-odd": lambda v: ["2^v u"] if v < 0 else [],
    "rrp": lambda v: ["2^v u", "1 + 2^v u"] if v >= 4 else [],
    "2rp": lambda v: ["1 + 2^v u"] if v >= 6 else [],
    "35p": lambda v: ["2^v u"] if v < 0 else ["2^v u", "1 - 2^v u"],
}


def _odd(rng):
    return rng.randrange(1 << (UNIT_BITS - 1), 1 << UNIT_BITS) | 1


def _t(form, v, u):
    x = Fraction(2) ** v * u
    return {"2^v u": x, "1 - 2^v u": 1 - x, "1 + 2^v u": 1 + x}[form]


def generate(seed):
    """The grid rows, each (signature, r) group spread evenly over the pass."""
    rng = random.Random(seed)
    groups = []
    for signature in cli.GRID_SIGNATURES:
        for r in ([None] if signature == "35p" else R_VALUES):
            groups.append([])
            for v in VALUATIONS:
                for form in FORMS[signature](v):
                    u = Fraction(_odd(rng), _odd(rng))
                    groups[-1].append({
                        "signature": signature, "r": r, "valuation": v, "form": form,
                        "t": serialize.frac_str(_t(form, v, u)),
                    })
    return interleave(groups)


def _v2(q):
    q = Fraction(q)
    n, d = q.numerator, q.denominator
    return ((n & -n).bit_length() - 1) - ((d & -d).bit_length() - 1)


def check_inputs(items):
    """Each t hits its intended valuation case; the grid has 217 rows."""
    if len(items) != 217:
        raise ValueError(f"{len(items)} grid rows, expected 217")
    for it in items:
        t, v = Fraction(it["t"]), it["valuation"]
        offset = {"2^v u": t, "1 - 2^v u": 1 - t, "1 + 2^v u": t - 1}[it["form"]]
        if t in (0, 1) or _v2(offset) != v:
            raise ValueError(f"t = {t} misses v2 = {v} in {it}")


def describe(items):
    return {s: sum(1 for it in items if it["signature"] == s) for s in cli.GRID_SIGNATURES}


def run(it):
    """One grid row, built exactly as `frey2 table` builds it."""
    signature, r, t = it["signature"], it["r"], Fraction(it["t"])
    rep = cli.classify(signature, r, t, cli.TABLE_AS_PRINTED)
    row = {
        "signature": signature,
        "r": r,
        "valuation": it["valuation"],
        "t": it["t"],
        "grid": f"{it['form']} with v = {it['valuation']}",
        "case": rep.case,
        "exponent": rep.exponent,
        "inertial_type": rep.inertial_type,
    }
    if rep.covered():
        cv = cli.cross_validate(signature, r, t)
        row["oracle_exponent"] = cv.oracle_exponent
        row["oracle_agrees"] = cv.agree
        if cv.conflict:
            row["conflict"] = cv.conflict
    return {"row": row, "json": serialize.dumps(row)}


def render(out):
    return out["json"]


def _residue_degree(r):
    f, p = 1, 2 % r
    while p not in (1, r - 1):
        p, f = 2 * p % r, f + 1
    return f


def _ramified_type(e, f):
    return "principal_series" if (2**f - 1) % e == 0 else "supercuspidal"


def expected(it):
    """(printed exponent, oracle exponent or None, inertial type) by the
    closed-form congruence rules of the table."""
    sig, r, v, form = it["signature"], it["r"], it["valuation"], it["form"]
    if sig == "ppr-even":
        if v > 0:
            return 1, 1, "toric"
        e = 0 if v % r == 0 else 2
        return e, e, "good" if e == 0 else _ramified_type(r, _residue_degree(r))
    if sig == "35p":
        if v < 0:
            return 1, 1, "toric"
        n = 3 if form == "2^v u" else 5
        e = 0 if v % n == 0 else 2
        return e, e, "good" if e == 0 else _ramified_type(n, _residue_degree(5))
    if sig == "ppr-odd":
        if v > -4:
            return "not_covered", None, None
        printed = 0 if (v + 2) % r == 0 else 2
        oracle = 0 if (v + 4) % r == 0 else 2
    else:
        base = 4 if sig == "rrp" else 6
        printed = oracle = 0 if (v - base) % r == 0 else 2
    return printed, oracle, "good" if printed == 0 else _ramified_type(r, _residue_degree(r))


def check(it, out):
    row = out["row"]
    printed, oracle, inertial = expected(it)
    problems = []
    if row["exponent"] != printed:
        problems.append(f"printed exponent {row['exponent']}, expected {printed}")
    if row["inertial_type"] != inertial:
        problems.append(f"inertial type {row['inertial_type']}, expected {inertial}")
    if row.get("oracle_exponent") != oracle:
        problems.append(f"oracle exponent {row.get('oracle_exponent')}, expected {oracle}")
    if oracle is not None:
        conflict = printed != oracle
        if row.get("oracle_agrees") is not (not conflict) or bool(row.get("conflict")) != conflict:
            problems.append(f"conflict flag wrong: expected conflict = {conflict}")
    if json.loads(out["json"]) != row:
        problems.append("serialized row does not round-trip")
    return problems

