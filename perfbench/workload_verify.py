"""The `verify` workload: the identity and closed-form discriminant suite.

For r in {3, 5, 7, 11} each item runs either the identity suite or one
closed-form discriminant (C_zs, C_plus, H_rr, H_2r); H_35 runs once.  On
top come seeded change-of-variables law checks over QQ.  Symbolic Bareiss
over QQ[t] and QQ[z][s] dominates; no tame field, Laurent ring or pipeline
is touched, so this isolates the discriminant engine and bypasses any
pipeline cache.

A law item is a curve y^2 + Q y = P with 4P + Q^2 = c * prod (x - r_i) for
distinct integers r_i, so its discriminant is known in closed form, and a
nonsingular change of variables, whose discriminant factor is too.
"""

import importlib
import random
from fractions import Fraction
from math import prod

from schedule import interleave

cli = importlib.import_module("frey2.cli")
algebra = importlib.import_module("frey2.algebra")

R_VALUES = (3, 5, 7, 11)
FAMILIES = ("C_zs", "C_plus", "H_rr", "H_2r")
LAW_CHECKS = 80

PASS, DOCUMENTED = cli.PASS, cli.DOCUMENTED


def _law_item(rng, i):
    """The i-th law check; genus and degree of R follow a fixed schedule.

    Three in four have g = 2 and deg R = 6, so the median item of the
    workload lies well inside that one class of equal-sized Sylvester
    matrices; the rest have g = 1 and deg R = 3 or 4.  The y-scaling e
    cycles through 1, -1, 2, 3, as coefficient growth depends on it.
    """
    g = 2 if i % 4 else 1
    n = 6 if i % 4 else 3 + (i // 4) % 2
    roots = rng.sample(range(-4, 5), n)
    lead = rng.choice([1, -1, 2, -2, 3])
    Q = [rng.randint(-3, 3) for _ in range(g + 2)]
    while True:
        a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
        if a * d - b * c:
            break
    return {
        "kind": "law", "g": g, "lead": lead, "roots": roots, "Q": Q,
        "change": [a, b, c, d, (1, -1, 2, 3)[i // 4 % 4]],
        "shift": [rng.randint(-2, 2) for _ in range(g + 2)],
    }


def generate(seed):
    """The suite items with the law checks spread evenly between them."""
    rng = random.Random(seed)
    suite = []
    for r in R_VALUES:
        suite.append({"kind": "identities", "r": r})
        suite += [{"kind": "closed_form", "family": fam, "r": r} for fam in FAMILIES]
    suite.append({"kind": "closed_form", "family": "H_35", "r": None})
    return interleave([suite, [_law_item(rng, i) for i in range(LAW_CHECKS)]])


def check_inputs(items):
    for it in items:
        if it["kind"] != "law":
            continue
        g, roots = it["g"], it["roots"]
        a, b, c, d, e = it["change"]
        if len(set(roots)) != len(roots) or len(roots) not in (2 * g + 1, 2 * g + 2):
            raise ValueError(f"R is not squarefree of degree 2g+1 or 2g+2: {it}")
        if a * d - b * c == 0 or e == 0:
            raise ValueError(f"singular change of variables: {it}")


def describe(items):
    out = {}
    for it in items:
        key = it["kind"] if it["kind"] != "law" else f"law_g{it['g']}_deg{len(it['roots'])}"
        out[key] = out.get(key, 0) + 1
    return out


def _poly(ring, cs):
    return algebra.Poly(ring, [Fraction(c) for c in cs])


def _law_curve(it, ring):
    """(Q, P) with 4P + Q^2 = lead * prod (x - r_i)."""
    R = _poly(ring, [it["lead"]])
    for root in it["roots"]:
        R = R * _poly(ring, [-root, 1])
    Q = _poly(ring, it["Q"])
    return Q, (R - Q * Q).scale(Fraction(1, 4))


def run(it):
    if it["kind"] == "identities":
        rep = cli.verify_identities(it["r"])
        return {
            "f+2": PASS if rep.f_plus_2_printed else "fail",
            "f-2": PASS if rep.f_minus_2_printed else DOCUMENTED,
            "f-2 factor": rep.f_minus_2_factor_is,
            "f^2-4": PASS if rep.f_squared_minus_4 else "fail",
        }
    if it["kind"] == "closed_form":
        d = cli.verify_closed_form_disc(it["family"], it["r"])
        status = PASS if d.equal else (DOCUMENTED if d.documented_mismatch else "fail")
        return {"status": status, "direct": d.direct, "ratio": d.ratio}
    ring = algebra.PolyRing(algebra.QQ, "x")
    Q, P = _law_curve(it, ring)
    E = cli.HyperEq(Q, P, it["g"])
    a, b, c, d, e = (Fraction(x) for x in it["change"])
    res = cli.apply_change(E, cli.MobiusChange(a, b, c, d, e, _poly(ring, it["shift"])))
    before = cli.hyper_discriminant(E)
    after = cli.hyper_discriminant(res.equation)
    return {"before": before, "after": after, "factor": res.factor,
            "holds": after == res.factor * before}


def render(out):
    return repr(sorted(out.items()))


def _closed_form_disc(it):
    """Delta_E = 2^(-4(g+1)) kappa^2 disc(R) for deg R = 2g+1, without the
    kappa^2 for 2g+2, and disc(R) = lead^(2n-2) prod (r_i - r_j)^2."""
    g, lead, roots = it["g"], it["lead"], it["roots"]
    n = len(roots)
    disc = Fraction(lead) ** (2 * n - 2) * prod(
        (x - y) ** 2 for i, x in enumerate(roots) for y in roots[i + 1:])
    if n == 2 * g + 1:
        disc *= lead**2
    return disc / 2 ** (4 * (g + 1))


def check(it, out):
    problems = []
    if it["kind"] == "identities":
        want = {"f+2": PASS, "f-2": DOCUMENTED, "f-2 factor": "h(x)", "f^2-4": PASS}
        if out != want:
            problems.append(f"identity statuses {out}, expected {want}")
    elif it["kind"] == "closed_form":
        if it["family"] != "C_plus":
            if out["status"] != PASS:
                problems.append(f"{it['family']} closed form: {out['status']}")
        else:
            # the printed C_plus value is the polynomial discriminant, 2^(4g) below
            gap = 2 ** (4 * ((it["r"] - 1) // 2))
            ratio = out["ratio"]
            if out["status"] != DOCUMENTED or ratio is None or ratio.cs != (Fraction(gap),):
                problems.append(f"C_plus: {out['status']} with ratio {ratio!r}, expected 2^(4g)")
    else:
        a, b, c, d, e = it["change"]
        g = it["g"]
        factor = Fraction(e) ** (-4 * (2 * g + 1)) * Fraction(a * d - b * c) ** (2 * (g + 1) * (2 * g + 1))
        before = _closed_form_disc(it)
        if out["before"] != before or out["factor"] != factor:
            problems.append("discriminant or change factor differs from the closed form")
        if not out["holds"] or out["after"] != factor * before:
            problems.append("change-of-variables law fails")
    return problems
