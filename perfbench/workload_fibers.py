"""The `fibers` workload: special-fiber classification over GF(2^k).

Each item is a fiber y^2 + Q y = P over GF(2^k0) of genus g, built so
that its answer is known in advance:

* Q is a product of distinct irreducible factors of chosen degrees, so
  the singular points split over GF(2^m), m = k0 * lcm(factor degrees).
* P = Q S + C^2 with S = C + w Q1 (w a nonzero constant, Q1 a product of
  some of Q's factors).  At a root a of the squarefree Q the point is
  singular iff S(a) = C(a), i.e. iff Q1(a) = 0, and it is then a node.
  On the chart at infinity the point u = 0 exists iff deg Q <= g; it is a
  node when deg Q = g and not semistable when deg Q < g.

The shape schedule is fixed, so every seed has the same splitting-degree
distribution (a third of the items need GF(2^16)); the seed draws only the
factors, C and w.  Here the program's root finder does almost all the work.
"""

import importlib
import json
import random
from math import lcm

import gfref
from schedule import interleave

fibers = importlib.import_module("frey2.fibers")
gf2 = importlib.import_module("frey2.gf2")
algebra = importlib.import_module("frey2.algebra")

# Ambient fields used to build irreducible factors: degree -> modulus.
AMBIENT = {1: 0x3, 2: 0x7, 3: 0xB, 4: 0x13, 6: 0x43, 8: 0x11B, 12: 0x1009, 16: 0x1002B}

# (k0, g, factor degrees, how many leading factors form Q1)
SHAPES_K16 = [
    (8, 1, (2,), 1),
    (8, 2, (2, 1), 1),
    (8, 2, (2,), 0),
    (8, 2, (2,), 1),
    (8, 3, (2, 2), 1),
    (8, 3, (2, 1), 2),
    (8, 3, (2,), 1),
    (4, 3, (4,), 1),
    (4, 3, (4,), 0),
    (8, 1, (2,), 0),
]
SHAPES_OTHER = [
    (4, 2, (3,), 1),
    (4, 3, (3, 1), 0),
    (4, 3, (3,), 1),
    (8, 1, (1, 1), 1),
    (4, 1, (2,), 0),
    (2, 3, (4,), 1),
    (8, 2, (1,), 1),
    (2, 2, (3,), 1),
    (2, 3, (3, 1), 1),
    (1, 3, (4,), 0),
    (2, 1, (2,), 1),
    (4, 1, (1, 1), 2),
    (1, 2, (3,), 1),
    (1, 3, (3, 1), 1),
    (1, 1, (2,), 1),
    (2, 1, (1,), 1),
    (1, 2, (2, 1), 2),
    (1, 1, (1, 1), 1),
    (1, 2, (1, 1), 2),
    (2, 2, (1, 1, 1), 1),
]
# Every shape twice: 60 items, 20 of them over GF(2^16).
SCHEDULE = interleave([SHAPES_K16 * 2, SHAPES_OTHER * 2])


def _irreducible(rng, k0, mod0, d):
    """A random monic irreducible polynomial of degree d over GF(2^k0).

    The minimal polynomial of an element of GF(2^(k0 d)) with exactly d
    conjugates over GF(2^k0), pulled back through one embedding.
    """
    if d == 1:
        return [rng.randrange(1 << k0), 1]
    n = k0 * d
    mod_n = AMBIENT[n]
    q = 1 << k0
    back = {img: c for c, img in enumerate(
        gfref.embedding(gfref.subfield_roots(k0, mod0, n, mod_n)[0], k0, n, mod_n))}
    while True:
        alpha = rng.randrange(1 << n)
        conj = [alpha]
        for _ in range(d - 1):
            conj.append(gfref.power(conj[-1], q, n, mod_n))
        if len(set(conj)) == d:
            break
    poly = [1]
    for c in conj:
        poly = gfref.poly_mul(poly, [c, 1], n, mod_n)
    return [back[c] for c in poly]


def generate(seed):
    """The item list for one seed; each item is plain data."""
    rng = random.Random(seed)
    items = []
    for k0, g, degrees, n_q1 in SCHEDULE:
        mod0 = gf2.IRREDUCIBLE[k0]
        while True:
            factors = [_irreducible(rng, k0, mod0, d) for d in degrees]
            if len({tuple(f) for f in factors}) == len(factors):
                break
        Q = [1]
        for f in factors:
            Q = gfref.poly_mul(Q, f, k0, mod0)
        Q1 = [1]
        for f in factors[:n_q1]:
            Q1 = gfref.poly_mul(Q1, f, k0, mod0)
        C = [rng.randrange(1 << k0) for _ in range(g + 1)] + [rng.randrange(1, 1 << k0)]
        w = rng.randrange(1, 1 << k0)
        S = gfref.poly_add(C, [gfref.mul(w, c, k0, mod0) for c in Q1])
        P = gfref.poly_add(gfref.poly_mul(Q, S, k0, mod0), gfref.poly_mul(C, C, k0, mod0))
        items.append({
            "k0": k0, "g": g, "Q": Q, "P": P,
            "factor_degrees": list(degrees), "q1_degree": len(Q1) - 1,
        })
    return items


def check_inputs(items):
    """Every fiber lies in the genus-g degree window with a squarefree design."""
    for it in items:
        g, dq, dp = it["g"], len(it["Q"]) - 1, len(it["P"]) - 1
        if dq != sum(it["factor_degrees"]) or not g - 1 <= dq <= g + 1:
            raise ValueError(f"bad Q degree in {it}")
        if max(2 * dq, dp) not in (2 * g + 1, 2 * g + 2):
            raise ValueError(f"degree window violated by {it}")
        if it["k0"] * lcm(*it["factor_degrees"]) > 16:
            raise ValueError(f"splitting field too large for {it}")


def describe(items):
    """Seed-independent shape summary: item count per splitting degree."""
    counts = {}
    for it in items:
        m = it["k0"] * lcm(*it["factor_degrees"])
        counts[m] = counts.get(m, 0) + 1
    return {f"k{m}": counts[m] for m in sorted(counts)}


def _fiber(it):
    field = gf2.gf2k(it["k0"])
    ring = algebra.PolyRing(field, "x")
    return fibers.SpecialFiber(
        field, algebra.Poly(ring, it["Q"]), algebra.Poly(ring, it["P"]), it["g"])


def run(it):
    """Classify one fiber the way the reduction pipelines do."""
    F = _fiber(it)
    kind, nodes = fibers.fiber_type(F)
    points = fibers.singular_points(F)
    return {
        "kind": kind,
        "nodes": nodes,
        "points": [[p.patch, p.field.k, p.field.modulus, p.a, p.b, p.kind] for p in points],
    }


def render(out):
    return json.dumps(out, separators=(",", ":"))


def expected(it):
    """(splitting degree, affine nodes, infinity point kind or None)."""
    g, dq = it["g"], len(it["Q"]) - 1
    m = it["k0"] * lcm(*it["factor_degrees"])
    infinity = None if dq == g + 1 else ("node" if dq == g else "non-semistable-singular")
    return m, it["q1_degree"], infinity


def _jacobian_ok(points, it):
    """Some embedding GF(2^k0) -> GF(2^m) puts every point on the fiber,
    with all three Jacobian equations and the reported kind holding."""
    k0, g = it["k0"], it["g"]
    charts = {
        fibers.AFFINE: (it["Q"], it["P"]),
        fibers.INFINITY: (gfref.reverse(it["Q"], g + 1), gfref.reverse(it["P"], 2 * g + 2)),
    }
    _, m, modulus = points[0][:3]
    for root in gfref.subfield_roots(k0, gf2.IRREDUCIBLE[k0], m, modulus):
        phi = gfref.embedding(root, k0, m, modulus)
        ok = True
        for patch, _, _, a, b, kind in points:
            Q, P = ([phi[c] for c in cs] for cs in charts[patch])
            qa, pa = gfref.poly_eval(Q, a, m, modulus), gfref.poly_eval(P, a, m, modulus)
            dqa = gfref.poly_eval(gfref.derivative(Q), a, m, modulus)
            dpa = gfref.poly_eval(gfref.derivative(P), a, m, modulus)
            on_curve = gfref.mul(b, b, m, modulus) ^ gfref.mul(b, qa, m, modulus) == pa
            jacobian = qa == 0 and gfref.mul(b, dqa, m, modulus) == dpa
            want = "node" if dqa else "non-semistable-singular"
            if not (on_curve and jacobian and kind == want):
                ok = False
                break
        if ok:
            return True
    return False


def check(it, out):
    """Problems with one output, against the design and independent oracles."""
    problems = []
    m, affine_nodes, infinity = expected(it)
    nodes = affine_nodes + (infinity == "node")
    kind = "smooth" if not (nodes or infinity) else (
        "nodal" if infinity != "non-semistable-singular" else "non-semistable")
    if (out["kind"], out["nodes"]) != (kind, nodes):
        problems.append(f"fiber type {out['kind']}/{out['nodes']}, expected {kind}/{nodes}")
    pts = out["points"]
    by_patch = {fibers.AFFINE: 0, fibers.INFINITY: 0}
    for p in pts:
        by_patch[p[0]] += 1
    if by_patch != {fibers.AFFINE: affine_nodes, fibers.INFINITY: int(infinity is not None)}:
        problems.append(f"points per chart {by_patch}")
    if any(p[1] != m for p in pts):
        problems.append(f"points outside GF(2^{m})")
    if pts and not problems and not _jacobian_ok(pts, it):
        problems.append("a reported point fails the Jacobian criterion")
    F = _fiber(it)
    big = gf2.gf2k(m)
    if fibers.splitting_field(F) != big:
        problems.append(f"splitting field is not GF(2^{m})")
    # Q is squarefree and splits over GF(2^m): it has deg Q distinct roots;
    # its reversal loses the root 0 and gains u = 0 when deg Q <= g.
    dq = len(it["Q"]) - 1
    roots = {fibers.AFFINE: dq,
             fibers.INFINITY: dq - (it["Q"][0] == 0) + (dq < it["g"] + 1)}
    for patch, Q, P in F.patches():
        locus = Q if not Q.is_zero() else P.derivative()
        if locus.degree() < 1:
            continue
        lifted = gf2.embed_poly(locus, F.field, algebra.PolyRing(big, locus.ring.var))
        if gf2.linear_factor_count(lifted, big) != roots[patch]:
            problems.append(f"{patch} locus root count differs from linear_factor_count")
    if m <= 8:
        got = {(p[0], p[3], p[4]) for p in pts}
        if got != fibers.brute_force_singular(F, m):
            problems.append("point set differs from the brute-force scan")
    return problems

