"""Characteristic-2 geometry of special fibers.

Singular points of y^2 + Q y = P over a binary field are exactly the
points (a, b) with Q(a) = 0 and P'(a)^2 = Q'(a)^2 P(a); such a point is an
ordinary double point (node) iff Q'(a) != 0, and fails to be semistable
exactly when Q(a) = Q'(a) = P'(a) = 0.  Points are collected over both
affine charts; the second chart contributes only its u = 0 points, the
rest being glued to the first chart.
"""

from dataclasses import dataclass
from math import lcm

from .algebra import Poly, PolyRing
from .curves import HyperEq, infinity_patch
from .errors import FieldTooLarge, Frey2Error
from . import gf2
from .gf2 import GF2k, embed_poly, irreducible_factor_degrees

SMOOTH = "smooth"
NODE = "node"
NON_SEMISTABLE = "non-semistable-singular"

AFFINE = "affine"
INFINITY = "infinity"


class SpecialFiber:
    """Reduction (Q, P) over a binary field, with the genus of the model."""

    __slots__ = ("field", "eq",)

    def __init__(self, field: GF2k, Q: Poly, P: Poly, g: int):
        self.field = field
        self.eq = HyperEq(Q, P, g, check_window=False)

    @property
    def Q(self):
        return self.eq.Q

    @property
    def P(self):
        return self.eq.P

    @property
    def g(self):
        return self.eq.g

    def patches(self):
        inf = infinity_patch(self.eq)
        return ((AFFINE, self.eq.Q, self.eq.P), (INFINITY, inf.Q, inf.P))

    def __eq__(self, other):
        return (
            isinstance(other, SpecialFiber)
            and self.field == other.field
            and self.eq == other.eq
        )

    def __hash__(self):
        return hash((self.field, self.eq))

    def __repr__(self):
        from .curves import equation_str

        return f"SpecialFiber({self.field!r}: {equation_str(self.eq)})"


@dataclass(frozen=True)
class PointReport:
    """A classified point: chart, coordinates, and the field they live in."""

    patch: str
    field: GF2k
    a: int
    b: int
    kind: str


def splitting_field(F: SpecialFiber) -> GF2k:
    """Smallest field containing every singular point of both charts."""
    k = F.field.k
    degs = {1}
    for _, Q, P in F.patches():
        locus = Q if not Q.is_zero() else P.derivative()
        if locus.is_zero():
            raise Frey2Error(
                "degenerate fiber: singular locus is not zero-dimensional"
            )
        if locus.degree() >= 1:
            degs |= irreducible_factor_degrees(locus)
    m = k * lcm(*degs)
    if m > gf2.MAX_K:
        raise FieldTooLarge(f"splitting field GF(2^{m}) exceeds GF(2^{gf2.MAX_K})")
    return gf2.gf2k(m)


def singular_points(F: SpecialFiber) -> list[PointReport]:
    """All singular points over the splitting field, both charts, classified.

    Chart-2 points with u != 0 are glued to chart-1 points and therefore
    reported once, on the affine chart.
    """
    big = splitting_field(F)
    out = []
    for patch, Q, P in F.patches():
        ring = PolyRing(big, Q.ring.var)
        Qb = embed_poly(Q, F.field, ring)
        Pb = embed_poly(P, F.field, ring)
        locus = Qb if not Qb.is_zero() else Pb.derivative()
        if locus.is_zero():
            raise Frey2Error("degenerate fiber: singular locus is not zero-dimensional")
        if locus.degree() < 1:
            continue
        dQ, dP = Qb.derivative(), Pb.derivative()
        for a in gf2.roots_in_gf2k(locus, big):
            if patch == INFINITY and a != 0:
                continue
            if Qb.eval(a) != 0:
                continue
            pa, pda, qda = Pb.eval(a), dP.eval(a), dQ.eval(a)
            if big.mul(pda, pda) != big.mul(big.mul(qda, qda), pa):
                continue
            # b = sqrt(P(a)) lies on the curve since Q(a) = 0
            kind = NODE if qda != 0 else NON_SEMISTABLE
            out.append(PointReport(patch, big, a, big.sqrt(pa), kind))
    return out


def fiber_kind(points: list[PointReport]) -> tuple[str, int]:
    """('smooth' | 'nodal' | 'non-semistable', node count) of a fiber
    whose singular points are `points`."""
    if not points:
        return "smooth", 0
    if all(p.kind == NODE for p in points):
        return "nodal", len(points)
    return "non-semistable", sum(1 for p in points if p.kind == NODE)


def fiber_type(F: SpecialFiber) -> tuple[str, int]:
    """('smooth' | 'nodal' | 'non-semistable', node count)."""
    return fiber_kind(singular_points(F))


def brute_force_singular(F: SpecialFiber, m: int) -> set[tuple[str, int, int]]:
    """Oracle: test the Jacobian-criterion equations at every a in GF(2^m).

    A singular point needs Q(a) = 0, and then b^2 = P(a) leaves the single
    candidate b = sqrt(P(a)); the point is kept when b Q'(a) = P'(a).  Both
    charts are scanned (the second contributes its u = 0 point).  The
    fiber's coefficients are embedded into GF(2^m), so m must be a
    multiple of the coefficient field degree.  Independent of the root
    finder: every element is evaluated.
    """
    if m > 8:
        raise FieldTooLarge("brute-force scans support m <= 8")
    big = gf2.gf2k(m)
    found = set()
    for patch, Q, P in F.patches():
        ring = PolyRing(big, Q.ring.var)
        Qb = embed_poly(Q, F.field, ring)
        Pb = embed_poly(P, F.field, ring)
        dQ, dP = Qb.derivative(), Pb.derivative()
        for a in big.elements() if patch == AFFINE else (0,):
            if Qb.eval(a) != 0:
                continue
            b = big.sqrt(Pb.eval(a))
            if big.mul(b, dQ.eval(a)) == dP.eval(a):
                found.add((patch, a, b))
    return found
