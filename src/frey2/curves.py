"""Hyperelliptic equations y^2 + Q(x) y = P(x) and their transformations.

The degree window 2g+1 <= max(2 deg Q, deg P) <= 2g+2 with deg Q <= g+1,
deg P <= 2g+2 is enforced at construction.  The discriminant follows the
normalization

    Delta_E = 2^(-4(g+1)) * Delta(R)            (deg R = 2g+2)
    Delta_E = 2^(-4(g+1)) * kappa^2 * Delta(R)  (deg R = 2g+1)

for R = 4P + Q^2 with leading coefficient kappa.  Changes of variables
return the transformed equation together with the exact discriminant
scale factor e^(-4(2g+1)) (ad-bc)^(2(g+1)(2g+1)), so pipelines can track
discriminants without recomputing resultants: factor times the certified
closed form of their starting curve.  A diagonal change (x scaled, no
translation or inversion) costs O(deg) coefficient operations.  Any other
change over QQ is one homogeneous Horner on Python ints, with X replaced
by 2^B (Kronecker substitution, as for QQ products and resultants in
`algebra`); over any other base it costs O(deg^2) ring operations.
`hyper_discriminant`, the direct determinant, runs on the verified paths
only over QQ[t] and QQ[s].
"""

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Poly, PolyRing, RationalField, _clear, _unpack, discriminant, poly_str
from .errors import DegreeViolation, SingularChange


class HyperEq:
    """Pair (Q, P) of polynomials defining y^2 + Q y = P of genus g."""

    __slots__ = ("ring", "Q", "P", "g")

    def __init__(self, Q: Poly, P: Poly, g: int, check_window=True):
        if Q.ring != P.ring:
            raise TypeError("Q and P must live in the same polynomial ring")
        if g < 0:
            raise DegreeViolation("genus must be non-negative")
        if check_window:
            dq, dp = Q.degree(), P.degree()
            if dq > g + 1:
                raise DegreeViolation(f"deg Q = {dq} exceeds g+1 = {g+1}")
            if dp > 2 * g + 2:
                raise DegreeViolation(f"deg P = {dp} exceeds 2g+2 = {2*g+2}")
            top = max(2 * dq, dp)
            if not (2 * g + 1 <= top <= 2 * g + 2):
                raise DegreeViolation(
                    f"max(2 deg Q, deg P) = {top} outside [{2*g+1}, {2*g+2}]"
                )
        self.ring = Q.ring
        self.Q = Q
        self.P = P
        self.g = g

    @property
    def base(self):
        return self.ring.base

    def R(self) -> Poly:
        return self.P.scale(self.base.from_int(4)) + self.Q * self.Q

    def __eq__(self, other):
        return (
            isinstance(other, HyperEq)
            and self.g == other.g
            and self.Q == other.Q
            and self.P == other.P
        )

    def __hash__(self):
        return hash((self.Q, self.P, self.g))

    def __repr__(self):
        return f"HyperEq(g={self.g}: {equation_str(self)})"


def equation_str(E: HyperEq, var=None) -> str:
    var = var or E.ring.var
    qs = poly_str(E.Q, var)
    if E.Q.is_zero():
        lhs = "y^2"
    elif qs == "1":
        lhs = "y^2 + y"
    elif E.Q.degree() == 0:
        lhs = f"y^2 + ({qs})*y"
    else:
        lhs = f"y^2 + y*({qs})"
    return f"{lhs} = {poly_str(E.P, var)}"


def hyper_discriminant(E: HyperEq):
    """The curve discriminant Delta_E; nonzero iff the curve is nonsingular."""
    base = E.base
    if base.characteristic() == 2:
        raise DegreeViolation("discriminant normalization needs 2 invertible")
    R = E.R()
    n = R.degree()
    if n == 2 * E.g + 2:
        d = discriminant(R)
    elif n == 2 * E.g + 1:
        kappa = R.lc()
        d = base.mul(base.mul(kappa, kappa), discriminant(R))
    else:
        raise DegreeViolation(f"deg R = {n}, expected 2g+1 or 2g+2")
    return base.exact_div(d, base.from_int(2 ** (4 * (E.g + 1))))


def infinity_patch(E: HyperEq) -> HyperEq:
    """The second affine chart (T, S): S(u) = u^(2g+2) P(1/u), T(u) = u^(g+1) Q(1/u).

    Applying it twice returns the original equation.  The result may fall
    outside the degree window (the chart is whatever the gluing dictates),
    so no window check is performed on it.
    """
    g = E.g
    S = E.P.reversed_to(2 * g + 2)
    T = E.Q.reversed_to(g + 1)
    return HyperEq(T, S, g, check_window=False)


@dataclass(frozen=True)
class MobiusChange:
    """x = (a X + b)/(c X + d), y = (e Y + shift(X))/(c X + d)^(g+1)."""

    a: object
    b: object
    c: object
    d: object
    e: object
    shift: Poly  # the additive polynomial R(X)

    @staticmethod
    def identity(ring: PolyRing) -> "MobiusChange":
        base = ring.base
        return MobiusChange(base.one, base.zero, base.zero, base.one, base.one, ring.zero)

    @staticmethod
    def y_sub(ring: PolyRing, e, shift=None) -> "MobiusChange":
        """y = e Y + shift(X), x unchanged."""
        base = ring.base
        return MobiusChange(
            base.one, base.zero, base.zero, base.one, e, shift if shift is not None else ring.zero
        )


@dataclass(frozen=True)
class ChangeResult:
    equation: HyperEq
    factor: object  # exact Delta multiplier e^(-4(2g+1)) (ad-bc)^(2(g+1)(2g+1))


def _clearing_transform(H: Poly, a, b, c, d, cap: int) -> Poly:
    """(c X + d)^cap * H((a X + b)/(c X + d)) as a polynomial of degree <= cap.

    A diagonal change (b = c = 0) scales coefficient i by a^i d^(cap-i),
    O(deg) ring operations.  Any other change runs homogeneous Horner,
    S_k = S_(k-1) (a X + b) + h_(n-k) (c X + d)^k with S_n times
    (c X + d)^(cap-n) the result.  Over QQ that Horner runs once on Python
    ints (see `_rational_clearing_transform`); over any other base it takes
    O(deg^2) ring operations.
    """
    ring = H.ring
    base = ring.base
    n = H.degree()
    if n < 0:
        return H
    if base.is_zero(b) and base.is_zero(c):
        a_pows = [base.one]
        for _ in range(n):
            a_pows.append(base.mul(a_pows[-1], a))
        d_pows = [base.one]
        for _ in range(cap):
            d_pows.append(base.mul(d_pows[-1], d))
        return Poly(
            ring,
            [
                h if base.is_zero(h) else base.mul(base.mul(h, a_pows[i]), d_pows[cap - i])
                for i, h in enumerate(H.cs)
            ],
        )
    if isinstance(base, RationalField):
        return _rational_clearing_transform(H, a, b, c, d, cap)
    num = Poly(ring, (b, a))  # a X + b
    den = Poly(ring, (d, c))  # c X + d
    den_pow = ring.one
    acc = ring.const(H.cs[n])
    for k in range(1, n + 1):
        den_pow = den_pow * den
        acc = acc * num
        h = H.cs[n - k]
        if not base.is_zero(h):
            acc = acc + den_pow.scale(h)
    return acc * den ** (cap - n)


def _rational_clearing_transform(H: Poly, a, b, c, d, cap: int) -> Poly:
    """The homogeneous Horner of `_clearing_transform` over QQ, on one integer.

    a, b, c, d are multiplied by the lcm lam of their denominators, which
    leaves x = (a X + b)/(c X + d) unchanged and scales the result by
    lam^cap, and H by the lcm L_H of its denominators.  The cleared result
    is sum_i h_i (a X + b)^i (c X + d)^(cap-i) with integer h_i, a, b, c, d,
    so every coefficient is at most bound = ||L_H H||_1 *
    max(|a| + |b|, |c| + |d|)^cap < 2^(k-1) in absolute value, with
    k = bound.bit_length() + 1.  Horner on the values at X = 2^k then gives
    an integer whose balanced base-2^k digits, divided by L_H lam^cap, are
    the coefficients (Kronecker substitution, as in `algebra.resultant`).
    """
    lam, (a, b, c, d) = _clear((a, b, c, d))
    L, hs = _clear(H.cs)
    bound = sum(map(abs, hs)) * max(abs(a) + abs(b), abs(c) + abs(d)) ** cap
    k = bound.bit_length() + 1
    num, den = (a << k) + b, (c << k) + d
    acc, den_pow = hs[-1], 1
    for h in reversed(hs[:-1]):
        den_pow *= den
        acc = acc * num + h * den_pow
    denom = L * lam**cap
    digits = _unpack(acc * den ** (cap - len(hs) + 1), k)
    return Poly(H.ring, [Fraction(v, denom) for v in digits], normalized=True)


def apply_change(E: HyperEq, M: MobiusChange) -> ChangeResult:
    """Transformed equation plus the exact discriminant scale factor."""
    base = E.base
    g = E.g
    det = base.sub(base.mul(M.a, M.d), base.mul(M.b, M.c))
    if base.is_zero(det) or base.is_zero(M.e):
        raise SingularChange("ad - bc = 0 or e = 0")
    q_star = _clearing_transform(E.Q, M.a, M.b, M.c, M.d, g + 1)
    p_star = _clearing_transform(E.P, M.a, M.b, M.c, M.d, 2 * g + 2)
    two_shift = M.shift.scale(base.from_int(2))
    num_Q = two_shift + q_star
    num_P = p_star - M.shift * M.shift - q_star * M.shift
    if base.is_field:
        # one inverse of e, for the model and the factor alike
        e_inv = base.inv(M.e)
        new_Q = num_Q.scale(e_inv)
        new_P = num_P.scale(base.mul(e_inv, e_inv))
        e_inv_pow = base.pow(e_inv, 4 * (2 * g + 1))
    else:
        e2 = base.mul(M.e, M.e)
        new_Q = num_Q.map_coeffs(lambda co: base.exact_div(co, M.e), E.ring)
        new_P = num_P.map_coeffs(lambda co: base.exact_div(co, e2), E.ring)
        e_inv_pow = base.pow(M.e, -4 * (2 * g + 1))
    new_eq = HyperEq(new_Q, new_P, g)
    factor = base.mul(e_inv_pow, base.pow(det, 2 * (g + 1) * (2 * g + 1)))
    return ChangeResult(new_eq, factor)
