"""Exact univariate polynomial arithmetic over pluggable coefficient domains.

A *domain* object knows how to add, multiply, and exactly divide its
elements; elements themselves are plain values (``Fraction`` for the
rationals, ``Poly`` for polynomial coefficient rings, ints for finite
fields, tuples for tame local fields).  Polynomials are immutable
coefficient tuples, lowest degree first, with no trailing zeros.

Resultants are Sylvester determinants evaluated by fraction-free Bareiss
elimination (`bareiss_det`, the one elimination loop), so every
intermediate value stays inside the coefficient domain and the final
result is bit-exact.  Over QQ and QQ[t] the resultant is one determinant
over the integers (`ZZ`): each operand is cleared of its denominators once
and t is replaced by 2^B, with B large enough that every coefficient of
the result is one balanced base-2^B digit of the integer (Kronecker
substitution; see `resultant`).  This is exact because evaluation at 2^B
is a ring homomorphism and the Leibniz expansion bounds every coefficient
below 2^(B-1).  Other domains (tame fields, Laurent rings, finite fields,
QQ[z][s]) eliminate on their own elements; no verified path does that any
more (see `families`), but the tests use it as an oracle.

Products of polynomials over QQ are packed the same way: each operand is
cleared of its denominators (L_a, L_b) and evaluated at 2^B, the two
integers are multiplied once, and the digits divided by L_a*L_b are the
coefficients.  Every coefficient of the cleared product is bounded by
min(len a, len b) * max|a_i| * max|b_j| < 2^(B-1) (see `_rational_product`).
Products over every other base (QQ[t] as the base of QQ[t][x], tame
fields, finite fields) run the schoolbook loop, whose inner products over
QQ are packed in turn.
"""

from fractions import Fraction
from math import isqrt, lcm

from .errors import (
    DivisionByZero,
    InexactDivision,
    NonIntegralCoefficient,
    NotOddPrime,
    ZeroElement,
    ZeroInput,
)


def v2(q) -> int:
    """Exact 2-adic valuation of a nonzero int or Fraction."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    if not q:
        raise ZeroElement("v2(0) is undefined")
    n, d = q.numerator, q.denominator
    return ((n & -n).bit_length() - 1) - ((d & -d).bit_length() - 1)


def rational_residue_bit(q) -> int:
    """Reduction of a 2-integral rational into GF(2), as 0 or 1."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    # in lowest terms, v2(q) < 0 exactly when the denominator is even
    if not q.denominator & 1:
        raise NonIntegralCoefficient(f"{q} has negative 2-adic valuation")
    # the denominator is odd, hence congruent to 1 mod 2
    return q.numerator & 1


def is_odd_prime(r) -> bool:
    if not isinstance(r, int) or r < 3 or r % 2 == 0:
        return False
    d = 3
    while d * d <= r:
        if r % d == 0:
            return False
        d += 2
    return True


def check_odd_prime(r) -> int:
    if not is_odd_prime(r):
        raise NotOddPrime(f"r = {r!r} is not an odd prime")
    return r


class Domain:
    """Commutative coefficient domain; subclasses fill in the arithmetic."""

    zero = None
    one = None
    # Every nonzero element is a unit, so a/b may be computed as a * inv(b).
    is_field = False

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        return a == self.zero

    def from_int(self, n: int):
        raise NotImplementedError

    def from_rational(self, q):
        """Embed a rational number; only meaningful in characteristic 0."""
        q = Fraction(q)
        if q.denominator == 1:
            return self.from_int(q.numerator)
        return self.exact_div(self.from_int(q.numerator), self.from_int(q.denominator))

    def exact_div(self, a, b):
        """Quotient a/b when it exists in the domain; InexactDivision otherwise."""
        raise NotImplementedError

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = self.one
        while n:
            if n & 1:
                out = self.mul(out, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return out

    def characteristic(self) -> int:
        return 0


class RationalField(Domain):
    """The rationals, elements are fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)
    is_field = True

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, n):
        return Fraction(n)

    def from_rational(self, q):
        return Fraction(q)

    def exact_div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero in Q")
        return Fraction(a) / b

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        return self.exact_div(self.one, a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class IntegerRing(Domain):
    """The integers, elements are Python ints."""

    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def exact_div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero in Z")
        q, rem = divmod(a, b)
        if rem:
            raise InexactDivision(f"{a} is not divisible by {b} in Z")
        return q

    def __repr__(self):
        return "ZZ"


ZZ = IntegerRing()


class PrimeField(Domain):
    """The field GF(p) of integers mod a prime p, elements are ints 0..p-1."""

    zero = 0
    one = 1
    is_field = True

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise ValueError(f"{p} is not a prime")
        self.order = p

    def add(self, a, b):
        return (a + b) % self.order

    def sub(self, a, b):
        return (a - b) % self.order

    def neg(self, a):
        return -a % self.order

    def mul(self, a, b):
        return a * b % self.order

    def from_int(self, n):
        return n % self.order

    def exact_div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in GF({self.order})")
        return pow(a, -1, self.order)

    def characteristic(self):
        return self.order

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.order == other.order

    def __hash__(self):
        return hash(("PrimeField", self.order))

    def __repr__(self):
        return f"GF({self.order})"


class Poly:
    """Dense univariate polynomial; `cs` is the coefficient tuple, low first."""

    __slots__ = ("ring", "cs")

    def __init__(self, ring, coeffs, normalized=False):
        self.ring = ring
        if normalized:
            self.cs = tuple(coeffs)
            return
        cs = list(coeffs)
        base = ring.base
        while cs and base.is_zero(cs[-1]):
            cs.pop()
        self.cs = tuple(cs)

    @property
    def base(self):
        return self.ring.base

    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.cs) - 1

    def is_zero(self) -> bool:
        return not self.cs

    def lc(self):
        if not self.cs:
            raise ZeroInput("zero polynomial has no leading coefficient")
        return self.cs[-1]

    def coeff(self, i: int):
        if 0 <= i < len(self.cs):
            return self.cs[i]
        return self.base.zero

    def constant(self):
        return self.coeff(0)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.cs == other.cs
        )

    def __hash__(self):
        return hash((self.ring, self.cs))

    def __add__(self, other):
        other = self.ring.coerce(other)
        base = self.base
        n = max(len(self.cs), len(other.cs))
        return Poly(
            self.ring,
            [base.add(self.coeff(i), other.coeff(i)) for i in range(n)],
        )

    def __neg__(self):
        return Poly(self.ring, [self.base.neg(c) for c in self.cs], normalized=True)

    def __sub__(self, other):
        return self + (-self.ring.coerce(other))

    def __mul__(self, other):
        other = self.ring.coerce(other)
        base = self.base
        if not self.cs or not other.cs:
            return self.ring.zero
        if isinstance(base, RationalField):
            return Poly(self.ring, _rational_product(self.cs, other.cs), normalized=True)
        out = [base.zero] * (len(self.cs) + len(other.cs) - 1)
        for i, a in enumerate(self.cs):
            if base.is_zero(a):
                continue
            for j, b in enumerate(other.cs):
                out[i + j] = base.add(out[i + j], base.mul(a, b))
        return Poly(self.ring, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self.ring.coerce(other) - self

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        return self.ring.pow(self, n)

    def scale(self, c):
        base = self.base
        return Poly(self.ring, [base.mul(c, a) for a in self.cs])

    def derivative(self):
        base = self.base
        return Poly(
            self.ring,
            [base.mul(base.from_int(i), self.cs[i]) for i in range(1, len(self.cs))],
        )

    def eval(self, x):
        base = self.base
        acc = base.zero
        for c in reversed(self.cs):
            acc = base.add(base.mul(acc, x), c)
        return acc

    def compose(self, other):
        """Self evaluated at another polynomial of the same ring."""
        acc = self.ring.zero
        for c in reversed(self.cs):
            acc = acc * other + self.ring.const(c)
        return acc

    def map_coeffs(self, fn, new_ring):
        return Poly(new_ring, [fn(c) for c in self.cs])

    def reversed_to(self, n: int):
        """x^n * self(1/x): coefficient reversal padded to degree n."""
        if self.degree() > n:
            raise ValueError("reversal bound below degree")
        cs = [self.coeff(n - i) for i in range(n + 1)]
        return Poly(self.ring, cs)

    def divmod(self, other):
        """Long division; the divisor's leading coefficient must be a unit."""
        other = self.ring.coerce(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        base = self.base
        ilc = base.inv(other.lc())
        rem = list(self.cs)
        dq = len(self.cs) - len(other.cs)
        if dq < 0:
            return self.ring.zero, self
        quo = [base.zero] * (dq + 1)
        for k in range(dq, -1, -1):
            while len(rem) > 0 and base.is_zero(rem[-1]):
                rem.pop()
            if len(rem) - 1 < k + other.degree():
                continue
            q = base.mul(rem[-1], ilc)
            quo[k] = q
            for j, c in enumerate(other.cs):
                rem[k + j] = base.sub(rem[k + j], base.mul(q, c))
        return Poly(self.ring, quo), Poly(self.ring, rem)

    def exact_div(self, other):
        """Exact quotient; works even for non-unit leading coefficients."""
        other = self.ring.coerce(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        if self.is_zero():
            return self
        base = self.base
        rem = list(self.cs)
        dq = len(self.cs) - len(other.cs)
        if dq < 0:
            raise InexactDivision("degree of divisor exceeds dividend")
        quo = [base.zero] * (dq + 1)
        for k in range(dq, -1, -1):
            while rem and base.is_zero(rem[-1]):
                rem.pop()
            if len(rem) - 1 < k + other.degree():
                continue
            q = base.exact_div(rem[-1], other.lc())
            quo[k] = q
            for j, c in enumerate(other.cs):
                rem[k + j] = base.sub(rem[k + j], base.mul(q, c))
        while rem and base.is_zero(rem[-1]):
            rem.pop()
        if rem:
            raise InexactDivision("polynomial division left a remainder")
        return Poly(self.ring, quo)

    def monic(self):
        if self.is_zero():
            return self
        ilc = self.base.inv(self.lc())
        return self.scale(ilc)

    def __repr__(self):
        return f"Poly({self.ring.var}: {poly_str(self)})"


class PolyRing(Domain):
    """Polynomials over `base` as a coefficient domain in their own right."""

    def __init__(self, base, var="x"):
        self.base = base
        self.var = var
        self.zero = Poly(self, (), normalized=True)
        self.one = Poly(self, (base.one,), normalized=True)
        self.gen = Poly(self, (base.zero, base.one), normalized=True)

    def const(self, c):
        if self.base.is_zero(c):
            return self.zero
        return Poly(self, (c,), normalized=True)

    def from_coeffs(self, coeffs):
        return Poly(self, [self._lift(c) for c in coeffs])

    def _lift(self, c):
        if isinstance(c, Poly) and c.ring == self:
            raise TypeError("coefficient is a polynomial of this same ring")
        if isinstance(c, int):
            return self.base.from_int(c)
        if isinstance(c, Fraction):
            return self.base.from_rational(c)
        return c

    def coerce(self, p):
        if isinstance(p, Poly):
            if p.ring == self:
                return p
            if p.ring == self.base:
                return self.const(p)
            raise TypeError(f"cannot coerce {p!r} into {self!r}")
        return self.const(self._lift(p))

    # Domain protocol: elements are Poly instances over self.base.
    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a.is_zero()

    def from_int(self, n):
        return self.const(self.base.from_int(n))

    def from_rational(self, q):
        return self.const(self.base.from_rational(q))

    def exact_div(self, a, b):
        return a.exact_div(b)

    def is_unit(self, a):
        return a.degree() == 0 and self.base.is_unit(a.lc())

    def inv(self, a):
        if not self.is_unit(a):
            raise DivisionByZero(f"{a!r} is not a unit in {self!r}")
        return self.const(self.base.inv(a.lc()))

    def characteristic(self):
        return self.base.characteristic()

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.base == other.base
            and self.var == other.var
        )

    def __hash__(self):
        return hash(("PolyRing", self.base, self.var))

    def __repr__(self):
        return f"{self.base!r}[{self.var}]"


def sylvester_matrix(A: Poly, B: Poly):
    """Sylvester matrix rows (descending coefficients) for Res(A, B)."""
    return _sylvester(A.cs, B.cs, A.base.zero)


def _sylvester(a, b, zero):
    """Sylvester rows of the coefficient lists a, b (low first, nonzero tops)."""
    n, m = len(a) - 1, len(b) - 1
    size = n + m
    arow, brow = list(a[::-1]), list(b[::-1])
    rows = []
    for i in range(m):
        rows.append([zero] * i + arow + [zero] * (size - n - 1 - i))
    for i in range(n):
        rows.append([zero] * i + brow + [zero] * (size - m - 1 - i))
    return rows


def bareiss_det(rows, dom: Domain):
    """Determinant of a square matrix over `dom` by fraction-free Bareiss
    elimination (Bareiss 1968) with row pivoting; every intermediate value
    stays in `dom`.

    This is the one elimination loop.  `resultant` over QQ and QQ[t] hands
    it an integer matrix (see there); the tests run it over QQ, QQ[t],
    tame fields, Laurent rings and QQ[z][s] against independent oracles.
    """
    n = len(rows)
    if n == 0:
        return dom.one
    M = [list(r) for r in rows]
    sign = 1
    prev = dom.one
    for k in range(n - 1):
        if dom.is_zero(M[k][k]):
            for i in range(k + 1, n):
                if not dom.is_zero(M[i][k]):
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return dom.zero
        pivot = M[k][k]
        row_k = M[k]
        for i in range(k + 1, n):
            row_i = M[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                num = dom.sub(dom.mul(row_i[j], pivot), dom.mul(lead, row_k[j]))
                row_i[j] = dom.exact_div(num, prev)
            row_i[k] = dom.zero
        prev = pivot
    det = M[n - 1][n - 1]
    return dom.neg(det) if sign < 0 else det


def _rational_product(a, b) -> list[Fraction]:
    """Coefficients of the product of two nonzero QQ polynomials, low first.

    Kronecker substitution, as in `resultant`: a and b are multiplied by
    the lcm L_a, L_b of their denominators, and every coefficient of the
    cleared product is a sum of at most min(len a, len b) terms a_i*b_j, so
    its absolute value is at most bound = min(len a, len b) * max|a_i| *
    max|b_j| < 2^(B-1) with B = bound.bit_length() + 1.  Each is therefore
    one balanced base-2^B digit of the integer product of the values at
    2^B, and the digits divided by L_a*L_b are the exact coefficients.
    The leading digit is the product of the nonzero leading coefficients,
    so the result has len a + len b - 1 entries and no trailing zeros.
    """
    (La, ia), (Lb, ib) = _clear(a), _clear(b)
    bound = min(len(ia), len(ib)) * max(map(abs, ia)) * max(map(abs, ib))
    B = bound.bit_length() + 1
    L = La * Lb
    return [Fraction(c, L) for c in _unpack(_pack(ia, B) * _pack(ib, B), B)]


def _clear(cs) -> tuple[int, list[int]]:
    """(L, [L*c for c in cs]) with L the lcm of the denominators of the rationals cs."""
    L = lcm(*(c.denominator for c in cs))
    return L, [c.numerator * (L // c.denominator) for c in cs]


def _pack(cs, B: int) -> int:
    """Value at 2^B of the integer polynomial with coefficients cs, low first."""
    acc = 0
    for c in reversed(cs):
        acc = (acc << B) + c
    return acc


def _unpack(n: int, B: int) -> list[int]:
    """Balanced base-2^B digits of n, low first, each in [-2^(B-1), 2^(B-1))."""
    half, mask = 1 << (B - 1), (1 << B) - 1
    digits = []
    while n:
        c = n & mask
        if c >= half:
            c -= mask + 1
        digits.append(c)
        n = (n - c) >> B
    return digits


def resultant(A: Poly, B: Poly):
    """Res(A, B) over the coefficient domain, by Sylvester + Bareiss.

    Over QQ and QQ[t] the determinant is one integer determinant.  With
    n = deg A and m = deg B, A and B are multiplied by the lcm L_A, L_B of
    their denominators, so Res(L_A A, L_B B) = L_A^m L_B^n Res(A, B) and
    the Sylvester matrix of the cleared operands has entries in Z or Z[t].
    Over QQ[t] every entry is then replaced by its integer value at 2^k
    (Kronecker substitution, Kronecker 1882), where k = bound.bit_length()
    + 1 and bound = ||L_A A||_1^m ||L_B B||_1^n (||.||_1 sums the absolute
    values of all coefficients; the bound is the product of the norms of
    the Sylvester rows).  By the Leibniz expansion every coefficient of the
    cleared resultant is at most bound < 2^(k-1) in absolute value, so it is
    one balanced base-2^k digit of the integer determinant.  Evaluation at
    2^k is a ring homomorphism, so that determinant is exact, nothing is
    rounded and no degree bound is needed.  The integer determinant (over
    QQ) or its digits (over QQ[t]) divided by L_A^m L_B^n give the result.
    Every other domain runs `bareiss_det` on the Sylvester matrix of its own
    elements.
    """
    if A.is_zero() and B.is_zero():
        raise ZeroInput("resultant of (0, 0)")
    base = A.base
    if A.is_zero() or B.is_zero():
        return base.zero
    if A.degree() == 0 and B.degree() == 0:
        return base.one
    if A.degree() == 0:
        return base.pow(A.lc(), B.degree())
    if B.degree() == 0:
        return base.pow(B.lc(), A.degree())
    n, m = A.degree(), B.degree()
    if isinstance(base, RationalField):
        (La, ia), (Lb, ib) = _clear(A.cs), _clear(B.cs)
        return Fraction(bareiss_det(_sylvester(ia, ib, 0), ZZ), La**m * Lb**n)
    if not (isinstance(base, PolyRing) and isinstance(base.base, RationalField)):
        return bareiss_det(sylvester_matrix(A, B), base)
    (La, ia, norm_a), (Lb, ib, norm_b) = _cleared(A), _cleared(B)
    k = (norm_a**m * norm_b**n).bit_length() + 1
    det = bareiss_det(
        _sylvester([_pack(cs, k) for cs in ia], [_pack(cs, k) for cs in ib], 0), ZZ
    )
    denom = La**m * Lb**n
    return Poly(base, [Fraction(c, denom) for c in _unpack(det, k)], normalized=True)


def _cleared(P: Poly):
    """(L, integer coefficient lists of L*P, ||L*P||_1) for P over QQ[t], with
    L the lcm of all denominators; one list per coefficient of P."""
    L = lcm(*(q.denominator for c in P.cs for q in c.cs))
    ints = [[q.numerator * (L // q.denominator) for q in c.cs] for c in P.cs]
    return L, ints, sum(abs(q) for cs in ints for q in cs)


def discriminant(H: Poly):
    """(-1)^(n(n-1)/2) Res(H, H') / lc(H) for n = deg H >= 1."""
    if H.is_zero():
        raise ZeroInput("discriminant of the zero polynomial")
    n = H.degree()
    if n < 1:
        raise ZeroInput("discriminant needs degree >= 1")
    base = H.base
    res = resultant(H, H.derivative())
    d = base.exact_div(res, H.lc())
    if (n * (n - 1) // 2) % 2:
        d = base.neg(d)
    return d


def gcd_monic(A: Poly, B: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; the base must be a field."""
    while not B.is_zero():
        A, B = B, A.divmod(B)[1]
    if A.is_zero():
        return A
    return A.monic()


def ext_gcd(A: Poly, B: Poly):
    """(g, u, v) with u*A + v*B = g monic; field coefficients."""
    ring = A.ring
    r0, r1 = A, B
    u0, u1 = ring.one, ring.zero
    v0, v1 = ring.zero, ring.one
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    c = ring.base.inv(r0.lc())
    return r0.scale(c), u0.scale(c), v0.scale(c)


def poly_sqrt(P: Poly) -> Poly:
    """Exact square root of a monic even-degree polynomial.

    Coefficients are matched from the top down; raises InexactDivision if
    P is not a perfect square.  Needs characteristic 0.
    """
    if P.is_zero():
        return P
    n = P.degree()
    if n % 2:
        raise InexactDivision("odd degree is never a perfect square")
    base = P.base
    if not base.is_unit(P.lc()):
        raise InexactDivision("leading coefficient not invertible")
    m = n // 2
    ring = P.ring
    # leading coefficient of the root: requires lc(P) to be a square; the
    # monic case (the only one used here) is immediate.
    if P.lc() != base.one:
        raise InexactDivision("poly_sqrt implemented for monic input only")
    g = [base.zero] * (m + 1)
    g[m] = base.one
    gp = Poly(ring, g)
    two = base.from_int(2)
    for i in range(m - 1, -1, -1):
        # match coefficient of x^(m+i)
        diff = P - gp * gp
        c = diff.coeff(m + i)
        gi = base.exact_div(c, two)
        g[i] = gi
        gp = Poly(ring, g)
    if not (gp * gp - P).is_zero():
        raise InexactDivision("not a perfect square")
    return gp


def poly_str(p: Poly, var=None) -> str:
    """Human-readable rendering, highest degree first."""
    if p.is_zero():
        return "0"
    var = var or p.ring.var
    base = p.base
    parts = []
    for i in range(p.degree(), -1, -1):
        c = p.coeff(i)
        if base.is_zero(c):
            continue
        cstr = coeff_str(c)
        if i == 0:
            term = cstr
        else:
            xpow = var if i == 1 else f"{var}^{i}"
            if cstr == "1":
                term = xpow
            elif cstr == "-1":
                term = f"-{xpow}"
            elif any(ch in cstr for ch in "+- ") and not cstr.lstrip("-").isdigit():
                term = f"({cstr})*{xpow}"
            else:
                term = f"{cstr}*{xpow}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


def coeff_str(c) -> str:
    if isinstance(c, Poly):
        return poly_str(c)
    if isinstance(c, tuple):
        # tame-field element (a_0, ..., a_{r-1}) meaning sum a_i pi^i
        parts = []
        for i, a in enumerate(c):
            if a == 0:
                continue
            if i == 0:
                parts.append(str(a))
            else:
                ppow = "pi" if i == 1 else f"pi^{i}"
                parts.append(ppow if a == 1 else f"{a}*{ppow}")
        return " + ".join(parts) if parts else "0"
    return str(c)
