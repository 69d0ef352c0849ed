"""Exact univariate polynomial arithmetic over pluggable coefficient domains.

A *domain* object knows how to add, multiply, and exactly divide its
elements; elements themselves are plain values (``Fraction`` for the
rationals, ``Poly`` for polynomial coefficient rings, ints for the binary
fields GF(2^k) of `gf2`, the only finite fields in use, tuples for tame
local fields).  Polynomials are immutable coefficient tuples, lowest
degree first, with no trailing zeros.

Resultants are computed by the subresultant polynomial remainder sequence
(PRS; Collins 1967, Cohen GTM 138 Algorithm 3.3.7): O(n^2) ring operations
for operands of degree n, where the determinant of the Sylvester matrix
costs O(n^3).  Its only divisions are exact, so every intermediate value
stays inside the coefficient domain and the result is bit-exact.
`resultant` and `discriminant` run it on the elements of any domain; no
verified path calls them (see `families`), but the tests use them.  The
curve discriminants over QQ and QQ[t] run the same PRS on integers:
cleared of their denominators, with t replaced by 2^k (Kronecker
substitution; `curves._rational_hyper_discriminant` holds the argument
that this is exact).  `sylvester_matrix` and fraction-free Bareiss
elimination (`bareiss_det`) stay as the test oracle of `resultant`.

Products of polynomials over QQ are packed too: each operand is cleared
of its denominators (L_a, L_b) and evaluated at 2^B, the two integers are
multiplied once, and the digits divided by L_a*L_b are the coefficients.
Every coefficient of the cleared product is bounded by
min(len a, len b) * max|a_i| * max|b_j| < 2^(B-1) (see `_rational_product`).
Products over every other base (QQ[t] as the base of QQ[t][x], tame
fields, GF(2^k)) run the schoolbook loop, whose inner products over
QQ are packed in turn.

A closed form in one variable t with integer constants, written against
the domain protocol, is evaluated the same way by `kronecker_coeffs`: once
at t = 1 in a majorant domain (`_OneNorm`: sub is add, neg is the
identity, from_int is abs), which bounds the one-norm of the result, and
once over ZZ at t = 2^K with K from that bound, so its coefficients are
the balanced base-2^K digits of one integer.  `_unpack` reads the digits
of any packed value in time linear in its size.
"""

from fractions import Fraction
from math import lcm

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

    def pow(self, a, n: int):
        if n < 0 and a == 0:
            raise DivisionByZero("0 to a negative power in Q")
        return Fraction(a) ** n

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

    def from_int(self, n):
        return n

    def exact_div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by zero in Z")
        q, rem = divmod(a, b)
        if rem:
            raise InexactDivision(f"{a} is not divisible by {b} in Z")
        return q

    def pow(self, a, n: int):
        if n < 0:
            return super().pow(a, n)
        return a**n

    def __repr__(self):
        return "ZZ"


ZZ = IntegerRing()


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
    """Sylvester matrix rows (descending coefficients) for Res(A, B).

    A test oracle: `bareiss_det(sylvester_matrix(A, B), dom)` is Res(A, B)
    by definition, and the tests hold `resultant` to it.
    """
    a, b, zero = A.cs, B.cs, A.base.zero
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

    A test oracle: no verified path takes a determinant (`resultant` runs
    the subresultant PRS), but the tests hold `resultant` to the Sylvester
    determinant and run this loop over QQ, QQ[t], tame fields, Laurent rings
    and QQ[z][s] against independent oracles.
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

    Kronecker substitution, as in `curves._rational_hyper_discriminant`: a
    and b are multiplied by the lcm L_a, L_b of their denominators, and
    every coefficient of the cleared product is a sum of at most
    min(len a, len b) terms a_i*b_j, so its absolute value is at most
    bound = min(len a, len b) * max|a_i| * max|b_j| < 2^(B-1) with
    B = bound.bit_length() + 1.  Each is therefore one balanced base-2^B
    digit of the integer product of the values at 2^B, and the digits
    divided by L_a*L_b are the exact coefficients.
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
    """Balanced base-2^B digits of n (B >= 2), low first, each in
    [-2^(B-1), 2^(B-1)), with no trailing zero.

    Each digit is cut off the low end by a shift, and no shift touches more
    than about 16 digits, so the time is linear in the size of n: a larger
    n is read once from its two's-complement bytes as unsigned groups of 16
    digits (2B bytes) below a signed top part of fewer than 16 digits.  A
    group takes 16 digits and passes its carry (0 or 1) to the next one, and
    the top part plus the last carry takes the remaining digits.  The last
    digit is nonzero: with g groups |n| >= 2^(16Bg-2), more than 16g - 1
    balanced digits can hold.
    """
    half, mask = 1 << (B - 1), (1 << B) - 1
    digits = []
    groups = (n.bit_length() + 1) // (16 * B)
    if groups:
        width = 2 * B
        raw = n.to_bytes((groups + 1) * width, "little", signed=True)
        n, carry = int.from_bytes(raw[groups * width:], "little", signed=True), 0
        for i in range(0, groups * width, width):
            g = int.from_bytes(raw[i:i + width], "little") + carry
            for _ in range(16):
                c = g & mask
                if c >= half:
                    c -= mask + 1
                digits.append(c)
                g = (g - c) >> B
            carry = g
        n += carry
    while n:
        c = n & mask
        if c >= half:
            c -= mask + 1
        digits.append(c)
        n = (n - c) >> B
    return digits


class _OneNorm(Domain):
    """Upper bounds for one-norms, the majorant domain of `kronecker_coeffs`.

    A formula evaluated here at t = 1 bounds ||.||_1 (the sum of the
    absolute values of the coefficients) of its value in Z[t]: a constant n
    gives |n|, t gives ||t||_1 = 1, and ||a + b||_1, ||a - b||_1 <=
    ||a||_1 + ||b||_1, ||a b||_1 <= ||a||_1 ||b||_1.  A quotient has no such
    bound, so there is no exact_div.
    """

    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    sub = add

    def neg(self, a):
        return a

    def mul(self, a, b):
        return a * b

    def from_int(self, n):
        return abs(n)

    def from_rational(self, q):
        return abs(ZZ.from_rational(q))


_ONE_NORM = _OneNorm()


def kronecker_coeffs(formula) -> list[Fraction]:
    """Coefficients, low first, of the polynomial in Z[t] that
    formula(dom, t) computes, as Fractions with no trailing zero.

    `formula` uses only the domain protocol (add, sub, neg, mul, pow,
    from_int, from_rational), so it runs twice: at t = 1 in `_OneNorm`,
    which bounds every coefficient by M, and over ZZ at t = 2^K with
    K = M.bit_length() + 1, so every coefficient is one balanced base-2^K
    digit of the value (Kronecker substitution, as in
    `curves._rational_hyper_discriminant`).  A constant that is not an
    integer raises InexactDivision in `ZZ.from_rational`; nothing is
    rounded.
    """
    K = formula(_ONE_NORM, 1).bit_length() + 1
    return [Fraction(c) for c in _unpack(formula(ZZ, 1 << K), K)]


def resultant(A: Poly, B: Poly):
    """Res(A, B) over the coefficient domain, by the subresultant PRS
    (`_subresultant`): O(deg A * deg B) ring operations in place of the
    O((deg A + deg B)^3) of Sylvester elimination, with every value inside
    the domain.  Res(0, B) = Res(A, 0) = 0 for a nonzero other operand, and
    Res(0, 0) raises ZeroInput; a degree-0 operand c gives c^(degree of the
    other operand).
    """
    if A.is_zero() and B.is_zero():
        raise ZeroInput("resultant of (0, 0)")
    if A.is_zero() or B.is_zero():
        return A.base.zero
    return _subresultant(A.cs, B.cs, A.base)


def _subresultant(a, b, dom: Domain):
    """Res of the polynomials with coefficient lists a, b over `dom` (low
    first, nonzero tops), by the subresultant PRS (Collins 1967; Cohen,
    GTM 138, Algorithm 3.3.7, without its content removal).

    Each step replaces (A, B) by (B, prem(A, B) / (g h^delta)) with
    delta = deg A - deg B, g the leading coefficient of the last divisor and
    h the last principal subresultant coefficient; the divisions are exact
    and go through `dom.exact_div`, so a wrong step raises InexactDivision.
    Every remainder is a subresultant, so coefficients stay the size of the
    Sylvester minors and nothing leaves `dom`.  Degree gaps (delta > 1) are
    the non-normal case; a zero remainder means a common factor and
    resultant 0.  Degree-0 operands need no step: Res(A, c) = c^(deg A).
    """
    n, m = len(a) - 1, len(b) - 1
    negate = False
    if n < m:
        a, b, n, m = b, a, m, n
        negate = bool(n & m & 1)
    g = h = dom.one
    while m:
        delta = n - m
        if n & m & 1:
            negate = not negate
        r = _prem(a, b, dom)
        if not r:
            return dom.zero
        d = dom.mul(g, dom.pow(h, delta))
        if d != dom.one:
            r = [dom.exact_div(c, d) for c in r]
        a, b = b, r
        g = a[-1]
        if delta == 1:
            h = g
        elif delta:
            h = dom.exact_div(dom.pow(g, delta), dom.pow(h, delta - 1))
        n, m = m, len(b) - 1
    res = dom.pow(b[0], n)
    if n > 1:
        res = dom.exact_div(res, dom.pow(h, n - 1))
    return dom.neg(res) if negate else res


def _prem(a, b, dom: Domain):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b of coefficient
    lists (low first, nonzero tops, deg a >= deg b >= 1), zeros stripped."""
    mul, sub, is_zero = dom.mul, dom.sub, dom.is_zero
    m = len(b) - 1
    lb, low = b[-1], b[:-1]
    r = list(a)
    e = len(a) - m
    while len(r) > m:
        lr = r.pop()
        shift = len(r) - m
        r = [mul(lb, c) for c in r]
        for j, c in enumerate(low):
            r[shift + j] = sub(r[shift + j], mul(lr, c))
        while r and is_zero(r[-1]):
            r.pop()
        e -= 1
    if e:
        q = dom.pow(lb, e)
        r = [mul(q, c) for c in r]
    return r


def discriminant(H: Poly):
    """(-1)^(n(n-1)/2) Res(H, H') / lc(H) for n = deg H >= 1, over the
    coefficient domain of H."""
    if H.is_zero():
        raise ZeroInput("discriminant of the zero polynomial")
    n = H.degree()
    if n < 1:
        raise ZeroInput("discriminant needs degree >= 1")
    base = H.base
    d = base.exact_div(resultant(H, H.derivative()), H.lc())
    return base.neg(d) if (n * (n - 1) // 2) % 2 else d


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
