"""Exact 2-adic valuation bookkeeping.

Two local coefficient domains are provided, matching the two proof styles
the pipelines execute.  Both answer the same three questions as methods,
`val`, `is_integral` and `residue_bit` (the image in GF(2)), so a
pipeline checks its claims through whichever domain it runs over:

* ``TameField(r)``: the tame Eisenstein extension Q(pi) with pi^r = 2.
  An element is a coefficient tuple (a_0, ..., a_{r-1}) meaning
  sum a_i pi^i.  Its valuation (normalized so v(2) = 1) is
  min_i (v2(a_i) + i/r): the candidate valuations are pairwise distinct
  modulo 1, so the minimum is attained by exactly one term and no
  cancellation can disturb it.  Arithmetic skips zero coordinates, so
  its cost scales with the nonzero ones: a monomial c pi^i is the
  common case and is inverted directly, without a gcd.

* ``LaurentRing(param)``: Laurent polynomials in one formal parameter u
  of positive valuation: v(u) = w is only known to be at least a declared
  least weight w0 > 0.  Each term contributes the affine form
  v2(c) + i*w, and the element's valuation is the minimal form provided
  one term's form stays strictly minimal for every w >= w0 (checked at w0
  and on the slopes, which suffices for affine functions on [w0, oo)).
  Ties anywhere raise ValuationAmbiguous rather than guessing.

All valuations are Fractions normalized to v(2) = 1.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import Domain, Poly, PolyRing, QQ, ext_gcd, rational_residue_bit, v2
from .errors import (
    DivisionByZero,
    NonIntegral,
    ValuationAmbiguous,
    ZeroElement,
)


class TameField(Domain):
    """Q(pi) with pi^r = 2, r an odd prime; elements are Fraction tuples."""

    is_field = True

    def __init__(self, r: int):
        from .algebra import check_odd_prime

        self.r = check_odd_prime(r)
        self.zero = (Fraction(0),) * r
        self.one = (Fraction(1),) + (Fraction(0),) * (r - 1)
        self.pi = (Fraction(0), Fraction(1)) + (Fraction(0),) * (r - 2)

    @cached_property
    def _modulus(self):
        """pi^r - 2, built when `inv` first meets a non-monomial."""
        r = self.r
        return Poly(PolyRing(QQ, "pi"), [Fraction(-2)] + [Fraction(0)] * (r - 1) + [Fraction(1)])

    def element(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.r:
            raise ValueError("too many coefficients")
        cs += [Fraction(0)] * (self.r - len(cs))
        return tuple(cs)

    def from_rational(self, q):
        return (Fraction(q),) + (Fraction(0),) * (self.r - 1)

    def from_int(self, n):
        return self.from_rational(n)

    def add(self, a, b):
        out = list(a)
        for i, y in enumerate(b):
            if y:
                x = out[i]
                out[i] = x + y if x else y
        return tuple(out)

    def sub(self, a, b):
        out = list(a)
        for i, y in enumerate(b):
            if y:
                x = out[i]
                out[i] = x - y if x else -y
        return tuple(out)

    def neg(self, a):
        return tuple(-x for x in a)

    def is_zero(self, a):
        return not any(a)

    def mul(self, a, b):
        r = self.r
        b_terms = [(j, y) for j, y in enumerate(b) if y]
        out = list(self.zero)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in b_terms:
                k = i + j
                term = x * y
                if k >= r:
                    k -= r
                    term *= 2
                out[k] = out[k] + term if out[k] else term
        return tuple(out)

    def is_unit(self, a):
        return any(a)

    def inv(self, a):
        """Inverse: c^(-1) pi^(-i) for a monomial c pi^i, else the extended
        Euclidean algorithm modulo pi^r - 2."""
        terms = [(i, c) for i, c in enumerate(a) if c]
        if not terms:
            raise DivisionByZero("inverse of 0 in Q(2^(1/r))")
        if len(terms) == 1:
            i, c = terms[0]
            return self.mul(self.from_rational(1 / c), self.pi_power(-i))
        M = self._modulus
        g, u, _ = ext_gcd(Poly(M.ring, a), M)
        if g.degree() != 0:
            raise DivisionByZero("element not invertible (modulus not coprime)")
        u = u.divmod(M)[1]
        return self.element([u.coeff(i) for i in range(self.r)])

    def exact_div(self, a, b):
        return self.mul(a, self.inv(b))

    def pi_power(self, n: int):
        """pi^n for any integer n, reduced to the standard representation."""
        q, rem = divmod(n, self.r)
        coeffs = [Fraction(0)] * self.r
        coeffs[rem] = Fraction(2) ** q
        return tuple(coeffs)

    def val(self, a) -> Fraction:
        """Exact valuation normalized to v(2) = 1, so v(pi) = 1/r."""
        if not any(a):
            raise ZeroElement("valuation of 0")
        return min(
            v2(c) + Fraction(i, self.r) for i, c in enumerate(a) if c != 0
        )

    def is_integral(self, a) -> bool:
        """True when v(a) >= 0 (0 included)."""
        return not any(a) or self.val(a) >= 0

    def residue_bit(self, a) -> int:
        """Image in the residue field GF(2); needs v(a) >= 0."""
        if not self.is_integral(a):
            raise NonIntegral(f"element of valuation {self.val(a)} has no residue")
        return rational_residue_bit(a[0])

    def is_base(self, a) -> bool:
        """True when the element lies in the 2-adic base field Q."""
        return all(c == 0 for c in a[1:])

    def __eq__(self, other):
        return isinstance(other, TameField) and self.r == other.r

    def __hash__(self):
        return hash(("TameField", self.r))

    def __repr__(self):
        return f"Q(2^(1/{self.r}))"


@dataclass(frozen=True)
class FormalParam:
    """Formal parameter of valuation at least `least` > 0; it reduces to 0
    in GF(2).  An int or Fraction `least` is kept as a Fraction."""

    name: str
    least: Fraction

    def __post_init__(self):
        if self.least is None or self.least <= 0:
            raise ValueError("formal parameter needs a least weight > 0")
        object.__setattr__(self, "least", Fraction(self.least))


@dataclass(frozen=True)
class AffineVal:
    """Valuation of the shape const + slope * w, w the parameter weight."""

    const: Fraction
    slope: int = 0

    def at(self, w: Fraction) -> Fraction:
        return self.const + self.slope * w

    def __eq__(self, other):
        if isinstance(other, AffineVal):
            return self.const == other.const and self.slope == other.slope
        if self.slope == 0:
            return self.const == other
        return NotImplemented

    def __hash__(self):
        return hash((self.const, self.slope))

    def __repr__(self):
        if self.slope == 0:
            return f"{self.const}"
        return f"{self.const} + {self.slope}*w"


def _strictly_below(f: AffineVal, g: AffineVal, least: Fraction) -> bool:
    """f(w) < g(w) for every w >= least (affine test)."""
    return f.at(least) < g.at(least) and f.slope <= g.slope


def _nonnegative_throughout(f: AffineVal, least: Fraction) -> bool:
    return f.at(least) >= 0 and f.slope >= 0


def _strictly_positive_attained(f: AffineVal, least: Fraction) -> bool:
    """f(w) > 0 at every w >= least."""
    return f.at(least) > 0 and f.slope >= 0


class Laurent:
    """Laurent polynomial in the ring's parameter, rational coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms, normalized=False):
        # terms: mapping or iterable of (exponent, coefficient); `normalized`
        # promises Fraction coefficients, none zero, exponents increasing
        self.ring = ring
        if normalized:
            self.terms = tuple(terms)
            return
        acc: dict[int, Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for e, c in items:
            c = Fraction(c)
            if c:
                acc[e] = acc.get(e, Fraction(0)) + c
        self.terms = tuple(sorted((e, c) for e, c in acc.items() if c))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Laurent)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __repr__(self):
        if not self.terms:
            return "0"
        name = self.ring.param.name
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*{name}" if c != 1 else name)
            else:
                parts.append(f"{c}*{name}^{e}" if c != 1 else f"{name}^{e}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


class LaurentRing(Domain):
    """Laurent polynomials in one formal parameter, as a coefficient domain."""

    def __init__(self, param: FormalParam):
        self.param = param
        self.zero = Laurent(self, ())
        self.one = Laurent(self, ((0, Fraction(1)),))
        self.gen = Laurent(self, ((1, Fraction(1)),))

    def term(self, coeff, exp=0) -> Laurent:
        c = Fraction(coeff)
        return Laurent(self, ((exp, c),) if c else (), normalized=True)

    def from_rational(self, q) -> Laurent:
        return self.term(q)

    def from_int(self, n):
        return self.term(n)

    # The operands' terms are normalized, so the results below are built
    # from merged terms without normalizing again.

    def add(self, a, b):
        acc = dict(a.terms)
        for e, c in b.terms:
            x = acc.get(e)
            acc[e] = c if x is None else x + c
        return Laurent(self, sorted(ec for ec in acc.items() if ec[1]), normalized=True)

    def neg(self, a):
        return Laurent(self, [(e, -c) for e, c in a.terms], normalized=True)

    def mul(self, a, b):
        if len(a.terms) < len(b.terms):
            a, b = b, a
        if len(b.terms) == 1:
            eb, cb = b.terms[0]
            return Laurent(self, [(e + eb, c * cb) for e, c in a.terms], normalized=True)
        acc: dict[int, Fraction] = {}
        for ea, ca in a.terms:
            for eb, cb in b.terms:
                e = ea + eb
                x = acc.get(e)
                acc[e] = ca * cb if x is None else x + ca * cb
        return Laurent(self, sorted(ec for ec in acc.items() if ec[1]), normalized=True)

    def is_zero(self, a):
        return a.is_zero()

    def is_unit(self, a):
        # units of the formal Laurent ring: single terms c * u^e
        return len(a.terms) == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise DivisionByZero(f"{a!r} is not a unit in the Laurent ring")
        e, c = a.terms[0]
        return self.term(1 / c, -e)

    def exact_div(self, a, b):
        """Exact quotient of Laurent polynomials (InexactDivision otherwise)."""
        if b.is_zero():
            raise DivisionByZero("Laurent division by zero")
        if a.is_zero():
            return a
        if len(b.terms) == 1:  # a monomial: shift the exponents, divide the coefficients
            eb, cb = b.terms[0]
            return Laurent(self, [(e - eb, c / cb) for e, c in a.terms], normalized=True)
        ea0 = a.terms[0][0]
        eb0 = b.terms[0][0]
        ring = PolyRing(QQ, self.param.name)
        ap = Poly(ring, _dense(a, ea0))
        bp = Poly(ring, _dense(b, eb0))
        qp = ap.exact_div(bp)
        return Laurent(self, [(e + ea0 - eb0, c) for e, c in enumerate(qp.cs)])

    def val(self, a) -> AffineVal:
        """Valuation of a as an affine form in the weight.

        The form of one term must stay strictly minimal at every weight from
        the declared least weight on; otherwise ValuationAmbiguous is raised
        and the caller must raise the least weight or restructure the
        computation.
        """
        if a.is_zero():
            raise ZeroElement("valuation of 0")
        least = self.param.least
        forms = [AffineVal(v2(c), e) for e, c in a.terms]
        best = min(forms, key=lambda f: (f.at(least), f.slope))
        for f in forms:
            if f is not best and not _strictly_below(best, f, least):
                raise ValuationAmbiguous(
                    f"terms {best!r} and {f!r} tie at some weight >= {least}"
                )
        return best

    def is_integral(self, a) -> bool:
        """Every term valuation >= 0 at every weight from the least weight on."""
        least = self.param.least
        return all(_nonnegative_throughout(AffineVal(v2(c), e), least) for e, c in a.terms)

    def residue_bit(self, a) -> int:
        """Reduction to the residue field GF(2).

        The parameter reduces to 0, so the residue is the constant term mod 2,
        provided every other term has positive valuation at every weight from
        the least weight on (ValuationAmbiguous otherwise).
        """
        least = self.param.least
        if not self.is_integral(a):
            raise NonIntegral(f"{a!r} has a term of negative valuation")
        out = 0
        for e, c in a.terms:
            if e == 0:
                out = rational_residue_bit(c)
            elif not _strictly_positive_attained(AffineVal(v2(c), e), least):
                # the term can reach valuation 0 at an attainable weight,
                # so the residue is not uniform in the weight
                raise ValuationAmbiguous(
                    f"term of exponent {e} can reach valuation 0 at some weight >= {least}"
                )
        return out

    def __eq__(self, other):
        return isinstance(other, LaurentRing) and self.param == other.param

    def __hash__(self):
        return hash(("LaurentRing", self.param))

    def __repr__(self):
        return f"Q[{self.param.name}^±1]"


def _dense(a: Laurent, shift: int):
    top = a.terms[-1][0]
    cs = [Fraction(0)] * (top - shift + 1)
    for e, c in a.terms:
        cs[e - shift] = c
    return cs


def normalize_twist(z, s, r: int):
    """Quadratic-twist normalization of the parameter pair (z, s).

    Returns (delta, z', s') with delta in {1, -1, 2, -2}, z' = delta^2 z,
    s' = delta^r s, such that v2(s') is even and s'/2^v2(s') = 1 mod 4.
    """
    from .algebra import check_odd_prime

    check_odd_prime(r)
    z = Fraction(z)
    s = Fraction(s)
    if s == 0:
        raise ZeroElement("normalize_twist needs s != 0")
    delta = 1 if v2(s) % 2 == 0 else 2
    s1 = s * Fraction(delta) ** r
    unit = s1 / Fraction(2) ** v2(s1)
    if (unit.numerator * unit.denominator) % 4 == 3:
        delta = -delta
        s1 = -s1
    return delta, z * delta * delta, s1
