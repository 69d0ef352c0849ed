"""Small binary fields GF(2^k), k <= 16.

Field elements are plain ints interpreted as bit vectors over GF(2); the
zero and one elements are 0 and 1.  There is one field per k, under the
built-in modulus `IRREDUCIBLE[k]`, and its arithmetic goes through
discrete-log tables built once per process.  `_tables` builds them a block
of 2^(k/2) powers at a time, each block mapped from the last through two
half tables of products by a fixed power of the generator: O(2^k) list
steps plus O(2^(k/2)) carry-less products.  Polynomials over GF(2^k) on
the verified paths run on one kernel: dense int lists multiplied through
those tables (`_ldivmod`, `_lsquare_mod`, `_lgcd`).  `roots_in_gf2k` and
`irreducible_factor_degrees` both build the Frobenius powers x^(2^i) mod H
by repeated squaring, each power once per polynomial: roots come from
gcd(H, x^(2^k) - x), split apart by traces that are linear combinations
of those powers; factor degrees from gcd(H, x^(q^d) - x), d = 1..deg H.
The cost grows polynomially in k.  `irreducible_factor_degrees` also
works over the prime fields `algebra.PrimeField`, in `Poly` arithmetic;
`frobenius_power_mod` and `linear_factor_count` stay on `Poly` arithmetic
as the independent oracle of the kernel.  The package is pure Python;
`KERNEL_BACKEND` names that single backend.
"""

from functools import lru_cache

from .algebra import Domain, Poly, PolyRing, gcd_monic
from .errors import DivisionByZero, FieldTooLarge, Frey2Error, ZeroInput

KERNEL_BACKEND = "python"

# Lowest-weight irreducible polynomial of each degree, found by exhaustive
# search with trial division; verified again at field construction.
IRREDUCIBLE = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
}

MAX_K = 16


def _gf2_mod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a and a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def gf2_poly_irreducible(m: int) -> bool:
    """Trial division by every polynomial of degree 1..k/2 over GF(2)."""
    k = m.bit_length() - 1
    if k < 1:
        return False
    for d in range(1, k // 2 + 1):
        for p in range(1 << d, 1 << (d + 1)):
            if _gf2_mod(m, p) == 0:
                return False
    return True


def _clmul_mod(a: int, b: int, modulus: int, k: int) -> int:
    """Carry-less product a*b reduced by the degree-k modulus."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> k:
            a ^= modulus
    return r


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _tables(k: int, modulus: int) -> tuple[list[int], list[int]]:
    """(exp, log) discrete-log tables of GF(2^k)*, built from a generator.

    exp has 2 * (2^k - 1) entries, so exp[log a + log b] needs no reduction.
    The generator is the smallest g whose order is 2^k - 1.  Its first
    w = 2^(k//2) powers are stepped one product at a time; every further
    block of w powers is the previous block times c = gen^w.  Multiplying
    by c is GF(2)-linear, so c*v is the XOR of c*(low k//2 bits of v) and
    c*(high bits of v), read from two tables of 2^(k//2) and 2^(k - k//2)
    products.  That is O(2^k) list steps plus O(2^(k/2)) carry-less
    products: at k = 16, 768 products (and about a hundred more in the
    generator search) instead of one for each of the 65,535 powers.
    """
    order = (1 << k) - 1
    primes = _prime_factors(order)
    gen = 1  # GF(2)* is trivial
    for g in range(2, 1 << k):
        # g generates iff g^(order/p) != 1 for every prime p | order
        generates = True
        for p in primes:
            acc, base, e = 1, g, order // p
            while e:
                if e & 1:
                    acc = _clmul_mod(acc, base, modulus, k)
                base = _clmul_mod(base, base, modulus, k)
                e >>= 1
            if acc == 1:
                generates = False
                break
        if generates:
            gen = g
            break
    h = k // 2
    w = 1 << h
    exp = [1]
    for _ in range(w):
        exp.append(_clmul_mod(exp[-1], gen, modulus, k))
    c = exp.pop()
    low = [_clmul_mod(c, b, modulus, k) for b in range(w)]
    high = [_clmul_mod(c, b << h, modulus, k) for b in range(1 << (k - h))]
    mask = w - 1
    block = exp
    while len(exp) < order:
        block = [low[v & mask] ^ high[v >> h] for v in block]
        exp += block
    del exp[order:]
    log = [0] * (1 << k)
    for i, v in enumerate(exp):
        log[v] = i
    return exp * 2, log


class GF2k(Domain):
    """The field with 2^k elements under the modulus `IRREDUCIBLE[k]`,
    elements represented as ints; `gf2k(k)` shares one instance per k."""

    zero = 0
    one = 1

    def __init__(self, k: int):
        if not 1 <= k <= MAX_K:
            raise FieldTooLarge(f"GF(2^{k}) outside the supported range k <= {MAX_K}")
        modulus = IRREDUCIBLE[k]
        if not gf2_poly_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#x} is reducible over GF(2)")
        self.k = k
        self.modulus = modulus
        self.order = 1 << k
        self._exp, self._log = _tables(k, modulus)

    def add(self, a, b):
        return a ^ b

    def sub(self, a, b):
        return a ^ b

    def neg(self, a):
        return a

    def is_zero(self, a):
        return not a

    def mul(self, a, b):
        if a and b:
            return self._exp[self._log[a] + self._log[b]]
        return 0

    def from_int(self, n):
        return n & 1

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0 in GF(2^k)")
        return self._exp[self.order - 1 - self._log[a]]

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        if not a:
            return 0 if n else 1
        return self._exp[self._log[a] * n % (self.order - 1)]

    def exact_div(self, a, b):
        return self.mul(a, self.inv(b))

    def sqrt(self, a):
        """Unique square root: the Frobenius inverse a^(2^(k-1))."""
        if not a:
            return 0
        return self._exp[(self._log[a] << (self.k - 1)) % (self.order - 1)]

    def characteristic(self):
        return 2

    def elements(self):
        return range(self.order)

    def __eq__(self, other):
        return isinstance(other, GF2k) and self.k == other.k

    def __hash__(self):
        return hash(("GF2k", self.k))

    def __repr__(self):
        return f"GF(2^{self.k})"


@lru_cache(maxsize=None)
def gf2k(k: int) -> GF2k:
    """The field with 2^k elements under the built-in modulus table."""
    return GF2k(k)


GF2 = gf2k(1)


def roots_in_gf2k(H: Poly, field: GF2k) -> list[int]:
    """All roots of H in the field, in ascending order, on the int-list kernel.

    The k squarings of x mod h give the Frobenius powers F_i = x^(2^i) mod
    h (i < k) and x^(2^k); g = gcd(h, x^(2^k) - x) is the product of the
    distinct linear factors of h.  It is split by g_j = gcd(g, T_j mod g),
    where T_j = Tr(beta_j x) = sum_i beta_j^(2^i) F_i, beta_j = 2^j over
    the polynomial basis: the roots of g_j are those with trace
    Tr(beta_j a) = 0.  Each T_j is a linear combination of the F_i (taken
    mod the first g), built at most once and reduced mod every part it
    splits, which is exact since every part divides g.  The trace form is
    nondegenerate, so two distinct roots are separated at some j
    (Berlekamp 1970, in the characteristic-2 form of Cantor-Zassenhaus
    1981; Frobenius powers reused as in von zur Gathen-Shoup 1992); no
    randomness is needed.
    """
    if H.is_zero():
        raise ZeroInput("root search on the zero polynomial")
    if H.base != field:
        raise TypeError("polynomial is not over the given field")
    exp, log, k = field._exp, field._log, field.k
    h = _lmonic(list(H.cs), exp, log)
    if len(h) < 2:
        return []
    frob = [_ldivmod([0, 1], h, exp, log)[1]]
    for _ in range(k):
        frob.append(_lsquare_mod(frob[-1], h, exp, log))
    g = _lgcd(h, _ladd(frob.pop(), [0, 1]), exp, log)
    frob = [_ldivmod(f, g, exp, log)[1] for f in frob]
    traces = {}
    roots = []
    stack = [(g, 0)]
    while stack:
        g, j = stack.pop()
        if len(g) < 3:
            if len(g) == 2:  # g = x + a
                roots.append(g[0])
            continue
        gj = g
        while not 1 < len(gj) < len(g):
            if j == k:
                raise Frey2Error("trace splitting left roots unseparated")
            if j not in traces:
                traces[j] = _ltrace(log[1 << j], frob, field)
            gj = _lgcd(g, _ldivmod(traces[j], g, exp, log)[1], exp, log)
            j += 1
        # the trace of beta_i x is constant on each part for every i < j
        stack.append((gj, j))
        stack.append((_ldivmod(g, gj, exp, log)[0], j))
    return sorted(roots)


# Dense polynomials over GF(2^k) as plain int lists, lowest degree first and
# without trailing zeros, multiplied through the field's exp/log tables.


def _ltrim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _ladd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] ^= c
    return _ltrim(out)


def _lmonic(a, exp, log):
    _ltrim(a)
    if not a or a[-1] == 1:
        return a
    s = len(exp) // 2 - log[a[-1]]
    return [exp[log[c] + s] if c else 0 for c in a]


def _ldivmod(a, m, exp, log):
    """Quotient and remainder of a by the monic m."""
    n = len(m) - 1
    a = list(a)
    q = [0] * max(len(a) - n, 0)
    lm = [(j, log[c]) for j, c in enumerate(m[:n]) if c]
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i]
        if c:
            q[i - n] = c
            lc, base = log[c], i - n
            for j, l in lm:
                a[base + j] ^= exp[lc + l]
    return q, _ltrim(a[:n])


def _lsquare_mod(a, m, exp, log):
    """a^2 mod the monic m: in characteristic 2 squaring only squares each
    coefficient and doubles each exponent."""
    sq = [0] * (2 * len(a) - 1) if a else []
    for i, c in enumerate(a):
        if c:
            sq[2 * i] = exp[2 * log[c]]
    return _ldivmod(sq, m, exp, log)[1]


def _ltrace(lbeta, frob, field):
    """Tr(beta x) = sum of beta^(2^i) * frob[i], i < k, for log beta = lbeta."""
    exp, log, cyc = field._exp, field._log, field.order - 1
    tr = [0] * max(map(len, frob))
    for i, f in enumerate(frob):
        lb = (lbeta << i) % cyc
        for c, v in enumerate(f):
            if v:
                tr[c] ^= exp[lb + log[v]]
    return _ltrim(tr)


def _lgcd(a, b, exp, log):
    """Monic gcd of a nonzero a and any b."""
    a = _lmonic(list(a), exp, log)
    b = _lmonic(list(b), exp, log)
    while b:
        a, b = b, _lmonic(_ldivmod(a, b, exp, log)[1], exp, log)
    return a


def frobenius_power_mod(H: Poly, i: int) -> Poly:
    """x^(2^i) reduced mod H, by repeated squaring; field coefficients."""
    ring = H.ring
    xq = ring.gen
    for _ in range(i):
        xq = (xq * xq).divmod(H)[1]
    return xq


def linear_factor_count(H: Poly, field: GF2k) -> int:
    """deg gcd(H, x^(2^k) - x): the number of roots of H in the field."""
    ring = H.ring
    xq = frobenius_power_mod(H, field.k)
    g = gcd_monic(H, xq - ring.gen)
    return g.degree()


def irreducible_factor_degrees(H: Poly) -> set[int]:
    """Degrees of the irreducible factors of a nonzero polynomial H over any
    finite field with q = `order` elements (GF(2^k) or a `PrimeField`).

    Computes deg gcd(H, x^(q^d) - x) for d = 1..deg H; that degree equals
    the sum of e * (number of distinct degree-e factors) over e | d, from
    which the factor-degree counts are peeled off.  Only degrees are
    needed, never the factors themselves (Cantor-Zassenhaus 1981).  Each
    Frobenius power x^(q^d) mod H is the q-th power of the previous one.
    Over GF(2^k) that step is k squarings on the int-list kernel that
    `roots_in_gf2k` runs on; over a prime field it is square-and-multiply
    in `Poly` arithmetic.
    """
    if H.is_zero():
        raise ZeroInput("factor degrees of the zero polynomial")
    if H.degree() == 0:
        return set()
    base = H.base
    if isinstance(base, GF2k):
        exp, log = base._exp, base._log
        h = _lmonic(list(H.cs), exp, log)

        def frobenius(xq):
            for _ in range(base.k):
                xq = _lsquare_mod(xq, h, exp, log)
            return xq

        def root_degree(xq):
            return len(_lgcd(h, _ladd(xq, [0, 1]), exp, log)) - 1

        xq = _ldivmod([0, 1], h, exp, log)[1]
    else:
        ring = H.ring
        H = H.monic()
        q_bits = bin(base.order)[3:]

        def frobenius(xq):
            # left-to-right square-and-multiply for xq -> xq^q
            prev = xq
            for bit in q_bits:
                xq = (xq * xq).divmod(H)[1]
                if bit == "1":
                    xq = (xq * prev).divmod(H)[1]
            return xq

        def root_degree(xq):
            return gcd_monic(H, xq - ring.gen).degree()

        xq = ring.gen.divmod(H)[1]
    counts: dict[int, int] = {}
    for d in range(1, H.degree() + 1):
        xq = frobenius(xq)
        total = root_degree(xq)
        covered = sum(e * c for e, c in counts.items() if d % e == 0)
        if (total - covered) % d:
            raise Frey2Error("factor degree accounting failed")
        counts[d] = (total - covered) // d
    return {e for e, c in counts.items() if c > 0}


def _embedding_root(src_k: int, dst_k: int) -> int:
    """Smallest root of the source modulus inside the destination field."""
    if dst_k % src_k:
        raise ValueError(f"GF(2^{src_k}) does not embed in GF(2^{dst_k})")
    dst = gf2k(dst_k)
    src_mod = IRREDUCIBLE[src_k]
    ring = PolyRing(dst, "x")
    mod_poly = Poly(ring, [(src_mod >> i) & 1 for i in range(src_k + 1)])
    roots = roots_in_gf2k(mod_poly, dst)
    if not roots:
        raise Frey2Error("irreducible modulus without roots in extension")
    return min(roots)


@lru_cache(maxsize=None)
def _embedding_basis(src_k: int, dst_k: int) -> tuple[int, ...]:
    """Images root^i, i < src_k, of the source basis x^i under the embedding."""
    dst, root = gf2k(dst_k), _embedding_root(src_k, dst_k)
    powers = [1]
    for _ in range(src_k - 1):
        powers.append(dst.mul(powers[-1], root))
    return tuple(powers)


def embed(x: int, src: GF2k, dst: GF2k) -> int:
    """Canonical field embedding GF(2^src.k) -> GF(2^dst.k), src.k | dst.k:
    the embedding is GF(2)-linear, so x maps to the XOR of its bits' basis images."""
    if src == dst:
        return x
    out = 0
    for image in _embedding_basis(src.k, dst.k):
        if not x:
            break
        if x & 1:
            out ^= image
        x >>= 1
    return out


def embed_poly(H: Poly, src: GF2k, dst_ring: PolyRing) -> Poly:
    return Poly(dst_ring, [embed(c, src, dst_ring.base) for c in H.cs])
