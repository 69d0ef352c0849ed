"""Reference GF(2^k) arithmetic, written apart from frey2.gf2.

The fibers workload builds its inputs and checks its outputs with this
module, so a defect in the program's binary-field code cannot hide itself
from the checks.  Elements are ints read as bit vectors; a field is the
pair (k, modulus).  Polynomials are coefficient lists, lowest degree first.
"""


def mul(a, b, k, modulus):
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> k:
            a ^= modulus
    return out


def power(a, n, k, modulus):
    out = 1
    while n:
        if n & 1:
            out = mul(out, a, k, modulus)
        a = mul(a, a, k, modulus)
        n >>= 1
    return out


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def primitive_element(k, modulus):
    """Least generator of the multiplicative group of GF(2^k)."""
    order = (1 << k) - 1
    if order == 1:
        return 1
    factors = _prime_factors(order)
    for g in range(2, 1 << k):
        if all(power(g, order // p, k, modulus) != 1 for p in factors):
            return g
    raise ValueError(f"modulus {modulus:#x} is not irreducible of degree {k}")


def poly_eval(cs, x, k, modulus):
    acc = 0
    for c in reversed(cs):
        acc = mul(acc, x, k, modulus) ^ c
    return acc


def poly_mul(a, b, k, modulus):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] ^= mul(ai, bj, k, modulus)
    return trim(out)


def poly_add(a, b):
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) ^ (b[i] if i < len(b) else 0) for i in range(n)])


def derivative(cs):
    """Formal derivative in characteristic 2: only odd powers survive."""
    return trim([cs[i] if i & 1 else 0 for i in range(1, len(cs))])


def reverse(cs, n):
    """u^n * f(1/u) for a polynomial f of degree at most n."""
    return trim([cs[n - i] if n - i < len(cs) else 0 for i in range(n + 1)])


def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def subfield_roots(k0, mod0, k, modulus):
    """Every root in GF(2^k) of the degree-k0 field modulus mod0 (k0 | k).

    Those roots are the images of the generator of GF(2^k0) under the k0
    embeddings GF(2^k0) -> GF(2^k); they lie among the powers of a
    generator of the embedded subfield's multiplicative group.
    """
    if k % k0:
        raise ValueError(f"GF(2^{k0}) is not a subfield of GF(2^{k})")
    mod_cs = [(mod0 >> i) & 1 for i in range(k0 + 1)]
    if k0 == 1:
        return [x for x in (0, 1) if poly_eval(mod_cs, x, k, modulus) == 0]
    gamma = power(primitive_element(k, modulus), ((1 << k) - 1) // ((1 << k0) - 1), k, modulus)
    out, x = [], 1
    for _ in range((1 << k0) - 1):
        x = mul(x, gamma, k, modulus)
        if poly_eval(mod_cs, x, k, modulus) == 0:
            out.append(x)
    return sorted(out)


def embedding(root, k0, k, modulus):
    """The map GF(2^k0) -> GF(2^k) sending the generator to `root`, as a table."""
    basis, p = [], 1
    for _ in range(k0):
        basis.append(p)
        p = mul(p, root, k, modulus)
    table = []
    for c in range(1 << k0):
        img = 0
        for i, b in enumerate(basis):
            if (c >> i) & 1:
                img ^= b
        table.append(img)
    return table
