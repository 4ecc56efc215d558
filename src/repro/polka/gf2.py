"""Arithmetic over the polynomial ring GF(2)[t].

PolKA derives its forwarding behaviour from the residue number system over
binary polynomials: every node is labelled with an irreducible polynomial
``s(t)`` and every route carries a single ``routeID`` polynomial whose residue
modulo each node label encodes the output port at that node.  On P4 hardware
this modulo is computed by the CRC engine; here we implement the identical
mathematics directly.

Polynomials are represented as non-negative Python integers where bit ``i``
holds the coefficient of ``t^i``.  For example::

    t^2 + t + 1  ->  0b111  ->  7
    t^4          ->  0b10000 -> 16

This encoding makes addition an XOR, keeps arbitrary degrees exact (Python
ints are unbounded) and matches the on-the-wire bit layout used by PolKA
headers, so a port polynomial ``t`` *is* the port number ``2``.

All functions are pure and allocation-free on the happy path; they are used
both by the routing layer (a handful of ops per packet) and by the scaling
benchmarks (millions of ops), so the hot ones avoid any object churn.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

__all__ = [
    "deg",
    "add",
    "mul",
    "divmod_",
    "mod",
    "div",
    "mulmod",
    "powmod",
    "gcd",
    "egcd",
    "modinv",
    "is_irreducible",
    "irreducibles",
    "first_irreducibles",
    "poly_to_str",
]


def deg(p: int) -> int:
    """Degree of ``p``; ``deg(0) == -1`` by convention."""
    return p.bit_length() - 1


def add(a: int, b: int) -> int:
    """Addition in GF(2)[t] (coefficient-wise XOR; identical to subtraction)."""
    return a ^ b


def mul(a: int, b: int) -> int:
    """Carry-less product of two polynomials.

    Shift-and-xor over the set bits of the smaller operand; cost is
    ``O(popcount * shift)`` which is exact and fast for the degree ranges
    PolKA uses (node IDs of degree <= ~16, routeIDs up to a few hundred bits).
    """
    if a.bit_length() > b.bit_length():
        a, b = b, a
    result = 0
    while a:
        low = a & -a
        result ^= b << (low.bit_length() - 1)
        a ^= low
    return result


def divmod_(a: int, b: int) -> Tuple[int, int]:
    """Quotient and remainder of polynomial long division ``a = q*b + r``.

    ``deg(r) < deg(b)``.  Raises ``ZeroDivisionError`` for ``b == 0``.
    """
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = deg(b)
    q = 0
    r = a
    dr = deg(r)
    while dr >= db:
        shift = dr - db
        q ^= 1 << shift
        r ^= b << shift
        dr = deg(r)
    return q, r


def mod(a: int, b: int) -> int:
    """Remainder of ``a`` modulo ``b`` — the PolKA per-hop forwarding op."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = deg(b)
    dr = deg(a)
    while dr >= db:
        a ^= b << (dr - db)
        dr = deg(a)
    return a


def div(a: int, b: int) -> int:
    """Quotient of ``a`` divided by ``b``."""
    return divmod_(a, b)[0]


def mulmod(a: int, b: int, m: int) -> int:
    """``(a * b) mod m`` without building the full product's intermediate."""
    return mod(mul(a, b), m)


def powmod(a: int, e: int, m: int) -> int:
    """``a**e mod m`` by square-and-multiply (used by the Rabin test)."""
    if m == 0:
        raise ZeroDivisionError("polynomial modulus is zero")
    result = mod(1, m)
    base = mod(a, m)
    while e:
        if e & 1:
            result = mulmod(result, base, m)
        base = mulmod(base, base, m)
        e >>= 1
    return result


def gcd(a: int, b: int) -> int:
    """Greatest common divisor (monic by construction in GF(2)[t])."""
    while b:
        a, b = b, mod(a, b)
    return a


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclid: returns ``(g, x, y)`` with ``a*x + b*y = g``."""
    x0, x1 = 1, 0
    y0, y1 = 0, 1
    while b:
        q, r = divmod_(a, b)
        a, b = b, r
        x0, x1 = x1, add(x0, mul(q, x1))
        y0, y1 = y1, add(y0, mul(q, y1))
    return a, x0, y0


def modinv(a: int, m: int) -> int:
    """Multiplicative inverse of ``a`` modulo ``m``.

    Raises ``ValueError`` when ``gcd(a, m) != 1`` — in PolKA this signals a
    node-ID assignment bug (labels must be pairwise coprime).
    """
    g, x, _ = egcd(mod(a, m), m)
    if g != 1:
        raise ValueError(
            f"polynomial {poly_to_str(a)} is not invertible modulo {poly_to_str(m)}"
        )
    return mod(x, m)


def _distinct_prime_factors(n: int) -> List[int]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def is_irreducible(p: int) -> bool:
    """Rabin irreducibility test for a polynomial over GF(2).

    ``p`` of degree ``n`` is irreducible iff ``t^(2^n) == t (mod p)`` and for
    every prime divisor ``q`` of ``n``, ``gcd(t^(2^(n/q)) - t, p) == 1``.
    Degree-0 polynomials (constants) and 0 are not irreducible.
    """
    n = deg(p)
    if n <= 0:
        return False
    t = 0b10
    if n == 1:
        return True  # t and t+1
    for q in _distinct_prime_factors(n):
        h = add(powmod(t, 1 << (n // q), p), mod(t, p))
        if gcd(h, p) != 1:
            return False
    return powmod(t, 1 << n, p) == mod(t, p)


def irreducibles(degree: int) -> Iterator[int]:
    """Yield every irreducible polynomial of exactly ``degree`` in order."""
    if degree < 1:
        return
    start = 1 << degree
    for p in range(start, start << 1):
        if is_irreducible(p):
            yield p


def first_irreducibles(count: int, min_degree: int = 1) -> List[int]:
    """The ``count`` smallest irreducible polynomials with degree >= ``min_degree``.

    Distinct irreducibles are automatically pairwise coprime, which is what
    PolKA's CRT construction requires of node IDs.
    """
    out: List[int] = []
    degree = max(1, min_degree)
    while len(out) < count:
        for p in irreducibles(degree):
            out.append(p)
            if len(out) == count:
                return out
        degree += 1
    return out


def poly_to_str(p: int) -> str:
    """Render ``p`` like ``t^3 + t + 1`` (``0`` for the zero polynomial)."""
    if p == 0:
        return "0"
    terms = []
    for i in range(deg(p), -1, -1):
        if (p >> i) & 1:
            if i == 0:
                terms.append("1")
            elif i == 1:
                terms.append("t")
            else:
                terms.append(f"t^{i}")
    return " + ".join(terms)
