"""Exact multi-index combinatorics.

A multi-index is a tuple of nonnegative integer exponents ``p = (p1, ..., pn)``.
Everything downstream (monomial norms, kernel series, quadrature oracles) sums
over sets ``{|p| = k}``, so the enumeration order here is fixed once and for
all: lexicographically descending on the parts.  Factorial-type quantities are
kept as exact Python integers and only leave integer arithmetic at the final
division.
"""

from __future__ import annotations

import math

MultiIndex = tuple  # tuple[int, ...]


def as_multiindex(p) -> tuple[int, ...]:
    """Coerce to a validated exponent tuple (length >= 1, entries >= 0)."""
    q = tuple(int(x) for x in p)
    if len(q) < 1:
        raise ValueError("multi-index must have at least one entry")
    if any(x != y for x, y in zip(q, p)):
        raise ValueError(f"multi-index entries must be integers, got {p!r}")
    if any(x < 0 for x in q):
        raise ValueError(f"multi-index entries must be nonnegative, got {q}")
    return q


def degree(p) -> int:
    """Total degree |p| = p1 + ... + pn."""
    return sum(p)


def multifactorial(p) -> int:
    """p! = p1! * ... * pn! as an exact integer."""
    out = 1
    for x in p:
        out *= math.factorial(x)
    return out


def enumerate_indices(n: int, k: int) -> list[tuple[int, ...]]:
    """All multi-indices of length ``n`` and total degree ``k``.

    Returned in lexicographically descending order, e.g. for (n=2, k=2):
    (2,0), (1,1), (0,2).  The list has C(k+n-1, n-1) elements.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    if n == 1:
        return [(k,)]
    out = []
    for first in range(k, -1, -1):
        for rest in enumerate_indices(n - 1, k - first):
            out.append((first, *rest))
    return out


def falling_factorial(x: float, m: int) -> float:
    """x (x-1) ... (x-m+1); empty product 1 for m = 0."""
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    out = 1.0
    for j in range(m):
        out *= x - j
    return out


def snomial_identity_residual(z1: float, z2: float, k: int) -> float:
    """Gap between the two sides of the split falling-factorial expansion.

    Left side: prod_{j<k} (z1+z2-j).  Right side: k! times the sum over
    |p| = k of falling(z1,p1)*falling(z2,p2)/p!.  Returns |LHS - RHS|;
    the identity makes this pure roundoff (<= 1e-12 * max(1, |LHS|)).
    """
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    lhs = 1.0
    for j in range(k):
        lhs *= z1 + z2 - j
    acc = 0.0
    for p1, p2 in enumerate_indices(2, k):
        acc += falling_factorial(z1, p1) * falling_factorial(z2, p2) / multifactorial((p1, p2))
    rhs = math.factorial(k) * acc
    return abs(lhs - rhs)


def power_sum_residual(z, w, k: int) -> float:
    """Gap between sum_{|p|=k} z^p conj(w)^p / p! and <z,w>^k / k!.

    Brute-force enumeration on the left versus the collapsed power on the
    right; |residual| <= 1e-12 * max(1, |<z,w>|^k/k!) for moderate inputs.
    """
    zt = tuple(complex(c) for c in z)
    wt = tuple(complex(c) for c in w)
    if len(zt) != len(wt):
        raise ValueError(f"dimension mismatch: {len(zt)} vs {len(wt)}")
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    lhs = 0j
    for p in enumerate_indices(len(zt), k):
        term = 1 + 0j
        for zi, wi, pi in zip(zt, wt, p):
            term *= zi**pi * wi.conjugate() ** pi
        lhs += term / multifactorial(p)
    t = sum(zi * wi.conjugate() for zi, wi in zip(zt, wt))
    rhs = t**k / math.factorial(k)
    return abs(lhs - rhs)
