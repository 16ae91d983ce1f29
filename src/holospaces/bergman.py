"""Weighted Bergman-Dirichlet spaces on balls in C^n.

The space with parameters (n, alpha, m, R) measures the low-degree part of a
holomorphic function (total degree < m) in the weighted Bergman norm with
weight (1 - |z/R|^2)^alpha, and the high-degree part through all order-m
partials.  Monomials are orthogonal with

    ||z^p||^2 = pi^n Gamma(alpha+1) R^(2n) *
        R^(2|p|)      * p! / Gamma(|p|+alpha+n+1)                  (|p| < m)
        R^(2(|p|-m))  * |p|(|p|-1)...(|p|-m+1) p!
                        / Gamma(|p|-m+alpha+n+1)                   (|p| >= m),

and the reproducing kernel collapses, via the power-sum identity, to a
3F2-hypergeometric closed form in t = <z, w>:

    K(z, w) = Gamma(alpha+n+1) / (pi^n R^(2n) Gamma(alpha+1)) *
        [ sum_{k<m} (alpha+n+1)_k (t/R^2)^k / k!
          + t^m/(m!)^2 * 3F2(1, 1, alpha+n+1; m+1, m+1; t/R^2) ].

The prefactor multiplies both bracketed terms and the standalone t^m factor
carries no R power; only this arrangement matches the monomial-norm series
term by term (and the flat limit of the scaled spaces).

This module holds what is particular to the ball: the space parameters with
their kernel prefactor, 3F2 parameter and |t| < R^2 check, the monomial
norms and the displayed evaluation constant.  Norms, inner products, kernels,
series oracles, ``reproduce``, ``pointwise_bound`` and the normalized
coefficient are the shared algorithms of ``holospaces.spaces``, bound here
under their usual names.
"""

from __future__ import annotations

import math

from . import multiindex as mi
from ._record import Record, set_field
from .errors import DomainError
from .hypergeo import compensated_sum, pochhammer
from .spaces import (  # noqa: F401  (shared algorithms, bound under the family's names)
    DEFAULT_SERIES_DEGREE,
    _degree_terms,
    _prefactor,
    function_norm_sq,
    inner_product,
    kernel_closed,
    kernel_closed_detail,
    kernel_closed_from_inner,
    kernel_series,
    kernel_series_enumerated,
    kernel_series_from_inner,
    kernel_series_with_tail,
    monomial_norm,
    normalized_norm_sq,
    pointwise_bound,
    reproduce,
    require_finite,
)
from .taylor import as_point, vector_norm

# the coefficient column of ``norms`` under its earlier name
gamma_coeff = normalized_norm_sq


class BergmanDirichletSpace(Record):
    """Ball space parameters: dimension n, weight alpha > -1, order m, radius R."""

    _fields = ("n", "alpha", "m", "radius")

    series_tail_factor = 5.0

    def __init__(self, n: int, alpha: float, m: int, radius: float = 1.0):
        require_finite(n=n, alpha=alpha, m=m, radius=radius)
        if n < 1 or n != int(n):
            raise DomainError(f"dimension n must be a positive integer, got {n}")
        if not alpha > -1:
            raise DomainError(f"alpha must be > -1 (space is trivial otherwise), got {alpha}")
        if m < 0 or m != int(m):
            raise DomainError(f"order m must be a nonnegative integer, got {m}")
        if not radius > 0:
            raise DomainError(f"radius must be positive, got {radius}")
        set_field(self, "n", n)
        set_field(self, "alpha", alpha)
        set_field(self, "m", m)
        set_field(self, "radius", radius)

    @property
    def pfq_extra(self) -> tuple:
        return (self.alpha + self.n + 1.0,)

    def monomial_norm_sq(self, p) -> float:
        return monomial_norm_sq(self, p)

    def kernel_prefactor(self) -> float:
        # Gamma(alpha+n+1)/Gamma(alpha+1) as (alpha+1)_n, exact in the offset n
        rising = pochhammer(self.alpha + 1.0, self.n)
        return rising / (math.pi**self.n * self.radius ** (2 * self.n))

    def series_argument(self, t: complex) -> complex:
        r2 = self.radius * self.radius
        if abs(t) >= r2:
            raise DomainError(
                f"kernel argument |<z,w>| = {abs(t):.6g} must be < R^2 = {r2:.6g}"
            )
        return t / r2


@monomial_norm
def monomial_norm_sq(space: BergmanDirichletSpace, q, k) -> float:
    """||z^p||^2 from the checked q = p and k = |p| (see ``monomial_norm``), where
    Gamma(alpha+1)/Gamma(j+alpha+n+1) is 1/(alpha+1)_(j+n), j = k below m, k - m from m."""
    num = mi.multifactorial(q)
    if k < space.m:
        length = k + space.n
    else:
        num *= math.perm(k, space.m)
        length = k - space.m + space.n
    ratio = 1.0 / pochhammer(space.alpha + 1.0, length)
    return math.pi**space.n * float(num) * ratio * space.radius ** (2 * length)


def pointwise_bound_coarse(space: BergmanDirichletSpace, z) -> float:
    """Displayed (non-square-root) evaluation constant, kept for comparison.

    Only stated on the unit ball:
    (1/pi^n) Gamma(alpha+n+1)/Gamma(alpha+1) *
        (sum_{k<m} (alpha+n+1)_k |z|^k / k! + (1-|z|^2)^-(alpha+n+1)).
    A prefactor outside the normal float range, or a constant beyond the
    float range, raises DomainError.
    """
    if space.radius != 1.0:
        raise ValueError("the displayed evaluation constant is stated on the unit ball only")
    zt = as_point(z, space.n)
    r = vector_norm(zt)
    if r >= 1.0:
        raise DomainError(f"point |z| = {r:.6g} must be < 1")
    try:
        tail = (1.0 - r * r) ** -(space.alpha + space.n + 1.0)
    except OverflowError as exc:
        raise DomainError(
            f"(1 - |z|^2)^-(alpha+n+1) at |z| = {r:.6g} is beyond the float range"
        ) from exc
    # the kernel's low-degree terms at t = x = r; complex terms with imaginary
    # part 0 leave every bit of the real sum as real terms would
    low = _degree_terms(space, r, r, space.m - 1)
    value = _prefactor(space) * compensated_sum([*low, tail]).real
    if not math.isfinite(value):
        raise DomainError(f"the evaluation constant at |z| = {r:.6g} is not finite ({value})")
    return value
