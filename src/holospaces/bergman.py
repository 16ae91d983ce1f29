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
from dataclasses import dataclass
from typing import ClassVar

from . import multiindex as mi
from .errors import DomainError
from .hypergeo import CompensatedSum, pochhammer
from .spaces import (  # noqa: F401  (shared algorithms, bound under the family's names)
    DEFAULT_SERIES_DEGREE,
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


@dataclass(frozen=True)
class BergmanDirichletSpace:
    """Ball space parameters: dimension n, weight alpha > -1, order m, radius R."""

    n: int
    alpha: float
    m: int
    radius: float = 1.0

    series_tail_factor: ClassVar[float] = 5.0

    def __post_init__(self):
        require_finite(n=self.n, alpha=self.alpha, m=self.m, radius=self.radius)
        if self.n < 1 or self.n != int(self.n):
            raise DomainError(f"dimension n must be a positive integer, got {self.n}")
        if not self.alpha > -1:
            raise DomainError(f"alpha must be > -1 (space is trivial otherwise), got {self.alpha}")
        if self.m < 0 or self.m != int(self.m):
            raise DomainError(f"order m must be a nonnegative integer, got {self.m}")
        if not self.radius > 0:
            raise DomainError(f"radius must be positive, got {self.radius}")

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
    A constant beyond the float range raises DomainError.
    """
    if space.radius != 1.0:
        raise ValueError("the displayed evaluation constant is stated on the unit ball only")
    zt = as_point(z, space.n)
    r = vector_norm(zt)
    if r >= 1.0:
        raise DomainError(f"point |z| = {r:.6g} must be < 1")
    a3 = space.alpha + space.n + 1.0
    acc = CompensatedSum()
    term = 1.0
    for k in range(space.m):
        acc.add(term)
        term = term * ((a3 + k) / (k + 1)) * r
    try:
        acc.add((1.0 - r * r) ** (-a3))
    except OverflowError as exc:
        raise DomainError(
            f"(1 - |z|^2)^-(alpha+n+1) at |z| = {r:.6g} is beyond the float range"
        ) from exc
    value = space.kernel_prefactor() * acc.value
    if not math.isfinite(value):
        raise DomainError(f"the evaluation constant at |z| = {r:.6g} is not finite ({value})")
    return value
