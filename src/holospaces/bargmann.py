"""Bargmann-Dirichlet spaces on C^n with Gaussian weight exp(-nu |z|^2).

Monomials are orthogonal with

    ||z^p||^2 = (pi/nu)^n p! *
        nu^(-|p|)                                     (|p| < m)
        nu^(m-|p|) |p|(|p|-1)...(|p|-m+1)             (|p| >= m),

and the reproducing kernel is entire in t = <z, w>:

    K(z, w) = (nu/pi)^n [ sum_{k<m} (nu t)^k / k!
                          + t^m/(m!)^2 * 2F2(1, 1; m+1, m+1; nu t) ].

The nu^(+m) factor in the high-degree norm is forced twice over: it is what
direct Gaussian integration of the defining Sobolev norm yields, and it is the
only choice whose basis expansion resums to the 2F2 kernel.  The variant with
nu^m in the denominator is kept under a separate name so the quadrature
oracles can demonstrate the difference numerically.

This module holds what is particular to the plane: the space parameters with
their kernel prefactor and 2F2 argument, and the monomial norms in both
forms.  Norms, inner products, kernels, series oracles, ``reproduce``,
``pointwise_bound`` and the normalized coefficient are the shared algorithms
of ``holospaces.spaces``, bound here under their usual names.
"""

from __future__ import annotations

import math

from . import multiindex as mi
from ._record import Record, set_field
from .errors import DomainError
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


class BargmannDirichletSpace(Record):
    """Fock-type space parameters: dimension n, Gaussian weight nu > 0, order m."""

    _fields = ("n", "nu", "m")

    radius = math.inf  # the plane is the R -> infinity limit of the ball
    pfq_extra = ()
    series_tail_factor = 2.0

    def __init__(self, n: int, nu: float, m: int):
        require_finite(n=n, nu=nu, m=m)
        if n < 1 or n != int(n):
            raise DomainError(f"dimension n must be a positive integer, got {n}")
        if not nu > 0:
            raise DomainError(f"nu must be positive, got {nu}")
        if m < 0 or m != int(m):
            raise DomainError(f"order m must be a nonnegative integer, got {m}")
        set_field(self, "n", n)
        set_field(self, "nu", nu)
        set_field(self, "m", m)

    def monomial_norm_sq(self, p) -> float:
        return monomial_norm_sq(self, p)

    def kernel_prefactor(self) -> float:
        return (self.nu / math.pi) ** self.n

    def series_argument(self, t: complex) -> complex:
        return self.nu * t


@monomial_norm
def _norm_sq(space: BargmannDirichletSpace, q, k, m_sign: int) -> float:
    """||z^p||^2 from the checked q = p and k = |p|, with nu^(m_sign m - k) from m on."""
    base = (math.pi / space.nu) ** space.n * float(mi.multifactorial(q))
    if k < space.m:
        return base * space.nu ** (-k)
    return base * space.nu ** (m_sign * space.m - k) * math.perm(k, space.m)


def monomial_norm_sq(space: BargmannDirichletSpace, p) -> float:
    """Squared norm of z^p in the space (kernel-consistent nu powers)."""
    return _norm_sq(space, p, 1)


def monomial_norm_sq_nu_denominator_variant(space: BargmannDirichletSpace, p) -> float:
    """Typeset variant with nu^m in the denominator of the |p| >= m branch.

    Inconsistent with both the 2F2 kernel and direct Gaussian integration;
    exposed only so verification runs can exhibit the failure.
    """
    return _norm_sq(space, p, -1)
