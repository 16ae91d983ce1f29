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
forms.  Norms, inner products, kernels, series oracles and ``reproduce`` are
the shared algorithms of ``holospaces.spaces``, bound here under their usual
names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from . import multiindex as mi
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
    reproduce,
)


@dataclass(frozen=True)
class BargmannDirichletSpace:
    """Fock-type space parameters: dimension n, Gaussian weight nu > 0, order m."""

    n: int
    nu: float
    m: int

    radius: ClassVar[float] = math.inf  # the plane is the R -> infinity limit of the ball
    pfq_extra: ClassVar[tuple] = ()
    series_tail_factor: ClassVar[float] = 2.0

    def __post_init__(self):
        if self.n < 1 or self.n != int(self.n):
            raise DomainError(f"dimension n must be a positive integer, got {self.n}")
        if not self.nu > 0:
            raise DomainError(f"nu must be positive, got {self.nu}")
        if self.m < 0 or self.m != int(self.m):
            raise DomainError(f"order m must be a nonnegative integer, got {self.m}")

    def monomial_norm_sq(self, p) -> float:
        return monomial_norm_sq(self, p)

    def kernel_prefactor(self) -> float:
        return (self.nu / math.pi) ** self.n

    def series_argument(self, t: complex) -> complex:
        return self.nu * t


def _validated(space: BargmannDirichletSpace, p) -> tuple[tuple[int, ...], int]:
    q = mi.as_multiindex(p)
    if len(q) != space.n:
        raise ValueError(f"index {q} has length {len(q)}, space dimension is {space.n}")
    return q, mi.degree(q)


def monomial_norm_sq(space: BargmannDirichletSpace, p) -> float:
    """Squared norm of z^p in the space (kernel-consistent nu powers)."""
    q, k = _validated(space, p)
    base = (math.pi / space.nu) ** space.n * float(mi.multifactorial(q))
    if k < space.m:
        return base * space.nu ** (-k)
    return base * space.nu ** (space.m - k) * math.perm(k, space.m)


def monomial_norm_sq_nu_denominator_variant(space: BargmannDirichletSpace, p) -> float:
    """Typeset variant with nu^m in the denominator of the |p| >= m branch.

    Inconsistent with both the 2F2 kernel and direct Gaussian integration;
    exposed only so verification runs can exhibit the failure.
    """
    q, k = _validated(space, p)
    base = (math.pi / space.nu) ** space.n * float(mi.multifactorial(q))
    if k < space.m:
        return base * space.nu ** (-k)
    return base * space.nu ** (-space.m - k) * math.perm(k, space.m)
