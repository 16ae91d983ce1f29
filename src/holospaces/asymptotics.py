"""Flat limit of the ball spaces: scaled kernels converging to the Gaussian case.

With alpha = nu R^2 the ball weight (1 - |z/R|^2)^alpha approaches the
Gaussian density exp(-nu |z|^2), and the ball kernel converges to the
Bargmann-Dirichlet kernel pointwise and uniformly on compacts as R grows.
This module packages that limit as sweeps over increasing radii: the kernel
prefactor alone (Binet regime), the hypergeometric factor alone (large
parameter against small argument), and the full kernels side by side.

No Gamma is formed directly: alpha reaches 1e4 already at R = 100 and raw
Gamma overflows long before that.  The ball space forms its prefactor
(alpha+1)_n and its norms 1/(alpha+1)_(j+n) as Pochhammer products.
"""

from __future__ import annotations

from . import bargmann, bergman
from ._record import Record, set_field
from .errors import DomainError
from .hypergeo import _limit_3f2_to_2f2_errors
from .spaces import _prefactor
from .taylor import inner


class ConvergenceRecord(Record):
    """One radius of a kernel sweep: scaled-ball value against the flat limit."""

    _fields = ("radius", "kernel_value", "limit_value", "abs_error")

    def __init__(self, radius: float, kernel_value: complex, limit_value: complex,
                 abs_error: float):
        set_field(self, "radius", radius)
        set_field(self, "kernel_value", kernel_value)
        set_field(self, "limit_value", limit_value)
        set_field(self, "abs_error", abs_error)


def scaled_space(nu: float, radius: float, n: int, m: int) -> bergman.BergmanDirichletSpace:
    """Ball space with the curvature-scaled weight alpha = nu R^2."""
    if not nu > 0:
        raise DomainError(f"nu must be positive, got {nu}")
    if not radius > 0:
        raise DomainError(f"radius must be positive, got {radius}")
    return bergman.BergmanDirichletSpace(n=n, alpha=nu * radius * radius, m=m, radius=radius)


def prefactor_ratio(nu: float, radius: float, n: int) -> float:
    """Kernel prefactor Gamma(nu R^2+n+1) / (pi^n R^(2n) Gamma(nu R^2+1)).

    Converges to (nu/pi)^n as R -> infinity, with deviation O(1/R^2).
    A prefactor outside the normal float range raises DomainError.
    """
    return _prefactor(scaled_space(nu, radius, n, 0))


def convergence_sweep(
    nu: float,
    m: int,
    n: int,
    z,
    w,
    radii,
    tol: float = 1e-14,
    max_terms: int = 10000,
) -> list[ConvergenceRecord]:
    """Scaled-ball kernel at each radius against the fixed flat-limit kernel.

    Radii must be strictly increasing and every radius must satisfy
    |<z, w>| < R^2.  The error column is expected (not enforced) to decrease.
    """
    radii = [float(r) for r in radii]
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError(f"radii must be strictly increasing, got {radii}")
    t = inner(z, w)
    for r in radii:
        if abs(t) >= r * r:
            raise DomainError(
                f"|<z,w>| = {abs(t):.6g} must be < R^2 = {r * r:.6g} for radius {r}"
            )
    flat = bargmann.BargmannDirichletSpace(n=n, nu=nu, m=m)
    limit_value = bargmann.kernel_closed_from_inner(flat, t, tol, max_terms)
    records = []
    for r in radii:
        space = scaled_space(nu, r, n, m)
        value = bergman.kernel_closed_from_inner(space, t, tol, max_terms)
        records.append(
            ConvergenceRecord(
                radius=r,
                kernel_value=value,
                limit_value=limit_value,
                abs_error=abs(value - limit_value),
            )
        )
    return records


def hypergeometric_limit_sweep(
    b: float,
    c: float,
    d: float,
    e: float,
    a: float,
    z: complex,
    x_values,
    tol: float = 1e-14,
    max_terms: int = 10000,
) -> list[tuple[float, float]]:
    """Hypergeometric-limit errors, one per x, for increasing x values.

    Each error is ``hypergeo.limit_3f2_to_2f2_error`` at that x, bit for
    bit; the 2F2 target is summed once per sweep, not once per x.
    """
    xs = [float(x) for x in x_values]
    if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
        raise ValueError(f"x values must be strictly increasing, got {xs}")
    return list(zip(xs, _limit_3f2_to_2f2_errors(b, c, d, e, a, z, xs, tol, max_terms)))
