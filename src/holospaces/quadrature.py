"""Independent quadrature oracles for the defining norm integrals.

Everything here recomputes norms and inner products straight from their
weighted integrals, with no reference to the closed-form monomial norms, so
that agreement between the two is evidence and disagreement is adjudication.

The rules are chosen so the integrals of polynomial integrands are exact up
to roundoff rather than merely converged:

* ball, radial: substituting t = r^2 turns the radial factor into a
  polynomial against the Jacobi weight (1-t)^alpha on [0, 1]; Gauss-Jacobi
  nodes handle it exactly.
* plane, radial: s = nu r^2 gives polynomials against exp(-s) on [0, inf);
  Gauss-Laguerre nodes are exact and independent of nu.
* sphere (n = 2): the parametrization xi = (e^{i th1} sin(phi),
  e^{i th2} cos(phi)) with u = sin^2(phi) reduces the phi integral to a
  polynomial in u on [0, 1], handled by Gauss-Legendre.
* torus angles: equispaced sums annihilate every Fourier mode that is not a
  multiple of the point count, which is what makes monomial orthogonality
  hold to machine precision; the count exceeds twice the degree capacity.

Integrands are vectorized: a callable mapping an (npts, n) complex array of
points to an (npts,) array of values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy.special import roots_jacobi, roots_laguerre, roots_legendre

from . import bergman
from . import multiindex as mi
from .errors import CapacityError
from .spaces import function_norm_sq
from .taylor import TaylorSeries, canonical_order, monomial

DEFAULT_CAPACITY = 16


def _jacobi01(count: int, alpha: float):
    """Nodes/weights for integral over [0,1] against (1-t)^alpha dt."""
    x, w = roots_jacobi(count, alpha, 0.0)
    return (x + 1.0) / 2.0, w * 2.0 ** (-(alpha + 1.0))


def _legendre01(count: int):
    """Nodes/weights for the plain integral over [0,1]."""
    x, w = roots_legendre(count)
    return (x + 1.0) / 2.0, w / 2.0


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Precomputed tensor-product rule on the unit ball or the Gaussian plane.

    ``points``/``weights`` hold the flattened unit-scale rule; radius and nu
    rescalings are applied at integration time.  ``capacity`` is the largest
    total holomorphic degree D for which integrands built from degree-D
    polynomials (products f * conj(g)) are integrated exactly.
    """

    kind: str  # "ball" | "gaussian"
    n: int
    capacity: int
    alpha: float | None
    radial_nodes: np.ndarray
    radial_weights: np.ndarray
    u_nodes: np.ndarray | None
    u_weights: np.ndarray | None
    theta_count: int
    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def for_ball(cls, n: int, alpha: float, capacity: int = DEFAULT_CAPACITY,
                 _scale: int = 1) -> "QuadratureGrid":
        if n not in (1, 2):
            raise ValueError(f"ball quadrature is provided for n in {{1, 2}}, got {n}")
        if not alpha > -1:
            raise ValueError(f"alpha must be > -1, got {alpha}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        n_rad = (capacity // 2 + 2) * _scale
        n_u = (capacity // 2 + 2) * _scale
        m_theta = (2 * capacity + 1) * _scale
        tt, wt = _jacobi01(n_rad, alpha)
        return cls._assemble("ball", n, capacity, alpha, tt, wt, n_u, m_theta)

    @classmethod
    def for_gaussian(cls, n: int, capacity: int = DEFAULT_CAPACITY,
                     _scale: int = 1) -> "QuadratureGrid":
        if n not in (1, 2):
            raise ValueError(f"gaussian quadrature is provided for n in {{1, 2}}, got {n}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        n_rad = (capacity // 2 + 2) * _scale
        n_u = (capacity // 2 + 2) * _scale
        m_theta = (2 * capacity + 1) * _scale
        ss, ws = roots_laguerre(n_rad)
        return cls._assemble("gaussian", n, capacity, None, ss, ws, n_u, m_theta)

    @classmethod
    def _assemble(cls, kind, n, capacity, alpha, tt, wt, n_u, m_theta):
        theta = 2.0 * np.pi * np.arange(m_theta) / m_theta
        phase = np.exp(1j * theta)
        w_theta = 2.0 * np.pi / m_theta
        # Jacobian in t: the measure contributes t^(n-1) dt / 2 after t = r^2.
        radial_factor = 0.5 * wt * tt ** (n - 1)
        if n == 1:
            pts = (np.sqrt(tt)[:, None] * phase[None, :]).reshape(-1, 1)
            wgt = (radial_factor[:, None] * np.full(m_theta, w_theta)[None, :]).reshape(-1)
            u_nodes = u_weights = None
        else:
            uu, wu = _legendre01(n_u)
            r1 = np.sqrt(tt[:, None] * uu[None, :])  # |z1| over (t, u)
            r2 = np.sqrt(tt[:, None] * (1.0 - uu)[None, :])
            shape = (len(tt), n_u, m_theta, m_theta)
            z1 = np.broadcast_to(r1[:, :, None, None] * phase[None, None, :, None], shape)
            z2 = np.broadcast_to(r2[:, :, None, None] * phase[None, None, None, :], shape)
            pts = np.stack([z1, z2], axis=-1).reshape(-1, 2)
            # sphere measure: dsigma = (du/2) dth1 dth2
            wgt = (
                radial_factor[:, None, None, None]
                * (0.5 * wu)[None, :, None, None]
                * np.full((m_theta, m_theta), w_theta * w_theta)[None, None, :, :]
            ).reshape(-1)
            u_nodes, u_weights = uu, wu
        return cls(
            kind=kind,
            n=n,
            capacity=capacity,
            alpha=alpha,
            radial_nodes=tt,
            radial_weights=wt,
            u_nodes=u_nodes,
            u_weights=u_weights,
            theta_count=m_theta,
            points=pts,
            weights=wgt,
        )

    def doubled(self) -> "QuadratureGrid":
        """Same capacity label, twice the nodes in every direction."""
        if self.kind == "ball":
            return QuadratureGrid.for_ball(self.n, self.alpha, self.capacity, _scale=2)
        return QuadratureGrid.for_gaussian(self.n, self.capacity, _scale=2)


def _check_capacity(grid: QuadratureGrid, degree) -> None:
    if degree is not None and degree > grid.capacity:
        raise CapacityError(
            f"declared degree {degree} exceeds grid capacity {grid.capacity}"
        )


def integrate_ball(
    n: int,
    alpha: float,
    integrand,
    grid: QuadratureGrid,
    radius: float = 1.0,
    degree=None,
) -> complex:
    """Integral of ``integrand`` over the radius-R ball against (1-|z/R|^2)^alpha.

    ``integrand`` receives an (npts, n) complex array and returns (npts,)
    values.  ``degree`` (total holomorphic degree of the polynomial content)
    is advisory and validated against the grid capacity.
    """
    if grid.kind != "ball" or grid.n != n:
        raise ValueError(f"grid is for kind={grid.kind}, n={grid.n}; requested ball n={n}")
    if grid.alpha != alpha:
        raise ValueError(f"grid was built for alpha={grid.alpha}, requested alpha={alpha}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    _check_capacity(grid, degree)
    values = np.asarray(integrand(radius * grid.points))
    return complex(radius ** (2 * n) * np.sum(grid.weights * values))


def integrate_gaussian(
    n: int,
    nu: float,
    integrand,
    grid: QuadratureGrid,
    degree=None,
) -> complex:
    """Integral of ``integrand`` over C^n against exp(-nu |z|^2)."""
    if grid.kind != "gaussian" or grid.n != n:
        raise ValueError(f"grid is for kind={grid.kind}, n={grid.n}; requested gaussian n={n}")
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    _check_capacity(grid, degree)
    values = np.asarray(integrand(grid.points / math.sqrt(nu)))
    return complex(nu ** (-n) * np.sum(grid.weights * values))


def integrate_sphere(integrand, grid: QuadratureGrid) -> complex:
    """Integral over the unit sphere S^3 in C^2 against its area measure."""
    if grid.n != 2:
        raise ValueError("sphere integration is defined for n = 2 grids")
    m_theta = grid.theta_count
    theta = 2.0 * np.pi * np.arange(m_theta) / m_theta
    phase = np.exp(1j * theta)
    uu, wu = grid.u_nodes, grid.u_weights
    xi1 = np.sqrt(uu)[:, None, None] * phase[None, :, None]
    xi2 = np.sqrt(1.0 - uu)[:, None, None] * phase[None, None, :]
    pts = np.stack([np.broadcast_to(xi1, (len(uu), m_theta, m_theta)),
                    np.broadcast_to(xi2, (len(uu), m_theta, m_theta))], axis=-1).reshape(-1, 2)
    w_theta = 2.0 * np.pi / m_theta
    wgt = (
        (0.5 * wu)[:, None, None] * np.full((m_theta, m_theta), w_theta * w_theta)[None, :, :]
    ).reshape(-1)
    values = np.asarray(integrand(pts))
    return complex(np.sum(wgt * values))


def evaluate_series(f: TaylorSeries, points: np.ndarray) -> np.ndarray:
    """Vectorized polynomial evaluation on an (npts, dimension) point array."""
    pts = np.asarray(points)
    values = np.zeros(pts.shape[0], dtype=complex)
    for p in canonical_order(f.coefficients):
        term = np.full(pts.shape[0], f.coefficients[p])
        for axis, exponent in enumerate(p):
            if exponent:
                term = term * pts[:, axis] ** exponent
        values += term
    return values


def series_abs_squared(f: TaylorSeries):
    return lambda pts: np.abs(evaluate_series(f, pts)) ** 2


def series_pair_product(f: TaylorSeries, g: TaylorSeries):
    return lambda pts: evaluate_series(f, pts) * np.conj(evaluate_series(g, pts))


@lru_cache(maxsize=64)
def _cached_ball_grid(n: int, alpha: float, capacity: int) -> QuadratureGrid:
    return QuadratureGrid.for_ball(n, alpha, capacity)


@lru_cache(maxsize=8)
def _cached_gaussian_grid(n: int, capacity: int) -> QuadratureGrid:
    return QuadratureGrid.for_gaussian(n, capacity)


def _rule(space):
    """Cached grid builder (by capacity) and weighted L^2 integrator
    ``(integrand, grid, degree=...)`` for the space's weight."""
    if isinstance(space, bergman.BergmanDirichletSpace):
        return (partial(_cached_ball_grid, space.n, space.alpha),
                partial(integrate_ball, space.n, space.alpha, radius=space.radius))
    return partial(_cached_gaussian_grid, space.n), partial(integrate_gaussian, space.n, space.nu)


def default_grid(space, capacity: int = DEFAULT_CAPACITY) -> QuadratureGrid:
    """Grid matching the space's weight; cached across calls."""
    build_grid, _ = _rule(space)
    return build_grid(capacity)


def _weighted_integral(space, f: TaylorSeries, g: TaylorSeries, grid: QuadratureGrid) -> complex:
    """<f, g> in the plain weighted L^2 sense (no derivative terms)."""
    _, integrate = _rule(space)
    return integrate(series_pair_product(f, g), grid, degree=max(f.max_degree, g.max_degree, 0))


def sobolev_inner_quadrature(space, f: TaylorSeries, g: TaylorSeries,
                             grid: QuadratureGrid | None = None) -> complex:
    """Order-m inner product evaluated from its defining integrals.

    Low-degree parts pair in the plain weighted norm; the rest pairs through
    all order-m partials with multinomial weights m!/q!.
    """
    if grid is None:
        grid = default_grid(space)
    m = space.m
    f1, f2 = f.split(m)
    g1, g2 = g.split(m)
    total = _weighted_integral(space, f1, g1, grid)
    mfact = math.factorial(m)
    for q in mi.enumerate_indices(space.n, m):
        df = f2.derivative(q)
        dg = g2.derivative(q)
        if not df.coefficients or not dg.coefficients:
            continue
        weight = mfact // mi.multifactorial(q)  # m!/q!, exact
        total += weight * _weighted_integral(space, df, dg, grid)
    return total


def verify_monomial_norm(space, p, grid: QuadratureGrid | None = None,
                         formula: float | None = None) -> float:
    """Relative gap between the defining norm integral of z^p and the formula.

    ``formula`` defaults to the space's closed-form monomial norm; passing a
    candidate value instead turns this into an adjudicator between variants.
    """
    q = mi.as_multiindex(p)
    if grid is None:
        grid = default_grid(space)
    _check_capacity(grid, mi.degree(q))
    phi = monomial(q)
    quad_value = sobolev_inner_quadrature(space, phi, phi, grid).real
    if formula is None:
        formula = space.monomial_norm_sq(q)
    return abs(quad_value - formula) / formula


def verify_orthogonality(space, p, q, grid: QuadratureGrid | None = None) -> float:
    """Normalized quadrature inner product of two distinct monomials.

    Returns |<z^p, z^q>_quad| / (||z^p|| ||z^q||); exact torus cancellation
    keeps this at roundoff level.
    """
    pt = mi.as_multiindex(p)
    qt = mi.as_multiindex(q)
    if pt == qt:
        raise ValueError("orthogonality check requires distinct indices")
    if grid is None:
        grid = default_grid(space)
    _check_capacity(grid, max(mi.degree(pt), mi.degree(qt)))
    cross = sobolev_inner_quadrature(space, monomial(pt), monomial(qt), grid)
    norms = space.monomial_norm_sq(pt) * space.monomial_norm_sq(qt)
    return abs(cross) / math.sqrt(norms)


def verify_sobolev_norm(space, f: TaylorSeries, grid: QuadratureGrid | None = None) -> float:
    """Relative gap between the defining norm integral of f and the
    coefficient-space norm."""
    if grid is None:
        grid = default_grid(space)
    _check_capacity(grid, max(f.max_degree, 0))
    quad_value = sobolev_inner_quadrature(space, f, f, grid).real
    formula = function_norm_sq(space, f)
    if formula == 0.0:
        return abs(quad_value)
    return abs(quad_value - formula) / formula
