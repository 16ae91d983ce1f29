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
  polynomial in u on [0, 1], handled by Gauss-Legendre (Jacobi at alpha = 0).
* torus angles: equispaced sums annihilate every Fourier mode that is not a
  multiple of the point count, which is what makes monomial orthogonality
  hold to machine precision; the count exceeds twice the degree capacity.

The Gauss rules are built with numpy alone (``_gauss``), after Golub and
Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of the Jacobi
matrix of the weight's three-term recurrence, polished by one Newton step on
the orthonormal recurrence and its derivative, and each weight is the
Christoffel function 1 / sum_{k<N} q_k(x)^2 at its node.  The Jacobi rule is
written directly on [0, 1] for (1-t)^alpha: its recurrence is the [-1, 1]
one shifted, a_k -> (a_k+1)/2 and b_k -> b_k/4, and its mass is 1/(alpha+1),
so no factor 2^(alpha+1) is formed and the rule holds to alpha ~ 1e200.
The recurrence is run through the bidiagonal factor L of the Jacobi matrix
J = L L^T, which keeps nodes near 0 accurate relative to their size.

Integrands are vectorized: a callable mapping an (npts, n) complex array of
points to an (npts,) array of values.

Series integrands (``SeriesProduct``) are integrated by sum factorization
(Orszag, J. Comput. Phys. 37, 1980), with no value at any point.  The grid
is a tensor product over the radial and u nodes (t, u) and the angles
theta_1, theta_2, and a monomial pair z^p conj(z^q) at scale c separates
over them, so its rule sum is c^{|p|+|q|} A[p+q] T[p_1-q_1] T[p_2-q_2] with

* the moment table A[j_1, j_2] = sum over (t, u) of the node weight times
  |z_1|^j_1 |z_2|^j_2 (A[j] at n = 1), for j up to twice the capacity, and
* the torus sums T[k] = w_theta sum_theta e^{ik theta}, from the grid's
  own angles, for |k| up to twice the capacity.

This is the same rule as the sum over the grid's points, grouped by factor;
only the rounding differs, by a few eps times sum |f_p||g_q| quad(|z^p||z^q|).
``QuadratureGrid.series_tables`` fills both tables once per grid and every
scale shares them: at n = 2, capacity 16 they hold 1,089 moments and 65
torus sums against 108,900 points.  Every sum is an elementwise product
reduced by ``np.sum``, never a BLAS call (``@``, ``dot``, ``einsum``): BLAS
builds differ in blocking and thread count, and the pinned outputs must not
depend on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import bergman
from . import multiindex as mi
from .errors import CapacityError, DomainError
from .spaces import function_norm_sq
from .taylor import TaylorSeries, canonical_order, monomial

DEFAULT_CAPACITY = 16


def _gauss(diag: np.ndarray, sub: np.ndarray, mass: float):
    """Gauss rule for a weight on [0, inf) of total ``mass``.

    The weight enters through the factor L of its Jacobi matrix J = L L^T:
    L is lower bidiagonal with diagonal d, d^2 = ``diag`` (N entries, one
    per node), and subdiagonal e, e^2 = ``sub`` (N - 1 entries).  So the
    monic orthogonal polynomials satisfy p_{k+1} = (x - a_k) p_k - b_k p_{k-1}
    with a_k = diag_k + sub_k and b_k = sub_k diag_{k-1}.  The nodes are the
    eigenvalues of J (Golub-Welsch), polished by one Newton step on the
    orthonormal q_N; each weight is the Christoffel function
    1 / sum_{k<N} q_k(x)^2 at the polished node.
    """
    d, e = np.sqrt(diag), np.sqrt(sub)
    a = diag + np.concatenate(([0.0], sub))
    nodes = np.linalg.eigvalsh(np.diag(a) + np.diag(e * d[:-1], -1))
    # (d_k, e_k, e_{k+1}) per step: e_0 = 0 meets s_{-1} = 0; e_N = 1 only scales q_N
    e = e.tolist()
    steps = list(zip(d.tolist(), [0.0, *e], [*e, 1.0]))
    q_0 = 1.0 / math.sqrt(mass)

    def recurrence(x: float):
        """(q_N up to a constant factor, its derivative, sum_{k<N} q_k^2) at x.

        The q_k run through the factors, s = L^T q and L s = x q, not
        through a_k and b_k: a node near 0 then keeps its relative accuracy,
        where a_k of order 1 would round it by 1e-16 absolute.  One node at a
        time on floats: at a few dozen nodes numpy's per-call cost would be
        most of the grid build.
        """
        q, dq, s, ds, squares = q_0, 0.0, 0.0, 0.0, 0.0
        for d_k, e_k, e_next in steps:
            squares += q * q
            s, ds = (x * q - e_k * s) / d_k, (q + x * dq - e_k * ds) / d_k
            q, dq = (s - d_k * q) / e_next, (ds - d_k * dq) / e_next
        return q, dq, squares

    polished = []
    for x in nodes.tolist():
        value, slope, _ = recurrence(x)
        polished.append(x - value / slope)
    weights = np.array([1.0 / recurrence(x)[2] for x in polished])
    if not np.all(np.isfinite(weights)):
        # e.g. the ball weight past alpha ~ 1e200, whose q_N' overflows
        raise DomainError("the Gauss rule of this weight leaves the float range")
    return np.array(polished), weights


def _jacobi01(count: int, alpha: float):
    """Nodes/weights for the integral over [0,1] against (1-t)^alpha dt.

    The factors give the [-1, 1] Jacobi coefficients shifted by
    t = (x+1)/2: a_k = (a_k[-1,1] + 1)/2 and b_k = b_k[-1,1]/4, with no
    cancellation at large alpha, and a_0 = 1/(alpha+2) at every alpha.
    """
    k = np.arange(float(count))
    # ratio by ratio, so that no product of two alphas overflows
    diag = (k + 1.0) / (2.0 * k + alpha + 2.0) * ((k + alpha + 1.0) / (2.0 * k + alpha + 1.0))
    k = k[1:]
    sub = k / (2.0 * k + alpha) * ((k + alpha) / (2.0 * k + alpha + 1.0))
    return _gauss(diag, sub, 1.0 / (alpha + 1.0))


def _laguerre(count: int):
    """Nodes/weights for the integral over [0,inf) against exp(-s) ds:
    a_k = 2k+1, b_k = k^2."""
    k = np.arange(float(count))
    return _gauss(k + 1.0, k[1:], 1.0)


def _torus(count: int):
    """Phases e^{i theta} of ``count`` equispaced angles, and the weight of each."""
    theta = 2.0 * np.pi * np.arange(count) / count
    return np.exp(1j * theta), 2.0 * np.pi / count


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
    # The moment table and torus sums of ``series_tables``, filled on first
    # use; holds no array until then.
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def for_ball(cls, n: int, alpha: float, capacity: int = DEFAULT_CAPACITY) -> "QuadratureGrid":
        if not alpha > -1:
            raise ValueError(f"alpha must be > -1, got {alpha}")
        if not math.isfinite(alpha):
            raise ValueError(f"alpha must be finite, got {alpha}")
        return cls._assemble("ball", n, capacity, alpha, partial(_jacobi01, alpha=alpha))

    @classmethod
    def for_gaussian(cls, n: int, capacity: int = DEFAULT_CAPACITY) -> "QuadratureGrid":
        return cls._assemble("gaussian", n, capacity, None, _laguerre)

    @classmethod
    def _assemble(cls, kind, n, capacity, alpha, radial_rule):
        """The tensor grid; ``radial_rule(count)`` gives the radial nodes and
        weights in t = r^2 (or s = nu r^2)."""
        if n not in (1, 2):
            raise ValueError(f"{kind} quadrature is provided for n in {{1, 2}}, got {n}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        n_rad = n_u = capacity // 2 + 2
        m_theta = 2 * capacity + 1
        tt, wt = radial_rule(n_rad)
        phase, w_theta = _torus(m_theta)
        # Jacobian in t: the measure contributes t^(n-1) dt / 2 after t = r^2.
        radial_factor = 0.5 * wt * tt ** (n - 1)
        if n == 1:
            pts = (np.sqrt(tt)[:, None] * phase[None, :]).reshape(-1, 1)
            wgt = (radial_factor[:, None] * np.full(m_theta, w_theta)[None, :]).reshape(-1)
            u_nodes = u_weights = None
        else:
            uu, wu = _jacobi01(n_u, 0.0)
            r1 = np.sqrt(tt[:, None] * uu[None, :])  # |z1| over (t, u)
            r2 = np.sqrt(tt[:, None] * (1.0 - uu)[None, :])
            shape = (len(tt), n_u, m_theta, m_theta)
            z1 = np.broadcast_to(r1[:, :, None, None] * phase[None, None, :, None], shape)
            z2 = np.broadcast_to(r2[:, :, None, None] * phase[None, None, None, :], shape)
            # eager: every integrand but a series product is evaluated at the
            # points, and callers read them (the benchmark's span recorder
            # counts them per grid built and per integral)
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

    def series_tables(self):
        """The moment table and torus sums of the unit-scale rule (see the
        module notes), filled on first use and kept by the grid.

        ``moments[j1, j2]`` (``moments[j]`` at n = 1) sums the weight of the
        (t, u) nodes times |z1|^j1 |z2|^j2 for j up to 2 * capacity;
        ``torus[2 * capacity + k]`` is w_theta sum_theta e^{ik theta} for
        |k| <= 2 * capacity.
        """
        tables = self._tables
        if not tables:
            top = 2 * self.capacity
            exponents = np.arange(top + 1)
            tt = self.radial_nodes
            weight = 0.5 * self.radial_weights * tt ** (self.n - 1)
            # |z1|^j1 |z2|^j2 = t^((j1+j2)/2) u^(j1/2) (1-u)^(j2/2): the
            # radial sums times the sphere's, both positive
            radial = np.sum(weight[:, None] * np.sqrt(tt)[:, None] ** np.arange(self.n * top + 1),
                            axis=0)
            if self.n == 1:
                moments = radial
            else:
                uu = self.u_nodes
                sphere = np.sum((0.5 * self.u_weights)[:, None, None]
                                * (np.sqrt(uu)[:, None] ** exponents)[:, :, None]
                                * (np.sqrt(1.0 - uu)[:, None] ** exponents)[:, None, :], axis=0)
                moments = radial[exponents[:, None] + exponents[None, :]] * sphere
            phase, w_theta = _torus(self.theta_count)
            half = w_theta * np.sum(phase[:, None] ** exponents, axis=0)
            # T[-k] = conj(T[k]), the sum of the conjugate phases
            tables.update(moments=moments, torus=np.concatenate((np.conj(half[:0:-1]), half)))
        return tables["moments"], tables["torus"]


def _check_capacity(grid: QuadratureGrid, degree) -> None:
    if degree is not None and degree > grid.capacity:
        raise CapacityError(
            f"declared degree {degree} exceeds grid capacity {grid.capacity}"
        )


def _rule_sum(integrand, grid: QuadratureGrid, scale: float) -> complex:
    """The grid's unit-scale rule applied to ``integrand`` at the points
    times ``scale``; a series product is summed from the grid's tables."""
    if isinstance(integrand, SeriesProduct):
        return integrand.rule_sum(grid, scale)
    return np.sum(grid.weights * np.asarray(integrand(scale * grid.points)))


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
    if not math.isfinite(radius):
        raise ValueError(f"radius must be finite, got {radius}")
    _check_capacity(grid, degree)
    return complex(radius ** (2 * n) * _rule_sum(integrand, grid, radius))


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
    if not math.isfinite(nu):
        raise ValueError(f"nu must be finite, got {nu}")
    _check_capacity(grid, degree)
    return complex(nu ** (-n) * _rule_sum(integrand, grid, 1.0 / math.sqrt(nu)))


def integrate_sphere(integrand, grid: QuadratureGrid) -> complex:
    """Integral over the unit sphere S^3 in C^2 against its area measure."""
    if grid.n != 2:
        raise ValueError("sphere integration is defined for n = 2 grids")
    m_theta = grid.theta_count
    phase, w_theta = _torus(m_theta)
    uu, wu = grid.u_nodes, grid.u_weights
    xi1 = np.sqrt(uu)[:, None, None] * phase[None, :, None]
    xi2 = np.sqrt(1.0 - uu)[:, None, None] * phase[None, None, :]
    pts = np.stack([np.broadcast_to(xi1, (len(uu), m_theta, m_theta)),
                    np.broadcast_to(xi2, (len(uu), m_theta, m_theta))], axis=-1).reshape(-1, 2)
    wgt = (
        (0.5 * wu)[:, None, None] * np.full((m_theta, m_theta), w_theta * w_theta)[None, :, :]
    ).reshape(-1)
    values = np.asarray(integrand(pts))
    return complex(np.sum(wgt * values))


def evaluate_series(f: TaylorSeries, points) -> np.ndarray:
    """f at each row of an (npts, n) complex point array, summed in
    canonical order."""
    pts = np.asarray(points)
    values = np.zeros(pts.shape[0], dtype=complex)
    for p in canonical_order(f.coefficients):
        term = np.full(pts.shape[0], f.coefficients[p])
        for axis, exponent in enumerate(p):
            if exponent:
                term = term * pts[:, axis] ** exponent
        values += term
    return values


def _terms(f: TaylorSeries):
    """Exponents (terms x n) and coefficients of f, in canonical order."""
    keys = canonical_order(f.coefficients)
    exponents = np.array(keys, dtype=np.int64).reshape(len(keys), f.dimension)
    return exponents, np.array([f.coefficients[p] for p in keys], dtype=complex)


class SeriesProduct:
    """The integrand f * conj(g) of two series.

    ``integrate_ball`` and ``integrate_gaussian`` sum it from the grid's
    tables (``rule_sum``); called on an (npts, n) point array, as
    ``integrate_sphere`` does, it is evaluated at each point.
    """

    def __init__(self, f: TaylorSeries, g: TaylorSeries):
        self.f, self.g = f, g

    def __call__(self, points) -> np.ndarray:
        return evaluate_series(self.f, points) * np.conj(evaluate_series(self.g, points))

    def rule_sum(self, grid: QuadratureGrid, scale: float) -> complex:
        """The grid's unit-scale rule applied to f(scale z) conj(g(scale z)):
        the sum over term pairs of f_p conj(g_q) scale^{|p|+|q|} A[p+q]
        T[p_1-q_1] ... T[p_n-q_n] (see the module notes)."""
        # beyond the capacity the table indices would leave the tables
        _check_capacity(grid, max(self.f.max_degree, self.g.max_degree, 0))
        moments, torus = grid.series_tables()
        p, a = _terms(self.f)
        q, b = _terms(self.g)
        sums = tuple(p[:, j, None] + q[None, :, j] for j in range(grid.n))
        terms = a[:, None] * np.conj(b)[None, :] * scale ** sum(sums) * moments[sums]
        for j in range(grid.n):
            terms = terms * torus[2 * grid.capacity + p[:, j, None] - q[None, :, j]]
        return np.sum(terms)


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


def _weighted_integral(integrate, f: TaylorSeries, g: TaylorSeries,
                       grid: QuadratureGrid) -> complex:
    """<f, g> in the plain weighted L^2 sense (no derivative terms), by the
    space's ``integrate`` of ``_rule``."""
    return integrate(SeriesProduct(f, g), grid, degree=max(f.max_degree, g.max_degree, 0))


def sobolev_inner_quadrature(space, f: TaylorSeries, g: TaylorSeries,
                             grid: QuadratureGrid | None = None) -> complex:
    """Order-m inner product evaluated from its defining integrals.

    Low-degree parts pair in the plain weighted norm; the rest pairs through
    all order-m partials with multinomial weights m!/q!.  A norm (g is f)
    splits and differentiates once.
    """
    if grid is None:
        grid = default_grid(space)
    _, integrate = _rule(space)
    m = space.m
    f1, f2 = f.split(m)
    g1, g2 = (f1, f2) if g is f else g.split(m)
    total = 0j
    if f1.coefficients and g1.coefficients:
        total = _weighted_integral(integrate, f1, g1, grid)
    mfact = math.factorial(m)
    for q in mi.enumerate_indices(space.n, m):
        df = f2.derivative(q)
        dg = df if g is f else g2.derivative(q)
        if not df.coefficients or not dg.coefficients:
            continue
        weight = mfact // mi.multifactorial(q)  # m!/q!, exact
        total += weight * _weighted_integral(integrate, df, dg, grid)
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
    if formula == 0.0:
        raise DomainError(f"the norm of z^{q} underflows to 0; no relative gap exists")
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
    if norms == 0.0:
        raise DomainError(
            f"the norms of z^{pt} and z^{qt} underflow to 0; no normalized product exists"
        )
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
        if f.coefficients:
            raise DomainError("the norm of the series underflows to 0; no relative gap exists")
        return abs(quad_value)
    return abs(quad_value - formula) / formula
