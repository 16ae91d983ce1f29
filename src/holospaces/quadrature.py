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
is a tensor product over the (t, u) nodes and the angles, so a monomial pair
z^p conj(z^q) sums to A[p+q] T[p-q] at unit scale: A[j] sums the (t, u) node
weights times |z_1|^j_1 |z_2|^j_2, and T[k] is the product over coordinates of
w_theta sum_theta e^{i k_i theta} (``series_tables``).  The order-m product
pairs the parts below degree m plainly and the rest as sum_{|r|=m} (m!/r!)
<d^r f, d^r g>, d^r z^p = perm(p, r) z^{p-r} (0 unless r <= p), so on the
monomials of degree <= capacity it is one Gram table, 0 across the blocks:

    G_m[p, q] = A[p+q] T[p-q]                                             if |p|, |q| < m
    G_m[p, q] = sum_{|r|=m} (m!/r!) perm(p, r) perm(q, r) A[p+q-2r] T[p-q]  if |p|, |q| >= m

At scale c (R, or nu^{-1/2}) f_p carries c^{|p|}, or c^{|p|-m} from degree m
on, so ``QuadratureGrid.sobolev_table`` keys G_m by m alone for every scale:
153 x 153 complex (375 KB) at n = 2, capacity 16, against 108,900 points.
Its weight-free half is a plan per (n, capacity, m), ``_gram_plan``, shared
by every grid of either family: the canonical order, the flat T offset of
each p and, per part (the low block, then each r in canonical order), the
rows p >= r, the exact integer weights m!/r! perm(p, r) and perm(q, r), and
the flat A offsets of p - r; O(N) each, never N x N.  A fill gathers A at
the outer sums and T at the outer differences of the offsets.
Order 0 is the plain product.  Only rounding separates this from the sum at
the points, a few eps times the same sum of |f_p||g_q| quad(|d^r z^p||d^r z^q|).
Sums are elementwise products reduced by ``np.sum``, never BLAS (``@``,
``dot``, ``einsum``), whose builds differ in blocking and thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import product

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
    weights: np.ndarray
    # ``points``, the tables of ``series_tables`` and the Gram tables of
    # ``sobolev_table``, each filled on first use; no array until then.
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
        w_theta = _torus(m_theta)[1]
        # Jacobian in t: the measure contributes t^(n-1) dt / 2 after t = r^2.
        radial_factor = 0.5 * wt * tt ** (n - 1)
        if n == 1:
            wgt = (radial_factor[:, None] * np.full(m_theta, w_theta)[None, :]).reshape(-1)
            u_nodes = u_weights = None
        else:
            u_nodes, u_weights = _sphere_rule(n_u)
            # sphere measure: dsigma = (du/2) dth1 dth2
            wgt = (
                radial_factor[:, None, None, None]
                * (0.5 * u_weights)[None, :, None, None]
                * np.full((m_theta, m_theta), w_theta * w_theta)[None, None, :, :]
            ).reshape(-1)
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
            weights=wgt,
        )

    @property
    def points(self) -> np.ndarray:
        """The flattened (npts, n) unit-scale points, matching ``weights``,
        built on first use and kept by the grid: only a plain callable is
        evaluated at them, never a series product."""
        tables = self._tables
        if "points" not in tables:
            tt, phase = self.radial_nodes, _torus(self.theta_count)[0]
            if self.n == 1:
                tables["points"] = (np.sqrt(tt)[:, None] * phase[None, :]).reshape(-1, 1)
            else:
                uu = self.u_nodes
                r1 = np.sqrt(tt[:, None] * uu[None, :])  # |z1| over (t, u)
                r2 = np.sqrt(tt[:, None] * (1.0 - uu)[None, :])
                shape = (len(tt), len(uu), self.theta_count, self.theta_count)
                z1 = np.broadcast_to(r1[:, :, None, None] * phase[None, None, :, None], shape)
                z2 = np.broadcast_to(r2[:, :, None, None] * phase[None, None, None, :], shape)
                tables["points"] = np.stack([z1, z2], axis=-1).reshape(-1, 2)
        return tables["points"]

    def series_tables(self):
        """The moments A[j] and torus products T[k] of the unit-scale rule
        (module notes) for j and |k| up to top = 2 * capacity, as
        ``moments[j1, j2]`` and ``torus[top + k1, top + k2]`` (one index at
        n = 1), filled on first use and kept by the grid: all of G_m that
        depends on the grid's weights."""
        tables = self._tables
        if "moments" not in tables:
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
            torus = np.concatenate((np.conj(half[:0:-1]), half))
            tables.update(moments=moments, torus=torus if self.n == 1 else torus[:, None] * torus)
        return tables["moments"], tables["torus"]

    def sobolev_table(self, m: int):
        """(index, powers, G_m), G_m filled on first use and kept by the grid:
        the canonical position of each monomial of degree <= capacity and the
        power of the scale on its coefficient, both from the shared plan
        ``_gram_plan(n, capacity, m)``, and G_m gathered at its offsets."""
        tables = self._tables
        if m not in tables:
            index, powers, torus_at, parts = _gram_plan(self.n, self.capacity, m)
            moments, torus = (table.ravel() for table in self.series_tables())
            size = len(powers)
            gram = np.zeros(size * size)
            for rows, left, right, at in parts:
                block = left[:, None] * right * moments[at[:, None] + at]
                gram[(size * rows)[:, None] + rows] += block
            # T[0] sits at the centre of the flat torus table
            torus = torus[torus.size // 2 + (torus_at[:, None] - torus_at)]
            tables[m] = index, powers, gram.reshape(size, size) * torus
        return tables[m]


def _frozen(*arrays):
    """The arrays, made read-only: a cached array is shared by every caller."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


@lru_cache(maxsize=64)
def _sphere_rule(count: int):
    """The sphere's u-rule, the same for every n = 2 grid whatever its weight."""
    return _frozen(*_jacobi01(count, 0.0))


@lru_cache(maxsize=64)
def _gram_plan(n: int, capacity: int, m: int):
    """The weight-free half of G_m (module notes): (index, powers, torus
    offsets, parts), each part (rows, m!/r! perm(p, r), perm(q, r), offsets)."""
    # not enumerate_indices, whose traced call count must not depend on this cache
    order = canonical_order(p for p in product(range(capacity + 1), repeat=n)
                            if sum(p) <= capacity)
    e = np.array(order).T  # one row per coordinate
    degree = e.sum(axis=0)
    # (weight, factor of each monomial, r): the low parts pair plainly,
    # the rest through the partials d^r z^p = perm(p, r) z^(p-r), |r| = m
    parts = [(1, 1.0 * (degree < m), (0,) * n)]
    if m <= capacity:
        parts += [(math.factorial(m) // mi.multifactorial(r),  # m!/r!, exact
                   np.array([math.prod(map(float, map(math.perm, p, r))) for p in order]), r)
                  for r in order if sum(r) == m]
    plan = []
    for weight, factor, r in parts:
        rows = np.flatnonzero(factor)  # where p - r >= 0
        plan.append(_frozen(rows, weight * factor[rows], factor[rows], np.ravel_multi_index(
            e[:, rows] - np.array(r)[:, None], (2 * capacity + 1,) * n)))
    return ({p: i for i, p in enumerate(order)}, tuple((degree - m * (degree >= m)).tolist()),
            *_frozen(np.ravel_multi_index(e, (4 * capacity + 1,) * n)), tuple(plan))


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


def _terms(f: TaylorSeries, index: dict, powers: list, scale: float):
    """Table positions of f's terms in canonical order, and their
    coefficients times scale^powers; KeyError for a term beyond the table."""
    rows = sorted((index[p], a) for p, a in f.coefficients.items())
    return (np.array([i for i, _ in rows], dtype=np.intp),
            np.array([a * scale ** powers[i] for i, a in rows], dtype=complex))


class SeriesProduct:
    """The order-m inner product integrand of two series, f * conj(g) at m = 0.

    ``integrate_ball`` and ``integrate_gaussian`` sum it from the grid's Gram
    table (``rule_sum``); at m = 0 it can also be evaluated at an (npts, n)
    point array, as ``integrate_sphere`` does.
    """

    def __init__(self, f: TaylorSeries, g: TaylorSeries, m: int = 0):
        self.f, self.g, self.m = f, g, m

    def __call__(self, points) -> np.ndarray:
        if self.m:
            raise ValueError("an order-m > 0 product is summed from the grid's tables only")
        return evaluate_series(self.f, points) * np.conj(evaluate_series(self.g, points))

    def rule_sum(self, grid: QuadratureGrid, scale: float) -> complex:
        """The grid's unit-scale rule applied to the order-m product at
        ``scale``: the sum over term pairs of f_p scale^{e_p}
        conj(g_q scale^{e_q}) G_m[p, q] (see the module notes)."""
        f, g = self.f, self.g
        index, powers, gram = grid.sobolev_table(self.m)
        try:
            i, a = _terms(f, index, powers, scale)
            j, b = (i, a) if g is f else _terms(g, index, powers, scale)
        except KeyError:
            # a term the table does not hold: beyond the capacity, or of another n
            _check_capacity(grid, max(f.max_degree, g.max_degree))
            raise ValueError(f"series of dimensions {f.dimension}, {g.dimension} "
                             f"on a grid of n = {grid.n}") from None
        return np.sum(a[:, None] * np.conj(b) * gram[i[:, None], j])


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


def sobolev_inner_quadrature(space, f: TaylorSeries, g: TaylorSeries,
                             grid: QuadratureGrid | None = None) -> complex:
    """Order-m inner product evaluated from its defining integrals.

    Low-degree parts pair in the plain weighted norm; the rest pairs through
    all order-m partials with multinomial weights m!/r!.  Both are read from
    the grid's order-m Gram table in one sum (``SeriesProduct``).
    """
    if grid is None:
        grid = default_grid(space)
    _, integrate = _rule(space)  # the grid and space checks of integrate_*
    return integrate(SeriesProduct(f, g, space.m), grid)


def verify_monomial_norm(space, p, grid: QuadratureGrid | None = None,
                         formula: float | None = None) -> float:
    """Relative gap between the defining norm integral of z^p and the formula.

    ``formula`` defaults to the space's closed-form monomial norm; passing a
    candidate value instead turns this into an adjudicator between variants.
    """
    phi = monomial(p)
    (q,) = phi.coefficients  # p as validated by ``monomial``
    if grid is None:
        grid = default_grid(space)
    _check_capacity(grid, mi.degree(q))
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
    phi, psi = monomial(p), monomial(q)
    (pt,), (qt,) = phi.coefficients, psi.coefficients  # as validated by ``monomial``
    if pt == qt:
        raise ValueError("orthogonality check requires distinct indices")
    if grid is None:
        grid = default_grid(space)
    _check_capacity(grid, max(mi.degree(pt), mi.degree(qt)))
    cross = sobolev_inner_quadrature(space, phi, psi, grid)
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
