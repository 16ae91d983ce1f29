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

Integrands of ``integrate_*`` are vectorized: a callable mapping an
(npts, n) complex array of points to an (npts,) array of values.  The
weights, the points and the sphere rule are one tensor product, radial x
sphere u x torus angles (``_tensor_weights``, ``_tensor_points``).

Inner products of two series (``sobolev_inner_quadrature``) are summed by
sum factorization (Orszag, J. Comput. Phys. 37, 1980) from the grid's
tables, with no value at any point.  As the grid is a tensor product over
the (t, u) nodes and the angles, a monomial pair z^p conj(z^q) sums to
A[p+q] T[p-q] at unit scale: A[j] sums the (t, u) node weights times
|z_1|^j_1 |z_2|^j_2, and T[k] is the product over coordinates of w_theta
sum_theta e^{i k_i theta} (``series_tables``).  The order-m product
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
from functools import lru_cache, partial
from itertools import product

import numpy as np

from . import bergman
from . import multiindex as mi
from ._record import Record, set_field
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


def _tensor_weights(radial: np.ndarray, u_weights: np.ndarray | None, count: int) -> np.ndarray:
    """Flat weights of the rule radial x (sphere u, when given) x torus
    angles, ``count`` per angle; the sphere measure is (du/2) dth1 dth2."""
    w_theta = _torus(count)[1]
    if u_weights is None:
        return (radial[:, None] * np.full(count, w_theta)[None, :]).reshape(-1)
    return (
        radial[:, None, None, None]
        * (0.5 * u_weights)[None, :, None, None]
        * np.full((count, count), w_theta * w_theta)[None, None, :, :]
    ).reshape(-1)


def _tensor_points(tt: np.ndarray, u_nodes: np.ndarray | None, count: int) -> np.ndarray:
    """Flat (npts, n) points matching ``_tensor_weights``: |z|^2 = t, and
    |z1|^2 = t u, |z2|^2 = t (1 - u) on the sphere."""
    phase = _torus(count)[0]
    if u_nodes is None:
        return (np.sqrt(tt)[:, None] * phase[None, :]).reshape(-1, 1)
    r1 = np.sqrt(tt[:, None] * u_nodes[None, :])  # |z1| over (t, u)
    r2 = np.sqrt(tt[:, None] * (1.0 - u_nodes)[None, :])
    return np.stack(np.broadcast_arrays(r1[:, :, None, None] * phase[None, None, :, None],
                                        r2[:, :, None, None] * phase[None, None, None, :]),
                    axis=-1).reshape(-1, 2)


class QuadratureGrid(Record):
    """Precomputed tensor-product rule on the unit ball or the Gaussian plane.

    ``points``/``weights`` hold the flattened unit-scale rule; radius and nu
    rescalings are applied at integration time.  ``capacity`` is the largest
    total holomorphic degree D for which integrands built from degree-D
    polynomials (products f * conj(g)) are integrated exactly.  Grids compare
    and hash by identity.
    """

    _fields = ("kind", "n", "capacity", "alpha", "radial_nodes", "radial_weights",
               "u_nodes", "u_weights", "theta_count", "weights")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, kind: str, n: int, capacity: int, alpha: float | None,
                 radial_nodes: np.ndarray, radial_weights: np.ndarray,
                 u_nodes: np.ndarray | None, u_weights: np.ndarray | None,
                 theta_count: int, weights: np.ndarray):
        set_field(self, "kind", kind)  # "ball" | "gaussian"
        set_field(self, "n", n)
        set_field(self, "capacity", capacity)
        set_field(self, "alpha", alpha)
        set_field(self, "radial_nodes", radial_nodes)
        set_field(self, "radial_weights", radial_weights)
        set_field(self, "u_nodes", u_nodes)
        set_field(self, "u_weights", u_weights)
        set_field(self, "theta_count", theta_count)
        set_field(self, "weights", weights)
        # ``points``, the tables of ``series_tables`` and the Gram tables of
        # ``sobolev_table``, each filled on first use; not in the repr
        set_field(self, "_tables", {})

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
        u_nodes, u_weights = _sphere_rule(n_u) if n == 2 else (None, None)
        # Jacobian in t: the measure contributes t^(n-1) dt / 2 after t = r^2.
        wgt = _tensor_weights(0.5 * wt * tt ** (n - 1), u_weights, m_theta)
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
        built on first use and kept by the grid: only a callable integrand
        is evaluated at them, never a series pair."""
        tables = self._tables
        if "points" not in tables:
            tables["points"] = _tensor_points(self.radial_nodes, self.u_nodes, self.theta_count)
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


def _ball_measure(n: int, alpha: float, grid: QuadratureGrid, radius: float):
    """(scale, factor) of the radius-R ball against (1-|z/R|^2)^alpha on
    ``grid``: the points scale by R and the measure by R^(2n)."""
    if grid.kind != "ball" or grid.n != n:
        raise ValueError(f"grid is for kind={grid.kind}, n={grid.n}; requested ball n={n}")
    if grid.alpha != alpha:
        raise ValueError(f"grid was built for alpha={grid.alpha}, requested alpha={alpha}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if not math.isfinite(radius):
        raise ValueError(f"radius must be finite, got {radius}")
    return radius, radius ** (2 * n)


def _gaussian_measure(n: int, nu: float, grid: QuadratureGrid):
    """(scale, factor) of C^n against exp(-nu |z|^2) on ``grid``: the points
    scale by nu^(-1/2) and the measure by nu^(-n)."""
    if grid.kind != "gaussian" or grid.n != n:
        raise ValueError(f"grid is for kind={grid.kind}, n={grid.n}; requested gaussian n={n}")
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    if not math.isfinite(nu):
        raise ValueError(f"nu must be finite, got {nu}")
    return 1.0 / math.sqrt(nu), nu ** (-n)


def _integrate(measure, integrand, grid: QuadratureGrid, degree) -> complex:
    """factor * the grid's unit-scale rule applied to ``integrand`` at the
    points times scale, for ``(scale, factor) = measure``."""
    scale, factor = measure
    _check_capacity(grid, degree)
    return complex(factor * np.sum(grid.weights * np.asarray(integrand(scale * grid.points))))


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
    return _integrate(_ball_measure(n, alpha, grid, radius), integrand, grid, degree)


def integrate_gaussian(
    n: int,
    nu: float,
    integrand,
    grid: QuadratureGrid,
    degree=None,
) -> complex:
    """Integral of ``integrand`` over C^n against exp(-nu |z|^2)."""
    return _integrate(_gaussian_measure(n, nu, grid), integrand, grid, degree)


def integrate_sphere(integrand, grid: QuadratureGrid) -> complex:
    """Integral over the unit sphere S^3 in C^2 against its area measure:
    the grid's sphere and angles at the single radius t = 1, of weight 1."""
    if grid.n != 2:
        raise ValueError("sphere integration is defined for n = 2 grids")
    one = np.ones(1)
    points = _tensor_points(one, grid.u_nodes, grid.theta_count)
    return complex(np.sum(_tensor_weights(one, grid.u_weights, grid.theta_count)
                          * np.asarray(integrand(points))))


def evaluate_series(f: TaylorSeries, points) -> np.ndarray:
    """f at each row of an (npts, n) complex point array, summed in
    canonical order."""
    pts = np.asarray(points)
    values = np.zeros(pts.shape[0], dtype=complex)
    for p, a in f.coefficients.items():
        term = np.full(pts.shape[0], a)
        for axis, exponent in enumerate(p):
            if exponent:
                term = term * pts[:, axis] ** exponent
        values += term
    return values


def _terms(f: TaylorSeries, index: dict, powers: list, scale: float):
    """Table positions of f's terms, ascending as the table is in canonical
    order, and their coefficients times scale^powers; KeyError for a term
    beyond the table."""
    rows = [(index[p], a) for p, a in f.coefficients.items()]
    return (np.array([i for i, _ in rows], dtype=np.intp),
            np.array([a * scale ** powers[i] for i, a in rows], dtype=complex))


@lru_cache(maxsize=64)
def _cached_grid(n: int, alpha: float | None, capacity: int) -> QuadratureGrid:
    """The ball grid of weight ``alpha``, or the Gaussian grid for None."""
    return (QuadratureGrid.for_gaussian(n, capacity) if alpha is None
            else QuadratureGrid.for_ball(n, alpha, capacity))


def _rule(space):
    """The space's grid key ``(n, alpha or None)`` for ``_cached_grid`` and
    its measure, ``grid -> (scale, factor)`` with the grid checks."""
    if isinstance(space, bergman.BergmanDirichletSpace):
        return ((space.n, space.alpha),
                partial(_ball_measure, space.n, space.alpha, radius=space.radius))
    return (space.n, None), partial(_gaussian_measure, space.n, space.nu)


def default_grid(space, capacity: int = DEFAULT_CAPACITY) -> QuadratureGrid:
    """Grid matching the space's weight; cached across calls."""
    key, _ = _rule(space)
    return _cached_grid(*key, capacity)


def sobolev_inner_quadrature(space, f: TaylorSeries, g: TaylorSeries,
                             grid: QuadratureGrid | None = None) -> complex:
    """Order-m inner product evaluated from its defining integrals.

    Low-degree parts pair in the plain weighted norm; the rest pairs through
    all order-m partials with multinomial weights m!/r!.  Both are read from
    the grid's order-m Gram table in one sum over term pairs: f_p c^{e_p}
    conj(g_q c^{e_q}) G_m[p, q] at the space's scale c, times its measure
    factor (see the module notes).  ``grid`` defaults to ``default_grid``.
    """
    key, measure = _rule(space)
    if grid is None:
        grid = _cached_grid(*key, DEFAULT_CAPACITY)
    scale, factor = measure(grid)
    index, powers, gram = grid.sobolev_table(space.m)
    try:
        i, a = _terms(f, index, powers, scale)
        j, b = (i, a) if g is f else _terms(g, index, powers, scale)
    except KeyError:
        # a term the table does not hold: beyond the capacity, or of another n
        _check_capacity(grid, max(f.max_degree, g.max_degree))
        raise ValueError(f"series of dimensions {f.dimension}, {g.dimension} "
                         f"on a grid of n = {grid.n}") from None
    return complex(factor * np.sum(a[:, None] * np.conj(b) * gram[i[:, None], j]))


def verify_monomial_norm(space, p, grid: QuadratureGrid | None = None,
                         formula: float | None = None) -> float:
    """Relative gap between the defining norm integral of z^p and the formula.

    ``formula`` defaults to the space's closed-form monomial norm; passing a
    candidate value instead turns this into an adjudicator between variants.
    """
    phi = monomial(p)
    (q,) = phi.coefficients  # p as validated by ``monomial``
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
    quad_value = sobolev_inner_quadrature(space, f, f, grid).real
    formula = function_norm_sq(space, f)
    if formula == 0.0:
        if f.coefficients:
            raise DomainError("the norm of the series underflows to 0; no relative gap exists")
        return abs(quad_value)
    return abs(quad_value - formula) / formula
