import copy
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from conftest import random_polynomial
from holospaces import bargmann, bergman, quadrature
from holospaces import multiindex as mi
from holospaces.errors import CapacityError, DomainError
from holospaces.taylor import TaylorSeries, canonical_order, monomial, zero


@pytest.fixture(scope="module")
def ball_grid_a0():
    return quadrature.QuadratureGrid.for_ball(2, 0.0, capacity=10)


@pytest.fixture(scope="module")
def gauss_grid():
    return quadrature.QuadratureGrid.for_gaussian(2, capacity=10)


def _const(pts):
    return np.ones(len(pts))


def test_ball_volume_anchor(ball_grid_a0):
    value = quadrature.integrate_ball(2, 0.0, _const, ball_grid_a0, degree=0)
    assert value.real == pytest.approx(math.pi**2 / 2, rel=1e-13)
    assert value.imag == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("alpha", [0.5, 2.0, 25.0])
def test_ball_volume_general_alpha(alpha):
    grid = quadrature.QuadratureGrid.for_ball(2, alpha, capacity=6)
    value = quadrature.integrate_ball(2, alpha, _const, grid, degree=0)
    expected = math.pi**2 * math.gamma(alpha + 1.0) / math.gamma(alpha + 3.0)
    assert value.real == pytest.approx(expected, rel=1e-12)


def test_sphere_monomial_anchor(ball_grid_a0):
    # area-measure integral of |xi^p|^2 over the unit sphere in C^2
    for p in [(0, 0), (1, 0), (2, 1), (3, 3)]:
        integrand = lambda pts, p=p: np.abs(
            pts[:, 0] ** p[0] * pts[:, 1] ** p[1]
        ) ** 2
        value = quadrature.integrate_sphere(integrand, ball_grid_a0)
        expected = (
            2
            * math.pi**2
            * math.factorial(p[0])
            * math.factorial(p[1])
            / math.factorial(sum(p) + 1)
        )
        assert value.real == pytest.approx(expected, rel=1e-13)


def test_torus_orthogonality_is_exact(ball_grid_a0):
    integrand = lambda pts: pts[:, 0] * np.conj(pts[:, 1])
    value = quadrature.integrate_ball(2, 0.0, integrand, ball_grid_a0, degree=1)
    assert abs(value) <= 1e-15


def test_gaussian_anchors(gauss_grid):
    value = quadrature.integrate_gaussian(2, 1.0, _const, gauss_grid, degree=0)
    assert value.real == pytest.approx(math.pi**2, rel=1e-13)
    moment = quadrature.integrate_gaussian(
        2, 1.0, lambda pts: np.abs(pts[:, 0]) ** 2, gauss_grid, degree=1
    )
    assert moment.real == pytest.approx(math.pi**2, rel=1e-13)
    cross = quadrature.integrate_gaussian(
        2, 1.0, lambda pts: pts[:, 0] * np.conj(pts[:, 1]), gauss_grid, degree=1
    )
    assert abs(cross) <= 1e-15
    scaled = quadrature.integrate_gaussian(2, 2.0, _const, gauss_grid, degree=0)
    assert scaled.real == pytest.approx((math.pi / 2) ** 2, rel=1e-13)


def test_dimension_one_anchors():
    grid = quadrature.QuadratureGrid.for_ball(1, 1.5, capacity=8)
    value = quadrature.integrate_ball(1, 1.5, _const, grid, degree=0)
    assert value.real == pytest.approx(math.pi / 2.5, rel=1e-13)
    ggrid = quadrature.QuadratureGrid.for_gaussian(1, capacity=8)
    gvalue = quadrature.integrate_gaussian(1, 3.0, _const, ggrid, degree=0)
    assert gvalue.real == pytest.approx(math.pi / 3.0, rel=1e-13)
    moment = quadrature.integrate_gaussian(
        1, 1.0, lambda pts: np.abs(pts[:, 0]) ** 8, ggrid, degree=4
    )
    assert moment.real == pytest.approx(math.pi * math.factorial(4), rel=1e-13)


def _reference_rule(count, alpha=None):
    """40-digit Gauss rule from mpmath, sorted by node: Jacobi mapped onto
    [0, 1] against (1-t)^alpha, or Laguerre when ``alpha`` is None."""
    with mp.workdps(40):
        if alpha is None:
            nodes, weights = mp.gauss_quadrature(count, "laguerre")
        else:
            x, w = mp.gauss_quadrature(count, "jacobi", mp.mpf(alpha), 0)
            scale = mp.mpf(2) ** -(mp.mpf(alpha) + 1)
            nodes, weights = [(xi + 1) / 2 for xi in x], [wi * scale for wi in w]
        return sorted(zip(nodes, weights))


def _rule_errors(rule, reference):
    """Largest relative errors of the nodes and of the weights."""
    order = np.argsort(rule[0])
    with mp.workdps(40):
        return tuple(
            max(float(abs((mp.mpf(float(got)) - want) / want))
                for got, want in zip(values[order], wants))
            for values, wants in zip(rule, zip(*reference))
        )


RULE_COUNTS = [2, 5, 10, 18, 33]


@pytest.mark.parametrize("alpha", [-0.9, 0.0, 0.5, 3.7, 150.0])
@pytest.mark.parametrize("count", RULE_COUNTS)
def test_jacobi_rule_against_mpmath(count, alpha):
    node_error, weight_error = _rule_errors(
        quadrature._jacobi01(count, alpha), _reference_rule(count, alpha)
    )
    assert node_error <= 3e-14
    assert weight_error <= 1e-13


@pytest.mark.parametrize("alpha", [1100.0, 1e4])
@pytest.mark.parametrize("count", RULE_COUNTS)
def test_jacobi_rule_against_mpmath_at_large_alpha(count, alpha):
    node_error, weight_error = _rule_errors(
        quadrature._jacobi01(count, alpha), _reference_rule(count, alpha)
    )
    assert node_error <= 1e-12
    assert weight_error <= 1e-12


@pytest.mark.parametrize("count", RULE_COUNTS)
def test_laguerre_rule_against_mpmath(count):
    node_error, weight_error = _rule_errors(quadrature._laguerre(count), _reference_rule(count))
    assert node_error <= 3e-14
    assert weight_error <= 1e-13


@pytest.mark.parametrize("alpha", [1100.0, 1e4, 1e200])
def test_ball_radial_weights_keep_their_mass_at_large_alpha(alpha):
    # the Jacobi mass over [0, 1] is 1/(alpha+1); on [-1, 1] it would carry
    # a factor 2^(alpha+1) beyond the float range
    grid = quadrature.QuadratureGrid.for_ball(1, alpha)
    assert math.fsum(grid.radial_weights) == pytest.approx(1.0 / (alpha + 1.0), rel=1e-12)


def test_ball_rule_beyond_float_range_is_a_domain_error():
    with pytest.raises(DomainError, match="float range"):
        quadrature.QuadratureGrid.for_ball(1, 1e300)


def test_grid_validation(ball_grid_a0, gauss_grid):
    with pytest.raises(ValueError):
        quadrature.integrate_ball(2, 0.5, _const, ball_grid_a0)  # alpha mismatch
    with pytest.raises(ValueError):
        quadrature.integrate_ball(1, 0.0, _const, ball_grid_a0)  # n mismatch
    with pytest.raises(ValueError):
        quadrature.integrate_gaussian(2, 1.0, _const, ball_grid_a0)  # kind mismatch
    with pytest.raises(CapacityError):
        quadrature.integrate_ball(2, 0.0, _const, ball_grid_a0, degree=40)
    with pytest.raises(CapacityError):
        quadrature.verify_monomial_norm(
            bergman.BergmanDirichletSpace(n=2, alpha=0.0, m=0), (20, 20)
        )


def test_finer_grid_leaves_exact_results_unchanged(ball_grid_a0, gauss_grid):
    f, g = monomial((3, 2)), monomial((3, 2))
    ball = bergman.BergmanDirichletSpace(2, 0.0, 0)
    fine = quadrature.QuadratureGrid.for_ball(2, 0.0, capacity=20)
    base = quadrature.sobolev_inner_quadrature(ball, f, g, ball_grid_a0)
    refined = quadrature.sobolev_inner_quadrature(ball, f, g, fine)
    assert abs(base - refined) <= 1e-12 * abs(base)
    fock = bargmann.BargmannDirichletSpace(2, 1.0, 0)
    gfine = quadrature.QuadratureGrid.for_gaussian(2, capacity=20)
    gbase = quadrature.sobolev_inner_quadrature(fock, f, g, gauss_grid)
    grefined = quadrature.sobolev_inner_quadrature(fock, f, g, gfine)
    assert abs(gbase - grefined) <= 1e-12 * abs(gbase)


def test_verify_monomial_norm_anchor_cases():
    flat = bergman.BergmanDirichletSpace(n=2, alpha=0.0, m=0)
    assert quadrature.verify_monomial_norm(flat, (0, 0)) <= 1e-12
    sobolev = bergman.BergmanDirichletSpace(n=2, alpha=1.5, m=2)
    assert quadrature.verify_monomial_norm(sobolev, (2, 1)) <= 1e-8
    fock = bargmann.BargmannDirichletSpace(n=2, nu=1.0, m=2)
    assert quadrature.verify_monomial_norm(fock, (2, 1)) <= 1e-8


def test_verify_monomial_norm_radius_scaled_space():
    scaled = bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=1, radius=3.0)
    for p in [(0, 0), (2, 1)]:
        assert quadrature.verify_monomial_norm(scaled, p) <= 1e-10


def test_nu_variant_adjudication():
    space = bargmann.BargmannDirichletSpace(n=2, nu=2.0, m=2)
    assert quadrature.verify_monomial_norm(space, (2, 1)) <= 1e-8
    variant = bargmann.monomial_norm_sq_nu_denominator_variant(space, (2, 1))
    assert quadrature.verify_monomial_norm(space, (2, 1), formula=variant) >= 0.5


def test_verify_orthogonality_cases():
    m1 = bergman.BergmanDirichletSpace(n=2, alpha=0.75, m=1)
    assert quadrature.verify_orthogonality(m1, (1, 0), (0, 1)) <= 1e-14
    assert quadrature.verify_orthogonality(m1, (2, 0), (1, 1)) <= 1e-10
    fock = bargmann.BargmannDirichletSpace(n=2, nu=1.0, m=2)
    assert quadrature.verify_orthogonality(fock, (0, 0), (3, 3)) <= 1e-10
    with pytest.raises(ValueError):
        quadrature.verify_orthogonality(m1, (1, 0), (1, 0))


def test_verify_sobolev_norm_reduces_to_monomial():
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=2)
    phi = monomial((2, 1))
    assert quadrature.verify_sobolev_norm(space, phi) == pytest.approx(
        quadrature.verify_monomial_norm(space, (2, 1)), abs=1e-14
    )


def test_verify_sobolev_norm_random_polynomials():
    rng = np.random.default_rng(59)
    ball = bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=2)
    fock = bargmann.BargmannDirichletSpace(n=2, nu=1.0, m=1)
    for _ in range(3):
        f = random_polynomial(rng, 2, 6, density=0.8)
        assert quadrature.verify_sobolev_norm(ball, f) <= 1e-8
        assert quadrature.verify_sobolev_norm(fock, f) <= 1e-8


def test_cross_measure_consistency():
    # scaled-ball monomial integrals against the closed form, alpha = nu R^2
    nu = 1.0
    for radius in (2.0, 5.0):
        alpha = nu * radius * radius
        grid = quadrature.QuadratureGrid.for_ball(2, alpha, capacity=8)
        space = bergman.BergmanDirichletSpace(n=2, alpha=alpha, m=0, radius=radius)
        for k in range(5):
            for p in [(k, 0), (k // 2, k - k // 2)]:
                integral = quadrature.sobolev_inner_quadrature(space, monomial(p), monomial(p), grid)
                closed = bergman.monomial_norm_sq(space, p)
                assert integral.real == pytest.approx(closed, rel=1e-8)


def test_integrators_reject_non_finite_scales(ball_grid_a0, gauss_grid):
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="radius must be"):
            quadrature.integrate_ball(2, 0.0, _const, ball_grid_a0, radius=bad)
        with pytest.raises(ValueError, match="nu must be"):
            quadrature.integrate_gaussian(2, bad, _const, gauss_grid)
    with pytest.raises(ValueError, match="alpha must be finite"):
        quadrature.QuadratureGrid.for_ball(2, math.inf, capacity=4)


def _reference_evaluate(f, points):
    """The series loop before the power tables: every power raised on the
    full point array."""
    pts = np.asarray(points)
    values = np.zeros(pts.shape[0], dtype=complex)
    for p in canonical_order(f.coefficients):
        term = np.full(pts.shape[0], f.coefficients[p])
        for axis, exponent in enumerate(p):
            if exponent:
                term = term * pts[:, axis] ** exponent
        values += term
    return values


def _evaluated_once(evaluate):
    """``evaluate(f, points)``, computed once per series: every call at one
    scale passes the same points."""
    values = {}

    def at(f, pts):
        if id(f) not in values:
            values[id(f)] = evaluate(f, pts)
        return values[id(f)]
    return at


def _integral(space, integrand, grid, degree=None):
    """The space's weighted integral of a callable ``integrand`` on the
    scaled point array, by ``integrate_ball`` or ``integrate_gaussian``."""
    if grid.kind == "ball":
        return quadrature.integrate_ball(space.n, space.alpha, integrand, grid,
                                         radius=space.radius, degree=degree)
    return quadrature.integrate_gaussian(space.n, space.nu, integrand, grid, degree=degree)


def _reference_integral(space, f, g, grid, at):
    """The weighted integral before the power tables: f * conj(g) on the
    scaled point array, each series' values given by ``at(f, points)``."""
    integrand = lambda pts: at(f, pts) * np.conj(at(g, pts))
    return _integral(space, integrand, grid, degree=max(f.max_degree, g.max_degree, 0))


def _pairs(n, capacity, seed):
    """Series pairs: monomials up to the capacity (every one up to 40 of
    them, else a spread) with themselves and their neighbours, random
    polynomials of the full degree (dense up to 40 terms, else about 25), an
    equal copy, and the zero series."""
    indices = [p for k in range(capacity + 1) for p in mi.enumerate_indices(n, k)]
    density = min(1.0, 25 / len(indices))
    if len(indices) > 40:
        indices = indices[::8] + indices[-2:]
    monomials = [monomial(p) for p in indices]
    pairs = [(phi, phi) for phi in monomials]
    pairs += list(zip(monomials, monomials[1:]))
    rng = np.random.default_rng(seed)
    dense = random_polynomial(rng, n, capacity, density=density)
    other = random_polynomial(rng, n, capacity, density=density / 2)
    pairs += [(dense, dense), (dense, TaylorSeries(n, dict(dense.coefficients))),
              (dense, other), (other, dense), (other, monomials[-1])]
    pairs += [(zero(n), zero(n)), (zero(n), dense), (dense, zero(n))]
    return pairs


def _moduli(f):
    """The series of the moduli |f_p| of f's coefficients."""
    return TaylorSeries(f.dimension, {p: abs(a) for p, a in f.coefficients.items()})


def _moduli_at(f, points):
    """The series of f's moduli at ``points``."""
    return _reference_evaluate(_moduli(f), points)


def _modulus_integral(space, f, g, grid, at):
    """S = sum |f_p| |g_q| quad(|z^p| |z^q|), on the scaled point array: the
    size of the terms either route rounds; ``at(f, points)`` gives the
    moduli's values."""
    return _integral(space, lambda pts: at(f, abs(pts)) * at(g, abs(pts)), grid).real


# The factorized and pointwise sums of one rule differ by rounding only:
# at most SERIES_GAP * eps * S (6.1 seen over these pairs, and 6.8 against
# S_m over the pairs of test_sobolev_table_matches_derivative_route).
SERIES_GAP = 16


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("capacity", [2, 6, 16])
@pytest.mark.parametrize("kind", ["ball", "gaussian"])
def test_factorized_integrals_match_pointwise_rule(kind, capacity, n):
    # two scales share one grid and its tables, as default_grid shares a
    # grid between spaces of other radii or nu
    if kind == "ball":
        grid = quadrature.QuadratureGrid.for_ball(n, 0.5, capacity)
        spaces = [bergman.BergmanDirichletSpace(n, 0.5, 0, radius=r) for r in (1.0, 2.5)]
    else:
        grid = quadrature.QuadratureGrid.for_gaussian(n, capacity)
        spaces = [bargmann.BargmannDirichletSpace(n, nu, 0) for nu in (1.0, 2.0)]
    arrays = {k: v.nbytes for k, v in vars(grid).items() if isinstance(v, np.ndarray)}
    pairs = _pairs(n, capacity, seed=capacity)
    eps = np.finfo(float).eps
    tables = grid.series_tables()
    for space in spaces:
        # each series, and its moduli, evaluated once at this scale's points
        values, moduli = _evaluated_once(_reference_evaluate), _evaluated_once(_moduli_at)
        for f, g in pairs:
            got = quadrature.sobolev_inner_quadrature(space, f, g, grid)
            gap = abs(got - _reference_integral(space, f, g, grid, values))
            size = _modulus_integral(space, f, g, grid, moduli)
            assert gap <= SERIES_GAP * eps * size, (space, f, g)
    assert all(a is b for a, b in zip(grid.series_tables(), tables))
    assert {k: v.nbytes for k, v in vars(grid).items() if isinstance(v, np.ndarray)} == arrays


def _derivative_route(space, pairs, grid):
    """<f, g>_m of each pair by its definition, at the points: the parts of
    degree below m paired plainly, then the order-m partials d^r of the rest
    with weights m!/r!, each integrated as in ``_reference_integral``; and
    S_m, the same weighted sum of the integrals of ``_modulus_integral``.
    Each part of a series is evaluated once, not once per pair."""
    m = space.m
    values, sizes = [0j] * len(pairs), [0.0] * len(pairs)
    for r in [None, *mi.enumerate_indices(space.n, m)]:
        weight = 1 if r is None else math.factorial(m) // mi.multifactorial(r)
        parts, evaluated = {}, {}
        for f in (f for pair in pairs for f in pair):
            low, high = f.split(m)
            parts[id(f)] = low if r is None else high.derivative(r)

        def at(f, pts):
            """f's part at the points, or its moduli's at |points| (real)."""
            key = (id(f), pts.dtype.kind)
            if key not in evaluated:
                part = parts[id(f)]
                evaluated[key] = (_reference_evaluate(part, pts) if key[1] == "c"
                                  else _reference_evaluate(_moduli(part), pts).real)
            return evaluated[key]

        for k, (f, g) in enumerate(pairs):
            if parts[id(f)].coefficients and parts[id(g)].coefficients:
                values[k] += weight * _integral(space, lambda pts: at(f, pts) * np.conj(at(g, pts)),
                                                grid)
                sizes[k] += weight * _integral(space, lambda pts: at(f, abs(pts)) * at(g, abs(pts)),
                                               grid).real
    return values, sizes


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("capacity", [2, 6, 16])
@pytest.mark.parametrize("kind", ["ball", "gaussian"])
def test_sobolev_table_matches_derivative_route(kind, capacity, n, m):
    # the order-m Gram table against the derivative definition at the
    # points, at two scales sharing one grid and its table
    if kind == "ball":
        grid = quadrature.QuadratureGrid.for_ball(n, 0.5, capacity)
        spaces = [bergman.BergmanDirichletSpace(n, 0.5, m, radius=r) for r in (1.0, 2.5)]
    else:
        grid = quadrature.QuadratureGrid.for_gaussian(n, capacity)
        spaces = [bargmann.BargmannDirichletSpace(n, nu, m) for nu in (1.0, 2.0)]
    arrays = {k: v.nbytes for k, v in vars(grid).items() if isinstance(v, np.ndarray)}
    eps = np.finfo(float).eps
    pairs = _pairs(n, capacity, seed=capacity + m)
    for space in spaces:
        for (f, g), want, size in zip(pairs, *_derivative_route(space, pairs, grid)):
            got = quadrature.sobolev_inner_quadrature(space, f, g, grid)
            assert abs(got - want) <= SERIES_GAP * eps * size, (space, f, g)
    table = grid.sobolev_table(m)
    # the Gram table of an inner product, Hermitian to the bit: its real
    # part is symmetric in p and q, and T[-k] = conj(T[k])
    assert np.array_equal(table[2], table[2].conj().T)
    assert [key for key in grid._tables if isinstance(key, int)] == [m]
    assert all(a is b for a, b in zip(grid.sobolev_table(m), table))
    assert {k: v.nbytes for k, v in vars(grid).items() if isinstance(v, np.ndarray)} == arrays


def _reference_gram(grid, m):
    """(index, powers, G_m) as the grid filled them before the cached plan:
    each part's block gathered by N x N index arithmetic on the exponents."""
    moments, torus = grid.series_tables()
    order = [p for k in range(grid.capacity + 1) for p in mi.enumerate_indices(grid.n, k)]
    e = np.array(order).T.copy()  # one row per coordinate
    degree = e.sum(axis=0)
    low = degree < m
    parts = [(1, 1.0 * low, (0,) * grid.n)]
    if m <= grid.capacity:
        falling = np.array([[math.perm(k, j) for j in range(m + 1)]
                            for k in range(grid.capacity + 1)], dtype=float)
        parts += [(math.factorial(m) // mi.multifactorial(r),
                   np.prod(falling[e, np.array(r)[:, None]], axis=0), r)
                  for r in mi.enumerate_indices(grid.n, m)]
    gram = np.zeros((len(degree), len(degree)))
    for weight, factor, r in parts:
        rows = np.flatnonzero(factor)
        lowered = e[:, rows] - np.array(r)[:, None]
        block = moments[tuple(row[:, None] + row for row in lowered)]
        gram[np.ix_(rows, rows)] += weight * factor[rows, None] * factor[rows] * block
    gram = gram * torus[tuple(2 * grid.capacity + row[:, None] - row for row in e)]
    return ({p: i for i, p in enumerate(order)}, np.where(low, degree, degree - m).tolist(),
            gram)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("capacity", [1, 2, 6, 16])
@pytest.mark.parametrize("kind", ["ball", "gaussian"])
def test_gram_plan_fill_matches_reference(kind, capacity, n):
    # the same elementwise arithmetic in the same order: equal to the bit,
    # m > capacity included (the low part only)
    grid = (quadrature.QuadratureGrid.for_ball(n, 0.5, capacity) if kind == "ball"
            else quadrature.QuadratureGrid.for_gaussian(n, capacity))
    for m in range(capacity + 2):
        index, powers, gram = grid.sobolev_table(m)
        want_index, want_powers, want = _reference_gram(grid, m)
        assert index == want_index and list(powers) == want_powers, m
        assert gram.dtype == want.dtype and np.array_equal(gram, want), m


def test_gram_plan_is_shared_read_only_and_small():
    builders = [lambda: quadrature.QuadratureGrid.for_ball(2, 0.5, 6),
                lambda: quadrature.QuadratureGrid.for_ball(2, 3.0, 6),
                lambda: quadrature.QuadratureGrid.for_gaussian(2, 6)]
    quadrature._gram_plan.cache_clear()
    grids = [build() for build in builders]
    orders = range(4)
    tables = {}
    for count, grid in enumerate(grids):
        for m in orders:
            tables[count, m] = grid.sobolev_table(m)
            # one plan per m, read by every later grid of this n and capacity
            misses = m + 1 if count == 0 else len(orders)
            info = quadrature._gram_plan.cache_info()
            assert (info.misses, info.hits) == (misses, len(tables) - misses)
    for m in orders:
        assert tables[0, m][0] is tables[1, m][0] is tables[2, m][0]
    # each equals the fill of a fresh grid from a plan made for it alone
    for count, build in enumerate(builders):
        quadrature._gram_plan.cache_clear()
        cold = build()
        for m in orders:
            assert np.array_equal(cold.sobolev_table(m)[2], tables[count, m][2])
    # a cached array is shared, so it is read-only
    _, _, torus_at, parts = quadrature._gram_plan(2, 6, 2)
    shared = [grids[0].u_nodes, grids[0].u_weights, torus_at, *(a for part in parts for a in part)]
    assert grids[0].u_nodes is grids[2].u_nodes
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # O(N) per part: an N x N index array of one part at capacity 16 would
    # alone be 153 x 153 x 8 B = 187 KB
    quadrature._gram_plan.cache_clear()
    tracemalloc.start()
    try:
        for capacity in (6, 16):
            for m in orders:
                quadrature._gram_plan(2, capacity, m)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 0.5e6


def test_sobolev_product_keeps_the_grid_checks():
    ball = bergman.BergmanDirichletSpace(2, 0.5, 2)
    fock = bargmann.BargmannDirichletSpace(2, 1.0, 2)
    other_alpha = quadrature.QuadratureGrid.for_ball(2, 1.5, capacity=6)
    gaussian = quadrature.QuadratureGrid.for_gaussian(2, capacity=6)
    phi, psi = monomial((2, 1)), monomial((1, 2))
    for space, grid in ((ball, other_alpha), (ball, gaussian), (fock, other_alpha)):
        with pytest.raises(ValueError, match="grid"):
            quadrature.sobolev_inner_quadrature(space, phi, psi, grid)
        with pytest.raises(ValueError, match="grid"):
            quadrature.verify_monomial_norm(space, (2, 1), grid)
        with pytest.raises(ValueError, match="grid"):
            quadrature.verify_orthogonality(space, (2, 1), (1, 2), grid)
        with pytest.raises(ValueError, match="grid"):
            quadrature.verify_sobolev_norm(space, phi, grid)
    with pytest.raises(CapacityError):
        quadrature.sobolev_inner_quadrature(fock, monomial((7, 0)), phi, gaussian)
    with pytest.raises(CapacityError):
        quadrature.sobolev_inner_quadrature(fock, phi, monomial((3, 4)), gaussian)
    # the Gram table holds the monomials of degree <= capacity: a lookup
    # beyond it is each verify_*'s capacity check
    beyond = "declared degree 7 exceeds grid capacity 6"
    with pytest.raises(CapacityError, match=beyond):
        quadrature.verify_monomial_norm(fock, (7, 0), gaussian)
    with pytest.raises(CapacityError, match=beyond):
        quadrature.verify_orthogonality(fock, (0, 0), (4, 3), gaussian)
    with pytest.raises(CapacityError, match=beyond):
        quadrature.verify_sobolev_norm(fock, TaylorSeries(2, {(1, 0): 1.0, (0, 7): 2j}), gaussian)
    # a grid of another family is named first
    with pytest.raises(ValueError, match="grid is for kind=gaussian"):
        quadrature.verify_monomial_norm(ball, (7, 0), gaussian)
    with pytest.raises(ValueError, match="dimensions 3, 2"):
        quadrature.sobolev_inner_quadrature(fock, monomial((1, 0, 0)), phi, gaussian)
    # the CLI's exit 2 on norms that underflow is pinned in test_cli.py


@pytest.mark.parametrize("index, message", [
    ((), "multi-index must have at least one entry"),
    ("ab", "invalid literal for int() with base 10: 'a'"),
    ((1, -1), "multi-index entries must be nonnegative, got (1, -1)"),
    ((1.5, 0), "multi-index entries must be integers, got (1.5, 0)"),
    ([0.5, 1], "multi-index entries must be integers, got [0.5, 1]"),
], ids=["empty", "bad", "negative", "non-integer", "non-integer-list"])
def test_verify_index_messages(index, message):
    space = bergman.BergmanDirichletSpace(2, 0.5, 2)
    grid = quadrature.QuadratureGrid.for_ball(2, 0.5, capacity=4)
    for call in (lambda: quadrature.verify_monomial_norm(space, index, grid),
                 lambda: quadrature.verify_orthogonality(space, (1, 0), index, grid),
                 lambda: quadrature.verify_orthogonality(space, index, (1, 0), grid)):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message
    # an index of integral floats is taken as its integers
    assert quadrature.verify_monomial_norm(space, [2, 1.0], grid) == \
        quadrature.verify_monomial_norm(space, (2, 1), grid)


def test_series_product_beyond_capacity_is_a_capacity_error(ball_grid_a0):
    # no degree is declared; the tables cover the capacity only
    space = bergman.BergmanDirichletSpace(2, 0.0, 0)
    with pytest.raises(CapacityError):
        quadrature.sobolev_inner_quadrature(space, monomial((11, 0)), monomial((0, 0)), ball_grid_a0)


def test_series_integral_allocates_no_point_array():
    # one complex value per point of the n = 2, capacity-16 grid is
    # 108,900 x 16 B = 1.74 MB; the order-2 Gram table filled by the first
    # call (153 x 153 complex, 375 KB) is read, not copied, by the second
    grid = quadrature.QuadratureGrid.for_ball(2, 0.5, 16)
    space = bergman.BergmanDirichletSpace(2, 0.5, 2)
    f = random_polynomial(np.random.default_rng(16), 2, 16, density=25 / 153)
    quadrature.verify_sobolev_norm(space, f, grid)  # fills the grid's tables
    tracemalloc.start()
    try:
        quadrature.verify_sobolev_norm(space, f, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid.points.shape[0] * 16 / 8


def test_quadrature_grid_is_frozen_with_identity_equality():
    grid = quadrature.QuadratureGrid.for_gaussian(1, capacity=1)
    twin = quadrature.QuadratureGrid(
        kind="gaussian", n=1, capacity=1, alpha=None, radial_nodes=grid.radial_nodes,
        radial_weights=grid.radial_weights, u_nodes=None, u_weights=None, theta_count=3,
        weights=grid.weights,
    )
    assert twin != grid and twin == twin and hash(grid) != hash(twin)
    shallow = copy.copy(grid)
    assert shallow != grid and shallow.weights is grid.weights
    with pytest.raises(AttributeError):
        grid.capacity = 2
    with pytest.raises(AttributeError):
        del grid.weights
    # the lazily filled tables stay out of the repr
    grid.points
    assert repr(grid) == repr(twin) == (
        "QuadratureGrid(kind='gaussian', n=1, capacity=1, alpha=None, "
        "radial_nodes=array([0.58578644, 3.41421356]), "
        "radial_weights=array([0.85355339, 0.14644661]), u_nodes=None, u_weights=None, "
        "theta_count=3, weights=array([0.89383902, 0.89383902, 0.89383902, 0.15335853, "
        "0.15335853,\n       0.15335853]))"
    )


def _reference_tensor(grid):
    """(weights, points, sphere weights, sphere points) of ``grid`` by the
    expressions each of them had before the shared tensor helpers."""
    m_theta = grid.theta_count
    theta = 2.0 * np.pi * np.arange(m_theta) / m_theta
    phase, w_theta = np.exp(1j * theta), 2.0 * np.pi / m_theta
    tt, wt = grid.radial_nodes, grid.radial_weights
    radial_factor = 0.5 * wt * tt ** (grid.n - 1)
    if grid.n == 1:
        weights = (radial_factor[:, None] * np.full(m_theta, w_theta)[None, :]).reshape(-1)
        points = (np.sqrt(tt)[:, None] * phase[None, :]).reshape(-1, 1)
        return weights, points, None, None
    uu, wu = grid.u_nodes, grid.u_weights
    weights = (
        radial_factor[:, None, None, None]
        * (0.5 * wu)[None, :, None, None]
        * np.full((m_theta, m_theta), w_theta * w_theta)[None, None, :, :]
    ).reshape(-1)
    r1 = np.sqrt(tt[:, None] * uu[None, :])
    r2 = np.sqrt(tt[:, None] * (1.0 - uu)[None, :])
    shape = (len(tt), len(uu), m_theta, m_theta)
    z1 = np.broadcast_to(r1[:, :, None, None] * phase[None, None, :, None], shape)
    z2 = np.broadcast_to(r2[:, :, None, None] * phase[None, None, None, :], shape)
    points = np.stack([z1, z2], axis=-1).reshape(-1, 2)
    xi1 = np.sqrt(uu)[:, None, None] * phase[None, :, None]
    xi2 = np.sqrt(1.0 - uu)[:, None, None] * phase[None, None, :]
    sphere_points = np.stack([np.broadcast_to(xi1, (len(uu), m_theta, m_theta)),
                              np.broadcast_to(xi2, (len(uu), m_theta, m_theta))],
                             axis=-1).reshape(-1, 2)
    sphere_weights = (
        (0.5 * wu)[:, None, None] * np.full((m_theta, m_theta), w_theta * w_theta)[None, :, :]
    ).reshape(-1)
    return weights, points, sphere_weights, sphere_points


@pytest.mark.parametrize("capacity", [1, 6, 16])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["ball", "gaussian"])
def test_tensor_rule_keeps_its_bits(kind, n, capacity):
    # weights, points and the sphere rule come from one pair of tensor
    # helpers; each is the old expression's array to the bit
    grid = (quadrature.QuadratureGrid.for_ball(n, 0.5, capacity) if kind == "ball"
            else quadrature.QuadratureGrid.for_gaussian(n, capacity))
    weights, points, sphere_weights, sphere_points = _reference_tensor(grid)
    assert np.array_equal(grid.weights, weights)
    assert grid.points.shape == points.shape and np.array_equal(grid.points, points)
    if n == 1:
        return
    for p in [(0, 0), (1, 0), (2, 1), (3, 3), (capacity, 0)]:
        integrand = lambda pts, p=p: np.abs(pts[:, 0] ** p[0] * pts[:, 1] ** p[1]) ** 2
        want = complex(np.sum(sphere_weights * np.asarray(integrand(sphere_points))))
        got = quadrature.integrate_sphere(integrand, grid)
        assert np.array_equal(np.array([got]), np.array([want])), p
