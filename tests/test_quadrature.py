import math

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
    f = quadrature.SeriesProduct(monomial((3, 2)), monomial((3, 2)))
    fine = quadrature.QuadratureGrid.for_ball(2, 0.0, capacity=20)
    base = quadrature.integrate_ball(2, 0.0, f, ball_grid_a0, degree=5)
    refined = quadrature.integrate_ball(2, 0.0, f, fine, degree=5)
    assert abs(base - refined) <= 1e-12 * abs(base)
    gfine = quadrature.QuadratureGrid.for_gaussian(2, capacity=20)
    gbase = quadrature.integrate_gaussian(2, 1.0, f, gauss_grid, degree=5)
    grefined = quadrature.integrate_gaussian(2, 1.0, f, gfine, degree=5)
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
                integral = quadrature.integrate_ball(
                    2,
                    alpha,
                    quadrature.SeriesProduct(monomial(p), monomial(p)),
                    grid,
                    radius=radius,
                    degree=k,
                )
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


def _reference_integral(space, f, g, grid):
    """The weighted integral before the power tables: f * conj(g) on the
    scaled point array (a plain callable takes that path of integrate_*)."""
    integrand = lambda pts: _reference_evaluate(f, pts) * np.conj(_reference_evaluate(g, pts))
    degree = max(f.max_degree, g.max_degree, 0)
    if grid.kind == "ball":
        return quadrature.integrate_ball(space.n, space.alpha, integrand, grid,
                                         radius=space.radius, degree=degree)
    return quadrature.integrate_gaussian(space.n, space.nu, integrand, grid, degree=degree)


def _reference_sobolev(space, f, g, grid):
    """sobolev_inner_quadrature before the power tables, low-degree integral always taken."""
    f1, f2 = f.split(space.m)
    g1, g2 = g.split(space.m)
    total = _reference_integral(space, f1, g1, grid)
    for q in mi.enumerate_indices(space.n, space.m):
        df, dg = f2.derivative(q), g2.derivative(q)
        if df.coefficients and dg.coefficients:
            weight = math.factorial(space.m) // mi.multifactorial(q)
            total += weight * _reference_integral(space, df, dg, grid)
    return total


def _pairs(n, capacity, seed):
    """Series pairs, and the polynomials among them: monomials up to the
    capacity (every one up to 40 of them, else a spread) with themselves and
    their neighbours, random polynomials of the full degree (dense up to 40
    terms, else about 25), an equal copy, and the zero series."""
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
    return pairs, [dense, other, zero(n), monomials[-1]]


# n = 2 grids at capacities 2 and 6 hold less than 256 KiB of points per
# coordinate, capacity 16 more: numpy reuses temporaries only above that.
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("capacity", [2, 6, 16])
@pytest.mark.parametrize("kind", ["ball", "gaussian"])
def test_power_table_integrals_bit_identical_to_reference(kind, capacity, n):
    if kind == "ball":
        grid = quadrature.QuadratureGrid.for_ball(n, 0.5, capacity)
        spaces = [bergman.BergmanDirichletSpace(n, 0.5, 0, radius=r) for r in (1.0, 2.5)]
    else:
        grid = quadrature.QuadratureGrid.for_gaussian(n, capacity)
        spaces = [bargmann.BargmannDirichletSpace(n, nu, 0) for nu in (1.0, 2.0)]
    pairs, polynomials = _pairs(n, capacity, seed=capacity)
    for space in spaces:
        _, integrate = quadrature._rule(space)
        for f, g in pairs:
            got = quadrature._weighted_integral(integrate, f, g, grid)
            assert repr(got) == repr(_reference_integral(space, f, g, grid)), (space, f, g)
        if kind == "ball":
            key, scale = space.radius, lambda pts: space.radius * pts
        else:
            key, scale = space.nu, lambda pts: pts / math.sqrt(space.nu)
        table = grid.coordinate_powers(key, scale)
        for f in polynomials:
            got = quadrature.evaluate_series(f, table)
            assert got.tobytes() == _reference_evaluate(f, scale(grid.points)).tobytes()


def test_power_table_sobolev_matches_reference_on_a_shared_grid():
    # default_grid is cached per weight, so spaces of other radii or nu
    # share one grid: its power table must follow the scale
    rng = np.random.default_rng(5)
    f = random_polynomial(rng, 2, 6)
    g = random_polynomial(rng, 2, 6, density=0.5)
    for m in range(3):
        ball = [bergman.BergmanDirichletSpace(2, 0.5, m, radius=r) for r in (1.0, 2.5, 1.0, 2.5)]
        fock = [bargmann.BargmannDirichletSpace(2, nu, m) for nu in (1.0, 2.0, 1.0, 2.0)]
        for spaces in (ball, fock):
            grid = quadrature.default_grid(spaces[0], capacity=6)
            for space in spaces:
                assert quadrature.default_grid(space, capacity=6) is grid
                for a, b in [(f, f), (f, g), (g, monomial((3, 3))), (monomial((1, 0)), f)]:
                    got = quadrature.sobolev_inner_quadrature(space, a, b, grid)
                    assert got == _reference_sobolev(space, a, b, grid), (space, a, b)


def test_power_table_holds_one_scale():
    grid = quadrature.QuadratureGrid.for_ball(2, 0.5, capacity=6)
    arrays = {k: v.nbytes for k, v in vars(grid).items() if isinstance(v, np.ndarray)}
    f = monomial((3, 2))
    radii = (1.0, 2.0, 0.5, 3.0, 1.5)
    for radius in radii:
        space = bergman.BergmanDirichletSpace(2, 0.5, 1, radius=radius)
        quadrature.sobolev_inner_quadrature(space, f, f, grid)
    assert list(grid._powers) == [radii[-1]]
    assert {k: v.nbytes for k, v in vars(grid).items() if isinstance(v, np.ndarray)} == arrays
