import cmath
import math

import numpy as np
import pytest

from conftest import RunningSum, random_point, random_polynomial
from holospaces import bergman, spaces
from holospaces.errors import DomainError
from holospaces.hypergeo import gamma_ratio
from holospaces.taylor import TaylorSeries, monomial, vector_norm, zero


def test_space_validation():
    with pytest.raises(DomainError):
        bergman.BergmanDirichletSpace(n=2, alpha=-1.0, m=0)
    with pytest.raises(DomainError):
        bergman.BergmanDirichletSpace(n=0, alpha=0.0, m=0)
    with pytest.raises(DomainError):
        bergman.BergmanDirichletSpace(n=2, alpha=0.0, m=-1)
    with pytest.raises(DomainError):
        bergman.BergmanDirichletSpace(n=2, alpha=0.0, m=0, radius=0.0)


def test_monomial_norm_anchor_volume():
    # weighted volume of the unit ball in C^2 at alpha = 0
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.0, m=0)
    assert bergman.monomial_norm_sq(space, (0, 0)) == pytest.approx(math.pi**2 / 2, rel=1e-14)


def test_monomial_norm_anchor_order_one():
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.0, m=1)
    assert bergman.monomial_norm_sq(space, (1, 0)) == pytest.approx(math.pi**2 / 2, rel=1e-14)


def test_monomial_norm_radius_scaling():
    base = bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=2)
    scaled = bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=2, radius=5.0)
    for p in [(0, 0), (1, 0), (2, 1), (4, 3)]:
        k = sum(p)
        power = 2 * 2 + (2 * k if k < 2 else 2 * (k - 2))
        assert bergman.monomial_norm_sq(scaled, p) == pytest.approx(
            bergman.monomial_norm_sq(base, p) * 5.0**power, rel=1e-13
        )


def test_gamma_coeff_anchors():
    # the norms table's coefficient ||z^p||^2/||1||^2, under its earlier name
    assert bergman.gamma_coeff is spaces.normalized_norm_sq
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.0, m=1)
    assert bergman.gamma_coeff(space, (0, 0)) == 1.0
    # p! |p| / (alpha+n+1)_1 = 2 * 2 / 3
    assert bergman.gamma_coeff(space, (2, 0)) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_gamma_coeff_consistent_with_norm():
    rng = np.random.default_rng(3)
    for _ in range(20):
        alpha = float(rng.uniform(-0.9, 3.0))
        m = int(rng.integers(0, 4))
        space = bergman.BergmanDirichletSpace(n=2, alpha=alpha, m=m)
        p = tuple(int(x) for x in rng.integers(0, 5, size=2))
        # ||1||^2 is the mass pi^2 Gamma(alpha+1)/Gamma(alpha+3) of the weight
        mass = math.pi**2 * math.gamma(alpha + 1.0) / math.gamma(alpha + 3.0)
        expected = mass * bergman.gamma_coeff(space, p)
        assert bergman.monomial_norm_sq(space, p) == pytest.approx(expected, rel=1e-12)


def test_function_norm_examples():
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.0, m=1)
    assert bergman.function_norm_sq(space, zero(2)) == 0.0
    phi = monomial((2, 1))
    assert bergman.function_norm_sq(space, phi) == pytest.approx(
        bergman.monomial_norm_sq(space, (2, 1)), rel=1e-14
    )
    f = TaylorSeries(2, {(0, 0): 1.0, (1, 0): 1.0})
    assert bergman.function_norm_sq(space, f) == pytest.approx(math.pi**2, rel=1e-13)


def test_inner_product_orthogonality_and_norm():
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=2)
    assert bergman.inner_product(space, monomial((2, 0)), monomial((1, 1))) == 0
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = random_polynomial(rng, 2, 5, density=0.7)
        ip = bergman.inner_product(space, f, f)
        assert ip.imag == pytest.approx(0.0, abs=1e-12 * abs(ip))
        assert ip.real == pytest.approx(bergman.function_norm_sq(space, f), rel=1e-12)


def test_inner_product_sesquilinear():
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.0, m=1)
    f = TaylorSeries(2, {(1, 0): 1.0 + 2j})
    g = TaylorSeries(2, {(1, 0): 0.5 - 1j})
    lam = 0.7 + 0.3j
    scaled_f = TaylorSeries(2, {(1, 0): lam * (1.0 + 2j)})
    scaled_g = TaylorSeries(2, {(1, 0): lam * (0.5 - 1j)})
    base = bergman.inner_product(space, f, g)
    assert bergman.inner_product(space, scaled_f, g) == pytest.approx(lam * base)
    assert bergman.inner_product(space, f, scaled_g) == pytest.approx(lam.conjugate() * base)


def test_kernel_at_origin():
    for m in (1, 2, 3):
        space = bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=m, radius=2.0)
        expected = gamma_ratio(0.5 + 3.0, 1.5) / (math.pi**2 * 2.0**4)
        assert bergman.kernel_closed(space, (0.3, 0.1), (0.0, 0.0)) == pytest.approx(expected)


def test_kernel_classical_bergman_value():
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.0, m=0)
    value = bergman.kernel_closed_from_inner(space, 0.5)
    assert value == pytest.approx(16.0 / math.pi**2, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_m0_reduction(alpha, n):
    space = bergman.BergmanDirichletSpace(n=n, alpha=alpha, m=0)
    prefactor = gamma_ratio(alpha + n + 1.0, alpha + 1.0) / math.pi**n
    for t in (0.5, -0.3 + 0.4j, 0.75j):
        expected = prefactor * (1.0 - t) ** (-(alpha + n + 1.0))
        value = bergman.kernel_closed_from_inner(space, t)
        assert value == pytest.approx(expected, rel=1e-12)


def test_kernel_closed_vs_series():
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=2)
    t = 0.3
    closed = bergman.kernel_closed_from_inner(space, t)
    series = bergman.kernel_series_from_inner(space, t, 200)
    assert abs(closed - series) <= 1e-10 * abs(closed)


def test_kernel_series_truncation_examples():
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=2)
    at_zero = bergman.kernel_closed(space, (0.1, 0.2), (0.0, 0.0))
    assert bergman.kernel_series_from_inner(space, 0.4, 0) == pytest.approx(at_zero)
    m0 = bergman.BergmanDirichletSpace(n=2, alpha=0.0, m=0)
    assert bergman.kernel_series_from_inner(m0, 0.5, 200) == pytest.approx(
        16.0 / math.pi**2, rel=1e-10
    )


def test_kernel_series_against_enumeration():
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=2)
    z = (0.5 + 0.2j, 0.3 - 0.1j)
    w = (0.4 - 0.3j, 0.2 + 0.5j)
    collapsed = bergman.kernel_series(space, z, w, 12)
    enumerated = bergman.kernel_series_enumerated(space, z, w, 12)
    assert abs(collapsed - enumerated) <= 1e-13 * max(1.0, abs(collapsed))


def test_kernel_hermitian_symmetry():
    space = bergman.BergmanDirichletSpace(n=2, alpha=2.0, m=2)
    rng = np.random.default_rng(17)
    for _ in range(5):
        z = random_point(rng, 2, 0.8)
        w = random_point(rng, 2, 0.8)
        kzw = bergman.kernel_closed(space, z, w)
        kwz = bergman.kernel_closed(space, w, z)
        assert abs(kzw - kwz.conjugate()) <= 1e-13 * max(1.0, abs(kzw))


def test_kernel_positive_semidefinite():
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=1)
    rng = np.random.default_rng(23)
    points = [random_point(rng, 2, 0.7) for _ in range(4)]
    gram = np.array([[bergman.kernel_closed(space, zi, zj) for zj in points] for zi in points])
    eigenvalues = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    assert eigenvalues.min() >= -1e-9 * np.trace(gram).real


def test_kernel_domain_guard():
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.0, m=1)
    with pytest.raises(DomainError):
        bergman.kernel_closed_from_inner(space, 1.0)
    with pytest.raises(DomainError):
        bergman.kernel_series_from_inner(space, 1.5, 50)
    scaled = bergman.BergmanDirichletSpace(n=2, alpha=0.0, m=1, radius=2.0)
    assert cmath.isfinite(bergman.kernel_closed_from_inner(scaled, 1.5))


def test_reproduce_constant_and_monomials():
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=2)
    one = TaylorSeries(2, {(0, 0): 1.0})
    assert bergman.reproduce(space, one, (0.2, 0.1)) == pytest.approx(1.0)
    w = (0.4 + 0.1j, -0.2 + 0.3j)
    for p in [(1, 0), (2, 1), (0, 3)]:
        phi = monomial(p)
        assert bergman.reproduce(space, phi, w) == pytest.approx(
            phi.evaluate(w), rel=1e-12
        )


def test_reproduce_random_polynomial():
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=2)
    rng = np.random.default_rng(29)
    f = random_polynomial(rng, 2, 12, density=0.5)
    w = random_point(rng, 2, 0.7)
    expected = f.evaluate(w)
    assert abs(bergman.reproduce(space, f, w) - expected) <= 1e-10 * abs(expected)


def test_reproduce_domain_guard():
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.0, m=0)
    with pytest.raises(DomainError):
        bergman.reproduce(space, monomial((1, 0)), (1.0, 0.0))


@pytest.mark.parametrize("w", [(1e200, 0.0), (0.0, 1e300 + 1e300j)], ids=["1e200", "1e300"])
def test_far_point_is_a_domain_error(w):
    # |w|^2 overflows a float here; the guard must still see |w| >= R
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=1)
    with pytest.raises(DomainError, match="must be < R"):
        bergman.reproduce(space, monomial((1, 0)), w)
    with pytest.raises(DomainError, match="must be < R"):
        bergman.pointwise_bound(space, w)


def test_pointwise_bound_origin():
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=2)
    expected = math.sqrt(gamma_ratio(3.5, 1.5) / math.pi**2)
    assert bergman.pointwise_bound(space, (0.0, 0.0)) == pytest.approx(expected)


def test_pointwise_bound_radially_monotone():
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.0, m=2)
    direction = (1.0 / math.sqrt(2), 1.0 / math.sqrt(2))
    radii = np.linspace(0.0, 0.9, 10)
    bounds = [
        bergman.pointwise_bound(space, tuple(r * d for d in direction)) for r in radii
    ]
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_pointwise_bound_coarse_variant():
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=2)
    z = (0.3, 0.4)
    r = math.sqrt(0.09 + 0.16)
    a3 = 0.5 + 3.0
    expected = (
        gamma_ratio(a3, 1.5)
        / math.pi**2
        * (1.0 + a3 * r + (1.0 - r * r) ** (-a3))
    )
    assert bergman.pointwise_bound_coarse(space, z) == pytest.approx(expected, rel=1e-13)
    with pytest.raises(ValueError):
        bergman.pointwise_bound_coarse(
            bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=2, radius=2.0), z
        )


def _reference_coarse(space, z):
    """The displayed constant from its own recurrence loop over degrees below m."""
    r = vector_norm(z)
    a3 = space.alpha + space.n + 1.0
    acc = RunningSum()
    term = 1.0
    for k in range(space.m):
        acc.add(term)
        term = term * ((a3 + k) / (k + 1)) * r
    acc.add((1.0 - r * r) ** (-a3))
    return space.kernel_prefactor() * acc.value.real


@pytest.mark.parametrize("m", range(5))
def test_pointwise_bound_coarse_is_its_recurrence_loop_bit_for_bit(m):
    rng = np.random.default_rng(20 + m)
    for n, alpha in [(1, -0.5), (2, 0.5), (3, 7.25), (2, 40.0)]:
        space = bergman.BergmanDirichletSpace(n=n, alpha=alpha, m=m)
        for r in (0.0, 1e-3, 0.3, 0.75, 0.9, 0.99):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            z = tuple(complex(c) for c in v * (r / np.linalg.norm(v)))
            expected = repr(_reference_coarse(space, z))
            assert repr(bergman.pointwise_bound_coarse(space, z)) == expected


@pytest.mark.parametrize("m", [0, 1, 2])
def test_pointwise_bound_coarse_overflow_is_domain_error(m):
    # (1 - |z|^2)^-(alpha+n+1) overflows a float at alpha = 1e4
    space = bergman.BergmanDirichletSpace(n=2, alpha=1e4, m=m)
    with pytest.raises(DomainError):
        bergman.pointwise_bound_coarse(space, (0.3, 0.2j))


def test_pointwise_bound_coarse_overflowing_product_is_domain_error():
    # the power is finite (about 1.6e304) but the prefactor (alpha+1)_2/pi^2 lifts it past
    # the float range; at |z| a little smaller the constant is finite
    space = bergman.BergmanDirichletSpace(n=2, alpha=3000.0, m=2)
    with pytest.raises(DomainError):
        bergman.pointwise_bound_coarse(space, (0.445, 0.1j))
    assert math.isfinite(bergman.pointwise_bound_coarse(space, (0.44, 0.1j)))


@pytest.mark.parametrize("m", [0, 1])
def test_pointwise_bound_coarse_prefactor_beyond_the_float_range_is_a_domain_error(m):
    # pi^700 overflows: the prefactor check of pointwise_bound, with its message
    space = bergman.BergmanDirichletSpace(700, 0.5, m)
    z = (0.01,) + (0.0,) * 699
    for bound in (bergman.pointwise_bound, bergman.pointwise_bound_coarse):
        with pytest.raises(DomainError, match="kernel prefactor of BergmanDirichletSpace"):
            bound(space, z)


def test_pointwise_bound_domain_guard():
    space = bergman.BergmanDirichletSpace(n=2, alpha=0.0, m=0)
    with pytest.raises(DomainError):
        bergman.pointwise_bound(space, (1.0, 0.2))
