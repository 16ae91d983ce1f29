import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from conftest import random_point, random_polynomial
from holospaces import bargmann
from holospaces.errors import DomainError
from holospaces.hypergeo import HypergeometricSpec, eval_pfq
from holospaces.taylor import TaylorSeries, monomial, zero


def test_space_validation():
    with pytest.raises(DomainError):
        bargmann.BargmannDirichletSpace(n=2, nu=0.0, m=0)
    with pytest.raises(DomainError):
        bargmann.BargmannDirichletSpace(n=2, nu=-1.0, m=0)
    with pytest.raises(DomainError):
        bargmann.BargmannDirichletSpace(n=0, nu=1.0, m=0)


def test_monomial_norm_anchors():
    space = bargmann.BargmannDirichletSpace(n=2, nu=1.0, m=0)
    assert bargmann.monomial_norm_sq(space, (0, 0)) == pytest.approx(math.pi**2, rel=1e-14)
    order1 = bargmann.BargmannDirichletSpace(n=2, nu=1.0, m=1)
    assert bargmann.monomial_norm_sq(order1, (1, 0)) == pytest.approx(math.pi**2, rel=1e-14)
    nu2 = bargmann.BargmannDirichletSpace(n=2, nu=2.0, m=0)
    assert bargmann.monomial_norm_sq(nu2, (2, 1)) == pytest.approx(math.pi**2 / 16, rel=1e-14)


def test_paper_variant_differs_by_nu_power():
    space = bargmann.BargmannDirichletSpace(n=2, nu=2.0, m=2)
    for p in [(2, 0), (2, 1), (3, 3)]:
        consistent = bargmann.monomial_norm_sq(space, p)
        variant = bargmann.monomial_norm_sq_nu_denominator_variant(space, p)
        assert variant == pytest.approx(consistent / 2.0 ** (2 * space.m), rel=1e-13)
    below = (1, 0)  # below the order the two branches agree
    assert bargmann.monomial_norm_sq_nu_denominator_variant(space, below) == pytest.approx(
        bargmann.monomial_norm_sq(space, below)
    )


def test_function_norm_examples():
    space = bargmann.BargmannDirichletSpace(n=2, nu=1.0, m=0)
    assert bargmann.function_norm_sq(space, zero(2)) == 0.0
    phi = monomial((1, 2))
    assert bargmann.function_norm_sq(space, phi) == pytest.approx(
        bargmann.monomial_norm_sq(space, (1, 2)), rel=1e-14
    )
    f = TaylorSeries(2, {(0, 0): 1.0, (1, 0): 1.0})
    assert bargmann.function_norm_sq(space, f) == pytest.approx(2 * math.pi**2, rel=1e-13)


def test_inner_product_consistency():
    space = bargmann.BargmannDirichletSpace(n=2, nu=0.5, m=2)
    assert bargmann.inner_product(space, monomial((2, 0)), monomial((0, 2))) == 0
    rng = np.random.default_rng(41)
    for _ in range(10):
        f = random_polynomial(rng, 2, 5, density=0.7)
        ip = bargmann.inner_product(space, f, f)
        assert ip.real == pytest.approx(bargmann.function_norm_sq(space, f), rel=1e-12)


@pytest.mark.parametrize("nu", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_m0_is_exponential(nu, n):
    space = bargmann.BargmannDirichletSpace(n=n, nu=nu, m=0)
    for t in (0.5, 2.0 - 1.5j, -0.7 + 0.2j):
        expected = (nu / math.pi) ** n * cmath.exp(nu * t)
        assert bargmann.kernel_closed_from_inner(space, t) == pytest.approx(
            expected, rel=1e-12
        )


def test_kernel_at_origin():
    for m in (1, 2, 3):
        space = bargmann.BargmannDirichletSpace(n=2, nu=1.0, m=m)
        value = bargmann.kernel_closed(space, (0.5, 0.25), (0.0, 0.0))
        assert value == pytest.approx(1.0 / math.pi**2, rel=1e-14)


def test_kernel_closed_vs_series():
    space = bargmann.BargmannDirichletSpace(n=2, nu=1.0, m=2)
    closed = bargmann.kernel_closed_from_inner(space, 1.5)
    series = bargmann.kernel_series_from_inner(space, 1.5, 200)
    assert abs(closed - series) <= 1e-10 * abs(closed)


def test_kernel_series_truncation_examples():
    space = bargmann.BargmannDirichletSpace(n=2, nu=1.0, m=2)
    assert bargmann.kernel_series_from_inner(space, 2.0, 0) == pytest.approx(
        1.0 / math.pi**2
    )
    m0 = bargmann.BargmannDirichletSpace(n=2, nu=1.0, m=0)
    d = 12
    t = 1.2
    partial = bargmann.kernel_series_from_inner(m0, t, d)
    full = (1.0 / math.pi**2) * math.exp(t)
    tail_bound = (1.0 / math.pi**2) * t ** (d + 1) / math.factorial(d + 1) * math.exp(t)
    assert abs(partial - full) <= tail_bound + 1e-15 * abs(full)


def test_kernel_series_against_enumeration():
    space = bargmann.BargmannDirichletSpace(n=2, nu=0.5, m=2)
    z = (0.8 + 0.3j, -0.5 + 0.4j)
    w = (0.3 - 0.7j, 0.6 + 0.2j)
    collapsed = bargmann.kernel_series(space, z, w, 12)
    enumerated = bargmann.kernel_series_enumerated(space, z, w, 12)
    assert abs(collapsed - enumerated) <= 1e-13 * max(1.0, abs(collapsed))


def test_kernel_scaling_law():
    rng = np.random.default_rng(43)
    z = random_point(rng, 2, 1.5)
    w = random_point(rng, 2, 1.5)
    t = sum(zj * wj.conjugate() for zj, wj in zip(z, w))
    for nu in (0.5, 3.0):
        sz = tuple(math.sqrt(nu) * c for c in z)
        sw = tuple(math.sqrt(nu) * c for c in w)
        # m = 0: plain change of variables
        k_nu = bargmann.kernel_closed(bargmann.BargmannDirichletSpace(2, nu, 0), z, w)
        k_one = bargmann.kernel_closed(bargmann.BargmannDirichletSpace(2, 1.0, 0), sz, sw)
        assert k_nu * (math.pi / nu) ** 2 == pytest.approx(k_one * math.pi**2, rel=1e-12)
        # m >= 1: same after moving the explicit nu powers on the high term
        m = 2
        f22 = eval_pfq(HypergeometricSpec((1.0, 1.0), (m + 1.0, m + 1.0)), nu * t).value
        k_nu = bargmann.kernel_closed(bargmann.BargmannDirichletSpace(2, nu, m), z, w)
        k_one = bargmann.kernel_closed(bargmann.BargmannDirichletSpace(2, 1.0, m), sz, sw)
        lhs = k_nu * (math.pi / nu) ** 2 + ((nu * t) ** m - t**m) / math.factorial(m) ** 2 * f22
        assert lhs == pytest.approx(k_one * math.pi**2, rel=1e-11)


def test_kernel_positive_semidefinite():
    space = bargmann.BargmannDirichletSpace(n=2, nu=1.0, m=1)
    rng = np.random.default_rng(47)
    points = [random_point(rng, 2, 1.5) for _ in range(4)]
    gram = np.array(
        [[bargmann.kernel_closed(space, zi, zj) for zj in points] for zi in points]
    )
    eigenvalues = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    assert eigenvalues.min() >= -1e-9 * np.trace(gram).real


@pytest.mark.parametrize("nu", [0.5, 1.0, 3.0])
def test_reproduce_random_polynomial(nu):
    space = bargmann.BargmannDirichletSpace(n=2, nu=nu, m=2)
    rng = np.random.default_rng(53)
    f = random_polynomial(rng, 2, 12, density=0.5)
    w = random_point(rng, 2, 2.0)
    expected = f.evaluate(w)
    assert abs(bargmann.reproduce(space, f, w) - expected) <= 1e-10 * abs(expected)


@pytest.mark.parametrize("nu, f, w, p", [
    # ||z||^2 = 3.1e-310 is subnormal, so conj(w)/||z||^2 leaves the float range
    (1e155, TaylorSeries(1, {(1,): 1.0}), (0.9,), r"\(1,\)"),
    # w^p itself overflows at a far point
    (1.0, TaylorSeries(1, {(2,): 1.0}), (1e200,), r"\(2,\)"),
], ids=["subnormal-norm", "far-point"])
def test_reproduce_overflowing_section_coefficient_is_domain_error(nu, f, w, p):
    space = bargmann.BargmannDirichletSpace(1, nu, 0)
    message = r"section coefficient conj\(w\^p\)/\|\|z\^p\|\|\^2 at p = " + p
    with pytest.raises(DomainError, match=message):
        bargmann.reproduce(space, f, w)


@pytest.mark.parametrize("m, t, finite", [
    (120, 2.0, True), (99, 200.0, True), (150, 5.0, True), (3, 1e300, False),
], ids=["factorial", "factorial-99", "factorial-150", "power"])
def test_closed_kernel_with_an_overflowing_degree_m_term_is_a_domain_error(oracle, m, t, finite):
    # t^m/(m!)^2, the coefficient of the pFq factor, overflows as written:
    # (m!)^2 from m = 99 on, where the product of t/j^2 factors is finite
    # (K = e^2/pi at m = 120, t = 2), and t^m at t = 1e300, where it is not
    space = bargmann.BargmannDirichletSpace(1, 1.0, m)
    if finite:
        value, _ = bargmann.kernel_closed_detail(space, t)
        with mp.workdps(40):
            reference = oracle.fock_kernel(space.n, space.nu, m, mp.mpf(t))
        assert abs(value - reference) <= 1e-14 * abs(reference)
        return
    with pytest.raises(DomainError, match=f"term {m} has a modulus beyond the float range"):
        bargmann.kernel_closed_detail(space, t)


def test_reproduce_monomial():
    space = bargmann.BargmannDirichletSpace(n=2, nu=1.0, m=1)
    w = (1.2 - 0.4j, 0.8 + 1.1j)
    for p in [(0, 0), (1, 0), (2, 2)]:
        phi = monomial(p)
        assert bargmann.reproduce(space, phi, w) == pytest.approx(
            phi.evaluate(w), rel=1e-12
        )
