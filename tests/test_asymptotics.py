import math

import pytest

from holospaces import asymptotics, bargmann, bergman
from holospaces.errors import DomainError


def test_scaled_space_examples():
    space = asymptotics.scaled_space(1.0, 1.0, n=2, m=0)
    assert space.alpha == 1.0 and space.radius == 1.0
    space = asymptotics.scaled_space(2.0, 10.0, n=2, m=1)
    assert space.alpha == 200.0
    big = asymptotics.scaled_space(1.0, 100.0, n=2, m=2)
    assert big.alpha == 1e4
    # the log-Gamma path must survive alpha = 1e4
    assert math.isfinite(bergman.kernel_closed_from_inner(big, 0.5).real)


def test_prefactor_ratio_exact_value():
    expected = 102.0 * 101.0 / (math.pi**2 * 1e4)
    assert asymptotics.prefactor_ratio(1.0, 10.0, 2) == pytest.approx(expected, rel=1e-13)


def test_prefactor_ratio_limit():
    target = 1.0 / math.pi**2
    deviations = [
        abs(asymptotics.prefactor_ratio(1.0, r, 2) - target) / target for r in (10.0, 20.0, 40.0)
    ]
    assert deviations[0] > deviations[1] > deviations[2]
    # O(1/R^2): deviation drops by ~4 per doubling
    assert 3.5 <= deviations[0] / deviations[1] <= 4.5
    assert 3.5 <= deviations[1] / deviations[2] <= 4.5


def test_sweep_at_zero_inner_product_matches_prefactor():
    radii = [5.0, 10.0, 20.0]
    records = asymptotics.convergence_sweep(1.0, 1, 2, (0.0, 0.0), (0.3, 0.1), radii)
    flat = (1.0 / math.pi) ** 2
    for rec, radius in zip(records, radii):
        prefactor = asymptotics.prefactor_ratio(1.0, radius, 2)
        assert rec.kernel_value.real == pytest.approx(prefactor, rel=1e-13, abs=0.0)
        assert rec.kernel_value.imag == 0.0
        assert rec.abs_error == pytest.approx(abs(prefactor - flat), rel=1e-12)
    errors = [rec.abs_error for rec in records]
    assert errors[0] > errors[1] > errors[2]


def test_sweep_strictly_decreasing_with_rate():
    records = asymptotics.convergence_sweep(
        1.0, 2, 2, (0.5, 0.0), (1.0, 0.0), [5.0, 10.0, 20.0, 40.0]
    )
    errors = [rec.abs_error for rec in records]
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] <= 1e-3
    for e1, e2 in zip(errors, errors[1:]):
        assert 2.5 <= e1 / e2 <= 6.0


def test_sweep_limit_matches_direct_bargmann_kernel():
    z, w = (0.2 + 0.1j, 0.3), (0.4, -0.2j)
    records = asymptotics.convergence_sweep(1.5, 1, 2, z, w, [5.0, 10.0])
    flat = bargmann.BargmannDirichletSpace(n=2, nu=1.5, m=1)
    direct = bargmann.kernel_closed(flat, z, w)
    for rec in records:
        assert rec.limit_value == direct
        assert rec.abs_error == abs(rec.kernel_value - rec.limit_value)


def test_sweep_input_validation():
    with pytest.raises(ValueError):
        asymptotics.convergence_sweep(1.0, 1, 2, (0.5, 0.0), (1.0, 0.0), [10.0, 5.0])
    with pytest.raises(DomainError):
        asymptotics.convergence_sweep(1.0, 1, 2, (2.0, 0.0), (1.5, 0.0), [1.0, 2.0])
    with pytest.raises(DomainError):
        asymptotics.scaled_space(-1.0, 5.0, 2, 0)
    with pytest.raises(DomainError):
        asymptotics.prefactor_ratio(1.0, -2.0, 2)


def test_hypergeometric_limit_sweep_zero_argument():
    sweep = asymptotics.hypergeometric_limit_sweep(1.0, 1.0, 3.0, 3.0, 3.0, 0.0, [1e3, 1e4])
    assert all(err == 0.0 for _, err in sweep)


def test_hypergeometric_limit_sweep_decay_rate():
    sweep = asymptotics.hypergeometric_limit_sweep(1.0, 1.0, 3.0, 3.0, 3.0, 0.7, [1e3, 1e4, 1e5])
    errors = [err for _, err in sweep]
    assert errors[0] > errors[1] > errors[2]
    assert 7.0 <= errors[0] / errors[1] <= 13.0
    assert 7.0 <= errors[1] / errors[2] <= 13.0
