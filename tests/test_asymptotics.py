import copy
import math
import sys

import pytest

from holospaces import asymptotics, bargmann, bergman, hypergeo
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


@pytest.mark.parametrize("n", [1, 2])
def test_prefactor_keeps_n_beyond_2_pow_53(n):
    # alpha = 2^54: fl(alpha + n + 1) - fl(alpha + 1) is not n
    space = asymptotics.scaled_space(1.0, 2.0**27, n, 0)
    value = bergman.kernel_closed_from_inner(space, 0.0)
    assert value.real == pytest.approx((1.0 / math.pi) ** n, rel=1e-12)
    assert asymptotics.prefactor_ratio(1.0, 2.0**27, n) == value.real


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


def test_hypergeometric_limit_sweep_sums_the_target_once(monkeypatch):
    calls = []
    original = hypergeo.eval_pfq

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    # every module attribute that binds eval_pfq, as the benchmark's tracer wraps it
    for name, module in list(sys.modules.items()):
        if name == "holospaces" or name.startswith("holospaces."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    xs = [1e3, 1e4, 1e5]
    sweep = asymptotics.hypergeometric_limit_sweep(1.0, 1.0, 3.0, 3.0, 3.0, 0.7, xs)
    assert len(calls) == 4
    assert sweep == [(x, hypergeo.limit_3f2_to_2f2_error(1.0, 1.0, 3.0, 3.0, 3.0, 0.7, x))
                     for x in xs]
    assert asymptotics.hypergeometric_limit_sweep(1.0, 1.0, 3.0, 3.0, 3.0, 0.7, []) == []
    assert len(calls) == 10
    with pytest.raises(DomainError):
        asymptotics.hypergeometric_limit_sweep(1.0, 1.0, 3.0, 3.0, 3.0, 0.7, [0.0, 1.0])
    assert len(calls) == 10


def test_convergence_record_is_a_frozen_value():
    record = asymptotics.ConvergenceRecord(10.0, 1 + 2j, 1 + 2.5j, 0.5)
    twin = asymptotics.ConvergenceRecord(
        radius=10.0, kernel_value=1 + 2j, limit_value=1 + 2.5j, abs_error=0.5
    )
    assert record == twin and hash(record) == hash(twin)
    assert record != asymptotics.ConvergenceRecord(10.0, 1 + 2j, 1 + 2.5j, 0.25)
    assert copy.copy(record) == record
    with pytest.raises(AttributeError):
        record.radius = 20.0
    with pytest.raises(AttributeError):
        del record.abs_error
    assert repr(record) == (
        "ConvergenceRecord(radius=10.0, kernel_value=(1+2j), limit_value=(1+2.5j), abs_error=0.5)"
    )
