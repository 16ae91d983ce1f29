import math
import copy

import numpy as np
import pytest

from conftest import random_polynomial
from holospaces import multiindex as mi
from holospaces.taylor import (
    TaylorSeries,
    as_point,
    canonical_order,
    inner,
    monomial,
    point_inner,
    vector_norm,
    zero,
)


def test_inner_examples():
    assert inner((1.0, 0.0), (0.0, 1.0)) == 0
    assert inner((1j, 0.0), (1j, 0.0)) == 1
    assert inner((1.0, 2.0), (3.0, 4j)) == 3 - 8j


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner((1.0,), (1.0, 2.0))


def test_vector_norm():
    assert vector_norm((3.0, 4j)) == pytest.approx(5.0)


def test_vector_norm_beyond_squared_range():
    assert vector_norm((1e200, 0.0)) == 1e200
    assert vector_norm((3e200, 4e200j)) == pytest.approx(5e200, rel=1e-15)
    assert vector_norm((1.3e154, 1.3e154)) == pytest.approx(1.3e154 * math.sqrt(2), rel=1e-15)
    assert vector_norm((1.7e308, 1.7e308j)) == math.inf


def test_as_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_point((float("inf"), 0.0))
    with pytest.raises(ValueError):
        as_point((), None)


def test_evaluate_examples():
    one = TaylorSeries(2, {(0, 0): 1.0})
    assert one.evaluate((0.3, -2j)) == 1.0
    prod = TaylorSeries(2, {(1, 1): 1.0})
    assert prod.evaluate((2.0, 3.0)) == 6.0
    f = TaylorSeries(2, {(0, 0): 1.0, (1, 0): 2.0, (0, 2): 1.0})
    assert f.evaluate((1.0, 1j)) == pytest.approx(2.0)


def test_zero_pruning_and_equality():
    f = TaylorSeries(2, {(1, 0): 1.0, (0, 1): 0.0})
    assert f.coefficients == {(1, 0): 1.0 + 0j}
    assert f == TaylorSeries(2, {(1, 0): 1.0})
    assert zero(2).coefficients == {}
    assert zero(2).max_degree == -1


def test_split_examples():
    f = TaylorSeries(2, {(0, 0): 1.0, (1, 0): 1.0, (1, 1): 1.0})
    low, high = f.split(1)
    assert low == TaylorSeries(2, {(0, 0): 1.0})
    assert high == TaylorSeries(2, {(1, 0): 1.0, (1, 1): 1.0})
    low0, high0 = f.split(0)
    assert low0 == zero(2)
    assert high0 == f
    low3, high3 = f.split(3)
    assert low3 == f
    assert high3 == zero(2)


def test_split_parts_recombine_exactly():
    rng = np.random.default_rng(7)
    f = random_polynomial(rng, 2, 6, density=0.7)
    z = (0.4 + 0.2j, -0.3 + 0.5j)
    for m in range(8):
        low, high = f.split(m)
        assert set(low.coefficients).isdisjoint(high.coefficients)
        assert set(low.coefficients) | set(high.coefficients) == set(f.coefficients)
        assert low.evaluate(z) + high.evaluate(z) == pytest.approx(f.evaluate(z), rel=1e-12)


def test_derivative_examples():
    f = TaylorSeries(2, {(2, 1): 1.0})
    assert f.derivative((1, 0)) == TaylorSeries(2, {(1, 1): 2.0})
    g = TaylorSeries(2, {(1, 0): 1.0})
    assert g.derivative((0, 2)) == zero(2)
    h = TaylorSeries(2, {(1, 1): 1.0})
    assert h.derivative((1, 1)) == TaylorSeries(2, {(0, 0): 1.0})


def test_derivative_composition_exact_on_dyadic_coefficients():
    # dyadic coefficients: every integer multiplication is exact, so the
    # composed and combined derivatives agree bit for bit
    rng = np.random.default_rng(11)
    coeffs = {}
    for k in range(7):
        for p in mi.enumerate_indices(2, k):
            coeffs[p] = complex(rng.integers(-16, 17) / 2, rng.integers(-16, 17) / 2)
    f = TaylorSeries(2, coeffs)
    for q1, q2 in [((1, 0), (0, 1)), ((2, 0), (1, 1)), ((0, 3), (2, 1))]:
        combined = tuple(a + b for a, b in zip(q1, q2))
        assert f.derivative(q1).derivative(q2) == f.derivative(combined)


def test_derivative_composition_generic_coefficients():
    rng = np.random.default_rng(12)
    f = random_polynomial(rng, 2, 6, density=0.8)
    for q1, q2 in [((1, 0), (0, 1)), ((2, 0), (1, 1)), ((0, 3), (2, 1))]:
        combined = tuple(a + b for a, b in zip(q1, q2))
        stepped = f.derivative(q1).derivative(q2)
        direct = f.derivative(combined)
        assert set(stepped.coefficients) == set(direct.coefficients)
        for p, a in direct.coefficients.items():
            assert stepped.coefficients[p] == pytest.approx(a, rel=1e-15)


def test_derivative_dimension_mismatch():
    with pytest.raises(ValueError):
        TaylorSeries(2, {(1, 1): 1.0}).derivative((1, 0, 0))


def test_monomial_examples():
    assert monomial((0, 0)) == TaylorSeries(2, {(0, 0): 1.0})
    assert monomial((2, 1)).evaluate((1.0, 3.0)) == 3.0
    p = (3, 2)
    full = monomial(p).derivative(p)
    assert full == TaylorSeries(2, {(0, 0): 12.0})


@pytest.mark.parametrize("p", [(4, 2), (0, 7), (5, 3)])
@pytest.mark.parametrize("q", [(1, 1), (2, 0), (4, 2)])
def test_monomial_derivative_closed_form(p, q):
    z = (0.7 - 0.2j, 0.4 + 0.9j)
    value = monomial(p).derivative(q).evaluate(z)
    if any(pj < qj for pj, qj in zip(p, q)):
        assert value == 0
        return
    expected = 1.0 + 0j
    for pj, qj, zj in zip(p, q, z):
        expected *= math.perm(pj, qj) * zj ** (pj - qj)
    assert value == pytest.approx(expected, rel=1e-13)


def test_constructor_validation():
    with pytest.raises(ValueError):
        TaylorSeries(0, {})
    with pytest.raises(ValueError):
        TaylorSeries(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        TaylorSeries(1, {(-1,): 1.0})
    for value in (math.nan, math.inf, complex(1.0, -math.inf), complex(math.nan, 0.0)):
        with pytest.raises(ValueError, match=r"coefficient of index \(1, 0\) is not finite"):
            TaylorSeries(2, {(0, 0): 1.0, (1, 0): value})


def test_derivative_beyond_the_float_range_is_a_value_error():
    # 1e300 * 20!/10! and 300!/150! both leave the float range
    with pytest.raises(ValueError, match=r"coefficient of index \(10,\) is not finite"):
        TaylorSeries(1, {(20,): 1e300}).derivative((10,))
    with pytest.raises(ValueError, match=r"coefficient of index \(150,\) is not finite"):
        monomial((300,)).derivative((150,))


def test_every_construction_stores_keys_in_canonical_order():
    rng = np.random.default_rng(19)
    keys = [p for k in range(6) for p in mi.enumerate_indices(3, k)]
    shuffled = [keys[i] for i in rng.permutation(len(keys))]
    f = TaylorSeries(3, {p: 1.0 + i for i, p in enumerate(shuffled)})
    series = [f, *f.split(3), f.derivative((1, 0, 2)), f.derivative((0, 0, 0)),
              monomial((2, 0, 1)), zero(3)]
    for g in series:
        assert list(g.coefficients) == canonical_order(g.coefficients)
    assert list(f.coefficients) == canonical_order(keys) != shuffled


def test_point_inner_matches_inner():
    z, w = (0.1 + 0.2j, -0.3, 2e-300j), (0.25j, 0.05 - 0.1j, 3.0)
    assert repr(point_inner(as_point(z), as_point(w))) == repr(inner(z, w))
    assert repr(point_inner(as_point([1]), as_point([1j]))) == repr(inner([1], [1j]))


def test_taylor_series_is_a_frozen_unhashable_value():
    series = TaylorSeries(2, {(1, 0): 2, (0, 1): 0, (0, 2): 1j})
    assert series == TaylorSeries(dimension=2, coefficients={(0, 2): 1j, (1, 0): 2.0})
    assert series != TaylorSeries(2, {(1, 0): 2}) and series != monomial((1, 0))
    assert TaylorSeries(1) == TaylorSeries(1, {}) == zero(1) != zero(2)
    assert copy.copy(series) == series
    with pytest.raises(TypeError):
        hash(series)
    with pytest.raises(AttributeError):
        series.dimension = 3
    with pytest.raises(AttributeError):
        del series.coefficients
    assert repr(series) == "TaylorSeries(dimension=2, coefficients={(1, 0): (2+0j), (0, 2): 1j})"
    assert repr(TaylorSeries(1)) == "TaylorSeries(dimension=1, coefficients={})"
