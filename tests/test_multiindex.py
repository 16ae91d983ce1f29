import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holospaces import multiindex as mi


@pytest.mark.parametrize(
    "p,expected",
    [((0, 0), 0), ((3, 2), 5), ((1, 0, 4), 5)],
)
def test_degree(p, expected):
    assert mi.degree(p) == expected


@pytest.mark.parametrize(
    "p,expected",
    [((0, 0), 1), ((3, 2), 12), ((4, 4), 576)],
)
def test_multifactorial(p, expected):
    assert mi.multifactorial(p) == expected


def test_multifactorial_exact_large_degree():
    # stays exact integer arithmetic well past double precision
    assert mi.multifactorial((60,)) == math.factorial(60)
    assert mi.multifactorial((30, 30)) == math.factorial(30) ** 2


def test_as_multiindex_validation():
    assert mi.as_multiindex([2, 0, 1]) == (2, 0, 1)
    with pytest.raises(ValueError):
        mi.as_multiindex([])
    with pytest.raises(ValueError):
        mi.as_multiindex([1, -2])
    with pytest.raises(ValueError):
        mi.as_multiindex([1.5, 0])


def test_enumerate_indices_examples():
    assert mi.enumerate_indices(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert mi.enumerate_indices(1, 5) == [(5,)]
    assert len(mi.enumerate_indices(3, 2)) == 6


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=8))
def test_enumerate_indices_properties(n, k):
    indices = mi.enumerate_indices(n, k)
    assert len(indices) == math.comb(k + n - 1, n - 1)
    assert len(set(indices)) == len(indices)
    assert all(mi.degree(p) == k for p in indices)
    assert all(len(p) == n for p in indices)
    # fixed order: lexicographically descending
    assert indices == sorted(indices, reverse=True)


@pytest.mark.parametrize(
    "x,m,expected",
    [(5.0, 2, 20.0), (7.3, 0, 1.0), (3.0, 4, 0.0)],
)
def test_falling_factorial(x, m, expected):
    assert mi.falling_factorial(x, m) == expected


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
def test_falling_factorial_matches_factorial_ratio(k, m):
    if m > k:
        return
    assert mi.falling_factorial(k, m) == math.factorial(k) // math.factorial(k - m)


def test_snomial_identity_trivial_cases():
    assert mi.snomial_identity_residual(1.0, 1.0, 1) == 0.0
    assert mi.snomial_identity_residual(0.3, -1.7, 0) == 0.0


def test_snomial_identity_derived_case():
    z1, z2, k = 3.5, 2.25, 3
    lhs = (z1 + z2) * (z1 + z2 - 1) * (z1 + z2 - 2)
    assert mi.snomial_identity_residual(z1, z2, k) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("z1", [-2.0, -0.5, 0.75, 1.5, 2.0])
@pytest.mark.parametrize("z2", [-1.5, 0.25, 2.0])
@pytest.mark.parametrize("k", range(11))
def test_snomial_identity_sweep(z1, z2, k):
    lhs = 1.0
    for j in range(k):
        lhs *= z1 + z2 - j
    assert mi.snomial_identity_residual(z1, z2, k) <= 1e-12 * max(1.0, abs(lhs))


def test_power_sum_trivial_cases():
    z = (0.3 + 0.2j, -0.5j)
    w = (1.0, 0.25 - 0.75j)
    assert mi.power_sum_residual(z, w, 0) == 0.0
    # orthogonal vectors: both sides vanish
    assert mi.power_sum_residual((1.0, 0.0), (0.0, 1.0), 3) <= 1e-15


def test_power_sum_random_c2():
    z = (0.7 + 0.3j, -0.4 + 0.6j)
    w = (0.2 - 0.8j, 0.9 + 0.1j)
    t = sum(zj * wj.conjugate() for zj, wj in zip(z, w))
    scale = max(1.0, abs(t) ** 7 / math.factorial(7))
    assert mi.power_sum_residual(z, w, 7) <= 1e-12 * scale


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", range(11))
def test_power_sum_sweep(n, k):
    z = tuple(complex(0.4 + 0.1 * j, 0.9 - 0.2 * j) for j in range(n))
    w = tuple(complex(-0.7 + 0.15 * j, 0.2 + 0.1 * j) for j in range(n))
    t = sum(zj * wj.conjugate() for zj, wj in zip(z, w))
    scale = max(1.0, abs(t) ** k / math.factorial(k))
    assert mi.power_sum_residual(z, w, k) <= 1e-12 * scale


def test_power_sum_dimension_mismatch():
    with pytest.raises(ValueError):
        mi.power_sum_residual((1.0,), (1.0, 2.0), 2)
