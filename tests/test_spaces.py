import cmath
import math
import random

import numpy as np
import pytest

from conftest import random_point, random_polynomial
from holospaces import bargmann, bergman
from holospaces.errors import DomainError, NonconvergenceError
from holospaces.hypergeo import ComplexCompensatedSum, HypergeometricSpec, eval_pfq
from holospaces.taylor import inner

FAMILIES = [
    (bergman, bergman.BergmanDirichletSpace(2, 0.5, 1)),
    (bargmann, bargmann.BargmannDirichletSpace(2, 1.0, 1)),
]


@pytest.mark.parametrize("family, space", FAMILIES, ids=["ball", "fock"])
@pytest.mark.parametrize("t", [math.nan, math.inf, complex(0, math.nan)], ids=["nan", "inf", "nan-im"])
def test_non_finite_argument_is_a_domain_error(family, space, t):
    with pytest.raises(DomainError, match="must be finite"):
        family.kernel_closed_detail(space, t)
    with pytest.raises(DomainError, match="must be finite"):
        family.kernel_series_with_tail(space, t)


@pytest.mark.parametrize("make, name", [
    (lambda v: bergman.BergmanDirichletSpace(2, v, 1), "alpha"),
    (lambda v: bergman.BergmanDirichletSpace(2, 0.5, 1, radius=v), "radius"),
    (lambda v: bergman.BergmanDirichletSpace(v, 0.5, 1), "n"),
    (lambda v: bergman.BergmanDirichletSpace(2, 0.5, v), "m"),
    (lambda v: bargmann.BargmannDirichletSpace(2, v, 1), "nu"),
    (lambda v: bargmann.BargmannDirichletSpace(v, 1.0, 1), "n"),
    (lambda v: bargmann.BargmannDirichletSpace(2, 1.0, v), "m"),
], ids=["ball-alpha", "ball-radius", "ball-n", "ball-m", "fock-nu", "fock-n", "fock-m"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_space_parameter_is_a_domain_error(make, name, value):
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        make(value)


def _reference_series_with_tail(space, t, max_degree):
    """The straightforward degree loop: a ``_step`` closure and accumulator objects."""
    t = complex(t)
    x = space.series_argument(t)
    if space.pfq_extra:
        (a,) = space.pfq_extra

        def step(term, j, num, den):
            return term * ((a + j) * num / den) * x
    else:

        def step(term, j, num, den):
            return term * x * num / den
    m = space.m
    acc = ComplexCompensatedSum()
    term = 1 + 0j
    last = 1.0
    for k in range(min(m, max_degree + 1)):
        acc.add(term)
        last = abs(term)
        term = step(term, k, 1, k + 1)
    if max_degree >= m:
        mfact = math.factorial(m)
        high = t**m / (mfact * mfact)
        acc.add(high)
        for k in range(m, max_degree):
            high = step(high, k - m, k - m + 1, (k + 1) * (k + 1))
            acc.add(high)
        last = abs(high)
    return space.kernel_prefactor() * acc.value, max_degree + 1, last * space.series_tail_factor


def _reference_closed_detail(space, t):
    """The closed kernel with its low part sum_{k<m} c_k summed by the ``_step`` loop."""
    t = complex(t)
    x = space.series_argument(t)
    low = ComplexCompensatedSum()
    term = 1 + 0j
    for k in range(space.m):
        low.add(term)
        if space.pfq_extra:
            term = term * ((space.pfq_extra[0] + k) * 1 / (k + 1)) * x
        else:
            term = term * x * 1 / (k + 1)
    spec = HypergeometricSpec((1.0, 1.0, *space.pfq_extra), (space.m + 1.0, space.m + 1.0))
    f = eval_pfq(spec, x)
    mfact = math.factorial(space.m)
    return space.kernel_prefactor() * (low.value + t**space.m / (mfact * mfact) * f.value), f


def _outcome(f, *args):
    """(kind, repr, finite) of the result, or of the exception with its
    partial result; ``finite`` tells whether a returned kernel value is finite."""
    try:
        r = f(*args)
    except (DomainError, NonconvergenceError, OverflowError) as exc:
        return type(exc).__name__, repr((str(exc), getattr(exc, "partial", None))), True
    return "ok", repr(r), cmath.isfinite(r[0])


def _assert_same_outcome(got, expected, case):
    """``got`` repeats ``expected``, except that where the reference loop's
    abs() overflows or its kernel value is not finite, the package raises
    DomainError instead."""
    if expected[0] == "OverflowError" or not expected[2]:
        assert got[0] == "DomainError", case
    else:
        assert got == expected, case


def _series_cases():
    rng = random.Random(20152)
    for m in range(4):
        for n in (1, 3):
            for alpha, radius in ((-0.5, 1.0), (0.37, 2.0), (9876.54321, 100.0)):
                ball = bergman.BergmanDirichletSpace(n, alpha, m, radius)
                for u in (0.0, -0.5, 0.3j, cmath.rect(0.8, rng.uniform(-math.pi, math.pi))):
                    yield ball, u * radius**2
            for nu in (0.5, 2.0):
                fock = bargmann.BargmannDirichletSpace(n, nu, m)
                for r in (0.0, 3.0, 40.0, 300.0):
                    yield fock, cmath.rect(r, rng.uniform(-math.pi, math.pi)) / nu
                yield fock, -25.0 / nu
    # a low-degree term whose parts are finite but whose modulus overflows
    yield bergman.BergmanDirichletSpace(1, 1.5e308, 2), 0.7 + 0.7j
    yield bargmann.BargmannDirichletSpace(1, 1.5e308, 3), 1 + 1j


def test_kernel_series_bit_identical_to_reference_loop():
    for space, t in _series_cases():
        for max_degree in (0, 1, 2, 3, 4, 60, 200):
            expected = _outcome(_reference_series_with_tail, space, t, max_degree)
            got = _outcome(bergman.kernel_series_with_tail, space, t, max_degree)
            _assert_same_outcome(got, expected, (space, t, max_degree))


def test_kernel_closed_bit_identical_to_reference_low_part():
    # m = 0 is evaluated in closed form; tests/test_order_zero.py judges it
    for space, t in _series_cases():
        if space.m:
            expected = _outcome(_reference_closed_detail, space, t)
            got = _outcome(bergman.kernel_closed_detail, space, t)
            _assert_same_outcome(got, expected, (space, t))


def test_non_finite_kernels_are_domain_errors():
    # t^m overflows while the prefactor underflows: the product was NaN
    ball = bergman.BergmanDirichletSpace(1, 0.5, 2, 1e100)
    for call in (bergman.kernel_closed_detail, bergman.kernel_series_with_tail):
        with pytest.raises(DomainError, match="not a finite float"):
            call(ball, 1e199 + 1e199j)
    for m in (0, 1):
        fock = bargmann.BargmannDirichletSpace(1, 1.5e308, m)
        with pytest.raises(DomainError, match="not a finite float"):
            bargmann.kernel_series_with_tail(fock, 1 + 1j)


def test_kernel_points_keep_their_values_and_error_messages():
    space = bergman.BergmanDirichletSpace(2, 0.5, 1)
    z, w = (0.1 + 0.2j, -0.3), (0.25j, 0.05 - 0.1j)
    assert repr(bergman.kernel_closed(space, z, w)) == repr(
        bergman.kernel_closed_from_inner(space, inner(z, w))
    )
    for bad, message in (((0.1,), "dimension mismatch"), ((0.1, math.nan), "non-finite")):
        for call in (bergman.kernel_closed, bergman.kernel_series):
            with pytest.raises(ValueError, match=message):
                call(space, bad, w)
            with pytest.raises(ValueError, match=message):
                call(space, z, bad)
        with pytest.raises(ValueError, match=message):
            bergman.pointwise_bound(space, bad)


# the plane has no boundary, so its points may lie beyond the unit ball
@pytest.mark.parametrize("family, space, max_norm", [
    (bergman, bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=1), 0.85),
    (bargmann, bargmann.BargmannDirichletSpace(n=2, nu=1.0, m=1), 2.5),
], ids=["ball", "fock"])
def test_pointwise_bound_dominates_evaluations(family, space, max_norm):
    rng = np.random.default_rng(31)
    for _ in range(50):
        f = random_polynomial(rng, 2, 6, density=0.6)
        z = random_point(rng, 2, max_norm)
        bound = family.pointwise_bound(space, z)
        norm = math.sqrt(family.function_norm_sq(space, f))
        assert abs(f.evaluate(z)) <= bound * norm * (1.0 + 1e-12)
