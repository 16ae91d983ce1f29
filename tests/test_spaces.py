import cmath
import copy
import importlib.util
import math
import random
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from conftest import random_point, random_polynomial
from holospaces import _ball_integral, bargmann, bergman, spaces
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


@pytest.mark.parametrize("space, t", [
    (bergman.BergmanDirichletSpace(2, 0.5, 1), 0.95),  # where the integral is weighed
    (bergman.BergmanDirichletSpace(2, 0.5, 1), 0.3),
    (bargmann.BargmannDirichletSpace(2, 1.0, 2), 0.5),
], ids=["ball-boundary", "ball", "fock"])
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_non_positive_tolerance_is_a_value_error(space, t, tol):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        spaces.kernel_closed_detail(space, t, tol)
    with pytest.raises(ValueError, match="max_terms must be >= 1"):
        spaces.kernel_closed_detail(space, t, 1e-14, 0)


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


@pytest.fixture(scope="module")
def oracle():
    """``perfbench/oracle.py``, the mpmath kernel references of the benchmark.

    Its import sets mpmath's working precision to 40 digits; that is undone
    here, and the references are taken under ``mp.workdps(40)``.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    with mp.workdps(mp.mp.dps):
        spec.loader.exec_module(module)
    return module


def _ball_reference(oracle, space, t):
    with mp.workdps(40):
        return oracle.ball_kernel(space.n, space.alpha, space.m, space.radius, mp.mpc(t))


@pytest.mark.parametrize("u", [0.999, 0.99999, -0.999, 0.999j])
def test_ball_boundary_cells_take_the_integral(oracle, u):
    # the series raised NonconvergenceError at each of these cells
    space = bergman.BergmanDirichletSpace(2, 0.5, 1)
    value, record = bergman.kernel_closed_detail(space, u)
    reference = _ball_reference(oracle, space, u)
    assert record.terms_used == 225
    assert abs(value - reference) <= 1e-13 * abs(reference)


def _integral_bound(space, t, value, record):
    """A bound on K's relative error derived from the record of its pFq factor F.

    K = prefactor * (sum_{k<m} c_k x^k + t^m/(m!)^2 F).  F's error estimate,
    scaled by |t|^m/(m!)^2 and the prefactor, is an error in K; to it come
    the rounding of that sum, 4 eps times the sum of the moduli of its
    terms, and of the prefactor, 4 eps (n + 2).
    """
    eps = sys.float_info.epsilon
    x = space.series_argument(t)
    a = space.pfq_extra[0]
    low = 0.0
    term = 1.0
    for k in range(space.m):
        low += term
        term *= (a + k) / (k + 1) * abs(x)
    scale = abs(t) ** space.m / math.factorial(space.m) ** 2
    bracket = scale * record.error_estimate + 4 * eps * (low + scale * abs(record.value))
    return bracket * space.kernel_prefactor() / abs(value) + 4 * eps * (space.n + 2)


def test_ball_integral_error_within_its_estimate(oracle):
    # every call near |x| = 1 either returns a K within the bound its record
    # implies, or repeats the series outcome, NonconvergenceError included
    rng = random.Random(20157)
    integral = 0
    for _ in range(60):
        n, m = rng.choice((1, 2, 3)), rng.randint(1, 4)
        alpha = -1.0 + 21.0 * (1.0 - rng.random())  # (-1, 20]
        radius = rng.choice((1.0, 2.0))
        gap = 10.0 ** rng.uniform(-6.0, math.log10(0.15))
        t = cmath.rect(1.0 - gap, rng.uniform(-math.pi, math.pi)) * radius**2
        space = bergman.BergmanDirichletSpace(n, alpha, m, radius)
        case = (space, t)
        series = _outcome(_reference_closed_detail, space, t)
        got = _outcome(bergman.kernel_closed_detail, space, t)
        if got == series:
            continue
        value, record = bergman.kernel_closed_detail(space, t)
        assert record.terms_used == 225, case
        error = abs(value - _ball_reference(oracle, space, t)) / abs(value)
        assert error <= _integral_bound(space, t, value, record), case
        integral += 1
    assert integral >= 40


def test_weight_branches_agree_at_half():
    # P_m from its Taylor series in r and from its log form, where they meet
    eps = sys.float_info.epsilon
    for m in range(1, 5):
        taylor = _ball_integral.weight(m, 0.5, 0.5, True)
        log_form = _ball_integral.weight(m, 0.5, 0.5, False)
        assert abs(taylor - log_form) <= 2 * eps * log_form, m


def test_ball_integral_declines_at_the_last_float_below_one():
    # at x = 1 - 2^-53 the 4h sum is 19 % off the h sum, and the end-point
    # term, for the tail below the last node, is 7e-14 of the value: either
    # makes the call fall back to the series and repeat its outcome
    space = bergman.BergmanDirichletSpace(1, 0.5, 1)
    t = 1.0 - 2.0**-53
    assert _ball_integral.high_part(space.pfq_extra[0], 1, complex(t), 1e-14) is None
    expected = _outcome(_reference_closed_detail, space, t)
    assert _outcome(bergman.kernel_closed_detail, space, t) == expected


def test_unresolved_ball_integral_declines_at_any_tol():
    # a = 17.55 packs the integrand into a peak near r = 5.7e-15 that the
    # 4h, 2h and h sums all miss: extrapolated, their gaps put the error at
    # 1e-6, and the value is off by 100 %
    assert _ball_integral.high_part(17.55, 4, complex(1.0 - 5.67e-15), 1e-3) is None


def test_series_length_estimate_matches_eval_pfq():
    # the switch to the integral predicts whether the series outlasts
    # _INTEGRAL_MIN_TERMS terms; away from that length it must be right
    limit = spaces._INTEGRAL_MIN_TERMS
    for m in range(1, 5):
        for a in (1.2, 3.5, 8.0, 14.0):
            spec = HypergeometricSpec((1.0, 1.0, a), (m + 1.0, m + 1.0))
            for size in (0.85, 0.9, 0.95, 0.99):
                for phase in (0.0, 2.0):
                    try:
                        terms = eval_pfq(spec, cmath.rect(size, phase)).terms_used
                    except NonconvergenceError:
                        terms = math.inf
                    predicted = spaces._series_outlasts(a, m, size, 1e-14)
                    case = (m, a, size, phase, terms)
                    if terms >= 1.15 * limit:
                        assert predicted, case
                    elif terms <= limit / 1.15:
                        assert not predicted, case


@pytest.mark.parametrize("m, u, integral", [
    (4, 0.85, False),  # the series stops after 83 terms and is kept bit for bit
    (4, -0.85j, False),
    (4, 0.99, True),
    (1, 0.86, True),  # 214 terms
])
def test_near_boundary_switch_follows_the_series_length(m, u, integral):
    space = bergman.BergmanDirichletSpace(2, 0.5, m)
    if integral:
        assert bergman.kernel_closed_detail(space, u)[1].terms_used == 225
    else:
        expected = _outcome(_reference_closed_detail, space, u)
        assert _outcome(bergman.kernel_closed_detail, space, u) == expected


def test_space_records_are_frozen_values():
    ball = bergman.BergmanDirichletSpace(2, 0.5, 1)
    fock = bargmann.BargmannDirichletSpace(2, 1.5, 0)
    assert ball == bergman.BergmanDirichletSpace(n=2, alpha=0.5, m=1, radius=1.0)
    assert fock == bargmann.BargmannDirichletSpace(n=2, nu=1.5, m=0)
    assert hash(ball) == hash(bergman.BergmanDirichletSpace(2, 0.5, 1, 1.0))
    assert hash(fock) == hash(bargmann.BargmannDirichletSpace(2, 1.5, 0))
    assert ball != bergman.BergmanDirichletSpace(2, 0.5, 1, 2.0)
    assert fock != bargmann.BargmannDirichletSpace(2, 1.5, 1)
    # the plane's radius, pfq_extra and tail factor are class attributes, not fields
    assert vars(fock) == {"n": 2, "nu": 1.5, "m": 0} and fock.radius == math.inf
    assert vars(ball) == {"n": 2, "alpha": 0.5, "m": 1, "radius": 1.0}
    for space in (ball, fock):
        assert space != (2, 0.5, 1) and copy.copy(space) == space
        with pytest.raises(AttributeError):
            space.n = 3
        with pytest.raises(AttributeError):
            del space.m
    assert repr(ball) == "BergmanDirichletSpace(n=2, alpha=0.5, m=1, radius=1.0)"
    assert repr(bergman.BergmanDirichletSpace(1, 0, 2, 3.0)) == (
        "BergmanDirichletSpace(n=1, alpha=0, m=2, radius=3.0)")
    assert repr(fock) == "BargmannDirichletSpace(n=2, nu=1.5, m=0)"
