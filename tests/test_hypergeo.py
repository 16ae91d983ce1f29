import cmath
import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pfq_reference
from holospaces.errors import DivergenceError, DomainError, NonconvergenceError
from holospaces.hypergeo import (
    CompensatedSum,
    ComplexCompensatedSum,
    HypergeometricSpec,
    SeriesResult,
    eval_pfq,
    gamma_ratio,
    gamma_ratio_asymptotic_error,
    limit_3f2_to_2f2_error,
    pochhammer,
)


def test_compensated_sum_beats_naive():
    acc = CompensatedSum()
    for x in [1e16, 1.0, -1e16]:
        acc.add(x)
    assert acc.value == 1.0


@pytest.mark.parametrize(
    "a,k,expected",
    [(7.3, 0, 1.0), (1.0, 4, 24.0), (2.5, 3, 39.375)],
)
def test_pochhammer(a, k, expected):
    assert pochhammer(a, k) == pytest.approx(expected, rel=1e-14)


@settings(max_examples=80)
@given(
    st.integers(min_value=-10, max_value=10),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=10),
)
def test_pochhammer_splitting(a2, j, k):
    a = a2 / 2.0
    combined = pochhammer(a, j + k)
    split = pochhammer(a, j) * pochhammer(a + j, k)
    assert split == pytest.approx(combined, rel=1e-12, abs=1e-12)


def test_gamma_ratio_anchors():
    assert gamma_ratio(3.0, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert gamma_ratio(103.0, 101.0) == pytest.approx(10302.0, rel=1e-13)
    assert gamma_ratio(5.5, 5.5) == 1.0


@pytest.mark.parametrize("a", [0.5, 1.0, 10.0, 1e3])
def test_gamma_ratio_recurrence(a):
    assert gamma_ratio(a + 1.0, a) == pytest.approx(a, rel=1e-13)


def test_gamma_ratio_noninteger_offset_vs_reference():
    for a, b in [(1234.5, 1226.25), (3.75, 31.125), (0.125, 0.6), (8765.4, 8723.9)]:
        with mp.workdps(40):
            expected = float(mp.gamma(a) / mp.gamma(b))
        assert gamma_ratio(a, b) == pytest.approx(expected, rel=1e-12)
    # genuinely unrepresentable ratios saturate instead of raising
    assert gamma_ratio(1234.5, 7.25) == math.inf


def test_gamma_ratio_huge_arguments_do_not_overflow():
    value = gamma_ratio(1e7 + 3.0, 1e7 + 1.0)
    assert value == pytest.approx((1e7 + 2.0) * (1e7 + 1.0), rel=1e-12)
    assert math.isfinite(gamma_ratio(1e7 + 2.5, 1e7 + 0.25))


def test_gamma_ratio_domain():
    with pytest.raises(DomainError):
        gamma_ratio(-1.0, 2.0)
    with pytest.raises(DomainError):
        gamma_ratio(2.0, 0.0)


def test_spec_rejects_bad_denominator():
    with pytest.raises(DomainError):
        HypergeometricSpec((1.0,), (0.0,))
    with pytest.raises(DomainError):
        HypergeometricSpec((1.0, 2.0), (1.5, -3.0))
    HypergeometricSpec((1.0, -2.0), (1.5, 0.5))  # negative numerator is fine


def test_eval_pfq_exponential():
    result = eval_pfq(HypergeometricSpec((1.0, 1.0), (1.0, 1.0)), 1.0)
    assert result.value == pytest.approx(math.e, rel=1e-14)
    assert result.terms_used >= 1
    assert result.error_estimate >= 0.0


def test_eval_pfq_binomial():
    # numerator/denominator pairs cancel, leaving (1-z)^-3
    result = eval_pfq(HypergeometricSpec((1.0, 1.0, 3.0), (1.0, 1.0)), 0.5)
    assert result.value == pytest.approx(8.0, rel=1e-13)


def test_eval_pfq_3f2_against_direct_sum():
    # frozen from the 200-term direct summation at 34 digits: 1 + log 2
    result = eval_pfq(HypergeometricSpec((1.0, 1.0, 3.0), (2.0, 2.0)), 0.5)
    assert result.value == pytest.approx(1.6931471805599453, rel=1e-12)
    assert result.value == pytest.approx(
        pfq_reference((1, 1, 3), (2, 2), 0.5), rel=1e-12
    )


@pytest.mark.parametrize(
    "nums,dens,z",
    [
        ((1.0, 1.0, 5.5), (3.0, 3.0), 0.7),
        ((1.0, 1.0, 4.0), (2.0, 2.0), -0.6 + 0.3j),
        ((1.0, 1.0), (3.0, 3.0), 2.5 - 1.0j),
        ((0.5, 2.5), (1.5, 4.5), -4.0),
    ],
)
def test_eval_pfq_matches_reference(nums, dens, z):
    result = eval_pfq(HypergeometricSpec(nums, dens), z)
    assert result.value == pytest.approx(pfq_reference(nums, dens, z, terms=300), rel=1e-12)


def test_eval_pfq_gauss_type_direct_oracle():
    # series weight (alpha+n+1)_k (k!)^2 / ((m+1)_k)^2 z^k / k!, truncated at 1e-18;
    # terms formed from standalone rising factorials at high precision so the
    # oracle shares nothing with the term recurrence
    for alpha, n, m, z in [(0.0, 2, 1, 0.5), (0.5, 2, 2, 0.7), (2.0, 3, 3, -0.4)]:
        with mp.workdps(30):
            direct = mp.mpf(0)
            for k in range(400):
                term = (
                    mp.rf(alpha + n + 1, k)
                    * mp.factorial(k) ** 2
                    / mp.rf(m + 1, k) ** 2
                    * mp.mpf(z) ** k
                    / mp.factorial(k)
                )
                direct += term
                if abs(term) < 1e-18:
                    break
            direct = float(direct)
        spec = HypergeometricSpec((1.0, 1.0, alpha + n + 1), (m + 1.0, m + 1.0))
        assert eval_pfq(spec, z).value == pytest.approx(direct, rel=1e-10)


def test_eval_pfq_terminating_series():
    # negative integer numerator terminates; zero terms must not fool the stop rule
    result = eval_pfq(HypergeometricSpec((-3.0,), (2.0,)), 5.0)
    direct = sum(
        pochhammer(-3.0, k) / pochhammer(2.0, k) * 5.0**k / math.factorial(k)
        for k in range(4)
    )
    assert result.value == pytest.approx(direct, rel=1e-14)


def test_eval_pfq_divergence():
    spec = HypergeometricSpec((1.0, 1.0, 3.0), (2.0, 2.0))
    with pytest.raises(DivergenceError):
        eval_pfq(spec, 1.0)
    with pytest.raises(DivergenceError):
        eval_pfq(spec, -1.2)


def test_eval_pfq_nonconvergence_carries_partial():
    spec = HypergeometricSpec((1.0, 1.0, 3.0), (2.0, 2.0))
    with pytest.raises(NonconvergenceError) as excinfo:
        eval_pfq(spec, 0.99, tol=1e-14, max_terms=10)
    partial = excinfo.value.partial
    assert partial is not None
    assert partial.terms_used == 10
    assert abs(partial.value) > 0


def test_gamma_ratio_asymptotic_error_values():
    # Gamma(x+3)/Gamma(x+1) x^-2 - 1 = (x+2)(x+1)/x^2 - 1 exactly
    for x in (1e2, 1e4):
        exact = (x + 2.0) * (x + 1.0) / (x * x) - 1.0
        assert gamma_ratio_asymptotic_error(x, 3.0, 1.0) == pytest.approx(exact, rel=1e-9)
    assert gamma_ratio_asymptotic_error(50.0, 1.25, 1.25) == 0.0


def test_gamma_ratio_asymptotic_error_decays_like_inverse_x():
    e2 = gamma_ratio_asymptotic_error(1e2, 3.0, 1.0)
    e4 = gamma_ratio_asymptotic_error(1e4, 3.0, 1.0)
    assert 90.0 <= e2 / e4 <= 110.0


def test_limit_3f2_to_2f2_zero_argument():
    assert limit_3f2_to_2f2_error(1.0, 1.0, 3.0, 3.0, 3.0, 0.0, 1e4) == 0.0


def test_limit_3f2_to_2f2_small_at_large_x():
    assert limit_3f2_to_2f2_error(1.0, 1.0, 3.0, 3.0, 3.0, 0.7, 1e5) <= 1e-4


def test_limit_3f2_to_2f2_monotone_decrease():
    errors = [
        limit_3f2_to_2f2_error(1.0, 1.0, 3.0, 3.0, 3.0, 0.7, x) for x in (1e3, 1e4, 1e5)
    ]
    assert errors[0] > errors[1] > errors[2]


def _reference_eval_pfq(spec, z, tol=1e-14, max_terms=10000):
    """The straightforward term loop: accumulator objects and inner ratio loops."""
    z = complex(z)
    num = spec.numerator_params
    den = spec.denominator_params
    if len(num) == len(den) + 1 and abs(z) >= 1.0:
        raise DivergenceError(
            f"series with P = Q + 1 diverges for |z| >= 1 (got |z| = {abs(z):.6g})"
        )
    acc = ComplexCompensatedSum()
    term = 1 + 0j
    acc.add(term)
    terms_used = 1
    small_streak = 0
    k = 0
    while terms_used < max_terms:
        ratio = 1.0
        for a in num:
            ratio *= a + k
        for b in den:
            ratio /= b + k
        term = term * (ratio / (k + 1)) * z
        acc.add(term)
        terms_used += 1
        k += 1
        if abs(term) <= tol * abs(acc.value):
            small_streak += 1
            if small_streak >= 3:
                ratio = 1.0
                for a in num:
                    ratio *= a + k
                for b in den:
                    ratio /= b + k
                neglected = abs(term * (ratio / (k + 1)) * z)
                return SeriesResult(acc.value, terms_used, neglected)
        else:
            small_streak = 0
    partial = SeriesResult(acc.value, terms_used, abs(term))
    raise NonconvergenceError(
        f"pFq stop rule not met after {terms_used} terms (|last term| = {abs(term):.3g})",
        partial=partial,
    )


def _outcome(f, *args):
    """(kind, repr, finite) of a result's (value, terms, estimate), or of the
    exception and its partial; ``finite`` tells whether the sum ended finite."""
    try:
        r = f(*args)
    except (DivergenceError, DomainError, NonconvergenceError, OverflowError) as exc:
        p = getattr(exc, "partial", None)
        return (type(exc).__name__,
                repr((str(exc), p and (p.value, p.terms_used, p.error_estimate))),
                p is None or cmath.isfinite(p.value))
    return "ok", repr((r.value, r.terms_used, r.error_estimate)), cmath.isfinite(r.value)


def _pfq_grid():
    rng = random.Random(20151)
    phases = [0.0, math.pi, 0.5 * math.pi, -0.5 * math.pi]
    phases += [rng.uniform(-math.pi, math.pi) for _ in range(4)]
    grid = []
    # 3F2 of the ball kernel near |x| = 1 with alpha + n + 1 up to 1e4
    for a3 in (2.0, 3.37, 47.123, 1234.567, 1e4):
        for m in range(4):
            for r in (0.3, 0.9, 0.99, 0.995):
                z = cmath.rect(r, rng.choice(phases))
                grid.append(((1.0, 1.0, a3), (m + 1.0, m + 1.0), z, 1e-14, 3000))
    # 2F2 of the Fock kernel at |nu t| up to 800 (overflow: NaN terms or OverflowError)
    for m in range(4):
        for r in (0.5, 7.0, 30.0, 200.0, 800.0):
            for phase in phases:
                grid.append(((1.0, 1.0), (m + 1.0, m + 1.0), cmath.rect(r, phase), 1e-14, 3000))
    grid += [((1.0, 1.0, 1e4), (2.0, 2.0), 0.99, 1e-14, 10000),
             ((1.0, 1.0), (2.0, 2.0), 800.0, 1e-14, 10000)]
    # real z (zero imaginary part), z = 0, other tolerances
    grid += [((1.0, 1.0, 7.0), (2.0, 2.0), z, tol, 10000)
             for z in (0.0, -0.0, 0.25, -0.8, 0j) for tol in (1e-14, 1e-8)]
    grid += [((1.0, 1.0), (3.0, 3.0), z, 1e-14, 10000) for z in (0.0, 4.0, -12.5, 150.0)]
    # generic shapes: two terminating 1F1, 0F0, 1F0, 2F1, a terminating 4F3, 0F2
    grid += [
        ((-5.0,), (2.5,), 3.0 - 1.0j, 1e-14, 10000),
        ((-3.0,), (2.0,), 5.0, 1e-14, 10000),
        ((), (), 2.0 + 1.0j, 1e-14, 10000),
        ((0.5,), (), 0.6j, 1e-14, 10000),
        ((0.5, 2.5), (1.5,), -0.7 + 0.1j, 1e-12, 10000),
        ((1.0, 2.0, -4.0, 0.25), (3.0, 0.5, 7.0), 0.9, 1e-14, 10000),
        ((), (1.5, 2.5), -40.0, 1e-14, 10000),
    ]
    # max_terms exhaustion, down to a single term
    grid += [((1.0, 1.0, 3.0), (2.0, 2.0), 0.99, 1e-14, n) for n in (1, 2, 3, 10)]
    grid += [((1.0, 1.0), (1.0, 1.0), 50.0, 1e-14, n) for n in (1, 7)]
    grid += [((0.5,), (1.5,), 2.0, 1e-14, 5)]
    # P = Q + 1 at |z| >= 1
    grid += [((1.0, 1.0, 3.0), (2.0, 2.0), z, 1e-14, 10000) for z in (1.0, -1.2, 1j)]
    return grid


def test_eval_pfq_bit_identical_to_reference_loop():
    grid = _pfq_grid()
    kinds = set()
    for num, den, z, tol, max_terms in grid:
        spec = HypergeometricSpec(num, den)
        expected = _outcome(_reference_eval_pfq, spec, z, tol, max_terms)
        got = _outcome(eval_pfq, spec, z, tol, max_terms)
        if expected[0] == "OverflowError" or not expected[2]:
            # the reference loop's abs() overflows, or its budget runs out on a
            # non-finite sum; the package raises DomainError
            assert got[0] == "DomainError", (num, den, z, tol, max_terms)
        else:
            assert got == expected, (num, den, z, tol, max_terms)
        kinds.add(expected[0] if expected[2] else "non-finite " + expected[0])
    # the grid reaches the stop rule and every error path, hypot overflow included
    assert kinds == {"ok", "NonconvergenceError", "DivergenceError", "OverflowError",
                     "non-finite NonconvergenceError"}
