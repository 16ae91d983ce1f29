import cmath
import copy
import math
import random
import sys
import threading

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pfq_reference
from holospaces import hypergeo
from holospaces.errors import DivergenceError, DomainError, NonconvergenceError
from holospaces.hypergeo import (
    CompensatedSum,
    ComplexCompensatedSum,
    HypergeometricSpec,
    SeriesResult,
    eval_pfq,
    gamma_ratio,
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


def test_gamma_ratio_is_pochhammer_bit_for_bit():
    rng = random.Random(1506)
    cases = [(b, k) for b in (0.5, 1.0, 7.25, 1234.5, 1e7 + 1.0)
             for k in (0, 1, -1, 37, -37, 1024, -1024)]
    cases += [(rng.randint(1, 2**30) / 64.0, rng.randint(-1024, 1024))  # b + k is exact
              for _ in range(500)]
    for b, k in cases:
        if k >= 0:
            assert gamma_ratio(b + k, b) == pochhammer(b, k)
            assert gamma_ratio(b, b + k) == 1.0 / pochhammer(b, k)
        elif b + k > 0:
            assert gamma_ratio(b + k, b) == 1.0 / pochhammer(b + k, -k)


def test_gamma_ratio_huge_arguments_do_not_overflow():
    value = gamma_ratio(1e7 + 3.0, 1e7 + 1.0)
    assert value == pytest.approx((1e7 + 2.0) * (1e7 + 1.0), rel=1e-12)


def test_gamma_ratio_rejects_noninteger_or_far_offset():
    for a, b in [(1234.5, 1226.25), (3.75, 31.125), (0.125, 0.6), (1e7 + 2.5, 1e7 + 0.25),
                 (1025.5, 0.5), (0.5, 1025.5), (math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan)]:
        with pytest.raises(DomainError):
            gamma_ratio(a, b)


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


@pytest.mark.parametrize("tol", [0.0, -1e-14, math.nan, -math.inf])
def test_eval_pfq_rejects_a_tolerance_that_is_not_positive(tol):
    # a NaN tolerance would fail every stop test and end as NonconvergenceError
    with pytest.raises(ValueError, match="tolerance must be positive"):
        eval_pfq(HypergeometricSpec((1.0, 1.0), (2.0, 2.0)), 2.0, tol=tol)


def test_eval_pfq_nonconvergence_carries_partial():
    spec = HypergeometricSpec((1.0, 1.0, 3.0), (2.0, 2.0))
    with pytest.raises(NonconvergenceError) as excinfo:
        eval_pfq(spec, 0.99, tol=1e-14, max_terms=10)
    partial = excinfo.value.partial
    assert partial is not None
    assert partial.terms_used == 10
    assert abs(partial.value) > 0


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


def _check_against_reference(spec, z, tol, max_terms):
    """Assert that ``eval_pfq`` ends as ``_reference_eval_pfq`` does, by repr,
    and return how the reference ended.  Where the reference loop's abs()
    overflows, or its budget runs out on a non-finite sum, the package
    raises DomainError instead."""
    expected = _outcome(_reference_eval_pfq, spec, z, tol, max_terms)
    got = _outcome(eval_pfq, spec, z, tol, max_terms)
    case = (spec, z, tol, max_terms)
    if expected[0] == "OverflowError" or not expected[2]:
        assert got[0] == "DomainError", case
    else:
        assert got == expected, case
    return expected[0] if expected[2] else "non-finite " + expected[0]


def test_eval_pfq_bit_identical_to_reference_loop():
    grid = _pfq_grid()
    kinds = set()
    for num, den, z, tol, max_terms in grid:
        kinds.add(_check_against_reference(HypergeometricSpec(num, den), z, tol, max_terms))
    # the grid reaches the stop rule and every error path, hypot overflow included
    assert kinds == {"ok", "NonconvergenceError", "DivergenceError", "OverflowError",
                     "non-finite NonconvergenceError"}


def _random_parameter(rng, denominator=False):
    """A pFq parameter: mostly moderate, now and then large (the scaled-curvature
    regime) or, for a numerator, a negative non-integer."""
    u = rng.random()
    if u < 0.15:
        return rng.uniform(100.0, 1e4)
    if u < 0.3 and not denominator:
        return rng.uniform(-6.0, 0.0)
    return rng.choice((1.0, 2.0, 3.0, 4.0)) if u < 0.5 else rng.uniform(0.05, 12.0)


def _table_call_sequences():
    """Seeded specs of every shape, the kernels' among them, each with calls
    made in turn on one spec object: (z, tol, max_terms) at every phase, short then long (so a
    call reads past the multiplier blocks an earlier call filled), long then
    a smaller budget, and a budget of one term."""
    rng = random.Random(110611)
    shapes = [(3, 2), (2, 2), (1, 1), (2, 1), (0, 0)]
    sequences = []
    for i in range(200):
        p, q = shapes[i % len(shapes)]
        num = [_random_parameter(rng) for _ in range(p)]
        den = [_random_parameter(rng, denominator=True) for _ in range(q)]
        if q == 2 and p >= 2 and rng.random() < 0.5:
            num[:2] = [1.0, 1.0]  # a kernel's (1, 1, *a; b, b)
            den[1] = den[0]
        if i % 15 == 0 and p:
            num[0] = -float(rng.randint(0, 40))  # a terminating series
        top = 0.99 if p == q + 1 else 60.0

        def z_at(radius):
            return cmath.rect(radius, rng.uniform(-math.pi, math.pi))

        tol = rng.choice((1e-14, 1e-14, 1e-10))
        calls = [
            (z_at(rng.uniform(0.0, 0.2 * top)), tol, 10000),
            (z_at(rng.uniform(0.6 * top, top)), tol, 10000),
            (z_at(rng.uniform(0.6 * top, top)), tol, rng.randint(2, 60)),
            (z_at(rng.uniform(0.0, top)), tol, 1),
            (z_at(rng.uniform(0.0, top)), 1e-14, rng.choice((5, 300, 3000, 10000))),
        ]
        sequences.append((tuple(num), tuple(den), calls))
    # phases the samples would almost never hit, and z = 0
    for z in (0.97, -0.97, 0.97j, -0.97j, 0.0, -0.0):
        sequences.append(((1.0, 1.0, 7.5), (3.0, 3.0), [(z, 1e-14, 10000)]))
    for z in (55.0, -55.0, 55j, -55j, 0.0):
        sequences.append(((1.0, 1.0), (2.0, 2.0), [(z, 1e-14, 10000)]))
    # DomainError: a term of modulus beyond the float range, and a budget that
    # runs out on a sum that is no longer finite
    sequences.append(((1.0, 1.0), (2.0, 2.0), [(800.0, 1e-14, 10000), (800j, 1e-14, 10000)]))
    sequences.append(((1.0, 1.0, 1e4), (2.0, 2.0), [(0.99, 1e-14, 10000)]))
    return sequences


def _check_call_sequences(sequences):
    """Run each sequence's calls in turn on one spec against the reference
    loop, with budgets that end just before, and exactly at, the stop rule;
    return the set of endings seen."""
    kinds = set()
    for num, den, calls in sequences:
        spec = HypergeometricSpec(num, den)
        for z, tol, max_terms in calls:
            kind = _check_against_reference(spec, z, tol, max_terms)
            kinds.add(kind)
            if kind == "ok":
                used = _reference_eval_pfq(spec, z, tol, max_terms).terms_used
                for budget in range(max(1, used - 1), used + 1):
                    kind = _check_against_reference(spec, z, tol, budget)
                    kinds.add(f"{kind} at the budget's end")
    return kinds


def test_eval_pfq_table_bit_identical_to_inline_loop():
    kinds = _check_call_sequences(_table_call_sequences())
    assert kinds == {"ok", "NonconvergenceError", "OverflowError",
                     "non-finite NonconvergenceError", "ok at the budget's end",
                     "NonconvergenceError at the budget's end"}


def test_eval_pfq_past_ten_thousand_terms():
    # a 2F1 near |z| = 1 needs about 29,000 terms: some 900 blocks, past the default budget
    spec = HypergeometricSpec((0.5, 1.5), (2.5,))
    for max_terms in (40000, 12345):
        _check_against_reference(spec, 0.999j, 1e-14, max_terms)


def test_multiplier_table_bound_and_spec_identity():
    num, den = (1.0, 1.0, 3.5), (2.0, 2.0)
    spec = HypergeometricSpec(num, den)
    eval_pfq(spec, 0.99)
    # blocks of 32 read-only multipliers, shared by equal parameter lists and
    # at most 4,096 of them over every spec
    block = hypergeo._multipliers(num, den, 1)
    assert len(block) == hypergeo._BLOCK == 32 and block.readonly
    with pytest.raises(TypeError):
        block[0] = 0.0
    twin = HypergeometricSpec(list(num), list(den))
    assert hypergeo._multipliers(twin.numerator_params, twin.denominator_params, 1) is block
    info = hypergeo._multipliers.cache_info()
    assert info.maxsize == 4096 and info.currsize <= 4096
    # a call fills only the blocks it reads from
    for max_terms, blocks in ((1, 0), (2, 1), (33, 1), (34, 2), (100, 4)):
        hypergeo._multipliers.cache_clear()
        with pytest.raises(NonconvergenceError):
            eval_pfq(HypergeometricSpec(num, den), 0.999, max_terms=max_terms)
        assert hypergeo._multipliers.cache_info().currsize == blocks
    # a spec is its two fields, and nothing else takes part in equality,
    # hashing or repr
    assert vars(spec) == {"numerator_params": num, "denominator_params": den}
    for other in (copy.copy(spec),
                  HypergeometricSpec(spec.numerator_params, spec.denominator_params), twin):
        assert other == spec and hash(other) == hash(spec)
        assert repr(other) == repr(spec) == (
            "HypergeometricSpec(numerator_params=(1.0, 1.0, 3.5), denominator_params=(2.0, 2.0))")


@pytest.mark.parametrize("z,used", [(0.335, 33), (0.49, 49), (0.59, 65)])
def test_eval_pfq_stop_rule_met_where_budget_and_table_end(z, used):
    # the stop rule is met at t_(used-1), the last term of a budget of `used`
    # terms, so the estimate reads the multiplier after the loop's last: at
    # t_32 and t_64 the first of a block not yet filled, at t_48 one within
    # the block the loop ended in
    num, den = (1.0, 1.0, 3.5), (2.0, 2.0)
    assert eval_pfq(HypergeometricSpec(num, den), z).terms_used == used
    hypergeo._multipliers.cache_clear()
    spec = HypergeometricSpec(num, den)
    got = _outcome(eval_pfq, spec, z, 1e-14, used)
    assert got[0] == "ok"
    assert got == _outcome(_reference_eval_pfq, spec, z, 1e-14, used)
    assert hypergeo._multipliers.cache_info().currsize == (used - 1) // 32 + 1


def test_multiplier_table_shared_by_threads():
    # threads that fill the same blocks at once: each call still matches a
    # fresh spec's outcome, and every block left behind is a fresh fill
    num, den = (1.0, 1.0, 47.123), (3.0, 3.0)
    calls = [(cmath.rect(r, phase), max_terms)
             for r in (0.2, 0.9, 0.99) for phase in (0.0, 2.0, -2.5)
             for max_terms in (10000, 64, 500)]
    expected = [_outcome(eval_pfq, HypergeometricSpec(num, den), z, 1e-14, max_terms)
                for z, max_terms in calls]
    hypergeo._multipliers.cache_clear()
    shared = HypergeometricSpec(num, den)
    mismatches = []

    def worker(offset):
        for i in range(len(calls)):
            j = (i + offset) % len(calls)
            if _outcome(eval_pfq, shared, calls[j][0], 1e-14, calls[j][1]) != expected[j]:
                mismatches.append(calls[j])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(7 * i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    blocks = hypergeo._multipliers.cache_info().currsize
    assert blocks > 1
    for i in range(blocks):
        assert (hypergeo._multipliers(num, den, i).tolist()
                == hypergeo._multipliers.__wrapped__(num, den, i).tolist())


def test_series_records_are_frozen_values():
    spec = HypergeometricSpec([1, 1, 3.5], (2, 2))
    assert spec == HypergeometricSpec(numerator_params=(1.0, 1.0, 3.5),
                                      denominator_params=[2.0, 2.0])
    assert spec != HypergeometricSpec((1, 1, 3.5), (2, 3))
    result = SeriesResult(0.5 - 2j, 7, 1e-17)
    twin = SeriesResult(value=0.5 - 2j, terms_used=7, error_estimate=1e-17)
    assert result == twin and hash(result) == hash(twin)
    assert result != SeriesResult(0.5 - 2j, 8, 1e-17) and result != (0.5 - 2j, 7, 1e-17)
    for record in (spec, result):
        assert copy.copy(record) == record and hash(copy.copy(record)) == hash(record)
        with pytest.raises(AttributeError):
            record.value = 0.0
        with pytest.raises(AttributeError):
            del record.terms_used
    assert repr(result) == "SeriesResult(value=(0.5-2j), terms_used=7, error_estimate=1e-17)"
    assert repr(SeriesResult(1.0, 1, 0.0)) == (
        "SeriesResult(value=1.0, terms_used=1, error_estimate=0.0)")
