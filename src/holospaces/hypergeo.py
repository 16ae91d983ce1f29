"""Pochhammer symbols, integer-offset gamma ratios, and generic pFq series evaluation.

The series pFq(a1..aP; b1..bQ; z) = sum_k prod(ai)_k / prod(bj)_k * z^k/k! is
evaluated by the term recurrence

    t_{k+1} = t_k * prod_i (a_i + k) / prod_j (b_j + k) * z / (k + 1),

which never forms a Pochhammer symbol in isolation and therefore stays finite
even when one numerator parameter is of order 1e4 (the scaled-curvature
regime).  The terms are summed with the Neumaier compensation of
``CompensatedSum``, applied to the real and imaginary parts; ``eval_pfq``
inlines those float operations, in the same order, into its term loop, so
that a series of thousands of terms makes no per-term method calls, and
reads each term's multiplier from a bounded cache of fixed blocks that equal
parameter lists share.  Gamma ratios are never computed through raw Gamma:
``gamma_ratio`` takes integer offsets only, where the ratio is a Pochhammer
product.
"""

from __future__ import annotations

import cmath
from array import array
from functools import lru_cache, partial
from itertools import chain, count, islice

from ._record import Record, set_field
from .errors import DivergenceError, DomainError, NonconvergenceError


class CompensatedSum:
    """Running Neumaier (Kahan-Babuska) accumulator for float terms."""

    __slots__ = ("_s", "_c")

    def __init__(self, value: float = 0.0):
        self._s = float(value)
        self._c = 0.0

    def add(self, x: float) -> None:
        s = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - s) + x
        else:
            self._c += (x - s) + self._s
        self._s = s

    @property
    def value(self) -> float:
        return self._s + self._c


class ComplexCompensatedSum:
    """Componentwise compensated accumulator for complex terms."""

    __slots__ = ("_re", "_im")

    def __init__(self):
        self._re = CompensatedSum()
        self._im = CompensatedSum()

    def add(self, x: complex) -> None:
        self._re.add(x.real)
        self._im.add(x.imag)

    @property
    def value(self) -> complex:
        return complex(self._re.value, self._im.value)


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and x == round(x)


class HypergeometricSpec(Record):
    """Parameter lists (a1..aP; b1..bQ) of a pFq series."""

    _fields = ("numerator_params", "denominator_params")

    def __init__(self, numerator_params: tuple, denominator_params: tuple):
        num = tuple(float(a) for a in numerator_params)
        den = tuple(float(b) for b in denominator_params)
        for b in den:
            if _is_nonpositive_integer(b):
                raise DomainError(
                    f"denominator parameter {b} is zero or a negative integer; series undefined"
                )
        set_field(self, "numerator_params", num)
        set_field(self, "denominator_params", den)


_BLOCK = 32  # multipliers per cached block


@lru_cache(maxsize=4096)  # at most 4,096 blocks of 256 B: 1 MB of multipliers in all
def _multipliers(num: tuple, den: tuple, block: int) -> memoryview:
    """Read-only c_k of ``eval_pfq`` for k = 32 block, ..., 32 block + 31.

    c_k = (a1+k)...(aP+k) / (b1+k) ... / (bQ+k) / (k+1) is formed as the
    straightforward loop does: 1.0 * (a1+k) * ... / (b1+k) / ... left to
    right (the leading 1.0 * is exact), then divided by k+1.  k runs over
    float(k), the float an integer k becomes in a + k (counting up by 1.0
    is exact below 2**53), so each sum is the same.  Keyed by the parameter
    tuples, so equal specs share blocks, and the view is read-only, as every
    caller gets the same one.
    """
    out = array("d")
    for k in islice(count(float(block * _BLOCK)), _BLOCK):
        ratio = 1.0
        for a in num:
            ratio *= a + k
        for b in den:
            ratio /= b + k
        out.append(ratio / (k + 1.0))
    return memoryview(out).toreadonly()


class SeriesResult(Record):
    """Value of a truncated series plus how it was obtained."""

    _fields = ("value", "terms_used", "error_estimate")

    def __init__(self, value: complex, terms_used: int, error_estimate: float):
        set_field(self, "value", value)
        set_field(self, "terms_used", terms_used)
        set_field(self, "error_estimate", error_estimate)


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); (a)_0 = 1."""
    if k < 0:
        raise ValueError(f"order must be >= 0, got {k}")
    out = 1.0
    for j in range(k):
        out *= a + j
    return out


_MAX_INTEGER_OFFSET = 1024


def gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) for a, b > 0 whose offset a - b is an integer.

    The offset k = a - b must satisfy |k| <= 1024; the ratio is then the
    Pochhammer product (b)_k, or 1/(a)_(-k) for k < 0, and no Gamma is
    formed.  Any other offset raises DomainError: every Gamma quotient the
    space families need has the integer offset n (they call ``pochhammer``).
    """
    if not (a > 0 and b > 0):
        raise DomainError(f"gamma_ratio requires positive arguments, got a={a}, b={b}")
    d = a - b
    if not abs(d) <= _MAX_INTEGER_OFFSET or d != round(d):
        raise DomainError(
            f"gamma_ratio requires an integer offset |a - b| <= {_MAX_INTEGER_OFFSET}, "
            f"got a - b = {d}"
        )
    k = int(d)
    return pochhammer(b, k) if k > 0 else 1.0 / pochhammer(a, -k)


_CONSECUTIVE_SMALL = 3  # a single tiny term may be an accidental zero


def check_budget(tol: float, max_terms: int) -> None:
    """ValueError unless ``tol`` is positive (NaN is not) and ``max_terms`` >= 1."""
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_terms < 1:
        raise ValueError(f"max_terms must be >= 1, got {max_terms}")


def eval_pfq(
    spec: HypergeometricSpec,
    z: complex,
    tol: float = 1e-14,
    max_terms: int = 10000,
) -> SeriesResult:
    """Sum the pFq series at ``z`` by term recurrence.

    Stops once |t_k| <= tol * |partial sum| for three consecutive terms; the
    reported error estimate is the magnitude of the first neglected term.
    Raises DivergenceError when P = Q + 1 and |z| >= 1, DomainError when a
    term or the partial sum has finite parts but a modulus beyond the float
    range, and NonconvergenceError (carrying the partial result) if the stop
    rule is not met within ``max_terms`` terms (DomainError if the partial
    sum is then no longer finite).  A ``tol`` that is not positive, NaN
    included, is a ValueError.

    One loop serves every shape.  It steps t_{k+1} = t_k * c_k * z with the
    multiplier c_k = (a1+k)...(aP+k) / (b1+k)...(bQ+k) / (k+1) read from
    blocks of 32 (``_multipliers``), which store c_k as the term loop would
    round it: the ratio left to right, then divided by k+1.  The step makes
    the same two roundings as t_k * (ratio / (k+1)) * z, so the value,
    ``terms_used`` and the estimate are bit for bit those of a loop that
    forms each ratio in place.  The blocks are cached by the parameter
    tuples and block number, the 4,096 used last (1 MB of multipliers) for
    all specs together, so a call on parameters met before reads stored
    multipliers, and a call on new ones fills at most 31 more than it reads.

    The partial sum is a Neumaier sum per component, ``CompensatedSum.add``
    inlined.  Before the exact stop test, |t_k| > 2 tol (|Re s| + |Im s|)
    rules a term out cheaply.  It cannot change the decision: the computed
    |s| = hypot(Re s, Im s) is at most twice the rounded |Re s| + |Im s| (a
    factor of 1 would not do, as hypot can round one ulp above it), and a
    rounded product keeps the order of its exact values, so such a term
    fails the exact test too.  A NaN or infinite bound falls through to the
    exact test.
    """
    check_budget(tol, max_terms)
    z = complex(z)
    num = spec.numerator_params
    den = spec.denominator_params
    if len(num) == len(den) + 1 and abs(z) >= 1.0:
        raise DivergenceError(
            f"series with P = Q + 1 diverges for |z| >= 1 (got |z| = {abs(z):.6g})"
        )

    # c_0, c_1, ... block by block: the loop takes the budget's max_terms - 1
    # multipliers, and an estimate at its last term reads the next one
    multipliers = chain.from_iterable(map(partial(_multipliers, num, den), count()))
    cutoff = 2.0 * tol
    # Neumaier sums of the real and imaginary parts, as in CompensatedSum,
    # after adding the first term 1
    re_s, re_c, im_s, im_c = 1.0, 0.0, 0.0, 0.0
    term = 1 + 0j
    small_streak = 0
    k = 0  # the term just added is t_k; k + 1 terms are summed
    try:
        for c in islice(multipliers, max_terms - 1):  # c = c_k
            nxt = term * c * z
            if small_streak >= _CONSECUTIVE_SMALL:
                return SeriesResult(complex(re_s + re_c, im_s + im_c), k + 1, abs(nxt))
            term = nxt
            k += 1
            x = term.real
            s = re_s + x
            if abs(re_s) >= abs(x):
                re_c += (re_s - s) + x
            else:
                re_c += (x - s) + re_s
            re_s = s
            x = term.imag
            s = im_s + x
            if abs(im_s) >= abs(x):
                im_c += (im_s - s) + x
            else:
                im_c += (x - s) + im_s
            im_s = s
            size = abs(term)
            re = re_s + re_c
            im = im_s + im_c
            # the cheap pre-check of the docstring; the exact test alone decides
            if size > cutoff * (abs(re) + abs(im)):
                small_streak = 0
            elif size <= tol * abs(complex(re, im)):
                small_streak += 1
            else:
                small_streak = 0
        if small_streak >= _CONSECUTIVE_SMALL:  # the stop rule is met at the last term
            c = next(multipliers)
            return SeriesResult(complex(re_s + re_c, im_s + im_c), k + 1, abs(term * c * z))
    except OverflowError as exc:  # abs() of a term or sum whose parts are finite
        raise DomainError(
            f"a pFq term or partial sum near term {k} has a modulus beyond the float range"
        ) from exc
    result = SeriesResult(complex(re_s + re_c, im_s + im_c), k + 1, abs(term))
    if not cmath.isfinite(result.value):
        raise DomainError(f"pFq partial sum after {k + 1} terms is not finite ({result.value})")
    raise NonconvergenceError(
        f"pFq stop rule not met after {k + 1} terms (|last term| = {abs(term):.3g})",
        partial=result,
    )


def limit_3f2_to_2f2_error(
    b: float,
    c: float,
    d: float,
    e: float,
    a: float,
    z: complex,
    x: float,
    tol: float = 1e-14,
    max_terms: int = 10000,
) -> float:
    """|3F2(b, c, x+a; d, e; z/x) - 2F2(b, c; d, e; z)|.

    The large-parameter/small-argument 3F2 approaches the 2F2 target as
    x -> infinity; the gap decays like 1/x.
    """
    return next(_limit_3f2_to_2f2_errors(b, c, d, e, a, z, (x,), tol, max_terms))


def _limit_3f2_to_2f2_errors(b, c, d, e, a, z, xs, tol, max_terms):
    """``limit_3f2_to_2f2_error`` at each x of ``xs`` in turn.  The 2F2
    target does not depend on x: it is summed once, after the first 3F2."""
    target = None
    for x in xs:
        if x <= 0:
            raise DomainError(f"x must be positive, got {x}")
        f3 = eval_pfq(HypergeometricSpec((b, c, x + a), (d, e)), complex(z) / x, tol, max_terms)
        if target is None:
            target = eval_pfq(HypergeometricSpec((b, c), (d, e)), z, tol, max_terms).value
        yield abs(f3.value - target)
