"""Pochhammer symbols, stable gamma ratios, and generic pFq series evaluation.

The series pFq(a1..aP; b1..bQ; z) = sum_k prod(ai)_k / prod(bj)_k * z^k/k! is
evaluated by the term recurrence

    t_{k+1} = t_k * prod_i (a_i + k) / prod_j (b_j + k) * z / (k + 1),

which never forms a Pochhammer symbol in isolation and therefore stays finite
even when one numerator parameter is of order 1e4 (the scaled-curvature
regime).  The terms are summed with the Neumaier compensation of
``CompensatedSum``, applied to the real and imaginary parts; ``eval_pfq``
inlines those float operations, in the same order, into its term loop, so
that a series of thousands of terms makes no per-term method calls.  Gamma
ratios are likewise never computed through raw Gamma: an integer parameter
offset is a Pochhammer product and everything else goes through a
cancellation-free Stirling difference, which serves ``gamma_ratio`` alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class HypergeometricSpec:
    """Parameter lists (a1..aP; b1..bQ) of a pFq series."""

    numerator_params: tuple
    denominator_params: tuple

    def __post_init__(self):
        num = tuple(float(a) for a in self.numerator_params)
        den = tuple(float(b) for b in self.denominator_params)
        for b in den:
            if _is_nonpositive_integer(b):
                raise DomainError(
                    f"denominator parameter {b} is zero or a negative integer; series undefined"
                )
        object.__setattr__(self, "numerator_params", num)
        object.__setattr__(self, "denominator_params", den)


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series plus how it was obtained."""

    value: complex
    terms_used: int
    error_estimate: float


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); (a)_0 = 1."""
    if k < 0:
        raise ValueError(f"order must be >= 0, got {k}")
    out = 1.0
    for j in range(k):
        out *= a + j
    return out


# B_{2k} / (2k (2k-1)) for k = 1..7; Stirling tail of log Gamma.
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

_STIRLING_MIN = 10.0  # tail remainder below 1e-16 from here on
_MAX_INTEGER_OFFSET = 1024


def _stirling_tail(x: float) -> float:
    inv = 1.0 / x
    inv2 = inv * inv
    acc = 0.0
    power = inv
    for c in _STIRLING_COEFFS:
        acc += c * power
        power *= inv2
    return acc


def gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) for a, b > 0 without forming either Gamma.

    Integer offsets a - b are a Pochhammer product; otherwise both
    arguments are lifted above 10 and the log-Gamma difference is assembled
    from log1p(d/b) so that no large-magnitude terms cancel.  Relative error
    stays below 1e-12 up to arguments of 1e4 and nothing overflows while the
    true ratio is representable (arguments up to 1e7).
    """
    if a <= 0 or b <= 0:
        raise DomainError(f"gamma_ratio requires positive arguments, got a={a}, b={b}")
    d = a - b
    if d == round(d) and abs(d) <= _MAX_INTEGER_OFFSET:
        k = int(round(d))
        return pochhammer(b, k) if k > 0 else 1.0 / pochhammer(a, -k)
    num_corr = 1.0
    aa = a
    while aa < _STIRLING_MIN:
        num_corr *= aa
        aa += 1.0
    den_corr = 1.0
    bb = b
    while bb < _STIRLING_MIN:
        den_corr *= bb
        bb += 1.0
    dd = aa - bb
    t = (
        (aa - 0.5) * math.log1p(dd / bb)
        + dd * (math.log(bb) - 1.0)
        + _stirling_tail(aa)
        - _stirling_tail(bb)
    )
    if t > 709.7:  # true ratio exceeds float range
        return math.inf
    return math.exp(t) * den_corr / num_corr


_CONSECUTIVE_SMALL = 3  # a single tiny term may be an accidental zero


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
    sum is then no longer finite).

    The partial sum is a Neumaier sum per component, ``CompensatedSum.add``
    inlined, and the term ratio of the kernels' (3; 2) and (2; 2) shapes is
    unrolled in the generic loop's left-to-right order.  Before the exact
    stop test, |t_k| > 2 tol (|Re s| + |Im s|) rules a term out cheaply.  It
    cannot change the decision: the computed |s| = hypot(Re s, Im s) is at
    most twice the rounded |Re s| + |Im s| (a factor of 1 would not do, as
    hypot can round one ulp above it), and a rounded product keeps the
    order of its exact values, so such a term fails the exact test too.  A
    NaN or infinite bound falls through to the exact test.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_terms < 1:
        raise ValueError(f"max_terms must be >= 1, got {max_terms}")
    z = complex(z)
    num = spec.numerator_params
    den = spec.denominator_params
    if len(num) == len(den) + 1 and abs(z) >= 1.0:
        raise DivergenceError(
            f"series with P = Q + 1 diverges for |z| >= 1 (got |z| = {abs(z):.6g})"
        )

    if len(num) == 3 and len(den) == 2:
        shape = 3
        a0, a1, a2 = num
        b0, b1 = den
    elif len(num) == 2 and len(den) == 2:
        shape = 2
        a0, a1 = num
        b0, b1 = den
    else:
        shape = 0
    cutoff = 2.0 * tol
    # Neumaier sums of the real and imaginary parts, as in CompensatedSum,
    # after adding the first term 1
    re_s, re_c, im_s, im_c = 1.0, 0.0, 0.0, 0.0
    term = 1 + 0j
    small_streak = 0
    k = 0  # the term just added is t_k; k + 1 terms are summed
    try:
        while True:
            # the factor (a1+k)...(aP+k) / (b1+k)...(bQ+k), left to right
            if shape == 3:
                ratio = (a0 + k) * (a1 + k) * (a2 + k) / (b0 + k) / (b1 + k)
            elif shape == 2:
                ratio = (a0 + k) * (a1 + k) / (b0 + k) / (b1 + k)
            else:
                ratio = 1.0
                for a in num:
                    ratio *= a + k
                for b in den:
                    ratio /= b + k
            nxt = term * (ratio / (k + 1)) * z
            if small_streak >= _CONSECUTIVE_SMALL:
                return SeriesResult(complex(re_s + re_c, im_s + im_c), k + 1, abs(nxt))
            if k + 1 >= max_terms:
                break
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
    except OverflowError as exc:  # abs() of a term or sum whose parts are finite
        raise DomainError(
            f"a pFq term or partial sum near term {k} has a modulus beyond the float range"
        ) from exc
    partial = SeriesResult(complex(re_s + re_c, im_s + im_c), k + 1, abs(term))
    if not cmath.isfinite(partial.value):
        raise DomainError(f"pFq partial sum after {k + 1} terms is not finite ({partial.value})")
    raise NonconvergenceError(
        f"pFq stop rule not met after {k + 1} terms (|last term| = {abs(term):.3g})",
        partial=partial,
    )


def gamma_ratio_asymptotic_error(x: float, a: float, b: float) -> float:
    """Deviation |Gamma(x+a)/Gamma(x+b) * x^(b-a) - 1|.

    The ratio behaves like x^(a-b) for large x, so this decays like C/x.
    """
    if x <= 0:
        raise DomainError(f"x must be positive, got {x}")
    return abs(gamma_ratio(x + a, x + b) * x ** (b - a) - 1.0)


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
    if x <= 0:
        raise DomainError(f"x must be positive, got {x}")
    f3 = eval_pfq(HypergeometricSpec((b, c, x + a), (d, e)), complex(z) / x, tol, max_terms)
    f2 = eval_pfq(HypergeometricSpec((b, c), (d, e)), z, tol, max_terms)
    return abs(f3.value - f2.value)
