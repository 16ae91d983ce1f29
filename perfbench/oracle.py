"""Independent references for the kernel and verify workloads, in mpmath.

Kernels are evaluated at 40 digits from the closed form, prefactor times
``sum_{k<m} c_k u^k + t^m/(m!)^2 pFq(...)``, at the exact inner product of
the floating-point inputs:

* the plane uses ``mpmath.hyp2f2``, evaluated at 40 and again at 60 digits
  where |nu t| > 30 so that cancellation in the reference itself would show;
* the ball uses ``mpmath.hyp3f2`` for |u| <= 0.9 and moderate alpha u, where
  mpmath sums the series directly.  Closer to |u| = 1, mpmath's own 3F2
  takes seconds or divides by zero, so the reference there is the integral

      t^m/(m!)^2 3F2(1, 1, a; m+1, m+1; u) = t^m int_0^1 P(s) (1 - u s)^(-a) ds,

  with P the inverse Mellin transform of 1/((j+1)_m)^2, written out by
  partial fractions as sum_i s^(i-1) (A_i - B_i log s); mpmath's quadrature
  reports its own error, which must be below 1e-25 relative.

Each kernel reference also says whether the request is *well posed* (see
``WELL_POSED_COND``): whether its plain power series in t has a modest
condition number and a term count within reach.  Both are read off the
mathematics alone, not off the package.  The benchmark's timed loops run the
well-posed requests; the rest form a census of the known hard regimes.

Nothing here is imported by the measured worker, so mpmath costs neither
import time nor memory in the timed process.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 40

FLOAT_MAX = mp.mpf("1.7976931348623157e308")


def _mpc(pair) -> mp.mpc:
    return mp.mpc(mp.mpf(pair[0]), mp.mpf(pair[1]))


def inner(z, w) -> mp.mpc:
    """Exact (40-digit) <z, w> of the floating-point components."""
    return mp.fsum(_mpc(a) * mp.conj(_mpc(b)) for a, b in zip(z, w))


def _partial_fractions(m: int) -> list:
    """(i, A_i, B_i) with 1/((j+1)_m)^2 = sum_i A_i/(j+i) + B_i/(j+i)^2."""
    out = []
    for i in range(1, m + 1):
        b = Fraction(1)
        log_derivative = Fraction(0)
        for k in range(1, m + 1):
            if k != i:
                b /= Fraction(k - i) ** 2
                log_derivative += Fraction(-2, k - i)
        out.append((i, b * log_derivative, b))
    return out


def _ball_high_integral(a, m: int, u) -> mp.mpc:
    coeffs = [(i, mp.mpf(fa.numerator) / fa.denominator, mp.mpf(fb.numerator) / fb.denominator)
              for i, fa, fb in _partial_fractions(m)]

    def integrand(s):
        # P(s) vanishes like (1-s)^(2m-1) at s = 1 through cancellation
        with mp.workdps(mp.mp.dps + 30):
            log_s = mp.log(s)
            p = mp.fsum(s ** (i - 1) * (ca - cb * log_s) for i, ca, cb in coeffs)
            return p * (1 - u * s) ** (-a)

    value, error = mp.quad(integrand, [0, 1], error=True)
    if not error <= mp.mpf("1e-25") * abs(value):
        raise ArithmeticError(f"ball reference quadrature error {error} at a={a}, m={m}, u={u}")
    return value


def ball_kernel(n: int, alpha: float, m: int, radius: float, t) -> mp.mpc:
    a = mp.mpf(alpha) + n + 1
    r2 = mp.mpf(radius) ** 2
    u = t / r2
    prefactor = mp.gammaprod([a], [mp.mpf(alpha) + 1]) / (mp.pi**n * r2**n)
    low = mp.mpf(0)
    term = mp.mpf(1)
    for k in range(m):
        low += term
        term = term * (a + k) / (k + 1) * u
    if m == 0:
        high = (1 - u) ** (-a)
    elif abs(u) <= 0.9 and abs(a * u) <= 100:
        high = t**m * mp.hyp3f2(1, 1, a, m + 1, m + 1, u) / mp.factorial(m) ** 2
    else:
        high = t**m * _ball_high_integral(a, m, u)
    return prefactor * (low + high)


def _fock_bracket(nu, m: int, t) -> mp.mpc:
    x = mp.mpf(nu) * t
    low = mp.mpf(0)
    term = mp.mpf(1)
    for k in range(m):
        low += term
        term = term * x / (k + 1)
    return low + t**m * mp.hyp2f2(1, 1, m + 1, m + 1, x) / mp.factorial(m) ** 2


def fock_kernel(n: int, nu: float, m: int, t) -> mp.mpc:
    value = _fock_bracket(nu, m, t)
    if abs(mp.mpf(nu) * t) > 30:
        with mp.workdps(60):
            check = _fock_bracket(nu, m, t)
        if not abs(check - value) <= mp.mpf("1e-30") * abs(check):
            raise ArithmeticError(f"fock reference unstable at nu={nu}, m={m}, t={t}")
    return (mp.mpf(nu) / mp.pi) ** n * value


# A request is well posed when its plain power series in t can be summed in
# floating point: its condition number sum |c_k t^k| / |sum c_k t^k| is at
# most WELL_POSED_COND, so that a sum loses at most four of its sixteen
# digits and stays well inside the 1e-10 bar, and the series reaches a
# relative term size of 1e-14 within WELL_POSED_TERMS terms, 80% of the
# package's default budget.  (At the seed, plain sums first miss 1e-10 at a
# condition number of about 5e6.)
WELL_POSED_COND = 1e4
WELL_POSED_TERMS = 8000
_PROFILE_TERMS = 200000


def series_profile(space, t, log10_abs_f) -> tuple:
    """(log10 of sum |c_k t^k|, terms) of the kernel's bracket at t.

    ``log10_abs_f`` is log10 |pFq| at t; ``terms`` counts the pFq terms up to
    the first below 1e-14 |pFq|, where a series summed term by term can
    stop.  Every coefficient of the kernel's power series in t is positive,
    so the sum of the moduli is the bracket evaluated at |t|; it is summed
    in floats with an exponent kept apart, which cannot overflow or cancel.
    """
    n, m = space["n"], space["m"]
    r = abs(complex(t))
    if r == 0.0:
        return 0.0, 1  # the bracket is 1 at t = 0
    ball = "alpha" in space
    a = space["alpha"] + n + 1.0 if ball else 0.0
    x = r / space["radius"] ** 2 if ball else space["nu"] * r  # |u| or |nu t|
    low, term = 0.0, 1.0
    for k in range(m):
        low += term
        term *= (a + k if ball else 1.0) * x / (k + 1)
    total, term, exponent = 1.0, 1.0, 0
    target = log10_abs_f - 14.0
    terms = summed = None
    for j in range(_PROFILE_TERMS):
        term *= (1.0 + j) * (a + j if ball else 1.0) * x / (m + 1.0 + j) ** 2
        total += term
        if total > 1e250:
            total, term, exponent = total * 1e-250, term * 1e-250, exponent + 250
        if terms is None and (term == 0.0 or math.log10(term) + exponent <= target):
            terms = j + 2
        if summed is None and term <= 1e-17 * total:
            summed = total, exponent
        if terms is not None and summed is not None:
            break
    else:
        terms = terms or _PROFILE_TERMS
        summed = summed or (total, exponent)
    log_high = (math.log10(summed[0]) + summed[1] + m * math.log10(r)
                - 2 * math.log10(math.factorial(m)))
    if low == 0.0:
        return log_high, terms
    top, bottom = max(log_high, math.log10(low)), min(log_high, math.log10(low))
    return top + math.log10(1.0 + 10.0 ** (bottom - top)), terms


def _log10_abs_f(space, t, value) -> float:
    """log10 |pFq| at t, from the kernel value: (K / prefactor - low) (m!)^2 / t^m."""
    n, m = space["n"], space["m"]
    if t == 0:
        return 0.0  # pFq(0) = 1
    if "alpha" in space:
        a = mp.mpf(space["alpha"]) + n + 1
        r2 = mp.mpf(space["radius"]) ** 2
        x = t / r2
        prefactor = mp.gammaprod([a], [mp.mpf(space["alpha"]) + 1]) / (mp.pi**n * r2**n)
    else:
        a, x = None, mp.mpf(space["nu"]) * t
        prefactor = (mp.mpf(space["nu"]) / mp.pi) ** n
    low, term = mp.mpf(0), mp.mpf(1)
    for k in range(m):
        low += term
        term = term * (a + k if a is not None else 1) / (k + 1) * x
    f = (value / prefactor - low) * mp.factorial(m) ** 2 / t**m if m else value / prefactor
    return float(mp.log10(abs(f)))


def _log10_prefactor(space) -> float:
    n = space["n"]
    if "alpha" in space:
        alpha = space["alpha"]
        return ((math.lgamma(alpha + n + 1.0) - math.lgamma(alpha + 1.0)) / math.log(10.0)
                - n * math.log10(math.pi) - 2 * n * math.log10(space["radius"]))
    return n * math.log10(space["nu"] / math.pi)


def _as_ref(value, space=None, t=None) -> dict:
    """The reference of one kernel value; with ``space`` and ``t`` also its
    series profile and whether it is well posed (see WELL_POSED_COND)."""
    if abs(value) > FLOAT_MAX:
        ref = {"overflow": True, "log10_abs": float(mp.log10(abs(value)))}
    else:
        ref = {"value": [float(mp.re(value)), float(mp.im(value))]}
    if space is not None:
        log_sum, terms = series_profile(space, t, _log10_abs_f(space, t, value))
        log_cond = _log10_prefactor(space) + log_sum - float(mp.log10(abs(value)))
        ref["log10_cond"] = log_cond
        ref["terms"] = terms
        ref["well_posed"] = (not ref.get("overflow") and terms <= WELL_POSED_TERMS
                             and log_cond <= math.log10(WELL_POSED_COND))
    return ref


def _kernel_at(space, t) -> mp.mpc:
    if "alpha" in space:
        return ball_kernel(space["n"], space["alpha"], space["m"], space["radius"], t)
    return fock_kernel(space["n"], space["nu"], space["m"], t)


def kernel_reference(request) -> dict:
    """The reference of one request, with ``well_posed`` true when every
    kernel value it asks for is well posed."""
    fn = request["fn"]
    if fn == "asymptotics.convergence_sweep":
        t = inner(request["z"], request["w"])
        nu, m, n = request["nu"], request["m"], request["n"]
        rows = []
        for r in request["radii"]:
            space = {"n": n, "alpha": nu * r * r, "m": m, "radius": r}
            rows.append(_as_ref(_kernel_at(space, t), space, t))
        limit_space = {"n": n, "nu": nu, "m": m}
        limit = _as_ref(_kernel_at(limit_space, t), limit_space, t)
        return {"rows": rows, "limit": limit,
                "well_posed": all(x["well_posed"] for x in rows + [limit])}
    space = request["space"]
    if fn == "bergman.pointwise_bound":
        t = inner(request["z"], request["z"])
        ref = _as_ref(mp.sqrt(mp.re(_kernel_at(space, t))))
        ref["well_posed"] = _as_ref(_kernel_at(space, t), space, t)["well_posed"]
        return ref
    t = inner(request["z"], request["w"])
    return _as_ref(_kernel_at(space, t), space, t)


def grid_mass(space) -> float:
    """Total mass of the unit-scale weight: the sum of a grid's weights."""
    n = space["n"]
    if space["kind"] == "ball":
        alpha = mp.mpf(space["alpha"])
        return float(mp.pi**n * mp.gammaprod([alpha + 1], [alpha + n + 1]))
    return float(mp.pi**n)


def references(workload: str, inputs) -> list:
    """One reference per request (kernel workloads) or per block (verify)."""
    if workload in ("kernels", "kernels-edge"):
        return [[kernel_reference(r) for r in block] for block in inputs]
    if workload == "verify":
        return [grid_mass(block["space"]) for block in inputs]
    return []
