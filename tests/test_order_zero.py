"""Contract of the m = 0 closed-form kernels against 40-digit mpmath.

At order 0 the ball kernel is prefactor * (1 - t/R^2)^(-(alpha+n+1)) and the
plane kernel (nu/pi)^n e^(nu t).  Over a seeded sample of both families, at
every phase, with 1 - |t|/R^2 down to 1e-6 and |nu t| up to 1e3, each call
must either return a value within its reported ``error_estimate`` of the
exact kernel at the floating-point inputs, or raise DomainError because that
kernel lies outside the float range.  Any other exception fails the test.
"""

import cmath
import math
import random

import mpmath as mp

from holospaces import bargmann, bergman
from holospaces.errors import DomainError

ALPHAS = (-0.9, 0.0, 0.5, 3.7, 100.0, 1e4, 1e6)
RADII = (0.3, 1.0, 2.0)
SAMPLES = 3000  # per family


def _ball_reference(space, t):
    with mp.workdps(40):
        alpha, r2 = mp.mpf(space.alpha), mp.mpf(space.radius) ** 2
        n = space.n
        prefactor = mp.rf(alpha + 1, n) / (mp.pi**n * r2**n)
        return prefactor * (1 - mp.mpc(t) / r2) ** (-(alpha + n + 1))


def _fock_reference(space, t):
    with mp.workdps(40):
        nu = mp.mpf(space.nu)
        return (nu / mp.pi) ** space.n * mp.exp(nu * mp.mpc(t))


def _ball_samples(rng):
    for _ in range(SAMPLES):
        space = bergman.BergmanDirichletSpace(
            rng.choice((1, 2, 3)), rng.choice(ALPHAS), 0, rng.choice(RADII))
        modulus = 1.0 - 10.0 ** rng.uniform(-6.0, 0.0)
        t = cmath.rect(modulus, rng.uniform(-math.pi, math.pi)) * space.radius**2
        yield space, t, _ball_reference


def _fock_samples(rng):
    for _ in range(SAMPLES):
        space = bargmann.BargmannDirichletSpace(
            rng.choice((1, 2, 3)), 10.0 ** rng.uniform(-2.0, 2.0), 0)
        x = cmath.rect(10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(-math.pi, math.pi))
        yield space, x / space.nu, _fock_reference


def _check(samples):
    outcomes = {"ok": 0, "DomainError": 0}
    for space, t, reference in samples:
        exact = reference(space, t)
        try:
            value, record = bergman.kernel_closed_detail(space, t)
        except DomainError:
            # only where the kernel itself leaves the float range
            assert not 1e-300 < abs(exact) < 1e300, (space, t, exact)
            outcomes["DomainError"] += 1
            continue
        assert record.terms_used == 1 and record.value == value, (space, t)
        error = abs(mp.mpc(value) - exact)
        assert error <= record.error_estimate, (space, t, float(error), record.error_estimate)
        outcomes["ok"] += 1
    return outcomes


def test_ball_order_zero_values_are_within_their_bound_or_a_domain_error():
    outcomes = _check(_ball_samples(random.Random(9001)))
    assert outcomes["ok"] > SAMPLES // 2 and outcomes["DomainError"] > 0, outcomes


def test_fock_order_zero_values_are_within_their_bound_or_a_domain_error():
    outcomes = _check(_fock_samples(random.Random(9002)))
    assert outcomes["ok"] > SAMPLES // 2 and outcomes["DomainError"] > 0, outcomes


def test_order_zero_bound_is_near_the_rounding_level():
    # one closed-form evaluation: the bound is a few eps relative, not a series tail
    space = bergman.BergmanDirichletSpace(2, 0.5, 0)
    value, record = bergman.kernel_closed_detail(space, 0.5)
    assert record.error_estimate <= 1e-14 * abs(value)
    assert abs(value - complex(_ball_reference(space, 0.5))) <= 2e-16 * abs(value)
