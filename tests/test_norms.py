"""Monomial norms as Pochhammer products, and the normalized coefficient.

The ball norm pi^n R^(2(j+n)) p! [|p|!/(|p|-m)!] / (alpha+1)_(j+n) (j = |p|
below order m, |p| - m from m on) is judged against 40-digit mpmath; the
coefficient ||z^p||^2/||1||^2 of ``norms`` against its closed forms in both
families and across the flat limit alpha = nu R^2, R -> infinity.
"""

import math
import random
import sys

import mpmath as mp
import pytest

from holospaces import bargmann, bergman, multiindex as mi, spaces
from holospaces.asymptotics import scaled_space
from holospaces.errors import DomainError


def _shift(space, p):
    """j, the Pochhammer length beyond n, and the falling-factorial factor."""
    k = sum(p)
    if k < space.m:
        return k, 1
    return k - space.m, math.perm(k, space.m)


def _mp_ball_norm(space, p):
    j, falling = _shift(space, p)
    with mp.workdps(40):
        a = mp.mpf(space.alpha) + 1
        r = mp.mpf(space.radius)
        value = mp.pi**space.n * mi.multifactorial(p) * falling * r ** (2 * (j + space.n))
        return value / mp.rf(a, j + space.n)


def _random_ball_spaces(rng, count):
    for i in range(count):
        if i % 2:
            alpha = rng.uniform(-0.99, 50.0)
        else:
            alpha = 10.0 ** rng.uniform(0.0, 6.0)  # non-dyadic, up to 1e6
        n = rng.randint(1, 3)
        space = bergman.BergmanDirichletSpace(
            n, alpha, rng.randint(0, 3), rng.choice((1.0, 0.3, 2.5))
        )
        yield space, tuple(rng.randint(0, 6) for _ in range(n))


def test_ball_norm_matches_mpmath():
    rng = random.Random(20260810)
    worst = 0.0
    for space, p in _random_ball_spaces(rng, 2000):
        exact = _mp_ball_norm(space, p)
        worst = max(worst, float(abs(bergman.monomial_norm_sq(space, p) - exact) / exact))
    assert worst <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_norm_keeps_integer_offsets_at_huge_alpha(n):
    # alpha = 2^54: alpha + n + 1 rounds back onto alpha, which once lost the offset n
    space = scaled_space(1.0, 2.0**27, n, 0)
    assert bergman.monomial_norm_sq(space, (0,) * n) == math.pi**n


@pytest.mark.parametrize("space", [
    bergman.BergmanDirichletSpace(2, 0.5, 1, 3.0),
    bergman.BergmanDirichletSpace(3, 200.0, 0),
    bargmann.BargmannDirichletSpace(2, 1.5, 2),
    bargmann.BargmannDirichletSpace(1, 1e-3, 0),
], ids=["ball", "ball-alpha200", "fock", "fock-small-nu"])
def test_normalized_norm_is_one_at_the_constant(space):
    assert spaces.normalized_norm_sq(space, (0,) * space.n) == 1.0


@pytest.mark.parametrize("alpha, m, radius", [(0.5, 2, 1.0), (200.0, 1, 1.0), (3.7, 0, 2.0)])
def test_ball_coefficient_closed_form(alpha, m, radius):
    n = 2
    space = bergman.BergmanDirichletSpace(n, alpha, m, radius)
    for k in range(7):
        for p in mi.enumerate_indices(n, k):
            j, falling = _shift(space, p)
            expected = (mi.multifactorial(p) * falling * radius ** (2 * j)
                        / math.prod(alpha + n + 1 + i for i in range(j)))
            coeff = spaces.normalized_norm_sq(space, p)
            assert 0.0 < coeff < math.inf
            assert coeff == pytest.approx(expected, rel=1e-14), p


@pytest.mark.parametrize("nu, m", [(1.5, 2), (0.25, 0), (7.0, 1)])
def test_plane_coefficient_is_norm_over_mass_bit_for_bit(nu, m):
    space = bargmann.BargmannDirichletSpace(2, nu, m)
    for k in range(7):
        for p in mi.enumerate_indices(2, k):
            norm_sq = bargmann.monomial_norm_sq(space, p)
            assert spaces.normalized_norm_sq(space, p) == norm_sq / (math.pi / nu) ** 2


@pytest.mark.parametrize("nu, n, m", [(1.0, 1, 0), (0.5, 2, 1), (2.0, 3, 2)])
def test_ball_coefficient_flat_limit(nu, n, m):
    # coeff_ball / coeff_plane = prod_{i<j} 1/(1 + (n+1+i)/(nu R^2)), so R^2 times
    # the relative gap tends to w/nu, w = j(n+1) + j(j-1)/2, within (w/nu)^2/R^2
    plane = bargmann.BargmannDirichletSpace(n, nu, m)
    for radius in (10.0, 100.0, 1000.0):
        ball = scaled_space(nu, radius, n, m)
        for k in range(6):
            for p in mi.enumerate_indices(n, k):
                j, _ = _shift(plane, p)
                w = j * (n + 1) + j * (j - 1) / 2
                gap = 1.0 - spaces.normalized_norm_sq(ball, p) / spaces.normalized_norm_sq(plane, p)
                allowed = (w / nu) ** 2 / radius**2 + 8 * sys.float_info.epsilon * radius**2
                assert abs(radius**2 * gap - w / nu) <= allowed, (radius, p)


@pytest.mark.parametrize("space, p", [
    (bergman.BergmanDirichletSpace(2, 0.5, 0, 1e100), (0, 0)),  # R^(2n)
    (bergman.BergmanDirichletSpace(1, 0.5, 1), (200,)),  # float(p!)
    (bargmann.BargmannDirichletSpace(2, 1e-200, 1), (0, 0)),  # (pi/nu)^n
    (bargmann.BargmannDirichletSpace(1, 1e-100, 1), (4,)),  # nu^(m-|p|)
    (bargmann.BargmannDirichletSpace(1, 2.0, 2), (171,)),  # float(p!)
], ids=["ball-radius", "ball-factorial", "fock-mass", "fock-nu-power", "fock-factorial"])
def test_norms_beyond_float_range_are_domain_errors(space, p):
    with pytest.raises(DomainError, match="overflows the float range"):
        space.monomial_norm_sq(p)
    if isinstance(space, bargmann.BargmannDirichletSpace):
        with pytest.raises(DomainError, match="overflows the float range"):
            bargmann.monomial_norm_sq_nu_denominator_variant(space, p)
