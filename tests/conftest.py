import importlib.util
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from holospaces import multiindex as mi
from holospaces.taylor import TaylorSeries


class RunningSum:
    """Streaming Neumaier sum of real or complex terms, per component, whose
    ``value`` may be read after every term (the reference loops do)."""

    def __init__(self):
        self._re = self._im = (0.0, 0.0)

    @staticmethod
    def _add(part, x):
        s, c = part
        t = s + x
        if abs(s) >= abs(x):
            return t, c + ((s - t) + x)
        return t, c + ((x - t) + s)

    def add(self, x):
        self._re = self._add(self._re, x.real)
        self._im = self._add(self._im, x.imag)

    @property
    def value(self) -> complex:
        (re_s, re_c), (im_s, im_c) = self._re, self._im
        return complex(re_s + re_c, im_s + im_c)


@pytest.fixture(scope="session")
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


def random_polynomial(rng, n, max_degree, density=1.0, scale=1.0):
    """Dense-ish random polynomial with standard-normal complex coefficients."""
    coeffs = {}
    for k in range(max_degree + 1):
        for p in mi.enumerate_indices(n, k):
            if density < 1.0 and rng.uniform() > density:
                continue
            coeffs[p] = scale * complex(rng.standard_normal(), rng.standard_normal())
    return TaylorSeries(n, coeffs)


def random_point(rng, n, max_norm):
    """Point in C^n with |z| uniformly at most max_norm."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    norm = np.linalg.norm(v)
    if norm == 0:
        return tuple(0j for _ in range(n))
    r = max_norm * rng.uniform() ** (1.0 / (2 * n))
    return tuple(complex(c) for c in v / norm * r)


def pfq_reference(nums, dens, z, terms=200, dps=34):
    """Direct partial summation of pFq at elevated precision (test oracle)."""
    with mp.workdps(dps):
        total = mp.mpc(0)
        term = mp.mpc(1)
        zz = mp.mpc(z)
        for k in range(terms):
            total += term
            ratio = mp.mpf(1)
            for a in nums:
                ratio *= mp.mpf(a) + k
            for b in dens:
                ratio /= mp.mpf(b) + k
            term *= ratio * zz / (k + 1)
        return complex(total)
