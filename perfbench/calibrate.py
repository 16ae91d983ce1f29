"""A fixed unit of work that measures how fast the machine is right now.

The machine the benchmark runs on is shared, and its speed for the same work
was seen to swing by up to 2x within a minute.  The unit mixes the three
kinds of work the workloads do, none of it from the package: a complex term
recurrence with compensated summation (the shape of ``eval_pfq``), many
small function calls building tuples and dicts (the shape of per-call
overhead and argument handling), and numpy arithmetic on a 20,000-point
complex array (the shape of ``evaluate_series``/``integrate_*``).

The kernel workloads are scaled by the series part alone
(``series_unit_s``): their ops are pure-Python term recurrences, and on the
shared machine the numpy part swung with other load in ways their ops did
not, while the series part tracked them (quartile spread of ``ops_per_s``
over six runs 0.025 scaled by the series part, 0.045 by the whole unit,
0.27 unscaled).

Timings of child interpreters (the CLI workload, and every workload's
set-up) are scaled by a second unit instead: a child interpreter that
imports numpy, run next to them.  The in-process unit was seen not to track
the cost of starting another interpreter.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

# Fixed scale: a timing scaled by REFERENCE_S / unit_s() reads as if the
# unit had taken 5 ms, about its time on a 2-vCPU 2.1 GHz machine
# (Python 3.11, numpy 2.4).
REFERENCE_S = 5.0e-3

# The same for the series part alone, about 1.3 ms on that machine when it
# runs at full speed.
SERIES_REFERENCE_S = 1.3e-3
# The same for the child unit: a child importing numpy takes about 180 ms on
# that machine.
CHILD_REFERENCE_S = 0.18

_POINTS = np.exp(1j * np.linspace(0.0, 6.0, 20000)) * np.linspace(0.1, 0.9, 20000)


def _neumaier(total: float, compensation: float, x: float) -> tuple:
    t = total + x
    if abs(total) >= abs(x):
        return t, compensation + ((total - t) + x)
    return t, compensation + ((x - t) + total)


def _series() -> complex:
    re = im = (0.0, 0.0)
    term = 1 + 0j
    for k in range(1500):
        term = term * ((1.0 + k) * (2.5 + k) / ((2.0 + k) * (3.0 + k))) * (0.6 + 0.7j)
        re = _neumaier(*re, term.real)
        im = _neumaier(*im, term.imag)
    return complex(sum(re), sum(im))


def _record(i: int, z: complex) -> tuple:
    return (i, z * z, {"k": i & 7})


def _calls() -> int:
    total = 0
    for i in range(1500):
        rec = _record(i, complex(i, 1.0))
        total += len(tuple(sorted(rec[2])))
    return total


def _arrays() -> complex:
    total = 0j
    for p in range(1, 6):
        total += complex(np.sum(_POINTS**p * np.conj(_POINTS) ** (p - 1)))
    return total


def unit_s() -> float:
    """Wall time of one calibration unit, as the machine runs now."""
    t0 = perf_counter()
    _series()
    _calls()
    _arrays()
    return perf_counter() - t0


def child_unit_s() -> float:
    """Wall time of one child interpreter importing numpy, as the machine runs now."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True,
                   timeout=60)
    return perf_counter() - t0


def series_unit_s() -> float:
    """Wall time of the unit's series part alone, as the machine runs now."""
    t0 = perf_counter()
    _series()
    return perf_counter() - t0
