"""Weighted Bergman-Dirichlet and Bargmann-Dirichlet spaces.

Sobolev-type holomorphic function spaces on balls in C^n and on all of C^n:
orthogonal monomial bases, coefficient-space norms, closed-form reproducing
kernels (3F2 on the ball, 2F2 on the plane), quadrature oracles for every
norm claim, and the flat-curvature limit connecting the two families.
"""

from . import asymptotics, bargmann, bergman, hypergeo, multiindex, spaces, taylor
from .bargmann import BargmannDirichletSpace
from .bergman import BergmanDirichletSpace
from .errors import CapacityError, DivergenceError, DomainError, NonconvergenceError
from .hypergeo import HypergeometricSpec, SeriesResult, eval_pfq, gamma_ratio, pochhammer
from .taylor import TaylorSeries, inner, monomial, vector_norm

__version__ = "0.1.0"

__all__ = [
    "BargmannDirichletSpace",
    "BergmanDirichletSpace",
    "CapacityError",
    "DivergenceError",
    "DomainError",
    "HypergeometricSpec",
    "NonconvergenceError",
    "SeriesResult",
    "TaylorSeries",
    "asymptotics",
    "bargmann",
    "bergman",
    "eval_pfq",
    "gamma_ratio",
    "hypergeo",
    "inner",
    "monomial",
    "multiindex",
    "pochhammer",
    "quadrature",
    "spaces",
    "taylor",
    "vector_norm",
]


# quadrature is imported on first access: it loads numpy, which would
# otherwise be most of the start-up of every kernel, norms or sweep call.
def __getattr__(name):
    if name == "quadrature":
        import importlib

        return importlib.import_module(f"{__name__}.quadrature")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | {"quadrature"})
