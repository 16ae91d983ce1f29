import math

import pytest

from holospaces import bargmann, bergman
from holospaces.errors import DomainError

FAMILIES = [
    (bergman, bergman.BergmanDirichletSpace(2, 0.5, 1)),
    (bargmann, bargmann.BargmannDirichletSpace(2, 1.0, 1)),
]


@pytest.mark.parametrize("family, space", FAMILIES, ids=["ball", "fock"])
@pytest.mark.parametrize("t", [math.nan, math.inf, complex(0, math.nan)], ids=["nan", "inf", "nan-im"])
def test_non_finite_argument_is_a_domain_error(family, space, t):
    with pytest.raises(DomainError, match="must be finite"):
        family.kernel_closed_detail(space, t)
    with pytest.raises(DomainError, match="must be finite"):
        family.kernel_series_with_tail(space, t)
