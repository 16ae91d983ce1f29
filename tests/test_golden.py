"""Golden outputs: exact CLI bytes and library value reprs on fixed inputs.

``golden.json`` holds the outputs recorded before the ball and Fock families
were moved onto one shared space core; every later change must reproduce them
bit for bit.  Regenerate it only for an intended change of output, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from holospaces import bargmann, bergman, quadrature
from holospaces.cli import main
from holospaces.taylor import TaylorSeries

FIXTURE = pathlib.Path(__file__).with_name("golden.json")

_BALL = ["--space", "ball", "--n", "2", "--alpha", "0.5"]
_FOCK = ["--space", "fock", "--n", "2", "--nu", "1.5"]

CLI_CASES = {
    "kernel-ball-closed-m0": ["kernel", *_BALL, "--m", "0", "--t", "0.5"],
    "kernel-ball-closed-m3": ["kernel", *_BALL, "--m", "3", "--t", "0.3,-0.4"],
    "kernel-ball-series-m0": ["kernel", *_BALL, "--m", "0", "--t", "0.5", "--method", "series"],
    "kernel-ball-series-m3": ["kernel", *_BALL, "--m", "3", "--t", "0.3,-0.4", "--method", "series"],
    "kernel-fock-closed-m0": ["kernel", *_FOCK, "--m", "0", "--t", "2.5"],
    "kernel-fock-closed-m3": ["kernel", *_FOCK, "--m", "3", "--t=-1.25,2"],
    "kernel-fock-series-m0": ["kernel", *_FOCK, "--m", "0", "--t", "2.5", "--method", "series"],
    "kernel-fock-series-m3": ["kernel", *_FOCK, "--m", "3", "--t=-1.25,2", "--method", "series"],
    "kernel-ball-points": ["kernel", *_BALL, "--m", "2", "--z", "0.5,0.25j", "--w", "0.1-0.2j,0.3"],
    "kernel-fock-points-json": ["kernel", *_FOCK, "--m", "1", "--z", "1+1j,-0.5",
                                "--w", "0.25,2j", "--format", "json"],
    "kernel-ball-radius2": ["kernel", "--space", "ball", "--n", "1", "--alpha", "3", "--radius", "2",
                            "--m", "2", "--t", "1.5,1"],
    "norms-ball-alpha0": ["norms", "--space", "ball", "--n", "2", "--alpha", "0", "--m", "2",
                          "--max-total-degree", "4"],
    "norms-ball-alpha200": ["norms", "--space", "ball", "--n", "2", "--alpha", "200", "--m", "1",
                            "--max-total-degree", "3"],
    "norms-ball-alpha166.5": ["norms", "--space", "ball", "--n", "2", "--alpha", "166.5", "--m", "1",
                              "--max-total-degree", "2"],
    "norms-fock": ["norms", *_FOCK, "--m", "2", "--max-total-degree", "4"],
    "sweep-m0": ["sweep", "--nu", "1", "--m", "0", "--n", "2", "--t", "0.3,0.2", "--radii", "2,4,8,16"],
    "sweep-m3": ["sweep", "--nu", "0.5", "--m", "3", "--n", "1", "--t", "0.7", "--radii", "3,10,30"],
    "verify-identities": ["verify", "--suite", "identities"],
    "verify-norms-ball": ["verify", "--suite", "norms", "--space", "ball", "--alpha", "0.5",
                          "--m", "2", "--degree-cap", "4"],
}

_BALL_SPACE = bergman.BergmanDirichletSpace(2, 0.5, 2, 1.5)
_FOCK_SPACE = bargmann.BargmannDirichletSpace(2, 1.5, 2)
_F = TaylorSeries(2, {(0, 0): 1 + 0.5j, (1, 0): -0.3 + 0.2j, (0, 2): 0.7 - 0.1j,
                      (2, 1): 0.25j, (1, 3): 0.4})
_G = TaylorSeries(2, {(0, 0): -0.2 + 1j, (0, 2): 0.5, (2, 1): 1 - 1j, (3, 0): 2j})
_Z = (0.4 + 0.3j, -0.2 + 0.1j)
_W = (0.1 - 0.5j, 0.3 + 0.2j)


def _library_cases():
    cases = {}
    for name, module, space in (("ball", bergman, _BALL_SPACE), ("fock", bargmann, _FOCK_SPACE)):
        cases.update({
            f"{name}-function_norm_sq": lambda m=module, s=space: m.function_norm_sq(s, _F),
            f"{name}-inner_product": lambda m=module, s=space: m.inner_product(s, _F, _G),
            f"{name}-reproduce": lambda m=module, s=space: m.reproduce(s, _F, _W),
            f"{name}-kernel_series_enumerated":
                lambda m=module, s=space: m.kernel_series_enumerated(s, _Z, _W, 9),
            f"{name}-kernel_closed": lambda m=module, s=space: m.kernel_closed(s, _Z, _W),
            f"{name}-kernel_series": lambda m=module, s=space: m.kernel_series(s, _Z, _W, 40),
            f"{name}-kernel_closed_detail":
                lambda m=module, s=space: m.kernel_closed_detail(s, 0.2 - 0.6j),
            f"{name}-kernel_series_with_tail":
                lambda m=module, s=space: m.kernel_series_with_tail(s, 0.2 - 0.6j, 30),
            f"{name}-verify_monomial_norm":
                lambda s=space: quadrature.verify_monomial_norm(s, (2, 1)),
            f"{name}-verify_orthogonality":
                lambda s=space: quadrature.verify_orthogonality(s, (2, 1), (1, 2)),
            f"{name}-verify_sobolev_norm": lambda s=space: quadrature.verify_sobolev_norm(s, _F),
        })
    cases["ball-pointwise_bound"] = lambda: bergman.pointwise_bound(_BALL_SPACE, _Z)
    cases["ball-pointwise_bound_coarse"] = lambda: bergman.pointwise_bound_coarse(
        bergman.BergmanDirichletSpace(2, 0.5, 2), _Z)
    cases["fock-nu_denominator_variant"] = lambda: [
        bargmann.monomial_norm_sq_nu_denominator_variant(_FOCK_SPACE, p)
        for p in ((0, 1), (1, 1), (3, 2))]
    return cases


LIBRARY_CASES = _library_cases()


def _cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"code": code, "stdout": out.getvalue()}


def _record():
    return {
        "cli": {key: _cli_output(argv) for key, argv in CLI_CASES.items()},
        "library": {key: repr(call()) for key, call in LIBRARY_CASES.items()},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("key", sorted(CLI_CASES))
def test_cli_output_is_golden(golden, key):
    assert _cli_output(CLI_CASES[key]) == golden["cli"][key]


@pytest.mark.parametrize("key", sorted(LIBRARY_CASES))
def test_library_value_is_golden(golden, key):
    assert repr(LIBRARY_CASES[key]()) == golden["library"][key]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
