"""Import hygiene: numpy loads only where quadrature needs it, scipy nowhere,
and the CLI starts without the standard library's heavier modules.

Each check runs in a fresh interpreter, because the test process itself has
long since imported numpy and ``holospaces.quadrature``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

HEAVY = ("numpy", "scipy")
# inspect (with ast, dis and tokenize) is most of what dataclasses costs at
# start-up; json is loaded by --format json alone
LIGHT = ("dataclasses", "inspect", "json")

STDLIB_COMMANDS = {
    "kernel-ball": ["kernel", "--space", "ball", "--alpha", "0.5", "--m", "1", "--t", "0.3,0.1"],
    "kernel-ball-edge": ["kernel", "--space", "ball", "--alpha", "0.5", "--m", "1", "--t", "0.999"],
    "kernel-fock": ["kernel", "--space", "fock", "--nu", "1", "--m", "2", "--z", "0.5,1j", "--w", "1,0"],
    "kernel-series": ["kernel", "--space", "fock", "--nu", "1", "--t", "2", "--method", "series"],
    "norms": ["norms", "--space", "ball", "--alpha", "0", "--m", "1", "--max-total-degree", "3"],
    "sweep": ["sweep", "--nu", "1", "--m", "1", "--t", "0.5", "--radii", "10,100"],
    "verify-identities": ["verify", "--suite", "identities"],
}

VERIFY_SUITES = {
    "norms": ["verify", "--suite", "norms", "--degree-cap", "2"],
    "orthogonality": ["verify", "--suite", "orthogonality", "--degree-cap", "2"],
    "sobolev": ["verify", "--suite", "sobolev", "--degree-cap", "2"],
    "identities": ["verify", "--suite", "identities"],
}


def _run(script: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_cli_commands_start_without_numpy_or_scipy():
    script = f"""
import contextlib, io, sys

HEAVY = {HEAVY!r}
LIGHT = {LIGHT!r}
preloaded = set(sys.modules)  # a site .pth may load some of LIGHT itself
def loaded():
    return (sorted(m for m in HEAVY if m in sys.modules)
            + sorted(m for m in LIGHT if m in sys.modules and m not in preloaded))

import holospaces, holospaces.cli
report = {{"import": loaded(), "codes": {{}}}}
for name, argv in {STDLIB_COMMANDS!r}.items():
    with contextlib.redirect_stdout(io.StringIO()):
        report["codes"][name] = holospaces.cli.main(argv)
    report[name] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    report["codes"]["kernel-json"] = holospaces.cli.main(
        {STDLIB_COMMANDS["kernel-ball"]!r} + ["--format", "json"]
    )
report["kernel-json"] = [m for m in LIGHT if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    report["codes"]["verify-norms"] = holospaces.cli.main(
        ["verify", "--suite", "norms", "--space", "ball", "--alpha", "0", "--m", "0",
         "--degree-cap", "2"]
    )
report["verify-norms"] = [m for m in HEAVY if m in sys.modules]
import json
print(json.dumps(report))
"""
    report = _run(script)
    assert report.pop("codes") == {
        **{name: 0 for name in STDLIB_COMMANDS}, "kernel-json": 0, "verify-norms": 0
    }
    # the JSON output and the quadrature suite do load json and numpy, so the
    # checks above can see a leak
    assert "json" in report.pop("kernel-json")
    assert report.pop("verify-norms") == ["numpy"]
    assert report == {"import": [], **{name: [] for name in STDLIB_COMMANDS}}


def test_ball_integral_loads_late_and_without_rational_arithmetic():
    # the integral module is compiled only by a process that evaluates a ball
    # kernel near |x| = 1; fractions imports decimal, about 4 ms of start-up,
    # so the integral's coefficients are built in integers
    script = f"""
import contextlib, io, json, sys

LATE = ("holospaces._ball_integral", "fractions", "decimal")
import holospaces, holospaces.cli
report = {{"import": [m for m in LATE if m in sys.modules]}}
with contextlib.redirect_stdout(io.StringIO()):
    report["code"] = holospaces.cli.main({STDLIB_COMMANDS["kernel-ball-edge"]!r})
report["kernel"] = [m for m in LATE if m in sys.modules]
print(json.dumps(report))
"""
    assert _run(script) == {"import": [], "code": 0, "kernel": ["holospaces._ball_integral"]}


def test_verify_suites_run_without_scipy():
    script = f"""
import contextlib, io, json, sys

import holospaces.cli
report = {{}}
for suite, argv in {VERIFY_SUITES!r}.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = holospaces.cli.main(argv)
    report[suite] = [code, "scipy" in sys.modules]
print(json.dumps(report))
"""
    assert _run(script) == {suite: [0, False] for suite in VERIFY_SUITES}


def test_quadrature_resolves_on_first_access():
    script = """
import json, sys
import holospaces

report = {"listed": "quadrature" in dir(holospaces), "eager": "holospaces.quadrature" in sys.modules}
module = holospaces.quadrature
report["real"] = module is sys.modules["holospaces.quadrature"] and hasattr(module, "default_grid")
from holospaces import quadrature
report["from_import"] = quadrature is module
namespace = {}
exec("from holospaces import *", namespace)
report["star"] = sorted(set(holospaces.__all__) - set(namespace))
try:
    holospaces.no_such_name
    report["missing"] = "no error"
except AttributeError as exc:
    report["missing"] = str(exc)
print(json.dumps(report))
"""
    assert _run(script) == {
        "listed": True,
        "eager": False,
        "real": True,
        "from_import": True,
        "star": [],
        "missing": "module 'holospaces' has no attribute 'no_such_name'",
    }
