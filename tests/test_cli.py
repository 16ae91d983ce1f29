import json
import math

import mpmath as mp
import pytest

from holospaces.cli import main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_rows(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def test_kernel_ball_classical_value(capsys):
    code, out, _ = _run(
        capsys,
        ["kernel", "--space", "ball", "--n", "2", "--alpha", "0", "--m", "0", "--t", "0.5"],
    )
    assert code == 0
    row = _csv_rows(out)[0]
    assert float(row["re"]) == pytest.approx(16.0 / math.pi**2, rel=1e-12)
    assert float(row["im"]) == 0.0
    assert int(row["terms_used"]) >= 1


def test_kernel_fock_origin_value(capsys):
    code, out, _ = _run(
        capsys,
        ["kernel", "--space", "fock", "--n", "2", "--nu", "1", "--m", "1", "--t", "0"],
    )
    assert code == 0
    row = _csv_rows(out)[0]
    assert float(row["re"]) == pytest.approx(1.0 / math.pi**2, rel=1e-12)


def test_kernel_closed_vs_series_agree(capsys):
    base = ["kernel", "--space", "ball", "--alpha", "0.5", "--m", "2", "--t", "0.4,0.1"]
    _, out_closed, _ = _run(capsys, base + ["--method", "closed"])
    _, out_series, _ = _run(capsys, base + ["--method", "series"])
    closed = complex(
        float(_csv_rows(out_closed)[0]["re"]), float(_csv_rows(out_closed)[0]["im"])
    )
    series = complex(
        float(_csv_rows(out_series)[0]["re"]), float(_csv_rows(out_series)[0]["im"])
    )
    assert abs(closed - series) <= 1e-10 * abs(closed)


def test_kernel_accepts_full_points(capsys):
    code, out, _ = _run(
        capsys,
        [
            "kernel", "--space", "ball", "--alpha", "0", "--m", "0",
            "--z", "0.5,0.25j", "--w", "0.5,0.25j",
        ],
    )
    assert code == 0
    row = _csv_rows(out)[0]
    # <z,z> = 0.3125
    expected = 2.0 / math.pi**2 * (1 - 0.3125) ** -3
    assert float(row["re"]) == pytest.approx(expected, rel=1e-12)


def test_kernel_flag_validation_exit_codes(capsys):
    code, _, err = _run(
        capsys, ["kernel", "--space", "ball", "--alpha", "-2", "--m", "0", "--t", "0.5"]
    )
    assert code == 2
    assert "alpha" in err
    code, _, err = _run(
        capsys, ["kernel", "--space", "ball", "--alpha", "0", "--m", "0", "--t", "1.5"]
    )
    assert code == 2
    assert "R^2" in err
    code, _, err = _run(
        capsys, ["kernel", "--space", "ball", "--alpha", "0", "--m", "0", "--t", "nan"]
    )
    assert code == 2
    assert "must be finite" in err
    code, _, err = _run(capsys, ["kernel", "--space", "fock", "--m", "0", "--t", "0.5"])
    assert code == 2
    assert "nu" in err
    # --t together with --z/--w is contradictory
    code, _, err = _run(
        capsys,
        ["kernel", "--space", "fock", "--nu", "1", "--m", "0", "--t", "1", "--z", "1,0", "--w", "1,0"],
    )
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["kernel", "--space", "ball", "--alpha", "inf", "--m", "1", "--t", "0.5"],
    ["kernel", "--space", "ball", "--alpha", "0", "--radius", "inf", "--m", "1", "--t", "0.5"],
    ["kernel", "--space", "fock", "--nu", "inf", "--m", "1", "--t", "0.5"],
    ["norms", "--space", "fock", "--nu", "nan", "--m", "1", "--max-total-degree", "2"],
    ["verify", "--suite", "norms", "--space", "ball", "--alpha", "inf", "--degree-cap", "2"],
    ["verify", "--suite", "orthogonality", "--space", "fock", "--nu", "inf", "--degree-cap", "2"],
], ids=["ball-alpha", "ball-radius", "fock-nu", "norms-nan", "verify-ball", "verify-fock"])
def test_non_finite_space_parameters_exit_2(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert "must be finite" in err
    assert out == ""


def test_norms_table_ball(capsys):
    code, out, _ = _run(
        capsys,
        ["norms", "--space", "ball", "--n", "2", "--alpha", "0", "--m", "0",
         "--max-total-degree", "2"],
    )
    assert code == 0
    rows = _csv_rows(out)
    first = rows[0]
    assert first["p"] == "0 0"
    assert float(first["coeff"]) == 1.0  # ||z^p||^2 / ||1||^2
    assert float(first["norm_sq"]) == pytest.approx(math.pi**2 / 2, rel=1e-13)
    assert float(rows[1]["coeff"]) == pytest.approx(1.0 / 3.0, rel=1e-13)  # 1/(alpha+n+1)
    assert all(float(r["norm_sq"]) > 0 for r in rows)
    assert len(rows) == 6  # degrees 0..2 in two variables


def test_norms_table_fock(capsys):
    code, out, _ = _run(
        capsys,
        ["norms", "--space", "fock", "--n", "2", "--nu", "1", "--m", "0",
         "--max-total-degree", "1"],
    )
    assert code == 0
    rows = _csv_rows(out)
    assert float(rows[0]["norm_sq"]) == pytest.approx(math.pi**2, rel=1e-13)


def test_verify_norms_pass(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "--suite", "norms", "--space", "ball", "--n", "2", "--degree-cap", "3"],
    )
    assert code == 0
    assert _csv_rows(out)[0]["status"] == "pass"


@pytest.mark.parametrize("alpha", ["1100", "1e4"])
def test_verify_norms_pass_at_large_alpha(capsys, alpha):
    # the ball weight (1 - |z|^2)^alpha of the flat limit, past 2^(alpha+1) overflow
    code, out, _ = _run(
        capsys, ["verify", "--suite", "norms", "--space", "ball", "--alpha", alpha, "--m", "0"]
    )
    assert code == 0
    assert _csv_rows(out)[0]["status"] == "pass"


def test_verify_orthogonality_pass(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "--suite", "orthogonality", "--space", "fock", "--n", "2",
         "--degree-cap", "2", "--m", "1"],
    )
    assert code == 0
    row = _csv_rows(out)[0]
    assert float(row["residual"]) <= 1e-10


def test_verify_identities_pass(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "identities"])
    assert code == 0
    assert float(_csv_rows(out)[0]["residual"]) <= 1e-12


def test_verify_nu_denominator_variant_fails(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "--suite", "norms", "--space", "fock", "--n", "2",
         "--degree-cap", "3", "--nu-denominator-variant"],
    )
    assert code == 1
    row = _csv_rows(out)[0]
    assert row["status"] == "fail"
    assert float(row["residual"]) >= 0.5


def test_sweep_output(capsys):
    code, out, _ = _run(
        capsys,
        ["sweep", "--nu", "1", "--m", "2", "--n", "2", "--t", "0.5",
         "--radii", "5,10,20,40"],
    )
    assert code == 0
    rows = _csv_rows(out)
    errors = [float(r["abs_error"]) for r in rows]
    assert errors == sorted(errors, reverse=True)
    ratios = [float(r["error_ratio"]) for r in rows[1:]]
    assert all(2.5 <= ratio <= 6.0 for ratio in ratios)


def test_sweep_prefactor_only_at_zero(capsys):
    code, out, _ = _run(
        capsys,
        ["sweep", "--nu", "1", "--m", "1", "--n", "2", "--t", "0", "--radii", "5,10"],
    )
    assert code == 0
    rows = _csv_rows(out)
    from holospaces.asymptotics import prefactor_ratio

    for row in rows:
        expected = abs(prefactor_ratio(1.0, float(row["R"]), 2) - 1.0 / math.pi**2)
        assert float(row["abs_error"]) == pytest.approx(expected, rel=1e-12)


def test_sweep_zero_error_leaves_ratio_empty(capsys):
    # from R = 1e8 on, the scaled prefactor equals the flat one in floats
    code, out, _ = _run(
        capsys,
        ["sweep", "--nu", "1", "--m", "0", "--n", "1", "--t", "0", "--radii", "1e7,1e8,1e9"],
    )
    assert code == 0
    rows = _csv_rows(out)
    assert [r["error_ratio"] for r in rows] == [""] * 3
    assert [float(r["abs_error"]) == 0.0 for r in rows] == [False, True, True]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sweep_flat_limit_at_large_nu_t(capsys, oracle, m):
    # at nu t = -100 the 2F2 series cancels and K_inf read -4.9e23 at m = 1;
    # the order-m integral gives it to a few eps.  K_R stays on the ball series
    code, out, _ = _run(
        capsys,
        ["sweep", "--nu", "1", "--m", str(m), "--n", "1", "--t=-100", "--radii", "20,100,1000"],
    )
    assert code == 0
    with mp.workdps(40):
        reference = complex(oracle.fock_kernel(1, 1.0, m, mp.mpc(-100)))
    for row in _csv_rows(out):
        limit = complex(float(row["Re(K_inf)"]), float(row["Im(K_inf)"]))
        assert abs(limit - reference) <= 1e-13 * abs(reference), (m, row)


@pytest.mark.parametrize("argv, message", [
    (["kernel", "--space", "fock", "--n", "2", "--m", "1", "--t", "0.5"],
     "fock space requires --nu"),
    (["norms", "--space", "ball", "--n", "2", "--m", "1"], "ball space requires --alpha"),
], ids=["fock-nu", "ball-alpha"])
def test_space_without_its_weight_exits_2(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


_FOCK_KERNEL = ["kernel", "--space", "fock", "--n", "1", "--nu", "1", "--t", "2"]
_SWEEP = ["sweep", "--nu", "1", "--n", "2", "--t", "0.3,0.2", "--radii", "2,4,8"]


@pytest.mark.parametrize("argv, message", [
    ([*_FOCK_KERNEL, "--m", "1", "--tol", "nan"], "tolerance must be positive, got nan"),
    ([*_SWEEP, "--m", "1", "--tol", "nan"], "tolerance must be positive, got nan"),
    # m = 0 sums no pFq series, nor does the series method at any m
    ([*_FOCK_KERNEL, "--m", "0", "--tol", "nan"], "tolerance must be positive, got nan"),
    ([*_FOCK_KERNEL, "--m", "0", "--tol", "-1"], "tolerance must be positive, got -1.0"),
    ([*_FOCK_KERNEL, "--m", "2", "--method", "series", "--tol", "nan"],
     "tolerance must be positive, got nan"),
    ([*_FOCK_KERNEL, "--m", "0", "--max-terms", "0"], "max_terms must be >= 1, got 0"),
    ([*_FOCK_KERNEL, "--m", "1", "--method", "series", "--max-terms", "-3"],
     "max_terms must be >= 1, got -3"),
    ([*_SWEEP, "--m", "0", "--tol", "nan"], "tolerance must be positive, got nan"),
    ([*_SWEEP, "--m", "0", "--max-terms", "0"], "max_terms must be >= 1, got 0"),
], ids=["kernel", "sweep", "kernel-m0", "kernel-m0-negative", "kernel-series",
        "kernel-m0-max-terms", "kernel-series-max-terms", "sweep-m0", "sweep-m0-max-terms"])
def test_nan_tolerance_exits_2(capsys, argv, message):
    # the budget is checked before dispatch, for every m and method
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["--space", "ball", "--n", "2", "--alpha", "0.5", "--radius", "1e100"],
    ["--space", "fock", "--n", "2", "--nu", "1e-200", "--m", "1"],
], ids=["ball-radius", "fock-nu"])
def test_norms_beyond_float_range_exit_2(capsys, argv):
    code, out, err = _run(capsys, ["norms", *argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "overflows the float range" in err


@pytest.mark.parametrize("method", ["closed", "series"])
def test_non_finite_kernel_exits_2(capsys, method):
    code, out, err = _run(capsys, [
        "kernel", "--space", "ball", "--n", "1", "--alpha", "0.5", "--m", "2",
        "--radius", "1e100", "--t", "1e199,1e199", "--method", method,
    ])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "not a finite float" in err


_BALL_FAR = ["--space", "ball", "--n", "2", "--alpha", "0.5", "--m", "1", "--radius", "1e200"]
_FOCK_FLAT = ["--space", "fock", "--n", "3", "--nu", "1e-110", "--m", "1", "--t", "1e100"]


@pytest.mark.parametrize("argv", [
    [*_BALL_FAR, "--t", "0.5"],
    [*_BALL_FAR, "--t", "0.5", "--method", "series"],
    ["--space", "ball", "--n", "2", "--alpha", "0.5", "--m", "0", "--radius", "1e-100",
     "--t", "1e-201"],
    _FOCK_FLAT,
    [*_FOCK_FLAT, "--method", "series"],
], ids=["ball-r2n-overflows", "ball-r2n-overflows-series", "ball-r2n-underflows",
        "fock-underflows", "fock-underflows-series"])
def test_kernel_prefactor_beyond_float_range_exits_2(capsys, argv):
    # R^(2n) overflows or underflows to 0, or (nu/pi)^n underflows to 0, on
    # the closed and the series route alike.  At the fock cell mpmath's
    # K = 3.2252e-232 is a normal float; the prefactor is not
    code, out, err = _run(capsys, ["kernel", *argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: kernel prefactor") and "outside the normal float range" in err


def test_fock_kernel_with_non_finite_pfq_argument_exits_2(capsys):
    # nu t = 1e600 leaves the float range: past the integral's reach, the
    # series names its argument instead of summing 10,000 NaN terms
    code, out, err = _run(capsys, ["kernel", "--space", "fock", "--n", "1", "--nu", "1e300",
                                   "--m", "1", "--t", "1e300"])
    assert code == 2
    assert out == ""
    assert err == "error: pFq argument z = (inf+0j) is not finite\n"


def test_ball_kernel_near_the_boundary_at_large_a_exits_0(capsys):
    # the plain rule declined here and the series raised NonconvergenceError
    # after 10,000 terms; the shifted rule takes all 225 nodes
    code, out, err = _run(capsys, ["kernel", "--space", "ball", "--n", "1", "--alpha", "10.85",
                                   "--m", "1", "--t", "0.99815,-0.0225"])
    assert (code, err) == (0, "")
    row = _csv_rows(out)[0]
    assert row["terms_used"] == "225"
    with mp.workdps(30):
        alpha, t = mp.mpf(10.85), mp.mpc(0.99815, -0.0225)
        prefactor = mp.gammaprod([alpha + 2], [alpha + 1]) / mp.pi  # n = 1, R = 1
        reference = prefactor * (1 + t * mp.hyper([1, 1, alpha + 2], [2, 2], t, maxterms=10**6))
    got = complex(float(row["re"]), float(row["im"]))
    assert abs(got - complex(reference)) <= 1e-13 * abs(complex(reference))


def test_mid_disk_ball_kernel_takes_the_integral(capsys):
    # a = 8, m = 2, |x| = 0.73: the series would sum 125 terms; the 113-node
    # integral prints 28.215999059363796 + 8.3066483975900827i, and mpmath
    # 28.215999059363795 + 8.3066483975900822i
    code, out, err = _run(capsys, ["kernel", "--space", "ball", "--n", "2", "--alpha", "5",
                                   "--m", "2", "--t", "0.7,0.2"])
    assert (code, err) == (0, "")
    row = _csv_rows(out)[0]
    assert row["terms_used"] == "113"
    with mp.workdps(30):
        a, t = mp.mpf(8), mp.mpc(0.7, 0.2)
        prefactor = mp.gammaprod([a], [6]) / mp.pi**2  # n = 2, R = 1
        reference = prefactor * (1 + a * t + t**2 / 4 * mp.hyp3f2(1, 1, a, 3, 3, t))
    got = complex(float(row["re"]), float(row["im"]))
    assert abs(got - complex(reference)) <= 1e-14 * abs(complex(reference))


@pytest.mark.parametrize("argv, flag, least, got", [
    (["verify", "--suite", "norms", "--degree-cap", "-1"], "--degree-cap", 0, -1),
    (["verify", "--suite", "sobolev", "--degree-cap", "-1"], "--degree-cap", 0, -1),
    (["verify", "--suite", "orthogonality", "--degree-cap", "0"], "--degree-cap", 1, 0),
    (["norms", "--space", "ball", "--alpha", "0", "--max-total-degree", "-2"],
     "--max-total-degree", 0, -2),
], ids=["verify-norms", "verify-sobolev", "verify-orthogonality-no-pair", "norms"])
def test_degree_flags_below_their_least_exit_2(capsys, argv, flag, least, got):
    # no empty table, no vacuous pass and no max() of nothing: a usage error
    # naming the flag, before any case is built
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} must be >= {least}") and err.endswith(f", got {got}\n")


@pytest.mark.parametrize("suite", ["norms", "sobolev"])
def test_verify_degree_cap_zero_checks_the_constants(capsys, suite):
    code, out, _ = _run(capsys, ["verify", "--suite", suite, "--space", "ball", "--alpha", "0",
                                 "--m", "0", "--degree-cap", "0"])
    assert code == 0
    assert _csv_rows(out)[0]["status"] == "pass"


@pytest.mark.parametrize("suite", ["norms", "orthogonality", "sobolev"])
def test_verify_underflowed_norms_exit_2(capsys, suite):
    code, out, err = _run(
        capsys, ["verify", "--suite", suite, "--space", "ball", "--radius", "1e-200"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "underflow" in err


def test_byte_identical_reruns(capsys):
    argv = ["sweep", "--nu", "1", "--m", "1", "--n", "1", "--t", "0.25", "--radii", "5,10"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_json_format(capsys):
    code, out, _ = _run(
        capsys,
        ["kernel", "--space", "ball", "--alpha", "0", "--m", "0", "--t", "0.5",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["command"] == "kernel"
    assert payload["meta"]["alpha"] == 0.0
    assert payload["rows"][0]["re"] == pytest.approx(16.0 / math.pi**2, rel=1e-12)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = _run(
        capsys,
        ["kernel", "--space", "ball", "--alpha", "0", "--m", "0", "--t", "0.5",
         "--output", str(target)],
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("# ")
    assert "re,im,terms_used,error_estimate" in text


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["kernel", "--space", "marble", "--t", "0.5"])
    assert excinfo.value.code == 2
