import json
import math

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
    assert float(first["coeff"]) == pytest.approx(0.5, rel=1e-13)
    assert float(first["norm_sq"]) == pytest.approx(math.pi**2 / 2, rel=1e-13)
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
