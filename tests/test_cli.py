"""End-to-end CLI behaviour: parsing, formats, exit codes, determinism."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from rpqcalc import (
    GammaConfig,
    TruncatedSeries,
    build_context,
    difference_kernel,
    fit_log_growth,
    gamma_log,
    r_derivative,
    series_from_pairs,
    series_to_pairs,
    weighted_norm,
)
from rpqcalc.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

DIFF_CONFIG = {"p": 1.0, "q": 0.5, "kernel": {"builtin": "difference"}}
JS_CONFIG = {"p": 1.0, "q": 0.5, "kernel": {"builtin": "jagannathan-srinivasa"}}
INV_CONFIG = {
    "p": 0.8,
    "q": 0.5,
    "kernel": {"laurent": [{"s": -1, "t": 0, "c": 1.0}, {"s": 0, "t": 1, "c": -1.0}]},
}


@pytest.fixture
def workdir(tmp_path):
    paths = {}
    for name, doc in [("diff", DIFF_CONFIG), ("js", JS_CONFIG), ("inv", INV_CONFIG)]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    f = tmp_path / "series.json"
    f.write_text(json.dumps([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [-2.0, 0.0]]))
    paths["series"] = str(f)
    ones = tmp_path / "ones.json"
    ones.write_text(json.dumps([[1.0, 0.0]] * 17))
    paths["ones"] = str(ones)
    paths["tmp"] = tmp_path
    return paths


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_numbers_table(workdir, capsys):
    code, out, _ = run_cli(
        capsys, ["numbers", "--kernel", workdir["diff"], "--n", "1..4"]
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,number,factorial,binomial_top"
    row3 = lines[3].split(",")
    assert row3[0] == "3"
    assert row3[1] == "0.875"  # [3] = 1 - 1/8 is exact in binary
    assert float(row3[2]) == pytest.approx(0.328125, rel=1e-12)


def test_numbers_table_beyond_double_range_prints_inf(workdir, capsys):
    code, out, err = run_cli(
        capsys,
        ["numbers", "--kernel", workdir["inv"], "--order-cap", "256", "--n", "190..200"],
    )
    assert code == EXIT_OK
    assert err == ""
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(190, 201))
    assert all(row[2] == "inf" for row in rows)
    assert all(math.isfinite(float(row[1])) for row in rows)


def test_gamma_table_matches_library(workdir, capsys):
    code, out, _ = run_cli(
        capsys, ["gamma", "--kernel", workdir["js"], "--x", "2.5", "4"]
    )
    assert code == EXIT_OK
    ctx = build_context(spec_of(JS_CONFIG), 64)
    cfg = GammaConfig(ctx)
    lines = out.strip().splitlines()
    assert lines[0] == "x,gamma_log"
    assert float(lines[1].split(",")[1]) == gamma_log(cfg, 2.5)
    assert float(lines[2].split(",")[1]) == gamma_log(cfg, 4.0)


def spec_of(doc):
    from rpqcalc import spec_from_dict

    return spec_from_dict(doc)


def test_gamma_integer_only_mode_rejects_fractions(workdir, capsys):
    code, _, err = run_cli(
        capsys,
        ["gamma", "--kernel", workdir["diff"], "--x", "2.5",
         "--base-mode", "integer-only"],
    )
    assert code == EXIT_USAGE
    assert "error:" in err


def test_stirling_table_reports_drift(workdir, capsys):
    code, out, _ = run_cli(
        capsys,
        ["stirling", "--kernel", workdir["diff"], "--slope", "1",
         "--offset", "1", "--k-window", "10..40"],
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "k,z_k,gamma_log,log_lattice_k,D_k"
    assert len(lines) == 33  # header + 31 rows + summary
    assert lines[-1].startswith("# stabilized=false c_estimate=")
    cfg = GammaConfig(build_context(difference_kernel(1.0, 0.5), 64))
    for line in lines[1:-1]:
        k, z_k, glog = line.split(",")[:3]
        assert float(z_k) == float(k) + 1.0
        assert float(glog) == gamma_log(cfg, float(z_k))


def test_fit_json_matches_library(workdir, capsys):
    code, out, _ = run_cli(
        capsys,
        ["fit", "--kernel", workdir["inv"], "--window", "20..60"],
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    ctx = build_context(spec_of(INV_CONFIG), 64)
    fit = fit_log_growth(ctx, (20, 60))
    assert doc["alpha"] == fit.alpha_hat
    assert doc["beta"] == fit.beta_hat
    assert doc["regime"] == "G1"
    assert doc["lambda"] == fit.lambda_hat
    assert list(doc) == sorted(doc)


def test_derive_matches_library_exactly(workdir, capsys):
    code, out, _ = run_cli(
        capsys,
        ["derive", "--kernel", workdir["js"], "--series", workdir["series"]],
    )
    assert code == EXIT_OK
    ctx = build_context(spec_of(JS_CONFIG), 64)
    f = series_from_pairs(json.loads((workdir["tmp"] / "series.json").read_text()))
    expected = series_to_pairs(r_derivative(ctx, f))
    assert json.loads(out) == expected


def test_derive_then_norm_round_trip(workdir, capsys):
    code, out, _ = run_cli(
        capsys,
        ["derive", "--kernel", workdir["js"], "--series", workdir["series"]],
    )
    assert code == EXIT_OK
    derived_path = workdir["tmp"] / "derived.json"
    derived_path.write_text(out.strip())

    code, out2, _ = run_cli(
        capsys,
        ["norm", "--kernel", workdir["js"], "--series", str(derived_path),
         "--r", "0.75"],
    )
    assert code == EXIT_OK
    ctx = build_context(spec_of(JS_CONFIG), 64)
    f = series_from_pairs(json.loads((workdir["tmp"] / "series.json").read_text()))
    expected = weighted_norm(ctx, r_derivative(ctx, f), 0.75)
    # 17 significant digits round-trip doubles exactly
    assert float(out2.strip()) == expected


def test_radius_output(workdir, capsys):
    code, out, _ = run_cli(
        capsys,
        ["radius", "--kernel", workdir["js"], "--series", workdir["ones"],
         "--mode", "classical", "--window", "8"],
    )
    assert code == EXIT_OK
    assert float(out.strip()) == 1.0

    zeros = workdir["tmp"] / "zeros.json"
    zeros.write_text(json.dumps([[1.0, 0.0]] + [[0.0, 0.0]] * 16))
    code, out, _ = run_cli(
        capsys,
        ["radius", "--kernel", workdir["js"], "--series", str(zeros),
         "--window", "8"],
    )
    assert code == EXIT_OK
    assert out.strip() == "inf"


def test_check_coef_passes(workdir, capsys):
    code, out, _ = run_cli(
        capsys,
        ["check-coef", "--kernel", workdir["diff"], "--series", workdir["series"],
         "--r", "1.0"],
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["inconclusive"] is False
    assert set(doc) == {
        "passed", "worst_margin", "witness", "trials", "inconclusive", "details",
    }


def test_check_sup_passes_and_validates_radii(workdir, capsys):
    code, out, _ = run_cli(
        capsys,
        ["check-sup", "--kernel", workdir["diff"], "--series", workdir["series"],
         "--r", "1.0", "--rho", "0.5", "--samples", "64"],
    )
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True

    code, _, err = run_cli(
        capsys,
        ["check-sup", "--kernel", workdir["diff"], "--series", workdir["series"],
         "--r", "0.5", "--rho", "0.8"],
    )
    assert code == EXIT_USAGE
    assert "error:" in err


def test_check_opnorm_report(workdir, capsys):
    code, out, _ = run_cli(
        capsys,
        ["check-opnorm", "--kernel", workdir["diff"], "--r", "0.4", "--rho", "0.8",
         "--trials", "25", "--order", "8", "--samples", "64"],
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["details"]["constant"] == pytest.approx(2.5, rel=1e-12)


def test_check_bc_passes(workdir, capsys):
    code, out, _ = run_cli(
        capsys,
        ["check-bc", "--kernel", workdir["diff"], "--series", workdir["series"],
         "--outer", "3.0", "--inner", "2.0", "--samples", "32"],
    )
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True


def test_check_pl_exit_codes(workdir, capsys):
    base = [
        "check-pl", "--kernel", workdir["js"], "--series", workdir["ones"],
        "--mode", "fixed-omega", "--omega", "2.0",
        "--env-scale", "1.0", "--env-rate", "1.0",
        "--radial", "8", "--angular", "8", "--max-radius", "1.0",
    ]
    # gate holds, auto boundary max: passes
    code, out, _ = run_cli(capsys, base + ["--env-exponent", "1.0"])
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True

    # envelope exponent at the sector order: gate fails, inconclusive
    code, out, _ = run_cli(capsys, base + ["--env-exponent", "2.0"])
    assert code == EXIT_INCONCLUSIVE
    doc = json.loads(out)
    assert doc["inconclusive"] is True
    assert doc["details"]["gate_passed"] is False

    # explicit boundary max the rays respect but the interior exceeds:
    # conclusive failure
    coeffs = np.ones(17, dtype=complex)
    radii = np.linspace(1.0 / 8, 1.0, 8)
    ray = np.exp(1j * math.pi / 4)
    ray_max = float(
        np.max(
            np.abs(
                np.polynomial.polynomial.polyval(
                    radii[None, :] * np.array([[ray], [np.conj(ray)]]), coeffs
                )
            )
        )
    )
    code, out, _ = run_cli(
        capsys,
        base + ["--env-exponent", "1.0", "--boundary-max", str(ray_max * 1.0001)],
    )
    assert code == EXIT_CHECK_FAILED
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["inconclusive"] is False


def test_sector_membership_table(workdir, capsys):
    code, out, _ = run_cli(
        capsys,
        ["sector", "--kernel", workdir["inv"], "--mode", "sup",
         "--z", "1+0j", "0.96+0.28j"],
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "z,member,note"
    assert lines[1] == "1+0j,true,"
    assert lines[2].endswith(",false,")

    # empty sector is reported, not failed
    code, out, _ = run_cli(
        capsys,
        ["sector", "--kernel", workdir["diff"], "--mode", "sup", "--z", "1+0j"],
    )
    assert code == EXIT_OK
    assert out.strip().splitlines()[1] == "1+0j,false,empty-at-radius"


def test_pseudonorm_table(workdir, capsys):
    code, out, _ = run_cli(
        capsys, ["pseudonorm", "--kernel", workdir["diff"], "--z", "1+0j"]
    )
    assert code == EXIT_OK
    assert out.strip().splitlines()[1] == "1+0j,2"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["numbers"],
        ["numbers", "--kernel", "x.json", "--n", "bad"],
        ["not-a-command", "--kernel", "x.json"],
    ],
)
def test_usage_errors_exit_two(workdir, capsys, argv):
    assert main(argv) == EXIT_USAGE
    capsys.readouterr()


def test_config_errors_exit_two(workdir, capsys):
    missing = str(workdir["tmp"] / "nope.json")
    code, _, err = run_cli(
        capsys, ["numbers", "--kernel", missing, "--n", "1..4"]
    )
    assert code == EXIT_USAGE

    bad_json = workdir["tmp"] / "bad.json"
    bad_json.write_text("{not json")
    code, _, _ = run_cli(
        capsys, ["numbers", "--kernel", str(bad_json), "--n", "1..4"]
    )
    assert code == EXIT_USAGE

    bad_builtin = workdir["tmp"] / "badk.json"
    bad_builtin.write_text(json.dumps({"p": 1.0, "q": 0.5, "kernel": {"builtin": "zzz"}}))
    code, _, _ = run_cli(
        capsys, ["numbers", "--kernel", str(bad_builtin), "--n", "1..4"]
    )
    assert code == EXIT_USAGE

    bad_domain = workdir["tmp"] / "badp.json"
    bad_domain.write_text(json.dumps({"p": 1.4, "q": 0.5, "kernel": {"builtin": "difference"}}))
    code, _, _ = run_cli(
        capsys, ["numbers", "--kernel", str(bad_domain), "--n", "1..4"]
    )
    assert code == EXIT_USAGE


#: every subcommand's own arguments, and whether it reads a series file
SUBCOMMAND_ARGS = {
    "numbers": (["--n", "1..4"], False),
    "gamma": (["--x", "2.5"], False),
    "stirling": (["--slope", "1", "--offset", "1", "--k-window", "1..8"], False),
    "fit": (["--window", "20..60"], False),
    "derive": ([], True),
    "radius": (["--window", "4"], True),
    "norm": (["--r", "0.5"], True),
    "check-coef": (["--r", "1.0"], True),
    "check-sup": (["--r", "1.0", "--rho", "0.5"], True),
    "check-opnorm": (["--r", "0.4", "--rho", "0.8", "--trials", "2", "--order", "4"], False),
    "check-bc": (["--outer", "3.0", "--inner", "2.0", "--samples", "4"], True),
    "check-pl": (["--mode", "fixed-omega", "--omega", "2", "--env-scale", "1",
                  "--env-rate", "1", "--env-exponent", "1", "--max-radius", "1.0"], True),
    "sector": (["--z", "1+0j"], False),
    "pseudonorm": (["--z", "1+0j"], False),
}
MALFORMED_KERNEL = {"p": 1.0, "q": 0.5, "kernel": {"builtin": []}}
MALFORMED_SERIES = ([[1, None]], [1, 2], 5)


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
def test_malformed_documents_exit_two(workdir, capsys, command):
    args, reads_series = SUBCOMMAND_ARGS[command]

    def argv(kernel, series):
        extra = ["--series", series] if reads_series else []
        return [command, "--kernel", kernel, *extra, *args]

    # the well-formed documents are accepted, so exit 2 below is the documents'
    code, _, err = run_cli(capsys, argv(workdir["diff"], workdir["ones"]))
    assert code != EXIT_USAGE, err

    bad_kernel = workdir["tmp"] / "malformed-kernel.json"
    bad_kernel.write_text(json.dumps(MALFORMED_KERNEL))
    code, out, err = run_cli(capsys, argv(str(bad_kernel), workdir["ones"]))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ")
    if reads_series:
        for i, doc in enumerate(MALFORMED_SERIES):
            bad_series = workdir["tmp"] / f"malformed-series-{i}.json"
            bad_series.write_text(json.dumps(doc))
            code, out, err = run_cli(capsys, argv(workdir["diff"], str(bad_series)))
            assert (code, out) == (EXIT_USAGE, ""), doc
            assert err.startswith("error: ")


def test_repeat_runs_are_byte_identical(workdir, capsys):
    argv = ["check-opnorm", "--kernel", workdir["diff"], "--r", "0.4",
            "--rho", "0.8", "--trials", "10", "--order", "8",
            "--samples", "32", "--seed", "11"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_module_entry_point_subprocess(workdir, capsys):
    # the installed package is runnable as `python -m rpqcalc`
    argv = ["numbers", "--kernel", workdir["diff"], "--n", "1..4"]
    proc = subprocess.run(
        [sys.executable, "-m", "rpqcalc", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_OK
    _, out, _ = run_cli(capsys, argv)
    assert proc.stdout == out
