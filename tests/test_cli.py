"""Command line interface: subcommands, artifacts, and exit codes."""

import json
import math

import pytest

from hamlab.cli import main
from hamlab.model import EllipticHamiltonian
from hamlab.poly import Polynomial

GOLDEN_F = (1 + math.sqrt(5)) / 2


@pytest.fixture
def ham_file(tmp_path):
    V = Polynomial(2, {(3, 0, 0, 0): 0.1, (0, 1, 1, 1): -0.08})
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    path = tmp_path / "ham.json"
    H.save(path)
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bnf_subcommand(ham_file, capsys):
    code, out, err = run(["bnf", "--ham", ham_file, "--m", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["m"] == 2
    assert report["smallest_divisor"] > 0


def test_bnf_writes_output_file(ham_file, capsys, tmp_path):
    out_path = tmp_path / "nf.json"
    code, out, _ = run(
        ["bnf", "--ham", ham_file, "--m", "2", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["m"] == 2


def test_bnf_curve_subcommand(ham_file, capsys):
    code, out, _ = run(
        ["bnf-curve", "--ham", ham_file, "--m-max", "3", "--radius", "0.5"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,remainder_majorant"
    assert len(lines) == 3  # m = 2, 3


def test_dioph_subcommand(capsys, tmp_path):
    env = tmp_path / "env.csv"
    code, out, _ = run(
        [
            "dioph",
            "--alpha",
            f"1.0,{GOLDEN_F}",
            "--tau",
            "1.0",
            "--K",
            "50",
            "--fit",
            "--envelope",
            str(env),
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["gamma_hat"] > 0.2
    assert "tau_fit" in report
    assert env.read_text().splitlines()[0] == "k1_norm,min_abs,k"


def test_dioph_resonant_exits_3(capsys):
    code, _, err = run(["dioph", "--alpha", "1,2", "--K", "10"], capsys)
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "ResonantFrequency"


def test_sdm_check_subcommand(capsys, tmp_path):
    beta_file = tmp_path / "beta.json"
    beta_file.write_text(json.dumps({"beta": [[1.0, 0.0], [0.0, -1.0]]}))
    code, out, _ = run(
        ["sdm-check", "--quadratic", str(beta_file), "--gamma", "0.1", "--tau", "3.0", "--Lmax", "1"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is False
    assert report["gamma_margin"] == pytest.approx(0.0, abs=1e-12)


def test_sdm_check_worst_case_output(capsys, tmp_path):
    beta_file = tmp_path / "beta.json"
    argv = ["sdm-check", "--quadratic", str(beta_file), "--gamma", "0.1", "--tau", "3.0", "--Lmax", "1"]
    beta_file.write_text(json.dumps({"beta": [[1.0, 0.0], [0.0, -1.0]]}))
    code, out, _ = run(argv, capsys)
    assert code == 0
    worst = json.loads(out)["worst_case"]
    assert (worst["L"], worst["subspace"]) == (1, [[1, -1]])
    assert worst["margin"] == pytest.approx(0.0, abs=1e-12)
    beta_file.write_text(json.dumps({"beta": [[0.5]]}))
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert json.loads(out)["worst_case"] == {"L": 1, "margin": 0.5, "subspace": ["full", 1]}


def test_sdm_check_invalid_matrix_exits_2(capsys, tmp_path):
    beta_file = tmp_path / "beta.json"
    beta_file.write_text(json.dumps({"beta": [[1.0, 2.0], [0.0, 1.0]]}))
    code, _, err = run(
        ["sdm-check", "--quadratic", str(beta_file), "--gamma", "0.1", "--tau", "3.0", "--Lmax", "1"],
        capsys,
    )
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"


def test_sdm_enum_subcommand(capsys):
    code, out, _ = run(["sdm-enum", "--n", "2", "--k", "1", "--L", "1", "--count-only"], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 4
    code, out, _ = run(["sdm-enum", "--n", "2", "--k", "1", "--L", "1"], capsys)
    subs = json.loads(out)["subspaces"]
    assert len(subs) == 4
    assert all("perp_basis" in s for s in subs)


def test_sdm_prevalence_subcommand(capsys):
    code, out, _ = run(
        ["sdm-prevalence", "--n", "2", "--tau", "6.0", "--gamma", "0.05", "--Lmax", "2", "--samples", "150"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["samples"] == 150
    assert 0.0 <= report["bad_fraction"] <= 1.0
    from hamlab.lab import ExperimentSpec, RandomHamiltonianParams, run_experiment

    spec = ExperimentSpec(
        kind="sdm_prevalence", hamiltonian=RandomHamiltonianParams(n=2),
        tau_p=6.0, gamma_p=0.05, L_max=2, samples=150,
    )
    lab_report = run_experiment(spec).report
    assert set(report) == set(lab_report) - {"bound_finite"}
    assert all(report[k] == lab_report[k] for k in report)


def test_drift_subcommand(ham_file, capsys):
    code, out, err = run(
        ["drift", "--ham", ham_file, "--rho", "0.1", "--N", "2", "--T", "2.0", "--dt", "0.05"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "trajectory_id,t,I_1,I_2,H,drift_l1"
    summary = json.loads(err)
    assert summary["max_drift_l1"] >= 0.0


def test_escape_scan_subcommand(ham_file, capsys):
    code, out, _ = run(
        [
            "escape-scan", "--ham", ham_file, "--rho", "0.2,0.1",
            "--threshold-factor", "2.0", "--T", "2.0", "--dt", "0.05", "--N", "2",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rho,escape_time,censored,max_drift_l1,local_slope"
    assert len(lines) == 3


def test_experiment_subcommand(capsys, tmp_path, ham_file):
    from hamlab.lab import ExperimentSpec

    spec = ExperimentSpec(
        kind="bnf_roundtrip",
        hamiltonian=EllipticHamiltonian.load(ham_file),
        m_max=2,
    )
    spec_path = tmp_path / "spec.json"
    spec.save(spec_path)
    code, out, _ = run(["experiment", "--spec", str(spec_path)], capsys)
    assert code == 0
    assert json.loads(out)["m"] == 2

    out_base = tmp_path / "result"
    code, out, _ = run(
        ["experiment", "--spec", str(spec_path), "--out", str(out_base)], capsys
    )
    assert code == 0
    assert (tmp_path / "result.json").exists()


def test_missing_file_exits_2(capsys):
    code, _, err = run(["bnf", "--ham", "/nonexistent.json", "--m", "2"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_resonant_ham_exits_3(capsys, tmp_path):
    V = Polynomial(2, {(3, 0, 0, 0): 0.1})
    H = EllipticHamiltonian((1.0, 2.0), V, s=4.0)
    path = tmp_path / "res.json"
    H.save(path)
    code, _, err = run(["bnf", "--ham", str(path), "--m", "2"], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "ResonantFrequency"


def test_bad_arguments_exit_2(capsys):
    assert main(["bnf"]) == 2  # missing required flags
    assert main(["no-such-command"]) == 2
    assert main(["--help"]) == 0
