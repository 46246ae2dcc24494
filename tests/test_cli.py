"""Command line interface: subcommands, artifacts, and exit codes."""

import argparse
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hamlab import cli
from hamlab.cli import build_parser, main
from hamlab.errors import DimensionMismatch, HamlabError
from hamlab.lab import EXPERIMENT_KINDS
from hamlab.model import EllipticHamiltonian
from hamlab.poly import Polynomial

GOLDEN_F = (1 + math.sqrt(5)) / 2
README = Path(__file__).resolve().parents[1] / "README.md"


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


@pytest.mark.parametrize("cmd", [["bnf", "--m", "2"], ["bnf-curve", "--m-max", "3"]])
def test_non_positive_radius_exits_2(cmd, ham_file, capsys):
    code, out, err = run([cmd[0], "--ham", ham_file, *cmd[1:], "--radius", "-0.5"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "radius must be positive and finite, got -0.5"}


@pytest.mark.parametrize("cmd", [["bnf", "--m", "2"], ["bnf-curve", "--m-max", "3"]])
def test_infinite_radius_exits_2(cmd, ham_file, capsys):
    # bnf-curve printed an all-inf curve, and bnf failed only in its JSON writer
    code, out, err = run([cmd[0], "--ham", ham_file, *cmd[1:], "--radius", "inf"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValueError", "message": "radius must be positive and finite, got inf"}


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


def test_dioph_non_finite_alpha_exits_2(capsys):
    code, out, err = run(["dioph", "--alpha", "nan,1", "--K", "10"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "frequency components must be finite"}


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


def test_sdm_check_accepts_an_alpha_key(capsys, tmp_path):
    argv = ["sdm-check", "--quadratic", str(tmp_path / "beta.json"), "--gamma", "0.1", "--tau", "3.0", "--Lmax", "2"]
    outs = []
    for data in ({"beta": [[1.0, 0.2], [0.2, -2.0]]}, {"beta": [[1.0, 0.2], [0.2, -2.0]], "alpha": [1.0, 1.5]}):
        (tmp_path / "beta.json").write_text(json.dumps(data))
        code, out, _ = run(argv, capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


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


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["sdm-enum", "--n", "3", "--k", "1", "--L", "2"], "c512bf461de30fad6bc6a15f8d53c5a5d3d705bfbc7f1dff854a60da38823d44"),
        (
            ["sdm-check", "--quadratic", "BETA", "--gamma", "0.01", "--tau", "2.0", "--Lmax", "3"],
            "b1cad06c3f8c05c02ef7dea041d9393194e60e94627b9b07ee8278816a72077f",
        ),
    ],
    ids=["sdm-enum", "sdm-check"],
)
def test_sdm_reports_are_pinned(argv, digest, capsys, tmp_path):
    # SHA-256 of stdout, recorded while the checks still walked RationalSubspace
    # values; the sdm-check margin (0.0015126..., on a subspace at L = 3) comes
    # from LAPACK, whose rounding another build may not share
    beta_file = tmp_path / "beta.json"
    beta_file.write_text(json.dumps({"beta": [[1.1, 0.37, -0.21], [0.37, -1.3, 0.44], [-0.21, 0.44, 0.7]]}))
    code, out, _ = run([str(beta_file) if a == "BETA" else a for a in argv], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize(
    "argv",
    [
        ["sdm-enum", "--n", "4", "--k", "1", "--L", "3"],
        ["sdm-prevalence", "--n", "4", "--tau", "6.0", "--Lmax", "3"],
    ],
)
def test_enumeration_budget_exits_3_at_once(argv, capsys, monkeypatch):
    import hamlab.sdm as sdm

    keyed = []
    monkeypatch.setattr(sdm, "_plucker", lambda A: keyed.append(A))
    monkeypatch.setattr(sdm, "_rref_keys", lambda A, P: keyed.append(A))
    code, _, err = run(argv, capsys)
    assert code == 3
    assert json.loads(err)["error"] == "CombinatorialBudgetExceeded"
    assert keyed == []


@pytest.mark.parametrize("bad", [["--tau", "1.5"], ["--tau", "6.0", "--gamma", "2.0"]])
def test_sdm_prevalence_invalid_exponents_exit_2(bad, capsys):
    code, out, err = run(["sdm-prevalence", "--n", "2", "--Lmax", "2", *bad], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dioph", "--alpha", "1,1.618", "--tau", "nan", "--K", "20"], "tau must be >= 0"),
        (["sdm-prevalence", "--n", "2", "--Lmax", "2", "--tau", "nan"], "tau' must be >= 2"),
        (["sdm-prevalence", "--n", "2", "--Lmax", "2", "--tau", "6", "--gamma", "nan"], "gamma' must be <= 1"),
        (["sdm-check", "--gamma", "nan", "--tau", "6", "--Lmax", "2"], "gamma' must be <= 1"),
        (["sdm-check", "--gamma", "0.1", "--tau", "nan", "--Lmax", "2"], "tau' must be >= 2"),
    ],
)
def test_a_nan_exponent_exits_2_with_its_name(argv, message, capsys, tmp_path):
    beta = tmp_path / "beta.json"
    beta.write_text(json.dumps([[1.0, 0.0], [0.0, -2.0]]))
    if argv[0] == "sdm-check":
        argv = [*argv, "--quadratic", str(beta)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValueError", "message": message}


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


def per_row_drift_rows(run, n):
    """The drift CSV rows as `hamlab drift` built them before it formatted a
    run in one pass: one dict and one np.sum per sampled row of each record."""
    for tid, m in enumerate(run.kept):
        actions = run.actions[tid, :m]
        I0 = actions[0]
        for t, I, E in zip(run.times[:m], actions, run.energies[tid, :m]):
            row = {"trajectory_id": tid, "t": float(t)}
            for i in range(n):
                row[f"I_{i + 1}"] = float(I[i])
            row["H"] = float(E)
            row["drift_l1"] = float(np.sum(np.abs(I - I0)))
            yield row


def _saddle_file(tmp_path):
    # q^2/2 + p^2/2 + q^3: at rho = 0.4 most orbits pass the saddle and
    # leave the domain, so the records differ in length
    path = tmp_path / "saddle.json"
    EllipticHamiltonian((1.0,), Polynomial(1, {(3, 0): 1.0}), s=3.5).save(path)
    return str(path), ["--rho", "0.4", "--N", "12", "--T", "6.0", "--dt", "0.02"]


def _nine_freedoms_file(tmp_path):
    # nine actions, so each drift is a sum of more terms than numpy's
    # pairwise summation adds one by one
    alpha = tuple(math.sqrt(p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23))
    V = Polynomial(9, {(1,) + (0,) * (j - 1) + (2,) + (0,) * (17 - j): 0.1 for j in range(1, 9)})
    path = tmp_path / "nine.json"
    EllipticHamiltonian(alpha, V, s=4.0).save(path)
    return str(path), ["--rho", "0.3", "--N", "3", "--T", "2.0", "--dt", "0.05"]


@pytest.mark.parametrize("stride", ["1", "3"])
@pytest.mark.parametrize("case", ["golden", "saddle", "nine"])
def test_drift_csv_matches_the_per_row_formatter(case, stride, ham_file, capsys, tmp_path):
    from hamlab.dynamics import IntegratorConfig, ensemble_drift
    from hamlab.lab import write_csv

    path, argv = {
        "golden": lambda: (ham_file, ["--rho", "0.1", "--N", "4", "--T", "3.0", "--dt", "0.05"]),
        "saddle": lambda: _saddle_file(tmp_path),
        "nine": lambda: _nine_freedoms_file(tmp_path),
    }[case]()
    opts = dict(zip(argv[::2], argv[1::2]))
    code, out, _ = run(
        ["drift", "--ham", path, "--method", "gauss4", "--seed", "4", "--sample-stride", stride, *argv], capsys
    )
    assert code == 0
    H = EllipticHamiltonian.load(path)
    cfg = IntegratorConfig(method="gauss4", dt=float(opts["--dt"]))
    rho, N, T = float(opts["--rho"]), int(opts["--N"]), float(opts["--T"])
    ens = ensemble_drift(H, rho, N, T, cfg, seed=4, sample_stride=int(stride))
    if case == "saddle":
        assert {"ok", "left_domain"} <= set(ens.statuses)
    fields = ["trajectory_id", "t"] + [f"I_{i + 1}" for i in range(H.n)] + ["H", "drift_l1"]
    want = io.StringIO()
    write_csv(want, fields, per_row_drift_rows(ens.run, H.n))
    assert out == want.getvalue()
    assert len(out.splitlines()) == 1 + ens.run.kept.sum()


@pytest.mark.parametrize(
    "argv, value",
    [
        (["drift", "--rho", "nan", "--T", "2.0"], "nan"),
        (["drift", "--rho", "inf", "--T", "2.0"], "inf"),
        (["escape-scan", "--rho", "0.1,nan", "--T", "2.0"], "nan"),
    ],
)
def test_a_scale_that_is_not_finite_and_positive_exits_2(argv, value, ham_file, capsys):
    code, out, err = run([argv[0], "--ham", ham_file, *argv[1:]], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "message": f"rho must be positive and finite, got {value}"}


def test_near_resonant_bnf_exits_with_the_resonance(capsys, tmp_path):
    # |(2, -2).alpha| = 4e-11 passes the divisor floor, and the rounding it
    # blows up spoils realification at m = 5; the error names that divisor
    path = tmp_path / "near.json"
    V = Polynomial(2, {(3, 0, 0, 0): 0.1, (1, 0, 0, 2): 0.1})
    EllipticHamiltonian((1.0, 1.0 + 2e-11), V).save(path)
    code, out, err = run(["bnf", "--ham", str(path), "--m", "5"], capsys)
    assert code == 3 and out == ""
    error = json.loads(err)
    assert error["error"] == "ResonanceEncountered"
    assert error["message"] == "resonance at degree 4: k=(-2, 2), |k.alpha|=4.000e-11"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["drift", "--rho", "0.1", "--T", "0"],
        ["drift", "--rho", "0.1", "--T", "-5"],
        ["drift", "--rho", "0.1", "--T", "2.0", "--sample-stride", "0"],
        ["escape-scan", "--rho", "0.2,0.1", "--T", "-1"],
    ],
)
def test_bad_horizon_or_stride_exits_2(argv, ham_file, capsys):
    code, out, err = run([argv[0], "--ham", ham_file, *argv[1:]], capsys)
    assert code == 2
    assert out == ""
    report = json.loads(err)
    assert report["error"] == "ValueError"
    assert report["message"].startswith("need a finite T > 0 and sample_stride >= 1")


@pytest.mark.parametrize("command", ["drift", "escape-scan"])
def test_horizon_shorter_than_one_step_exits_2(command, ham_file, capsys):
    code, out, err = run([command, "--ham", ham_file, "--rho", "0.1", "--T", "0.004", "--dt", "0.01"], capsys)
    assert code == 2
    assert out == ""
    report = json.loads(err)
    assert report["error"] == "ValueError"
    assert report["message"].startswith("need T >= dt")


@pytest.mark.parametrize("command", ["drift", "escape-scan"])
def test_horizon_of_infinitely_many_steps_exits_2(command, ham_file, capsys):
    code, out, err = run([command, "--ham", ham_file, "--rho", "0.1", "--T", "1e308", "--dt", "1e-10"], capsys)
    assert code == 2
    assert out == ""
    report = json.loads(err)
    assert report["error"] == "ValueError"
    assert report["message"].startswith("need finitely many steps of dt in T")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--N", "0"], "N must be >= 1"),
        (["--N", "-1"], "N must be >= 1"),
        (["--threshold-factor", "-1"], "drift threshold factor must be > 0, got -1.0"),
        (["--threshold-factor", "0"], "drift threshold factor must be > 0, got 0.0"),
    ],
)
def test_bad_escape_scan_ensemble_or_threshold_exits_2(flags, message, ham_file, capsys):
    code, out, err = run(["escape-scan", "--ham", ham_file, "--rho", "0.2,0.1", "--T", "1.0", *flags], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValueError", "message": message}


@pytest.mark.parametrize(
    "rho, message",
    [
        ("0.3,0.3", "the rho grid must be strictly decreasing, got [0.3, 0.3]"),
        ("0.1,0.2", "the rho grid must be strictly decreasing, got [0.1, 0.2]"),
    ],
)
def test_a_repeated_or_increasing_rho_grid_exits_2(rho, message, ham_file, capsys):
    # a repeated rho divided by zero in the local slope and exited 3
    argv = ["--rho", rho, "--threshold-factor", "1e-9", "--T", "2", "--dt", "0.02", "--N", "2"]
    code, out, err = run(["escape-scan", "--ham", ham_file, *argv], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValueError", "message": message}


def _edited_spec_file(tmp_path, kind, edits, beta=None):
    """A saved spec of ``kind`` with ``edits`` to its fields and ``beta`` as
    its include_beta, written as JSON: the library refuses these values, so
    no spec object can hold them."""
    from hamlab.lab import ExperimentSpec, RandomHamiltonianParams

    data = ExperimentSpec(kind=kind, hamiltonian=RandomHamiltonianParams(n=2), N=2, T=1.0).to_json_dict()
    data.update(edits)
    if beta is not None:
        data["hamiltonian"]["data"]["include_beta"] = beta
    path = tmp_path / f"{kind}.spec.json"
    path.write_text(json.dumps(data))
    return str(path)


_EMPTY_GRID = "the rho grid must not be empty"
_BAD_BETA = "include_beta must be a symmetric n x n matrix"
_BETAS = {
    "not_symmetric": [[1.0, 2.0], [0.0, 1.0]],
    "3x3": np.eye(3).tolist(),
    "2x3": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
}


@pytest.mark.parametrize(
    "argv, code, error, message",
    [
        pytest.param(["bnf", "HAM", "--m", "2", "--D-work", "90"], 3, "OrderTooHigh",
                     "D_work=90 implies more than 2000000 candidate monomials", id="bnf_budget"),
        pytest.param(["bnf", "HAM", "--m", "3", "--D-work", "6"], 2, "ValueError",
                     "D_work must be at least 2m+1", id="bnf_D_work"),
        pytest.param(["bnf", "HAM", "--m", "0"], 2, "ValueError", "m must be >= 1", id="bnf_m"),
        pytest.param(["bnf-curve", "HAM", "--m-max", "1"], 2, "ValueError", "m_max must be >= 2", id="bnf_curve_m_max"),
        pytest.param(["drift", "HAM", "--rho", "0.1", "--N", "0"], 2, "ValueError", "N must be >= 1", id="drift_N"),
        pytest.param(["escape-scan", "HAM", "--rho", ","], 2, "ValueError", _EMPTY_GRID, id="escape_scan_empty_grid"),
        *(
            pytest.param(["experiment", (kind, {"rho_grid": []}, None)], 2, "ValueError", _EMPTY_GRID,
                         id=f"{kind}_empty_grid")
            for kind in EXPERIMENT_KINDS
        ),
        *(
            pytest.param(["experiment", ("drift_vs_rho", {}, beta)], 2, "ValueError", _BAD_BETA, id=f"beta_{name}")
            for name, beta in _BETAS.items()
        ),
        # blank entries among numbers were dropped, and the rest ran
        pytest.param(["escape-scan", "HAM", "--rho", "0.2,,0.1"], 2, "ValueError",
                     "blank entry in the list '0.2,,0.1'", id="escape_scan_blank_rho"),
        pytest.param(["dioph", "--alpha", "1,,1.618", "--K", "10"], 2, "ValueError",
                     "blank entry in the list '1,,1.618'", id="dioph_blank_alpha"),
        # numpy refused these in its own words
        pytest.param(["experiment", ("drift_vs_rho", {}, [["a", "b"], ["c", "d"]])], 2, "ValueError",
                     "include_beta must hold real numbers, got dtype <U1", id="beta_strings"),
        pytest.param(["experiment", ("drift_vs_rho", {}, [[1.0, None], [None, 1.0]])], 2, "ValueError",
                     "include_beta must hold real numbers, got dtype object", id="beta_nones"),
    ],
)
def test_refusals_exit_with_one_json_error(argv, code, error, message, ham_file, capsys, tmp_path):
    # no other test reaches these refusals; an empty grid escaped main as an
    # IndexError on convex_vs_generic, and exited 0 on the other kinds
    args = []
    for a in argv:
        if a == "HAM":
            args += ["--ham", ham_file]
        elif isinstance(a, tuple):
            args += ["--spec", _edited_spec_file(tmp_path, *a)]
        else:
            args.append(a)
    got, out, err = run(args, capsys)
    assert (got, out) == (code, "")
    assert json.loads(err) == {"error": error, "message": message}


def test_a_json_term_of_mixed_forms_exits_2(ham_file, capsys):
    # an exact re with a float im loaded as the real part alone
    data = json.loads(open(ham_file).read())
    data["V"]["terms"][0].update(re="1/10", im=0.25)
    with open(ham_file, "w") as fh:
        json.dump(data, fh)
    code, out, err = run(["bnf", "--ham", ham_file, "--m", "2"], capsys)
    assert (code, out) == (2, "")
    k = data["V"]["terms"][0]["k"]
    message = f"term {k}: re and im must both be 'p/q' strings or both numbers"
    assert json.loads(err) == {"error": "ValueError", "message": message}


_NAN_V = ("V", {"re": math.nan}, "coefficients of V must be finite")
_COMPLEX_V = ("V", {"re": 0.1, "im": 0.2}, "coefficients of V must be real")
_INFINITE_S = ("s", math.inf, "domain radius s must be finite and exceed 3")
# exact values beyond the float range, written out as digits
_HUGE_V = ("V", {"re": str(10**400), "im": "0"}, "coefficients of V must be finite")
_HUGE_ALPHA = ("alpha", [1.0, str(10**400)], "frequency components must be finite")


@pytest.mark.parametrize(
    "field, value, message",
    [_NAN_V, _COMPLEX_V, _INFINITE_S, _HUGE_V, _HUGE_ALPHA],
    ids=["nan_V", "complex_V", "inf_s", "huge_exact_V", "huge_exact_alpha"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["bnf", "--m", "2"],
        ["bnf-curve", "--m-max", "3"],
        ["drift", "--rho", "0.1", "--N", "2", "--T", "1.0"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_hamiltonian_file_with_a_non_finite_or_complex_value_exits_2(argv, field, value, message, ham_file, capsys):
    # bnf-curve and drift exited 0 with nan or inf rows, bnf failed on json's
    # NaN or on a resonance; json writes and reads NaN and Infinity literals
    data = json.loads(open(ham_file).read())
    if field == "V":
        data["V"]["terms"][0].update(value)
    else:
        data[field] = value
    with open(ham_file, "w") as fh:
        json.dump(data, fh)
    code, out, err = run([*argv, "--ham", ham_file], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValueError", "message": message}


@pytest.mark.parametrize(
    "data, message",
    [
        ({"coefficient_scale": math.nan}, "coefficient_scale must be finite and >= 0, got nan"),
        ({"coefficient_scale": math.inf}, "coefficient_scale must be finite and >= 0, got inf"),
        ({"coefficient_scale": -1.0}, "coefficient_scale must be finite and >= 0, got -1.0"),
        ({"n_terms": -2}, "n_terms must be >= 0, got -2"),
    ],
)
def test_experiment_with_a_bad_random_scale_or_term_count_exits_2(data, message, capsys, tmp_path):
    spec = {"kind": "remainder_scaling", "hamiltonian": {"type": "random", "data": {"n": 2, **data}}}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, err = run(["experiment", "--spec", str(spec_path)], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValueError", "message": message}


def test_more_initial_conditions_than_the_sampler_keys_exit_2(ham_file, capsys):
    code, out, err = run(["drift", "--ham", ham_file, "--rho", "0.1", "--N", "1048577", "--T", "1.0"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValueError", "message": "N must be at most 2**20, got 1048577"}


def test_escape_scan_table_is_the_drift_vs_rho_table(ham_file, capsys):
    from hamlab.lab import ExperimentSpec, run_drift_vs_rho, write_csv

    code, out, _ = run(
        ["escape-scan", "--ham", ham_file, "--rho", "0.2,0.1", "--T", "2.0", "--dt", "0.05", "--N", "2"],
        capsys,
    )
    assert code == 0
    spec = ExperimentSpec(
        kind="drift_vs_rho", hamiltonian=EllipticHamiltonian.load(ham_file),
        rho_grid=(0.2, 0.1), T=2.0, dt=0.05, N=2,
    )
    result = run_drift_vs_rho(spec)
    assert out.splitlines()[0] == ",".join(result.csv_fields)
    buf = io.StringIO()
    write_csv(buf, result.csv_fields, result.csv_rows)
    assert out == buf.getvalue()


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


def test_experiment_with_an_unknown_hamiltonian_key_exits_2(capsys, tmp_path):
    spec = {
        "kind": "bnf_roundtrip",
        "hamiltonian": {"type": "random", "data": {"n": 2, "alpha_mode": "explicit"}},
        "m_max": 2,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, err = run(["experiment", "--spec", str(spec_path)], capsys)
    assert code == 2 and out == ""
    err = json.loads(err)
    assert err["error"] == "TypeError" and "unexpected keyword argument 'alpha_mode'" in err["message"]


@pytest.mark.parametrize("n", [0, -1])
def test_experiment_with_a_random_dimension_below_one_exits_2(n, capsys, tmp_path):
    spec = {"kind": "remainder_scaling", "hamiltonian": {"type": "random", "data": {"n": n}}}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, err = run(["experiment", "--spec", str(spec_path)], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValueError", "message": "dimension n must be >= 1"}


@pytest.mark.parametrize("seed", ["-1", "4294967296"])
@pytest.mark.parametrize(
    "argv",
    [
        ["drift", "--rho", "0.1", "--T", "0.1", "--N", "2"],
        ["escape-scan", "--rho", "0.2,0.1", "--T", "0.1", "--N", "2"],
        ["sdm-prevalence", "--n", "2", "--tau", "6", "--samples", "100"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_seed_outside_32_bits_exits_2(argv, seed, ham_file, capsys):
    ham = [] if argv[0] == "sdm-prevalence" else ["--ham", ham_file]
    code, out, err = run([*argv, *ham, "--seed", seed], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValueError", "message": f"seed must be in [0, 2**32), got {seed}"}


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


def test_empty_dimensions_exit_2_with_their_names(capsys):
    code, out, err = run(["dioph", "--alpha", ",", "--K", "10"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValueError", "message": "need at least one frequency"}
    code, out, err = run(["sdm-prevalence", "--n", "0", "--tau", "6.0"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValueError", "message": "dimension n must be >= 1"}


def test_negative_dimension_and_L_max_below_one_exit_2_with_their_names(capsys, tmp_path):
    beta = tmp_path / "beta.json"
    beta.write_text(json.dumps([[1.0, 0.0], [0.0, -2.0]]))
    for argv, message in (
        (["sdm-prevalence", "--n", "2", "--tau", "6", "--Lmax", "0"], "L_max must be >= 1"),
        (["sdm-prevalence", "--n", "-1", "--tau", "6"], "dimension n must be >= 1"),
        (["sdm-check", "--quadratic", str(beta), "--gamma", "0.1", "--tau", "6", "--Lmax", "0"], "L_max must be >= 1"),
    ):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "ValueError", "message": message}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize(
    "cls",
    [*_subclasses(HamlabError), HamlabError, ZeroDivisionError, OverflowError,
     ValueError, KeyError, TypeError, OSError],
    ids=lambda cls: cls.__name__,
)
def test_exit_code_follows_the_error_class(cls, capsys, monkeypatch):
    # 2 for a validation error, 3 for any other hamlab or arithmetic error,
    # whatever arguments the class's constructor takes
    exc = cls.__new__(cls)
    exc.args = ("boom",)

    def failing(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_sdm_enum", failing)
    code, out, err = run(["sdm-enum", "--n", "2", "--k", "1", "--L", "1"], capsys)
    validation = (DimensionMismatch, ValueError, KeyError, TypeError, OSError)
    assert code == (2 if issubclass(cls, validation) else 3)
    assert out == ""
    assert json.loads(err) == {"error": cls.__name__, "message": str(exc)}


@pytest.mark.parametrize(
    "argv",
    [
        ["bnf", "--ham", "HAM", "--m", "2"],
        ["dioph", "--alpha", f"1.0,{GOLDEN_F}", "--K", "30", "--fit"],
        ["sdm-check", "--quadratic", "BETA", "--gamma", "0.1", "--tau", "3.0", "--Lmax", "2"],
        ["sdm-enum", "--n", "2", "--k", "1", "--L", "2"],
        ["sdm-prevalence", "--n", "2", "--tau", "6.0", "--Lmax", "2", "--samples", "150"],
        ["bnf-curve", "--ham", "HAM", "--m-max", "3", "--radius", "0.5"],
        ["drift", "--ham", "HAM", "--rho", "0.1", "--N", "2", "--T", "1.0", "--dt", "0.05"],
        ["escape-scan", "--ham", "HAM", "--rho", "0.2,0.1", "--T", "1.0", "--dt", "0.05", "--N", "2"],
        ["experiment", "--spec", "SPEC"],
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_and_out_write_the_same_bytes(argv, ham_file, capsys, tmp_path):
    from hamlab.lab import ExperimentSpec

    beta, spec = tmp_path / "beta.json", tmp_path / "spec.json"
    beta.write_text(json.dumps({"beta": [[1.0, 0.2], [0.2, -2.0]]}))
    ExperimentSpec(kind="bnf_roundtrip", hamiltonian=EllipticHamiltonian.load(ham_file), m_max=2).save(spec)
    argv = [{"HAM": ham_file, "BETA": str(beta), "SPEC": str(spec)}.get(a, a) for a in argv]
    code, out, _ = run(argv, capsys)
    assert code == 0 and out
    target = tmp_path / "report"
    code, out_with_file, _ = run([*argv, "--out", str(target)], capsys)
    assert (code, out_with_file) == (0, "")
    # an experiment writes <out>.json (and, with a table, .csv and .gp)
    written = tmp_path / "report.json" if argv[0] == "experiment" else target
    assert written.read_bytes() == out.encode()


def test_readme_lists_every_subcommand():
    text = README.read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("hamlab ")]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(listed) == sorted(sub.choices)
    assert len(listed) == len(set(listed))
