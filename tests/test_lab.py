"""Experiment harness: generators, specs, artifacts, and small end-to-end runs."""

import json
import math
import os
import stat

import numpy as np
import pytest

from hamlab.lab import (
    EXPERIMENT_KINDS,
    ExperimentSpec,
    RandomHamiltonianParams,
    beta_action_polynomial,
    csv_text,
    default_frequencies,
    extract_quartic_action_part,
    generate_random_hamiltonian,
    gnuplot_script,
    run_experiment,
    stream_rng,
    validate_report,
    write_csv,
    write_json,
)
from hamlab.model import EllipticHamiltonian
from hamlab.poly import Polynomial

GOLDEN_F = (1 + math.sqrt(5)) / 2


# -- infrastructure ------------------------------------------------------------


def test_stream_rng_streams_are_stable_and_distinct():
    a = stream_rng(7, 0).uniform(size=4)
    b = stream_rng(7, 0).uniform(size=4)
    c = stream_rng(7, 1).uniform(size=4)
    assert a == pytest.approx(b)
    assert np.max(np.abs(a - c)) > 1e-6


# -- random Hamiltonians -------------------------------------------------------


def test_default_frequencies_nonresonant():
    from hamlab.diophantine import check_nonresonant

    for n in (1, 2, 3, 4):
        alpha = default_frequencies(n)
        assert len(alpha) == n
        assert not check_nonresonant(alpha, 8).resonant
    assert default_frequencies(2)[1] == pytest.approx(GOLDEN_F)


def test_generator_determinism_and_shape():
    params = RandomHamiltonianParams(n=2, seed=11, n_terms=5)
    H1 = generate_random_hamiltonian(params)
    H2 = generate_random_hamiltonian(params)
    assert H1.V == H2.V
    assert H1.alpha_floats() == pytest.approx(H2.alpha_floats())
    assert H1.V.min_degree() >= 3
    assert H1.V.degree() <= params.degree_max
    other = generate_random_hamiltonian(RandomHamiltonianParams(n=2, seed=12, n_terms=5))
    assert other.V != H1.V


def test_generator_zero_scale_gives_integrable():
    H = generate_random_hamiltonian(
        RandomHamiltonianParams(n=2, coefficient_scale=0.0)
    )
    assert H.V.is_zero()


def test_generator_validation():
    with pytest.raises(ValueError):
        RandomHamiltonianParams(n=2, alpha_mode="explicit")
    with pytest.raises(ValueError):
        RandomHamiltonianParams(n=2, degree_max=2)
    with pytest.raises(ValueError):
        RandomHamiltonianParams(n=2, alpha_mode="sideways")


def test_beta_embedding_round_trip():
    beta = np.array([[1.0, -0.5], [-0.5, 2.0]])
    params = RandomHamiltonianParams(n=2, include_beta=beta, seed=4, degree_max=5)
    H = generate_random_hamiltonian(params)
    got = extract_quartic_action_part(H.V)
    assert np.array_equal(got, beta)


def test_beta_action_polynomial_values():
    beta = np.array([[2.0, 1.0], [1.0, -1.0]])
    h = beta_action_polynomial(beta)
    I = np.array([0.5, 2.0])
    assert h.evaluate(I) == pytest.approx(float(I @ beta @ I))


# -- spec serialization --------------------------------------------------------


def test_spec_round_trip_random(tmp_path):
    params = RandomHamiltonianParams(n=2, seed=5, include_beta="random")
    spec = ExperimentSpec(kind="drift_vs_rho", hamiltonian=params, rho_grid=(0.1, 0.05), N=4)
    path = tmp_path / "spec.json"
    spec.save(path)
    spec2 = ExperimentSpec.load(path)
    assert spec2.kind == spec.kind
    assert spec2.rho_grid == spec.rho_grid
    assert isinstance(spec2.hamiltonian, RandomHamiltonianParams)
    assert spec2.hamiltonian == params


def test_spec_round_trip_explicit(tmp_path):
    V = Polynomial(2, {(3, 0, 0, 0): 0.1})
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    spec = ExperimentSpec(kind="bnf_roundtrip", hamiltonian=H, m_max=3)
    path = tmp_path / "spec.json"
    spec.save(path)
    spec2 = ExperimentSpec.load(path)
    assert isinstance(spec2.hamiltonian, EllipticHamiltonian)
    assert spec2.hamiltonian.V == H.V
    assert spec2.m_max == 3


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ExperimentSpec(kind="nope", hamiltonian=RandomHamiltonianParams(n=2))
    assert set(EXPERIMENT_KINDS) == {
        "remainder_scaling",
        "sdm_prevalence",
        "convex_vs_generic",
        "drift_vs_rho",
        "bnf_roundtrip",
    }


# -- artifacts -----------------------------------------------------------------


def test_csv_is_deterministic_and_lossless(tmp_path):
    rows = [
        {"a": 0.1, "b": None, "c": True},
        {"a": 1.0 / 3.0, "b": "x", "c": False},
    ]
    text = csv_text(("a", "b", "c"), rows)
    assert text == csv_text(("a", "b", "c"), rows)
    assert text.splitlines()[0] == "a,b,c"
    # repr floats round-trip exactly
    assert float(text.splitlines()[2].split(",")[0]) == 1.0 / 3.0
    # booleans encode as ints, None as empty
    assert text.splitlines()[1] == "0.1,,1"
    p = tmp_path / "t.csv"
    write_csv(p, ("a", "b", "c"), rows)
    assert p.read_text() == text


def test_write_json_sorted(tmp_path):
    p = tmp_path / "r.json"
    write_json(p, {"b": 1, "a": 2})
    body = p.read_text()
    assert body.index('"a"') < body.index('"b"')
    assert json.loads(body) == {"a": 2, "b": 1}


def test_artifact_rewrite_replaces_file_with_identical_bytes(tmp_path):
    obj = {"b": [1.5, None], "a": "x"}
    rows = [{"m": 2, "r": 0.25}, {"m": 3, "r": 1.0 / 3.0}]
    spec = ExperimentSpec(kind="sdm_prevalence", hamiltonian=RandomHamiltonianParams(n=2))
    pj, pc, ps = tmp_path / "r.json", tmp_path / "r.csv", tmp_path / "spec.json"
    for _ in range(2):  # the second pass rewrites existing files
        write_json(pj, obj)
        write_csv(str(pc), ("m", "r"), rows)
        spec.save(ps)
        assert pj.read_bytes() == (json.dumps(obj, indent=1, sort_keys=True) + "\n").encode()
        assert pc.read_bytes() == csv_text(("m", "r"), rows).encode()
        assert ps.read_bytes() == json.dumps(spec.to_json_dict(), indent=1, sort_keys=True).encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json", "spec.json"]

    out = tmp_path / "exp" / "scan"
    out.parent.mkdir()
    spec = ExperimentSpec(
        kind="remainder_scaling",
        hamiltonian=EllipticHamiltonian((1.0, GOLDEN_F), Polynomial(2, {(3, 0, 0, 0): 0.3}), s=4.0),
        rho_grid=(0.2, 0.1, 0.05),
        m_max=3,
        output=str(out),
    )
    run_experiment(spec)
    first = {p.name: p.read_bytes() for p in out.parent.iterdir()}
    run_experiment(spec)
    assert {p.name: p.read_bytes() for p in out.parent.iterdir()} == first
    assert sorted(first) == ["scan.csv", "scan.gp", "scan.json"]


def test_artifact_write_keeps_what_is_not_a_plain_file(tmp_path):
    obj = {"a": 1}
    want = (json.dumps(obj, indent=1, sort_keys=True) + "\n").encode()

    # a symlink stays a symlink and its target takes the bytes
    target = tmp_path / "target.json"
    target.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(target.name)
    write_json(link, obj)
    assert link.is_symlink() and target.read_bytes() == want

    # a hard-linked file is written through, so both names see the new bytes
    twin = tmp_path / "twin.json"
    os.link(target, twin)
    write_json(target, {"b": 2})
    assert os.path.samefile(target, twin) and twin.read_bytes() == target.read_bytes()

    # a FIFO (a node that is not a regular file, like os.devnull) stays a FIFO
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_json(fifo, obj)
        got = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and got == want

    # a replaced regular file keeps its permission bits
    plain = tmp_path / "plain.json"
    plain.write_text("old")
    plain.chmod(0o640)
    write_json(plain, obj)
    assert stat.S_IMODE(plain.stat().st_mode) == 0o640 and plain.read_bytes() == want

    # a failing body leaves the old file and no temporary behind
    with pytest.raises(TypeError):
        write_json(plain, {"x": object()})
    assert plain.read_bytes() == want

    # a missing directory raises the error of the path itself
    with pytest.raises(FileNotFoundError):
        write_json(tmp_path / "missing" / "r.json", obj)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link.json", "pipe", "plain.json", "target.json", "twin.json"
    ]


def test_gnuplot_script_contents():
    s = gnuplot_script("data.csv", 1, 3, "drift", logy=True)
    assert "set logscale y" in s
    assert "using 1:3" in s
    assert "data.csv" in s


def test_validate_report_catches_missing_and_mistyped():
    good = {"rows": [], "rho": 0.1}
    validate_report(good, "convex_vs_generic")
    with pytest.raises(ValueError):
        validate_report({"rows": []}, "convex_vs_generic")
    with pytest.raises(ValueError):
        validate_report({"rows": "x", "rho": 0.1}, "convex_vs_generic")


# -- end-to-end experiment runs ------------------------------------------------


def small_cubic():
    V = Polynomial(2, {(3, 0, 0, 0): 0.1, (0, 1, 1, 1): -0.08})
    return EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)


def test_run_remainder_scaling_small():
    spec = ExperimentSpec(
        kind="remainder_scaling",
        hamiltonian=small_cubic(),
        rho_grid=(0.1, 0.05, 0.025),
        m_max=3,
        radius=1.0,
        gamma_K=50,
    )
    result = run_experiment(spec)
    rep = result.report
    assert not rep["integrable"]
    assert len(rep["rows"]) == 3
    assert rep["fit"]["slope"] is not None
    assert result.csv().startswith("rho,m,remainder_majorant,is_min")


def test_run_remainder_scaling_integrable_flag():
    H = EllipticHamiltonian((1.0, GOLDEN_F), Polynomial.zero(2), s=4.0)
    spec = ExperimentSpec(kind="remainder_scaling", hamiltonian=H, m_max=3)
    rep = run_experiment(spec).report
    assert rep["integrable"]
    assert all(r["min_remainder"] == 0.0 for r in rep["rows"])
    assert rep["fit"]["slope"] is None


def test_run_sdm_prevalence_small():
    spec = ExperimentSpec(
        kind="sdm_prevalence",
        hamiltonian=RandomHamiltonianParams(n=2),
        samples=200,
        L_max=2,
        gamma_p=0.05,
        tau_p=6.0,
    )
    rep = run_experiment(spec).report
    assert rep["samples"] == 200
    assert 0.0 <= rep["bad_fraction"] <= 1.0
    assert rep["bound_finite"]


def test_run_drift_vs_rho_small(tmp_path):
    spec = ExperimentSpec(
        kind="drift_vs_rho",
        hamiltonian=small_cubic(),
        rho_grid=(0.2, 0.1),
        N=3,
        T=5.0,
        dt=0.05,
        output=str(tmp_path / "drift"),
    )
    result = run_experiment(spec)
    assert len(result.report["rows"]) == 2
    assert (tmp_path / "drift.json").exists()
    assert (tmp_path / "drift.csv").exists()
    assert (tmp_path / "drift.gp").exists()
    on_disk = json.loads((tmp_path / "drift.json").read_text())
    assert on_disk == json.loads(json.dumps(result.report))


def test_run_bnf_roundtrip_small():
    spec = ExperimentSpec(kind="bnf_roundtrip", hamiltonian=small_cubic(), m_max=2)
    rep = run_experiment(spec).report
    assert rep["m"] == 2
    assert rep["roundtrip_error"] < 1e-6
    assert rep["smallest_divisor"] > 0.0


def test_run_convex_vs_generic_small():
    params = RandomHamiltonianParams(n=2, seed=3, n_terms=3, coefficient_scale=0.2)
    spec = ExperimentSpec(
        kind="convex_vs_generic",
        hamiltonian=params,
        rho_grid=(0.1,),
        N=3,
        T=5.0,
        dt=0.05,
        L_max=2,
    )
    result = run_experiment(spec)
    rows = result.report["rows"]
    assert [r["label"] for r in rows] == [
        "definite",
        "indefinite_sdm_pass",
        "sdm_fail",
    ]
    by_label = {r["label"]: r for r in rows}
    assert by_label["definite"]["sdm_passed"]
    assert not by_label["sdm_fail"]["sdm_passed"]


def test_run_convex_vs_generic_requires_params():
    spec = ExperimentSpec(kind="convex_vs_generic", hamiltonian=small_cubic())
    with pytest.raises(ValueError):
        run_experiment(spec)


def test_reruns_are_byte_identical(tmp_path):
    spec = ExperimentSpec(
        kind="drift_vs_rho",
        hamiltonian=RandomHamiltonianParams(n=2, seed=9, n_terms=3, coefficient_scale=0.2),
        rho_grid=(0.1, 0.05),
        N=3,
        T=4.0,
        dt=0.05,
    )
    a = run_experiment(spec)
    b = run_experiment(spec)
    assert a.csv() == b.csv()
    assert json.dumps(a.report, sort_keys=True) == json.dumps(b.report, sort_keys=True)
