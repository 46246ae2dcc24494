"""Experiment harness: generators, specs, artifacts, and small end-to-end runs."""

import hashlib
import io
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
    default_frequencies,
    generate_random_hamiltonian,
    gnuplot_script,
    run_experiment,
    stream_rng,
    validate_report,
    write_csv,
    write_json,
)
from hamlab.birkhoff import remainder_curve
from hamlab.model import EllipticHamiltonian
from hamlab.poly import Polynomial, complexify_unnormalized
from test_poly import paired_part

GOLDEN_F = (1 + math.sqrt(5)) / 2


def csv_text(fieldnames, rows) -> str:
    """What write_csv writes for these rows, as a string."""
    buf = io.StringIO()
    write_csv(buf, fieldnames, rows)
    return buf.getvalue()


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
        RandomHamiltonianParams(n=2, degree_max=2)
    with pytest.raises(TypeError, match="alpha_mode"):
        RandomHamiltonianParams(n=2, alpha_mode="explicit")


def test_generator_uses_a_given_alpha():
    assert generate_random_hamiltonian(RandomHamiltonianParams(n=2, alpha=(1.0, 1.3))).alpha == (1.0, 1.3)
    assert generate_random_hamiltonian(RandomHamiltonianParams(n=3)).alpha == default_frequencies(3)


def extract_quartic_action_part(V):
    """Recover the matrix beta from the paired degree-4 part of V: the paired
    degree-4 chart monomials read off beta I . I, whose I_i I_j coefficient
    is beta_ii on the diagonal and 2 beta_ij off it."""
    n = V.n
    V4 = Polynomial(n, {k: c for k, c in V.terms.items() if sum(k) == 4})
    h = paired_part(complexify_unnormalized(V4.to_float()), exact=False)
    beta = np.zeros((n, n))
    for k, c in h.terms.items():
        i, j = [i for i in range(n) for _ in range(k[i])]
        beta[i, j] = beta[j, i] = c if i == j else 0.5 * c
    return beta


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
    params = RandomHamiltonianParams(n=2, seed=5, include_beta=[[0.5, -0.25], [-0.25, 1.0]])
    spec = ExperimentSpec(kind="drift_vs_rho", hamiltonian=params, rho_grid=(0.1, 0.05), N=4)
    path = tmp_path / "spec.json"
    spec.save(path)
    spec2 = ExperimentSpec.load(path)
    assert spec2.kind == spec.kind
    assert spec2.rho_grid == spec.rho_grid
    assert isinstance(spec2.hamiltonian, RandomHamiltonianParams)
    assert spec2.hamiltonian == params


def test_spec_with_beta_matrix_compares_and_hashes_after_reload(tmp_path):
    a = RandomHamiltonianParams(n=2, include_beta=np.eye(2))
    b = RandomHamiltonianParams(n=2, include_beta=[[1.0, 0.0], [0.0, 1.0]])
    assert a == b and hash(a) == hash(b)
    assert a != RandomHamiltonianParams(n=2, include_beta=np.diag([1.0, 2.0]))
    spec = ExperimentSpec(kind="drift_vs_rho", hamiltonian=a, rho_grid=(0.1,), N=4)
    path = tmp_path / "spec.json"
    spec.save(path)
    again = ExperimentSpec.load(path).hamiltonian
    assert again == a and hash(again) == hash(a)
    assert generate_random_hamiltonian(again).V == generate_random_hamiltonian(a).V
    with pytest.raises(ValueError, match="include_beta must be a matrix"):
        RandomHamiltonianParams(n=2, include_beta=[1.0, 2.0])
    with pytest.raises(ValueError, match="include_beta must be a matrix"):
        RandomHamiltonianParams(n=2, include_beta="random")


@pytest.mark.parametrize("n", [0, -1])
def test_random_params_refuse_a_dimension_below_one(n):
    with pytest.raises(ValueError, match="dimension n must be >= 1"):
        RandomHamiltonianParams(n=n)


@pytest.mark.parametrize("seed", [-1, 2**32, 2**33 + 5])
def test_a_seed_outside_32_bits_is_refused(seed):
    # seed << 32 wraps in 64 bits: 2**32 would give seed 0's Hamiltonian
    with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*32\), got {seed}"):
        stream_rng(seed, 0)
    with pytest.raises(ValueError, match="seed must be in"):
        generate_random_hamiltonian(RandomHamiltonianParams(n=2, seed=seed))


def test_the_largest_32_bit_seed_has_its_own_stream():
    top = generate_random_hamiltonian(RandomHamiltonianParams(n=2, seed=2**32 - 1)).V
    assert top != generate_random_hamiltonian(RandomHamiltonianParams(n=2, seed=0)).V


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


@pytest.mark.parametrize(
    "spec, size, digest",
    [
        (
            ExperimentSpec(
                kind="drift_vs_rho",
                hamiltonian=RandomHamiltonianParams(
                    n=2, alpha=(1.0, 1.3),
                    include_beta=np.array([[1.0, -0.5], [-0.5, 2.0]]), seed=3, degree_max=5,
                ),
                rho_grid=(0.1, 0.05),
                N=4,
                output="runs/drift",
            ),
            578,
            "ef1a0bfcbd73cd2b8e80bd4f62a599bd3081f2a744223a1e2f37c1ac3c5264cf",
        ),
        (
            ExperimentSpec(
                kind="remainder_scaling",
                hamiltonian=EllipticHamiltonian(
                    (1.0, GOLDEN_F), Polynomial(2, {(3, 0, 0, 0): 0.1, (0, 1, 1, 1): -0.08}), s=4.0
                ),
                rho_grid=(0.2, 0.1, 0.05),
                m_max=3,
                radius=1.0,
            ),
            694,
            "94fadf52c0f95ad5c0acd88ae969192054123dba18d5349ca1be3fc040296577",
        ),
    ],
    ids=["random", "explicit"],
)
def test_spec_file_bytes_are_pinned(spec, size, digest, tmp_path):
    path = tmp_path / "spec.json"
    spec.save(path)
    body = path.read_bytes()
    assert (len(body), hashlib.sha256(body).hexdigest()) == (size, digest)
    ExperimentSpec.load(path).save(path)
    assert path.read_bytes() == body


@pytest.mark.parametrize("radius", [-0.5, 0.0, math.inf, math.nan])
def test_spec_rejects_non_positive_radius(radius):
    # an infinite radius gave a remainder_scaling report of null minima and no fit
    with pytest.raises(ValueError, match=f"radius must be positive and finite, got {radius}"):
        ExperimentSpec(kind="remainder_scaling", hamiltonian=RandomHamiltonianParams(n=2), radius=radius)


@pytest.mark.parametrize("grid", [(0.1, 0.1), (0.05, 0.1)])
def test_drift_vs_rho_refuses_a_grid_not_strictly_decreasing_before_integrating(grid, monkeypatch):
    import hamlab.dynamics as dynamics

    monkeypatch.setattr(dynamics, "integrate_batch", None)
    spec = ExperimentSpec(kind="drift_vs_rho", hamiltonian=RandomHamiltonianParams(n=2), rho_grid=grid, N=2, T=1.0)
    with pytest.raises(ValueError, match="the rho grid must be strictly decreasing"):
        run_experiment(spec)


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_spec_refuses_an_empty_rho_grid_for_every_kind(kind):
    # convex_vs_generic died on an IndexError, remainder_scaling gave a null
    # fit and drift_vs_rho no rows
    with pytest.raises(ValueError, match="the rho grid must not be empty"):
        ExperimentSpec(kind=kind, hamiltonian=RandomHamiltonianParams(n=2), rho_grid=())


@pytest.mark.parametrize(
    "beta",
    [[[1.0, 2.0], [0.0, 1.0]], np.eye(3), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
    ids=["not_symmetric", "3x3", "2x3"],
)
def test_random_params_refuse_include_beta_not_a_symmetric_n_by_n_matrix(beta):
    # each was accepted and saved, then failed only when the spec ran, with
    # three different messages
    with pytest.raises(ValueError, match="include_beta must be a symmetric n x n matrix"):
        RandomHamiltonianParams(n=2, include_beta=beta)


@pytest.mark.parametrize(
    "beta, dtype",
    [([["a", "b"], ["c", "d"]], "<U1"), ([[1.0, None], [None, 1.0]], "object")],
    ids=["strings", "nones"],
)
def test_random_params_refuse_include_beta_not_of_numbers(beta, dtype):
    # numpy refused these in its own words, a DTypePromotionError and a
    # TypeError on NoneType - NoneType
    with pytest.raises(ValueError) as info:
        RandomHamiltonianParams(n=2, include_beta=beta)
    assert str(info.value) == f"include_beta must hold real numbers, got dtype {dtype}"


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


def test_number_list_rows_are_written_as_csv_writer_writes_them():
    import csv

    rows = [
        [0, 0.1, -0.0, 1.0 / 3.0, 1e-300, -2.5e22],
        [-7, math.nan, math.inf, -math.inf, 10**20, 5e-324],
        [3, 1.0, 2.0, 0.0, -1, 123456789.125],
    ]
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow("abcdef")
    writer.writerows(rows)
    assert csv_text(tuple("abcdef"), rows) == want.getvalue()
    # dict rows in the same file keep the csv.writer path
    assert csv_text(("a", "b"), [[1, 0.5], {"a": "x,y", "b": None}]) == 'a,b\n1,0.5\n"x,y",\n'


def test_write_json_sorted(tmp_path):
    p = tmp_path / "r.json"
    write_json(p, {"b": 1, "a": 2})
    body = p.read_text()
    assert body.index('"a"') < body.index('"b"')
    assert json.loads(body) == {"a": 2, "b": 1}


def test_write_json_to_a_stream_writes_the_file_bytes(tmp_path):
    obj = {"b": [1.5, None], "a": "x"}
    p, buf = tmp_path / "r.json", io.StringIO()
    write_json(p, obj)
    write_json(buf, obj)
    assert buf.getvalue().encode() == p.read_bytes()
    # a report that fails to serialize leaves the stream as it was
    with pytest.raises(TypeError):
        write_json(buf, {"x": object()})
    assert buf.getvalue().encode() == p.read_bytes()


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

    # a Hamiltonian file goes through the same writer and keeps its bytes
    H = EllipticHamiltonian((1.0, GOLDEN_F), Polynomial(2, {(3, 0, 0, 0): 0.1}), s=4.0)
    saved = json.dumps(H.to_json_dict(), indent=1).encode()
    with open(plain) as old:
        H.save(plain)
        assert old.read() == want.decode()  # replaced, not truncated in place
    assert plain.read_bytes() == saved
    H.save(link)
    assert link.is_symlink() and target.read_bytes() == saved
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        H.save(fifo)
        got = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and got == saved
    assert EllipticHamiltonian.load(plain).to_json_dict() == H.to_json_dict()


def test_gnuplot_script_contents():
    s = gnuplot_script("data.csv", "drift")
    assert "set logscale y" in s
    assert "using 1:2" in s
    assert "data.csv" in s


def test_validate_report_catches_missing_and_mistyped():
    good = {"rows": [], "rho": 0.1}
    validate_report(good, "convex_vs_generic")
    with pytest.raises(ValueError):
        validate_report({"rows": []}, "convex_vs_generic")
    with pytest.raises(ValueError):
        validate_report({"rows": "x", "rho": 0.1}, "convex_vs_generic")


def test_validate_report_refuses_bool_for_numbers():
    # bool is an int subclass, but only a bool field takes one
    with pytest.raises(ValueError, match="'rho' has type bool"):
        validate_report({"rows": [], "rho": True}, "convex_vs_generic")
    report = {"m": False, "roundtrip_error": 0.0, "conjugacy_error": 0, "smallest_divisor": 1.0}
    with pytest.raises(ValueError, match="'m' has type bool"):
        validate_report(report, "bnf_roundtrip")
    # a bool field takes a bool, and a float field an int
    report = {"rows": [], "fit": {}, "integrable": True, "gamma_hat": 1, "tau": 1.0}
    validate_report(report, "remainder_scaling")


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
    assert csv_text(result.csv_fields, result.csv_rows).startswith("rho,m,remainder_majorant,is_min")


def per_rho_curves(spec):
    """The remainder_scaling curves by one normal form per rho: the route
    that run_remainder_scaling replaced by one pass over the whole grid."""
    H = spec.resolve_hamiltonian()
    curves = []
    for rho in spec.rho_grid:
        Hs = H.scaled(rho)
        if not Hs.V.terms:
            curves.append([(m, 0.0) for m in range(2, spec.m_max + 1)])
        else:
            curves.append(remainder_curve(Hs, spec.m_max, radius=spec.radius))
    return curves


def grid_curves(result, m_max):
    """The per-rho curves of a remainder_scaling result, read off its CSV rows."""
    rows = [(r["m"], r["remainder_majorant"]) for r in result.csv_rows]
    return [rows[i:i + m_max - 1] for i in range(0, len(rows), m_max - 1)]


SCALING_HAMILTONIANS = [
    small_cubic(),
    generate_random_hamiltonian(RandomHamiltonianParams(n=2, degree_max=5, n_terms=8, seed=3)),
]


@pytest.mark.parametrize("H", SCALING_HAMILTONIANS)
@pytest.mark.parametrize("radius", [1.0, None])
@pytest.mark.parametrize(
    "rho_grid, exact",
    [((0.2, 0.1, 0.05, 0.025), True), ((0.025, 0.2, 0.05), True), ((0.3, 0.07, 0.011), False)],
)
def test_remainder_scaling_matches_one_normal_form_per_rho(H, radius, rho_grid, exact):
    # rho/rho0 a power of 2 scales every float of the one pass exactly
    spec = ExperimentSpec(
        kind="remainder_scaling", hamiltonian=H, rho_grid=rho_grid, m_max=4, radius=radius, gamma_K=50
    )
    result = run_experiment(spec)
    got, want = grid_curves(result, spec.m_max), per_rho_curves(spec)
    assert [[m for m, _ in c] for c in got] == [[m for m, _ in c] for c in want]
    if exact:
        assert got == want
    else:
        for g, w in zip(got, want):
            for (_, a), (_, b) in zip(g, w):
                assert a == b or abs(a - b) <= 1e-12 * abs(b)
    assert [r["m_opt"] for r in result.report["rows"]] == [
        min(c, key=lambda t: t[1])[0] for c in want
    ]


def test_remainder_scaling_gives_the_zero_curve_where_the_scaled_V_vanishes():
    # the least subnormal times 0.9 rounds to itself, times 0.1 to zero
    H = EllipticHamiltonian((1.0, GOLDEN_F), Polynomial(2, {(3, 0, 0, 0): 5e-324}), s=4.0)
    assert H.scaled(0.9).V.terms and not H.scaled(0.1).V.terms
    spec = ExperimentSpec(
        kind="remainder_scaling", hamiltonian=H, rho_grid=(0.1, 0.9), m_max=3, radius=1.0, gamma_K=50
    )
    result = run_experiment(spec)
    assert grid_curves(result, spec.m_max) == per_rho_curves(spec)
    assert grid_curves(result, spec.m_max)[0] == [(2, 0.0), (3, 0.0)]
    assert not result.report["integrable"]


def test_run_remainder_scaling_integrable_flag():
    H = EllipticHamiltonian((1.0, GOLDEN_F), Polynomial.zero(2), s=4.0)
    spec = ExperimentSpec(kind="remainder_scaling", hamiltonian=H, m_max=3)
    rep = run_experiment(spec).report
    assert rep["integrable"]
    assert all(r["min_remainder"] == 0.0 for r in rep["rows"])
    assert rep["fit"]["slope"] is None


def infinite_minimum_spec():
    """The criterion-3 perturbation with each coefficient scaled by a factor in
    [0.75, 1.25] drawn at seed 0; at rho = 0.3 its tail estimate fails and the
    curve is inf at every m."""
    C3 = {(3, 0, 0, 0): 0.4, (1, 2, 0, 0): -0.3, (0, 0, 2, 2): 0.25, (2, 0, 1, 1): 0.2}
    f = 1.0 + 0.25 * np.random.default_rng([0, 1]).uniform(-1.0, 1.0, size=len(C3))
    V = Polynomial(2, {k: c * float(x) for (k, c), x in zip(C3.items(), f)})
    return ExperimentSpec(
        kind="remainder_scaling",
        hamiltonian=EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0),
        rho_grid=(0.3, 0.07, 0.011),
        m_max=4,
        radius=1.0,
        tau=1.0,
        gamma_K=200,
    )


def test_remainder_scaling_does_not_fit_through_an_infinite_minimum():
    rep = run_experiment(infinite_minimum_spec()).report
    minima = [r["min_remainder"] for r in rep["rows"]]
    assert minima[0] is None and all(0.0 < r < math.inf for r in minima[1:])
    assert rep["fit"] == {"slope": None, "intercept": None, "r2": None}


def refuse_constant(name):
    raise ValueError(f"not a strict JSON number: {name}")


def test_reports_are_strict_json(tmp_path):
    # an integrable H has no gamma_hat and no divisor, and the rho = 0.3
    # minimum above is inf: each is written as null, and write_json refuses an
    # inf that slips through
    H0 = EllipticHamiltonian((1.0, GOLDEN_F), Polynomial.zero(2), s=4.0)
    specs = {
        "integrable": ExperimentSpec(kind="remainder_scaling", hamiltonian=H0, m_max=3),
        "infinite": infinite_minimum_spec(),
        "roundtrip": ExperimentSpec(kind="bnf_roundtrip", hamiltonian=H0, m_max=2),
    }
    reports = {}
    for name, spec in specs.items():
        spec.output = str(tmp_path / name)
        run_experiment(spec)
        reports[name] = json.loads((tmp_path / f"{name}.json").read_text(), parse_constant=refuse_constant)
    assert reports["integrable"]["gamma_hat"] is None
    assert reports["infinite"]["rows"][0]["min_remainder"] is None
    assert reports["roundtrip"]["smallest_divisor"] is None
    buf = io.StringIO()
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(buf, {"x": [1.0, bad]})
    assert buf.getvalue() == ""


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


@pytest.mark.parametrize("tau_p, gamma_p", [(1.5, 0.05), (6.0, 2.0)])
def test_run_sdm_prevalence_rejects_exponents_before_writing(tau_p, gamma_p, tmp_path):
    spec = ExperimentSpec(
        kind="sdm_prevalence", hamiltonian=RandomHamiltonianParams(n=2),
        samples=100, L_max=2, gamma_p=gamma_p, tau_p=tau_p, output=str(tmp_path / "prev"),
    )
    with pytest.raises(ValueError):
        run_experiment(spec)
    assert list(tmp_path.iterdir()) == []


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
    assert csv_text(a.csv_fields, a.csv_rows) == csv_text(b.csv_fields, b.csv_rows)
    assert json.dumps(a.report, sort_keys=True) == json.dumps(b.report, sort_keys=True)
