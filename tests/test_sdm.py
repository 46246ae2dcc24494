"""Rational subspace enumeration and quadratic/polynomial Morse-type checks."""

import itertools
import math

import numpy as np
import pytest

from hamlab.errors import CombinatorialBudgetExceeded
from hamlab.poly import ActionPolynomial
from hamlab.sdm import (
    BadSet,
    PrevalenceReport,
    RationalSubspace,
    SdmVerdict,
    bad_set_quadratic,
    check_sdm_polynomial,
    check_sdm_quadratic,
    enumerate_GL,
    prevalence_estimate,
    primitive_vectors,
    subspaces_up_to,
    truncated_measure_bound,
)


# -- enumeration ---------------------------------------------------------------


def test_primitive_vectors_small_cases():
    vecs = primitive_vectors(2, 1)
    assert set(vecs) == {(0, 1), (1, -1), (1, 0), (1, 1)}
    # all entries bounded, gcd 1, sign-normalized
    for v in primitive_vectors(3, 2):
        assert max(abs(x) for x in v) <= 2
        assert math.gcd(*[abs(x) for x in v]) == 1
        nz = [x for x in v if x != 0]
        assert nz[0] > 0


def brute_force_subspaces(n, k, L):
    """Distinct k-dim subspaces via rounded-projector dedup (oracle)."""
    cands = primitive_vectors(n, L)
    seen = {}
    for combo in itertools.combinations(cands, n - k):
        A = np.array(combo, dtype=float)
        if np.linalg.matrix_rank(A, tol=1e-9) < n - k:
            continue
        _, _, Vt = np.linalg.svd(A)
        E = Vt[n - k:]
        P = np.round(E.T @ E, 6) + 0.0
        seen[P.tobytes()] = P
    return list(seen.values())


@pytest.mark.parametrize(
    "n,k,L", [(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 2, 2)]
)
def test_enumeration_matches_projector_oracle(n, k, L):
    subs = enumerate_GL(n, k, L)
    oracle = brute_force_subspaces(n, k, L)
    assert len(subs) == len(oracle)
    # match each enumerated projector to exactly one oracle projector
    for sub in subs:
        P = sub.projector()
        dists = [np.max(np.abs(P - Q)) for Q in oracle]
        assert min(dists) < 1e-6


def test_enumeration_known_counts():
    # lines in the plane through entries <= 1: 4 directions
    assert len(enumerate_GL(2, 1, 1)) == 4
    # k = n returns the whole space exactly once
    full = enumerate_GL(3, 3, 2)
    assert len(full) == 1 and full[0].k == 3


def test_enumeration_validation_and_budget():
    with pytest.raises(ValueError):
        enumerate_GL(3, 0, 1)
    with pytest.raises(ValueError):
        enumerate_GL(3, 1, 0)
    with pytest.raises(CombinatorialBudgetExceeded):
        enumerate_GL(4, 1, 3)


def test_basis_invariants():
    for sub in subspaces_up_to(3, 2, include_full=False):
        E, F = sub.e_basis, sub.f_basis
        assert E @ E.T == pytest.approx(np.eye(sub.k), abs=1e-12)
        assert F @ F.T == pytest.approx(np.eye(sub.n - sub.k), abs=1e-12)
        assert E @ F.T == pytest.approx(np.zeros((sub.k, sub.n - sub.k)), abs=1e-12)
        # f_basis really spans the integer complement
        for v in sub.perp_basis:
            v = np.array(v, dtype=float)
            assert E @ v == pytest.approx(np.zeros(sub.k), abs=1e-10)


def test_projectors_pairwise_distinct():
    subs = subspaces_up_to(3, 2, include_full=False)
    Ps = [s.projector() for s in subs]
    for i in range(len(Ps)):
        for j in range(i + 1, len(Ps)):
            if subs[i].k == subs[j].k:
                assert np.max(np.abs(Ps[i] - Ps[j])) > 1e-10


def test_minimal_L_recorded():
    subs = subspaces_up_to(2, 3, include_full=False)
    by_key = {s.canonical_key: s for s in subs}
    # the coordinate axes already appear at L = 1
    axis = by_key[((1, 0),)]
    assert axis.L == 1
    # a direction like (1, 3) needs L = 3
    steep = by_key[((1, 3),)]
    assert steep.L == 3


# -- quadratic check -----------------------------------------------------------


def test_identity_form_passes_with_unit_margin():
    v = check_sdm_quadratic(None, np.eye(3), 0.5, 3.0, 2)
    assert isinstance(v, SdmVerdict)
    assert v.passed
    # every restriction of the identity has all eigenvalues 1, margin L^tau >= 1
    assert v.gamma_margin == pytest.approx(1.0)


def test_hyperbolic_form_fails_on_diagonal_direction():
    # diag(1, -1) restricted to the line spanned by (1, 1) is zero
    v = check_sdm_quadratic(None, np.diag([1.0, -1.0]), 0.5, 3.0, 1)
    assert not v.passed
    assert v.gamma_margin == pytest.approx(0.0, abs=1e-12)
    L, basis, point, margin = v.worst_case
    assert point is None and margin == pytest.approx(0.0, abs=1e-12)


def test_indefinite_but_nondegenerate_form_passes():
    v = check_sdm_quadratic(None, np.diag([1.0, -2.0]), 0.1, 3.0, 2)
    assert v.passed


def test_margin_scales_linearly_in_beta():
    beta = np.array([[1.0, 0.3, 0.0], [0.3, -1.7, 0.2], [0.0, 0.2, 0.9]])
    v1 = check_sdm_quadratic(None, beta, 0.01, 2.0, 2)
    v2 = check_sdm_quadratic(None, 3.0 * beta, 0.01, 2.0, 2)
    assert v2.gamma_margin == pytest.approx(3.0 * v1.gamma_margin, rel=1e-9)


def test_quadratic_validation():
    with pytest.raises(ValueError):
        check_sdm_quadratic(None, np.array([[1.0, 1.0], [0.0, 1.0]]), 0.1, 3.0, 1)
    with pytest.raises(ValueError):
        check_sdm_quadratic(None, np.eye(2), 0.1, 1.0, 1)  # tau' < 2
    with pytest.raises(ValueError):
        check_sdm_quadratic(None, np.eye(2), 2.0, 3.0, 1)  # gamma' > 1
    with pytest.raises(ValueError):
        check_sdm_quadratic(None, np.ones(3), 0.1, 3.0, 1)


def test_gamma_threshold_is_inclusive():
    # margin exactly equals gamma': verdict passes
    v = check_sdm_quadratic(None, np.eye(2), 1.0, 2.0, 1)
    assert v.gamma_margin == pytest.approx(1.0)
    assert v.passed


# -- bad sets ------------------------------------------------------------------


def test_bad_set_measure_bound_random_matrices():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        A = rng.normal(size=(k, k))
        beta_k = 0.5 * (A + A.T)
        kappa = float(rng.uniform(0.01, 0.5))
        bs = bad_set_quadratic(beta_k, kappa)
        assert bs.total_measure <= 2 * k * kappa + 1e-12
        # intervals are sorted and disjoint
        for (a1, b1), (a2, b2) in zip(bs.intervals, bs.intervals[1:]):
            assert b1 < a2
        # outside the bad set the shifted matrix is kappa-nondegenerate
        for _ in range(5):
            xi = float(rng.uniform(-4, 4))
            sig = float(np.min(np.abs(np.linalg.eigvalsh(beta_k - xi * np.eye(k)))))
            if not bs.contains(xi):
                assert sig > kappa - 1e-10
            else:
                assert sig <= kappa + 1e-10


def test_bad_set_validation():
    with pytest.raises(ValueError):
        bad_set_quadratic(np.eye(2), 0.0)
    assert isinstance(bad_set_quadratic(np.array([[1.0]]), 0.1), BadSet)


# -- polynomial check ----------------------------------------------------------


def test_polynomial_check_agrees_with_quadratic_for_pure_forms():
    # h = (1/2) I^T beta I has constant Hessian beta and gradient beta I
    beta = np.diag([1.0, -2.0])
    h = ActionPolynomial(
        2, {(2, 0): 0.5, (0, 2): -1.0}
    )
    vq = check_sdm_quadratic(None, beta, 0.05, 3.0, 2)
    vp = check_sdm_polynomial(h, (np.zeros(2), 1.0), 0.05, 3.0, 2)
    assert vq.passed
    assert vp.status in ("certified-pass", "inconclusive")
    # the quadratic margin bounds the polynomial margin from above
    assert vp.gamma_margin <= vq.gamma_margin + 1e-9


def test_polynomial_check_flat_function_fails():
    # a cubic with vanishing gradient and Hessian at an interior point
    h = ActionPolynomial(2, {(3, 0): 1.0, (0, 3): 1.0})
    v = check_sdm_polynomial(h, (np.zeros(2), 0.5), 0.05, 3.0, 1, grid_density=5)
    assert v.status == "certified-fail"
    assert not v.passed
    L, basis, point, margin = v.worst_case
    assert point is not None


def test_polynomial_check_strongly_convex_passes():
    h = ActionPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): 2.0, (0, 1): 2.0})
    v = check_sdm_polynomial(
        h, (np.array([1.0, 1.0]), 0.3), 0.05, 3.0, 2, grid_density=7
    )
    assert v.status == "certified-pass"
    assert v.passed


def _unbatched_polynomial_verdict(h, B, gamma_p, tau_p, L_max, grid_density):
    """The polynomial check with one norm and one eigvalsh call per
    (subspace, grid point): the reference for the batched implementation."""
    from hamlab.sdm import WorstCase, _grid_points

    n = h.n
    r_box = float(np.max(np.abs(B[0]))) + B[1]
    idx = range(n)
    M2 = math.sqrt(math.fsum(
        h.partial(i).partial(j).majorant_norm(r_box) ** 2 for i in idx for j in idx
    ))
    M3 = math.sqrt(math.fsum(
        h.partial(i).partial(j).partial(k).majorant_norm(r_box) ** 2
        for i in idx for j in idx for k in idx
    ))
    pts, delta = _grid_points(np.asarray(B[0], dtype=float), float(B[1]), grid_density)
    status, worst, best = "certified-pass", None, math.inf
    for sub in subspaces_up_to(n, L_max):
        E = sub.restriction_matrix()
        thr = gamma_p * float(sub.L) ** (-tau_p)
        for x, g_full, H_full in zip(pts, h.grad(pts), h.hess(pts)):
            g = float(np.linalg.norm(E.T @ g_full))
            sig = float(np.min(np.abs(np.linalg.eigvalsh(E.T @ H_full @ E))))
            margin = max(g, sig) * float(sub.L) ** tau_p
            best = min(best, margin)
            if g - M2 * delta > thr or sig - M3 * delta > thr:
                continue
            case = WorstCase(sub.L, sub.perp_basis or sub.canonical_key, tuple(x), margin)
            if g <= thr and sig <= thr:
                return "certified-fail", best, case
            status = "inconclusive"
            worst = worst or case
    return status, best, worst


@pytest.mark.parametrize(
    "terms, B, L_max, density",
    [
        ({(2, 0): 0.5, (0, 2): -1.0}, (np.zeros(2), 1.0), 2, 5),
        ({(3, 0): 1.0, (0, 3): 1.0}, (np.zeros(2), 0.5), 1, 5),
        ({(2, 0): 1.0, (0, 2): 1.0, (1, 0): 2.0, (0, 1): 2.0}, (np.array([1.0, 1.0]), 0.3), 2, 7),
        # a coarse grid leaves this one inconclusive
        ({(2, 0): 1.0, (0, 2): 1.0, (1, 0): 0.1, (0, 1): -0.1, (3, 0): 0.5}, (np.zeros(2), 0.5), 2, 4),
        (
            {(1, 0, 0): 1.0, (0, 1, 0): 1.3, (0, 0, 1): 2.1, (2, 0, 0): 0.9,
             (0, 2, 0): 1.2, (0, 0, 2): 1.1, (1, 1, 0): 0.3, (1, 1, 1): 0.02},
            ((0.5, 0.5, 0.5), 0.2), 2, 4,
        ),
    ],
)
def test_polynomial_check_matches_unbatched_reference(terms, B, L_max, density):
    h = ActionPolynomial(len(next(iter(terms))), terms)
    v = check_sdm_polynomial(h, B, 0.05, 3.0, L_max, grid_density=density)
    status, best, worst = _unbatched_polynomial_verdict(h, B, 0.05, 3.0, L_max, density)
    assert v.status == status
    assert v.gamma_margin == pytest.approx(best, rel=1e-12)
    if worst is None:
        assert v.worst_case is None
    else:
        assert v.worst_case[:3] == worst[:3]
        assert v.worst_case.margin == pytest.approx(worst.margin, rel=1e-12)


def test_polynomial_check_validation():
    with pytest.raises(ValueError):
        check_sdm_polynomial(ActionPolynomial(2, {(1, 0): 1.0}), (np.zeros(2), 1.0), 0.1, 3.0, 1)
    h = ActionPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
    with pytest.raises(ValueError):
        check_sdm_polynomial(h, (np.zeros(2), 1.0), 0.1, 3.0, 1, grid_density=1)


# -- measure and prevalence ----------------------------------------------------


def test_truncated_measure_bound_values():
    # n(n+1) sum L^{n^2 - tau'} gamma'
    got = truncated_measure_bound(2, 6.0, 0.1, 3)
    expect = 2 * 3 * (1.0 + 2.0**-2 + 3.0**-2) * 0.1
    assert got == pytest.approx(expect)
    # halving gamma' halves the bound
    assert truncated_measure_bound(2, 6.0, 0.05, 3) == pytest.approx(expect / 2)
    # bound vanishes with gamma'
    assert truncated_measure_bound(2, 6.0, 0.0, 3) == 0.0


def test_prevalence_report_consistency():
    rep = prevalence_estimate(2, 6.0, 0.05, 2, samples=300, seed=7)
    assert isinstance(rep, PrevalenceReport)
    assert 0.0 <= rep.bad_fraction <= 1.0
    assert 0.0 <= rep.bad_fraction_random <= 1.0
    # the truncated measure bound dominates the observed probe bad fraction
    # up to a few binomial standard deviations
    assert rep.bad_fraction <= rep.theory_bound + 4 * math.sqrt(
        max(rep.bad_fraction, 0.01) / rep.samples
    ) + 0.05
    # deterministic in the seed
    rep2 = prevalence_estimate(2, 6.0, 0.05, 2, samples=300, seed=7)
    assert rep2.bad_fraction == rep.bad_fraction
    assert rep2.bad_fraction_random == rep.bad_fraction_random


def test_prevalence_shrinks_with_gamma():
    hi = prevalence_estimate(2, 6.0, 0.2, 2, samples=400, seed=1)
    lo = prevalence_estimate(2, 6.0, 0.01, 2, samples=400, seed=1)
    assert lo.bad_fraction <= hi.bad_fraction


def test_prevalence_validation():
    with pytest.raises(ValueError):
        prevalence_estimate(2, 6.0, 0.1, 2, samples=10)
