"""Rational subspace enumeration and quadratic/polynomial Morse-type checks."""

import copy
import hashlib
import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from hamlab import sdm
from hamlab.errors import CombinatorialBudgetExceeded, DimensionMismatch
from hamlab.poly import ActionPolynomial, CompiledPoly
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
from hamlab.sdm import _plucker, _rref_keys, _whole_space


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


def _projector(sub):
    """The orthogonal projector onto a subspace, from its orthonormal rows."""
    return sub.e_basis.T @ sub.e_basis


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
        P = _projector(sub)
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
    for sub in subspaces_up_to(3, 2)[:-1]:
        E = sub.e_basis
        assert E @ E.T == pytest.approx(np.eye(sub.k), abs=1e-12)
        # the integer generators span the complement
        for v in sub.perp_basis:
            v = np.array(v, dtype=float)
            assert E @ v == pytest.approx(np.zeros(sub.k), abs=1e-10)


def test_projectors_pairwise_distinct():
    subs = subspaces_up_to(3, 2)[:-1]
    Ps = [_projector(s) for s in subs]
    for i in range(len(Ps)):
        for j in range(i + 1, len(Ps)):
            if subs[i].k == subs[j].k:
                assert np.max(np.abs(Ps[i] - Ps[j])) > 1e-10


def test_minimal_L_recorded():
    subs = subspaces_up_to(2, 3)[:-1]
    by_key = {s.canonical_key: s for s in subs}
    # the coordinate axes already appear at L = 1
    axis = by_key[((1, 0),)]
    assert axis.L == 1
    # a direction like (1, 3) needs L = 3
    steep = by_key[((1, 3),)]
    assert steep.L == 3


def _reference_primitive(v):
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    if g == 0:
        return None
    v = tuple(x // g for x in v)
    first = next(x for x in v if x != 0)
    return v if first > 0 else tuple(-x for x in v)


def _fraction_key(rows):
    """Primitive-integer RREF by Fraction Gauss-Jordan elimination (the
    reference for the integer key)."""
    M = [[Fraction(x) for x in r] for r in rows]
    nrows, ncols = len(M), len(M[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = M[r][c]
        M[r] = [x / inv for x in M[r]]
        for i in range(nrows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        r += 1
        if r == nrows:
            break
    if r < nrows:
        return None
    key = []
    for row in M:
        den = 1
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
        key.append(_reference_primitive([int(x * den) for x in row]))
    return tuple(key)


def _reference_enumerate_GL(n, k, L):
    """Fraction keys and one SVD per new key, in lexicographic tuple order,
    stamped with L: (subspace, basis) pairs, each basis beside its value."""
    if k == n:
        return [(_whole_space(n), np.eye(n))]
    cube = itertools.product(range(-L, L + 1), repeat=n)
    cands = sorted({_reference_primitive(v) for v in cube} - {None})
    seen = {}
    for combo in itertools.combinations(cands, n - k):
        key = _fraction_key(combo)
        if key is None or key in seen:
            continue
        A = np.array(combo, dtype=float)
        _, _, Vt = np.linalg.svd(A)
        seen[key] = RationalSubspace(n=n, k=k, L=L, perp_basis=combo, canonical_key=key), Vt[n - k:]
    return [seen[key] for key in sorted(seen)]


def _reference_subspaces_up_to(n, L_max):
    """One enumeration per L <= L_max; a subspace keeps its first L, and the
    basis of its generators at that L."""
    out = {}
    for L in range(1, L_max + 1):
        for k in range(1, n):
            for sub, E in _reference_enumerate_GL(n, k, L):
                out.setdefault(sub.canonical_key, (sub, E))
    return [*out.values(), (_whole_space(n), np.eye(n))]


def _assert_same_subspaces(got, want):
    """``got`` equals the values of the reference pairs ``want`` field by
    field, and each basis has the bits of the reference basis beside it."""
    assert len(got) == len(want)
    for g, (w, E) in zip(got, want):
        assert (g.n, g.k, g.L) == (w.n, w.k, w.L)
        assert g.perp_basis == w.perp_basis
        assert g.canonical_key == w.canonical_key
        assert g.e_basis.shape == E.shape and g.e_basis.dtype == E.dtype
        assert g.e_basis.tobytes() == E.tobytes()


@pytest.mark.parametrize("n,L", [(2, 3), (2, 6), (3, 1), (3, 2), (3, 3), (4, 1)])
def test_subspaces_up_to_matches_fraction_reference(n, L):
    _assert_same_subspaces(subspaces_up_to(n, L), _reference_subspaces_up_to(n, L))


@pytest.mark.parametrize("n,k,L", [(3, 1, 2), (3, 1, 3), (2, 1, 6), (4, 2, 1), (5, 3, 1)])
def test_enumerate_GL_matches_fraction_reference(n, k, L):
    got = enumerate_GL(n, k, L)
    _assert_same_subspaces(got, _reference_enumerate_GL(n, k, L))
    # the lexicographic representative at L is not always the one of least L
    if (n, k, L) == (3, 1, 3):
        least = {s.canonical_key: s.perp_basis for s in subspaces_up_to(n, L) if s.k == k}
        moved = sum(s.perp_basis != least[s.canonical_key] for s in got)
        assert moved == 281 and len(got) == 3217


def _batched_keys(tuples):
    """The key of each of a list of equally shaped tuples by the array pass:
    Plücker vectors for all of them, RREF rows for the independent ones, None
    for a dependent one."""
    A = np.array(tuples, dtype=np.int64).reshape(len(tuples), len(tuples[0]), -1)
    P = _plucker(A)
    ok = np.flatnonzero(P.any(axis=1))
    keys = [None] * len(tuples)
    if len(ok):
        for i, key in zip(ok, _rref_keys(A[ok], P[ok]).tolist()):
            keys[i] = tuple(map(tuple, key))
    return keys


def test_int_key_matches_fraction_key():
    rng = np.random.default_rng(11)
    by_shape = {}
    for _ in range(3000):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        rows = rng.integers(-4, 5, size=(m, n))
        if m > 1 and rng.random() < 0.3:
            # a combination of the other rows: rank-deficient
            j = int(rng.integers(m))
            rows[j] = rng.integers(-3, 4, size=m - 1) @ np.delete(rows, j, axis=0)
        by_shape.setdefault((m, n), []).append(tuple(tuple(int(x) for x in r) for r in rows))
    cases = 0
    for tuples in by_shape.values():
        # one stack per shape, each tuple checked against its own Fraction key
        for rows, got in zip(tuples, _batched_keys(tuples)):
            want = _fraction_key(rows)
            assert got == want, rows
            cases += want is None
    # both outcomes are exercised
    assert 300 < cases < 2700
    assert _batched_keys([((2, 4, 6), (1, 2, 3)), ((0, 0, 0), (0, 0, 0))]) == [None, None]
    assert _batched_keys([((0, 0, 0),)]) == [None]
    assert _batched_keys([((0, -2, 4),)]) == [((0, 1, -2),)]


def test_enumeration_builds_no_basis(monkeypatch):
    want = subspaces_up_to(3, 3), enumerate_GL(3, 1, 3)

    def refused(*args, **kwargs):
        raise AssertionError("the enumeration computed an SVD")

    monkeypatch.setattr(np.linalg, "svd", refused)
    assert (subspaces_up_to(3, 3), enumerate_GL(3, 1, 3)) == want


@pytest.mark.parametrize("n,L,per_sub", [(2, 6, 1), (3, 3, 1), (3, 2, 50), (4, 1, 7)])
def test_stacks_hold_the_bases_of_their_subspaces(n, L, per_sub):
    """The stacks walk the subspaces of subspaces_up_to in list order, one L
    and one dimension per stack, with that L as an int, their generators and
    bases."""
    subs = iter(subspaces_up_to(n, L))
    for L_stack, G, E in sdm._stacks(sdm._up_to(n, L), per_sub):
        assert type(L_stack) is int
        assert len(G) == len(E) >= 1 and E.shape[1:] == (n - G.shape[1], n)
        for G_sub, E_sub in zip(G, E):
            sub = next(subs)
            assert (sub.L, sub.perp_basis, sub.k) == (L_stack, tuple(map(tuple, G_sub.tolist())), n - G.shape[1])
            assert E_sub.tobytes() == sub.e_basis.tobytes()
    assert next(subs, None) is None


def _reference_powers(L, scale, p):
    """scale * L^p of every L, as a column, by one Python float power per
    value up to max(L): the table the checks used when a stack held many L."""
    return np.array([scale * float(l) ** p for l in range(1, int(L.max()) + 1)])[L - 1, None]


@pytest.mark.parametrize("gamma_p,tau_p", [(0.05, 6.0), (0.1, 3.0), (1.0, 2.0), (1e-3, 7.3), (0.37, 2.5)])
def test_scalar_thresholds_equal_the_power_table(gamma_p, tau_p):
    """A stack's threshold and margin factor, one Python float power each,
    have the bits of the per-entry table for L = 1..8."""
    L = np.arange(1, 9)
    thr, factor = _reference_powers(L, gamma_p, -tau_p)[:, 0], _reference_powers(L, 1.0, tau_p)[:, 0]
    for l in L.tolist():
        assert np.float64(gamma_p * float(l) ** -tau_p).tobytes() == thr[l - 1].tobytes()
        assert np.float64(float(l) ** tau_p).tobytes() == factor[l - 1].tobytes()
        # the margins of the identity, whose restrictions have sigma_min 1
        assert sdm._margins(np.eye(3)[None], np.eye(3)[None], l, tau_p).tobytes() == factor[l - 1].tobytes()


@pytest.mark.parametrize("n,L", [(2, 4), (3, 2), (3, 3)])
def test_subspaces_up_to_is_a_prefix_of_the_next_L(n, L):
    """Each subspace keeps its least L and the first tuple at that L, so the
    list up to L is the list up to L + 1 cut at L, less the whole space."""
    got = subspaces_up_to(n, L)[:-1]
    want = [s for s in subspaces_up_to(n, L + 1) if s.L <= L and s.k < n]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.n, g.k, g.L, g.perp_basis, g.canonical_key) == (w.n, w.k, w.L, w.perp_basis, w.canonical_key)


def test_checks_build_no_subspace_values(monkeypatch):
    from hamlab.lab import ExperimentSpec, RandomHamiltonianParams, run_experiment

    def refused(*args, **kwargs):
        raise AssertionError("a RationalSubspace was built")

    monkeypatch.setattr(RationalSubspace, "__new__", refused)
    with pytest.raises(AssertionError, match="RationalSubspace"):
        subspaces_up_to(2, 1)  # the guard bites
    beta = np.array([[1.0, 0.3, 0.0], [0.3, -1.7, 0.2], [0.0, 0.2, 0.9]])
    h = ActionPolynomial(2, {(3, 0): -0.46, (1, 2): 0.18, (2, 0): -0.01, (0, 2): 0.03, (1, 0): -0.06})
    assert check_sdm_quadratic(beta, 0.01, 2.0, 3).worst_case.L == 3
    assert check_sdm_polynomial(h, ((-0.18, 0.01), 0.21), 0.05, 3.0, 2).status == "certified-fail"
    prevalence_estimate(3, 6.0, 0.05, 2, samples=200, seed=3)
    params = RandomHamiltonianParams(n=2, seed=3, n_terms=3, coefficient_scale=0.2)
    spec = ExperimentSpec(kind="convex_vs_generic", hamiltonian=params, rho_grid=(0.1,), N=3, T=1.0, dt=0.05, L_max=2)
    assert len(run_experiment(spec).report["rows"]) == 3


def test_subspaces_up_to_at_scale_is_pinned():
    """(4, 2) enumerates 3.3 million generator triples; its values are pinned
    by a digest recorded before the pass was rewritten."""
    subs = subspaces_up_to(4, 2)
    text = repr([(s.k, s.L, s.perp_basis, s.canonical_key) for s in subs])
    assert len(subs) == 279019
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2913efec416ad106117b6cd3d7d883dcc0506ddb18d89b58958bde6b50693ac1"
    )


def test_enumeration_sorts_without_lexsort(monkeypatch):
    """Every sort of the pass is on packed int64 words, never a sort over one
    column per minor or key entry."""
    want = subspaces_up_to(3, 3), subspaces_up_to(4, 1), enumerate_GL(3, 1, 3)

    def refused(*args, **kwargs):
        raise AssertionError("the enumeration called np.lexsort")

    monkeypatch.setattr(np, "lexsort", refused)
    assert (subspaces_up_to(3, 3), subspaces_up_to(4, 1), enumerate_GL(3, 1, 3)) == want


@pytest.mark.parametrize("bits", [3, 21, 40, 62])
def test_lexorder_of_wide_rows_matches_lexsort(bits):
    """Rows of five columns spanning 2^bits values each: past 12 bits they take
    more than one int64 word, and at 62 bits one word per column."""
    rng = np.random.default_rng(bits)
    X = rng.integers(-(2 ** (bits - 1)), 2 ** (bits - 1), size=(3000, 5))
    X[1000:2000] = X[:1000]  # equal rows
    X[2000:, :3] = X[:1000, :3]  # rows that differ late
    order = sdm._lexorder(X.T)
    assert sorted(order.tolist()) == list(range(len(X)))
    assert np.array_equal(X[order], X[np.lexsort(X.T[::-1])])


def test_subspaces_up_to_builds_one_value_per_subspace(monkeypatch):
    built, new = [], RationalSubspace.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(RationalSubspace, "__new__", counted)
    subs = subspaces_up_to(3, 3)
    assert len(built) == len(subs) == 3363


def test_subspaces_budget_is_checked_before_enumerating(monkeypatch):
    calls = []
    monkeypatch.setattr(sdm, "_plucker", lambda A: calls.append(A))
    monkeypatch.setattr(sdm, "_rref_keys", lambda A, P: calls.append(A))
    with pytest.raises(CombinatorialBudgetExceeded):
        subspaces_up_to(4, 3)
    with pytest.raises(CombinatorialBudgetExceeded):
        enumerate_GL(4, 1, 3)
    assert calls == []


@pytest.mark.parametrize("rows", [1, 7])
def test_chunk_size_does_not_change_results(rows, monkeypatch):
    """Tuples are keyed in chunks and subspaces checked in stacks of about
    blocks.BLOCK_ROWS rows: tiny chunks put a boundary almost everywhere."""
    from hamlab import blocks

    grid = [(2, 6), (3, 2), (4, 1)]
    want = {nL: subspaces_up_to(*nL) for nL in grid}
    want_gl = enumerate_GL(3, 1, 3)
    beta = np.array([[1.0, 0.3, 0.0], [0.3, -1.7, 0.2], [0.0, 0.2, 0.9]])
    h = ActionPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): 0.1, (0, 1): -0.1, (3, 0): 0.5})
    h_fail = ActionPolynomial(2, {(3, 0): -0.46, (1, 2): 0.18, (2, 0): -0.01, (0, 2): 0.03, (1, 0): -0.06})
    checks = [
        lambda: check_sdm_quadratic(beta, 0.01, 2.0, 2),
        lambda: check_sdm_polynomial(h, (np.zeros(2), 0.5), 0.05, 3.0, 2, grid_density=4),
        lambda: check_sdm_polynomial(h_fail, ((-0.18, 0.01), 0.21), 0.05, 3.0, 2, grid_density=5),
        lambda: prevalence_estimate(3, 6.0, 0.05, 1, samples=200, seed=3),
    ]
    verdicts = [repr(check()) for check in checks]
    monkeypatch.setattr(blocks, "BLOCK_ROWS", rows)
    for nL in grid:
        got = subspaces_up_to(*nL)
        assert got == want[nL]
        _assert_same_subspaces(got, _reference_subspaces_up_to(*nL))
    assert enumerate_GL(3, 1, 3) == want_gl
    assert [repr(check()) for check in checks] == verdicts


# -- quadratic check -----------------------------------------------------------


def test_identity_form_passes_with_unit_margin():
    v = check_sdm_quadratic(np.eye(3), 0.5, 3.0, 2)
    assert isinstance(v, SdmVerdict)
    assert v.passed
    # every restriction of the identity has all eigenvalues 1, margin L^tau >= 1
    assert v.gamma_margin == pytest.approx(1.0)


def test_hyperbolic_form_fails_on_diagonal_direction():
    # diag(1, -1) restricted to the line spanned by (1, 1) is zero
    v = check_sdm_quadratic(np.diag([1.0, -1.0]), 0.5, 3.0, 1)
    assert not v.passed
    assert v.gamma_margin == pytest.approx(0.0, abs=1e-12)
    L, basis, point, margin = v.worst_case
    assert point is None and margin == pytest.approx(0.0, abs=1e-12)


def test_indefinite_but_nondegenerate_form_passes():
    v = check_sdm_quadratic(np.diag([1.0, -2.0]), 0.1, 3.0, 2)
    assert v.passed


def test_margin_scales_linearly_in_beta():
    beta = np.array([[1.0, 0.3, 0.0], [0.3, -1.7, 0.2], [0.0, 0.2, 0.9]])
    v1 = check_sdm_quadratic(beta, 0.01, 2.0, 2)
    v2 = check_sdm_quadratic(3.0 * beta, 0.01, 2.0, 2)
    assert v2.gamma_margin == pytest.approx(3.0 * v1.gamma_margin, rel=1e-9)


def test_quadratic_validation():
    with pytest.raises(ValueError):
        check_sdm_quadratic(np.array([[1.0, 1.0], [0.0, 1.0]]), 0.1, 3.0, 1)
    with pytest.raises(ValueError):
        check_sdm_quadratic(np.eye(2), 0.1, 1.0, 1)  # tau' < 2
    with pytest.raises(ValueError):
        check_sdm_quadratic(np.eye(2), 2.0, 3.0, 1)  # gamma' > 1
    with pytest.raises(ValueError):
        check_sdm_quadratic(np.ones(3), 0.1, 3.0, 1)


def _per_subspace_verdict(beta, gamma_p, tau_p, L_max):
    """The quadratic check with one eigvalsh call per subspace."""
    best, worst = math.inf, None
    for sub in subspaces_up_to(beta.shape[0], L_max):
        E = sub.e_basis.T
        margin = float(np.min(np.abs(np.linalg.eigvalsh(E.T @ beta @ E)))) * float(sub.L) ** tau_p
        if margin < best:
            best = margin
            worst = (sub.L, sub.perp_basis or sub.canonical_key, None, margin)
    return best >= gamma_p, best, worst


@pytest.mark.parametrize(
    "beta, gamma_p, tau_p, L_max",
    [
        (np.eye(3), 0.5, 3.0, 2),
        (np.diag([1.0, -1.0]), 0.5, 3.0, 1),
        (np.diag([1.0, -2.0]), 0.1, 3.0, 2),
        (np.array([[1.0, 0.3, 0.0], [0.3, -1.7, 0.2], [0.0, 0.2, 0.9]]), 0.01, 2.0, 2),
        (3.0 * np.array([[1.0, 0.3, 0.0], [0.3, -1.7, 0.2], [0.0, 0.2, 0.9]]), 0.01, 2.0, 2),
        (np.eye(2), 1.0, 2.0, 1),
        (np.array([[0.5]]), 0.1, 3.0, 1),
    ],
)
def test_quadratic_check_matches_per_subspace_loop(beta, gamma_p, tau_p, L_max):
    v = check_sdm_quadratic(beta, gamma_p, tau_p, L_max)
    passed, best, worst = _per_subspace_verdict(beta, gamma_p, tau_p, L_max)
    assert v.passed == passed
    assert v.gamma_margin == best
    assert tuple(v.worst_case) == worst


def test_gamma_threshold_is_inclusive():
    # margin exactly equals gamma': verdict passes
    v = check_sdm_quadratic(np.eye(2), 1.0, 2.0, 1)
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


@pytest.mark.parametrize("kappa", [0.0, -0.1, math.nan])
def test_bad_set_refuses_a_kappa_not_above_zero(kappa):
    with pytest.raises(ValueError, match="kappa must be positive"):
        bad_set_quadratic(np.eye(2), kappa)


# -- polynomial check ----------------------------------------------------------


def test_polynomial_check_agrees_with_quadratic_for_pure_forms():
    # h = (1/2) I^T beta I has constant Hessian beta and gradient beta I
    beta = np.diag([1.0, -2.0])
    h = ActionPolynomial(
        2, {(2, 0): 0.5, (0, 2): -1.0}
    )
    vq = check_sdm_quadratic(beta, 0.05, 3.0, 2)
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
    grads = CompiledPoly(h.gradient())(pts)
    hessians = CompiledPoly([g.partial(j) for g in h.gradient() for j in idx])(pts).reshape(len(pts), n, n)
    status, worst, best = "certified-pass", None, math.inf
    for sub in subspaces_up_to(n, L_max):
        E = sub.e_basis.T
        thr = gamma_p * float(sub.L) ** (-tau_p)
        for x, g_full, H_full in zip(pts, grads, hessians):
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
        # the first violation witness comes before the least margin (0.0048)
        ({(3, 0): -0.46, (1, 2): 0.18, (2, 0): -0.01, (0, 2): 0.03, (1, 0): -0.06}, ((-0.18, 0.01), 0.21), 2, 5),
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
    with pytest.raises(DimensionMismatch):
        check_sdm_polynomial(h, (np.zeros(3), 0.5), 0.1, 3.0, 1)


@pytest.mark.parametrize(
    "B, message",
    [
        ((np.zeros(2), -0.1), "ball radius must be positive and finite, got -0.1"),
        ((np.zeros(2), 0.0), "ball radius must be positive and finite, got 0.0"),
        ((np.zeros(2), math.inf), "ball radius must be positive and finite, got inf"),
        ((np.zeros(2), math.nan), "ball radius must be positive and finite, got nan"),
        (((math.nan, 0.0), 0.5), r"ball center must be finite, got \(nan, 0.0\)"),
        (((0.0, -math.inf), 0.5), r"ball center must be finite, got \(0.0, -inf\)"),
    ],
)
def test_polynomial_check_refuses_a_bad_ball_by_name(B, message):
    h = ActionPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
    with pytest.raises(ValueError, match=message):
        check_sdm_polynomial(h, B, 0.1, 3.0, 1)


def test_exact_and_float_normal_forms_get_the_same_polynomial_verdict():
    # the coefficients of an exact h_m are read as floats, so the golden-field
    # normal form is checked like its float twin
    from hamlab import GOLDEN, EllipticHamiltonian, ExactComplex, Polynomial, birkhoff_normal_form

    alpha = (ExactComplex(1, field=GOLDEN), ExactComplex.omega(GOLDEN))
    V = Polynomial(2, {(4, 0, 0, 0): Fraction(1, 4), (0, 0, 2, 2): Fraction(1, 3)})
    H = EllipticHamiltonian(alpha, V, s=4.0)
    exact = birkhoff_normal_form(H, 2, exact=True).h_m
    assert any(isinstance(c, ExactComplex) for c in exact.terms.values())
    verdicts = [
        check_sdm_polynomial(h_m, ((0.05, 0.05), 0.04), 0.05, 6.0, 2)
        for h_m in (exact, birkhoff_normal_form(H, 2).h_m)
    ]
    assert verdicts[0] == verdicts[1]
    assert verdicts[0].status == "certified-pass"
    assert verdicts[0].gamma_margin == pytest.approx(0.394, abs=1e-3)


def test_compiled_coefficients_of_float_int_and_fraction_terms_are_unchanged():
    terms = {(2, 0): Fraction(1, 3), (1, 1): 2, (0, 2): 0.1}
    C = CompiledPoly([ActionPolynomial(2, terms)]).C
    assert C[:, 0].tolist() == [float(terms[k]) for k in sorted(terms)]


# -- measure and prevalence ----------------------------------------------------


@pytest.mark.parametrize("seed", [-1, 2**32, 2**64])
def test_prevalence_refuses_a_seed_outside_32_bits(seed):
    with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*32\), got {seed}"):
        prevalence_estimate(2, 6.0, 0.05, 1, samples=100, seed=seed)


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
    with pytest.raises(ValueError, match="tau'"):
        prevalence_estimate(2, 1.5, 0.1, 2, samples=100)
    with pytest.raises(ValueError, match="gamma'"):
        prevalence_estimate(2, 6.0, 2.0, 2, samples=100)


@pytest.mark.parametrize(
    "gamma_p, tau_p, message",
    [(math.nan, 6.0, "gamma' must be <= 1"), (2.0, 6.0, "gamma' must be <= 1"),
     (0.1, math.nan, "tau' must be >= 2"), (0.1, 1.5, "tau' must be >= 2")],
)
def test_every_check_refuses_bad_exponents_by_name(gamma_p, tau_p, message):
    """A NaN exponent fails every comparison, so it is refused like an out of
    range one, by all three checks."""
    h = ActionPolynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
    for probe in (
        lambda: check_sdm_quadratic(np.eye(2), gamma_p, tau_p, 2),
        lambda: check_sdm_polynomial(h, (np.zeros(2), 0.5), gamma_p, tau_p, 1),
        lambda: prevalence_estimate(2, tau_p, gamma_p, 2, samples=100),
    ):
        with pytest.raises(ValueError, match=message):
            probe()


def test_dimension_zero_is_refused():
    for probe in (
        lambda: prevalence_estimate(0, 6.0, 0.1, 2, samples=100),
        lambda: subspaces_up_to(0, 2),
        lambda: check_sdm_quadratic(np.zeros((0, 0)), 0.1, 6.0, 2),
    ):
        with pytest.raises(ValueError, match="dimension n must be >= 1"):
            probe()


def test_negative_dimension_and_L_max_below_one_are_refused():
    for probe, message in (
        (lambda: prevalence_estimate(-1, 6.0, 0.1, 2, samples=100), "dimension n must be >= 1"),
        (lambda: prevalence_estimate(2, 6.0, 0.1, 0, samples=100), "L_max must be >= 1"),
        # before any other check
        (lambda: prevalence_estimate(2, 1.5, 0.1, -1, samples=10), "L_max must be >= 1"),
        (lambda: subspaces_up_to(-2, 2), "dimension n must be >= 1"),
        (lambda: subspaces_up_to(2, 0), "L_max must be >= 1"),
        (lambda: subspaces_up_to(1, 0), "L_max must be >= 1"),
        (lambda: sdm._up_to(3, -1), "L_max must be >= 1"),
        (lambda: check_sdm_quadratic(np.eye(2), 0.1, 6.0, 0), "L_max must be >= 1"),
    ):
        with pytest.raises(ValueError, match=message):
            probe()


def _reference_prevalence(n, tau_p, gamma_p, L_max, samples, seed):
    """The random half of prevalence_estimate as a per-sample loop:
    sequential (n, n) draws, each passed to check_sdm_quadratic, which is
    handed the stacks built once (a basis has the same bits in any stack)."""
    subs = subspaces_up_to(n, L_max)
    stacked = list(sdm._stacks(sdm._up_to(n, L_max), 1))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    A = rng.uniform(-1.0, 1.0, size=(n, n))
    beta0 = 0.5 * (A + A.T)
    xis = rng.uniform(-2.0, 2.0, size=samples)
    bad = np.zeros(samples, dtype=bool)
    for sub in subs:
        E = sub.e_basis.T
        lams = np.linalg.eigvalsh(E.T @ beta0 @ E)
        dmin = np.min(np.abs(lams[None, :] - xis[:, None]), axis=1)
        bad |= dmin <= 0.5 * gamma_p * float(sub.L) ** (-tau_p)
    drawn, bad_r = [], 0
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sdm, "_up_to", lambda n, L_max: None)
        m.setattr(sdm, "_stacks", lambda arrays, per_sub: stacked)
        for _ in range(samples):
            Ar = rng.uniform(-1.0, 1.0, size=(n, n))
            drawn.append(2.0 * (0.5 * (Ar + Ar.T)))
            bad_r += not check_sdm_quadratic(drawn[-1], gamma_p, tau_p, L_max).passed
    return float(np.mean(bad)), bad_r / samples, np.array(drawn)


@pytest.mark.parametrize("n,L_max", [(2, 3), (3, 2)])
def test_prevalence_matches_per_sample_reference(n, L_max, monkeypatch):
    stacks = []

    def recording(betas, E, subs, tau_p):
        stacks.append(betas)
        return margins(betas, E, subs, tau_p)

    def stacks_once(subs, per_sub):
        passes.append(per_sub)
        return stack_pass(subs, per_sub)

    margins, stack_pass, passes = sdm._margins, sdm._stacks, []
    monkeypatch.setattr(sdm, "_margins", recording)
    monkeypatch.setattr(sdm, "_stacks", stacks_once)
    for seed in range(6):
        stacks.clear()
        passes.clear()
        rep = prevalence_estimate(n, 6.0, 0.05, L_max, samples=1000, seed=seed)
        # the probe and random halves share one pass over the stacked bases
        assert passes == [1000]
        bad, bad_r, drawn = _reference_prevalence(n, 6.0, 0.05, L_max, 1000, seed)
        assert (rep.bad_fraction, rep.bad_fraction_random) == (bad, bad_r)
        assert rep.probe_interval == (-2.0, 2.0)
        assert rep.theory_bound == truncated_measure_bound(n, 6.0, 0.05, L_max) / 4.0
        assert stacks[0].tobytes() == drawn.tobytes()


# -- value semantics -----------------------------------------------------------


def test_returned_frozen_values_are_values():
    """A frozen result from a real call hashes, and equals its deepcopy and
    its pickle round trip (equal values hash alike)."""
    from hamlab.diophantine import check_nonresonant, estimate_gamma
    from hamlab.dynamics import IntegratorConfig

    h = ActionPolynomial(2, {(3, 0): 1.0, (0, 3): 1.0})
    poly_verdict = check_sdm_polynomial(h, (np.zeros(2), 0.5), 0.05, 3.0, 1, grid_density=5)
    values = [
        subspaces_up_to(3, 2)[5],
        subspaces_up_to(2, 1)[-1],  # the whole space
        check_sdm_quadratic(np.diag([1.0, -1.0]), 0.5, 3.0, 1),
        poly_verdict,
        poly_verdict.worst_case,
        bad_set_quadratic(np.diag([1.0, 1.1, 3.0]), 0.1),
        prevalence_estimate(2, 6.0, 0.05, 1, samples=100, seed=2),
        estimate_gamma((1.0, math.sqrt(2.0)), 1.0, 10),
        check_nonresonant((1, 2), 4),
        IntegratorConfig(method="gauss4", dt=0.05),
    ]
    for value in values:
        for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value), value


def test_subspaces_are_distinct_values():
    subs = subspaces_up_to(3, 3)
    assert len(set(subs)) == len(subs) == 3363
    # a twin built from the integer fields alone equals it
    sub = subs[7]
    twin = RationalSubspace(sub.n, sub.k, sub.L, sub.perp_basis, sub.canonical_key)
    assert twin == sub and hash(twin) == hash(sub)
