"""Rational subspaces, Simultaneous Diophantine Morse checks, and measure
estimates for the quadratic genericity theorem.

A rational subspace of dimension k is identified by its orthogonal complement,
spanned by a tuple of m = n - k primitive integer vectors with entries bounded
by L.  By the Plücker identity, two independent tuples span the same space
exactly when their vectors of m-minors are proportional, so the minors over
their gcd, first nonzero entry positive (the Plücker vector), identify the
span; a zero vector marks a dependent tuple.  The canonical key, the
primitive-integer RREF of the complement, comes from minors too: the pivot
columns S are those of the first nonzero minor, and by Cramer's rule row i is
det(A_S with column i replaced by column j) over the columns j, which is row i
of adj(A_S) A, times the sign of det(A_S), over its gcd.

Enumeration is one array pass over the generator tuples in lexicographic
order, in bounded blocks, each block's minors by one gather of their columns.
Merges keep per Plücker vector the first tuple of least L by one sort on
(P, L, position), its columns packed as mixed-radix digits into as few int64
words as hold their ranges; one more such sort puts each dimension in
(L, key) order.  The checks work on these integer arrays, with one batched SVD
per stack for the bases; only ``subspaces_up_to`` and ``enumerate_GL`` make
values, in bulk.  Minors are exact in int64: those of m vectors with entries
at most L, and the partial sums of their cofactor expansion and of adj(A_S) A,
are at most m! L^m.  The budget check admits only m <= 4 (the
(3^(m+1) - 1)/2 candidates with entries in {-1, 0, 1} give too many tuples
for m >= 5) and C(L + 1, m) <= the budget (the vectors (1, j, 0, ..., 0) are
candidates), so m! L^m < 10^10.  Checks run on stacks of consecutive
subspaces of one L and one dimension, in list order, so each stack has one
threshold and the polynomial check stops at its first failing stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product, repeat
from math import comb
from typing import NamedTuple

import numpy as np

from .blocks import blocks, expand
from .errors import CombinatorialBudgetExceeded, DimensionMismatch
from .poly import ActionPolynomial, CompiledPoly

ENUMERATION_BUDGET = 10_000_000
PROBE_INTERVAL = (-2.0, 2.0)  # the xi range of the prevalence probe beta0 - xi I


class RationalSubspace(NamedTuple):
    """A rational subspace, a tuple of integer fields.  The checks build the
    orthonormal bases of the subspaces they stack; ``e_basis`` builds one."""

    n: int
    k: int
    L: int  # enumerate_GL: the L asked for; subspaces_up_to: the least L it appears at
    perp_basis: tuple  # (n-k) primitive integer generators of the complement
    canonical_key: tuple

    @property
    def e_basis(self) -> np.ndarray:
        """(k, n) orthonormal rows spanning the subspace."""
        return _bases(np.array(self.perp_basis).reshape(1, self.n - self.k, self.n))[0]


class WorstCase(NamedTuple):
    """The subspace (and, for polynomial checks, the grid point) of least margin."""

    L: int
    subspace: tuple  # perp_basis, or the canonical key of the whole space
    point: tuple | None
    margin: float


@dataclass(frozen=True)
class SdmVerdict:
    passed: bool
    gamma_margin: float
    worst_case: WorstCase | None
    status: str = "checked"  # polynomial check: certified-pass/-fail/inconclusive


@dataclass(frozen=True)
class BadSet:
    intervals: tuple  # disjoint closed intervals, sorted
    total_measure: float

    def contains(self, xi: float) -> bool:
        return any(a <= xi <= b for a, b in self.intervals)


def primitive_vectors(n: int, L: int) -> list:
    """All primitive integer vectors with entries in [-L, L], sign-normalized
    (first nonzero entry positive), in lexicographic order."""
    # the cube [-L, L]^n in lexicographic order: the vectors after 0 are
    # those with first nonzero entry positive
    cube = np.indices((2 * L + 1,) * n, dtype=np.int64).reshape(n, -1).T - L
    half = cube[len(cube) // 2 + 1:]
    return [tuple(v) for v in half[np.gcd.reduce(half, axis=1) == 1].tolist()]


def _det(M) -> np.ndarray:
    """Exact determinants of a stack of m x m int64 matrices, given as m rows
    of m entry arrays, by cofactor expansion along the first row: a minor lists
    the same arrays, and m <= 3 takes the products of the closed forms."""
    M = [list(row) for row in M]
    if len(M) <= 1:
        return M[0][0] if M else 1
    terms = [M[0][j] * _det([row[:j] + row[j + 1:] for row in M[1:]]) for j in range(len(M))]
    return reduce(lambda acc, t: t - acc, terms[::-1])  # t_0 - (t_1 - (t_2 - ...))


def _plucker(A: np.ndarray) -> np.ndarray:
    """Primitive Plücker vectors of a (T, m, n) int64 stack of generator
    tuples: the m-minors in lexicographic column order, over their gcd, with
    first nonzero entry positive.  A zero row marks a dependent tuple."""
    T, m, n = A.shape
    if m > n:  # no minors: every tuple is dependent
        return np.zeros((T, 1), dtype=np.int64)
    P = _det(np.moveaxis(A.T.take(list(combinations(range(n), m)), axis=0), 0, 2))  # minors^T (m, m, c, T)
    first = reduce(lambda s, p: np.where(p != 0, p, s), P[::-1])  # the first nonzero minor
    P //= np.maximum(reduce(np.gcd, P), 1) * np.where(first < 0, -1, 1)
    return P.T


def _rref_keys(A: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Primitive-integer RREF, as a (T, m, n) array, of each independent tuple
    of a (T, m, n) stack with Plücker vectors P.

    The pivot columns S are those of the first nonzero minor.  By Cramer's
    rule row i of the RREF is row i of adj(A_S) A / det(A_S); times the sign
    of det(A_S) and over its gcd, it is primitive, its pivot positive."""
    T, m, n = A.shape
    S = np.array(list(combinations(range(n), m)))[np.argmax(P != 0, axis=1)]
    M = [list(row) for row in np.take_along_axis(A.T, S.T[:, None, :], axis=0)]  # the rows of A_S^T
    D = np.zeros((m, n, T), dtype=np.int64)  # adj(A_S) A
    for i, r in product(range(m), repeat=2):  # adj(A_S)[i, r] is (-1)^(i+r) det(A_S^T less row i, column r)
        D[i] += (-1) ** (i + r) * _det([row[:r] + row[r + 1:] for row in M[:i] + M[i + 1:]]) * A.T[:, r]
    D *= np.sign(D[0][S[:, 0], np.arange(T)])  # D[i, S_i] is det(A_S)
    D //= reduce(np.gcd, D.swapaxes(0, 1))[:, None]
    return D.transpose(2, 0, 1)


def _lexorder(cols) -> np.ndarray:
    """The lexicographic order, equal rows in no set order, of the rows whose
    digits are the integer arrays ``cols``: shifted to start at 0, a column is
    a mixed-radix digit of the last int64 word while its range stays < 2^63."""
    words, size = [], 2**63
    for col in cols:
        lo = col.min(initial=0)
        r = int(col.max(initial=0) - lo) + 1
        if size * r >= 2**63:
            words, size = words + [0], 1
        words[-1], size = words[-1] * r + (col - lo), size * r
    order = np.argsort(words[-1])
    for word in words[-2::-1]:
        order = order[np.argsort(word[order], kind="stable")]
    return order


def _check_budget(ncands: int, ms) -> None:
    tuples = max((comb(ncands, m) for m in ms), default=0)
    if tuples > ENUMERATION_BUDGET:
        raise CombinatorialBudgetExceeded(f"{tuples} candidate tuples exceed the budget")


def _index_chunks(N: int, m: int):
    """The m-subsets of range(N) as (m, T) int64 index arrays, one subset per
    column, in lexicographic order, in blocks of whole first-index groups."""
    for lo, hi in blocks([comb(N - 1 - i, m - 1) for i in range(N - m + 1)]):
        idx = np.arange(lo, hi, dtype=np.int64)[None]
        for c in range(1, m):
            # row c runs from the previous row + 1 to N - m + c
            last = idx[-1]
            parent, offset = expand(N - m + c - last)
            idx = np.vstack([idx[:, parent], last[parent] + 1 + offset])
        yield idx


def _first_per_vector(idx, P, L):
    """Of the (m, T) tuples idx with (minors, T) Plücker vectors P, the first
    of least L per nonzero vector, by one sort on (P, L, column): columns
    merged earlier come from tuples earlier in lexicographic order."""
    order = _lexorder([*P, L, np.arange(len(L))])
    Ps = P.take(order, axis=1)
    keep = order[np.r_[True, (Ps[:, 1:] != Ps[:, :-1]).any(axis=0)] & Ps.any(axis=0)]
    return idx.take(keep, axis=1), P.take(keep, axis=1), L[keep]


def _distinct(n: int, k: int, C: np.ndarray, L_C: np.ndarray) -> tuple:
    """One subspace per Plücker vector, spanned by the tuple of rows of ``C``
    of least L with that vector, the lexicographically first among ties, in
    (L, key) order: the run (L, idx, K) of their L, generators (as row indices
    of ``C``) and keys.  A tuple's L is the largest ``L_C`` of its rows."""
    m = n - k
    parts, kept = [], 0  # the tuples kept at the last merge, then the chunks since
    for chunk in _index_chunks(len(C), m):
        if sum(len(L) for _, _, L in parts) > 2 * kept:  # so a tuple takes part in O(log) merges
            parts = [_first_per_vector(*(np.concatenate(x, axis=-1) for x in zip(*parts)))]
            kept = len(parts[0][2])
        parts.append((chunk, _plucker(C.T.take(chunk, axis=1).T).T, reduce(np.maximum, L_C.take(chunk))))
    idx, P, L = _first_per_vector(*(np.concatenate(x, axis=-1) for x in zip(*parts)))
    K = _rref_keys(C.T.take(idx, axis=1).T, P.T).transpose(1, 2, 0)  # (m, n, T), as it was built
    order = _lexorder([L, *K.reshape(m * n, -1)])
    K = np.ascontiguousarray(K.take(order, axis=2).transpose(2, 0, 1))
    return L[order], idx.take(order, axis=1).T, K


def _whole_space(n: int) -> RationalSubspace:
    return RationalSubspace(n=n, k=n, L=1, perp_basis=(), canonical_key=("full", n))


def _values(C: np.ndarray, L: int, idx: np.ndarray, K: np.ndarray) -> list:
    """The values of a run of one L, one constructor call each on fields
    zipped from its columns.  Generators are the candidate tuples, and keys
    share their row tuples (at (4, 2), 818,436 key rows hold 3,892 distinct ones)."""
    (S, m), n = idx.shape, C.shape[1]
    if m == 0:
        return [_whole_space(n)]
    X = K.reshape(S * m, n)
    order = _lexorder(X.T)
    new = np.r_[True, reduce(np.logical_or, (np.diff(col[order]) != 0 for col in X.T))]  # row unlike the last
    K = np.empty(S * m, dtype=np.int64)
    K[order] = np.cumsum(new) - 1  # the distinct row of each key row
    rows, cands = (list(map(tuple, Y.tolist())) for Y in (X.take(order[new], axis=0), C))
    gens = zip(*(map(cands.__getitem__, col) for col in idx.T.tolist()))
    keys = zip(*(map(rows.__getitem__, col) for col in K.reshape(S, m).T.tolist()))
    return list(map(RationalSubspace, repeat(n, S), repeat(n - m, S), repeat(L, S), gens, keys))


def enumerate_GL(n: int, k: int, L: int) -> list:
    """All distinct k-dimensional subspaces whose complement has integer
    generators bounded by L, each listed once and stamped with this L.

    Each is spanned by the lexicographically first generator tuple that gives
    it; the list is sorted by canonical key."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if L < 1:
        raise ValueError("L must be >= 1")
    if k == n:
        return [_whole_space(n)]
    C = np.array(primitive_vectors(n, L), dtype=np.int64)
    _check_budget(len(C), [n - k])
    return _values(C, L, *_distinct(n, k, C, np.full(len(C), L))[1:])


def _up_to(n: int, L_max: int) -> tuple:
    """``subspaces_up_to(n, L_max)`` in arrays: the candidates C and, in list
    order (L, k, key), the runs (L, idx, K) of one L and one dimension, then the
    whole space.  Each dimension is in (L, key) order, so a run is a slice."""
    _check_sizes(n, L_max)
    C = np.array(primitive_vectors(n, L_max), dtype=np.int64).reshape(-1, n)
    _check_budget(len(C), range(1, n))
    dims = [_distinct(n, k, C, np.abs(C).max(axis=1)) for k in range(1, n)]
    cuts = [np.searchsorted(L_k, np.arange(1, L_max + 2)).tolist() for L_k, _, _ in dims]
    runs = [(L, idx[c[L - 1]:c[L]], K[c[L - 1]:c[L]])
            for L in range(1, L_max + 1) for (_, idx, K), c in zip(dims, cuts)]
    return C, runs + [(1, np.zeros((1, 0), dtype=np.int64), None)]


def subspaces_up_to(n: int, L_max: int) -> list:
    """All subspaces of G^L(n,k) for L <= L_max, k = 1..n-1 (then the whole
    space), each stamped with the smallest L at which it appears.

    One pass at L_max over the generator tuples in lexicographic order keeps,
    per subspace, the first tuple of least largest entry: its minimal L and
    the lexicographically first tuple at that L.  The list is sorted by
    (L, k, canonical key)."""
    C, runs = _up_to(n, L_max)
    return [sub for run in runs for sub in _values(C, *run)]


def _check_sizes(n: int, L_max: int) -> None:
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    if L_max < 1:
        raise ValueError("L_max must be >= 1")


def _check_exponents(gamma_p: float, tau_p: float) -> None:
    if not tau_p >= 2:  # NaN fails too
        raise ValueError("tau' must be >= 2")
    if not gamma_p <= 1:
        raise ValueError("gamma' must be <= 1")


def _bases(G: np.ndarray) -> np.ndarray:
    """The (S, k, n) orthonormal bases of the subspaces with (S, n-k, n) integer
    generators G, by one batched SVD: it factors each matrix alone, so a basis
    has the same bits in any stack; the whole space gets I."""
    return np.ascontiguousarray(np.linalg.svd(G.astype(float))[2][:, G.shape[1]:])


def _stacks(arrays: tuple, per_sub: int):
    """The runs of ``_up_to`` in blocks, each subspace counted as per_sub rows:
    the int L, whose powers are Python float powers (numpy's vectorized power
    need not round them the same way), and the generators G and stacked
    (S, k, n) bases of a block's subspaces, whose batched products and
    eigvalsh give the bits of one call each."""
    C, runs = arrays
    for L, idx, _ in runs:
        for lo, hi in blocks(np.full(len(idx), per_sub)):
            G = C[idx[lo:hi]]
            yield L, G, _bases(G)


def _worst(L: int, G: np.ndarray, point, margin: float) -> WorstCase:
    """The WorstCase of the subspace with least L and generators G."""
    return WorstCase(L, tuple(map(tuple, G.tolist())) or ("full", G.shape[1]), point, margin)


def _margins(betas: np.ndarray, E: np.ndarray, L: int, tau_p: float) -> np.ndarray:
    """sigma_min(E^T beta E) L^tau' of every matrix of a (samples, n, n) stack
    on every subspace of one stack, with (S, k, n) bases E and the stack's
    least L, as an (S, samples) array."""
    restricted = E[:, None] @ betas @ np.swapaxes(E, 1, 2)[:, None]
    return np.abs(np.linalg.eigvalsh(restricted)).min(axis=-1) * float(L) ** tau_p


def check_sdm_quadratic(beta: np.ndarray, gamma_p: float, tau_p: float, L_max: int) -> SdmVerdict:
    """Quadratic SDM check: sigma_min of every rational restriction of beta
    must exceed gamma' L^{-tau'} (the criterion puts no condition on the
    linear part alpha)."""
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 2 or beta.shape[0] != beta.shape[1]:
        raise ValueError("beta must be a square matrix")
    if not np.allclose(beta, beta.T, atol=1e-12):
        raise ValueError("beta must be symmetric")
    _check_exponents(gamma_p, tau_p)
    cases = []  # the first least margin of each stack, so the first of all
    for L, G, E in _stacks(_up_to(beta.shape[0], L_max), 1):
        margins = _margins(beta[None], E, L, tau_p)[:, 0]
        i = int(np.argmin(margins))
        cases.append((L, G[i], None, float(margins[i])))
    worst = _worst(*cases[int(np.argmin([c[3] for c in cases]))])
    return SdmVerdict(passed=worst.margin >= gamma_p, gamma_margin=worst.margin, worst_case=worst)


def bad_set_quadratic(beta_k: np.ndarray, kappa: float) -> BadSet:
    """Union of [lambda_i - kappa, lambda_i + kappa] over eigenvalues of beta_k,
    merged; its measure never exceeds 2 k kappa, and outside it the shifted
    matrix beta_k - xi I has smallest singular value above kappa."""
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    beta_k = np.atleast_2d(np.asarray(beta_k, dtype=float))
    if not np.allclose(beta_k, beta_k.T, atol=1e-12):
        raise ValueError("beta_k must be symmetric")
    lams = np.sort(np.linalg.eigvalsh(beta_k))
    merged = []
    for lam in lams:
        a, b = lam - kappa, lam + kappa
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    measure = math.fsum(b - a for a, b in merged)
    return BadSet(intervals=tuple(merged), total_measure=measure)


def _grid_points(center: np.ndarray, radius: float, density: int):
    """Axis grid covering the ball; returns (points, covering_radius)."""
    n = len(center)
    axes = [np.linspace(c - radius, c + radius, density) for c in center]
    h = 2.0 * radius / (density - 1)
    delta = 0.5 * h * math.sqrt(n)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    keep = np.linalg.norm(mesh - center, axis=1) <= radius + delta
    return mesh[keep], delta


def check_sdm_polynomial(
    h: ActionPolynomial,
    B: tuple,
    gamma_p: float,
    tau_p: float,
    L_max: int,
    grid_density: int = 5,
) -> SdmVerdict:
    """Grid-certified SDM check of the gradient/Hessian alternative for a
    polynomial h on the ball B = (center, radius).

    A sample where both the restricted gradient norm and the restricted
    Hessian's smallest singular value fall at or below gamma' L^{-tau'} is an
    exact violation witness; Lipschitz slack (from majorant bounds on the
    second and third derivatives over B) promotes sample passes to cell
    certificates.  Verdict status is certified-pass, certified-fail, or
    inconclusive.
    """
    if h.degree() < 2:
        raise ValueError("h must have degree >= 2")
    if grid_density < 2:
        raise ValueError("grid_density must be >= 2")
    _check_exponents(gamma_p, tau_p)
    center = np.asarray(B[0], dtype=float)
    radius = float(B[1])
    n = h.n
    if center.shape != (n,):
        raise DimensionMismatch(f"ball center of shape {center.shape}, expected ({n},)")
    if not np.isfinite(center).all():
        raise ValueError(f"ball center must be finite, got {tuple(center.tolist())}")
    if not 0 < radius < math.inf:
        raise ValueError(f"ball radius must be positive and finite, got {radius}")
    r_box = float(np.max(np.abs(center))) + radius
    # one tower of partials, each level built from the one below, (i, j) and
    # (i, j, k) row-major: the grid evaluates the first two levels, and the
    # last two give Frobenius-style majorants of the 2nd/3rd derivatives on B
    first = [h.partial(i) for i in range(n)]
    second = [p.partial(j) for p in first for j in range(n)]
    third = [p.partial(k) for p in second for k in range(n)]
    M2, M3 = (math.sqrt(math.fsum(p.majorant_norm(r_box) ** 2 for p in d)) for d in (second, third))
    pts, delta = _grid_points(center, radius, grid_density)
    grads = CompiledPoly(first)(pts)
    hessians = CompiledPoly(second)(pts).reshape(len(pts), n, n)

    def case(L, G, e, margin):
        i, p = divmod(int(e), len(pts))
        return _worst(L, G[i], tuple(pts[p]), float(margin[e]))

    best_margin, worst = math.inf, None
    for L, G, E in _stacks(_up_to(n, L_max), len(pts)):
        # every (subspace, point) pair of the stack at once: restricted
        # gradients (S, points, k, 1), their norms as sqrt(r^T r) by matmul
        # (rounded like a per-point norm), and the smallest |eigenvalue| of
        # each restricted Hessian
        r = E[:, None] @ grads[..., None]
        g = np.sqrt((np.swapaxes(r, -1, -2) @ r)[..., 0, 0])
        restricted = E[:, None] @ hessians @ np.swapaxes(E, 1, 2)[:, None]
        sig = np.min(np.abs(np.linalg.eigvalsh(restricted)), axis=-1)
        thr = gamma_p * float(L) ** -tau_p
        margin = (np.maximum(g, sig) * float(L) ** tau_p).ravel()
        # a sample is an exact violation witness, or its cell is certified by
        # the Lipschitz slack, or it leaves the verdict open; entries are taken
        # in (subspace, point) order
        open_ = ~((g - M2 * delta > thr) | (sig - M3 * delta > thr)).ravel()
        failed = np.flatnonzero(open_ & ((g <= thr) & (sig <= thr)).ravel())
        if len(failed):  # the least margin up to and including the witness
            best_margin = min(best_margin, float(margin[: failed[0] + 1].min()))
            return SdmVerdict(False, best_margin, case(L, G, failed[0], margin), "certified-fail")
        best_margin = min(best_margin, float(margin.min()))
        if worst is None and open_.any():
            worst = case(L, G, np.argmax(open_), margin)
    status = "certified-pass" if worst is None else "inconclusive"
    return SdmVerdict(worst is None, best_margin, worst, status)


@dataclass(frozen=True)
class PrevalenceReport:
    n: int
    tau_p: float
    gamma_p: float
    L_max: int
    samples: int
    seed: int
    probe_interval: tuple
    bad_fraction: float  # xi-probe beta0 - xi I
    bad_fraction_random: float  # independent fully-random betas
    theory_bound: float  # truncated measure bound / probe length
    binomial_sigma: float


def truncated_measure_bound(n: int, tau_p: float, gamma_p: float, L_max: int) -> float:
    """n(n+1) * (sum_{L<=L_max} L^{n^2 - tau'}) * gamma' (finite iff tau' > n^2+1
    when L_max -> infinity)."""
    return n * (n + 1) * math.fsum(float(L) ** (n * n - tau_p) for L in range(1, L_max + 1)) * gamma_p


def prevalence_estimate(
    n: int,
    tau_p: float,
    gamma_p: float,
    L_max: int,
    samples: int,
    seed: int = 0,
) -> PrevalenceReport:
    """Monte-Carlo fraction of SDM-failing quadratic forms along the
    one-parameter probe beta0 - xi I (xi uniform on PROBE_INTERVAL), plus an
    independent run with fully random symmetric matrices.

    The failure condition is the one in the genericity theorem for
    h = alpha.I + beta I.I, whose restricted Hessian is the doubled matrix
    2 E^T beta E; the thresholds below apply to that doubled restriction.
    """
    _check_sizes(n, L_max)
    if samples < 100:
        raise ValueError("need at least 100 samples")
    _check_exponents(gamma_p, tau_p)
    if not 0 <= seed < 2**32:
        raise ValueError(f"seed must be in [0, 2**32), got {seed}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    A = rng.uniform(-1.0, 1.0, size=(n, n))
    beta0 = 0.5 * (A + A.T)
    lo, hi = PROBE_INTERVAL
    xis = rng.uniform(lo, hi, size=samples)
    Ar = rng.uniform(-1.0, 1.0, size=(samples, n, n))
    betar = 2.0 * (0.5 * (Ar + np.swapaxes(Ar, 1, 2)))

    # restricted spectra of beta0 are shift-equivariant: the smallest singular
    # value of 2(beta0_L - xi I) is 2 min_i |lambda_i - xi|, so the probe check
    # reduces to eigenvalue gaps against half the threshold.  The random half
    # fails where check_sdm_quadratic would: the least margin of the doubled
    # betar over the subspaces, taken one stack at a time, is below gamma'
    bad = np.zeros(samples, dtype=bool)
    best = np.full(samples, math.inf)
    for L, _, E in _stacks(_up_to(n, L_max), samples):
        lams = np.linalg.eigvalsh(E @ beta0 @ np.swapaxes(E, 1, 2))
        dmin = np.min(np.abs(lams[:, None, :] - xis[None, :, None]), axis=2)
        bad |= (dmin <= 0.5 * (gamma_p * float(L) ** -tau_p)).any(axis=0)
        best = np.minimum(best, np.min(_margins(betar, E, L, tau_p), axis=0))
    bad_r = int(np.count_nonzero(best < gamma_p)) / samples
    bound = truncated_measure_bound(n, tau_p, gamma_p, L_max) / (hi - lo)
    sigma = math.sqrt(max(bound * (1 - bound), 1e-12) / samples)
    return PrevalenceReport(n, tau_p, gamma_p, L_max, samples, seed, PROBE_INTERVAL,
                            float(np.mean(bad)), bad_r, bound, sigma)
