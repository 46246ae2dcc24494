"""Rational subspaces, Simultaneous Diophantine Morse checks, and measure
estimates for the quadratic genericity theorem.

A rational subspace of dimension k is identified by its orthogonal complement,
generated by integer vectors with entries bounded by L.  The canonical key of
a subspace is the primitive-integer reduced row echelon form of that
complement, which is an exact, hash-friendly identity for the rational span
(projector comparison is kept as a test oracle only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd
from typing import NamedTuple

import numpy as np

from .errors import CombinatorialBudgetExceeded
from .poly import ActionPolynomial

ENUMERATION_BUDGET = 10_000_000


@dataclass(frozen=True)
class RationalSubspace:
    n: int
    k: int
    L: int  # smallest lattice bound at which this subspace appears
    perp_basis: tuple  # (n-k) primitive integer generators of the complement
    e_basis: np.ndarray  # (k, n) orthonormal rows spanning the subspace
    f_basis: np.ndarray  # (n-k, n) orthonormal rows spanning the complement
    canonical_key: tuple

    def projector(self) -> np.ndarray:
        E = self.e_basis
        return E.T @ E if self.k else np.zeros((self.n, self.n))

    def restriction_matrix(self) -> np.ndarray:
        """E with columns the orthonormal basis of the subspace (n x k)."""
        return self.e_basis.T


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


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        return None
    v = tuple(x // g for x in v)
    for x in v:
        if x != 0:
            return v if x > 0 else tuple(-y for y in v)
    return None


def primitive_vectors(n: int, L: int) -> list:
    """All primitive integer vectors with entries in [-L, L], sign-normalized."""
    out = set()
    for v in product(range(-L, L + 1), repeat=n):
        p = _primitive(v)
        if p is not None:
            out.add(p)
    return sorted(out)


def _rref_key(rows):
    """Primitive-integer RREF of the rational row span; None if rank-deficient."""
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
        return None  # linearly dependent generators
    key = []
    for row in M:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in row]
        p = _primitive(ints)
        key.append(p)
    return tuple(key)


def _orthonormal_rows(vectors) -> np.ndarray:
    A = np.array(vectors, dtype=float)
    Q, _ = np.linalg.qr(A.T)
    return Q.T[: len(vectors)]


def _null_rows(vectors, n: int) -> np.ndarray:
    if not vectors:
        return np.eye(n)
    A = np.array(vectors, dtype=float)
    _, _, Vt = np.linalg.svd(A)
    return Vt[len(vectors):]


def _whole_space(n: int) -> RationalSubspace:
    return RationalSubspace(
        n=n,
        k=n,
        L=1,
        perp_basis=(),
        e_basis=np.eye(n),
        f_basis=np.zeros((0, n)),
        canonical_key=("full", n),
    )


def enumerate_GL(n: int, k: int, L: int) -> list:
    """All distinct k-dimensional subspaces whose complement has integer
    generators bounded by L, each listed once."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if L < 1:
        raise ValueError("L must be >= 1")
    if k == n:
        return [_whole_space(n)]
    cands = primitive_vectors(n, L)
    m = n - k
    if comb(len(cands), m) > ENUMERATION_BUDGET:
        raise CombinatorialBudgetExceeded(
            f"{comb(len(cands), m)} candidate tuples exceed the budget"
        )
    seen = {}
    for combo in combinations(cands, m):
        key = _rref_key(combo)
        if key is None or key in seen:
            continue
        e = _null_rows(combo, n)
        f = _orthonormal_rows(combo)
        seen[key] = RationalSubspace(
            n=n, k=k, L=L, perp_basis=combo, e_basis=e, f_basis=f, canonical_key=key
        )
    return [seen[key] for key in sorted(seen)]


def subspaces_up_to(n: int, L_max: int, include_full: bool = True) -> list:
    """All subspaces of G^L(n,k) for L <= L_max, k = 1..n, with minimal L."""
    out = {}
    for L in range(1, L_max + 1):
        for k in range(1, n):
            for sub in enumerate_GL(n, k, L):
                out.setdefault(sub.canonical_key, sub)
    subs = list(out.values())
    if include_full:
        subs.append(_whole_space(n))
    return subs


def _sigma_min_restricted(beta: np.ndarray, sub: RationalSubspace) -> float:
    E = sub.restriction_matrix()
    bL = E.T @ beta @ E
    return float(np.min(np.abs(np.linalg.eigvalsh(bL))))


def check_sdm_quadratic(
    alpha, beta: np.ndarray, gamma_p: float, tau_p: float, L_max: int,
    _subspaces: list | None = None,
) -> SdmVerdict:
    """Quadratic SDM check: sigma_min of every rational restriction of beta
    must exceed gamma' L^{-tau'}.  alpha is accepted and ignored (the quadratic
    criterion puts no condition on the linear part)."""
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 2 or beta.shape[0] != beta.shape[1]:
        raise ValueError("beta must be a square matrix")
    if not np.allclose(beta, beta.T, atol=1e-12):
        raise ValueError("beta must be symmetric")
    if tau_p < 2:
        raise ValueError("tau' must be >= 2")
    if gamma_p > 1:
        raise ValueError("gamma' must be <= 1")
    n = beta.shape[0]
    subs = subspaces_up_to(n, L_max) if _subspaces is None else _subspaces
    best = math.inf
    worst = None
    for sub in subs:
        margin = _sigma_min_restricted(beta, sub) * float(sub.L) ** tau_p
        if margin < best:
            best = margin
            worst = WorstCase(sub.L, sub.perp_basis or sub.canonical_key, None, margin)
    passed = best >= gamma_p
    return SdmVerdict(passed=passed, gamma_margin=best, worst_case=worst)


def bad_set_quadratic(beta_k: np.ndarray, kappa: float) -> BadSet:
    """Union of [lambda_i - kappa, lambda_i + kappa] over eigenvalues of beta_k,
    merged; its measure never exceeds 2 k kappa, and outside it the shifted
    matrix beta_k - xi I has smallest singular value above kappa."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
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
    center = np.asarray(B[0], dtype=float)
    radius = float(B[1])
    n = h.n
    r_box = float(np.max(np.abs(center))) + radius
    # Frobenius-style majorant bounds for the 2nd/3rd derivative tensors on B
    M2 = math.sqrt(
        math.fsum(
            h.partial(i).partial(j).majorant_norm(r_box) ** 2
            for i in range(n)
            for j in range(n)
        )
    )
    M3 = math.sqrt(
        math.fsum(
            h.partial(i).partial(j).partial(k).majorant_norm(r_box) ** 2
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )
    )
    pts, delta = _grid_points(center, radius, grid_density)
    grads = h.grad(pts)
    hessians = h.hess(pts)

    subs = subspaces_up_to(n, L_max)
    status = "certified-pass"
    worst = None
    best_margin = math.inf
    for sub in subs:
        E = sub.restriction_matrix()
        thr = gamma_p * float(sub.L) ** (-tau_p)
        # every grid point at once: restricted gradients (points, k, 1), their
        # norms as sqrt(r^T r) by matmul (rounded like a per-point norm), and
        # the smallest |eigenvalue| of each restricted Hessian
        r = E.T @ grads[..., None]
        g_all = np.sqrt((np.swapaxes(r, -1, -2) @ r)[:, 0, 0])
        sig_all = np.min(np.abs(np.linalg.eigvalsh(E.T @ hessians @ E)), axis=-1)
        for x, g, sig in zip(pts, g_all.tolist(), sig_all.tolist()):
            margin = max(g, sig) * float(sub.L) ** tau_p
            if margin < best_margin:
                best_margin = margin
            if g - M2 * delta > thr or sig - M3 * delta > thr:
                continue  # cell certified
            if g <= thr and sig <= thr:
                return SdmVerdict(
                    passed=False,
                    gamma_margin=best_margin,
                    worst_case=WorstCase(sub.L, sub.perp_basis or sub.canonical_key, tuple(x), margin),
                    status="certified-fail",
                )
            status = "inconclusive"
            if worst is None:
                worst = WorstCase(sub.L, sub.perp_basis or sub.canonical_key, tuple(x), margin)
    return SdmVerdict(
        passed=status == "certified-pass",
        gamma_margin=best_margin,
        worst_case=worst,
        status=status,
    )


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
    probe_interval: tuple = (-2.0, 2.0),
) -> PrevalenceReport:
    """Monte-Carlo fraction of SDM-failing quadratic forms along the
    one-parameter probe beta0 - xi I (xi uniform), plus an independent run
    with fully random symmetric matrices.

    The failure condition is the one in the genericity theorem for
    h = alpha.I + beta I.I, whose restricted Hessian is the doubled matrix
    2 E^T beta E; the thresholds below apply to that doubled restriction.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    subs = subspaces_up_to(n, L_max)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    A = rng.uniform(-1.0, 1.0, size=(n, n))
    beta0 = 0.5 * (A + A.T)
    lo, hi = probe_interval
    xis = rng.uniform(lo, hi, size=samples)

    # restricted spectra of beta0 are shift-equivariant: the smallest singular
    # value of 2(beta0_L - xi I) is 2 min_i |lambda_i - xi|, so the probe check
    # reduces to eigenvalue gaps against half the threshold
    bad = np.zeros(samples, dtype=bool)
    for sub in subs:
        E = sub.restriction_matrix()
        lams = np.linalg.eigvalsh(E.T @ beta0 @ E)
        thr = gamma_p * float(sub.L) ** (-tau_p)
        dmin = np.min(np.abs(lams[None, :] - xis[:, None]), axis=1)
        bad |= dmin <= 0.5 * thr
    bad_fraction = float(np.mean(bad))

    bad_r = 0
    for _ in range(samples):
        Ar = rng.uniform(-1.0, 1.0, size=(n, n))
        betar = 0.5 * (Ar + Ar.T)
        v = check_sdm_quadratic(None, 2.0 * betar, gamma_p, tau_p, L_max, _subspaces=subs)
        bad_r += not v.passed
    bound = truncated_measure_bound(n, tau_p, gamma_p, L_max) / (hi - lo)
    sigma = math.sqrt(max(bound * (1 - bound), 1e-12) / samples)
    return PrevalenceReport(
        n=n,
        tau_p=tau_p,
        gamma_p=gamma_p,
        L_max=L_max,
        samples=samples,
        seed=seed,
        probe_interval=(float(lo), float(hi)),
        bad_fraction=bad_fraction,
        bad_fraction_random=bad_r / samples,
        theory_bound=bound,
        binomial_sigma=sigma,
    )
