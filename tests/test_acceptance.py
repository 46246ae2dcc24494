"""End-to-end acceptance gate.

Each test covers one headline capability at its stated tolerance and prints a
single pass/fail line.  The suite exercises the exact normal-form oracle, the
uniqueness of the Birkhoff coefficients, the exponential remainder scaling,
the spectral bad-set lemma, the measure bound for the quadratic genericity
check, the subspace enumeration oracle, the integrator property suite, the
drift/normal-form consistency bound, and the symplectic algebra suite.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hamlab.birkhoff import apply_transform, birkhoff_normal_form
from hamlab.diophantine import estimate_gamma
from hamlab.dynamics import IntegratorConfig, ensemble_drift, integrate_batch
from hamlab.exactnum import GOLDEN, ExactComplex
from hamlab.lab import ExperimentSpec, RandomHamiltonianParams, generate_random_hamiltonian, run_remainder_scaling, stream_rng
from hamlab.model import EllipticHamiltonian
from hamlab.poly import Polynomial
from hamlab.sdm import bad_set_quadratic, enumerate_GL, prevalence_estimate, primitive_vectors, truncated_measure_bound
from test_poly import poisson_bracket

GOLDEN_F = (1 + math.sqrt(5)) / 2


def report(num, name, passed):
    print(f"criterion {num} ({name}): {'PASS' if passed else 'FAIL'}")
    assert passed


def golden_alpha_exact():
    return (ExactComplex(1, field=GOLDEN), ExactComplex.omega(GOLDEN))


def test_criterion_1_birkhoff_oracle():
    """Exact order-2 normal form of the quartic oscillator."""
    t0 = time.time()
    ok = True
    for c in (Fraction(1), Fraction(-3, 10)):
        V = Polynomial(1, {(4, 0): c})
        H = EllipticHamiltonian((1,), V, s=4.0)
        res = birkhoff_normal_form(H, m=2, exact=True)
        ok &= res.h_m.terms == {(1,): Fraction(1), (2,): Fraction(3, 2) * c}
    ok &= time.time() - t0 < 1.0
    report(1, "exact quartic normal form", ok)


def test_criterion_2_uniqueness_prefix():
    """h_m at m = 2, 3, 4 agree bit-exactly on shared degrees (rational mode)."""
    t0 = time.time()
    rng = stream_rng(2024, 0)
    quartics = [k for k in itertools.product(range(5), repeat=4) if sum(k) == 4]
    picks = rng.choice(len(quartics), size=6, replace=False)
    V = Polynomial(
        2,
        {
            quartics[int(p)]: Fraction(int(rng.integers(-9, 10)), 10)
            for p in picks
        },
    )
    H = EllipticHamiltonian(golden_alpha_exact(), V, s=4.0)
    results = {
        m: birkhoff_normal_form(H, m=m, exact=True, qfield=GOLDEN).h_m.terms
        for m in (2, 3, 4)
    }
    ok = True
    for lo, hi in ((2, 3), (3, 4), (2, 4)):
        shared = {k: v for k, v in results[hi].items() if sum(k) <= lo}
        ok &= shared == results[lo]
    ok &= time.time() - t0 < 30.0
    report(2, "normal form uniqueness across orders", ok)


def test_criterion_3_remainder_scaling():
    """Exponentially small optimal remainder over a decreasing rho grid."""
    t0 = time.time()
    V = Polynomial(
        2,
        {(3, 0, 0, 0): 0.4, (1, 2, 0, 0): -0.3, (0, 0, 2, 2): 0.25, (2, 0, 1, 1): 0.2},
    )
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    spec = ExperimentSpec(
        kind="remainder_scaling",
        hamiltonian=H,
        rho_grid=(0.2, 0.1, 0.05, 0.025),
        m_max=8,
        radius=1.0,
        tau=1.0,
        gamma_K=200,
    )
    rep = run_remainder_scaling(spec).report
    m_opts = [row["m_opt"] for row in rep["rows"]]
    ok = rep["fit"]["slope"] is not None and rep["fit"]["slope"] < 0.0
    ok &= rep["fit"]["r2"] >= 0.9
    ok &= all(b >= a for a, b in zip(m_opts, m_opts[1:]))
    ok &= time.time() - t0 < 300.0
    report(3, "remainder scaling fit", ok)


def test_criterion_4_bad_set_lemma():
    """Spectral bad sets: measure bound and nondegeneracy outside, exactly."""
    t0 = time.time()
    rng = np.random.default_rng(4)
    ok = True
    for trial in range(1000):
        k = int(rng.integers(1, 5))
        A = rng.normal(size=(k, k))
        beta = 0.5 * (A + A.T)
        kappa = float(rng.uniform(0.01, 0.5))
        bs = bad_set_quadratic(beta, kappa)
        ok &= bs.total_measure <= 2 * k * kappa + 1e-12
        if trial % 10 == 0:
            # sample xi outside the bad set and random directions eta
            lam_max = float(np.max(np.abs(np.linalg.eigvalsh(beta))))
            xis = []
            while len(xis) < 100:
                cand = rng.uniform(-lam_max - 2.0, lam_max + 2.0, size=200)
                xis.extend(x for x in cand if not bs.contains(x))
            xis = np.array(xis[:100])
            shifted = beta[None, :, :] - xis[:, None, None] * np.eye(k)
            eta = rng.normal(size=(k, 100))
            prods = shifted @ eta  # (100, k, 100)
            num = np.linalg.norm(prods, axis=1)
            den = np.linalg.norm(eta, axis=0)[None, :]
            ok &= bool(np.all(num > kappa * den))
        if not ok:
            break
    ok &= time.time() - t0 < 60.0
    report(4, "spectral bad-set lemma", ok)


def test_criterion_5_measure_bound():
    """Monte-Carlo bad fraction under the truncated measure bound (3 sigma)."""
    t0 = time.time()
    ok = True
    for gamma_p in (0.1, 0.05, 0.025):
        rep = prevalence_estimate(2, 6.0, gamma_p, 3, samples=10_000, seed=5)
        bound = truncated_measure_bound(2, 6.0, gamma_p, 3) / (
            rep.probe_interval[1] - rep.probe_interval[0]
        )
        ok &= rep.bad_fraction <= bound + 3.0 * rep.binomial_sigma
    ok &= time.time() - t0 < 600.0
    report(5, "quadratic genericity measure bound", ok)


def test_criterion_6_enumeration_oracle():
    """Subspace enumeration vs brute-force projector dedup, exact counts."""
    t0 = time.time()

    def oracle_count(n, k, L):
        cands = primitive_vectors(n, L)
        seen = set()
        for combo in itertools.combinations(cands, n - k):
            A = np.array(combo, dtype=float)
            if np.linalg.matrix_rank(A, tol=1e-9) < n - k:
                continue
            _, _, Vt = np.linalg.svd(A)
            E = Vt[n - k:]
            seen.add((np.round(E.T @ E, 6) + 0.0).tobytes())
        return len(seen)

    ok = True
    for n in (2, 3):
        for k in range(1, n):
            for L in (1, 2):
                ok &= len(enumerate_GL(n, k, L)) == oracle_count(n, k, L)
        ok &= len(enumerate_GL(n, n, 2)) == 1
    ok &= time.time() - t0 < 60.0
    report(6, "subspace enumeration oracle", ok)


def test_criterion_7_integrator_suite():
    """Invariant conservation over 1e6 steps, reversibility, refinement orders."""
    t0 = time.time()
    # (a) quadratic invariants over a million midpoint steps
    H = EllipticHamiltonian((1.0, GOLDEN_F), Polynomial.zero(2), s=4.0)
    run = integrate_batch(
        H,
        np.array([[0.4, -0.3, 0.2, 0.5]]),
        IntegratorConfig(dt=1e-3),
        1000.0,
        1000,
    )
    ok = run.max_drift_l1[0] <= 1e-10

    # (b) reversibility of the midpoint step on a nonseparable Hamiltonian
    from hamlab.dynamics import CompiledField, _fixed_point_midpoint

    Hc = EllipticHamiltonian(
        (1.0, GOLDEN_F), Polynomial(2, {(3, 0, 0, 0): 0.05, (1, 0, 0, 2): -0.04}), s=4.0
    )
    F = CompiledField(Hc.full_polynomial())
    z0 = np.array([0.3, 0.2, -0.1, 0.25])
    z = z0[None, :].copy()
    for _ in range(200):
        z, _ = _fixed_point_midpoint(F, z, 5e-3, 1e-15, 100)
    for _ in range(200):
        z, _ = _fixed_point_midpoint(F, z, -5e-3, 1e-15, 100)
    ok &= float(np.max(np.abs(z[0] - z0))) <= 1e-8

    # (c) dt-refinement error ratios: 4 for midpoint, 16 for the Gauss method
    from hamlab.dynamics import _fixed_point_gauss4

    H1 = EllipticHamiltonian((1.3,), Polynomial.zero(1), s=4.0)
    F1 = CompiledField(H1.full_polynomial())
    for stepper, target in ((_fixed_point_midpoint, 4.0), (_fixed_point_gauss4, 16.0)):
        errs = []
        for dt in (0.1, 0.05):
            z = np.array([[1.0, 0.0]])
            for _ in range(int(round(1.0 / dt))):
                z, _ = stepper(F1, z, dt, 1e-15, 100)
            exact = np.array([math.cos(1.3), -math.sin(1.3)])
            errs.append(float(np.linalg.norm(z[0] - exact)))
        ratio = errs[0] / errs[1]
        ok &= abs(ratio - target) <= 0.2 * target

    ok &= time.time() - t0 < 120.0
    report(7, "integrator property suite", ok)


def test_criterion_8_drift_bound_consistency():
    """Ensemble drift under the normal-form triangle bound; improves with rho."""
    t0 = time.time()
    beta = np.diag([1.0, -2.0])
    params = RandomHamiltonianParams(
        n=2,
        include_beta=beta,
        degree_max=5,
        n_terms=4,
        coefficient_scale=0.3,
        seed=1,
    )
    H = generate_random_hamiltonian(params)
    cfg = IntegratorConfig(dt=0.1)
    T = 1.0e4

    drifts = {}
    for rho in (0.05, 0.025):
        Hs = H.scaled(rho)
        res = birkhoff_normal_form(Hs, m=2, radius=math.sqrt(2.0))
        rem_majorant = res.remainder.majorant_norm(math.sqrt(2.0))
        rem_vf = max(
            res.remainder.partial(i).majorant_norm(math.sqrt(2.0)) for i in range(4)
        ) if res.remainder.terms else 0.0
        T_used = min(T, 0.1 / rem_majorant) if rem_majorant > 0 else T
        ens = ensemble_drift(H, rho, N=32, T=T_used, cfg=cfg, seed=8, sample_stride=10)
        bound = 10.0 * rem_vf * T_used + 2.0 * res.transform_displacement
        drifts[rho] = ens.max_drift_l1
        if rho == 0.05:
            ok = ens.max_drift_l1 <= bound
    ok &= drifts[0.025] < drifts[0.05]
    ok &= time.time() - t0 < 900.0
    report(8, "drift bound consistency", ok)


def test_criterion_9_symplectic_algebra_suite():
    """Bracket axioms exactly; transform symplectic and invertible numerically."""
    t0 = time.time()

    def rand_exact_poly(rng, deg_max=3, n_terms=3):
        terms = {}
        for _ in range(n_terms):
            d = int(rng.integers(1, deg_max + 1))
            key = [0] * 4
            for _ in range(d):
                key[int(rng.integers(0, 4))] += 1
            terms[tuple(key)] = Fraction(int(rng.integers(-6, 7)), 3)
        return Polynomial(2, terms)

    ok = True
    rng = np.random.default_rng(9)
    for _ in range(10):
        f, g, h = (rand_exact_poly(rng) for _ in range(3))
        ok &= (poisson_bracket(f, g) + poisson_bracket(g, f)).is_zero()
        lhs = poisson_bracket(f, g * h)
        rhs = poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
        ok &= (lhs - rhs).is_zero()
        jac = (
            poisson_bracket(f, poisson_bracket(g, h))
            + poisson_bracket(g, poisson_bracket(h, f))
            + poisson_bracket(h, poisson_bracket(f, g))
        )
        ok &= jac.is_zero()

    V = Polynomial(2, {(3, 0, 0, 0): 0.1, (0, 1, 1, 1): -0.08})
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    res = birkhoff_normal_form(H, m=2)
    z0 = np.array([0.02, -0.015, 0.01, 0.018])
    back = apply_transform(res, apply_transform(res, z0, "forward"), "inverse")
    ok &= float(np.max(np.abs(back - z0))) <= 1e-9

    hstep = 1e-5
    J = np.zeros((4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = hstep
        J[:, j] = (
            apply_transform(res, z0 + e) - apply_transform(res, z0 - e)
        ) / (2 * hstep)
    Om = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    ok &= float(np.max(np.abs(J.T @ Om @ J - Om))) <= 1e-6
    ok &= time.time() - t0 < 60.0
    report(9, "symplectic algebra suite", ok)
