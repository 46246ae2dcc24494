"""Symplectic integrators: conservation, order, ensembles, and escape scans."""

import math

import numpy as np
import pytest

from hamlab.dynamics import (
    DriftRecord,
    EnsembleSummary,
    IntegratorConfig,
    ensemble_drift,
    escape_time_scan,
    integrate,
    integrate_batch,
    sample_initial_conditions,
)
from hamlab.errors import FixedPointDivergence, OutOfDomain
from hamlab.model import EllipticHamiltonian, formal_actions
from hamlab.poly import Polynomial

GOLDEN_F = (1 + math.sqrt(5)) / 2


def harmonic(alpha=(1.0, GOLDEN_F)):
    return EllipticHamiltonian(alpha, Polynomial.zero(len(alpha)), s=4.0)


def cubic_example():
    V = Polynomial(2, {(3, 0, 0, 0): 0.05, (1, 0, 0, 2): -0.04})
    return EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")


def test_harmonic_actions_exactly_conserved():
    # the formal actions are invariants of the linear flow; the implicit
    # midpoint step conserves quadratic invariants to rounding
    H = harmonic()
    cfg = IntegratorConfig(dt=1e-2)
    z0 = np.array([0.3, -0.2, 0.1, 0.4])
    rec = integrate(H, z0, cfg, T=50.0, sample_stride=10)
    assert rec.status == "ok"
    assert rec.max_drift_l1 < 1e-12
    assert rec.energy_spread < 1e-12


def test_harmonic_matches_exact_rotation():
    # one oscillator: z(t) is a rotation by angle alpha t, up to O(dt^2) phase
    H = EllipticHamiltonian((1.0,), Polynomial.zero(1), s=4.0)
    dt, T = 1e-3, 2.0
    rec = integrate(H, np.array([0.5, 0.0]), IntegratorConfig(dt=dt), T, sample_stride=2000)
    exact = np.array([0.5 * math.cos(T), -0.5 * math.sin(T)])
    got = np.sqrt(2 * rec.actions[-1][0])
    assert got == pytest.approx(0.5, abs=1e-12)
    assert rec.energies[-1] == pytest.approx(0.125, abs=1e-13)


@pytest.mark.parametrize("T", [5.0, 5.03])
def test_linear_fast_path_agrees_with_generic_path(T):
    # add a tiny cubic term to force the generic path and compare with the
    # closed-form linear path on the same quadratic Hamiltonian
    H = harmonic()
    V = Polynomial(2, {(3, 0, 0, 0): 1e-14})
    H_eps = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    z0 = np.array([[0.2, 0.1, -0.1, 0.3]])
    cfg = IntegratorConfig(dt=1e-2)
    fast = integrate_batch(H, z0, cfg, T=T, sample_stride=5)[0]
    slow = integrate_batch(H_eps, z0, cfg, T=T, sample_stride=5)[0]
    assert fast.actions[-1] == pytest.approx(slow.actions[-1], abs=1e-8)
    assert fast.sample_times == pytest.approx(slow.sample_times)


@pytest.mark.parametrize("method,order", [("implicit_midpoint", 2), ("gauss4", 4)])
def test_convergence_order(method, order):
    # global error against the exact rotation scales like dt^order
    H = EllipticHamiltonian((1.3,), Polynomial.zero(1), s=4.0)
    T = 1.0
    errs = []
    for dt in (0.1, 0.05):
        rec = integrate(H, np.array([1.0, 0.0]), IntegratorConfig(method=method, dt=dt), T, sample_stride=int(T / dt))
        # recover the final point from the action and energy is not enough;
        # integrate the nonlinear path instead for the error probe
        z = np.array([[1.0, 0.0]])
        steps = int(round(T / dt))
        from hamlab.dynamics import CompiledField, _fixed_point_gauss4, _fixed_point_midpoint

        F = CompiledField(H.full_polynomial())
        stepper = _fixed_point_midpoint if method == "implicit_midpoint" else _fixed_point_gauss4
        for _ in range(steps):
            z, _conv = stepper(F, z, dt, 1e-15, 100)
        exact = np.array([math.cos(1.3 * T), -math.sin(1.3 * T)])
        errs.append(np.linalg.norm(z[0] - exact))
    ratio = errs[0] / errs[1]
    assert ratio == pytest.approx(2.0**order, rel=0.25)


def test_nonlinear_energy_conservation_and_reversibility():
    H = cubic_example()
    cfg = IntegratorConfig(dt=5e-3)
    z0 = np.array([0.3, 0.2, -0.1, 0.25])
    rec = integrate(H, z0, cfg, T=20.0, sample_stride=10)
    assert rec.status == "ok"
    assert rec.energy_spread < 1e-8

    # the midpoint method is time-symmetric: stepping forward then backward
    # returns to the start
    from hamlab.dynamics import CompiledField, _fixed_point_midpoint

    F = CompiledField(H.full_polynomial())
    z = z0[None, :].copy()
    for _ in range(100):
        z, _ = _fixed_point_midpoint(F, z, 5e-3, 1e-15, 100)
    for _ in range(100):
        z, _ = _fixed_point_midpoint(F, z, -5e-3, 1e-15, 100)
    assert z[0] == pytest.approx(z0, abs=1e-10)


def test_symplecticity_via_finite_differences():
    # the one-step map preserves the symplectic form
    from hamlab.dynamics import CompiledField, _fixed_point_midpoint

    H = cubic_example()
    F = CompiledField(H.full_polynomial())
    z0 = np.array([0.3, 0.2, -0.1, 0.25])
    dt, h = 0.05, 1e-6
    stencil = [z0]
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        stencil.extend([z0 + e, z0 - e])
    out, _ = _fixed_point_midpoint(F, np.array(stencil), dt, 1e-15, 100)
    J = np.zeros((4, 4))
    for j in range(4):
        J[:, j] = (out[1 + 2 * j] - out[2 + 2 * j]) / (2 * h)
    Om = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    assert np.max(np.abs(J.T @ Om @ J - Om)) < 1e-8


def test_integrate_batch_matches_single_runs():
    H = cubic_example()
    cfg = IntegratorConfig(dt=1e-2)
    Z0 = sample_initial_conditions(2, 3, seed=5, scale=0.3)
    batch = integrate_batch(H, Z0, cfg, T=2.0, sample_stride=10)
    for i in range(3):
        single = integrate(H, Z0[i], cfg, T=2.0, sample_stride=10)
        assert batch[i].max_drift_l1 == pytest.approx(single.max_drift_l1, rel=1e-12, abs=1e-15)
        assert batch[i].actions[-1] == pytest.approx(single.actions[-1])


def test_domain_and_stability_guards():
    H = cubic_example()
    cfg = IntegratorConfig(dt=1e-2)
    with pytest.raises(OutOfDomain):
        integrate(H, np.array([4.0, 0.0, 0.0, 0.0]), cfg, T=1.0)
    with pytest.raises(OutOfDomain):
        integrate_batch(H, np.zeros((2, 6)), cfg, T=1.0)
    with pytest.raises(FixedPointDivergence):
        integrate(H, np.array([2.0, 0.0, 0.0, 0.0]), IntegratorConfig(dt=5.0), T=10.0)


def test_sampler_properties():
    Z0 = sample_initial_conditions(2, 200, seed=3)
    I = formal_actions(2, Z0)
    assert np.all(I.sum(axis=1) < 1.0)
    assert np.all(I >= 0.0)
    # counter-based keying: the first rows do not depend on how many are drawn
    Z1 = sample_initial_conditions(2, 5, seed=3)
    assert Z1 == pytest.approx(Z0[:5])
    # scale parameter acts on the radius
    Zs = sample_initial_conditions(2, 5, seed=3, scale=0.5)
    assert Zs == pytest.approx(Z1 * 0.5)


def test_ensemble_drift_summary():
    H = cubic_example()
    cfg = IntegratorConfig(dt=2e-2)
    summ = ensemble_drift(H, rho=0.1, N=8, T=20.0, cfg=cfg, seed=1)
    assert isinstance(summ, EnsembleSummary)
    assert summ.n_traj == 8
    assert summ.drifts.shape == (8,)
    assert summ.median_drift_l1 <= summ.max_drift_l1
    assert summ.escape_count == sum(s != "ok" for s in summ.statuses)
    # deterministic in the seed
    summ2 = ensemble_drift(H, rho=0.1, N=8, T=20.0, cfg=cfg, seed=1)
    assert summ2.drifts == pytest.approx(summ.drifts)


def test_drift_decreases_with_rho():
    H = cubic_example()
    cfg = IntegratorConfig(dt=2e-2)
    d_big = ensemble_drift(H, rho=0.2, N=6, T=30.0, cfg=cfg, seed=2).max_drift_l1
    d_small = ensemble_drift(H, rho=0.05, N=6, T=30.0, cfg=cfg, seed=2).max_drift_l1
    assert d_small < d_big


def test_escape_scan_integrable_case_censored():
    # V = 0: actions never drift, every row is censored
    H = harmonic()
    cfg = IntegratorConfig(dt=5e-2)
    rows = escape_time_scan(H, [0.2, 0.1], 2.0, T_max=10.0, cfg=cfg, N=4)
    assert all(r["censored"] for r in rows)
    assert all(r["escape_time"] is None for r in rows)
    assert rows[0]["local_slope"] is None


def test_escape_scan_reports_escapes_with_tiny_threshold():
    H = cubic_example()
    cfg = IntegratorConfig(dt=2e-2)
    rows = escape_time_scan(H, [0.2, 0.1], 1e-9, T_max=20.0, cfg=cfg, N=4, sample_stride=5)
    assert not rows[0]["censored"]
    assert rows[0]["escape_time"] > 0.0
    assert "local_slope" in rows[1]


def test_drift_record_fields():
    H = harmonic()
    rec = integrate(H, np.array([0.1, 0.0, 0.0, 0.1]), IntegratorConfig(dt=0.1), T=1.0, sample_stride=2)
    assert isinstance(rec, DriftRecord)
    assert rec.sample_times[0] == 0.0
    assert rec.actions.shape == (len(rec.sample_times), 2)
    assert len(rec.energies) == len(rec.sample_times)
