"""Symplectic integrators: conservation, order, ensembles, and escape scans."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from hamlab.dynamics import (
    _GAUSS4,
    _MIDPOINT,
    CompiledField,
    DriftRun,
    EnsembleSummary,
    IntegratorConfig,
    _fixed_point_gauss4,
    _fixed_point_midpoint,
    ensemble_drift,
    escape_time_scan,
    integrate_batch,
    sample_initial_conditions,
)
from hamlab.errors import FixedPointDivergence, OutOfDomain
from hamlab.lab import RandomHamiltonianParams, generate_random_hamiltonian
from hamlab.model import EllipticHamiltonian, formal_actions
from hamlab.poly import CompiledPoly, Polynomial

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


@pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
def test_config_refuses_a_step_that_is_not_finite_and_positive(dt):
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        IntegratorConfig(dt=dt)


def test_harmonic_actions_exactly_conserved():
    # the formal actions are invariants of the linear flow; the implicit
    # midpoint step conserves quadratic invariants to rounding
    H = harmonic()
    cfg = IntegratorConfig(dt=1e-2)
    z0 = np.array([0.3, -0.2, 0.1, 0.4])
    run = integrate_batch(H, z0[None], cfg, 50.0, 10)
    assert run.status == ["ok"]
    assert run.max_drift_l1[0] < 1e-12
    assert np.ptp(run.energies[0]) < 1e-12


def test_harmonic_matches_exact_rotation():
    # one oscillator: z(t) is a rotation by angle alpha t, up to O(dt^2) phase
    H = EllipticHamiltonian((1.0,), Polynomial.zero(1), s=4.0)
    dt, T = 1e-3, 2.0
    run = integrate_batch(H, np.array([[0.5, 0.0]]), IntegratorConfig(dt=dt), T, 2000)
    exact = np.array([0.5 * math.cos(T), -0.5 * math.sin(T)])
    got = np.sqrt(2 * run.actions[0, -1, 0])
    assert got == pytest.approx(0.5, abs=1e-12)
    assert run.energies[0, -1] == pytest.approx(0.125, abs=1e-13)


def count_field_calls_and_steps(monkeypatch):
    """Counts of CompiledField calls and of implicit steps, by the names
    integrate_batch calls them through."""
    import hamlab.dynamics as dynamics

    counts = {"evals": 0, "steps": 0}
    call = CompiledField.__call__

    def counted_call(self, z):
        counts["evals"] += 1
        return call(self, z)

    monkeypatch.setattr(CompiledField, "__call__", counted_call)
    for name in ("_fixed_point_midpoint", "_fixed_point_gauss4"):

        def counted_step(*args, step=getattr(dynamics, name)):
            counts["steps"] += 1
            return step(*args)

        monkeypatch.setattr(dynamics, name, counted_step)
    return counts


@pytest.mark.parametrize("method", ["implicit_midpoint", "gauss4"])
def test_a_quadratic_hamiltonian_takes_one_newton_sweep_per_step(method, monkeypatch):
    # the Newton start is the exact step of the linear field, so the first
    # sweep's increment is rounding and every solve stops there
    counts = count_field_calls_and_steps(monkeypatch)
    Z0 = sample_initial_conditions(2, 16, seed=0)
    run = integrate_batch(harmonic(), Z0, IntegratorConfig(method=method, dt=1e-2), 100.0, 10)
    assert counts["steps"] == 10_000 and counts["evals"] == counts["steps"]
    assert run.status == ["ok"] * 16
    assert run.max_drift_l1.max() < 1e-13


@pytest.mark.parametrize("dt", [0.2, 0.5, 2.0])
@pytest.mark.parametrize("method", ["implicit_midpoint", "gauss4"])
def test_a_quadratic_hamiltonian_is_not_refused_at_any_step(method, dt):
    # the frozen Jacobian solves a linear field exactly, so no dt makes the
    # simplified Newton map on it fail to contract
    run = integrate_batch(harmonic(), np.array([[0.2, 0.1, -0.1, 0.3]]), IntegratorConfig(method=method, dt=dt), 20.0)
    assert run.status == ["ok"]
    assert run.max_drift_l1[0] < 1e-14


@pytest.mark.parametrize("method,order", [("implicit_midpoint", 2), ("gauss4", 4)])
def test_convergence_order(method, order):
    # global error against the exact rotation scales like dt^order
    H = EllipticHamiltonian((1.3,), Polynomial.zero(1), s=4.0)
    T = 1.0
    errs = []
    for dt in (0.1, 0.05):
        integrate_batch(H, np.array([[1.0, 0.0]]), IntegratorConfig(method=method, dt=dt), T, int(T / dt))
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
    run = integrate_batch(H, z0[None], cfg, 20.0, 10)
    assert run.status == ["ok"]
    assert np.ptp(run.energies[0]) < 1e-8

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
    Z0 = sample_initial_conditions(2, 3, seed=5) * 0.3
    batch = integrate_batch(H, Z0, cfg, T=2.0, sample_stride=10)
    for i in range(3):
        single = integrate_batch(H, Z0[i][None], cfg, 2.0, 10)
        assert batch.max_drift_l1[i] == pytest.approx(single.max_drift_l1[0], rel=1e-12, abs=1e-15)
        last = batch.actions[i, batch.kept[i] - 1]
        assert last == pytest.approx(single.actions[0, single.kept[0] - 1])


def test_domain_and_stability_guards():
    H = cubic_example()
    cfg = IntegratorConfig(dt=1e-2)
    with pytest.raises(OutOfDomain):
        integrate_batch(H, np.array([[4.0, 0.0, 0.0, 0.0]]), cfg, T=1.0)
    with pytest.raises(OutOfDomain):
        integrate_batch(H, np.zeros((2, 6)), cfg, T=1.0)
    # a point that is not finite is not inside the domain either
    for bad in (math.nan, math.inf):
        with pytest.raises(OutOfDomain, match="outside the domain"):
            integrate_batch(H, np.array([[0.1, 0.0, 0.0, 0.1], [bad, 0.0, 0.0, 0.0]]), cfg, T=1.0)
    # refused at startup: dt times the Hessian bound is far above 1
    with pytest.raises(FixedPointDivergence):
        integrate_batch(H, np.array([[2.0, 0.0, 0.0, 0.0]]), IntegratorConfig(dt=5.0), T=10.0)


@pytest.mark.parametrize("T, stride", [(0.0, 1), (-5.0, 1), (math.inf, 1), (math.nan, 1), (1.0, 0), (1.0, -2)])
def test_bad_horizon_or_stride_is_refused_first(T, stride):
    H, cfg = cubic_example(), IntegratorConfig(dt=1e-2)
    with pytest.raises(ValueError, match="finite T > 0 and sample_stride >= 1"):
        integrate_batch(H, np.array([[0.1, 0.0, 0.0, 0.1]]), cfg, T, stride)
    # refused before the points are read: these would leave the domain
    with pytest.raises(ValueError, match="finite T > 0 and sample_stride >= 1"):
        integrate_batch(H, np.zeros((2, 6)), cfg, T, stride)


@pytest.mark.parametrize("T, dt, steps", [(0.016, 0.01, 1), (12.0, 0.1, 120)])
def test_horizon_is_the_most_whole_steps_within_T(T, dt, steps):
    # the run never passes T: 0.016 takes one step of 0.01, not two; and T / dt
    # just below a whole number (12 / 0.1) still counts that step
    for H in (harmonic(), cubic_example()):
        run = integrate_batch(H, np.array([[0.2, 0.1, -0.1, 0.3]]), IntegratorConfig(dt=dt), T)
        assert run.status == ["ok"]
        assert len(run.times) == run.kept[0] == steps + 1
        assert run.times[-1] == pytest.approx(steps * dt, rel=1e-12)
        assert run.times[-1] <= T * (1 + 1e-9)


def test_empty_batch_is_refused_by_name():
    with pytest.raises(ValueError, match="Z0 must hold at least one initial condition"):
        integrate_batch(cubic_example(), np.zeros((0, 4)), IntegratorConfig(dt=0.01), 1.0)


def test_horizon_shorter_than_one_step_is_refused():
    with pytest.raises(ValueError, match="need T >= dt"):
        integrate_batch(cubic_example(), np.array([[0.1, 0.0, 0.0, 0.1]]), IntegratorConfig(dt=0.01), 0.004)


@pytest.mark.parametrize("T, dt", [(1e308, 1e-10), (1e300, 1e-300)])
def test_horizon_of_infinitely_many_steps_is_refused(T, dt):
    # T and dt are finite, but T / dt overflows to inf: refused before the
    # step count is taken, and before the points are read
    for Z0 in (np.array([[0.1, 0.0, 0.0, 0.1]]), np.zeros((2, 6))):
        with pytest.raises(ValueError, match="need finitely many steps of dt in T"):
            integrate_batch(cubic_example(), Z0, IntegratorConfig(dt=dt), T)


@pytest.mark.parametrize("method", ["implicit_midpoint", "gauss4"])
def test_divergence_inside_a_run(method, monkeypatch):
    # beyond the saddle of q^2/2 + q^3 the orbit blows up in finite time; once
    # dt |H''| is of order one the implicit solve stops converging, long before
    # the orbit reaches |z| = s or its energy moves by the raised abort bound
    import hamlab.dynamics as dynamics

    monkeypatch.setattr(dynamics, "_ENERGY_ABORT", 1e12)
    H = EllipticHamiltonian((1.0,), Polynomial(1, {(3, 0): 1.0}), s=1e6)
    cfg = IntegratorConfig(method=method, dt=0.1)
    Z0 = np.array([[0.3, 0.1], [0.1, 0.0]])
    with np.errstate(all="ignore"):
        run = integrate_batch(H, Z0, cfg, T=10.0)
        assert run.status == ["fixed_point_divergence", "ok"]
        m = run.kept[0]
        last = run.times[m - 1]
        assert 1.0 < last < 10.0
        # predicted starts leave the failing step where linear starts put it
        assert m == {"implicit_midpoint": 49, "gauss4": 50}[method]
        assert np.all(np.isfinite(run.actions[0, :m]))
        # the record ends at the last good sample: the run up to it succeeds
        # with the same samples, and the one step after it fails
        upto = integrate_batch(H, Z0[:1], cfg, T=last)
        assert upto.status == ["ok"]
        assert upto.times[: upto.kept[0]] == pytest.approx(run.times[:m])
        assert upto.actions[0, : upto.kept[0]] == pytest.approx(run.actions[0, :m], rel=1e-12)
        after = integrate_batch(H, Z0[:1], cfg, T=last + cfg.dt)
        assert after.status == ["fixed_point_divergence"]
        summ = ensemble_drift(H, rho=0.2, N=6, T=20.0, cfg=cfg, seed=0)
    diverged = summ.statuses.count("fixed_point_divergence")
    assert 0 < diverged < len(summ.statuses)
    assert summ.escape_count == diverged


def _reference_midpoint(F, z, dt, tol, max_iters):
    """Plain fixed-point implicit-midpoint step, sweeping the whole batch."""
    zn = z + dt * F(z)
    converged = np.zeros(z.shape[0], dtype=bool)
    polish = np.zeros(z.shape[0], dtype=np.int64)
    for _ in range(max_iters + 2):
        znew = z + dt * F(0.5 * (z + zn))
        err = np.max(np.abs(znew - zn), axis=-1)
        zn = znew
        newly = err < tol
        polish[converged] += 1
        converged |= newly
        if np.all(polish >= 2):
            break
    return zn, converged


def _reference_gauss4(F, z, dt, tol, max_iters):
    """Plain fixed-point two-stage Gauss step, sweeping the whole batch."""
    a11 = a22 = 0.25
    a12, a21 = 0.25 - math.sqrt(3.0) / 6.0, 0.25 + math.sqrt(3.0) / 6.0
    K1 = F(z)
    K2 = K1.copy()
    converged = np.zeros(z.shape[0], dtype=bool)
    polish = np.zeros(z.shape[0], dtype=np.int64)
    for _ in range(max_iters + 2):
        K1n = F(z + dt * (a11 * K1 + a12 * K2))
        K2n = F(z + dt * (a21 * K1 + a22 * K2))
        err = np.maximum(
            np.max(np.abs(K1n - K1), axis=-1), np.max(np.abs(K2n - K2), axis=-1)
        )
        K1, K2 = K1n, K2n
        newly = err < tol
        polish[converged] += 1
        converged |= newly
        if np.all(polish >= 2):
            break
    return z + 0.5 * dt * (K1 + K2), converged


def random_quintic_field(seed):
    params = RandomHamiltonianParams(n=2, degree_max=5, n_terms=8, coefficient_scale=0.3, seed=seed)
    return CompiledField(generate_random_hamiltonian(params).full_polynomial())


@pytest.mark.parametrize("dt", [0.1, 0.01, -0.05])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_newton_steps_match_fixed_point_reference(seed, dt):
    F = random_quintic_field(seed)
    Z = sample_initial_conditions(2, 16, seed=seed) * 0.6
    for stepper, reference in (
        (_fixed_point_midpoint, _reference_midpoint),
        (_fixed_point_gauss4, _reference_gauss4),
    ):
        z_new, conv_new = stepper(F, Z, dt, 1e-13, 50)
        z_ref, conv_ref = reference(F, Z, dt, 1e-13, 50)
        assert conv_new.tolist() == conv_ref.tolist()
        assert np.max(np.abs(z_new - z_ref)) <= 1e-13


@pytest.mark.parametrize("dt", [0.1, 0.01, -0.05])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_predicted_start_does_not_move_the_root(seed, dt):
    F = random_quintic_field(seed)
    Z = sample_initial_conditions(2, 16, seed=seed) * 0.6
    for stepper, stages in ((_fixed_point_midpoint, 1), (_fixed_point_gauss4, 2)):
        plain, conv = stepper(F, Z, dt, 1e-13, 50)
        # a zero guess is the linear start; it comes back as the solved part
        solved = np.zeros((len(Z), 4 * stages))
        zero, conv_zero = stepper(F, Z, dt, 1e-13, 50, solved)
        assert zero.tobytes() == plain.tobytes() and conv_zero.tolist() == conv.tolist()
        assert np.all(np.abs(solved[conv]).max(axis=1) > 0)
        # the solved part of one step predicts the next, from where it ended
        plain_rec, guess_rec = RecordingField(F), RecordingField(F)
        want, conv_want = stepper(plain_rec, plain, dt, 1e-13, 50)
        got, conv_got = stepper(guess_rec, plain, dt, 1e-13, 50, solved)
        assert conv_got.tolist() == conv_want.tolist()
        assert np.max(np.abs(got[conv_want] - want[conv_want]), initial=0.0) <= 1e-13
        assert len(guess_rec.rows) <= len(plain_rec.rows)


class RecordingField:
    """A compiled field that records how many rows each evaluation gets."""

    def __init__(self, F):
        self.F, self.A, self.rows = F, F.A, []

    def __call__(self, z):
        self.rows.append(z.shape[0])
        return self.F(z)


@pytest.mark.parametrize("stepper", [_fixed_point_midpoint, _fixed_point_gauss4])
def test_rows_stop_iterating_on_their_own(stepper):
    F = random_quintic_field(0)
    fast = np.array([[0.05, -0.02, 0.03, 0.01]])
    slow = np.array([[1.1, -0.8, 0.9, 0.7]])
    alone_F, both_F = RecordingField(F), RecordingField(F)
    alone, _ = stepper(alone_F, fast, 0.1, 1e-13, 50)
    both, conv = stepper(both_F, np.vstack([fast, slow]), 0.1, 1e-13, 50)
    assert conv.all()
    # all stages in one call per sweep; simplified Newton needs a few sweeps
    # here, where the plain fixed-point iteration needs about a dozen
    sweeps = len(alone_F.rows)
    assert alone_F.rows == [1] * sweeps and sweeps <= 8
    # the fast row leaves the batch when it is done, the slow one goes on
    assert both_F.rows[:sweeps] == [2] * sweeps
    assert len(both_F.rows) > sweeps and set(both_F.rows[sweeps:]) == {1}
    assert np.max(np.abs(both[0] - alone[0])) <= 1e-15


_GAUSS_A = np.array([[0.25, 0.25 - math.sqrt(3.0) / 6.0], [0.25 + math.sqrt(3.0) / 6.0, 0.25]])


def _newton_increments(F, z, dt, a, sweeps):
    """dt * max |dK| of the first sweeps of simplified Newton on one row."""
    s, d = len(a), z.size
    M = np.eye(s * d) - dt * np.kron(a, F.A)
    K = np.linalg.solve(M, np.tile(F.A @ z, s))  # the exact linear step
    out = []
    for _ in range(sweeps):
        dK = np.linalg.solve(M, K - F(z + dt * (a @ K.reshape(s, d))).ravel())
        K = K - dK
        out.append(abs(dt) * np.max(np.abs(dK)))
    return out


@pytest.mark.parametrize(
    "stepper, a", [(_fixed_point_midpoint, np.array([[0.5]])), (_fixed_point_gauss4, _GAUSS_A)]
)
def test_rows_stop_at_their_first_small_increment(stepper, a):
    F = random_quintic_field(0)
    # increments of both rows stay at least a factor 2 away from tol
    Z = np.array([[0.05, -0.02, 0.03, 0.01], [0.9, -0.7, 0.8, 0.6]])
    first = []
    for z in Z:
        incs = _newton_increments(F, z, 0.1, a, 20)
        first.append(1 + next(j for j, inc in enumerate(incs) if inc < 1e-13))
        rec = RecordingField(F)
        _, conv = stepper(rec, z[None, :], 0.1, 1e-13, 50)
        assert conv.all() and len(rec.rows) == first[-1]
    assert first[0] < first[1]
    rec = RecordingField(F)
    stepper(rec, Z, 0.1, 1e-13, 50)
    assert rec.rows == [2] * first[0] + [1] * (first[1] - first[0])


class NaNField(RecordingField):
    """A recording field that returns NaN on the stage points of rows whose
    first coordinate is above 5 (and, as any field, on NaN points)."""

    def __call__(self, z):
        out = super().__call__(z)
        out[(z[..., 0] > 5.0).any(axis=-1)] = np.nan
        return out


@pytest.mark.parametrize(
    "stepper, a", [(_fixed_point_midpoint, np.array([[0.5]])), (_fixed_point_gauss4, _GAUSS_A)]
)
def test_a_nan_increment_keeps_its_row_iterating(stepper, a):
    F = random_quintic_field(0)
    fast, slow = [0.05, -0.02, 0.03, 0.01], [0.9, -0.7, 0.8, 0.6]
    first = [
        1 + next(j for j, inc in enumerate(_newton_increments(F, np.array(z), 0.1, a, 20)) if inc < 1e-13)
        for z in (fast, slow)
    ]
    Z = np.array([fast, [6.0, 0.1, -0.2, 0.3], slow])
    rec = NaNField(F)
    with np.errstate(invalid="ignore"):
        got, conv = stepper(rec, Z, 0.1, 1e-13, 50)
    # the NaN row runs every sweep and fails; the others leave the field
    # call at their own first small increment, as without it
    assert conv.tolist() == [True, False, True]
    assert rec.rows == [3] * first[0] + [2] * (first[1] - first[0]) + [1] * (50 + 2 - first[1])
    assert np.isnan(got[1]).all()
    want, _ = stepper(F, Z[[0, 2]], 0.1, 1e-13, 50)
    assert np.max(np.abs(got[[0, 2]] - want)) <= 1e-15


@pytest.mark.parametrize("dt", [0.2, 0.1, -0.05])
@pytest.mark.parametrize("scale", [0.6, 0.9, 1.2])
def test_stopped_rows_match_a_long_newton_solve(scale, dt):
    # the first increment below tol leaves an error of about theta * tol,
    # theta the contraction ratio, so 200 sweeps change a stopped row by
    # far less than tol
    converged = 0
    for seed in range(6):
        F = random_quintic_field(seed)
        Z = sample_initial_conditions(2, 16, seed=seed) * scale
        for stepper in (_fixed_point_midpoint, _fixed_point_gauss4):
            with np.errstate(all="ignore"):
                z_new, conv = stepper(F, Z, dt, 1e-13, 50)
                z_long, never = stepper(F, Z, dt, 0.0, 198)
            assert not never.any()
            assert np.max(np.abs(z_new[conv] - z_long[conv]), initial=0.0) <= 1e-13
            converged += conv.sum()
    assert converged > 0


def test_criterion_8_ensemble_field_evaluations_per_step(monkeypatch):
    """Count guard: at most 4.5 field calls per implicit step on criterion 8's
    ensemble (rho = 0.05 over its T = 133), so a costlier solve shows without
    a wall clock."""
    counts = count_field_calls_and_steps(monkeypatch)
    params = RandomHamiltonianParams(
        n=2, include_beta=np.diag([1.0, -2.0]), degree_max=5, n_terms=4, coefficient_scale=0.3, seed=1
    )
    H = generate_random_hamiltonian(params)
    for method in ("implicit_midpoint", "gauss4"):
        counts.update(evals=0, steps=0)
        cfg = IntegratorConfig(method=method, dt=0.1)
        summary = ensemble_drift(H, 0.05, N=32, T=133.0, cfg=cfg, seed=8, sample_stride=10)
        assert summary.escape_count == 0
        assert counts["steps"] == 1330
        assert counts["evals"] <= 4.5 * counts["steps"]


def test_newton_inverse_is_built_once_per_run(monkeypatch):
    import hamlab.dynamics as dynamics

    built = []
    collocation = dynamics._collocation

    def counted(A, dt, a):
        built.append(dt)
        return collocation(A, dt, a)

    monkeypatch.setattr(dynamics, "_collocation", counted)
    Z0 = sample_initial_conditions(2, 4, seed=0) * 0.3
    for method in ("implicit_midpoint", "gauss4"):
        built.clear()
        cfg = IntegratorConfig(method=method, dt=0.01)
        run = integrate_batch(cubic_example(), Z0, cfg, T=0.5)
        assert built == [0.01]
        assert run.status == ["ok"] * 4


def test_sampler_properties():
    Z0 = sample_initial_conditions(2, 200, seed=3)
    I = formal_actions(2, Z0)
    assert np.all(I.sum(axis=1) < 1.0)
    assert np.all(I >= 0.0)
    # counter-based keying: the first rows do not depend on how many are drawn
    Z1 = sample_initial_conditions(2, 5, seed=3)
    assert Z1 == pytest.approx(Z0[:5])


@pytest.mark.parametrize("seed", [-1, 2**32, 2**44])
def test_sampler_refuses_a_seed_outside_32_bits(seed):
    # seed << 20 wraps in 64 bits, so 2**44 would draw seed 0's points
    with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*32\), got {seed}"):
        sample_initial_conditions(2, 4, seed)
    with pytest.raises(ValueError, match="seed must be in"):
        ensemble_drift(cubic_example(), rho=0.1, N=2, T=1.0, cfg=IntegratorConfig(), seed=seed)


def test_sampler_takes_the_largest_32_bit_seed():
    top = sample_initial_conditions(2, 4, 2**32 - 1)
    assert top.shape == (4, 4) and not np.array_equal(top, sample_initial_conditions(2, 4, 0))


def test_sampler_refuses_more_rows_than_its_keys_hold(monkeypatch):
    # row 2**20 + j of seed s would be keyed as row j of seed s + 1
    import hamlab.dynamics as dynamics

    monkeypatch.setattr(dynamics.np.random, "Philox", None)
    with pytest.raises(ValueError, match=r"N must be at most 2\*\*20, got 1048577"):
        sample_initial_conditions(2, 2**20 + 1, 0)
    with pytest.raises(ValueError, match=r"N must be at most 2\*\*20"):
        ensemble_drift(cubic_example(), rho=0.1, N=2**20 + 1, T=1.0, cfg=IntegratorConfig())


def per_row_initial_conditions(n, N, seed):
    """sample_initial_conditions as a loop that draws and transforms one row
    at a time."""
    out = np.empty((N, 2 * n))
    for i in range(N):
        rng = np.random.Generator(np.random.Philox(key=(np.uint64(seed) << np.uint64(20)) + np.uint64(i)))
        e = rng.exponential(size=n + 1)
        I = e[:n] / np.sum(e)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        r = np.sqrt(2.0 * I)
        out[i, :n] = r * np.cos(theta)
        out[i, n:] = r * np.sin(theta)
    return out


@pytest.mark.parametrize("n, N, seed", [(1, 5, 0), (2, 32, 0), (2, 7, 41), (3, 16, 9), (9, 4, 2), (16, 3, 5), (2, 0, 1)])
def test_sampler_matches_a_per_row_reference(n, N, seed):
    got, want = sample_initial_conditions(n, N, seed), per_row_initial_conditions(n, N, seed)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_escape_scan_draws_the_initial_conditions_once(monkeypatch):
    import hamlab.dynamics as dynamics

    calls = []
    draw = dynamics.sample_initial_conditions
    monkeypatch.setattr(dynamics, "sample_initial_conditions", lambda *a: calls.append(a) or draw(*a))
    rows = escape_time_scan(harmonic(), [0.2, 0.1, 0.05], 2.0, T_max=1.0, cfg=IntegratorConfig(dt=5e-2), N=3)
    assert len(rows) == 3
    assert calls == [(2, 3, 0)]


@pytest.mark.parametrize("N", [0, -1])
def test_escape_scan_refuses_an_empty_ensemble_before_any_draw(N, monkeypatch):
    import hamlab.dynamics as dynamics

    monkeypatch.setattr(dynamics, "sample_initial_conditions", None)
    with pytest.raises(ValueError, match="N must be >= 1"):
        escape_time_scan(harmonic(), [0.2, 0.1], 2.0, T_max=1.0, cfg=IntegratorConfig(dt=5e-2), N=N)


@pytest.mark.parametrize("factor", [-1.0, 0.0, math.nan])
def test_escape_scan_refuses_a_threshold_factor_not_above_zero(factor, monkeypatch):
    # a factor <= 0 would make every row escape at its first sample
    import hamlab.dynamics as dynamics

    monkeypatch.setattr(dynamics, "sample_initial_conditions", None)
    with pytest.raises(ValueError, match="drift threshold factor must be > 0"):
        escape_time_scan(cubic_example(), [0.2, 0.1], factor, T_max=1.0, cfg=IntegratorConfig(dt=5e-2), N=2)


@pytest.mark.parametrize(
    "rhos, message",
    [
        ([0.3, 0.3], r"the rho grid must be strictly decreasing, got \[0.3, 0.3\]"),
        ([0.1, 0.2], r"the rho grid must be strictly decreasing, got \[0.1, 0.2\]"),
        ([0.1, math.nan], "rho must be positive and finite, got nan"),
        ([math.inf, 0.1], "rho must be positive and finite, got inf"),
        ([0.2, 0.0], "rho must be positive and finite, got 0.0"),
        ([0.2, -0.1], "rho must be positive and finite, got -0.1"),
        ([], "the rho grid must not be empty"),
    ],
)
def test_escape_scan_refuses_a_bad_grid_before_any_integration(rhos, message, monkeypatch):
    # a repeated rho made the local slope divide by zero, a bad rho late in
    # the grid was refused only after the earlier ones had been integrated,
    # and an empty grid gave a table of no rows
    import hamlab.dynamics as dynamics

    monkeypatch.setattr(dynamics, "sample_initial_conditions", None)
    monkeypatch.setattr(dynamics, "integrate_batch", None)
    with pytest.raises(ValueError, match=message):
        escape_time_scan(cubic_example(), rhos, 1e-9, T_max=2.0, cfg=IntegratorConfig(dt=2e-2), N=2)


def test_ensemble_drift_summary():
    H = cubic_example()
    cfg = IntegratorConfig(dt=2e-2)
    summ = ensemble_drift(H, rho=0.1, N=8, T=20.0, cfg=cfg, seed=1)
    assert isinstance(summ, EnsembleSummary)
    assert len(summ.statuses) == 8
    assert summ.run.max_drift_l1.tolist() == summ.drifts.tolist()
    assert summ.run.status == summ.statuses
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
    rows = escape_time_scan(H, [0.2, 0.1], 1e-9, T_max=20.0, cfg=cfg, N=4)
    assert not rows[0]["censored"]
    assert rows[0]["escape_time"] > 0.0
    assert "local_slope" in rows[1]


def test_escape_scan_matches_the_per_sample_reference():
    # the scan's table, built row by row from reference runs on the same draw;
    # the grids hold censored rows, escaped rows whose first escapes differ
    # from their last, nonzero slopes, and saddle rows that leave the domain
    # and pass the threshold only at their exit sample
    cfg, T = IntegratorConfig(dt=0.02), 20.0
    cubic, rhos = cubic_example(), [0.3, 0.2, 0.1, 0.05]
    cases = [(cubic, rhos, 6, 0.1), (cubic, rhos, 6, 0.106), (saddle(3.5), [0.4, 0.3], 4, 20.0)]
    seen, exits = [], 0
    for H, rhos, N, factor in cases:
        Z0 = sample_initial_conditions(H.n, N, 0)
        want = []
        for rho in rhos:
            recs, escapes = reference_integrate_batch(H.scaled(rho), Z0, cfg, T, 10, factor * rho)
            esc = [e for e in escapes if e is not None]
            row = {"rho": rho, "escape_time": min(esc) if esc else None, "censored": not esc}
            row["max_drift_l1"] = max(r.max_drift_l1 for r in recs)
            row["local_slope"] = None
            if want and want[-1]["escape_time"] and row["escape_time"]:
                ratio = math.log(row["escape_time"]) - math.log(want[-1]["escape_time"])
                row["local_slope"] = ratio / (math.log(1.0 / rho) - math.log(1.0 / want[-1]["rho"]))
            want.append(row)
            # the first escape is a row's exit sample, which its record leaves out
            exits += any(
                r.status == "left_domain"
                and e == row["escape_time"] == len(r.sample_times) * 10 * cfg.dt
                and np.abs(r.actions - r.actions[0]).sum(axis=-1).max() <= factor * rho
                for r, e in zip(recs, escapes)
            )
        got = escape_time_scan(H, rhos, factor, T, cfg, N)
        assert repr(got) == repr(want)
        seen += got
    assert {r["censored"] for r in seen} == {True, False}
    assert any(r["local_slope"] for r in seen)
    assert exits == 2


def test_drift_run_fields():
    # a row that leaves the domain, and one that runs to T
    H = saddle(3.5)
    run = integrate_batch(H, np.array([[-0.4, 0.0], [0.1, 0.0]]), IntegratorConfig(dt=0.01), 9.0, 10)
    assert isinstance(run, DriftRun)
    S = 91
    assert run.times.shape == (S,) and run.times[0] == 0.0
    assert run.actions.shape == (2, S, 1)
    assert run.energies.shape == run.drift.shape == (2, S)
    assert run.status == ["left_domain", "ok"]
    m = run.kept[0]
    assert run.kept.dtype == np.int64 and 1 < m < S and run.kept[1] == S
    # the exit sample m counts in the drift; the samples after it are -inf
    assert np.isfinite(run.drift[0, : m + 1]).all() and np.isneginf(run.drift[0, m + 1 :]).all()
    assert np.isfinite(run.drift[1]).all()
    assert run.max_drift_l1.tolist() == run.drift.max(axis=1).tolist()
    assert run.max_drift_l1[0] > 1.0 > run.max_drift_l1[1]


@dataclass
class Record:
    """One row of a reference run: its sampled times, actions and energies,
    and its summary values."""

    sample_times: np.ndarray
    actions: np.ndarray
    energies: np.ndarray
    max_drift_l1: float
    status: str
    energy_spread: float


def reference_integrate_batch(H, Z0, cfg, T, sample_stride=1, drift_threshold=None):
    """integrate_batch as a sample loop that reads the actions, drift and
    escape of every row at every sample, fills a stopped row's later samples
    with NaN, and finds each record again by its NaN energies: the records,
    and each row's first sample time after 0 whose drift passes
    ``drift_threshold`` (None for a row censored at T, and for no threshold)."""
    import hamlab.dynamics as dynamics

    n_steps = math.floor(T / cfg.dt * (1 + 1e-9))
    Z0 = np.atleast_2d(np.asarray(Z0, dtype=float))
    N, n = Z0.shape[0], H.n
    H_poly = H.full_polynomial()
    F = CompiledField(H_poly)
    energy = CompiledPoly([H_poly])
    stepper = _fixed_point_midpoint if cfg.method == "implicit_midpoint" else _fixed_point_gauss4
    _, b = _MIDPOINT if cfg.method == "implicit_midpoint" else _GAUSS4
    n_samples = n_steps // sample_stride + 1
    times = np.arange(n_samples) * (cfg.dt * sample_stride)
    actions = np.full((N, n_samples, n), np.nan)
    energies = np.full((N, n_samples), np.nan)
    status = np.full(N, "ok", dtype=object)
    escape = np.full(N, np.nan)
    z = Z0.copy()
    I0 = formal_actions(n, Z0)
    E0 = energy(Z0)[:, 0]
    actions[:, 0] = I0
    energies[:, 0] = E0
    max_drift = np.zeros(N)
    active = np.ones(N, dtype=bool)
    # the solved nonlinear stage parts of each row's last two steps
    last, prev = np.zeros((2, N, len(b) * 2 * n))

    def advance(stride):
        for _ in range(stride):
            idx = slice(None) if active.all() else np.flatnonzero(active)
            guess = 2.0 * last[idx] - prev[idx]
            zn, conv = stepper(F, z[idx], cfg.dt, dynamics._NEWTON_TOL, dynamics._NEWTON_MAX_ITERS, guess)
            prev[idx] = last[idx]
            last[idx] = guess
            if not conv.all():
                idx = np.arange(N)[idx]
                status[idx[~conv]] = "fixed_point_divergence"
                active[idx[~conv]] = False
                idx, zn = idx[conv], zn[conv]
            z[idx] = zn

    for sample_idx in range(1, n_samples):
        if not np.any(active):
            break
        advance(sample_stride)
        t = sample_idx * sample_stride * cfg.dt
        Ia = formal_actions(n, z)
        Ea = energy(z)[:, 0]
        drift = np.sum(np.abs(Ia - I0), axis=-1)
        live = np.flatnonzero(active)
        max_drift[live] = np.maximum(max_drift[live], drift[live])
        if drift_threshold is not None:
            esc = live[(drift[live] > drift_threshold) & np.isnan(escape[live])]
            escape[esc] = t
        out = live[np.linalg.norm(z[live], axis=-1) >= H.s]
        status[out] = "left_domain"
        active[out] = False
        live = np.flatnonzero(active)
        eb = live[np.abs(Ea[live] - E0[live]) > dynamics._ENERGY_ABORT]
        status[eb] = "energy_abort"
        active[eb] = False
        rec = np.flatnonzero(active)
        actions[rec, sample_idx] = Ia[rec]
        energies[rec, sample_idx] = Ea[rec]
    advance(n_steps % sample_stride)
    records, escapes = [], [None if np.isnan(t) else float(t) for t in escape]
    for i in range(N):
        good = ~np.isnan(energies[i])
        e = energies[i][good]
        records.append(
            Record(
                sample_times=times[good],
                actions=actions[i][good],
                energies=e,
                max_drift_l1=float(max_drift[i]),
                status=status[i],
                energy_spread=float(np.max(e) - np.min(e)) if e.size else 0.0,
            )
        )
    return records, escapes


def record_bytes(rec):
    arrays = (rec.sample_times, rec.actions, rec.energies)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays] + [
        repr(v) for v in (rec.max_drift_l1, rec.status, rec.energy_spread)
    ]


def row_record(run, i):
    """Row i of a DriftRun as a Record: its first kept[i] samples."""
    m = run.kept[i]
    e = run.energies[i, :m]
    return Record(
        sample_times=run.times[:m],
        actions=run.actions[i, :m],
        energies=e,
        max_drift_l1=float(run.max_drift_l1[i]),
        status=run.status[i],
        energy_spread=float(e.max() - e.min()) if e.size else 0.0,
    )


def saddle(s):
    """q^2/2 + p^2/2 + q^3: orbits beyond the saddle at q = -1/3 blow up."""
    return EllipticHamiltonian((1.0,), Polynomial(1, {(3, 0): 1.0}), s=s)


def overflow_case():
    """A row whose field overflows, so that its solve fails on step 1, in a
    batch that otherwise runs to T: a quintic term small enough for the
    startup bound, at a point whose fourth power is inf."""
    H = EllipticHamiltonian((1.0, GOLDEN_F), Polynomial(2, {(5, 0, 0, 0): 1e-302}), s=1e101)
    Z0 = 1.5 * sample_initial_conditions(2, 12, 3)
    Z0[4] = (1e100, 0.0, 0.0, 0.0)
    return H, Z0, 0.05, 7.3, (1.0, 1.0)


# case -> (H, Z0, dt, T, energy-abort bound of midpoint and of Gauss): the
# quadratic (linear) path; a cubic ensemble that runs to T; the same with
# bounds that stop some of its rows; saddle orbits that leave the domain;
# saddle orbits whose implicit solve fails first; a batch one of whose rows
# fails on step 1; and saddle orbits that all leave before T.  Each batch
# ends with some of its rows in the status that begins the name of the case.
LOOP_CASES = {
    "linear": (harmonic(), sample_initial_conditions(2, 12, 3), 0.05, 7.3, (1.0, 1.0)),
    "ok": (cubic_example(), 1.5 * sample_initial_conditions(2, 12, 3), 0.05, 7.3, (1.0, 1.0)),
    "energy_abort": (cubic_example(), 1.5 * sample_initial_conditions(2, 12, 3), 0.05, 7.3, (7e-5, 1.5e-8)),
    "left_domain": (saddle(3.5), np.linspace(-0.45, 0.45, 24).reshape(12, 2), 0.01, 4.07, (1.0, 1.0)),
    "fixed_point_divergence": (saddle(1e6), np.linspace(-0.45, 0.45, 24).reshape(12, 2), 0.05, 5.07, (1e12, 1e12)),
    "fixed_point_divergence_on_step_1": overflow_case(),
    "left_domain_on_every_row": (
        saddle(3.5), np.array([[-0.45, 0.0], [-0.4, 0.05], [-0.36, 0.0], [-0.42, -0.1]]), 0.01, 9.0, (1.0, 1.0)
    ),
}


@pytest.mark.parametrize("threshold", [None, 1e-6, 0.05, -1.0])
@pytest.mark.parametrize("stride", [1, 3, 10])
@pytest.mark.parametrize("method", ["implicit_midpoint", "gauss4"])
@pytest.mark.parametrize("case", sorted(LOOP_CASES))
def test_integrate_batch_matches_the_per_sample_reference(case, method, stride, threshold, monkeypatch):
    import hamlab.dynamics as dynamics

    H, Z0, dt, T, aborts = LOOP_CASES[case]
    monkeypatch.setattr(dynamics, "_ENERGY_ABORT", aborts[method == "gauss4"])
    cfg = IntegratorConfig(method=method, dt=dt)
    with np.errstate(all="ignore"):
        got = integrate_batch(H, Z0, cfg, T, stride)
        got_rows = [record_bytes(row_record(got, i)) for i in range(len(Z0))]
        want, escapes = reference_integrate_batch(H, Z0, cfg, T, stride, threshold)
    assert got_rows == [record_bytes(r) for r in want]
    # the drift holds each row's escape as escape_time_scan reads it: the
    # first sample after 0 whose drift passes the threshold
    over = got.drift[:, 1:] > (math.inf if threshold is None else threshold)
    assert [(int(o.argmax()) + 1) * stride * dt if o.any() else None for o in over] == escapes
    assert case == "linear" or any(case.startswith(s) for s in got.status)


@pytest.mark.parametrize("method", ["implicit_midpoint", "gauss4"])
def test_a_row_failing_on_step_1_leaves_the_others_running_to_T(method):
    H, Z0, dt, T, _ = LOOP_CASES["fixed_point_divergence_on_step_1"]
    with np.errstate(all="ignore"):
        got = integrate_batch(H, Z0, IntegratorConfig(method=method, dt=dt), T)
    want = [("ok", 147)] * 12
    want[4] = ("fixed_point_divergence", 1)
    assert list(zip(got.status, got.kept.tolist())) == want


def test_the_loop_ends_once_every_row_has_left():
    H, Z0, dt, T, _ = LOOP_CASES["left_domain_on_every_row"]
    run = integrate_batch(H, Z0, IntegratorConfig(dt=dt), T)
    assert list(zip(run.status, run.kept.tolist())) == [("left_domain", k) for k in (240, 409, 390, 210)]


def test_a_domain_exit_counts_in_the_drift_and_escape_but_not_in_the_record():
    H, cfg = saddle(3.5), IntegratorConfig(dt=0.01)
    z0 = np.array([[-0.4, 0.0]])
    run = integrate_batch(H, z0, cfg, 9.0)
    rec = row_record(run, 0)
    assert rec.status == "left_domain"
    # the row left the domain at the sample after the last one it recorded
    exit_sample = len(rec.sample_times)
    F, z = CompiledField(H.full_polynomial()), z0.copy()
    last = prev = np.zeros((1, 2))
    for _ in range(exit_sample):
        guess = 2.0 * last - prev
        z, _ = _fixed_point_midpoint(F, z, cfg.dt, 1e-13, 50, guess)
        prev, last = last, guess
    assert np.linalg.norm(z) >= H.s
    exit_drift = float(np.sum(np.abs(formal_actions(1, z) - formal_actions(1, z0))))
    kept_drift = float(np.max(np.sum(np.abs(rec.actions - rec.actions[0]), axis=-1)))
    assert rec.max_drift_l1 == run.drift[0, exit_sample] == exit_drift > kept_drift
    assert rec.actions.shape == (exit_sample, 1) and rec.energies.shape == (exit_sample,)
    # a threshold that only the exit sample passes is first passed there
    assert np.flatnonzero(run.drift[0] > kept_drift).tolist() == [exit_sample]
