"""Long-time symplectic integration of polynomial Hamiltonian flows.

Implicit midpoint (order 2) and the two-stage Gauss collocation method
(order 4) with fixed-point iteration; both are symplectic for arbitrary smooth
Hamiltonians, which matters here because cubic terms make the flows
nonseparable.  Trajectories are tracked through the formal actions and the
energy; ensembles are integrated as a single vectorized batch with per-row
status handling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FixedPointDivergence, OutOfDomain
from .model import EllipticHamiltonian, formal_actions
from .poly import CompiledField, CompiledPoly, Polynomial

# Butcher matrix of the two-stage Gauss collocation method
_GAUSS_A = (
    (0.25, 0.25 - math.sqrt(3.0) / 6.0),
    (0.25 + math.sqrt(3.0) / 6.0, 0.25),
)


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "implicit_midpoint"  # or "gauss4"
    dt: float = 1e-2
    fixed_point_tol: float = 1e-13
    max_fixed_point_iters: int = 50
    energy_abort_threshold: float = 1.0

    def __post_init__(self):
        if self.dt <= 0 or self.fixed_point_tol <= 0 or self.energy_abort_threshold <= 0:
            raise ValueError("dt, tolerances and thresholds must be positive")
        if self.method not in ("implicit_midpoint", "gauss4"):
            raise ValueError(f"unknown method {self.method!r}")


# row status codes
OK = 0
LEFT_DOMAIN = 1
ENERGY_ABORT = 2
FP_DIVERGED = 3

_STATUS_NAMES = {OK: "ok", LEFT_DOMAIN: "left_domain", ENERGY_ABORT: "energy_abort", FP_DIVERGED: "fixed_point_divergence"}


@dataclass
class DriftRecord:
    sample_times: np.ndarray
    actions: np.ndarray  # (samples, n)
    energies: np.ndarray
    max_drift_l1: float
    escape_time: float | None  # None means censored at T
    status: str = "ok"
    energy_spread: float = 0.0


@dataclass
class EnsembleSummary:
    n_traj: int
    max_drift_l1: float
    median_drift_l1: float
    escape_count: int
    drifts: np.ndarray
    escape_times: list
    statuses: list
    records: list = field(default_factory=list)


def _fixed_point_midpoint(F, z, dt, tol, max_iters):
    """One batched implicit-midpoint step; returns (z_next, converged_mask)."""
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


def _fixed_point_gauss4(F, z, dt, tol, max_iters):
    (a11, a12), (a21, a22) = _GAUSS_A
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


def _check_startup(H_poly: Polynomial, s: float, z0: np.ndarray, dt: float):
    """Refuse dt so large that the fixed-point map is not a contraction."""
    r = min(s, 2.0 * float(np.max(np.linalg.norm(z0, axis=-1))) + 0.5)
    hess_bound = math.fsum(
        abs(c) * sum(k) * (sum(k) - 1) * r ** (sum(k) - 2)
        for k, c in H_poly.terms.items()
        if sum(k) >= 2
    )
    if dt * hess_bound >= 1.0:
        raise FixedPointDivergence(
            f"dt={dt} too large: dt * Hessian bound = {dt * hess_bound:.3f} >= 1"
        )


def _linear_step_matrix(A: np.ndarray, dt: float, method: str) -> np.ndarray:
    """Closed-form one-step map of the implicit integrator for a linear field.

    This is exactly the fixed point the iteration converges to, so the linear
    path and the generic path agree to rounding.
    """
    d = A.shape[0]
    eye = np.eye(d)
    if method == "implicit_midpoint":
        return np.linalg.solve(eye - 0.5 * dt * A, eye + 0.5 * dt * A)
    (a11, a12), (a21, a22) = _GAUSS_A
    S = np.block(
        [[eye - dt * a11 * A, -dt * a12 * A], [-dt * a21 * A, eye - dt * a22 * A]]
    )
    R = np.vstack([A, A])
    K = np.linalg.solve(S, R)
    return eye + 0.5 * dt * (K[:d] + K[d:])


def integrate_batch(
    H: EllipticHamiltonian,
    Z0: np.ndarray,
    cfg: IntegratorConfig,
    T: float,
    sample_stride: int = 1,
    drift_threshold: float | None = None,
):
    """Integrate a batch of initial conditions; returns a list of DriftRecord."""
    Z0 = np.atleast_2d(np.asarray(Z0, dtype=float))
    N, dim = Z0.shape
    n = H.n
    if dim != 2 * n:
        raise OutOfDomain(f"points of dimension {dim}, expected {2 * n}")
    norms0 = np.linalg.norm(Z0, axis=-1)
    if np.any(norms0 >= H.s):
        raise OutOfDomain("an initial condition lies outside the domain")

    H_poly = H.full_polynomial()
    _check_startup(H_poly, H.s, Z0, cfg.dt)
    F = CompiledField(H_poly)
    energy = CompiledPoly([H_poly])
    stepper = _fixed_point_midpoint if cfg.method == "implicit_midpoint" else _fixed_point_gauss4

    n_steps = max(1, int(round(T / cfg.dt)))
    n_samples = n_steps // sample_stride + 1
    times = np.arange(n_samples) * (cfg.dt * sample_stride)
    actions = np.full((N, n_samples, n), np.nan)
    energies = np.full((N, n_samples), np.nan)
    status = np.full(N, OK, dtype=np.int64)
    escape = np.full(N, np.nan)

    z = Z0.copy()
    I0 = formal_actions(n, Z0)
    E0 = energy(Z0)[:, 0]
    actions[:, 0] = I0
    energies[:, 0] = E0
    max_drift = np.zeros(N)
    active = np.ones(N, dtype=bool)

    linear = H_poly.degree() <= 2
    if linear:
        # quadratic Hamiltonian: the field is linear and the implicit step has
        # a closed form, so whole sample blocks are advanced by matrix powers
        A = F(np.eye(2 * n)).T
        Ms = np.linalg.matrix_power(
            _linear_step_matrix(A, cfg.dt, cfg.method), sample_stride
        )

        def advance(stride):  # called with stride == sample_stride only
            z[active] = z[active] @ Ms.T

    else:

        def advance(stride):
            for _ in range(stride):
                if not np.any(active):
                    return
                idx = np.flatnonzero(active)
                zn, conv = stepper(
                    F, z[idx], cfg.dt, cfg.fixed_point_tol, cfg.max_fixed_point_iters
                )
                status[idx[~conv]] = FP_DIVERGED
                active[idx[~conv]] = False
                z[idx[conv]] = zn[conv]

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
        status[out] = LEFT_DOMAIN
        active[out] = False
        live = np.flatnonzero(active)
        eb = live[np.abs(Ea[live] - E0[live]) > cfg.energy_abort_threshold]
        status[eb] = ENERGY_ABORT
        active[eb] = False
        rec = np.flatnonzero(active)
        actions[rec, sample_idx] = Ia[rec]
        energies[rec, sample_idx] = Ea[rec]
    if not linear:
        # the steps after the last sample record nothing, but a divergence in
        # them still sets the row status
        advance(n_steps % sample_stride)

    return _assemble_records(N, times, actions, energies, max_drift, escape, status)


def _assemble_records(N, times, actions, energies, max_drift, escape, status):
    records = []
    for i in range(N):
        good = ~np.isnan(energies[i])
        e = energies[i][good]
        records.append(
            DriftRecord(
                sample_times=times[good],
                actions=actions[i][good],
                energies=e,
                max_drift_l1=float(max_drift[i]),
                escape_time=None if np.isnan(escape[i]) else float(escape[i]),
                status=_STATUS_NAMES[int(status[i])],
                energy_spread=float(np.max(e) - np.min(e)) if e.size else 0.0,
            )
        )
    return records


def integrate(
    H: EllipticHamiltonian,
    z0,
    cfg: IntegratorConfig,
    T: float,
    sample_stride: int = 1,
    drift_threshold: float | None = None,
) -> DriftRecord:
    """Integrate a single trajectory; raises on divergence of the implicit solve."""
    rec = integrate_batch(H, np.asarray(z0, dtype=float)[None, :], cfg, T, sample_stride, drift_threshold)[0]
    if rec.status == "fixed_point_divergence":
        raise FixedPointDivergence("implicit step failed to converge; reduce dt")
    return rec


def sample_initial_conditions(n: int, N: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Draw N points with action vector uniform on {|I|_1 < 1}, angles uniform.

    Uses the counter-based Philox generator keyed by (seed, trajectory index),
    so results are independent of batch partitioning.
    """
    out = np.empty((N, 2 * n))
    for i in range(N):
        rng = np.random.Generator(np.random.Philox(key=(np.uint64(seed) << np.uint64(20)) + np.uint64(i)))
        e = rng.exponential(size=n + 1)
        I = e[:n] / np.sum(e)  # uniform on the open simplex {sum I_i < 1}
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        r = np.sqrt(2.0 * I) * scale
        out[i, :n] = r * np.cos(theta)
        out[i, n:] = r * np.sin(theta)
    return out


def ensemble_drift(
    H: EllipticHamiltonian,
    rho: float,
    N: int,
    T: float,
    cfg: IntegratorConfig,
    seed: int = 0,
    sample_stride: int = 10,
    keep_records: bool = False,
) -> EnsembleSummary:
    """Drift statistics over an ensemble started on {|I(0)|_1 < 1} at scale rho.

    The Hamiltonian is integrated in scaled variables (z -> rho z, H -> H/rho^2),
    so the perturbation entering the dynamics has size ~rho.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    Hs = H.scaled(rho)
    Z0 = sample_initial_conditions(H.n, N, seed)
    recs = integrate_batch(Hs, Z0, cfg, T, sample_stride)
    drifts = np.array([r.max_drift_l1 for r in recs])
    statuses = [r.status for r in recs]
    escs = [r.escape_time for r in recs]
    return EnsembleSummary(
        n_traj=N,
        max_drift_l1=float(np.max(drifts)),
        median_drift_l1=float(np.median(drifts)),
        escape_count=sum(s != "ok" for s in statuses),
        drifts=drifts,
        escape_times=escs,
        statuses=statuses,
        records=recs if keep_records else [],
    )


def escape_time_scan(
    H: EllipticHamiltonian,
    rho_list,
    drift_threshold_factor: float,
    T_max: float,
    cfg: IntegratorConfig,
    N: int,
    seed: int = 0,
    sample_stride: int = 10,
):
    """Escape-or-censor table over a decreasing rho grid.

    Escape = first time any ensemble member's l1 action drift exceeds
    drift_threshold_factor * rho (scaled variables); censored at T_max.
    Emits local slopes d log T_esc / d log(1/rho) between consecutive rows.
    """
    rows = []
    for rho in rho_list:
        Hs = H.scaled(rho)
        Z0 = sample_initial_conditions(H.n, N, seed)
        recs = integrate_batch(Hs, Z0, cfg, T_max, sample_stride, drift_threshold=drift_threshold_factor * rho)
        esc = [r.escape_time for r in recs if r.escape_time is not None]
        max_drift = max(r.max_drift_l1 for r in recs)
        rows.append(
            {
                "rho": float(rho),
                "escape_time": min(esc) if esc else None,
                "censored": not esc,
                "max_drift_l1": float(max_drift),
            }
        )
    for prev, cur in zip(rows, rows[1:]):
        cur["local_slope"] = None
        if prev["escape_time"] and cur["escape_time"]:
            num = math.log(cur["escape_time"]) - math.log(prev["escape_time"])
            den = math.log(1.0 / cur["rho"]) - math.log(1.0 / prev["rho"])
            cur["local_slope"] = num / den
    if rows:
        rows[0]["local_slope"] = None
    return rows
