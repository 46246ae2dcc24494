"""Long-time symplectic integration of polynomial Hamiltonian flows.

Implicit midpoint (order 2) and the two-stage Gauss collocation method
(order 4); both are symplectic for arbitrary smooth Hamiltonians, which
matters here because cubic terms make the flows nonseparable.  The stage
equations are solved by simplified Newton iteration with the Jacobian frozen
at the linear part ``CompiledField.A`` (Hairer, Lubich and Wanner, Geometric
Numerical Integration, Ch. VIII.6), started from the exact linear step.
Trajectories are tracked through the formal actions and the energy; in one
vectorized batch each row stops at its own first Newton increment below the
tolerance, or fails on its own.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import FixedPointDivergence, OutOfDomain
from .model import EllipticHamiltonian, formal_actions
from .poly import CompiledField, CompiledPoly, Polynomial

# Butcher tableaus (a, b) of implicit midpoint and two-stage Gauss collocation
_MIDPOINT = (np.array([[0.5]]), np.array([1.0]))
_GAUSS4 = (
    np.array([[0.25, 0.25 - math.sqrt(3.0) / 6.0], [0.25 + math.sqrt(3.0) / 6.0, 0.25]]),
    np.array([0.5, 0.5]),
)
# a row's Newton solve has converged, and stops, at the first sweep whose
# increment dt * dK (in phase-space units) falls below _NEWTON_TOL, and gets
# at most _NEWTON_MAX_ITERS + 2 sweeps
_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITERS = 50
# a row whose energy moves more than this from its start is stopped
_ENERGY_ABORT = 1.0
# _collocation(F.A, dt, a) by F, then by (dt, a): fixed for a run, so built
# once per run; an entry goes with its field
_COLLOCATIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class IntegratorConfig:
    """Method and step; the implicit solve's tolerance and sweep cap and the
    energy-abort bound are the constants _NEWTON_TOL, _NEWTON_MAX_ITERS and
    _ENERGY_ABORT."""

    method: str = "implicit_midpoint"  # or "gauss4"
    dt: float = 1e-2

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
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
    statuses: list
    records: list = field(default_factory=list)


def _fixed_point_midpoint(F, z, dt, tol, max_iters):
    """One batched implicit-midpoint step; returns (z_next, converged_mask)."""
    return _newton_step(F, z, dt, tol, max_iters, _MIDPOINT)


def _fixed_point_gauss4(F, z, dt, tol, max_iters):
    """One batched two-stage Gauss step; returns (z_next, converged_mask)."""
    return _newton_step(F, z, dt, tol, max_iters, _GAUSS4)


def _newton_step(F, z, dt, tol, max_iters, tableau):
    """Solve the stage equations K = F(z + dt a K) by simplified Newton.

    Starts from the exact step of the linear field ``F.A``; each sweep calls F
    once on all stages of the rows still iterating, kept compact.  A row stops
    at its first increment dt * dK below ``tol``, which leaves an error far
    below ``tol``, or after ``max_iters + 2`` sweeps as unconverged.
    """
    a, b = tableau
    built = _COLLOCATIONS.setdefault(F, {})
    key = (dt, a.tobytes())
    if key not in built:
        built[key] = _collocation(F.A, dt, a)
    inv, start = built[key]
    N, d = z.shape
    K = (z @ start.T).reshape(N, len(b), d)
    converged = np.zeros(N, dtype=bool)
    rows, zr, Kr = np.arange(N), z[:, None, :], K
    for _ in range(max_iters + 2):
        if rows.size == 0:
            break
        G = Kr - F(zr + dt * (a @ Kr))
        dK = (G.reshape(rows.size, -1) @ inv.T).reshape(Kr.shape)
        Kr = Kr - dK
        done = abs(dt) * np.abs(dK).max(axis=(1, 2)) < tol
        if done.any():
            K[rows[done]] = Kr[done]
            converged[rows[done]] = True
            rows, zr, Kr = rows[~done], zr[~done], Kr[~done]
    K[rows] = Kr
    return z + dt * (b @ K), converged


def _collocation(A: np.ndarray, dt: float, a: np.ndarray) -> tuple:
    """Newton inverse and linear start of a collocation step of the field A z.

    Returns ``(inv, start)``: ``inv = (I - dt a (x) A)^-1`` is the simplified
    Newton inverse with the Jacobian frozen at ``A``, and ``start @ z`` are the
    stacked stage slopes of the exact step of the linear field.
    """
    sd = len(a) * A.shape[0]
    kron = (a[:, None, :, None] * A[None, :, None, :]).reshape(sd, sd)
    inv = np.linalg.inv(np.eye(sd) - dt * kron)
    return inv, inv @ np.tile(A, (len(a), 1))


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


def integrate_batch(
    H: EllipticHamiltonian,
    Z0: np.ndarray,
    cfg: IntegratorConfig,
    T: float,
    sample_stride: int = 1,
    drift_threshold: float | None = None,
):
    """Integrate a batch of initial conditions; returns a list of DriftRecord.

    The run takes the most whole steps that fit in T, up to a relative 1e-9
    for the rounding of T / dt; a T shorter than one step is refused.
    """
    if not (math.isfinite(T) and T > 0) or sample_stride < 1:
        raise ValueError(f"need a finite T > 0 and sample_stride >= 1, got {T} and {sample_stride}")
    steps = T / cfg.dt * (1 + 1e-9)
    if not math.isfinite(steps):
        raise ValueError(f"need finitely many steps of dt in T, got T={T} and dt={cfg.dt}")
    n_steps = math.floor(steps)
    if n_steps < 1:
        raise ValueError(f"need T >= dt, got T={T} and dt={cfg.dt}")
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
        # quadratic Hamiltonian: the field is linear and the implicit step is
        # the closed-form Newton start, so whole sample blocks are advanced by
        # matrix powers
        a, b = _MIDPOINT if cfg.method == "implicit_midpoint" else _GAUSS4
        _, start = _collocation(F.A, cfg.dt, a)
        step = np.eye(2 * n) + cfg.dt * np.kron(b, np.eye(2 * n)) @ start
        Ms = np.linalg.matrix_power(step, sample_stride)

        def advance(stride):  # called with stride == sample_stride only
            z[active] = z[active] @ Ms.T

    else:

        def advance(stride):
            for _ in range(stride):
                # with every row active the batch is z itself, not a gather
                idx = slice(None) if active.all() else np.flatnonzero(active)
                zn, conv = stepper(F, z[idx], cfg.dt, _NEWTON_TOL, _NEWTON_MAX_ITERS)
                if not conv.all():
                    idx = np.arange(N)[idx]
                    status[idx[~conv]] = FP_DIVERGED
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
        status[out] = LEFT_DOMAIN
        active[out] = False
        live = np.flatnonzero(active)
        eb = live[np.abs(Ea[live] - E0[live]) > _ENERGY_ABORT]
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
) -> DriftRecord:
    """Integrate a single trajectory, sampled at every step; raises on
    divergence of the implicit solve."""
    rec = integrate_batch(H, np.asarray(z0, dtype=float)[None, :], cfg, T)[0]
    if rec.status == "fixed_point_divergence":
        raise FixedPointDivergence("implicit step failed to converge; reduce dt")
    return rec


def sample_initial_conditions(n: int, N: int, seed: int) -> np.ndarray:
    """Draw N points with action vector uniform on {|I|_1 < 1}, angles uniform.

    Uses the counter-based Philox generator keyed by (seed, trajectory index),
    so results are independent of batch partitioning.
    """
    e, theta = np.empty((N, n + 1)), np.empty((N, n))
    for i in range(N):
        rng = np.random.Generator(np.random.Philox(key=(np.uint64(seed) << np.uint64(20)) + np.uint64(i)))
        e[i] = rng.exponential(size=n + 1)
        theta[i] = rng.uniform(0.0, 2.0 * np.pi, size=n)
    r = np.sqrt(2.0 * (e[:, :n] / e.sum(axis=1, keepdims=True)))  # I uniform on the open simplex
    return np.hstack([r * np.cos(theta), r * np.sin(theta)])


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
    return EnsembleSummary(
        n_traj=N,
        max_drift_l1=float(np.max(drifts)),
        median_drift_l1=float(np.median(drifts)),
        escape_count=sum(s != "ok" for s in statuses),
        drifts=drifts,
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
):
    """Escape-or-censor table over a decreasing rho grid.

    Escape = first time any ensemble member's l1 action drift exceeds
    drift_threshold_factor * rho (scaled variables), read every 10 steps;
    censored at T_max.
    Emits local slopes d log T_esc / d log(1/rho) between consecutive rows.
    """
    rows = []
    Z0 = sample_initial_conditions(H.n, N, seed)
    for rho in rho_list:
        recs = integrate_batch(H.scaled(rho), Z0, cfg, T_max, 10, drift_threshold=drift_threshold_factor * rho)
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
