"""Long-time symplectic integration of polynomial Hamiltonian flows.

Implicit midpoint (order 2) and the two-stage Gauss collocation method
(order 4); both are symplectic for arbitrary smooth Hamiltonians, which
matters here because cubic terms make the flows nonseparable.  The stage
equations are solved by simplified Newton iteration with the Jacobian frozen
at the linear part ``CompiledField.A`` (Hairer, Lubich and Wanner, Geometric
Numerical Integration, Ch. VIII.6), started from the exact linear step plus,
after a row's first step, the extrapolated nonlinear stage parts of its last
two.  A quadratic H takes the same step: its start is the exact step, so each
solve ends after one sweep.  The run builds the step's matrices once, from
dt, the tableau and ``F.A``, and hands them to every step.  Each row of a
batch stops its solve at its own first increment below the tolerance, or
fails on its own; the step reports the rows that failed.  One loop over the
steps keeps each row's sampled states and energies, and does only what stops
a row: a failed solve, a domain exit or an energy abort.  Its state is the
rows still running, and only those; a row leaves it by one selection when it
stops, and the loop ends when none is left.  Actions and drift are read off
the kept states after the loop, into one ``DriftRun`` of arrays over rows and
samples; an escape scan reads its escape times off the drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class IntegratorConfig:
    """Method and step; the implicit solve's tolerance and sweep cap and the
    energy-abort bound are the constants _NEWTON_TOL, _NEWTON_MAX_ITERS and
    _ENERGY_ABORT."""

    method: str = "implicit_midpoint"  # or "gauss4"
    dt: float = 1e-2

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.method not in ("implicit_midpoint", "gauss4"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class DriftRun:
    """An integrate_batch run of N rows over S samples.  Row i's record is its
    first ``kept[i]`` samples; a domain exit or an energy abort is the sample
    after them, outside the record but inside the drift."""

    times: np.ndarray  # (S,)
    actions: np.ndarray  # (N, S, n)
    energies: np.ndarray  # (N, S)
    drift: np.ndarray  # (N, S) l1 action drift, -inf past the samples a row reached
    kept: np.ndarray  # (N,)
    status: list  # (N,) "ok", "left_domain", "energy_abort" or "fixed_point_divergence"
    max_drift_l1: np.ndarray  # (N,)


@dataclass
class EnsembleSummary:
    max_drift_l1: float
    median_drift_l1: float
    escape_count: int
    drifts: np.ndarray
    statuses: list
    run: DriftRun


# the bench's span wrappers and the step-count test find the implicit steps by
# these two names, so integrate_batch calls them through the module globals
def _fixed_point_midpoint(F, z, colloc, tol, max_iters, guess=None):
    """One batched implicit-midpoint step by ``colloc``, the matrices the run
    builds once from _MIDPOINT; returns (z_next, indices of the rows that failed)."""
    return _newton_step(F, z, colloc, tol, max_iters, _MIDPOINT[1], guess)


def _fixed_point_gauss4(F, z, colloc, tol, max_iters, guess=None):
    """One batched two-stage Gauss step by ``colloc``, the matrices the run
    builds once from _GAUSS4; returns (z_next, indices of the rows that failed)."""
    return _newton_step(F, z, colloc, tol, max_iters, _GAUSS4[1], guess)


def _newton_step(F, z, colloc, tol, max_iters, b, guess=None):
    """Solve the stage equations K = F(z + dt a K) by simplified Newton, with
    the run's ``colloc = _collocation(F.A, dt, a)`` and the weights ``b``.

    K, flat (rows, stages * dim), starts from the exact step of the linear
    field ``F.A`` plus ``guess``, a predicted nonlinear part, into which the
    solved one is written back.  Each sweep calls F once on all stages of the
    rows still iterating, kept compact by one write-back into K and integer
    takes when some stop.  A row stops at its first increment dt * dK below
    ``tol`` (never at a NaN one), or fails after ``max_iters + 2`` sweeps; the
    indices of the rows that failed come back with the next points.
    """
    dt, inv_t, start_t, tile, stages = colloc
    N, d = z.shape
    lin, zr = z.dot(start_t), z.dot(tile)  # .dot: the product of @, with less overhead
    K = lin + (0.0 if guess is None else guess)
    rows, Kr = np.arange(N), K
    for _ in range(max_iters + 2):
        if rows.size == 0:
            break
        Y = (zr + dt * Kr.dot(stages)).reshape(rows.size, len(b), d)
        dK = (Kr - F(Y).reshape(rows.size, -1)).dot(inv_t)
        Kr = Kr - dK
        going = (~(abs(dt) * np.maximum.reduce(np.abs(dK), axis=1) < tol)).nonzero()[0]
        if going.size < rows.size:
            K[rows] = Kr
            rows, zr, Kr = rows.take(going), zr.take(going, axis=0), Kr.take(going, axis=0)
    K[rows] = Kr
    if guess is not None:
        np.subtract(K, lin, out=guess)
    return z + dt * (b @ K.reshape(N, len(b), d)), rows


def _collocation(A: np.ndarray, dt: float, a: np.ndarray) -> tuple:
    """dt and the matrices of a collocation step of the field A z, transposed
    to act on rows of flat stage vectors: ``(dt, inv, start, tile, stages)``.
    ``inv`` is the simplified Newton inverse (I - dt a (x) A)^-1, the Jacobian
    frozen at ``A``; ``z @ start`` are the stacked stage slopes of the exact
    step of the linear field; ``z @ tile`` is z on every stage; and
    ``K @ stages`` is a K, the stage points' offsets over dt.
    """
    sd, eye = len(a) * A.shape[0], np.eye(A.shape[0])
    inv = np.linalg.inv(np.eye(sd) - dt * np.kron(a, A))
    return dt, inv.T, (inv @ np.tile(A, (len(a), 1))).T, np.tile(eye, len(a)), np.kron(a, eye).T


def _check_startup(H_poly: Polynomial, s: float, z0: np.ndarray, dt: float):
    """Refuse dt so large that simplified Newton is not a contraction.  Its
    frozen Jacobian ``F.A`` solves the quadratic part of H exactly, so only
    the terms of degree >= 3 count: dt times a majorant of their Hessian on
    the ball the run starts in must stay below 1."""
    r = min(s, 2.0 * float(np.max(np.linalg.norm(z0, axis=-1))) + 0.5)
    hess_bound = math.fsum(
        abs(c) * sum(k) * (sum(k) - 1) * r ** (sum(k) - 2)
        for k, c in H_poly.terms.items()
        if sum(k) >= 3
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
) -> DriftRun:
    """Integrate a batch of initial conditions, sampled every ``sample_stride``
    steps, into one DriftRun.

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
    if N < 1:
        raise ValueError("Z0 must hold at least one initial condition")
    n = H.n
    if dim != 2 * n:
        raise OutOfDomain(f"points of dimension {dim}, expected {2 * n}")
    if not np.all(np.linalg.norm(Z0, axis=-1) < H.s):
        raise OutOfDomain("an initial condition lies outside the domain")

    H_poly = H.full_polynomial()
    _check_startup(H_poly, H.s, Z0, cfg.dt)
    F = CompiledField(H_poly)
    energy = CompiledPoly([H_poly])
    gauss = cfg.method == "gauss4"
    stepper, (a, b) = (_fixed_point_gauss4, _GAUSS4) if gauss else (_fixed_point_midpoint, _MIDPOINT)
    colloc = _collocation(F.A, cfg.dt, a)

    n_samples = n_steps // sample_stride + 1
    times = np.arange(n_samples) * (cfg.dt * sample_stride)
    # row i reached samples 0 .. seen[i] - 1, the last of them the one at which
    # it left the domain or aborted, if it did
    states = np.zeros((N, n_samples, dim))
    energies = np.zeros((N, n_samples))
    seen = np.ones(N, dtype=np.int64)
    status = np.full(N, "ok", dtype=object)
    states[:, 0] = Z0
    E0 = energies[:, 0] = energy(Z0)[:, 0]
    # the rows still running, in order, are the loop's state: their points z
    # and the solved nonlinear stage parts of their last two steps, zero
    # before the first; a step starts from the linear extrapolation of these
    live, z = np.arange(N), Z0
    last, prev = np.zeros((2, N, len(b) * dim))

    for step in range(1, n_steps + 1):
        if not live.size:
            break
        prev, last = last, 2.0 * last - prev
        z, failed = stepper(F, z, colloc, _NEWTON_TOL, _NEWTON_MAX_ITERS, last)
        if failed.size:
            status[live[failed]] = "fixed_point_divergence"
            live, z, last, prev = (np.delete(x, failed, axis=0) for x in (live, z, last, prev))
        if step % sample_stride:
            continue
        k = step // sample_stride
        states[live, k] = z
        # a row's energy depends on the size of the batch it is evaluated in,
        # so it is taken on the whole slice, whose stopped rows hold zeros
        E = energy(states[:, k])[live, 0]
        energies[live, k] = E
        seen[live] += 1
        out = np.linalg.norm(z, axis=-1) >= H.s
        abort = ~out & (np.abs(E - E0[live]) > _ENERGY_ABORT)
        status[live[out]] = "left_domain"
        status[live[abort]] = "energy_abort"
        stopped = (out | abort).nonzero()[0]
        if stopped.size:
            live, z, last, prev = (np.delete(x, stopped, axis=0) for x in (live, z, last, prev))

    actions = formal_actions(n, states)
    drift = np.abs(actions - actions[:, :1]).sum(axis=-1)
    drift[np.arange(n_samples) >= seen[:, None]] = -np.inf
    return DriftRun(
        times=times,
        actions=actions,
        energies=energies,
        drift=drift,
        kept=seen - np.isin(status, ("left_domain", "energy_abort")),
        status=status.tolist(),
        max_drift_l1=drift.max(axis=1),
    )


def sample_initial_conditions(n: int, N: int, seed: int) -> np.ndarray:
    """Draw N points with action vector uniform on {|I|_1 < 1}, angles uniform.

    Uses the counter-based Philox generator keyed by (seed, trajectory index),
    so results are independent of batch partitioning; seed lies in [0, 2^32).
    Row i of seed s is keyed (s << 20) + i, so N is at most 2^20.
    """
    if not 0 <= seed < 2**32:
        raise ValueError(f"seed must be in [0, 2**32), got {seed}")
    if N > 2**20:
        raise ValueError(f"N must be at most 2**20, got {N}")
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
) -> EnsembleSummary:
    """Drift statistics over an ensemble started on {|I(0)|_1 < 1} at scale rho.

    The Hamiltonian is integrated in scaled variables (z -> rho z, H -> H/rho^2),
    so the perturbation entering the dynamics has size ~rho.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    Hs = H.scaled(rho)
    Z0 = sample_initial_conditions(H.n, N, seed)
    run = integrate_batch(Hs, Z0, cfg, T, sample_stride)
    return EnsembleSummary(
        max_drift_l1=float(np.max(run.max_drift_l1)),
        median_drift_l1=float(np.median(run.max_drift_l1)),
        escape_count=sum(s != "ok" for s in run.status),
        drifts=run.max_drift_l1,
        statuses=run.status,
        run=run,
    )


# the columns of an escape_time_scan table, also written by ``hamlab escape-scan``
_ESCAPE_FIELDS = ("rho", "escape_time", "censored", "max_drift_l1", "local_slope")


def escape_time_scan(
    H: EllipticHamiltonian,
    rho_list,
    drift_threshold_factor: float,
    T_max: float,
    cfg: IntegratorConfig,
    N: int,
    seed: int = 0,
):
    """Escape-or-censor table over a strictly decreasing grid of positive,
    finite rho, refused before anything is integrated otherwise.

    Escape = first time any ensemble member's l1 action drift exceeds
    drift_threshold_factor * rho (scaled variables), read every 10 steps off
    the run's drift; censored at T_max.
    Emits local slopes d log T_esc / d log(1/rho) between consecutive rows.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not drift_threshold_factor > 0:
        raise ValueError(f"drift threshold factor must be > 0, got {drift_threshold_factor}")
    rho_list = list(rho_list)
    for rho in rho_list:
        if not 0 < rho < math.inf:
            raise ValueError(f"rho must be positive and finite, got {rho}")
    if not rho_list:
        raise ValueError("the rho grid must not be empty")
    if not all(b < a for a, b in zip(rho_list, rho_list[1:])):
        raise ValueError(f"the rho grid must be strictly decreasing, got {rho_list}")
    rows = []
    Z0 = sample_initial_conditions(H.n, N, seed)
    for rho in rho_list:
        run = integrate_batch(H.scaled(rho), Z0, cfg, T_max, 10)
        # the samples after 0 at which some row's drift passes the threshold
        over = np.flatnonzero((run.drift[:, 1:] > drift_threshold_factor * rho).any(axis=0))
        rows.append(
            {
                "rho": float(rho),
                "escape_time": (int(over[0]) + 1) * 10 * cfg.dt if over.size else None,
                "censored": not over.size,
                "max_drift_l1": float(run.max_drift_l1.max()),
                "local_slope": None,
            }
        )
    for prev, cur in zip(rows, rows[1:]):
        if prev["escape_time"] and cur["escape_time"]:
            num = math.log(cur["escape_time"]) - math.log(prev["escape_time"])
            den = math.log(1.0 / cur["rho"]) - math.log(1.0 / prev["rho"])
            cur["local_slope"] = num / den
    return rows
