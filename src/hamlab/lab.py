"""Experiment orchestration: reproducible end-to-end scenarios.

Every experiment is a pure function of its spec (including the seed); reruns
produce byte-identical CSV/JSON artifacts.  Randomness comes from the Philox
counter-based generator keyed by (seed, stream), so streams are reproducible
independently of execution order.  Persistence is flat files only; plot
emission is a data file plus a gnuplot script, no rendering dependency.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .birkhoff import _radius, apply_transform, birkhoff_normal_form, remainder_curve
from .diophantine import estimate_gamma
from .dynamics import _ESCAPE_FIELDS, IntegratorConfig, ensemble_drift, escape_time_scan
from .exactnum import GOLDEN
from .model import EllipticHamiltonian, _replacing, formal_actions
from .poly import ActionPolynomial, Polynomial, _degree
from .sdm import PrevalenceReport, check_sdm_quadratic, prevalence_estimate

def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Philox generator for (seed, stream), seed in [0, 2^32); identical across platforms."""
    if not 0 <= seed < 2**32:
        raise ValueError(f"seed must be in [0, 2**32), got {seed}")
    return np.random.Generator(
        np.random.Philox(key=(np.uint64(seed) << np.uint64(32)) + np.uint64(stream))
    )


# -- random Hamiltonians -------------------------------------------------------


@dataclass(frozen=True)
class RandomHamiltonianParams:
    n: int
    alpha: tuple | None = None  # None: default_frequencies(n)
    degree_max: int = 4
    coefficient_scale: float = 1.0
    n_terms: int = 6
    include_beta: object = None  # None | symmetric matrix (a tuple of rows)
    seed: int = 0
    s: float = 4.0

    def __post_init__(self):
        if self.alpha is not None:
            object.__setattr__(self, "alpha", tuple(self.alpha))
        if self.n < 1:
            raise ValueError("dimension n must be >= 1")
        if self.include_beta is not None:
            # a matrix as a tuple of rows, so that equal specs compare and hash alike
            beta = np.asarray(self.include_beta)
            if beta.ndim != 2:
                raise ValueError("include_beta must be a matrix")
            if beta.dtype.kind not in "iuf":
                raise ValueError(f"include_beta must hold real numbers, got dtype {beta.dtype}")
            if beta.shape != (self.n, self.n) or not np.allclose(beta, beta.T, atol=1e-12):
                raise ValueError("include_beta must be a symmetric n x n matrix")
            object.__setattr__(self, "include_beta", tuple(map(tuple, beta.tolist())))
        if self.degree_max < 3:
            raise ValueError("degree_max must be >= 3")


def default_frequencies(n: int) -> tuple:
    """A fixed rationally independent frequency vector for each n.

    n=2 is (1, golden ratio); larger n uses the power basis of 2^(1/n),
    whose rational independence follows from field-degree counting.
    """
    if n == 1:
        return (1.0,)
    if n == 2:
        return (1.0, GOLDEN.omega)
    theta = 2.0 ** (1.0 / n)
    return tuple(theta**j for j in range(n))


def beta_action_polynomial(beta: np.ndarray) -> ActionPolynomial:
    """The action polynomial beta I . I for a symmetric matrix beta."""
    beta = np.asarray(beta, dtype=float)
    n = beta.shape[0]
    terms = {}
    for i in range(n):
        for j in range(i, n):
            key = [0] * n
            key[i] += 1
            key[j] += 1
            c = beta[i, i] if i == j else 2.0 * beta[i, j]
            if c != 0.0:
                terms[tuple(key)] = c
    return ActionPolynomial(n, terms)


def generate_random_hamiltonian(params: RandomHamiltonianParams) -> EllipticHamiltonian:
    """Deterministic random Hamiltonian: sparse V, optional embedded beta.

    When include_beta is set, the random support skips degree 4 entirely so
    that the paired degree-4 part of V is exactly beta I . I.
    """
    n = params.n
    rng = stream_rng(params.seed, 0)
    alpha = default_frequencies(n) if params.alpha is None else params.alpha

    degrees = list(range(3, params.degree_max + 1))
    if params.include_beta is not None:
        degrees = [d for d in degrees if d != 4]
    support = []
    for d in degrees:
        support.extend(map(tuple, _degree(2 * n, d).E.tolist()))
    terms = {}
    if params.coefficient_scale > 0.0 and support and params.n_terms > 0:
        count = min(params.n_terms, len(support))
        picks = rng.choice(len(support), size=count, replace=False)
        coeffs = rng.uniform(-params.coefficient_scale, params.coefficient_scale, size=count)
        for p, c in zip(picks, coeffs):
            terms[support[int(p)]] = float(c)
    V = Polynomial(n, terms)

    if params.include_beta is not None:
        V = V + beta_action_polynomial(params.include_beta).expand()
    return EllipticHamiltonian(alpha, V, s=params.s)


# -- experiment specs ----------------------------------------------------------


@dataclass
class ExperimentSpec:
    kind: str
    hamiltonian: object  # EllipticHamiltonian or RandomHamiltonianParams
    rho_grid: tuple = (0.2, 0.1, 0.05, 0.025)
    m_max: int = 8
    radius: float | None = None  # remainder evaluation radius (None: engine default)
    tau: float = 1.0
    gamma_K: int = 200
    L_max: int = 3
    gamma_p: float = 0.1
    tau_p: float = 6.0
    N: int = 16
    T: float = 1e3
    dt: float = 1e-2
    samples: int = 1000
    drift_threshold_factor: float = 2.0
    seed: int = 0
    output: str | None = None

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        self.rho_grid = tuple(float(r) for r in self.rho_grid)
        if not self.rho_grid:
            raise ValueError("the rho grid must not be empty")
        if self.radius is not None and not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")

    def resolve_hamiltonian(self) -> EllipticHamiltonian:
        if isinstance(self.hamiltonian, EllipticHamiltonian):
            return self.hamiltonian
        return generate_random_hamiltonian(self.hamiltonian)

    def to_json_dict(self) -> dict:
        h = self.hamiltonian
        if isinstance(h, EllipticHamiltonian):
            ham = {"type": "explicit", "data": h.to_json_dict()}
        else:
            ham = {"type": "random", "data": _json_fields(h)}
        return {**_json_fields(self), "hamiltonian": ham}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentSpec":
        ham = data["hamiltonian"]
        if ham["type"] == "explicit":
            h = EllipticHamiltonian.from_json_dict(ham["data"])
        else:
            h = RandomHamiltonianParams(**ham["data"])
        return cls(**{**data, "hamiltonian": h})

    def save(self, path):
        with _replacing(path) as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path) -> "ExperimentSpec":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _json_fields(obj) -> dict:
    """The dataclass fields of obj, with tuples as lists."""
    out = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        out[f.name] = list(v) if isinstance(v, tuple) else v
    return out


# -- artifact helpers ----------------------------------------------------------


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _opened(path_or_buf):
    """A path is written through _replacing; an open stream as it is."""
    if isinstance(path_or_buf, (str, os.PathLike)):
        return _replacing(path_or_buf)
    return contextlib.nullcontext(path_or_buf)


def write_csv(path_or_buf, fieldnames, rows):
    """Deterministic CSV: fixed field order, '\\n' terminators, repr floats; a
    row is a dict by field name, or a list of ints and floats in field order,
    written as their reprs (as csv.writer would: a number needs no quotes)."""
    with _opened(path_or_buf) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(fieldnames)
        for row in rows:
            if isinstance(row, list):
                fh.write(",".join(map(repr, row)) + "\n")
            else:
                w.writerow([_fmt(row.get(k)) for k in fieldnames])


def _finite(x):
    """x, or None for an inf or NaN, which strict JSON has no number for."""
    return x if math.isfinite(x) else None


def write_json(path_or_buf, obj):
    """Strict JSON (an inf or NaN raises ValueError), sorted keys, indent 1,
    one trailing newline.  The text is built before anything is opened, so a
    report that fails to serialize writes nothing."""
    text = json.dumps(obj, indent=1, sort_keys=True, allow_nan=False) + "\n"
    with _opened(path_or_buf) as fh:
        fh.write(text)


def gnuplot_script(data_csv: str, title: str) -> str:
    """A minimal gnuplot script plotting the second CSV column against the
    first on a log y axis."""
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        "set key off",
        "set logscale y",
        f"plot '{data_csv}' every ::1 using 1:2 with linespoints",
    ]
    return "\n".join(lines) + "\n"


def validate_report(obj: dict, kind: str):
    """Raise ValueError unless obj has every field, of its type, in kind's
    schema; a float field also takes an int, and only a bool field a bool."""
    schema = _KINDS[kind][1]
    for key, typ in schema.items():
        if key not in obj:
            raise ValueError(f"report missing field {key!r}")
        v = obj[key]
        if not isinstance(v, (int, float) if typ is float else typ) or (
            isinstance(v, bool) and typ is not bool
        ):
            raise ValueError(f"report field {key!r} has type {type(obj[key]).__name__}")


# -- experiments ---------------------------------------------------------------


@dataclass
class ExperimentResult:
    report: dict
    csv_fields: tuple = ()
    csv_rows: list = field(default_factory=list)


def run_remainder_scaling(spec: ExperimentSpec) -> ExperimentResult:
    """Normal-form remainder minima over a rho grid, with the exponential fit.

    For each rho the remainder curve over m of H.scaled(rho) is computed and
    its minimum recorded.  When every minimum is finite and positive,
    log(min/rho) is fitted linearly against (gamma_hat/rho)^(1/(tau+1)),
    where the expected slope is negative; otherwise the fit is None.  Since
    curve_{H.scaled(rho)}(r) = rho^-2 curve_H(rho r), one normalization of
    H.scaled(rho0), rho0 the largest rho, gives every curve: at radius
    (rho/rho0) r, times (rho0/rho)^2.  A rho at which H.scaled(rho).V has no
    terms gets the zero curve.
    """
    H = spec.resolve_hamiltonian()
    integrable = not H.V.terms
    rows = []
    minima = []
    gamma_hat = float("nan")
    if not integrable:
        gamma_hat = estimate_gamma(H.alpha, spec.tau, spec.gamma_K).gamma_hat
    live = [rho for rho in spec.rho_grid if H.scaled(rho).V.terms]
    curves = {}
    if live:
        rho0, r = max(live), _radius(H, spec.radius)
        at_rho0 = remainder_curve(H.scaled(rho0), spec.m_max, radius=[rho / rho0 * r for rho in live])
        curves = {rho: [(m, v * (rho0 / rho) ** 2) for m, v in c] for rho, c in zip(live, at_rho0)}
    for rho in spec.rho_grid:
        curve = curves.get(rho, [(m, 0.0) for m in range(2, spec.m_max + 1)])
        m_opt, r_min = min(curve, key=lambda t: t[1])
        minima.append((rho, m_opt, r_min))
        for m, r in curve:
            rows.append(
                {"rho": rho, "m": m, "remainder_majorant": r, "is_min": m == m_opt}
            )
    fit = {"slope": None, "intercept": None, "r2": None}
    if not integrable and all(0.0 < r < math.inf for _, _, r in minima) and len(minima) >= 3:
        x = np.array([(gamma_hat / rho) ** (1.0 / (spec.tau + 1.0)) for rho, _, _ in minima])
        y = np.array([math.log(r / rho) for rho, _, r in minima])
        slope, intercept = np.polyfit(x, y, 1)
        yhat = slope * x + intercept
        ss_res = float(np.sum((y - yhat) ** 2))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        fit = {
            "slope": float(slope),
            "intercept": float(intercept),
            "r2": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
        }
    report = {
        "rows": [
            {"rho": rho, "m_opt": m, "min_remainder": _finite(r)} for rho, m, r in minima
        ],
        "fit": fit,
        "integrable": integrable,
        "gamma_hat": _finite(gamma_hat),
        "tau": spec.tau,
    }
    return ExperimentResult(
        report=report,
        csv_fields=("rho", "m", "remainder_majorant", "is_min"),
        csv_rows=rows,
    )


def prevalence_report(rep: PrevalenceReport) -> dict:
    """The JSON report of an SDM prevalence estimate."""
    return {**asdict(rep), "probe_interval": list(rep.probe_interval)}


def run_sdm_prevalence(spec: ExperimentSpec) -> ExperimentResult:
    n = spec.hamiltonian.n
    rep = prevalence_estimate(
        n, spec.tau_p, spec.gamma_p, spec.L_max, spec.samples, spec.seed
    )
    report = {**prevalence_report(rep), "bound_finite": spec.tau_p > n * n + 1}
    return ExperimentResult(report=report)


def _beta_variants(n: int):
    definite = np.eye(n)
    indefinite_pass = np.diag([1.0 if i % 2 == 0 else -2.0 for i in range(n)])
    failing = np.diag([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
    return [
        ("definite", definite),
        ("indefinite_sdm_pass", indefinite_pass),
        ("sdm_fail", failing),
    ]


def run_convex_vs_generic(spec: ExperimentSpec) -> ExperimentResult:
    """Matched-rho drift comparison across three quartic coupling matrices:
    sign-definite, indefinite but SDM-passing, and SDM-failing."""
    if isinstance(spec.hamiltonian, EllipticHamiltonian):
        raise ValueError("convex_vs_generic needs RandomHamiltonianParams")
    base = spec.hamiltonian
    rho = spec.rho_grid[0]
    cfg = IntegratorConfig(dt=spec.dt)
    rows = []
    for label, beta in _beta_variants(base.n):
        H = generate_random_hamiltonian(replace(base, include_beta=beta))
        verdict = check_sdm_quadratic(beta, spec.gamma_p, spec.tau_p, spec.L_max)
        ens = ensemble_drift(H, rho, spec.N, spec.T, cfg, seed=spec.seed)
        rows.append(
            {
                "label": label,
                "sdm_passed": verdict.passed,
                "gamma_margin": verdict.gamma_margin,
                "max_drift_l1": ens.max_drift_l1,
                "median_drift_l1": ens.median_drift_l1,
                "escape_count": ens.escape_count,
            }
        )
    report = {"rows": rows, "rho": rho}
    return ExperimentResult(
        report=report,
        csv_fields=(
            "label", "sdm_passed", "gamma_margin",
            "max_drift_l1", "median_drift_l1", "escape_count",
        ),
        csv_rows=rows,
    )


def run_drift_vs_rho(spec: ExperimentSpec) -> ExperimentResult:
    H = spec.resolve_hamiltonian()
    cfg = IntegratorConfig(dt=spec.dt)
    rows = escape_time_scan(
        H,
        spec.rho_grid,
        spec.drift_threshold_factor,
        spec.T,
        cfg,
        spec.N,
        seed=spec.seed,
    )
    report = {"rows": rows}
    return ExperimentResult(
        report=report,
        csv_fields=_ESCAPE_FIELDS,
        csv_rows=rows,
    )


def run_bnf_roundtrip(spec: ExperimentSpec) -> ExperimentResult:
    """Normalize, then measure forward/inverse closure and the conjugacy
    residual H(Phi(z)) vs h_m(I(z)) + remainder(z) at sampled points."""
    H = spec.resolve_hamiltonian()
    m = min(4, spec.m_max)
    res = birkhoff_normal_form(H, m)
    Z = stream_rng(spec.seed, 1).uniform(-1.0, 1.0, size=(20, 2 * H.n))
    Z *= np.minimum(1.0, 0.25 * H.s / np.linalg.norm(Z, axis=1))[:, None]
    W = apply_transform(res, Z, "forward")
    back = apply_transform(res, W, "inverse")
    rt_err = float(np.max(np.abs(back - Z)))
    H_poly = H.full_polynomial()
    conj_err = 0.0
    for z, w in zip(Z, W):
        lhs = float(H_poly.evaluate(w))
        rhs = res.h_m.evaluate(formal_actions(H.n, z)) + float(res.remainder.evaluate(z))
        conj_err = max(conj_err, abs(lhs - rhs))
    report = {
        "m": m,
        "roundtrip_error": rt_err,
        "conjugacy_error": conj_err,
        "smallest_divisor": _finite(res.smallest_divisor),
        "tail_bound": _finite(res.tail_bound),
        "transform_displacement": res.transform_displacement,
    }
    return ExperimentResult(report=report)


# each experiment kind: its runner and its report schema, the required
# top-level fields and their types checked by validate_report (_OR_NULL: a
# float written as null where it is inf or NaN); shipped in-code so artifacts
# stay self-describing
_OR_NULL = (int, float, type(None))
_KINDS = {
    "remainder_scaling": (run_remainder_scaling, {
        "rows": list, "fit": dict, "integrable": bool, "gamma_hat": _OR_NULL, "tau": float,
    }),
    "drift_vs_rho": (run_drift_vs_rho, {"rows": list}),
    "sdm_prevalence": (run_sdm_prevalence, {
        "n": int, "tau_p": float, "gamma_p": float, "L_max": int, "samples": int,
        "seed": int, "bad_fraction": float, "bad_fraction_random": float,
        "theory_bound": float, "binomial_sigma": float, "probe_interval": list,
    }),
    "convex_vs_generic": (run_convex_vs_generic, {"rows": list, "rho": float}),
    "bnf_roundtrip": (run_bnf_roundtrip, {
        "m": int, "roundtrip_error": float, "conjugacy_error": float,
        "smallest_divisor": _OR_NULL,
    }),
}
EXPERIMENT_KINDS = tuple(_KINDS)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Dispatch on spec.kind; writes artifacts if spec.output is set.

    Artifacts: <output>.json always; <output>.csv and <output>.gp (gnuplot)
    when the experiment has tabular output.
    """
    result = _KINDS[spec.kind][0](spec)
    validate_report(result.report, spec.kind)
    if spec.output:
        write_json(str(spec.output) + ".json", result.report)
        if result.csv_fields:
            csv_path = str(spec.output) + ".csv"
            write_csv(csv_path, result.csv_fields, result.csv_rows)
            with _replacing(str(spec.output) + ".gp") as fh:
                fh.write(gnuplot_script(csv_path, spec.kind))
    return result
