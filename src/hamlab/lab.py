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
import io
import json
import math
import os
import stat
from dataclasses import dataclass, field, replace

import numpy as np

from .birkhoff import apply_transform, birkhoff_normal_form, remainder_curve
from .diophantine import estimate_gamma
from .dynamics import IntegratorConfig, ensemble_drift, escape_time_scan
from .model import EllipticHamiltonian, formal_actions
from .poly import ActionPolynomial, Polynomial, complexify_unnormalized, paired_part
from .sdm import (
    PrevalenceReport,
    check_sdm_quadratic,
    prevalence_estimate,
    subspaces_up_to,
)

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

EXPERIMENT_KINDS = (
    "remainder_scaling",
    "drift_vs_rho",
    "sdm_prevalence",
    "convex_vs_generic",
    "bnf_roundtrip",
)


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Philox generator for (seed, stream); identical across platforms."""
    return np.random.Generator(
        np.random.Philox(key=(np.uint64(seed) << np.uint64(32)) + np.uint64(stream))
    )


# -- random Hamiltonians -------------------------------------------------------


@dataclass(frozen=True)
class RandomHamiltonianParams:
    n: int
    alpha_mode: str = "golden_family"  # explicit | random_unit_box | golden_family
    alpha: tuple | None = None
    degree_max: int = 4
    coefficient_scale: float = 1.0
    n_terms: int = 6
    include_beta: object = None  # None | "random" | symmetric matrix
    seed: int = 0
    s: float = 4.0

    def __post_init__(self):
        if self.alpha_mode not in ("explicit", "random_unit_box", "golden_family"):
            raise ValueError(f"unknown alpha_mode {self.alpha_mode!r}")
        if self.alpha_mode == "explicit" and self.alpha is None:
            raise ValueError("explicit alpha_mode requires alpha")
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
        return (1.0, _GOLDEN)
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


def extract_quartic_action_part(V: Polynomial) -> np.ndarray:
    """Recover the matrix beta from the paired degree-4 part of V.

    The inverse of :func:`beta_action_polynomial`: the paired degree-4 chart
    monomials read off beta I . I, whose I_i I_j coefficient is beta_ii on the
    diagonal and 2 beta_ij off it.
    """
    n = V.n
    h = paired_part(complexify_unnormalized(V.truncate(4, 4).to_float()), exact=False)
    beta = np.zeros((n, n))
    for k, c in h.terms.items():
        i, j = [i for i in range(n) for _ in range(k[i])]
        beta[i, j] = beta[j, i] = c if i == j else 0.5 * c
    return beta


def _monomial_support(n: int, degree: int):
    """All exponent tuples in 2n variables of the given total degree."""
    out = []

    def rec(pos, remaining, acc):
        if pos == 2 * n - 1:
            out.append(tuple(acc + [remaining]))
            return
        for v in range(remaining + 1):
            rec(pos + 1, remaining - v, acc + [v])

    rec(0, degree, [])
    return out


def generate_random_hamiltonian(params: RandomHamiltonianParams) -> EllipticHamiltonian:
    """Deterministic random Hamiltonian: sparse V, optional embedded beta.

    When include_beta is set, the random support skips degree 4 entirely so
    that the paired degree-4 part of V is exactly beta I . I and the embedding
    round-trips through extract_quartic_action_part.
    """
    n = params.n
    rng = stream_rng(params.seed, 0)
    if params.alpha_mode == "explicit":
        alpha = tuple(params.alpha)
    elif params.alpha_mode == "golden_family":
        alpha = default_frequencies(n)
    else:
        alpha = tuple(rng.uniform(0.5, 1.5, size=n))

    degrees = list(range(3, params.degree_max + 1))
    if params.include_beta is not None:
        degrees = [d for d in degrees if d != 4]
    support = []
    for d in degrees:
        support.extend(_monomial_support(n, d))
    terms = {}
    if params.coefficient_scale > 0.0 and support and params.n_terms > 0:
        count = min(params.n_terms, len(support))
        picks = rng.choice(len(support), size=count, replace=False)
        coeffs = rng.uniform(-params.coefficient_scale, params.coefficient_scale, size=count)
        for p, c in zip(picks, coeffs):
            terms[support[int(p)]] = float(c)
    V = Polynomial(n, terms)

    if params.include_beta is not None:
        if isinstance(params.include_beta, str) and params.include_beta == "random":
            A = rng.uniform(-1.0, 1.0, size=(n, n))
            beta = 0.5 * (A + A.T)
        else:
            beta = np.asarray(params.include_beta, dtype=float)
            if not np.allclose(beta, beta.T, atol=1e-12):
                raise ValueError("include_beta must be symmetric")
        V = V + beta_action_polynomial(beta).expand()
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

    def resolve_hamiltonian(self) -> EllipticHamiltonian:
        if isinstance(self.hamiltonian, EllipticHamiltonian):
            return self.hamiltonian
        return generate_random_hamiltonian(self.hamiltonian)

    def to_json_dict(self) -> dict:
        if isinstance(self.hamiltonian, EllipticHamiltonian):
            ham = {"type": "explicit", "data": self.hamiltonian.to_json_dict()}
        else:
            p = self.hamiltonian
            beta = p.include_beta
            if isinstance(beta, np.ndarray):
                beta = beta.tolist()
            ham = {
                "type": "random",
                "data": {
                    "n": p.n,
                    "alpha_mode": p.alpha_mode,
                    "alpha": list(p.alpha) if p.alpha is not None else None,
                    "degree_max": p.degree_max,
                    "coefficient_scale": p.coefficient_scale,
                    "n_terms": p.n_terms,
                    "include_beta": beta,
                    "seed": p.seed,
                    "s": p.s,
                },
            }
        return {
            "kind": self.kind,
            "hamiltonian": ham,
            "rho_grid": list(self.rho_grid),
            "m_max": self.m_max,
            "radius": self.radius,
            "tau": self.tau,
            "gamma_K": self.gamma_K,
            "L_max": self.L_max,
            "gamma_p": self.gamma_p,
            "tau_p": self.tau_p,
            "N": self.N,
            "T": self.T,
            "dt": self.dt,
            "samples": self.samples,
            "drift_threshold_factor": self.drift_threshold_factor,
            "seed": self.seed,
            "output": self.output,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentSpec":
        ham = data["hamiltonian"]
        if ham["type"] == "explicit":
            h = EllipticHamiltonian.from_json_dict(ham["data"])
        else:
            d = dict(ham["data"])
            if d.get("alpha") is not None:
                d["alpha"] = tuple(d["alpha"])
            h = RandomHamiltonianParams(**d)
        kwargs = {k: v for k, v in data.items() if k not in ("kind", "hamiltonian")}
        if "rho_grid" in kwargs:
            kwargs["rho_grid"] = tuple(kwargs["rho_grid"])
        return cls(kind=data["kind"], hamiltonian=h, **kwargs)

    def save(self, path):
        with _replacing(path) as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path) -> "ExperimentSpec":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


# -- artifact helpers ----------------------------------------------------------


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


@contextlib.contextmanager
def _replacing(path):
    """Write an artifact through a sibling temporary file.

    When path does not exist or is a regular file with one link, yields the
    open temporary file; once it is written, the old file is unlinked and the
    new one, with the old permission bits, is renamed into its place, so an
    existing file is never truncated or renamed over in place.  Anything else
    (a symlink, a hard-linked file, a device such as os.devnull, a FIFO), or a
    path whose directory cannot take the temporary file, is written through
    with open(path, "w"), so what is at the path stays.
    """
    path = os.fspath(path)
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    fh = None
    if st is None or (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
        tmp = f"{path}.tmp"
        try:
            fh = open(tmp, "w", newline="")
        except OSError:
            pass
    if fh is None:
        with open(path, "w", newline="") as fh:
            yield fh
        return
    try:
        with fh:
            if st is not None:
                os.chmod(fh.fileno(), stat.S_IMODE(st.st_mode))
            yield fh
    except BaseException:
        os.unlink(tmp)
        raise
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    os.rename(tmp, path)


def write_csv(path_or_buf, fieldnames, rows):
    """Deterministic CSV: fixed field order, '\\n' terminators, repr floats."""
    own = isinstance(path_or_buf, (str, os.PathLike))
    with _replacing(path_or_buf) if own else contextlib.nullcontext(path_or_buf) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(fieldnames)
        for row in rows:
            w.writerow([_fmt(row.get(k)) for k in fieldnames])


def csv_text(fieldnames, rows) -> str:
    buf = io.StringIO()
    write_csv(buf, fieldnames, rows)
    return buf.getvalue()


def write_json(path, obj):
    with _replacing(path) as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def gnuplot_script(data_csv: str, xcol: int, ycol: int, title: str,
                   logx: bool = False, logy: bool = False) -> str:
    """A minimal gnuplot script plotting one CSV column pair."""
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        "set key off",
    ]
    if logx:
        lines.append("set logscale x")
    if logy:
        lines.append("set logscale y")
    lines.append(
        f"plot '{data_csv}' every ::1 using {xcol}:{ycol} with linespoints"
    )
    return "\n".join(lines) + "\n"


# report schemas: required top-level fields and their types, checked by
# validate_report; shipped in-code so artifacts stay self-describing
REPORT_SCHEMAS = {
    "remainder_scaling": {
        "rows": list, "fit": dict, "integrable": bool, "gamma_hat": float, "tau": float,
    },
    "sdm_prevalence": {
        "n": int, "tau_p": float, "gamma_p": float, "L_max": int, "samples": int,
        "seed": int, "bad_fraction": float, "bad_fraction_random": float,
        "theory_bound": float, "binomial_sigma": float, "probe_interval": list,
    },
    "convex_vs_generic": {"rows": list, "rho": float},
    "drift_vs_rho": {"rows": list},
    "bnf_roundtrip": {"m": int, "roundtrip_error": float, "conjugacy_error": float,
                      "smallest_divisor": float},
}


def validate_report(obj: dict, kind: str):
    schema = REPORT_SCHEMAS[kind]
    for key, typ in schema.items():
        if key not in obj:
            raise ValueError(f"report missing field {key!r}")
        if typ is float:
            ok = isinstance(obj[key], (int, float))
        else:
            ok = isinstance(obj[key], typ)
        if not ok:
            raise ValueError(f"report field {key!r} has type {type(obj[key]).__name__}")


# -- experiments ---------------------------------------------------------------


@dataclass
class ExperimentResult:
    kind: str
    report: dict
    csv_fields: tuple = ()
    csv_rows: list = field(default_factory=list)

    def csv(self) -> str:
        return csv_text(self.csv_fields, self.csv_rows) if self.csv_fields else ""


def run_remainder_scaling(spec: ExperimentSpec) -> ExperimentResult:
    """Normal-form remainder minima over a rho grid, with the exponential fit.

    For each rho the Hamiltonian is rescaled, the remainder curve over m is
    computed, and its minimum recorded; log(min/rho) is then fitted linearly
    against (gamma_hat/rho)^(1/(tau+1)), where the expected slope is negative.
    """
    H = spec.resolve_hamiltonian()
    integrable = not H.V.terms
    rows = []
    minima = []
    gamma_hat = float("nan")
    if not integrable:
        gamma_hat = estimate_gamma(H.alpha, spec.tau, spec.gamma_K).gamma_hat
    for rho in spec.rho_grid:
        Hs = H.scaled(rho)
        if integrable or not Hs.V.terms:
            curve = [(m, 0.0) for m in range(2, spec.m_max + 1)]
        else:
            curve = remainder_curve(Hs, spec.m_max, radius=spec.radius)
        m_opt, r_min = min(curve, key=lambda t: t[1])
        minima.append((rho, m_opt, r_min))
        for m, r in curve:
            rows.append(
                {"rho": rho, "m": m, "remainder_majorant": r, "is_min": m == m_opt}
            )
    fit = {"slope": None, "intercept": None, "r2": None}
    if not integrable and all(r > 0.0 for _, _, r in minima) and len(minima) >= 3:
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
            {"rho": rho, "m_opt": m, "min_remainder": r} for rho, m, r in minima
        ],
        "fit": fit,
        "integrable": integrable,
        "gamma_hat": gamma_hat,
        "tau": spec.tau,
    }
    validate_report(report, "remainder_scaling")
    return ExperimentResult(
        kind="remainder_scaling",
        report=report,
        csv_fields=("rho", "m", "remainder_majorant", "is_min"),
        csv_rows=rows,
    )


def prevalence_report(rep: PrevalenceReport) -> dict:
    """The JSON report of an SDM prevalence estimate."""
    return {
        "n": rep.n,
        "tau_p": rep.tau_p,
        "gamma_p": rep.gamma_p,
        "L_max": rep.L_max,
        "samples": rep.samples,
        "seed": rep.seed,
        "probe_interval": list(rep.probe_interval),
        "bad_fraction": rep.bad_fraction,
        "bad_fraction_random": rep.bad_fraction_random,
        "theory_bound": rep.theory_bound,
        "binomial_sigma": rep.binomial_sigma,
    }


def run_sdm_prevalence(spec: ExperimentSpec) -> ExperimentResult:
    n = spec.hamiltonian.n
    rep = prevalence_estimate(
        n, spec.tau_p, spec.gamma_p, spec.L_max, spec.samples, spec.seed
    )
    report = {**prevalence_report(rep), "bound_finite": spec.tau_p > n * n + 1}
    validate_report(report, "sdm_prevalence")
    return ExperimentResult(kind="sdm_prevalence", report=report)


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
    subs = subspaces_up_to(base.n, spec.L_max)
    rows = []
    for label, beta in _beta_variants(base.n):
        H = generate_random_hamiltonian(replace(base, include_beta=beta))
        verdict = check_sdm_quadratic(
            H.alpha, beta, spec.gamma_p, spec.tau_p, spec.L_max, _subspaces=subs
        )
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
    validate_report(report, "convex_vs_generic")
    return ExperimentResult(
        kind="convex_vs_generic",
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
    validate_report(report, "drift_vs_rho")
    return ExperimentResult(
        kind="drift_vs_rho",
        report=report,
        csv_fields=("rho", "escape_time", "censored", "max_drift_l1", "local_slope"),
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
        "smallest_divisor": res.smallest_divisor,
        "tail_bound": res.tail_bound,
        "transform_displacement": res.transform_displacement,
    }
    validate_report(report, "bnf_roundtrip")
    return ExperimentResult(kind="bnf_roundtrip", report=report)


_RUNNERS = {
    "remainder_scaling": run_remainder_scaling,
    "sdm_prevalence": run_sdm_prevalence,
    "convex_vs_generic": run_convex_vs_generic,
    "drift_vs_rho": run_drift_vs_rho,
    "bnf_roundtrip": run_bnf_roundtrip,
}


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Dispatch on spec.kind; writes artifacts if spec.output is set.

    Artifacts: <output>.json always; <output>.csv and <output>.gp (gnuplot)
    when the experiment has tabular output.
    """
    result = _RUNNERS[spec.kind](spec)
    if spec.output:
        write_json(str(spec.output) + ".json", result.report)
        if result.csv_fields:
            csv_path = str(spec.output) + ".csv"
            write_csv(csv_path, result.csv_fields, result.csv_rows)
            with _replacing(str(spec.output) + ".gp") as fh:
                fh.write(gnuplot_script(csv_path, 1, 2, spec.kind, logy=True))
    return result
