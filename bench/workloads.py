"""The benchmark workloads: inputs from a seed, one timed iteration, checks.

Each workload is a short list of operations, each one call into the public
hamlab API.  One iteration runs them all in order; the benchmark times whole
iterations.  Inputs are made here from the benchmark seed with the benchmark's
own generator, so the library only ever sees the generated inputs.

Why each workload exists, and which layer metric should move which end-to-end
metric on it, is recorded in ``rationale.json`` next to this file.

Seeds change coefficient values, initial conditions and sample draws, never
the monomial supports or the problem sizes, so every seed costs the same work.

Output checks come in two kinds:

* every seed: the acceptance properties of the criterion behind the workload
  (``tests/test_acceptance.py``), a brute-force oracle for ``fit_tau``, and
  the outputs that do not depend on the seed (the subspace enumeration);
* the reference seed: every summarized output against ``reference.json``,
  exact outputs by hash and float outputs within the tolerances below.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import hamlab.birkhoff
import hamlab.diophantine
import hamlab.dynamics
import hamlab.lab
import hamlab.sdm
from hamlab.dynamics import IntegratorConfig
from hamlab.exactnum import GOLDEN, ExactComplex
from hamlab.lab import ExperimentSpec, RandomHamiltonianParams
from hamlab.model import EllipticHamiltonian
from hamlab.poly import ActionPolynomial, Polynomial

REFERENCE_SEED = 0
GOLDEN_F = (1.0 + math.sqrt(5.0)) / 2.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _sha256(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# -- bnf_float: criterion-3 remainder scaling ----------------------------------

# criterion-3 perturbation: cubic and quartic terms, one of each parity class
_C3_V = {(3, 0, 0, 0): 0.4, (1, 2, 0, 0): -0.3, (0, 0, 2, 2): 0.25, (2, 0, 1, 1): 0.2}


def build_bnf_float(seed: int, out_dir: str) -> dict:
    # each coefficient scaled by a factor in [0.75, 1.25], signs kept
    f = 1.0 + 0.25 * _rng(seed, 1).uniform(-1.0, 1.0, size=len(_C3_V))
    V = Polynomial(2, {k: c * float(x) for (k, c), x in zip(_C3_V.items(), f)})
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    spec = ExperimentSpec(
        kind="remainder_scaling",
        hamiltonian=H,
        rho_grid=(0.2, 0.1, 0.05),
        m_max=4,
        radius=1.0,
        tau=1.0,
        gamma_K=200,
        output=f"{out_dir}/bnf_float",
    )
    return {"spec": spec}


def ops_bnf_float(inp: dict) -> list:
    return [("remainder_scaling", lambda out: hamlab.lab.run_experiment(inp["spec"]))]


def summarize_bnf_float(inp: dict, out: dict) -> dict:
    res = out["remainder_scaling"]
    return {
        "remainder_scaling.curve": [r["remainder_majorant"] for r in res.csv_rows],
        "remainder_scaling.m_opt": [r["m_opt"] for r in res.report["rows"]],
        "remainder_scaling.slope": res.report["fit"]["slope"],
        "remainder_scaling.r2": res.report["fit"]["r2"],
    }


def properties_bnf_float(inp: dict, out: dict) -> list:
    rep = out["remainder_scaling"].report
    m_opts = [r["m_opt"] for r in rep["rows"]]
    bad = []
    if not (rep["fit"]["slope"] is not None and rep["fit"]["slope"] < 0.0):
        bad.append(("remainder_scaling", f"fit slope {rep['fit']['slope']} is not negative"))
    elif rep["fit"]["r2"] < 0.9:
        bad.append(("remainder_scaling", f"fit r2 {rep['fit']['r2']} below 0.9"))
    if any(b < a for a, b in zip(m_opts, m_opts[1:])):
        bad.append(("remainder_scaling", f"m_opt {m_opts} decreases as rho falls"))
    return bad


# -- bnf_exact: criterion-2 uniqueness in the golden field ----------------------

# fixed quartic support and coefficient sizes: the seed picks only the signs,
# because Fraction arithmetic costs more as numerators grow
_C2_TERMS = {(0, 1, 1, 2): Fraction(7, 10), (1, 0, 0, 3): Fraction(9, 10)}


def build_bnf_exact(seed: int, out_dir: str) -> dict:
    signs = _rng(seed, 2).choice((-1, 1), size=len(_C2_TERMS))
    V = Polynomial(2, {k: int(s) * c for (k, c), s in zip(_C2_TERMS.items(), signs)})
    alpha = (ExactComplex(1, field=GOLDEN), ExactComplex.omega(GOLDEN))
    return {"H": EllipticHamiltonian(alpha, V, s=4.0)}


def ops_bnf_exact(inp: dict) -> list:
    def normal_form(m):
        return lambda out: hamlab.birkhoff.birkhoff_normal_form(
            inp["H"], m=m, exact=True, qfield=GOLDEN
        )

    return [("normal_form_m2", normal_form(2)), ("normal_form_m3", normal_form(3))]


def _h_terms(res) -> list:
    return sorted(res.h_m.terms.items())


def summarize_bnf_exact(inp: dict, out: dict) -> dict:
    s = {}
    for op in ("normal_form_m2", "normal_form_m3"):
        res = out[op]
        s[f"{op}.h_sha256"] = _sha256(_h_terms(res))
        s[f"{op}.generator_terms"] = sum(len(g.terms) for g in res.generators)
        s[f"{op}.remainder_terms"] = len(res.remainder.terms)
    return s


def properties_bnf_exact(inp: dict, out: dict) -> list:
    h2 = out["normal_form_m2"].h_m.terms
    h3 = out["normal_form_m3"].h_m.terms
    shared = {k: v for k, v in h3.items() if sum(k) <= 2}
    if shared != h2:
        return [("normal_form_m3", "h_3 restricted to degree <= 2 differs from h_2")]
    return []


# -- drift_ensemble: criterion-8 drift against the normal-form bound -------------

_C8_PARAMS = RandomHamiltonianParams(
    n=2,
    include_beta=np.diag([1.0, -2.0]),
    degree_max=5,
    n_terms=4,
    coefficient_scale=0.3,
    seed=1,
)
_C8_RHO = 0.05
_C8_RADIUS = math.sqrt(2.0)
# criterion 8 integrates to T = 0.1 / remainder majorant (about 133 here); the
# cap keeps one iteration near 1 s so a run holds many iterations
_C8_T_CAP = 12.0


def build_drift_ensemble(seed: int, out_dir: str) -> dict:
    return {
        "H": hamlab.lab.generate_random_hamiltonian(_C8_PARAMS),
        "ic_seed": int(_rng(seed, 3).integers(0, 2**31)),
    }


def ops_drift_ensemble(inp: dict) -> list:
    H = inp["H"]

    def normal_form(out):
        res = hamlab.birkhoff.birkhoff_normal_form(H.scaled(_C8_RHO), m=2, radius=_C8_RADIUS)
        rem = res.remainder
        majorant = rem.majorant_norm(_C8_RADIUS)
        vf = max(rem.partial(i).majorant_norm(_C8_RADIUS) for i in range(2 * H.n))
        T = min(_C8_T_CAP, 0.1 / majorant)
        bound = 10.0 * vf * T + 2.0 * res.transform_displacement
        return {"T": T, "bound": bound}

    def ensemble(method):
        def run(out):
            cfg = IntegratorConfig(method=method, dt=0.1)
            return hamlab.dynamics.ensemble_drift(
                H, _C8_RHO, N=32, T=out["normal_form"]["T"], cfg=cfg,
                seed=inp["ic_seed"], sample_stride=10,
            )

        return run

    return [
        ("normal_form", normal_form),
        ("midpoint", ensemble("implicit_midpoint")),
        ("gauss4", ensemble("gauss4")),
    ]


def summarize_drift_ensemble(inp: dict, out: dict) -> dict:
    return {
        "normal_form.T": out["normal_form"]["T"],
        "normal_form.bound": out["normal_form"]["bound"],
        "midpoint.drifts": [float(d) for d in out["midpoint"].drifts],
        "gauss4.drifts": [float(d) for d in out["gauss4"].drifts],
    }


def properties_drift_ensemble(inp: dict, out: dict) -> list:
    bound = out["normal_form"]["bound"]
    bad = []
    for op in ("midpoint", "gauss4"):
        ens = out[op]
        if not ens.max_drift_l1 <= bound:
            bad.append((op, f"max drift {ens.max_drift_l1} exceeds bound {bound}"))
        if any(s != "ok" for s in ens.statuses):
            bad.append((op, f"row statuses {sorted(set(ens.statuses))}"))
    return bad


# -- genericity: SDM prevalence, enumeration, polynomial check, tau fit -----------

_SDM_SAMPLES = 1000
_SDM_BALL = ((0.5, 0.5, 0.5), 0.2)
_SDM_GRID = 4
_FIT_K = 40


def build_genericity(seed: int, out_dir: str) -> dict:
    rng = _rng(seed, 4)
    spec = ExperimentSpec(
        kind="sdm_prevalence",
        hamiltonian=RandomHamiltonianParams(n=2),
        tau_p=6.0,
        gamma_p=0.05,
        L_max=3,
        samples=_SDM_SAMPLES,
        seed=int(rng.integers(0, 2**31)),
        output=f"{out_dir}/genericity",
    )
    alpha = (1.0, *rng.uniform(0.5, 2.5, size=2))
    # h = alpha.I + beta I.I + c I1 I2 I3 with beta positive definite (spectrum
    # in [0.8, 1.5]) and c small: the restricted Hessians stay far above the
    # SDM threshold on the ball, so every grid cell certifies and the check
    # always runs to the end (the same work for every seed)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    beta = Q @ np.diag(rng.uniform(0.8, 1.5, size=3)) @ Q.T
    terms = {tuple(int(i == j) for i in range(3)): a for j, a in enumerate(alpha)}
    for i in range(3):
        for j in range(i, 3):
            k = [0, 0, 0]
            k[i] += 1
            k[j] += 1
            terms[tuple(k)] = float(beta[i, i] if i == j else 2.0 * beta[i, j])
    terms[(1, 1, 1)] = float(rng.uniform(-0.05, 0.05))
    return {"spec": spec, "h": ActionPolynomial(3, terms), "alpha": alpha}


def ops_genericity(inp: dict) -> list:
    return [
        ("sdm_prevalence", lambda out: hamlab.lab.run_experiment(inp["spec"])),
        ("subspaces", lambda out: hamlab.sdm.subspaces_up_to(3, 3)),
        (
            "sdm_polynomial",
            lambda out: hamlab.sdm.check_sdm_polynomial(
                inp["h"], _SDM_BALL, 0.05, 6.0, 2, grid_density=_SDM_GRID
            ),
        ),
        ("fit_tau", lambda out: hamlab.diophantine.fit_tau(inp["alpha"], _FIT_K)),
    ]


def summarize_genericity(inp: dict, out: dict) -> dict:
    rep = out["sdm_prevalence"].report
    subs = out["subspaces"]
    verdict = out["sdm_polynomial"]
    tau, resid = out["fit_tau"]
    return {
        "sdm_prevalence.bad_fraction": rep["bad_fraction"],
        "sdm_prevalence.bad_fraction_random": rep["bad_fraction_random"],
        "subspaces.count": len(subs),
        "subspaces.sha256": _sha256([(s.k, s.L, s.canonical_key) for s in subs]),
        "sdm_polynomial.status": verdict.status,
        "sdm_polynomial.gamma_margin": verdict.gamma_margin,
        "fit_tau.tau": tau,
        "fit_tau.residual": resid,
    }


def properties_genericity(inp: dict, out: dict) -> list:
    rep = out["sdm_prevalence"].report
    bad = []
    limit = rep["theory_bound"] + 3.0 * rep["binomial_sigma"]
    if not rep["bad_fraction"] <= limit:
        bad.append(("sdm_prevalence", f"bad fraction {rep['bad_fraction']} above {limit}"))
    if out["sdm_polynomial"].status != "certified-pass":
        bad.append(("sdm_polynomial", f"status {out['sdm_polynomial'].status}"))
    tau, _ = out["fit_tau"]
    want = _fit_tau_oracle(inp["alpha"], _FIT_K)
    if not abs(tau - want) <= 1e-6 * abs(want):
        bad.append(("fit_tau", f"fitted tau {tau}, brute-force envelope gives {want}"))
    return bad


def _fit_tau_oracle(alpha, K: int) -> float:
    """The envelope fit of ``fit_tau`` from a brute-force scan of the l1 ball."""
    r = np.arange(-K, K + 1)
    ks = np.stack(np.meshgrid(*[r] * len(alpha), indexing="ij"), -1).reshape(-1, len(alpha))
    shell = np.abs(ks).sum(axis=1)
    keep = (shell > 0) & (shell <= K)
    vals = np.full(K + 1, np.inf)
    np.minimum.at(vals, shell[keep], np.abs(ks[keep] @ np.asarray(alpha)))
    records = [(s, vals[s]) for s in range(1, K + 1) if vals[s] < vals[1:s].min(initial=np.inf)]
    x = np.log([s for s, _ in records])
    y = np.log([1.0 / v for _, v in records])
    return float(np.polyfit(x, y, 1)[0])


# -- registry and tolerances -----------------------------------------------------


@dataclass(frozen=True)
class Workload:
    build: Callable  # (seed, output directory) -> inputs
    ops: Callable  # inputs -> [(operation name, fn(outputs so far) -> output)]
    summarize: Callable  # (inputs, outputs) -> {check key: value}
    properties: Callable  # (inputs, outputs) -> [(operation name, problem)]


WORKLOADS = {
    "bnf_float": Workload(
        build_bnf_float, ops_bnf_float, summarize_bnf_float, properties_bnf_float
    ),
    "bnf_exact": Workload(
        build_bnf_exact, ops_bnf_exact, summarize_bnf_exact, properties_bnf_exact
    ),
    "drift_ensemble": Workload(
        build_drift_ensemble, ops_drift_ensemble, summarize_drift_ensemble,
        properties_drift_ensemble,
    ),
    "genericity": Workload(
        build_genericity, ops_genericity, summarize_genericity, properties_genericity
    ),
}


@dataclass(frozen=True)
class Tolerance:
    kind: str  # "exact", "rel" or "abs"
    value: float = 0.0
    every_seed: bool = False  # the output does not depend on the seed


_EXACT = Tolerance("exact")
# Float tolerances, and why:
# - remainder curve, slope, r2: sums of |c| over thousands of chart terms,
#   each carrying rounding amplified by the small divisors (>= 1e-2 here);
#   a rewrite that only reorders sums moves them by ~1e-12 relative, while a
#   wrong coefficient moves them by far more than 1e-8.
# - normal-form T and bound: majorant sums of a degree-5 remainder, as above.
# - drifts: the implicit solve stops at 1e-13 per step; a different but
#   correct solver or evaluator changes each of ~120 steps by up to that
#   much, ~1e-11 absolute on drifts of order 1e-4, so 1e-5 relative.
# - bad fractions: counts over 1000 samples; only a sample sitting on the
#   threshold to rounding could flip, so allow one sample.
# - SDM margin and tau fit: a few eigenvalues and a 2-parameter least
#   squares on exactly selected integer vectors, so 1e-9 relative.
TOLERANCES = {
    "remainder_scaling.curve": Tolerance("rel", 1e-8),
    "remainder_scaling.m_opt": _EXACT,
    "remainder_scaling.slope": Tolerance("rel", 1e-8),
    "remainder_scaling.r2": Tolerance("abs", 1e-8),
    "normal_form_m2.h_sha256": _EXACT,
    "normal_form_m2.generator_terms": _EXACT,
    "normal_form_m2.remainder_terms": _EXACT,
    "normal_form_m3.h_sha256": _EXACT,
    "normal_form_m3.generator_terms": _EXACT,
    "normal_form_m3.remainder_terms": _EXACT,
    "normal_form.T": Tolerance("rel", 1e-8),
    "normal_form.bound": Tolerance("rel", 1e-8),
    "midpoint.drifts": Tolerance("rel", 1e-5),
    "gauss4.drifts": Tolerance("rel", 1e-5),
    "sdm_prevalence.bad_fraction": Tolerance("abs", 1.5 / _SDM_SAMPLES),
    "sdm_prevalence.bad_fraction_random": Tolerance("abs", 1.5 / _SDM_SAMPLES),
    "subspaces.count": Tolerance("exact", every_seed=True),
    "subspaces.sha256": Tolerance("exact", every_seed=True),
    "sdm_polynomial.status": _EXACT,
    "sdm_polynomial.gamma_margin": Tolerance("rel", 1e-9),
    "fit_tau.tau": Tolerance("rel", 1e-9),
    "fit_tau.residual": Tolerance("rel", 1e-9),
}


def _close(tol: Tolerance, got, want) -> bool:
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_close(tol, g, w) for g, w in zip(got, want))
        )
    if tol.kind == "exact":
        return got == want
    if not isinstance(got, (int, float)) or not math.isfinite(got):
        return False
    scale = abs(want) if tol.kind == "rel" else 1.0
    return abs(got - want) <= tol.value * scale


def check(name: str, inp: dict, out: dict, seed: int, reference: dict) -> list:
    """Problems found in one iteration's outputs, as (operation, message)."""
    wl = WORKLOADS[name]
    problems = wl.properties(inp, out)
    want = reference[name]
    for key, got in wl.summarize(inp, out).items():
        tol = TOLERANCES[key]
        if not (tol.every_seed or seed == REFERENCE_SEED):
            continue
        if not _close(tol, got, want[key]):
            problems.append((key.split(".")[0], f"{key} = {got!r} differs from reference"))
    return problems
