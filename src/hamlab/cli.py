"""Command line front end.

Exit codes: 0 success, 2 validation error (bad arguments or inputs), 3
numerical failure (resonance, divergence, domain exit).  Failures emit a
machine-readable JSON object on stderr: {"error": <class>, "message": ...}.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import birkhoff, diophantine, dynamics, lab, sdm
from .errors import (
    CombinatorialBudgetExceeded,
    DimensionMismatch,
    FixedPointDivergence,
    NotActionRepresentable,
    OrderTooHigh,
    OutOfDomain,
    ResonanceEncountered,
    ResonantFrequency,
    ThresholdViolation,
)
from .model import EllipticHamiltonian

_NUMERICAL = (
    ResonantFrequency,
    ResonanceEncountered,
    FixedPointDivergence,
    ThresholdViolation,
    OutOfDomain,
    OrderTooHigh,
    CombinatorialBudgetExceeded,
    NotActionRepresentable,
    ArithmeticError,
)
_VALIDATION = (ValueError, KeyError, TypeError, OSError, DimensionMismatch)


def _parse_floats(text: str):
    return [float(x) for x in text.split(",") if x.strip()]


def _emit(obj, out: str | None):
    if out:
        lab.write_json(out, obj)
    else:
        sys.stdout.write(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _cmd_bnf(args):
    H = EllipticHamiltonian.load(args.ham)
    res = birkhoff.birkhoff_normal_form(
        H, args.m, D_work=args.D_work, radius=args.radius
    )
    report = {
        "m": res.m,
        "h_m": res.h_m.to_json_dict(),
        "smallest_divisor": res.smallest_divisor,
        "remainder_majorant": res.remainder.majorant_norm(res.radius),
        "tail_bound": res.tail_bound,
        "tail_ratio": res.tail_ratio,
        "transform_displacement": res.transform_displacement,
        "D_work": res.D_work,
        "radius": res.radius,
    }
    _emit(report, args.out)


def _cmd_bnf_curve(args):
    H = EllipticHamiltonian.load(args.ham)
    curve = birkhoff.remainder_curve(H, args.m_max, radius=args.radius)
    rows = [{"m": m, "remainder_majorant": r} for m, r in curve]
    lab.write_csv(args.out or sys.stdout, ("m", "remainder_majorant"), rows)


def _cmd_dioph(args):
    alpha = _parse_floats(args.alpha)
    est = diophantine.estimate_gamma(alpha, args.tau, args.K)
    report = {
        "alpha": alpha,
        "tau": est.tau,
        "K": est.K,
        "gamma_hat": est.gamma_hat,
        "argmin_k": list(est.argmin_k),
    }
    if args.fit:
        tau_fit, resid = diophantine.fit_tau(alpha, args.K)
        report["tau_fit"] = tau_fit
        report["fit_residual"] = resid
    _emit(report, args.out)
    if args.envelope:
        rows = [
            {"k1_norm": s, "min_abs": v, "k": " ".join(map(str, k))}
            for s, v, k in diophantine.envelope(alpha, args.K)
        ]
        lab.write_csv(args.envelope, ("k1_norm", "min_abs", "k"), rows)


def _cmd_sdm_check(args):
    with open(args.quadratic) as fh:
        data = json.load(fh)
    beta = np.array(data["beta"] if isinstance(data, dict) else data, dtype=float)
    v = sdm.check_sdm_quadratic(beta, args.gamma, args.tau, args.Lmax)
    w = v.worst_case
    report = {
        "passed": v.passed,
        "gamma_margin": v.gamma_margin,
        "worst_case": None
        if w is None
        else {"L": w.L, "subspace": w.subspace, "margin": w.margin},
    }
    _emit(report, args.out)


def _cmd_sdm_enum(args):
    subs = sdm.enumerate_GL(args.n, args.k, args.L)
    report = {"n": args.n, "k": args.k, "L": args.L, "count": len(subs)}
    if not args.count_only:  # generators are tuples of ints, written as JSON lists
        report["subspaces"] = [{"perp_basis": s.perp_basis} for s in subs]
    _emit(report, args.out)


def _cmd_sdm_prevalence(args):
    rep = sdm.prevalence_estimate(
        args.n, args.tau, args.gamma, args.Lmax, args.samples, seed=args.seed
    )
    _emit(lab.prevalence_report(rep), args.out)


def _cmd_drift(args):
    H = EllipticHamiltonian.load(args.ham)
    cfg = dynamics.IntegratorConfig(method=args.method, dt=args.dt)
    ens = dynamics.ensemble_drift(
        H, args.rho, args.N, args.T, cfg, seed=args.seed,
        sample_stride=args.sample_stride, keep_records=True,
    )
    rows = []
    for tid, rec in enumerate(ens.records):
        I0 = rec.actions[0]
        for t, I, E in zip(rec.sample_times, rec.actions, rec.energies):
            row = {"trajectory_id": tid, "t": float(t)}
            for i in range(H.n):
                row[f"I_{i + 1}"] = float(I[i])
            row["H"] = float(E)
            row["drift_l1"] = float(np.sum(np.abs(I - I0)))
            rows.append(row)
    fields = ["trajectory_id", "t"] + [f"I_{i + 1}" for i in range(H.n)] + ["H", "drift_l1"]
    lab.write_csv(args.out or sys.stdout, fields, rows)
    sys.stderr.write(
        json.dumps(
            {"max_drift_l1": ens.max_drift_l1, "median_drift_l1": ens.median_drift_l1,
             "escape_count": ens.escape_count}
        )
        + "\n"
    )


def _cmd_escape_scan(args):
    H = EllipticHamiltonian.load(args.ham)
    cfg = dynamics.IntegratorConfig(method=args.method, dt=args.dt)
    rows = dynamics.escape_time_scan(
        H, _parse_floats(args.rho), args.threshold_factor, args.T, cfg, args.N,
        seed=args.seed,
    )
    lab.write_csv(args.out or sys.stdout, lab._ESCAPE_FIELDS, rows)


def _cmd_experiment(args):
    spec = lab.ExperimentSpec.load(args.spec)
    if args.out:
        spec.output = args.out
    result = lab.run_experiment(spec)
    if not spec.output:
        _emit(result.report, None)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hamlab",
        description="Birkhoff normal forms, Diophantine and SDM genericity "
        "checks, and long-time drift experiments for polynomial Hamiltonians.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bnf", help="Birkhoff normal form of a Hamiltonian file")
    b.add_argument("--ham", required=True)
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--D-work", type=int, default=None, dest="D_work")
    b.add_argument("--radius", type=float, default=None)
    b.add_argument("--out", default=None)
    b.set_defaults(func=_cmd_bnf)

    c = sub.add_parser("bnf-curve", help="remainder majorant vs normalization order")
    c.add_argument("--ham", required=True)
    c.add_argument("--m-max", type=int, required=True, dest="m_max")
    c.add_argument("--radius", type=float, default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_bnf_curve)

    d = sub.add_parser("dioph", help="Diophantine constant estimation")
    d.add_argument("--alpha", required=True, help="comma-separated frequencies")
    d.add_argument("--tau", type=float, default=1.0)
    d.add_argument("--K", type=int, default=100)
    d.add_argument("--fit", action="store_true")
    d.add_argument("--envelope", default=None, help="CSV path for the record table")
    d.add_argument("--out", default=None)
    d.set_defaults(func=_cmd_dioph)

    q = sub.add_parser("sdm-check", help="quadratic SDM verdict for a beta matrix")
    q.add_argument("--quadratic", required=True, help="JSON file with a beta matrix")
    q.add_argument("--gamma", type=float, required=True)
    q.add_argument("--tau", type=float, required=True)
    q.add_argument("--Lmax", type=int, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_sdm_check)

    e = sub.add_parser("sdm-enum", help="enumerate rational subspaces G^L(n,k)")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--L", type=int, required=True)
    e.add_argument("--count-only", action="store_true", dest="count_only")
    e.add_argument("--out", default=None)
    e.set_defaults(func=_cmd_sdm_enum)

    v = sub.add_parser("sdm-prevalence", help="Monte-Carlo SDM failure fraction")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--tau", type=float, required=True)
    v.add_argument("--gamma", type=float, default=0.1)
    v.add_argument("--Lmax", type=int, default=3)
    v.add_argument("--samples", type=int, default=1000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    v.set_defaults(func=_cmd_sdm_prevalence)

    r = sub.add_parser("drift", help="ensemble action-drift run")
    r.add_argument("--ham", required=True)
    r.add_argument("--rho", type=float, required=True)
    r.add_argument("--N", type=int, default=16)
    r.add_argument("--T", type=float, default=1e3)
    r.add_argument("--dt", type=float, default=1e-2)
    r.add_argument("--method", default="implicit_midpoint")
    r.add_argument("--sample-stride", type=int, default=10, dest="sample_stride")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--out", default=None)
    r.set_defaults(func=_cmd_drift)

    s = sub.add_parser("escape-scan", help="escape-time table over a rho grid")
    s.add_argument("--ham", required=True)
    s.add_argument("--rho", required=True, help="comma-separated decreasing grid")
    s.add_argument("--threshold-factor", type=float, default=2.0, dest="threshold_factor")
    s.add_argument("--T", type=float, default=1e3)
    s.add_argument("--dt", type=float, default=1e-2)
    s.add_argument("--method", default="implicit_midpoint")
    s.add_argument("--N", type=int, default=8)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_escape_scan)

    x = sub.add_parser("experiment", help="run a full experiment spec")
    x.add_argument("--spec", required=True)
    x.add_argument("--out", default=None)
    x.set_defaults(func=_cmd_experiment)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.func(args)
    except (*_NUMERICAL, *_VALIDATION) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 3 if isinstance(exc, _NUMERICAL) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
