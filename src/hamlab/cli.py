"""Command line front end: a thin shell over the library.

Every command takes --out and writes its report (JSON or CSV) to stdout
without it.  Exit codes: 0 success; 2 for a validation error, that is
hamlab.errors.DimensionMismatch or a ValueError, KeyError, TypeError or
OSError (bad arguments or inputs); 3 for any other hamlab.errors.HamlabError
or an ArithmeticError (resonance, divergence, domain exit).  Failures emit a
machine-readable JSON object on stderr: {"error": <class>, "message": ...}.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import birkhoff, diophantine, dynamics, lab, sdm
from .errors import DimensionMismatch, HamlabError
from .model import EllipticHamiltonian

_VALIDATION = (ValueError, KeyError, TypeError, OSError, DimensionMismatch)


def _parse_floats(text: str):
    numbers = [x for x in text.split(",") if x.strip()]
    if numbers and len(numbers) <= text.count(","):  # blank entries among numbers
        raise ValueError(f"blank entry in the list {text!r}")
    return [float(x) for x in numbers]


def _cmd_bnf(args):
    H = EllipticHamiltonian.load(args.ham)
    res = birkhoff.birkhoff_normal_form(
        H, args.m, D_work=args.D_work, radius=args.radius
    )
    report = {
        "m": res.m,
        "h_m": res.h_m.to_json_dict(),
        "smallest_divisor": lab._finite(res.smallest_divisor),
        "remainder_majorant": res.remainder.majorant_norm(res.radius),
        "tail_bound": lab._finite(res.tail_bound),
        "tail_ratio": lab._finite(res.tail_ratio),
        "transform_displacement": res.transform_displacement,
        "D_work": res.D_work,
        "radius": res.radius,
    }
    lab.write_json(args.out or sys.stdout, report)


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
    lab.write_json(args.out or sys.stdout, report)
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
    lab.write_json(args.out or sys.stdout, report)


def _cmd_sdm_enum(args):
    subs = sdm.enumerate_GL(args.n, args.k, args.L)
    report = {"n": args.n, "k": args.k, "L": args.L, "count": len(subs)}
    if not args.count_only:  # generators are tuples of ints, written as JSON lists
        report["subspaces"] = [{"perp_basis": s.perp_basis} for s in subs]
    lab.write_json(args.out or sys.stdout, report)


def _cmd_sdm_prevalence(args):
    rep = sdm.prevalence_estimate(
        args.n, args.tau, args.gamma, args.Lmax, args.samples, seed=args.seed
    )
    lab.write_json(args.out or sys.stdout, lab.prevalence_report(rep))


def _cmd_drift(args):
    H = EllipticHamiltonian.load(args.ham)
    cfg = dynamics.IntegratorConfig(method=args.method, dt=args.dt)
    ens = dynamics.ensemble_drift(
        H, args.rho, args.N, args.T, cfg, seed=args.seed,
        sample_stride=args.sample_stride,
    )
    run = ens.run
    in_record = np.arange(len(run.times)) < run.kept[:, None]
    times = np.broadcast_to(run.times, in_record.shape)
    cols = np.column_stack([a[in_record] for a in (times, run.actions, run.energies, run.drift)])
    rows = zip(np.repeat(np.arange(len(run.kept)), run.kept).tolist(), cols.tolist())
    fields = ["trajectory_id", "t"] + [f"I_{i + 1}" for i in range(H.n)] + ["H", "drift_l1"]
    lab.write_csv(args.out or sys.stdout, fields, ([tid, *row] for tid, row in rows))
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
    lab.write_csv(args.out or sys.stdout, dynamics._ESCAPE_FIELDS, rows)


def _cmd_experiment(args):
    spec = lab.ExperimentSpec.load(args.spec)
    if args.out:
        spec.output = args.out
    result = lab.run_experiment(spec)
    if not spec.output:
        lab.write_json(sys.stdout, result.report)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hamlab",
        description="Birkhoff normal forms, Diophantine and SDM genericity "
        "checks, and long-time drift experiments for polynomial Hamiltonians.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    # options shared by several subcommands, each defined once
    out, ham, integ, seed = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    out.add_argument("--out", default=None)
    ham.add_argument("--ham", required=True)
    integ.add_argument("--T", type=float, default=1e3)
    integ.add_argument("--dt", type=float, default=1e-2)
    integ.add_argument("--method", default="implicit_midpoint")
    seed.add_argument("--seed", type=int, default=0)

    def command(name, func, summary, *parents):
        cmd = sub.add_parser(name, help=summary, parents=[*parents, out])
        cmd.set_defaults(func=func)
        return cmd

    b = command("bnf", _cmd_bnf, "Birkhoff normal form of a Hamiltonian file", ham)
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--D-work", type=int, default=None, dest="D_work")
    b.add_argument("--radius", type=float, default=None)

    c = command("bnf-curve", _cmd_bnf_curve, "remainder majorant vs normalization order", ham)
    c.add_argument("--m-max", type=int, required=True, dest="m_max")
    c.add_argument("--radius", type=float, default=None)

    d = command("dioph", _cmd_dioph, "Diophantine constant estimation")
    d.add_argument("--alpha", required=True, help="comma-separated frequencies")
    d.add_argument("--tau", type=float, default=1.0)
    d.add_argument("--K", type=int, default=100)
    d.add_argument("--fit", action="store_true")
    d.add_argument("--envelope", default=None, help="CSV path for the record table")

    q = command("sdm-check", _cmd_sdm_check, "quadratic SDM verdict for a beta matrix")
    q.add_argument("--quadratic", required=True, help="JSON file with a beta matrix")
    q.add_argument("--gamma", type=float, required=True)
    q.add_argument("--tau", type=float, required=True)
    q.add_argument("--Lmax", type=int, required=True)

    e = command("sdm-enum", _cmd_sdm_enum, "enumerate rational subspaces G^L(n,k)")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--L", type=int, required=True)
    e.add_argument("--count-only", action="store_true", dest="count_only")

    v = command("sdm-prevalence", _cmd_sdm_prevalence, "Monte-Carlo SDM failure fraction", seed)
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--tau", type=float, required=True)
    v.add_argument("--gamma", type=float, default=0.1)
    v.add_argument("--Lmax", type=int, default=3)
    v.add_argument("--samples", type=int, default=1000)

    r = command("drift", _cmd_drift, "ensemble action-drift run", ham, integ, seed)
    r.add_argument("--rho", type=float, required=True)
    r.add_argument("--N", type=int, default=16)
    r.add_argument("--sample-stride", type=int, default=10, dest="sample_stride")

    s = command("escape-scan", _cmd_escape_scan, "escape-time table over a rho grid", ham, integ, seed)
    s.add_argument("--rho", required=True, help="comma-separated decreasing grid")
    s.add_argument("--threshold-factor", type=float, default=2.0, dest="threshold_factor")
    s.add_argument("--N", type=int, default=8)

    x = command("experiment", _cmd_experiment, "run a full experiment spec")
    x.add_argument("--spec", required=True)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.func(args)
    except (HamlabError, ArithmeticError, *_VALIDATION) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2 if isinstance(exc, _VALIDATION) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
