"""The reproducible experiment pipeline, end to end.

A full study is described by a JSON spec (Hamiltonian, grids, seeds, output
prefix), so it can be saved, shared, and rerun byte-identically.  This script
builds a random Hamiltonian with an embedded quartic coupling matrix, saves
the spec, runs the matched-drift comparison between sign-definite,
indefinite-but-generic, and degenerate couplings, and shows the artifacts
that land on disk (report JSON, CSV table, gnuplot script).  The same spec
file drives `hamlab experiment --spec ...` from the command line.
"""

import json
import pathlib
import tempfile

from hamlab.lab import ExperimentSpec, RandomHamiltonianParams, run_experiment


def main():
    params = RandomHamiltonianParams(
        n=2,
        degree_max=5,
        n_terms=4,
        coefficient_scale=0.3,
        seed=1,
    )
    outdir = pathlib.Path(tempfile.mkdtemp(prefix="hamlab_demo_"))
    spec = ExperimentSpec(
        kind="convex_vs_generic",
        hamiltonian=params,
        rho_grid=(0.1,),
        N=8,
        T=50.0,
        dt=0.05,
        L_max=2,
        output=str(outdir / "convex_vs_generic"),
    )
    spec_path = outdir / "spec.json"
    spec.save(spec_path)
    print(f"spec saved to {spec_path}")

    result = run_experiment(spec)
    print(f"\ndrift at rho = {result.report['rho']} for three quartic couplings:")
    for row in result.report["rows"]:
        print(
            f"  {row['label']:22s} sdm_passed = {row['sdm_passed']!s:5s}"
            f" max drift = {row['max_drift_l1']:.3e}"
        )

    print("\nartifacts written:")
    for p in sorted(outdir.iterdir()):
        print(f"  {p.name} ({p.stat().st_size} bytes)")

    reloaded = ExperimentSpec.load(spec_path)
    rerun = run_experiment(reloaded)
    identical = json.dumps(rerun.report, sort_keys=True) == json.dumps(
        result.report, sort_keys=True
    )
    print(f"\nrerun from the saved spec is byte-identical: {identical}")


if __name__ == "__main__":
    main()
