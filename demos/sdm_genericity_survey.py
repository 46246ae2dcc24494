"""How common are quadratic forms that pass the Morse-type genericity check?

The stability theory asks the quartic coefficient matrix beta to stay
uniformly nondegenerate on every rational subspace.  Sign-definite matrices
pass trivially; what makes the condition interesting is that most indefinite
matrices pass too, while special ones (eigenvalues of equal magnitude and
opposite sign) fail on a diagonal line.  This script enumerates the rational
subspaces, checks three representative matrices, and compares a Monte-Carlo
failure fraction with the theoretical measure bound.
"""

import numpy as np

from hamlab.sdm import (
    check_sdm_quadratic,
    enumerate_GL,
    prevalence_estimate,
    subspaces_up_to,
)

GAMMA_P, TAU_P, L_MAX = 0.05, 6.0, 3


def main():
    print("rational subspaces of the plane (complement entries bounded by L):")
    for L in (1, 2, 3):
        subs = enumerate_GL(2, 1, L)
        gens = sorted(s.perp_basis[0] for s in subs)
        print(f"  L = {L}: {len(subs)} lines, perp generators {gens}")

    subs = subspaces_up_to(2, L_MAX)
    print(f"\nchecking beta on all {len(subs)} subspaces up to L = {L_MAX}:")
    for label, beta in (
        ("definite diag(1, 2)", np.diag([1.0, 2.0])),
        ("indefinite diag(1, -2)", np.diag([1.0, -2.0])),
        ("degenerate diag(1, -1)", np.diag([1.0, -1.0])),
    ):
        v = check_sdm_quadratic(beta, GAMMA_P, TAU_P, L_MAX)
        print(f"  {label:24s} passed = {v.passed!s:5s} margin = {v.gamma_margin:.4f}")
    print("  (diag(1, -1) degenerates on the line spanned by (1, 1))")

    print("\nMonte-Carlo failure fraction along the probe beta - xi I:")
    for gamma_p in (0.1, 0.05, 0.025):
        rep = prevalence_estimate(2, TAU_P, gamma_p, L_MAX, samples=4000, seed=0)
        print(
            f"  gamma' = {gamma_p:6.3f}: bad fraction = {rep.bad_fraction:.4f}"
            f" (random betas: {rep.bad_fraction_random:.4f},"
            f" measure bound: {rep.theory_bound:.4f})"
        )
    print("(the bad fraction shrinks linearly with gamma', under the bound)")


if __name__ == "__main__":
    main()
