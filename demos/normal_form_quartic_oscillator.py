"""Exact Birkhoff normal form of the quartic oscillator, order by order.

For H = I + c q^4 the degree-4 normal form coefficient is the angle average
<q^4> = (3/2) I^2, a classical closed-form result.  Running the engine in
rational mode reproduces it bit-exactly, and pushing the order higher shows
the next invariants of the same oscillator.  A second example normalizes a
two-frequency Hamiltonian with the golden frequency ratio and checks the
conjugacy H(Phi(z)) = h_m(I(z)) + remainder numerically.
"""

import math
from fractions import Fraction

import numpy as np

from hamlab.birkhoff import apply_transform, birkhoff_normal_form
from hamlab.model import EllipticHamiltonian, formal_actions
from hamlab.poly import Polynomial

GOLDEN = (1 + math.sqrt(5)) / 2


def quartic_oscillator():
    c = Fraction(1, 4)
    V = Polynomial(1, {(4, 0): c})
    H = EllipticHamiltonian((1,), V, s=4.0)
    print(f"H = I + {c} q^4, rational mode")
    for m in (2, 3, 4):
        res = birkhoff_normal_form(H, m=m, exact=True)
        terms = ", ".join(
            f"{coeff} * I^{k[0]}" for k, coeff in sorted(res.h_m.terms.items())
        )
        print(f"  m = {m}:  h_m(I) = {terms}")
    print(f"  expected degree-4 coefficient: (3/2) c = {Fraction(3, 2) * c}")


def golden_conjugacy():
    V = Polynomial(2, {(3, 0, 0, 0): 0.1, (0, 1, 1, 1): -0.08})
    H = EllipticHamiltonian((1.0, GOLDEN), V, s=4.0)
    res = birkhoff_normal_form(H, m=3, radius=0.5)
    print("\ntwo-frequency example, alpha = (1, phi), m = 3")
    print(f"  smallest divisor encountered: {res.smallest_divisor:.4f}")
    print(f"  remainder majorant at r = 0.1: {res.remainder.majorant_norm(0.1):.3e}")

    H_poly = H.full_polynomial()
    Z = np.random.default_rng(0).uniform(-0.05, 0.05, size=(10, 4))
    worst = 0.0
    for z, w in zip(Z, apply_transform(res, Z, "forward")):
        gap = H_poly.evaluate(w) - res.h_m.evaluate(formal_actions(2, z))
        worst = max(worst, abs(gap))
    print(f"  max |H(Phi(z)) - h_m(I(z))| over 10 points near 0: {worst:.3e}")
    print("  (the gap is the normal-form remainder, of order ||z||^(2m+1))")


if __name__ == "__main__":
    quartic_oscillator()
    golden_conjugacy()
