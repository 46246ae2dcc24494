"""Hamiltonians near an elliptic fixed point: H(z) = alpha.I(z) + V(z).

The frequency vector alpha has pairwise distinct components (the quadratic
part is assumed pre-diagonalized), V collects the degree >= 3 terms, and the
domain is the ball of radius s > 3.  The perturbation size rho is defined
operationally as the majorant norm of V at radius s.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, OutOfDomain
from .exactnum import ExactComplex
from .poly import CompiledField, Polynomial, substitute_linear

_SQRT1_2 = 1.0 / math.sqrt(2.0)


def _freq_float(a) -> float:
    """Float value of a frequency component (plain number or ExactComplex)."""
    if isinstance(a, ExactComplex):
        z = a.to_complex()
        if z.imag != 0.0:
            raise ValueError("frequency components must be real")
        return z.real
    return float(a)


def formal_actions(n: int, z) -> np.ndarray:
    """The formal actions I_i = (z_i^2 + z_{n+i}^2)/2; |I|_1 = ||z||^2 / 2."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != 2 * n:
        raise DimensionMismatch(f"point of length {z.shape[-1]}, expected {2 * n}")
    return 0.5 * (z[..., :n] ** 2 + z[..., n:] ** 2)


def complexify(f: Polynomial) -> Polynomial:
    """Symplectic complex chart zeta_j = (z_j - i z_{n+j}) / sqrt(2).

    The first n output variables are zeta_1..zeta_n, the last n their
    conjugates.  The chart maps alpha.I to sum_j alpha_j zeta_j zetabar_j with
    no extra factor, so homological divisors are exactly i (k-l).alpha.
    """
    n = f.n
    images = []
    for j in range(n):  # q_j = (zeta + zetabar)/sqrt(2)
        kw = [0] * (2 * n)
        kw[j] = 1
        kwb = [0] * (2 * n)
        kwb[n + j] = 1
        images.append(Polynomial(n, {tuple(kw): _SQRT1_2 + 0j, tuple(kwb): _SQRT1_2 + 0j}))
    for j in range(n):  # p_j = i(zeta - zetabar)/sqrt(2)
        kw = [0] * (2 * n)
        kw[j] = 1
        kwb = [0] * (2 * n)
        kwb[n + j] = 1
        images.append(Polynomial(n, {tuple(kw): 1j * _SQRT1_2, tuple(kwb): -1j * _SQRT1_2}))
    return substitute_linear(f, images)


def realify(g: Polynomial, tol: float = 1e-10) -> Polynomial:
    """Inverse of :func:`complexify`; drops numerically zero imaginary parts."""
    n = g.n
    images = []
    for j in range(n):  # zeta_j = (z_j - i z_{n+j})/sqrt(2)
        kq = [0] * (2 * n)
        kq[j] = 1
        kp = [0] * (2 * n)
        kp[n + j] = 1
        images.append(Polynomial(n, {tuple(kq): _SQRT1_2 + 0j, tuple(kp): -1j * _SQRT1_2}))
    for j in range(n):
        kq = [0] * (2 * n)
        kq[j] = 1
        kp = [0] * (2 * n)
        kp[n + j] = 1
        images.append(Polynomial(n, {tuple(kq): _SQRT1_2 + 0j, tuple(kp): 1j * _SQRT1_2}))
    h = substitute_linear(g, images)
    max_c = max((abs(c) for c in h.terms.values()), default=0.0)
    out = {}
    for k, c in h.terms.items():
        c = complex(c)
        if abs(c.imag) > tol * max(1.0, max_c):
            raise ValueError(f"realify produced imaginary coefficient {c.imag:.3e}")
        out[k] = c.real
    return Polynomial(n, out, "real")


class EllipticHamiltonian:
    """H(z) = alpha.I + V(z) on the ball of radius s, with deg V >= 3."""

    def __init__(self, alpha, V: Polynomial, s: float = 4.0):
        alpha = tuple(alpha)
        n = len(alpha)
        if n < 1:
            raise ValueError("need at least one frequency")
        if V.n != n:
            raise DimensionMismatch(f"V has n={V.n}, alpha has n={n}")
        if len(set(_freq_float(a) for a in alpha)) != n:
            raise ValueError("components of alpha must be pairwise distinct")
        if V.terms and V.min_degree() <= 2:
            raise ValueError("V must contain only terms of degree >= 3")
        if not s > 3:
            raise ValueError("domain radius s must exceed 3")
        self.n = n
        self.alpha = alpha
        self.V = V
        self.s = float(s)
        self._field = None

    @property
    def rho(self) -> float:
        """Perturbation size: the majorant norm of V at radius s."""
        return self.V.majorant_norm(self.s) if self.V.terms else 0.0

    def alpha_floats(self) -> np.ndarray:
        return np.array([_freq_float(a) for a in self.alpha])

    def quadratic_part(self, exact: bool = False) -> Polynomial:
        out = Polynomial.zero(self.n)
        for i, a in enumerate(self.alpha):
            ai = a if exact else _freq_float(a)
            out = out + Polynomial.action_variable(self.n, i, exact=exact) * ai
        return out

    def full_polynomial(self, exact: bool = False) -> Polynomial:
        return self.quadratic_part(exact=exact) + (
            self.V if exact else self.V.to_float()
        )

    def scaled(self, rho: float) -> "EllipticHamiltonian":
        """Apply the standard scaling z -> rho z, H -> rho^-2 H (alpha unchanged)."""
        return EllipticHamiltonian(self.alpha, self.V.scale(rho, -2), self.s)

    def vector_field(self, z) -> np.ndarray:
        """Hamiltonian vector field (dH/dp, -dH/dq) at a real point."""
        z = np.asarray(z, dtype=float)
        if z.shape != (2 * self.n,):
            raise DimensionMismatch(f"point of shape {z.shape}")
        if np.linalg.norm(z) >= self.s:
            raise OutOfDomain(f"||z|| = {np.linalg.norm(z):.3f} >= s = {self.s}")
        if self._field is None:
            self._field = CompiledField(self.full_polynomial())
        return self._field(z)

    # -- persistence ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "alpha": [_freq_float(a) for a in self.alpha],
            "s": self.s,
            "V": self.V.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EllipticHamiltonian":
        V = Polynomial.from_json_dict(data["V"])
        return cls(data["alpha"], V, data.get("s", 4.0))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)

    @classmethod
    def load(cls, path) -> "EllipticHamiltonian":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def __repr__(self):
        return (
            f"EllipticHamiltonian(n={self.n}, alpha={tuple(_freq_float(a) for a in self.alpha)}, "
            f"s={self.s}, rho={self.rho:.4g}, |V|={len(self.V.terms)} terms)"
        )
