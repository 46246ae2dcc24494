"""Hamiltonians near an elliptic fixed point: H(z) = alpha.I(z) + V(z).

The frequency vector alpha has pairwise distinct components (the quadratic
part is assumed pre-diagonalized), V collects the degree >= 3 terms, and the
domain is the ball of radius s > 3.  The perturbation size rho is defined
operationally as the majorant norm of V at radius s.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch
from .exactnum import real_float
from .poly import Polynomial, _exact_json, _is_exact


def formal_actions(n: int, z) -> np.ndarray:
    """The formal actions I_i = (z_i^2 + z_{n+i}^2)/2; |I|_1 = ||z||^2 / 2."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != 2 * n:
        raise DimensionMismatch(f"point of length {z.shape[-1]}, expected {2 * n}")
    return 0.5 * (z[..., :n] ** 2 + z[..., n:] ** 2)


@contextlib.contextmanager
def _replacing(path):
    """Write an output file through a sibling temporary file.

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


class EllipticHamiltonian:
    """H(z) = alpha.I + V(z) on the ball of radius s, with deg V >= 3."""

    def __init__(self, alpha, V: Polynomial, s: float = 4.0):
        alpha = tuple(alpha)
        n = len(alpha)
        if n < 1:
            raise ValueError("need at least one frequency")
        if V.n != n:
            raise DimensionMismatch(f"V has n={V.n}, alpha has n={n}")
        if len(set(real_float(a) for a in alpha)) != n:
            raise ValueError("components of alpha must be pairwise distinct")
        if V.terms and V.min_degree() <= 2:
            raise ValueError("V must contain only terms of degree >= 3")
        if not s > 3:
            raise ValueError("domain radius s must exceed 3")
        self.n = n
        self.alpha = alpha
        self.V = V
        self.s = float(s)

    @property
    def rho(self) -> float:
        """Perturbation size: the majorant norm of V at radius s."""
        return self.V.majorant_norm(self.s) if self.V.terms else 0.0

    def alpha_floats(self) -> np.ndarray:
        return np.array([real_float(a) for a in self.alpha])

    def full_polynomial(self, exact: bool = False) -> Polynomial:
        """alpha.I + V as one polynomial, the quadratic terms added first."""
        out = Polynomial.zero(self.n)
        for i, a in enumerate(self.alpha):
            ai = a if exact else real_float(a)
            out = out + Polynomial.action_variable(self.n, i, exact=exact) * ai
        return out + (self.V if exact else self.V.to_float())

    def scaled(self, rho: float) -> "EllipticHamiltonian":
        """Apply the standard scaling z -> rho z, H -> rho^-2 H (alpha unchanged): a
        degree-d term of V picks up rho^(d-2), exact when V and rho are."""
        if not 0 < rho < math.inf:
            raise ValueError(f"rho must be positive and finite, got {rho}")
        exact = isinstance(rho, (int, Fraction)) and all(map(_is_exact, self.V.terms.values()))
        r = Fraction(rho) if exact else float(rho)
        V = Polynomial(self.n, {k: c * r ** (sum(k) - 2) for k, c in self.V.terms.items()})
        return EllipticHamiltonian(self.alpha, V, self.s)

    # -- persistence ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Exact frequency components are written as "p/q" strings, floats as floats."""
        return {
            "n": self.n,
            "alpha": [
                _exact_json(a, real=True)[0] if _is_exact(a) else float(a) for a in self.alpha
            ],
            "s": self.s,
            "V": self.V.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EllipticHamiltonian":
        V = Polynomial.from_json_dict(data["V"])
        alpha = [Fraction(a) if isinstance(a, str) else a for a in data["alpha"]]
        return cls(alpha, V, data.get("s", 4.0))

    def save(self, path):
        with _replacing(path) as fh:
            json.dump(self.to_json_dict(), fh, indent=1)

    @classmethod
    def load(cls, path) -> "EllipticHamiltonian":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))

    def __repr__(self):
        return (
            f"EllipticHamiltonian(n={self.n}, alpha={tuple(real_float(a) for a in self.alpha)}, "
            f"s={self.s}, rho={self.rho:.4g}, |V|={len(self.V.terms)} terms)"
        )
