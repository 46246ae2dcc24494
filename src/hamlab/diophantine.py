"""Finite-order non-resonance checks and empirical Diophantine constants.

A frequency vector alpha is probed against all integer vectors k with
0 < |k|_1 <= K (one representative of each pair {k, -k}).  From the minima of
|k.alpha| per l1-shell one obtains a lower bound gamma_hat for the Diophantine
constant at a given exponent tau, and a fitted exponent from the record
envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ResonantFrequency
from .exactnum import ExactComplex


def _floats(alpha) -> np.ndarray:
    out = []
    for a in alpha:
        if isinstance(a, ExactComplex):
            out.append(a.to_complex().real)
        else:
            out.append(float(a))
    return np.array(out)


def zero_tolerance(alpha, k1norm: int) -> float:
    """Floating threshold below which k.alpha counts as an exact resonance."""
    amax = float(np.max(np.abs(_floats(alpha))))
    return 1e-12 * k1norm * amax


def _alpha_exact(alpha):
    if all(isinstance(a, (int, Fraction)) for a in alpha):
        return [Fraction(a) for a in alpha]
    return None


def shell_array(n: int, s: int) -> np.ndarray:
    """All k in Z^n with |k|_1 = s, one representative per {k, -k} pair.

    Representatives have positive first nonzero entry.  Rows are returned in
    lexicographic order.
    """
    if s == 0:
        return np.zeros((0, n), dtype=np.int64)
    ks = _full_shell(n, s)
    first = ks[np.arange(len(ks)), np.argmax(ks != 0, axis=1)]
    ks = ks[first > 0]  # the half-space: first nonzero entry positive
    order = np.lexsort(ks.T[::-1])
    return ks[order]


def _full_shell(n: int, s: int) -> np.ndarray:
    """All k in Z^n with |k|_1 = s (both signs), in no particular order."""
    if s == 0:
        return np.zeros((1, n), dtype=np.int64)
    if n == 1:
        return np.array([[s], [-s]], dtype=np.int64)
    if n == 2:
        k1 = np.arange(-s, s + 1, dtype=np.int64)
        r = s - np.abs(k1)
        up = np.stack([k1, r], axis=1)
        return np.concatenate([up, up[r > 0] * (1, -1)], axis=0)
    blocks = []
    for k1 in range(-s, s + 1):
        rest = _full_shell(n - 1, s - abs(k1))
        col = np.full((rest.shape[0], 1), k1, dtype=np.int64)
        blocks.append(np.concatenate([col, rest], axis=1))
    return np.concatenate(blocks, axis=0)


@dataclass(frozen=True)
class ResonanceReport:
    order: int
    resonant: bool
    witness: tuple | None
    min_abs: float


@dataclass(frozen=True)
class DiophantineEstimate:
    gamma_hat: float
    tau: float
    K: int
    argmin_k: tuple


def _shell_min(alpha_f: np.ndarray, s: int):
    ks = shell_array(len(alpha_f), s)
    vals = np.abs(ks @ alpha_f)
    i = int(np.argmin(vals))
    return float(vals[i]), tuple(int(x) for x in ks[i])


def check_nonresonant(alpha, order: int) -> ResonanceReport:
    """Exhaustively test k.alpha != 0 for 0 < |k|_1 <= order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    alpha_f = _floats(alpha)
    if not np.any(alpha_f):
        e1 = tuple([1] + [0] * (len(alpha) - 1))
        return ResonanceReport(order, True, e1, 0.0)
    exact = _alpha_exact(alpha)
    best_val, best_k = math.inf, None
    for s in range(1, order + 1):
        v, k = _shell_min(alpha_f, s)
        if v < best_val:
            best_val, best_k = v, k
    resonant = best_val < zero_tolerance(alpha, order)
    if resonant and exact is not None:
        # rational alpha: the zero test is exact
        dot = sum(Fraction(int(ki)) * ai for ki, ai in zip(best_k, exact))
        resonant = dot == 0
        if resonant:
            best_val = 0.0
    return ResonanceReport(order, resonant, best_k if resonant else None, best_val)


def estimate_gamma(alpha, tau: float, K: int) -> DiophantineEstimate:
    """gamma_hat = min over 0 < |k|_1 <= K of |k.alpha| * |k|_1^tau."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if tau < 0:
        raise ValueError("tau must be >= 0")
    alpha_f = _floats(alpha)
    best, best_k = math.inf, None
    for s in range(1, K + 1):
        v, k = _shell_min(alpha_f, s)
        if v < zero_tolerance(alpha, s):
            raise ResonantFrequency(k, v)
        w = v * float(s) ** tau
        if w < best:
            best, best_k = w, k
    return DiophantineEstimate(best, float(tau), K, best_k)


def envelope(alpha, K: int):
    """Record-setting shell minima: list of (|k|_1, min |k.alpha|, k).

    A shell enters the envelope when its minimum is strictly smaller than
    every minimum seen on smaller shells.
    """
    alpha_f = _floats(alpha)
    records = []
    running = math.inf
    for s in range(1, K + 1):
        v, k = _shell_min(alpha_f, s)
        if v < zero_tolerance(alpha, s):
            raise ResonantFrequency(k, v)
        if v < running:
            records.append((s, v, k))
            running = v
    return records


def fit_tau(alpha, K: int):
    """Least-squares slope of log(1/|k.alpha|) vs log |k|_1 over the envelope.

    Returns (tau_fit, rms_residual).  A flat envelope (e.g. n = 1) gives 0.
    """
    if K < 10:
        raise ValueError("K must be >= 10")
    records = envelope(alpha, K)
    if len(records) < 2:
        return 0.0, 0.0
    x = np.log([s for s, _, _ in records])
    y = np.log([1.0 / v for _, v, _ in records])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), resid
