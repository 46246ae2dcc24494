"""Finite-order non-resonance checks and empirical Diophantine constants.

A frequency vector alpha is probed against all integer vectors k with
0 < |k|_1 <= K (one representative of each pair {k, -k}).  One sweep over the
l1-shells s = 1..K gives the minimum of |k.alpha| on each shell and the
lexicographically first k attaining it; the shells are built by repeat
expansion, one coordinate at a time, in blocks of consecutive shells of
bounded size.  check_nonresonant, estimate_gamma and envelope all read that
sweep: a lower bound gamma_hat for the Diophantine constant at a given
exponent tau, and a fitted exponent from the record envelope.

These and fit_tau read one resonance rule: alpha is resonant at the first
shell s whose minimum is below zero_tolerance(alpha, s), for rational alpha
only if a k there below it has k.alpha = 0 exactly (zero alpha: k = e_1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .blocks import blocks, expand
from .errors import ResonantFrequency
from .exactnum import real_float


def _floats(alpha) -> np.ndarray:
    out = np.array([real_float(a) for a in alpha])
    if not out.size:
        raise ValueError("need at least one frequency")
    return out


def zero_tolerance(alpha, k1norm):
    """Floating threshold below which k.alpha counts as an exact resonance;
    ``k1norm`` may be an int or an integer array of l1 norms."""
    amax = float(np.max(np.abs(_floats(alpha))))
    return 1e-12 * k1norm * amax


def shell_array(n: int, s) -> np.ndarray:
    """All k in Z^n with |k|_1 = s, one representative per {k, -k} pair.

    Representatives have positive first nonzero entry.  Rows are returned in
    lexicographic order.  ``s`` may also be an array of shells: the rows of
    each positive one, shell after shell.

    The rows are built one coordinate at a time: each partial row is repeated
    once per admissible value of the next coordinate.
    """
    left = np.atleast_1d(np.asarray(s, dtype=np.int64))
    left = left[left >= 1]  # the l1 norm the remaining coordinates take
    zero = np.ones(len(left), dtype=bool)  # every coordinate so far is 0
    cols = []
    for j in range(n):
        if j < n - 1:  # 0..left after leading zeros, else -left..left
            count = np.where(zero, left, 2 * left) + 1
            start, step = np.where(zero, 0, -left), np.ones_like(left)
        else:  # the last one is +left after leading zeros, else -left and +left
            count = 1 + (~zero & (left > 0))
            start, step = np.where(zero, left, -left), 2 * left
        parent, offset = expand(count)
        col = start[parent] + step[parent] * offset
        cols = [c[parent] for c in cols] + [col]
        left, zero = left[parent] - np.abs(col), zero[parent] & (col == 0)
    return np.stack(cols, axis=1)


def _shell_minima(alpha_f: np.ndarray, K: int):
    """For each shell s = 1..K, min |k.alpha| over shell_array(n, s) and the
    lexicographically first k attaining it: a (K,) array and a (K, n) array.

    The shells are swept in blocks of consecutive shells (see blocks)."""
    n = len(alpha_f)
    # shell s has half the lattice points of the l1 sphere, counted by their
    # number i of nonzero coordinates
    sizes = np.array(
        [sum(2**i * comb(n, i) * comb(s - 1, i - 1) for i in range(1, n + 1)) // 2 for s in range(1, K + 1)]
    )
    mins = np.empty(K)
    argmins = np.empty((K, n), dtype=np.int64)
    for lo, hi in blocks(sizes):
        ks = shell_array(n, np.arange(lo + 1, hi + 1))
        vals = np.abs(ks @ alpha_f)
        starts = np.r_[0, np.cumsum(sizes[lo:hi - 1])]
        mins[lo:hi] = np.minimum.reduceat(vals, starts)
        hits = np.flatnonzero(vals == np.repeat(mins[lo:hi], sizes[lo:hi]))
        argmins[lo:hi] = ks[hits[np.searchsorted(hits, starts)]]
    return mins, argmins


def _resonance_sweep(alpha, K: int):
    """The shell minima and argmins of alpha up to K (see _shell_minima), and
    the witness k and |k.alpha| of the first resonant shell by the rule of the
    module docstring (0.0 for an exact zero), or None."""
    alpha_f = _floats(alpha)
    mins, argmins = _shell_minima(alpha_f, K)
    if not alpha_f.any():
        return mins, argmins, ((1,) + (0,) * (len(alpha_f) - 1), 0.0)
    rational = all(isinstance(a, (int, Fraction)) for a in alpha)
    tol = zero_tolerance(alpha_f, np.arange(1, K + 1))
    for i in np.flatnonzero(mins < tol):
        if not rational:
            return mins, argmins, (tuple(argmins[i].tolist()), float(mins[i]))
        ks = shell_array(len(alpha_f), i + 1)
        for k in ks[np.abs(ks @ alpha_f) < tol[i]].tolist():
            if sum(ki * ai for ki, ai in zip(k, alpha)) == 0:
                return mins, argmins, (tuple(k), 0.0)
    return mins, argmins, None


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


def check_nonresonant(alpha, order: int) -> ResonanceReport:
    """Exhaustively test k.alpha != 0 for 0 < |k|_1 <= order, by the module's rule."""
    if order < 1:
        raise ValueError("order must be >= 1")
    mins, _, hit = _resonance_sweep(alpha, order)
    if hit is not None:
        return ResonanceReport(order, True, *hit)
    return ResonanceReport(order, False, None, float(mins.min()))


def estimate_gamma(alpha, tau: float, K: int) -> DiophantineEstimate:
    """gamma_hat = min over 0 < |k|_1 <= K of |k.alpha| * |k|_1^tau."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if not tau >= 0:  # NaN fails too
        raise ValueError("tau must be >= 0")
    mins, argmins, hit = _resonance_sweep(alpha, K)
    if hit is not None:
        raise ResonantFrequency(*hit)
    w = mins * np.array([float(s) ** tau for s in range(1, K + 1)])
    i = int(np.argmin(w))
    return DiophantineEstimate(float(w[i]), float(tau), K, tuple(argmins[i].tolist()))


def envelope(alpha, K: int):
    """Record-setting shell minima: list of (|k|_1, min |k.alpha|, k).

    A shell enters the envelope when its minimum is strictly smaller than
    every minimum seen on smaller shells.
    """
    mins, argmins, hit = _resonance_sweep(alpha, K)
    if hit is not None:
        raise ResonantFrequency(*hit)
    records = np.flatnonzero(mins < np.minimum.accumulate(np.r_[np.inf, mins[:-1]]))
    return [(int(i) + 1, float(mins[i]), tuple(argmins[i].tolist())) for i in records]


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
