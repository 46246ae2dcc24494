"""Lie-transform Birkhoff normalization up to order 2m with remainder bounds.

The engine works in the unnormalized complex chart w_j = z_j - i z_{n+j},
wbar_j = z_j + i z_{n+j}, in which the quadratic part is diagonal,
alpha . I = sum_j alpha_j w_j wbar_j / 2, and the bracket reads

    {f, g} = 2i sum_j (df/dw_j dg/dwbar_j - df/dwbar_j dg/dw_j).

A monomial w^k wbar^l is an eigenvector of {., alpha.I} with eigenvalue
i (k - l) . alpha, so the homological equation is solved coefficient-wise by
dividing by that small divisor.  The chart uses only rational constants, so in
exact mode (Fraction / ExactComplex coefficients) the whole normalization is
free of rounding.

One generator per homogeneous degree d = 3..2m is produced; each is applied to
the full Hamiltonian as a truncated Lie series (degrees are tracked exactly,
truncation at D_work).  Resonant monomials (k = l) are collected into the
Birkhoff polynomial h_m in the formal actions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from . import diophantine
from .errors import (
    OrderTooHigh,
    OutOfDomain,
    ResonanceEncountered,
    ResonantFrequency,
    ThresholdViolation,
)
from .exactnum import RATIONAL, ExactComplex, QuadField
from .model import EllipticHamiltonian
from .poly import (
    ActionPolynomial,
    CompiledField,
    Polynomial,
    complexify_unnormalized,
    realify_unnormalized,
)

# candidate monomial count above which a normalization is refused
MONOMIAL_BUDGET = 2_000_000


@dataclass
class NormalFormResult:
    m: int
    h_m: ActionPolynomial
    generators: list  # chart polynomials chi_d, d = 3..2m
    generators_real: list  # the same generators in real coordinates
    remainder: Polynomial
    tail_bound: float
    smallest_divisor: float
    transform_displacement: float
    D_work: int
    radius: float
    s: float
    exact: bool = False
    tail_ratio: float = field(default=0.0)


def optimal_order(rho: float, gamma: float, tau: float, c_opt: float = 1.0) -> int:
    """Optimal truncation order, of size (gamma/rho)^(1/(tau+1))."""
    if rho <= 0 or gamma <= 0:
        raise ValueError("rho and gamma must be positive")
    if rho >= gamma:
        raise ThresholdViolation(f"rho={rho} must be below gamma={gamma}")
    return max(2, math.ceil(c_opt * (gamma / rho) ** (1.0 / (tau + 1.0))))


def _alpha_values(H: EllipticHamiltonian, exact: bool, qfield: QuadField):
    if not exact:
        return [float(a) for a in H.alpha]
    out = []
    for a in H.alpha:
        if isinstance(a, ExactComplex):
            out.append(a)
        elif isinstance(a, (int, Fraction)):
            out.append(ExactComplex(Fraction(a), field=qfield))
        else:
            raise ValueError("exact mode requires exact frequency components")
    return out


def _divisor(k, alpha, n):
    """(k_w - k_wbar) . alpha for a chart exponent tuple."""
    total = None
    for j in range(n):
        d = k[j] - k[n + j]
        if d == 0:
            continue
        contrib = alpha[j] * d
        total = contrib if total is None else total + contrib
    if total is None:
        return alpha[0] * 0
    return total


def _bracket(f: dict, g: dict, n: int, two_i):
    """Chart Poisson bracket of two homogeneous pieces (dicts exp -> coeff)."""
    out: dict = {}
    for kf in sorted(f):
        cf = f[kf]
        for kg in sorted(g):
            a_tot = cf * g[kg]
            for j in range(n):
                a = kf[j] * kg[n + j] - kf[n + j] * kg[j]
                if a == 0:
                    continue
                key = list(kf)
                for t in range(2 * n):
                    key[t] += kg[t]
                key[j] -= 1
                key[n + j] -= 1
                key = tuple(key)
                c = a_tot * a
                out[key] = out[key] + c if key in out else c
    return {k: v * two_i for k, v in out.items()}


def _prune(piece: dict, exact: bool) -> dict:
    if exact:
        return {k: c for k, c in piece.items() if not (c.is_zero() if isinstance(c, ExactComplex) else c == 0)}
    return {k: c for k, c in piece.items() if abs(c) >= 1e-300}


def _lie_transform(K: dict, chi: dict, d: int, D_work: int, n: int, two_i, exact: bool):
    """exp(L_chi) applied to K = {degree: piece}, truncated at degree D_work."""
    result = {deg: dict(p) for deg, p in K.items()}
    term = K
    j = 1
    while True:
        new_term: dict = {}
        for dT in sorted(term):
            dr = dT + d - 2
            if dr > D_work:
                continue
            b = _bracket(term[dT], chi, n, two_i)
            if not b:
                continue
            inv = Fraction(1, j) if exact else 1.0 / j
            tgt = new_term.setdefault(dr, {})
            for k in sorted(b):
                c = b[k] * inv
                tgt[k] = tgt[k] + c if k in tgt else c
        new_term = {deg: _prune(p, exact) for deg, p in new_term.items()}
        new_term = {deg: p for deg, p in new_term.items() if p}
        if not new_term:
            break
        for deg in sorted(new_term):
            tgt = result.setdefault(deg, {})
            for k in sorted(new_term[deg]):
                c = new_term[deg][k]
                tgt[k] = tgt[k] + c if k in tgt else c
        term = new_term
        j += 1
    return {deg: _prune(p, exact) for deg, p in result.items()}


def _chart_piece_to_poly(piece: dict, n: int) -> Polynomial:
    return Polynomial(n, piece, "complex")


def _realify_pieces(pieces: list, n: int, exact: bool) -> Polynomial:
    total = Polynomial.zero(n)
    for piece in pieces:
        if piece:
            total = total + realify_unnormalized(
                _chart_piece_to_poly(piece, n), exact=exact
            )
    return total


class _Normalizer:
    """Shared degree-by-degree machinery for the normal form and its curves."""

    def __init__(
        self,
        H: EllipticHamiltonian,
        two_m_target: int,
        D_work: int,
        exact: bool,
        qfield: QuadField,
        divisor_floor: float | None,
    ):
        n = H.n
        if D_work < two_m_target + 1:
            raise ValueError("D_work must be at least 2m+1")
        if comb(D_work + 2 * n, 2 * n) > MONOMIAL_BUDGET:
            raise OrderTooHigh(
                f"D_work={D_work} implies more than {MONOMIAL_BUDGET} candidate monomials"
            )
        report = diophantine.check_nonresonant(H.alpha, two_m_target)
        if report.resonant:
            raise ResonantFrequency(report.witness, report.min_abs)

        self.H = H
        self.n = n
        self.exact = exact
        self.qfield = qfield
        self.alpha = _alpha_values(H, exact, qfield)
        self.alpha_float = H.alpha_floats()
        self.D_work = D_work
        amax = float(np.max(np.abs(self.alpha_float)))
        self.divisor_floor = 1e-13 * amax if divisor_floor is None else divisor_floor
        self.two_i = ExactComplex(0, 2, field=qfield) if exact else 2j
        self.smallest_divisor = math.inf
        self.generators: list = []  # (d, chart dict)

        # assemble K in the chart, split by homogeneous degree
        K: dict = {}
        quad = {}
        for j in range(n):
            key = [0] * (2 * n)
            key[j] = 1
            key[n + j] = 1
            aj = self.alpha[j]
            quad[tuple(key)] = aj / 2 if exact else aj / 2.0
        K[2] = quad
        V = H.V if exact else H.V.to_float()
        if V.terms:
            chartV = complexify_unnormalized(V, exact=exact)
            for k, c in chartV.terms.items():
                deg = sum(k)
                K.setdefault(deg, {})[k] = c
        self.K = K

    def normalize_degree(self, d: int):
        """Remove non-resonant degree-d monomials; returns the generator dict."""
        n = self.n
        piece = self.K.get(d, {})
        res, chi = {}, {}
        for k in sorted(piece):
            c = piece[k]
            if k[:n] == k[n:]:
                res[k] = c
                continue
            om = _divisor(k, self.alpha, n)
            om_f = om.to_complex().real if self.exact else om
            if self.exact:
                if om.is_zero():
                    raise ResonanceEncountered(
                        d, tuple(k[j] - k[n + j] for j in range(n)), 0.0
                    )
            elif abs(om_f) <= self.divisor_floor:
                raise ResonanceEncountered(
                    d, tuple(k[j] - k[n + j] for j in range(n)), abs(om_f)
                )
            self.smallest_divisor = min(self.smallest_divisor, abs(om_f))
            if self.exact:
                chi[k] = c / (ExactComplex.i(self.qfield) * om)
            else:
                chi[k] = c / (1j * om)
        if chi:
            self.K = _lie_transform(
                self.K, chi, d, self.D_work, n, self.two_i, self.exact
            )
        # the homological equation cancels the non-resonant part exactly
        if res:
            self.K[d] = res
        else:
            self.K.pop(d, None)
        self.generators.append((d, chi))
        return chi

    def h_of_order(self, m: int) -> ActionPolynomial:
        """Collect resonant parts of degrees <= 2m into an action polynomial."""
        n = self.n
        out: dict = {}
        for deg in range(2, 2 * m + 1, 2):
            for k, c in self.K.get(deg, {}).items():
                if k[:n] != k[n:]:
                    continue
                kw = k[:n]
                factor = 2 ** sum(kw)
                if self.exact:
                    cc = c * factor
                    if isinstance(cc, ExactComplex):
                        if not cc.imag_is_zero():
                            raise ArithmeticError("non-real Birkhoff coefficient")
                        cc = cc.ar if cc.field.trivial else cc.real_exact()
                else:
                    cc = complex(c).real * factor
                out[kw] = out[kw] + cc if kw in out else cc
        return ActionPolynomial(n, out)

    def remainder_polynomial(self, m: int) -> Polynomial:
        pieces = [self.K.get(deg, {}) for deg in range(2 * m + 1, self.D_work + 1)]
        return _realify_pieces(pieces, self.n, self.exact)

    def remainder_majorant(self, m: int, radius: float):
        """(computed majorant, geometric tail bound, tail ratio) at the radius.

        Computed in the chart: |w_j| <= 2r on the polydisc of radius r, so
        sum |c_k| (2r)^|k| majorizes the realified remainder there without the
        cost of transforming every piece back to real coordinates.
        """
        per_degree = []
        for deg in range(2 * m + 1, self.D_work + 1):
            piece = self.K.get(deg, {})
            if piece:
                per_degree.append(
                    math.fsum(abs(c) for c in piece.values()) * (2.0 * radius) ** deg
                )
            else:
                per_degree.append(0.0)
        total = math.fsum(per_degree)
        tail, ratio = 0.0, 0.0
        if len(per_degree) >= 2 and per_degree[-1] > 0.0:
            prev = per_degree[-2]
            if prev > 0.0:
                ratio = per_degree[-1] / prev
                tail = (
                    per_degree[-1] * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
                )
            else:
                tail = math.inf
                ratio = math.inf
        return total, tail, ratio


def birkhoff_normal_form(
    H: EllipticHamiltonian,
    m: int,
    D_work: int | None = None,
    exact: bool = False,
    qfield: QuadField = RATIONAL,
    radius: float | None = None,
    divisor_floor: float | None = None,
) -> NormalFormResult:
    """Normalize H to order 2m; see the module docstring for the scheme."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if D_work is None:
        D_work = 2 * m + 4
    if radius is None:
        radius = 0.75 * H.s
    norm = _Normalizer(H, 2 * m, D_work, exact, qfield, divisor_floor)
    for d in range(3, 2 * m + 1):
        norm.normalize_degree(d)
    h_m = norm.h_of_order(m)
    remainder = norm.remainder_polynomial(m)
    _, tail, ratio = norm.remainder_majorant(m, radius)

    generators_chart = []
    generators_real = []
    displacement = 0.0
    for d, chi in norm.generators:
        cp = _chart_piece_to_poly(chi, H.n)
        generators_chart.append(cp)
        if chi:
            rp = realify_unnormalized(cp, exact=exact)
        else:
            rp = Polynomial.zero(H.n)
        generators_real.append(rp)
        if rp.terms:
            displacement += max(
                rp.partial(i).majorant_norm(radius) for i in range(2 * H.n)
            )
    return NormalFormResult(
        m=m,
        h_m=h_m,
        generators=generators_chart,
        generators_real=generators_real,
        remainder=remainder,
        tail_bound=tail,
        smallest_divisor=norm.smallest_divisor,
        transform_displacement=displacement,
        D_work=D_work,
        radius=radius,
        s=H.s,
        exact=exact,
        tail_ratio=ratio,
    )


def remainder_curve(
    H: EllipticHamiltonian,
    m_max: int,
    radius: float | None = None,
    D_work: int | None = None,
    exact: bool = False,
    qfield: QuadField = RATIONAL,
) -> list:
    """Remainder majorant (computed part + tail bound) for m = 2..m_max.

    The degree-by-degree pass is shared: after normalizing through degree 2m
    the internal state coincides with a direct order-m normalization at the
    same D_work, so one sweep yields the whole curve.
    """
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    if radius is None:
        radius = 0.75 * H.s
    if D_work is None:
        D_work = 2 * m_max + 4
    norm = _Normalizer(H, 2 * m_max, D_work, exact, qfield, None)
    curve = []
    for d in range(3, 2 * m_max + 1):
        norm.normalize_degree(d)
        if d % 2 == 0 and d >= 4:
            m = d // 2
            total, tail, _ = norm.remainder_majorant(m, radius)
            curve.append((m, total + tail))
    return curve


def _flow(poly: Polynomial, z: np.ndarray, time: float, steps: int = 48) -> np.ndarray:
    """Time-``time`` Hamiltonian flow of a real polynomial via fixed-step RK4."""
    vf = CompiledField(poly)
    h = time / steps
    y = np.asarray(z, dtype=float).copy()
    for _ in range(steps):
        k1 = vf(y)
        k2 = vf(y + 0.5 * h * k1)
        k3 = vf(y + 0.5 * h * k2)
        k4 = vf(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def apply_transform(res: NormalFormResult, z, direction: str = "forward") -> np.ndarray:
    """Evaluate the normalizing transform (or its inverse) at a point.

    forward is the composition Phi_3 o Phi_4 o ... o Phi_{2m} (each Phi_d the
    time-1 flow of the generator of degree d), the map sending normal-form
    coordinates to original ones so that H(forward(z)) matches the normal form.
    """
    z = np.asarray(z, dtype=float)
    if np.linalg.norm(z) > res.s / 2 + 1e-12:
        raise OutOfDomain(f"||z|| = {np.linalg.norm(z):.3f} exceeds s/2 = {res.s / 2}")
    gens = [g.to_float() if res.exact else g for g in res.generators_real]
    y = z.copy()
    if direction == "forward":
        for g in reversed(gens):
            if g.terms:
                y = _flow(g, y, 1.0)
    elif direction == "inverse":
        for g in gens:
            if g.terms:
                y = _flow(g, y, -1.0)
    else:
        raise ValueError("direction must be 'forward' or 'inverse'")
    return y
