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

Graded layout.  Inside the engine a chart polynomial is one 1-D array per
homogeneous degree d, indexed by the rank of the exponent vector among the
C(d+2n-1, 2n-1) vectors of degree d in lexicographic order (the dense
homogeneous layout of Jorba, Exp. Math. 8, 1999).  The rank has a closed
form, so the index tables (exponents, the derivative map into degree d+1, the
rank of every product of two degrees) are built on first use, once per
(2n, degree) or degree pair, and shared by every call.  The per-degree tables
grow like the pieces; a product table grows like the product of two piece
sizes, so product tables are kept only up to a fixed total and past it are
recomputed per call.  Float pieces are complex128 arrays and are full from
degree 6 up, so the float bracket is dense: two derivative matrices, one
matrix product pairing d/dw with d/dwbar, and a bincount scatter-add into the
target degree, done in blocks of rows so no temporary outgrows a fixed size.
Exact pieces hold ExactComplex coefficients in object arrays with the same
tables, None in the empty slots; they are only about a quarter full, so the
exact bracket loops over pairs of nonzero slots instead of multiplying exact
zeros.  Arrays become Polynomial / ActionPolynomial only for h_m, the
remainder and the generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import NamedTuple

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
    FLOAT_PRUNE,
    ActionPolynomial,
    CompiledField,
    Polynomial,
    complexify_unnormalized,
    paired_part,
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


# -- graded chart layout --------------------------------------------------------

# (nvars, degree) -> _Degree and (nvars, a, b) -> product ranks, built on first use
_TABLES: dict = {}
# the product-rank tables kept in _TABLES hold at most this many int32 entries
# in all (32 MiB); the ranks of a degree pair past it are recomputed per call
_PRODUCT_CACHE_ENTRIES = 1 << 23
# the float bracket forms its outer product at most this many entries at a time
_BLOCK_ENTRIES = 1 << 18
# the bracket's factor 2i; a Q(i) constant takes the field of what it multiplies
_TWO_I = ExactComplex(0, 2)


class _Degree(NamedTuple):
    """Index tables of the chart monomials of one degree in V variables."""

    E: np.ndarray  # (N, V) exponent vectors, in lexicographic order
    up: np.ndarray  # (N, V) rank of E + e_v among the monomials of degree + 1
    paired: np.ndarray  # (N,) True where the w and wbar exponents agree


def _choose_up(r: np.ndarray, k: int) -> np.ndarray:
    """C(r + k, k), elementwise for an integer array r >= 0."""
    c = np.ones_like(r)
    for t in range(1, k + 1):
        c = c * (r + t) // t
    return c


def _rank(E: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each exponent vector (last axis) among all the
    vectors of its own total degree."""
    V = E.shape[-1]
    suffix = np.cumsum(E[..., ::-1], axis=-1)[..., ::-1]
    rank = np.zeros(E.shape[:-1], dtype=np.intp)
    for i in range(V - 1):
        # vectors that agree before slot i and hold less there
        rank += _choose_up(suffix[..., i], V - 1 - i) - _choose_up(suffix[..., i + 1], V - 1 - i)
    return rank


def _degree(V: int, d: int) -> _Degree:
    tab = _TABLES.get((V, d))
    if tab is None:
        step = np.eye(V, dtype=np.intp)
        if d == 0:
            E = np.zeros((1, V), dtype=np.intp)
        else:
            below = _degree(V, d - 1)
            E = np.empty((comb(d + V - 1, V - 1), V), dtype=np.intp)
            E[below.up] = below.E[:, None, :] + step
        n = V // 2
        tab = _Degree(E, _rank(E[:, None, :] + step), (E[:, :n] == E[:, n:]).all(axis=1))
        _TABLES[(V, d)] = tab
    return tab


def _product_ranks(V: int, a: int, b: int, rows: slice = slice(None)) -> np.ndarray:
    """Rank in degree a + b of the product of every degree-a monomial in rows
    with every degree-b monomial, flattened row-major.

    In the suffix sums s_k = E[k] + ... + E[V-1], which add under products,
    rank = C(D+V-1, V-1) - 1 - sum_{k>=1} C(s_k+V-1-k, V-k), so each term is
    one lookup in a table over s_k = 0..D.
    """
    Sa = np.cumsum(_degree(V, a).E[rows, ::-1], axis=1)[:, ::-1]
    Sb = np.cumsum(_degree(V, b).E[:, ::-1], axis=1)[:, ::-1]
    D = a + b
    out = np.full((len(Sa), len(Sb)), comb(D + V - 1, V - 1) - 1, dtype=np.intp)
    for k in range(1, V):
        out -= _choose_up(np.arange(-1, D), V - k)[Sa[:, None, k] + Sb[None, :, k]]
    return out.ravel()


def _cached_product_ranks(V: int, a: int, b: int):
    """_product_ranks(V, a, b) as an int32 table kept in _TABLES, or None when
    keeping it would take the kept product tables past _PRODUCT_CACHE_ENTRIES."""
    idx = _TABLES.get((V, a, b))
    if idx is None:
        kept = sum(t.size for key, t in _TABLES.items() if len(key) == 3)
        if kept + comb(a + V - 1, V - 1) * comb(b + V - 1, V - 1) > _PRODUCT_CACHE_ENTRIES:
            return None
        idx = _product_ranks(V, a, b).astype(np.int32)
        _TABLES[(V, a, b)] = idx
    return idx


def _new_piece(V: int, d: int, exact: bool) -> np.ndarray:
    size = comb(d + V - 1, V - 1)
    return np.full(size, None, dtype=object) if exact else np.zeros(size, dtype=complex)


def _chart_piece(terms: dict, d: int, n: int, exact: bool) -> np.ndarray:
    """The array of a homogeneous chart polynomial of degree d given as a dict."""
    p = _new_piece(2 * n, d, exact)
    if terms:
        p[_rank(np.array(list(terms), dtype=np.intp))] = list(terms.values())
    return p


def _piece_terms(p, d: int, n: int) -> dict:
    """The nonzero slots of a piece (or None) as a dict exponent -> coefficient."""
    if p is None:
        return {}
    return {tuple(e): c for e, c in zip(_degree(2 * n, d).E.tolist(), p.tolist()) if c}


def _clean(p: np.ndarray):
    """Apply the zero rule: float coefficients below FLOAT_PRUNE become 0 and
    exact zeros become empty slots.  None if nothing is left."""
    if p.dtype != object:
        p = np.where(np.abs(p) < FLOAT_PRUNE, 0, p)
        return p if p.any() else None
    p = np.array([c if c else None for c in p.tolist()], dtype=object)
    return p if any(c is not None for c in p.tolist()) else None


def _bracket(f: np.ndarray, g: np.ndarray, df: int, dg: int, n: int, scale=1) -> np.ndarray:
    """scale * {f, g}, the chart bracket of pieces of degrees df and dg: a
    piece of degree df + dg - 2."""
    V = 2 * n
    size = comb(df + dg - 2 + V - 1, V - 1)
    if f.dtype != object:
        # derivative matrices (monomials x variables); one product pairs
        # d/dw_j f with d/dwbar_j g and d/dwbar_j f with -d/dw_j g, and each
        # product monomial is scatter-added into its slot, a block of rows of
        # f at a time
        ta, tb = _degree(V, df - 1), _degree(V, dg - 1)
        F = f[ta.up] * (ta.E + 1)
        G = g[tb.up] * (tb.E + 1)
        G = np.hstack((G[:, n:], -G[:, :n])).T
        idx = _cached_product_ranks(V, df - 1, dg - 1)
        nb = G.shape[1]
        step = max(1, _BLOCK_ENTRIES // nb)
        re = im = 0
        for r in range(0, len(F), step):
            M = (F[r : r + step] @ G).ravel()
            if idx is None:
                ix = _product_ranks(V, df - 1, dg - 1, slice(r, r + step))
            else:
                ix = idx[r * nb : (r + step) * nb]
            re = re + np.bincount(ix, M.real, size)
            im = im + np.bincount(ix, M.imag, size)
        return (re + 1j * im) * 2j * scale
    # exact: loop over pairs of nonzero slots.  The values do not depend on
    # the order, but the field an ExactComplex result is tagged with follows
    # its left operand, so pairs go in slot order (sorted exponents) and each
    # slot's sum keeps its first term on the left.
    fi = [i for i, c in enumerate(f.tolist()) if c is not None]
    gi = [i for i, c in enumerate(g.tolist()) if c is not None]
    Ef, Eg = _degree(V, df).E[fi], _degree(V, dg).E[gi]
    S = Ef[:, None, :] + Eg[None, :, :]
    factor, target = [], []
    for j in range(n):
        a = Ef[:, None, j] * Eg[None, :, n + j] - Ef[:, None, n + j] * Eg[None, :, j]
        drop = np.zeros(V, dtype=np.intp)
        drop[[j, n + j]] = 1
        factor.append(a.tolist())
        # where a == 0 the clipped exponents are never used
        target.append(_rank(np.maximum(S - drop, 0)).tolist())
    out = [None] * size
    for x, cf in enumerate(f[fi].tolist()):
        for y, cg in enumerate(g[gi].tolist()):
            c_pair = None
            for j in range(n):
                a = factor[j][x][y]
                if a:
                    if c_pair is None:
                        c_pair = cf * cg
                    c = c_pair * a
                    t = target[j][x][y]
                    out[t] = c if out[t] is None else out[t] + c
    return np.array([None if c is None else c * _TWO_I * scale for c in out], dtype=object)


def _add(p: np.ndarray | None, q: np.ndarray) -> np.ndarray:
    """p + q, slot by slot; an empty slot of p takes q's coefficient."""
    if p is None:
        return q.copy()
    if p.dtype != object:
        return p + q
    return np.array(
        [b if a is None else a if b is None else a + b for a, b in zip(p.tolist(), q.tolist())],
        dtype=object,
    )


def _lie_series(K: list, chi: np.ndarray, d: int, n: int, exact: bool) -> None:
    """Replace K (pieces by degree, None where empty) by exp(L_chi) K,
    truncated at degree len(K) - 1."""
    D_work = len(K) - 1
    term = list(K)
    j = 1
    while True:
        inv = Fraction(1, j) if exact else 1.0 / j
        new = [None] * len(K)
        for dT, piece in enumerate(term):
            if piece is None or dT + d - 2 > D_work:
                continue
            new[dT + d - 2] = _clean(_bracket(piece, chi, dT, d, n, inv))
        if all(p is None for p in new):
            break
        for deg, p in enumerate(new):
            if p is not None:
                K[deg] = _add(K[deg], p)
        term = new
        j += 1
    K[:] = [None if p is None else _clean(p) for p in K]


class _Normalizer:
    """Shared degree-by-degree machinery for the normal form and its curves.

    ``K[d]`` is the degree-d piece of the Hamiltonian in the chart (None when
    empty) and ``generators`` lists (d, chi_d) with chi_d a piece or None.
    """

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
        self.alpha = np.array(_alpha_values(H, exact, qfield), dtype=object if exact else float)
        self.alpha_float = H.alpha_floats()
        self.D_work = D_work
        amax = float(np.max(np.abs(self.alpha_float)))
        self.divisor_floor = 1e-13 * amax if divisor_floor is None else divisor_floor
        self.smallest_divisor = math.inf
        self.generators: list = []

        # assemble K in the chart, split by homogeneous degree
        by_degree: dict = {2: {}}
        for j in range(n):
            key = [0] * (2 * n)
            key[j] = 1
            key[n + j] = 1
            aj = self.alpha[j]
            by_degree[2][tuple(key)] = aj / 2 if exact else aj / 2.0
        V = H.V if exact else H.V.to_float()
        if V.terms:
            for k, c in complexify_unnormalized(V, exact=exact).terms.items():
                if sum(k) <= D_work:
                    by_degree.setdefault(sum(k), {})[k] = c
        self.K = [None] * (D_work + 1)
        for deg, terms in by_degree.items():
            self.K[deg] = _chart_piece(terms, deg, n, exact)

    def normalize_degree(self, d: int):
        """Remove the non-resonant degree-d monomials by one Lie transform."""
        piece = self.K[d]
        chi = None if piece is None else self._generator(piece, d)
        if chi is not None:
            _lie_series(self.K, chi, d, self.n, self.exact)
            # the homological equation cancels the non-resonant part exactly
            res = piece.copy()
            res[~_degree(2 * self.n, d).paired] = 0
            self.K[d] = _clean(res)
        self.generators.append((d, chi))

    def _generator(self, piece: np.ndarray, d: int):
        """chi_d, dividing each non-resonant coefficient of the degree-d piece
        by i (k - l) . alpha; None when there is none."""
        n = self.n
        tab = _degree(2 * n, d)
        filled = piece != 0 if not self.exact else np.array([c is not None for c in piece])
        idx = np.flatnonzero(filled & ~tab.paired)
        if not idx.size:
            return None
        delta = tab.E[idx, :n] - tab.E[idx, n:]
        om = (delta * self.alpha).sum(axis=1)
        chi = _new_piece(2 * n, d, self.exact)
        if self.exact:
            for s, k, o in zip(idx.tolist(), delta.tolist(), om.tolist()):
                if o.is_zero():
                    raise ResonanceEncountered(d, tuple(k), 0.0)
                self.smallest_divisor = min(self.smallest_divisor, abs(o.to_complex().real))
                chi[s] = piece[s] / (ExactComplex.i(self.qfield) * o)
            return chi
        size = np.abs(om)
        bad = np.flatnonzero(size <= self.divisor_floor)
        if bad.size:
            raise ResonanceEncountered(d, tuple(delta[bad[0]].tolist()), float(size[bad[0]]))
        self.smallest_divisor = min(self.smallest_divisor, float(size.min()))
        chi[idx] = piece[idx] / (1j * om)
        return chi

    def terms(self, d: int) -> dict:
        """The degree-d piece of K as a dict exponent -> coefficient."""
        return _piece_terms(self.K[d], d, self.n)

    def h_of_order(self, m: int) -> ActionPolynomial:
        """Collect resonant parts of degrees <= 2m into an action polynomial."""
        even = {}
        for deg in range(2, 2 * m + 1, 2):
            even.update(self.terms(deg))
        return paired_part(Polynomial(self.n, even), self.exact)

    def remainder_polynomial(self, m: int) -> Polynomial:
        total = Polynomial.zero(self.n)
        for deg in range(2 * m + 1, self.D_work + 1):
            terms = self.terms(deg)
            if terms:
                total = total + realify_unnormalized(Polynomial(self.n, terms), exact=self.exact)
        return total

    def remainder_majorant(self, m: int, radius: float):
        """(computed majorant, geometric tail bound, tail ratio) at the radius.

        Computed in the chart: |w_j| <= 2r on the polydisc of radius r, so
        sum |c_k| (2r)^|k| majorizes the realified remainder there without the
        cost of transforming every piece back to real coordinates.
        """
        per_degree = []
        for deg in range(2 * m + 1, self.D_work + 1):
            piece = self.K[deg]
            if piece is not None:
                per_degree.append(
                    math.fsum(abs(c) for c in piece.tolist() if c) * (2.0 * radius) ** deg
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
        cp = Polynomial(H.n, _piece_terms(chi, d, H.n))
        generators_chart.append(cp)
        if cp.terms:
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


def _flow(vf: CompiledField, y: np.ndarray, time: float, steps: int = 48) -> np.ndarray:
    """Time-``time`` Hamiltonian flow of a compiled field via fixed-step RK4."""
    h = time / steps
    for _ in range(steps):
        k1 = vf(y)
        k2 = vf(y + 0.5 * h * k1)
        k3 = vf(y + 0.5 * h * k2)
        k4 = vf(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def apply_transform(res: NormalFormResult, z, direction: str = "forward") -> np.ndarray:
    """Evaluate the normalizing transform (or its inverse) at points (..., 2n).

    forward is the composition Phi_3 o Phi_4 o ... o Phi_{2m} (each Phi_d the
    time-1 flow of the generator of degree d), the map sending normal-form
    coordinates to original ones so that H(forward(z)) matches the normal form.
    """
    z = np.asarray(z, dtype=float)
    norm = float(np.max(np.linalg.norm(z, axis=-1), initial=0.0))
    if norm > res.s / 2 + 1e-12:
        raise OutOfDomain(f"||z|| = {norm:.3f} exceeds s/2 = {res.s / 2}")
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    fields = [CompiledField(g.to_float()) for g in res.generators_real if g.terms]
    if direction == "forward":
        fields, time = fields[::-1], 1.0
    else:
        time = -1.0
    y = z.copy()
    for vf in fields:
        y = _flow(vf, y, time)
    return y
