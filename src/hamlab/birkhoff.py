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
truncation at D_work).  The Birkhoff polynomial h_m in the formal actions is
read off the resonant (paired, k = l) slots of the even pieces.

Graded layout.  Inside the engine a chart polynomial is one piece per
homogeneous degree on the graded layout of :mod:`hamlab.poly` (slots ranked
lexicographically by its one rank formula, index tables built on first use
and kept, a slot zero when it equals zero).  This module keeps the ranks of
the products of two degrees.  A product table grows like the product of two
piece sizes, so it is the one budgeted table: the product tables are kept up
to ``_PRODUCT_CACHE_ENTRIES`` entries in all, and past that recomputed per
block of rows.  Float pieces are complex128 arrays and are full from
degree 6 up, so the float bracket is dense: two derivative matrices, one
matrix product pairing d/dw with d/dwbar, and a bincount scatter-add into the
target degree, done in blocks of rows so no temporary outgrows a fixed size.
An exact piece is a triple (X, den, field): the Python int numerators (ar, ai,
br, bi) of its coefficients in Q(i)(w) = field, one row per slot, over one int
denominator; products fold in w^2 = p w + q, and each step divides out the
gcd.  Exact pieces are only about a quarter full, so the exact bracket pairs
only nonzero slots.  Pieces in, pieces out: H enters the chart one piece at a
time through the piece map of :mod:`hamlab.poly`, the remainder and the
generators leave it the same way, and the remainder majorant and the transform
displacement are read off the pieces.  Pieces become Polynomial /
ActionPolynomial only for the outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import diophantine
from .errors import (
    NotActionRepresentable,
    OrderTooHigh,
    OutOfDomain,
    ResonanceEncountered,
    ResonantFrequency,
    ThresholdViolation,
)
from .exactnum import RATIONAL, ExactComplex, QuadField, join_fields
from .model import EllipticHamiltonian
from .poly import (
    ActionPolynomial,
    CompiledField,
    Polynomial,
    _change_piece,
    _degree,
    _numerators,
    _rank,
    _realify,
    _to_pieces,
    _to_terms,
    _values,
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
    tail_ratio: float


def optimal_order(rho: float, gamma: float, tau: float) -> int:
    """Optimal truncation order, of size (gamma/rho)^(1/(tau+1))."""
    if not (rho > 0 and gamma > 0):
        raise ValueError(f"rho and gamma must be positive, got {rho} and {gamma}")
    if rho >= gamma:
        raise ThresholdViolation(f"rho={rho} must be below gamma={gamma}")
    return max(2, math.ceil((gamma / rho) ** (1.0 / (tau + 1.0))))


def _alpha_values(H: EllipticHamiltonian, exact: bool):
    if not exact:
        return H.alpha_floats().tolist()
    for what, cs in (("frequency components", H.alpha), ("coefficients of V", H.V.terms.values())):
        if not all(isinstance(c, (int, Fraction, ExactComplex)) for c in cs):
            raise ValueError(f"exact mode requires exact {what}")
    return [a if isinstance(a, ExactComplex) else ExactComplex(a) for a in H.alpha]


# -- graded chart layout --------------------------------------------------------

# the float bracket forms its outer product at most this many entries at a time
_BLOCK_ENTRIES = 1 << 18
# (V, a, b) -> the int32 product ranks of degrees a and b, kept while they hold
# at most _PRODUCT_CACHE_ENTRIES entries in all (32 MiB)
_PRODUCT_RANKS: dict = {}
_PRODUCT_CACHE_ENTRIES = 1 << 23


def _cached_product_ranks(V: int, a: int, b: int):
    """The ranks in degree a + b of the products of every degree-a monomial
    with every degree-b monomial, flattened row-major, as a kept int32 table;
    None when keeping it would take the kept product tables past their budget."""
    tab = _PRODUCT_RANKS.get((V, a, b))
    if tab is None:
        Ea, Eb = _degree(V, a).E, _degree(V, b).E
        entries = sum(t.size for t in _PRODUCT_RANKS.values()) + len(Ea) * len(Eb)
        if entries > _PRODUCT_CACHE_ENTRIES:
            return None
        tab = _PRODUCT_RANKS[(V, a, b)] = _rank(Ea[:, None, :], Eb).astype(np.int32).ravel()
    return tab


def _clean(p):
    """The piece p, or None when every slot is zero (the one zero rule of
    :mod:`hamlab.poly`); an exact piece is divided by the gcd of its
    numerators and denominator."""
    if not isinstance(p, tuple):
        return p if p.any() else None
    X, den, ext = p
    flat = X.ravel().tolist()
    if not any(flat):
        return None
    g = math.gcd(den, *flat)
    return (X // g, den // g, ext) if g > 1 else p


def _ring(ext: QuadField) -> tuple:
    """(L, L p, L q) as ints, L the least common denominator of p and q in
    w^2 = p w + q."""
    L = math.lcm(ext.p.denominator, ext.q.denominator)
    return (L, *(x.numerator * (L // x.denominator) for x in (ext.p, ext.q)))


def _qmul(X: np.ndarray, Y: np.ndarray, ext: QuadField) -> np.ndarray:
    """Row-wise products of the numerators (ar, ai, br, bi) in X and Y, times
    L of _ring, so that w^2 = p w + q keeps them integers."""
    L, P, Q = _ring(ext)
    ar, ai, br, bi = X.T
    cr, ci, dr, di = Y.T
    # (a + b w)(c + d w) = (ac + q bd) + (ad + bc + p bd) w, all parts complex
    bdr, bdi = br * dr - bi * di, br * di + bi * dr
    sr = L * (ar * cr - ai * ci) + Q * bdr
    si = L * (ar * ci + ai * cr) + Q * bdi
    wr = L * (ar * dr - ai * di + br * cr - bi * ci) + P * bdr
    wi = L * (ar * di + ai * dr + br * ci + bi * cr) + P * bdi
    return np.stack([sr, si, wr, wi], axis=1)


def _bracket(f, g, df: int, dg: int, n: int, j: int = 1):
    """{f, g} / j, the chart bracket of pieces of degrees df and dg: a piece
    of degree df + dg - 2."""
    V = 2 * n
    size = comb(df + dg - 2 + V - 1, V - 1)
    if not isinstance(f, tuple):
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
                ix = _rank(ta.E[r : r + step, None, :], tb.E).ravel()
            else:
                ix = idx[r * nb : (r + step) * nb]
            re = re + np.bincount(ix, M.real, size)
            im = im + np.bincount(ix, M.imag, size)
        return (re + 1j * im) * 2j * (1.0 / j)
    # exact: the same pairing over the pairs of nonzero slots, on integer
    # numerators; the exact pieces are too sparse for the dense kernel
    (X, dx, fx), (Y, dy, fy) = f, g
    ext = join_fields(fx, fy)
    fi = np.flatnonzero((X != 0).any(axis=1))
    gi = np.flatnonzero((Y != 0).any(axis=1))
    Ef, Eg = _degree(V, df).E[fi], _degree(V, dg).E[gi]
    # factor[x, y, k] multiplies c_x c_y in the k-th pair of the bracket,
    # whose monomial drops one w_k and one wbar_k
    factor = Ef[:, None, :n] * Eg[None, :, n:] - Ef[:, None, n:] * Eg[None, :, :n]
    x, y, k = np.nonzero(factor)
    e = np.eye(V, dtype=np.intp)
    S = Ef[x] + Eg[y] - e[k] - e[n + k]
    out = np.zeros((size, 4), dtype=object)
    np.add.at(out, _rank(S), _qmul(X[fi[x]], Y[gi[y]], ext) * factor[x, y, k][:, None])
    # times 2i: (ar, ai, br, bi) -> (-2 ai, 2 ar, -2 bi, 2 br)
    return out[:, [1, 0, 3, 2]] * [-2, 2, -2, 2], dx * dy * _ring(ext)[0] * j, ext


def _add(p, q):
    """p + q, slot by slot."""
    if p is None:
        return q
    if not isinstance(p, tuple):
        return p + q
    (X, a, f), (Y, b, g) = p, q
    den = math.lcm(a, b)
    return X * (den // a) + Y * (den // b), den, join_fields(f, g)


def _displacement(chi, d: int, n: int, radius: float) -> float:
    """max_i of the majorant norm at the radius of d chi / d z_i, for chi a
    real piece of degree d.  The partial holds the coefficients of chi times
    the exponent of z_i, scaled on the integer numerators in exact mode."""
    E = _degree(2 * n, d).E
    if isinstance(chi, tuple):
        X, den, ext = chi
        partials = [(X * E[:, i : i + 1], den, ext) for i in range(2 * n)]
    else:
        partials = [chi * E[:, i] for i in range(2 * n)]
    rk = radius ** (d - 1)
    return max(math.fsum(abs(c) * rk for c in _values(q) if c) for q in partials)


def _lie_series(K: list, chi, d: int, n: int) -> None:
    """Replace K (pieces by degree, None where empty) by exp(L_chi) K,
    truncated at degree len(K) - 1."""
    D_work = len(K) - 1
    term = list(K)
    j = 1
    while True:
        new = [None] * len(K)
        for dT, piece in enumerate(term):
            if piece is None or dT + d - 2 > D_work:
                continue
            new[dT + d - 2] = _clean(_bracket(piece, chi, dT, d, n, j))
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
    A float small divisor at or below 1e-13 max |alpha| raises
    ResonanceEncountered; exact mode refuses only an exact zero.
    """

    def __init__(
        self,
        H: EllipticHamiltonian,
        two_m_target: int,
        D_work: int,
        exact: bool,
    ):
        n = H.n
        alpha = _alpha_values(H, exact)
        if D_work < two_m_target + 1:
            raise ValueError("D_work must be at least 2m+1")
        if comb(D_work + 2 * n, 2 * n) > MONOMIAL_BUDGET:
            raise OrderTooHigh(
                f"D_work={D_work} implies more than {MONOMIAL_BUDGET} candidate monomials"
            )
        report = diophantine.check_nonresonant(H.alpha, two_m_target)
        if report.resonant:
            raise ResonantFrequency(report.witness, report.min_abs)

        self.n = n
        self.exact = exact
        if exact:
            # the numerators (ar, br) of the frequencies, which are real; two
            # distinct extensions in alpha and V raise TypeError
            coeffs = [*alpha, *H.V.terms.values()]
            X, self.alpha_den, self.field = _numerators(coeffs, slice(None), len(coeffs))
            self.alpha = X[:n, [0, 2]]
        else:
            self.alpha = np.array(alpha)
        self.D_work = D_work
        self.smallest_divisor = math.inf
        self.smallest_at = None  # (degree, k) of the smallest float divisor
        self.generators: list = []

        # complexify H one homogeneous piece at a time
        self.K = [None] * (D_work + 1)
        for deg, p in _to_pieces(H.full_polynomial(exact), exact).items():
            if deg <= D_work:
                self.K[deg] = _clean(_change_piece(p, n, deg, real=False))

    def normalize_degree(self, d: int):
        """Remove the non-resonant degree-d monomials by one Lie transform."""
        piece = self.K[d]
        chi = None if piece is None else self._generator(piece, d)
        if chi is not None:
            _lie_series(self.K, chi, d, self.n)
            # the homological equation cancels the non-resonant part exactly,
            # which exact arithmetic has done already
            if not self.exact:
                self.K[d] = _clean(np.where(_degree(2 * self.n, d).paired, piece, 0))
        self.generators.append((d, chi))

    def _generator(self, piece, d: int):
        """chi_d, dividing each non-resonant coefficient of the degree-d piece
        by i (k - l) . alpha; None when there is none."""
        n = self.n
        tab = _degree(2 * n, d)
        filled = (piece[0] != 0).any(axis=1) if self.exact else piece != 0
        idx = np.flatnonzero(filled & ~tab.paired)
        if not idx.size:
            return None
        delta = tab.E[idx, :n] - tab.E[idx, n:]
        if self.exact:
            # o = (a + b w) / D_alpha is real, and 1 / (i o) is -i times its
            # Galois conjugate D_alpha (a + p b - b w) over its norm
            # (a^2 + p a b - q b^2)
            L, P, Q = _ring(self.field)
            a, b = (delta @ self.alpha).T
            norm = L * a * a + P * a * b - Q * b * b
            bad = np.flatnonzero(norm == 0)
            if bad.size:
                raise ResonanceEncountered(d, tuple(delta[bad[0]].tolist()), 0.0)
            D, w = self.alpha_den, self.field.omega
            sizes = [abs(x / D + y / D * w) for x, y in zip(a, b)]
            self.smallest_divisor = min(self.smallest_divisor, *sizes)
            minus_i_conj = np.stack([0 * a, -L * a - P * b, 0 * a, L * b], axis=1)
            M = math.lcm(*norm.tolist())
            X, den, _ = piece
            chi = np.zeros_like(X)
            chi[idx] = _qmul(X[idx], minus_i_conj, self.field) * (D * (M // norm))[:, None]
            return _clean((chi, den * L * M, self.field))
        om = (delta * self.alpha).sum(axis=1)
        size = np.abs(om)
        bad = np.flatnonzero(size <= 1e-13 * np.abs(self.alpha).max())
        if bad.size:
            raise ResonanceEncountered(d, tuple(delta[bad[0]].tolist()), float(size[bad[0]]))
        i = int(size.argmin())
        if size[i] < self.smallest_divisor:
            self.smallest_divisor, self.smallest_at = float(size[i]), (d, tuple(delta[i].tolist()))
        chi = np.zeros_like(piece)
        chi[idx] = piece[idx] / (1j * om)
        return chi

    def h_of_order(self, m: int) -> ActionPolynomial:
        """The action polynomial read off the paired slots of the even pieces
        of degree <= 2m.  In the chart w_j wbar_j = 2 I_j, so the slot w^k wbar^k
        of coefficient c gives c (2I)^k.  A float slot gives its real part; a
        non-real exact one raises NotActionRepresentable.  Exact coefficients
        stay ExactComplex when any slot has an extension part, and are the
        Fractions they equal otherwise."""
        n, out = self.n, {}
        pieces = {d: self.K[d] for d in range(2, 2 * m + 1, 2) if self.K[d] is not None}
        ext = self.exact and any((p[0][:, 2:] != 0).any() for p in pieces.values())
        for d, p in pieces.items():
            tab, scale = _degree(2 * n, d), 2 ** (d // 2)
            slots = np.flatnonzero(tab.paired)
            keys = map(tuple, tab.E[slots, :n].tolist())
            if not self.exact:
                out.update(zip(keys, (p[slots] * scale).real.tolist()))
                continue
            X, den, field = p
            for k, (ar, ai, br, bi) in zip(keys, X[slots].tolist()):
                if ai or bi:
                    c = ExactComplex(*(Fraction(x, den) for x in (ar, ai, br, bi)), field=field)
                    raise NotActionRepresentable(f"non-real exact coefficient {c!r}")
                c = ExactComplex(Fraction(ar * scale, den), 0, Fraction(br * scale, den), 0, field)
                out[k] = c if ext else c.ar
        return ActionPolynomial(n, out)

    def remainder_polynomial(self, m: int) -> Polynomial:
        pieces = {d: self.K[d] for d in range(2 * m + 1, self.D_work + 1) if self.K[d] is not None}
        return Polynomial(self.n, _to_terms(self.realify(pieces), self.n, real=True))

    def realify(self, pieces: dict) -> dict:
        """_realify; a failure names the smallest float divisor, since only
        small divisors blow the rounding of a real H's chart up that far."""
        try:
            return _realify(pieces, self.n)
        except NotActionRepresentable as err:
            if self.smallest_at is None:
                raise
            raise ResonanceEncountered(*self.smallest_at, self.smallest_divisor) from err

    def remainder_majorant(self, m: int, radii) -> list:
        """(computed majorant, geometric tail bound, tail ratio), one per
        radius of the sequence ``radii``.

        Computed in the chart: |w_j| <= 2r on the polydisc of radius r, so
        sum |c_k| (2r)^|k| majorizes the realified remainder there without the
        cost of transforming every piece back to real coordinates.  The sums
        sum |c_k| of each degree are taken once for all radii.
        """
        sums = [
            None if p is None
            else math.fsum(map(abs, _values(p)) if self.exact else np.hypot(p.real, p.imag).tolist())
            for p in self.K[2 * m + 1:]
        ]
        out = []
        for r in radii:
            per_degree = [0.0 if c is None else c * (2.0 * r) ** d for d, c in enumerate(sums, 2 * m + 1)]
            # the geometric tail of the last two degrees; 0 when the last is 0
            last, prev = per_degree[-1:-3:-1] if len(per_degree) >= 2 else (0.0, 0.0)
            ratio = (last / prev if prev > 0.0 else math.inf) if last > 0.0 else 0.0
            tail = (last * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf) if last > 0.0 else 0.0
            out.append((math.fsum(per_degree), tail, ratio))
        return out


def _radius(H: EllipticHamiltonian, radius: float | None) -> float:
    """The evaluation radius, 0.75 s by default; a radius that is not
    positive and finite is refused."""
    if radius is None:
        return 0.75 * H.s
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    return radius


def birkhoff_normal_form(
    H: EllipticHamiltonian,
    m: int,
    D_work: int | None = None,
    exact: bool = False,
    qfield: QuadField = RATIONAL,
    radius: float | None = None,
) -> NormalFormResult:
    """Normalize H to order 2m; see the module docstring for the scheme.

    ``qfield`` has no effect: the field of every exact coefficient follows
    from its value and the frequencies.  Float divisors just above the resonance
    floor that blow rounding up past realification raise ResonanceEncountered.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if D_work is None:
        D_work = 2 * m + 4
    radius = _radius(H, radius)
    norm = _Normalizer(H, 2 * m, D_work, exact)
    for d in range(3, 2 * m + 1):
        norm.normalize_degree(d)
    h_m = norm.h_of_order(m)
    remainder = norm.remainder_polynomial(m)
    [(_, tail, ratio)] = norm.remainder_majorant(m, [radius])

    generators_chart = []
    generators_real = []
    displacement = 0.0
    for d, chi in norm.generators:
        pieces = {} if chi is None else {d: chi}
        generators_chart.append(Polynomial(H.n, _to_terms(pieces, H.n)))
        real = norm.realify(pieces)
        rp = Polynomial(H.n, _to_terms(real, H.n, real=True))
        generators_real.append(rp)
        if rp.terms:
            displacement += _displacement(real[d], d, H.n, radius)
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
        tail_ratio=ratio,
    )


def remainder_curve(
    H: EllipticHamiltonian,
    m_max: int,
    radius=None,
) -> list:
    """Remainder majorant (computed part + tail bound) for m = 2..m_max, in
    float mode at D_work = 2 m_max + 4; for a sequence of radii, one such
    curve per radius, all from one pass.

    The degree-by-degree pass is shared: after normalizing through degree 2m
    the internal state coincides with a direct order-m normalization at the
    same D_work, so one sweep yields the whole curve.  The scaling z -> rho z
    multiplies each chart, generator and remainder piece of degree d by
    rho^(d-2) and leaves every divisor k.alpha as it is, so the curve of
    H.scaled(rho) at radius r is rho^-2 times the curve of H at radius rho r.
    """
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    radii = [_radius(H, r) for r in (radius if np.ndim(radius) else [radius])]
    norm = _Normalizer(H, 2 * m_max, 2 * m_max + 4, exact=False)
    curves = [[] for _ in radii]
    for d in range(3, 2 * m_max + 1):
        norm.normalize_degree(d)
        if d % 2 == 0 and d >= 4:
            for curve, (total, tail, _) in zip(curves, norm.remainder_majorant(d // 2, radii)):
                curve.append((d // 2, total + tail))
    return curves if np.ndim(radius) else curves[0]


def _flow(vf: CompiledField, y: np.ndarray, time: float) -> np.ndarray:
    """Time-``time`` Hamiltonian flow of a compiled field via 48 fixed RK4 steps."""
    h = time / 48
    for _ in range(48):
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
