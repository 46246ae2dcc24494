"""Sparse multivariate polynomials on phase space and on the action space.

A polynomial is a dict mapping exponent tuples to coefficients.  Two kinds
share one sparse core and differ only in their variable count ``nvars``:

* :class:`Polynomial` has 2n variables.  On phase space R^{2n}, indices
  0..n-1 are the configuration variables q_1..q_n and indices n..2n-1 the
  momenta p_1..p_n; in the complex chart they are w_1..w_n and wbar_1..wbar_n.
* :class:`ActionPolynomial` has n variables, the formal actions I_1..I_n.

Coefficients are duck-typed: float or complex in the default floating mode,
Fraction or :class:`ExactComplex` in exact-rational mode.  Both modes have one
zero rule: a coefficient equal to zero is not stored.  Every operation is pure
and returns a new polynomial.  Sums and differences take two polynomials of
the same kind and n; a constant enters through :meth:`Polynomial.constant`.

Graded layout.  A homogeneous piece of degree d in V variables is one array
indexed by the rank of its exponent vectors among the C(d+V-1, V-1) vectors
of degree d in lexicographic order (the dense homogeneous layout of Jorba,
Exp. Math. 8, 1999).  The rank has one closed form, :func:`_rank`, which also
ranks products without forming them; the index tables are built on first use,
never at import, and kept for every later call in ``_TABLES``: the per-degree
tables, and the pair maps (3 (s+1)^2 ints at pair degree s) and fibers (N_d
slots per pair) of the chart change below.  The normal form engine
(:mod:`hamlab.birkhoff`) keeps its chart on this layout.

Chart change.  The map between real coordinates and the chart
w_j = z_j - i z_{n+j} takes pieces and returns pieces: a float piece is a
complex128 slot array, an exact one a triple (X, den, field) of Python int
numerators (ar, ai, br, bi) per slot over one int denominator.  On a piece
the map is an integer map with a phase: per variable pair,
(q - ip)^k (q + ip)^l = sum_t i^t K_t(k, l) q^(k+l-t) p^t with integer K_t,
kept factored, one stage per pair.  :func:`_to_pieces` and :func:`_to_terms`
are the one boundary between dicts and pieces: the normal form engine crosses
it only to read H and to build its outputs, and :func:`complexify_unnormalized`
and :func:`realify_unnormalized` are dict wrappers around the piece map.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from math import comb
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotActionRepresentable
from .exactnum import ExactComplex, _integers, join_fields


def _is_exact(c) -> bool:
    return isinstance(c, (int, Fraction, ExactComplex))


def _float_coeff(c):
    if isinstance(c, ExactComplex):
        z = c.to_complex()
        return z.real if z.imag == 0.0 else z
    if isinstance(c, (int, Fraction)):
        return float(c)
    return c


def _exact_json(c, real: bool = False) -> tuple:
    """The real and imaginary parts of an exact coefficient as "p/q" strings;
    a nonzero extension part, and with ``real`` a nonzero imaginary part, is
    refused."""
    if not isinstance(c, ExactComplex):
        c = ExactComplex(c)
    if c.br or c.bi:
        raise ValueError("cannot serialize coefficients from a quadratic extension")
    if real and c.ai:
        raise ValueError(f"non-real action coefficient {c!r}")
    return tuple(f"{x.numerator}/{x.denominator}" for x in (c.ar, c.ai))


class _SparsePoly:
    """The sparse-dict core shared by both polynomial kinds."""

    __slots__ = ("n", "terms")
    _vars_per_dof = 1  # variables per degree of freedom
    _symbol = "z"

    def __init__(self, n: int, terms: Mapping | None = None):
        if n < 1:
            raise ValueError("dimension n must be >= 1")
        self.n = n
        nvars = self.nvars
        clean = {}
        if terms:
            for k, c in terms.items():
                k = tuple(int(e) for e in k)
                if len(k) != nvars:
                    raise DimensionMismatch(
                        f"exponent key of length {len(k)}, expected {nvars}"
                    )
                if any(e < 0 for e in k):
                    raise ValueError("negative exponent")
                if c:  # the zero rule; c != 0 would lift 0 to an ExactComplex
                    clean[k] = c
        self.terms = clean

    @property
    def nvars(self) -> int:
        return self._vars_per_dof * self.n

    def _new(self, terms: Mapping):
        return type(self)(self.n, terms)

    @classmethod
    def zero(cls, n: int):
        return cls(n, {})

    # -- structure ------------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(k) for k in self.terms), default=-1)

    def min_degree(self) -> int:
        return min((sum(k) for k in self.terms), default=-1)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def _check_dim(self, other):
        if type(other) is not type(self) or self.n != other.n:
            raise DimensionMismatch(
                f"{type(self).__name__}(n={self.n}) vs {type(other).__name__}(n={other.n})"
            )

    # -- linear operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, _SparsePoly):
            return NotImplemented
        self._check_dim(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return self._new(out)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def partial(self, index: int):
        """Partial derivative with respect to variable ``index``."""
        out: dict = {}
        for k, c in self.terms.items():
            e = k[index]
            if e == 0:
                continue
            kk = list(k)
            kk[index] = e - 1
            kk = tuple(kk)
            c2 = c * e
            out[kk] = out[kk] + c2 if kk in out else c2
        return self._new(out)

    def gradient(self) -> list:
        return [self.partial(i) for i in range(self.nvars)]

    def to_float(self):
        """Convert exact coefficients to float, or to complex where non-real."""
        return self._new({k: _float_coeff(c) for k, c in self.terms.items()})

    # -- analysis -------------------------------------------------------------

    def evaluate(self, x):
        """Evaluate at a point of length nvars; real float terms are summed with
        compensation, other terms in order."""
        if len(x) != self.nvars:
            raise DimensionMismatch(f"point of length {len(x)}, expected {self.nvars}")
        vals = []
        for k, c in self.terms.items():
            v = c
            for xi, e in zip(x, k):
                for _ in range(e):
                    v = v * xi
            vals.append(v)
        if not vals:
            return 0.0
        if all(isinstance(v, (int, float)) for v in vals):
            return math.fsum(vals)
        total = vals[0]
        for v in vals[1:]:
            total = total + v
        return total

    def majorant_norm(self, r: float) -> float:
        """Sum of |coeff| * r^degree; an upper bound for the sup norm on the
        polydisc of radius r."""
        if not r > 0:
            raise ValueError(f"radius must be positive, got {r}")
        return math.fsum(abs(c) * r ** sum(k) for k, c in self.terms.items())

    def __repr__(self):
        name = type(self).__name__
        if not self.terms:
            return f"{name}(n={self.n}, 0)"
        keys = sorted(self.terms, key=lambda kk: (sum(kk), kk))
        parts = [f"{self.terms[k]}*{self._symbol}^{k}" for k in keys[:8]]
        more = "" if len(self.terms) <= 8 else f" (+{len(self.terms) - 8} terms)"
        return f"{name}(n={self.n}, {' + '.join(parts)}{more})"


class Polynomial(_SparsePoly):
    """Sparse polynomial in 2n real (or complex chart) variables."""

    __slots__ = ()
    _vars_per_dof = 2

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, n: int, c) -> "Polynomial":
        return cls(n, {(0,) * (2 * n): c})

    @classmethod
    def action_variable(cls, n: int, i: int, exact: bool = False) -> "Polynomial":
        """The formal action I_i = (z_i^2 + z_{n+i}^2)/2 as a polynomial."""
        half = Fraction(1, 2) if exact else 0.5
        kq = [0] * (2 * n)
        kq[i] = 2
        kp = [0] * (2 * n)
        kp[n + i] = 2
        return cls(n, {tuple(kq): half, tuple(kp): half})

    # -- ring operations ------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_dim(other)
            out: dict = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    k = tuple(a + b for a, b in zip(k1, k2))
                    c = c1 * c2
                    out[k] = out[k] + c if k in out else c
            return Polynomial(self.n, out)
        return Polynomial(self.n, {k: c * other for k, c in self.terms.items()})

    __rmul__ = __mul__

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = []
        for k in sorted(self.terms):
            c = self.terms[k]
            if _is_exact(c):
                re, im = _exact_json(c)
            elif isinstance(c, complex):
                re, im = c.real, c.imag
            else:
                re, im = float(c), 0.0
            terms.append({"k": list(k), "re": re, "im": im})
        return {"n": self.n, "terms": terms}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Polynomial":
        n = int(data["n"])
        terms = {}
        for t in data["terms"]:
            k = tuple(int(e) for e in t["k"])
            re, im = t["re"], t.get("im", "0" if isinstance(t["re"], str) else 0.0)
            if isinstance(re, str) != isinstance(im, str):
                raise ValueError(f"term {list(k)}: re and im must both be 'p/q' strings or both numbers")
            if isinstance(re, str):
                fre, fim = Fraction(re), Fraction(im)
                c = fre if fim == 0 else ExactComplex(fre, fim)
            else:
                c = float(re) if float(im) == 0.0 else complex(re, im)
            terms[k] = terms[k] + c if k in terms else c
        return cls(n, terms)


class CompiledPoly:
    """Real polynomials of one kind compiled for batch evaluation.

    ``E`` (terms x nvars) is the sorted union of the monomials of all the
    polynomials and ``C`` (terms x outputs) holds their coefficients, so a
    call maps points of shape (..., nvars) to values of shape (..., outputs).
    A call builds the variable-major power table (dmax + 1, nvars, points) by
    elementwise multiplies and gathers the monomial factors from it through
    the flat index ``_idx`` (nvars x terms), so no entry costs a ``pow``.
    """

    def __init__(self, polys: list):
        keys = sorted(set().union(*(p.terms for p in polys)))
        self.E = np.array(keys, dtype=np.int64).reshape(len(keys), polys[0].nvars)
        coeffs = [[_float_coeff(p.terms.get(k, 0)) for p in polys] for k in keys]
        self.C = np.array(coeffs, dtype=float).reshape(len(keys), len(polys))
        self._dmax = int(self.E.max(initial=0))
        self._idx = self.E.T * self.E.shape[1] + np.arange(self.E.shape[1])[:, None]

    def __call__(self, z: np.ndarray) -> np.ndarray:
        pts = z.reshape(-1, z.shape[-1]).T
        table = np.empty((self._dmax + 1,) + pts.shape, dtype=np.result_type(z, 1.0))
        table[0] = 1.0
        table[1:] = pts
        for j in range(2, self._dmax + 1):
            table[j] *= table[j - 1]
        flat = table.reshape(table.shape[0] * table.shape[1], pts.shape[1])
        monomials = np.multiply.reduce(flat.take(self._idx, axis=0), axis=0)
        return (self.C.T @ monomials).T.reshape(z.shape[:-1] + (self.C.shape[1],))


class CompiledField(CompiledPoly):
    """Hamiltonian vector field (dH/dp, -dH/dq) of H; ``A`` is its Jacobian at 0."""

    def __init__(self, H: Polynomial):
        grads = H.gradient()
        super().__init__(grads[H.n:] + [-g for g in grads[: H.n]])
        linear = self.E.sum(axis=1) == 1
        self.A = np.zeros((2 * H.n, 2 * H.n))
        self.A[:, np.argmax(self.E[linear], axis=1)] = self.C[linear].T


class ActionPolynomial(_SparsePoly):
    """Real polynomial in the n formal actions I_1..I_n."""

    __slots__ = ()
    _symbol = "I"

    def expand(self) -> Polynomial:
        """Re-expand in phase-space variables via I_i = (z_i^2 + z_{n+i}^2)/2."""
        n = self.n
        actions = [Polynomial.action_variable(n, i) for i in range(n)]
        out = Polynomial.zero(n)
        for k, c in self.terms.items():
            term = Polynomial.constant(n, c)
            for i, e in enumerate(k):
                for _ in range(e):
                    term = term * actions[i]
            out = out + term
        return out

    def to_json_dict(self) -> dict:
        terms = []
        for k in sorted(self.terms):
            c = self.terms[k]
            c = _exact_json(c, real=True)[0] if _is_exact(c) else float(c)
            terms.append({"k": list(k), "c": c})
        return {"n": self.n, "terms": terms}


def _real_exact(c):
    """An exact coefficient as a real one: an ExactComplex when it has an
    extension part, else the Fraction it equals.  Raise if it is not real."""
    if not isinstance(c, ExactComplex):
        return c
    if not c.imag_is_zero():
        raise NotActionRepresentable(f"non-real exact coefficient {c!r}")
    return ExactComplex(c.ar, 0, c.br, 0, c.field) if c.br else c.ar


# -- graded layout ---------------------------------------------------------------

# (kind, *args) -> the table that args give; built on first use, never at
# import, and kept
_TABLES: dict = {}


def _table(kind: str):
    """Keep the table build(*args) returns in _TABLES under (kind, *args)."""

    def wrap(build: Callable) -> Callable:
        @functools.wraps(build)
        def get(*args):
            tab = _TABLES.get((kind, *args))
            if tab is None:
                tab = _TABLES[(kind, *args)] = build(*args)
            return tab

        return get

    return wrap


class _Degree(NamedTuple):
    """Index tables of the monomials of one degree in V variables."""

    E: np.ndarray  # (N, V) exponent vectors, in lexicographic order
    up: np.ndarray  # (N, V) rank of E + e_v among the monomials of degree + 1
    paired: np.ndarray  # (N,) True where the w and wbar exponents agree


def _choose_up(r: np.ndarray, k: int) -> np.ndarray:
    """C(r + k, k), elementwise for an integer array r >= 0."""
    c = np.ones_like(r)
    for t in range(1, k + 1):
        c = c * (r + t) // t
    return c


def _rank(*parts: np.ndarray) -> np.ndarray:
    """Lexicographic rank, among the vectors of their one total degree D, of
    the exponent vectors (last axis) of the broadcast sum of ``parts``.

    In suffix sums s_k = e_k + ... + e_{V-1}, which add under sums, the rank is
    C(D+V-1, V-1) - 1 - sum_{k>=1} C(s_k+V-1-k, V-k): V-1 lookups in tables
    over s_k = 0..D, and the sum is never formed."""
    S = [np.cumsum(p[..., ::-1], axis=-1)[..., ::-1] for p in parts]
    V = S[0].shape[-1]
    D = sum(int(s[..., 0].max(initial=0)) for s in S)
    shape = np.broadcast_shapes(*(s.shape[:-1] for s in S))
    rank = np.full(shape, comb(D + V - 1, V - 1) - 1, dtype=np.intp)
    for k in range(1, V):
        rank -= _choose_up(np.arange(-1, D), V - k)[sum(s[..., k] for s in S)]
    return rank


@_table("degree")
def _degree(V: int, d: int) -> _Degree:
    step = np.eye(V, dtype=np.intp)
    if d == 0:
        E = np.zeros((1, V), dtype=np.intp)
    else:
        below = _degree(V, d - 1)
        E = np.empty((comb(d + V - 1, V - 1), V), dtype=np.intp)
        E[below.up] = below.E[:, None, :] + step
    n = V // 2
    return _Degree(E, _rank(E[:, None, :], step), (E[:, :n] == E[:, n:]).all(axis=1))


# -- chart change -----------------------------------------------------------------
#
# Realifying a homogeneous piece is an integer map followed by the phase i^P,
# P the total p-degree of the output slot; complexifying is the phase of the
# input slot, an integer map, and a factor 2^-d.

# a realified float coefficient no larger than this share of sum |c_r| |K_rs|
# over its inputs is rounding residue of an exact zero, and is dropped (exact
# zeros come out below 16 eps of that sum, nonzero terms above 1e6 eps)
_REALIFY_RESIDUE = 64 * np.finfo(float).eps


@_table("pair")
def _pair_matrices(s: int) -> np.ndarray:
    """The integer maps of one pair (x_j, x_{n+j}) at pair degree s, indexed
    [map, out, in] by the exponent of x_j, as Python ints.

    Map 0 realifies: w^k wbar^(s-k) -> sum_t K_t(k, s-k) q^(s-t) p^t, with
    K_t(k, l) = sum_a (-1)^a C(k, a) C(l, t-a).  Map 1 complexifies:
    q^a p^b -> (w + wbar)^a (w - wbar)^b, b = s - a; it is map 0 read
    backwards with a sign, M1[x, y] = (-1)^(s-y+x) M0[s-x, y].  Map 2 is |map 0|.
    """
    M = np.zeros((3, s + 1, s + 1), dtype=object)
    for x in range(s + 1):
        for y in range(s + 1):
            K = sum((-1) ** a * comb(y, a) * comb(s - y, x - a) for a in range(x + 1))
            M[0, s - x, y], M[1, x, y] = K, (-1) ** (s - y + x) * K
    M[2] = abs(M[0])
    return M


@_table("fibers")
def _pair_fibers(V: int, d: int, j: int) -> tuple:
    """The degree-d slots grouped for pair j: row r of the s-th array holds the
    ranks of the monomials that agree outside the pair, have pair degree s and
    x_j exponent 0..s.  Every slot appears once, so the table has N_d entries."""
    n = V // 2
    E = _degree(V, d).E
    s_all = E[:, j] + E[:, n + j]
    F = []
    for s in range(d + 1):
        # one representative per fiber: the member with all of s on x_j
        M = np.repeat(E[(s_all == s) & (E[:, n + j] == 0)][:, None, :], s + 1, axis=1)
        M[:, :, j] = np.arange(s + 1)
        M[:, :, n + j] = s - np.arange(s + 1)
        F.append(_rank(M))
    return tuple(F)


def _apply_pairs(X: np.ndarray, V: int, d: int, which: int) -> np.ndarray:
    """Apply map ``which`` of every pair to the rows of X, a degree-d piece
    with one row per slot (Python ints or floats)."""
    for j in range(V // 2):
        Y = np.empty_like(X)
        for s, F in enumerate(_pair_fibers(V, d, j)):
            if F.size:
                M = _pair_matrices(s)[which]
                Y[F] = (M if X.dtype == object else M.astype(float)) @ X[F]
        X = Y
    return X


def _rotate(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Multiply row r of X, whose columns pair real and imaginary parts, by i^P[r]."""
    k = (P % 4)[:, None]
    re, im = X[:, 0::2], X[:, 1::2]
    odd = k % 2 == 1
    re, im = np.where(odd, im, re), np.where(odd, re, im)
    out = np.empty_like(X)
    out[:, 0::2] = np.where((k == 1) | (k == 2), -re, re)
    out[:, 1::2] = np.where(k >= 2, -im, im)
    return out


def _numerators(cs, slots, size: int) -> tuple:
    """Exact coefficients as integer numerators (ar, ai, br, bi) over one
    common denominator, in the rows ``slots`` of a (size, 4) object array of
    zeros: (array, denominator, the field they share)."""
    cs = [c if isinstance(c, ExactComplex) else ExactComplex(c) for c in cs]
    X = np.zeros((size, 4), dtype=object)
    X[slots], den = _integers(cs)
    return X, den, functools.reduce(join_fields, (c.field for c in cs))


def _to_pieces(f: Polynomial, exact: bool) -> dict:
    """The homogeneous pieces of f by degree: complex128 slot arrays, or
    (X, den, field) integer-numerator triples in exact mode."""
    by_degree: dict = {}
    for k, c in f.terms.items():
        by_degree.setdefault(sum(k), {})[k] = c
    out = {}
    for d, terms in by_degree.items():
        slots = _rank(np.array(list(terms), dtype=np.intp))
        size = comb(d + f.nvars - 1, f.nvars - 1)
        if exact:
            out[d] = _numerators(terms.values(), slots, size)
        else:
            out[d] = np.zeros(size, dtype=complex)
            out[d][slots] = [complex(c) for c in terms.values()]
    return out


def _to_terms(pieces: dict, n: int, real: bool = False) -> dict:
    """The nonzero slots of pieces (degree -> piece, or None when empty) as
    one dict exponent -> coefficient.  Exact coefficients are ExactComplex,
    but with ``real`` one without an extension part is the Fraction it equals."""
    out = {}
    for d, p in pieces.items():
        if p is None:
            continue
        E = map(tuple, _degree(2 * n, d).E.tolist())
        if not isinstance(p, tuple):
            out.update((e, c) for e, c in zip(E, p.tolist()) if c)
            continue
        X, den, ext = p
        for e, row in zip(E, X.tolist()):
            if real and not row[2]:
                if row[0]:
                    out[e] = Fraction(row[0], den)
            elif any(row):
                out[e] = ExactComplex(*(Fraction(x, den) if x else 0 for x in row), field=ext)
    return out


def _values(p) -> list:
    """The coefficients of a piece as Python floats or complex numbers, each
    exact one as ExactComplex.to_complex gives it."""
    if not isinstance(p, tuple):
        return p.tolist()
    X, D, ext = p
    w = ext.omega
    return [complex(ar / D + br / D * w, ai / D + bi / D * w) for ar, ai, br, bi in X.tolist()]


def _change_piece(p, n: int, d: int, real: bool):
    """The chart change of one homogeneous piece of degree d, realified
    (real) or complexified: a piece of the same kind.

    A realified float piece keeps its imaginary parts for _realify to check;
    a realified exact piece with a nonzero imaginary numerator raises
    NotActionRepresentable.
    """
    V, which = 2 * n, 0 if real else 1
    P = _degree(V, d).E[:, n:].sum(axis=1)
    if isinstance(p, tuple):
        X, den, ext = p
    else:
        X = np.stack([p.real, p.imag], axis=1)
    if not real:
        X = _rotate(X, P)
    Y = _apply_pairs(X, V, d, which)
    if real:
        Y = _rotate(Y, P)
    if isinstance(p, tuple):
        if real and (Y[:, 1].any() or Y[:, 3].any()):
            raise NotActionRepresentable("realification produced a non-real exact coefficient")
        return Y, den if real else den << d, ext
    if real:
        # drop the rounding residue of exact zeros
        bound = _apply_pairs(np.hypot(X[:, :1], X[:, 1:]), V, d, 2)[:, 0]
        Y[np.abs(Y[:, 0]) <= _REALIFY_RESIDUE * bound, 0] = 0.0
    else:
        Y *= 0.5**d
    return Y[:, 0] + 1j * Y[:, 1]


def _realify(pieces: dict, n: int) -> dict:
    """The pieces (degree -> piece) realified.  A float piece comes back as
    its real parts; an imaginary part above 1e-10 max(1, max |c|) over all
    the pieces raises NotActionRepresentable."""
    out = {d: _change_piece(p, n, d, real=True) for d, p in pieces.items()}
    floats = [q for q in out.values() if not isinstance(q, tuple)]
    if not floats:
        return out
    h = np.concatenate(floats)
    bound = 1e-10 * max(1.0, max(map(abs, h.tolist()), default=0.0))
    big = np.flatnonzero(np.abs(h.imag) > bound)
    if big.size:
        raise NotActionRepresentable(f"realification produced imaginary part {h.imag[big[0]]:.3e}")
    return {d: q.real for d, q in out.items()}


def _change_chart(f: Polynomial, exact: bool, real: bool) -> dict:
    """The terms of f realified (real) or complexified, one piece at a time."""
    pieces = _to_pieces(f, exact)
    if real:
        pieces = _realify(pieces, f.n)
    else:
        pieces = {d: _change_piece(p, f.n, d, real=False) for d, p in pieces.items()}
    out = _to_terms(pieces, f.n, real)
    key = (0,) * f.nvars
    if exact and key in f.terms:
        # a constant meets no image, so it keeps its type
        out[key] = _real_exact(f.terms[key]) if real else f.terms[key]
    return out


def complexify_unnormalized(f: Polynomial, exact: bool = False) -> Polynomial:
    """Rewrite f in the unnormalized chart (w, wbar), w_j = z_j - i z_{n+j}.

    The result is a polynomial whose first n variables are w_1..w_n and last n
    are wbar_1..wbar_n, obtained by z_j = (w_j + wbar_j)/2 and
    z_{n+j} = (i/2) w_j - (i/2) wbar_j through the integer pair maps above.
    """
    return Polynomial(f.n, _change_chart(f, exact, real=False))


def realify_unnormalized(g: Polynomial, exact: bool = False) -> Polynomial:
    """Inverse of :func:`complexify_unnormalized`: w_j = z_j - i z_{n+j}.

    A real-valued g comes back with real coefficients; an imaginary part above
    1e-10 max(1, max |c|) (any, in exact mode) raises NotActionRepresentable.
    Float coefficients within rounding of an exact zero are dropped.
    """
    return Polynomial(g.n, _change_chart(g, exact, real=True))
