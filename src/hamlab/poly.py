"""Sparse multivariate polynomials on phase space and on the action space.

A polynomial is a dict mapping exponent tuples to coefficients.  Two kinds
share one sparse core and differ only in their variable count ``nvars``:

* :class:`Polynomial` has 2n variables.  On phase space R^{2n}, indices
  0..n-1 are the configuration variables q_1..q_n and indices n..2n-1 the
  momenta p_1..p_n; in the complex chart they are w_1..w_n and wbar_1..wbar_n.
* :class:`ActionPolynomial` has n variables, the formal actions I_1..I_n.

Coefficients are duck-typed: float or complex in the default floating mode,
Fraction or :class:`ExactComplex` in exact-rational mode.  Every operation is
pure and returns a new polynomial.  :func:`paired_part` is the one reader of
the action part of a chart polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from .errors import DimensionMismatch, NotActionRepresentable
from .exactnum import ExactComplex

# Floating coefficients smaller than this are dropped to avoid denormals.
# This is a storage guard, never a mathematical tolerance.
FLOAT_PRUNE = 1e-300


def _is_exact(c) -> bool:
    return isinstance(c, (int, Fraction, ExactComplex))


def is_zero_coeff(c) -> bool:
    """The zero rule of every polynomial: exact zero, or a float below FLOAT_PRUNE."""
    if isinstance(c, ExactComplex):
        return c.is_zero()
    if isinstance(c, (int, Fraction)):
        return c == 0
    return abs(c) < FLOAT_PRUNE


def _float_coeff(c):
    if isinstance(c, ExactComplex):
        z = c.to_complex()
        return z.real if z.imag == 0.0 else z
    if isinstance(c, (int, Fraction)):
        return float(c)
    return c


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
                if not is_zero_coeff(c):
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
            other = self._new({(0,) * self.nvars: other})
        self._check_dim(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

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

    def map_coefficients(self, fn: Callable):
        return self._new({k: fn(c) for k, c in self.terms.items()})

    def to_float(self):
        """Convert exact coefficients to float, or to complex where non-real."""
        return self.map_coefficients(_float_coeff)

    def truncate(self, d_min: int, d_max: int):
        """Keep exactly the terms with d_min <= total degree <= d_max."""
        if not 0 <= d_min <= d_max:
            raise ValueError("require 0 <= d_min <= d_max")
        return self._new({k: c for k, c in self.terms.items() if d_min <= sum(k) <= d_max})

    # -- analysis -------------------------------------------------------------

    def evaluate(self, x):
        """Evaluate at a point of length nvars, with compensated accumulation."""
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
        if all(isinstance(v, (int, float, complex)) for v in vals):
            return complex(
                math.fsum(v.real if isinstance(v, complex) else v for v in vals),
                math.fsum(v.imag if isinstance(v, complex) else 0.0 for v in vals),
            )
        total = vals[0]
        for v in vals[1:]:
            total = total + v
        return total

    def majorant_norm(self, r: float) -> float:
        """Sum of |coeff| * r^degree; an upper bound for the sup norm on the
        polydisc of radius r."""
        if r <= 0:
            raise ValueError("radius must be positive")
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
    def variable(cls, n: int, index: int, coeff=1.0) -> "Polynomial":
        """The monomial z_index (0-based: q_1..q_n then p_1..p_n)."""
        if not 0 <= index < 2 * n:
            raise ValueError(f"variable index {index} out of range for n={n}")
        key = [0] * (2 * n)
        key[index] = 1
        return cls(n, {tuple(key): coeff})

    @classmethod
    def monomial(cls, n: int, exponents, coeff) -> "Polynomial":
        return cls(n, {tuple(exponents): coeff})

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

    def __pow__(self, m: int):
        if m < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.n, 1 if _is_exact(next(iter(self.terms.values()), 1)) else 1.0)
        for _ in range(m):
            out = out * self
        return out

    def scale(self, rho: float, power: int) -> "Polynomial":
        """The scaled Hamiltonian rho^power * H(rho z)."""
        if rho <= 0:
            raise ValueError("rho must be positive")
        exact = all(_is_exact(c) for c in self.terms.values()) and isinstance(
            rho, (int, Fraction)
        )
        out = {}
        for k, c in self.terms.items():
            e = sum(k) + power
            if exact:
                fac = Fraction(rho) ** e
            else:
                fac = float(rho) ** e
            out[k] = c * fac
        return Polynomial(self.n, out)

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = []
        for k in sorted(self.terms):
            c = self.terms[k]
            if isinstance(c, ExactComplex):
                if not c.field.trivial:
                    raise ValueError(
                        "cannot serialize coefficients from a quadratic extension"
                    )
                re = f"{c.ar.numerator}/{c.ar.denominator}"
                im = f"{c.ai.numerator}/{c.ai.denominator}"
            elif isinstance(c, (int, Fraction)):
                f = Fraction(c)
                re = f"{f.numerator}/{f.denominator}"
                im = "0/1"
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
            re, im = t["re"], t.get("im", 0.0)
            if isinstance(re, str):
                fre, fim = Fraction(re), Fraction(im if isinstance(im, str) else 0)
                c = fre if fim == 0 else ExactComplex(fre, fim)
            else:
                c = float(re) if float(im) == 0.0 else complex(re, im)
            terms[k] = terms[k] + c if k in terms else c
        return cls(n, terms)


def poisson_bracket(f: Polynomial, g: Polynomial) -> Polynomial:
    """Canonical Poisson bracket with the convention {q_i, p_i} = +1:

    {f, g} = sum_i (df/dq_i dg/dp_i - df/dp_i dg/dq_i).
    """
    f._check_dim(g)
    n = f.n
    out = Polynomial.zero(n)
    for i in range(n):
        fq, fp = f.partial(i), f.partial(n + i)
        gq, gp = g.partial(i), g.partial(n + i)
        out = out + fq * gp - fp * gq
    return out


class CompiledPoly:
    """Real polynomials of one kind compiled for batch evaluation.

    ``E`` (terms x nvars) is the sorted union of the monomials of all the
    polynomials and ``C`` (terms x outputs) holds their coefficients, so a
    call maps points of shape (..., nvars) to values of shape (..., outputs).
    """

    def __init__(self, polys: list):
        keys = sorted(set().union(*(p.terms for p in polys)))
        row = {k: i for i, k in enumerate(keys)}
        self.E = np.array(keys, dtype=np.int64).reshape(len(keys), polys[0].nvars)
        self.C = np.zeros((len(keys), len(polys)))
        for j, p in enumerate(polys):
            for k, c in p.terms.items():
                self.C[row[k], j] = float(c)

    def __call__(self, z: np.ndarray) -> np.ndarray:
        return np.prod(z[..., None, :] ** self.E, axis=-1) @ self.C


class CompiledField(CompiledPoly):
    """Hamiltonian vector field (dH/dp, -dH/dq) of a real polynomial H."""

    def __init__(self, H: Polynomial):
        grads = H.gradient()
        super().__init__(grads[H.n:] + [-g for g in grads[: H.n]])


class ActionPolynomial(_SparsePoly):
    """Real polynomial in the n formal actions I_1..I_n."""

    __slots__ = ()
    _symbol = "I"

    @classmethod
    def linear(cls, alpha) -> "ActionPolynomial":
        """alpha . I for a frequency vector alpha."""
        n = len(alpha)
        terms = {}
        for i, a in enumerate(alpha):
            k = [0] * n
            k[i] = 1
            terms[tuple(k)] = a
        return cls(n, terms)

    def _compiled_at(self, polys: list, I) -> np.ndarray:
        I = np.asarray(I, dtype=float)
        if I.shape[-1:] != (self.n,):
            raise DimensionMismatch(f"points of shape {I.shape}, expected (..., {self.n})")
        return CompiledPoly(polys)(I)

    def grad(self, I) -> np.ndarray:
        """Gradient at a point (n,) or at a batch of points (..., n)."""
        return self._compiled_at(self.gradient(), I)

    def hess(self, I) -> np.ndarray:
        """Hessian at a point, (n, n), or at a batch of points, (..., n, n)."""
        second = [g.partial(j) for g in self.gradient() for j in range(self.n)]
        H = self._compiled_at(second, I)
        return H.reshape(H.shape[:-1] + (self.n, self.n))

    def expand(self, exact: bool = False) -> Polynomial:
        """Re-expand in phase-space variables via I_i = (z_i^2 + z_{n+i}^2)/2."""
        n = self.n
        actions = [Polynomial.action_variable(n, i, exact=exact) for i in range(n)]
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
            if isinstance(c, (int, Fraction)):
                f = Fraction(c)
                terms.append({"k": list(k), "c": f"{f.numerator}/{f.denominator}"})
            else:
                terms.append({"k": list(k), "c": float(c)})
        return {"n": self.n, "terms": terms}


def substitute_linear(f: Polynomial, images: list) -> Polynomial:
    """Substitute z_i -> images[i]; images are polynomials sharing one dimension."""
    if len(images) != 2 * f.n:
        raise DimensionMismatch("need one image per variable")
    m = images[0].n
    # cache powers of each image to avoid recomputation across monomials
    pow_cache: dict = {}

    def image_power(i, e):
        key = (i, e)
        if key not in pow_cache:
            if e == 0:
                pow_cache[key] = None
            elif e == 1:
                pow_cache[key] = images[i]
            else:
                pow_cache[key] = image_power(i, e - 1) * images[i]
        return pow_cache[key]

    out = Polynomial.zero(m)
    for k, c in f.terms.items():
        term = Polynomial.constant(m, c)
        for i, e in enumerate(k):
            if e:
                term = term * image_power(i, e)
        out = out + term
    return out


def _real_exact(c):
    """The real part of an exact coefficient, a Fraction when it lies in Q(i);
    raise if the coefficient is not real."""
    if not isinstance(c, ExactComplex):
        return c
    if not c.imag_is_zero():
        raise NotActionRepresentable(f"non-real exact coefficient {c!r}")
    r = c.real_exact()
    return r.ar if r.field.trivial else r


def paired_part(g: Polynomial, exact: bool, tol: float | None = None) -> ActionPolynomial:
    """The action polynomial read off the paired chart monomials of g.

    In the unnormalized chart w_j wbar_j = 2 I_j, so a paired monomial
    w^k wbar^k contributes c (2I)^k.  With ``tol`` unset, unpaired monomials
    are skipped and float coefficients give their real part.  With ``tol``
    set the reading is strict: an unpaired monomial (any, in exact mode) or an
    imaginary part above tol * max(1, max |c|) raises NotActionRepresentable.
    A non-real exact coefficient always raises.
    """
    n = g.n
    bound = None
    if tol is not None and not exact:
        bound = tol * max(1.0, max((abs(c) for c in g.terms.values()), default=0.0))
    out = {}
    for k, c in g.terms.items():
        kw = k[:n]
        if kw != k[n:]:
            if tol is not None and (exact or abs(c) > bound):
                raise NotActionRepresentable(
                    f"monomial w^{kw} wbar^{k[n:]} is not action-paired"
                )
            continue
        factor = 2 ** sum(kw)
        if exact:
            cc = _real_exact(c * factor if isinstance(c, ExactComplex) else Fraction(c) * factor)
        else:
            cc = complex(c) * factor
            if bound is not None and abs(cc.imag) > bound:
                raise NotActionRepresentable("non-real action coefficient")
            cc = cc.real
        out[kw] = out[kw] + cc if kw in out else cc
    return ActionPolynomial(n, out)


def to_action_form(f: Polynomial, tol: float = 1e-9) -> ActionPolynomial:
    """Write f(z) as a polynomial in the formal actions, or raise.

    Works through the complex chart w_j = z_j - i z_{n+j}: a polynomial is a
    function of the actions iff every chart monomial has equal w and conjugate
    exponents, and then (w_j wbar_j)^k = (2 I_j)^k.
    """
    exact = all(_is_exact(c) for c in f.terms.values())
    return paired_part(complexify_unnormalized(f, exact=exact), exact, tol)


def complexify_unnormalized(f: Polynomial, exact: bool = False) -> Polynomial:
    """Rewrite f in the unnormalized chart (w, wbar), w_j = z_j - i z_{n+j}.

    The result is a polynomial whose first n variables are w_1..w_n and last n
    are wbar_1..wbar_n.  Inverse substitution: z_j = (w_j + wbar_j)/2 and
    z_{n+j} = (i/2) w_j - (i/2) wbar_j.
    """
    n = f.n
    if exact:
        half = ExactComplex(Fraction(1, 2))
        ihalf = ExactComplex(0, Fraction(1, 2))
    else:
        half = 0.5
        ihalf = 0.5j
    images = []
    for j in range(n):  # q_j
        kw = [0] * (2 * n)
        kw[j] = 1
        kwb = [0] * (2 * n)
        kwb[n + j] = 1
        images.append(Polynomial(n, {tuple(kw): half, tuple(kwb): half}))
    for j in range(n):  # p_j
        kw = [0] * (2 * n)
        kw[j] = 1
        kwb = [0] * (2 * n)
        kwb[n + j] = 1
        images.append(Polynomial(n, {tuple(kw): ihalf, tuple(kwb): -ihalf}))
    return substitute_linear(f, images)


def realify_unnormalized(g: Polynomial, exact: bool = False, tol: float = 1e-10) -> Polynomial:
    """Inverse of :func:`complexify_unnormalized`: substitute w_j = z_j - i z_{n+j}."""
    n = g.n
    one = ExactComplex(1) if exact else 1.0
    ii = ExactComplex(0, 1) if exact else 1j
    images = []
    for j in range(n):  # w_j = q_j - i p_j
        kq = [0] * (2 * n)
        kq[j] = 1
        kp = [0] * (2 * n)
        kp[n + j] = 1
        images.append(Polynomial(n, {tuple(kq): one, tuple(kp): -ii}))
    for j in range(n):  # wbar_j = q_j + i p_j
        kq = [0] * (2 * n)
        kq[j] = 1
        kp = [0] * (2 * n)
        kp[n + j] = 1
        images.append(Polynomial(n, {tuple(kq): one, tuple(kp): ii}))
    h = substitute_linear(g, images)
    # a real-valued polynomial comes back with (numerically) real coefficients
    out = {}
    max_c = max((abs(c) for c in h.terms.values()), default=0.0)
    for k, c in h.terms.items():
        if isinstance(c, complex):
            if abs(c.imag) > tol * max(1.0, max_c):
                raise NotActionRepresentable(
                    f"realification produced imaginary part {c.imag:.3e}"
                )
            c = c.real
        out[k] = _real_exact(c)
    return Polynomial(g.n, out)
