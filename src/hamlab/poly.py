"""Sparse multivariate polynomial arithmetic on phase space R^{2n}.

A polynomial is a dict mapping exponent tuples of length 2n to coefficients.
Variable layout: indices 0..n-1 are the configuration variables q_1..q_n and
indices n..2n-1 the momenta p_1..p_n.  Coefficients are duck-typed: float or
complex in the default floating mode, Fraction or :class:`ExactComplex` in
exact-rational mode.  Every operation is pure and returns a new polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import DimensionMismatch, NotActionRepresentable
from .exactnum import ExactComplex

# Floating coefficients smaller than this are dropped to avoid denormals.
# This is a storage guard, never a mathematical tolerance.
FLOAT_PRUNE = 1e-300

ExponentKey = tuple  # tuple of 2n non-negative ints


def _is_exact(c) -> bool:
    return isinstance(c, (int, Fraction, ExactComplex))


def _is_zero_coeff(c) -> bool:
    if isinstance(c, ExactComplex):
        return c.is_zero()
    if isinstance(c, (int, Fraction)):
        return c == 0
    return abs(c) < FLOAT_PRUNE


def _infer_field(coeffs: Iterable) -> str:
    for c in coeffs:
        if isinstance(c, (complex, ExactComplex)):
            return "complex"
    return "real"


class Polynomial:
    """Sparse polynomial in 2n real (or complex) phase-space variables."""

    __slots__ = ("n", "terms", "field")

    def __init__(self, n: int, terms: Mapping | None = None, field: str | None = None):
        if n < 1:
            raise ValueError("dimension n must be >= 1")
        self.n = n
        clean = {}
        if terms:
            for k, c in terms.items():
                k = tuple(int(e) for e in k)
                if len(k) != 2 * n:
                    raise DimensionMismatch(
                        f"exponent key of length {len(k)}, expected {2 * n}"
                    )
                if any(e < 0 for e in k):
                    raise ValueError("negative exponent")
                if not _is_zero_coeff(c):
                    clean[k] = c
        self.terms = clean
        self.field = field if field is not None else _infer_field(clean.values())

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, {})

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

    # -- structure ------------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(k) for k in self.terms), default=-1)

    def min_degree(self) -> int:
        return min((sum(k) for k in self.terms), default=-1)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def _check_dim(self, other: "Polynomial"):
        if self.n != other.n:
            raise DimensionMismatch(f"n={self.n} vs n={other.n}")

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Polynomial):
            self._check_dim(other)
            out = dict(self.terms)
            for k, c in other.terms.items():
                out[k] = out[k] + c if k in out else c
            return Polynomial(self.n, out)
        return self + Polynomial.constant(self.n, other)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.n, {k: -c for k, c in self.terms.items()}, self.field)

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            return self + (-other)
        return self + Polynomial.constant(self.n, -other)

    def __rsub__(self, other):
        return (-self) + other

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

    def partial(self, index: int) -> "Polynomial":
        """Partial derivative with respect to z_index."""
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
        return Polynomial(self.n, out)

    def map_coefficients(self, fn: Callable) -> "Polynomial":
        return Polynomial(self.n, {k: fn(c) for k, c in self.terms.items()})

    def to_float(self) -> "Polynomial":
        """Convert exact coefficients to float/complex."""

        def conv(c):
            if isinstance(c, ExactComplex):
                z = c.to_complex()
                return z.real if z.imag == 0.0 else z
            if isinstance(c, Fraction):
                return float(c)
            return c

        return self.map_coefficients(conv)

    # -- analysis -------------------------------------------------------------

    def evaluate(self, z):
        """Evaluate at a point of length 2n, with compensated accumulation."""
        if len(z) != 2 * self.n:
            raise DimensionMismatch(f"point of length {len(z)}, expected {2 * self.n}")
        vals = []
        for k, c in self.terms.items():
            v = c
            for zi, e in zip(z, k):
                for _ in range(e):
                    v = v * zi
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
        polydisc of radius r (hence on the Euclidean ball of radius r/sqrt(2n))."""
        if r <= 0:
            raise ValueError("radius must be positive")
        return math.fsum(abs(c) * r ** sum(k) for k, c in self.terms.items())

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
        return Polynomial(self.n, out, self.field)

    def truncate(self, d_min: int, d_max: int) -> "Polynomial":
        """Keep exactly the terms with d_min <= total degree <= d_max."""
        if not 0 <= d_min <= d_max:
            raise ValueError("require 0 <= d_min <= d_max")
        return Polynomial(
            self.n,
            {k: c for k, c in self.terms.items() if d_min <= sum(k) <= d_max},
            self.field,
        )

    def gradient(self) -> list:
        return [self.partial(i) for i in range(2 * self.n)]

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

    def __repr__(self):
        if not self.terms:
            return f"Polynomial(n={self.n}, 0)"
        parts = []
        for k in sorted(self.terms, key=lambda kk: (sum(kk), kk))[:8]:
            parts.append(f"{self.terms[k]}*z^{k}")
        more = "" if len(self.terms) <= 8 else f" (+{len(self.terms) - 8} terms)"
        return f"Polynomial(n={self.n}, {' + '.join(parts)}{more})"


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
    """Real polynomials in 2n variables compiled for batch evaluation.

    ``E`` (terms x 2n) is the sorted union of the monomials of all the
    polynomials and ``C`` (terms x outputs) holds their coefficients, so a
    call maps points of shape (..., 2n) to values of shape (..., outputs).
    """

    def __init__(self, polys: list):
        keys = sorted(set().union(*(p.terms for p in polys)))
        row = {k: i for i, k in enumerate(keys)}
        self.E = np.array(keys, dtype=np.int64).reshape(len(keys), 2 * polys[0].n)
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


class ActionPolynomial:
    """Real polynomial in the n formal actions I_1..I_n."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping | None = None):
        if n < 1:
            raise ValueError("dimension n must be >= 1")
        self.n = n
        clean = {}
        if terms:
            for k, c in terms.items():
                k = tuple(int(e) for e in k)
                if len(k) != n:
                    raise DimensionMismatch(
                        f"action exponent of length {len(k)}, expected {n}"
                    )
                if not _is_zero_coeff(c):
                    clean[k] = c
        self.terms = clean

    @classmethod
    def zero(cls, n: int) -> "ActionPolynomial":
        return cls(n, {})

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

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=-1)

    def __eq__(self, other):
        if not isinstance(other, ActionPolynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return ActionPolynomial(self.n, out)

    def __sub__(self, other):
        return self + ActionPolynomial(
            other.n, {k: -c for k, c in other.terms.items()}
        )

    def truncate(self, d_max: int) -> "ActionPolynomial":
        return ActionPolynomial(
            self.n, {k: c for k, c in self.terms.items() if sum(k) <= d_max}
        )

    def evaluate(self, I):
        if len(I) != self.n:
            raise DimensionMismatch(f"point of length {len(I)}, expected {self.n}")
        vals = []
        for k, c in self.terms.items():
            v = c
            for x, e in zip(I, k):
                for _ in range(e):
                    v = v * x
            vals.append(v)
        if not vals:
            return 0.0
        if all(isinstance(v, (int, float)) for v in vals):
            return math.fsum(vals)
        total = vals[0]
        for v in vals[1:]:
            total = total + v
        return total

    def partial(self, i: int) -> "ActionPolynomial":
        out = {}
        for k, c in self.terms.items():
            e = k[i]
            if e == 0:
                continue
            kk = list(k)
            kk[i] = e - 1
            kk = tuple(kk)
            c2 = c * e
            out[kk] = out[kk] + c2 if kk in out else c2
        return ActionPolynomial(self.n, out)

    def grad(self, I):
        return np.array([float(self.partial(i).evaluate(I)) for i in range(self.n)])

    def hess(self, I):
        H = np.empty((self.n, self.n))
        for i in range(self.n):
            gi = self.partial(i)
            for j in range(self.n):
                H[i, j] = float(gi.partial(j).evaluate(I))
        return H

    def majorant_norm(self, r: float) -> float:
        return math.fsum(abs(c) * r ** sum(k) for k, c in self.terms.items())

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

    def to_float(self) -> "ActionPolynomial":
        return ActionPolynomial(
            self.n,
            {k: float(c) if isinstance(c, Fraction) else c for k, c in self.terms.items()},
        )

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

    def __repr__(self):
        parts = [
            f"{self.terms[k]}*I^{k}"
            for k in sorted(self.terms, key=lambda kk: (sum(kk), kk))[:8]
        ]
        more = "" if len(self.terms) <= 8 else f" (+{len(self.terms) - 8} terms)"
        return f"ActionPolynomial(n={self.n}, {' + '.join(parts)}{more})"


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


def to_action_form(f: Polynomial, tol: float = 1e-9) -> ActionPolynomial:
    """Write f(z) as a polynomial in the formal actions, or raise.

    Works through the complex chart w_j = z_j - i z_{n+j}: a polynomial is a
    function of the actions iff every chart monomial has equal w and conjugate
    exponents, and then (w_j wbar_j)^k = (2 I_j)^k.
    """
    n = f.n
    exact = all(_is_exact(c) for c in f.terms.values())
    g = complexify_unnormalized(f, exact=exact)
    max_c = max((abs(c) for c in g.terms.values()), default=0.0)
    out = {}
    for k, c in g.terms.items():
        kw, kwb = k[:n], k[n:]
        if kw != kwb:
            if exact or abs(c) > tol * max(1.0, max_c):
                raise NotActionRepresentable(
                    f"monomial w^{kw} wbar^{kwb} is not action-paired"
                )
            continue
        if exact:
            factor = 2 ** sum(kw)
            cc = c * factor if isinstance(c, ExactComplex) else Fraction(c) * factor
            if isinstance(cc, ExactComplex):
                if not cc.imag_is_zero():
                    raise NotActionRepresentable("non-real action coefficient")
                cc = cc.real_exact()
                if cc.field.trivial:
                    cc = cc.ar
        else:
            cc = complex(c) * 2 ** sum(kw)
            if abs(cc.imag) > tol * max(1.0, max_c):
                raise NotActionRepresentable("non-real action coefficient")
            cc = cc.real
        out[kw] = out[kw] + cc if kw in out else cc
    return ActionPolynomial(n, out)


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
        if isinstance(c, ExactComplex):
            if not c.imag_is_zero():
                raise NotActionRepresentable("realification produced imaginary part")
            r = c.real_exact()
            out[k] = r.ar if r.field.trivial else r
        elif isinstance(c, complex):
            if abs(c.imag) > tol * max(1.0, max_c):
                raise NotActionRepresentable(
                    f"realification produced imaginary part {c.imag:.3e}"
                )
            out[k] = c.real
        else:
            out[k] = c
    return Polynomial(g.n, out, "real")
