"""Exact scalar arithmetic for the rational mode of the normal-form engine.

Scalars live in Q(i)(w) where w is a root of the quadratic x^2 = p*x + q with
rational p, q.  With p = q = 0 this is just the complex rationals Q(i); with
p = q = 1 the generator is the golden ratio, with p = 0, q = 2 it is sqrt(2).
This is exactly the ground field needed to run Birkhoff normalization exactly
for frequency vectors such as (1,) or (1, golden): all homological divisors
stay inside the field, so no rounding ever occurs.

The field tag of an element is a function of its value: the extension field
exactly when the extension part (br, bi) is nonzero, RATIONAL otherwise.  So
a result has the same value, type and tag in any order of its operands, and
equal elements hash alike, an element of Q like the Fraction it equals.

ExactComplex is the coefficient type at the API boundary.  The normal-form
engine and the chart change compute on integer numerators over one
denominator instead, and build ExactComplex values only for what they return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class QuadField:
    """Quadratic extension Q(w) with w^2 = p*w + q; ``omega`` is the float value of w."""

    p: Fraction
    q: Fraction
    omega: float

    @property
    def trivial(self) -> bool:
        return self.p == 0 and self.q == 0


RATIONAL = QuadField(Fraction(0), Fraction(0), 0.0)
GOLDEN = QuadField(Fraction(1), Fraction(1), (1.0 + math.sqrt(5.0)) / 2.0)
SQRT2 = QuadField(Fraction(0), Fraction(2), math.sqrt(2.0))


class ExactComplex:
    """Element (ar + i*ai) + (br + i*bi) * w of Q(i)(w), with Fraction parts."""

    __slots__ = ("ar", "ai", "br", "bi", "field")

    def __init__(self, ar=0, ai=0, br=0, bi=0, field: QuadField = RATIONAL):
        self.ar = Fraction(ar)
        self.ai = Fraction(ai)
        self.br = Fraction(br)
        self.bi = Fraction(bi)
        self.field = field if self.br or self.bi else RATIONAL

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def omega(field: QuadField) -> "ExactComplex":
        return ExactComplex(0, 0, 1, 0, field=field)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        f = join_fields(self.field, o.field)
        return ExactComplex(self.ar + o.ar, self.ai + o.ai, self.br + o.br, self.bi + o.bi, f)

    __radd__ = __add__

    def __neg__(self):
        return ExactComplex(-self.ar, -self.ai, -self.br, -self.bi, self.field)

    def __sub__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        f = join_fields(self.field, o.field)
        # complex products of the (a, b) parts
        a1r, a1i, b1r, b1i = self.ar, self.ai, self.br, self.bi
        a2r, a2i, b2r, b2i = o.ar, o.ai, o.br, o.bi
        # a1*a2
        aar = a1r * a2r - a1i * a2i
        aai = a1r * a2i + a1i * a2r
        # b1*b2
        bbr = b1r * b2r - b1i * b2i
        bbi = b1r * b2i + b1i * b2r
        # a1*b2 + b1*a2
        abr = a1r * b2r - a1i * b2i + b1r * a2r - b1i * a2i
        abi = a1r * b2i + a1i * b2r + b1r * a2i + b1i * a2r
        return ExactComplex(
            aar + f.q * bbr,
            aai + f.q * bbi,
            abr + f.p * bbr,
            abi + f.p * bbi,
            f,
        )

    __rmul__ = __mul__

    def _conj_omega(self) -> "ExactComplex":
        # w -> p - w, the Galois conjugate of the quadratic generator
        f = self.field
        return ExactComplex(
            self.ar + f.p * self.br,
            self.ai + f.p * self.bi,
            -self.br,
            -self.bi,
            f,
        )

    def __truediv__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        # reduce to a complex-rational denominator via the Galois conjugate
        oc = o._conj_omega()
        num = self * oc
        den = o * oc  # br == bi == 0 by construction
        dr, di = den.ar, den.ai
        n2 = dr * dr + di * di
        if n2 == 0:
            raise ZeroDivisionError("division by exact zero")
        return ExactComplex(
            (num.ar * dr + num.ai * di) / n2,
            (num.ai * dr - num.ar * di) / n2,
            (num.br * dr + num.bi * di) / n2,
            (num.bi * dr - num.br * di) / n2,
            num.field,
        )

    def __rtruediv__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.ar == 0 and self.ai == 0 and self.br == 0 and self.bi == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        join_fields(self.field, o.field)  # elements of two distinct extensions do not compare
        return (
            self.field == o.field
            and self.ar == o.ar
            and self.ai == o.ai
            and self.br == o.br
            and self.bi == o.bi
        )

    def __hash__(self):
        if not (self.ai or self.br or self.bi):
            return hash(self.ar)
        return hash((self.ar, self.ai, self.br, self.bi, self.field))

    def imag_is_zero(self) -> bool:
        return self.ai == 0 and self.bi == 0

    def to_complex(self) -> complex:
        w = self.field.omega
        return complex(
            float(self.ar) + float(self.br) * w, float(self.ai) + float(self.bi) * w
        )

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __repr__(self):
        return f"ExactComplex({self.ar}, {self.ai}, {self.br}, {self.bi})"


def real_float(a) -> float:
    """The float value of a frequency component, a plain number or an
    ExactComplex; a nonzero imaginary part or a non-finite value is refused."""
    z = a.to_complex() if isinstance(a, ExactComplex) else complex(a)
    if z.imag != 0.0:
        raise ValueError("frequency components must be real")
    if not math.isfinite(z.real):
        raise ValueError("frequency components must be finite")
    return z.real


def _lift(x):
    """x as an ExactComplex, or None for a type that does not embed."""
    if isinstance(x, ExactComplex):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactComplex(x)
    return None


def join_fields(f: QuadField, g: QuadField) -> QuadField:
    """The field of a result from elements of f and g: RATIONAL joins any
    field, and two distinct extensions raise TypeError."""
    if f == g or g.trivial:
        return f
    if f.trivial:
        return g
    raise TypeError("cannot mix two distinct quadratic extensions")

