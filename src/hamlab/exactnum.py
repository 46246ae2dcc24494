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
denominator (_integers), and ExactComplex multiplies by the engine's integer
product rule (_qmul); they build ExactComplex values only for what they return.
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

    def __post_init__(self):
        # else exact products fail (float p, q) or disagree with float values
        rational = all(isinstance(x, (int, Fraction)) for x in (self.p, self.q))
        d, w = Fraction(self.p) ** 2 + 4 * Fraction(self.q), self.omega
        square = d >= 0 and all(math.isqrt(x) ** 2 == x for x in (d.numerator, d.denominator))
        root = abs(w * w - self.p * w - self.q) <= 1e-9 * (w * w + abs(self.p * w) + abs(self.q))
        if not (rational and root and (self.trivial or d > 0 and not square)):
            raise ValueError(
                "a QuadField needs int or Fraction p and q, and p = q = omega = 0 or x^2 = p x + q"
                " irreducible over Q (p^2 + 4q > 0 and not a rational square) with omega a root"
            )

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
        if (self.br or self.bi) and field.trivial:
            raise ValueError("a nonzero extension part (br, bi) needs a quadratic field, not RATIONAL")

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
        (x, y), den = _integers([self, o])
        den = den * den * _ring(f)[0]
        return ExactComplex(*(Fraction(v, den) for v in _qmul(x, y, f)), field=f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        # reduce to a complex-rational denominator via the Galois conjugate
        # w -> p - w of the quadratic generator
        f = o.field
        oc = ExactComplex(o.ar + f.p * o.br, o.ai + f.p * o.bi, -o.br, -o.bi, f)
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


def real_float(a, what: str = "frequency components") -> float:
    """The float value of ``what``, a plain number or an ExactComplex; a nonzero
    imaginary part (of an ExactComplex, exactly) or a non-finite value is refused."""
    exact = isinstance(a, ExactComplex)
    try:
        z = a.to_complex() if exact else complex(a)
    except OverflowError:  # an exact value beyond the float range
        z = complex(math.inf)
    if (a.ai or a.bi) if exact else z.imag != 0.0:
        raise ValueError(f"{what} must be real")
    if not math.isfinite(z.real):
        raise ValueError(f"{what} must be finite")
    return z.real


def _lift(x):
    """x as an ExactComplex, or None for a type that does not embed."""
    if isinstance(x, ExactComplex):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactComplex(x)
    return None


def _ring(field: QuadField) -> tuple:
    """(L, L p, L q) as ints, L the least common denominator of p and q in
    w^2 = p w + q."""
    L = math.lcm(field.p.denominator, field.q.denominator)
    return (L, *(x.numerator * (L // x.denominator) for x in (field.p, field.q)))


def _integers(cs) -> tuple:
    """The parts (ar, ai, br, bi) of each ExactComplex in cs as ints over one
    common denominator: (rows, den)."""
    parts = [(c.ar, c.ai, c.br, c.bi) for c in cs]
    den = math.lcm(*(x.denominator for p in parts for x in p))
    return [[x.numerator * (den // x.denominator) for x in p] for p in parts], den


def _qmul(x, y, field: QuadField) -> tuple:
    """The parts (ar, ai, br, bi) of the product of parts x and y, times L of
    _ring so integer parts stay integers; a part is a number or a row array."""
    L, P, Q = _ring(field)
    ar, ai, br, bi = x
    cr, ci, dr, di = y
    # (a + b w)(c + d w) = (ac + q bd) + (ad + bc + p bd) w, all parts complex
    bdr, bdi = br * dr - bi * di, br * di + bi * dr
    return (
        L * (ar * cr - ai * ci) + Q * bdr,
        L * (ar * ci + ai * cr) + Q * bdi,
        L * (ar * dr - ai * di + br * cr - bi * ci) + P * bdr,
        L * (ar * di + ai * dr + br * ci + bi * cr) + P * bdi,
    )


def join_fields(f: QuadField, g: QuadField) -> QuadField:
    """The field of a result from elements of f and g: RATIONAL joins any
    field, and two distinct extensions raise TypeError."""
    if f == g or g.trivial:
        return f
    if f.trivial:
        return g
    raise TypeError("cannot mix two distinct quadratic extensions")

