"""Ring and field axioms for the exact complex quadratic-extension numbers."""

import functools
import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlab.exactnum import GOLDEN, RATIONAL, SQRT2, ExactComplex, QuadField, join_fields
from hamlab.poly import Polynomial

fracs = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=12),
)


def golden_numbers(draw_parts):
    ar, ai, br, bi = draw_parts
    return ExactComplex(ar, ai, br, bi, field=GOLDEN)


golden_elems = st.tuples(fracs, fracs, fracs, fracs).map(golden_numbers)

# w^2 = w/2 + 3/4, so L = 4 in the integer product rule: w = (1 + sqrt 13) / 4
HALF = QuadField(Fraction(1, 2), Fraction(3, 4), (1 + math.sqrt(13)) / 4)


def test_rational_basics():
    a = ExactComplex(Fraction(3, 4))
    b = ExactComplex(Fraction(-1, 3))
    assert (a + b).to_complex() == pytest.approx(3 / 4 - 1 / 3)
    assert (a * b).ar == Fraction(-1, 4)
    assert (a - a).is_zero()


def test_i_squares_to_minus_one():
    i = ExactComplex(0, 1)
    assert (i * i + 1).is_zero()
    assert (i * i + ExactComplex(1, field=GOLDEN)).is_zero()


def test_golden_ratio_identity():
    # omega^2 = omega + 1 in the golden field
    w = ExactComplex.omega(GOLDEN)
    assert (w * w - w - ExactComplex(1, field=GOLDEN)).is_zero()
    assert w.to_complex().real == pytest.approx((1 + 5**0.5) / 2)


def test_sqrt2_identity():
    w = ExactComplex.omega(SQRT2)
    assert (w * w - ExactComplex(2, field=SQRT2)).is_zero()


def test_division_rational():
    a = ExactComplex(Fraction(7, 3), Fraction(1, 2))
    q = a / a
    assert (q - 1).is_zero()


@given(golden_elems, golden_elems)
@settings(max_examples=40, deadline=None)
def test_commutativity(x, y):
    assert (x + y - (y + x)).is_zero()
    assert (x * y - y * x).is_zero()


@given(golden_elems, golden_elems, golden_elems)
@settings(max_examples=40, deadline=None)
def test_distributivity(x, y, z):
    assert (x * (y + z) - (x * y + x * z)).is_zero()


@given(golden_elems)
@settings(max_examples=40, deadline=None)
def test_division_inverts_multiplication(x):
    if x.is_zero():
        return
    y = ExactComplex(Fraction(2, 7), Fraction(-1, 3), Fraction(1, 5), field=GOLDEN)
    assert ((y * x) / x - y).is_zero()


@given(golden_elems)
@settings(max_examples=40, deadline=None)
def test_float_embedding_is_homomorphic(x):
    y = ExactComplex(Fraction(1, 3), Fraction(-2, 5), Fraction(1, 7), field=GOLDEN)
    assert (x * y).to_complex() == pytest.approx(x.to_complex() * y.to_complex(), abs=1e-9, rel=1e-9)


def test_real_and_imag_parts():
    x = ExactComplex(Fraction(1, 2), Fraction(3), Fraction(-1), Fraction(0), field=GOLDEN)
    assert not x.imag_is_zero()
    assert ExactComplex(x.ar, 0, x.br, 0, GOLDEN).imag_is_zero()
    assert x.to_complex().real == pytest.approx(0.5 - (1 + 5**0.5) / 2)
    assert x.to_complex().imag == 3.0


def test_field_mismatch_coercion():
    a = ExactComplex(Fraction(1, 2))  # rational field
    b = ExactComplex(Fraction(1, 3), field=GOLDEN)
    assert (a + b).to_complex().real == pytest.approx(1 / 2 + 1 / 3)
    assert (a - b).to_complex().real == pytest.approx(1 / 2 - 1 / 3)
    assert ((a / b) * b - a).is_zero()


def test_equal_values_hash_alike():
    half = Fraction(1, 2)
    assert len({ExactComplex(half), half, ExactComplex(half, field=GOLDEN)}) == 1
    assert hash(ExactComplex(3, field=SQRT2)) == hash(3)
    w = ExactComplex.omega(GOLDEN)
    assert w * w == w + 1 and hash(w * w) == hash(w + 1)
    # a golden element times its conjugate lies in Q
    assert ExactComplex(1, 0, 1, field=GOLDEN) * ExactComplex(2, 0, -1, field=GOLDEN) == 1
    p = Polynomial(1, {(1, 1): half})
    q = Polynomial(1, {(1, 1): ExactComplex(half, field=GOLDEN)})
    assert p == q and hash(p) == hash(q)
    # elements of two distinct extensions neither join nor compare, and they
    # hash apart, so one set can hold both
    assert len({w, ExactComplex.omega(SQRT2)}) == 2
    with pytest.raises(TypeError):
        w + ExactComplex.omega(SQRT2)
    with pytest.raises(TypeError):
        w == ExactComplex.omega(SQRT2)


def same(x, y):
    return (type(x), repr(x), getattr(x, "field", None)) == (type(y), repr(y), getattr(y, "field", None))


def test_results_do_not_depend_on_operand_order():
    one_g, w = ExactComplex(1, field=GOLDEN), ExactComplex.omega(GOLDEN)
    for x in (Fraction(1, 2), ExactComplex(Fraction(1, 2)), ExactComplex(0, 1)):
        for z in (one_g, w, w - w, one_g + w):
            assert same(x + z, z + x)
            assert same(x * z, z * x)
    # every order of a mixed sum: the extension parts cancel in the first
    # list, so its total is a RATIONAL-tagged ExactComplex, and not in the second
    for terms in (
        [Fraction(1, 2), ExactComplex(Fraction(1, 3)), one_g, w, -w],
        [Fraction(-1, 2), ExactComplex(0, 2), one_g, w, w * w],
    ):
        totals = [functools.reduce(operator.add, order) for order in itertools.permutations(terms)]
        assert all(same(t, totals[0]) for t in totals)
        assert type(totals[0]) is ExactComplex
        assert totals[0].field == (RATIONAL if totals[0].br == 0 else GOLDEN)
    assert totals[0].field == GOLDEN


def reference_product(x, y):
    """x * y for ExactComplex x and y by the 16 Fraction products that
    ExactComplex.__mul__ once spelled out, folded by w^2 = p w + q."""
    f = join_fields(x.field, y.field)
    a1r, a1i, b1r, b1i = x.ar, x.ai, x.br, x.bi
    a2r, a2i, b2r, b2i = y.ar, y.ai, y.br, y.bi
    aar, aai = a1r * a2r - a1i * a2i, a1r * a2i + a1i * a2r
    bbr, bbi = b1r * b2r - b1i * b2i, b1r * b2i + b1i * b2r
    abr = a1r * b2r - a1i * b2i + b1r * a2r - b1i * a2i
    abi = a1r * b2i + a1i * b2r + b1r * a2i + b1i * a2r
    return ExactComplex(aar + f.q * bbr, aai + f.q * bbi, abr + f.p * bbr, abi + f.p * bbi, f)


# a part is zero often enough that rational elements of an extension, pure
# extension parts and exact zeros all occur
parts = st.one_of(st.just(Fraction(0)), fracs)


@st.composite
def elements(draw, field):
    ar, ai, br, bi = (draw(parts) for _ in range(4))
    return ExactComplex(ar, ai, *(() if field.trivial else (br, bi)), field=field)


@pytest.mark.parametrize("field", [GOLDEN, SQRT2, RATIONAL, HALF], ids=["golden", "sqrt2", "rational", "half"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_product_matches_the_sixteen_product_formula(field, data):
    x = data.draw(elements(field))
    for y in (data.draw(elements(field)), data.draw(elements(RATIONAL)), x):
        want = reference_product(x, y)
        assert same(x * y, want) and same(y * x, want)
    # int and Fraction operands on either side
    for c in (data.draw(st.integers(-9, 9)), data.draw(fracs)):
        want = reference_product(x, ExactComplex(c))
        assert same(x * c, want) and same(c * x, want)


@pytest.mark.parametrize(
    "p, q, omega",
    [
        (1, 1, 1.5),  # not a root: (w * w) and w**2 read 2.5 and 2.25 as floats
        (0, 4, 2.0),  # reducible: w - 2 is a nonzero element that reads 0j
        (0, 2, 2 ** 0.5 + 1e-6),  # a root only to 1e-6
        (0, -1, 0.0),  # no real root
        (-2, -1, -1.0),  # a double root
        (0, 0, 1.0),  # Q itself with a nonzero omega
        (0.5, 0.75, (1 + math.sqrt(13)) / 4),  # float p and q, which the integer rule cannot read
    ],
)
def test_a_field_that_is_not_a_real_quadratic_field_is_refused(p, q, omega):
    with pytest.raises(ValueError, match="irreducible over Q"):
        QuadField(p, q, omega)


def test_real_quadratic_fields_are_accepted():
    for f in (GOLDEN, SQRT2, RATIONAL, HALF):
        assert QuadField(f.p, f.q, f.omega) == f
    # the other root, and int p and q
    assert QuadField(Fraction(1), Fraction(1), (1 - math.sqrt(5)) / 2).omega < 0
    assert QuadField(0, 2, -math.sqrt(2)).q == 2


def test_an_extension_part_without_a_quadratic_field_is_refused():
    # ExactComplex(0, 0, 1) was nonzero, read 0j and squared to zero
    refused = "needs a quadratic field, not RATIONAL"
    for parts in ((0, 0, 1), (1, 2, 0, Fraction(1, 3))):
        with pytest.raises(ValueError, match=refused):
            ExactComplex(*parts)
    with pytest.raises(ValueError, match=refused):
        ExactComplex.omega(RATIONAL)
    # a zero extension part is an element of Q(i) in any field
    assert ExactComplex(1, 2, 0, 0).field == ExactComplex(1, 2, 0, 0, field=GOLDEN).field == RATIONAL
