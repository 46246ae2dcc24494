"""Ring and field axioms for the exact complex quadratic-extension numbers."""

import functools
import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlab.exactnum import GOLDEN, RATIONAL, SQRT2, ExactComplex
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
