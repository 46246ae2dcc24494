"""Polynomial arithmetic, Poisson bracket algebra, and chart round trips."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlab.errors import DimensionMismatch, NotActionRepresentable
from hamlab.exactnum import GOLDEN, ExactComplex
from hamlab.poly import (
    ActionPolynomial,
    CompiledField,
    CompiledPoly,
    Polynomial,
    complexify_unnormalized,
    paired_part,
    poisson_bracket,
    realify_unnormalized,
    substitute_linear,
    to_action_form,
)


def rand_poly(n, rng, n_terms=4, deg_max=4, exact=False):
    terms = {}
    for _ in range(n_terms):
        d = int(rng.integers(0, deg_max + 1))
        k = [0] * (2 * n)
        for _ in range(d):
            k[int(rng.integers(0, 2 * n))] += 1
        c = int(rng.integers(-6, 7))
        if c == 0:
            continue
        terms[tuple(k)] = Fraction(c, 3) if exact else c / 3.0
    return Polynomial(n, terms)


# -- ring basics ---------------------------------------------------------------


def test_constructors_and_degree():
    p = Polynomial.variable(2, 0)
    assert p.degree() == 1
    q = Polynomial.action_variable(2, 1)
    assert q.degree() == 2
    assert Polynomial.zero(3).degree() == -1
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0, 0, 0): 1.0})
    with pytest.raises(DimensionMismatch):
        Polynomial(2, {(1, 0): 1.0})


def test_arithmetic_against_direct_evaluation():
    rng = np.random.default_rng(0)
    f = rand_poly(2, rng)
    g = rand_poly(2, rng)
    z = rng.uniform(-1, 1, size=4)
    assert (f + g).evaluate(z) == pytest.approx(f.evaluate(z) + g.evaluate(z))
    assert (f - g).evaluate(z) == pytest.approx(f.evaluate(z) - g.evaluate(z))
    assert (f * g).evaluate(z) == pytest.approx(f.evaluate(z) * g.evaluate(z))
    assert (f * 2.5).evaluate(z) == pytest.approx(2.5 * f.evaluate(z))
    assert (f**2).evaluate(z) == pytest.approx(f.evaluate(z) ** 2)


def test_partial_derivative_matches_finite_difference():
    rng = np.random.default_rng(1)
    f = rand_poly(2, rng, n_terms=6)
    z = rng.uniform(-0.5, 0.5, size=4)
    h = 1e-6
    for i in range(4):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        fd = (f.evaluate(zp) - f.evaluate(zm)) / (2 * h)
        assert f.partial(i).evaluate(z) == pytest.approx(fd, abs=1e-6)


def test_compiled_evaluators_match_evaluate():
    rng = np.random.default_rng(11)
    # the gradient components of q1^2 q2 + q1 q2^2 share the monomial q1 q2
    shared = Polynomial(2, {(2, 1, 0, 0): 1.0, (1, 2, 0, 0): 1.0})
    assert CompiledField(shared).E.shape == (3, 4)
    assert CompiledField(Polynomial.zero(2)).E.shape == (0, 4)
    Z = rng.uniform(-1.0, 1.0, size=(7, 4))
    for p in (Polynomial.zero(2), shared, rand_poly(2, rng, n_terms=8)):
        values = CompiledPoly([p])(Z)
        field = CompiledField(p)(Z)
        assert values.shape == (7, 1) and field.shape == (7, 4)
        for z, v, f in zip(Z, values, field):
            g = [float(q.evaluate(z)) for q in p.gradient()]
            assert v[0] == pytest.approx(float(p.evaluate(z)), abs=1e-13)
            assert f == pytest.approx(g[2:] + [-x for x in g[:2]], abs=1e-13)
            assert CompiledField(p)(z) == pytest.approx(f, abs=1e-13)


def test_majorant_norm_bounds_sup_on_polydisc():
    rng = np.random.default_rng(2)
    f = rand_poly(2, rng, n_terms=6)
    r = 0.8
    bound = f.majorant_norm(r)
    for _ in range(50):
        z = rng.uniform(-r, r, size=4)
        assert abs(f.evaluate(z)) <= bound + 1e-12


def test_scale_is_substitution():
    rng = np.random.default_rng(3)
    f = rand_poly(2, rng)
    rho = 0.3
    g = f.scale(rho, -2)
    z = rng.uniform(-1, 1, size=4)
    assert g.evaluate(z) == pytest.approx(rho**-2 * f.evaluate(rho * z))


def test_truncate_keeps_degree_window():
    rng = np.random.default_rng(4)
    f = rand_poly(2, rng, n_terms=10, deg_max=6)
    t = f.truncate(2, 4)
    assert all(2 <= sum(k) <= 4 for k in t.terms)


def test_json_round_trip_float_and_exact():
    f = Polynomial(2, {(1, 0, 2, 0): 0.25, (0, 1, 0, 1): -1.5})
    g = Polynomial.from_json_dict(f.to_json_dict())
    assert g == f
    e = Polynomial(1, {(3, 1): Fraction(2, 7), (0, 2): Fraction(-5)})
    e2 = Polynomial.from_json_dict(e.to_json_dict())
    assert e2.terms == e.terms


# -- Poisson bracket algebra (exact, randomized) -------------------------------


def test_bracket_canonical_pairs():
    n = 2
    q1 = Polynomial.variable(n, 0, Fraction(1))
    p1 = Polynomial.variable(n, 2, Fraction(1))
    p2 = Polynomial.variable(n, 3, Fraction(1))
    assert poisson_bracket(q1, p1) == Polynomial.constant(n, Fraction(1))
    assert poisson_bracket(q1, p2).is_zero()
    assert poisson_bracket(q1, q1).is_zero()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_bracket_antisymmetry_exact(seed):
    rng = np.random.default_rng(seed)
    f = rand_poly(2, rng, exact=True)
    g = rand_poly(2, rng, exact=True)
    assert (poisson_bracket(f, g) + poisson_bracket(g, f)).is_zero()


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_bracket_leibniz_exact(seed):
    rng = np.random.default_rng(seed)
    f = rand_poly(2, rng, exact=True, deg_max=3)
    g = rand_poly(2, rng, exact=True, deg_max=3)
    h = rand_poly(2, rng, exact=True, deg_max=3)
    lhs = poisson_bracket(f, g * h)
    rhs = poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
    assert (lhs - rhs).is_zero()


@pytest.mark.parametrize("seed", [8, 9, 10])
def test_bracket_jacobi_exact(seed):
    rng = np.random.default_rng(seed)
    f = rand_poly(2, rng, exact=True, deg_max=3, n_terms=3)
    g = rand_poly(2, rng, exact=True, deg_max=3, n_terms=3)
    h = rand_poly(2, rng, exact=True, deg_max=3, n_terms=3)
    total = (
        poisson_bracket(f, poisson_bracket(g, h))
        + poisson_bracket(g, poisson_bracket(h, f))
        + poisson_bracket(h, poisson_bracket(f, g))
    )
    assert total.is_zero()


# -- action polynomials --------------------------------------------------------


def test_action_polynomial_expand_and_evaluate():
    h = ActionPolynomial(2, {(2, 0): 1.5, (0, 1): -2.0})
    f = h.expand()
    rng = np.random.default_rng(6)
    for _ in range(10):
        z = rng.uniform(-1, 1, size=4)
        I = 0.5 * (z[:2] ** 2 + z[2:] ** 2)
        assert f.evaluate(z) == pytest.approx(h.evaluate(I))


def test_action_gradient_and_hessian():
    h = ActionPolynomial(2, {(2, 0): 1.0, (1, 1): 3.0})
    I = np.array([0.5, 2.0])
    assert h.grad(I) == pytest.approx([2 * 0.5 + 3 * 2.0, 3 * 0.5])
    assert h.hess(I) == pytest.approx(np.array([[2.0, 3.0], [3.0, 0.0]]))
    batch = np.array([[0.5, 2.0], [-1.0, 0.25], [0.0, 3.0]])
    grads, hessians = h.grad(batch), h.hess(batch)
    assert grads.shape == (3, 2) and hessians.shape == (3, 2, 2)
    for x, g, H in zip(batch, grads, hessians):
        assert np.array_equal(g, h.grad(x))
        assert np.array_equal(H, h.hess(x))


def test_paired_part_lenient_and_strict():
    # w1 wbar1 = 2 I_1 is paired; w1^2 is not
    g = Polynomial(1, {(1, 1): 0.5, (2, 0): 0.25 + 0.1j})
    assert paired_part(g, exact=False).terms == {(1,): 1.0}
    with pytest.raises(NotActionRepresentable):
        paired_part(g, exact=False, tol=1e-9)
    assert paired_part(Polynomial(1, {(1, 1): 0.5 + 1e-12j}), False, tol=1e-9).terms == {(1,): 1.0}
    e = Polynomial(1, {(1, 1): ExactComplex(Fraction(1, 2), Fraction(1, 3))})
    with pytest.raises(NotActionRepresentable):
        paired_part(e, exact=True)  # a non-real exact coefficient always raises


def test_to_action_form_round_trip():
    h = ActionPolynomial(2, {(1, 0): Fraction(2), (1, 1): Fraction(-3, 2)})
    f = h.expand(exact=True)
    back = to_action_form(f)
    assert back.terms == h.terms


def test_to_action_form_rejects_angle_dependence():
    f = Polynomial.variable(1, 0) ** 3  # q^3 depends on the angle
    with pytest.raises(NotActionRepresentable):
        to_action_form(f)


def test_action_linear_matches_frequencies():
    h = ActionPolynomial.linear((1.0, 0.5))
    assert h.evaluate([2.0, 4.0]) == pytest.approx(4.0)


# -- chart round trips ---------------------------------------------------------


@pytest.mark.parametrize("exact", [False, True])
def test_unnormalized_chart_round_trip(exact):
    rng = np.random.default_rng(7)
    f = rand_poly(2, rng, n_terms=6, exact=exact)
    g = complexify_unnormalized(f, exact=exact)
    back = realify_unnormalized(g, exact=exact)
    if exact:
        assert back.terms == f.terms
    else:
        diff = back - f
        assert all(abs(c) < 1e-12 for c in diff.terms.values())


def test_chart_action_image():
    # I_1 maps to w_1 wbar_1 / 2 in the unnormalized chart
    f = Polynomial.action_variable(2, 0, exact=True)
    g = complexify_unnormalized(f, exact=True)
    assert set(g.terms) == {(1, 0, 1, 0)}
    c = next(iter(g.terms.values()))
    assert c.to_complex() == pytest.approx(0.5)


def test_substitute_linear_identity():
    rng = np.random.default_rng(8)
    f = rand_poly(2, rng)
    images = [Polynomial.variable(2, i) for i in range(4)]
    assert substitute_linear(f, images) == f


def test_action_json_exact_coefficients():
    # a real coefficient from the trivial field serializes as a fraction
    h = ActionPolynomial(2, {(1, 0): ExactComplex(Fraction(3, 2)), (0, 2): Fraction(-1, 3)})
    assert h.to_json_dict()["terms"] == [
        {"k": [0, 2], "c": "-1/3"},
        {"k": [1, 0], "c": "3/2"},
    ]
    # a coefficient from a quadratic extension, or a non-real one, is refused
    for c in (ExactComplex.omega(GOLDEN), ExactComplex(1, field=GOLDEN), ExactComplex(0, 1)):
        with pytest.raises(ValueError):
            ActionPolynomial(1, {(1,): c}).to_json_dict()
