"""Polynomial arithmetic, Poisson bracket algebra, and chart round trips."""

import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlab.errors import DimensionMismatch, NotActionRepresentable
from hamlab.exactnum import GOLDEN, RATIONAL, SQRT2, ExactComplex
from hamlab.poly import (
    ActionPolynomial,
    CompiledField,
    CompiledPoly,
    Polynomial,
    _pair_matrices,
    complexify_unnormalized,
    realify_unnormalized,
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


def variable(n, index, coeff=1.0):
    """The monomial z_index (0-based: q_1..q_n then p_1..p_n)."""
    return Polynomial(n, {tuple(int(i == index) for i in range(2 * n)): coeff})


# -- ring basics ---------------------------------------------------------------


def test_constructors_and_degree():
    p = Polynomial(2, {(1, 0, 0, 0): 1.0})
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
    assert (f * f).evaluate(z) == pytest.approx(f.evaluate(z) ** 2)


@pytest.mark.parametrize("kind", ["phase", "action"])
def test_sums_take_polynomials_and_no_scalar(kind):
    if kind == "phase":
        p, q = Polynomial(1, {(1, 0): 2.0, (0, 0): 1.0}), Polynomial(1, {(0, 1): 3.0})
    else:
        p, q = ActionPolynomial(2, {(1, 0): 2.0, (0, 0): 1.0}), ActionPolynomial(2, {(0, 1): 3.0})
    for op in (lambda: p + 1, lambda: 1 + p, lambda: p - 1, lambda: 1 - p, lambda: p + 0.5, lambda: Fraction(1) - p):
        with pytest.raises(TypeError):
            op()
    assert (p + q).terms == {**p.terms, **q.terms}
    assert (p - q).terms == {**p.terms, **{k: -c for k, c in q.terms.items()}}
    assert (-p).terms == {k: -c for k, c in p.terms.items()}
    if kind == "phase":
        assert (2 * p).terms == (p * 2).terms == {(1, 0): 4.0, (0, 0): 2.0}
        assert (p + Polynomial.constant(1, 1.0)).terms == {(1, 0): 2.0, (0, 0): 2.0}


def test_complex_coefficients_evaluate_to_the_term_sum():
    rng = np.random.default_rng(11)
    keys = {tuple(int(e) for e in rng.integers(0, 4, size=4)) for _ in range(12)}
    f = Polynomial(2, {k: complex(*rng.uniform(-1, 1, size=2)) for k in keys})
    for _ in range(5):
        z = rng.uniform(-1, 1, size=4)
        want = sum(c * np.prod(z ** np.array(k)) for k, c in f.terms.items())
        got = f.evaluate(z)
        assert isinstance(got, complex)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_power_table_evaluator_matches_pow_reference(n):
    rng = np.random.default_rng(40 + n)
    polys = [rand_poly(n, rng, n_terms=12, deg_max=8) for _ in range(3)]
    polys.append(Polynomial(n, {(0,) * (2 * n): 1.5, (8,) + (0,) * (2 * n - 1): -0.5}))
    compiled = CompiledPoly(polys)
    assert compiled.E.shape[0] > 10
    empty = CompiledPoly([Polynomial.zero(n)])
    for shape in [(), (7,), (2, 3)]:
        z = rng.uniform(-1.5, 1.5, size=shape + (2 * n,))
        # the evaluator before the power table: one pow per entry
        powers = z[..., None, :] ** compiled.E
        reference = np.prod(powers, axis=-1) @ compiled.C
        scale = np.prod(np.abs(powers), axis=-1) @ np.abs(compiled.C)
        got = compiled(z)
        assert got.shape == shape + (len(polys),)
        assert np.all(np.abs(got - reference) <= 1e-13 * scale)
        assert empty(z).shape == shape + (1,)
        assert not np.any(empty(z))


def cumprod_evaluator(compiled, z):
    """The evaluator before the variable-major table: powers along a short
    last axis by cumprod, one gather per point, a product over that axis."""
    dmax = int(compiled.E.max(initial=0))
    idx = np.arange(compiled.E.shape[1]) * (dmax + 1) + compiled.E
    powers = np.ones(z.shape + (dmax + 1,), dtype=np.result_type(z, 1.0))
    powers[..., 1:] = z[..., None]
    powers.cumprod(axis=-1, out=powers)
    width = z.shape[-1] * (dmax + 1)
    factors = powers.reshape(z.shape[:-1] + (width,))[..., idx]
    return factors.prod(axis=-1) @ compiled.C


@pytest.mark.parametrize("n", [1, 2, 3])
def test_variable_major_evaluator_matches_cumprod_reference(n):
    rng = np.random.default_rng(60 + n)
    polys = [rand_poly(n, rng, n_terms=12, deg_max=8) for _ in range(3)]
    constant = CompiledPoly([Polynomial.constant(n, 2.5), Polynomial.zero(n)])
    assert not constant.E.any()
    cases = [CompiledPoly(polys), CompiledField(polys[0]), CompiledPoly([Polynomial.zero(n)]), constant]
    for compiled in cases:
        for shape in [(), (7,), (2, 3), (5, 2, 4), (0,), (3, 0)]:
            x = rng.uniform(-1.5, 1.5, size=shape + (2 * n,))
            for z in (x, x * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=x.shape))):
                got, reference = compiled(z), cumprod_evaluator(compiled, z)
                assert got.shape == reference.shape == shape + (compiled.C.shape[1],)
                assert got.dtype == reference.dtype == z.dtype
                scale = np.prod(np.abs(z[..., None, :]) ** compiled.E, axis=-1) @ np.abs(compiled.C)
                assert np.all(np.abs(got - reference) <= 1e-15 * scale)
    assert np.all(constant(x) == [2.5, 0.0])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compiled_field_linear_part_is_the_jacobian_at_the_origin(n):
    rng = np.random.default_rng(50 + n)
    quadratic = {}
    for i in range(2 * n):
        for j in range(i, 2 * n):
            k = [0] * (2 * n)
            k[i] += 1
            k[j] += 1
            quadratic[tuple(k)] = float(rng.normal())
    H = rand_poly(n, rng, n_terms=10, deg_max=5) + Polynomial(n, quadratic)
    grads = H.gradient()
    field = grads[n:] + [-g for g in grads[:n]]
    origin = np.zeros(2 * n)
    jacobian = [[float(f.partial(i).evaluate(origin)) for i in range(2 * n)] for f in field]
    assert CompiledField(H).A.tolist() == jacobian
    assert not np.any(CompiledField(Polynomial.zero(n)).A)


def test_majorant_norm_bounds_sup_on_polydisc():
    rng = np.random.default_rng(2)
    f = rand_poly(2, rng, n_terms=6)
    r = 0.8
    bound = f.majorant_norm(r)
    for _ in range(50):
        z = rng.uniform(-r, r, size=4)
        assert abs(f.evaluate(z)) <= bound + 1e-12


@pytest.mark.parametrize("r", [0.0, -0.8, math.nan])
def test_majorant_norm_refuses_a_radius_not_above_zero(r):
    f = Polynomial(2, {(3, 0, 0, 0): 0.5})
    with pytest.raises(ValueError, match="radius must be positive"):
        f.majorant_norm(r)


def test_json_round_trip_float_and_exact():
    f = Polynomial(2, {(1, 0, 2, 0): 0.25, (0, 1, 0, 1): -1.5})
    g = Polynomial.from_json_dict(f.to_json_dict())
    assert g == f
    e = Polynomial(1, {(3, 1): Fraction(2, 7), (0, 2): Fraction(-5)})
    e2 = Polynomial.from_json_dict(e.to_json_dict())
    assert e2.terms == e.terms


# -- Poisson bracket algebra (exact, randomized) -------------------------------


def poisson_bracket(f: Polynomial, g: Polynomial) -> Polynomial:
    """Reference canonical Poisson bracket, {q_i, p_i} = +1:

    {f, g} = sum_i (df/dq_i dg/dp_i - df/dp_i dg/dq_i),

    term by term on the sparse polynomials; the normal-form engine brackets
    in the complex chart instead, and other test modules import this copy.
    """
    n = f.n
    out = Polynomial.zero(n)
    for i in range(n):
        fq, fp = f.partial(i), f.partial(n + i)
        gq, gp = g.partial(i), g.partial(n + i)
        out = out + fq * gp - fp * gq
    return out


def paired_part(g: Polynomial, exact: bool) -> ActionPolynomial:
    """Reference action polynomial read off the paired chart monomials of g.

    In the unnormalized chart w_j wbar_j = 2 I_j, so a paired monomial
    w^k wbar^k contributes c (2I)^k.  Unpaired monomials are skipped and float
    coefficients give their real part; a non-real exact coefficient raises
    NotActionRepresentable.  Exact coefficients stay ExactComplex when g holds
    any with an extension part, and are Fractions otherwise.  The normal-form
    engine reads h_m off its chart pieces instead, and other test modules
    import this copy.
    """
    n = g.n
    keep = exact and any(isinstance(c, ExactComplex) and (c.br or c.bi) for c in g.terms.values())
    out = {}
    for k, c in g.terms.items():
        if k[:n] != k[n:]:
            continue
        factor = 2 ** sum(k[:n])
        if not exact:
            out[k[:n]] = (complex(c) * factor).real
            continue
        c = c if isinstance(c, ExactComplex) else ExactComplex(c)
        if not c.imag_is_zero():
            raise NotActionRepresentable(f"non-real exact coefficient {c!r}")
        r = ExactComplex(c.ar * factor, 0, c.br * factor, 0, c.field)
        out[k[:n]] = r if keep or r.br else r.ar
    return ActionPolynomial(n, out)


def test_bracket_canonical_pairs():
    n = 2
    q1, p1, p2 = (variable(n, i, Fraction(1)) for i in (0, 2, 3))
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
    # the gradient and the row-major second partials, compiled as the SDM
    # polynomial check evaluates them on its grid
    h = ActionPolynomial(2, {(2, 0): 1.0, (1, 1): 3.0})
    first = h.gradient()
    grad = CompiledPoly(first)
    hess = CompiledPoly([g.partial(j) for g in first for j in range(2)])
    I = np.array([0.5, 2.0])
    assert grad(I) == pytest.approx([2 * 0.5 + 3 * 2.0, 3 * 0.5])
    assert hess(I).reshape(2, 2) == pytest.approx(np.array([[2.0, 3.0], [3.0, 0.0]]))
    batch = np.array([[0.5, 2.0], [-1.0, 0.25], [0.0, 3.0]])
    grads, hessians = grad(batch), hess(batch)
    assert grads.shape == (3, 2) and hessians.shape == (3, 4)
    hessians = hessians.reshape(3, 2, 2)
    for x, g, H in zip(batch, grads, hessians):
        assert np.array_equal(g, grad(x))
        assert np.array_equal(H, hess(x).reshape(2, 2))


def test_paired_part_lenient_and_strict():
    # w1 wbar1 = 2 I_1 is paired; w1^2 is not
    g = Polynomial(1, {(1, 1): 0.5, (2, 0): 0.25 + 0.1j})
    assert paired_part(g, exact=False).terms == {(1,): 1.0}
    e = Polynomial(1, {(1, 1): ExactComplex(Fraction(1, 2), Fraction(1, 3))})
    with pytest.raises(NotActionRepresentable):
        paired_part(e, exact=True)  # a non-real exact coefficient always raises


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


def substitute_linear(f, images):
    """Substitute z_i -> images[i] (polynomials sharing one dimension) by
    polynomial products: the reference for the chart change."""
    m = images[0].n
    powers = {}  # (i, e) -> images[i] ** e, shared across monomials

    def power(i, e):
        if (i, e) not in powers:
            powers[i, e] = images[i] if e == 1 else power(i, e - 1) * images[i]
        return powers[i, e]

    out = Polynomial.zero(m)
    for k, c in f.terms.items():
        term = Polynomial.constant(m, c)
        for i, e in enumerate(k):
            if e:
                term = term * power(i, e)
        out = out + term
    return out


def test_substitute_linear_identity():
    rng = np.random.default_rng(8)
    f = rand_poly(2, rng)
    images = [variable(2, i) for i in range(4)]
    assert substitute_linear(f, images) == f


def test_action_json_exact_coefficients():
    # a real coefficient from the trivial field serializes as a fraction
    # (a golden-tagged 1 has no extension part, so it is the rational 1)
    h = ActionPolynomial(
        2,
        {(1, 0): ExactComplex(Fraction(3, 2)), (0, 2): Fraction(-1, 3), (0, 1): ExactComplex(1, field=GOLDEN)},
    )
    assert h.to_json_dict()["terms"] == [
        {"k": [0, 1], "c": "1/1"},
        {"k": [0, 2], "c": "-1/3"},
        {"k": [1, 0], "c": "3/2"},
    ]
    # a coefficient with an extension part, or a non-real one, is refused
    for c in (ExactComplex.omega(GOLDEN), ExactComplex(1, 0, 1, field=GOLDEN), ExactComplex(0, 1)):
        with pytest.raises(ValueError):
            ActionPolynomial(1, {(1,): c}).to_json_dict()


# -- the chart change against substitution --------------------------------------


def substitution_chart_change(f, exact, real, tol=1e-10):
    """The chart change by substituting the linear images of the variables:
    realify maps w_j -> q_j - i p_j, wbar_j -> q_j + i p_j and complexify
    q_j -> (w_j + wbar_j)/2, p_j -> (i/2)(w_j - wbar_j)."""
    n = f.n
    one, half = (ExactComplex(1), ExactComplex(Fraction(1, 2))) if exact else (1.0, 0.5)
    i = ExactComplex(0, 1) if exact else 1j

    def unit(v):
        return tuple(int(u == v) for u in range(2 * n))

    if real:  # the images of w_1..w_n, then of wbar_1..wbar_n
        images = [Polynomial(n, {unit(j): one, unit(n + j): sign * i}) for sign in (-1, 1) for j in range(n)]
    else:  # the images of q_1..q_n, then of p_1..p_n
        images = [Polynomial(n, {unit(j): half, unit(n + j): half}) for j in range(n)]
        images += [Polynomial(n, {unit(j): i * half, unit(n + j): -i * half}) for j in range(n)]
    h = substitute_linear(f, images)
    if not real:
        return h
    max_c = max((abs(c) for c in h.terms.values()), default=0.0)
    out = {}
    for k, c in h.terms.items():
        if isinstance(c, complex):
            if abs(c.imag) > tol * max(1.0, max_c):
                raise NotActionRepresentable("imaginary part")
            c = c.real
        elif isinstance(c, ExactComplex):
            if not c.imag_is_zero():
                raise NotActionRepresentable("non-real")
            c = ExactComplex(c.ar, 0, c.br, 0, c.field) if c.br else c.ar
        out[k] = c
    return Polynomial(n, out)


def random_coefficient(rng, kind):
    """A random nonzero coefficient: complex float, or exact from the given
    field, where "mixed" picks a Fraction, a trivially tagged coefficient or
    a golden one with or without an extension part."""
    if kind == "float":
        return complex(rng.normal(), rng.normal())
    a, b, c, e = (Fraction(int(rng.integers(-6, 7)) or 1, int(rng.integers(1, 7))) for _ in range(4))
    if kind == "mixed":
        pick = int(rng.integers(4))
        if pick == 0:
            return a
        field = RATIONAL if pick == 1 else GOLDEN
        if pick < 3:
            c = e = 0
    else:
        field = {"rational": RATIONAL, "golden": GOLDEN, "sqrt2": SQRT2}[kind]
        if field.trivial:
            c = e = 0
    return ExactComplex(a, b, c, e, field=field)


def conjugate(c):
    if isinstance(c, complex):
        return c.conjugate()
    if isinstance(c, ExactComplex):
        return ExactComplex(c.ar, -c.ai, c.br, -c.bi, field=c.field)
    return c


def real_part(c):
    if isinstance(c, complex):
        return c.real
    return ExactComplex(c.ar, 0, c.br, 0, c.field) if isinstance(c, ExactComplex) else c


def random_real_chart_poly(rng, n, kind, per_degree=4):
    """A real-valued chart polynomial with terms of degrees 0..8: monomial
    pairs w^k wbar^l, w^l wbar^k with conjugate coefficients."""
    terms = {}
    for d in range(9):
        for _ in range(per_degree if d else 1):
            k = [0] * (2 * n)
            for _ in range(d):
                k[int(rng.integers(2 * n))] += 1
            k, kbar = tuple(k), tuple(k[n:] + k[:n])
            c = random_coefficient(rng, kind)
            if k == kbar:  # a paired monomial needs a real coefficient
                c = real_part(c)
            terms[k], terms[kbar] = c, conjugate(c)
    return Polynomial(n, terms)


def same_terms(got, want):
    """Equal by repr with coefficient types and field tags."""

    def items(p):
        return [(k, type(c), repr(c), getattr(c, "field", None)) for k, c in sorted(p.terms.items())]
    return items(got) == items(want)


@pytest.mark.parametrize("kind", ["float", "rational", "golden", "sqrt2", "mixed"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_chart_change_matches_substitution(n, kind):
    rng = np.random.default_rng([n, len(kind)])
    exact = kind != "float"
    for _ in range(2):
        g = random_real_chart_poly(rng, n, kind)
        real = realify_unnormalized(g, exact=exact)
        # complexify a real polynomial and one with complex coefficients
        fs = [
            substitution_chart_change(random_real_chart_poly(rng, n, kind, per_degree=2), exact, real=True),
            Polynomial(n, {k: random_coefficient(rng, kind) for k in list(g.terms)[::3]}),
        ]
        pairs = [(real, substitution_chart_change(g, exact, real=True))]
        pairs += [(complexify_unnormalized(f, exact=exact), substitution_chart_change(f, exact, real=False)) for f in fs]
        back = realify_unnormalized(complexify_unnormalized(real, exact=exact), exact=exact)
        if exact:
            for got, want in pairs:
                assert same_terms(got, want)
            assert back == real
        else:
            for got, want in pairs + [(back, real)]:
                scale = max(abs(c) for c in want.terms.values())
                keys = set(got.terms) | set(want.terms)
                err = max(abs(got.terms.get(k, 0.0) - want.terms.get(k, 0.0)) for k in keys)
                assert err <= 1e-14 * scale
        # a chart polynomial that is not real-valued is refused by both
        w = Polynomial(n, {(1,) + (0,) * (2 * n - 1): ExactComplex(1) if exact else 1.0})
        for change in (realify_unnormalized, lambda p, exact: substitution_chart_change(p, exact, real=True)):
            with pytest.raises(NotActionRepresentable):
                change(w, exact=exact)


def reference_pair_matrices(s):
    """The pair maps with map 1 as its own double sum: the coefficients of
    q^a p^b -> (w + wbar)^a (w - wbar)^b, b = s - a, by exponent of w."""
    M = np.zeros((3, s + 1, s + 1), dtype=object)
    for x in range(s + 1):
        for y in range(s + 1):
            M[0, s - x, y] = sum((-1) ** a * comb(y, a) * comb(s - y, x - a) for a in range(x + 1))
            M[1, x, y] = sum(
                (-1) ** (s - y + x + u) * comb(y, u) * comb(s - y, x - u) for u in range(x + 1)
            )
    M[2] = abs(M[0])
    return M


@pytest.mark.parametrize("s", range(11))
def test_pair_maps_match_the_double_sums(s):
    got, want = _pair_matrices(s), reference_pair_matrices(s)
    assert got.shape == want.shape and got.dtype == object
    assert [(type(v), v) for v in got.ravel()] == [(type(v), v) for v in want.ravel()]
    # map 1 is the chart change q^a p^b -> (w + wbar)^a (w - wbar)^b itself
    w = Polynomial(1, {(1, 0): 1, (0, 1): 1}), Polynomial(1, {(1, 0): 1, (0, 1): -1})
    for y in range(s + 1):
        image = Polynomial.constant(1, 1)
        for factor, e in zip(w, (y, s - y)):
            for _ in range(e):
                image = image * factor
        assert [image.terms.get((x, s - x), 0) for x in range(s + 1)] == list(got[1, :, y])
