"""Elliptic Hamiltonian model: actions, complex chart, vector field, persistence."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hamlab.birkhoff import birkhoff_normal_form
from hamlab.errors import DimensionMismatch
from hamlab.exactnum import GOLDEN, ExactComplex
from hamlab.model import EllipticHamiltonian, formal_actions
from hamlab.poly import CompiledField, Polynomial, complexify_unnormalized, realify_unnormalized


def test_formal_actions_values_and_norm():
    z = np.array([1.0, 0.0, 0.0, 2.0])
    I = formal_actions(2, z)
    assert I == pytest.approx([0.5, 2.0])
    assert I.sum() == pytest.approx(0.5 * np.dot(z, z))
    with pytest.raises(DimensionMismatch):
        formal_actions(2, [1.0, 2.0])


def test_formal_actions_batched():
    z = np.random.default_rng(0).uniform(-1, 1, size=(5, 4))
    I = formal_actions(2, z)
    assert I.shape == (5, 2)
    assert I[3] == pytest.approx(0.5 * (z[3, :2] ** 2 + z[3, 2:] ** 2))


def test_complexify_sends_actions_to_products():
    # in the chart w_j = z_j - i z_{n+j}, alpha.I becomes sum alpha_j w_j wbar_j / 2
    f = Polynomial.action_variable(2, 1) * 3.0
    g = complexify_unnormalized(f)
    assert set(g.terms) == {(0, 1, 0, 1)}
    assert complex(g.terms[(0, 1, 0, 1)]) == pytest.approx(1.5)


def test_complexify_realify_round_trip():
    rng = np.random.default_rng(1)
    terms = {}
    for _ in range(8):
        k = tuple(int(rng.integers(0, 3)) for _ in range(4))
        if sum(k) == 0:
            continue
        terms[k] = float(rng.normal())
    f = Polynomial(2, terms)
    back = realify_unnormalized(complexify_unnormalized(f))
    diff = back - f
    assert all(abs(c) < 1e-10 for c in diff.terms.values())


def test_complexify_is_symplectic_change():
    # the bracket factor is preserved: {zeta, zetabar} images of {q, p} = 1
    from test_poly import poisson_bracket

    q = Polynomial(1, {(1, 0): 1.0})
    p = Polynomial(1, {(0, 1): 1.0})
    b = poisson_bracket(q, p)
    assert complex(b.terms[(0, 0)]) == pytest.approx(1.0)


def test_constructor_validation():
    V = Polynomial(2, {(3, 0, 0, 0): 0.1})
    with pytest.raises(ValueError):
        EllipticHamiltonian((1.0, 1.0), V)  # repeated frequency
    with pytest.raises(ValueError):
        EllipticHamiltonian((1.0, 2.0), Polynomial(2, {(1, 0, 0, 0): 1.0}))
    with pytest.raises(ValueError):
        EllipticHamiltonian((1.0, 2.0), V, s=2.0)
    with pytest.raises(DimensionMismatch):
        EllipticHamiltonian((1.0,), V)
    with pytest.raises(ValueError, match="finite"):
        EllipticHamiltonian((1.0, math.inf), V)
    with pytest.raises(ValueError, match="real"):
        EllipticHamiltonian((1.0, ExactComplex(2, 1)), V)


def test_rho_is_majorant_of_perturbation():
    V = Polynomial(2, {(3, 0, 0, 0): 0.5, (0, 0, 4, 0): -0.25})
    H = EllipticHamiltonian((1.0, 2.0), V, s=4.0)
    assert H.rho == pytest.approx(0.5 * 4**3 + 0.25 * 4**4)
    assert EllipticHamiltonian((1.0, 2.0), Polynomial.zero(2)).rho == 0.0


def test_scaled_rescales_perturbation():
    V = Polynomial(2, {(3, 0, 0, 0): 0.5})
    H = EllipticHamiltonian((1.0, 2.0), V, s=4.0)
    Hs = H.scaled(0.1)
    # degree-3 coefficient picks up rho^(3-2)
    assert Hs.V.terms[(3, 0, 0, 0)] == pytest.approx(0.05)
    assert Hs.alpha == H.alpha


def _cubic_to_quintic_V(rng, exact=False):
    terms = {}
    for _ in range(6):
        k = [0] * 4
        for _ in range(int(rng.integers(3, 6))):
            k[int(rng.integers(0, 4))] += 1
        c = int(rng.integers(1, 7)) * (-1) ** int(rng.integers(0, 2))
        terms[tuple(k)] = Fraction(c, 3) if exact else c / 3.0
    return Polynomial(2, terms)


def test_scaled_is_substitution():
    # rho^-2 H(rho z): the quadratic part is unchanged and V of degree 3..5
    # picks up rho^(d-2)
    rng = np.random.default_rng(3)
    H = EllipticHamiltonian((1.0, 2.0), _cubic_to_quintic_V(rng), s=4.0)
    rho = 0.3
    Hs = H.scaled(rho)
    assert {sum(k) for k in H.V.terms} == {3, 4, 5}
    f, g = H.full_polynomial(), Hs.full_polynomial()
    for _ in range(5):
        z = rng.uniform(-1, 1, size=4)
        assert g.evaluate(z) == pytest.approx(rho**-2 * f.evaluate(rho * z))


def test_scaled_factors_are_exact_only_for_an_exact_V_and_rho():
    V = _cubic_to_quintic_V(np.random.default_rng(4), exact=True)
    H = EllipticHamiltonian((Fraction(1), Fraction(3, 2)), V, s=4.0)
    rho = Fraction(1, 3)
    assert H.scaled(rho).V.terms == {k: c * rho ** (sum(k) - 2) for k, c in V.terms.items()}
    assert all(isinstance(c, Fraction) for c in H.scaled(rho).V.terms.values())
    for Hf, r in ((H, 0.25), (EllipticHamiltonian((1.0, 1.5), V.to_float(), s=4.0), rho)):
        got = Hf.scaled(r).V.terms
        assert all(type(c) is float for c in got.values())
        assert got == {k: c * float(r) ** (sum(k) - 2) for k, c in Hf.V.terms.items()}


@pytest.mark.parametrize("rho", [0.0, -0.3, math.nan, math.inf, -math.inf])
def test_scaled_refuses_a_factor_that_is_not_finite_and_positive(rho):
    H = EllipticHamiltonian((1.0, 2.0), Polynomial(2, {(3, 0, 0, 0): 0.5, (0, 1, 2, 1): 0.25}))
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        H.scaled(rho)


def test_vector_field_square_action():
    # the I_1^2 part of H alone pushes (1, 0) to (0, -1)
    Vq = Polynomial(1, {(4, 0): 0.25, (2, 2): 0.5, (0, 4): 0.25})  # I_1^2
    H2 = EllipticHamiltonian((0.5,), Vq, s=4.0)
    z = np.array([1.0, 0.0])
    f = CompiledField(H2.full_polynomial())(z)
    # alpha.I contributes (0.5 p, -0.5 q) = (0, -0.5); I_1^2 contributes (0, -1)
    assert f == pytest.approx([0.0, -1.5])


def test_vector_field_linear_part_rotates():
    H = EllipticHamiltonian((2.0, 3.0), Polynomial.zero(2), s=4.0)
    z = np.array([1.0, -1.0, 0.5, 0.25])
    f = CompiledField(H.full_polynomial())(z)
    assert f == pytest.approx([2.0 * 0.5, 3.0 * 0.25, -2.0 * 1.0, 3.0 * 1.0])


def test_energy_conservation_along_field():
    # dH/dt = grad H . X_H = 0 pointwise
    V = Polynomial(2, {(2, 1, 0, 0): 0.3, (0, 0, 1, 2): -0.2})
    H = EllipticHamiltonian((1.0, 1.5), V, s=4.0)
    Hp = H.full_polynomial()
    rng = np.random.default_rng(2)
    for _ in range(5):
        z = rng.uniform(-0.5, 0.5, size=4)
        g = np.array([p.evaluate(z) for p in Hp.gradient()])
        assert np.dot(g, CompiledField(Hp)(z)) == pytest.approx(0.0, abs=1e-12)


def test_json_persistence_round_trip(tmp_path):
    V = Polynomial(2, {(3, 0, 0, 0): 0.5, (1, 1, 1, 0): -0.125})
    H = EllipticHamiltonian((1.0, math.sqrt(2.0)), V, s=3.5)
    path = tmp_path / "ham.json"
    H.save(path)
    H2 = EllipticHamiltonian.load(path)
    assert H2.n == H.n
    assert H2.alpha_floats() == pytest.approx(H.alpha_floats())
    assert H2.s == H.s
    assert H2.V == H.V


def test_exact_frequencies_survive_save_and_load(tmp_path):
    V = Polynomial(2, {(3, 0, 0, 0): Fraction(1, 10), (0, 1, 1, 1): Fraction(-2, 25)})
    H = EllipticHamiltonian((Fraction(1), Fraction(7, 5)), V, s=4.0)
    path = tmp_path / "ham.json"
    H.save(path)
    assert H.to_json_dict()["alpha"] == ["1/1", "7/5"]
    H2 = EllipticHamiltonian.load(path)
    assert H2.alpha == (Fraction(1), Fraction(7, 5))
    want = birkhoff_normal_form(H, 2, exact=True).h_m.terms
    assert birkhoff_normal_form(H2, 2, exact=True).h_m.terms == want
    # a float frequency stays a float next to an exact one
    mixed = EllipticHamiltonian((Fraction(1), 1.5), V, s=4.0).to_json_dict()
    assert mixed["alpha"] == ["1/1", 1.5]
    golden = EllipticHamiltonian((ExactComplex(1), ExactComplex.omega(GOLDEN)), V, s=4.0)
    with pytest.raises(ValueError, match="quadratic extension"):
        golden.save(tmp_path / "golden.json")
