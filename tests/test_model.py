"""Elliptic Hamiltonian model: actions, complex chart, vector field, persistence."""

import math

import numpy as np
import pytest

from hamlab.errors import DimensionMismatch, OutOfDomain
from hamlab.model import EllipticHamiltonian, complexify, formal_actions, realify
from hamlab.poly import Polynomial


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
    # alpha.I becomes sum alpha_j zeta_j zetabar_j with unit coefficient
    f = Polynomial.action_variable(2, 1) * 3.0
    g = complexify(f)
    assert set(g.terms) == {(0, 1, 0, 1)}
    assert complex(g.terms[(0, 1, 0, 1)]) == pytest.approx(3.0)


def test_complexify_realify_round_trip():
    rng = np.random.default_rng(1)
    terms = {}
    for _ in range(8):
        k = tuple(int(rng.integers(0, 3)) for _ in range(4))
        if sum(k) == 0:
            continue
        terms[k] = float(rng.normal())
    f = Polynomial(2, terms)
    back = realify(complexify(f))
    diff = back - f
    assert all(abs(c) < 1e-10 for c in diff.terms.values())


def test_complexify_is_symplectic_change():
    # the bracket factor is preserved: {zeta, zetabar} images of {q, p} = 1
    from hamlab.poly import poisson_bracket

    q = Polynomial.variable(1, 0)
    p = Polynomial.variable(1, 1)
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


def test_vector_field_square_action():
    # the I_1^2 part of H alone pushes (1, 0) to (0, -1)
    Vq = Polynomial(1, {(4, 0): 0.25, (2, 2): 0.5, (0, 4): 0.25})  # I_1^2
    H2 = EllipticHamiltonian((0.5,), Vq, s=4.0)
    z = np.array([1.0, 0.0])
    f = H2.vector_field(z)
    # alpha.I contributes (0.5 p, -0.5 q) = (0, -0.5); I_1^2 contributes (0, -1)
    assert f == pytest.approx([0.0, -1.5])


def test_vector_field_linear_part_rotates():
    H = EllipticHamiltonian((2.0, 3.0), Polynomial.zero(2), s=4.0)
    z = np.array([1.0, -1.0, 0.5, 0.25])
    f = H.vector_field(z)
    assert f == pytest.approx([2.0 * 0.5, 3.0 * 0.25, -2.0 * 1.0, 3.0 * 1.0])


def test_vector_field_domain_check():
    H = EllipticHamiltonian((1.0, 2.0), Polynomial.zero(2), s=4.0)
    with pytest.raises(OutOfDomain):
        H.vector_field([4.0, 0.0, 0.0, 1.0])


def test_energy_conservation_along_field():
    # dH/dt = grad H . X_H = 0 pointwise
    V = Polynomial(2, {(2, 1, 0, 0): 0.3, (0, 0, 1, 2): -0.2})
    H = EllipticHamiltonian((1.0, 1.5), V, s=4.0)
    Hp = H.full_polynomial()
    rng = np.random.default_rng(2)
    for _ in range(5):
        z = rng.uniform(-0.5, 0.5, size=4)
        g = np.array([p.evaluate(z) for p in Hp.gradient()])
        assert np.dot(g, H.vector_field(z)) == pytest.approx(0.0, abs=1e-12)


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
