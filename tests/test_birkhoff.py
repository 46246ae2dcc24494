"""Normal form engine: exact low-order oracles, conjugacy, and transform checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hamlab.birkhoff import (
    NormalFormResult,
    apply_transform,
    birkhoff_normal_form,
    optimal_order,
    remainder_curve,
)
from hamlab.diophantine import estimate_gamma
from hamlab.errors import ResonantFrequency, ThresholdViolation
from hamlab.exactnum import GOLDEN, ExactComplex
from hamlab.model import EllipticHamiltonian, complexify, formal_actions, realify
from hamlab.poly import Polynomial, poisson_bracket

GOLDEN_F = (1 + math.sqrt(5)) / 2


def golden_alpha():
    one = ExactComplex(1, field=GOLDEN)
    return (one, ExactComplex.omega(GOLDEN))


def sample_points(n, rng, count, scale=0.1):
    return rng.uniform(-scale, scale, size=(count, 2 * n))


# -- exact low-order results ---------------------------------------------------


def test_quartic_oscillator_exact_h2():
    # H = I + c q^4: the order-2 coefficient is the angle average <q^4> = (3/2) I^2
    c = Fraction(1, 3)
    V = Polynomial(1, {(4, 0): c})
    H = EllipticHamiltonian((1,), V, s=4.0)
    res = birkhoff_normal_form(H, m=2, exact=True)
    assert res.h_m.terms == {(1,): Fraction(1), (2,): Fraction(3, 2) * c}


def test_zero_perturbation_is_already_normal():
    H = EllipticHamiltonian((1.0, GOLDEN_F), Polynomial.zero(2), s=4.0)
    res = birkhoff_normal_form(H, m=3)
    assert res.h_m.terms == pytest.approx({(1, 0): 1.0, (0, 1): GOLDEN_F})
    assert res.remainder.is_zero()
    assert all(g.is_zero() for g in res.generators_real)
    assert res.transform_displacement == 0.0


def test_resonant_normal_term_passes_through():
    # V = I_1 I_2 is already a function of the actions: no generator needed
    V = (
        Polynomial.action_variable(2, 0) * Polynomial.action_variable(2, 1)
    ).to_float()
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    res = birkhoff_normal_form(H, m=2)
    assert all(g.is_zero() for g in res.generators_real)
    assert res.h_m.terms == pytest.approx(
        {(1, 0): 1.0, (0, 1): GOLDEN_F, (1, 1): 1.0}
    )


def single_step_oracle(H):
    """Order-2 normal form computed independently in the symplectic chart.

    chi solves {chi, alpha.I} = V_3 monomial-wise (divisor i (k-l).alpha), and
    the quartic normal part is the resonant part of V_4 - (1/2){chi, V_3}.
    Returns a dict of action exponents -> coefficients.
    """
    n = H.n
    alpha = H.alpha_floats()
    V = H.V.to_float()
    V3 = V.truncate(3, 3)
    V4 = V.truncate(4, 4)
    c3 = complexify(V3)
    chi_terms = {}
    for k, c in c3.terms.items():
        om = sum((k[j] - k[n + j]) * alpha[j] for j in range(n))
        chi_terms[k] = complex(c) / (1j * om)
    chi = realify(Polynomial(n, chi_terms))
    # self-check: chi really solves the homological equation
    H2 = Polynomial.zero(n)
    for j, a in enumerate(alpha):
        H2 = H2 + Polynomial.action_variable(n, j) * a
    resid = poisson_bracket(chi, H2) - V3
    assert all(abs(c) < 1e-9 for c in resid.terms.values())
    quartic = V4 - poisson_bracket(chi, V3) * 0.5
    out = {}
    for k, c in complexify(quartic).terms.items():
        if k[:n] == k[n:]:
            out[k[:n]] = out.get(k[:n], 0.0) + complex(c).real
    return {k: v for k, v in out.items() if abs(v) > 1e-12}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_order_two_matches_single_step_oracle(seed):
    rng = np.random.default_rng(seed)
    terms = {}
    for _ in range(6):
        d = int(rng.integers(3, 5))
        k = [0] * 4
        for _ in range(d):
            k[int(rng.integers(0, 4))] += 1
        terms[tuple(k)] = float(rng.normal()) * 0.2
    H = EllipticHamiltonian((1.0, GOLDEN_F), Polynomial(2, terms), s=4.0)
    res = birkhoff_normal_form(H, m=2)
    oracle = single_step_oracle(H)
    got = {k: v for k, v in res.h_m.terms.items() if sum(k) == 2}
    assert got == pytest.approx(oracle, abs=1e-9)


def test_h_m_independent_of_working_degree():
    V = Polynomial(2, {(3, 0, 0, 0): 0.3, (0, 1, 2, 0): -0.2, (1, 1, 1, 1): 0.1})
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    a = birkhoff_normal_form(H, m=2, D_work=6)
    b = birkhoff_normal_form(H, m=2, D_work=9)
    assert a.h_m.terms == pytest.approx(b.h_m.terms)


def test_lower_order_is_prefix_of_higher():
    V = Polynomial(2, {(3, 0, 0, 0): 0.3, (0, 0, 2, 1): -0.2, (2, 1, 1, 0): 0.15})
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    lo = birkhoff_normal_form(H, m=2, D_work=10)
    hi = birkhoff_normal_form(H, m=3, D_work=10)
    prefix = {k: v for k, v in hi.h_m.terms.items() if sum(k) <= 2}
    assert lo.h_m.terms == pytest.approx(prefix)


def test_exact_and_float_modes_agree():
    V = Polynomial(2, {(3, 0, 0, 0): Fraction(1, 4), (1, 0, 0, 2): Fraction(-1, 5)})
    H_exact = EllipticHamiltonian(golden_alpha(), V, s=4.0)
    H_float = EllipticHamiltonian((1.0, GOLDEN_F), V.to_float(), s=4.0)
    re = birkhoff_normal_form(H_exact, m=2, exact=True, qfield=GOLDEN)
    rf = birkhoff_normal_form(H_float, m=2)
    exact_terms = {
        k: (float(c) if isinstance(c, Fraction) else c.to_complex().real)
        for k, c in re.h_m.terms.items()
    }
    assert exact_terms == pytest.approx(rf.h_m.terms, abs=1e-12)


def test_exact_h_m_to_float_matches_float_mode():
    # golden-field coefficients convert to plain floats, so the copy evaluates
    V = Polynomial(2, {(3, 0, 0, 0): Fraction(1, 4), (1, 0, 0, 2): Fraction(-1, 5)})
    H_exact = EllipticHamiltonian(golden_alpha(), V, s=4.0)
    H_float = EllipticHamiltonian((1.0, GOLDEN_F), V.to_float(), s=4.0)
    h = birkhoff_normal_form(H_exact, m=2, exact=True, qfield=GOLDEN).h_m
    assert any(isinstance(c, ExactComplex) for c in h.terms.values())
    hf = h.to_float()
    assert all(type(c) is float for c in hf.terms.values())
    rf = birkhoff_normal_form(H_float, m=2)
    assert hf.terms == pytest.approx(rf.h_m.terms, abs=1e-12)
    I = np.array([0.3, 0.2])
    assert hf.evaluate(I) == pytest.approx(rf.h_m.evaluate(I), abs=1e-12)


# -- divisors and resonances ---------------------------------------------------


def test_resonant_frequencies_are_rejected():
    V = Polynomial(2, {(3, 0, 0, 0): 0.1})
    H = EllipticHamiltonian((1.0, 2.0), V, s=4.0)
    with pytest.raises(ResonantFrequency):
        birkhoff_normal_form(H, m=2)


def test_smallest_divisor_bounded_by_shell_minima():
    V = Polynomial(2, {(3, 0, 0, 0): 0.3, (0, 1, 2, 0): -0.2, (1, 1, 1, 1): 0.1})
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    m = 3
    res = birkhoff_normal_form(H, m=m)
    floor = estimate_gamma(H.alpha_floats(), 0.0, 2 * m).gamma_hat
    assert res.smallest_divisor >= floor - 1e-12
    assert res.smallest_divisor < math.inf


# -- optimal order -------------------------------------------------------------


def test_optimal_order_plug_in_values():
    assert optimal_order(1e-4, 1.0, 1.0) == 100
    assert optimal_order(1.0 / 4.0, 1.0, 1.0) == 2  # rho = gamma / 2^(tau+1)
    assert optimal_order(0.999999, 1.0, 1.0) == 2
    with pytest.raises(ThresholdViolation):
        optimal_order(2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        optimal_order(0.0, 1.0, 1.0)


def test_optimal_order_grows_as_rho_shrinks():
    orders = [optimal_order(10.0**-e, 1.0, 1.0) for e in range(2, 7)]
    assert orders == sorted(orders)
    assert orders[-1] > orders[0]


# -- remainder and conjugacy ---------------------------------------------------


def test_remainder_curve_shape_and_consistency():
    V = Polynomial(2, {(3, 0, 0, 0): 0.05, (0, 0, 2, 1): -0.04})
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    curve = remainder_curve(H, m_max=4, radius=0.5)
    assert [m for m, _ in curve] == [2, 3, 4]
    assert all(r >= 0.0 for _, r in curve)
    # for this small rho the majorant shrinks with the order
    vals = [r for _, r in curve]
    assert vals[-1] < vals[0]


def test_conjugacy_on_sample_points():
    # H(forward(z)) should equal h_m(I(z)) up to the remainder size
    V = Polynomial(2, {(3, 0, 0, 0): 0.1, (0, 1, 1, 1): -0.08})
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    res = birkhoff_normal_form(H, m=2, D_work=8, radius=0.2)
    Hp = H.full_polynomial()
    rng = np.random.default_rng(3)
    for z in sample_points(2, rng, 8, scale=0.08):
        lhs = Hp.evaluate(apply_transform(res, z))
        rhs = res.h_m.evaluate(formal_actions(2, z))
        gap = abs(lhs - rhs)
        budget = res.remainder.majorant_norm(float(np.max(np.abs(z)))) + 1e-10
        assert gap <= 10.0 * budget


def test_transform_round_trip_and_symplecticity():
    V = Polynomial(2, {(3, 0, 0, 0): 0.1, (1, 0, 0, 2): -0.07})
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    res = birkhoff_normal_form(H, m=2)
    rng = np.random.default_rng(4)
    z0 = rng.uniform(-0.05, 0.05, size=4)
    z1 = apply_transform(res, apply_transform(res, z0, "forward"), "inverse")
    assert z1 == pytest.approx(z0, abs=1e-8)

    # finite-difference Jacobian of the forward map preserves the symplectic form
    h = 1e-5
    J = np.zeros((4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        J[:, j] = (
            apply_transform(res, z0 + e) - apply_transform(res, z0 - e)
        ) / (2 * h)
    Om = np.block(
        [[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]
    )
    assert np.max(np.abs(J.T @ Om @ J - Om)) < 1e-6


def test_apply_transform_validation():
    V = Polynomial(2, {(3, 0, 0, 0): 0.1})
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    res = birkhoff_normal_form(H, m=2)
    with pytest.raises(ValueError):
        apply_transform(res, np.zeros(4), "sideways")
    from hamlab.errors import OutOfDomain

    with pytest.raises(OutOfDomain):
        apply_transform(res, np.array([3.0, 0.0, 0.0, 0.0]))


def test_apply_transform_batches_points():
    V = Polynomial(2, {(3, 0, 0, 0): 0.1, (0, 1, 1, 1): -0.08, (1, 0, 0, 3): 0.05})
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    res = birkhoff_normal_form(H, m=3)
    # every row lies inside the domain although the whole batch has norm > s/2
    Z = sample_points(2, np.random.default_rng(5), 20, scale=0.5)
    assert np.linalg.norm(Z) > res.s / 2
    for direction in ("forward", "inverse"):
        batch = apply_transform(res, Z, direction)
        single = np.stack([apply_transform(res, z, direction) for z in Z])
        assert batch.shape == Z.shape
        assert np.max(np.abs(batch - single)) <= 1e-14
    from hamlab.errors import OutOfDomain

    Z[3] = [3.0, 0.0, 0.0, 0.0]
    with pytest.raises(OutOfDomain):
        apply_transform(res, Z)


def test_result_metadata():
    V = Polynomial(2, {(3, 0, 0, 0): 0.1})
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    res = birkhoff_normal_form(H, m=2, D_work=7, radius=0.4)
    assert isinstance(res, NormalFormResult)
    assert res.m == 2 and res.D_work == 7 and res.radius == 0.4
    assert len(res.generators_real) == 2 * res.m - 2
    assert res.transform_displacement > 0.0
