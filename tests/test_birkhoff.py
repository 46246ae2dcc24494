"""Normal form engine: exact low-order oracles, conjugacy, and transform checks."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlab import birkhoff as engine
from hamlab import poly
from hamlab.birkhoff import (
    NormalFormResult,
    apply_transform,
    birkhoff_normal_form,
    optimal_order,
    remainder_curve,
)
from hamlab.diophantine import estimate_gamma
from hamlab.errors import (
    NotActionRepresentable,
    ResonanceEncountered,
    ResonantFrequency,
    ThresholdViolation,
)
from hamlab.exactnum import GOLDEN, RATIONAL, SQRT2, ExactComplex, QuadField
from hamlab.lab import RandomHamiltonianParams, generate_random_hamiltonian, stream_rng
from hamlab.model import EllipticHamiltonian, formal_actions
from hamlab.poly import (
    CompiledField,
    Polynomial,
    complexify_unnormalized,
    realify_unnormalized,
)
from test_poly import paired_part, poisson_bracket

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


def complexify(f):
    """The symplectic chart zeta_j = (z_j - i z_{n+j}) / sqrt(2), in which
    alpha.I is sum_j alpha_j zeta_j zetabar_j and homological divisors are
    i (k - l).alpha: the chart w = sqrt(2) zeta of complexify_unnormalized."""
    return Polynomial(f.n, {k: c * math.sqrt(2.0) ** sum(k) for k, c in complexify_unnormalized(f).terms.items()})


def realify(g):
    """Inverse of :func:`complexify`."""
    return realify_unnormalized(Polynomial(g.n, {k: c / math.sqrt(2.0) ** sum(k) for k, c in g.terms.items()}))


def single_step_oracle(H):
    """Order-2 normal form computed independently in the symplectic chart.

    chi solves {chi, alpha.I} = V_3 monomial-wise (divisor i (k-l).alpha), and
    the quartic normal part is the resonant part of V_4 - (1/2){chi, V_3}.
    Returns a dict of action exponents -> coefficients.
    """
    n = H.n
    alpha = H.alpha_floats()
    V = H.V.to_float()
    V3 = Polynomial(n, {k: c for k, c in V.terms.items() if sum(k) == 3})
    V4 = Polynomial(n, {k: c for k, c in V.terms.items() if sum(k) == 4})
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


_ORACLE_MONOMIALS = [k for k in itertools.product(range(5), repeat=4) if sum(k) in (3, 4)]


@settings(max_examples=30, deadline=None)
@given(
    terms=st.dictionaries(
        st.sampled_from(_ORACLE_MONOMIALS),
        st.fractions(min_value=-2, max_value=2, max_denominator=9),
        max_size=4,
    ),
    m=st.integers(1, 3),
)
def test_float_h_m_matches_exact_oracle(terms, m):
    # exact mode is the oracle for float mode: h_m agrees coefficient by
    # coefficient, to a tolerance that grows as the smallest divisor shrinks
    V = Polynomial(2, terms)
    re = birkhoff_normal_form(EllipticHamiltonian(golden_alpha(), V, s=4.0), m=m, exact=True)
    rf = birkhoff_normal_form(EllipticHamiltonian((1.0, GOLDEN_F), V.to_float(), s=4.0), m=m)
    want = re.h_m.to_float().terms
    scale = max([1.0] + [abs(c) for c in want.values()])
    tol = 1e-12 * scale / min(1.0, re.smallest_divisor)
    for k in set(want) | set(rf.h_m.terms):
        assert abs(rf.h_m.terms.get(k, 0.0) - want.get(k, 0.0)) <= tol


@pytest.mark.parametrize("m", [2, 3])
def test_float_mode_accepts_exact_frequencies(m):
    # float mode reads exact frequencies through their floats: the same
    # normal form, bit for bit, as from the floats themselves, and within
    # 1e-12 of exact mode
    V = Polynomial(2, {(3, 0, 0, 0): Fraction(3, 10), (0, 1, 2, 0): Fraction(-1, 5), (1, 1, 1, 1): Fraction(1, 10)})
    H = EllipticHamiltonian(golden_alpha(), V, s=4.0)
    got = birkhoff_normal_form(H, m=m)
    want = birkhoff_normal_form(EllipticHamiltonian(tuple(H.alpha_floats()), V, s=4.0), m=m)

    def bits(res):
        polys = [res.h_m, res.remainder, *res.generators, *res.generators_real]
        scalars = (res.tail_bound, res.smallest_divisor, res.transform_displacement, res.tail_ratio)
        return [{k: repr(c) for k, c in p.terms.items()} for p in polys], repr(scalars)

    assert bits(got) == bits(want)
    oracle = birkhoff_normal_form(H, m=m, exact=True).h_m.to_float().terms
    assert set(got.h_m.terms) == set(oracle)
    for k, c in oracle.items():
        assert abs(got.h_m.terms[k] - c) <= 1e-12 * max(1.0, abs(c))


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


def test_divisor_floor_raises_at_the_first_small_divisor():
    # above the floor: the smallest divisor of the golden H at m = 3 is |(-3, 2).alpha|
    V = Polynomial(2, {(3, 0, 0, 0): 0.3, (0, 1, 2, 0): -0.2, (1, 1, 1, 1): 0.1})
    res = birkhoff_normal_form(EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0), m=3)
    assert res.smallest_divisor == pytest.approx(2.0 * GOLDEN_F - 3.0, abs=1e-14)
    # alpha = (1, 2 + 1e-15) is non-resonant by the exact test, but in floats
    # |(-2, 1).alpha| = 8.9e-16 is below the floor 1e-13 max |alpha|: float
    # mode stops at that first degree-3 divisor, exact mode normalizes
    alpha = (Fraction(1), 2 + Fraction(1, 10**15))
    V = Polynomial(2, {(2, 0, 0, 1): Fraction(1, 10), (0, 1, 2, 0): Fraction(1, 10)})
    H = EllipticHamiltonian(alpha, V, s=4.0)
    with pytest.raises(ResonanceEncountered, match=r"degree 3: k=\(-2, 1\), \|k.alpha\|=8.882e-16"):
        birkhoff_normal_form(H, m=2)
    assert birkhoff_normal_form(H, m=2, exact=True).smallest_divisor == 1e-15


def test_a_near_resonant_divisor_that_spoils_realification_is_named():
    # alpha = (1, 1 + 2e-11): |(2, -2).alpha| = 4e-11 passes the 1e-13 max
    # |alpha| floor, and the generators it divides grow until the rounding
    # left in the chart fails realification at m = 3 and m = 5.  Every term
    # is even in (q2, p2), so the divisor met is (2, -2), not (1, -1).
    V = Polynomial(2, {(3, 0, 0, 0): 0.1, (1, 0, 0, 2): 0.1})
    H = EllipticHamiltonian((1.0, 1.0 + 2e-11), V)
    for m in (3, 5):
        with pytest.raises(ResonanceEncountered, match=r"degree 4: k=\(-2, 2\), \|k.alpha\|=4.000e-11") as err:
            birkhoff_normal_form(H, m=m)
        assert isinstance(err.value.__cause__, NotActionRepresentable)
        assert (err.value.degree, err.value.k) == (4, (-2, 2))
    # where realification holds, the result reports the same divisor
    assert birkhoff_normal_form(H, m=2).smallest_divisor == err.value.value


# -- optimal order -------------------------------------------------------------


def test_optimal_order_plug_in_values():
    assert optimal_order(1e-4, 1.0, 1.0) == 100
    assert optimal_order(1.0 / 4.0, 1.0, 1.0) == 2  # rho = gamma / 2^(tau+1)
    assert optimal_order(0.999999, 1.0, 1.0) == 2
    with pytest.raises(ThresholdViolation):
        optimal_order(2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        optimal_order(0.0, 1.0, 1.0)


@pytest.mark.parametrize("rho, gamma", [(math.nan, 1.0), (1e-4, math.nan), (-1e-4, 1.0), (1e-4, 0.0)])
def test_optimal_order_refuses_a_scale_or_gamma_not_above_zero(rho, gamma):
    with pytest.raises(ValueError, match="rho and gamma must be positive"):
        optimal_order(rho, gamma, 1.0)


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


def test_curve_over_radii_is_the_curve_at_each_radius():
    # one pass for a sequence of radii gives, element by element and to the
    # bit, what a call for each radius alone gives; None is the default radius
    V = Polynomial(2, {(3, 0, 0, 0): 0.05, (0, 0, 2, 1): -0.04, (1, 1, 1, 1): 0.03})
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    radii = [0.5, 0.125, 0.37, 1.3, None, 0.5]
    assert remainder_curve(H, m_max=5, radius=radii) == [
        remainder_curve(H, m_max=5, radius=r) for r in radii
    ]
    assert remainder_curve(H, m_max=3, radius=np.array([0.37, 2.0])) == [
        remainder_curve(H, m_max=3, radius=0.37), remainder_curve(H, m_max=3, radius=2.0)
    ]
    with pytest.raises(ValueError, match="radius must be positive"):
        remainder_curve(H, m_max=3, radius=[0.5, 0.0])


@pytest.mark.parametrize("radii", [[], (), np.array([])], ids=["list", "tuple", "array"])
def test_an_empty_sequence_of_radii_is_refused(radii):
    # it normalized H and returned [], as no empty rho grid is let through
    H = EllipticHamiltonian((1.0, GOLDEN_F), Polynomial(2, {(3, 0, 0, 0): 0.05}), s=4.0)
    with pytest.raises(ValueError, match="^the sequence of radii must not be empty$"):
        remainder_curve(H, m_max=3, radius=radii)


@pytest.mark.parametrize("rho, exact", [(0.5, True), (0.125, True), (0.3, False), (0.011, False)])
def test_curve_of_scaled_hamiltonian_is_the_curve_at_the_scaled_radius(rho, exact):
    # curve_{H.scaled(rho)}(r) = rho^-2 curve_H(rho r); a power of 2 scales
    # every float of the pass exactly, so there the two sides agree to the bit
    V = Polynomial(2, {(3, 0, 0, 0): 0.05, (0, 0, 2, 1): -0.04, (1, 1, 1, 1): 0.03})
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    want = remainder_curve(H.scaled(rho), m_max=4, radius=0.8)
    got = [(m, v / rho**2) for m, v in remainder_curve(H, m_max=4, radius=rho * 0.8)]
    assert [m for m, _ in got] == [m for m, _ in want]
    if exact:
        assert got == want
    else:
        assert [v for _, v in got] == pytest.approx([v for _, v in want], rel=1e-13)


@pytest.mark.parametrize("radius", [-0.5, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("V", [Polynomial.zero(2), Polynomial(2, {(3, 0, 0, 0): 0.05, (0, 0, 2, 1): -0.04})])
def test_non_positive_radius_is_refused(radius, V):
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    with pytest.raises(ValueError, match=f"radius must be positive and finite, got {radius}"):
        remainder_curve(H, m_max=3, radius=radius)
    with pytest.raises(ValueError, match=f"radius must be positive and finite, got {radius}"):
        birkhoff_normal_form(H, m=2, radius=radius)


@pytest.mark.parametrize(
    "alpha, c, what",
    [
        ((1.0, Fraction(13, 8)), Fraction(1, 10), "frequency components"),
        ((Fraction(1), Fraction(13, 8)), 0.1, "coefficients of V"),
        ((Fraction(1), Fraction(13, 8)), np.float64(0.1), "coefficients of V"),
    ],
    ids=["float_alpha", "float_V", "numpy_float_V"],
)
def test_exact_mode_refuses_float_inputs_first(alpha, c, what, monkeypatch):
    # refused before the resonance check, the first work of a normalization
    def refused(*args):
        raise AssertionError("the normalization started")

    monkeypatch.setattr(engine.diophantine, "check_nonresonant", refused)
    V = Polynomial(2, {(2, 0, 0, 2): c, (3, 0, 0, 0): Fraction(1, 3)})
    with pytest.raises(ValueError, match=f"exact mode requires exact {what}"):
        birkhoff_normal_form(EllipticHamiltonian(alpha, V, s=4.0), m=2, exact=True)


@pytest.mark.parametrize("c", [1, Fraction(1, 10), ExactComplex(Fraction(1, 10))])
def test_exact_mode_takes_exact_coefficients_of_V(c):
    # <q_1^2 p_2^2> = I_1 I_2, so the coefficient passes through unchanged
    H = EllipticHamiltonian((Fraction(1), Fraction(13, 8)), Polynomial(2, {(2, 0, 0, 2): c}), s=4.0)
    assert birkhoff_normal_form(H, m=2, exact=True).h_m.terms[1, 1] == c


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
    # an empty batch maps to an empty batch
    for direction in ("forward", "inverse"):
        assert apply_transform(res, np.zeros((0, 4)), direction).shape == (0, 4)


def rk4_transform(res, Z, direction, steps=768):
    """The transform as the composition of the time-1 flows of the real
    generators, each integrated by ``steps`` fixed RK4 steps: an oracle for
    apply_transform that shares none of its Lie series."""
    fields = [CompiledField(g.to_float()) for g in res.generators_real if g.terms]
    if direction == "forward":
        fields, h = fields[::-1], 1.0 / steps
    else:
        h = -1.0 / steps
    y = np.array(Z, dtype=float)
    for vf in fields:
        for _ in range(steps):
            k1 = vf(y)
            k2 = vf(y + 0.5 * h * k1)
            k3 = vf(y + 0.5 * h * k2)
            k4 = vf(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def criterion_8_hamiltonian():
    params = RandomHamiltonianParams(
        n=2, include_beta=np.diag([1.0, -2.0]), degree_max=5, n_terms=4, coefficient_scale=0.3, seed=1
    )
    return generate_random_hamiltonian(params)


def roundtrip_points(H):
    """The 20 points of the bnf_roundtrip experiment at seed 0."""
    Z = stream_rng(0, 1).uniform(-1.0, 1.0, size=(20, 2 * H.n))
    return Z * np.minimum(1.0, 0.25 * H.s / np.linalg.norm(Z, axis=1))[:, None]


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("rho", [0.1, 0.05])
def test_transform_matches_a_fine_rk4_flow_of_the_generators(rho, m):
    H = criterion_8_hamiltonian().scaled(rho)
    res = birkhoff_normal_form(H, m)
    Z = roundtrip_points(H)
    for direction in ("forward", "inverse"):
        gap = np.max(np.abs(apply_transform(res, Z, direction) - rk4_transform(res, Z, direction)))
        assert gap <= 1e-12, direction


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("alpha", [(Fraction(1), Fraction(GOLDEN_F)), golden_alpha()], ids=["Q", "golden"])
def test_an_exact_result_gives_the_map_of_the_float_result(alpha, m):
    V = criterion_8_hamiltonian().V
    H = EllipticHamiltonian(alpha, Polynomial(2, {k: Fraction(c) for k, c in V.terms.items()}), s=4.0)
    H = H.scaled(Fraction(1, 10))
    exact, floats = birkhoff_normal_form(H, m, exact=True), birkhoff_normal_form(H, m)
    Z = roundtrip_points(H)
    for direction in ("forward", "inverse"):
        gap = np.max(np.abs(apply_transform(exact, Z, direction) - apply_transform(floats, Z, direction)))
        assert gap <= 1e-15, direction


def test_the_round_trip_is_the_truncation_at_D_work():
    # forward and inverse are each truncated at degree D_work = 12, so
    # inverse(forward(z)) - z is of high degree: it falls steeply with rho,
    # down to rounding
    H0 = criterion_8_hamiltonian()
    gaps = []
    for rho in (0.3, 0.2, 0.15, 0.05):
        res = birkhoff_normal_form(H0.scaled(rho), m=4)
        Z = roundtrip_points(H0)
        back = apply_transform(res, apply_transform(res, Z, "forward"), "inverse")
        gaps.append(float(np.max(np.abs(back - Z))))
    assert gaps == sorted(gaps, reverse=True) and len(set(gaps)) == len(gaps)
    assert gaps[0] / gaps[2] >= 2.0**10
    assert gaps[1] >= 1e-12 and gaps[3] <= 1e-14


def test_result_metadata():
    V = Polynomial(2, {(3, 0, 0, 0): 0.1})
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    res = birkhoff_normal_form(H, m=2, D_work=7, radius=0.4)
    assert isinstance(res, NormalFormResult)
    assert res.m == 2 and res.D_work == 7 and res.radius == 0.4
    assert len(res.generators_real) == 2 * res.m - 2
    assert res.transform_displacement > 0.0


def test_golden_h_m_refuses_json():
    # the bnf_exact benchmark input: golden-field coefficients cannot be
    # written as fractions, so serialization fails with a ValueError
    V = Polynomial(2, {(0, 1, 1, 2): Fraction(7, 10), (1, 0, 0, 3): Fraction(9, 10)})
    H = EllipticHamiltonian(golden_alpha(), V, s=4.0)
    res = birkhoff_normal_form(H, m=2, exact=True, qfield=GOLDEN)
    with pytest.raises(ValueError):
        res.h_m.to_json_dict()


# -- the graded chart engine ---------------------------------------------------


# the two rank formulas that _rank replaced, as the reference


def choose_up(r, k):
    """C(r + k, k), elementwise."""
    return np.vectorize(lambda x: math.comb(int(x) + k, k), otypes=[np.intp])(r)


def reference_rank(E):
    """Rank of each exponent vector (last axis) among the vectors of its own
    total degree, telescoping over the slots; the degrees may differ."""
    V = E.shape[-1]
    suffix = np.cumsum(E[..., ::-1], axis=-1)[..., ::-1]
    rank = np.zeros(E.shape[:-1], dtype=np.intp)
    for i in range(V - 1):
        # vectors that agree before slot i and hold less there
        rank += choose_up(suffix[..., i], V - 1 - i) - choose_up(suffix[..., i + 1], V - 1 - i)
    return rank


def reference_product_ranks(V, a, b, rows=slice(None)):
    """Rank in degree a + b of the product of every degree-a monomial in rows
    with every degree-b monomial, flattened row-major, by suffix-sum lookups."""
    Sa = np.cumsum(engine._degree(V, a).E[rows, ::-1], axis=1)[:, ::-1]
    Sb = np.cumsum(engine._degree(V, b).E[:, ::-1], axis=1)[:, ::-1]
    D = a + b
    out = np.full((len(Sa), len(Sb)), math.comb(D + V - 1, V - 1) - 1, dtype=np.intp)
    for k in range(1, V):
        out -= choose_up(np.arange(-1, D), V - k)[Sa[:, None, k] + Sb[None, :, k]]
    return out.ravel()


@pytest.mark.parametrize("V", [2, 4, 6])
def test_graded_layout_ranks_are_lexicographic(V):
    for d in range(6):
        tab = engine._degree(V, d)
        want = sorted(k for k in itertools.product(range(d + 1), repeat=V) if sum(k) == d)
        assert [tuple(e) for e in tab.E.tolist()] == want
        assert np.array_equal(engine._rank(tab.E), np.arange(len(want)))
        assert np.array_equal(reference_rank(tab.E), np.arange(len(want)))
        above = engine._degree(V, d + 1).E
        assert np.array_equal(above[tab.up], tab.E[:, None, :] + np.eye(V, dtype=int))


@pytest.mark.parametrize("V", [2, 4, 6])
def test_product_ranks_are_the_ranks_of_the_products(V, monkeypatch):
    monkeypatch.setattr(engine, "_PRODUCT_RANKS", {})
    for a, b in ((0, 0), (0, 3), (2, 0), (2, 3), (4, 1), (3, 3)):
        Ea, Eb = engine._degree(V, a).E, engine._degree(V, b).E
        for rows in (slice(None), slice(1, 3), slice(0, 0)):
            want = reference_product_ranks(V, a, b, rows)
            assert np.array_equal(reference_rank(Ea[rows, None, :] + Eb).ravel(), want)
            assert np.array_equal(engine._rank(Ea[rows, None, :], Eb).ravel(), want)
            assert np.array_equal(engine._rank(Ea[rows, None, :] + Eb).ravel(), want)
        kept = engine._cached_product_ranks(V, a, b)
        assert kept.dtype == np.int32 and np.array_equal(kept, reference_product_ranks(V, a, b))


def test_float_zero_rule_is_equals_zero():
    # a float coefficient is zero only when it equals zero: tiny and subnormal
    # ones are true terms, -0.0 and exact zeros are not stored, NaN is kept
    for c in (1e-305, 5e-324):
        p = Polynomial(1, {(1, 1): c, (0, 0): 1.0})
        assert p.terms == {(1, 1): c, (0, 0): 1.0}
        assert realify_unnormalized(p).terms == {(2, 0): c, (0, 2): c, (0, 0): 1.0}
    for c in (-0.0, 0.0, 0j, 0, Fraction(0), ExactComplex(0)):
        assert Polynomial(1, {(1, 1): c, (0, 0): 1.0}).terms == {(0, 0): 1.0}
    assert math.isnan(Polynomial(1, {(1, 1): math.nan}).terms[(1, 1)])
    # the criterion-3 Hamiltonian at rho = 1e-40: its remainder keeps the
    # terms below 1e-300 that a storage threshold there would drop
    V = Polynomial(2, {(3, 0, 0, 0): 0.4, (1, 2, 0, 0): -0.3, (0, 0, 2, 2): 0.25, (2, 0, 1, 1): 0.2})
    terms = birkhoff_normal_form(EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0).scaled(1e-40), m=4).remainder.terms
    small = [c for c in terms.values() if abs(c) < 1e-300]
    assert small and all(small)


def exact_digest(res):
    """SHA-256 of h_m, the remainder and the real generators, coefficient
    types and field tags included."""
    parts = [res.h_m, res.remainder, *res.generators_real]
    items = [[(k, c, getattr(c, "field", None)) for k, c in sorted(p.terms.items())] for p in parts]
    return hashlib.sha256(repr(items).encode()).hexdigest()


def kept_tables():
    """The kept tables besides the per-degree ones, by key: the chart-change
    tables of the layout and the product ranks of the engine."""
    kept = {key: t for key, t in poly._TABLES.items() if key[0] != "degree"}
    kept.update((("product", *key), t) for key, t in engine._PRODUCT_RANKS.items())
    return kept


def table_entries(t):
    return t.size if isinstance(t, np.ndarray) else sum(a.size for a in t)


def test_float_bracket_tables_and_blocks_are_bounded(monkeypatch):
    # with a small product budget and small row blocks, the product tables
    # stay under the budget, each kept chart-change stage is linear in its
    # piece, the exact outputs are unchanged and the float curve and normal
    # form agree with the default layout up to rounding
    V = Polynomial(2, {(3, 0, 0, 0): 0.4, (1, 2, 0, 0): -0.3, (0, 0, 2, 2): 0.25})
    H = EllipticHamiltonian((1.0, GOLDEN_F), V, s=4.0)
    want_curve = remainder_curve(H, m_max=5, radius=0.05)
    want = birkhoff_normal_form(H, m=4)
    Ve = Polynomial(2, {(3, 0, 0, 0): Fraction(2, 5), (0, 0, 2, 2): Fraction(1, 4)})
    He = EllipticHamiltonian(golden_alpha(), Ve, s=4.0)
    want_exact = exact_digest(birkhoff_normal_form(He, m=3, exact=True, qfield=GOLDEN))
    cap = 4000
    monkeypatch.setattr(poly, "_TABLES", {})
    monkeypatch.setattr(engine, "_PRODUCT_RANKS", {})
    monkeypatch.setattr(engine, "_PRODUCT_CACHE_ENTRIES", cap)
    monkeypatch.setattr(engine, "_BLOCK_ENTRIES", 64)
    got_curve = remainder_curve(H, m_max=5, radius=0.05)
    got = birkhoff_normal_form(H, m=4)
    assert exact_digest(birkhoff_normal_form(He, m=3, exact=True, qfield=GOLDEN)) == want_exact
    kept = kept_tables()
    products = [t for key, t in kept.items() if key[0] == "product"]
    assert products and sum(t.size for t in products) <= cap
    stages = [key for key in kept if key[0] == "fibers"]
    assert stages
    for key in stages:
        _, nv, d, _ = key
        assert table_entries(kept[key]) <= (d + 1) * math.comb(d + nv - 1, nv - 1)
    assert [m for m, _ in got_curve] == [m for m, _ in want_curve]
    for (_, g), (_, w) in zip(got_curve, want_curve):
        assert g == pytest.approx(w, rel=1e-12)
    for g, w in zip([got.remainder] + got.generators_real, [want.remainder] + want.generators_real):
        scale = max(abs(c) for c in w.terms.values())
        keys = set(g.terms) | set(w.terms)
        assert max(abs(g.terms.get(k, 0.0) - w.terms.get(k, 0.0)) for k in keys) <= 1e-13 * scale
    # with no room for products every product table is rebuilt per call, to
    # the same outputs, and the pair maps and fibers are kept all the same
    monkeypatch.setattr(poly, "_TABLES", {})
    monkeypatch.setattr(engine, "_PRODUCT_RANKS", {})
    monkeypatch.setattr(engine, "_PRODUCT_CACHE_ENTRIES", 0)
    assert remainder_curve(H, m_max=5, radius=0.05) == got_curve
    again = birkhoff_normal_form(H, m=4)
    for g, w in zip([again.remainder] + again.generators_real, [got.remainder] + got.generators_real):
        assert g.terms == w.terms
    assert exact_digest(birkhoff_normal_form(He, m=3, exact=True, qfield=GOLDEN)) == want_exact
    assert not engine._PRODUCT_RANKS
    assert kept_tables().keys() == {key for key in kept if key[0] != "product"}
    assert {key[0] for key in kept_tables()} == {"pair", "fibers"}


# a field whose w^2 = p w + q has non-integral p and q: w = (1 + sqrt 13) / 4
HALF = QuadField(Fraction(1, 2), Fraction(3, 4), (1 + math.sqrt(13)) / 4)
FIELDS = {"golden": GOLDEN, "sqrt2": SQRT2, "rational": RATIONAL, "half": HALF}


def random_terms(rng, n, d, field=GOLDEN):
    """Random sparse coefficients of a homogeneous chart piece of degree d in
    the field, as a dict exponent -> coefficient."""
    E = engine._degree(2 * n, d).E
    terms = {}
    for s in rng.choice(len(E), size=min(len(E), 6), replace=False):
        a, b, c, e = (Fraction(int(x), int(y)) for x, y in rng.integers(1, 7, size=(4, 2)))
        ext = () if field.trivial else (c, e)
        terms[tuple(E[s].tolist())] = ExactComplex(a, -b, *ext, field=field)
    return terms


def chart_piece(terms, d, n, exact=True):
    return poly._to_pieces(Polynomial(n, terms), exact)[d]


def chart_poly(p, d, n):
    return Polynomial(n, poly._to_terms({d: p}, n))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_chart_bracket_algebra(seed):
    rng = np.random.default_rng(seed)
    n, (df, dg, dh) = 2, (3, 3, 4)
    f, g, h = (chart_piece(random_terms(rng, n, d), d, n, True) for d in (df, dg, dh))

    def br(a, b, da, db):
        return engine._bracket(a, b, da, db, n)

    def P(p, d):
        return chart_poly(p, d, n)

    # antisymmetry
    assert (P(br(f, g, df, dg), df + dg - 2) + P(br(g, f, dg, df), df + dg - 2)).is_zero()
    # Leibniz: {f, gh} = {f, g} h + g {f, h}
    gh = P(g, dg) * P(h, dh)
    lhs = P(br(f, chart_piece(gh.terms, dg + dh, n, True), df, dg + dh), df + dg + dh - 2)
    rhs = P(br(f, g, df, dg), df + dg - 2) * P(h, dh) + P(g, dg) * P(br(f, h, df, dh), df + dh - 2)
    assert lhs == rhs
    # Jacobi
    d_all = df + dg + dh - 4
    fg, gh_, hf = br(f, g, df, dg), br(g, h, dg, dh), br(h, f, dh, df)
    total = (
        P(br(f, gh_, df, dg + dh - 2), d_all)
        + P(br(g, hf, dg, dh + df - 2), d_all)
        + P(br(h, fg, dh, df + dg - 2), d_all)
    )
    assert total.is_zero()


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("n", [1, 2])
def test_chart_bracket_realifies_to_poisson_bracket(exact, n):
    rng = np.random.default_rng(7 + n)

    def real_poly(d):
        terms = {}
        for k in itertools.product(range(d + 1), repeat=2 * n):
            if sum(k) == d and rng.random() < 0.6:
                terms[k] = Fraction(int(rng.integers(-9, 10)), 7) if exact else float(rng.normal())
        return Polynomial(n, terms)

    for df, dg in ((2, 3), (3, 3), (3, 5)):
        f, g = real_poly(df), real_poly(dg)
        cf, cg = (
            chart_piece(complexify_unnormalized(p, exact=exact).terms, d, n, exact)
            for p, d in ((f, df), (g, dg))
        )
        got = realify_unnormalized(chart_poly(engine._bracket(cf, cg, df, dg, n), df + dg - 2, n), exact=exact)
        want = poisson_bracket(f, g)
        if exact:
            assert got == want
        else:
            scale = max(abs(c) for c in want.terms.values())
            keys = set(got.terms) | set(want.terms)
            err = max(abs(got.terms.get(k, 0.0) - want.terms.get(k, 0.0)) for k in keys)
            assert err <= 1e-13 * scale


# -- the ExactComplex engine that integer numerators replaced, as the reference

_TWO_I, _I = ExactComplex(0, 2), ExactComplex(0, 1)


def ref_piece(terms, d, n):
    """A piece in the reference layout: ExactComplex coefficients in an object
    array, None in the empty slots; None when there is no term."""
    if not terms:
        return None
    p = np.full(math.comb(d + 2 * n - 1, 2 * n - 1), None, dtype=object)
    p[engine._rank(np.array(list(terms), dtype=np.intp))] = list(terms.values())
    return p


def ref_terms(p, d, n):
    if p is None:
        return {}
    return {tuple(e): c for e, c in zip(engine._degree(2 * n, d).E.tolist(), p.tolist()) if c}


def reference_bracket(f, g, df, dg, n, scale=1):
    """scale * {f, g} by a loop over pairs of nonzero slots in ExactComplex."""
    V = 2 * n
    size = math.comb(df + dg - 2 + V - 1, V - 1)
    fi = [i for i, c in enumerate(f.tolist()) if c is not None]
    gi = [i for i, c in enumerate(g.tolist()) if c is not None]
    Ef, Eg = engine._degree(V, df).E[fi], engine._degree(V, dg).E[gi]
    S = Ef[:, None, :] + Eg[None, :, :]
    factor, target = [], []
    for j in range(n):
        a = Ef[:, None, j] * Eg[None, :, n + j] - Ef[:, None, n + j] * Eg[None, :, j]
        drop = np.zeros(V, dtype=np.intp)
        drop[[j, n + j]] = 1
        factor.append(a.tolist())
        # where a == 0 the clipped exponents are never used
        target.append(reference_rank(np.maximum(S - drop, 0)).tolist())
    out = [None] * size
    for x, cf in enumerate(f[fi].tolist()):
        for y, cg in enumerate(g[gi].tolist()):
            c_pair = None
            for j in range(n):
                a = factor[j][x][y]
                if a:
                    if c_pair is None:
                        c_pair = cf * cg
                    c = c_pair * a
                    t = target[j][x][y]
                    out[t] = c if out[t] is None else out[t] + c
    return np.array([None if c is None else c * _TWO_I * scale for c in out], dtype=object)


def reference_generator(p, d, n, alpha):
    """chi_d: each non-resonant coefficient divided by i (k - l) . alpha."""
    chi = {}
    for k, c in ref_terms(p, d, n).items():
        if k[:n] != k[n:]:
            chi[k] = c / (_I * sum((x - y) * a for x, y, a in zip(k[:n], k[n:], alpha)))
    return ref_piece(chi, d, n)


def reference_normal_form(H, m):
    """h_m, the chart generators and the remainder at D_work = 2m + 4, by the
    reference bracket and generator on ExactComplex coefficients."""
    n, D = H.n, 2 * m + 4
    K = {k: c for k, c in complexify_unnormalized(H.V, exact=True).terms.items() if sum(k) <= D}
    for j, a in enumerate(H.alpha):
        K[tuple(int(i in (j, n + j)) for i in range(2 * n))] = ExactComplex(1) * a / 2

    def piece(terms, d):
        return ref_piece({k: c for k, c in terms.items() if sum(k) == d}, d, n)

    gens = []
    for d in range(3, 2 * m + 1):
        chi = reference_generator(piece(K, d), d, n, H.alpha)
        term, j = dict(K), 1
        while chi is not None and term:
            new = {}
            for dT in range(2, D - d + 3):
                p = piece(term, dT)
                if p is not None:
                    br = reference_bracket(p, chi, dT, d, n, Fraction(1, j))
                    new.update(ref_terms(br, dT + d - 2, n))
            for k, c in new.items():
                K[k] = K[k] + c if k in K else c
            K = {k: c for k, c in K.items() if c}
            term, j = new, j + 1
        # the homological equation cancels the non-resonant part exactly
        assert all(k[:n] == k[n:] for k in K if sum(k) == d)
        gens.append(ref_terms(chi, d, n))
    h = paired_part(Polynomial(n, {k: c for k, c in K.items() if sum(k) <= 2 * m}), True)
    rem = Polynomial(n, {k: c for k, c in K.items() if sum(k) > 2 * m})
    return h, gens, realify_unnormalized(rem, exact=True)


def field_alpha(field):
    if field.trivial:
        return (Fraction(1), Fraction(13, 8))
    return (ExactComplex(1, field=field), ExactComplex.omega(field))


def same(a: dict, b: dict) -> bool:
    """Equal as values and by repr, coefficient types and field tags included."""
    def items(t):
        return repr([(k, c, getattr(c, "field", None)) for k, c in sorted(t.items())])

    return a == b and items(a) == items(b)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", list(FIELDS))
def test_integer_bracket_and_generator_match_reference(name, seed):
    field, n = FIELDS[name], 2
    rng = np.random.default_rng(seed)
    V = Polynomial(n, {(3, 0, 0, 0): Fraction(1, 3)})
    H = EllipticHamiltonian(field_alpha(field), V, s=4.0)
    norm = engine._Normalizer(H, 6, 10, True)
    pieces = {d: random_terms(rng, n, d, field) for d in (3, 4, 5)}
    for (df, f), (dg, g) in itertools.product(pieces.items(), repeat=2):
        fp, gp = chart_piece(f, df, n, True), chart_piece(g, dg, n, True)
        fr, gr = ref_piece(f, df, n), ref_piece(g, dg, n)
        for j in (1, 3):
            got = poly._to_terms({df + dg - 2: engine._bracket(fp, gp, df, dg, n, j)}, n)
            want = ref_terms(reference_bracket(fr, gr, df, dg, n, Fraction(1, j)), df + dg - 2, n)
            assert same(got, want)
    for d, terms in pieces.items():
        got = poly._to_terms({d: norm._generator(chart_piece(terms, d, n, True), d)}, n)
        want = ref_terms(reference_generator(ref_piece(terms, d, n), d, n, H.alpha), d, n)
        assert same(got, want)
    alpha = [ExactComplex(1) * a for a in H.alpha]
    divisors = [
        abs(sum((x - y) * a for x, y, a in zip(k[:n], k[n:], alpha)).to_complex().real)
        for terms in pieces.values()
        for k in terms
        if k[:n] != k[n:]
    ]
    assert norm.smallest_divisor == min(divisors)


@pytest.mark.parametrize("name", list(FIELDS))
def test_integer_normal_form_matches_reference(name):
    field, n, m = FIELDS[name], 2, 3
    rng = np.random.default_rng(11)
    terms = {}
    for k in itertools.product(range(4), repeat=2 * n):
        if sum(k) in (3, 4) and rng.random() < 0.06:
            terms[k] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
    H = EllipticHamiltonian(field_alpha(field), Polynomial(n, terms), s=4.0)
    res = birkhoff_normal_form(H, m=m, exact=True)
    h, gens, rem = reference_normal_form(H, m)
    assert same(res.h_m.terms, h.terms)
    assert len(res.generators) == len(gens)
    assert all(same(g.terms, want) for g, want in zip(res.generators, gens))
    assert same(res.remainder.terms, rem.terms)


@pytest.mark.parametrize("k", [(0, 1, 1, 2), (3, 0, 0, 0)])
def test_two_extensions_do_not_mix(k):
    # the field is fixed from alpha and V before any step, so a sqrt(2)
    # coefficient is refused with golden frequencies also where no product
    # would meet both (q_1^3 only ever meets the rational alpha_1)
    V = Polynomial(2, {k: ExactComplex(1, 0, 1, 0, field=SQRT2)})
    H = EllipticHamiltonian(golden_alpha(), V, s=4.0)
    with pytest.raises(TypeError, match="cannot mix two distinct quadratic extensions"):
        birkhoff_normal_form(H, m=2, exact=True)


def test_order_too_high_is_raised_before_any_table_is_built():
    # in a fresh interpreter: importing builds no table, and a refused order
    # builds none either
    script = """
import math
from hamlab import poly
from hamlab.birkhoff import MONOMIAL_BUDGET, birkhoff_normal_form, remainder_curve
from hamlab.errors import OrderTooHigh
from hamlab.model import EllipticHamiltonian
from hamlab.poly import Polynomial
assert not poly._TABLES
H = EllipticHamiltonian((1.0, 1.618), Polynomial(2, {(3, 0, 0, 0): 0.1}), s=4.0)
assert math.comb(200 + 4, 4) > MONOMIAL_BUDGET
for run in (lambda: birkhoff_normal_form(H, m=2, D_work=200), lambda: remainder_curve(H, m_max=98)):
    try:
        run()
    except OrderTooHigh:
        pass
    else:
        raise AssertionError("no OrderTooHigh")
assert not poly._TABLES
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(engine.__file__).parents[1])] + sys.path))
    subprocess.run([sys.executable, "-c", script], check=True, env=env)


@pytest.mark.parametrize(
    "qfield, digest",
    [
        (GOLDEN, "f4a941fc182d901c7a26735aab5532a9cdf46447a2cb72a5ab6a7c9766974c81"),
        (SQRT2, "00a0fe89c4822aa552d6b67bc016987ed36a5b7da451abc1b8da7b3467bcb5e5"),
        (RATIONAL, "034ce742d353e3547ab869801fcb1af0beb36074347b127b4108c4358ec05690"),
    ],
)
def test_exact_outputs_are_pinned(qfield, digest):
    # digests recorded from the substitution chart change (the extension-field
    # ones again once field tags followed values); a change of value,
    # coefficient type or field tag in any output changes them
    if qfield.trivial:
        alpha = (Fraction(1), Fraction(13, 8))
        V = Polynomial(2, {(2, 0, 1, 0): Fraction(1, 3), (0, 1, 1, 2): Fraction(-2, 5)})
    else:
        alpha = (ExactComplex(1, field=qfield), ExactComplex.omega(qfield))
        V = Polynomial(2, {(0, 1, 1, 2): Fraction(7, 10), (1, 0, 0, 3): Fraction(-9, 10)})
    res = birkhoff_normal_form(EllipticHamiltonian(alpha, V, s=4.0), m=3, exact=True, qfield=qfield)
    assert exact_digest(res) == digest


def value_digest(res):
    """SHA-256 of h_m, the remainder and the real generators by key and the
    four components of each coefficient, without its type or field tag."""

    def parts(c):
        return (c.ar, c.ai, c.br, c.bi) if isinstance(c, ExactComplex) else (Fraction(c), 0, 0, 0)

    ps = [res.h_m, res.remainder, *res.generators_real]
    items = [[(k, *map(str, parts(c))) for k, c in sorted(p.terms.items())] for p in ps]
    return hashlib.sha256(repr(items).encode()).hexdigest()


def extension_alpha(qfield, *more):
    return (ExactComplex(1, field=qfield), ExactComplex.omega(qfield), *more)


_MIXED_V = {(2, 0, 1, 0): Fraction(1, 3), (0, 1, 1, 2): Fraction(-2, 5)}
# the bnf_exact benchmark input: a fixed quartic support whose signs vary
_SIGNED_V = {(0, 1, 1, 2): Fraction(7, 10), (1, 0, 0, 3): Fraction(9, 10)}
_CORPUS = {
    "golden-n2-m2": (extension_alpha(GOLDEN), _MIXED_V, 2),
    "golden-n2-m3": (extension_alpha(GOLDEN), _MIXED_V, 3),
    "sqrt2-n2-m3": (extension_alpha(SQRT2), _MIXED_V, 3),
    "rational-n1-m4": ((Fraction(1),), {(3, 0): Fraction(1, 3), (1, 2): Fraction(-1, 2), (2, 2): Fraction(3, 7)}, 4),
    "rational-n2-m3": ((Fraction(1), Fraction(13, 8)), _MIXED_V, 3),
    "golden-n3-m2": (
        extension_alpha(GOLDEN, ExactComplex(3, 0, 2, 0, field=GOLDEN)),
        {(2, 0, 0, 1, 0, 0): Fraction(1, 3), (0, 1, 1, 0, 0, 1): Fraction(-2, 5), (0, 0, 0, 2, 1, 1): Fraction(1, 2)},
        2,
    ),
}
for _signs in itertools.product((1, -1), repeat=2):
    _CORPUS["bnf_exact%+d%+d-m3" % _signs] = (
        extension_alpha(GOLDEN),
        {k: s * c for (k, c), s in zip(_SIGNED_V.items(), _signs)},
        3,
    )
# recorded under the former rule that a result takes the field tag of its
# left operand: no tag rule may move a value
_VALUE_DIGESTS = {
    "golden-n2-m2": "e56539472dc24b6e1e7d2e52870deee428d6632ddb05837aa2ebc675d540abeb",
    "golden-n2-m3": "f640b27e8f2cec60bf4a03b158c9370b9266ea30538b1e24e4f28ff66a0236b4",
    "sqrt2-n2-m3": "2721908364fa3aca61a20e8dd1f056f1f18a4498e7ed1f7aeb2eff5d96095f40",
    "rational-n1-m4": "ffeb3bbe6f3ab4ad436d55b80d26f3d063b7e9c18edc289ed5f25e0fbf9f7ccb",
    "rational-n2-m3": "16a769f610fd5267327dab176faeaab478e15b109719ccb061b77ec66ff56f84",
    "golden-n3-m2": "9530065385ba6d853d941797f7682927951ee3715baa3a13f80aa40fe12a134d",
    "bnf_exact+1+1-m3": "b127a00b7be1549849d80112d3cdd8f0240b3b42755d4c09147019b83568cb75",
    "bnf_exact+1-1-m3": "a0f0adc40ec9708f4a50bd7e9f6ec018175ace51fc14ac4d8f1b4930b06fb975",
    "bnf_exact-1+1-m3": "38f5d41ce91d9193de584de3bc894a7db0aa5470493f6b4f0bdf5c2a5d6316dc",
    "bnf_exact-1-1-m3": "05d809e84b049081d82564ceaaaad61039de06fae77f83099e37d46cd4df8825",
}


@pytest.mark.parametrize("case", list(_CORPUS))
def test_exact_values_and_types_are_pinned(case):
    # values are pinned by digest; coefficient types follow from them: h_m
    # holds ExactComplex coefficients exactly when a frequency has an
    # extension part, and a real output coefficient is an ExactComplex
    # exactly when it has one
    alpha, V, m = _CORPUS[case]
    H = EllipticHamiltonian(alpha, Polynomial(len(alpha), V), s=4.0)
    qfield = getattr(alpha[-1], "field", RATIONAL)
    res = birkhoff_normal_form(H, m=m, exact=True, qfield=qfield)
    assert value_digest(res) == _VALUE_DIGESTS[case]
    extension = any(isinstance(a, ExactComplex) and a.br for a in alpha)
    assert {type(c) for c in res.h_m.terms.values()} == {ExactComplex if extension else Fraction}
    for p in [res.remainder, *res.generators_real]:
        for c in p.terms.values():
            assert type(c) is (ExactComplex if isinstance(c, ExactComplex) and c.br else Fraction)


def test_float_outputs_have_the_exact_term_sets():
    # realification drops the rounding residue of exact zeros, so on rational
    # input the float remainder and generators have exact mode's monomials
    V = Polynomial(
        2,
        {
            (1, 2, 2, 0): Fraction(-8),
            (0, 0, 1, 2): Fraction(1, 5),
            (0, 0, 4, 1): Fraction(-4, 7),
            (2, 1, 1, 1): Fraction(5, 6),
            (3, 0, 1, 1): Fraction(-8, 3),
        },
    )
    He = EllipticHamiltonian((Fraction(1), Fraction(13, 8)), V, s=4.0)
    Hf = EllipticHamiltonian((1.0, 13 / 8), V.to_float(), s=4.0)
    for m in (2, 3):
        re = birkhoff_normal_form(He, m=m, exact=True)
        rf = birkhoff_normal_form(Hf, m=m)
        assert set(rf.remainder.terms) == set(re.remainder.terms)
        assert [set(g.terms) for g in rf.generators_real] == [set(g.terms) for g in re.generators_real]


# -- the chart boundary: pieces in and out against the dict formulas -------------

_BOUNDARY = {
    "float-random": (None, None),
    "float-sqrt2": (extension_alpha(SQRT2), False),
    "exact-sqrt2": (extension_alpha(SQRT2), True),
    "exact-golden": (extension_alpha(GOLDEN), True),
    "exact-rational": ((Fraction(1), Fraction(13, 8)), True),
}


def boundary_hamiltonian(case):
    alpha, exact = _BOUNDARY[case]
    if alpha is None:
        # numpy's complex abs, against Python's, moves this H's majorants
        rng = np.random.default_rng(2)
        support = [k for k in itertools.product(range(4), repeat=4) if 3 <= sum(k) <= 5]
        V = {support[i]: float(rng.uniform(-0.4, 0.4)) for i in rng.choice(len(support), 9, replace=False)}
        return EllipticHamiltonian((1.0, (1 + 5**0.5) / 2), Polynomial(2, V), s=4.0), False
    # the bnf_exact input: scaling a partial after the float conversion, not
    # on the integer numerators, moves its extension-field displacement
    return EllipticHamiltonian(alpha, Polynomial(2, _SIGNED_V), s=4.0), exact


def majorant_reference(chart: dict, radius: float):
    """(total, tail, ratio) from the per-degree sums fsum |c| (2r)^d over the
    chart terms of degrees in ``chart`` (degree -> dict), in order."""
    per = [math.fsum(abs(c) for c in t.values()) * (2.0 * radius) ** d for d, t in chart.items()]
    tail = ratio = 0.0
    if len(per) >= 2 and per[-1] > 0.0:
        ratio = per[-1] / per[-2] if per[-2] > 0.0 else math.inf
        tail = per[-1] * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    return math.fsum(per), tail, ratio


def displacement_reference(res):
    """The sum over generators of max_i of the majorant norm of d chi / d z_i
    at the radius, on the real generators as dicts."""
    return sum(
        max(g.partial(i).majorant_norm(res.radius) for i in range(2 * g.n))
        for g in res.generators_real
        if g.terms
    )


@pytest.mark.parametrize("radius", [None, 0.3])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("case", list(_BOUNDARY))
def test_chart_boundary_matches_the_dict_formulas(case, m, radius):
    H, exact = boundary_hamiltonian(case)
    n, D_work = H.n, 2 * m + 4
    res = birkhoff_normal_form(H, m=m, exact=exact, radius=radius)
    norm = engine._Normalizer(H, 2 * m, D_work, exact)
    for d in range(3, 2 * m + 1):
        norm.normalize_degree(d)
    chart = {d: poly._to_terms({d: norm.K[d]}, n) for d in range(2 * m + 1, D_work + 1)}
    # the remainder and the generators leave the chart as the public
    # realification of their chart terms would take them
    terms = {k: c for t in chart.values() for k, c in t.items()}
    assert same(res.remainder.terms, realify_unnormalized(Polynomial(n, terms), exact=exact).terms)
    assert len(res.generators) == len(res.generators_real) == 2 * m - 2
    for g, gr in zip(res.generators, res.generators_real):
        assert same(gr.terms, realify_unnormalized(g, exact=exact).terms)
    # both scalars read off the pieces are the dict formulas, to the bit
    want = majorant_reference(chart, res.radius)
    assert norm.remainder_majorant(m, [res.radius]) == [want]
    assert (res.tail_bound, res.tail_ratio) == want[1:]
    assert res.transform_displacement == displacement_reference(res) > 0.0


_HM_ALPHA = {
    "float": [(1.0,), (1.0, GOLDEN_F), (1.0, GOLDEN_F, math.sqrt(2.0))],
    "rational": [(Fraction(1),), (Fraction(1), Fraction(13, 8)), (Fraction(1), Fraction(13, 8), Fraction(37, 23))],
    "golden": [
        (ExactComplex.omega(GOLDEN),),
        golden_alpha(),
        (*golden_alpha(), ExactComplex(Fraction(7, 5), 0, Fraction(3, 11), field=GOLDEN)),
    ],
}


def h_m_normalizer(kind, n, m):
    """A normalizer taken through degree 2m, on H with the frequencies of
    ``kind`` and a random rational cubic and quartic V (floats in float mode)."""
    rng = np.random.default_rng(10 * n + m)
    support = [k for k in itertools.product(range(5), repeat=2 * n) if sum(k) in (3, 4)]
    V = {support[i]: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8))) for i in rng.choice(len(support), 5)}
    V, exact = Polynomial(n, V), kind != "float"
    H = EllipticHamiltonian(_HM_ALPHA[kind][n - 1], V if exact else V.to_float(), s=4.0)
    norm = engine._Normalizer(H, 2 * m, 2 * m + 4, exact)
    for d in range(3, 2 * m + 1):
        norm.normalize_degree(d)
    return norm


# an exact n = 3 normal form to degree 12 takes minutes, so only float goes there
@pytest.mark.parametrize(
    "kind, n, m",
    [(k, n, m) for k in _HM_ALPHA for n in (1, 2, 3) for m in (2, 3, 4) if k == "float" or n + m < 7],
)
def test_h_m_read_off_the_pieces_matches_the_paired_part_of_the_chart_terms(kind, n, m):
    norm = h_m_normalizer(kind, n, m)
    even = poly._to_terms({d: norm.K[d] for d in range(2, 2 * m + 1, 2)}, n)
    want = paired_part(Polynomial(n, even), norm.exact)
    got = norm.h_of_order(m)
    assert repr(got) == repr(want) and same(got.terms, want.terms)
    types = {"float": float, "rational": Fraction, "golden": ExactComplex}
    assert {type(c) for c in got.terms.values()} == {types[kind]} and got.degree() == m


def test_a_non_real_exact_paired_slot_is_not_action_representable():
    norm = h_m_normalizer("golden", 2, 2)
    X, den, field = norm.K[4]
    X = X.copy()
    X[np.flatnonzero(engine._degree(4, 4).paired)[1], 1] = 3
    norm.K[4] = (X, den, field)
    even = poly._to_terms({d: norm.K[d] for d in (2, 4)}, 2)
    with pytest.raises(NotActionRepresentable, match="non-real exact coefficient") as want:
        paired_part(Polynomial(2, even), True)
    with pytest.raises(NotActionRepresentable, match="non-real exact coefficient") as got:
        norm.h_of_order(2)
    assert str(got.value) == str(want.value)
