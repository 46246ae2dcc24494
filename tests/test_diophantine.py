"""Small-divisor probes: shells, resonance detection, gamma and tau estimates."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hamlab.errors import ResonantFrequency
from hamlab.diophantine import (
    DiophantineEstimate,
    check_nonresonant,
    envelope,
    estimate_gamma,
    fit_tau,
    shell_array,
    zero_tolerance,
)
from hamlab.exactnum import ExactComplex

GOLDEN = (1 + math.sqrt(5)) / 2


def test_shell_array_counts_and_halving():
    # |k|_1 = s in Z^2 has 4s points; we keep one of each {k, -k} pair
    for s in (1, 2, 5):
        ks = shell_array(2, s)
        assert ks.shape == (2 * s, 2)
        assert np.all(np.abs(ks).sum(axis=1) == s)
    # representative convention: first nonzero entry is positive
    for k in shell_array(3, 3):
        nz = k[k != 0]
        assert nz[0] > 0


def test_shell_array_no_duplicates_against_brute_force():
    import itertools

    s, n = 4, 3
    ks = {tuple(k) for k in shell_array(n, s)}
    brute = set()
    for k in itertools.product(range(-s, s + 1), repeat=n):
        if sum(abs(x) for x in k) != s:
            continue
        nz = [x for x in k if x != 0]
        if nz[0] > 0:
            brute.add(k)
    assert ks == brute


def test_check_nonresonant_detects_rational_resonance():
    # alpha = (1, 2): k = (2, -1) kills it at order 3
    rep = check_nonresonant((1, 2), 4)
    assert rep.resonant
    assert rep.min_abs == 0.0
    k = rep.witness
    assert abs(k[0] * 1 + k[1] * 2) == 0


def test_check_nonresonant_irrational_pair():
    rep = check_nonresonant((1.0, math.sqrt(2.0)), 12)
    assert not rep.resonant
    assert rep.witness is None
    assert rep.min_abs > zero_tolerance((1.0, math.sqrt(2.0)), 12)


def test_check_nonresonant_single_frequency():
    rep = check_nonresonant((3.0,), 6)
    assert not rep.resonant
    assert rep.min_abs == pytest.approx(3.0)


def test_check_nonresonant_near_resonance_stays_nonresonant():
    # close to (1, 2) but genuinely irrational: flagged nonresonant at small order
    rep = check_nonresonant((1.0, 2.0 + 1e-7), 3)
    assert not rep.resonant


def test_estimate_gamma_matches_brute_force():
    alpha = (1.0, GOLDEN)
    K, tau = 30, 1.0
    est = estimate_gamma(alpha, tau, K)
    assert isinstance(est, DiophantineEstimate)
    best = math.inf
    import itertools

    for k in itertools.product(range(-K, K + 1), repeat=2):
        s = abs(k[0]) + abs(k[1])
        if s == 0 or s > K:
            continue
        best = min(best, abs(k[0] + k[1] * GOLDEN) * s**tau)
    assert est.gamma_hat == pytest.approx(best, rel=1e-12)
    kk = est.argmin_k
    s = sum(abs(x) for x in kk)
    assert abs(kk[0] + kk[1] * GOLDEN) * s**tau == pytest.approx(est.gamma_hat)


def test_estimate_gamma_monotone_in_K():
    alpha = (1.0, GOLDEN)
    g1 = estimate_gamma(alpha, 1.0, 10).gamma_hat
    g2 = estimate_gamma(alpha, 1.0, 100).gamma_hat
    assert g2 <= g1
    # golden ratio is badly approximable: gamma stays bounded away from 0
    assert g2 > 0.2


def test_estimate_gamma_grows_with_tau():
    alpha = (1.0, math.sqrt(2.0))
    g_low = estimate_gamma(alpha, 1.0, 50).gamma_hat
    g_high = estimate_gamma(alpha, 2.0, 50).gamma_hat
    assert g_high >= g_low


def test_estimate_gamma_raises_on_resonance():
    with pytest.raises(ResonantFrequency):
        estimate_gamma((1, 2), 1.0, 5)


@pytest.mark.parametrize("tau", [-0.5, math.nan])
def test_estimate_gamma_refuses_a_negative_or_nan_tau(tau):
    with pytest.raises(ValueError, match="tau must be >= 0"):
        estimate_gamma((1.0, GOLDEN), tau, 10)


def test_envelope_is_strictly_decreasing_and_matches_shell_minima():
    alpha = (1.0, GOLDEN)
    records = envelope(alpha, 60)
    vals = [v for _, v, _ in records]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # each record really is the minimum over its shell
    for s, v, k in records[:5]:
        ks = shell_array(2, s)
        assert v == pytest.approx(float(np.min(np.abs(ks @ np.array(alpha)))))


def test_fit_tau_golden_pair():
    # the golden pair has Diophantine exponent 1 (constant-type continued fraction)
    tau, resid = fit_tau((1.0, GOLDEN), 2000)
    assert tau == pytest.approx(1.0, abs=0.2)
    assert resid < 0.5


def test_fit_tau_cubic_triple():
    c = 2.0 ** (1.0 / 3.0)
    tau, _ = fit_tau((1.0, c, c * c), 60)
    assert 1.0 < tau < 4.0


def test_fit_tau_flat_for_single_frequency():
    tau, resid = fit_tau((1.0,), 50)
    assert tau == 0.0 and resid == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        estimate_gamma((1.0, GOLDEN), -1.0, 10)
    with pytest.raises(ValueError):
        estimate_gamma((1.0, GOLDEN), 1.0, 0)
    with pytest.raises(ValueError):
        fit_tau((1.0, GOLDEN), 5)


# -- brute-force references ------------------------------------------------------


def _half_ball(n, K):
    """All k in Z^n with 0 < |k|_1 <= K and positive first nonzero entry, in
    lexicographic order, and their l1 norms: a scan of the cube [-K, K]^n."""
    r = np.arange(-K, K + 1, dtype=np.int8)
    ks = np.stack(np.meshgrid(*[r] * n, indexing="ij"), -1).reshape(-1, n)
    norms = np.abs(ks).sum(axis=1)
    first = ks[np.arange(len(ks)), np.argmax(ks != 0, axis=1)]
    keep = (norms > 0) & (norms <= K) & (first > 0)
    return ks[keep].astype(np.int64), norms[keep]


def test_shell_array_matches_cube_scan():
    for n in range(1, 5):
        ks, norms = _half_ball(n, 12)
        for s in range(13):
            got = shell_array(n, s)
            want = ks[norms == s]
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want), (n, s)


def _shell_minima(alpha, K):
    ks, norms = _half_ball(len(alpha), K)
    a = np.asarray(alpha, dtype=float)
    out = []
    for s in range(1, K + 1):
        shell = ks[norms == s]
        vals = np.abs(shell @ a)
        i = int(np.argmin(vals))
        out.append((s, float(vals[i]), tuple(int(x) for x in shell[i])))
    return out


@pytest.mark.parametrize(
    "alpha, K",
    [
        ((1.0, GOLDEN), 30),
        ((1.0, GOLDEN), 100),
        ((1.0, math.sqrt(2.0)), 50),
        ((1.0, 2.0 ** (1.0 / 3.0), 2.0 ** (2.0 / 3.0)), 60),
        ((1.0,), 50),
        # |k.alpha| = 0.25 on shells 4 and 13, below the first resonance at 17
        ((1.0, 3.25), 16),
    ],
)
def test_estimates_match_cube_scan(alpha, K):
    minima = _shell_minima(alpha, K)
    records, running = [], math.inf
    for s, v, k in minima:
        if v < running:
            records.append((s, v, k))
            running = v
    assert envelope(alpha, K) == records
    for tau in (1.0, 2.0):
        best = min(minima, key=lambda r: r[1] * float(r[0]) ** tau)
        est = estimate_gamma(alpha, tau, K)
        assert (est.gamma_hat, est.argmin_k) == (best[1] * float(best[0]) ** tau, best[2])
    if len(records) >= 2:
        x = np.log([s for s, _, _ in records])
        y = np.log([1.0 / v for _, v, _ in records])
        slope, intercept = np.polyfit(x, y, 1)
        resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
        assert fit_tau(alpha, K) == (float(slope), resid)
    else:
        assert fit_tau(alpha, K) == (0.0, 0.0)


@pytest.mark.parametrize("rows", [1, 5, 64])
def test_shell_block_size_does_not_change_results(rows, monkeypatch):
    """Shells are swept in blocks of about blocks.BLOCK_ROWS rows: tiny blocks
    put a boundary after almost every shell, and every result must stay the
    same, and equal to the cube scan."""
    from hamlab import blocks

    cases = [
        ((1.0, GOLDEN), 100),
        ((1.0, 2.0 ** (1.0 / 3.0), 2.0 ** (2.0 / 3.0)), 30),
        ((1.0,), 20),
        ((1.0, 0.71, 0.37, 0.113), 12),
    ]

    def results(alpha, K):
        return (
            envelope(alpha, K),
            estimate_gamma(alpha, 1.5, K),
            check_nonresonant(alpha, K),
            fit_tau(alpha, max(K, 10)),
        )

    def witness(alpha, K):
        with pytest.raises(ResonantFrequency) as err:
            estimate_gamma(alpha, 1.0, K)
        return err.value.witness, err.value.value, check_nonresonant(alpha, K)

    want = {case: results(*case) for case in cases}
    resonant = [((1, 2), 5), ((1.0, 2.0, 3.0), 6), ((0.5, 1.5), 9)]
    want_witness = {case: witness(*case) for case in resonant}
    monkeypatch.setattr(blocks, "BLOCK_ROWS", rows)
    for alpha, K in cases:
        got = results(alpha, K)
        assert got == want[alpha, K]
        minima = _shell_minima(alpha, K)
        assert [(s, v, k) for s, v, k in minima if v < min([m for _, m, _ in minima[: s - 1]], default=math.inf)] == got[0]
        best = min(minima, key=lambda r: r[1] * float(r[0]) ** 1.5)
        assert (got[1].gamma_hat, got[1].argmin_k) == (best[1] * float(best[0]) ** 1.5, best[2])
    for alpha, K in resonant:
        assert witness(alpha, K) == want_witness[alpha, K]
        # the first shell with a minimum below its zero tolerance, and its
        # lexicographically first minimizer
        s, v, k = next(r for r in _shell_minima(alpha, K) if r[1] < zero_tolerance(alpha, r[0]))
        assert witness(alpha, K)[:2] == (k, v)
    for n in (1, 2, 3):
        ks, norms = _half_ball(n, 9)
        for s in range(10):
            assert np.array_equal(shell_array(n, s), ks[norms == s])


def test_shell_sweep_builds_its_blocks_through_shell_array(monkeypatch):
    """Every block of the sweep is one shell_array call over its shells, so
    a wrapper of shell_array sees each vector of shells 1..K exactly once."""
    from hamlab import diophantine

    seen = []

    def recording(n, s):
        ks = shell_array(n, s)
        seen.append(ks)
        return ks

    monkeypatch.setattr(diophantine, "shell_array", recording)
    estimate_gamma((1.0, 2.0 ** (1.0 / 3.0), 2.0 ** (2.0 / 3.0)), 1.5, 40)
    ks, norms = _half_ball(3, 40)
    assert len(seen) >= 1
    # the cube scan is in lexicographic order: a stable sort by l1 norm gives
    # the shells one after the other
    assert np.array_equal(np.concatenate(seen), ks[np.argsort(norms, kind="stable")])
    assert np.array_equal(shell_array(3, [2, 0, 1]), np.concatenate([shell_array(3, 2), shell_array(3, 1)]))


@pytest.mark.parametrize("alpha", [(1.0, math.nan), (math.inf, 1.0)])
def test_non_finite_frequencies_are_refused(alpha):
    for probe in (
        lambda: check_nonresonant(alpha, 5),
        lambda: estimate_gamma(alpha, 1.0, 5),
        lambda: envelope(alpha, 5),
        lambda: fit_tau(alpha, 20),
    ):
        with pytest.raises(ValueError, match="finite"):
            probe()


def test_non_real_frequencies_are_refused():
    # the imaginary part of an exact frequency is refused, not dropped
    alpha = (ExactComplex(1, 1), 2.0)
    for probe in (
        lambda: check_nonresonant(alpha, 5),
        lambda: estimate_gamma(alpha, 1.0, 5),
        lambda: envelope(alpha, 5),
        lambda: fit_tau(alpha, 20),
    ):
        with pytest.raises(ValueError, match="real"):
            probe()
    assert estimate_gamma((ExactComplex(1), 2.5), 1.0, 5) == estimate_gamma((1.0, 2.5), 1.0, 5)


@pytest.mark.parametrize("alpha", [(), [], np.zeros(0)], ids=["tuple", "list", "array"])
def test_an_empty_frequency_vector_is_refused(alpha):
    for probe in (
        lambda: check_nonresonant(alpha, 5),
        lambda: estimate_gamma(alpha, 1.0, 5),
        lambda: envelope(alpha, 5),
        lambda: fit_tau(alpha, 20),
        lambda: zero_tolerance(alpha, 3),
    ):
        with pytest.raises(ValueError, match="need at least one frequency"):
            probe()


@pytest.mark.parametrize(
    "alpha, witness",
    [
        # 5e-12 is above the shell-2 tolerance 2e-12, though below the
        # order-wide 1e-12 K max|alpha| = 1e-11
        ((1.0, 1.0 + 5e-12), None),
        # non-resonant by the exact test, although |(2, -1).alpha| rounds to
        # 8.9e-16, far below the float tolerance of shell 3
        ((Fraction(1), 2 + Fraction(1, 10**15)), None),
        # in floats (0, 1, -1), (2, -1, 0) and (2, 0, -1) all give 0; only the
        # last is an exact zero, and it is not the float minimizer of shell 3
        ((Fraction(1), 2 + Fraction(1, 10**17), Fraction(2)), (2, 0, -1)),
        ((1, 2), (2, -1)),
        ((0.0, 0.0), (1, 0)),
    ],
)
def test_one_resonance_rule(alpha, witness):
    """check_nonresonant, estimate_gamma, envelope and fit_tau agree on
    whether alpha is resonant up to K = 10, and on the witness."""
    rep = check_nonresonant(alpha, 10)
    assert rep.witness == witness and rep.resonant == (witness is not None)
    probes = (lambda: estimate_gamma(alpha, 0.0, 10), lambda: envelope(alpha, 10), lambda: fit_tau(alpha, 10))
    if rep.resonant:
        for probe in probes:
            with pytest.raises(ResonantFrequency) as err:
                probe()
            assert (err.value.witness, err.value.value) == (witness, rep.min_abs)
    else:
        assert probes[0]().gamma_hat == rep.min_abs
        for probe in probes[1:]:
            probe()  # does not raise
