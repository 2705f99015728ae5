"""Forbidden patterns, class coefficients and the certification bound."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import seed_lambda_coefficients
from photherm import certify, fock, hamiltonian, linalg

RING = hamiltonian.HamiltonianSpec(kind="hopping", modes=4)


def test_forbidden_set_three_photons():
    fs = certify.forbidden_patterns(3, 4)
    assert set(fs.allowed) == {(1, 1, 1, 0), (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0)}
    assert len(fs.patterns) == 6
    assert (2, 1, 0, 0) in fs.patterns
    # criterion by hand: (2,1,0,0) -> 1-based assignment (1,1,2), sum 4, 4 mod 3 != 0
    assert (1, 1, 1, 0) not in fs.patterns


def test_forbidden_patterns_are_suppressed():
    for n in (2, 3, 4):
        u = linalg.fourier(n, n)
        fs = certify.forbidden_patterns(n, n)
        r = (1,) * n
        for s in fs.patterns:
            assert fock.prob_indistinguishable(u, r, s) < 1e-12


def test_forbidden_period_two():
    fs = certify.forbidden_patterns(2, 2, period=1)
    assert fs.patterns == ((1, 1),)
    with pytest.raises(ValueError):
        certify.forbidden_patterns(3, 4, period=2)


def test_lambda_constants():
    lams = certify.lambda_coefficients(3, 4)
    assert [sizes for sizes, _ in lams] == [(2, 1), (1, 1, 1)]
    assert abs(lams[0][1] - 4 / 9) < 1e-12
    assert abs(lams[1][1] - 2 / 3) < 1e-12


def test_lambda_two_photons():
    # one distinguishable pair on the balanced splitter: classical coincidence rate
    lams = certify.lambda_coefficients(2, 2)
    assert lams == [((1, 1), pytest.approx(0.5, abs=1e-12))]


def test_lambda_capacity_and_validation():
    with pytest.raises(ValueError):
        certify.lambda_coefficients(7, 7)
    with pytest.raises(ValueError):
        certify.lambda_coefficients(3, 2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lambda_matches_seed_product_loop(n):
    seed = seed_lambda_coefficients(n, n + 1)
    lams = certify.lambda_coefficients(n, n + 1)
    assert [sizes for sizes, _ in lams] == sorted(seed, key=lambda c: (len(c), c))
    for sizes, lam in lams:
        assert abs(lam - float(np.mean(seed[sizes]))) < 1e-12


def test_lambda_monte_carlo_agrees():
    for sizes, lam in certify.lambda_coefficients(3, 4):
        est, sigma = certify.lambda_monte_carlo(3, 4, sizes, 20_000, seed=3)
        assert abs(est - lam) < 4 * sigma


def test_estimate_p1():
    samples = [(1, 1, 1, 0)] * 8 + [(3, 0, 0, 0)] * 2
    p1, k = certify.estimate_p1(samples, (1, 1, 1, 0))
    assert (p1, k) == (0.8, 10)
    with pytest.raises(ValueError):
        certify.estimate_p1([], (1, 1, 1, 0))


def test_estimate_p2():
    fs = certify.forbidden_patterns(3, 4)
    samples = [(2, 1, 0, 0), (1, 1, 1, 0), (0, 3, 0, 0), (1, 0, 2, 0)]
    p2, k = certify.estimate_p2(samples, fs)
    assert (p2, k) == (0.5, 4)


def test_estimate_p2_distinguishable_asymptotic():
    """Fully distinguishable photons hit the forbidden set with the all-singleton weight."""
    u = linalg.fourier(3, 4)
    dist = fock.output_distribution(u, (1, 1, 1, 0), fock.MODEL_DISTINGUISHABLE)
    samples = fock.sample(dist, 50_000, 12)
    p2, _ = certify.estimate_p2(samples, certify.forbidden_patterns(3, 4))
    sigma = math.sqrt((2 / 3) * (1 / 3) / 50_000)
    assert abs(p2 - 2 / 3) < 4 * sigma


def test_chebyshev_delta():
    assert certify.chebyshev_delta(0.0, 100, 0.5) == 0.0
    hand = math.sqrt(0.5 / (1000.0 * math.log(10.0)))
    assert abs(certify.chebyshev_delta(0.25, 1000, 0.1) - hand) < 1e-15
    # quadrupling the sample count halves the penalty
    d1 = certify.chebyshev_delta(0.25, 500, 0.2)
    d4 = certify.chebyshev_delta(0.25, 2000, 0.2)
    assert abs(d4 - 0.5 * d1) < 1e-15
    for bad in (0.0, 1.0, -0.1, 1.7):
        with pytest.raises(ValueError):
            certify.chebyshev_delta(0.25, 100, bad)


def test_fidelity_bound_arithmetic():
    lams = certify.lambda_coefficients(3, 4)
    res = certify.fidelity_bound(0.5, 10**9, 0.1, 10**9, lams, 0.9, 0.9, variance=0.0)
    assert abs(res.f_lower - 0.275) < 1e-12
    assert res.delta == 0.0
    assert abs(res.epsilon - 0.81) < 1e-15


def test_fidelity_bound_matches_general_form_exactly():
    lams = certify.lambda_coefficients(3, 4)
    res = certify.fidelity_bound(0.9, 4000, 0.05, 3000, lams, 0.8, 0.9)
    lam_min = min(l for _, l in lams)
    d1 = certify.chebyshev_delta(certify.DEFAULT_VARIANCE, 4000, 0.8)
    d2 = certify.chebyshev_delta(certify.DEFAULT_VARIANCE, 3000, 0.9)
    assert res.f_lower == 0.9 - 0.05 / lam_min - d1 - d2
    assert res.lambda_min == lam_min


def test_fidelity_bound_monotonic():
    lams = certify.lambda_coefficients(3, 4)
    f = [certify.fidelity_bound(0.9, 1000, p2, 1000, lams, 0.9, 0.9).f_lower
         for p2 in (0.0, 0.05, 0.1, 0.2)]
    assert all(a > b for a, b in zip(f, f[1:]))
    shots = [certify.fidelity_bound(0.9, k, 0.0, k, lams, 0.9, 0.9).f_lower
             for k in (100, 1000, 10000)]
    assert all(a < b for a, b in zip(shots, shots[1:]))


def test_fidelity_bound_validation():
    with pytest.raises(ValueError):
        certify.fidelity_bound(0.5, 100, 0.1, 100, [], 0.9, 0.9)
    with pytest.raises(ValueError):
        certify.fidelity_bound(1.5, 100, 0.1, 100, [0.5], 0.9, 0.9)


def test_witness_threshold_product_state():
    assert abs(certify.witness_threshold(np.eye(4, dtype=complex), (1, 1, 1, 0)) - 1.0) < 1e-12


def test_witness_threshold_balanced_single_photon():
    bs = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    assert abs(certify.witness_threshold(bs, (1, 0)) - 0.5) < 1e-12


def test_witness_threshold_trivial_cut_rejected():
    with pytest.raises(ValueError):
        certify.witness_threshold(np.eye(3, dtype=complex), (1, 1, 1), split=3)
    with pytest.raises(ValueError):
        certify.witness_threshold(np.eye(3, dtype=complex), (1, 1, 1), split=0)


def test_witness_threshold_local_unitary_invariance():
    """Schmidt coefficients cannot move under unitaries confined to either side."""
    u = hamiltonian.evolution(RING, 1.0)
    base = certify.witness_threshold(u, (1, 1, 1, 0), split=1)
    for k in range(5):
        va = linalg.haar_random(1, (61, k))
        vb = linalg.haar_random(3, (62, k))
        local = np.zeros((4, 4), dtype=complex)
        local[:1, :1] = va
        local[1:, 1:] = vb
        moved = certify.witness_threshold(local @ u, (1, 1, 1, 0), split=1)
        assert abs(moved - base) < 1e-9


def test_collect_setting_samples_noiseless():
    s1, s2 = certify.collect_setting_samples(RING, 0.7, fock.MODEL_INDISTINGUISHABLE,
                                             500, seed=4)
    assert len(s1) == len(s2) == 500
    assert all(occ == (1, 1, 1, 0) for occ in s1)
    p2, _ = certify.estimate_p2(s2, certify.forbidden_patterns(3, 4))
    assert p2 == 0.0


def test_certify_noiseless_entangled():
    res = certify.certify(RING, 1.0, fock.MODEL_INDISTINGUISHABLE, shots=4000,
                          seed=5, eps1=0.9, eps2=0.9)
    assert res.p1 == 1.0 and res.p2 == 0.0
    assert res.f_lower == pytest.approx(1.0 - res.delta)
    assert res.f_lower > res.witness_threshold
    assert res.entangled is True
    assert res.inputs["shots"] == 4000


def test_certify_product_state_not_entangled():
    res = certify.certify(RING, 0.0, fock.MODEL_INDISTINGUISHABLE, shots=2000,
                          seed=6, eps1=0.9, eps2=0.9)
    assert abs(res.witness_threshold - 1.0) < 1e-9
    assert res.entangled is False


def test_certify_distinguishable_collapses():
    res = certify.certify(RING, 1.0, fock.MODEL_DISTINGUISHABLE, shots=3000,
                          seed=7, eps1=0.9, eps2=0.9)
    sigma = math.sqrt((2 / 3) * (1 / 3) / 3000)
    assert abs(res.p2 - 2 / 3) < 4 * sigma
    assert res.f_lower < 0.0


def test_certify_deterministic_per_seed():
    a = certify.certify(RING, 0.5, fock.MODEL_INDISTINGUISHABLE, shots=800,
                        seed=9, eps1=0.8, eps2=0.9)
    b = certify.certify(RING, 0.5, fock.MODEL_INDISTINGUISHABLE, shots=800,
                        seed=9, eps1=0.8, eps2=0.9)
    assert a.to_dict() == b.to_dict()
