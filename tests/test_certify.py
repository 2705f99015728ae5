"""Forbidden patterns, class coefficients and the certification bound."""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (counted_evolution, m_mode_lambda_coefficients, n_mode_lambda_coefficients,
                      seed_blockwise_witness, seed_bunched_mask, seed_certify, seed_estimate_p1,
                      seed_estimate_p2, seed_forbidden_patterns, seed_lambda_coefficients,
                      seed_witness_threshold)
from photherm import apparatus, certify, fock, hamiltonian, linalg

RING = hamiltonian.HamiltonianSpec(kind="hopping", modes=4)


def test_forbidden_set_three_photons():
    fs = certify.forbidden_patterns(3, 4)
    allowed = {p + (0,) for p in fock.enumerate_basis(3, 3)} - set(fs.patterns)
    assert allowed == {(1, 1, 1, 0), (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0)}
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


def test_forbidden_set_two_photons():
    fs = certify.forbidden_patterns(2, 2)
    assert fs.patterns == ((1, 1),)


def test_lambda_constants():
    lams = certify.lambda_coefficients(3, 4)
    assert [sizes for sizes, _ in lams] == [(2, 1), (1, 1, 1)]
    assert abs(lams[0][1] - 4 / 9) < 1e-12
    assert abs(lams[1][1] - 2 / 3) < 1e-12


def test_lambda_two_photons():
    # one distinguishable pair on the balanced splitter: classical coincidence rate
    lams = certify.lambda_coefficients(2, 2)
    assert lams == (((1, 1), pytest.approx(0.5, abs=1e-12)),)


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


@pytest.mark.parametrize("n, m", [(n, m) for n in range(2, 6) for m in range(n, n + 4)] + [(6, 7)])
def test_lambda_on_n_modes_equals_the_m_mode_computation(n, m):
    """Modes past the first n carry no photon, so computing on n modes changes no bit."""
    assert n_mode_lambda_coefficients(n) == m_mode_lambda_coefficients(n, m)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_lambda_is_the_exact_count_of_forbidden_exit_modes(n):
    """Each weight is prod s_b! * (forbidden exit-mode tuples) / n^n, correctly rounded.

    Species b exits bunched in mode i_b with probability s_b! / n^s_b, so
    every tuple of exit modes has weight prod s_b! / n^n; it is forbidden
    when the 1-based mode sum sum_b s_b * (i_b + 1) is nonzero mod n.
    """
    lams = certify.lambda_coefficients(n, n + 1)
    for (sizes, lam), (osizes, on), (msizes, om) in zip(
            lams, n_mode_lambda_coefficients(n), m_mode_lambda_coefficients(n, n + 1),
            strict=True):
        assert sizes == osizes == msizes
        count = sum(1 for exits in itertools.product(range(n), repeat=len(sizes))
                    if sum(s * (i + 1) for s, i in zip(sizes, exits)) % n)
        assert lam == math.prod(map(math.factorial, sizes)) * count / n**n
        assert abs(lam - on) < 1e-14 and abs(lam - om) < 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 3))
def test_bunching_mask_matches_the_tuple_scan(size, extra):
    m = size + extra
    assert np.array_equal(fock._patterns(size, m).max(axis=1) == size, seed_bunched_mask(size, m))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2))
def test_forbidden_set_patterns_match_the_per_pattern_rule(n, extra):
    fs = certify.forbidden_patterns(n, n + extra)
    assert fs.patterns == seed_forbidden_patterns(n, n + extra, 1)


def test_lambda_monte_carlo_agrees():
    for sizes, lam in certify.lambda_coefficients(3, 4):
        est, sigma = certify.lambda_monte_carlo(3, 4, sizes, 20_000, seed=3)
        assert abs(est - lam) < 4 * sigma


def test_lambda_monte_carlo_fixed_seed_values():
    """The draws and the forbidden mask reproduce the per-shot membership loop's values."""
    cases = {(3, 4, (2, 1), 5000, 3): (0.4428, 0.007024644617345421),
             (3, 4, (1, 1, 1), 5000, 3): (0.6698, 0.0066508339326734065),
             (4, 5, (2, 2), 4000, 11): (0.1205, 0.005147323333539481),
             (4, 5, (2, 1, 1), 4000, 11): (0.37725, 0.007663752956287148)}
    for (n, m, sizes, shots, seed), want in cases.items():
        assert certify.lambda_monte_carlo(n, m, sizes, shots, seed=seed) == want


@st.composite
def estimator_cases(draw):
    """A forbidden set, a target and rows mixing the awkward kinds."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(n, n + 2))
    fs = certify.forbidden_patterns(n, m)
    tail = (0,) * (m - n)
    ideal = st.sampled_from([p + tail for p in fock.enumerate_basis(n, n)])
    free = st.lists(st.integers(0, 2 * n), min_size=m, max_size=m).map(tuple)

    @st.composite
    def beyond_n(draw_row):
        # an ideal pattern with one or two photons moved into, or added to, modes past n
        row = list(draw_row(ideal))
        if m > n:
            src = draw_row(st.integers(0, n - 1))
            moved = draw_row(st.integers(1, 2))
            if draw_row(st.booleans()):
                moved = min(moved, row[src])
                row[src] -= moved
            row[draw_row(st.integers(n, m - 1))] += moved
        return tuple(row)

    @st.composite
    def wrong_total(draw_row):
        row = list(draw_row(ideal))
        j = draw_row(st.integers(0, m - 1))
        row[j] = max(0, row[j] + draw_row(st.sampled_from([-1, 1, 2])))
        return tuple(row)

    rows = draw(st.lists(st.one_of(ideal, free, beyond_n(), wrong_total()), max_size=60))
    target = draw(st.one_of(ideal, free))
    return fs, target, rows


@settings(max_examples=150, deadline=None)
@given(estimator_cases())
# counts above a mode's forbidden maximum: unclipped, their keys would equal (2,0,1,0)'s
@example((certify.forbidden_patterns(3, 4), (1, 1, 1, 0), [(2, 0, 0, 2), (2, 0, 4, 0)]))
def test_array_estimators_match_per_shot_loops(case):
    fs, target, rows = case
    samples = np.array(rows, dtype=np.uint8).reshape(len(rows), fs.m)
    if not rows:
        for estimate in (lambda s: certify.estimate_p1(s, target),
                         lambda s: certify.estimate_p2(s, fs)):
            with pytest.raises(ValueError, match="no samples"):
                estimate(samples)
        return
    assert certify.estimate_p1(samples, target) == seed_estimate_p1(rows, target)
    assert certify.estimate_p2(samples, fs) == seed_estimate_p2(rows, fs)
    assert certify.estimate_p2(rows, fs) == seed_estimate_p2(rows, fs)


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
    res = certify.fidelity_bound(0.5, 10**9, 0.1, 10**9, lams, 0.9, 0.9)
    assert res.delta == 2 * certify.chebyshev_delta(certify.DEFAULT_VARIANCE, 10**9, 0.9)
    assert abs(res.f_lower + res.delta - 0.275) < 1e-12
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
        certify.fidelity_bound(1.5, 100, 0.1, 100, [((1, 1), 0.5)], 0.9, 0.9)


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
    assert s1.shape == s2.shape == (500, 4)
    assert np.array_equal(s1, np.tile((1, 1, 1, 0), (500, 1)))
    p2, _ = certify.estimate_p2(s2, certify.forbidden_patterns(3, 4))
    assert p2 == 0.0


def test_certify_noiseless_entangled():
    res = certify.certify(RING, 1.0, fock.MODEL_INDISTINGUISHABLE, shots=4000,
                          seed=5, eps1=0.9, eps2=0.9)
    assert res.p1 == 1.0 and res.p2 == 0.0
    assert res.f_lower == pytest.approx(1.0 - res.delta)
    assert res.f_lower > res.witness_threshold
    assert res.entangled is True


def test_certify_convergence_is_the_prefix_estimates():
    """With an apparatus the trace is read off the samples' prefixes."""
    app = apparatus.Apparatus(mesh_jitter=0.05)
    res = certify.certify(RING, 1.0, fock.MODEL_DISTINGUISHABLE, shots=1000,
                          seed=8, eps1=0.8, eps2=0.9, app=app)
    assert [row[0] for row in res.convergence] == [62 * b for b in range(1, 17)] + [1000]
    assert res.convergence[-1] == (1000, res.p1, res.p2, res.f_lower)
    s1, s2 = certify.collect_setting_samples(RING, 1.0, fock.MODEL_DISTINGUISHABLE,
                                             1000, seed=8, app=app)
    lams, fs = certify.lambda_coefficients(3, 4), certify.forbidden_patterns(3, 4)
    for k, p1, p2, f_lower in res.convergence:
        assert (p1, k) == certify.estimate_p1(s1[:k], (1, 1, 1, 0))
        assert (p2, k) == certify.estimate_p2(s2[:k], fs)
        assert f_lower == certify.fidelity_bound(p1, k, p2, k, lams, 0.8, 0.9).f_lower
    assert "convergence" not in res.to_dict()


@pytest.mark.parametrize("app", [None, apparatus.Apparatus(mesh_jitter=0.05)])
def test_certify_computes_the_evolution_once(monkeypatch, app):
    calls = []
    evolution = hamiltonian.evolution
    monkeypatch.setattr(hamiltonian, "evolution",
                        lambda spec, t: calls.append(np.ravel(t).tolist()) or evolution(spec, t))
    certify.certify(RING, 1.0, fock.MODEL_DISTINGUISHABLE, shots=100, seed=8,
                    eps1=0.8, eps2=0.9, app=app)
    assert calls == [[1.0]]


def _batch_counts(convergence) -> tuple[np.ndarray, np.ndarray]:
    """Batch sizes and per-batch (setting 1, setting 2) hit counts of a trace."""
    cuts = np.array([k for k, _, _, _ in convergence])
    hits = np.array([[round(p1 * k), round(p2 * k)] for k, p1, p2, _ in convergence])
    return np.diff(cuts, prepend=0), np.diff(hits, axis=0, prepend=0)


@pytest.mark.parametrize("model", [
    fock.MODEL_INDISTINGUISHABLE,
    fock.MODEL_DISTINGUISHABLE,
    apparatus.distinguishability_mixture(apparatus.SourceModel()),
])
def test_certify_binomial_counts_match_the_sampled_oracle(model):
    """Per batch, the exact path's hit counts agree with those of sampled patterns.

    Each count is Binomial(batch, P) with P read off the law by membership,
    so two independent draws differ by 5 sigma of their difference at most;
    the noiseless model leaves no randomness, and the counts are equal.
    """
    shots, t, target = 4000, 1.0, (1, 1, 1, 0)
    res = certify.certify(RING, t, model, shots, seed=21, eps1=0.9, eps2=0.9)
    sizes, exact = _batch_counts(res.convergence)
    s1, s2 = certify.collect_setting_samples(RING, t, model, shots, seed=22)
    fs = certify.forbidden_patterns(3, 4)
    cuts = np.cumsum(sizes)
    sampled = np.diff(np.stack([
        np.cumsum([tuple(r) == target for r in s1.tolist()])[cuts - 1],
        np.cumsum([tuple(r) in fs.patterns for r in s2.tolist()])[cuts - 1]], axis=1),
        axis=0, prepend=0)
    u = hamiltonian.evolution(RING, t)
    forb = set(fs.patterns)
    probs = []
    for ideal, hit in ((u.conj().T @ u, lambda occ: occ == target),
                       (linalg.fourier(3, 4) @ u.conj().T @ u, lambda occ: occ in forb)):
        dist = fock.output_distribution(ideal, target, model)
        probs.append(sum(p for occ, p in zip(dist.basis, dist.probs) if hit(occ)))
    p = np.clip(probs, 0.0, 1.0)
    sigma = np.sqrt(2.0 * sizes[:, None] * p * (1.0 - p))
    assert np.all(np.abs(exact - sampled) <= 5.0 * sigma)
    if model == fock.MODEL_INDISTINGUISHABLE:
        assert np.array_equal(exact, sampled)
        assert np.array_equal(exact[:, 0], sizes) and not exact[:, 1].any()
    else:
        assert 0.05 < probs[1] < 0.95  # the forbidden weight is far from 0 and 1


def test_certify_clips_a_revival_probability_past_one(monkeypatch):
    """A law is normalized only to its sum tolerance: a near-delta input weight may pass 1."""
    real = fock._laws
    seen = []

    def inflated(u, input_occ, model):
        probs = real(u, input_occ, model) * (1.0 + 1e-12)
        seen.append(probs.max())
        return probs

    monkeypatch.setattr(certify.fock, "_laws", inflated)
    res = certify.certify(RING, 1.0, fock.MODEL_INDISTINGUISHABLE, shots=1000,
                          seed=5, eps1=0.9, eps2=0.9)
    assert seen[0] > 1.0  # setting 1 maps the input onto itself
    assert (res.p1, res.p2, res.k1) == (1.0, 0.0, 1000)


def test_certify_without_apparatus_draws_no_patterns():
    """A trillion shots per setting cost two binomial draws per batch, not memory."""
    start = time.perf_counter()
    res = certify.certify(RING, 1.0, fock.MODEL_INDISTINGUISHABLE, shots=10**12,
                          seed=3, eps1=0.9, eps2=0.9)
    assert time.perf_counter() - start < 1.0
    assert res.k1 == res.k2 == 10**12
    assert (res.p1, res.p2) == (1.0, 0.0)
    assert res.convergence[-1][0] == 10**12


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


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.data())
def test_witness_threshold_matches_the_single_svd(m, seed, data):
    """The largest top singular value over the photon-number blocks is the full matrix's."""
    counts = data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)
                       .filter(lambda c: 1 <= sum(c) <= 4))
    split = data.draw(st.integers(1, m - 1))
    u = linalg.haar_random(m, seed)
    got = certify.witness_threshold(u, tuple(counts), split)
    assert abs(got - seed_witness_threshold(u, tuple(counts), split)) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_stacked_witness_equals_each_matrix_alone(m, count, seed, data):
    """A stack of unitaries gives each matrix's blockwise witness, bit for bit."""
    counts = data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)
                       .filter(lambda c: 1 <= sum(c) <= 4))
    split = data.draw(st.integers(1, m - 1))
    stack = np.array([linalg.haar_random(m, (seed, k)) for k in range(count)])
    got = certify.witness_threshold(stack, tuple(counts), split)
    assert got.shape == (count,)
    assert got.tolist() == [seed_blockwise_witness(u, tuple(counts), split) for u in stack]
    assert certify.witness_threshold(stack[0], tuple(counts), split) == got[0]



def test_stacked_witness_squares_each_value_like_one_matrix():
    """The top singular value 0.625372579742124 squares to ...193 by pow, ...1923 by x * x."""
    u = linalg.haar_random(4, (2**32 - 1, 0))
    want = seed_blockwise_witness(u, (1, 1, 1, 1), 1)
    assert want == 0.3910908634933193
    assert certify.witness_threshold(u[None], (1, 1, 1, 1), 1).tolist() == [want]
    assert certify.witness_threshold(u, (1, 1, 1, 1), 1) == want


MIXTURE = apparatus.distinguishability_mixture(apparatus.SourceModel())
HARDWARE = apparatus.Apparatus(
    source=apparatus.SourceModel(squeezing=0.3, heralding_efficiency=0.9),
    detection=apparatus.DetectionModel(weights=((0.3, 0.3, 0.3),) * 4), mesh_jitter=0.05)
LONG_RANGE = hamiltonian.HamiltonianSpec(kind="long_range", modes=4, seed=3)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([RING, LONG_RANGE]),
       st.sampled_from([fock.MODEL_INDISTINGUISHABLE, fock.MODEL_DISTINGUISHABLE, MIXTURE]),
       st.sampled_from([None, HARDWARE]),
       st.lists(st.floats(0.0, 3.0, allow_subnormal=False), min_size=1, max_size=4),
       st.integers(1, 3), st.data())
def test_stacked_steps_equal_the_per_step_certify(spec, model, app, times, split, data):
    """Every step of one stacked call equals the per-step oracle in every field.

    The convergence trace and the witness are compared too; a one-time
    call is the stack of one.
    """
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(times),
                               max_size=len(times)))
    shots = data.draw(st.integers(1, 300) if app else st.integers(1, 10**6))
    got = certify.certify(spec, times, model, shots, seeds, 0.8, 0.9, app, split)
    want = tuple(seed_certify(spec, t, model, shots, seed, 0.8, 0.9, app, split)
                 for t, seed in zip(times, seeds))
    assert got == want
    assert certify.certify(spec, times[0], model, shots, seeds[0], 0.8, 0.9, app, split) == want[0]


@pytest.mark.parametrize("limit, rows, app, shots", [
    (1, 1, None, 200), (40, 1, None, 200), (80, 2, None, 200), (120, 3, None, 200),
    (1, 1, HARDWARE, 200), (12923, 2, HARDWARE, 20)])
def test_certify_chunks_equal_the_per_step_records(limit, rows, app, shots):
    """Each chunk of at most `rows` steps is one evolution; every record equals the oracle's.

    A step holds 2 of each: laws of 20 entries (3 photons on 4 modes),
    unitaries of 16 and, with an apparatus, sample arrays of 4 * shots
    entries and, with a source, what the stream may hold between blocks:
    2,154 entries, one law per useful input of at most 8 photons (1,670)
    and four by-product chain states of at most 121 entries. So without
    an apparatus 40 entries make one step, and with one at 20 shots 4,308
    do: 12,923 entries hold 2 steps, where a bound one entry smaller (or
    the laws alone) would let 3 in; every chunk holds at least one step.
    """
    times, seeds = [0.0, 0.4, 1.0, 1.7, 2.5], [5, 6, 7, 8, 9]
    want = tuple(seed_certify(RING, t, MIXTURE, shots, seed, 0.8, 0.9, app)
                 for t, seed in zip(times, seeds))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fock, "MAX_PATTERNS", limit)
        calls = counted_evolution(mp)
        got = certify.certify(RING, times, MIXTURE, shots, seeds, 0.8, 0.9, app)
    assert calls == [min(rows, len(times) - lo) for lo in range(0, len(times), rows)]
    assert got == want


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.integers(1, 8), st.integers(0, 2**32 - 1), st.data())
def test_settings_equal_the_per_matrix_products(m, steps, seed, data):
    """Both settings of a stack, built by stacked products, equal the per-matrix loop bit for bit.

    The loop builds each step's back @ u and (fourier @ back) @ u from its
    own 2-D matrices, setting 1 then setting 2.
    """
    n = data.draw(st.integers(1, m))
    u = np.array([linalg.haar_random(m, (seed, k)) for k in range(steps)])
    fourier = linalg.fourier(n, m)
    want = []
    for step in u:
        back = step.conj().T
        want += [back @ step, (fourier @ back) @ step]
    got = certify._settings(u, n, m)
    assert got.shape == (2 * steps, m, m)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_certify_of_no_times_is_empty(monkeypatch):
    calls = counted_evolution(monkeypatch)
    assert certify.certify(RING, [], fock.MODEL_INDISTINGUISHABLE, 100, [], 0.9, 0.9) == ()
    assert calls == []


@pytest.mark.parametrize("times, seeds, match", [
    ([0.5, 1.0], [1], "does not match the times"),
    ([0.5, 1.0], [1, 2, 3], "does not match the times"),
    ([0.5, 1.0], 1, "does not match the times"),
    (0.5, [1], "does not match the times"),
    ([0.5, float("nan")], [1, 2], "times must be finite"),
    (float("inf"), 1, "times must be finite"),
    ([[0.5, 1.0]], [1, 2], "times must be a scalar or 1-D"),
])
def test_certify_rejects_times_before_any_draw(monkeypatch, times, seeds, match):
    """Every draw follows the first evolution, which a rejected call never reaches."""
    calls = counted_evolution(monkeypatch)
    with pytest.raises(ValueError, match=match):
        certify.certify(RING, times, fock.MODEL_INDISTINGUISHABLE, 100, seeds, 0.9, 0.9, HARDWARE)
    assert calls == []
