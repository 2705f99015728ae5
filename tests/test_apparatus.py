"""Source, detection and mesh-programming hardware models."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (exact_kept_law, seed_correct_counts, seed_event_stream, seed_heralded_pairs,
                      seed_pair_counts, seed_qpnr_detect)
from photherm import apparatus, certify, fock, hamiltonian, linalg


def test_source_model_validation():
    with pytest.raises(ValueError):
        apparatus.SourceModel(squeezing=1.0)
    with pytest.raises(ValueError):
        apparatus.SourceModel(heralding_efficiency=1.2)
    src = apparatus.SourceModel()
    assert src.visibility(1, 0) == 0.932
    assert src.visibility(2, 1) == 0.885
    with pytest.raises(KeyError):
        src.visibility(0, 3)
    assert apparatus.SourceModel(**src.to_dict()) == src


def test_pair_number_law():
    """The per-attempt oracle's pair counts follow the squeezed-vacuum geometric law (1-x) x^j."""
    src = apparatus.SourceModel(squeezing=0.45)
    rng = np.random.default_rng(2)
    j1, _ = seed_pair_counts(src, 400_000, rng)
    x = 0.45**2
    for j in range(4):
        expect = (1.0 - x) * x**j
        freq = np.mean(j1 == j)
        assert abs(freq - expect) < 4 * math.sqrt(expect * (1 - expect) / 400_000)


def test_detection_model_validation():
    with pytest.raises(ValueError):
        apparatus.DetectionModel(weights=((0.5, 0.6, 0.2),) * 2)
    with pytest.raises(ValueError):
        apparatus.DetectionModel(weights=((0.5, 0.5),) * 2)
    with pytest.raises(ValueError):
        apparatus.DetectionModel(weights=((1 / 3,) * 3,) * 2, dark_count_prob=1.0)
    det = apparatus.DetectionModel.uniform(4, loss=0.1)
    assert apparatus.DetectionModel(**det.to_dict()) == det


def test_resolve_probability_closed_forms():
    det = apparatus.DetectionModel(weights=((0.5, 0.3, 0.15), (0.2, 0.2, 0.2),
                                            (1 / 3, 1 / 3, 1 / 3), (0.4, 0.3, 0.3)))
    assert apparatus.resolve_probability(det, 0, 0) == 1.0
    assert abs(apparatus.resolve_probability(det, 0, 1) - 0.95) < 1e-14
    expect2 = 2 * (0.5 * 0.3 + 0.3 * 0.15 + 0.15 * 0.5)
    assert abs(apparatus.resolve_probability(det, 0, 2) - expect2) < 1e-14
    assert abs(apparatus.resolve_probability(det, 0, 3) - 6 * 0.5 * 0.3 * 0.15) < 1e-14
    assert apparatus.resolve_probability(det, 0, 4) == 0.0


def test_resolve_probability_against_sampling():
    """The closed forms must match direct simulation of photon routing."""
    det = apparatus.DetectionModel(weights=((0.5, 0.3, 0.15),) * 1)
    rng = np.random.default_rng(9)
    shots = 100_000
    for k in (1, 2, 3):
        fired = apparatus.qpnr_detect(np.full((shots, 1), k), det, rng)
        hits = int(np.sum(fired.sum(axis=1) == k))
        p = apparatus.resolve_probability(det, 0, k)
        assert abs(hits / shots - p) < 4 * math.sqrt(p * (1 - p) / shots)


def clicks(*channels, width=12):
    fired = np.zeros((len(channels), width), dtype=bool)
    for row, chans in enumerate(channels):
        fired[row, list(chans)] = True
    return fired


def test_pattern_from_clicks():
    got = apparatus.pattern_from_clicks(clicks((0, 4, 8, 7), (11,)), 4)
    assert got.tolist() == [[1, 1, 2, 0], [0, 0, 0, 1]]
    with pytest.raises(ValueError):
        apparatus.pattern_from_clicks(clicks((13,), width=15), 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 40), st.sampled_from([None, 0.0, 0.05]),
       st.integers(0, 2**32 - 1))
def test_click_counts_by_column_adds_match_the_row_sums(m, shots, dark, seed):
    """Per-mode counts and click totals equal the reshape sums, in int64; correct_counts is unchanged.

    fired is uniform random clicks (dark None), or the detection of
    random patterns with or without dark counts.
    """
    from unittest import mock

    rng = np.random.default_rng(seed)
    det = apparatus.DetectionModel.uniform(m, loss=0.1, dark_count_prob=dark or 0.0)
    if dark is None:
        fired = rng.random((shots, 3 * m)) < rng.random()
    else:
        fired = apparatus.qpnr_detect(rng.integers(0, 3, (shots, m)), det, rng)
    pats = apparatus.pattern_from_clicks(fired, m)
    assert pats.dtype == np.int64
    assert np.array_equal(pats, fired.reshape(shots, m, 3).sum(axis=2))
    totals = apparatus._click_totals(fired)
    assert totals.dtype == np.int64
    assert np.array_equal(totals, fired.sum(axis=1))
    for n in np.unique(totals).tolist():
        kept = fired[totals == n]
        want = apparatus.correct_counts(kept, det)
        with mock.patch.object(apparatus, "pattern_from_clicks",
                               lambda f, m: f.reshape(len(f), m, 3).sum(axis=2)):
            seed_law = apparatus.correct_counts(kept, det)
        assert (want.n, want.m) == (seed_law.n, seed_law.m)
        assert want.probs.tobytes() == seed_law.probs.tobytes()


@st.composite
def detection_cases(draw):
    m = draw(st.integers(1, 6))
    weights = []
    for _ in range(m):
        cuts = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)))
        weights.append((cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1]))
    shots = draw(st.integers(0, 12))
    patterns = draw(st.lists(st.lists(st.integers(0, 4), min_size=m, max_size=m),
                             min_size=shots, max_size=shots))
    return apparatus.DetectionModel(weights=tuple(weights)), patterns, draw(st.integers(0, 2**32))


@settings(max_examples=60, deadline=None)
@given(detection_cases())
def test_qpnr_detect_matches_per_shot_loop(case):
    """Without dark counts the batched detector fires exactly the oracle's channels."""
    det, patterns, seed = case
    fired = apparatus.qpnr_detect(np.reshape(patterns, (-1, det.modes)), det,
                                  np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    assert fired.shape == (len(patterns), 3 * det.modes)
    for row, pattern in zip(fired, patterns):
        assert set(np.flatnonzero(row).tolist()) == seed_qpnr_detect(pattern, det, rng)


def test_qpnr_detect_dark_counts_match_per_shot_loop():
    """With dark counts the draw order differs, so compare per-mode click-count frequencies."""
    det = apparatus.DetectionModel(weights=((0.5, 0.3, 0.15), (0.2, 0.2, 0.2),
                                            (1 / 3, 1 / 3, 1 / 3), (0.4, 0.3, 0.0)),
                                   dark_count_prob=0.05)
    shots = 20_000
    pattern = (1, 2, 0, 3)
    batched = apparatus.pattern_from_clicks(
        apparatus.qpnr_detect(np.tile(pattern, (shots, 1)), det, 5), 4)
    rng = np.random.default_rng(6)
    oracle = np.zeros((shots, 4), dtype=int)
    for i in range(shots):
        for ch in seed_qpnr_detect(pattern, det, rng):
            oracle[i, ch // 3] += 1
    for mode in range(4):
        for k in range(4):
            p, q = np.mean(batched[:, mode] == k), np.mean(oracle[:, mode] == k)
            pool = 0.5 * (p + q)
            assert abs(p - q) <= 5 * math.sqrt(2 * pool * (1 - pool) / shots) + 1e-12


def test_over_cap_routing_samples_distinguishable_law():
    """By-products above the cap follow the engine's distinguishable law (220 patterns)."""
    occ = (3, 3, 3, 0)
    assert fock.total(occ) > apparatus.INTERFERENCE_PHOTON_CAP
    u = linalg.haar_random(4, 31)
    shots = 200_000
    uniforms = np.random.default_rng(2).random(9 * shots)
    got = apparatus._scatter(np.tile(occ, (shots, 1)), u, uniforms)
    assert np.all(got.sum(axis=1) == 9)
    freq = np.bincount(fock._rank(got, 9), minlength=220) / shots
    classical = fock.output_distribution(u, occ, fock.MODEL_DISTINGUISHABLE).probs
    quantum = fock.output_distribution(u, occ).probs
    assert len(classical) == 220
    assert 0.5 * np.abs(freq - classical).sum() < 0.02
    assert 0.5 * np.abs(freq - quantum).sum() > 0.05


def test_a_block_past_255_photons_in_one_mode_keeps_every_photon(monkeypatch):
    """A block's true patterns take the dtype of its largest input total, so no count wraps.

    The first block holds the by-product (0, 0, 300, 0), which routes
    independently, and the target. Through the identity every photon
    stays in its mode, so the true patterns _detect receives hold the
    int64 inputs' photons, mode by mode, and each photon gets its own cell.
    """
    blocks = iter([(np.array([0, 1]), np.array([300, 1]))])

    def scripted(src, n, floor, want, budget, rng):
        j1, j2 = next(blocks, (np.ones(want, dtype=np.int64), np.ones(want, dtype=np.int64)))
        return j1.size, j1, j2

    seen, detect = [], apparatus._detect
    monkeypatch.setattr(apparatus, "_useful_shots", scripted)
    monkeypatch.setattr(apparatus, "_detect",
                        lambda true, det, rng: seen.append(true) or detect(true, det, rng))
    src = apparatus.SourceModel(squeezing=0.3, heralding_efficiency=0.9)
    apparatus.simulate_setting(np.eye(4)[None], fock.MODEL_INDISTINGUISHABLE, src, None, 5,
                               [np.random.default_rng(1)], (1, 1, 1, 0))
    inputs = np.array([[0, 0, 300, 0], [1, 1, 1, 0]], dtype=np.int64)
    true = seen[0]
    assert fock.total((0, 0, 300, 0)) > apparatus.INTERFERENCE_PHOTON_CAP
    assert true.dtype == np.uint16
    assert np.array_equal(true.sum(axis=0, dtype=np.int64), inputs.sum(axis=0))
    cells = apparatus._photon_cells(true)
    assert np.array_equal(np.bincount(cells % 4, minlength=4), inputs.sum(axis=0))


def test_detect_past_two_to_the_sixteen_channels_fires_what_int64_cells_fire(monkeypatch):
    """5,462 shots on 4 modes have 65,544 channels: uint32 cells, the same fired as int64 cells."""
    shots, m = 5462, 4
    channels = apparatus.CHANNELS_PER_MODE * m
    assert shots * channels >= 2**16
    patterns = np.random.default_rng(3).integers(0, 4, (shots, m)).astype(np.uint8)
    patterns[-1] = (0, 1, 2, 3)   # channels 65,535 and up
    det = apparatus.DetectionModel(weights=((0.5, 0.3, 0.15),) * m)
    assert apparatus._photon_cells(patterns).dtype == np.uint32
    got = apparatus._detect(patterns, det, np.random.default_rng(4))
    monkeypatch.setattr(apparatus, "_photon_cells",
                        lambda p: np.repeat(np.arange(p.size, dtype=np.int64), p.ravel()))
    want = apparatus._detect(patterns, det, np.random.default_rng(4))
    assert got.shape == (shots, channels)
    assert np.array_equal(got, want)
    assert want[-1, 3:].any()


def test_correction_recovers_truth():
    """Unequal channel weights bias raw click patterns; dividing them out repairs the estimate."""
    u = linalg.fourier(3, 4)
    truth = fock.output_distribution(u, (1, 1, 1, 0), fock.MODEL_DISTINGUISHABLE)
    det = apparatus.DetectionModel(weights=((0.5, 0.3, 0.15), (0.25, 0.25, 0.25),
                                            (0.4, 0.4, 0.1), (0.3, 0.3, 0.3)))
    rng = np.random.default_rng(4)
    fired = apparatus.qpnr_detect(fock.sample(truth, 150_000, rng), det, rng)
    records = fired[fired.sum(axis=1) == 3]
    corrected = apparatus.correct_counts(records, det)
    raw = np.bincount(fock._rank(apparatus.pattern_from_clicks(records, 4), 3),
                      minlength=len(corrected.basis)) / len(records)
    tvd_corr = 0.5 * np.sum(np.abs(corrected.probs - truth.probs))
    tvd_raw = 0.5 * np.sum(np.abs(raw - truth.probs))
    assert tvd_corr < 0.02
    assert tvd_raw > 3 * tvd_corr


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_correct_counts_matches_the_per_pattern_product(n, m, seed):
    """Per-mode resolve tables give the per-pattern products bit for bit, errors included."""
    rng = np.random.default_rng(seed)
    weights = rng.random((m, 3)) / 3.0
    weights[rng.random((m, 3)) < 0.2] = 0.0  # some dead channels, so some patterns cannot resolve
    det = apparatus.DetectionModel(weights=tuple(map(tuple, weights)))
    pats = fock._patterns(n, m)[rng.integers(0, math.comb(n + m - 1, n), 30)]
    pats = pats[pats.max(axis=1) <= 3]
    if not len(pats):
        return
    # fire the first k channels of a mode that holds k photons
    fired = (np.arange(3) < pats[:, :, None]).reshape(len(pats), 3 * m)
    try:
        want = seed_correct_counts(fired, det)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            apparatus.correct_counts(fired, det)
    else:
        assert np.array_equal(apparatus.correct_counts(fired, det).probs, want)


def test_correct_counts_validation():
    det = apparatus.DetectionModel.ideal(4)
    with pytest.raises(ValueError, match="no records"):
        apparatus.correct_counts(np.zeros((0, 12), dtype=bool), det)
    with pytest.raises(ValueError, match="differ"):
        apparatus.correct_counts(clicks((0, 3), (0,)), det)
    dead = apparatus.DetectionModel(weights=((0.5, 0.5, 0.0),) * 4)
    with pytest.raises(ValueError, match="cannot be resolved"):
        apparatus.correct_counts(clicks((0, 1, 2)), dead)


def test_blinding_probability_line():
    det = apparatus.DetectionModel.uniform(4)
    assert abs(apparatus.blinding_probability(40.0, det) - 0.8734) < 1e-12
    assert apparatus.blinding_probability(0.0, det) == 0.9534
    assert apparatus.blinding_probability(1e6, det) == 0.0
    with pytest.raises(ValueError):
        apparatus.blinding_probability(-1.0, det)


def test_blind_corrupt_moves_click():
    """Each row keeps its click total while one click moves to another mode."""
    det = apparatus.DetectionModel.ideal(4)
    rng = np.random.default_rng(3)
    fired = clicks(*([(0, 3, 6)] * 25 + [(1, 2, 10)] * 25))
    out = apparatus._blind_corrupt(fired, det, rng)
    assert np.array_equal(out.sum(axis=1), fired.sum(axis=1))
    moved = apparatus.pattern_from_clicks(out, 4) - apparatus.pattern_from_clicks(fired, 4)
    assert np.all(np.sort(moved, axis=1) == [-1, 0, 0, 1])
    assert np.array_equal(apparatus._blind_corrupt(fired[:0], det, rng), fired[:0])


def test_mesh_round_trip():
    for m in (2, 3, 4, 6, 8, 12):
        u = linalg.haar_random(m, (41, m))
        params = apparatus.mesh_decompose(u)
        assert len(params.crossings) == m * (m - 1) // 2
        assert np.max(np.abs(apparatus.mesh_compose(params) - u)) < 1e-10
        for _, theta, phi in params.crossings:
            assert -1e-12 <= theta <= math.pi / 2 + 1e-12
            assert -1e-12 <= phi < 2 * math.pi + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.sampled_from([None, 1e-6, 1e-3, 0.1]))
def test_mesh_round_trip_property(m, seed, scale):
    """Haar unitaries (scale None) and exp(-i h) of a small Hermitian h round-trip the mesh."""
    if scale is None:
        u = linalg.haar_random(m, seed)
    else:
        a = np.random.default_rng(seed).normal(size=(m, m, 2)) @ [1.0, 1j]
        u = linalg.expm_hermitian(scale * (a + a.conj().T) / 2)
    assert np.max(np.abs(apparatus.mesh_compose(apparatus.mesh_decompose(u)) - u)) < 1e-10


def test_mesh_identity_is_all_bar():
    params = apparatus.mesh_decompose(np.eye(5, dtype=complex))
    for _, theta, _ in params.crossings:
        assert min(abs(theta), abs(theta - math.pi / 2)) < 1e-12
    assert np.max(np.abs(apparatus.mesh_compose(params) - np.eye(5))) < 1e-12


def test_mesh_balanced_splitter_single_crossing():
    bs = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    params = apparatus.mesh_decompose(bs)
    assert len(params.crossings) == 1
    _, theta, _ = params.crossings[0]
    assert abs(theta - math.pi / 4) < 1e-12


def _pinned_mesh_unitaries():
    """Haar unitaries, identities, permutations and embedded Fouriers on 2..12 modes.

    The last three zero whole columns of the lower triangle, so both sweeps
    reach every branch of the zero-denominator rule.
    """
    for m in range(2, 13):
        for seed in range(5):
            yield linalg.haar_random(m, (m, seed))
        yield np.eye(m, dtype=complex)
        for seed in range(3):
            yield np.eye(m, dtype=complex)[np.random.default_rng((m, seed)).permutation(m)]
        for n in range(2, m + 1):
            yield linalg.fourier(n, m)


def test_mesh_decomposition_keeps_its_bits():
    """The crossings and phases of 165 pinned unitaries hash to a digest recorded beforehand.

    Recorded before the left sweep took the right sweep's angle rule. Like
    the pinned streams, it is tied to numpy's Generator and to the LAPACK
    behind haar_random's QR.
    """
    import hashlib

    digest = hashlib.sha256()
    for u in _pinned_mesh_unitaries():
        params = apparatus.mesh_decompose(u)
        digest.update(np.array([c for c, _, _ in params.crossings], np.int64).tobytes())
        digest.update(np.array([(t, p) for _, t, p in params.crossings], float).tobytes())
        digest.update(np.array(params.phases, float).tobytes())
    assert digest.hexdigest() == (
        "6a3d68dcf1861473e83af61f2a2a2c650dd4da78d8a00c2acfe182ddd6b58713")


def test_mesh_rejects_non_unitary():
    with pytest.raises(ValueError):
        apparatus.mesh_decompose(np.ones((3, 3)))


def test_mesh_perturb_is_seeded_and_scaled():
    u = linalg.haar_random(4, 44)
    params = apparatus.mesh_decompose(u)
    a = apparatus.mesh_perturb(params, 0.05, 10)
    b = apparatus.mesh_perturb(params, 0.05, 10)
    assert a == b
    assert apparatus.mesh_perturb(params, 0.0, 10) is params
    small = apparatus.mesh_compose(apparatus.mesh_perturb(params, 1e-3, 10))
    large = apparatus.mesh_compose(apparatus.mesh_perturb(params, 0.3, 10))
    assert np.max(np.abs(small - u)) < np.max(np.abs(large - u))


def test_programmed_unitary_noise_free_sections():
    u1 = linalg.haar_random(3, 1)
    u2 = linalg.haar_random(3, 2)
    rng = np.random.default_rng(0)
    total = apparatus.programmed_unitary(u2 @ u1, 0.0, rng)
    assert np.max(np.abs(total - u2 @ u1)) < 1e-9


def test_jitter_calibration_hits_target():
    sd = apparatus.jitter_for_fidelity(0.98, 4)
    assert sd > 0.0
    fids = []
    for k in range(40):
        u = linalg.haar_random(4, (71, k))
        params = apparatus.mesh_decompose(u)
        noisy = apparatus.mesh_compose(apparatus.mesh_perturb(params, sd, (72, k)))
        fids.append(linalg.amplitude_fidelity(u, noisy))
    assert abs(float(np.mean(fids)) - 0.98) < 0.01


def test_jitter_calibration_gives_the_pinned_mesh_jitter():
    """The literal mesh jitter of the hardware benchmark and tests is this calibration's value."""
    assert apparatus.jitter_for_fidelity(0.98, 4) == 0.14401414400026624


def test_simulate_setting_noiseless_revival():
    spec = hamiltonian.HamiltonianSpec(kind="hopping", modes=4)
    u = hamiltonian.evolution(spec, 0.9)
    total = u.conj().T @ u
    rng = np.random.default_rng(6)
    got = apparatus.simulate_setting(total[None], fock.MODEL_INDISTINGUISHABLE, None, None,
                                     200, [rng], target=(1, 1, 1, 0))
    assert np.array_equal(got, np.tile((1, 1, 1, 0), (1, 200, 1)))


def test_event_stream_guard():
    """A spent budget names the useful-shot rate q, the keep rate and the attempts still needed."""
    src = apparatus.SourceModel(squeezing=1e-4, heralding_efficiency=1e-3)
    rng = np.random.default_rng(1)
    with pytest.raises(apparatus.AcceptanceError) as info:
        apparatus.simulate_setting(np.eye(4, dtype=complex)[None], fock.MODEL_INDISTINGUISHABLE,
                                   src, None, 50, [rng], target=(1, 1, 1, 0), max_attempts=2000)
    err = info.value
    assert err.q == apparatus._useful_weights(src, 3, True).sum()
    assert err.keep_rate == 0.0 and err.projected == math.inf
    assert str(err).startswith("collected 0/50 events after 2000 source attempts; "
                               f"{err.q:.3g} of attempts give a useful shot and 0 of useful "
                               "shots were kept, so the 50 missing events need about inf")
    # without a source every attempt is a useful shot; half the light is lost, so few are kept
    det = apparatus.DetectionModel.uniform(4, loss=0.5)
    with pytest.raises(apparatus.AcceptanceError) as info:
        apparatus.simulate_setting(np.eye(4, dtype=complex)[None], fock.MODEL_INDISTINGUISHABLE,
                                   None, det, 1000, [rng], target=(1, 1, 1, 0), max_attempts=500)
    err = info.value
    kept = int(re.match(r"collected (\d+)/1000 events after 1000 source attempts", str(err))[1])
    assert 0 < kept < 1000
    assert (err.q, err.keep_rate) == (1.0, kept / 1000)
    assert err.projected == (1000 - kept) / err.keep_rate
    assert f"need about {err.projected:.3g} more attempts" in str(err)


def assert_same_pattern_law(got, want):
    """Per-pattern frequencies of two equal-size 3-photon event samples agree within 5 sigma."""
    shots, m = got.shape
    basis = fock.enumerate_basis(3, m)
    a, b = (np.bincount(fock._rank(x, 3), minlength=len(basis)) for x in (got, want))
    pooled = (a + b) / (2 * shots)
    sigma = np.sqrt(pooled * (1 - pooled) * 2 / shots)
    assert np.all(np.abs(a - b) / shots <= 5 * sigma)
    return a, basis


@pytest.mark.parametrize("case", [
    # (squeezing, model, with source): a mixture on the heralded input, and a bright
    # source whose by-products pass INTERFERENCE_PHOTON_CAP
    (0.45, "mixture", True),
    (0.75, fock.MODEL_INDISTINGUISHABLE, True),
    (0.45, fock.MODEL_DISTINGUISHABLE, False),
])
def test_event_stream_with_dark_counts_matches_seed_stream(case):
    """Without a source the draws are the seed stream's; with one, the post-selected law is."""
    squeezing, model, with_source = case
    src = apparatus.SourceModel(squeezing=squeezing, heralding_efficiency=0.9)
    if model == "mixture":
        model = apparatus.distinguishability_mixture(src)
    det = apparatus.DetectionModel.uniform(4, loss=0.1, dark_count_prob=0.01)
    u = linalg.haar_random(4, 41)
    if not with_source:
        args = (model, None, det, 400)
        got = apparatus.simulate_setting(u[None], *args, [np.random.default_rng(5)], (1, 1, 1, 0))
        want = seed_event_stream(u, *args, np.random.default_rng(5), (1, 1, 1, 0))
        assert got.shape == (1, 400, 4)
        assert np.array_equal(got[0], want)
        return
    args = (model, src, det, 20_000)
    got = apparatus.simulate_setting(u[None], *args, [np.random.default_rng(5)], (1, 1, 1, 0))[0]
    want = seed_event_stream(u, *args, np.random.default_rng(6), (1, 1, 1, 0))
    assert got.shape == (20_000, 4)
    assert_same_pattern_law(got, want)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([fock.MODEL_INDISTINGUISHABLE, fock.MODEL_DISTINGUISHABLE, "mixture"]),
       st.sampled_from([0.0, 0.02]), st.sampled_from([None, 0.3, 0.75]), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
def test_stacked_stream_rows_equal_single_settings(model, dark, squeezing, count, seed):
    """Row s of a stacked stream is the stream of setting s alone, with its generator, draw for draw.

    A squeezing of 0.75 makes by-products brighter than INTERFERENCE_PHOTON_CAP.
    """
    from unittest import mock

    src = None if squeezing is None else apparatus.SourceModel(squeezing=squeezing,
                                                                 heralding_efficiency=0.9)
    if model == "mixture":
        model = apparatus.distinguishability_mixture(apparatus.SourceModel())
    det = apparatus.DetectionModel.uniform(4, loss=0.1, dark_count_prob=dark)
    stack = np.array([linalg.haar_random(4, (seed, s)) for s in range(count)])
    shots, target = 300, (1, 1, 1, 0)
    with mock.patch.object(apparatus, "_scatter", wraps=apparatus._scatter) as scatter:
        got = apparatus.simulate_setting(stack, model, src, det, shots,
                                         [np.random.default_rng((seed, s)) for s in range(count)],
                                         target)
    assert got.shape == (count, shots, 4)
    assert scatter.called or squeezing != 0.75
    for s in range(count):
        alone = apparatus.simulate_setting(stack[s:s + 1], model, src, det, shots,
                                           [np.random.default_rng((seed, s))], target)
        assert np.array_equal(got[s], alone[0])


def _pinned_stream(case: str):
    """(stack, model, source, detection, seeds) of one pinned event stream on 4 modes.

    bench: the certify-hardware stack shape, 4 settings with a source of
    squeezing 0.3 and heralding 0.9, balanced lossless channels, blinding
    and the hardware mixture. dark: loss 0.1 and dark counts 0.01. bright:
    squeezing 0.75, so by-products pass INTERFERENCE_PHOTON_CAP. plain: no
    source.
    """
    src = apparatus.SourceModel(squeezing=0.3, heralding_efficiency=0.9)
    mix = apparatus.distinguishability_mixture(apparatus.SourceModel())
    seed = ("bench", "dark", "bright", "plain").index(case) + 40
    u = linalg.haar_random(4, seed)[None]
    if case == "bench":
        stack = np.array([linalg.haar_random(4, (seed, s)) for s in range(4)])
        det = apparatus.DetectionModel(weights=((1 / 3,) * 3,) * 4)
        return stack, mix, src, det, [(seed, s) for s in range(4)]
    if case == "dark":
        det = apparatus.DetectionModel.uniform(4, loss=0.1, dark_count_prob=0.01)
        return u, fock.MODEL_DISTINGUISHABLE, src, det, [seed]
    if case == "bright":
        src = apparatus.SourceModel(squeezing=0.75, heralding_efficiency=0.9)
        det = apparatus.DetectionModel.uniform(4, loss=0.1)
        return u, fock.MODEL_INDISTINGUISHABLE, src, det, [seed]
    return u, mix, None, apparatus.DetectionModel.uniform(4, loss=0.2), [seed]


def _run_pinned(case: str, shots: int, salt: int = 0) -> np.ndarray:
    stack, model, src, det, seeds = _pinned_stream(case)
    rngs = [np.random.default_rng((salt, *np.atleast_1d(s))) for s in seeds]
    return apparatus.simulate_setting(stack, model, src, det, shots, rngs, (1, 1, 1, 0))


@pytest.mark.parametrize("case, shots, digest", [
    ("bench", 4000, "98849d689cdf7568090a1e92e98f8d8004d0d1d88ddc24a899338d1dab011683"),
    ("dark", 2000, "78d5e07fddd975d896cae9953adc8cb35866339194d5668f0e488a31ad051eb4"),
    ("bright", 1000, "015f49fba6dfcd74b6cdb6bb2d647c0b9790cb461697fd6f5fbf7f98e93c1f33"),
    ("plain", 2000, "c9b5a70198fcdfeb765a19f9e138f5f7a8de5b0072ee6ed6b1811dbc6c5dd183"),
])
def test_pinned_streams_keep_their_bytes(case, shots, digest):
    """The sha256 of each pinned stream's events as int64 bytes: a faster block makes the same draws.

    The events come in the narrowest dtype of the 3 clicks a kept event
    has; the digest is of their values, so it does not pin the dtype.
    """
    import hashlib

    out = _run_pinned(case, shots)
    assert out.dtype == np.min_scalar_type(3)
    assert hashlib.sha256(np.asarray(out, dtype=np.int64).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("case", ["bench", "dark", "bright", "plain"])
def test_stream_samples_the_exact_kept_law(case):
    """50k events per setting follow the law of kept events written from the model (conftest).

    Per pattern, the count stays within 5 sigma of its binomial mean, and
    per setting the chi-square over the 20 patterns stays below its
    1e-6 upper quantile (Wilson-Hilferty, 19 degrees of freedom).
    """
    shots, dof = 50_000, 19
    bound = dof * (1 - 2 / (9 * dof) + 4.75 * math.sqrt(2 / (9 * dof))) ** 3
    stack, model, src, det, _ = _pinned_stream(case)
    for u, events in zip(stack, _run_pinned(case, shots, salt=1)):
        law = exact_kept_law(u, model, src, det, (1, 1, 1, 0), apparatus.INTERFERENCE_PHOTON_CAP)
        assert law.size == dof + 1 and law.min() > 0.0 and abs(law.sum() - 1.0) < 1e-12
        counts = np.bincount(fock._rank(events, 3), minlength=law.size)
        expect = shots * law
        assert np.all(np.abs(counts - expect) <= 5 * np.sqrt(expect * (1 - law))), (counts, expect)
        assert np.sum((counts - expect) ** 2 / expect) < bound


def test_certify_hardware_settings_take_at_most_three_blocks(monkeypatch):
    """Blocks sized by the running keep rate: the bench's hardware certify needs few of them."""
    blocks: dict = {}
    useful_shots = apparatus._useful_shots

    def counted(src, n, floor, want, budget, rng):
        blocks[id(rng)] = blocks.get(id(rng), 0) + 1
        return useful_shots(src, n, floor, want, budget, rng)

    monkeypatch.setattr(apparatus, "_useful_shots", counted)
    src = apparatus.SourceModel(squeezing=0.3, heralding_efficiency=0.9)
    # the perfbench certify-hardware apparatus: balanced lossless channels, mesh fidelity 0.98
    app = apparatus.Apparatus(source=src,
                              detection=apparatus.DetectionModel(weights=((1 / 3,) * 3,) * 4),
                              mesh_jitter=0.14401414400026624)
    ring = hamiltonian.HamiltonianSpec(kind="hopping", modes=4)
    for t in (0.7, 1.3):
        blocks.clear()
        certify.certify(ring, t, apparatus.distinguishability_mixture(src), 4000, 7, 0.9, 0.9,
                        app=app)
        assert len(blocks) == 2
        assert max(blocks.values()) <= 3, blocks


def test_certify_hardware_creates_each_chain_level_once(monkeypatch):
    """The event stream extends its by-product chains across blocks instead of rebuilding them.

    The bench's hardware certify, both steps in one call, so one stream
    over four settings: chains are extended by more than one block, and
    the creation steps taken are exactly the levels the chains hold at
    the end, so no chain level is created twice. Only the target's
    mixture law goes through fock._laws.
    """
    calls, active, held, laws = [], [], {}, []
    extend_chains, create, laws_of = apparatus._extend_chains, fock._create, fock._laws

    def counted_extend(chains, *args):
        held["chains"] = chains
        active.append([])
        try:
            return extend_chains(chains, *args)
        finally:
            calls.append(active.pop())

    def counted_create(prev, k, coefs, bosonic):
        padded = create(prev, k, coefs, bosonic)
        if active:   # a chain step, not a fock._laws or witness pass
            active[-1].append(k)
        return padded

    src = apparatus.SourceModel(squeezing=0.3, heralding_efficiency=0.9)
    mix = apparatus.distinguishability_mixture(src)
    app = apparatus.Apparatus(source=src,
                              detection=apparatus.DetectionModel(weights=((1 / 3,) * 3,) * 4),
                              mesh_jitter=0.14401414400026624)
    ring = hamiltonian.HamiltonianSpec(kind="hopping", modes=4)
    monkeypatch.setattr(apparatus, "_extend_chains", counted_extend)
    monkeypatch.setattr(fock, "_create", counted_create)
    monkeypatch.setattr(fock, "_laws", lambda u, occ, model: laws.append(occ) or laws_of(u, occ, model))
    certify.certify(ring, [0.7, 1.3], mix, 4000, [7, 8], 0.9, 0.9, app=app)
    assert laws == [(1, 1, 1, 0)]
    assert len(calls) > 1 and all(calls), calls
    assert any(min(call) > 1 for call in calls[1:]), calls   # a later block extends a chain
    assert sum(map(len, calls)) == sum(2 * j1 + j2 for j1, (_, j2) in held["chains"].items())


def test_a_chain_through_the_species_input_leaves_its_mixture_law(monkeypatch):
    """The species model's input keeps its mixture law when a chain passes it first.

    The first block draws only (1, 1, 2, 0), whose chain passes the target
    (1, 1, 1, 0); every later block draws the target, which must come from
    the mixture law, not the chain's indistinguishable one.
    """
    blocks = iter([(np.array([1]), np.array([2]))])

    def scripted(src, n, floor, want, budget, rng):
        j1, j2 = next(blocks, (np.ones(want, dtype=np.int64), np.ones(want, dtype=np.int64)))
        return j1.size, j1, j2

    drawn, pick = [], fock._pick
    monkeypatch.setattr(apparatus, "_useful_shots", scripted)
    monkeypatch.setattr(fock, "_pick",
                        lambda cdf, uniforms: drawn.append(cdf) or pick(cdf, uniforms))
    src = apparatus.SourceModel(squeezing=0.3, heralding_efficiency=0.9)
    mix = apparatus.distinguishability_mixture(src)
    u = linalg.haar_random(4, 3)
    apparatus.simulate_setting(u[None], mix, src, None, 20, [np.random.default_rng(1)],
                               (1, 1, 1, 0))
    want = np.cumsum(fock._laws(u, (1, 1, 1, 0), mix)).tobytes()
    # laws of 4 photons on 4 modes have 35 entries, of 3 photons 20
    assert [cdf.size for cdf in drawn][:2] == [35, 20]
    assert all(cdf.tobytes() == want for cdf in drawn if cdf.size == 20)


@st.composite
def chain_stacks(draw):
    """1 to 4 matrices on 3 to 6 modes: Haar, or block-diagonal with exact zero couplings."""
    m = draw(st.integers(3, 6))
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        seed, cut = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, m - 1))
        u = np.zeros((m, m), dtype=complex)
        if cut:   # modes below the cut and the rest do not couple
            u[:cut, :cut] = linalg.haar_random(cut, seed)
            u[cut:, cut:] = linalg.haar_random(m - cut, seed)
        else:
            u = linalg.haar_random(m, seed)
        mats.append(u)
    return np.array(mats)


@settings(max_examples=40, deadline=None)
@given(chain_stacks(), st.sampled_from([fock.MODEL_INDISTINGUISHABLE, fock.MODEL_DISTINGUISHABLE]),
       st.booleans(), st.data())
def test_chained_laws_equal_the_single_laws(stack, model, floor, data):
    """Every law a chain cache reads, over blocks, is the cumulative fock._laws of its input.

    Blocks meet inputs as the stream does: those not cached yet, apart
    from some the caller builds itself (the species model's input). A
    block extends each chain from where an earlier one left it and reads
    every useful input on the way that is not known. Without the floor
    (dark counts) inputs of fewer than n = 3 photons are useful too. A
    block-diagonal matrix has zero couplings where the others have none,
    so each creation step must sweep the union of the rows' supports.
    Between blocks the laws and live chain states stay within
    _kept_law_entries, and a chain at the cap keeps no state.
    """
    m, cap = stack.shape[-1], apparatus.INTERFERENCE_PHOTON_CAP
    tail = (0,) * (m - 3)
    useful = [(j1, j1, j2) + tail for j1 in range(cap) for j2 in range(1, cap + 1)
              if 2 * j1 + j2 <= cap and (not floor or 2 * j1 + j2 >= 3)]
    own = data.draw(st.sets(st.sampled_from(useful), max_size=2))
    chains, cdfs, reached = {}, {}, {}
    for _ in range(data.draw(st.integers(1, 3))):
        block = data.draw(st.lists(st.sampled_from(useful), min_size=1, max_size=4, unique=True))
        inputs = [occ for occ in block if occ not in cdfs and occ not in own]
        if not inputs:
            continue
        got = apparatus._extend_chains(chains, stack, inputs, model, 3, floor, cdfs.keys() | own)
        want = set()
        for j1 in {occ[0] for occ in inputs}:
            top = max(occ[2] for occ in inputs if occ[0] == j1)
            want |= {occ for occ in useful if occ[0] == j1 and reached.get(j1, 0) < occ[2] <= top
                     and occ not in cdfs and occ not in own}
            reached[j1] = max(top, reached.get(j1, 0))
        assert set(got) == want
        for occ, cdf in got.items():
            assert cdf.tobytes() == np.cumsum(fock._laws(stack, occ, model), axis=-1).tobytes()
        cdfs.update(got)
        assert {j1: j2 for j1, (_, j2) in chains.items()} == reached
        assert all((state is None) == (2 * j1 + j2 == cap) for j1, (state, j2) in chains.items())
        held = sum(cdf.shape[-1] for cdf in cdfs.values()) + sum(
            state.shape[-1] for state, _ in chains.values() if state is not None)
        assert held <= apparatus._kept_law_entries(3, m, floor)


@pytest.mark.parametrize("with_source", [False, True])
def test_the_stream_checks_the_stack_and_the_model_before_any_draw(with_source):
    """A non-unitary stack, an unknown model or a bare matrix raises before any draw."""
    src = apparatus.SourceModel(squeezing=0.3, heralding_efficiency=0.9) if with_source else None
    stack = np.array([linalg.haar_random(4, (9, s)) for s in range(2)])
    rngs = [np.random.default_rng((9, s)) for s in range(2)]
    states = [rng.bit_generator.state for rng in rngs]
    for bad, model, gens, match in (
            (1.01 * stack, fock.MODEL_INDISTINGUISHABLE, rngs, "not unitary"),
            (stack, "bosons", rngs, "unknown distinguishability model"),
            (stack[0], fock.MODEL_INDISTINGUISHABLE, rngs[:1], "one generator per setting"),
            (stack, fock.MODEL_INDISTINGUISHABLE, rngs[:1], "one generator per setting")):
        with pytest.raises(ValueError, match=match):
            apparatus.simulate_setting(bad, model, src, None, 50, gens, (1, 1, 1, 0))
        assert [rng.bit_generator.state for rng in rngs] == states


def test_a_target_past_the_cap_keeps_its_interference_law():
    """Without a source, a target of more than INTERFERENCE_PHOTON_CAP photons draws from its law.

    Nine photons, one per mode, through the 9-mode Fourier transform land
    on a forbidden pattern with weight below 1e-28; routed independently,
    most of them would.
    """
    n = apparatus.INTERFERENCE_PHOTON_CAP + 1
    events = apparatus.simulate_setting(linalg.fourier(n, n)[None], fock.MODEL_INDISTINGUISHABLE,
                                        None, None, 500, [np.random.default_rng(1)], (1,) * n)[0]
    assert events.shape == (500, n)
    assert not certify.forbidden_hits(events, certify.forbidden_patterns(n, n)).any()


def test_no_detection_model_is_the_ideal_detector():
    """Without a detection model the stream draws what it draws with DetectionModel.ideal.

    The ideal stand-in has blinding switched off, so a source run without
    detection blinds no event.
    """
    src = apparatus.SourceModel(squeezing=0.3, heralding_efficiency=0.9)
    mix = apparatus.distinguishability_mixture(src)
    stack = np.array([linalg.haar_random(4, (12, s)) for s in range(2)])
    got, want = (apparatus.simulate_setting(stack, mix, src, det, 2000,
                                            [np.random.default_rng((12, s)) for s in range(2)],
                                            (1, 1, 1, 0))
                 for det in (None, apparatus.DetectionModel.ideal(4)))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("floor", [True, False])
def test_kept_law_entries_sum_every_useful_input(n, floor):
    """The chunk bound counts every useful law and the largest live chain state, brute force.

    Inputs are useful at or below the cap; a chain stays live while its
    level is below the cap, at most level cap - 1 with one padding slot.
    """
    cap = apparatus.INTERFERENCE_PHOTON_CAP
    for m in (1, 3, 4, 8, 12):
        useful = [(j1, j2) for j1 in range(cap + 1) for j2 in range(cap + 1)
                  if j2 >= 1 and 2 * j1 + j2 <= cap and (not floor or 2 * j1 + j2 >= n)]
        live = {j1 for j1, j2 in useful if 2 * j1 + j2 < cap}
        want = (sum(math.comb(2 * j1 + j2 + m - 1, m - 1) for j1, j2 in useful)
                + len(live) * (math.comb(cap - 1 + m - 1, m - 1) + 1))
        assert apparatus._kept_law_entries(n, m, floor) == want
    if (n, floor) == (3, True):   # 18 useful inputs and 4 chains; 20 inputs with dark counts
        assert [apparatus._kept_law_entries(3, m, True) for m in (4, 8, 12)] == [2154, 61_624,
                                                                                  610_614]


@pytest.mark.parametrize("det, floor", [
    (None, True), (apparatus.DetectionModel.ideal(4), True),
    (apparatus.DetectionModel.uniform(4, loss=0.1), True),
    (apparatus.DetectionModel.uniform(4, dark_count_prob=0.01), False)])
def test_the_stream_needs_n_photons_only_without_dark_counts(monkeypatch, det, floor):
    """A useful shot carries n photons exactly when no channel fires in the dark; None is ideal."""
    assert apparatus._has_floor(det) is floor
    seen, useful_shots = [], apparatus._useful_shots
    monkeypatch.setattr(apparatus, "_useful_shots", lambda src, n, fl, *args:
                        seen.append(fl) or useful_shots(src, n, fl, *args))
    src = apparatus.SourceModel(squeezing=0.3, heralding_efficiency=0.9)
    apparatus.simulate_setting(linalg.haar_random(4, 1)[None], fock.MODEL_INDISTINGUISHABLE, src,
                               det, 20, [np.random.default_rng(1)], (1, 1, 1, 0))
    assert seen and set(seen) == {floor}


def test_event_stream_without_dark_counts_keeps_the_seed_law():
    """Drawing only useful source shots changes the draws, not the post-selected law."""
    src = apparatus.SourceModel(squeezing=0.45, heralding_efficiency=0.9)
    model = apparatus.distinguishability_mixture(src)
    det = apparatus.DetectionModel.uniform(4, loss=0.1)
    u = linalg.haar_random(4, 42)
    shots = 20_000
    got = apparatus.simulate_setting(u[None], model, src, det, shots, [np.random.default_rng(3)],
                                     (1, 1, 1, 0))[0]
    want = seed_event_stream(u, model, src, det, shots, np.random.default_rng(4), (1, 1, 1, 0))
    counts, basis = assert_same_pattern_law(got, want)
    assert counts[basis.index((1, 1, 1, 0))] > 1000


@pytest.mark.parametrize("floor", [True, False])
@pytest.mark.parametrize("squeezing, eta", [(0.3, 0.9), (0.8, 0.5), (0.6, 1.0), (0.5, 0.01)])
def test_useful_rate_is_the_truncated_pair_sum(squeezing, eta, floor):
    """q in closed form equals the sum of P(j1) P(j2) P(herald | j2) over useful (j1, j2)."""
    src = apparatus.SourceModel(squeezing=squeezing, heralding_efficiency=eta)
    r = squeezing**2
    j = np.arange(400)
    pairs = (1.0 - r) * r**j
    joint = pairs[:, None] * pairs * (1.0 - (1.0 - eta) ** j)
    for n in (3, 4, 5):
        useful = 2 * j[:, None] + j >= n if floor else True
        q = apparatus._useful_weights(src, n, floor).sum()
        assert abs(q - np.sum(joint, where=useful)) < 1e-12


@pytest.mark.parametrize("floor", [True, False])
def test_useful_shots_match_the_per_attempt_oracle(floor):
    """Joint (j1, j2) law and attempts per useful shot, against drawing every attempt."""
    src = apparatus.SourceModel(squeezing=0.8, heralding_efficiency=0.5)
    n, want = 3, 1_050_000
    q = apparatus._useful_weights(src, n, floor).sum()
    spent, j1, j2 = apparatus._useful_shots(src, n, floor, want, 10**9, np.random.default_rng(8))
    assert spent == math.ceil(want / q)
    assert apparatus._useful_shots(src, n, floor, want, 7, np.random.default_rng(8))[0] == 7
    rng = np.random.default_rng(9)
    oracle, attempts = [], 0
    while sum(b.size for b, _ in oracle) < want:
        b1, b2 = seed_heralded_pairs(src, 500_000, rng)
        attempts += 500_000
        keep = 2 * b1 + b2 >= n if floor else slice(None)
        oracle.append((b1[keep], b2[keep]))
    o1, o2 = (np.concatenate(x) for x in zip(*oracle))
    assert j1.size >= 1_000_000
    if floor:
        assert np.all(2 * j1 + j2 >= n)
    assert np.all(j2 >= 1)
    for tries, found in ((spent, j1.size), (attempts, o1.size)):
        # attempts per useful shot are geometric with mean 1/q and variance (1 - q)/q^2
        assert abs(tries / found - 1.0 / q) <= 5 * math.sqrt((1.0 - q) / found) / q
    cells = 13
    a, b = (np.bincount(np.minimum(x, cells - 1) * cells + np.minimum(y, cells - 1),
                        minlength=cells**2) / x.size for x, y in ((j1, j2), (o1, o2)))
    pooled = (a * j1.size + b * o1.size) / (j1.size + o1.size)
    sigma = np.sqrt(pooled * (1 - pooled) * (1 / j1.size + 1 / o1.size))
    assert np.all(np.abs(a - b) <= 5 * sigma)
    assert a.reshape(cells, cells)[:, n + 1:].sum() > 0.3  # the j2 tail carries weight


def test_zero_useful_rate_raises_at_once():
    rng = np.random.default_rng(1)
    for src in (apparatus.SourceModel(squeezing=0.0), apparatus.SourceModel(heralding_efficiency=0.0),
                apparatus.SourceModel(squeezing=1e-200)):  # lambda^2 underflows to 0
        with pytest.raises(ValueError, match="never heralds"):
            apparatus.simulate_setting(np.eye(4, dtype=complex)[None], fock.MODEL_INDISTINGUISHABLE,
                                       src, None, 10, [rng], target=(1, 1, 1, 0))


def test_source_requires_one_photon_in_each_of_the_first_three_modes():
    src = apparatus.SourceModel()
    rng = np.random.default_rng(2)
    for target in ((1, 1, 0, 0, 0), (2, 1, 0, 0), (1, 1, 1, 1), (1, 1)):
        u = np.eye(len(target), dtype=complex)[None]
        with pytest.raises(ValueError, match="first three modes"):
            apparatus.simulate_setting(u, fock.MODEL_INDISTINGUISHABLE, src, None, 10, [rng],
                                       target=target)
    # without a source the target itself is injected, whatever it is
    out = apparatus.simulate_setting(np.eye(5, dtype=complex)[None], fock.MODEL_INDISTINGUISHABLE,
                                     None, None, 10, [rng], target=(1, 1, 0, 0, 0))
    assert np.array_equal(out, np.tile((1, 1, 0, 0, 0), (1, 10, 1)))


def test_distinguishability_mixture_weights():
    src = apparatus.SourceModel()
    mix = apparatus.distinguishability_mixture(src)
    weights = [w for w, _ in mix.components]
    assert abs(sum(weights) - 1.0) < 1e-9
    assert weights[0] == pytest.approx(0.932 * 0.885)
    assert len(mix.components[2][1]) == 3
    with pytest.raises(ValueError):
        apparatus.distinguishability_mixture(src, (2, 1, 0, 0))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3), st.integers(1, 3), st.data())
def test_correct_counts_is_consistent(m, n, data):
    """Without dark counts, corrected n-click records converge to the law of the patterns sent.

    With N shots, the kept count of pattern s is Binomial(N, p_s r_s), r_s
    its resolve probability, and x_s = count / (N r_s) has standard
    deviation sigma_s = sqrt(p_s r_s (1 - p_s r_s) / N) / r_s. The corrected
    law is x / sum(x), whose TVD to p is at most sum_s |x_s - p_s|; so the
    TVD stays under 5 sum_s sigma_s whenever every x_s is within 5 sigma_s.
    Records of mixed click totals are refused.
    """
    weights = data.draw(st.lists(st.tuples(*[st.floats(0.2, 1 / 3)] * 3), min_size=m, max_size=m))
    det = apparatus.DetectionModel(weights=tuple(weights))
    size = math.comb(n + m - 1, n)
    mass = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size)))
    law = fock.FockDistribution(n, m, mass / mass.sum())
    shots = 100_000
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    fired = apparatus.qpnr_detect(fock.sample(law, shots, rng), det, rng)
    kept = fired[fired.sum(axis=1) == n]
    corrected = apparatus.correct_counts(kept, det)
    resolve = np.array([math.prod(apparatus.resolve_probability(det, i, int(c))
                                  for i, c in enumerate(occ)) for occ in law.basis])
    hit = law.probs * resolve
    sigma = np.sqrt(hit * (1.0 - hit) / shots) / resolve
    assert 0.5 * np.abs(corrected.probs - law.probs).sum() <= 5.0 * sigma.sum()
    with pytest.raises(ValueError, match="differ"):
        apparatus.correct_counts(np.vstack([kept, np.zeros_like(kept[:1])]), det)
