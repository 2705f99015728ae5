"""Release acceptance suite: one check per shipping criterion.

Every test finishes by printing a single PASS line with the measured
numbers, so a log scan shows each criterion's outcome next to the
pytest verdict. Tolerances are part of the release contract; do not
loosen them here.
"""

import json
import math
import time

import numpy as np

from photherm import apparatus, certify, cli, fock, gge, hamiltonian, linalg

from conftest import naive_permanent

RING = hamiltonian.HamiltonianSpec(kind="hopping", modes=4)
INPUT = (1, 1, 1, 0)


def test_criterion_01_permanent_oracle():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
        worst = max(worst, abs(fock.permanent(a) - naive_permanent(a)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 5.0
    print(f"criterion 1 PASS: permanent residual {worst:.2e} over 200 matrices "
          f"in {elapsed:.2f} s")


def test_criterion_02_two_photon_suppression():
    bs = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    coincidence = fock.prob_indistinguishable(bs, (1, 1), (1, 1))
    classical = fock.prob_distinguishable(bs, (1, 1), (1, 1))
    assert abs(coincidence) < 1e-14
    assert abs(classical - 0.5) < 1e-14
    print(f"criterion 2 PASS: coincidence {coincidence:.1e}, "
          f"classical {classical!r}")


def test_criterion_03_fourier_allowed_support():
    dist = fock.output_distribution(linalg.fourier(3, 4), INPUT)
    allowed = {(1, 1, 1, 0), (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0)}
    support = {occ for occ, p in zip(dist.basis, dist.probs) if p > 1e-12}
    leak = max((p for occ, p in zip(dist.basis, dist.probs) if occ not in allowed),
               default=0.0)
    assert support == allowed
    assert all(dist.prob_of(occ) > 0.1 for occ in allowed)
    assert leak < 1e-12
    print(f"criterion 3 PASS: support is the four allowed patterns, "
          f"largest leak {leak:.1e}")


def test_criterion_04_class_weights():
    start = time.perf_counter()
    lams = dict(certify.lambda_coefficients(3, 4))
    exact = {(2, 1): 4.0 / 9.0, (1, 1, 1): 2.0 / 3.0}
    for sizes, want in exact.items():
        assert abs(lams[sizes] - want) < 1e-12
    checks = []
    for sizes, want in exact.items():
        est, sigma = certify.lambda_monte_carlo(3, 4, sizes, 100_000, seed=12)
        assert abs(est - want) < 3.0 * sigma
        checks.append(f"{'+'.join(map(str, sizes))} -> {est:.4f} (3 sigma {3 * sigma:.4f})")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 4 PASS: weights 4/9 and 2/3 exact; sampled {'; '.join(checks)} "
          f"in {elapsed:.1f} s")


def test_criterion_05_stationary_marginal():
    ref = gge.gge_marginal(3, 4)
    wants = (4.0 / 7.0, 12.0 / 49.0, 36.0 / 343.0)
    for k, want in enumerate(wants):
        assert abs(ref.probs[k] - want) < 1e-12
    density = 3.0 / 4.0
    ratio = density / (1.0 + density)
    for k in range(12):
        got = gge.geometric_photon_probability(k + 1, density) / \
            gge.geometric_photon_probability(k, density)
        assert abs(got - ratio) < 1e-12
    print(f"criterion 5 PASS: marginal values {wants[0]:.6f}, {wants[1]:.6f}, "
          f"{wants[2]:.6f}; geometric ratio {ratio:.6f} for all k")


def test_criterion_06_noiseless_revival_bound():
    shots = 100_000
    s1, s2 = certify.collect_setting_samples(RING, 1.0, fock.MODEL_INDISTINGUISHABLE,
                                             shots, seed=6)
    assert np.array_equal(s1, np.tile(INPUT, (shots, 1)))
    p1, k1 = certify.estimate_p1(s1, INPUT)
    p2, k2 = certify.estimate_p2(s2, certify.forbidden_patterns(3, 4))
    assert p1 == 1.0
    assert p2 == 0.0
    res = certify.fidelity_bound(p1, k1, p2, k2, certify.lambda_coefficients(3, 4),
                                 0.9, 0.9)
    floor = 1.0 - 2.0 * certify.chebyshev_delta(0.25, shots, 0.9)
    assert res.f_lower + 1e-12 >= floor
    print(f"criterion 6 PASS: p1 = 1, p2 = 0 over {shots} shots, "
          f"f_lower {res.f_lower:.6f} >= {floor:.6f}")


def test_criterion_07_recurrence_and_equilibration():
    t_rec = gge.recurrence_time(RING, INPUT)
    start = gge.marginal(fock.output_distribution(np.eye(4, dtype=complex), INPUT), 0)
    revived = gge.marginal(
        fock.output_distribution(hamiltonian.evolution(RING, t_rec), INPUT), 0)
    revival_tvd = gge.tvd(revived, start)
    assert revival_tvd < 1e-9

    times = tuple(np.linspace(0.0, t_rec, 61))
    curves = {}
    for model in (fock.MODEL_INDISTINGUISHABLE, fock.MODEL_DISTINGUISHABLE):
        trace = gge.equilibration_trace(RING, INPUT, times, model)
        curves[model] = [pt.tvd_to_gge for pt in trace]
    indist = curves[fock.MODEL_INDISTINGUISHABLE]
    assert min(indist[1:-1]) < indist[0]
    assert min(curves[fock.MODEL_DISTINGUISHABLE]) > min(indist)
    print(f"criterion 7 PASS: revival TVD {revival_tvd:.1e} at scanned t_rec "
          f"{t_rec:.6f}; equilibration minima {min(indist):.4f} (interfering) < "
          f"{min(curves[fock.MODEL_DISTINGUISHABLE]):.4f} (classical)")


def test_criterion_08_multiplexing_correction():
    truth = fock.output_distribution(linalg.fourier(3, 4), INPUT,
                                     fock.MODEL_DISTINGUISHABLE)
    det = apparatus.DetectionModel(weights=((0.5, 0.3, 0.15), (0.25, 0.25, 0.25),
                                            (0.4, 0.4, 0.1), (0.3, 0.3, 0.3)))
    rng = np.random.default_rng(8)
    fired = apparatus.qpnr_detect(fock.sample(truth, 1_000_000, rng), det, rng)
    records = fired[fired.sum(axis=1) == 3]
    corrected = apparatus.correct_counts(records, det)
    raw = np.bincount(fock._rank(apparatus.pattern_from_clicks(records, 4), 3),
                      minlength=len(corrected.basis)) / len(records)
    tvd_corrected = 0.5 * float(np.sum(np.abs(corrected.probs - truth.probs)))
    tvd_raw = 0.5 * float(np.sum(np.abs(raw - truth.probs)))
    assert tvd_corrected < 0.01
    assert tvd_raw >= 0.01
    print(f"criterion 8 PASS: corrected TVD {tvd_corrected:.4f} < 0.01 over "
          f"{len(records)} kept records; uncorrected {tvd_raw:.4f} fails")


def test_criterion_09_witness_bands():
    at_start = certify.witness_threshold(np.eye(4, dtype=complex), INPUT, 1)
    assert abs(at_start - 1.0) < 1e-12

    clean = certify.certify(RING, 1.0, fock.MODEL_INDISTINGUISHABLE, 20_000, 9,
                            0.9, 0.9)
    assert clean.f_lower > clean.witness_threshold
    assert clean.entangled is True

    src = apparatus.SourceModel(squeezing=0.3, heralding_efficiency=0.9)
    app = apparatus.Apparatus(source=src,
                              detection=apparatus.DetectionModel.uniform(4),
                              mesh_jitter=apparatus.jitter_for_fidelity(0.98, 4))
    noisy = certify.certify(RING, 1.0, apparatus.distinguishability_mixture(src),
                            20_000, 7, 0.9, 0.9, app=app)
    assert 0.25 < noisy.f_lower < 0.6
    print(f"criterion 9 PASS: threshold 1.0 at t=0; clean f_lower {clean.f_lower:.4f} "
          f"> {clean.witness_threshold:.4f}; hardware-model f_lower "
          f"{noisy.f_lower:.4f} in (0.25, 0.6)")


def test_criterion_10_byte_identical_runs(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "hamiltonian": {"kind": "hopping", "modes": 4},
        "times": [0.0, 1.0],
        "model": "indistinguishable",
        "shots": 300,
        "seed": 5,
        "certification": {"eps1": 0.9, "eps2": 0.9},
    }))
    compared = 0
    for command in ("evolve", "gge", "certify"):
        trees = []
        for rep in ("a", "b"):
            out = tmp_path / command / rep
            assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
            run = next(out.iterdir())
            trees.append({p.name: p.read_bytes() for p in sorted(run.iterdir())})
        assert trees[0] == trees[1]
        compared += len(trees[0])
    print(f"criterion 10 PASS: evolve, gge and certify reruns byte-identical "
          f"across {compared} files")
