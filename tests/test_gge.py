"""Stationary marginals, distance traces and recurrences on the 4-mode ring."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import counted_evolution, seed_marginal, seed_recurrence_time, seed_trace_marginal
from photherm import fock, gge, hamiltonian, linalg

RING = hamiltonian.HamiltonianSpec(kind="hopping", modes=4)
INPUT = (1, 1, 1, 0)


def test_geometric_law_values():
    # density 3/4: p(k) = (3/4)^k / (7/4)^(k+1)
    assert abs(gge.geometric_photon_probability(0, 0.75) - 4 / 7) < 1e-12
    assert abs(gge.geometric_photon_probability(1, 0.75) - 12 / 49) < 1e-12
    assert abs(gge.geometric_photon_probability(2, 0.75) - 36 / 343) < 1e-12
    with pytest.raises(ValueError):
        gge.geometric_photon_probability(-1, 0.75)


def test_geometric_ratio_property():
    for d in (0.2, 0.75, 1.0, 2.5):
        ratio = d / (d + 1.0)
        for k in range(8):
            a = gge.geometric_photon_probability(k, d)
            b = gge.geometric_photon_probability(k + 1, d)
            assert abs(b - ratio * a) < 1e-15


def test_gge_marginal_tail_fold():
    ref = gge.gge_marginal(3, 4)
    expect = [Fraction(4, 7), Fraction(12, 49), Fraction(36, 343), Fraction(27, 343)]
    assert ref.probs.shape == (4,)
    for p, e in zip(ref.probs, expect):
        assert abs(p - float(e)) < 1e-12
    assert abs(ref.probs.sum() - 1.0) < 1e-15


def test_marginal_extraction():
    u = linalg.fourier(3, 4)
    dist = fock.output_distribution(u, INPUT)
    marg = gge.marginal(dist, 0)
    # mass 0: the two bunched patterns away from mode 0; mass 1: the balanced
    # pattern; mass 3: the bunch in mode 0
    expect = np.array([4 / 9, 1 / 3, 0.0, 2 / 9])
    assert np.max(np.abs(marg.probs - expect)) < 1e-12
    with pytest.raises(ValueError):
        gge.marginal(dist, 4)


def test_tvd_basic_properties():
    p = np.array([0.5, 0.5, 0.0])
    q = np.array([0.0, 0.5, 0.5])
    assert gge.tvd(p, p) == 0.0
    assert gge.tvd(p, q) == gge.tvd(q, p)
    assert abs(gge.tvd(p, q) - 0.5) < 1e-15
    assert gge.tvd(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    with pytest.raises(ValueError):
        gge.tvd(p, np.array([1.0, 0.0]))


def test_tvd_accepts_wrapped_distributions():
    start = gge.MarginalDistribution(0, np.array([0.0, 1.0, 0.0, 0.0]))
    ref = gge.gge_marginal(3, 4)
    # |0 - 4/7| + |1 - 12/49| + 36/343 + 27/343 halved = 259/343
    assert abs(gge.tvd(start, ref) - 259 / 343) < 1e-12


def test_equilibration_trace_reaches_below_start():
    times = np.linspace(0.0, 1.5, 16)
    trace = gge.equilibration_trace(RING, INPUT, times)
    assert [p.t for p in trace] == [float(t) for t in times]
    d0 = trace[0].tvd_to_gge
    assert abs(d0 - 259 / 343) < 1e-12
    interior = min(p.tvd_to_gge for p in trace[1:-1])
    assert interior < d0


def test_distinguishable_trace_stays_farther():
    """Classical photons relax less: their best approach to the reference is worse."""
    times = np.linspace(0.05, 1.5, 12)
    ind = gge.equilibration_trace(RING, INPUT, times, fock.MODEL_INDISTINGUISHABLE)
    dist = gge.equilibration_trace(RING, INPUT, times, fock.MODEL_DISTINGUISHABLE)
    assert min(p.tvd_to_gge for p in dist) > min(p.tvd_to_gge for p in ind)


def test_recurrence_time_on_ring():
    """Mode-0 marginal revives at pi/2, where the 4-ring acts as the swap 0<->2, 1<->3.

    The full state only revives at pi; the marginal scan must find the
    earlier time and the distance there must vanish to solver precision.
    """
    t_rec = gge.recurrence_time(RING, INPUT)
    assert abs(t_rec - np.pi / 2) < 1e-6
    u = hamiltonian.evolution(RING, t_rec)
    d = fock.output_distribution(u, INPUT)
    start = gge.marginal(fock.output_distribution(np.eye(4, dtype=complex), INPUT), 0)
    assert gge.tvd(gge.marginal(d, 0), start) < 1e-9
    full = fock.output_distribution(hamiltonian.evolution(RING, np.pi), INPUT)
    ref = fock.output_distribution(np.eye(4, dtype=complex), INPUT)
    assert gge.tvd(full, ref) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
def test_marginal_matches_the_per_pattern_loop(n, m, seed, data):
    """The bincount over the basis array adds the same terms in the same order as the loop."""
    probs = np.random.default_rng(seed).random(math.comb(n + m - 1, n))
    dist = fock.FockDistribution(n, m, probs / probs.sum())
    mode = data.draw(st.integers(0, m - 1))
    assert np.array_equal(gge.marginal(dist, mode).probs, seed_marginal(dist, mode))


# ---------------------------------------------------------------------------
# Traces evaluated as stacks of times


MODELS = (fock.MODEL_INDISTINGUISHABLE, fock.MODEL_DISTINGUISHABLE,
          ((1, 1, 0, 0), (0, 0, 1, 0)),
          fock.Mixture(((0.7, ((1, 1, 1, 0),)), (0.3, ((1, 0, 0, 0), (0, 1, 1, 0))))))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(MODELS),
       st.lists(st.floats(0.0, 4.0, allow_subnormal=False), min_size=0, max_size=9),
       st.integers(1, 4))
@example(MODELS[2], [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0], 2)
@example(MODELS[3], [0.0], 1)
@example(MODELS[0], [], 1)
def test_trace_chunks_equal_the_per_time_laws(model, times, rows):
    """Each chunk of at most `rows` times is one evolution; every point equals the single law.

    The chunk bound is lowered so that a few times already span several
    chunks; the first time of the list may be 0, where the ring is the identity.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fock, "MAX_PATTERNS", rows * 20)  # 20 patterns: 3 photons on 4 modes
        calls = counted_evolution(mp)
        trace = gge.equilibration_trace(RING, INPUT, times, model)
    assert calls == [min(rows, len(times) - lo) for lo in range(0, len(times), rows)]
    ref = gge.gge_marginal(3, 4)
    assert [p.t for p in trace] == times
    for pt in trace:
        want = seed_trace_marginal(RING, INPUT, pt.t, model, 0)
        assert np.array_equal(pt.marginal.probs, want)
        assert pt.marginal.mode == 0
        assert pt.tvd_to_gge == gge.tvd(want, ref)


def test_trace_of_no_times_is_empty_and_long_traces_take_one_evolution(monkeypatch):
    calls = counted_evolution(monkeypatch)
    assert gge.equilibration_trace(RING, INPUT, []) == []
    assert calls == []
    trace = gge.equilibration_trace(RING, INPUT, np.linspace(0.0, 3.0, 500))
    assert calls == [500]
    assert len(trace) == 500


@pytest.mark.parametrize("kwargs", [{}, {"input_occ": (2, 1, 0, 0)},
                                    {"spec": hamiltonian.HamiltonianSpec(kind="hopping", modes=5),
                                     "input_occ": (1, 1, 1, 0, 0)}])
def test_recurrence_time_equals_the_per_time_scan(kwargs):
    """The stacked coarse grid finds the same grid point, so the search returns the same float.

    The per-time scan reads _marginals of one time at a time. On the 4-mode
    ring those are the full laws' marginals bit for bit; the 5-mode input
    is solved on 4 modes, whose marginals differ from the full law's in the
    last bits, and the search's result moves by about 2e-9.
    """
    case = {"spec": RING, "input_occ": INPUT, **kwargs}
    got = gge.recurrence_time(**case)

    def one_time(t):
        return gge._marginals(**case, times=t, models=[fock.MODEL_INDISTINGUISHABLE])[0, 0]

    assert got == seed_recurrence_time(**case, marginal_at=one_time)
    full = seed_recurrence_time(**case)
    if case["spec"].modes == 4:
        assert got == full
    else:
        assert abs(got - full) < 1e-7


def test_recurrence_time_diagonalizes_each_spec_once(monkeypatch):
    """Every evolution of a recurrence search reuses its spec's one eigendecomposition.

    The 5-mode long_range search takes over 50 evolutions; each equals
    linalg.expm_hermitian of the freshly built generator bit for bit.
    """
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    hamiltonian._spectrum.cache_clear()
    evolutions = counted_evolution(monkeypatch)
    long_range = hamiltonian.HamiltonianSpec(kind="long_range", modes=5, seed=3)
    gge.recurrence_time(long_range, (1, 1, 1, 0, 0))
    assert len(evolutions) > 50 and calls == [(5, 5)]
    gge.recurrence_time(RING, INPUT)
    gge.recurrence_time(long_range, (1, 1, 1, 0, 0))
    assert calls == [(5, 5), (4, 4)]
    for spec in (long_range, RING):
        for t in (0.7, np.linspace(0.0, 2.0, 5)):
            want = linalg.expm_hermitian(hamiltonian.build(spec), t)
            assert np.array_equal(hamiltonian.evolution(spec, t), want)


def test_stacked_marginals_of_every_model_equal_the_single_laws(monkeypatch):
    """One _marginals call over all models: each (model, time) row is its single law's marginal.

    The chunk bound is lowered to 3 times, so 8 times take three
    evolutions, each shared by the four models.
    """
    times = [0.0, 0.3, 0.9, 1.2, 1.7, 2.2, 2.9, 3.6]
    monkeypatch.setattr(fock, "MAX_PATTERNS", 3 * 20)   # 20 patterns: 3 photons on 4 modes
    calls = counted_evolution(monkeypatch)
    got = gge._marginals(RING, INPUT, times, MODELS)
    assert calls == [3, 3, 2]
    monkeypatch.undo()
    assert got.shape == (len(MODELS), len(times), 4)
    for model, rows in zip(MODELS, got):
        for t, row in zip(times, rows):
            want = gge.marginal(fock.output_distribution(hamiltonian.evolution(RING, t), INPUT,
                                                         model), 0).probs
            assert row.tobytes() == want.tobytes()


def test_stacked_distances_equal_the_tvd_of_each_row():
    """0.5 * sum |margs - ref| over the last axis of a stack equals gge.tvd row by row, bit for bit."""
    rng = np.random.default_rng(2)
    for n in range(1, 14):
        ref = gge.gge_marginal(n, 8).probs
        margs = rng.dirichlet(np.full(n + 1, 0.5), size=(3, 40))
        dists = 0.5 * np.sum(np.abs(margs - ref), axis=-1)
        for got, row in zip(dists.ravel().tolist(), margs.reshape(-1, n + 1)):
            assert got == gge.tvd(row, ref)


@pytest.mark.parametrize("shift, raises", [(-1e-12, None), (-1e-8, "negative"),
                                           (1e-8, "sum to")])
def test_stacked_marginals_are_checked_and_clipped_row_by_row(shift, raises, monkeypatch):
    """A law whose mode-0 marginal dips below 0 or misses a sum of 1 is clipped, or raises.

    The second of two times moves `shift` of its mass onto a pattern with
    no photon in mode 0; within PROB_SUM_TOL that bin reads +0.0.
    """
    laws = fock._laws
    empty = int(np.nonzero(fock._patterns(3, 4)[:, 0] == 0)[0][0])

    def shifted(u, occ, model):
        out = laws(u, occ, model)
        out[1] = 0.0
        out[1, 0] = 1.0 - min(shift, 0.0)
        out[1, empty] = shift
        return out

    monkeypatch.setattr(fock, "_laws", shifted)
    if raises:
        with pytest.raises(ValueError, match=raises):
            gge._marginals(RING, INPUT, [0.5, 1.0], [fock.MODEL_INDISTINGUISHABLE])
        return
    got = gge._marginals(RING, INPUT, [0.5, 1.0], [fock.MODEL_INDISTINGUISHABLE])[0, 1]
    assert got[0] == 0.0 and not np.signbit(got).any()


# ---------------------------------------------------------------------------
# Marginals solved on k = d + 1 modes for d occupied input modes


def _models_of(occ, rng) -> list:
    """The two names and, with photons, one-species, random two-species and mixture models."""
    models = [fock.MODEL_INDISTINGUISHABLE, fock.MODEL_DISTINGUISHABLE]
    photons = np.array(fock.mode_assignment(occ), dtype=int)
    if photons.size:
        models.append((occ,))
    if photons.size >= 2:
        first = np.bincount(rng.permutation(photons)[:rng.integers(1, photons.size)],
                            minlength=len(occ))
        split = (tuple(first.tolist()), tuple((np.array(occ) - first).tolist()))
        singles = tuple(tuple(np.eye(len(occ), dtype=int)[j].tolist()) for j in photons)
        models += [split, fock.Mixture(((0.6, (occ,)), (0.3, split), (0.1, singles)))]
    return models


def _assert_oracle_marginals(kind, occ, seed):
    """Every model's _marginals rows lie within 1e-13 of the full law's marginal."""
    spec = hamiltonian.HamiltonianSpec(kind=kind, modes=len(occ),
                                       seed=seed if kind == "long_range" else None)
    times = [0.0, 0.43, 1.7, 3.1]
    models = _models_of(occ, np.random.default_rng(seed))
    got = gge._marginals(spec, occ, times, models)
    assert got.shape == (len(models), len(times), sum(occ) + 1)
    for model, rows in zip(models, got):
        for t, row in zip(times, rows):
            want = gge.marginal(fock.output_distribution(hamiltonian.evolution(spec, t), occ,
                                                         model), 0).probs
            assert np.max(np.abs(row - want)) < 1e-13


@pytest.mark.parametrize("kind", ["hopping", "long_range"])
@pytest.mark.parametrize("occ", [
    (2, 1, 0, 0, 0),                # repeated input with photons in mode 0: 3 of 5 modes
    (0, 2, 0, 1, 0, 0, 0),          # none in mode 0: 3 of 7 modes
    (0, 0, 0, 0, 3, 0, 0, 0, 3),    # two bunches: 3 of 9 modes
    (1, 0, 1, 0, 1, 0, 1, 0),       # the benchmark sweep's input: 5 of 8 modes
    (0, 1, 1, 1, 1, 1, 1, 0, 0),    # 7 of 9 modes
    (1, 1, 1, 1),                   # every mode occupied: d + 1 = m + 1, no reduction
    (0, 1, 2, 3),                   # k = m, no reduction
    (0, 6), (6, 0),                 # 2 modes, 1 occupied: k = m
    (0, 0, 0),                      # no photons: 1 of 3 modes
])
def test_reduced_marginals_match_the_full_law(kind, occ):
    _assert_oracle_marginals(kind, occ, 17)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["hopping", "long_range"]), st.integers(2, 9), st.integers(0, 6),
       st.integers(0, 2**32 - 1))
def test_random_reduced_marginals_match_the_full_law(kind, m, n, seed):
    """Photons drawn from a random subset of the modes, so d ranges over 0..min(n, m)."""
    rng = np.random.default_rng(seed)
    modes = rng.choice(m, rng.integers(1, m + 1), replace=False)
    occ = tuple(np.bincount(rng.choice(modes, n), minlength=m).tolist())
    _assert_oracle_marginals(kind, occ, seed)


def test_reduced_rows_do_not_depend_on_the_chunking(monkeypatch):
    """On a shape solved on 4 of 7 modes, stacked and chunked rows equal single-time rows bit for bit.

    The chunk bound is lowered to 3 times (49 unitary entries outweigh the
    35 patterns of 4 photons on 4 modes), so 8 times take three evolutions.
    """
    spec = hamiltonian.HamiltonianSpec(kind="long_range", modes=7, seed=5)
    occ = (0, 2, 0, 1, 0, 1, 0)
    models = _models_of(occ, np.random.default_rng(5))
    times = [0.0, 0.3, 0.9, 1.2, 1.7, 2.2, 2.9, 3.6]
    singles = [gge._marginals(spec, occ, [t], models)[:, 0] for t in times]
    calls = counted_evolution(monkeypatch)
    whole = gge._marginals(spec, occ, times, models)
    monkeypatch.setattr(fock, "MAX_PATTERNS", 3 * 49)
    chunked = gge._marginals(spec, occ, times, models)
    assert calls == [8, 3, 3, 2]
    for i, single in enumerate(singles):
        assert whole[:, i].tobytes() == single.tobytes() == chunked[:, i].tobytes()


def test_a_sixteen_mode_sweep_builds_no_sixteen_mode_level(monkeypatch):
    """4 photons in 4 of 16 modes are solved on 5 modes: no basis, chunk bound or law of 16."""
    seen, levels = set(), fock._levels
    monkeypatch.setattr(fock, "_levels", lambda k, m: seen.add(m) or levels(k, m))
    spec = hamiltonian.HamiltonianSpec(kind="hopping", modes=16)
    occ = (1, 1, 0, 0, 1, 0, 0, 0, 1) + (0,) * 7
    models = _models_of(occ, np.random.default_rng(3))
    got = gge._marginals(spec, occ, np.linspace(0.05, 2.9, 20), models)
    assert seen == {5}
    assert got.shape == (len(models), 20, 5)


def test_zero_photons_leave_mode_zero_empty():
    spec = hamiltonian.HamiltonianSpec(kind="hopping", modes=5)
    models = [fock.MODEL_INDISTINGUISHABLE, fock.MODEL_DISTINGUISHABLE]
    assert gge._marginals(spec, (0,) * 5, [0.0, 0.8], models).tolist() == [[[1.0]] * 2] * 2
    (point,) = gge.equilibration_trace(spec, (0,) * 5, [0.8])
    assert point.marginal.probs.tolist() == [1.0] and point.tvd_to_gge == 0.0


@pytest.mark.parametrize("occ, model, message", [
    ((1, 0, 1, 0, 0, 0), fock.MODEL_INDISTINGUISHABLE,
     r"input pattern has 6 modes, expected 8"),
    ((1, 0, 1, 0, 0, 0, 0, 0), "bosonic", r"unknown distinguishability model 'bosonic'"),
    ((1, 0, 1, 0, 0, 0, 0, 0), ((1, 0, 0, 0, 0, 0, 0, 0),),
     r"partition input \(1, 0, 0, 0, 0, 0, 0, 0\) differs from \(1, 0, 1, 0, 0, 0, 0, 0\)"),
    ((1, 0, 1, 0, 0, 0, 0, 0), fock.Mixture(((1.0, ((1, 1, 0, 0, 0, 0, 0, 0),)),)),
     r"mixture component input \(1, 1, 0, 0, 0, 0, 0, 0\) differs from \(1, 0, 1, 0, 0, 0, 0, 0\)"),
    ((1, 0, 1, 0, 0, 0, 0, 0), ((1, 0, 1, 0),), r"species pattern has 4 modes, expected 8"),
])
def test_reduced_problems_keep_the_errors_of_the_full_one(occ, model, message):
    """The input and the models are checked on all 8 modes, so the messages name 8-mode patterns."""
    spec = hamiltonian.HamiltonianSpec(kind="hopping", modes=8)
    with pytest.raises(ValueError, match=message):
        gge._marginals(spec, occ, [0.5], [fock.MODEL_DISTINGUISHABLE, model])
