"""Transition laws against brute-force oracles and closed forms."""

from __future__ import annotations

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (naive_permanent, oracle_prob_species, seed_creation_map,
                      seed_enumerate_basis, seed_prob_of)
from photherm import certify, fock, gge, hamiltonian, linalg

BS = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def test_basis_order_and_count():
    assert fock.enumerate_basis(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert fock.enumerate_basis(2, 3) == (
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2))
    for n, m in [(0, 3), (3, 4), (4, 5)]:
        assert len(fock.enumerate_basis(n, m)) == math.comb(n + m - 1, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), st.integers(1, 9))
@example(0, 1)
@example(0, 9)
@example(7, 1)
@example(7, 9)
@example(256, 2)  # level 255 on 2 modes has 256 patterns: level 256's sentinel needs uint16
def test_basis_arrays_match_the_recursive_oracle(n, m):
    """The array-built basis, its tuples, ranks and every level's creation map equal the seed builders.

    Each map's src takes the narrowest dtype of its sentinel, the size of
    level k - 1, and its counts are the transposed basis of the level.
    Level 0 has nothing below it, so its map is the sentinel 0 everywhere.
    """
    want = seed_enumerate_basis(n, m)
    assert fock.enumerate_basis(n, m) == want
    pats = fock._patterns(n, m)
    assert pats.dtype == np.min_scalar_type(n)
    assert not pats.flags.writeable
    assert np.array_equal(pats, np.array(want, dtype=pats.dtype).reshape(-1, m))
    assert np.array_equal(fock._rank(pats, n), np.arange(len(want)))
    basis, src = fock._levels(0, m)
    assert src.dtype == np.uint8 and not src.flags.writeable
    assert np.array_equal(src, np.zeros((m, 1)))
    for k in range(1, n + 1):
        basis, src = fock._levels(k, m)
        assert src.dtype == np.min_scalar_type(math.comb(k + m - 2, m - 1))
        assert basis is fock._patterns(k, m)
        for got, oracle in zip((src, basis.T), seed_creation_map(k, m)):
            assert not got.flags.writeable
            assert np.array_equal(got, oracle)


def _with_empty_basis_cache(build):
    """build() with fock._LEVELS empty, and the levels it cached; the cache is restored after."""
    saved, fock._LEVELS = fock._LEVELS, {}
    try:
        return build(), fock._LEVELS
    finally:
        fock._LEVELS = saved


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 7), st.integers(1, 9), st.randoms(use_true_random=False))
@example(300, 1, None)  # levels below 256 narrow to uint8 under a uint16 top level
def test_basis_build_caches_every_level_as_its_own_fresh_build(n, m, order):
    """One build caches every level 0..n; each equals a fresh build, read-only, in any call order.

    Both arrays of a level: its basis and its gather map.
    """
    top, cached = _with_empty_basis_cache(lambda: fock._patterns(n, m))
    assert sorted(cached) == [(k, m) for k in range(n + 1)]
    assert cached[n, m][0] is top
    levels = list(range(n + 1))
    if order is not None:
        order.shuffle(levels)
    shuffled, _ = _with_empty_basis_cache(lambda: {k: fock._levels(k, m) for k in levels})
    for k in levels:
        fresh, _ = _with_empty_basis_cache(lambda: fock._levels(k, m))
        for got in (cached[k, m], shuffled[k]):
            for got_array, want in zip(got, fresh):
                assert got_array.dtype == want.dtype
                assert not got_array.flags.writeable
                assert np.array_equal(got_array, want)
            assert got[0].dtype == np.min_scalar_type(k)


def test_one_photon_on_many_modes():
    """Ranking on 70 modes needs only basis sizes, which fit int64 whenever the basis fits."""
    u = linalg.haar_random(70, 9)
    dist = fock.output_distribution(u, (1,) + (0,) * 69)
    assert np.max(np.abs(dist.probs - np.abs(u[:, 0]) ** 2)) < 1e-12


@pytest.mark.parametrize("n, m", [(-1, 3), (2, 0), (0, -1)])
def test_basis_rejects_negative_photons_and_empty_modes(n, m):
    with pytest.raises(ValueError):
        fock.enumerate_basis(n, m)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(0, 1), (1, 1), (3, 4), (10, 2), (10, 3), (12, 2), (4, 6),
                        (100, 2), (150, 2), (9, 3), (99, 3)]),
       st.integers(0, 2**32 - 1))
@example((10, 2), 0)
@example((10, 3), 0)
@example((100, 2), 0)
@example((150, 2), 0)
@example((99, 3), 0)
def test_csv_rows_match_joined_counts(shape, seed):
    """Block-built labels give the rows of the per-row join at any block size, two- and
    three-digit counts included."""
    n, m = shape
    basis = fock.enumerate_basis(n, m)
    probs = np.random.default_rng(seed).random(len(basis))
    dist = fock.FockDistribution(n, m, probs / probs.sum())
    want = [("|".join(str(c) for c in occ), float(p)) for occ, p in zip(basis, dist.probs)]
    for block in (1, 2, 7, fock.CSV_BLOCK):
        with mock.patch.object(fock, "CSV_BLOCK", block):
            assert list(dist.csv_rows()) == want


def test_mode_assignment():
    assert fock.mode_assignment((2, 0, 0, 1)) == (0, 0, 3)
    assert fock.mode_assignment((0, 0, 0)) == ()
    with pytest.raises(ValueError):
        fock.mode_assignment((1, -1))


def test_permanent_base_cases():
    assert fock.permanent(np.zeros((0, 0))) == 1.0
    assert fock.permanent(np.array([[3.5]])) == 3.5
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert abs(fock.permanent(a) - 10.0) < 1e-14


def test_permanent_matches_naive_sum():
    rng = np.random.default_rng(17)
    for k in range(60):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert abs(fock.permanent(a) - naive_permanent(a)) < 1e-9


def test_permanent_row_scaling():
    # multilinearity in rows is an algebraic identity the subset sums must keep
    rng = np.random.default_rng(18)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    b = a.copy()
    b[2] *= 2.5
    assert abs(fock.permanent(b) - 2.5 * fock.permanent(a)) < 1e-9


def test_permanent_dimension_cap():
    with pytest.raises(ValueError):
        fock.permanent(np.eye(fock.PERMANENT_MAX_DIM + 1))


@pytest.mark.parametrize("n", [13, 18])
def test_permanents_past_one_block_of_subsets_are_exact(n):
    """2^n subsets span several blocks of 4,096; every block, the last one too, is summed.

    Only the full column set adds a nonzero term for a permutation matrix
    or a diagonal one, so both permanents come out exact: 1 and n!.
    """
    perm = np.eye(n)[np.random.default_rng(n).permutation(n)]
    assert fock.permanent(perm) == 1.0
    assert fock.permanent(np.diag(np.arange(1.0, n + 1))) == math.factorial(n)


def test_permanent_matches_naive_sum_up_to_eight_modes():
    """Complex matrices with entries of a unitary's size, n = 1..8, within 1e-12 of the n! sum."""
    rng = np.random.default_rng(23)
    for n in range(1, 9):
        for _ in range(2):
            a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2 * n)
            assert abs(fock.permanent(a) - naive_permanent(a)) < 1e-12


def test_permanent_of_eighteen_modes_traces_one_block_of_subsets():
    """The 2^18 subsets are summed a block at a time: the peak stays under 8 MB.

    A block's membership rows and row sums take about 40 bytes per subset
    and column, 3.0 MB at n = 18; the whole sum at once would take 190 MB.
    """
    import tracemalloc

    a = linalg.haar_random(18, 3)
    tracemalloc.start()
    try:
        fock.permanent(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, peak


def test_submatrix_repeats_rows_and_columns():
    u = np.arange(16, dtype=complex).reshape(4, 4)
    sub = fock.submatrix(u, (2, 0, 0, 1), (0, 3, 0, 0))
    assert sub.shape == (3, 3)
    assert np.array_equal(sub[0], [u[1, 0], u[1, 0], u[1, 3]])
    assert np.array_equal(sub[:, 2], [u[1, 3]] * 3)
    with pytest.raises(ValueError):
        fock.submatrix(u, (1, 0, 0, 0), (1, 1, 0, 0))


def test_hom_dip():
    """Two photons on a balanced splitter never exit in different arms."""
    assert fock.prob_indistinguishable(BS, (1, 1), (1, 1)) < 1e-14
    assert abs(fock.prob_indistinguishable(BS, (1, 1), (2, 0)) - 0.5) < 1e-14
    assert abs(fock.prob_distinguishable(BS, (1, 1), (1, 1)) - 0.5) < 1e-14
    assert abs(fock.prob_distinguishable(BS, (1, 1), (2, 0)) - 0.25) < 1e-14


def test_transition_laws_normalize_on_haar():
    for k in range(6):
        m = 3 + k % 3
        u = linalg.haar_random(m, (31, k))
        r = tuple(1 if j < 3 else 0 for j in range(m))
        for law in (fock.prob_indistinguishable, fock.prob_distinguishable):
            s = sum(law(u, r, out) for out in fock.enumerate_basis(3, m))
            assert abs(s - 1.0) < 1e-9


def test_prob_distinguishable_matches_independent_photons():
    """Monte Carlo oracle: route each photon independently by |u|^2 columns."""
    u = linalg.haar_random(4, 77)
    r = (1, 1, 1, 0)
    shots = 200_000
    rng = np.random.default_rng(5)
    w = np.abs(u) ** 2
    counts: dict = {}
    draws = [rng.choice(4, size=shots, p=w[:, col] / w[:, col].sum()) for col in range(3)]
    for a, b, c in zip(*draws):
        occ = [0, 0, 0, 0]
        occ[a] += 1
        occ[b] += 1
        occ[c] += 1
        occ = tuple(occ)
        counts[occ] = counts.get(occ, 0) + 1
    for out in fock.enumerate_basis(3, 4):
        p = fock.prob_distinguishable(u, r, out)
        freq = counts.get(out, 0) / shots
        sigma = math.sqrt(max(p * (1 - p), 1e-9) / shots)
        assert abs(freq - p) < 4 * sigma


def test_species_reduces_to_both_limits():
    u = linalg.haar_random(4, 13)
    r = (1, 1, 1, 0)
    one_species = ((1, 1, 1, 0),)
    singletons = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    one = fock.output_distribution(u, fock.partition_input(one_species), one_species)
    single = fock.output_distribution(u, fock.partition_input(singletons), singletons)
    for out, p_one, p_single in zip(fock.enumerate_basis(3, 4), one.probs, single.probs):
        assert abs(p_one - fock.prob_indistinguishable(u, r, out)) < 1e-12
        assert abs(p_single - fock.prob_distinguishable(u, r, out)) < 1e-12


def test_species_normalizes():
    # output_distribution raises when the engine's law misses 1 by more than PROB_SUM_TOL
    u = linalg.haar_random(4, 14)
    part = ((1, 1, 0, 0), (0, 0, 1, 0))
    s = fock.output_distribution(u, fock.partition_input(part), part).probs.sum()
    assert abs(s - 1.0) < 1e-9


def test_species_validation():
    u = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        fock.output_distribution(u, (1, 1, 1, 0), ())
    with pytest.raises(ValueError):
        fock.output_distribution(u, (1, 1, 1, 0), ((0, 0, 0, 0), (1, 1, 1, 0)))
    with pytest.raises(ValueError):
        fock.output_distribution(u, (1, 1, 0, 0), ((1, 0, 0, 0),))


def test_fourier_allowed_support():
    """Three photons through the 3-mode transform land only on the four allowed patterns."""
    u = linalg.fourier(3, 4)
    dist = fock.output_distribution(u, (1, 1, 1, 0))
    allowed = {(1, 1, 1, 0): 1 / 3, (3, 0, 0, 0): 2 / 9,
               (0, 3, 0, 0): 2 / 9, (0, 0, 3, 0): 2 / 9}
    for occ, p in zip(dist.basis, dist.probs):
        if occ in allowed:
            assert abs(p - allowed[occ]) < 1e-12
        else:
            assert p < 1e-12


def test_output_distribution_models():
    u = linalg.haar_random(4, 55)
    r = (1, 1, 1, 0)
    ind = fock.output_distribution(u, r, fock.MODEL_INDISTINGUISHABLE)
    dist = fock.output_distribution(u, r, fock.MODEL_DISTINGUISHABLE)
    assert np.max(np.abs(ind.probs - dist.probs)) > 1e-3
    part = ((1, 1, 0, 0), (0, 0, 1, 0))
    mix = fock.Mixture(((0.25, part), (0.75, (r,))))
    blended = fock.output_distribution(u, r, mix)
    spec_dist = fock.output_distribution(u, r, part)
    expect = 0.25 * spec_dist.probs + 0.75 * ind.probs
    assert np.max(np.abs(blended.probs - expect)) < 1e-12
    with pytest.raises(ValueError):
        fock.output_distribution(u, r, "semiclassical")
    with pytest.raises(ValueError):
        fock.output_distribution(u, r, ((1, 1, 0, 0),))


def test_mixture_weight_validation():
    part = ((1, 0), (0, 1))
    with pytest.raises(ValueError):
        fock.Mixture(((0.5, part),))
    with pytest.raises(ValueError):
        fock.Mixture(((-0.2, part), (1.2, part)))


_EYE3 = np.eye(3, dtype=complex)
# Each entry point with one integer it checks replaced by c; the second entry
# is the value that integer takes in a valid call.
_INTEGER_ENTRY_POINTS = {
    "state_vector": (lambda c: fock.state_vector(_EYE3, (c, 1, 0)), 1),
    "output_distribution": (lambda c: fock.output_distribution(_EYE3, (c, 1, 0)), 1),
    "mixture": (lambda c: fock.Mixture(((1.0, ((c, 1, 0),)),)), 1),
    "witness_threshold": (lambda c: certify.witness_threshold(_EYE3, (c, 1, 0)), 1),
    "equilibration_trace": (lambda c: gge.equilibration_trace(
        hamiltonian.HamiltonianSpec(kind="hopping", modes=3), (c, 1, 0), [0.5]), 1),
    "hamiltonian_modes": (lambda c: hamiltonian.HamiltonianSpec(kind="hopping", modes=c), 3),
    "prob_of": (lambda c: fock.FockDistribution(2, 3, [0.5, 0.5, 0, 0, 0, 0]).prob_of((c, 1, 0)),
                1),
    "revival_hits": (lambda c: certify.revival_hits(np.array([[1, 1, 0]]), (c, 1, 0)), 1),
    "lambda_monte_carlo": (lambda c: certify.lambda_monte_carlo(3, 4, (c, 2), 10, 0), 1),
}


@pytest.mark.parametrize("entry", sorted(_INTEGER_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [lambda v: v + 0.5, float, np.float64, str,
                                 lambda v: True, lambda v: np.True_],
                         ids=["half", "float", "float64", "str", "bool", "numpy_bool"])
def test_photon_counts_and_mode_counts_must_be_integers(entry, bad):
    """A float, a bool or a string is refused, where int() once truncated 1.5 to 1 silently."""
    call, good = _INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match="integer"):
        call(bad(good))
    for numpy_int in (np.int64(good), np.uint8(good)):
        call(numpy_int)


def test_numpy_integer_counts_are_kept_as_python_ints():
    """A law's n and a spec's modes stay Python ints, so they serialize to JSON and never wrap."""
    assert type(fock.output_distribution(_EYE3, (np.uint8(1), 1, 0)).n) is int
    assert type(hamiltonian.HamiltonianSpec(kind="hopping", modes=np.int64(3)).modes) is int


def test_distribution_helpers():
    dist = fock.FockDistribution(1, 2, np.array([0.25, 0.75]))
    assert dist.m == 2 and dist.n == 1
    assert dist.prob_of((0, 1)) == 0.75
    assert dist.prob_of((2, 0)) == 0.0
    rows = list(dist.csv_rows())
    assert rows[0] == ("1|0", 0.25)
    with pytest.raises(ValueError):
        fock.FockDistribution(1, 2, np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        fock.FockDistribution(1, 2, np.array([0.5, np.nan]))


def test_distribution_requires_canonical_basis():
    """The basis is the cached canonical one; probabilities must cover it exactly."""
    clone = fock.FockDistribution(1, 2, [0.25, 0.75])
    assert clone.basis is fock.enumerate_basis(1, 2)
    for n, m, probs in ((1, 2, [1.0]), (1, 2, [0.25, 0.25, 0.5]), (1, 2, [[0.25, 0.75]]),
                        (-1, 2, [1.0]), (0, 0, [1.0])):
        with pytest.raises(ValueError):
            fock.FockDistribution(n, m, probs)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(1, 5), st.integers(0, 2**32 - 1),
       st.lists(st.integers(-1, 5), min_size=1, max_size=6))
def test_prob_of_matches_the_tuple_lookup(n, m, seed, other):
    """prob_of ranks the pattern; every basis pattern and any other list agree with index()."""
    probs = np.random.default_rng(seed).random(math.comb(n + m - 1, n))
    dist = fock.FockDistribution(n, m, probs / probs.sum())
    # a negative count that keeps the photon total is outside the basis too
    shifted = ((n + 1, -1) + (0,) * (m - 2),) if m >= 2 else ()
    for occ in dist.basis + (tuple(other),) + shifted:
        assert dist.prob_of(occ) == seed_prob_of(dist, occ)


def test_sample_reproducible():
    dist = fock.FockDistribution(1, 2, np.array([0.3, 0.7]))
    a = fock.sample(dist, 1000, 8)
    b = fock.sample(dist, 1000, 8)
    assert a.shape == (1000, 2)
    assert np.array_equal(a, b)
    freq = np.count_nonzero((a == (0, 1)).all(axis=1)) / 1000
    assert abs(freq - 0.7) < 0.05


def test_state_vector_squares_to_distribution():
    u = linalg.haar_random(4, 23)
    r = (1, 1, 1, 0)
    amps = fock.state_vector(u, r)
    dist = fock.output_distribution(u, r)
    assert np.max(np.abs(np.abs(amps) ** 2 - dist.probs)) < 1e-12
    # identity keeps all amplitude on the input pattern
    amps0 = fock.state_vector(np.eye(4, dtype=complex), r)
    basis = fock.enumerate_basis(3, 4)
    assert abs(amps0[basis.index(r)] - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# Transition engine against the single-pattern Ryser oracle

ENGINE_TOL = 1e-12


@st.composite
def transfer_cases(draw, min_photons=0):
    """Haar unitary on m <= 6 modes and an input of n <= 5 photons, modes drawn freely."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(min_photons, 5))
    modes = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    u = linalg.haar_random(m, draw(st.integers(0, 2**32 - 1)))
    return u, tuple(modes.count(j) for j in range(m))


@st.composite
def species_cases(draw):
    """A transfer case plus its photons split into 1..n labelled species."""
    u, occ = draw(transfer_cases(min_photons=1))
    photons = fock.mode_assignment(occ)
    labels = draw(st.lists(st.integers(0, len(photons) - 1),
                           min_size=len(photons), max_size=len(photons)))
    species = {}
    for mode, label in zip(photons, labels):
        species.setdefault(label, [0] * len(occ))[mode] += 1
    return u, occ, tuple(tuple(s) for _, s in sorted(species.items()))


@settings(max_examples=60, deadline=None)
@given(transfer_cases())
@example((linalg.haar_random(3, 1), (0, 0, 0)))
@example((linalg.haar_random(5, 2), (3, 0, 2, 0, 0)))
def test_engine_matches_ryser(case):
    u, r = case
    ind = fock.output_distribution(u, r, fock.MODEL_INDISTINGUISHABLE)
    dis = fock.output_distribution(u, r, fock.MODEL_DISTINGUISHABLE)
    amps = fock.state_vector(u, r)
    assert ind.basis == dis.basis == fock.enumerate_basis(sum(r), len(r))
    rfac = math.prod(math.factorial(c) for c in r)
    for i, s in enumerate(ind.basis):
        assert abs(ind.probs[i] - fock.prob_indistinguishable(u, r, s)) < ENGINE_TOL
        assert abs(dis.probs[i] - fock.prob_distinguishable(u, r, s)) < ENGINE_TOL
        sfac = math.prod(math.factorial(c) for c in s)
        want = fock.permanent(fock.submatrix(u, r, s)) / math.sqrt(rfac * sfac)
        assert abs(amps[i] - want) < ENGINE_TOL


@settings(max_examples=40, deadline=None)
@given(species_cases())
@example((linalg.haar_random(4, 3), (2, 1, 1, 0), ((1, 1, 0, 0), (1, 0, 1, 0))))
def test_engine_species_and_mixtures_match_splitting_oracle(case):
    u, r, part = case
    basis = fock.enumerate_basis(sum(r), len(r))
    oracle = [oracle_prob_species(u, part, s) for s in basis]
    law = fock.output_distribution(u, fock.partition_input(part), part).probs
    assert np.max(np.abs(law - oracle)) < ENGINE_TOL
    # blended with the one-species and all-singleton partitions of the same input
    singletons = tuple(tuple(int(j == mode) for j in range(len(r)))
                       for mode in fock.mode_assignment(r))
    mix = fock.Mixture(((0.5, part), (0.3, (r,)), (0.2, singletons)))
    want = [0.5 * p + 0.3 * fock.prob_indistinguishable(u, r, s)
            + 0.2 * fock.prob_distinguishable(u, r, s)
            for p, s in zip(oracle, basis)]
    assert np.max(np.abs(fock.output_distribution(u, r, mix).probs - want)) < ENGINE_TOL


# ---------------------------------------------------------------------------
# The engine over a stack of unitaries against the single-law entry


def ring_stack(m: int, times) -> np.ndarray:
    """Hopping-ring evolutions at the given times (an open chain on two modes)."""
    spec = hamiltonian.HamiltonianSpec(kind="hopping", modes=m, periodic=m > 2)
    return np.array([hamiltonian.evolution(spec, t) for t in times]).reshape(-1, m, m)


@st.composite
def stack_cases(draw):
    """A species case with its unitary replaced by a stack of Haar, ring and sparse matrices.

    The identity and the embedded Fourier transform have exact zero
    couplings; the ring evolutions (t = 0 included) and Haar matrices have none.
    """
    _, occ, part = draw(species_cases())
    m = len(occ)
    kinds = draw(st.lists(st.sampled_from(["haar", "identity", "fourier", "ring"]),
                          min_size=0, max_size=5))
    mats = []
    for kind in kinds:
        if kind == "haar":
            mats.append(linalg.haar_random(m, draw(st.integers(0, 2**32 - 1))))
        elif kind == "identity" or m == 1:
            mats.append(np.eye(m, dtype=complex))
        elif kind == "fourier":
            mats.append(linalg.fourier(draw(st.integers(1, m)), m))
        else:
            mats.append(ring_stack(m, [draw(st.sampled_from([0.0, 0.4, 1.3, 2.9]))])[0])
    return np.array(mats, dtype=complex).reshape(-1, m, m), occ, part


def stack_models(occ, part):
    singletons = tuple(tuple(int(j == mode) for j in range(len(occ)))
                       for mode in fock.mode_assignment(occ))
    return (fock.MODEL_INDISTINGUISHABLE, fock.MODEL_DISTINGUISHABLE, part,
            fock.Mixture(((0.5, part), (0.3, (occ,)), (0.2, singletons))))


@settings(max_examples=60, deadline=None)
@given(stack_cases())
@example((ring_stack(4, [0.0, 0.7, 1.3]), (1, 1, 1, 0), ((1, 1, 0, 0), (0, 0, 1, 0))))
@example((np.array([linalg.fourier(3, 4), ring_stack(4, [0.0])[0]]), (1, 1, 1, 0),
          ((1, 1, 0, 0), (0, 0, 1, 0))))
@example((ring_stack(5, [0.9, 0.0]), (2, 0, 1, 0, 0), ((1, 0, 1, 0, 0), (1, 0, 0, 0, 0))))
@example((np.array([np.eye(3, dtype=complex), linalg.haar_random(3, 4)]), (1, 1, 0),
          ((1, 0, 0), (0, 1, 0))))
@example((ring_stack(4, [0.4]), (1, 0, 1, 0), ((1, 0, 1, 0),)))
def test_stacked_laws_equal_the_single_laws(case):
    """Every row of a stacked law is the single law of its matrix, bit for bit.

    A sparse matrix has zero couplings where the other matrices have none,
    so each creation step must sweep the union of their supports.
    """
    stack, occ, part = case
    size = math.comb(sum(occ) + len(occ) - 1, sum(occ))
    for model in stack_models(occ, part):
        laws = fock._laws(stack, occ, model)
        assert laws.shape == (len(stack), size)
        for u, law in zip(stack, laws):
            assert np.array_equal(law, fock.output_distribution(u, occ, model).probs)
    if len(occ) == 1:
        # Every level of a one-mode basis has one pattern, and numpy runs the
        # (T, 1) rows as one loop of length T, whose complex products may round
        # in the last bit unlike T loops of length 1. The laws above are 1.0.
        return
    amps = fock._transfer(stack, occ, bosonic=True)
    for u, row in zip(stack, amps):
        assert np.array_equal(row, fock.state_vector(u, occ))


def _two_haar_blocks() -> np.ndarray:
    u = np.zeros((6, 6), dtype=complex)
    u[:3, :3], u[3:, 3:] = linalg.haar_random(3, 21), linalg.haar_random(3, 22)
    return u


# sha256 of each law's float64 bytes and of the state vector's complex128 bytes
# of (2, 1, 0, 1, 0, 0), recorded when the engine still skipped zero couplings.
_ZERO_COUPLING_DIGESTS = {
    "identity": {
        "indistinguishable": "30ac5c2d1f780ab785148c873cb3fd9456a3562091d7bc779bcbfcbf38df5944",
        "distinguishable": "30ac5c2d1f780ab785148c873cb3fd9456a3562091d7bc779bcbfcbf38df5944",
        "mixture": "30ac5c2d1f780ab785148c873cb3fd9456a3562091d7bc779bcbfcbf38df5944",
        "state_vector": "fdee00f2fb255c034343e135c745e2183fb73b608b61e230ed519777c082b703",
    },
    "fourier": {
        "indistinguishable": "76bdcf7af01642eadb60faa917c8e248cee85c4aa46d9946c979c4bed5594e6c",
        "distinguishable": "8e533eef11fc8916f544fbf6664379c05121d6db5607db6975a0acf53082abdf",
        "mixture": "a06fc39c5a4314be206be8cd6b1d1fbb81353d2143a6e73dd332eed825572fb7",
        "state_vector": "d68a30f9dc0dd3710fb1939040e43188a945a13384ca646d30b9964636ed2e10",
    },
    "blocks": {
        "indistinguishable": "7f2591c0480fbd3085f508fe251b0de88141169d21dbcf2c01f8aaf09278b679",
        "distinguishable": "c734852029bd4f92216bcf501c9bff83569f6b8bb2382d0eb6230bc6a68cdb88",
        "mixture": "354668e26bf303984ffc5637dc1ff192b572594862424228fbba462e35623785",
        "state_vector": "8345888bec3457ead1d2c267a47f2f825a79b0f67c4e8244bbdf8d8473a5c4c3",
    },
}


@pytest.mark.parametrize("name, u", [
    ("identity", np.eye(6, dtype=complex)),
    ("fourier", linalg.fourier(3, 6)),
    ("blocks", _two_haar_blocks()),
])
def test_laws_of_couplings_with_exact_zeros_keep_their_bytes(name, u):
    """Sweeping every mode adds an exact 0 where a coupling is zero, and no bit moves.

    Each creation step once skipped the modes not coupled to its photon's
    mode; these bytes were recorded then, under all three models.
    """
    occ = (2, 1, 0, 1, 0, 0)
    mix = fock.Mixture(((0.6, ((1, 1, 0, 0, 0, 0), (1, 0, 0, 1, 0, 0))), (0.4, (occ,))))
    models = {"indistinguishable": fock.MODEL_INDISTINGUISHABLE,
              "distinguishable": fock.MODEL_DISTINGUISHABLE, "mixture": mix}
    got = {key: hashlib.sha256(fock.output_distribution(u, occ, model).probs.tobytes()).hexdigest()
           for key, model in models.items()}
    got["state_vector"] = hashlib.sha256(fock.state_vector(u, occ).tobytes()).hexdigest()
    assert got == _ZERO_COUPLING_DIGESTS[name]


def test_stacked_laws_reject_any_non_unitary_matrix():
    stack = np.array([np.eye(3), 1.01 * np.eye(3)], dtype=complex)
    with pytest.raises(ValueError, match="not unitary"):
        fock._laws(stack, (1, 1, 0), fock.MODEL_INDISTINGUISHABLE)
    with pytest.raises(ValueError, match="must be square"):
        fock.output_distribution(stack[:, :, 0], (1, 1, 0))
    with pytest.raises(ValueError, match="must be square"):
        fock.output_distribution(stack, (1, 1, 0))


@pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (5, 4), (6, 7)])
def test_creation_maps_do_not_depend_on_call_order(n, m, monkeypatch):
    """The top level first (one pass fills every level) or level by level, the maps are the same.

    Values and dtypes both: each level's dtype is its own, not the top level's.
    """
    monkeypatch.setattr(fock, "_LEVELS", {})
    want = [seed_creation_map(k, m) for k in range(1, n + 1)]
    dtypes = {}
    for order in ([n, 2], [2, n], list(range(n, 0, -1)), list(range(1, n + 1))):
        fock._LEVELS.clear()
        for k in order + list(range(1, n + 1)):
            basis, src = fock._levels(k, m)
            for got, oracle in zip((src, basis.T), want[k - 1]):
                assert np.array_equal(got, oracle)
            got_dtypes = (src.dtype, basis.dtype)
            assert dtypes.setdefault(k, got_dtypes) == got_dtypes
    fock._LEVELS.clear()
    top = fock._levels(n, m)
    assert fock._levels(n, m) is top
    assert set(fock._LEVELS) == {(k, m) for k in range(n + 1)}


def test_creation_maps_of_six_photons_on_twelve_modes_fit_their_byte_budget(monkeypatch):
    """The tables of evolve-large's basis: src by level in uint8 or uint16, and the basis as counts.

    In int32 with contiguous uint8 counts they held 890,448 + 222,612
    bytes. The engine reads each level's counts from its basis, so the
    cache holds no other table.
    """
    monkeypatch.setattr(fock, "_LEVELS", {})
    fock._levels(6, 12)
    tables = [fock._LEVELS[k, 12] for k in range(2, 7)]
    assert [src.dtype for _, src in tables] == [np.uint8] * 2 + [np.uint16] * 3
    assert sum(src.nbytes for _, src in tables) == 439_920
    assert [basis.dtype for basis, _ in tables] == [np.uint8] * 5
    assert sum(basis.nbytes for basis, _ in tables) == 12 * sum(math.comb(k + 11, k)
                                                                 for k in range(2, 7))
    assert all(len(level) == 2 for level in fock._LEVELS.values())


def test_basis_levels_of_six_photons_on_twelve_modes_build_within_their_peak(monkeypatch):
    """The one-pass build of every level up to (6, 12) peaks near the cache it leaves.

    It keeps about 667 KB and peaks at 1,019 KB, because each narrower
    level is dropped once it is widened. Keeping them peaks at about
    1,161 KB; the two separate passes for bases and maps it replaced
    peaked at 1,024 KB.
    """
    import tracemalloc

    monkeypatch.setattr(fock, "_LEVELS", {})
    tracemalloc.start()
    try:
        fock._levels(6, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_050_000, peak


@pytest.mark.parametrize("a, b, m", [
    (1, 1, 3), (2, 3, 4), (3, 3, 12), (4, 1, 6),
    (0, 3, 5), (2, 0, 4), (2, 2, 1),  # an empty factor; one mode, where every rank is 0
    (128, 127, 2),  # 256 patterns on level 255: ranks up to 255 fit uint8
    (128, 128, 2),  # 257 patterns: rank 256 needs uint16
])
def test_pair_ranks_are_the_ranks_of_pair_sums_in_the_narrowest_dtype(a, b, m):
    """_pair_rank holds the level-(a + b) rank of every pair sum, read-only, in the narrowest dtype."""
    got = fock._pair_rank(a, b, m)
    sums = (fock._patterns(a, m)[:, None, :].astype(np.int64)
            + fock._patterns(b, m)[None, :, :]).reshape(-1, m)
    assert np.array_equal(got, fock._rank(sums, a + b))
    assert got.dtype == np.min_scalar_type(math.comb(a + b + m - 1, a + b) - 1)
    assert not got.flags.writeable


def test_pair_ranks_of_three_and_three_photons_on_twelve_modes_trace_a_few_tables():
    """Building the 265 KB table of a 3+3 split on 12 modes peaks at a few times the table.

    A build that ranks every materialized pair sum peaks at 4.77 MB, 18 tables.
    """
    import tracemalloc

    fock._patterns(6, 12), fock._binomials(6, 12)   # the cached bases are not the build's
    tracemalloc.start()
    try:
        got = fock._pair_rank.__wrapped__(3, 3, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.nbytes == 264_992
    assert peak < 5 * got.nbytes, peak


@pytest.mark.parametrize("occ, model, top", [
    ((1, 1, 1, 0, 0), fock.MODEL_INDISTINGUISHABLE, 3),
    ((2, 0, 1, 1, 0, 2), fock.MODEL_DISTINGUISHABLE, 6),
    # species laws go through the engine one species at a time, then convolve
    ((1, 1, 1, 1, 0, 0, 0), [(1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0)], 2),
    ((1, 0, 0), fock.MODEL_INDISTINGUISHABLE, 1),
])
def test_a_law_caches_creation_maps_of_its_width_only(occ, model, top, monkeypatch):
    """A law on m modes leaves the levels 0..top on m modes, none of a narrower width."""
    monkeypatch.setattr(fock, "_LEVELS", {})
    m = len(occ)
    fock.output_distribution(linalg.haar_random(m, 5), occ, model)
    assert set(fock._LEVELS) == {(k, m) for k in range(top + 1)}


def test_check_probs_clips_like_clip():
    """Negative entries within tolerance become +0.0, as np.clip made them, sign bit included."""
    probs = np.array([0.5, -0.0, 0.0, -1e-12, 0.5 + 1e-12, 5e-324, -5e-324])
    got = fock._check_probs(probs)
    assert got.tobytes() == np.clip(probs, 0.0, None).tobytes()
    assert not np.signbit(got).any()
    assert got is not probs
    for bad in ([0.5, 0.5 + 1e-8], [1.0 + 1e-8, -1e-8], [np.nan, 1.0], [[1.0]], []):
        with pytest.raises(ValueError):
            fock._check_probs(bad)


def test_a_stacked_row_check_names_the_row_that_fails():
    """_clipped checks every law of a stack: one bad row among good ones raises."""
    good = np.array([[0.5, 0.5], [1.0, 0.0]])
    assert fock._clipped(good[None]).tobytes() == good[None].tobytes()
    for row, match in (([0.5, 0.5 + 1e-8], r"sum to .*1\.00000001\b"), ([1.0 + 1e-8, -1e-8], "negative"),
                       ([np.nan, 1.0], "negative probability nan")):
        with pytest.raises(ValueError, match=match):
            fock._clipped(np.stack([good, [good[0], row]]))
    assert fock._clipped(np.empty((3, 0, 4))).shape == (3, 0, 4)


def _row_convolve(p, a, q, b, m):
    """The per-row convolution: one np.outer and one np.bincount for one pair of laws."""
    return np.bincount(fock._pair_rank(a, b, m), weights=np.outer(p, q).ravel(),
                       minlength=math.comb(a + b + m - 1, a + b))


@pytest.mark.parametrize("lead", [(), (7,), (2, 7)])
def test_stacked_convolve_equals_the_per_row_bincount(lead):
    """Every row of a stacked convolution equals the per-row bincount of its pair, bit for bit."""
    a, b, m = 2, 1, 4
    rng = np.random.default_rng(11)
    p = rng.random(lead + (math.comb(a + m - 1, a),))
    q = rng.random(lead + (math.comb(b + m - 1, b),))
    got = fock._convolve(p, a, q, b, m)
    want = np.array([_row_convolve(pr, a, qr, b, m) for pr, qr in
                     zip(p.reshape(-1, p.shape[-1]), q.reshape(-1, q.shape[-1]))])
    assert got.shape == lead + (math.comb(a + b + m - 1, a + b),)
    assert got.tobytes() == want.tobytes()


def test_a_stacked_convolve_past_one_chunk_traces_one_chunk_of_pair_products():
    """40 rows of 2 + 2 photons on 8 modes, one row per chunk: the peak holds one row's pairs.

    One row's pair products and their bincount take 16 bytes per pair,
    21 KB; the whole stack's would take 829 KB. The bound allows 128 KB
    for numpy's casting buffers, which do not grow with the stack.
    """
    import tracemalloc

    p = np.random.default_rng(5).random((40, 36))
    rank = fock._pair_rank(2, 2, 8)
    tracemalloc.start()
    try:
        got = fock._convolve(p, 2, p, 2, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = got.nbytes + 16 * rank.size + (1 << 17)
    assert peak < bound < 16 * len(p) * rank.size, peak
