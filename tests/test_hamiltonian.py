"""Hamiltonian construction and evolution operators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import seed_expm_hermitian
from photherm import hamiltonian, linalg


def test_spec_validation():
    with pytest.raises(ValueError):
        hamiltonian.HamiltonianSpec(kind="banded", modes=4)
    with pytest.raises(ValueError):
        hamiltonian.HamiltonianSpec(kind="hopping", modes=1)
    with pytest.raises(ValueError):
        hamiltonian.HamiltonianSpec(kind="long_range", modes=4)
    for seed in (-1, True, 1.5):
        with pytest.raises(ValueError, match="non-negative integer"):
            hamiltonian.HamiltonianSpec(kind="long_range", modes=4, seed=seed)
    with pytest.raises(ValueError):
        hamiltonian.HamiltonianSpec(kind="explicit", modes=2)
    with pytest.raises(ValueError):
        hamiltonian.HamiltonianSpec(kind="explicit", modes=2,
                                    matrix=((0.0, 1.0), (0.0, 0.0)))


def test_hopping_ring_matrix():
    spec = hamiltonian.HamiltonianSpec(kind="hopping", modes=4, coupling=0.7)
    h = hamiltonian.build(spec)
    assert linalg.is_hermitian(h)
    assert h[0, 1] == 0.7 and h[0, 3] == 0.7 and h[0, 2] == 0.0
    # ring eigenvalues are 2 J cos(2 pi k / m)
    w = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(w, [-1.4, 0.0, 0.0, 1.4], atol=1e-12)


def test_hopping_open_chain():
    spec = hamiltonian.HamiltonianSpec(kind="hopping", modes=4, periodic=False)
    h = hamiltonian.build(spec)
    assert h[0, 3] == 0.0 and h[3, 0] == 0.0
    assert h[2, 3] == 1.0


def test_ring_evolution_period():
    """The 4-ring spectrum {2, 0, 0, -2} makes exp(-i H pi) the identity."""
    spec = hamiltonian.HamiltonianSpec(kind="hopping", modes=4)
    u = hamiltonian.evolution(spec, np.pi)
    assert np.max(np.abs(u - np.eye(4))) < 1e-12


def test_evolution_composes():
    spec = hamiltonian.HamiltonianSpec(kind="hopping", modes=5, coupling=0.3)
    u1 = hamiltonian.evolution(spec, 0.4)
    u2 = hamiltonian.evolution(spec, 1.1)
    assert np.max(np.abs(u1 @ u2 - hamiltonian.evolution(spec, 1.5))) < 1e-12


def test_long_range_reaches_haar_target_at_unit_time():
    spec = hamiltonian.HamiltonianSpec(kind="long_range", modes=4, seed=99)
    target = linalg.haar_random(4, 99)
    assert np.max(np.abs(hamiltonian.evolution(spec, 1.0) - target)) < 1e-12
    assert linalg.is_hermitian(hamiltonian.build(spec), tol=1e-12)


def test_explicit_matrix_round_trip():
    mat = ((0.0, 1j), (-1j, 0.5))
    spec = hamiltonian.HamiltonianSpec(kind="explicit", modes=2, matrix=mat)
    h = hamiltonian.build(spec)
    assert np.allclose(h, np.array([[0.0, 1j], [-1j, 0.5]]))
    clone = hamiltonian.HamiltonianSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert np.array_equal(hamiltonian.build(clone), h)


def test_dict_round_trip_all_kinds():
    specs = [
        hamiltonian.HamiltonianSpec(kind="hopping", modes=6, coupling=2.0, periodic=False),
        hamiltonian.HamiltonianSpec(kind="long_range", modes=3, seed=5),
    ]
    for spec in specs:
        assert hamiltonian.HamiltonianSpec.from_dict(spec.to_dict()) == spec


SPECS = [
    hamiltonian.HamiltonianSpec(kind="hopping", modes=4),
    hamiltonian.HamiltonianSpec(kind="hopping", modes=7, coupling=0.3, periodic=False),
    hamiltonian.HamiltonianSpec(kind="long_range", modes=5, seed=12),
    hamiltonian.HamiltonianSpec(kind="explicit", modes=2, matrix=((0.5, 1j), (-1j, -0.25))),
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SPECS),
       st.lists(st.floats(-50.0, 50.0, allow_subnormal=False), min_size=0, max_size=12))
@example(SPECS[0], [0.0, np.pi / 2, np.pi, 0.0])
@example(SPECS[2], [1.0])
def test_stacked_evolution_equals_each_time(spec, times):
    """One eigendecomposition for a stack of times gives each time's matrix bit for bit."""
    stack = hamiltonian.evolution(spec, np.array(times))
    assert stack.shape == (len(times), spec.modes, spec.modes)
    for t, u in zip(times, stack):
        assert np.array_equal(u, hamiltonian.evolution(spec, t))
        assert np.array_equal(u, seed_expm_hermitian(hamiltonian.build(spec), t))
    grid = np.reshape(times[:4] + [0.5] * (4 - len(times[:4])), (2, 2))
    assert hamiltonian.evolution(spec, grid).shape == (2, 2, spec.modes, spec.modes)


def test_scalar_time_gives_one_matrix():
    spec = SPECS[2]
    for t in (0.0, 0.7, np.float64(2.5), 3):
        u = hamiltonian.evolution(spec, t)
        assert u.shape == (5, 5)
        assert np.array_equal(u, seed_expm_hermitian(hamiltonian.build(spec), t))


@pytest.mark.parametrize("spec", SPECS + [
    hamiltonian.HamiltonianSpec(kind="long_range", modes=8, seed=s) for s in range(5)] + [
    hamiltonian.HamiltonianSpec(kind="hopping", modes=2, coupling=-2.5)])
def test_eigenvalue_bound_holds_without_diagonalizing(spec):
    w = np.linalg.eigvalsh(hamiltonian.build(spec))
    assert np.max(np.abs(w)) <= hamiltonian.eigenvalue_bound(spec) * (1 + 1e-12)
