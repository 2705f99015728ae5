"""Matrix utilities against scipy references and closed forms."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photherm import linalg


def random_hermitian(m, rng):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return 0.5 * (a + a.conj().T)


def test_is_unitary_and_hermitian_flags():
    rng = np.random.default_rng(3)
    u = linalg.haar_random(4, 3)
    assert linalg.is_unitary(u)
    assert not linalg.is_unitary(u + 1e-6)
    h = random_hermitian(4, rng)
    assert linalg.is_hermitian(h)
    assert not linalg.is_hermitian(h + 1e-6 * 1j * np.eye(4))


def test_is_unitary_checks_every_matrix_of_a_stack():
    stack = np.array([linalg.haar_random(3, s) for s in range(4)])
    assert linalg.is_unitary(stack)
    assert linalg.is_unitary(stack[:0])
    stack[2, 1, 1] += 1e-6
    assert not linalg.is_unitary(stack)
    assert linalg.is_unitary(stack[[0, 1, 3]])
    with pytest.raises(ValueError, match="must be square"):
        linalg.is_unitary(np.ones(3))


def test_square_input_required():
    with pytest.raises(ValueError):
        linalg.is_unitary(np.ones((2, 3)))
    with pytest.raises(ValueError):
        linalg.expm_hermitian(np.ones((2, 3)))


def test_expm_hermitian_matches_scipy():
    rng = np.random.default_rng(11)
    for k in range(20):
        m = int(rng.integers(2, 7))
        h = random_hermitian(m, rng)
        t = float(rng.uniform(-3.0, 3.0))
        ref = scipy.linalg.expm(-1j * t * h)
        assert np.max(np.abs(linalg.expm_hermitian(h, t) - ref)) < 1e-10


def test_expm_hermitian_is_unitary_for_large_t():
    # eigh route stays unitary even where a series would have drifted
    rng = np.random.default_rng(12)
    h = random_hermitian(5, rng)
    u = linalg.expm_hermitian(h, 1e4)
    assert linalg.is_unitary(u, tol=1e-10)


def test_expm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        linalg.expm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_logm_roundtrip_haar():
    for k in range(25):
        u = linalg.haar_random(4, (21, k))
        h = linalg.logm_unitary(u)
        assert linalg.is_hermitian(h, tol=1e-12)
        assert np.max(np.abs(linalg.expm_hermitian(h, 1.0) - u)) < 1e-12


def test_logm_eigenphases_principal_branch():
    for k in range(25):
        u = linalg.haar_random(5, (22, k))
        w = np.linalg.eigvalsh(linalg.logm_unitary(u))
        assert np.all(w > -np.pi - 1e-12)
        assert np.all(w <= np.pi + 1e-12)


def test_logm_degenerate_eigenvalues():
    """A reflection has a doubly degenerate eigenvalue; its QR'd eigenvectors stay orthonormal."""
    u = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    h = linalg.logm_unitary(u)
    assert np.max(np.abs(linalg.expm_hermitian(h) - u)) < 1e-12


def schur_logm(u):
    """Principal generator from scipy's complex Schur form, the oracle for logm_unitary."""
    t, q = scipy.linalg.schur(u, output="complex")
    theta = -np.angle(np.diagonal(t))
    theta = np.where(theta <= -np.pi, theta + 2.0 * np.pi, theta)
    h = (q * theta) @ q.conj().T
    return 0.5 * (h + h.conj().T)


@st.composite
def spectra(draw):
    """Eigenphases on m = 2..12 modes, in runs of exact repeats or 1e-9 clusters, some at +-pi."""
    m = draw(st.integers(2, 12))
    phases = []
    while len(phases) < m:
        base = draw(st.one_of(st.floats(-np.pi, np.pi), st.sampled_from([np.pi, -np.pi])))
        step = draw(st.sampled_from([0.0, 1e-9]))
        phases += [base + step * j for j in range(draw(st.integers(1, m - len(phases))))]
    return np.array(phases), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(spectra())
@example((np.array([np.pi, -np.pi, 0.5, 0.5, 0.5 + 1e-9]), 0))
@example((np.zeros(6), 1))
def test_logm_matches_schur_oracle(case):
    phases, seed = case
    w = linalg.haar_random(len(phases), seed)
    u = (w * np.exp(1j * phases)) @ w.conj().T
    h = linalg.logm_unitary(u)
    assert np.max(np.abs(linalg.expm_hermitian(h) - u)) < 1e-12
    gen = np.linalg.eigvalsh(h)
    assert np.all(gen > -np.pi - 1e-12) and np.all(gen <= np.pi + 1e-12)
    # at the branch cut either side is a principal log, so only away from it must they agree
    if np.min(np.pi - np.abs(np.angle(np.exp(1j * phases)))) >= 1e-6:
        assert np.max(np.abs(h - schur_logm(u))) < 1e-13


def test_logm_rejects_eigenvectors_that_do_not_diagonalize(monkeypatch):
    """If eig hands back mixed eigenvectors, the residual check raises instead of returning h."""
    eig = np.linalg.eig

    def mixed(a):
        w, v = eig(a)
        return w, v @ linalg.haar_random(len(w), 5)

    monkeypatch.setattr(np.linalg, "eig", mixed)
    with pytest.raises(ValueError, match="diagonalize"):
        linalg.logm_unitary(linalg.haar_random(4, 3))


def test_logm_rejects_non_unitary():
    with pytest.raises(ValueError):
        linalg.logm_unitary(2.0 * np.eye(3))


def test_haar_reproducible_and_unitary():
    a = linalg.haar_random(6, 42)
    b = linalg.haar_random(6, 42)
    c = linalg.haar_random(6, 43)
    assert np.array_equal(a, b)
    assert np.max(np.abs(a - c)) > 1e-3
    assert linalg.is_unitary(a, tol=1e-12)


def test_haar_first_moment():
    # mean |u_ij|^2 over Haar is 1/m
    m, reps = 3, 400
    acc = np.zeros((m, m))
    for k in range(reps):
        acc += np.abs(linalg.haar_random(m, (5, k))) ** 2
    assert np.max(np.abs(acc / reps - 1.0 / m)) < 0.05


def test_fourier_block_and_embedding():
    f = linalg.fourier(3, 4)
    assert linalg.is_unitary(f, tol=1e-12)
    w = np.exp(2j * np.pi / 3)
    assert abs(f[1, 1] - w / np.sqrt(3)) < 1e-14
    assert abs(f[1, 2] - w**2 / np.sqrt(3)) < 1e-14
    assert np.allclose(f[:, 0][:3], 1.0 / np.sqrt(3))
    assert f[3, 3] == 1.0
    assert np.max(np.abs(f[3, :3])) == 0.0
    assert np.array_equal(linalg.fourier(3), linalg.fourier(3, 3))
    with pytest.raises(ValueError):
        linalg.fourier(4, 3)


def test_amplitude_fidelity_extremes():
    eye = np.eye(2, dtype=complex)
    assert linalg.amplitude_fidelity(eye, eye) == 1.0
    bs = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert abs(linalg.amplitude_fidelity(eye, bs) - 1.0 / np.sqrt(2.0)) < 1e-14
    # invariant under pure phase noise
    phases = np.diag(np.exp(1j * np.array([0.3, -1.2])))
    assert abs(linalg.amplitude_fidelity(bs, phases @ bs) - 1.0) < 1e-14
