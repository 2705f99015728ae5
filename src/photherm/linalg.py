"""Unitary and Hermitian matrix utilities shared by the simulator.

All matrices are dense complex ndarrays. Mode indices are 0-based
throughout the package.
"""

from __future__ import annotations

import numpy as np

UNITARY_TOL = 1e-10
HERMITIAN_TOL = 1e-10


def _require_square(a: np.ndarray, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    a = np.asarray(a)
    if (a.ndim < 2 if stacked else a.ndim != 2) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a.astype(complex)


def is_unitary(a: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """True iff max|A†A - I| <= tol, for every matrix of a stack (..., m, m).

    A single (m, m) matrix is the stack of one. Raises on non-square input.
    """
    a = _require_square(a, stacked=True)
    dev = a.conj().swapaxes(-1, -2) @ a - np.eye(a.shape[-1])
    return float(np.max(np.abs(dev), initial=0.0)) <= tol


def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """True iff max|A - A†| <= tol. Raises on non-square input."""
    a = _require_square(a)
    return float(np.max(np.abs(a - a.conj().T))) <= tol


def expm_hermitian(h: np.ndarray, t=1.0) -> np.ndarray:
    """Evolution operator exp(-i h t) of a Hermitian generator, for one time or an array of times.

    Computed from one eigendecomposition h = W diag(w) W†: each time takes
    the product (W diag(exp(-i w t))) W†, so the result is unitary to
    machine precision for any real t. A scalar t gives one (m, m) matrix,
    an array of times of shape S gives the stack S + (m, m), and each of
    its matrices equals the scalar-t result bit for bit.
    """
    return _expm_eigh(*_eigh_hermitian(h), t)


def _eigh_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w and eigenvectors W of a Hermitian generator, h = W diag(w) W†."""
    h = _require_square(h, "generator")
    if not is_hermitian(h):
        raise ValueError("generator is not Hermitian within tolerance")
    return np.linalg.eigh(h)


def _expm_eigh(w: np.ndarray, vecs: np.ndarray, t) -> np.ndarray:
    """exp(-i h t) from the eigendecomposition of h (see expm_hermitian)."""
    phases = np.exp(-1j * w * np.asarray(t, dtype=float)[..., None])
    return (vecs * phases[..., None, :]) @ vecs.conj().T


def logm_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    """Hermitian generator h with exp(-i h) == u, principal branch.

    Eigenphases are taken in (-pi, pi]. A unitary is normal (Golub & Van
    Loan, Matrix Computations, 7.1), so eigenvectors of distinct eigenvalues
    are orthogonal, and QR of the eigenvectors orthonormalizes each eigenspace
    within itself. Raises ValueError if Q^dagger u Q is not diagonal within tol.
    """
    u = _require_square(u)
    if not is_unitary(u, tol):
        raise ValueError("input is not unitary within tolerance")
    _, v = np.linalg.eig(u)
    q, _ = np.linalg.qr(v)
    t = q.conj().T @ u @ q
    d = np.diagonal(t)
    if np.max(np.abs(t - np.diag(d))) > tol:
        raise ValueError("eigenvectors do not diagonalize the unitary within tolerance")
    theta = -np.angle(d)
    theta = np.where(theta <= -np.pi, theta + 2.0 * np.pi, theta)
    h = (q * theta) @ q.conj().T
    return 0.5 * (h + h.conj().T)


def haar_random(m: int, seed) -> np.ndarray:
    """Haar-distributed m x m unitary.

    QR of a complex Ginibre matrix, with the R diagonal phases divided
    out so the distribution is exactly Haar rather than QR-biased.

    Parameters
    ----------
    m : int
        Dimension, m >= 1.
    seed : int or numpy Generator
        Source of randomness; a fixed int gives a reproducible matrix.
    """
    if m < 1:
        raise ValueError(f"dimension must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def fourier(n: int, m: int | None = None) -> np.ndarray:
    """n-point discrete Fourier unitary embedded in the first n of m modes.

    Entry (j, k) of the active block is exp(2 pi i j k / n) / sqrt(n);
    modes n..m-1 are untouched. With m omitted the matrix is n x n.
    """
    if n < 1:
        raise ValueError(f"transform size must be >= 1, got {n}")
    if m is None:
        m = n
    if m < n:
        raise ValueError(f"transform size {n} exceeds mode count {m}")
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    block = np.exp(2j * np.pi * j * k / n) / np.sqrt(n)
    u = np.eye(m, dtype=complex)
    u[:n, :n] = block
    return u


def amplitude_fidelity(u_set: np.ndarray, u_get: np.ndarray) -> float:
    """Moduli overlap tr(|U_set†| |U_get|) / N between a target and a realized unitary.

    Phase-insensitive on purpose: it compares only the amplitude profile,
    so it equals 1 iff the entrywise moduli agree, and is 1/sqrt(2) for
    the identity against a balanced two-mode splitter.
    """
    u_set = _require_square(u_set, "target unitary")
    u_get = _require_square(u_get, "realized unitary")
    if u_set.shape != u_get.shape:
        raise ValueError(f"shape mismatch: {u_set.shape} vs {u_get.shape}")
    n = u_set.shape[0]
    return float(np.trace(np.abs(u_set.conj().T) @ np.abs(u_get)).real / n)
