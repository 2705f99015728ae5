"""Single-particle Hamiltonians on m optical modes and their evolution operators."""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from . import linalg, record

KINDS = ("hopping", "long_range", "explicit")


@record
class HamiltonianSpec:
    """Declarative description of a mode-coupling Hamiltonian.

    kind is one of "hopping" (nearest-neighbour ring, open chain with
    periodic=False), "long_range" (dense Hermitian generator whose t=1
    evolution is a seeded Haar unitary) or "explicit" (matrix given
    directly). coupling scales the hopping bond energy and fixes the
    time units used everywhere else.
    """

    kind: str
    modes: int
    coupling: float = 1.0
    seed: int | None = None
    periodic: bool = True
    matrix: tuple | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown hamiltonian kind {self.kind!r}, expected one of {KINDS}")
        if isinstance(self.modes, bool) or not hasattr(self.modes, "__index__"):
            raise ValueError(f"modes must be an integer, got {self.modes!r}")
        object.__setattr__(self, "modes", operator.index(self.modes))
        if self.modes < 2:
            raise ValueError(f"need at least 2 modes, got {self.modes}")
        if not isinstance(self.periodic, bool):
            raise ValueError(f"periodic must be true or false, got {self.periodic!r}")
        if self.kind == "long_range" and self.seed is None:
            raise ValueError("long_range hamiltonian requires a seed")
        if self.seed is not None and (isinstance(self.seed, bool) or not isinstance(self.seed, int)
                                      or self.seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.kind == "explicit":
            if self.matrix is None:
                raise ValueError("explicit hamiltonian requires a matrix")
            a = np.asarray(self.matrix, dtype=complex)
            if a.shape != (self.modes, self.modes):
                raise ValueError(f"matrix shape {a.shape} does not match modes={self.modes}")
            if not linalg.is_hermitian(a):
                raise ValueError("explicit matrix is not Hermitian within tolerance")
            # store hashable nested tuples so the record hashes
            object.__setattr__(self, "matrix", tuple(tuple(x) for x in a.tolist()))

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "modes": self.modes, "coupling": self.coupling,
             "periodic": self.periodic}
        if self.seed is not None:
            d["seed"] = self.seed
        if self.matrix is not None:
            d["matrix"] = [[[z.real, z.imag] for z in row] for row in
                           np.asarray(self.matrix, dtype=complex).tolist()]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "HamiltonianSpec":
        matrix = None
        if "matrix" in d and d["matrix"] is not None:
            matrix = tuple(tuple(complex(re, im) for re, im in row) for row in d["matrix"])
        return cls(kind=d["kind"], modes=d["modes"], coupling=d.get("coupling", 1.0),
                   seed=d.get("seed"), periodic=d.get("periodic", True), matrix=matrix)


def build(spec: HamiltonianSpec) -> np.ndarray:
    """Dense Hermitian matrix for a HamiltonianSpec."""
    m = spec.modes
    if spec.kind == "hopping":
        h = np.zeros((m, m), dtype=complex)
        last = m if spec.periodic else m - 1
        for j in range(last):
            k = (j + 1) % m
            h[j, k] = spec.coupling
            h[k, j] = spec.coupling
        return h
    if spec.kind == "long_range":
        return linalg.logm_unitary(linalg.haar_random(m, spec.seed))
    return np.asarray(spec.matrix, dtype=complex)


def eigenvalue_bound(spec: HamiltonianSpec) -> float:
    """An upper bound on |w| over the eigenvalues w of the generator, without diagonalizing it.

    pi for kind "long_range", whose generator is a principal logarithm;
    otherwise the largest absolute row sum of the matrix (inf if it overflows).
    """
    if spec.kind == "long_range":
        return float(np.pi)
    with np.errstate(over="ignore"):
        return float(np.abs(build(spec)).sum(axis=1).max())


@lru_cache(maxsize=16)
def _spectrum(spec: HamiltonianSpec) -> tuple[np.ndarray, np.ndarray]:
    """The generator's eigenvalues and eigenvectors, read-only, computed once per spec."""
    w, vecs = linalg._eigh_hermitian(build(spec))
    w.flags.writeable = vecs.flags.writeable = False
    return w, vecs


def evolution(spec: HamiltonianSpec, t) -> np.ndarray:
    """Unitary exp(-i H t) for the specified Hamiltonian, or their stack over an array of times.

    The generator is built and diagonalized once per spec (_spectrum, cached
    by the hashable record), whatever the number of calls or times, so a
    search that evaluates one time per call diagonalizes once; each result
    equals linalg.expm_hermitian(build(spec), t) bit for bit. For kind
    "long_range" the t=1 evolution reproduces the seeded Haar unitary the
    generator was extracted from.
    """
    return linalg._expm_eigh(*_spectrum(spec), t)
