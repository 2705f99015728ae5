"""Few-photon Fock states on m modes and their transfer through a linear-optical unitary.

Occupation patterns are tuples of per-mode photon counts. The canonical
basis order used by every distribution, sampler and state vector in the
package is colexicographic: patterns sorted by the last mode count first.
For one photon in two modes that reads [(1, 0), (0, 1)].

Each basis is built once, as the cached read-only array _patterns(n, m),
one row per pattern. One colex recursion over the modes, _levels, builds
every level 0..n of the m-mode basis in one pass, together with each
level's gather map from the level below, which the engine reads. The
basis array is the source of truth: enumerate_basis is its rows as
tuples, _rank maps rows back to their indices, and samplers index into
it. The per-basis caches come from it by array work, with no Python loop
over patterns. Each cached array is stored in the narrowest unsigned
dtype of its largest value. A FockDistribution holds only n, m and its
probability vector over that basis; readers of a law index the array
instead of walking the basis pattern by pattern. Its CSV rows are
labelled CSV_BLOCK patterns at a time, by gathering a byte table of the
counts with a slice of the basis array, so no label of the whole basis
is ever kept.

Transition laws, by definition:
  indistinguishable   P = |perm(M)|^2 / (prod_j r_j! s_j!)
  distinguishable     P = perm(|M|^2) / prod_j s_j!
  species partition   sum over elementwise splittings of the output
                      pattern, one indistinguishable factor per species
where M is the submatrix of the unitary with columns repeated by the
input pattern r and rows by the output pattern s. permanent,
prob_indistinguishable and prob_distinguishable evaluate these for one
pattern with Ryser's formula; they are the oracle.

Whole laws and state vectors come from one transition engine instead,
after SLOS (Heurtel et al., arXiv:2206.10549). It applies one creation
operator per input photon, in mode j_k, to the state of the photons
before it:
  psi_k[t] = sum_i U[i, j_k] sqrt(t_i) psi_{k-1}[t - e_i],
and divides psi_n by sqrt(prod_j r_j!). Distinguishable photons take the
same steps with |U[i, j_k]|^2 and no square root. A species partition is
the pattern-space convolution of its species' indistinguishable laws,
and a Mixture is the weighted sum of its components' laws. The cost is
O(n m |basis|) array work in place of one O(2^n n^2) permanent per pattern.

The engine runs over a stack of unitaries (..., m, m) at once and gives
one law per matrix, (..., size); a single (m, m) unitary is the stack of
one. Each creation step sweeps every mode i, so a coupling that is zero
there adds an exact 0. Adding an exact 0 never changes a sum that started
at +0.0, so every row equals the law of its matrix alone, bit for bit.
Callers that evaluate many unitaries (gge and certify over a list of
times) keep a stack to at most MAX_PATTERNS law entries at a time. A
species law convolves its species' stacks of laws row by row, one
np.bincount of each row's pair products, and gge reduces a chunk's laws
to marginals with one np.bincount per model, whose bins it offsets by
the row; either way every row still equals its own law bit for bit.

The engine is a fold of one creation step, _create, over the input's
photons in mode order, starting from the padded vacuum [1, 0], so its
state after k of them is the state of the input's first k photons. The
hardware event stream uses that: it keeps one chain per j1 of the
by-product inputs (j1, j1, j2, 0, ...) and extends it with _create in
mode 2, reading each law on the way.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

from . import linalg, record

ModeOccupation = tuple[int, ...]
SpeciesPartition = tuple[ModeOccupation, ...]

PERMANENT_MAX_DIM = 24
PROB_SUM_TOL = 1e-9
# Largest basis C(n + m - 1, n) the CLI accepts; each law is allocated whole,
# and a stack of laws is evaluated in chunks of at most this many entries.
MAX_PATTERNS = 1_000_000
# Rows per block in which CSV rows are labelled, formatted and written.
CSV_BLOCK = 256

MODEL_INDISTINGUISHABLE = "indistinguishable"
MODEL_DISTINGUISHABLE = "distinguishable"


def total(occ: ModeOccupation) -> int:
    return sum(occ)


def _integers(occ, name: str) -> tuple[int, ...]:
    """occ as a tuple of ints; a bool, or a count that operator.index refuses, raises ValueError."""
    occ = tuple(occ)
    if any(isinstance(x, bool) or not hasattr(x, "__index__") for x in occ):
        raise ValueError(f"{name} has a count that is not an integer: {occ}")
    return tuple(map(operator.index, occ))


def _check_occupation(occ, m: int | None = None, name: str = "occupation") -> ModeOccupation:
    """occ as a tuple of non-negative ints (see _integers), of m modes if m is given."""
    occ = _integers(occ, name)
    if any(x < 0 for x in occ):
        raise ValueError(f"{name} has negative counts: {occ}")
    if m is not None and len(occ) != m:
        raise ValueError(f"{name} has {len(occ)} modes, expected {m}")
    return occ


@lru_cache(maxsize=None)
def enumerate_basis(n: int, m: int) -> tuple[ModeOccupation, ...]:
    """All patterns of n photons in m modes, colexicographic order.

    The count is C(n + m - 1, n). The rows of _patterns(n, m) as tuples,
    cached, so callers may index into the returned tuple freely.
    """
    return tuple(map(tuple, _patterns(n, m).tolist()))


def mode_assignment(occ: ModeOccupation) -> tuple[int, ...]:
    """Non-decreasing list of 0-based mode indices, one entry per photon.

    (2, 0, 0, 1) becomes (0, 0, 3).
    """
    occ = _check_occupation(occ)
    return tuple(j for j, c in enumerate(occ) for _ in range(c))


def permanent(a: np.ndarray) -> complex:
    """Matrix permanent by Ryser's formula, summed over blocks of 4,096 column subsets.

    perm(A) = sum over column subsets S of (-1)^(n - |S|) prod_i sum_{j in S} a_ij.
    Each block is one product of its subsets' 0/1 membership rows with
    A^T, so the work is O(2^n n^2) and the memory one block's. The
    dimension is capped at 24. The 0 x 0 permanent is 1.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"permanent needs a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > PERMANENT_MAX_DIM:
        raise ValueError(f"dimension {n} exceeds permanent capacity {PERMANENT_MAX_DIM}")
    out = 0.0j
    for lo in range(0, 1 << n, 4096):
        members = (np.arange(lo, min(lo + 4096, 1 << n))[:, None] >> np.arange(n)) & 1
        signs = np.where((n - members.sum(axis=1)) % 2, -1.0, 1.0)
        out += signs @ (members @ a.T).prod(axis=1)
    return complex(out)


def submatrix(u: np.ndarray, input_occ, output_occ) -> np.ndarray:
    """Transition submatrix: columns repeated per input pattern, rows per output pattern."""
    u = np.asarray(u, dtype=complex)
    m = u.shape[0]
    input_occ = _check_occupation(input_occ, m, "input pattern")
    output_occ = _check_occupation(output_occ, m, "output pattern")
    rows = mode_assignment(output_occ)
    cols = mode_assignment(input_occ)
    if len(rows) != len(cols):
        raise ValueError(f"photon number mismatch: input {len(cols)}, output {len(rows)}")
    return u[np.ix_(rows, cols)]


def prob_indistinguishable(u: np.ndarray, input_occ, output_occ) -> float:
    """Transition probability for fully indistinguishable photons."""
    sub = submatrix(u, input_occ, output_occ)
    norm = math.prod(map(math.factorial, (*input_occ, *output_occ)))
    return float(abs(permanent(sub)) ** 2 / norm)


def prob_distinguishable(u: np.ndarray, input_occ, output_occ) -> float:
    """Transition probability for fully distinguishable photons.

    Permanent of the elementwise |M|^2, i.e. classical independent
    transmission through the mode-coupling graph.
    """
    sub = submatrix(u, input_occ, output_occ)
    return float(permanent(np.abs(sub) ** 2).real / math.prod(map(math.factorial, output_occ)))


# Levels of a basis by (k, m): the patterns and the gather map of each; _levels fills it.
_LEVELS: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _patterns(n: int, m: int) -> np.ndarray:
    """The colex basis of n photons in m modes: a read-only (count, m) array."""
    return _levels(n, m)[0]


def _levels(k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Level k of the m-mode basis: its patterns and its gather map from level k - 1.

    basis holds one pattern per row, in the narrowest unsigned dtype that
    holds k. src[i, t] is the index of t - e_i at level k - 1, or the size
    of that level (the zero slot past a padded level) where t_i = 0; it
    takes the narrowest unsigned dtype of that sentinel. Both are
    read-only and shared by every caller.

    Both follow one colex recursion, one mode at a time, for every level
    up to k. Widening from w to w + 1 modes, level r is block 1 (its
    w-mode patterns, last count 0), then block 2 (level r - 1 on w + 1
    modes, last count raised by one). In block 1, rows i < w of src are
    the w-mode map of level r with its sentinel renumbered, and row w is
    the sentinel. In block 2, row w is arange, and rows i < w are the
    (w + 1)-mode map of level r - 1 offset by the size of its block 1; by
    Pascal's rule the offset also renumbers its sentinel. Every value at a
    narrower width is at most the one at width m, so each level is built
    in its final dtype, and is dropped once it is widened. A miss caches
    every level 0..k at width m, so asking for the top level first builds
    them all at once.
    """
    if (k, m) in _LEVELS:
        return _LEVELS[k, m]
    if k < 0 or m < 1:
        raise ValueError(f"need n >= 0 photons and m >= 1 modes, got n={k}, m={m}")
    # one mode: (r,) comes from (r - 1,), index 0; level 0 has nothing below it
    levels = [(np.full((1, 1), r, np.min_scalar_type(r)), np.zeros((1, 1), np.uint8))
              for r in range(k + 1)]
    for w in range(1, m):
        wider = [(np.zeros((1, w + 1), np.uint8), np.zeros((w + 1, 1), np.uint8))]
        for r in range(1, k + 1):
            (head, head_src), (tail, tail_src) = levels[r], wider[r - 1]
            levels[r] = None
            split = len(head)
            old, new = math.comb(r + w - 2, r - 1), math.comb(r + w - 1, r - 1)
            basis = np.zeros((split + new, w + 1), np.min_scalar_type(r))
            basis[:split, :w] = head
            basis[split:] = tail
            basis[split:, w] += 1
            src = np.empty((w + 1, split + new), np.min_scalar_type(math.comb(r + m - 2, r - 1)))
            src[:w, :split] = head_src
            src[:w, :split][head_src == old] = new
            src[w, :split] = new
            np.add(tail_src[:w], old, out=src[:w, split:], dtype=src.dtype)
            src[w, split:] = np.arange(new)
            wider.append((basis, src))
        levels = wider
    for r, (basis, src) in enumerate(levels):
        basis.flags.writeable = src.flags.writeable = False
        _LEVELS.setdefault((r, m), (basis, src))
    return _LEVELS[k, m]


@lru_cache(maxsize=None)
def _binomials(n: int, m: int) -> np.ndarray:
    """Read-only C(r + j, j) for r <= n, j < m: the basis size of r photons on j + 1 modes."""
    out = np.array([[math.comb(r + j, j) for j in range(m)] for r in range(n + 1)],
                   dtype=np.int64)
    out.flags.writeable = False
    return out


def _rank(patterns: np.ndarray, n: int) -> np.ndarray:
    """Index of each row of patterns, n photons each, in enumerate_basis(n, m).

    Counts, mode by mode from the last, the patterns that precede the row
    within its block: those of the remaining photons whose count in that
    mode is smaller.
    """
    m = patterns.shape[1]
    comb = _binomials(n, m)
    rank = np.zeros(patterns.shape[0], dtype=np.int64)
    rest = np.full(patterns.shape[0], n, dtype=np.int64)
    for j in range(m - 1, 0, -1):
        below = comb[:, j]
        rank += below[rest]
        rest -= patterns[:, j]
        rank -= below[rest]
    return rank


def _create(prev, k: int, coefs: np.ndarray, bosonic: bool) -> np.ndarray:
    """One creation step of the engine: the padded level k from the padded level k - 1, prev.

    coefs (rows, m) holds each row's coupling column of the new photon's
    mode. Every mode i is swept, so a row whose coupling is zero there
    adds an exact 0. Padded levels carry one zero slot past their end,
    which the gather map reads where t_i = 0. A bosonic step takes
    sqrt(t_i) and leaves the division by sqrt(prod_j r_j!) to the caller.
    """
    basis, src = _levels(k, coefs.shape[1])
    padded = np.zeros((len(coefs), len(basis) + 1), dtype=coefs.dtype)
    vec = padded[:, :-1]
    roots = np.sqrt(np.arange(k + 1)) if bosonic else None
    for i in range(coefs.shape[1]):
        term = prev.take(src[i], axis=-1)
        term *= coefs[:, i, None]
        if bosonic:
            term *= roots.take(basis[:, i])
        vec += term
    return padded


def _transfer(coupling: np.ndarray, input_occ, bosonic: bool) -> np.ndarray:
    """The engine: push the input photons one at a time through each coupling of a stack.

    coupling is (m, m) or a stack (..., m, m); the result is (..., size),
    one row per matrix over the colex basis. With bosonic, coupling holds
    unitaries and the rows hold output amplitudes, divided at the end by
    sqrt(prod_j r_j!); otherwise it holds |U|^2 and the rows hold
    distinguishable-photon laws. The fold starts from the padded vacuum
    and creates the photons in mode order (mode_assignment), one _create
    step each.
    """
    m = coupling.shape[-1]
    stack = coupling.reshape(-1, m, m)
    photons = mode_assignment(input_occ)
    _levels(len(photons), m)   # the top level first: one pass builds every level
    padded = np.eye(1, 2, dtype=stack.dtype).repeat(len(stack), axis=0)
    for k, j in enumerate(photons, start=1):
        padded = _create(padded, k, stack[:, :, j], bosonic)
    vec = padded[:, :-1]
    if bosonic:
        vec /= math.sqrt(math.prod(map(math.factorial, input_occ)))
    return vec.reshape(coupling.shape[:-2] + vec.shape[-1:])


@lru_cache(maxsize=None)
def _pair_rank(a: int, b: int, m: int) -> np.ndarray:
    """Level-(a + b) index of s + t for every pattern s of level a and t of level b, row-major.

    Read-only, in the narrowest unsigned dtype of the level's last index.
    With R_j the photons of s + t in modes 0..j, the sum of the factors'
    prefix sums, _rank's walk adds C(R_j + j, j) - C(R_{j-1} + j, j) for
    each mode j >= 1. Every such term, and so every partial sum, is at
    most the rank, so the table accumulates one mode at a time in its own
    dtype, and no pair sum is materialized.
    """
    top = a + b
    out = np.zeros((math.comb(a + m - 1, a), math.comb(b + m - 1, b)),
                   np.min_scalar_type(math.comb(top + m - 1, top) - 1))
    prefix_a, prefix_b = (np.cumsum(_patterns(k, m), axis=1, dtype=np.min_scalar_type(top)).T
                          for k in (a, b))
    below = np.add.outer(prefix_a[0], prefix_b[0])
    for j in range(1, m):
        comb = _binomials(top, m)[:, j]
        # steps[p, r] = C(r + j, j) - C(p + j, j), read only where p <= r
        steps = np.maximum(comb - comb[:, None], 0).astype(out.dtype)
        upto = np.add.outer(prefix_a[j], prefix_b[j])
        out += steps[below, upto]
        below = upto
    out = out.reshape(-1)
    out.flags.writeable = False
    return out


def _convolve(p: np.ndarray, a: int, q: np.ndarray, b: int, m: int) -> np.ndarray:
    """Law of s + t for independent s ~ p on level a and t ~ q on level b.

    p and q may be equal stacks of laws (..., size). Each row is one
    np.bincount of _pair_rank weighted by the row's pair products
    np.outer(p, q). Every pattern of level a + b is a pair sum, so the
    bins reach each of its size slots.
    """
    size, rank = math.comb(a + b + m - 1, a + b), _pair_rank(a, b, m)
    out = np.empty(p.shape[:-1] + (size,))
    for row, x, y in zip(out.reshape(-1, size), p.reshape(-1, p.shape[-1]),
                         q.reshape(-1, q.shape[-1])):
        row[:] = np.bincount(rank, np.outer(x, y).ravel(), size)
    return out


def _species_law(u: np.ndarray, partition: SpeciesPartition) -> np.ndarray:
    """Output laws of a species partition: convolution of the per-species laws, per matrix."""
    m = u.shape[-1]
    law, size = None, 0
    for species in partition:
        p = np.abs(_transfer(u, species, bosonic=True)) ** 2
        law = p if law is None else _convolve(law, size, p, total(species), m)
        size += total(species)
    return law


def check_partition(partition, m: int) -> SpeciesPartition:
    """Validate a species partition: each species is a nonempty pattern on m modes."""
    partition = tuple(_check_occupation(s, m, "species pattern") for s in partition)
    if not partition:
        raise ValueError("species partition is empty")
    if any(total(s) == 0 for s in partition):
        raise ValueError("species partition contains an empty species")
    return partition


def partition_input(partition: SpeciesPartition) -> ModeOccupation:
    """Total input pattern of a species partition (elementwise sum)."""
    return tuple(sum(counts) for counts in zip(*partition))


@record
class Mixture:
    """Convex combination of species partitions modelling partial distinguishability."""

    components: tuple[tuple[float, SpeciesPartition], ...]

    def __post_init__(self):
        comps = []
        for w, part in self.components:
            w = float(w)
            if w < 0:
                raise ValueError(f"mixture weight {w} is negative")
            comps.append((w, tuple(_check_occupation(s, name="species pattern") for s in part)))
        object.__setattr__(self, "components", tuple(comps))
        s = sum(w for w, _ in self.components)
        if abs(s - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"mixture weights sum to {s!r}, expected 1")


def _check_probs(probs, size: int | None = None) -> np.ndarray:
    """A 1-d probability vector, of length size if given, checked and clipped by _clipped."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or not probs.size or size not in (None, probs.size):
        raise ValueError(f"expected a 1-d probability vector of length {size or '>= 1'}, "
                         f"got shape {probs.shape}")
    return _clipped(probs)


def _clipped(probs: np.ndarray) -> np.ndarray:
    """A stack of probability vectors (..., size), each clipped at 0.

    Entries may dip below 0, and each vector's sum may miss 1, by
    PROB_SUM_TOL at most; otherwise ValueError.
    """
    # The reductions call the ufuncs, skipping the ndarray-method wrappers, and
    # maximum gives clip's values (-0.0 becomes 0.0) in a third of its time.
    if not np.minimum.reduce(probs, axis=None, initial=0.0) >= -PROB_SUM_TOL:
        raise ValueError(f"negative probability {probs.min()}")
    _check_sums(np.add.reduce(probs, axis=-1), "probabilities sum to")
    return np.maximum(probs, 0.0)


def _check_sums(sums: np.ndarray, what: str) -> None:
    """ValueError naming the worst of sums, if any misses 1 by more than PROB_SUM_TOL."""
    dev = np.abs(sums - 1.0)
    if not np.maximum.reduce(dev, axis=None, initial=0.0) <= PROB_SUM_TOL:
        raise ValueError(f"{what} {float(np.ravel(sums)[np.argmax(dev)])!r}, expected 1")


@record
class FockDistribution:
    """Probability distribution of n photons over the canonical basis enumerate_basis(n, m)."""

    n: int
    m: int
    probs: np.ndarray

    def __post_init__(self):
        if self.n < 0 or self.m < 1:
            raise ValueError(f"need n >= 0 photons and m >= 1 modes, got n={self.n}, m={self.m}")
        size = math.comb(self.n + self.m - 1, self.n)
        object.__setattr__(self, "probs", _check_probs(self.probs, size))

    @property
    def basis(self) -> tuple[ModeOccupation, ...]:
        return enumerate_basis(self.n, self.m)

    def prob_of(self, occ) -> float:
        """Probability of one pattern; 0.0 for a pattern outside the basis.

        A count that is not an integer raises ValueError (see _integers).
        """
        occ = np.array([_integers(occ, "pattern")], dtype=np.int64)
        if occ.shape[1] != self.m or occ.min() < 0 or occ.sum() != self.n:
            return 0.0
        return float(self.probs[_rank(occ, self.n)[0]])

    def csv_rows(self):
        """(pattern, probability) rows; the pattern column joins counts with '|'.

        Yielded CSV_BLOCK rows at a time. A table holds each count 0..n in
        ASCII, right-aligned to the width of n and followed by '|'. Taking
        its rows by a block of the basis array lays out the block's labels
        in row order; the last '|' of each row becomes a newline, and one
        decode, one removal of the padding spaces and one split give them.
        """
        width = len(str(self.n))
        table = np.frombuffer("".join(f"{c:>{width}}|" for c in range(self.n + 1)).encode("ascii"),
                              dtype=np.uint8).reshape(self.n + 1, width + 1)
        patterns = _patterns(self.n, self.m)
        for lo in range(0, len(patterns), CSV_BLOCK):
            cells = table.take(patterns[lo:lo + CSV_BLOCK], axis=0)
            cells[:, -1, -1] = ord("\n")
            labels = cells.tobytes().decode("ascii").replace(" ", "").split("\n")[:-1]
            yield from zip(labels, self.probs[lo:lo + CSV_BLOCK].tolist())


def _resolve_model(model, input_occ: ModeOccupation, m: int):
    """Normalize a distinguishability model argument.

    Accepts the two model names, a species partition (sequence of
    patterns) or a Mixture. Returns ("name", None) or ("mixture", Mixture).
    """
    if isinstance(model, str):
        if model in (MODEL_INDISTINGUISHABLE, MODEL_DISTINGUISHABLE):
            return model, None
        raise ValueError(f"unknown distinguishability model {model!r}")
    if isinstance(model, Mixture):
        for _, part in model.components:
            part = check_partition(part, m)
            if partition_input(part) != input_occ:
                raise ValueError(
                    f"mixture component input {partition_input(part)} differs from {input_occ}")
        return "mixture", model
    part = check_partition(model, m)
    if partition_input(part) != input_occ:
        raise ValueError(f"partition input {partition_input(part)} differs from {input_occ}")
    return "mixture", Mixture(((1.0, part),))


def model_tag(model):
    """JSON-friendly description of a distinguishability model argument."""
    if isinstance(model, str):
        return model
    if isinstance(model, Mixture):
        return {"mixture": [[w, [list(p) for p in part]]
                            for w, part in model.components]}
    return {"species": [list(p) for p in model]}


def _laws(u: np.ndarray, input_occ, model) -> np.ndarray:
    """Output laws of an input pattern through a unitary or a stack (..., m, m): (..., size).

    The stacked form of output_distribution, which is its (m, m) case:
    the same checks, one engine pass for the whole stack, and each row
    normalized on its own.
    """
    u = np.asarray(u, dtype=complex)
    if not linalg.is_unitary(u):
        raise ValueError("transfer matrix is not unitary within tolerance")
    m = u.shape[-1]
    input_occ = _check_occupation(input_occ, m, "input pattern")
    kind, mixture = _resolve_model(model, input_occ, m)

    if kind == MODEL_INDISTINGUISHABLE:
        probs = np.abs(_transfer(u, input_occ, bosonic=True)) ** 2
    elif kind == MODEL_DISTINGUISHABLE:
        probs = _transfer(np.abs(u) ** 2, input_occ, bosonic=False)
    else:
        probs = sum(w * _species_law(u, part) for w, part in mixture.components)
    return _normalized(probs)


def _normalized(probs: np.ndarray) -> np.ndarray:
    """Each law of a stack (..., size) divided by its sum, which must be 1 within PROB_SUM_TOL."""
    s = probs.sum(axis=-1, keepdims=True)
    _check_sums(s, "output probabilities (unitarity loss?) sum to")
    return probs / s


def output_distribution(u: np.ndarray, input_occ,
                        model=MODEL_INDISTINGUISHABLE) -> FockDistribution:
    """Full output distribution of an input pattern through a unitary.

    model selects the transition law: "indistinguishable",
    "distinguishable", a species partition, or a Mixture of partitions.
    Every law comes from the transition engine (see the module
    docstring) in one pass over the basis; the per-pattern permanent
    formulas define the same values and serve as the oracle.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2:
        raise ValueError(f"transfer matrix must be square, got shape {u.shape}")
    probs = _laws(u, input_occ, model)   # checks the unitary and the input first
    return FockDistribution(total(_check_occupation(input_occ)), u.shape[0], probs)


def sample(dist: FockDistribution, count: int, seed) -> np.ndarray:
    """Draw occupation patterns i.i.d. from a distribution, reproducible per seed.

    Returns a (count, m) array of the narrowest unsigned dtype that holds
    the photon number, one pattern per row.
    """
    if count < 0:
        raise ValueError(f"sample count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    return _draw(np.cumsum(dist.probs), dist.n, dist.m, count, rng)


def _draw(cdf: np.ndarray, n: int, m: int, count: int, rng) -> np.ndarray:
    """count patterns of n photons on m modes from the cumulative law cdf, one uniform each.

    The body of sample, for callers that keep a law's cumulative sum
    across many draws.
    """
    return _patterns(n, m).take(_pick(cdf, rng.random(count)), axis=0)


def _pick(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Basis index that each uniform selects from the cumulative law cdf.

    A uniform above the last entry, which rounding can leave below 1,
    takes the last pattern.
    """
    return np.minimum(np.searchsorted(cdf, uniforms, side="right"), cdf.size - 1)


def state_vector(u: np.ndarray, input_occ) -> np.ndarray:
    """Output amplitudes of an input pattern over the canonical basis.

    By definition the amplitude on pattern s is perm(M) / sqrt(prod_j
    r_j! s_j!); the transition engine builds all of them at once, and
    their squared moduli are the indistinguishable distribution. A stack
    of unitaries (..., m, m) gives one vector per matrix, (..., size), in
    one engine pass; a single (m, m) unitary is the stack of one.
    """
    u = np.asarray(u, dtype=complex)
    if not linalg.is_unitary(u):
        raise ValueError("transfer matrix is not unitary within tolerance")
    m = u.shape[-1]
    amps = _transfer(u, _check_occupation(input_occ, m, "input pattern"), bosonic=True)
    _check_sums(np.sum(np.abs(amps) ** 2, axis=-1), "state vector norm")
    return amps
