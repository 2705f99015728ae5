"""Two-setting certification of evolved few-photon states.

Setting 1 appends the inverse evolution and accepts exactly the input
pattern, estimating the revival probability p1. Setting 2 appends the
inverse evolution followed by the discrete Fourier transform on the
occupied modes and estimates the weight p2 landing on patterns that are
strictly suppressed for fully indistinguishable photons. A lower
fidelity bound

    f_lower = p1 - p2 / min_i lambda_i - delta(eps1) - delta(eps2)

follows, where lambda_i is the minimum forbidden-pattern weight over the
distinguishability classes and delta is a Chebyshev finite-statistics
penalty. Comparing f_lower against the largest squared Schmidt
coefficient across a mode bipartition certifies entanglement from the
measured data alone.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache

import numpy as np

from . import fock, hamiltonian, linalg, record

LAMBDA_MAX_PHOTONS = 6
DEFAULT_VARIANCE = 0.25
CONVERGENCE_BATCHES = 16


@record
class ForbiddenSet:
    """Output patterns suppressed by the Fourier interference of one photon per mode.

    Built by forbidden_patterns; forbidden_hits reads its n and m.
    """

    n: int
    m: int

    @cached_property
    def patterns(self) -> tuple[fock.ModeOccupation, ...]:
        """The forbidden patterns as tuples, in basis order."""
        forb = fock._patterns(self.n, self.m)[_forbidden_mask(self.n, self.m)]
        return tuple(map(tuple, forb.tolist()))


@lru_cache(maxsize=None)
def _forbidden_mask(n: int, m: int) -> np.ndarray:
    """Read-only boolean mask over fock._patterns(n, m) of the forbidden patterns.

    The rule of forbidden_patterns, applied to the whole basis at once;
    patterns with photons beyond mode n are never forbidden.
    """
    pats = fock._patterns(n, m)
    mask = (pats[:, :n] @ np.arange(1, n + 1)) % n != 0
    mask &= ~pats[:, n:].any(axis=1)
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=None)
def forbidden_patterns(n: int, m: int) -> ForbiddenSet:
    """Suppressed output patterns of one photon per mode on modes 0..n-1 under fourier(n, m).

    A pattern s on the first n modes is forbidden iff
    sum(mode_assignment(s)) is nonzero mod n (1-based mode numbers).
    Patterns placing photons beyond mode n cannot arise from the ideal
    input, the apparatus filter handles them; they are not enumerated.
    Cached; the returned set is frozen.
    """
    if n < 2:
        raise ValueError(f"need at least 2 photons, got {n}")
    if m < n:
        raise ValueError(f"need m >= n modes, got n={n}, m={m}")
    return ForbiddenSet(n, m)


@lru_cache(maxsize=None)
def lambda_coefficients(n: int, m: int) -> tuple[tuple[tuple[int, ...], float], ...]:
    """Forbidden-pattern weight of each distinguishability class under the Fourier.

    Photons sit one per mode on the first n modes. Every way of grouping
    them into k >= 2 mutually distinguishable species is classed by its
    multiset of species sizes s = (s_1, ..., s_k). The class weight sums,
    over forbidden patterns, the exit routes in which each multi-photon
    species leaves bunched in a single output mode; singleton species are
    free. For the all-singleton class this is the full distinguishable
    forbidden weight.

    The weight has a closed form (the Fourier suppression law of Tichy et
    al., PRL 113, 020502, 2014). Every |F_ij|^2 is 1/n, so a species of s_b
    photons exits bunched in output mode i_b with probability s_b!/n^s_b,
    whatever modes host it, and the k species pick their exit modes
    independently and uniformly. The pattern's 1-based mode sum is then
    sum_b s_b * i_b mod n, uniform over the multiples of g = gcd(s) (g
    divides n = sum_b s_b), so it is nonzero mod n with probability
    (n - g)/n and

        lambda(s) = prod_b s_b! * n^(k - 1) * (n - g) / n^n,

    one correctly rounded division of exact integers. Neither the
    placement of the species nor m enters; m is only validated. Returns a
    tuple of (sizes, lambda) pairs ordered by species count, e.g. for
    n = 3: (((2, 1), 4/9), ((1, 1, 1), 2/3)). Cached per (n, m).
    """
    if not 2 <= n <= LAMBDA_MAX_PHOTONS:
        raise ValueError(f"photon number {n} outside supported range 2..{LAMBDA_MAX_PHOTONS}")
    if m < n:
        raise ValueError(f"need m >= n modes, got n={n}, m={m}")
    # the integer partitions of n into >= 2 parts, largest part first
    classes = sorted((c[::-1] for k in range(2, n + 1)
                      for c in itertools.combinations_with_replacement(range(1, n), k)
                      if sum(c) == n), key=lambda c: (len(c), c))
    return tuple((sizes, math.prod(map(math.factorial, sizes)) * n ** (len(sizes) - 1)
                  * (n - math.gcd(*sizes)) / n ** n) for sizes in classes)


def lambda_monte_carlo(n: int, m: int, sizes, shots: int, seed=None) -> tuple[float, float]:
    """Sampling cross-check of one class coefficient.

    Draws each species' exit independently from its interference law
    through fourier(n, m) and counts events where the summed pattern is
    forbidden and every multi-photon species exited bunched. Returns the
    frequency and its binomial standard error.
    """
    sizes = fock._check_occupation(sizes, name="species sizes")
    if sum(sizes) != n:
        raise ValueError(f"species sizes {sizes} do not total {n} photons")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    u = linalg.fourier(n, m)
    rng = np.random.default_rng(seed)
    total = np.zeros((shots, m), dtype=np.min_scalar_type(n))
    bunched = np.ones(shots, dtype=bool)
    mode = 0
    for size in sizes:
        occ = [0] * m
        for j in range(mode, mode + size):
            occ[j] = 1
        mode += size
        dist = fock.output_distribution(u, tuple(occ), fock.MODEL_INDISTINGUISHABLE)
        draws = fock.sample(dist, shots, rng)
        total += draws
        if size >= 2:
            bunched &= draws.max(axis=1) == size
    hits = bunched & forbidden_hits(total, forbidden_patterns(n, m))
    freq = float(hits.mean())
    return freq, math.sqrt(max(freq * (1.0 - freq), 1e-12) / shots)


def revival_hits(samples, target) -> np.ndarray:
    """Boolean mask of the samples (rows of a (k, m) pattern array) equal to target.

    target is checked once, by fock._check_occupation, so a count that is
    not an integer raises ValueError.
    """
    target = fock._check_occupation(target, name="revival target")
    samples = np.asarray(samples).reshape(len(samples), len(target))
    hit = np.ones(len(samples), dtype=bool)
    for j, count in enumerate(target):
        hit &= samples[:, j] == count
    return hit


def forbidden_hits(samples, fs: ForbiddenSet) -> np.ndarray:
    """Boolean mask of the samples (rows of a (k, fs.m) count array) in fs.patterns.

    Rows holding fs.n photons are looked up by their basis index; rows
    with any other total are never forbidden.
    """
    samples = np.asarray(samples).reshape(len(samples), fs.m)
    hits = np.zeros(len(samples), dtype=bool)
    full = samples.sum(axis=1) == fs.n
    hits[full] = _forbidden_mask(fs.n, fs.m)[fock._rank(samples[full], fs.n)]
    return hits


def estimate_p1(samples, target) -> tuple[float, int]:
    """Fraction of samples exactly equal to the target pattern, plus the sample count."""
    k = len(samples)
    if k == 0:
        raise ValueError("no samples")
    return int(np.count_nonzero(revival_hits(samples, target))) / k, k


def estimate_p2(samples, fs: ForbiddenSet) -> tuple[float, int]:
    """Fraction of samples landing on forbidden patterns, plus the sample count."""
    k = len(samples)
    if k == 0:
        raise ValueError("no samples")
    return int(np.count_nonzero(forbidden_hits(samples, fs))) / k, k


def chebyshev_delta(variance: float, k: int, epsilon: float) -> float:
    """Finite-statistics penalty sqrt(2 * variance / (k * log(1 / epsilon))).

    epsilon is the confidence parameter in (0, 1); variance defaults to
    the Bernoulli worst case 1/4 elsewhere in the package. The formula
    is applied exactly as stated; the report exposes both epsilon
    factors so either reading of the combined confidence can be made.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if k < 1:
        raise ValueError(f"sample count must be >= 1, got {k}")
    if variance < 0:
        raise ValueError(f"variance must be >= 0, got {variance}")
    return math.sqrt(2.0 * variance / (k * math.log(1.0 / epsilon)))


@record
class CertificationResult:
    """Everything needed to audit one certification run.

    convergence holds (samples, p1, p2, f_lower) rows over growing prefixes
    of the samples, ending at all of them; to_dict leaves it out.
    """

    p1: float
    p2: float
    k1: int
    k2: int
    epsilon1: float
    epsilon2: float
    epsilon: float
    delta: float
    f_lower: float
    lambda_min: float
    lambdas: tuple = ()
    witness_threshold: float | None = None
    entangled: bool | None = None
    convergence: tuple = ()

    def to_dict(self) -> dict:
        return {
            "p1": self.p1, "p2": self.p2, "k1": self.k1, "k2": self.k2,
            "epsilon1": self.epsilon1, "epsilon2": self.epsilon2,
            "epsilon": self.epsilon, "delta": self.delta,
            "f_lower": self.f_lower, "lambda_min": self.lambda_min,
            "lambdas": [[list(sizes), lam] for sizes, lam in self.lambdas],
            "witness_threshold": self.witness_threshold,
            "entangled": self.entangled,
        }


def fidelity_bound(p1: float, k1: int, p2: float, k2: int, lambdas,
                   eps1: float, eps2: float, witness: float | None = None) -> CertificationResult:
    """Assemble the certified fidelity lower bound from the two estimates.

    lambdas holds (sizes, lambda) pairs as returned by lambda_coefficients;
    only the minimum enters the bound. The combined confidence is
    reported as the product eps1 * eps2.
    """
    vals = [float(lam) for _, lam in lambdas]
    if not vals or min(vals) <= 0:
        raise ValueError("need at least one positive forbidden-pattern weight")
    for name, p in (("p1", p1), ("p2", p2)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name}={p} outside [0, 1]")
    lam_min = min(vals)
    d1 = chebyshev_delta(DEFAULT_VARIANCE, k1, eps1)
    d2 = chebyshev_delta(DEFAULT_VARIANCE, k2, eps2)
    f_lower = p1 - p2 / lam_min - d1 - d2
    return CertificationResult(
        p1=p1, p2=p2, k1=k1, k2=k2, epsilon1=eps1, epsilon2=eps2,
        epsilon=eps1 * eps2, delta=d1 + d2, f_lower=f_lower, lambda_min=lam_min,
        lambdas=tuple(lambdas), witness_threshold=witness,
        entangled=None if witness is None else bool(f_lower > witness))


def witness_threshold(u: np.ndarray, input_occ, split: int = 1):
    """Largest squared Schmidt coefficient of the output state across a mode cut.

    split is the number of leading modes on one side of the bipartition,
    0 < split < m. Any product state scores 1; a certified fidelity
    above this value implies entanglement across the cut. u is one
    unitary (m, m), giving a float, or a stack (..., m, m), giving one
    value per matrix, each equal to that matrix's value alone: one engine
    pass makes every state vector, and each photon-number block takes one
    stacked SVD.
    """
    u = np.asarray(u, dtype=complex)
    m = u.shape[-1]
    if not 0 < split < m:
        raise ValueError(f"bipartition must be nontrivial: 0 < split < {m}, got {split}")
    input_occ = fock._check_occupation(input_occ, m, "input pattern")
    n = fock.total(input_occ)
    psi = fock.state_vector(u, input_occ)
    psi = psi.reshape(-1, psi.shape[-1])
    pats = fock._patterns(n, m)
    # photon number is conserved, so the Schmidt matrix is block-diagonal in the
    # photons k left of the cut; its top singular value is the largest over the blocks
    k = pats[:, :split].sum(axis=1)
    top = np.zeros(len(psi))
    for j in range(n + 1):
        sel = k == j
        block = np.zeros((len(psi), math.comb(j + split - 1, j),
                          math.comb(n - j + m - split - 1, n - j)), dtype=complex)
        block[:, fock._rank(pats[sel, :split], j), fock._rank(pats[sel, split:], n - j)] = \
            psi[:, sel]
        top = np.maximum(top, np.linalg.svd(block, compute_uv=False)[:, 0])
    # squared one float at a time: numpy's array square may differ from pow in the last bit
    squares = [x ** 2 for x in top.tolist()]
    return squares[0] if u.ndim == 2 else np.array(squares).reshape(u.shape[:-2])


def _settings(u: np.ndarray, n: int, m: int) -> np.ndarray:
    """Ideal unitaries (2T, m, m) of both settings for each evolution of a stack u (T, m, m).

    Setting 1 then setting 2 of each step. Setting 1 is the evolution
    followed by its inverse, back @ u; setting 2 also applies the Fourier
    transform on the occupied modes, (fourier @ back) @ u. Each is one
    stacked product, equal bit for bit to the per-matrix one.
    """
    back = u.conj().swapaxes(-1, -2)
    both = np.stack((back @ u, (linalg.fourier(n, m) @ back) @ u), axis=1)
    return both.reshape(-1, m, m)


def collect_setting_samples(spec: hamiltonian.HamiltonianSpec, t: float, model,
                            shots: int, seed, app: apparatus.Apparatus | None = None,
                            input_occ=None) -> tuple[np.ndarray, np.ndarray]:
    """Post-selected output patterns for both measurement settings, two (shots, m) arrays.

    Setting 1 programs the evolution followed by its inverse; setting 2
    additionally applies the Fourier transform on the occupied modes.
    With an Apparatus each setting's unitary is decomposed into one mesh,
    jittered and recomposed, and samples pass through source heralding
    and quasi photon-number detection; otherwise sampling is exact.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    m = spec.modes
    if input_occ is None:
        input_occ = (1,) * (m - 1) + (0,)
    input_occ = fock._check_occupation(input_occ, m, "input pattern")
    settings = _settings(hamiltonian.evolution(spec, [t]), fock.total(input_occ), m)
    samples = _sample_settings(settings, model, shots, _generators([seed]), app, input_occ)
    return samples[0], samples[1]


def _generators(seeds) -> list:
    """One generator per setting of each step's seed: SeedSequence((seed, 0)), then (seed, 1)."""
    return [np.random.default_rng(np.random.SeedSequence((seed, idx)))
            for seed in seeds for idx in range(2)]


def _sample_settings(settings, model, shots: int, rngs, app: apparatus.Apparatus | None,
                     input_occ) -> np.ndarray:
    """Sampled patterns (2T, shots, m) of the 2T settings from _settings, one generator each.

    With an apparatus, each generator first draws its setting's mesh
    jitter, and then one event stream runs all realized unitaries as a
    stack; otherwise each setting samples its exact law.
    """
    if app is None or app.is_trivial():
        n, m = fock.total(input_occ), len(input_occ)
        return np.array([fock._draw(np.cumsum(law), n, m, shots, rng)
                         for law, rng in zip(fock._laws(settings, input_occ, model), rngs)])
    from . import apparatus  # cli.load_config has loaded it along with the apparatus block
    realized = np.array([apparatus.programmed_unitary(u, app.mesh_jitter, rng)
                         for u, rng in zip(settings, rngs)])
    return apparatus.simulate_setting(realized, model, app.source, app.detection, shots, rngs,
                                      target=input_occ)


def certify(spec: hamiltonian.HamiltonianSpec, t, model, shots: int, seed,
            eps1: float, eps2: float, app: apparatus.Apparatus | None = None,
            split: int = 1, input_occ=None):
    """Run both settings and return the certification record with its convergence trace.

    t is one time, with an int seed, and gives one CertificationResult;
    or a 1-D sequence of times, with a sequence of as many seeds, and
    gives a tuple of results, one per step, each equal to the result of
    its time and seed alone. The steps run as stacks, in chunks of at
    most fock.MAX_PATTERNS entries of unitaries, of laws (with a source,
    of all the by-product laws the event stream may keep) and, with an
    apparatus, of sampled patterns, and at least one step: one evolution,
    one law or event-stream pass and one witness pass per chunk.

    The trace holds CONVERGENCE_BATCHES equal batches, then all shots,
    whose row equals the record. Without an apparatus, or with a trivial
    one, no pattern is drawn: each shot of setting 1 hits the input with
    the exact probability P1 its law gives, and each shot of setting 2
    lands on a forbidden pattern with the exact weight P2, so each batch's
    hit count is one Binomial(batch, P) draw from the setting's generator.
    With an apparatus the patterns are sampled and detected as in
    collect_setting_samples, from the same evolution, and the hits are
    read off one mask per setting. Raises ValueError before any draw if
    the times are not finite, not a scalar or 1-D, or do not match the
    seeds.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"times must be a scalar or 1-D, got shape {times.shape}")
    if not np.isfinite(times).all():
        raise ValueError(f"times must be finite, got {t!r}")
    if np.ndim(seed) != times.ndim or np.size(seed) != times.size:
        raise ValueError(f"seed {seed!r} does not match the times: one time takes one seed, "
                         f"a sequence of {times.size} times a sequence of as many")
    seeds = list(seed) if times.ndim else [seed]
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    m = spec.modes
    if input_occ is None:
        input_occ = (1,) * (m - 1) + (0,)
    input_occ = fock._check_occupation(input_occ, m, "input pattern")
    n = fock.total(input_occ)
    lambdas = lambda_coefficients(n, m)
    per = max(1, shots // CONVERGENCE_BATCHES)
    cuts = np.array([b * per for b in range(1, CONVERGENCE_BATCHES + 1) if b * per < shots]
                    + [shots], dtype=np.int64)
    sampled = app is not None and not app.is_trivial()
    laws = math.comb(n + m - 1, n)
    if sampled and app.source is not None:
        from . import apparatus
        # the stream keeps the law of every useful input it may draw, up to the cap, and its chains
        laws = max(laws, apparatus._kept_law_entries(n, m, apparatus._has_floor(app.detection)))
    entries = 2 * max(laws, m * m, shots * m if sampled else 0)
    step = max(1, fock.MAX_PATTERNS // entries)
    sizes = np.diff(cuts, prepend=0)
    revival = fock._rank(np.array([input_occ]), n)[0]
    flat = times.reshape(-1)
    out = []
    for lo in range(0, flat.size, step):
        u = hamiltonian.evolution(spec, flat[lo:lo + step])
        settings = _settings(u, n, m)
        thresholds = witness_threshold(u, input_occ, split)
        rngs = _generators(seeds[lo:lo + step])
        # cumulative hits at each cut, setting 1 then setting 2 of each step
        if sampled:
            samples = _sample_settings(settings, model, shots, rngs, app, input_occ)
            fs = forbidden_patterns(n, m)
            hits = [np.cumsum(forbidden_hits(s, fs) if idx % 2 else revival_hits(s, input_occ))
                    [cuts - 1] for idx, s in enumerate(samples)]
        else:
            laws = fock._laws(settings, input_occ, model)
            probs = [law[_forbidden_mask(n, m)].sum() if idx % 2 else law[revival]
                     for idx, law in enumerate(laws)]
            # a law is checked only to its sum tolerance: a near-delta weight may pass 1
            hits = [np.cumsum(rng.binomial(sizes, min(max(p, 0.0), 1.0)))
                    for p, rng in zip(probs, rngs)]
        for h1, h2, thresh in zip(hits[0::2], hits[1::2], thresholds.tolist()):
            trace = []
            for cut, k1, k2 in zip(cuts.tolist(), h1.tolist(), h2.tolist()):
                p1, p2 = k1 / cut, k2 / cut
                result = fidelity_bound(p1, cut, p2, cut, lambdas, eps1, eps2, witness=thresh)
                trace.append((cut, p1, p2, result.f_lower))
            out.append(result.replace(convergence=tuple(trace)))
    return out[0] if times.ndim == 0 else tuple(out)
