"""Local mode statistics, generalized-Gibbs reference marginals and equilibration traces.

The stationary reference for a single mode at photon density D = n/m is
the geometric law p(k) = D^k / (D + 1)^(k + 1). Observed marginals of an
n-photon experiment live on k = 0..n, so the reference is truncated by
folding the entire geometric tail k >= n into the last bin; the raw
(untruncated) values are available separately.
"""

from __future__ import annotations

import numpy as np

from . import fock, hamiltonian, record


@record
class MarginalDistribution:
    """Photon-number distribution of one spatial mode, support 0..n."""

    mode: int
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", fock._check_probs(self.probs))


def marginal(dist: fock.FockDistribution, mode: int) -> MarginalDistribution:
    """Photon-number marginal of one mode (0-based) of a full distribution."""
    if not 0 <= mode < dist.m:
        raise ValueError(f"mode {mode} out of range for {dist.m} modes")
    counts = fock._patterns(dist.n, dist.m)[:, mode]
    return MarginalDistribution(mode, np.bincount(counts, weights=dist.probs, minlength=dist.n + 1))


def geometric_photon_probability(k: int, density: float) -> float:
    """Raw stationary single-mode law D^k / (D + 1)^(k + 1) at photon density D."""
    if k < 0:
        raise ValueError(f"photon count must be >= 0, got {k}")
    if density < 0:
        raise ValueError(f"density must be >= 0, got {density}")
    return density**k / (density + 1.0) ** (k + 1)


def gge_marginal(n: int, m: int) -> MarginalDistribution:
    """Stationary mode-0 reference for n photons in m modes, support 0..n.

    Bins k < n carry the raw geometric values; bin n absorbs the whole
    geometric tail (D/(D+1))^n so the truncated law sums to exactly 1.
    """
    if n < 0 or m < 1:
        raise ValueError(f"need n >= 0 and m >= 1, got n={n}, m={m}")
    d = n / m
    probs = np.array([geometric_photon_probability(k, d) for k in range(n)]
                     + [(d / (d + 1.0)) ** n])
    return MarginalDistribution(0, probs)


def tvd(p, q) -> float:
    """Total variation distance between two distributions on a common support.

    Accepts MarginalDistribution, FockDistribution or plain probability
    vectors; mismatched supports raise.
    """
    pv, qv = (np.asarray(getattr(x, "probs", x), dtype=float) for x in (p, q))
    if pv.shape != qv.shape:
        raise ValueError(f"support mismatch: {pv.shape} vs {qv.shape}")
    return float(0.5 * np.sum(np.abs(pv - qv)))


@record
class TracePoint:
    t: float
    marginal: MarginalDistribution
    tvd_to_gge: float


def _marginals(spec: hamiltonian.HamiltonianSpec, input_occ, times, models) -> np.ndarray:
    """Mode-0 marginals of each model at each time: (len(models), len(times), n + 1).

    The times go through hamiltonian.evolution in chunks of at most
    fock.MAX_PATTERNS law entries (and as many unitary entries), so a long
    list of times never holds more than one law of the largest accepted
    basis. Each chunk's evolution is shared by every model; each model
    takes one engine pass (fock._laws) and one np.bincount over the whole
    chunk, with bins counts + (n + 1) * row. bincount adds each bin's
    weights in input order, so each row equals
    marginal(fock.output_distribution(hamiltonian.evolution(spec, t), ...), 0)
    bit for bit. Every row is checked and clipped as a
    MarginalDistribution's probabilities are (fock._clipped).
    """
    n, m = fock.total(input_occ), spec.modes
    times = np.asarray(times, dtype=float).reshape(-1)
    counts = fock._patterns(n, m)[:, 0]
    step = max(1, fock.MAX_PATTERNS // max(counts.size, m * m))
    out = np.empty((len(models), times.size, n + 1))
    for lo in range(0, times.size, step):
        u = hamiltonian.evolution(spec, times[lo:lo + step])
        bins = (counts + (n + 1) * np.arange(len(u))[:, None]).ravel()
        for marg, model in zip(out, models):
            weights = fock._laws(u, input_occ, model).ravel()
            marg[lo:lo + step] = np.bincount(bins, weights, len(u) * (n + 1)).reshape(-1, n + 1)
    return fock._clipped(out)


def equilibration_trace(spec: hamiltonian.HamiltonianSpec, input_occ, times,
                        model=fock.MODEL_INDISTINGUISHABLE) -> list[TracePoint]:
    """Mode-0 marginal and its distance to the stationary reference over time.

    The marginals come from _marginals, the one model's stack of them,
    and the distances are taken over that stack at once.
    """
    input_occ = fock._check_occupation(input_occ, spec.modes, "input pattern")
    ref = gge_marginal(fock.total(input_occ), spec.modes)
    times = [float(t) for t in times]
    margs = _marginals(spec, input_occ, times, [model])[0]
    dists = 0.5 * np.sum(np.abs(margs - ref.probs), axis=-1)
    return [TracePoint(t, MarginalDistribution(0, probs), d)
            for t, probs, d in zip(times, margs, dists.tolist())]


def recurrence_time(spec: hamiltonian.HamiltonianSpec, input_occ) -> float:
    """Scan for the first revival of the initial mode-0 marginal of indistinguishable photons.

    A coarse grid of 240 points on (0, 6], evaluated as one stack, then a
    golden-section search, to 1e-12 in t, of the distance to the t=0
    marginal around the best grid point.
    """
    input_occ = fock._check_occupation(input_occ, spec.modes, "input pattern")
    models = [fock.MODEL_INDISTINGUISHABLE]

    def dist_to_start(t: float) -> float:
        return tvd(_marginals(spec, input_occ, t, models)[0, 0], start)

    start = _marginals(spec, input_occ, 0.0, models)[0, 0]
    ts = np.linspace(0.0, 6.0, 241)[1:]
    vals = 0.5 * np.sum(np.abs(_marginals(spec, input_occ, ts, models)[0] - start), axis=-1)
    # skip the initial departure, then take the best later grid point
    ceiling = 0.5 * vals.max()
    past = np.nonzero(vals >= ceiling)[0]
    if past.size == 0:
        raise ValueError("marginal never departs from its initial value on the scanned grid")
    search = past[0] + np.argmin(vals[past[0]:])
    a, b = ts[max(search - 1, 0)], ts[min(search + 1, len(ts) - 1)]
    g = (5.0 ** 0.5 - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = dist_to_start(c), dist_to_start(d)
    while b - a > 1e-12:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = dist_to_start(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = dist_to_start(d)
    return float(0.5 * (a + b))
