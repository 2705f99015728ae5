"""Hardware model: pair sources, heralding, multiplexed click detection, mesh programming.

The source is a pair of identical downconversion crystals. Crystal 1
sends signal and idler into chip modes 0 and 1, crystal 2 sends its
signal into mode 2 and its idler to the herald detector, so the wanted
heralded input is one photon in each of the first three modes. Higher
pair numbers inject by-products such as (2, 2, 0, 0) without a herald.

Each chip output mode is read by three multiplexed threshold detectors
("channels"). A mode with k photons resolves them only when every
photon lands in a distinct live channel, which happens with probability
1 for k=0, w_p+w_q+w_r for k=1, 2(w_p w_q + w_q w_r + w_r w_p) for k=2
and 6 w_p w_q w_r for k=3; dividing observed counts by these factors
and renormalizing undoes the multiplexing bias.

Click data is a boolean array fired of shape (shots, 3m): column
3 * mode + slot is one channel, and a shot's click total is its row sum.
Counts are read by adding whole columns (the three channel slices of
each mode, or every column for the total), not by reductions along the
short axis of each row.
The event stream draws only useful source shots. A useful shot is
heralded and, with no dark counts, carries 2 j1 + j2 >= n photons: each
photon then fires at most one channel, so a shot with fewer photons can
never give n clicks. With dark counts every heralded shot is useful. The
chance q that one source attempt gives a useful shot has a closed form,
so each block of the stream spends ceil(wanted / q) attempts, keeps
Binomial(attempts, q) useful shots and draws their pair numbers straight
from their law given usefulness; no other attempt is drawn. At squeezing
0.3 and heralding efficiency 0.9, 8.2 % of attempts are heralded and
0.8 % are useful. The stream then draws each useful shot's true output
pattern from the law of its input, detects, post-selects on the target
click total n, blinds, and reconstructs. Post-selection would reject
every skipped shot, and every later draw acts only on useful shots, so
the law of the post-selected events is unchanged.

The first block asks for as many useful shots as events are missing;
each later block asks for the missing events divided by the keep rate
so far, times KEEP_MARGIN, at most 8192. The block sizes decide which
draws are made, not the law of the kept events. The stream runs a stack
of settings, one generator each. The law of each source input is built
once for the whole stack and kept as its cumulative sum for every later
block of every setting. The engine creates photons in mode order, so for
one j1 its state after the j2-th mode-2 photon is the state of the
by-product input (j1, j1, j2, 0, ...). The stream keeps one such chain
per j1 across blocks, and a block that meets new by-products extends
each chain to the largest j2 it needs, reading every useful input on the
way; no creation step is taken twice.
The target's law comes from fock._laws before the first block, under
the run's model; that call also checks the stack and the model. Every
law equals the single law of its setting bit for bit, so each setting
draws what it would draw alone.

A block makes its generator calls in a fixed order: the useful-shot
count and pair numbers (_useful_shots, whose j2 draw is the one
rng.choice would make, from the same cumulative law); one rng.random
call for every group's pattern uniforms, sliced in ascending (j1, j2)
order, one uniform per shot drawn from a law and one per photon of a
by-product routed through |U|^2; the routing uniforms, one per photon
in shot-then-mode order, and then the dark counts (_detect, the body of
qpnr_detect); and last the blinding draws. Groups are bounds into one
stable argsort of the (j1, j2) key. Each group gathers its patterns from
the cached basis _patterns(k, m), and a shot hits the blinding target
when its input has n photons and it drew the target's index, so no
pattern rows are compared. Detection sets every fired channel with one
1-D scatter into the flat click buffer.

Integer arrays made per shot or per photon take the narrowest unsigned
dtype their largest value needs: the returned events min_scalar_type(n),
since a kept event has n clicks; a block's true patterns its largest
input total, which a by-product above INTERFERENCE_PHOTON_CAP can push
past 255; photon cells 3 k m for a block of k shots on m modes, so no
channel or output index computed from them wraps. The uniforms stay the
generator's float64 draws, and click totals and pattern_from_clicks
stay int64.

By-products of more than INTERFERENCE_PHOTON_CAP photons skip their
interference law and route each photon independently through |U|^2.
The exact law is what the cap bounds: for the 12-photon by-product
(4, 4, 4, 0, ...) on 12 modes it has 1,352,078 patterns and took 13 s
and 1.2 GB of peak memory to build, against 1.5 s for a 9-photon one
(167,960 patterns). Post-selection on the target click total keeps few
such shots: of the 16,000 events of a two-step certify on 4 modes (seed
7, heralding 0.9, balanced channels, mesh jitter 0.144), 0 came from
inputs above the cap at squeezing 0.3, 9 (0.06 %) at 0.6 and 393
(2.5 %) at 0.8.

Detector blinding by by-product light is folded into a linear survival
factor for revival-pattern events as a function of pump power, not a
microscopic dead-time model.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from . import fock, linalg, record

CHANNELS_PER_MODE = 3
WEIGHT_SUM_TOL = 1e-9

BLINDING_SLOPE = -0.0020   # per mW, fitted survival of revival events
BLINDING_INTERCEPT = 0.9534


@record
class SourceModel:
    """Two-crystal downconversion source with heralding.

    squeezing is the TMSV amplitude lambda, so each crystal emits j
    pairs with probability (1 - lambda^2) lambda^(2j). pump_power is in
    mW and only drives the blinding survival factor. The pairwise
    visibilities bound the mutual overlaps of the three injected
    photons: one same-crystal pair (0, 1) and two cross-crystal pairs.
    distinguishability_mixture turns them into a species model; the
    event stream takes its model from its caller, and a config that
    lists the visibilities and gives no "model" uses that mixture.
    """

    squeezing: float = 0.1
    pump_power: float = 5.0
    heralding_efficiency: float = 0.5
    pairwise_visibilities: tuple = (((0, 1), 0.932), ((0, 2), 0.885), ((1, 2), 0.885))

    def __post_init__(self):
        if not 0.0 <= self.squeezing < 1.0:
            raise ValueError(f"squeezing amplitude must lie in [0, 1), got {self.squeezing}")
        if self.pump_power < 0:
            raise ValueError(f"pump power must be >= 0, got {self.pump_power}")
        if not 0.0 <= self.heralding_efficiency <= 1.0:
            raise ValueError(f"heralding efficiency must lie in [0, 1], got {self.heralding_efficiency}")
        vis = tuple((tuple(int(i) for i in pair), float(v))
                    for pair, v in self.pairwise_visibilities)
        for pair, v in vis:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"visibility {v} for pair {pair} outside [0, 1]")
        object.__setattr__(self, "pairwise_visibilities", vis)

    def visibility(self, i: int, j: int) -> float:
        key = (min(i, j), max(i, j))
        for pair, v in self.pairwise_visibilities:
            if tuple(sorted(pair)) == key:
                return v
        raise KeyError(f"no visibility recorded for photon pair {key}")

    def to_dict(self) -> dict:
        return {"squeezing": self.squeezing, "pump_power": self.pump_power,
                "heralding_efficiency": self.heralding_efficiency,
                "pairwise_visibilities": [[list(p), v] for p, v in self.pairwise_visibilities]}


@record
class DetectionModel:
    """Per-mode multiplexing weights and detection pathologies.

    weights[mode] = (w_p, w_q, w_r) are the routing probabilities into
    the three channels of that mode; 1 - sum(weights) is lumped loss.
    """

    weights: tuple
    dark_count_prob: float = 0.0
    blinding_slope: float = BLINDING_SLOPE
    blinding_intercept: float = BLINDING_INTERCEPT

    def __post_init__(self):
        w = tuple(tuple(float(x) for x in row) for row in self.weights)
        for mode, row in enumerate(w):
            if len(row) != CHANNELS_PER_MODE:
                raise ValueError(f"mode {mode} has {len(row)} channel weights, expected 3")
            if any(x < 0 for x in row):
                raise ValueError(f"mode {mode} has a negative weight: {row}")
            if sum(row) > 1.0 + WEIGHT_SUM_TOL:
                raise ValueError(f"mode {mode} weights sum to {sum(row)} > 1")
        if not 0.0 <= self.dark_count_prob < 1.0:
            raise ValueError(f"dark count probability must lie in [0, 1), got {self.dark_count_prob}")
        object.__setattr__(self, "weights", w)

    @property
    def modes(self) -> int:
        return len(self.weights)

    @cached_property
    def _edges(self) -> np.ndarray:
        # cumulative channel weights per mode; a photon above the last edge is lost
        return np.cumsum(self.weights, axis=1)

    @classmethod
    def ideal(cls, m: int) -> "DetectionModel":
        """Lossless balanced multiplexing, no dark counts, blinding switched off."""
        return cls.uniform(m, blinding_slope=0.0, blinding_intercept=1.0)

    @classmethod
    def uniform(cls, m: int, loss: float = 0.0, **kwargs) -> "DetectionModel":
        """Equal channel weights (1 - loss)/3 per mode."""
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss must lie in [0, 1], got {loss}")
        w = (1.0 - loss) / 3.0
        return cls(weights=((w,) * 3,) * m, **kwargs)

    def to_dict(self) -> dict:
        return {"weights": [list(row) for row in self.weights],
                "dark_count_prob": self.dark_count_prob,
                "blinding_slope": self.blinding_slope,
                "blinding_intercept": self.blinding_intercept}


@record
class Apparatus:
    """Bundle of the optional hardware imperfections used by a run."""

    source: SourceModel | None = None
    detection: DetectionModel | None = None
    mesh_jitter: float = 0.0

    def is_trivial(self) -> bool:
        return self.source is None and self.detection is None and self.mesh_jitter == 0.0


class AcceptanceError(RuntimeError):
    """The event stream spent its source-attempt budget before it collected the shots.

    q is the chance that one source attempt gives a useful shot (1 without
    a source), keep_rate the fraction of the useful shots drawn so far that
    post-selection kept, and projected the source attempts the missing
    events would still take at these rates (inf if none was kept).
    """

    def __init__(self, produced: int, shots: int, attempts: int, q: float, keep_rate: float):
        self.q, self.keep_rate = q, keep_rate
        missing = shots - produced
        self.projected = missing / (q * keep_rate) if keep_rate > 0.0 else math.inf
        super().__init__(
            f"collected {produced}/{shots} events after {attempts} source attempts; "
            f"{q:.3g} of attempts give a useful shot and {keep_rate:.3g} of useful shots "
            f"were kept, so the {missing} missing events need about {self.projected:.3g} "
            "more attempts")


def _check_source_input(input_occ) -> fock.ModeOccupation:
    """The input a source run must name: one photon in each of the first three modes."""
    input_occ = fock._check_occupation(input_occ)
    if len(input_occ) < 3 or input_occ[:3] != (1, 1, 1) or fock.total(input_occ) != 3:
        raise ValueError(f"the source heralds one photon in each of the first three modes, "
                         f"not the input {input_occ}")
    return input_occ


def _route(mode: np.ndarray, edges: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Bin of each photon in mode[i], by its uniform uniforms[i].

    A photon in mode j lands in bin b = the number of edges[j] at or below
    its uniform, so row j of edges holds increasing cumulative bin
    probabilities. Bins come in the narrowest unsigned dtype that holds
    them.
    """
    bins = np.zeros(mode.size, dtype=np.min_scalar_type(edges.shape[1]))
    for column in edges.T:
        bins += uniforms >= column.take(mode)
    return bins


def _photon_cells(patterns: np.ndarray) -> np.ndarray:
    """Cell (shot * m + mode) of every photon of patterns (k, m), in shot-then-mode order.

    Cells take the narrowest unsigned dtype that holds 3 * k * m, so the
    channel index 3 * cell + slot of _detect never wraps.
    """
    dtype = np.min_scalar_type(CHANNELS_PER_MODE * patterns.size)
    return np.repeat(np.arange(patterns.size, dtype=dtype), patterns.ravel())


def _detect(patterns: np.ndarray, det: DetectionModel, rng) -> np.ndarray:
    """The body of qpnr_detect, for non-negative integer patterns the caller has checked.

    One uniform per photon in shot-then-mode order routes it; each live
    photon sets channel 3 * cell + bin of the flat click buffer, one 1-D
    scatter for the whole array. Dark counts follow, one uniform per
    channel.
    """
    cell = _photon_cells(patterns)
    slot = _route(cell % det.modes, det._edges, rng.random(cell.size))
    fired = np.zeros(CHANNELS_PER_MODE * patterns.size, dtype=bool)
    fired[(CHANNELS_PER_MODE * cell + slot)[slot < CHANNELS_PER_MODE]] = True
    fired = fired.reshape(len(patterns), CHANNELS_PER_MODE * patterns.shape[1])
    if det.dark_count_prob > 0.0:
        fired |= rng.random(fired.shape) < det.dark_count_prob
    return fired


def qpnr_detect(patterns, det: DetectionModel, rng) -> np.ndarray:
    """Route the photons of each pattern through its modes' multiplexed channels.

    Photons route independently with the mode's channel weights, the
    remainder is loss; channels are threshold detectors, so multiple
    photons in one channel give one click. Dark counts then fire unlit
    channels independently. Returns fired, a (shots, 3m) boolean array
    whose column 3 * mode + slot is one channel.
    """
    rng = np.random.default_rng(rng)
    patterns = np.asarray(patterns, dtype=np.int64)
    if patterns.ndim != 2 or patterns.shape[1] != det.modes or np.any(patterns < 0):
        raise ValueError(f"patterns must be (shots, {det.modes}) non-negative counts")
    return _detect(patterns, det, rng)


def pattern_from_clicks(fired, m: int) -> np.ndarray:
    """Occupation estimate of each shot: one photon per fired channel of a mode."""
    fired = np.asarray(fired, dtype=bool)
    if fired.ndim != 2 or fired.shape[1] != CHANNELS_PER_MODE * m:
        raise ValueError(f"click array of shape {fired.shape} does not cover {m} modes")
    counts = np.add(fired[:, 0::CHANNELS_PER_MODE], fired[:, 1::CHANNELS_PER_MODE], dtype=np.int64)
    for slot in range(2, CHANNELS_PER_MODE):
        counts += fired[:, slot::CHANNELS_PER_MODE]
    return counts


def _click_totals(fired: np.ndarray) -> np.ndarray:
    """Click total of each shot of fired (shots, 3m), int64: its row sum, by column adds."""
    totals = np.zeros(len(fired), dtype=np.int64)
    for column in fired.T:
        totals += column
    return totals


def resolve_probability(det: DetectionModel, mode: int, k: int) -> float:
    """Probability that k photons in one mode produce exactly k clicks there."""
    if k < 0:
        raise ValueError(f"photon count must be >= 0, got {k}")
    if k > CHANNELS_PER_MODE:
        return 0.0
    wp, wq, wr = det.weights[mode]
    if k == 0:
        return 1.0
    if k == 1:
        return wp + wq + wr
    if k == 2:
        return 2.0 * (wp * wq + wq * wr + wr * wp)
    return 6.0 * wp * wq * wr


def correct_counts(fired, det: DetectionModel) -> fock.FockDistribution:
    """Multiplexing-corrected pattern distribution from post-selected click arrays.

    Every shot must carry the same click total n. Counts of each
    reconstructed pattern are divided by the product of per-mode
    resolution probabilities and renormalized; with no dark counts the
    n-click reconstruction equals the true pattern, so this estimator is
    consistent.
    """
    if not len(fired):
        raise ValueError("no records to correct")
    m = det.modes
    pats = pattern_from_clicks(fired, m)
    clicks = pats.sum(axis=1)
    n = int(clicks[0])
    if np.any(clicks != n):
        raise ValueError(f"click totals {sorted(set(clicks.tolist()))} differ; post-select first")
    counts = np.bincount(fock._rank(pats, n), minlength=math.comb(n + m - 1, n))
    seen = np.flatnonzero(counts)
    rows = fock._patterns(n, m)[seen]
    # per-mode resolve tables, multiplied in mode order like a product over the pattern
    resolve = np.ones(seen.size)
    for mode in range(m):
        table = np.array([resolve_probability(det, mode, k) for k in range(n + 1)])
        resolve *= table[rows[:, mode]]
    if np.any(resolve <= 0.0):
        occ = tuple(rows[np.argmax(resolve <= 0.0)].tolist())
        raise ValueError(f"pattern {occ} cannot be resolved by 3 channels per mode")
    weights = np.zeros(counts.size)
    weights[seen] = counts[seen] / resolve
    return fock.FockDistribution(n, m, weights / weights.sum())


def blinding_probability(pump_power: float, det: DetectionModel) -> float:
    """Survival factor of revival-pattern events at a given pump power (mW), clamped to [0, 1]."""
    if pump_power < 0:
        raise ValueError(f"pump power must be >= 0, got {pump_power}")
    return float(min(1.0, max(0.0, det.blinding_intercept + det.blinding_slope * pump_power)))


# ---------------------------------------------------------------------------
# Rectangular mesh programming


@record
class MeshParams:
    """Rectangular mesh: output phases followed by m(m-1)/2 two-mode crossings.

    Each crossing (c, theta, phi) couples modes (c, c + 1) with the block
    [[e^{i phi} cos t, -sin t], [e^{i phi} sin t, cos t]]; mesh_compose
    multiplies the crossings in stored order after the phase layer.
    """

    modes: int
    crossings: tuple[tuple[int, float, float], ...]
    phases: tuple[float, ...]


def _crossing(m: int, c: int, theta: float, phi: float) -> np.ndarray:
    t = np.eye(m, dtype=complex)
    ct, st, ph = math.cos(theta), math.sin(theta), np.exp(1j * phi)
    t[c, c] = ph * ct
    t[c, c + 1] = -st
    t[c + 1, c] = ph * st
    t[c + 1, c + 1] = ct
    return t


def _null_angles(num: complex, den: complex) -> tuple[float, float]:
    # theta in [0, pi/2], phi in [0, 2 pi) solving num * e^{-i phi} cos - den * sin = 0
    if abs(den) == 0.0:
        if abs(num) == 0.0:
            return 0.0, 0.0
        return 0.5 * math.pi, 0.0
    theta = math.atan2(abs(num), abs(den))
    phi = (np.angle(num) - np.angle(den)) % (2.0 * math.pi)
    return theta, phi


def mesh_decompose(u: np.ndarray) -> MeshParams:
    """Decompose a unitary into the rectangular crossing mesh.

    Nulls anti-diagonals of the lower triangle alternately from the
    right (input side) and the left (output side), then commutes the
    residual diagonal through the left factors so all crossings end up
    behind a single output phase layer. The identity maps to every
    crossing in the bar state and a balanced two-mode splitter to a
    single theta = pi/4 crossing.
    """
    u = np.asarray(u, dtype=complex)
    if not linalg.is_unitary(u):
        raise ValueError("mesh target is not unitary within tolerance")
    n = u.shape[0]
    v = u.copy()
    right: list[tuple[int, float, float]] = []
    left: list[tuple[int, float, float]] = []
    for i in range(1, n):
        if i % 2:
            for j in range(i):
                r, c = n - 1 - j, i - 1 - j
                theta, phi = _null_angles(v[r, c], v[r, c + 1])
                v = v @ _crossing(n, c, theta, phi).conj().T
                right.append((c, theta, phi))
        else:
            for j in range(1, i + 1):
                r, c = n + j - i - 1, j - 1
                theta, phi = _null_angles(-v[r, c], v[r - 1, c])
                v = _crossing(n, r - 1, theta, phi) @ v
                left.append((r - 1, theta, phi))
    diag = np.diagonal(v).copy()
    # push each left crossing through the diagonal: T† D = D' T with the same theta
    commuted: list[tuple[int, float, float]] = []
    for c, theta, phi in reversed(left):
        dm, dn = diag[c], diag[c + 1]
        phi_new = float(np.angle(-dm / dn) % (2.0 * math.pi))
        diag[c] = -np.exp(-1j * phi) * dn
        commuted.append((c, theta, phi_new))
    commuted.reverse()
    crossings = tuple(commuted) + tuple(reversed(right))
    phases = tuple(float(np.angle(d)) for d in diag)
    return MeshParams(modes=n, crossings=crossings, phases=phases)


def mesh_compose(params: MeshParams) -> np.ndarray:
    """Multiply the phase layer and crossings of a MeshParams back into a unitary."""
    u = np.diag(np.exp(1j * np.asarray(params.phases)))
    for c, theta, phi in params.crossings:
        u = u @ _crossing(params.modes, c, theta, phi)
    return u


def mesh_perturb(params: MeshParams, sd: float, seed) -> MeshParams:
    """Add independent Gaussian jitter of width sd to every coupling angle.

    Models static reflectivity error of the crossings; the phase shifters
    are interferometrically calibrated and stay exact. Perturbed angles
    may leave the canonical ranges, which mesh_compose does not require.
    """
    if sd < 0:
        raise ValueError(f"jitter width must be >= 0, got {sd}")
    if sd == 0.0:
        return params
    rng = np.random.default_rng(seed)
    noisy = tuple((c, theta + sd * rng.standard_normal(), phi)
                  for c, theta, phi in params.crossings)
    return MeshParams(params.modes, noisy, params.phases)


def programmed_unitary(u: np.ndarray, mesh_jitter: float, seed) -> np.ndarray:
    """Realized transfer matrix of one setting whose ideal unitary is u (m, m).

    The processor compiles a setting's whole circuit into a single mesh,
    so one jitter draw perturbs the whole setting.
    """
    rng = np.random.default_rng(seed)
    return mesh_compose(mesh_perturb(mesh_decompose(u), mesh_jitter, rng))


def jitter_for_fidelity(target: float, m: int) -> float:
    """Jitter width whose mean amplitude fidelity over Haar targets hits the target value.

    24 Haar targets of seed 0; 40 bisection steps on widths in [0, 1].
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target fidelity must lie in (0, 1), got {target}")
    meshes = [(linalg.haar_random(m, (0, k)), mesh_decompose(linalg.haar_random(m, (0, k))))
              for k in range(24)]

    def mean_fidelity(sd: float) -> float:
        rng = np.random.default_rng((0, 987, int(sd * 1e9)))
        return float(np.mean([
            linalg.amplitude_fidelity(u, mesh_compose(mesh_perturb(p, sd, rng)))
            for u, p in meshes]))

    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if mean_fidelity(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Full measurement chain


def _blind_corrupt(fired: np.ndarray, det: DetectionModel, rng) -> np.ndarray:
    # in each row a blinded detector eats one click while by-product light adds one elsewhere
    out = fired.copy()
    rows = np.arange(out.shape[0])
    drop = np.argmax(np.cumsum(out, axis=1) > rng.integers(out.sum(axis=1))[:, None], axis=1)
    out[rows, drop] = False
    mode = np.arange(out.shape[1]) // CHANNELS_PER_MODE
    free = ~out & (mode != (drop // CHANNELS_PER_MODE)[:, None])
    add = np.argmax(np.cumsum(free, axis=1) > rng.integers(free.sum(axis=1))[:, None], axis=1)
    out[rows, add] = True
    return out


INTERFERENCE_PHOTON_CAP = 8
# Useful shots a block asks for, over what the running keep rate says the missing events need
KEEP_MARGIN = 1.1


def _scatter(inputs: np.ndarray, u: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Output patterns of inputs (k, m) whose photons pass u independently (distinguishable law).

    One uniform per photon, in shot-then-mode order.
    """
    k, m = inputs.shape
    cell = _photon_cells(inputs)
    out = _route(cell % m, np.cumsum(np.abs(u.T) ** 2, axis=1)[:, :-1], uniforms)
    return np.bincount(cell // m * m + out, minlength=k * m).reshape(k, m)


def _pair_floor(j2: np.ndarray, n: int, floor: bool):
    # fewest crystal-1 pairs a useful shot with j2 crystal-2 pairs needs: 2 j1 + j2 >= n
    return np.maximum(0, (n - j2 + 1) // 2) if floor else 0


def _has_floor(det: DetectionModel | None) -> bool:
    """Whether a useful shot needs n photons: with no dark counts (None is the ideal detector),
    each photon fires at most one channel, so fewer than n photons never give n clicks."""
    return det is None or det.dark_count_prob == 0.0


def _first_j2(j1: int, n: int, floor: bool) -> int:
    # fewest crystal-2 pairs a useful shot with j1 crystal-1 pairs has: heralded, and with the
    # floor 2 j1 + j2 >= n
    return max(1, n - 2 * j1) if floor else 1


def _kept_law_entries(n: int, m: int, floor: bool) -> int:
    """Entries the stream may hold per setting between blocks: laws and live chain states.

    One law of C(2 j1 + j2 + m - 1, m - 1) entries per useful input at or
    below the cap, and one padded state of at most level cap - 1 per chain
    of _extend_chains that can stay below it.
    """
    cap = INTERFERENCE_PHOTON_CAP
    laws = sum(math.comb(k + m - 1, m - 1) for j1 in range(cap // 2 + 1)
               for k in range(2 * j1 + _first_j2(j1, n, floor), cap + 1))
    chains = sum(2 * j1 + _first_j2(j1, n, floor) < cap for j1 in range(cap // 2 + 1))
    return laws + chains * (math.comb(cap + m - 2, m - 1) + 1)


def _extend_chains(chains: dict, stack: np.ndarray, inputs, model: str, n: int, floor: bool,
                   known) -> dict:
    """Cumulative laws (S, size) of new by-product inputs under a string model, along kept chains.

    chains maps j1 to its chain over the stack of settings: the unscaled
    padded engine state of (j1, j1, j2, 0, ...) and that j2, with no state
    once it reaches INTERFERENCE_PHOTON_CAP. A new chain starts from the
    padded vacuum with j1 photons in mode 0, then j1 in mode 1. Each chain
    of the inputs takes fock._create steps in mode 2 up to the largest j2
    they need, reading on the way every useful input not in known, bit for
    bit the law fock._laws gives it. The caller has checked the stack and
    the model.
    """
    m = stack.shape[-1]
    bosonic = model == fock.MODEL_INDISTINGUISHABLE
    coupling = stack if bosonic else np.abs(stack) ** 2
    tops: dict = {}
    for j1, _, j2 in (occ[:3] for occ in inputs):
        tops[j1] = max(j2, tops.get(j1, 0))
    fock._levels(max(2 * j1 + j2 for j1, j2 in tops.items()), m)   # one build, every level
    tail = (0,) * (m - 3)
    out = {}
    for j1, top in tops.items():
        if j1 in chains:
            padded, j2 = chains[j1]
        else:
            padded, j2 = np.eye(1, 2, dtype=coupling.dtype).repeat(len(coupling), axis=0), 0
            for k, j in enumerate((0,) * j1 + (1,) * j1, start=1):
                padded = fock._create(padded, k, coupling[:, :, j], bosonic)
        while j2 < top:
            j2 += 1
            padded = fock._create(padded, 2 * j1 + j2, coupling[:, :, 2], bosonic)
            occ = (j1, j1, j2) + tail
            if j2 >= _first_j2(j1, n, floor) and occ not in known:
                state = padded[:, :-1]
                if bosonic:
                    state = np.abs(state / math.sqrt(math.factorial(j1) ** 2
                                                     * math.factorial(j2))) ** 2
                out[occ] = np.cumsum(fock._normalized(state), axis=-1)
        chains[j1] = (padded if 2 * j1 + j2 < INTERFERENCE_PHOTON_CAP else None, j2)
    return out


@lru_cache(maxsize=16)
def _useful_weights(src: SourceModel, n: int, floor: bool) -> np.ndarray:
    """Chance per source attempt of a useful shot, split by j2; q is their sum.

    A useful shot is heralded and, when floor is set (no dark counts),
    carries 2 j1 + j2 >= n photons. Each crystal emits j pairs with
    probability (1 - r) r^j, r = lambda^2, and the herald fires with
    probability 1 - (1 - eta)^j2. Entry j < n is the useful mass at
    j2 = j, where crystal 1 must emit at least a(j) pairs, r^a(j). The
    tail j2 >= n needs no floor; its mass r^n - (1 - r) s^n / (1 - s),
    s = r (1 - eta), splits by the first idler photon the herald sees:
    one of the first n (entry n, r^n - s^n) or a later one (entry n + 1,
    eta r s^n / (1 - s)). Raises ValueError if q is 0. Cached read-only
    by source, so a stream computes it once.
    """
    r = src.squeezing**2
    miss = 1.0 - src.heralding_efficiency
    s = r * miss
    j = np.arange(n)
    fixed = (1.0 - r) * r**j * (1.0 - miss**j) * r**_pair_floor(j, n, floor)
    weights = np.append(fixed, [r**n * (1.0 - miss**n), (1.0 - miss) * r * s**n / (1.0 - s)])
    if not weights.sum() > 0.0:
        raise ValueError(f"a source with squeezing {src.squeezing} and heralding efficiency "
                         f"{src.heralding_efficiency} never heralds a shot that can give "
                         f"{n} clicks")
    weights.flags.writeable = False
    return weights


def _useful_shots(src: SourceModel, n: int, floor: bool, want: int, budget: int,
                  rng) -> tuple[int, np.ndarray, np.ndarray]:
    """Source attempts spent and pair counts (j1, j2) of the useful shots among them.

    Spends min(budget, ceil(want / q)) attempts, of which Binomial(spent, q)
    are useful (see _useful_weights). Their j2 comes from its law given
    usefulness: a fixed value below n, or in the tail n + Geometric(r),
    plus 1 + Geometric(s) when the herald saw a photon after the n-th.
    j1 = a(j2) + Geometric(r) is exact because the geometric law is
    memoryless. The j2 entry is the draw rng.choice(p=weights / q) makes,
    from the same cumulative law and uniforms, without its checks of p.
    """
    weights = _useful_weights(src, n, floor)
    q = float(weights.sum())
    r = src.squeezing**2
    s = r * (1.0 - src.heralding_efficiency)
    spent = math.ceil(min(budget, want / q))
    count = int(rng.binomial(spent, q))
    cdf = np.cumsum(weights / q)
    cdf /= cdf[-1]
    j2 = cdf.searchsorted(rng.random(count), "right")
    tail, late = j2 >= n, j2 > n
    j2[tail] = n + rng.geometric(1.0 - r, int(tail.sum())) - 1
    j2[late] += rng.geometric(1.0 - s, int(late.sum()))
    j1 = rng.geometric(1.0 - r, count) - 1 + _pair_floor(j2, n, floor)
    return spent, j1, j2


def _group_rows(j1: np.ndarray, j2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shots sorted by (j1, j2), and the bounds of each distinct (j1, j2) in that order.

    Group g is order[bounds[g]:bounds[g + 1]], groups in ascending (j1, j2)
    order and shots in order within each. The source input (j1, j1, j2, 0,
    ...) sorts as (j1, j2), so these are the groups and order of np.unique
    over the input rows, from one stable argsort of a 1-D key.
    """
    key = j1 * (int(j2.max(initial=0)) + 1) + j2
    # a stable sort has one result; on keys of 16 bits or fewer numpy's is a radix sort
    order = np.argsort(key.astype(np.min_scalar_type(int(key.max(initial=0)))), kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    return order, np.append(starts, order.size)


def simulate_setting(stack: np.ndarray, model, src: SourceModel | None,
                     det: DetectionModel | None, shots: int, rngs, target,
                     max_attempts: int | None = None) -> np.ndarray:
    """Post-selected reconstructed patterns (S, shots, m) of a stack of settings (S, m, m).

    rngs holds one generator per setting. Row s draws only from generator
    s, and equals the stream of a stack of setting s alone: the law of
    each source input is built once for the whole stack, the target's by
    fock._laws and a by-product's along its chain (see the module
    docstring), and kept as its cumulative sum.

    Post-selection keeps heralded shots with exactly n clicks, n the
    target photon number, so the events come in np.min_scalar_type(n). A
    source requires the target it heralds, one photon in each of the
    first three modes. model is the target's law; every other input takes
    model if it is a name, else the indistinguishable law. Without a
    source the target pattern itself is injected every shot; without a
    detection model an ideal balanced multiplexer stands in. The target
    draws from its law whatever its size; by-product inputs brighter than
    INTERFERENCE_PHOTON_CAP route their photons independently (see the
    module docstring). Raises ValueError before any draw if the stack is
    not unitary, the model does not fit the target, or the source never
    gives a shot that can pass, and AcceptanceError once a setting has
    spent max_attempts source attempts.
    """
    stack = np.asarray(stack, dtype=complex)
    rngs = list(rngs)
    if stack.ndim != 3 or len(rngs) != len(stack):
        raise ValueError(f"expected a stack (S, m, m) with one generator per setting, got "
                         f"shape {stack.shape} and {len(rngs)} generators")
    m = stack.shape[-1]
    target = fock._check_occupation(target, m, "target pattern")
    if src is not None:
        _check_source_input(target)
    n = fock.total(target)
    det_eff = det if det is not None else DetectionModel.ideal(m)
    survival = blinding_probability(src.pump_power, det_eff) if src is not None else 1.0
    if max_attempts is None:
        max_attempts = max(10_000_000, 20_000 * shots)
    floor = _has_floor(det)
    q = 1.0 if src is None else float(_useful_weights(src, n, floor).sum())
    target_rank = int(fock._rank(np.array([target]), n)[0])

    # cumulative laws (S, size) of each input, for every setting of the stack; a species model
    # describes the target only, and every by-product, with no calibrated species structure,
    # takes the indistinguishable law
    cdfs = {target: np.cumsum(fock._laws(stack, target, model), axis=-1)}
    plain = model if isinstance(model, str) else fock.MODEL_INDISTINGUISHABLE
    chains: dict = {}   # by-product chains by j1, for _extend_chains

    out = np.empty((len(stack), shots, m), dtype=np.min_scalar_type(n))
    batch = 8192
    tail = (0,) * (m - 3)
    for setting, (u, rng) in enumerate(zip(stack, rngs)):
        produced = drawn = attempts = 0
        while produced < shots:
            missing = shots - produced
            if attempts >= max_attempts:
                raise AcceptanceError(produced, shots, attempts, q,
                                      produced / drawn if drawn else 0.0)
            # source shots that can pass post-selection, grouped by input in ascending (j1, j2);
            # once shots are drawn, ask for what the running keep rate needs, plus a margin
            if not drawn:
                want = min(batch, missing)
            elif not produced:
                want = batch
            else:
                want = min(batch, math.ceil(KEEP_MARGIN * missing * drawn / produced))
            if src is None:
                count = want
                attempts += count
                order, bounds, inputs = np.arange(count), np.array([0, count]), [target]
            else:
                spent, j1, j2 = _useful_shots(src, n, floor, want, max_attempts - attempts, rng)
                attempts += spent
                count = j1.size
                order, bounds = _group_rows(j1, j2)
                inputs = [(a,) * 2 + (b,) + tail
                          for a, b in zip(j1[order[bounds[:-1]]].tolist(),
                                          j2[order[bounds[:-1]]].tolist())]
            drawn += count
            # the laws of the by-products met for the first time, along their chains
            chained = [occ for occ in inputs
                       if occ not in cdfs and fock.total(occ) <= INTERFERENCE_PHOTON_CAP]
            if chained:
                cdfs.update(_extend_chains(chains, stack, chained, plain, n, floor, cdfs.keys()))
            # one true output pattern per shot: one uniform per shot of a law, one per photon of
            # a by-product that routes independently, all in one draw taken in group order; a
            # shot hits the target when its input has n photons and it draws the target's index
            per_shot = [1 if occ in cdfs else fock.total(occ) for occ in inputs]
            offsets = np.concatenate(([0], np.cumsum(np.diff(bounds) * per_shot)))
            uniforms = rng.random(int(offsets[-1]))
            true = np.empty((count, m), np.min_scalar_type(max([n, *map(fock.total, inputs)])))
            hit = np.zeros(count, dtype=bool)
            for occ, lo, hi, at in zip(inputs, bounds, bounds[1:], offsets):
                rows, k = order[lo:hi], fock.total(occ)
                if occ in cdfs:
                    idx = fock._pick(cdfs[occ][setting], uniforms[at:at + rows.size])
                    true[rows] = fock._patterns(k, m).take(idx, axis=0)
                    if k == n:
                        hit[rows] = idx == target_rank
                else:
                    true[rows] = _scatter(np.tile(occ, (rows.size, 1)), u,
                                          uniforms[at:at + rows.size * k])
            fired = _detect(true, det_eff, rng)
            keep = _click_totals(fired) == n
            fired = fired.compress(keep, axis=0)
            # blinding keeps the click total, so blinding only kept shots leaves the law unchanged
            if survival < 1.0:
                hit = np.flatnonzero(hit[keep])
                hit = hit[rng.random(hit.size) > survival]
                fired[hit] = _blind_corrupt(fired[hit], det_eff, rng)
            events = pattern_from_clicks(fired[:missing], m)
            out[setting, produced:produced + len(events)] = events
            produced += len(events)
    return out


def distinguishability_mixture(src: SourceModel, input_occ=(1, 1, 1, 0)) -> fock.Mixture:
    """Species mixture for the three-photon input implied by the pairwise visibilities.

    A deliberately coarse map, the weights are free parameters at heart:
    the cross-crystal photon stays coherent with the crystal-1 pair with
    weight v_cross (mean of the two cross visibilities), the crystal-1
    pair itself splits with weight v_same, and residual weight goes to
    fully distinguishable photons.
    """
    input_occ = _check_source_input(input_occ)
    m = len(input_occ)
    v_same = src.visibility(0, 1)
    v_cross = 0.5 * (src.visibility(0, 2) + src.visibility(1, 2))
    tail = (0,) * (m - 3)
    all_three = (1, 1, 1) + tail
    pair = (1, 1, 0) + tail
    third = (0, 0, 1) + tail
    singles = tuple(tuple(1 if j == k else 0 for j in range(m)) for k in range(3))
    components = []
    if v_same * v_cross > 0:
        components.append((v_same * v_cross, (all_three,)))
    if v_same * (1.0 - v_cross) > 0:
        components.append((v_same * (1.0 - v_cross), (pair, third)))
    if 1.0 - v_same > 0:
        components.append((1.0 - v_same, singles))
    return fock.Mixture(tuple(components))
