"""Shared brute-force oracles, kept independent of the package's fast code paths."""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from photherm.selftest import naive_permanent, oracle_prob_species  # noqa: F401


def seed_enumerate_basis(n: int, m: int) -> tuple:
    """All patterns of n photons in m modes, colex order, by recursive tuple concatenation."""
    if n < 0 or m < 1:
        raise ValueError(f"need n >= 0 photons and m >= 1 modes, got n={n}, m={m}")
    if m == 1:
        return ((n,),)
    return tuple(head + (k,) for k in range(n + 1) for head in seed_enumerate_basis(n - k, m - 1))


def seed_creation_map(k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather map from level k - 1 to level k, one mode at a time, ranked by basis lookup.

    src[i, t] is the index of t - e_i at level k - 1, or the size of that
    level where t_i = 0; counts[i, t] is t_i.
    """
    pats = np.array(seed_enumerate_basis(k, m), dtype=np.min_scalar_type(k)).reshape(-1, m)
    lower_index = {occ: i for i, occ in enumerate(seed_enumerate_basis(k - 1, m))}
    counts = np.ascontiguousarray(pats.T)
    src = np.full(counts.shape, len(lower_index), dtype=np.int32)
    for i in range(m):
        for t in np.flatnonzero(counts[i]):
            lower = pats[t].tolist()
            lower[i] -= 1
            src[i, t] = lower_index[tuple(lower)]
    return src, counts


def set_partitions(items: tuple[int, ...]):
    """Every partition of items into non-empty blocks, each a list of lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def seed_lambda_coefficients(n: int, m: int) -> dict:
    """Class weights by the per-pattern exit-table product loop: sizes -> placement weights."""
    from photherm import certify, fock, linalg

    def exit_table(u, input_occ, bunched_only):
        size = sum(input_occ)
        outs = []
        for s in fock.enumerate_basis(size, m):
            if bunched_only and max(s) != size:
                continue
            p = fock.prob_indistinguishable(u, input_occ, s)
            if p > 1e-300:
                outs.append((s, p))
        return outs

    u = linalg.fourier(n, m)
    forb = set(certify.forbidden_patterns(n, m).patterns)
    classes: dict = {}
    for blocks in set_partitions(tuple(range(n))):
        if len(blocks) < 2:
            continue
        tables = []
        for block in blocks:
            occ = [0] * m
            for mode in block:
                occ[mode] = 1
            tables.append(exit_table(u, tuple(occ), len(block) >= 2))
        weight = 0.0
        for combo in itertools.product(*tables):
            s = combo[0][0]
            p = combo[0][1]
            for t, q in combo[1:]:
                s = tuple(a + b for a, b in zip(s, t))
                p *= q
            if s in forb:
                weight += p
        sizes = tuple(sorted((len(b) for b in blocks), reverse=True))
        classes.setdefault(sizes, []).append(weight)
    return classes


def seed_qpnr_detect(pattern, det, rng) -> set:
    """Fired channel ids of one shot by the per-photon loop: routing first, then dark counts."""
    fired = set()
    u = rng.random(sum(pattern)) if sum(pattern) else ()
    i = 0
    for mode, count in enumerate(pattern):
        wp, wq, wr = det.weights[mode]
        c1, c2, c3 = wp, wp + wq, wp + wq + wr
        for _ in range(count):
            x = u[i]
            i += 1
            if x < c1:
                fired.add(3 * mode)
            elif x < c2:
                fired.add(3 * mode + 1)
            elif x < c3:
                fired.add(3 * mode + 2)
    if det.dark_count_prob > 0.0:
        dark = rng.random(3 * len(det.weights)) < det.dark_count_prob
        fired.update(int(c) for c in np.nonzero(dark)[0])
    return fired


def seed_estimate_p1(samples, target) -> tuple[float, int]:
    """Revival fraction by the per-shot tuple comparison loop."""
    target = tuple(int(x) for x in target)
    k = len(samples)
    if k == 0:
        raise ValueError("no samples")
    hits = sum(1 for s in samples if tuple(s) == target)
    return hits / k, k


def seed_estimate_p2(samples, fs) -> tuple[float, int]:
    """Forbidden fraction by the per-shot set-membership loop."""
    k = len(samples)
    if k == 0:
        raise ValueError("no samples")
    forb = set(fs.patterns)
    hits = sum(1 for s in samples if tuple(s) in forb)
    return hits / k, k


def seed_pair_counts(src: SourceModel, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Pair numbers (j1, j2) of count source attempts: the geometric law of each crystal."""
    p = 1.0 - src.squeezing**2
    return rng.geometric(p, size=count) - 1, rng.geometric(p, size=count) - 1


def seed_heralded_pairs(src: SourceModel, attempts: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Pair numbers of the heralded shots among attempts, drawn attempt by attempt."""
    j1, j2 = seed_pair_counts(src, attempts, rng)
    p_herald = 1.0 - (1.0 - src.heralding_efficiency) ** j2
    heralded = rng.random(attempts) < p_herald
    return j1[heralded], j2[heralded]


def seed_event_stream(total_u: np.ndarray, model, src: SourceModel | None,
                      det: DetectionModel | None, shots: int, rng, target,
                      max_attempts: int | None = None) -> np.ndarray:
    """Event stream that samples, detects and groups every heralded shot.

    The body of apparatus.simulate_setting before it skipped shots that
    cannot give n clicks, before it grouped shots on a 1-D key and before
    it drew only useful source shots instead of every attempt. Without a
    source it sizes its blocks as the stream does, by the running keep
    rate, so the two make the same draws.
    Reconstructed patterns (shots, m) of post-selected events, in the
    order they occur.

    Post-selection keeps heralded shots with exactly n clicks, n the
    target photon number. A source requires the target it heralds, one
    photon in each of the first three modes. Without a source the target
    pattern itself is injected every shot; without a detection model an
    ideal balanced multiplexer stands in. By-product inputs brighter than
    INTERFERENCE_PHOTON_CAP route their photons independently (see the
    module docstring).
    """
    from photherm import fock
    from photherm.apparatus import (INTERFERENCE_PHOTON_CAP, DetectionModel, _blind_corrupt,
                                    _check_source_input, _scatter,
                                    blinding_probability, pattern_from_clicks, qpnr_detect)
    m = total_u.shape[0]
    target = fock._check_occupation(target, m, "target pattern")
    if src is not None:
        _check_source_input(target)
    n = fock.total(target)
    det_eff = det if det is not None else DetectionModel.ideal(m)
    blinding_active = src is not None and det is not None
    survival = blinding_probability(src.pump_power, det_eff) if blinding_active else 1.0
    if max_attempts is None:
        max_attempts = max(10_000_000, 20_000 * shots)

    laws: dict = {}

    def law(occ):
        if occ not in laws:
            use_model = model
            if not isinstance(model, str):
                mix = model if isinstance(model, fock.Mixture) else fock.Mixture(((1.0, tuple(model)),))
                implied = fock.partition_input(mix.components[0][1])
                # by-products carry no calibrated species structure
                use_model = mix if implied == occ else fock.MODEL_INDISTINGUISHABLE
            laws[occ] = fock.output_distribution(total_u, occ, use_model)
        return laws[occ]

    kept = []
    produced = drawn = attempts = 0
    batch = 8192
    while produced < shots:
        if attempts >= max_attempts:
            raise RuntimeError(
                f"collected {produced}/{shots} events after {attempts} source attempts; "
                "acceptance rate too low")
        # source shots; only heralded ones that carry photons go on
        if src is None:
            # the missing events at first, then what the running keep rate says they need
            missing = shots - produced
            if not drawn:
                want = min(batch, missing)
            elif not produced:
                want = batch
            else:
                want = min(batch, math.ceil(1.1 * missing * drawn / produced))
            inputs = np.tile(target, (want, 1))
            attempts += len(inputs)
        else:
            j1, j2 = seed_heralded_pairs(src, batch, rng)
            attempts += batch
            inputs = np.zeros((j1.size, m), dtype=np.int64)
            inputs[:, 0] = inputs[:, 1] = j1
            inputs[:, 2] = j2
        inputs = inputs[inputs.any(axis=1)]
        drawn += len(inputs)
        # one true output pattern per shot, drawn from the cached law of its input
        true = np.empty_like(inputs)
        distinct, which = np.unique(inputs, axis=0, return_inverse=True)
        for i, occ in enumerate(distinct):
            rows = np.flatnonzero(which.ravel() == i)
            if occ.sum() > INTERFERENCE_PHOTON_CAP:
                true[rows] = _scatter(inputs[rows], total_u, rng.random(int(inputs[rows].sum())))
            else:
                true[rows] = fock.sample(law(tuple(occ.tolist())), rows.size, rng)
        fired = qpnr_detect(true, det_eff, rng)
        keep = fired.sum(axis=1) == n
        fired, true = fired[keep], true[keep]
        # blinding keeps the click total, so blinding only kept shots leaves the law unchanged
        if survival < 1.0:
            hit = np.flatnonzero((true == target).all(axis=1))
            hit = hit[rng.random(hit.size) > survival]
            fired[hit] = _blind_corrupt(fired[hit], det_eff, rng)
        kept.append(pattern_from_clicks(fired, m))
        produced += len(fired)
    return np.concatenate(kept)[:shots]


def _channel_sets(channels: int):
    """Every subset of range(channels) as a tuple, with its size."""
    return [(g, len(g)) for size in range(channels + 1)
            for g in itertools.combinations(range(channels), size)]


def exact_kept_law(u: np.ndarray, model, src: SourceModel | None, det: DetectionModel | None,
                   target, cap: int) -> np.ndarray:
    """Law of the event stream's kept, reconstructed patterns over seed_enumerate_basis(n, m).

    Written from the hardware model, not from the stream's code. Source
    shots carry pairs (j1, j2) with weight (1 - r)^2 r^(j1 + j2) times the
    herald chance 1 - (1 - eta)^j2, r = lambda^2, j2 >= 1, and inject
    (j1, j1, j2, 0, ...); without a source the target is injected. An
    input of at most cap photons takes fock._laws (the species model only
    on its own input, the indistinguishable law on every other when the
    model is a species model). Given an output pattern, modes detect
    independently: P(c of the 3 channels of a mode fire | s photons) is an
    inclusion-exclusion over the fired channel set F and its subsets G,
    sum (-1)^(|F| - |G|) (1 - d)^(3 - |G|) (w_G + loss)^s. Above the cap
    each photon routes independently through |U|^2; over all 3m channels,
    P(fired = F) = sum_G (-1)^(n - |G|) (1 - d)^(3m - |G|) prod_i a_i(G)^(j_i),
    with a_i(G) the chance that a photon from source mode i lands in G or
    is lost, and the pair sum is a geometric series in closed form minus
    its terms at or below the cap. Post-selection keeps n clicks. With a
    source and a detection model, the kept mass whose true pattern is the
    target is blinded with chance 1 - survival: a click leaves mode d with
    chance c_d / n and one joins mode k != d with chance proportional to
    3 - c_k.
    """
    from photherm import fock

    m = u.shape[0]
    target = tuple(target)
    n = sum(target)
    weights = np.full((m, 3), 1.0 / 3.0) if det is None else np.array(det.weights)
    dark = 0.0 if det is None else det.dark_count_prob
    loss = 1.0 - weights.sum(axis=1)
    basis = seed_enumerate_basis(n, m)
    index = {occ: i for i, occ in enumerate(basis)}
    clicks = np.array(basis)

    tables = np.zeros((m, cap + 1, 4))   # tables[mode, s, c] = P(c clicks | s photons)
    s = np.arange(cap + 1)
    for mode in range(m):
        for fired, size in _channel_sets(3):
            for g, g_size in _channel_sets(size):
                into = weights[mode, [fired[i] for i in g]].sum() + loss[mode]
                sign = (-1) ** (size - g_size)
                tables[mode, :, size] += sign * (1 - dark) ** (3 - g_size) * into**s

    def detected(outs):   # P(click pattern | output pattern), (len(outs), len(basis))
        given = np.ones((len(outs), len(basis)))
        for mode in range(m):
            given *= tables[mode][np.asarray(outs)[:, mode]][:, clicks[:, mode]]
        return given

    def kept_mass(occ, probs):
        return probs @ detected(seed_enumerate_basis(sum(occ), m))

    def model_of(occ):
        if isinstance(model, str):
            return model
        mix = model if isinstance(model, fock.Mixture) else fock.Mixture(((1.0, tuple(model)),))
        own = fock.partition_input(mix.components[0][1])
        return mix if occ == own else fock.MODEL_INDISTINGUISHABLE

    if src is None:
        mass = kept_mass(target, fock._laws(u, target, model_of(target)))
        return mass / mass.sum()

    r, eta = src.squeezing**2, src.heralding_efficiency

    def pair(j1, j2):   # chance per source attempt of (j1, j2) pairs and a herald
        return (1 - r) ** 2 * r ** (j1 + j2) * (1 - (1 - eta) ** j2)

    below = [(j1, j2) for j1 in range(cap // 2 + 1) for j2 in range(1, cap + 1 - 2 * j1)]
    mass, hit = np.zeros(len(basis)), np.zeros(len(basis))
    for j1, j2 in below:
        occ = (j1, j1, j2) + (0,) * (m - 3)
        law = fock._laws(u, occ, model_of(occ))
        mass += pair(j1, j2) * kept_mass(occ, law)
        if sum(occ) == n:   # the kept mass whose true pattern is the target
            hit += pair(j1, j2) * law[index[target]] * detected([target])[0]

    # above the cap: fired sets F of n of the 3m channels, channel 3 * mode + slot
    route = np.abs(u[:, :3]) ** 2   # route[o, i]: a photon from source mode i leaves at o
    chance = (route[:, None, :] * weights[:, :, None]).reshape(3 * m, 3)
    lost = (route * loss[:, None]).sum(axis=0)
    spill = r * (1 - eta)
    for fired in itertools.combinations(range(3 * m), n):
        p = 0.0
        for g, g_size in _channel_sets(n):
            a = chance[[fired[i] for i in g]].sum(axis=0) + lost
            x, y = a[0] * a[1], a[2]
            total = (1 - r) ** 2 / (1 - r * x) * (r * y / (1 - r * y) - spill * y / (1 - spill * y))
            total -= sum(pair(j1, j2) * x**j1 * y**j2 for j1, j2 in below)
            p += (-1) ** (n - g_size) * (1 - dark) ** (3 * m - g_size) * total
        mass[index[tuple(np.bincount(np.array(fired) // 3, minlength=m).tolist())]] += p

    if det is not None:
        survival = min(1.0, max(0.0, det.blinding_intercept + det.blinding_slope * src.pump_power))
        blinded = hit * (1 - survival)
        mass -= blinded
        for i, c in enumerate(basis):
            for d in range(m):
                if not c[d]:
                    continue
                left = list(c)
                left[d] -= 1
                free = {k: 3 - left[k] for k in range(m) if k != d}
                for k, room in free.items():
                    moved = list(left)
                    moved[k] += 1
                    mass[index[tuple(moved)]] += (blinded[i] * c[d] / n * room
                                                  / sum(free.values()))
    return mass / mass.sum()


def seed_prob_of(dist, occ) -> float:
    """Probability of one pattern by its index in the tuple basis; 0.0 when it is absent."""
    try:
        return float(dist.probs[dist.basis.index(tuple(int(x) for x in occ))])
    except ValueError:
        return 0.0


def seed_marginal(dist, mode: int) -> np.ndarray:
    """Photon-number marginal of one mode by the per-pattern accumulation loop."""
    probs = np.zeros(dist.n + 1)
    for occ, p in zip(dist.basis, dist.probs):
        probs[occ[mode]] += p
    return probs


def seed_correct_counts(fired, det) -> np.ndarray:
    """Multiplexing-corrected law, one shot, mode and channel at a time.

    A shot's pattern counts the fired channels of each mode; patterns are
    indexed through a dict over seed_enumerate_basis. Each count is divided
    by the chance that every mode resolves its photons, a product in mode
    order of the closed forms for 0 to 3 photons in three channels.
    """
    m = det.modes
    shots = [tuple(sum(shot[3 * mode:3 * mode + 3]) for mode in range(m))
             for shot in np.asarray(fired, dtype=int).tolist()]
    basis = seed_enumerate_basis(sum(shots[0]), m)
    index = {occ: i for i, occ in enumerate(basis)}
    counts = [0] * len(basis)
    for occ in shots:
        counts[index[occ]] += 1
    weights = np.zeros(len(basis))
    for i, occ in enumerate(basis):
        if not counts[i]:
            continue
        resolve = 1.0
        for (wp, wq, wr), k in zip(det.weights, occ):
            resolve *= (1.0, wp + wq + wr, 2.0 * (wp * wq + wq * wr + wr * wp), 6.0 * wp * wq * wr)[k]
        if resolve <= 0.0:
            raise ValueError(f"pattern {occ} cannot be resolved by 3 channels per mode")
        weights[i] = counts[i] / resolve
    return weights / weights.sum()


def seed_bunched_mask(size: int, m: int) -> np.ndarray:
    """Patterns of size photons on m modes that hold all of them in one mode, one tuple at a time."""
    from photherm import fock
    return np.fromiter((max(s) == size for s in fock.enumerate_basis(size, m)), dtype=bool)


def seed_forbidden_patterns(n: int, m: int, period: int) -> tuple:
    """Forbidden patterns by the per-pattern rule over the recursive tuple basis.

    A pattern with photons on the first n modes only is forbidden iff
    period * (sum of its 1-based photon modes) is nonzero mod n.
    """
    out = []
    for occ in seed_enumerate_basis(n, m):
        if any(occ[n:]):
            continue
        if period * sum((j + 1) * c for j, c in enumerate(occ)) % n:
            out.append(occ)
    return tuple(out)


def seed_witness_threshold(u, input_occ, split: int) -> float:
    """Largest squared Schmidt coefficient by one SVD of the dict-indexed Schmidt matrix."""
    from photherm import fock
    m = u.shape[0]
    n = sum(input_occ)
    psi = fock.state_vector(u, input_occ)
    rows = [occ for k in range(n + 1) for occ in fock.enumerate_basis(k, split)]
    cols = [occ for k in range(n + 1) for occ in fock.enumerate_basis(k, m - split)]
    ri = {occ: i for i, occ in enumerate(rows)}
    ci = {occ: i for i, occ in enumerate(cols)}
    t = np.zeros((len(rows), len(cols)), dtype=complex)
    for occ, amp in zip(fock.enumerate_basis(n, m), psi):
        t[ri[occ[:split]], ci[occ[split:]]] = amp
    return float(np.linalg.svd(t, compute_uv=False)[0] ** 2)


def seed_blockwise_witness(u, input_occ, split: int) -> float:
    """Largest squared Schmidt coefficient of one state vector, one SVD per photon-number block."""
    from photherm import fock
    m = u.shape[0]
    n = sum(input_occ)
    psi = fock.state_vector(u, input_occ)
    pats = fock._patterns(n, m)
    k = pats[:, :split].sum(axis=1)
    top = 0.0
    for j in range(n + 1):
        sel = k == j
        block = np.zeros((math.comb(j + split - 1, j), math.comb(n - j + m - split - 1, n - j)),
                         dtype=complex)
        block[fock._rank(pats[sel, :split], j), fock._rank(pats[sel, split:], n - j)] = psi[sel]
        top = max(top, np.linalg.svd(block, compute_uv=False)[0])
    return float(top ** 2)


def seed_certify(spec, t: float, model, shots: int, seed, eps1: float, eps2: float, app=None,
                 split: int = 1, input_occ=None):
    """One time step end to end: the body of certify.certify before it ran its steps as stacks.

    One evolution per step; without an apparatus one single-matrix law per
    setting, with one a two-setting event stream; the witness from one
    state vector.
    """
    from photherm import certify, fock, hamiltonian, linalg
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    m = spec.modes
    if input_occ is None:
        input_occ = (1,) * (m - 1) + (0,)
    input_occ = fock._check_occupation(input_occ, m, "input pattern")
    n = fock.total(input_occ)
    per = max(1, shots // certify.CONVERGENCE_BATCHES)
    cuts = np.array([b * per for b in range(1, certify.CONVERGENCE_BATCHES + 1) if b * per < shots]
                    + [shots], dtype=np.int64)
    u = hamiltonian.evolution(spec, t)
    back = u.conj().T
    settings = (back @ u, (linalg.fourier(n, m) @ back) @ u)
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, idx))) for idx in range(2)]
    if app is None or app.is_trivial():
        sizes = np.diff(cuts, prepend=0)
        revival = fock._rank(np.array([input_occ]), n)[0]
        hits = []
        for idx, (setting, rng) in enumerate(zip(settings, rngs)):
            probs = fock.output_distribution(setting, input_occ, model).probs
            p = probs[revival] if idx == 0 else probs[certify._forbidden_mask(n, m)].sum()
            hits.append(np.cumsum(rng.binomial(sizes, min(max(p, 0.0), 1.0))))
    else:
        from photherm import apparatus
        realized = np.array([apparatus.programmed_unitary(setting, app.mesh_jitter, rng)
                             for setting, rng in zip(settings, rngs)])
        samples1, samples2 = apparatus.simulate_setting(realized, model, app.source, app.detection,
                                                        shots, rngs, target=input_occ)
        hits = [np.cumsum(certify.revival_hits(samples1, input_occ))[cuts - 1],
                np.cumsum(certify.forbidden_hits(samples2, certify.forbidden_patterns(n, m)))
                [cuts - 1]]
    lambdas = certify.lambda_coefficients(n, m)
    thresh = seed_blockwise_witness(u, input_occ, split)
    trace = []
    for cut, h1, h2 in zip(cuts.tolist(), hits[0].tolist(), hits[1].tolist()):
        p1, p2 = h1 / cut, h2 / cut
        result = certify.fidelity_bound(p1, cut, p2, cut, lambdas, eps1, eps2, witness=thresh)
        trace.append((cut, p1, p2, result.f_lower))
    return result.replace(convergence=tuple(trace))


def m_mode_lambda_coefficients(n: int, m: int) -> tuple:
    """Class weights computed on all m modes: convolved exit laws through fourier(n, m).

    Same output form as certify.lambda_coefficients, which gives them in
    closed form.
    """
    from photherm import certify, fock, linalg
    u = linalg.fourier(n, m)
    forbidden = certify._forbidden_mask(n, m)
    exit_laws: dict = {}

    def exit_law(block):
        if block not in exit_laws:
            size = len(block)
            occ = tuple(int(j in block) for j in range(m))
            law = np.abs(fock._transfer(u, occ, bosonic=True)) ** 2
            if size >= 2:
                law *= seed_bunched_mask(size, m)
            exit_laws[block] = law
        return exit_laws[block]

    classes: dict = {}
    for blocks in set_partitions(tuple(range(n))):
        if len(blocks) < 2:
            continue
        law, size = exit_law(tuple(blocks[0])), len(blocks[0])
        for block in blocks[1:]:
            law = fock._convolve(law, size, exit_law(tuple(block)), len(block), m)
            size += len(block)
        sizes = tuple(sorted((len(b) for b in blocks), reverse=True))
        classes.setdefault(sizes, []).append(float(law[forbidden].sum()))
    return tuple((sizes, float(np.mean(classes[sizes])))
                 for sizes in sorted(classes, key=lambda c: (len(c), c)))


@functools.lru_cache(maxsize=None)
def n_mode_lambda_coefficients(n: int) -> tuple:
    """Class weights computed on n modes: convolved exit laws through fourier(n).

    Every set partition of the n photons into >= 2 species is evaluated;
    the weights of one class must agree across placements to 1e-12.
    """
    from photherm import certify, fock, linalg
    u = linalg.fourier(n)
    forbidden = certify._forbidden_mask(n, n)
    exit_laws: dict = {}

    def exit_law(block):
        # a multi-photon species counts only when it exits bunched in one mode
        if block not in exit_laws:
            size = len(block)
            occ = tuple(int(j in block) for j in range(n))
            law = np.abs(fock._transfer(u, occ, bosonic=True)) ** 2
            if size >= 2:
                law *= fock._patterns(size, n).max(axis=1) == size
            exit_laws[block] = law
        return exit_laws[block]

    classes: dict = {}
    for blocks in set_partitions(tuple(range(n))):
        if len(blocks) < 2:
            continue
        law, size = exit_law(tuple(blocks[0])), len(blocks[0])
        for block in blocks[1:]:
            law = fock._convolve(law, size, exit_law(tuple(block)), len(block), n)
            size += len(block)
        sizes = tuple(sorted((len(b) for b in blocks), reverse=True))
        classes.setdefault(sizes, []).append(float(law[forbidden].sum()))
    out = []
    for sizes in sorted(classes, key=lambda c: (len(c), c)):
        vals = classes[sizes]
        if max(vals) - min(vals) > 1e-12:
            raise AssertionError(f"forbidden weight of class {sizes} varies with placement: {vals}")
        out.append((sizes, float(np.mean(vals))))
    return tuple(out)


def seed_expm_hermitian(h, t: float) -> np.ndarray:
    """exp(-i h t) for one scalar time, one eigendecomposition per call."""
    w, vecs = np.linalg.eigh(np.asarray(h, dtype=complex))
    phases = np.exp(-1j * w * float(t))
    return (vecs * phases) @ vecs.conj().T


def counted_evolution(monkeypatch) -> list:
    """Record the number of times per hamiltonian.evolution call, through monkeypatch."""
    from photherm import hamiltonian
    calls, evolution = [], hamiltonian.evolution
    monkeypatch.setattr(hamiltonian, "evolution",
                        lambda spec, t: calls.append(np.size(t)) or evolution(spec, t))
    return calls


def seed_trace_marginal(spec, input_occ, t: float, model, mode: int) -> np.ndarray:
    """Single-mode marginal at one time through the single-law entry."""
    from photherm import fock, gge, hamiltonian
    u = hamiltonian.evolution(spec, float(t))
    return gge.marginal(fock.output_distribution(u, input_occ, model), mode).probs


def seed_recurrence_time(spec, input_occ, model="indistinguishable", t_max: float = 6.0,
                         samples: int = 240, mode: int = 0) -> float:
    """Revival scan with one evolution and one single law per grid point and search step."""
    from photherm import gge

    def dist_to_start(t: float) -> float:
        return gge.tvd(seed_trace_marginal(spec, input_occ, t, model, mode), start)

    start = seed_trace_marginal(spec, input_occ, 0.0, model, mode)
    ts = np.linspace(0.0, t_max, samples + 1)[1:]
    vals = np.array([dist_to_start(t) for t in ts])
    past = np.nonzero(vals >= 0.5 * vals.max())[0]
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
