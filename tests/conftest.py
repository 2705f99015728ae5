"""Shared brute-force oracles, kept independent of the package code paths."""

from __future__ import annotations

import itertools

import numpy as np


def naive_permanent(a) -> complex:
    """Permanent as the literal sum over all n! permutations."""
    a = np.asarray(a)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        p = 1.0 + 0.0j
        for i, j in enumerate(perm):
            p *= a[i, j]
        total += p
    return total


def _bounded_compositions(n: int, bounds):
    """All tuples c with sum(c) == n and 0 <= c_j <= bounds_j."""
    if len(bounds) == 1:
        if 0 <= n <= bounds[0]:
            yield (n,)
        return
    for first in range(min(n, bounds[0]) + 1):
        for rest in _bounded_compositions(n - first, bounds[1:]):
            yield (first,) + rest


def _species_splittings(output_occ, totals):
    """All ways to write the output pattern as an elementwise sum over species."""
    if len(totals) == 1:
        if sum(output_occ) == totals[0]:
            yield (tuple(output_occ),)
        return
    for head in _bounded_compositions(totals[0], output_occ):
        remainder = tuple(o - h for o, h in zip(output_occ, head))
        for rest in _species_splittings(remainder, totals[1:]):
            yield (head,) + rest


def oracle_prob_species(u, partition, output_occ) -> float:
    """Species-partition law as the splitting sum of per-species Ryser probabilities."""
    from photherm import fock
    totals = tuple(sum(s) for s in partition)
    p = 0.0
    for split in _species_splittings(tuple(output_occ), totals):
        term = 1.0
        for species_in, species_out in zip(partition, split):
            term *= fock.prob_indistinguishable(u, species_in, species_out)
            if term == 0.0:
                break
        p += term
    return p


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
    forb = set(certify.forbidden_patterns(n, m, 1).patterns)
    classes: dict = {}
    for blocks in certify._set_partitions(tuple(range(n))):
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
