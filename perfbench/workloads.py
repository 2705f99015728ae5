"""Benchmark workloads: seeded photherm configs and the check of each run's outputs.

Each workload builds its JSON config from the benchmark seed alone
(Hamiltonian seed, time grid, CLI seed); the CLI receives only that
file. After every run the outputs are checked against values the
harness recomputes itself: transition probabilities come from a Ryser
permanent written here, independent of photherm.fock, and only the
evolution unitary is taken from photherm.hamiltonian. A failed check
raises CheckError; a passing one returns the run's item count
(probabilities produced, or post-selected and sampled events).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

PROB_TOL = 1e-12      # oracle against written probabilities, and recomputed bounds
SUM_TOL = 1e-10       # normalization of a written distribution or marginal
ORACLE_PATTERNS = 50  # patterns per law recomputed on evolve-large

# apparatus.jitter_for_fidelity(0.98, 4) at the commit that introduced the
# benchmark. Fixed here so that the workload's input does not move when the
# mesh code changes.
MESH_JITTER_F098 = 0.14401414400026624
# apparatus.distinguishability_mixture for the default pairwise visibilities
# (0.932 same-crystal, 0.885 cross-crystal) on input (1, 1, 1, 0).
HARDWARE_MIXTURE = [[0.82482, [[1, 1, 1, 0]]],
                    [0.10718, [[1, 1, 0, 0], [0, 0, 1, 0]]],
                    [0.068, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]]]


class CheckError(Exception):
    """A run's outputs disagree with the recomputed values."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Oracle transition laws


def permanent(a: np.ndarray) -> complex:
    """Ryser's formula summed over all column subsets at once."""
    n = a.shape[0]
    if n == 0:
        return 1.0
    subsets = (np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1
    signs = np.where((n - subsets.sum(axis=1)) % 2, -1.0, 1.0)
    return complex(signs @ (subsets @ a.T).prod(axis=1))


def _modes(occ) -> list[int]:
    return [j for j, c in enumerate(occ) for _ in range(c)]


def _fact(occ) -> float:
    return float(math.prod(math.factorial(c) for c in occ))


def prob_indistinguishable(u, inp, out) -> float:
    sub = u[np.ix_(_modes(out), _modes(inp))]
    return abs(permanent(sub)) ** 2 / (_fact(inp) * _fact(out))


def prob_distinguishable(u, inp, out) -> float:
    sub = u[np.ix_(_modes(out), _modes(inp))]
    return permanent(np.abs(sub) ** 2).real / _fact(out)


def _splittings(out, totals):
    if len(totals) == 1:
        yield (tuple(out),)
        return
    for head in itertools.product(*(range(c + 1) for c in out)):
        if sum(head) == totals[0]:
            rest = tuple(o - h for o, h in zip(out, head))
            for tail in _splittings(rest, totals[1:]):
                yield (head,) + tail


def prob_species(u, partition, out) -> float:
    totals = [sum(s) for s in partition]
    return sum(math.prod(prob_indistinguishable(u, s_in, s_out)
                         for s_in, s_out in zip(partition, split))
               for split in _splittings(out, totals))


def law(model, inp):
    """Oracle P(out) for a CLI model value."""
    if model == "indistinguishable":
        return lambda u, out: prob_indistinguishable(u, inp, out)
    if model == "distinguishable":
        return lambda u, out: prob_distinguishable(u, inp, out)
    return lambda u, out: prob_species(u, model["species"], out)


def basis(n: int, m: int):
    for modes in itertools.combinations_with_replacement(range(m), n):
        yield tuple(modes.count(j) for j in range(m))


# ---------------------------------------------------------------------------
# Reading CLI outputs


def _csv_rows(path: Path) -> list[list[str]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _unitary(src: Path, hamiltonian: dict, t: float) -> np.ndarray:
    import sys
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from photherm import hamiltonian as ham
    return ham.evolution(ham.HamiltonianSpec.from_dict(hamiltonian), t)


def _ring(modes: int) -> dict:
    return {"kind": "hopping", "modes": modes}


def _pick_times(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    return sorted(round(rng.uniform(lo, hi), 6) for _ in range(count))


# ---------------------------------------------------------------------------
# evolve-large


def evolve_config(rng: random.Random, smoke: bool) -> dict:
    n, m = (3, 6) if smoke else (6, 12)
    return {"hamiltonian": {"kind": "long_range", "modes": m, "seed": rng.randrange(1 << 30)},
            "input": [1] * n + [0] * (m - n),
            "times": _pick_times(rng, 1, 0.5, 1.5),
            "model": "distinguishable",
            "seed": rng.randrange(1 << 30)}


def evolve_check(run: Path, cfg: dict, rng: random.Random, src: Path) -> int:
    inp, times = cfg["input"], cfg["times"]
    n, m = sum(inp), len(inp)
    size = math.comb(n + m - 1, n)
    items = 0
    for ti, t in enumerate(times):
        u = _unitary(src, cfg["hamiltonian"], t)
        for suffix, model in (("", cfg["model"]), ("_exact", "indistinguishable")):
            path = run / f"evolve_h_t{ti:03d}{suffix}.csv"
            rows = _csv_rows(path)
            probs = {tuple(int(c) for c in p.split("|")): float(q) for p, q in rows}
            _require(len(rows) == len(probs) == size,
                     f"{path.name}: {len(rows)} rows, {len(probs)} distinct, expected {size}")
            total = math.fsum(probs.values())
            _require(abs(total - 1.0) <= SUM_TOL, f"{path.name}: probabilities sum to {total!r}")
            oracle = law(model, inp)
            for occ in rng.sample(sorted(probs), min(ORACLE_PATTERNS, size)):
                want = oracle(u, occ)
                _require(abs(probs[occ] - want) <= PROB_TOL,
                         f"{path.name}: P{occ} = {probs[occ]!r}, oracle {want!r}")
            items += size
    return items


# ---------------------------------------------------------------------------
# gge-sweep


def gge_config(rng: random.Random, smoke: bool) -> dict:
    if smoke:
        steps, species = 3, [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]
    else:
        steps, species = 20, [[1, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 1, 0]]
    inp = [a + b for a, b in zip(*species)]
    return {"hamiltonian": _ring(len(inp)), "input": inp,
            "times": _pick_times(rng, steps, 0.05, 3.0),
            "model": {"species": species},
            "seed": rng.randrange(1 << 30)}


GGE_RECHECKED_TIMES = 2


def gge_check(run: Path, cfg: dict, rng: random.Random, src: Path) -> int:
    inp, times = cfg["input"], cfg["times"]
    n, m = sum(inp), len(inp)
    d = n / m
    ref = [d**k / (d + 1.0) ** (k + 1) for k in range(n)] + [(d / (d + 1.0)) ** n]
    written_ref = [float(p) for _, p in _csv_rows(run / "gge_reference.csv")]
    _require(max(abs(a - b) for a, b in zip(ref, written_ref)) <= PROB_TOL
             and len(written_ref) == n + 1, "gge_reference.csv differs from the geometric law")
    recheck = set(rng.sample(range(len(times)), min(GGE_RECHECKED_TIMES, len(times))))
    models = (("indistinguishable", "indistinguishable"),
              ("distinguishable", "distinguishable"), ("mixture", cfg["model"]))
    for name, model in models:
        marg_rows = _csv_rows(run / f"gge_h_{name}_marginal.csv")
        tvd_rows = _csv_rows(run / f"gge_h_{name}_tvd.csv")
        _require(len(marg_rows) == len(times) * (n + 1) and len(tvd_rows) == len(times),
                 f"gge_h_{name}: wrong row counts")
        oracle = law(model, inp)
        for ti, t in enumerate(times):
            marg = [float(r[2]) for r in marg_rows[ti * (n + 1):(ti + 1) * (n + 1)]]
            tvd = float(tvd_rows[ti][1])
            _require(abs(math.fsum(marg) - 1.0) <= SUM_TOL,
                     f"gge_h_{name}: marginal at t={t} sums to {math.fsum(marg)!r}")
            want_tvd = 0.5 * math.fsum(abs(a - b) for a, b in zip(marg, written_ref))
            _require(abs(tvd - want_tvd) <= PROB_TOL,
                     f"gge_h_{name}: tvd {tvd!r} at t={t}, recomputed {want_tvd!r}")
            if ti in recheck:
                u = _unitary(src, cfg["hamiltonian"], t)
                want = [0.0] * (n + 1)
                for occ in basis(n, m):
                    want[occ[0]] += oracle(u, occ)
                err = max(abs(a - b) for a, b in zip(marg, want))
                _require(err <= PROB_TOL, f"gge_h_{name}: marginal at t={t} off by {err:.3e}")
                want_tvd = 0.5 * math.fsum(abs(a - b) for a, b in zip(want, ref))
                _require(abs(tvd - want_tvd) <= PROB_TOL,
                         f"gge_h_{name}: tvd at t={t} off the oracle by {abs(tvd - want_tvd):.3e}")
    return 3 * len(times) * math.comb(n + m - 1, n)


# ---------------------------------------------------------------------------
# certify-hardware and certify-ideal


def _delta(k: int, eps: float) -> float:
    return math.sqrt(2.0 * 0.25 / (k * math.log(1.0 / eps)))


def _certify_records(run: Path, cfg: dict):
    for ti in range(len(cfg["times"])):
        path = run / f"certify_h_t{ti:03d}.json"
        yield path.name, json.loads(path.read_text())["result"]


def hardware_config(rng: random.Random, smoke: bool) -> dict:
    third = 1.0 / 3.0
    return {"hamiltonian": _ring(4), "input": [1, 1, 1, 0],
            "times": _pick_times(rng, 1 if smoke else 2, 0.5, 1.5),
            "model": {"mixture": HARDWARE_MIXTURE},
            "shots": 200 if smoke else 4000,
            "seed": rng.randrange(1 << 30),
            "apparatus": {"source": {"squeezing": 0.3, "heralding_efficiency": 0.9},
                          "detection": {"weights": [[third] * 3] * 4},
                          "mesh_jitter": MESH_JITTER_F098},
            "certification": {"eps1": 0.9, "eps2": 0.9}}


# Class weights of three photons under the 3-point Fourier on 4 modes.
LAMBDAS_3_4 = {(2, 1): 4.0 / 9.0, (1, 1, 1): 2.0 / 3.0}


def hardware_check(run: Path, cfg: dict, rng: random.Random, src: Path) -> int:
    shots, eps = cfg["shots"], cfg["certification"]
    items = 0
    for name, r in _certify_records(run, cfg):
        _require(r["k1"] == r["k2"] == shots, f"{name}: k1={r['k1']} k2={r['k2']}, shots {shots}")
        _require(0.0 <= r["p1"] <= 1.0 and 0.0 <= r["p2"] <= 1.0,
                 f"{name}: p1={r['p1']} p2={r['p2']} outside [0, 1]")
        lambdas = {tuple(sizes): lam for sizes, lam in r["lambdas"]}
        _require(lambdas.keys() == LAMBDAS_3_4.keys() and all(
            abs(lambdas[c] - lam) <= PROB_TOL for c, lam in LAMBDAS_3_4.items()),
            f"{name}: class weights {r['lambdas']}")
        want = (r["p1"] - r["p2"] / min(lambdas.values())
                - _delta(r["k1"], eps["eps1"]) - _delta(r["k2"], eps["eps2"]))
        _require(abs(r["f_lower"] - want) <= PROB_TOL,
                 f"{name}: f_lower {r['f_lower']!r}, recomputed {want!r}")
        items += r["k1"] + r["k2"]
    return items


def ideal_config(rng: random.Random, smoke: bool) -> dict:
    m = 4 if smoke else 7
    return {"hamiltonian": {"kind": "long_range", "modes": m, "seed": rng.randrange(1 << 30)},
            "times": _pick_times(rng, 1 if smoke else 3, 0.5, 1.5),
            "model": "indistinguishable",
            "shots": 2000 if smoke else 200_000,
            "seed": rng.randrange(1 << 30),
            "certification": {"eps1": 0.9, "eps2": 0.9, "split": m // 2}}


def ideal_check(run: Path, cfg: dict, rng: random.Random, src: Path) -> int:
    shots, eps = cfg["shots"], cfg["certification"]
    items = 0
    for name, r in _certify_records(run, cfg):
        _require(r["k1"] == r["k2"] == shots, f"{name}: k1={r['k1']} k2={r['k2']}, shots {shots}")
        _require(r["p1"] == 1.0 and r["p2"] == 0.0, f"{name}: p1={r['p1']} p2={r['p2']}")
        want = 1.0 - _delta(r["k1"], eps["eps1"]) - _delta(r["k2"], eps["eps2"])
        _require(abs(r["f_lower"] - want) <= PROB_TOL,
                 f"{name}: f_lower {r['f_lower']!r}, expected {want!r}")
        items += r["k1"] + r["k2"]
    return items


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    command: str
    items: str                       # what items_per_s counts on this workload
    config: Callable[[random.Random, bool], dict]
    check: Callable[[Path, dict, random.Random, Path], int]


WORKLOADS = {
    "evolve-large": Workload("evolve", "patterns", evolve_config, evolve_check),
    "gge-sweep": Workload("gge", "patterns", gge_config, gge_check),
    "certify-hardware": Workload("certify", "events", hardware_config, hardware_check),
    "certify-ideal": Workload("certify", "events", ideal_config, ideal_check),
}
