"""The `photherm selftest` checks, and the brute-force oracles that they and the tests share:
the permanent and the species law as literal sums, independent of the transition engine."""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import certify, fock, gge, hamiltonian, linalg


def naive_permanent(a) -> complex:
    """Permanent as the literal sum over all n! permutations."""
    a = np.asarray(a)
    out = 0.0 + 0.0j
    for perm in itertools.permutations(range(a.shape[0])):
        term = 1.0 + 0.0j
        for i, j in enumerate(perm):
            term *= a[i, j]
        out += term
    return out


def _splittings(out, sizes):
    """Every way to write out as an elementwise sum of patterns holding these photon numbers."""
    if len(sizes) == 1:
        if sum(out) == sizes[0]:
            yield (out,)
        return
    for head in itertools.product(*(range(c + 1) for c in out)):
        if sum(head) == sizes[0]:
            rest = tuple(o - h for o, h in zip(out, head))
            for tail in _splittings(rest, sizes[1:]):
                yield (head,) + tail


def oracle_prob_species(u, partition, output_occ) -> float:
    """Species-partition law as the splitting sum of per-species Ryser probabilities."""
    sizes = [fock.total(s) for s in partition]
    return sum(math.prod(fock.prob_indistinguishable(u, a, b) for a, b in zip(partition, split))
               for split in _splittings(tuple(output_occ), sizes))


def _permanent():
    rng = np.random.default_rng(20_240_101)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
        worst = max(worst, abs(fock.permanent(a) - naive_permanent(a)))
    return worst < 1e-12, f"max residual {worst:.3e}"


def _log_exp():
    # Haar draws, then two degenerate spectra in a Haar basis:
    # F4 (eigenvalue 1 twice) and diag(1, 1, -1, -i, i)
    unitaries = [linalg.haar_random(5, (101, k)) for k in range(5)]
    for d in (linalg.fourier(4), np.diag([1, 1, -1, -1j, 1j]).astype(complex)):
        w = linalg.haar_random(len(d), 103)
        unitaries.append(w @ d @ w.conj().T)
    worst = 0.0
    for u in unitaries:
        h = linalg.logm_unitary(u)
        worst = max(worst, float(np.max(np.abs(linalg.expm_hermitian(h) - u))))
    return worst < 1e-12, f"max residual {worst:.3e}"


def _hom():
    bs = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    p = fock.prob_indistinguishable(bs, (1, 1), (1, 1))
    return p < 1e-14, f"residual {p:.3e}"


def _fourier_support():
    dist = fock.output_distribution(linalg.fourier(3, 4), (1, 1, 1, 0))
    allowed = {(1, 1, 1, 0), (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0)}
    leak = max((p for occ, p in zip(dist.basis, dist.probs) if occ not in allowed),
               default=0.0)
    return leak < 1e-12, f"max forbidden prob {leak:.3e}"


def _engine():
    worst = 0.0
    for k in range(3):
        m = 4 + k % 2
        u = linalg.haar_random(m, (202, k))
        tail = (0,) * (m - 3)
        r = (2, 1, 1) + tail
        part = ((1, 1, 0) + tail, (1, 0, 1) + tail)
        mix = fock.Mixture(((0.4, part), (0.6, (r,))))
        laws = ((fock.MODEL_INDISTINGUISHABLE, lambda s: fock.prob_indistinguishable(u, r, s)),
                (fock.MODEL_DISTINGUISHABLE, lambda s: fock.prob_distinguishable(u, r, s)),
                (mix, lambda s: 0.4 * oracle_prob_species(u, part, s)
                 + 0.6 * fock.prob_indistinguishable(u, r, s)))
        for model, law in laws:
            dist = fock.output_distribution(u, r, model)
            worst = max(worst, max(abs(p - law(s)) for s, p in zip(dist.basis, dist.probs)))
    return worst < 1e-12, f"max residual {worst:.3e}"


def _class_weight(sizes, target):
    def exact():
        lam = dict(certify.lambda_coefficients(3, 4))[sizes]
        err = abs(lam - target)
        return err < 1e-12, f"lambda {lam:.12f} err {err:.3e}"

    def sampled():
        est, sigma = certify.lambda_monte_carlo(3, 4, sizes, 20_000, seed=5)
        dev = abs(est - target)
        return dev < 3 * sigma, f"estimate {est:.4f} dev {dev:.4f} (3 sigma {3 * sigma:.4f})"

    label = "+".join(str(s) for s in sizes)
    return [(f"class-weight-exact-{label}", exact), (f"class-weight-sampled-{label}", sampled)]


def _estimators():
    dist = fock.output_distribution(linalg.fourier(3, 4), (1, 1, 1, 0),
                                    fock.MODEL_DISTINGUISHABLE)
    rows = fock.sample(dist, 5000, 31)
    target, fs = (1, 1, 1, 0), certify.forbidden_patterns(3, 4)
    shots, forb = [tuple(r) for r in rows.tolist()], set(fs.patterns)
    want = (shots.count(target) / len(shots), sum(s in forb for s in shots) / len(shots))
    got = (certify.estimate_p1(rows, target)[0], certify.estimate_p2(rows, fs)[0])
    return got == want, f"p1 {got[0]:.4f} p2 {got[1]:.4f} over {len(shots)} shots"


def _certify_record():
    res = certify.certify(hamiltonian.HamiltonianSpec(kind="hopping", modes=4), 1.0,
                          fock.MODEL_INDISTINGUISHABLE, 2000, 17, 0.8, 0.9)
    want = (1.0 - certify.chebyshev_delta(certify.DEFAULT_VARIANCE, 2000, 0.8)
            - certify.chebyshev_delta(certify.DEFAULT_VARIANCE, 2000, 0.9))
    ok = (res.p1 == 1.0 and res.p2 == 0.0 and res.f_lower == want
          and res.convergence[-1] == (2000, res.p1, res.p2, res.f_lower))
    return ok, (f"p1 {res.p1} p2 {res.p2} f_lower {res.f_lower:.6f} "
                f"over {len(res.convergence)} trace rows")


def _stationary():
    ref = gge.gge_marginal(3, 4)
    err = max(abs(ref.probs[0] - 4 / 7), abs(ref.probs[1] - 12 / 49),
              abs(ref.probs[2] - 36 / 343))
    return err < 1e-12, f"max err {err:.3e}"


CHECKS = (("permanent-vs-naive-sum", _permanent),
          ("unitary-log-exp-round-trip", _log_exp),
          ("two-photon-coincidence-suppression", _hom),
          ("fourier-suppressed-patterns", _fourier_support),
          ("engine-vs-permanent", _engine),
          *_class_weight((2, 1), 4.0 / 9.0),
          *_class_weight((1, 1, 1), 2.0 / 3.0),
          ("estimators-vs-membership", _estimators),
          ("certify-record", _certify_record),
          ("stationary-marginal-values", _stationary))


def run() -> int:
    """Every check printed as a pass/fail line; returns the count of failures.

    A check that raises prints a FAIL line naming the exception, and the
    remaining checks still run.
    """
    failures = 0
    for name, check in CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # a broken oracle path is one failed check, not a crash
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    return failures
