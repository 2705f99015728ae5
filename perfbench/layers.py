"""Per-layer metrics from the spans of one traced run.

busy_s is inclusive time: the length of the union of a name's (or a
layer's) span intervals, so recursion and nesting are not counted twice.
self_s is busy time minus the time covered by direct child spans. Only
spans that start after the command started count toward the run, so the
layer self_s values plus the untraced remainder add up to the traced
run_s.
"""

from __future__ import annotations

import numpy as np

LAYERS = ("linalg", "hamiltonian", "fock", "gge", "certify", "apparatus", "cli")

# Functions the metrics below read, listed so that a name a later version of
# the package drops shows up as None in the record instead of going unnoticed.
METRIC_NAMES = (
    "fock.permanent", "fock.output_distribution", "fock.prob_species", "fock.sample",
    "fock.state_vector", "linalg.is_unitary", "hamiltonian.evolution",
    "gge.equilibration_trace", "gge.marginal", "certify.lambda_coefficients",
    "certify.estimate_p1", "certify.estimate_p2", "certify.witness_threshold",
    "certify.collect_setting_samples", "apparatus.simulate_setting",
    "apparatus.qpnr_detect", "apparatus.programmed_unitary", "cli.load_config",
    "cli.cmd_evolve", "cli.cmd_gge", "cli.cmd_certify",
)

# (metric name, unit) in the order they are reported; BENCHMARK.json lists the same.
METRICS = (
    ("fock.permanent.calls", "count"),
    ("fock.permanent.busy_s", "s"),
    ("fock.patterns", "count"),
    ("fock.us_per_pattern", "us"),
    ("fock.output_distribution.calls", "count"),
    ("fock.output_distribution.busy_s", "s"),
    ("fock.output_distribution.self_s", "s"),
    ("fock.prob_species.calls", "count"),
    ("fock.prob_species.busy_s", "s"),
    ("fock.sample.draws", "count"),
    ("fock.sample.busy_s", "s"),
    ("fock.state_vector.busy_s", "s"),
    ("linalg.is_unitary.calls", "count"),
    ("linalg.busy_s", "s"),
    ("hamiltonian.evolution.calls", "count"),
    ("hamiltonian.evolution.busy_s", "s"),
    ("gge.equilibration_trace.busy_s", "s"),
    ("gge.marginal.calls", "count"),
    ("gge.marginal.busy_s", "s"),
    ("certify.lambda_coefficients.busy_s", "s"),
    ("certify.estimate.calls", "count"),
    ("certify.estimate.busy_s", "s"),
    ("certify.samples_scanned", "count"),
    ("certify.witness_threshold.busy_s", "s"),
    ("certify.collect_setting_samples.self_s", "s"),
    ("apparatus.simulate_setting.busy_s", "s"),
    ("apparatus.simulate_setting.self_s", "s"),
    ("apparatus.events_kept", "count"),
    ("apparatus.qpnr_detect.calls", "count"),
    ("apparatus.qpnr_detect.busy_s", "s"),
    ("apparatus.keep_ratio", "ratio"),
    ("apparatus.programmed_unitary.busy_s", "s"),
    ("apparatus.byproduct_dists", "count"),
    ("cli.load_config.busy_s", "s"),
    ("cli.cmd.busy_s", "s"),
    ("cli.cmd.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("cli.files_out", "count"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("untraced.self_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def _union_s(start: np.ndarray, end: np.ndarray) -> float:
    if start.size == 0:
        return 0.0
    order = np.argsort(start, kind="stable")
    s, reach = start[order], np.maximum.accumulate(end[order])
    opens = np.ones(s.size, dtype=bool)
    opens[1:] = s[1:] > reach[:-1]
    first = np.flatnonzero(opens)
    last = np.append(first[1:] - 1, s.size - 1)
    return float((reach[last] - s[first]).sum()) / 1e9


class Spans:
    """Spans of one traced run, indexed for per-name and per-layer sums."""

    def __init__(self, npz):
        self.names = [str(n) for n in npz["names"]]
        self.name = npz["name"]
        self.start = npz["start"]
        self.end = npz["end"]
        self.parent = npz["parent"]
        self.count = npz["count"]
        dur = self.end - self.start
        child = np.zeros_like(dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], dur[has_parent])
        self.self_ns = dur - child
        self.layer = np.array([n.split(".", 1)[0] for n in self.names] or [""])

    def select(self, *names: str, prefix: str | None = None, within=None) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names)
               if n in names or (prefix is not None and n.startswith(prefix))]
        mask = np.isin(self.name, ids)
        return mask if within is None else mask & within

    def calls(self, mask) -> int:
        return int(mask.sum())

    def busy(self, mask) -> float:
        return _union_s(self.start[mask], self.end[mask])

    def self_s(self, mask) -> float:
        return float(self.self_ns[mask].sum()) / 1e9

    def counted(self, mask) -> int:
        return int(self.count[mask].sum())


def layer_metrics(npz, run_start_ns: int, done_ns: int, untraced_run_s: float,
                  bytes_out: int, files_out: int) -> dict[str, float]:
    """Every per-layer metric of METRICS from one traced run's spans."""
    sp = Spans(npz)
    run = sp.start >= run_start_ns

    def sel(*names, prefix=None):
        return sp.select(*names, prefix=prefix, within=run)

    out: dict[str, float] = {}
    perm = sel("fock.permanent")
    dists = sel("fock.output_distribution")
    patterns = sp.counted(dists)
    out["fock.permanent.calls"] = sp.calls(perm)
    out["fock.permanent.busy_s"] = sp.busy(perm)
    out["fock.patterns"] = patterns
    out["fock.us_per_pattern"] = sp.busy(dists) / patterns * 1e6 if patterns else 0.0
    out["fock.output_distribution.calls"] = sp.calls(dists)
    out["fock.output_distribution.busy_s"] = sp.busy(dists)
    out["fock.output_distribution.self_s"] = sp.self_s(dists)
    species = sel("fock.prob_species")
    out["fock.prob_species.calls"] = sp.calls(species)
    out["fock.prob_species.busy_s"] = sp.busy(species)
    draws = sel("fock.sample")
    out["fock.sample.draws"] = sp.counted(draws)
    out["fock.sample.busy_s"] = sp.busy(draws)
    out["fock.state_vector.busy_s"] = sp.busy(sel("fock.state_vector"))

    out["linalg.is_unitary.calls"] = sp.calls(sel("linalg.is_unitary"))
    out["linalg.busy_s"] = sp.busy(sel(prefix="linalg."))
    evo = sel("hamiltonian.evolution")
    out["hamiltonian.evolution.calls"] = sp.calls(evo)
    out["hamiltonian.evolution.busy_s"] = sp.busy(evo)

    out["gge.equilibration_trace.busy_s"] = sp.busy(sel("gge.equilibration_trace"))
    marg = sel("gge.marginal")
    out["gge.marginal.calls"] = sp.calls(marg)
    out["gge.marginal.busy_s"] = sp.busy(marg)

    out["certify.lambda_coefficients.busy_s"] = sp.busy(sel("certify.lambda_coefficients"))
    est = sel("certify.estimate_p1", "certify.estimate_p2")
    out["certify.estimate.calls"] = sp.calls(est)
    out["certify.estimate.busy_s"] = sp.busy(est)
    out["certify.samples_scanned"] = sp.counted(est)
    out["certify.witness_threshold.busy_s"] = sp.busy(sel("certify.witness_threshold"))
    out["certify.collect_setting_samples.self_s"] = sp.self_s(
        sel("certify.collect_setting_samples"))

    setting = sel("apparatus.simulate_setting")
    kept = sp.counted(setting)
    qpnr = sel("apparatus.qpnr_detect")
    out["apparatus.simulate_setting.busy_s"] = sp.busy(setting)
    out["apparatus.simulate_setting.self_s"] = sp.self_s(setting)
    out["apparatus.events_kept"] = kept
    out["apparatus.qpnr_detect.calls"] = sp.calls(qpnr)
    out["apparatus.qpnr_detect.busy_s"] = sp.busy(qpnr)
    out["apparatus.keep_ratio"] = kept / sp.calls(qpnr) if sp.calls(qpnr) else 0.0
    out["apparatus.programmed_unitary.busy_s"] = sp.busy(sel("apparatus.programmed_unitary"))
    setting_ids = np.flatnonzero(setting)
    out["apparatus.byproduct_dists"] = int(np.isin(sp.parent[dists], setting_ids).sum())

    out["cli.load_config.busy_s"] = sp.busy(sp.select("cli.load_config"))
    cmd = sel(prefix="cli.cmd_")
    out["cli.cmd.busy_s"] = sp.busy(cmd)
    out["cli.cmd.self_s"] = sp.self_s(cmd)
    out["cli.bytes_out"] = bytes_out
    out["cli.files_out"] = files_out

    run_s = (done_ns - run_start_ns) / 1e9
    accounted = 0.0
    for layer in LAYERS:
        value = sp.self_s(run & (sp.layer[sp.name] == layer)) if sp.name.size else 0.0
        out[f"{layer}.self_s"] = value
        accounted += value
    out["untraced.self_s"] = run_s - accounted
    out["trace.run_s"] = run_s
    out["trace.overhead_s"] = run_s - untraced_run_s
    out["trace.spans"] = int(sp.name.size)
    return out
