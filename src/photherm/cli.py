"""Experiment runner: evolve / gge / certify / selftest subcommands.

Each run reads one JSON config, resolves defaults and flag overrides,
and writes its files into a directory named by the hash of the resolved
config, so identical configs land in identical directories with
byte-identical contents. Each run is built in a temporary sibling
directory and moved into place only when it is complete, so a failed run
leaves no directory behind. Existing run directories are never
overwritten without --force.

apparatus and certify are imported by load_config for the blocks that use
them, gge by main before load_config for its own command, and selftest by
its command: nothing a run uses is imported later, and no command loads
dataclasses (the record classes come from photherm.record). The
digest's sha256 comes from the interpreter's built-in module, so a gge run
or a ring evolve never loads hashlib. A config that draws or seeds (a
certification block or a long_range Hamiltonian) loads numpy.random, whose
secrets import loads hashlib. main blocks hashlib's OpenSSL module
(_hashlib) before that, unless the process already holds it, so hashlib
takes the built-in hashes and no CLI run maps libcrypto; a library caller
of load_config keeps its own hashlib.

evolve writes its laws with up to one process per usable core (the CPU
affinity, so taskset restricts it): the parent and forked workers, each
holding one law at a time. The parent builds the basis, with every level
and gather map the engine reads (fock._levels), before it forks, so the
workers inherit it instead of each building it again. Laws of fewer than
FORK_MIN_PATTERNS patterns are written by the parent alone. The files are
byte-identical whatever the core count.

Every CSV is written by _write_csv as text blocks of at most
fock.CSV_BLOCK rows: a law's from FockDistribution.csv_blocks, the small
gge and certify tables from _rows, each block one %-format of a row
template, with no Python per row.

Exit codes: 0 success, 1 config validation error (including an evolve or
gge config with a non-trivial apparatus block, which only certify uses,
and a certify config without a certification block) or a source whose acceptance is too low to collect the shots, 2 I/O
error or an evolve law that could not be computed or written, 3 selftest
failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import sys
from pathlib import Path

# hashlib loads OpenSSL's libcrypto (about 3.6 MB resident); as random.py does, try the
# interpreter's built-in hash first. The digest is the same.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import __version__, fock, hamiltonian, record

DEFAULT_EPSILON_GRID = (0.7, 0.8, 0.9)
# Most shots a run with a non-trivial apparatus may ask for; its event stream samples each one.
MAX_APPARATUS_SHOTS = 1_000_000
# Most shots any run may ask for: hit counts are int64.
MAX_SHOTS = 2**63 - 1
# Largest phase |t| * |H| a time may reach, |H| = hamiltonian.eigenvalue_bound. Past it a
# double holds exp(-i w t) to fewer than four digits, and past 1e308 the phase overflows.
MAX_PHASE = 1e12
# Fewest patterns per law for which evolve forks law writers. On a 2-vCPU Xeon guest,
# forking the loaded CLI, exiting the child and reaping it took 1.8-3.0 ms (median of 20),
# the time FockDistribution.csv_blocks takes to format about 1,650-1,900 CSV rows. The
# bound stays above that break-even.
FORK_MIN_PATTERNS = 4096


class ConfigError(ValueError):
    """Config validation failure; the message carries the offending path."""


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _checked(path: str, fn, /, *args, **kw):
    """fn(*args, **kw), with a ValueError it raises (a record's or library check's) as a
    ConfigError at path."""
    try:
        return fn(*args, **kw)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _object(d, keys: tuple, path: str) -> dict:
    """d, checked to be a JSON object that holds no key outside keys."""
    _expect(isinstance(d, dict), path, f"expected an object, got {d!r}")
    unknown = sorted(set(d) - set(keys))
    _expect(not unknown, path, f"unknown keys {unknown}; expected some of {list(keys)}")
    return d


def _get(d: dict, key: str, path: str, check, default=None, required=False, **kw):
    """check(d[key], path.key, **kw), or default where d has no key and it is not required."""
    if key not in d:
        _expect(not required, f"{path}.{key}", "missing required value")
        return default
    return check(d[key], f"{path}.{key}", **kw)


def _number(v, path: str) -> float:
    """A JSON number as a finite float; bools, non-numbers and huge integers are rejected."""
    _expect(isinstance(v, (int, float)) and not isinstance(v, bool),
            path, f"expected a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:
        raise ConfigError(f"{path}: integer too large for a float") from None
    _expect(math.isfinite(v), path, f"expected a finite number, got {v!r}")
    return v


def _integer(v, path: str, minimum=None) -> int:
    _expect(isinstance(v, int) and not isinstance(v, bool), path, f"expected an integer, got {v!r}")
    _expect(minimum is None or v >= minimum, path, f"must be >= {minimum}, got {v}")
    return v


def _fraction(v, path: str) -> float:
    """A number in the open interval (0, 1)."""
    v = _number(v, path)
    _expect(0.0 < v < 1.0, path, f"must lie in (0, 1), got {v}")
    return v


def _entries(v, path: str, entry=_number) -> tuple:
    """A non-empty JSON list, each entry through entry(x, path[i])."""
    _expect(isinstance(v, list) and v, path, f"expected a non-empty list, got {v!r}")
    return tuple(entry(x, f"{path}[{i}]") for i, x in enumerate(v))


def _check_numbers(v, path: str, shape: tuple):
    """Check nested lists of numbers: shape[0] entries (any number if None), then shape[1:]."""
    if not shape:
        _number(v, path)
        return
    _expect(isinstance(v, list) and shape[0] in (None, len(v)), path,
            f"expected a list of {shape[0] or 'any number of'} entries, got {v!r}")
    for i, x in enumerate(v):
        _check_numbers(x, f"{path}[{i}]", shape[1:])


def _basis_size(n: int, m: int) -> int:
    """C(n + m - 1, n), or the first partial product past fock.MAX_PATTERNS.

    The products C(a + i, i), a = max(n, m - 1), grow with i, so the loop
    stops early however large n and m are.
    """
    a, size = max(n, m - 1), 1
    for i in range(1, min(n, m - 1) + 1):
        size = size * (a + i) // i
        if size > fock.MAX_PATTERNS:
            break
    return size


def _occupation(v, path: str) -> tuple:
    _expect(isinstance(v, list) and v and all(
        isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in v),
        path, f"expected a list of non-negative integers, got {v!r}")
    return tuple(v)


def _species_list(v, path: str) -> tuple:
    _expect(isinstance(v, list), path, f"expected a list of patterns, got {v!r}")
    return tuple(_occupation(s, f"{path}[{i}]") for i, s in enumerate(v))


def _parse_model(v, path: str):
    """A model name, or an object that holds exactly one of species and mixture."""
    if isinstance(v, str):
        _expect(v in (fock.MODEL_INDISTINGUISHABLE, fock.MODEL_DISTINGUISHABLE),
                path, f"unknown model name {v!r}")
        return v
    _expect(isinstance(v, dict) and ("species" in v or "mixture" in v), path,
            f"expected a model name, species or mixture, got {v!r}")
    if "species" in v:
        return _species_list(_object(v, ("species",), path)["species"], f"{path}.species")
    mixture = _object(v, ("mixture",), path)["mixture"]
    _expect(isinstance(mixture, list), f"{path}.mixture",
            f"expected a list of [weight, species-list], got {mixture!r}")
    comps = []
    for i, item in enumerate(mixture):
        _expect(isinstance(item, list) and len(item) == 2,
                f"{path}.mixture[{i}]", "expected [weight, species-list]")
        comps.append((_number(item[0], f"{path}.mixture[{i}][0]"),
                      _species_list(item[1], f"{path}.mixture[{i}][1]")))
    return _checked(f"{path}.mixture", fock.Mixture, tuple(comps))


def _parse_hamiltonians(d, path: str) -> list[hamiltonian.HamiltonianSpec]:
    _object(d, ("kind", "modes", "coupling", "seed", "seeds", "periodic", "matrix"), path)
    modes = _get(d, "modes", path, _integer, required=True)
    _expect(modes * modes <= fock.MAX_PATTERNS, f"{path}.modes",
            f"{modes} modes give a unitary of {modes}^2 entries, more than the ceiling "
            f"of {fock.MAX_PATTERNS}")
    # checked, not converted: an integer coupling keeps its resolved form and digest
    _get(d, "coupling", path, _number)
    if d.get("matrix") is not None:
        _check_numbers(d["matrix"], f"{path}.matrix", (modes, modes, 2))
    _expect("kind" in d, f"{path}.kind", "missing required value")
    seeds = d.get("seeds")
    if seeds is None:
        seeds = [d.get("seed")]
    else:
        _expect("seed" not in d, f"{path}.seeds", "give either seed or seeds, not both")
        _expect(d["kind"] == "long_range", f"{path}.seeds",
                "a seed list only makes sense for kind long_range")
        _expect(isinstance(seeds, list) and seeds and all(isinstance(s, int) for s in seeds),
                f"{path}.seeds", f"expected a non-empty list of integers, got {seeds!r}")
    return [_checked(path, hamiltonian.HamiltonianSpec.from_dict, {**d, "seed": s})
            for s in seeds]


def _parse_source(d, path: str) -> apparatus.SourceModel:
    from . import apparatus
    numbers = ("squeezing", "pump_power", "heralding_efficiency")
    _object(d, numbers + ("pairwise_visibilities",), path)
    for key in numbers:
        _get(d, key, path, _number)
    vis = d.get("pairwise_visibilities", [])
    _expect(isinstance(vis, list), f"{path}.pairwise_visibilities",
            f"expected a list of [[i, j], visibility], got {vis!r}")
    for i, item in enumerate(vis):
        at = f"{path}.pairwise_visibilities[{i}]"
        _expect(isinstance(item, list) and len(item) == 2, at,
                f"expected [[i, j], visibility], got {item!r}")
        _expect(len(_occupation(item[0], f"{at}[0]")) == 2, f"{at}[0]",
                f"expected a pair of photon indices, got {item[0]!r}")
        _number(item[1], f"{at}[1]")
    # a given list names each pair of the three heralded photons once, in either order
    pairs = sorted(tuple(sorted(pair)) for pair, _ in vis)
    _expect("pairwise_visibilities" not in d or pairs == [(0, 1), (0, 2), (1, 2)],
            f"{path}.pairwise_visibilities",
            f"expected the pairs (0, 1), (0, 2) and (1, 2) once each, got {pairs}")
    return _checked(path, apparatus.SourceModel, **d)


def _parse_detection(d, path: str) -> apparatus.DetectionModel:
    from . import apparatus
    numbers = ("dark_count_prob", "blinding_slope", "blinding_intercept")
    _object(d, ("weights",) + numbers, path)
    _get(d, "weights", path, _check_numbers, required=True,
         shape=(None, apparatus.CHANNELS_PER_MODE))
    for key in numbers:
        _get(d, key, path, _number)
    return _checked(path, apparatus.DetectionModel, **d)


def _parse_apparatus(d, path: str) -> apparatus.Apparatus:
    """The apparatus block; source and detection numbers are checked, not converted."""
    from . import apparatus
    _object(d, ("source", "detection", "mesh_jitter"), path)
    parts = {key: parse(d[key], f"{path}.{key}")
             for key, parse in (("source", _parse_source), ("detection", _parse_detection))
             if d.get(key) is not None}
    jitter = _get(d, "mesh_jitter", path, _number, default=0.0)
    # a Gaussian of width pi already spreads a crossing angle over the whole circle
    _expect(0.0 <= jitter <= math.pi, f"{path}.mesh_jitter",
            f"must lie in [0, pi], got {jitter}")
    return apparatus.Apparatus(**parts, mesh_jitter=jitter)


@record
class ExperimentConfig:
    """Validated run description with every default resolved."""

    specs: tuple
    input_occ: tuple
    times: tuple
    model: object
    shots: int
    seed: int
    app: apparatus.Apparatus | None
    eps1: float | None
    eps2: float | None
    split: int
    epsilon_grid: tuple
    resolved: dict

    def digest(self) -> str:
        return sha256(
            json.dumps(self.resolved, sort_keys=True).encode()).hexdigest()[:12]


def load_config(path, seed_override=None) -> ExperimentConfig:
    """Parse and validate a config file; flag overrides are applied before hashing."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ConfigError(f"config: invalid JSON: {exc}") from None
    _expect(isinstance(raw, dict), "config", "top level must be an object")
    _object(raw, ("hamiltonian", "times", "input", "model", "shots", "seed", "apparatus",
                  "certification"), "config")

    specs = _parse_hamiltonians(raw.get("hamiltonian"), "config.hamiltonian")
    m = specs[0].modes
    _expect(all(s.modes == m for s in specs), "config.hamiltonian", "mode counts differ")

    times = _get(raw, "times", "config", _entries, default=(0.0,))
    for spec in specs:
        bound = hamiltonian.eigenvalue_bound(spec)
        _expect(math.isfinite(bound), "config.hamiltonian",
                "the generator's largest absolute row sum overflows")
        for i, t in enumerate(times):
            _expect(abs(t) * bound <= MAX_PHASE, f"config.times[{i}]",
                    f"phase |t| * |H| = {abs(t) * bound:.3g} exceeds the ceiling of "
                    f"{MAX_PHASE:.0e}; exp(-iHt) would keep fewer than four digits")

    input_occ = _get(raw, "input", "config", _occupation, default=(1,) * (m - 1) + (0,))
    _expect(len(input_occ) == m, "config.input", f"expected {m} modes, got {len(input_occ)}")
    n = sum(input_occ)
    _expect(_basis_size(n, m) <= fock.MAX_PATTERNS, "config.input",
            f"{n} photons in {m} modes give C({n + m - 1}, {n}) output patterns, "
            f"more than the ceiling of {fock.MAX_PATTERNS}")

    model = _get(raw, "model", "config", _parse_model, default=fock.MODEL_INDISTINGUISHABLE)
    _checked("config.model", fock._resolve_model, model, input_occ, m)
    shots = _get(raw, "shots", "config", _integer, default=1000, minimum=1)
    _expect(shots <= MAX_SHOTS, "config.shots", f"must be <= {MAX_SHOTS}, got {shots}")
    seed = _get(raw, "seed", "config", _integer, default=0, minimum=0)
    if seed_override is not None:
        seed = int(seed_override)
        _expect(seed >= 0, "--seed", f"must be >= 0, got {seed}")

    app = None
    if raw.get("apparatus") is not None:
        from . import apparatus
        app = _parse_apparatus(raw["apparatus"], "config.apparatus")
        det = app.detection
        _expect(app.is_trivial() or shots <= MAX_APPARATUS_SHOTS, "config.shots",
                f"an apparatus run samples every shot; {shots} is more than the ceiling "
                f"of {MAX_APPARATUS_SHOTS}")
        if app.source is not None:
            _checked("config.input", apparatus._check_source_input, input_occ)
            _checked("config.apparatus.source", apparatus._useful_weights, app.source, n,
                     apparatus._has_floor(det))
            if "pairwise_visibilities" in raw["apparatus"]["source"]:
                _expect("model" not in raw, "config.model", "the source's "
                        "pairwise_visibilities set the model; give one or the other")
                model = apparatus.distinguishability_mixture(app.source, input_occ)
        if det is not None:
            _expect(det.modes == m, "config.apparatus.detection.weights",
                    f"expected channel weights for {m} modes, got {det.modes}")
            live = sum(w > 0.0 for row in det.weights for w in row)
            _expect(det.dark_count_prob > 0.0 or live >= n, "config.apparatus.detection",
                    f"{live} channels with positive weight and no dark counts "
                    f"never give {n} clicks")

    eps1 = eps2 = None
    split = 1
    grid = DEFAULT_EPSILON_GRID
    if raw.get("certification") is not None:
        from . import certify
        at = "config.certification"
        cert = _object(raw["certification"], ("eps1", "eps2", "split", "epsilon_grid"), at)
        top = min(certify.LAMBDA_MAX_PHOTONS, m)
        _expect(2 <= n <= top, "config.input",
                f"certification needs 2..{top} photons on {m} modes, got {n}")
        eps1 = _get(cert, "eps1", at, _fraction, required=True)
        eps2 = _get(cert, "eps2", at, _fraction, required=True)
        split = _get(cert, "split", at, _integer, default=1, minimum=1)
        _expect(split < m, f"{at}.split", f"bipartition must leave modes on both sides of {m}")
        grid = _get(cert, "epsilon_grid", at, _entries, default=DEFAULT_EPSILON_GRID,
                    entry=_fraction)

    if eps1 is not None or any(s.kind == "long_range" for s in specs):
        # the command seeds generators or draws a Haar unitary: load numpy.random with the config
        import numpy.random  # noqa: F401

    resolved = {
        "version": __version__,
        "hamiltonian": [s.to_dict() for s in specs],
        "input": list(input_occ),
        "times": list(times),
        "model": fock.model_tag(model),
        "shots": shots,
        "seed": seed,
        "apparatus": None if app is None else {
            "source": None if app.source is None else app.source.to_dict(),
            "detection": None if app.detection is None else app.detection.to_dict(),
            "mesh_jitter": app.mesh_jitter,
        },
        "certification": None if eps1 is None else {
            "eps1": eps1, "eps2": eps2, "split": split, "epsilon_grid": list(grid),
        },
    }
    return ExperimentConfig(specs=tuple(specs), input_occ=input_occ, times=times,
                            model=model, shots=shots, seed=seed, app=app,
                            eps1=eps1, eps2=eps2, split=split,
                            epsilon_grid=grid, resolved=resolved)


# ---------------------------------------------------------------------------
# Output plumbing


def _build_run_dir(base, command: str, cfg: ExperimentConfig, force: bool, build) -> Path:
    """Run build(cfg, directory) in a temporary sibling, then move it to <command>-<digest>.

    A failed build leaves no directory behind; with force an existing run
    directory is replaced only once the new one is complete.
    """
    run = Path(base) / f"{command}-{cfg.digest()}"
    if run.exists() and not force:
        raise OSError(f"run directory {run} exists; pass --force to overwrite")
    partial = run.with_name(f".{run.name}.{os.getpid()}.partial")
    shutil.rmtree(partial, ignore_errors=True)
    partial.mkdir(parents=True)
    try:
        build(cfg, partial)
        if run.exists():
            shutil.rmtree(run)
        os.replace(partial, run)
    finally:
        shutil.rmtree(partial, ignore_errors=True)
    return run


def _write_json(path: Path, payload: dict, cfg: ExperimentConfig):
    body = {"config": cfg.resolved, **payload}
    with path.open("w") as fh:
        json.dump(body, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _csv_preamble(cfg: ExperimentConfig) -> list[str]:
    """The two comment lines that open every CSV of a run; a command builds them once."""
    return [f"# config-digest: {cfg.digest()}", f"# config: {json.dumps(cfg.resolved, sort_keys=True)}"]


def _write_csv(path: Path, preamble: list[str], header: str, blocks):
    """Write the preamble and the header as lines, then each str of blocks as it comes.

    Each block is finished CSV text, whole lines of at most fock.CSV_BLOCK
    rows (see _rows and fock.FockDistribution.csv_blocks), so a file is
    never held whole.
    """
    with path.open("w") as fh:
        fh.write("\n".join([*preamble, header, ""]))
        for block in blocks:
            fh.write(block)


def _rows(template: str, *columns):
    """CSV text of the rows zip(*columns), one template % per fock.CSV_BLOCK rows.

    template formats one row, newline included; columns are equal-length
    lists, sliced block by block.
    """
    for lo in range(0, len(columns[0]), fock.CSV_BLOCK):
        cells = tuple(itertools.chain.from_iterable(
            zip(*(column[lo:lo + fock.CSV_BLOCK] for column in columns))))
        yield (template * (len(cells) // len(columns))) % cells


def _write_law(path: Path, preamble: list[str], law: fock.FockDistribution):
    _write_csv(path, preamble, "pattern,probability", law.csv_blocks())


def _usable_cores() -> int:
    """The cores this process may run on, or 1 where the platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return 1 if affinity is None else len(affinity(0))


def _fork_shares(jobs: list, procs: int, work) -> None:
    """Call work on each share jobs[k::procs], k < procs: share 0 here, the others in forked workers.

    A worker leaves only by os._exit: 0, or 1 after printing its error. It
    never unwinds into the caller, whose cleanup (_build_run_dir's finally)
    would remove the directory this process is still building. Every
    worker is reaped before this returns or raises, and a failed worker
    raises OSError here.

    Workers are forked, not spawned: a fresh interpreter would import numpy
    again (about 150 ms), more than a large run's whole write. The CLI
    starts no thread of its own, and OpenBLAS stops its pool before a fork.
    """
    pids = []
    try:
        for k in range(1, procs):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    work(jobs[k::procs])
                    code = 0
                except BaseException as exc:
                    print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
                finally:
                    os._exit(code)
            pids.append(pid)
        work(jobs[::procs])
    finally:
        failed = sum(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) != 0 for pid in pids)
    if failed:
        raise OSError(f"{failed} of {len(pids)} forked law writers failed")


def _spec_tag(cfg: ExperimentConfig, idx: int) -> str:
    return f"h{idx:02d}" if len(cfg.specs) > 1 else "h"


def _derived_seed(cfg: ExperimentConfig, *branch: int) -> int:
    return int(np.random.SeedSequence((cfg.seed,) + branch).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Subcommands


def cmd_evolve(cfg: ExperimentConfig, run: Path) -> None:
    """Exact output laws per Hamiltonian and time, with the ideal reference, one CSV per law.

    Each law is one job: compute it and write its CSV; with the
    indistinguishable model the law is its own reference, and the job also
    copies it to _exact.csv. Every JSON and every evolution (the only
    LAPACK calls) come first, then the basis's levels; then the jobs are
    split over _fork_shares's processes, one law in memory per process. A
    law that cannot be computed or written fails the run as an OSError
    naming its CSV.
    """
    preamble = _csv_preamble(cfg)
    jobs = []
    for si, spec in enumerate(cfg.specs):
        tag = _spec_tag(cfg, si)
        for ti, (t, u) in enumerate(zip(cfg.times, hamiltonian.evolution(spec, cfg.times))):
            stem = f"evolve_{tag}_t{ti:03d}"
            _write_json(run / f"{stem}.json", {"hamiltonian": spec.to_dict(), "t": t}, cfg)
            if cfg.model == fock.MODEL_INDISTINGUISHABLE:
                jobs.append(((f"{stem}.csv", f"{stem}_exact.csv"), u, cfg.model))
            else:
                jobs.append(((f"{stem}.csv",), u, cfg.model))
                jobs.append(((f"{stem}_exact.csv",), u, fock.MODEL_INDISTINGUISHABLE))

    def write(share):
        for names, u, model in share:
            try:
                _write_law(run / names[0], preamble,
                           fock.output_distribution(u, cfg.input_occ, model))
                for name in names[1:]:
                    shutil.copyfile(run / names[0], run / name)
            except Exception as exc:
                raise OSError(f"{names[0]}: {exc}") from exc

    n, m = fock.total(cfg.input_occ), cfg.specs[0].modes
    fock._levels(n, m)   # every level and gather map, built once here for the forked writers
    procs = min(len(jobs), _usable_cores()) if _basis_size(n, m) >= FORK_MIN_PATTERNS else 1
    _fork_shares(jobs, procs, write)


def cmd_gge(cfg: ExperimentConfig, run: Path) -> None:
    """Marginal traces and distances to the stationary reference, per transition law.

    Each Hamiltonian's marginals of every law come from one stacked pass
    (gge._marginals), and its CSV rows straight from those arrays.
    """
    from . import gge  # loaded by main before load_config
    n = fock.total(cfg.input_occ)
    ref = gge.gge_marginal(n, cfg.specs[0].modes).probs
    preamble = _csv_preamble(cfg)
    _write_csv(run / "gge_reference.csv", preamble, "k,probability",
               _rows("%d,%r\n", range(n + 1), ref.tolist()))
    # the marginal CSVs' t and k columns, one row per time and count
    ts, ks = np.repeat(cfg.times, n + 1).tolist(), list(range(n + 1)) * len(cfg.times)
    models: list = [fock.MODEL_INDISTINGUISHABLE, fock.MODEL_DISTINGUISHABLE]
    if not isinstance(cfg.model, str):
        models.append(cfg.model)
    for si, spec in enumerate(cfg.specs):
        tag = _spec_tag(cfg, si)
        margs = gge._marginals(spec, cfg.input_occ, cfg.times, models)
        dists = 0.5 * np.sum(np.abs(margs - ref), axis=-1)
        for model, marg, dist in zip(models, margs, dists.tolist()):
            name = model if isinstance(model, str) else "mixture"
            _write_csv(run / f"gge_{tag}_{name}_marginal.csv", preamble, "t,k,probability",
                       _rows("%r,%d,%r\n", ts, ks, marg.ravel().tolist()))
            _write_csv(run / f"gge_{tag}_{name}_tvd.csv", preamble, "t,tvd",
                       _rows("%r,%r\n", cfg.times, dist))


def cmd_certify(cfg: ExperimentConfig, run: Path) -> None:
    """Certification records per time step plus the batch convergence trace.

    One certify call per Hamiltonian runs all its time steps, each with its own derived seed.
    main refuses a config without a certification block before any directory is made.
    """
    from . import certify  # loaded by load_config along with the certification block
    preamble = _csv_preamble(cfg)
    for si, spec in enumerate(cfg.specs):
        tag = _spec_tag(cfg, si)
        seeds = [_derived_seed(cfg, si, ti) for ti in range(len(cfg.times))]
        results = certify.certify(spec, cfg.times, cfg.model, cfg.shots, seeds, cfg.eps1,
                                  cfg.eps2, cfg.app, cfg.split, cfg.input_occ)
        for ti, (t, seed, res) in enumerate(zip(cfg.times, seeds, results)):
            grid = []
            for eps in cfg.epsilon_grid:
                g = certify.fidelity_bound(res.p1, res.k1, res.p2, res.k2, res.lambdas,
                                           eps, eps, witness=res.witness_threshold)
                grid.append({"epsilon_label": eps, "epsilon_product": eps * eps,
                             "delta": g.delta, "f_lower": g.f_lower,
                             "entangled": g.entangled})
            stem = f"certify_{tag}_t{ti:03d}"
            _write_json(run / f"{stem}.json", {
                "hamiltonian": spec.to_dict(), "t": t, "derived_seed": seed,
                "result": res.to_dict(), "epsilon_grid": grid,
            }, cfg)
            ks, p1, p2, f_lower = zip(*res.convergence)
            _write_csv(run / f"{stem}_convergence.csv", preamble,
                       "samples,inv_sqrt_samples,p1,p2,f_lower",
                       _rows("%d,%r,%r,%r,%r\n", ks, (1.0 / np.sqrt(ks)).tolist(), p1, p2,
                             f_lower))


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="photherm",
        description="Few-photon thermalization and certification experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("evolve", "exact output distributions over time"),
                           ("gge", "single-mode marginals vs the stationary reference"),
                           ("certify", "two-setting fidelity and entanglement bounds")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="parent directory for run outputs")
        p.add_argument("--force", action="store_true", help="replace an existing run directory")
    sub.add_parser("selftest", help="run the built-in oracle checks")
    args = parser.parse_args(argv)
    # numpy.random imports bit_generator -> secrets -> hmac -> hashlib -> _hashlib, and
    # _hashlib maps OpenSSL's libcrypto (about 3.6 MB resident). numpy only calls
    # secrets.randbits (os.urandom), and hmac and hashlib fall back to the interpreter's
    # built-in hashes when _hashlib cannot be imported. main owns its process, so it
    # blocks _hashlib here; library callers keep theirs, and setdefault leaves alone a
    # _hashlib that is already loaded.
    sys.modules.setdefault("_hashlib", None)

    if args.command == "selftest":
        from . import selftest
        failures = selftest.run()
        if failures:
            print(f"{failures} check(s) failed")
            return 3
        print("all checks passed")
        return 0

    if args.command == "gge":
        from . import gge  # noqa: F401  cmd_gge's layer: a run loads nothing after load_config
    try:
        cfg = load_config(args.config, seed_override=args.seed)
        _expect(args.command == "certify" or cfg.app is None or cfg.app.is_trivial(),
                "config.apparatus", f"{args.command} computes the laws of the ideal chip; a "
                "source, detection model or mesh jitter is used only by certify")
        _expect(args.command != "certify" or cfg.eps1 is not None, "config.certification",
                "required for the certify command")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    build = {"evolve": cmd_evolve, "gge": cmd_gge, "certify": cmd_certify}[args.command]
    # only apparatus's event stream raises AcceptanceError, and load_config has loaded
    # apparatus for every run that can reach it
    apparatus = sys.modules.get(f"{__package__}.apparatus")
    errors = (ConfigError,) if apparatus is None else (ConfigError, apparatus.AcceptanceError)
    try:
        run = _build_run_dir(args.out, args.command, cfg, args.force, build)
    except errors as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
