import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photherm import apparatus, certify, cli, fock, hamiltonian, linalg


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "hamiltonian": {"kind": "hopping", "modes": 4},
        "times": [0.0, 1.0],
        "model": "indistinguishable",
        "shots": 200,
        "seed": 11,
        "certification": {"eps1": 0.9, "eps2": 0.9},
    }
    cfg.update(overrides)
    file = path / "config.json"
    file.write_text(json.dumps(cfg))
    return file


def read_tree(run: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(run.iterdir())}


SELFTEST_CHECKS = [
    "permanent-vs-naive-sum", "unitary-log-exp-round-trip",
    "two-photon-coincidence-suppression", "fourier-suppressed-patterns", "engine-vs-permanent",
    "class-weight-exact-2+1", "class-weight-sampled-2+1", "class-weight-exact-1+1+1",
    "class-weight-sampled-1+1+1", "estimators-vs-membership", "certify-record",
    "stationary-marginal-values",
]


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[1] for line in lines[:-1]] == SELFTEST_CHECKS
    assert all(line.startswith("PASS  ") for line in lines[:-1])
    assert lines[-1] == "all checks passed"


def test_selftest_reports_a_raising_check_and_runs_the_rest(capsys, monkeypatch):
    def broken(u, tol=1e-10):
        raise ValueError("eigenvectors do not diagonalize the unitary")

    monkeypatch.setattr(linalg, "logm_unitary", broken)
    assert cli.main(["selftest"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert ("FAIL  unitary-log-exp-round-trip  "
            "ValueError: eigenvectors do not diagonalize the unitary") in lines
    assert sum(line.startswith("FAIL") for line in lines) == 1
    assert any(line.startswith("PASS  stationary-marginal-values") for line in lines)
    assert lines[-1] == "1 check(s) failed"


def test_evolve_outputs_and_reference(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    runs = list((tmp_path / "out").iterdir())
    assert len(runs) == 1
    names = {p.name for p in runs[0].iterdir()}
    assert names == {"evolve_h_t000.csv", "evolve_h_t000.json", "evolve_h_t000_exact.csv",
                     "evolve_h_t001.csv", "evolve_h_t001.json", "evolve_h_t001_exact.csv"}
    body = json.loads((runs[0] / "evolve_h_t001.json").read_text())
    assert body["config"]["seed"] == 11
    assert body["t"] == 1.0
    assert set(body) == {"config", "hamiltonian", "t"}
    first_csv = (runs[0] / "evolve_h_t001.csv").read_text().splitlines()
    assert first_csv[0].startswith("# config-digest:")
    assert first_csv[2] == "pattern,probability"


@pytest.mark.parametrize("model", ["distinguishable", "indistinguishable"])
def test_evolve_csvs_hold_the_exact_laws(tmp_path, model):
    """Each CSV parses back to the engine's law bit for bit; the JSON holds no copy."""
    config = write_config(tmp_path, hamiltonian={"kind": "long_range", "modes": 5, "seed": 3},
                          input=[1, 1, 1, 0, 0], times=[0.3, 1.1], model=model)
    assert cli.main(["evolve", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    run = next((tmp_path / "out").iterdir())
    cfg = cli.load_config(config)
    for ti, t in enumerate(cfg.times):
        u = hamiltonian.evolution(cfg.specs[0], t)
        for suffix, law in (("", model), ("_exact", fock.MODEL_INDISTINGUISHABLE)):
            rows = [line.split(",") for line in
                    (run / f"evolve_h_t{ti:03d}{suffix}.csv").read_text().splitlines()[3:]]
            want = fock.output_distribution(u, cfg.input_occ, law)
            assert tuple(tuple(int(c) for c in p.split("|")) for p, _ in rows) == want.basis
            parsed = fock.FockDistribution(want.n, want.m, [float(q) for _, q in rows])
            assert np.array_equal(parsed.probs, want.probs)


SCIPY_FREE = """
import json, sys, tempfile
from pathlib import Path
sys.modules["scipy"] = None  # any scipy import now fails
import numpy as np
from photherm import cli, gge, hamiltonian
assert not [k for k, v in sys.modules.items() if k.split(".")[0] == "scipy" and v is not None]
with tempfile.TemporaryDirectory() as tmp:
    config = Path(tmp) / "config.json"
    config.write_text(json.dumps({"hamiltonian": {"kind": "long_range", "modes": 4, "seed": 5},
                                  "times": [0.7]}))
    assert cli.main(["evolve", "--config", str(config), "--out", str(Path(tmp) / "out")]) == 0
ring = hamiltonian.HamiltonianSpec(kind="hopping", modes=4)
t_rec = gge.recurrence_time(ring, (1, 1, 1, 0))
assert abs(t_rec - np.pi / 2) < 1e-6, t_rec
"""


def test_cli_runs_without_scipy():
    """With scipy unimportable, a long-range evolve and a recurrence scan still run."""
    src = str(Path(cli.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", SCIPY_FREE], check=True,
                   env={**os.environ, "PYTHONPATH": src})


LAZY_LAYERS = """
import sys, tempfile, json
from pathlib import Path
import photherm
assert not [k for k in sys.modules if k.startswith("photherm.")], sorted(sys.modules)
from photherm import cli
command = sys.argv[1]
raw = {"hamiltonian": {"kind": "hopping", "modes": 4}, "times": [0.0, 1.0]}
if command == "certify":
    raw.update(shots=100, certification={"eps1": 0.9, "eps2": 0.9})
else:
    raw["model"] = "distinguishable"
load_config = cli.load_config


def checked_load_config(*args, **kwargs):
    cfg = load_config(*args, **kwargs)
    assert ("photherm.gge" in sys.modules) == (command == "gge"), command
    return cfg


cli.load_config = checked_load_config
with tempfile.TemporaryDirectory() as tmp:
    config = Path(tmp) / "config.json"
    config.write_text(json.dumps(raw))
    assert cli.main([command, "--config", str(config), "--out", str(Path(tmp) / "out")]) == 0
unused = {"photherm.apparatus", "photherm.selftest", "dataclasses"}
if command != "gge":
    unused.add("photherm.gge")
if command != "certify":
    unused |= {"photherm.certify", "hashlib"}
loaded = unused & set(sys.modules)
assert not loaded, loaded
assert sys.modules.get("_hashlib") is None
if command == "certify":
    assert "numpy.random" in sys.modules
    if sys.platform.startswith("linux"):
        with open("/proc/self/maps") as maps:
            mapped = [line for line in maps if "libcrypto" in line]
        assert not mapped, mapped
"""


def test_evolve_and_gge_load_no_apparatus_certify_or_selftest():
    """A bare import loads no module; each command loads none it does not run.

    Ring evolve, gge and certify runs, each in its own process, load neither
    apparatus, selftest nor dataclasses, and only the gge run loads gge, by
    the time load_config returns. Ring evolve and gge runs leave hashlib,
    and with it OpenSSL, unloaded. A certify run without an apparatus block
    loads numpy.random, whose hashlib then takes the interpreter's built-in
    hashes: _hashlib stays blocked and, on Linux, no libcrypto is mapped.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    for command in ("evolve", "gge", "certify"):
        subprocess.run([sys.executable, "-c", LAZY_LAYERS, command], check=True,
                       env={**os.environ, "PYTHONPATH": src})


HASHLIB_BLOCK_SCOPE = """
import json, sys, tempfile
from pathlib import Path
case = sys.argv[1]
if case == "hashlib-first":
    import hashlib
    openssl = sys.modules.get("_hashlib")
    if openssl is None:
        sys.exit("no OpenSSL hashlib on this interpreter")
from photherm import cli
with tempfile.TemporaryDirectory() as tmp:
    config = Path(tmp) / "config.json"
    config.write_text(json.dumps({"hamiltonian": {"kind": "hopping", "modes": 4},
                                  "times": [0.5], "shots": 100,
                                  "certification": {"eps1": 0.9, "eps2": 0.9}}))
    if case == "hashlib-first":
        assert cli.main(["certify", "--config", str(config), "--out", str(Path(tmp) / "out")]) == 0
        assert sys.modules["_hashlib"] is openssl
    else:
        cli.load_config(config)
        assert "numpy.random" in sys.modules
        assert sys.modules.get("_hashlib", False) is not None
"""


@pytest.mark.parametrize("case", ["hashlib-first", "load-config-only"])
def test_only_the_cli_blocks_openssl_and_never_unloads_it(case):
    """cli.main blocks _hashlib only where it is not loaded yet, and load_config never does.

    A host process that imported hashlib keeps OpenSSL's module through a
    certify run; a library caller of load_config keeps its own hashlib.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", HASHLIB_BLOCK_SCOPE, case], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    if done.stderr.startswith("no OpenSSL hashlib"):
        pytest.skip(done.stderr.strip())
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("raw", [
    {"hamiltonian": {"kind": "hopping", "modes": 4}},
    {"hamiltonian": {"kind": "long_range", "modes": 5, "seed": 3}, "input": [1, 1, 0, 0, 0],
     "times": [0.3, 1.1], "model": "distinguishable"},
    {"hamiltonian": {"kind": "hopping", "modes": 4}, "times": [0.5], "shots": 100, "seed": 7,
     "certification": {"eps1": 0.9, "eps2": 0.8}},
])
def test_digest_is_the_sha256_of_the_resolved_config(tmp_path, raw):
    import hashlib
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    cfg = cli.load_config(config)
    want = hashlib.sha256(json.dumps(cfg.resolved, sort_keys=True).encode()).hexdigest()[:12]
    assert cfg.digest() == want


HASHLIB_FALLBACK = """
import json, sys, tempfile
from pathlib import Path
sys.modules["_sha2"] = sys.modules["_sha256"] = None  # no built-in sha256
from photherm import cli
import hashlib
assert cli.sha256 is hashlib.sha256, cli.sha256
with tempfile.TemporaryDirectory() as tmp:
    config = Path(tmp) / "config.json"
    config.write_text(sys.argv[1])
    assert cli.main(["gge", "--config", str(config), "--out", str(Path(tmp) / "out")]) == 0
    print(next((Path(tmp) / "out").iterdir()).name)  # last line, after cli.main's own
"""


def test_a_run_without_the_built_in_sha256_takes_hashlib_and_the_same_directory(tmp_path):
    body = json.dumps({"hamiltonian": {"kind": "hopping", "modes": 4}, "times": [0.0, 1.0]})
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", HASHLIB_FALLBACK, body], check=True,
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    config = tmp_path / "config.json"
    config.write_text(body)
    assert cli.main(["gge", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert done.stdout.split()[-1] == next((tmp_path / "out").iterdir()).name


NO_LOAD_DURING_RUN = """
import sys, tempfile, json
from pathlib import Path
from photherm import cli
load_config, loaded = cli.load_config, []


def recorded_load_config(*args, **kwargs):
    cfg = load_config(*args, **kwargs)
    loaded.append(set(sys.modules))
    return cfg


cli.load_config = recorded_load_config
ring, app = {"kind": "hopping", "modes": 4}, {
    "source": {"squeezing": 0.3, "heralding_efficiency": 0.9},
    "detection": {"weights": [[0.3, 0.3, 0.3]] * 4}, "mesh_jitter": 0.05}
cert = {"eps1": 0.9, "eps2": 0.9}
runs = [("gge", {"hamiltonian": ring, "times": [0.0, 1.0]}),
        ("evolve", {"hamiltonian": {"kind": "long_range", "modes": 4, "seed": 3}, "times": [1.0]}),
        ("certify", {"hamiltonian": ring, "times": [0.5], "shots": 100, "certification": cert}),
        ("certify", {"hamiltonian": ring, "times": [0.5], "shots": 100, "certification": cert,
                     "apparatus": app})]
with tempfile.TemporaryDirectory() as tmp:
    config = Path(tmp) / "config.json"
    for command, raw in runs:
        config.write_text(json.dumps(raw))
        assert cli.main([command, "--config", str(config), "--out", str(Path(tmp) / "out")]) == 0
        during = set(sys.modules) - loaded.pop()
        assert not during, (command, sorted(during))
        if command == "gge":
            assert "numpy.random" not in sys.modules
"""


def test_commands_load_no_module_after_load_config():
    """Every module a command runs is loaded by the time load_config returns.

    numpy.random loads with a config that draws or seeds (a certification
    block or a long_range Hamiltonian), and not for a ring gge run.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", NO_LOAD_DURING_RUN], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_package_resolves_its_layers_as_attributes():
    import photherm
    for name in ("apparatus", "certify", "fock", "gge", "hamiltonian", "linalg"):
        assert getattr(photherm, name) is sys.modules[f"photherm.{name}"]
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        photherm.nonexistent  # noqa: B018


def test_certify_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    """Fresh interpreters with one and two OpenBLAS threads write the same run directory.

    The Schmidt witness takes one small SVD per photon-number block; one
    SVD of the whole 84 x 210 matrix here moved in its last digits with the
    thread count.
    """
    config = write_config(tmp_path, hamiltonian={"kind": "long_range", "modes": 7, "seed": 3},
                          times=[0.3], shots=1000,
                          certification={"eps1": 0.9, "eps2": 0.9, "split": 3})
    src = str(Path(cli.__file__).resolve().parents[1])
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        subprocess.run([sys.executable, "-m", "photherm.cli", "certify", "--config", str(config),
                        "--out", str(out)], check=True, capture_output=True,
                       env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads})
        trees.append(read_tree(next(out.iterdir())))
    assert trees[0] == trees[1]


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    for out in ("a", "b"):
        assert cli.main(["evolve", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
    run_a = next((tmp_path / "a").iterdir())
    run_b = next((tmp_path / "b").iterdir())
    assert run_a.name == run_b.name
    assert read_tree(run_a) == read_tree(run_b)


def test_existing_run_needs_force(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["evolve", "--config", str(cfg), "--out", out]) == 0
    assert cli.main(["evolve", "--config", str(cfg), "--out", out]) == 2
    assert cli.main(["evolve", "--config", str(cfg), "--out", out, "--force"]) == 0


def test_config_validation_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, times=[0.5, "x"])
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "config.times[1]" in capsys.readouterr().err


HUGE = 10**400  # a valid JSON integer that no float can hold
RING_INPUT = [1, 1, 1, 0]


@pytest.mark.parametrize("overrides, path", [
    ({"times": [0.5, float("nan")]}, "config.times[1]"),
    ({"times": [float("inf")]}, "config.times[0]"),
    ({"hamiltonian": {"kind": "hopping", "modes": 4, "periodic": "no"}}, "config.hamiltonian"),
    ({"times": [HUGE]}, "config.times[0]"),
    ({"certification": {"eps1": HUGE, "eps2": 0.9}}, "config.certification.eps1"),
    ({"certification": {"eps1": 0.9, "eps2": True}}, "config.certification.eps2"),
    ({"certification": {"eps1": 0.9, "eps2": 0.9, "epsilon_grid": ["a"]}},
     "config.certification.epsilon_grid[0]"),
    ({"apparatus": {"mesh_jitter": HUGE}}, "config.apparatus.mesh_jitter"),
    ({"hamiltonian": {"kind": "hopping", "modes": 4, "coupling": float("nan")}},
     "config.hamiltonian.coupling"),
    ({"hamiltonian": {"kind": "hopping", "modes": 4, "coupling": "1"}},
     "config.hamiltonian.coupling"),
    ({"model": {"mixture": [["0.5", [RING_INPUT]], [0.5, [RING_INPUT]]]}},
     "config.model.mixture[0][0]"),
    ({"model": {"mixture": [[True, [RING_INPUT]]]}}, "config.model.mixture[0][0]"),
    ({"model": {"species": [[1, 0, 0, 0], [0, 1, 0, 0]]}}, "config.model"),
    ({"model": {"species": []}}, "config.model"),
    ({"model": {"species": 5}}, "config.model.species"),
    ({"model": {"mixture": [[1.0, 3]]}}, "config.model.mixture[0][1]"),
    ({"apparatus": {"mesh_jitter": 1e300}}, "config.apparatus.mesh_jitter"),
    ({"apparatus": {"mesh_jitter": 4.0}}, "config.apparatus.mesh_jitter"),
    ({"hamiltonian": {"kind": "hopping", "modes": 4.0}}, "config.hamiltonian.modes"),
    ({"input": [True, True, True, False]}, "config.input"),
    # evolve and gge compute the ideal chip's laws: a non-trivial apparatus is refused
    ({"apparatus": {"mesh_jitter": 0.3}}, "config.apparatus"),
    ({"apparatus": {"source": {"squeezing": 0.3, "heralding_efficiency": 0.9}}},
     "config.apparatus"),
    ({"apparatus": {"detection": {"weights": [[0.3, 0.3, 0.3]] * 4,
                                  "dark_count_prob": 0.01}}}, "config.apparatus"),
])
def test_config_rejects_nonfinite_times_and_nonbool_periodic(tmp_path, capsys, overrides, path):
    """Each malformed value exits 1 at its JSON path, with no traceback and no run directory."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, **overrides)
    for command in ("evolve", "gge"):
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:")
        assert "Traceback" not in err
        assert not out.exists()


def test_evolve_and_gge_accept_a_trivial_apparatus_block(tmp_path):
    """An apparatus block with no source, no detection model and no jitter changes nothing."""
    out = tmp_path / "out"
    for i, block in enumerate(({}, {"source": None, "detection": None, "mesh_jitter": 0.0})):
        cfg = write_config(tmp_path, times=[0.5], seed=i, apparatus=block)
        for command in ("evolve", "gge"):
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0


def test_config_rejects_a_basis_past_the_pattern_ceiling(tmp_path, capsys):
    """20 modes with the default 19 photons ask for C(38, 19) patterns: exit 1 at config.input."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, hamiltonian={"kind": "hopping", "modes": 20},
                       certification=None)
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config.input: 19 photons in 20 modes give C(38, 19)")
    assert str(fock.MAX_PATTERNS) in err
    assert "Traceback" not in err
    assert not out.exists()
    cfg = write_config(tmp_path, hamiltonian={"kind": "long_range", "modes": 12, "seed": 1},
                       input=[1] * 6 + [0] * 6, certification=None)
    assert cli.load_config(cfg).input_occ == (1,) * 6 + (0,) * 6


@pytest.mark.parametrize("block", [1, 2, 7])
def test_write_csv_joins_every_block_size(tmp_path, monkeypatch, block):
    """Rows formatted by _rows, one block at a time, are written as one join of all lines."""
    monkeypatch.setattr(fock, "CSV_BLOCK", block)
    preamble = ["# a", "# b"]
    for count in (0, 1, block - 1, block, block + 1):
        ks = list(range(count))
        xs = [k / 3 for k in ks]
        assert all(0 < text.count("\n") <= block for text in cli._rows("%d,%r\n", ks, xs))
        cli._write_csv(tmp_path / "t.csv", preamble, "k,x", cli._rows("%d,%r\n", ks, xs))
        want = "\n".join([*preamble, "k,x", *(f"{k},{x!r}" for k, x in zip(ks, xs))]) + "\n"
        assert (tmp_path / "t.csv").read_bytes() == want.encode()


def test_law_csv_is_the_per_row_join(tmp_path, monkeypatch):
    """A law's CSV, at any block size, is the per-row join of its counts and float reprs.

    The shapes take one- to three-digit counts (pad spaces where n >= 10),
    one mode (no '|') and no photons; the laws hold 0.0, 1.0 and 5e-324.
    """
    preamble = ["# a", "# b"]
    rng = np.random.default_rng(4)
    for n, m in ((0, 1), (0, 3), (5, 1), (3, 4), (10, 2), (12, 3), (99, 3), (150, 2), (6, 12)):
        basis = fock.enumerate_basis(n, m)
        picks = rng.permutation(len(basis))[:2]
        sharp = np.zeros(len(basis))
        sharp[picks] = [1.0, 5e-324][:picks.size]
        spread = rng.random(len(basis))
        for probs in (sharp, spread / spread.sum()):
            law = fock.FockDistribution(n, m, probs)
            rows = [f"{'|'.join(map(str, occ))},{p!r}" for occ, p in zip(basis, law.probs.tolist())]
            want = "\n".join([*preamble, "pattern,probability", *rows]) + "\n"
            for block in (1, 2, 7, 256):
                monkeypatch.setattr(fock, "CSV_BLOCK", block)
                cli._write_law(tmp_path / "law.csv", preamble, law)
                assert (tmp_path / "law.csv").read_bytes() == want.encode(), (n, m, block)


def test_evolve_writes_the_indistinguishable_law_once(tmp_path):
    """The indistinguishable law is its own reference: _exact.csv is a byte copy of the law."""
    config = write_config(tmp_path, hamiltonian={"kind": "long_range", "modes": 5, "seed": 3},
                          input=[1, 1, 1, 0, 0], times=[0.3], certification=None)
    assert cli.main(["evolve", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    run = next((tmp_path / "out").iterdir())
    cfg = cli.load_config(config)
    cli._write_law(tmp_path / "fresh.csv", cli._csv_preamble(cfg), fock.output_distribution(
        hamiltonian.evolution(cfg.specs[0], 0.3), cfg.input_occ))
    fresh = (tmp_path / "fresh.csv").read_bytes()
    assert (run / "evolve_h_t000.csv").read_bytes() == fresh
    assert (run / "evolve_h_t000_exact.csv").read_bytes() == fresh


def test_evolve_csv_writer_holds_no_whole_file(tmp_path):
    """Writing a 12,376-row law traces far less memory than the file's own size."""
    n, m = 6, 12
    u = linalg.haar_random(m, 5)
    law = fock.output_distribution(u, (1,) * n + (0,) * (m - n))
    path = tmp_path / "law.csv"
    cli._write_law(path, ["# a"], law)   # warm the basis and the writer's imports
    tracemalloc.start()
    try:
        cli._write_law(path, ["# a"], law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert law.probs.size == 12_376 and size > 500_000
    # 94 kB traced with 256-row blocks; a writer that joins the whole file traces 2.4 MB
    assert peak < 200_000, (peak, size)


def _count_forks(monkeypatch) -> list:
    """Wrap os.fork; the returned list gets the pid of each worker this process forks."""
    forks, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _cores(monkeypatch, count: int):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("model", ["indistinguishable", "distinguishable",
                                   {"species": [[1, 0, 0, 0], [0, 1, 0, 0]]}])
def test_evolve_writes_the_same_bytes_on_any_core_count(tmp_path, monkeypatch, model):
    """Each law is a job; min(jobs, cores) processes share them, and the files do not change."""
    cfg = write_config(tmp_path, hamiltonian={"kind": "long_range", "modes": 4, "seeds": [3, 8]},
                       input=[1, 1, 0, 0], times=[0.2, 0.5, 0.9], model=model,
                       certification=None)
    evolutions = []
    evolution = hamiltonian.evolution
    monkeypatch.setattr(hamiltonian, "evolution",
                        lambda spec, t: evolutions.append(t) or evolution(spec, t))
    forks = _count_forks(monkeypatch)
    _cores(monkeypatch, 2)
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "one")]) == 0
    assert forks == []   # 10 patterns per law, below cli.FORK_MIN_PATTERNS
    assert evolutions == [(0.2, 0.5, 0.9)] * 2   # one stacked call per Hamiltonian
    want = read_tree(next((tmp_path / "one").iterdir()))
    jobs = 6 if model == "indistinguishable" else 12
    assert len(want) == 18

    monkeypatch.setattr(cli, "FORK_MIN_PATTERNS", 1)
    for cores in (2, 3):
        _cores(monkeypatch, cores)
        forks.clear()
        out = tmp_path / f"cores{cores}"
        assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(forks) == min(jobs, cores) - 1
        assert read_tree(next(out.iterdir())) == want
        _assert_no_child_left()


@pytest.mark.parametrize("suffix", ["_exact", ""], ids=["worker", "parent"])
@pytest.mark.parametrize("error", [OSError("disk full"), RuntimeError("no law")],
                         ids=["oserror", "other"])
def test_a_failed_law_writer_fails_the_run_and_leaves_no_directory(tmp_path, monkeypatch, capfd,
                                                                   suffix, error):
    """The worker writes _exact.csv, the parent the model's law: either failing gives exit 2."""
    cfg = write_config(tmp_path, hamiltonian={"kind": "long_range", "modes": 4, "seed": 3},
                       input=[1, 1, 0, 0], times=[0.5], model="distinguishable",
                       certification=None)
    write_law = cli._write_law

    def failing(path, preamble, law):
        if path.stem.endswith("_t000" + suffix):
            raise error
        write_law(path, preamble, law)

    monkeypatch.setattr(cli, "_write_law", failing)
    monkeypatch.setattr(cli, "FORK_MIN_PATTERNS", 1)
    _cores(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
    assert len(forks) == 1
    assert f"error: evolve_h_t000{suffix}.csv: {error}" in capfd.readouterr().err
    assert list(out.iterdir()) == []
    _assert_no_child_left()


@pytest.mark.parametrize("suffix", ["_exact", ""], ids=["worker", "parent"])
def test_an_interrupted_law_writer_leaves_no_worker_or_directory(tmp_path, monkeypatch, capfd,
                                                                 suffix):
    """An interrupted worker fails the run; an interrupted parent reaps its worker and unwinds."""
    cfg = write_config(tmp_path, hamiltonian={"kind": "long_range", "modes": 4, "seed": 3},
                       input=[1, 1, 0, 0], times=[0.5], model="distinguishable",
                       certification=None)
    write_law = cli._write_law

    def interrupted(path, preamble, law):
        if path.stem.endswith("_t000" + suffix):
            raise KeyboardInterrupt
        write_law(path, preamble, law)

    monkeypatch.setattr(cli, "_write_law", interrupted)
    monkeypatch.setattr(cli, "FORK_MIN_PATTERNS", 1)
    _cores(monkeypatch, 2)
    out = tmp_path / "out"
    if suffix:
        assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "error: KeyboardInterrupt" in capfd.readouterr().err
    else:
        with pytest.raises(KeyboardInterrupt):
            cli.main(["evolve", "--config", str(cfg), "--out", str(out)])
    assert list(out.iterdir()) == []
    _assert_no_child_left()


def test_evolve_writes_two_digit_counts(tmp_path):
    """Ten photons in two modes: the pattern column keeps every digit of each count."""
    cfg = write_config(tmp_path, hamiltonian={"kind": "hopping", "modes": 2}, input=[10, 0],
                       times=[0.4], certification=None)
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    run = next((tmp_path / "out").iterdir())
    rows = [line.split(",")[0] for line in
            (run / "evolve_h_t000.csv").read_text().splitlines()[3:]]
    assert rows == [f"{10 - k}|{k}" for k in range(11)]
    assert "10|0" in rows


def test_config_rejects_integer_literal_past_the_digit_limit(tmp_path, capsys):
    """json.loads raises a plain ValueError on such a literal; it must still be a config error."""
    cfg = tmp_path / "config.json"
    cfg.write_text('{"hamiltonian": {"kind": "hopping", "modes": 4}, "times": [' + "9" * 5000 + "]}")
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config: invalid JSON" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_certify_requires_certification_block(tmp_path, capsys):
    cfg = write_config(tmp_path, certification=None)
    out = tmp_path / "out"
    assert cli.main(["certify", "--config", str(cfg), "--out", str(out)]) == 1
    assert "certification" in capsys.readouterr().err
    assert not out.exists()


def test_seed_flag_overrides_and_renames_run(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["evolve", "--config", str(cfg), "--out", out]) == 0
    assert cli.main(["evolve", "--config", str(cfg), "--out", out, "--seed", "99"]) == 0
    runs = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert len(runs) == 2
    seeds = set()
    for name in runs:
        body = json.loads((tmp_path / "out" / name / "evolve_h_t000.json").read_text())
        seeds.add(body["config"]["seed"])
    assert seeds == {11, 99}


def test_gge_emits_both_laws_and_reference(tmp_path):
    cfg = write_config(tmp_path, times=[0.0, 0.4, 0.8], certification=None)
    assert cli.main(["gge", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    run = next((tmp_path / "out").iterdir())
    names = {p.name for p in run.iterdir()}
    assert "gge_reference.csv" in names
    for law in ("indistinguishable", "distinguishable"):
        assert f"gge_h_{law}_marginal.csv" in names
        assert f"gge_h_{law}_tvd.csv" in names
    tvd = (run / "gge_h_indistinguishable_tvd.csv").read_text().splitlines()
    assert tvd[2] == "t,tvd"
    assert len(tvd) == 6
    # Numeric cells must be bare literals; float() rejects a leaked numpy repr.
    for path in run.glob("*.csv"):
        for line in path.read_text().splitlines()[3:]:
            for cell in line.split(",")[1:]:
                float(cell)


def test_certify_outputs(tmp_path):
    cfg = write_config(tmp_path, times=[1.0], shots=400)
    assert cli.main(["certify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    run = next((tmp_path / "out").iterdir())
    body = json.loads((run / "certify_h_t000.json").read_text())
    assert body["result"]["p1"] == 1.0
    assert body["result"]["entangled"] is True
    assert [g["epsilon_label"] for g in body["epsilon_grid"]] == [0.7, 0.8, 0.9]
    assert all(g["epsilon_product"] == pytest.approx(g["epsilon_label"] ** 2)
               for g in body["epsilon_grid"])
    conv = (run / "certify_h_t000_convergence.csv").read_text().splitlines()
    assert conv[2] == "samples,inv_sqrt_samples,p1,p2,f_lower"
    assert conv[-1].startswith("400,")


def test_long_range_seed_list_expands(tmp_path):
    cfg = write_config(tmp_path, hamiltonian={"kind": "long_range", "modes": 4,
                                              "seeds": [1, 2, 3]},
                       times=[0.5], certification=None)
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    run = next((tmp_path / "out").iterdir())
    json_files = sorted(p.name for p in run.iterdir() if p.suffix == ".json")
    assert json_files == ["evolve_h00_t000.json", "evolve_h01_t000.json",
                          "evolve_h02_t000.json"]
    seeds = [json.loads((run / f).read_text())["hamiltonian"]["seed"] for f in json_files]
    assert seeds == [1, 2, 3]


def test_seed_list_rejected_for_hopping(tmp_path, capsys):
    cfg = write_config(tmp_path, hamiltonian={"kind": "hopping", "modes": 4,
                                              "seeds": [1, 2]})
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "long_range" in capsys.readouterr().err


def test_certify_lossy_detection_with_source(tmp_path):
    """Blinding a shot whose photons were all lost used to crash the stream."""
    weights = [[1 / 6] * 3] * 4
    cfg = write_config(tmp_path, times=[1.0], shots=500, seed=3, input=[1, 1, 1, 0],
                       apparatus={"source": {"squeezing": 0.3, "heralding_efficiency": 0.9},
                                  "detection": {"weights": weights}})
    trees = []
    for out in ("a", "b"):
        assert cli.main(["certify", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
        run = next((tmp_path / out).iterdir())
        trees.append(read_tree(run))
    assert set(trees[0]) == {"certify_h_t000.json", "certify_h_t000_convergence.csv"}
    assert trees[0] == trees[1]


def test_certify_convergence_ends_at_all_shots(tmp_path):
    cfg = write_config(tmp_path, times=[1.0], shots=1000, model="distinguishable")
    assert cli.main(["certify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    run = next((tmp_path / "out").iterdir())
    res = json.loads((run / "certify_h_t000.json").read_text())["result"]
    rows = (run / "certify_h_t000_convergence.csv").read_text().splitlines()[3:]
    assert [int(r.split(",")[0]) for r in rows] == [62 * b for b in range(1, 17)] + [1000]
    _, _, p1, p2, f_lower = (float(x) for x in rows[-1].split(","))
    assert (p1, p2, f_lower) == (res["p1"], res["p2"], res["f_lower"])


HARDWARE = {
    "input": [1, 1, 1, 0],
    "model": fock.model_tag(apparatus.distinguishability_mixture(apparatus.SourceModel())),
    "apparatus": {"source": {"squeezing": 0.3, "heralding_efficiency": 0.9},
                  "detection": {"weights": [[0.3, 0.3, 0.3]] * 4},
                  "mesh_jitter": 0.05},
}


@pytest.mark.parametrize("overrides", [
    HARDWARE,
    {"hamiltonian": {"kind": "long_range", "modes": 5, "seed": 4}, "input": [1, 1, 1, 1, 0],
     "certification": {"eps1": 0.8, "eps2": 0.85, "split": 2, "epsilon_grid": [0.6]}},
])
def test_certify_cli_writes_the_library_record(tmp_path, overrides):
    config = write_config(tmp_path, times=[0.7], shots=600, **overrides)
    assert cli.main(["certify", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    run = next((tmp_path / "out").iterdir())
    cfg = cli.load_config(config)
    res = certify.certify(cfg.specs[0], 0.7, cfg.model, cfg.shots, cli._derived_seed(cfg, 0, 0),
                          cfg.eps1, cfg.eps2, cfg.app, cfg.split, cfg.input_occ)
    assert json.loads((run / "certify_h_t000.json").read_text())["result"] == res.to_dict()
    rows = (run / "certify_h_t000_convergence.csv").read_text().splitlines()[3:]
    trace = [(int(k), float(p1), float(p2), float(f)) for k, _, p1, p2, f in
             (r.split(",") for r in rows)]
    assert trace == list(res.convergence)


# Three apparatus certify runs, each file pinned by its sha256. Like the pinned
# streams in test_apparatus.py, the digests are tied to numpy's Generator
# algorithms and to the LAPACK behind the mesh decomposition; a change of
# either would need them re-recorded at a known-good commit.
GOLDEN_CERTIFY = {
    "bench-hardware": ({
        "input": [1, 1, 1, 0], "times": [0.73, 1.21], "shots": 4000, "seed": 481516,
        "model": {"mixture": [[0.82482, [[1, 1, 1, 0]]],
                              [0.10718, [[1, 1, 0, 0], [0, 0, 1, 0]]],
                              [0.068, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]]]},
        "apparatus": {"source": {"squeezing": 0.3, "heralding_efficiency": 0.9},
                      "detection": {"weights": [[1.0 / 3.0] * 3] * 4},
                      "mesh_jitter": 0.14401414400026624}}, {
        "certify_h_t000.json":
            "861b5739ed45534976c89f54b94909e3dbbdf99d4b44ef2d00ef7ca21e5a5aa3",
        "certify_h_t000_convergence.csv":
            "5734ce21f7e968de00c49d4a88a6da2f1856be195a5ad6c5a8a8c11b1e14f5be",
        "certify_h_t001.json":
            "7f63e35ff2efe68869ae564d119a2fbb5b8f059436c8e4d97e9b2741f2eeeeab",
        "certify_h_t001_convergence.csv":
            "8f103091baa920b54aaf8083a1e3b6a74b55d069d7850c273eabfd980969a313",
    }),
    "dark-jitter-no-source": ({
        "input": [1, 1, 1, 0], "shots": 1500,
        "apparatus": {"detection": {"weights": [[0.3] * 3] * 4, "dark_count_prob": 0.01},
                      "mesh_jitter": 0.1}}, {
        "certify_h_t000.json":
            "ebaa42c643ddbbc2be345bcd1d3c222bbc4aaa566e695a44bda4dbe5c0317a21",
        "certify_h_t000_convergence.csv":
            "e394c22e7e05217898b15709bcf193b69a834fef429b46736131e664e0220c15",
        "certify_h_t001.json":
            "fb233f6849ca45e38b9a8ca70c01833003d2f40d866694e4d96f203c33deb0c0",
        "certify_h_t001_convergence.csv":
            "6106131ad33c432f22a7210bd045d9d786788d2251219712703a4df7c0acc4c0",
    }),
    "species-no-source": ({
        "input": [1, 1, 1, 0], "shots": 1500,
        "model": {"species": [[1, 1, 0, 0], [0, 0, 1, 0]]},
        "apparatus": {"detection": {"weights": [[0.3] * 3] * 4}}}, {
        "certify_h_t000.json":
            "5e69f7d5ca35b22e34fa0ea917a402426d5df2c690c387070dc296333ea6b15b",
        "certify_h_t000_convergence.csv":
            "de30c7a2bd4372b2de0f067399547d9f74960265f0a79768c162f4645a526353",
        "certify_h_t001.json":
            "2803e9809f7c9952a9aa7186315dc74a1946c0397bc4ffb814fa092247fb1a61",
        "certify_h_t001_convergence.csv":
            "ff038b2ad987f4535fe57530163585ef69d4b3dd4f2508de83177b7ae85869d3",
    }),
}


@pytest.mark.parametrize("case, fresh", [
    *(pytest.param(case, False, id=case) for case in sorted(GOLDEN_CERTIFY)),
    *(pytest.param(case, True, id=f"{case}-dev-mode-cli") for case in sorted(GOLDEN_CERTIFY))])
def test_golden_certify_runs_keep_their_bytes(tmp_path, case, fresh):
    """Each pinned certify run writes the same bytes in process and from a fresh CLI.

    In process, pytest has already loaded OpenSSL's hashlib (hypothesis
    imports it). The fresh `python -X dev -W error -m photherm.cli` process
    blocks it and hashes with the interpreter's built-in modules, and must
    neither warn nor write anything to stderr.
    """
    import hashlib

    overrides, digests = GOLDEN_CERTIFY[case]
    cfg = write_config(tmp_path, **overrides)
    args = ["certify", "--config", str(cfg), "--out", str(tmp_path / "out")]
    if fresh:
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "photherm.cli",
                               *args], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stderr) == (0, "")
    else:
        assert cli.main(args) == 0
    run = next((tmp_path / "out").iterdir())
    got = {name: hashlib.sha256(body).hexdigest() for name, body in read_tree(run).items()}
    assert got == digests


# sha256 of every file of two gge runs, recorded before the sweep became one stacked pass over
# its models: the benchmark's 8-mode ring with 2 + 2 species over 20 times, and a long_range seed
# list of two (tags h00, h01) with a three-component mixture. The ring's marginals and distances
# were re-recorded when its 4 occupied modes came to be solved on 5 modes instead of 8, which
# moves their last bits; the 4-mode runs are not reduced and keep their bytes.
GGE_RING_TIMES = [0.05 + 0.15 * k for k in range(20)]
GOLDEN_GGE = {
    "ring-2+2-species": ({
        "hamiltonian": {"kind": "hopping", "modes": 8}, "input": [1, 0, 1, 0, 1, 0, 1, 0],
        "times": GGE_RING_TIMES,
        "model": {"species": [[1, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 1, 0]]}}, {
        "gge_h_distinguishable_marginal.csv":
            "98ebba980d6663d2564124a64ec9f5e1add210eeeb7d327135398c1965397732",
        "gge_h_distinguishable_tvd.csv":
            "590e7c90cfc7c2d2c79b721ca924488fd1b331cb29d11d3de84a98c78284ccbd",
        "gge_h_indistinguishable_marginal.csv":
            "03362ea7aac647de7328709762463f280d165aeba0b7e37d31477a8dbd951b7c",
        "gge_h_indistinguishable_tvd.csv":
            "495673426c3bd0ae12403b07b6f15c63e3f0d779bee624b69a2526eb4c062f83",
        "gge_h_mixture_marginal.csv":
            "d9d88fccfeb1fae253fec2c692b2c33c40ec795c6cb1843defe96844e9c66348",
        "gge_h_mixture_tvd.csv":
            "96c6c1efae46ea65dc4fbd0d0cf83c19c1721dc7cde0f0d106be284b53fee079",
        "gge_reference.csv":
            "d4ff208f46dbf869ffdfc0c2276dc06aeb091fe235246e53f9bbc88a63a08a33",
    }),
    "long-range-seeds-mixture": ({
        "hamiltonian": {"kind": "long_range", "modes": 4, "seeds": [3, 8]},
        "input": [1, 1, 1, 0], "times": [0.0, 0.7, 1.9],
        "model": {"mixture": [[0.82482, [[1, 1, 1, 0]]],
                              [0.10718, [[1, 1, 0, 0], [0, 0, 1, 0]]],
                              [0.068, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]]]}}, {
        "gge_h00_distinguishable_marginal.csv":
            "a259d9934ac105aff7e8e3e2bc0e5f2346ce56af9c80c50a2b9af459b896e9e3",
        "gge_h00_distinguishable_tvd.csv":
            "2e5678206b31ca621ec81441bb533107abd511ff49c09f2ce65a15bd399692fb",
        "gge_h00_indistinguishable_marginal.csv":
            "ecf670ecb5c098be06c813679552c2f7d534ce8cd7b98178198eb501505c154a",
        "gge_h00_indistinguishable_tvd.csv":
            "6bec53521efa5f056b99545a87b723d29354cbcc67d68f2f49498952a0166026",
        "gge_h00_mixture_marginal.csv":
            "a491d0edfcf9a2c30e49a5b82df0b808678a58d2474aee45aeeed4a0bbb5a42e",
        "gge_h00_mixture_tvd.csv":
            "7f46bf5e538ac34d741ad8eb034f9e17777f3d2fdb0a6a3663863efcfe341a02",
        "gge_h01_distinguishable_marginal.csv":
            "a6c0306aa66ffe67cb3eaab6dcdbfc2fc1a8e8804769022f0911ecab0f0fc4a9",
        "gge_h01_distinguishable_tvd.csv":
            "0ad8be00dc2532534dfc0ef08abd04abfc06bfb3e2e783161f49487de468e102",
        "gge_h01_indistinguishable_marginal.csv":
            "c0d162fe96adfb56b597207d1e4b28b810bc8b2ae5df7cd175117375464af07a",
        "gge_h01_indistinguishable_tvd.csv":
            "d592e8fa9de830bca6fa04ac14dcffece5dffe6f49f3c3a87258349e966c8990",
        "gge_h01_mixture_marginal.csv":
            "1299e108156a7148b5e3df1c271bece8ddc750540faefdd3960371140b43e17e",
        "gge_h01_mixture_tvd.csv":
            "2aa3af31dc270b5c0f323f465c82d9d237cc3f452b8d3c5dfb2e2da7f5681de4",
        "gge_reference.csv":
            "fde9a2bdb3a425371ab15bd66734ea4f51deba57218b24b6b56e401afafac773",
    }),
}


@pytest.mark.parametrize("case, fresh", [
    *(pytest.param(case, False, id=case) for case in sorted(GOLDEN_GGE)),
    *(pytest.param(case, True, id=f"{case}-dev-mode-cli") for case in sorted(GOLDEN_GGE))])
def test_golden_gge_runs_keep_their_bytes(tmp_path, case, fresh):
    """Each pinned gge run writes the same bytes in process and from a fresh CLI.

    The fresh `python -X dev -W error -m photherm.cli` process must neither
    warn nor write anything to stderr.
    """
    import hashlib

    overrides, digests = GOLDEN_GGE[case]
    cfg = write_config(tmp_path, **overrides)
    args = ["gge", "--config", str(cfg), "--out", str(tmp_path / "out")]
    if fresh:
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "photherm.cli",
                               *args], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stderr) == (0, "")
    else:
        assert cli.main(args) == 0
    run = next((tmp_path / "out").iterdir())
    got = {name: hashlib.sha256(body).hexdigest() for name, body in read_tree(run).items()}
    assert got == digests


# sha256 of every file of two evolve runs, recorded before species laws were convolved one row
# at a time: the benchmark's 6 photons on 12 long_range modes under the distinguishable model,
# and a 4-mode run under the three-component mixture, whose 2 + 1 and 1 + 1 + 1 components are
# convolutions of species laws.
GOLDEN_EVOLVE = {
    "bench-12-mode-distinguishable": ({
        "hamiltonian": {"kind": "long_range", "modes": 12, "seed": 171795907},
        "input": [1] * 6 + [0] * 6, "times": [0.852958], "model": "distinguishable",
        "seed": 667369681}, {
        "evolve_h_t000.csv":
            "d96b23f45471f96120c3418aaedabe844cf442652fe0ddc937c2e5adfeda1941",
        "evolve_h_t000.json":
            "1526e49cd6afb30c26ee7ade642d6ba5b5ead87f91c262580e600555730f4b12",
        "evolve_h_t000_exact.csv":
            "05df5dad924fd710eec445e279f376a25c5fd8441d92d84d0dac05afbb04755e",
    }),
    "mixture-4-mode": ({
        "hamiltonian": {"kind": "long_range", "modes": 4, "seed": 5},
        "input": [1, 1, 1, 0], "times": [0.4, 1.3],
        "model": {"mixture": [[0.82482, [[1, 1, 1, 0]]],
                              [0.10718, [[1, 1, 0, 0], [0, 0, 1, 0]]],
                              [0.068, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]]]}}, {
        "evolve_h_t000.csv":
            "d2e4120b159b5f81b2f06f0d43d2c9f7972d4eba8a67f344d5af2c79fe2699e8",
        "evolve_h_t000.json":
            "2233434cad97665745685ddba572e3742e768b7204401e47b560018eb269a96e",
        "evolve_h_t000_exact.csv":
            "a11c9673a8b1722b9cdf7c0b1fb1e869e84b2ac330d8e48d540e3456fd2cb5dc",
        "evolve_h_t001.csv":
            "30eff48c56ec8633c54c523762d81e8a50a94b99765c999d7ee73dc327a43d72",
        "evolve_h_t001.json":
            "ee5b0de4bc08a8f4dbe9a1e380face29b10f310ef0ba22b8dcc9d80c607bd123",
        "evolve_h_t001_exact.csv":
            "3f8b1941a33fa04c97378bfd9bfd8cba163df57b14b418acfedc17fb7a652b96",
    }),
}


@pytest.mark.parametrize("case, fresh", [
    *(pytest.param(case, False, id=case) for case in sorted(GOLDEN_EVOLVE)),
    *(pytest.param(case, True, id=f"{case}-dev-mode-cli") for case in sorted(GOLDEN_EVOLVE))])
def test_golden_evolve_runs_keep_their_bytes(tmp_path, case, fresh):
    """Each pinned evolve run writes the same bytes in process and from a fresh CLI.

    The fresh `python -X dev -W error -m photherm.cli` process must neither
    warn nor write anything to stderr.
    """
    import hashlib

    overrides, digests = GOLDEN_EVOLVE[case]
    cfg = write_config(tmp_path, **overrides)
    args = ["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]
    if fresh:
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "photherm.cli",
                               *args], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stderr) == (0, "")
    else:
        assert cli.main(args) == 0
    run = next((tmp_path / "out").iterdir())
    got = {name: hashlib.sha256(body).hexdigest() for name, body in read_tree(run).items()}
    assert got == digests


def test_a_source_visibility_list_sets_the_model(tmp_path):
    """With no model given, a source's visibility list sets distinguishability_mixture(source).

    Its records equal those of a run that gives that mixture as its model;
    a source without the list leaves the default model.
    """
    def write_without_model(path, **overrides):
        file = write_config(path, **overrides)
        file.write_text(json.dumps({key: value for key, value in json.loads(file.read_text())
                                    .items() if key != "model"}))
        return file

    listed = _source_field("pairwise_visibilities", [[[1, 2], 0.8], [[0, 1], 0.9], [[0, 2], 0.85]])
    cfg = cli.load_config(write_without_model(tmp_path, **listed))
    assert cfg.model == apparatus.distinguishability_mixture(cfg.app.source, cfg.input_occ)
    assert cfg.resolved["model"] == fock.model_tag(cfg.model)
    (tmp_path / "listed").mkdir()
    (tmp_path / "given").mkdir()
    records = []
    for name, config in (
            ("listed", write_without_model(tmp_path / "listed", **listed)),
            ("given", write_config(tmp_path / "given", **{**HARDWARE,
                                                           "model": fock.model_tag(cfg.model)}))):
        assert cli.main(["certify", "--config", str(config), "--out", str(tmp_path / name)]) == 0
        run = next(p for p in (tmp_path / name).iterdir() if p.is_dir())
        records.append([json.loads((run / f"certify_h_t{ti:03d}.json").read_text())["result"]
                        for ti in range(2)])
    assert records[0] == records[1]
    bare = cli.load_config(write_without_model(tmp_path, **HARDWARE))
    assert bare.model == fock.MODEL_INDISTINGUISHABLE


def test_certify_rejects_input_the_source_cannot_herald(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, hamiltonian={"kind": "hopping", "modes": 5},
                       input=[1, 1, 0, 0, 0], apparatus=HARDWARE["apparatus"])
    assert cli.main(["certify", "--config", str(cfg), "--out", str(out)]) == 1
    assert "config.input" in capsys.readouterr().err
    assert not out.exists()


def _detection(weights):
    return {**HARDWARE, "apparatus": {**HARDWARE["apparatus"], "detection": {"weights": weights}}}


def _source(squeezing, heralding_efficiency):
    src = {"squeezing": squeezing, "heralding_efficiency": heralding_efficiency}
    return {**HARDWARE, "apparatus": {**HARDWARE["apparatus"], "source": src}}


def _detection_field(key, value):
    det = {**HARDWARE["apparatus"]["detection"], key: value}
    return {**HARDWARE, "apparatus": {**HARDWARE["apparatus"], "detection": det}}


def _source_field(key, value):
    src = {**HARDWARE["apparatus"]["source"], key: value}
    return {**HARDWARE, "apparatus": {**HARDWARE["apparatus"], "source": src}}


def _explicit(matrix):
    return {"hamiltonian": {"kind": "explicit", "modes": 2, "matrix": matrix},
            "input": [1, 1]}


@pytest.mark.parametrize("overrides, path", [
    (_detection([[0.3, 0.3, 0.3]] * 3), "config.apparatus.detection.weights"),
    (_detection([[0.0, 0.0, 0.0]] * 4), "config.apparatus.detection"),
    (_detection([[0.5, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
     "config.apparatus.detection"),
    ({"hamiltonian": {"kind": "long_range", "modes": 4, "seed": -1}}, "config.hamiltonian"),
    ({"hamiltonian": {"kind": "long_range", "modes": 4, "seeds": [3, -2]}}, "config.hamiltonian"),
    (_source(0.0, 0.9), "config.apparatus.source"),  # a source that never heralds
    (_source(0.3, 0.0), "config.apparatus.source"),
    ({"seed": -1}, "config.seed"),
    (_detection_field("blinding_slope", "x"), "config.apparatus.detection.blinding_slope"),
    (_detection_field("blinding_slope", float("nan")), "config.apparatus.detection.blinding_slope"),
    (_source_field("pump_power", float("inf")), "config.apparatus.source.pump_power"),
    (_detection([[0.3, 0.3, 0.3], [0.3, 0.3, float("nan")], [0.3, 0.3, 0.3], [0.3, 0.3, 0.3]]),
     "config.apparatus.detection.weights[1][2]"),
    (_source_field("squeezing", "0.3"), "config.apparatus.source.squeezing"),
    (_source_field("foo", 1), "config.apparatus.source"),
    (_detection_field("foo", 1), "config.apparatus.detection"),
    (_detection([[0.3, 0.3]] * 4), "config.apparatus.detection.weights[0]"),
    (_source_field("pairwise_visibilities", [[[0, 1], "x"]]),
     "config.apparatus.source.pairwise_visibilities[0][1]"),
    (_source_field("pairwise_visibilities", [[0, 1, 0.9]]),
     "config.apparatus.source.pairwise_visibilities[0]"),
    (_explicit([[[0, 0], [1, 0]], [[1, 0]]]), "config.hamiltonian.matrix[1]"),
    (_explicit([[[0, 0], [1, "0"]], [[1, 0], [0, 0]]]), "config.hamiltonian.matrix[0][1][1]"),
    (_explicit([[[0, 0], [1, 0]], [[1, 0], [float("nan"), 0]]]),
     "config.hamiltonian.matrix[1][1][0]"),
    ({"apparatus": {"mesh_jiter": 0.3}}, "config.apparatus"),
    ({"certification": {"eps1": 0.9, "eps2": 0.9, "spilt": 2}}, "config.certification"),
    ({"hamiltonian": {"kind": "hopping", "modes": 4, "periodc": False}}, "config.hamiltonian"),
    ({"shot": 100}, "config"),
])
def test_certify_rejects_meaningless_detection_and_seeds(tmp_path, capsys, overrides, path):
    """Each config exits 1 at load time, before any event is simulated."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, **overrides)
    assert cli.main(["certify", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}:" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    _source_field("foo", 1), _detection_field("foo", 1),
    {**HARDWARE, "apparatus": {**HARDWARE["apparatus"], "foo": 1}},
    {"certification": {"eps1": 0.9, "eps2": 0.9, "foo": 1}},
    {"hamiltonian": {"kind": "hopping", "modes": 4, "foo": 1}},
    {"foo": 1},
    {"input": RING_INPUT, "model": {"species": [RING_INPUT], "foo": 1}},
    {"input": RING_INPUT, "model": {"mixture": [[1.0, [RING_INPUT]]], "foo": 1}},
    {"input": RING_INPUT, "model": {"species": [RING_INPUT], "mixture": [[1.0, [RING_INPUT]]]}},
])
def test_unknown_source_and_detection_keys_are_named(tmp_path, capsys, overrides):
    """An unknown key in any config block is named, not ignored.

    A model object holds exactly one of species or mixture, so a mixture
    given along with species is named as well.
    """
    cfg = write_config(tmp_path, **overrides)
    assert cli.main(["certify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    model = overrides.get("model", {})
    unknown = "mixture" if "species" in model and "mixture" in model else "foo"
    assert f"unknown keys ['{unknown}']" in capsys.readouterr().err


def test_apparatus_runs_have_a_shot_ceiling(tmp_path, capsys):
    """An apparatus samples every shot, so its shots are capped; exact runs draw binomials only."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, shots=cli.MAX_APPARATUS_SHOTS + 1, **HARDWARE)
    assert cli.main(["certify", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config.shots:") and "1000000" in err
    assert not out.exists()
    assert cli.load_config(write_config(tmp_path, shots=cli.MAX_APPARATUS_SHOTS, **HARDWARE))
    exact = write_config(tmp_path, shots=10**12, times=[1.0],
                         apparatus={"source": None, "detection": None})
    assert cli.main(["certify", "--config", str(exact), "--out", str(out)]) == 0


def test_certify_rejects_a_negative_seed_flag(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, times=[1.0])
    assert cli.main(["certify", "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --seed: must be >= 0")
    assert "Traceback" not in err
    assert not out.exists()


def test_certify_reports_a_source_too_weak_for_the_shots(tmp_path, capsys):
    """The stream gives up after its attempt budget: one error line, exit 1, no run directory."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, times=[1.0], **_source(0.001, 0.001))
    assert cli.main(["certify", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: collected 0/200 events after 10000000 source attempts")
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


def test_certify_reports_a_spent_budget_on_a_two_step_config(tmp_path, capsys):
    """All steps of a Hamiltonian run as one stream; its spent budget is still one error line."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, times=[0.5, 1.0], **_source(0.001, 0.001))
    assert cli.main(["certify", "--config", str(cfg), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert re.match(r"error: collected \d+/200 events after \d+ source attempts; ", lines[0])
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("overrides", [
    {"input": [1, 0, 0, 0]},
    {"hamiltonian": {"kind": "hopping", "modes": 8}},
    {"input": [3, 2, 0, 0]},
])
def test_certify_rejects_unsupported_photon_numbers(tmp_path, capsys, overrides):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, **overrides)
    assert cli.main(["certify", "--config", str(cfg), "--out", str(out)]) == 1
    assert "config.input" in capsys.readouterr().err
    assert not out.exists()
    cfg = write_config(tmp_path, times=[1.0])
    assert cli.main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(list(out.iterdir())) == 1


def test_failed_run_leaves_no_directory(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"

    def broken(cfg, run):
        (run / "half.csv").write_text("x\n")
        raise OSError("disk full")

    assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    run = next(out.iterdir())
    before = read_tree(run)
    monkeypatch.setattr(cli, "cmd_evolve", broken)
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(out), "--force"]) == 2
    assert list(out.iterdir()) == [run]
    assert read_tree(run) == before
    assert cli.main(["certify", "--config", str(write_config(tmp_path, certification=None)),
                     "--out", str(out)]) == 1
    assert list(out.iterdir()) == [run]


# ---------------------------------------------------------------------------
# Malformed and mutated certify configs: exit 1 at the JSON path, never a traceback


def _hamiltonian(**fields):
    return {"hamiltonian": {"kind": "hopping", "modes": 4, **fields}}


def _certification(**fields):
    return {"certification": {"eps1": 0.9, "eps2": 0.9, **fields}}


# 28 malformed variants of the 4-mode certify config; the first eight are the
# ones that once ended in a traceback, a wrong exit 0, or Python's own message,
# the next three visibility lists that used to be accepted, and the last a full
# visibility list given along with a model.
MALFORMED = [
    (_hamiltonian(modes=4.0), "config.hamiltonian.modes"),
    ({**HARDWARE, "shots": 10**12}, "config.shots"),
    ({"seed": -1}, "config.seed"),
    (_detection_field("blinding_slope", float("nan")), "config.apparatus.detection.blinding_slope"),
    ({"input": [True, True, False, False]}, "config.input"),
    (_hamiltonian(modes="4"), "config.hamiltonian.modes"),
    (_explicit([[[0, 0], [1, 0]], [[1, 0]]]), "config.hamiltonian.matrix[1]"),
    (_source_field("foo", 1), "config.apparatus.source"),
    ({"times": []}, "config.times"),
    ({"times": [1.0, 1e308]}, "config.times[1]"),
    ({"times": [1e13]}, "config.times[0]"),
    (_hamiltonian(coupling=1e308), "config.hamiltonian"),
    (_hamiltonian(modes=10**12), "config.hamiltonian.modes"),
    (_hamiltonian(kind="hoping"), "config.hamiltonian"),
    ({"shots": 10**30}, "config.shots"),
    ({"shots": 0}, "config.shots"),
    ({"shots": 2.5}, "config.shots"),
    ({"input": [1, 1, 1]}, "config.input"),
    ({"input": [-1, 1, 1, 0]}, "config.input"),
    ({"model": "bosonic"}, "config.model"),
    ({"model": {"mixture": [[0.5, [RING_INPUT]]]}}, "config.model.mixture"),
    (_certification(eps1=1.5), "config.certification.eps1"),
    ({"certification": {"eps1": 0.9}}, "config.certification.eps2"),
    (_certification(split=4), "config.certification.split"),
    (_source_field("pairwise_visibilities", []), "config.apparatus.source.pairwise_visibilities"),
    (_source_field("pairwise_visibilities", [[[0, 1], 0.2], [[1, 0], 0.9]]),
     "config.apparatus.source.pairwise_visibilities"),
    (_source_field("pairwise_visibilities", [[[5, 9], 0.5]]),
     "config.apparatus.source.pairwise_visibilities"),
    (_source_field("pairwise_visibilities", [[[0, 1], 0.9], [[0, 2], 0.8], [[1, 2], 0.8]]),
     "config.model"),
    ({"hamiltonian": {"modes": 4}}, "config.hamiltonian.kind"),
]


@pytest.mark.parametrize("overrides, path", MALFORMED)
def test_malformed_certify_configs_exit_1_at_their_path(tmp_path, capsys, overrides, path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, **overrides)
    assert cli.main(["certify", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:")
    assert "Traceback" not in err
    assert not out.exists()


# the source's visibility list sets the model; the base configs without an
# apparatus take HARDWARE's model instead, so the model's paths are mutated too
FUZZ_BASE = {
    "hamiltonian": {"kind": "hopping", "modes": 4, "coupling": 1.0, "periodic": True},
    "input": [1, 1, 1, 0], "times": [0.5, 1.0], "shots": 200, "seed": 11,
    "apparatus": {"source": {"squeezing": 0.3, "heralding_efficiency": 0.9,
                             "pairwise_visibilities": [[[0, 1], 0.9], [[0, 2], 0.8],
                                                       [[1, 2], 0.8]]},
                  "detection": {"weights": [[0.3, 0.3, 0.3]] * 4}, "mesh_jitter": 0.05},
    "certification": {"eps1": 0.9, "eps2": 0.9, "split": 2, "epsilon_grid": [0.8]},
}


def _json_paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


FUZZ_PATHS = (list(_json_paths(FUZZ_BASE))[1:]
              + list(_json_paths({"model": HARDWARE["model"]}))[1:])
JUNK = [None, True, False, 0, 1, -1, 2, 3, 7, 2**63, 10**400, 0.0, -0.0, 0.5, -0.5, 1.5,
        1e-320, 1e13, 1e308, float("nan"), float("inf"), -float("inf"), "", "4", "x",
        [], {}, [0], [1, 1, 1, 0], [[1, 1, 1, 0]], [[0.3, 0.3, 0.3]], {"foo": 1},
        [[[0, 1], 0.2], [[1, 0], 0.9]], [[[5, 9], 0.5]], "indistinguishable"]
mutation = st.tuples(st.sampled_from(FUZZ_PATHS),
                     st.sampled_from(["replace", "delete", "unknown key"]),
                     st.sampled_from(range(len(JUNK))))


def _mutate(cfg: dict, path: tuple, action: str, junk: int) -> dict:
    *parents, key = path
    node = cfg
    try:
        for parent in parents:
            node = node[parent]
        if action == "unknown key" and isinstance(node, dict):
            node["foo"] = json.loads(json.dumps(JUNK[junk]))
        elif action == "delete" and isinstance(node, dict):
            node.pop(key, None)
        else:
            node[key] = json.loads(json.dumps(JUNK[junk]))
    except (KeyError, IndexError, TypeError):
        pass  # an earlier mutation removed or replaced this branch
    return cfg


def _replaced_configs() -> list:
    """Every distinct config text that one replace of a FUZZ_PATHS entry makes of either base."""
    ideal = {k: v for k, v in FUZZ_BASE.items() if k != "apparatus"} | {"model": HARDWARE["model"]}
    configs = {}
    for base in (FUZZ_BASE, ideal):
        for path in FUZZ_PATHS:
            for junk in range(len(JUNK)):
                configs.setdefault(json.dumps(_mutate(json.loads(json.dumps(base)), path,
                                                      "replace", junk)))
    return list(configs)


# sha256 of the newline-joined outcomes below, recorded at a known-good commit; a change to
# any config rule's order, message, default or resolved form changes it
REPLACED_OUTCOMES = "9fba4e97027e166e97918465f3c0391f194cc599f273bba92af74392e33a1cb8"


def test_every_replaced_config_keeps_its_load_outcome(tmp_path):
    """Each of the 4,288 configs gives its recorded error line, or loads to its recorded digest."""
    import hashlib
    config, outcomes = tmp_path / "config.json", []
    for text in _replaced_configs():
        config.write_text(text)
        try:
            outcomes.append(f"OK {cli.load_config(config).digest()}")
        except cli.ConfigError as exc:
            outcomes.append(f"error: {exc}")
    assert len(outcomes) == 4288
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == REPLACED_OUTCOMES


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(["certify", "gge", "evolve"]), st.booleans(),
       st.lists(mutation, min_size=1, max_size=3))
def test_mutated_configs_never_crash_or_leave_directories(command, ideal, mutations):
    """Any mutation of a valid config exits 0, 1 or 2 and leaves only a finished run behind.

    evolve and gge exit 0 only without a non-trivial apparatus block, so
    half the base configs (ideal) drop the block and reach their runs.
    """
    import contextlib
    import io
    import tempfile

    cfg = json.loads(json.dumps(FUZZ_BASE))
    if ideal:
        del cfg["apparatus"]
        cfg["model"] = HARDWARE["model"]
    for path, action, junk in mutations:
        cfg = _mutate(cfg, path, action, junk)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", str(path), "--out", str(out)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        left = sorted(p.name for p in out.iterdir()) if out.exists() else []
        assert not any(name.endswith(".partial") for name in left)
        assert len(left) == (code == 0)
        if code == 0 and command != "certify":
            app = cli.load_config(path).app
            assert app is None or app.is_trivial()


@pytest.mark.parametrize("command", ["evolve", "gge", "certify"])
def test_runs_build_no_basis_tuples_and_one_csv_preamble(tmp_path, monkeypatch, command):
    """Labels come from the basis array; the digest is taken once for the directory, once for the CSVs."""
    digests = []
    digest = cli.ExperimentConfig.digest
    monkeypatch.setattr(cli.ExperimentConfig, "digest",
                        lambda self: digests.append(1) or digest(self))
    fock.enumerate_basis.cache_clear()
    cfg = write_config(tmp_path, times=[0.0, 0.5, 1.0], input=[1, 1, 0, 0],
                       model={"species": [[1, 0, 0, 0], [0, 1, 0, 0]]})
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert fock.enumerate_basis.cache_info().currsize == 0
    assert len(digests) == 2
    resolved = cli.load_config(cfg)
    preamble = [f"# config-digest: {digest(resolved)}",
                f"# config: {json.dumps(resolved.resolved, sort_keys=True)}"]
    csvs = sorted(next((tmp_path / "out").iterdir()).glob("*.csv"))
    assert len(csvs) >= 3
    for path in csvs:
        assert path.read_text().splitlines()[:2] == preamble
