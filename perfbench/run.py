"""photherm benchmark: real CLI runs, timed from outside, with output checks.

Usage (from the repository root):
    python3 perfbench/run.py --workload evolve-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced then traced
    python3 perfbench/run.py --smoke             # tiny sizes, checks every metric name

Each run is one `photherm <command>` in its own child process (child.py),
started by this single driver only after the previous run has ended: a
closed loop with one client. BLAS threads in the child are capped at the
number of usable cores. Untraced runs fill a window of --seconds (at least
three runs) and give the end-to-end metrics (medians over runs). With --trace 1 one
more run is made with every public function of the package's seven
modules wrapped (tracer.py), and its spans give the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A fuller record (every sample,
the machine and build, the per-run checks) goes to --record, by default
under .perfbench/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 120.0
MIN_RUNS = 3  # a median of three outvotes one slow run

# On a shared virtual machine (measured on a 2-vCPU Xeon guest) the speed of
# a core drifts by 10-30 % over seconds to minutes as other guests load the
# host, and the drift moves wall time and CPU time alike. Each run's times
# are therefore rescaled to a reference speed: the child times a fixed
# pure-Python loop just before and just after the command (child.py), and a
# run measured while that loop takes REFERENCE_S is reported unscaled. Raw
# wall times stay in the record as wall_run_s and wall_setup_s.
REFERENCE_S = 0.020

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
from workloads import WORKLOADS, CheckError  # noqa: E402

E2E_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    cap = str(nproc())
    return {**os.environ, "OPENBLAS_NUM_THREADS": cap, "OMP_NUM_THREADS": cap,
            "MKL_NUM_THREADS": cap}


def machine_record(seed: int) -> dict:
    """nproc, CPU, interpreter and library versions, BLAS cap, git state, workload seed."""
    import scipy

    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError, ValueError):
            return None
        return f"{info.get('name')} {info.get('version')}"

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                         "--", "src"], check=True, capture_output=True,
                                        text=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"nproc": nproc(), "cpu_model": cpu, "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np), "scipy_blas": blas(scipy),
            "blas_threads": nproc(), "git_sha": sha, "git_dirty_src": dirty,
            "workload_seed": seed}


def tail(values: list[float]):
    """Highest percentile with at least ten samples beyond it, or None below 11 samples."""
    if len(values) < 11:
        return None
    v = sorted(values)
    return {"percentile": math.floor(100 * (len(v) - 10) / len(v)), "value": v[-11]}


def one_run(name: str, cfg_path: Path, cfg: dict, work: Path, check_seed: str,
            trace_run: int | None) -> dict:
    """Spawn one CLI run in a fresh directory, reap it with wait4, check its outputs."""
    wl = WORKLOADS[name]
    tmp = Path(tempfile.mkdtemp(dir=work))
    out = tmp / "out"
    record_path = tmp / "child.json"
    argv = [sys.executable, str(HERE / "child.py"), str(record_path), str(SRC),
            "-" if trace_run is None else str(trace_run), "--",
            wl.command, "--config", str(cfg_path), "--out", str(out)]
    result = {"traced": trace_run is not None}
    with open(tmp / "stdout", "wb") as so, open(tmp / "stderr", "wb") as se:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.send_signal, (signal.SIGKILL,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    result["exit_code"] = proc.returncode
    result["wait4_maxrss_mb"] = usage.ru_maxrss / 1024.0  # includes the driver's own peak
    try:
        if proc.returncode != 0:
            err = (tmp / "stderr").read_text(errors="replace").strip().splitlines()
            raise CheckError(f"exit code {proc.returncode}: {err[-1] if err else ''}")
        child = json.loads(record_path.read_text())
        if "run_start_ns" not in child:
            raise CheckError("cli.load_config never returned")
        result["peak_rss_mb"] = child["vm_hwm_kb"] / 1024.0
        scale = REFERENCE_S / (0.5 * (child["reference_before_s"] + child["reference_after_s"]))
        result["speed_scale"] = scale
        result["wall_setup_s"] = (child["loaded_ns"] - spawn_ns) / 1e9
        result["wall_run_s"] = (child["done_ns"] - child["run_start_ns"]) / 1e9
        result["setup_s"] = result["wall_setup_s"] * scale
        result["run_s"] = result["wall_run_s"] * scale
        runs = list(out.iterdir())
        if len(runs) != 1:
            raise CheckError(f"expected one run directory, found {len(runs)}")
        result["items"] = wl.check(runs[0], cfg, random.Random(check_seed), SRC)
        result["check"] = "ok"
        if trace_run is not None:
            files = [p for p in runs[0].rglob("*") if p.is_file()]
            with np.load(tmp / child["spans_file"]) as npz:
                spans = {k: npz[k] for k in npz.files}
            result["trace"] = {"child": child, "spans": spans, "files_out": len(files),
                               "bytes_out": sum(p.stat().st_size for p in files)}
    except Exception as exc:  # any fault in the outputs fails this run, not the benchmark
        result["check"] = f"FAILED: {type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return result


def warm_up() -> None:
    """Import the package once so later runs find compiled bytecode and a warm file cache."""
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import photherm.cli", str(SRC)], env=child_env(), cwd=ROOT,
                   check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """All runs of one workload invocation; returns the full record."""
    wl = WORKLOADS[name]
    cfg = wl.config(random.Random(f"{name}:{seed}"), smoke)
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    runs = []
    try:
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=1))
        warm_up()
        # After MIN_RUNS, start another run only while a run as long as the last
        # one would reach its midpoint inside the window, so the window overruns
        # by about half a run rather than a whole one.
        min_runs = 1 if smoke else MIN_RUNS
        start = time.monotonic()
        last = 0.0
        while len(runs) < min_runs or time.monotonic() - start + last / 2 < seconds:
            began = time.monotonic()
            runs.append(one_run(name, cfg_path, cfg, work, f"{name}:{seed}:{len(runs)}", None))
            last = time.monotonic() - began
        if trace:
            runs.append(one_run(name, cfg_path, cfg, work, f"{name}:{seed}:{len(runs)}",
                                len(runs)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in runs if r["check"] == "ok" and not r["traced"]]
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "smoke": smoke, "config": cfg, "items": wl.items,
              "attempted": len(runs), "failed": sum(r["check"] != "ok" for r in runs)}
    e2e, samples = {}, {}
    if ok:
        series = {"run_s": [r["run_s"] for r in ok], "setup_s": [r["setup_s"] for r in ok],
                  "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
                  "items_per_s": [r["items"] / r["run_s"] for r in ok]}
        e2e = {k: statistics.median(v) for k, v in series.items()}
        samples = {k: {"n": len(v), "tail": tail(v), "values": v} for k, v in series.items()}
    record["end_to_end"] = e2e
    record["samples"] = samples
    record["per_layer"] = {}
    traced = [r for r in runs if r["traced"] and r["check"] == "ok"]
    if traced and e2e:
        t = traced[0]["trace"]
        child = t["child"]
        # untraced median, converted to wall time at the traced run's machine speed
        untraced_wall = e2e["run_s"] / traced[0]["speed_scale"]
        record["per_layer"] = layers.layer_metrics(
            t["spans"], child["run_start_ns"], child["done_ns"], untraced_wall,
            t["bytes_out"], t["files_out"])
        record["wrapped"] = child["wrapped"]
    for r in runs:
        r.pop("trace", None)
    record["runs"] = runs
    return record


def result_line(record: dict) -> dict:
    """The contract's last line: end-to-end metrics untraced, per-layer metrics traced."""
    if record["trace"]:
        metrics = {k: {"value": record["per_layer"][k], "unit": unit}
                   for k, unit in layers.METRICS if k in record["per_layer"]}
        complete = len(metrics) == len(layers.METRICS)
    else:
        metrics = {k: {"value": record["end_to_end"][k], "unit": unit}
                   for k, unit in E2E_UNITS.items() if k in record["end_to_end"]}
        complete = len(metrics) == len(E2E_UNITS)
    return {"correct": record["failed"] == 0 and complete, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def report(record: dict) -> None:
    """Human-readable summary of one workload invocation."""
    name = record["workload"]
    print(f"== {name}  seed {record['seed']}  window {record['seconds']} s  "
          f"runs {record['attempted']}  failed {record['failed']}  "
          f"fail_frac {record['failed'] / record['attempted']:.3g}")
    for r in record["runs"]:
        if r["check"] != "ok":
            print(f"   run failed: {r['check']}")
    for k, unit in E2E_UNITS.items():
        if k not in record["end_to_end"]:
            continue
        s = record["samples"][k]
        label = k if k != "items_per_s" else f"items_per_s ({record['items']}_per_s)"
        tl = s["tail"]
        tail_txt = (f"p{tl['percentile']} {tl['value']:.6g}" if tl
                    else "tail n/a (< 11 samples)")
        print(f"   {label:<32} median {record['end_to_end'][k]:.6g} {unit}  "
              f"{tail_txt}  n={s['n']}")
    pl = record["per_layer"]
    if pl:
        for k, unit in layers.METRICS:
            print(f"   {k:<40} {pl[k]:.6g} {unit}")
        parts = " + ".join(f"{layer} {pl[f'{layer}.self_s']:.4f}" for layer in layers.LAYERS)
        print(f"   traced run_s {pl['trace.run_s']:.4f} s = {parts} + untraced "
              f"{pl['untraced.self_s']:.4f}; trace.overhead_s {pl['trace.overhead_s']:.4f} "
              f"(wall times; untraced median rescaled to the traced run's machine speed)")
        missing = [n for n, ok in record.get("wrapped", {}).items() if ok is None]
        if missing:
            print(f"   names not found in the package (recorded as null): {missing}")


def write_record(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke() -> int:
    """Every workload once at tiny size, traced and untraced; checks names and units."""
    spec = benchmark_spec()
    want = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print(f"BENCHMARK.json workloads differ from {list(WORKLOADS)}", file=sys.stderr)
        return 1
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            record = run_workload(name, 1, 0, bool(trace), smoke=True)
            line = result_line(record)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            ok = line["correct"] and got == want[str(trace)]
            bad += not ok
            print(f"{'PASS' if ok else 'FAIL'}  {name} trace={trace}  "
                  f"{len(got)} metrics, {line['failed']}/{line['attempted']} runs failed")
            if not ok:
                report(record)
                diff = set(got.items()) ^ set(want[str(trace)].items())
                print(f"   metric names/units differing from BENCHMARK.json: {sorted(diff)}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; run every workload once and check metric names")
    parser.add_argument("--record", type=Path, default=None,
                        help="where to write the full JSON record")
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, so a running child is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "photherm" / "cli.py").is_file():
        print(f"error: no photherm sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
    machine = machine_record(args.seed)

    if args.workload == "all":
        records = []
        for name in WORKLOADS:
            for trace in (False, True):
                rec = run_workload(name, args.seed, seconds, trace, smoke=False)
                report(rec)
                records.append(rec)
        path = args.record or WORK / f"BENCH_all_seed{args.seed}.json"
        write_record(path, {"machine": machine, "workloads": records})
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        correct = all(result_line(r)["correct"] for r in records)
        print(f"record written to {path}")
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 0 if correct else 1

    record = run_workload(args.workload, args.seed, seconds, bool(args.trace), smoke=False)
    report(record)
    path = args.record or WORK / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    write_record(path, {"machine": machine, **record})
    line = result_line(record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
