"""One benchmark run: import photherm from source, run one CLI command, report timings.

Usage:
    python3 child.py RECORD SRC TRACE_RUN_ID -- <photherm CLI arguments>

RECORD receives a JSON object with the exit code of cli.main and
time.monotonic_ns stamps: loaded_ns at the return of cli.load_config,
run_start_ns when the command starts, done_ns at the return of cli.main.
Between loaded_ns and run_start_ns, and again after done_ns, the child
times a fixed reference loop (reference_before_s, reference_after_s) so
the parent can rescale the run to a reference machine speed. When
TRACE_RUN_ID is not "-", the record also names the span file written by
the tracer. The parent takes the spawn time and peak RSS itself.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path

REFERENCE_LOOP = 300_000


def reference_time() -> float:
    """Median time of five passes of a fixed pure-Python loop, in seconds."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOP):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_kb() -> int:
    """High-water resident set of this process's program since exec (Linux VmHWM).

    The rusage that wait4 returns for a child is not used: Linux folds the
    parent's high-water mark into it at exec, so it reads at least the
    driver's own resident size.
    """
    with open("/proc/self/status") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))


def main(argv) -> int:
    record_path, src, trace_run, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit(__doc__)
    sys.path.insert(0, src)
    import photherm
    from photherm import cli

    tracer = None
    if trace_run != "-":
        from layers import LAYERS, METRIC_NAMES
        from tracer import Tracer, public_functions
        tracer = Tracer(int(trace_run))
        names = [n for n in public_functions(photherm, LAYERS) if n != "cli.main"]
        tracer.wrap(photherm, names + list(METRIC_NAMES))

    # Installed after the tracer, so the cli.load_config span excludes the reference loop.
    marks = {}
    load_config = cli.load_config

    @functools.wraps(load_config)
    def timed_load_config(*args, **kwargs):
        cfg = load_config(*args, **kwargs)
        marks["loaded_ns"] = time.monotonic_ns()
        marks["reference_before_s"] = reference_time()
        marks["run_start_ns"] = time.monotonic_ns()
        return cfg

    cli.load_config = timed_load_config
    rc = cli.main(cli_args)
    done_ns = time.monotonic_ns()

    record = {"rc": rc, **marks, "done_ns": done_ns, "reference_after_s": reference_time()}
    if tracer is not None:
        spans_path = Path(record_path).with_name("spans.npz")
        record["spans"] = tracer.save(spans_path)
        record["spans_file"] = spans_path.name
        record["wrapped"] = tracer.wrapped
    record["vm_hwm_kb"] = peak_rss_kb()
    Path(record_path).write_text(json.dumps(record))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
