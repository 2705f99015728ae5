"""Span tracer that wraps package functions from outside the package.

Functions are wrapped by dotted name ("fock.permanent") on their module
objects. The package calls across and within its modules through module
attributes, so replacing the attribute also catches inner calls such as
fock.prob_indistinguishable -> fock.permanent. A name that does not exist
(renamed or deleted by a later version of the package) is recorded as
None rather than raising, so the benchmark keeps running across such
changes.

Each call records one span: name, start and end (time.monotonic_ns), the
innermost enclosing span as parent, the run id, and an optional work
count computed from the call's result. Spans stay in memory, in flat
int64 arrays, until save() writes them once.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# Work counts taken from a call's result, keyed by dotted name.
COUNTERS = {
    "fock.output_distribution": lambda result: len(result.probs),   # patterns
    "fock.sample": len,                                             # draws
    "certify.estimate_p1": lambda result: result[1],                # samples scanned
    "certify.estimate_p2": lambda result: result[1],
    "apparatus.simulate_setting": len,                              # events kept
}


def public_functions(package, layers) -> list[str]:
    """Dotted names of the public functions each layer module defines itself."""
    names = []
    for layer in layers:
        mod = getattr(package, layer, None)
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                names.append(f"{layer}.{attr}")
    return names


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self.wrapped: dict[str, bool | None] = {}
        self._name = array("q")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._count = array("q")
        self._stack = [-1]

    def wrap(self, package, dotted_names) -> None:
        """Wrap each named function; names that do not resolve are recorded as None."""
        for dotted in dotted_names:
            if dotted in self.wrapped:
                continue
            layer, attr = dotted.split(".", 1)
            mod = getattr(package, layer, None)
            fn = getattr(mod, attr, None) if mod is not None else None
            if fn is None or not callable(fn):
                self.wrapped[dotted] = None
                continue
            setattr(mod, attr, self._traced(dotted, fn))
            self.wrapped[dotted] = True

    def _traced(self, dotted: str, fn):
        idx = len(self.names)
        self.names.append(dotted)
        counter = COUNTERS.get(dotted)
        names, starts, ends = self._name, self._start, self._end
        parents, counts, stack = self._parent, self._count, self._stack
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            counts.append(0)
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if counter is not None:
                counts[span] = counter(result)
            return result

        return traced

    def save(self, path) -> int:
        """Write every span to one .npz file; returns the span count."""
        n = len(self._start)
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self._name, dtype=np.int64),
                 start=np.frombuffer(self._start, dtype=np.int64),
                 end=np.frombuffer(self._end, dtype=np.int64),
                 parent=np.frombuffer(self._parent, dtype=np.int64),
                 count=np.frombuffer(self._count, dtype=np.int64),
                 run=np.full(n, self.run_id, dtype=np.int64))
        return n
