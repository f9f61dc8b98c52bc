"""Spans around the package's public functions, recorded from outside the package.

`Tracer.install` replaces each traced function by a wrapper wherever an
so3energy module binds its name, so the package's own code runs unchanged and
every call becomes a span: name, start, end, parent span and op id. Spans are
kept in flat arrays in memory and written out once, when the run ends.
"""

from __future__ import annotations

import array
import functools
import sys
import time

import numpy as np

# (module, function) pairs: the public entry point of every layer a workload runs
TRACED = (
    ("streams", "keyed_stream"),
    ("ensembles", "sample_points"),
    ("ensembles", "aberth_roots"),
    ("geometry", "base_frames"),
    ("construct", "fiber_matrices"),
    ("construct", "build_configuration"),
    ("construct", "save_configuration"),
    ("construct", "load_configuration"),
    ("energy", "pair_log_sums"),
    ("energy", "log_energy"),
    ("energy", "predicted_energy"),
    ("constants", "optimal_s"),
    ("constants", "expected_configuration_energy"),
    ("harness", "run_experiment"),
    ("cli", "main"),
)
NAMES = tuple(f"{m}.{f}" for m, f in TRACED)
_ID = {name: i for i, name in enumerate(NAMES)}
_PAIR_LOG_SUMS = _ID["energy.pair_log_sums"]
_RUN_EXPERIMENT = _ID["harness.run_experiment"]


class Tracer:
    def __init__(self):
        self.op = -1
        self._stack = []
        self._clear()

    def _clear(self):
        self.name = array.array("h")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.ops = array.array("q")
        # (span index, batch, n) of every pair_log_sums input, read at the call
        self.dist_shapes = []

    def install(self):
        """Wrap every traced function in every loaded so3energy module."""
        import so3energy.cli  # noqa: F401  (cli is not imported by the package itself)

        modules = [m for k, m in sys.modules.items() if k == "so3energy" or k.startswith("so3energy.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"so3energy.{mod_name}"], fn_name)
            wrapper = self._wrap(_ID[f"{mod_name}.{fn_name}"], original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, fid, fn):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            if fid == _PAIR_LOG_SUMS:
                b, n, _ = np.shape(args[0])
                self.dist_shapes.append((i, b, n))
            self.name.append(fid)
            self.parent.append(stack[-1] if stack else -1)
            self.ops.append(self.op)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()

        return wrapper

    def restart(self):
        """Drop the spans recorded so far (the warm-up op) and return their
        self seconds per traced name."""
        before = self.self_seconds()
        self._clear()
        return before

    def _arrays(self):
        # copies: a numpy view would pin the buffers and block further appends
        name = np.array(self.name, dtype=np.intp)
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        return name, start, end, parent

    def self_seconds(self):
        """Self time per traced name: span durations minus their direct children's."""
        name, start, end, parent = self._arrays()
        dur = end - start
        has = parent >= 0
        covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        own = dur - covered
        return dict(zip(NAMES, np.bincount(name, weights=own, minlength=len(NAMES)).tolist()))

    def summary(self):
        """Calls, self seconds and total seconds per name; root span seconds;
        the pair count and the largest distance batch under run_experiment."""
        name, start, end, parent = self._arrays()
        dur = end - start
        calls = np.bincount(name, minlength=len(NAMES))
        total = np.bincount(name, weights=dur, minlength=len(NAMES))
        pairs = sum(b * n * (n - 1) // 2 for _, b, n in self.dist_shapes)
        # computed, not measured: the float64 (b, n, n) batch the harness builds
        gram_bytes = max(
            (8 * b * n * n for i, b, n in self.dist_shapes if parent[i] >= 0 and name[parent[i]] == _RUN_EXPERIMENT),
            default=0,
        )
        return {
            "calls": dict(zip(NAMES, calls.tolist())),
            "self": self.self_seconds(),
            "total": dict(zip(NAMES, total.tolist())),
            "root_s": float(dur[parent < 0].sum()),
            "pairs": pairs,
            "gram_bytes": gram_bytes,
        }

    def write(self, path):
        name, start, end, parent = self._arrays()
        np.savez(
            path,
            names=np.array(NAMES),
            name=name.astype(np.int16),
            start=start,
            end=end,
            parent=parent,
            op=np.array(self.ops, dtype=np.int64),
        )
