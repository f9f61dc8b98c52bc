"""The four workloads: the calls one round makes, the warm-up op, and the checks.

Every call goes through a module attribute (`harness.run_experiment`,
`cli.main`) so that the traced run sees the wrapped functions. Inputs come
from the run's --seed alone; checks run outside the timed region and compare
against `reference`, which does not import the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import time

from so3energy import cli, harness
from so3energy.ensembles import EnsembleSpec

import reference

_Z_LIMIT = 4.0


def derive_seed(seed, *parts):
    """A 32-bit master seed for one call, fixed by the run seed and the call's place."""
    digest = hashlib.blake2b(repr((seed,) + parts).encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def _rel(a, b):
    return abs(a - b) / abs(b)


class _Workload:
    ops_per_round = 1

    def __init__(self, seed, root):
        self.seed = seed
        self.oracle = reference.load_oracle(os.path.join(root, "tests", "fixtures", "oracle.json"))
        self.failures = []
        # bytes of configuration files written in timed rounds (round-trip only)
        self.file_bytes = 0

    def fail(self, message):
        self.failures.append(message)

    def close(self):
        pass


class FixedSmall(_Workload):
    """run_experiment over nine uniform grids with frozen base points."""

    GRIDS = tuple((r, s) for r in (2, 5, 10) for s in (1, 2, 3))
    TRIALS = 1024
    ops_per_round = len(GRIDS) * TRIALS

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.reports = []

    def _config(self, r, s, trials, master_seed):
        return harness.ExperimentConfig(
            EnsembleSpec("uniform", r, s=s), trials=trials, master_seed=master_seed, resample_points=False
        )

    def warmup(self):
        harness.run_experiment(self._config(2, 1, 1, derive_seed(self.seed, "warmup")))

    def run_round(self, k):
        configs = [self._config(r, s, self.TRIALS, derive_seed(self.seed, "fixed", k, r, s)) for r, s in self.GRIDS]
        t0 = time.perf_counter()
        reports = [harness.run_experiment(c) for c in configs]
        elapsed = time.perf_counter() - t0
        self.reports.append(reports)
        return elapsed

    def check(self):
        # per grid, the deviations of all rounds pooled into one z-score: nine
        # 4-sigma tests per run instead of nine per round
        dev = {g: [] for g in self.GRIDS}
        for k, reports in enumerate(self.reports):
            for (r, s), rep in zip(self.GRIDS, reports):
                seed = derive_seed(self.seed, "fixed", k, r, s)
                expected = reference.fixed_point_prediction(reference.uniform_points(seed, r), s)
                if _rel(rep.prediction, expected) > 1e-12:
                    self.fail(f"r={r} s={s} seed={seed}: prediction {rep.prediction!r} != {expected!r}")
                if rep.excluded != 0 or rep.prediction_kind != "mean" or rep.trials != self.TRIALS:
                    self.fail(f"r={r} s={s} seed={seed}: excluded={rep.excluded} kind={rep.prediction_kind} trials={rep.trials}")
                dev[(r, s)].append((rep.mean - expected, rep.std_error))
        for (r, s), items in dev.items():
            if not items:
                continue
            z = math.fsum(d for d, _ in items) / math.sqrt(math.fsum(se * se for _, se in items))
            if abs(z) > _Z_LIMIT:
                self.fail(f"r={r} s={s}: pooled z = {z:.3f} over {len(items)} rounds")
        return self.failures


class Zeros(_Workload):
    """The paper's construction: zeros of a random elliptic polynomial,
    resampled every trial, r = 256."""

    R = 256

    def __init__(self, seed, root, s, trials, tag):
        super().__init__(seed, root)
        self.s, self.trials, self.tag = s, trials, tag
        self.ops_per_round = trials
        self.reports = []

    def _config(self, trials, master_seed):
        return harness.ExperimentConfig(EnsembleSpec("zeros", self.R, s=self.s), trials=trials, master_seed=master_seed)

    def warmup(self):
        harness.run_experiment(self._config(1, derive_seed(self.seed, "warmup")))

    def run_round(self, k):
        config = self._config(self.trials, derive_seed(self.seed, self.tag, k))
        t0 = time.perf_counter()
        report = harness.run_experiment(config)
        elapsed = time.perf_counter() - t0
        self.reports.append(report)
        return elapsed

    def check(self):
        s = self.s if self.s is not None else reference.zeros_optimal_s(self.oracle, self.R)
        expected = reference.zeros_prediction(self.oracle, self.R, s)
        for rep in self.reports:
            if rep.s != s or rep.excluded != 0 or rep.prediction_kind != "mean":
                self.fail(f"seed={rep.master_seed}: s={rep.s} (want {s}) excluded={rep.excluded}")
            if _rel(rep.prediction, expected) > 1e-9:
                self.fail(f"seed={rep.master_seed}: prediction {rep.prediction!r} != oracle {expected!r}")
        if self.reports:
            mean, se = reference.pooled_mean_and_error([(r.trials, r.mean, r.std_error) for r in self.reports])
            if abs(mean - expected) > _Z_LIMIT * se:
                self.fail(f"pooled mean {mean!r} is {(mean - expected) / se:.3f} standard errors from {expected!r}")
        return self.failures


class RoundTrip(_Workload):
    """`generate` then `energy --in` through cli.main, JSON and CSV in turn."""

    R = 96
    FORMATS = ("json", "csv")
    ops_per_round = len(FORMATS)

    def __init__(self, seed, root):
        super().__init__(seed, root)
        out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="roundtrip-", dir=out)
        self.s = reference.zeros_optimal_s(self.oracle, self.R)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _op(self, fmt, master_seed):
        """One generate -> energy round trip; returns (seconds, path, generate record, energy text)."""
        path = os.path.join(self.tmp, f"config.{fmt}")
        gen_argv = ["generate", "--ensemble", "zeros", "--r", str(self.R), "--s", "auto"]
        gen_argv += ["--seed", str(master_seed), "--out", path, "--format", fmt]
        gen_out, energy_out = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(gen_out):
            gen_code = cli.main(gen_argv)
        with contextlib.redirect_stdout(energy_out):
            energy_code = cli.main(["energy", "--in", path])
        elapsed = time.perf_counter() - t0
        if gen_code != 0 or energy_code != 0:
            raise RuntimeError(f"cli exit codes generate={gen_code} energy={energy_code}")
        return elapsed, path, json.loads(gen_out.getvalue()), energy_out.getvalue().strip()

    def warmup(self):
        self._op("json", derive_seed(self.seed, "warmup"))

    def run_round(self, k):
        elapsed = 0.0
        for fmt in self.FORMATS:
            seconds, path, record, energy_text = self._op(fmt, derive_seed(self.seed, "roundtrip", k, fmt))
            elapsed += seconds
            self.file_bytes += os.path.getsize(path)
            # the file is overwritten by the next op, so check it now, untimed
            self._check_op(fmt, path, record, energy_text)
        return elapsed

    def _check_op(self, fmt, path, record, energy_text):
        value = record["log_energy"]
        where = f"{fmt} seed={record['seed']}"
        if energy_text != repr(value) or float(energy_text) != value:
            self.fail(f"{where}: energy --in printed {energy_text}, generate reported {value!r}")
        if record["s"] != self.s or record["n"] != self.R * self.s or record["is_infinite"]:
            self.fail(f"{where}: s={record['s']} n={record['n']} (want s={self.s})")
        rows = reference.read_rows(path, fmt)
        if rows.shape != (self.R * self.s, 9):
            self.fail(f"{where}: stored rows have shape {rows.shape}")
            return
        err = reference.max_rotation_error(rows)
        if err > 1e-10:
            self.fail(f"{where}: a stored row is {err:.3g} from a rotation")
        direct = reference.direct_log_energy(rows)
        if _rel(value, direct) > 1e-12:
            self.fail(f"{where}: log_energy {value!r} != direct sum {direct!r}")

    def check(self):
        return self.failures


WORKLOADS = {
    "mc-fixed-small": FixedSmall,
    "mc-zeros-r256": lambda seed, root: Zeros(seed, root, s=None, trials=2, tag="zeros-auto"),
    "mc-zeros-r256-s1": lambda seed, root: Zeros(seed, root, s=1, trials=4, tag="zeros-s1"),
    "roundtrip-zeros-r96": RoundTrip,
}
