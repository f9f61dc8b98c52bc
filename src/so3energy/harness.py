"""Seeded, parallel Monte Carlo over random fiber configurations.

Determinism contract: the report depends only on the experiment config, not
on the worker count. Trials are split into fixed-size chunks (a function of
n alone), each trial's draws are fixed by its index (its own counter-keyed
stream, or with frozen points its own positions in the fiber stream), chunk
results are reduced in trial order, and all statistics use exact (fsum)
summation.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from dataclasses import dataclass, fields

import numpy as np

from .constants import _energy_prediction
from .construct import fiber_matrices
from .energy import COINCIDENCE_TOL, band_len, fiber_pair_energies, fibered_energy, pair_log_sums
from .ensembles import EnsembleSpec, sample_points
from .geometry import base_frames
from .streams import DOMAIN_POINTS, DOMAIN_TRIAL, fiber_phases, keyed_stream

REPORT_VERSION = "1"
_Z_THRESHOLD = 4.0
# a mean this close to its prediction, relative, agrees with it: one fiber's
# energy does not depend on its phase, so at r = 1 the standard error is
# rounding noise. The tests hold the direct route to the fiber identity here.
_AGREEMENT_REL = 1e-12
_MAX_EXCLUDED_FRACTION = 1e-3
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ExperimentConfig:
    """What to run: which ensemble, how many trials, and the master seed.

    resample_points=False freezes one draw of base points (from the seed's
    point stream) and varies only the fiber phases across trials; the
    prediction is then conditional on those points.
    """

    spec: EnsembleSpec
    trials: int
    master_seed: int = 0
    resample_points: bool = True

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")


@dataclass(frozen=True)
class EstimateReport:
    ensemble: str
    r: int
    s: int
    trials: int
    master_seed: int
    mean: float
    std_error: float
    prediction: float
    prediction_kind: str  # "mean" | "upper_bound"
    z_score: float
    passed: bool
    excluded: int

    def to_dict(self):
        doc = {"format_version": REPORT_VERSION}
        for f in fields(self):
            doc["pass" if f.name == "passed" else f.name] = getattr(self, f.name)
        return doc

    def to_json(self):
        return json.dumps(self.to_dict())

    def to_csv(self):
        d = self.to_dict()
        keys = list(d)
        row = [repr(v) if isinstance(v, float) else str(v) for v in d.values()]
        return ",".join(keys) + "\n" + ",".join(row) + "\n"


def chunk_size(n):
    """Trials per chunk: 2^17 // (16 n + band_len(n)), at most 4096 and at
    least one.

    A direct-route trial of n rotations holds 9 n doubles of rotation rows,
    7 n of fiber_matrices' angles and repeated sines and cosines, and
    band_len(n) of its first and largest band of pair distances, so a chunk
    fits them in 2^17 doubles (1 MiB) unless one trial alone is larger;
    beside it pair_log_sums forms at most _HEAD_BLOCK (2^15) head entries at
    a time. A resampled chunk also holds its trials' frames and their columns
    repeated over the fibers. The bands of fiber pairs hold r = n / s
    columns."""
    return max(1, min(4096, 2**17 // (16 * n + band_len(n))))


def _chunk_energies(args):
    """Energies and coincidence minima for trials lo..hi-1 of one experiment.

    With frozen frames trial t's phases are draws t r .. t r + r - 1 of the
    seed's fiber stream, so the chunk's (b, r) phases come from one
    fiber_phases seek and its rotation rows from one fiber_matrices
    broadcast; trial 0 is the configuration build_configuration makes over
    the frozen points with the same seed. A resampled trial draws its points
    and then its phases from its own keyed stream, so those trials run one
    Generator each; with s >= 3 they take fiber_pair_energies, the whole
    chunk in one call, and an energy is fibered_energy(r, s, K) - s F of its
    kernel and fluctuation sums. The rest take the direct pair sum over
    their rotation rows. Both routes walk a trial's pairs in the same 64-row
    bands and combine the band partials with fsum. The identity costs about
    as much per fiber pair as the direct sum spends on nine rotation pairs,
    so with s <= 2 (at most four) it is slower once r passes a few dozen;
    fixed-point runs check the identity's phase average, so computing them
    through it would make the check circular.
    """
    kind, r, s, master_seed, lo, hi, frames = args
    b, n = hi - lo, r * s
    if frames is not None:
        phases = fiber_phases(master_seed, lo * r, b * r).reshape(b, r)
    else:
        frames = np.empty((b, r, 3, 3))
        phases = np.empty((b, r))
        for i, t in enumerate(range(lo, hi)):
            rng = keyed_stream(master_seed, DOMAIN_TRIAL, t)
            frames[i] = base_frames(sample_points(kind, r, rng))
            phases[i] = rng.uniform(0.0, _TWO_PI, r)
        if s >= 3:
            kernel, fluct, mins = fiber_pair_energies(frames, phases, s)
            return fibered_energy(r, s, kernel) - s * fluct, mins
    # one workspace for the rows, then the band buffer: as separate arrays the
    # largest block freed is too small to hold glibc's heap trim threshold up,
    # and every chunk faults its pages back in (1,833 minor faults a round)
    work = np.empty(b * (9 * n + band_len(n)))
    rows = fiber_matrices(frames, phases, s, out=work)
    sums, mins = pair_log_sums(rows, out=work[9 * b * n :])
    return -sums, mins


def resolve_workers(workers=None):
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("SO3ENERGY_WORKERS", "")
    if env.strip():
        return max(1, int(env))
    return 1


def run_experiment(cfg, workers=None):
    """Run the Monte Carlo and compare against the matching prediction.

    Trials whose configuration has a coincident pair (infinite energy) are
    excluded and counted; more than 0.1% of them fails the run.
    """
    spec = cfg.spec
    kind, r = spec.kind, spec.r
    points = None
    if not cfg.resample_points:
        points = sample_points(kind, r, keyed_stream(cfg.master_seed, DOMAIN_POINTS))
    s, prediction, prediction_kind = _energy_prediction(kind, r, spec.s, points)
    n = r * s
    frames = None if points is None else base_frames(points)

    b = chunk_size(n)
    tasks = [
        (kind, r, s, cfg.master_seed, lo, min(lo + b, cfg.trials), frames)
        for lo in range(0, cfg.trials, b)
    ]
    nworkers = min(resolve_workers(workers), len(tasks))
    if nworkers == 1:
        results = [_chunk_energies(t) for t in tasks]
    else:
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        with multiprocessing.get_context(method).Pool(nworkers) as pool:
            results = pool.map(_chunk_energies, tasks)

    energies = np.concatenate([res[0] for res in results])
    mins = np.concatenate([res[1] for res in results])
    good = (mins >= COINCIDENCE_TOL) & np.isfinite(energies)
    excluded = int(np.count_nonzero(~good))
    if excluded > _MAX_EXCLUDED_FRACTION * cfg.trials:
        raise RuntimeError(f"{excluded} of {cfg.trials} trials coincident; seed or sampler is broken")
    # Python floats: fsum and ** 2 (libm pow, as for numpy scalars) skip the
    # per-element numpy scalar boxing
    vals = energies[good].tolist()
    m = len(vals)
    mean = math.fsum(vals) / m
    if m >= 2:
        var = math.fsum([(v - mean) ** 2 for v in vals]) / (m - 1)
        std_error = math.sqrt(var / m)
    else:
        std_error = math.inf
    agrees = abs(mean - prediction) <= _AGREEMENT_REL * abs(prediction)
    if agrees or math.isinf(std_error):
        z = 0.0
    elif std_error == 0.0:
        z = math.inf
    else:
        z = (mean - prediction) / std_error
    if prediction_kind == "upper_bound":
        passed = agrees or mean <= prediction
    else:
        passed = abs(z) <= _Z_THRESHOLD
    return EstimateReport(
        ensemble=kind,
        r=r,
        s=s,
        trials=cfg.trials,
        master_seed=cfg.master_seed,
        mean=mean,
        std_error=std_error,
        prediction=prediction,
        prediction_kind=prediction_kind,
        z_score=z,
        passed=passed,
        excluded=excluded,
    )
