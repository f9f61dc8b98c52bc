"""Expected values for the benchmark's correctness checks, computed without so3energy.

Everything here uses numpy, the standard library and the frozen mpmath-derived
fixture tests/fixtures/oracle.json, so a check compares the package against a
route that shares none of its code.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

_LOG2 = math.log(2.0)
# Philox key layout of the package's point stream: (seed, domain 2 << 56 | 0)
_POINTS_KEY_HI = 2 << 56
_MASK64 = (1 << 64) - 1


def load_oracle(path):
    with open(path) as fh:
        return json.load(fh)


def uniform_points(master_seed, r):
    """The frozen base points of a fixed-point experiment: r normalized
    Gaussian triples from the point stream of `master_seed`."""
    key = np.array([master_seed & _MASK64, _POINTS_KEY_HI], dtype=np.uint64)
    g = np.random.Generator(np.random.Philox(key=key)).standard_normal((r, 3))
    return g / np.linalg.norm(g, axis=1)[:, None]


def configuration_prediction(r, s, kernel_sum):
    """-(n^2/2) log 2 + (n/2) log 2 - n log s - s^2 kernel_sum, n = r s."""
    n = r * s
    return -(n * n / 2.0) * _LOG2 + (n / 2.0) * _LOG2 - n * math.log(s) - s * s * kernel_sum


def fixed_point_prediction(points, s):
    """Phase-averaged energy over frozen base points: the kernel sum runs over
    ordered pairs i != j of log(1 + sqrt((1 - <p_i, p_j>) / 2))."""
    r = len(points)
    t = np.clip(points @ points.T, -1.0, 1.0)
    off = t[~np.eye(r, dtype=bool)]
    kernel_sum = math.fsum(np.log1p(np.sqrt((1.0 - off) / 2.0)).tolist())
    return configuration_prediction(r, s, kernel_sum)


def zeros_prediction(oracle, r, s):
    return configuration_prediction(r, s, oracle["zeros"]["I_r"][str(r)])


def zeros_optimal_s(oracle, r):
    """floor(sqrt(4 r / (9 |J|))) with J from the oracle."""
    return max(1, math.floor(math.sqrt(4.0 * r / (9.0 * abs(oracle["constants"]["J"])))))


def pooled_mean_and_error(groups):
    """Mean and standard error over all trials of several runs, each given as
    (trials, mean, std_error) with trials >= 2; exact pooled sample variance."""
    total = sum(t for t, _, _ in groups)
    mean = math.fsum(t * m for t, m, _ in groups) / total
    within = math.fsum((t - 1) * t * se * se for t, _, se in groups)
    between = math.fsum(t * (m - mean) ** 2 for t, m, _ in groups)
    return mean, math.sqrt((within + between) / (total - 1) / total)


def read_rows(path, fmt):
    """The (n, 9) rotation rows of a stored configuration, parsed directly."""
    with open(path, newline="") as fh:
        if fmt == "json":
            return np.array(json.load(fh)["matrices"], dtype=float)
        rows = [row for row in csv.reader(line for line in fh if not line.startswith("#"))]
    return np.array(rows[1:], dtype=float)


def max_rotation_error(rows):
    """Largest deviation of any row, read as a 3x3 matrix, from O^T O = I and det O = 1."""
    m = rows.reshape(-1, 3, 3)
    orth = np.abs(np.einsum("nki,nkj->nij", m, m) - np.eye(3)).max()
    det = np.abs(np.linalg.det(m) - 1.0).max()
    return float(max(orth, det))


def direct_log_energy(rows, block=128):
    """-1/2 sum over i != j of log(6 - 2 tr(O_i^T O_j)).

    Row blocks keep the benchmark's own memory below the program's, so the
    check does not set the peak RSS it reports; numpy's pairwise sums are
    accurate to ~1e-15 relative here, well inside the 1e-12 the check allows.
    """
    n = len(rows)
    partials = []
    for a in range(0, n, block):
        d = 6.0 - 2.0 * (rows[a : a + block] @ rows.T)
        keep = np.ones(d.shape, dtype=bool)
        idx = np.arange(len(d))
        keep[idx, a + idx] = False
        partials.append(np.log(d[keep]).sum())
    return -0.5 * math.fsum(partials)
