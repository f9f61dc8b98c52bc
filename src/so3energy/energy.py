"""Logarithmic energy of rotation configurations and its closed-form expectations.

The energy of O_1..O_n is -(1/2) sum_{i != j} log(6 - 2 trace(O_i^T O_j)).
Pair sums are reduced over fixed 64x64 index tiles with an exact (fsum)
combination of tile partials, so the value never depends on thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import integrate

_TILE = 64
# squared-distance threshold under which a pair counts as coincident
COINCIDENCE_TOL = 1e-14

_LOG2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class EnergyValue:
    value: float
    is_infinite: bool = False

    def __float__(self):
        return self.value


def _upper_tiles(d):
    """The strict upper triangle of the trailing (n, n) axes of d, as (b, k)
    tiles of at most 64x64 entries, in a fixed order: each tile row starts
    with its diagonal tile."""
    b, n, _ = d.shape
    edges = list(range(0, n, _TILE)) + [n]
    for k in range(len(edges) - 1):
        a0, a1 = edges[k], edges[k + 1]
        iu = np.triu_indices(a1 - a0, 1)
        yield d[:, a0:a1, a0:a1][:, iu[0], iu[1]]
        for b0, b1 in zip(edges[k + 1 : -1], edges[k + 2 :]):
            yield d[:, a0:a1, b0:b1].reshape(b, -1)


def _upper_tile_sums(d, f):
    """Sum of f over the strict upper triangle of each (n, n) slice of d.

    Returns (sums, mins) with shape (b,), mins being the smallest entry
    visited. Tile partials are combined with fsum per batch row, so the
    value never depends on outer parallelism. Within a tile numpy sums
    pairwise, except that the diagonal tiles of a batch with b > 1 come out
    column-major and are summed in index order: the same slice can differ
    in the last bits between b = 1 and b > 1.
    """
    b, n, _ = d.shape
    if n < 2:
        return np.zeros(b), np.full(b, np.inf)
    partials = []
    mins = np.full(b, np.inf)
    for vals in _upper_tiles(d):
        if vals.shape[1]:
            mins = np.minimum(mins, vals.min(axis=1))
            partials.append(f(vals).sum(axis=1))
    stacked = np.stack(partials, axis=1)
    return np.array([math.fsum(row) for row in stacked]), mins


def pair_log_sums(dist_sq):
    """Tiled sum over unordered pairs of log(dist_sq), batched.

    dist_sq has shape (b, n, n); returns (sums, min_offdiag) with shape (b,).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return _upper_tile_sums(np.asarray(dist_sq, dtype=float), np.log)


def _rows_energies(rows):
    """Energies and smallest pair squared distances of a (b, n, 9) batch.

    Each batch row holds n rotations flattened row-major; the squared
    distances 6 - 2 <O_i, O_j> are formed in place in the Gram batch.
    """
    d = rows @ rows.transpose(0, 2, 1)
    d *= -2.0
    d += 6.0
    sums, mins = pair_log_sums(d)
    return -sums, mins


def log_energy(config):
    """Logarithmic energy of a configuration (or a raw (n, 3, 3) array).

    Returns EnergyValue; a pair closer than the coincidence tolerance sets
    the infinite flag instead of producing a silent -inf.
    """
    mats = getattr(config, "matrices", config)
    mats = np.asarray(mats, dtype=float)
    n = len(mats)
    if n < 1:
        raise ValueError("configuration must contain at least one rotation")
    if n == 1:
        return EnergyValue(0.0)
    energies, mins = _rows_energies(mats.reshape(1, n, 9))
    if mins[0] < COINCIDENCE_TOL:
        return EnergyValue(math.inf, is_infinite=True)
    return EnergyValue(float(energies[0]))


def sphere_kernel(t):
    """log(1 + sqrt((1 - t)/2)) for inner products t, clamped at the ends."""
    t = np.asarray(t, dtype=float)
    if np.any(t < -1.0 - 1e-12) or np.any(t > 1.0 + 1e-12):
        raise ValueError("inner product outside [-1, 1] beyond tolerance")
    t = np.clip(t, -1.0, 1.0)
    out = np.log1p(np.sqrt((1.0 - t) / 2.0))
    return float(out) if out.ndim == 0 else out


def sphere_kernel_energy(points):
    """Sum of sphere_kernel over ordered pairs of distinct indices."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    g = np.clip(pts @ pts.T, -1.0, 1.0)
    sums, _ = _upper_tile_sums(g[None], sphere_kernel)
    return 2.0 * float(sums[0])


def fibered_energy(r, s, kernel_energy):
    """-(n^2/2) log 2 + (n/2) log 2 - n log s - s^2 kernel_energy, n = r s.

    The expected energy of r fibers of s rotations with independent uniform
    phases, given the sphere_kernel_energy of (or a bound on) their base points.
    """
    n = r * s
    return -(n * n / 2.0) * _LOG2 + (n / 2.0) * _LOG2 - n * math.log(s) - s * s * kernel_energy


def predicted_energy(points, s):
    """Expected energy over the phases of s-fibers on fixed base points:
    fibered_energy of their sphere_kernel_energy."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = len(pts)
    if r < 1 or s < 1:
        raise ValueError("need r >= 1 and s >= 1")
    return fibered_energy(r, s, sphere_kernel_energy(pts))


def circle_average(h33, alpha, beta):
    """Closed-form circle mean of log(alpha + beta * trace(H R(phi))).

    h33 is the (3,3) entry of H. Requires |beta| <= alpha/3, which keeps the
    argument of the logarithm nonnegative for every rotation H.
    """
    if abs(beta) > alpha / 3.0:
        raise ValueError(f"need |beta| <= alpha/3, got alpha={alpha}, beta={beta}")
    if not -1.0 - 1e-12 <= h33 <= 1.0 + 1e-12:
        raise ValueError("h33 must lie in [-1, 1]")
    h33 = min(1.0, max(-1.0, h33))
    return 2.0 * math.log((math.sqrt(alpha - beta) + math.sqrt(alpha + beta + 2.0 * beta * h33)) / 2.0)


def circle_average_quadrature(h, alpha, beta, tol=1e-10):
    """Quadrature twin of circle_average for an explicit rotation H."""
    if abs(beta) > alpha / 3.0:
        raise ValueError(f"need |beta| <= alpha/3, got alpha={alpha}, beta={beta}")
    h = np.asarray(h, dtype=float)
    # trace(H R(phi)) = (h11 + h22) cos phi + (h12 - h21) sin phi + h33
    a_c = h[0, 0] + h[1, 1]
    a_s = h[0, 1] - h[1, 0]
    h33 = h[2, 2]

    def f(phi):
        return np.log(alpha + beta * (a_c * np.cos(phi) + a_s * np.sin(phi) + h33))

    return integrate(f, 0.0, 2.0 * math.pi, tol=tol) / (2.0 * math.pi)


def crossed_expectation(p, q, s):
    """Expected crossed pair sum between two fibers of count s.

    Equals s^2 log(sqrt 2 + sqrt(1 - <p, q>)), i.e.
    s^2 ((1/2) log 2 + sphere_kernel(<p, q>)).
    """
    if s < 1:
        raise ValueError(f"fiber count must be >= 1, got {s}")
    t = float(np.dot(np.asarray(p, dtype=float), np.asarray(q, dtype=float)))
    t = min(1.0, max(-1.0, t))
    return s * s * math.log(_SQRT2 + math.sqrt(1.0 - t))
