"""Logarithmic energy of rotation configurations and its closed-form expectations.

The energy of O_1..O_n is -(1/2) sum_{i != j} log(6 - 2 trace(O_i^T O_j)).
Every pair sum walks the pairs i < j in fixed 64-row bands (_band_pairs):
each band's values are summed pairwise and the band partials combined
exactly (fsum), so the value never depends on thread count or batch size.

Fiber-pair identity. Take r fibers of s rotations, fiber i being
H_i R(phi_i + 2 pi k / s) with H_i e3 = p_i. For fibers i < j put
t = <p_i, p_j>, M = H_i^T H_j, psi = atan2(m12 - m21, m11 + m22) and
theta = phi_j - phi_i - psi. Every one of their s^2 cross distances is
a - b cos(theta + 2 pi m / s) with a = 6 - 2t, b = 2(1 + t), each m occurring
s times, and the cyclotomic product (Gradshteyn-Ryzhik 1.394) gives the
whole block as

    s^2 * 2 log(sqrt 2 + q) + s * log((1 - y)^2 + 4 y sin^2(s theta / 2)),

q = sqrt(1 - t), y = x^s, x = (sqrt 2 - q) / (sqrt 2 + q). The first term is
the phase average, so the energy is predicted_energy(points, s) minus s times
the sum of the second, mean-zero term over fiber pairs: a few transcendental
functions per fiber pair for any s, against s^2 logs per fiber pair for the
direct pair sum. fiber_pair_energies returns each trial's kernel energy K,
from sphere_kernel_energy's band walk (_kernel_bands), and fluctuation sum F;
the energy is fibered_energy(r, s, K) - s F.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .construct import Configuration
from .geometry import _unit_points, first_non_rotation
from .quadrature import integrate

_BAND = 64
# squared-distance threshold under which a pair counts as coincident
COINCIDENCE_TOL = 1e-14
# band entries (trials x min(r, 64) x r) fiber_pair_energies handles at once;
# every value is computed per trial, so the grouping only keeps its arrays in
# cache
_FIBER_GROUP = 2**14
# head entries (batches x m x m) _band_pairs forms at once
_HEAD_BLOCK = 2**15

_LOG2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)


@lru_cache(maxsize=_BAND)
def _head_index(m):
    """Flat indices j m + i of the pairs i < j of an m x m block stored
    transposed (entry [j, i]), in the row-major order of (i, j). Read-only."""
    i, j = np.triu_indices(m, 1)
    flat = j * m + i
    flat.setflags(write=False)
    return flat


def _bands(n):
    """(a0, a1) of the 64-row bands of n items that hold the pairs i < j,
    and one empty band when there is no pair."""
    for a0 in range(0, max(n - 1, 1), _BAND):
        yield a0, min(a0 + _BAND, n)


def band_len(n):
    """Pairs per batch row in the first, and largest, 64-row band of n items:
    the length per batch row of a pair_log_sums buffer."""
    m = min(n, _BAND)
    return m * (m - 1) // 2 + (n - m) * m


def _band_pairs(op, u, vt, a0, a1, out=None):
    """op over the pairs i < j with a0 <= i < a1 of b batches of n items, as
    a C-contiguous (b, k) array whose rows numpy sums pairwise.

    Entry (i, j) is op(u[:, j], vt[:, :, i]): u is (b, n, p) and vt (b, p, n),
    so np.matmul gives u_j . v_i and np.subtract, on (b, n, 1) and (b, 1, n)
    views, gives u_j - v_i. The band is formed transposed, items a0..n-1
    against a0..a1-1. Its m x m head, m = a1 - a0, is formed for a block of
    about 2^15 entries of batches at a time, in one block buffer, and goes
    through a gather in the order (i, j); the tail, items a1..n-1, holds only
    pairs i < j, and op writes it straight into the rest of each row, ordered
    (j, i). The (b, k) array is the start of the flat buffer out when one is
    given (it needs b k entries), and a new array otherwise.
    """
    b, n = u.shape[:2]
    m = a1 - a0
    head = _head_index(m)
    h = len(head)
    k = h + (n - a1) * m
    out = np.empty((b, k)) if out is None else out[: b * k].reshape(b, k)
    v = vt[:, :, a0:a1]
    block = _HEAD_BLOCK // max(m * m, 1)
    square = np.empty((min(b, block), m, m))
    for k0 in range(0, b, block):
        k1 = min(k0 + block, b)
        sq = op(u[k0:k1, a0:a1], v[k0:k1], out=square[: k1 - k0])
        # with its default mode="raise", take would fill a buffer and copy it to out
        np.take(sq.reshape(k1 - k0, m * m), head, axis=1, out=out[k0:k1, :h], mode="clip")
    op(u[:, a1:], v, out=out[:, h:].reshape(b, n - a1, m))
    return out


def _fsum_rows(partials):
    """The fsum per batch row of a list of (b,) partials. One partial is
    returned as it is, save that -0.0 becomes 0.0, as fsum would make it."""
    if len(partials) == 1:
        return partials[0] + 0.0
    stacked = np.stack(partials, axis=1)
    return np.array(list(map(math.fsum, stacked.tolist())))


def pair_log_sums(rows, out=None):
    """Sums over unordered pairs of log squared distance, batched, and the
    smallest pair squared distances, each of shape (b,).

    rows is a (b, n, 9) batch of n rotations flattened row-major. The squared
    distances 6 - 2 <O_i, O_j> are formed one 64-row band at a time, each in
    the same buffer of b band_len(n) entries (out, when given), and their
    logs taken in place: the largest array holds b x 64 x n pairs, and the
    only squares are the bands' heads of at most 64 x 64, about 2^15 entries
    at a time. Each band's logs are summed pairwise and the band partials
    combined with fsum per batch row, so a trial gives the same bits alone
    and in a batch.
    """
    b, n = rows.shape[:2]
    if out is None:
        out = np.empty(b * band_len(n))
    rows_t = rows.transpose(0, 2, 1)
    partials = []
    mins = np.inf
    for a0, a1 in _bands(n):
        d = _band_pairs(np.matmul, rows, rows_t, a0, a1, out)
        d *= -2.0
        d += 6.0
        mins = np.minimum(mins, d.min(axis=1, initial=np.inf))
        with np.errstate(divide="ignore", invalid="ignore"):
            partials.append(np.log(d, out=d).sum(axis=1))
    return _fsum_rows(partials), mins


def log_energy(config):
    """Logarithmic energy of a configuration or an (n, 3, 3) stack of rotations.

    Returns a float: math.inf when a pair is closer than the coincidence
    tolerance, instead of a silent -inf. Raises ValueError
    for another shape, an empty stack, and a matrix with a non-finite entry
    or that is not a rotation within 1e-10 (geometry.rotation_mask). A
    Configuration is checked once, however often it is asked
    (Configuration.first_non_rotation).
    """
    mats = np.asarray(getattr(config, "matrices", config), dtype=float)
    if mats.ndim != 3 or mats.shape[1:] != (3, 3):
        raise ValueError(f"need an (n, 3, 3) stack of rotations, got shape {mats.shape}")
    n = len(mats)
    if n < 1:
        raise ValueError("configuration must contain at least one rotation")
    i = config.first_non_rotation if isinstance(config, Configuration) else first_non_rotation(mats)
    if i is not None:
        what = "is not a rotation" if np.isfinite(mats[i]).all() else "has a non-finite entry"
        raise ValueError(f"matrix {i} {what}")
    if n == 1:
        return 0.0
    sums, mins = pair_log_sums(mats.reshape(1, n, 9))
    if mins[0] < COINCIDENCE_TOL:
        return math.inf
    return float(-sums[0])


def sphere_kernel(t):
    """log(1 + sqrt((1 - t)/2)) for inner products t, clamped at the ends."""
    t = np.asarray(t, dtype=float)
    if np.any(t < -1.0 - 1e-12) or np.any(t > 1.0 + 1e-12):
        raise ValueError("inner product outside [-1, 1] beyond tolerance")
    t = np.clip(t, -1.0, 1.0)
    out = np.log1p(np.sqrt((1.0 - t) / 2.0))
    return float(out) if out.ndim == 0 else out


def _kernel_bands(pts):
    """(a0, a1, t, kernel partial) for each 64-row band of the pairs i < j of
    points pts, shape (b, r, 3): t holds the band's inner products clipped to
    [-1, 1], the partial its sphere_kernel summed pairwise per batch row."""
    pts_t = pts.transpose(0, 2, 1)
    for a0, a1 in _bands(pts.shape[1]):
        t = np.clip(_band_pairs(np.matmul, pts, pts_t, a0, a1), -1.0, 1.0)
        yield a0, a1, t, sphere_kernel(t).sum(axis=1)


def sphere_kernel_energy(points):
    """Sum of sphere_kernel over ordered pairs of distinct indices. The points
    must be finite unit vectors (norm within 1e-10 of 1)."""
    partials = [kernel for *_, kernel in _kernel_bands(_unit_points(points)[None])]
    return 2.0 * float(_fsum_rows(partials)[0])


def fibered_energy(r, s, kernel_energy):
    """-(n^2/2) log 2 + (n/2) log 2 - n log s - s^2 kernel_energy, n = r s.

    The expected energy of r fibers of s rotations with independent uniform
    phases, given the sphere_kernel_energy of (or a bound on) their base points.
    """
    n = r * s
    return -(n * n / 2.0) * _LOG2 + (n / 2.0) * _LOG2 - n * math.log(s) - s * s * kernel_energy


def predicted_energy(points, s):
    """Expected energy over the phases of s-fibers on fixed base points:
    fibered_energy of their sphere_kernel_energy, which checks the points."""
    kernel = sphere_kernel_energy(points)
    # r rows of 3 once the check has passed, a single (3,) point included
    r = np.size(points) // 3
    if r < 1 or s < 1:
        raise ValueError("need r >= 1 and s >= 1")
    return fibered_energy(r, s, kernel)


def _fluctuation_logs(slog_x, s_theta):
    """log((1 - y)^2 + 4 y sin^2(s theta / 2)) with y = x^s = exp(slog_x).

    1 - y is taken as -expm1(s log x): at y = 1 - 1e-9 and s theta = 1e-9,
    log1p(-2 y cos(s theta) + y^2) would give -inf for the true -40.75.
    """
    y = np.exp(slog_x)
    return np.log(np.square(np.expm1(slog_x)) + 4.0 * y * np.square(np.sin(0.5 * s_theta)))


def fiber_pair_energies(frames, phases, s):
    """Kernel energies K, fluctuation sums F and smallest pair squared
    distances of b trials of r fibers, each of shape (b,).

    Trial k's fiber i is frames[k, i] @ R(phases[k, i] + 2 pi j / s),
    j = 1..s, the rows construct.fiber_matrices builds; frames is (b, r, 3, 3)
    and phases (b, r). K is the sphere_kernel_energy of the base points
    frames[k, :, :, 2], bit for bit, and F the fluctuation logs summed over
    fiber pairs, so by the fiber-pair identity (module docstring) the energy
    is fibered_energy(r, s, K) - s F: the phase average and a mean-zero part.
    The pairs i < j are visited in the 64-row bands of _kernel_bands: fibers
    a0..a1-1 against a0..r-1, two more products and one phase difference per
    band, so the largest array grows as 64 r, not r^2. Each band's terms are
    summed pairwise, and a trial's band partials are combined with fsum, as on
    the direct route; with r <= 64 the one band's pairwise sum is the sum. A
    fiber pair's smallest squared distance is a - b cos(dist(theta, 2 pi Z / s));
    the returned minima also cover the within-fiber 4 - 4 cos(2 pi / s).
    """
    frames = np.asarray(frames, dtype=float)
    phases = np.asarray(phases, dtype=float)
    nb, r = phases.shape
    group = max(1, _FIBER_GROUP // (min(r, _BAND) * r))
    if nb > group:
        parts = [fiber_pair_energies(frames[k : k + group], phases[k : k + group], s) for k in range(0, nb, group)]
        return tuple(map(np.concatenate, zip(*parts)))
    cols = frames[..., :2]
    a = cols.reshape(nb, r, 6)
    b = (cols[..., ::-1] * (1.0, -1.0)).reshape(nb, r, 6)
    at = a.transpose(0, 2, 1)
    step = 2.0 * math.pi / s
    kernels, flucts = [], []
    dmin = np.full(nb, 8.0 * math.sin(math.pi / s) ** 2 if s > 1 else math.inf)
    for a0, a1, t, kernel in _kernel_bands(frames[..., 2]):
        # a_i . a_j is m11 + m22 and a_i . b_j is m12 - m21 of H_i^T H_j
        psi = np.arctan2(_band_pairs(np.matmul, b, at, a0, a1), _band_pairs(np.matmul, a, at, a0, a1))
        theta = _band_pairs(np.subtract, phases[:, :, None], phases[:, None, :], a0, a1) - psi
        # theta less its nearest multiple of 2 pi / s: |u| = dist(theta, 2 pi Z / s),
        # and sin^2(s u / 2) = sin^2(s theta / 2), with small arguments for sin
        u = theta - step * np.rint(theta / step)
        q = np.sqrt(1.0 - t)
        with np.errstate(divide="ignore"):
            # s log x with x = (sqrt 2 - q) / (sqrt 2 + q) = 1 - 2q / (sqrt 2 + q)
            slog_x = s * np.log1p(-2.0 * q / (_SQRT2 + q))
            fluct = _fluctuation_logs(slog_x, s * u)
        # one partial per band: each row is contiguous, so numpy sums it
        # pairwise, batch or not
        kernels.append(kernel)
        flucts.append(fluct.sum(axis=1))
        # a - b cos(u) = 4 (1 - t) + 4 (1 + t) sin^2(u / 2), without cancellation
        d = 4.0 * (1.0 - t) + 4.0 * (1.0 + t) * np.square(np.sin(0.5 * u))
        dmin = np.minimum(dmin, d.min(axis=1, initial=np.inf))
    return 2.0 * _fsum_rows(kernels), _fsum_rows(flucts), dmin


def circle_average_quadrature(h):
    """Circle mean of log(6 - 2 trace(H R(phi))), the log squared distance
    from I to H R(phi), by quadrature for an explicit rotation H: the twin of
    log 2 + 2 sphere_kernel(h33), the phase average fibered_energy rests on."""
    h = np.asarray(h, dtype=float)
    # trace(H R(phi)) = (h11 + h22) cos phi + (h12 - h21) sin phi + h33
    a_c = h[0, 0] + h[1, 1]
    a_s = h[0, 1] - h[1, 0]
    h33 = h[2, 2]

    def f(phi):
        return np.log(6.0 - 2.0 * (a_c * np.cos(phi) + a_s * np.sin(phi) + h33))

    return integrate(f, 0.0, 2.0 * math.pi) / (2.0 * math.pi)
