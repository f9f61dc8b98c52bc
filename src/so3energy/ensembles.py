"""Samplers for the four tractable spherical point processes: uniform i.i.d.
points, zeros of random elliptic (Kostlan) polynomials, points in an
equal-area partition, and the spherical ensemble of generalized eigenvalues.

All samplers return an array of shape (r, 3) with one unit vector per row
and are deterministic given the supplied generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import _gaussian_directions, inverse_stereographic

ENSEMBLE_KINDS = ("uniform", "zeros", "eap", "spherical")

_DEGENERATE_LEAD = 1e-300
# Aberth's step tolerance, sweeps per attempt, restarts and acceptance test
# (see aberth_roots)
_STEP_TOL = 1e-12
_MAX_SWEEPS = 200
_RETRIES = 3
_RESIDUAL_TOL = 1e-10
# Aberth's Cauchy sums come from a Gram product of squared distances, except
# for pairs closer than sqrt(_GRAM_FLOOR) |z_i|, where the product's
# cancellation error (about 4 eps / _GRAM_FLOOR of the term) is too large.
# The products run over chunks of active roots whose distances take about
# _GRAM_CHUNK_BYTES, so that they stay in cache. Sweeps over fewer than
# _GRAM_MIN_WORK (active root, root) pairs take complex subtraction
# throughout, and degrees below _ONE_BLOCK_DEGREE evaluate p and p' in one
# block: there a sweep's cost is numpy call overhead, not arithmetic
# (crossovers measured on Kostlan polynomials, r = 24 to 160, one BLAS
# thread).
_GRAM_FLOOR = 1e-4
_GRAM_CHUNK_BYTES = 1 << 20
_GRAM_MIN_WORK = 4096
_ONE_BLOCK_DEGREE = 64
# a sweep that falls back to complex subtraction allocates an
# (active x degree) complex array, up to 268 MB at this degree; a larger
# polynomial is refused rather than run out of memory
_MAX_DEGREE = 4096
# the coefficient variances comb(r, j) / 2 pass the double range from r = 1030
_MAX_ZEROS_DEGREE = 1029


class RootFindingError(RuntimeError):
    """Simultaneous root iteration failed to converge after all retries."""


@dataclass(frozen=True)
class EnsembleSpec:
    """Which spherical process to draw, its size, and the fiber count.

    ``s=None`` means "use the ensemble's optimal fiber count".
    """

    kind: str
    r: int
    s: int | None = None

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.r < 1:
            raise ValueError(f"point count must be >= 1, got {self.r}")
        if self.s is not None and self.s < 1:
            raise ValueError(f"fiber count must be >= 1, got {self.s}")


# --- uniform ----------------------------------------------------------------


def sample_uniform(r, rng):
    """r i.i.d. uniform points on the sphere (three Gaussians, normalized)."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    return _gaussian_directions(rng, r, 3)


# --- elliptic polynomial zeros ----------------------------------------------


def _fill_powers(pw):
    """pw[j] = pw[1]^j for j >= 2, given pw[0] = 1: doubling, rows k..2k-1 are
    rows 0..k-1 times pw[1]^k, one vectorized product per power of two."""
    k = 2
    while k < len(pw):
        m = min(k, len(pw) - k)
        np.multiply(pw[:m], pw[k // 2] * pw[k // 2], out=pw[k : k + m])
        k *= 2


def _block_sums(k_in, k_out, baby, giant, n_in, out):
    """sum_m giant[m] (k @ baby)[m] for h polynomials held blockwise.

    k_in and k_out are (h nb, b) stacks of coefficient blocks; columns
    [:n_in] of baby (b, a) take k_in and the rest k_out. out is an
    (h nb, a) buffer. Returns (h, a).
    """
    if n_in:
        np.matmul(k_in, baby[:, :n_in], out=out[:, :n_in])
    if n_in < baby.shape[1]:
        np.matmul(k_out, baby[:, n_in:], out=out[:, n_in:])
    if len(giant) == 1:
        return out
    out = out.reshape(-1, len(giant), out.shape[1])
    return np.multiply(out, giant, out=out).sum(axis=1)


def _inner_first(az):
    """The order that puts the points with modulus az <= 1 first, and their count.

    Those are evaluated in u = z; the rest in u = 1/z, where
    p(z) = z^r sum_j a_(r-j) u^j, so that |u| <= 1 and no power overflows.
    """
    outer = az > 1.0
    return np.argsort(outer, kind="stable"), len(az) - np.count_nonzero(outer)


def _direct_cauchy_sums(za, z, active):
    """sum_(j != active[i]) 1 / (za[i] - z[j]) by complex subtraction."""
    diff = za[:, None] - z[None, :]
    diff[np.arange(len(za)), active] = np.inf
    return np.reciprocal(diff, out=diff).sum(axis=1)


class _AberthWorkspace:
    """Coefficient blocks of one polynomial and the work buffers of its root
    iteration, sized for all r roots and reused by every sweep and attempt.

    p is evaluated in blocks: with b = ceil(sqrt(r + 1)) (b = r + 1 below
    _ONE_BLOCK_DEGREE) and nb = ceil((r + 1) / b),
    p(u) = sum_m (u^b)^m sum_l a_(m b + l) u^l. a points need the powers
    u^0..u^(b-1) and (u^b)^0..(u^b)^(nb-1), (b + nb) a of them, by doubling;
    one (2 nb, b) x (b, a) product gives the blocks of p and p' together, and
    one contraction against the giant powers sums them.
    """

    def __init__(self, c):
        r = len(c) - 1
        b = r + 1 if r < _ONE_BLOCK_DEGREE else math.isqrt(r) + 1
        nb = -(-(r + 1) // b)
        j = np.arange(r + 1)
        # p and p' against powers of z; z^-r p and z^(1-r) p' against powers
        # of 1/z, whose ratio times z is p/p'
        k = np.zeros((4, nb * b), dtype=complex)
        k[0, : r + 1] = c
        k[1, :r] = c[1:] * j[1:]
        k[2, : r + 1] = c[::-1]
        k[3, : r + 1] = (c * j)[::-1]
        self.nb = nb
        self.k_in, self.k_out = k[:2].reshape(2 * nb, b), k[2:].reshape(2 * nb, b)
        self.baby = np.ones((b, r), dtype=complex)
        self.giant = np.ones((nb, r), dtype=complex)
        self.prod = np.empty((2 * nb, r), dtype=complex)
        if r * r >= _GRAM_MIN_WORK:
            self.chunk = max(8, _GRAM_CHUNK_BYTES // (8 * r))
            self.gram = np.empty(r * min(r, self.chunk))
            # row j of `rows` is (x_j, y_j, 1, |z_j|^2) and column i of `cols`
            # is (-2 x_i, -2 y_i, |z_i|^2, 1), so rows @ cols is |z_j - z_i|^2
            self.rows = np.ones((r, 4))
            self.cols = np.ones((4, r))

    def _powers(self, za, n_in):
        """Views baby (b, a) and giant (nb, a) holding u^l and (u^b)^m, where
        u is za[:n_in] and 1/za[n_in:]."""
        a = len(za)
        baby, giant = self.baby[:, :a], self.giant[:, :a]
        baby[1, :n_in] = za[:n_in]
        np.reciprocal(za[n_in:], out=baby[1, n_in:])
        _fill_powers(baby)
        if len(giant) > 1:
            np.multiply(baby[-1], baby[1], out=giant[1])
            _fill_powers(giant)
        return baby, giant

    def newton_ratios(self, za, n_in):
        """p(z)/p'(z) at za, whose first n_in entries have |z| <= 1."""
        baby, giant = self._powers(za, n_in)
        pd = _block_sums(self.k_in, self.k_out, baby, giant, n_in, self.prod[:, : len(za)])
        w = pd[0] / pd[1]
        w[n_in:] *= za[n_in:]
        return w

    def relative_residuals(self, z):
        """|p(z)| / sum_j |a_j| |z|^j at each of the r roots z, without overflow."""
        nb, a = self.nb, len(z)
        order, n_in = _inner_first(np.abs(z))
        baby, giant = self._powers(z[order], n_in)
        num = _block_sums(self.k_in[:nb], self.k_out[:nb], baby, giant, n_in, self.prod[:nb, :a])[0]
        k_in, k_out = np.abs(self.k_in[:nb]), np.abs(self.k_out[:nb])
        den = _block_sums(k_in, k_out, np.abs(baby), np.abs(giant), n_in, np.empty((nb, a)))[0]
        out = np.empty(a)
        out[order] = np.abs(num) / den
        return out

    def cauchy_sums(self, z, active, za):
        """sum_(j != active[i]) 1 / (za[i] - z[j]) for every active root.

        With q_ji = 1 / |z_j - z_i|^2 the sum is conj(z_i) sum_j q_ji -
        sum_j q_ji conj(z_j). For each chunk of active roots (see
        _GRAM_CHUNK_BYTES) one k = 4 product gives the (r, chunk) squared
        distances, one in-place reciprocal q, and one n = 3 product the three
        sums. A pair closer than sqrt(_GRAM_FLOOR) |z_i|, where the product's
        cancellation error could pass 1e-11 of the term, is left out of the
        product and added by complex subtraction. Every sum takes complex
        subtraction when some |z| leaves (1e-145, 1e145), where |z|^2 or q
        could leave the double range, or when the sweep is too small to repay
        the products.
        """
        a, r = len(active), len(z)
        if a * r < _GRAM_MIN_WORK:
            return _direct_cauchy_sums(za, z, active)
        az = np.abs(z)
        if not (az.max() < 1e145 and az.min() > 1e-145):
            return _direct_cauchy_sums(za, z, active)
        rows, cols = self.rows, self.cols
        zv = z.view(float).reshape(r, 2)
        t = az * az
        rows[:, :2] = zv
        rows[:, 3] = t
        np.multiply(zv.T, -2.0, out=cols[:2])
        cols[2] = t
        s = np.empty(a, dtype=complex)
        for lo in range(0, a, self.chunk):
            part = slice(lo, lo + self.chunk)
            s[part] = self._gram_sums(z, t, active[part], za[part])
        return s

    def _gram_sums(self, z, t, active, za):
        """cauchy_sums for a chunk of active roots whose (r, a) distances fit
        the Gram buffer; rows and cols hold the current roots."""
        a, r = len(active), len(z)
        rows = self.rows
        # np.take keeps the (4, a) operand C-ordered; cols[:, active] would not
        h = np.matmul(rows, np.take(self.cols, active, axis=1), out=self.gram[: r * a].reshape(r, a))
        h[active, np.arange(a)] = np.inf
        floor = _GRAM_FLOOR * t[active]
        close = np.flatnonzero(h.min(axis=0) <= floor)
        if len(close):
            # the close pairs (j, i) leave the product and are added exactly
            j, k = np.nonzero(h[:, close] <= floor[close])
            i = close[k]
            h[j, i] = np.inf
        q = np.reciprocal(h, out=h).T @ rows[:, :3]
        s = za * q[:, 2]
        s -= q[:, :2].view(complex)[:, 0]
        np.conjugate(s, out=s)
        if len(close):
            np.add.at(s, i, np.reciprocal(za[i] - z[j]))
        return s


def _newton_polygon_starts(c):
    """Radii and angles of Bini's starting points for the roots of sum_j c[j] z^j.

    The upper convex hull of the points (j, log|c_j|), exactly zero
    coefficients left out, has one edge per group of roots of like modulus:
    an edge from i0 to i1 holds i1 - i0 points on a circle of radius
    (|c_i0| / |c_i1|)^(1/(i1 - i0)), turned by 2 pi i0 / r. Needs c_0 != 0.
    """
    r = len(c) - 1
    idx = np.flatnonzero(c)
    y = np.log(np.abs(c[idx]))
    xs, ys = idx.tolist(), y.tolist()
    hull = []
    for k in range(len(xs)):
        # drop the last vertex while it lies on or below the chord to point k
        while len(hull) >= 2:
            a, m = hull[-2], hull[-1]
            if (ys[m] - ys[a]) * (xs[k] - xs[a]) > (ys[k] - ys[a]) * (xs[m] - xs[a]):
                break
            hull.pop()
        hull.append(k)
    i0, i1 = idx[hull[:-1]], idx[hull[1:]]
    counts = i1 - i0
    log_radii = (y[hull[:-1]] - y[hull[1:]]) / counts
    edge = np.repeat(np.arange(len(counts)), counts)
    k = np.arange(r) - np.repeat(i0, counts)
    angles = 2.0 * np.pi * (k / counts[edge] + i0[edge] / r)
    return np.exp(log_radii[edge]), angles


def aberth_roots(coeffs):
    """All complex roots of sum_j coeffs[j] z^j by Aberth-Ehrlich iteration.

    coeffs runs from the constant term up; the leading coefficient must be
    nonzero and the degree at most 4096. Each leading zero coefficient
    (coeffs[0] = coeffs[1] = ... = 0) gives one exact root 0, returned first;
    the rest solve the deflated polynomial. The iteration starts from Bini's
    Newton-polygon points: one circle per edge of the upper convex hull of
    (j, log|coeffs[j]|), with as many points as the edge is long, so roots of
    very different moduli start near their own circle. A root stops moving
    once its step satisfies |dz| <= 1e-12 (1 + |z|); later sweeps update only
    the roots still moving, each against all r current roots. An attempt of
    at most 200 sweeps is accepted when every relative residual ends below
    1e-10, so ill-conditioned roots whose forward steps stagnate still pass
    on backward error. Each of 3 retries restarts from the same circles,
    re-phased. Raises RootFindingError when every attempt fails.

    A sweep over a active roots does its O(a r) work in BLAS products: p and
    p' from sqrt(r)-long coefficient blocks, roots with |z| <= 1 in z and the
    rest in 1/z (see _AberthWorkspace), and the Cauchy sums
    sum_j 1/(z_i - z_j) from a Gram product of squared distances (see
    _AberthWorkspace.cauchy_sums). The sums only precondition the step; each
    root is still fixed by p(z) = 0 and the residual test.
    """
    c = np.asarray(coeffs, dtype=complex)
    r = len(c) - 1
    if r < 1:
        raise ValueError("polynomial must have degree >= 1")
    if r > _MAX_DEGREE:
        raise ValueError(f"polynomial degree {r} exceeds the root finder's limit of {_MAX_DEGREE}")
    if abs(c[r]) == 0.0:
        raise ValueError("leading coefficient is zero")
    k = int(np.flatnonzero(c)[0])
    if k:
        # at z = 0 the relative residual is 0/0, so exact zero roots are split off
        zeros = np.zeros(k, dtype=complex)
        return zeros if k == r else np.concatenate([zeros, aberth_roots(c[k:])])
    radii, angles = _newton_polygon_starts(c)
    ws = _AberthWorkspace(c)
    for attempt in range(_RETRIES + 1):
        z = radii * np.exp(1j * (angles + 0.35 + 0.6 * attempt))
        active, aza = np.arange(r), radii
        for _ in range(_MAX_SWEEPS):
            order, n_in = _inner_first(aza)
            active = active[order]
            za = z[active]
            w = ws.newton_ratios(za, n_in)
            delta = w / (1.0 - w * ws.cauchy_sums(z, active, za))
            za -= delta
            z[active] = za
            if not np.isfinite(za).all():
                break
            aza = np.abs(za)
            moving = np.abs(delta) > _STEP_TOL * (1.0 + aza)
            active, aza = active[moving], aza[moving]
            if len(active) == 0:
                break
        if np.all(np.isfinite(z)) and np.max(ws.relative_residuals(z)) <= _RESIDUAL_TOL:
            return z
    raise RootFindingError(f"degree-{r} root iteration failed after {_RETRIES + 1} attempts")


@lru_cache(maxsize=8)
def _coefficient_scales(r):
    """sqrt(comb(r, j) / 2) for j = 0..r, the coefficient standard deviations
    per real part. Cached, read-only: every trial of a run asks for the same r,
    and r + 1 bignum comb calls per trial are not free at r in the hundreds."""
    std = np.sqrt([math.comb(r, j) / 2.0 for j in range(r + 1)])
    std.setflags(write=False)
    return std


def sample_elliptic_zeros(r, rng):
    """Zeros of a degree-r polynomial with independent complex Gaussian
    coefficients of variance binomial(r, j), projected to the sphere.

    A vanishing leading block (|a_r| < 1e-300, probability-zero event) sends
    the corresponding roots to infinity, i.e. the north pole.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if r > _MAX_ZEROS_DEGREE:
        raise ValueError(
            f"zeros ensemble needs r <= {_MAX_ZEROS_DEGREE}, got {r}: "
            "the coefficient variances comb(r, j) / 2 overflow a double beyond it"
        )
    a = _coefficient_scales(r) * (rng.standard_normal(r + 1) + 1j * rng.standard_normal(r + 1))
    deg = r
    while deg >= 1 and abs(a[deg]) < _DEGENERATE_LEAD:
        deg -= 1
    roots = np.full(r, np.inf + 0j)
    if deg >= 1:
        roots[:deg] = aberth_roots(a[: deg + 1])
    return inverse_stereographic(roots)


# --- equal-area partition -----------------------------------------------------


@dataclass(frozen=True)
class EqualAreaRegion:
    """A cap or collar cell, as colatitude and longitude bounds."""

    theta0: float
    theta1: float
    phi0: float
    phi1: float

    def area(self):
        return (self.phi1 - self.phi0) * (math.cos(self.theta0) - math.cos(self.theta1))

    def diameter(self):
        """Chordal diameter; exact for theta-phi rectangles on the sphere."""
        dphi = min(self.phi1 - self.phi0, math.pi)
        if self.theta0 <= math.pi / 2.0 <= self.theta1:
            t_star = math.pi / 2.0
        elif abs(self.theta0 - math.pi / 2.0) < abs(self.theta1 - math.pi / 2.0):
            t_star = self.theta0
        else:
            t_star = self.theta1
        d2_lat = 2.0 * math.sin(t_star) ** 2 * (1.0 - math.cos(dphi))
        d2_diag = 2.0 - 2.0 * (
            math.cos(self.theta0) * math.cos(self.theta1)
            + math.sin(self.theta0) * math.sin(self.theta1) * math.cos(dphi)
        )
        d2_mer = 2.0 - 2.0 * math.cos(self.theta1 - self.theta0)
        return math.sqrt(max(d2_lat, d2_diag, d2_mer))


def equal_area_partition(r):
    """Recursive zonal partition of the sphere into r regions of area 4 pi / r.

    Two polar caps, collars of near-square height in between; collar cell
    counts are rounded with a running remainder and the collar boundaries are
    then re-fitted so every region area is exact.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    two_pi = 2.0 * math.pi
    if r == 1:
        return [EqualAreaRegion(0.0, math.pi, 0.0, two_pi)]
    theta_c = math.acos(1.0 - 2.0 / r)
    n_collars = max(1, round((math.pi - 2.0 * theta_c) / math.sqrt(4.0 * math.pi / r)))
    height = (math.pi - 2.0 * theta_c) / n_collars
    counts = []
    acc = 0.0
    for i in range(n_collars):
        t0 = theta_c + i * height
        t1 = theta_c + (i + 1) * height
        ideal = (math.cos(t0) - math.cos(t1)) * r / 2.0
        m = int(round(ideal + acc))
        acc += ideal - m
        counts.append(m)
    assert sum(counts) == r - 2
    bounds = [theta_c]
    cum = 1
    for m in counts:
        cum += m
        bounds.append(math.acos(max(-1.0, 1.0 - 2.0 * cum / r)))
    regions = [EqualAreaRegion(0.0, theta_c, 0.0, two_pi)]
    for i, m in enumerate(counts):
        for k in range(m):
            regions.append(EqualAreaRegion(bounds[i], bounds[i + 1], two_pi * k / m, two_pi * (k + 1) / m))
    regions.append(EqualAreaRegion(bounds[-1], math.pi, 0.0, two_pi))
    return regions


def max_region_diameter(r):
    return max(region.diameter() for region in equal_area_partition(r))


@lru_cache(maxsize=8)
def _region_bounds(r):
    """(r, 2) lower and upper bounds of (phi, cos theta) for each region of
    equal_area_partition(r). Cached, read-only: every trial of a run asks for
    the same r."""
    regions = equal_area_partition(r)
    lo = np.array([(reg.phi0, math.cos(reg.theta1)) for reg in regions])
    hi = np.array([(reg.phi1, math.cos(reg.theta0)) for reg in regions])
    lo.setflags(write=False)
    hi.setflags(write=False)
    return lo, hi


def sample_equal_area(r, rng):
    """One point per partition region, uniform by area inside its region
    (phi uniform, cos theta uniform): exact, rejection-free. One uniform call
    draws phi and then cos theta for each region in turn."""
    lo, hi = _region_bounds(r)
    phi, z = rng.uniform(lo, hi).T
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


# --- spherical ensemble -------------------------------------------------------


def sample_spherical_ensemble(r, rng):
    """Eigenvalues of A^{-1} B for independent complex Gaussian matrices,
    projected to the sphere. A nearly singular A (condition number above
    1e14, probability-zero event) is redrawn. A draw holds about 100 r^2
    bytes, so r above the root finder's degree limit is refused before any
    allocation.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if r > _MAX_DEGREE:
        raise ValueError(
            f"spherical ensemble needs r <= {_MAX_DEGREE}, got {r}: a draw holds about 100 r^2 bytes, 1.5 GiB at the limit"
        )
    while True:
        a = (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))) / np.sqrt(2.0)
        if np.linalg.cond(a) <= 1e14:
            break
    b = (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))) / np.sqrt(2.0)
    return inverse_stereographic(np.linalg.eigvals(np.linalg.solve(a, b)))


def sample_points(kind, r, rng):
    """Dispatch on the ensemble kind."""
    if kind == "uniform":
        return sample_uniform(r, rng)
    if kind == "zeros":
        return sample_elliptic_zeros(r, rng)
    if kind == "eap":
        return sample_equal_area(r, rng)
    if kind == "spherical":
        return sample_spherical_ensemble(r, rng)
    raise ValueError(f"unknown ensemble kind {kind!r}")
