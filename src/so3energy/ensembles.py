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

from .geometry import inverse_stereographic

ENSEMBLE_KINDS = ("uniform", "zeros", "eap", "spherical")

_DEGENERATE_LEAD = 1e-300
_RESIDUAL_TOL = 1e-10
# every Aberth sweep holds (active x degree) complex arrays, 268 MB each at
# this degree; a larger polynomial is refused rather than run out of memory
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
    g = rng.standard_normal((r, 3))
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms < 1e-150):
        bad = norms < 1e-150
        g[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(g, axis=1)
    return g / norms[:, None]


# --- elliptic polynomial zeros ----------------------------------------------


def _powers(z, r):
    """Power matrix for evaluating degree-r polynomials at z without overflow.

    Returns (inner, pw): inner marks |z| <= 1, and pw[j] = u^j for j = 0..r,
    shape (r + 1, len(z)), with u = z where inner and u = 1/z elsewhere, so
    |u| <= 1. Where u = 1/z, p(z) = z^r sum_j a_{r-j} u^j.
    """
    inner = np.abs(z) <= 1.0
    u = z.copy()
    u[~inner] = 1.0 / u[~inner]
    pw = np.empty((r + 1, len(z)), dtype=u.dtype)
    pw[0] = 1.0
    pw[1] = u
    # doubling: rows k..2k-1 are rows 0..k-1 times u^k, one vectorized
    # product per power of two
    k = 2
    while k <= r:
        m = min(k, r + 1 - k)
        np.multiply(pw[:m], pw[k // 2] * pw[k // 2], out=pw[k : k + m])
        k *= 2
    return inner, pw


def _newton_ratio(cols, z):
    """p(z)/p'(z) elementwise; cols is the (r + 1, 4) matrix of _newton_columns."""
    inner, pw = _powers(z, len(cols) - 1)
    v = cols.T @ pw
    out = v[0] / v[1]
    outer = ~inner
    out[outer] = z[outer] * v[2, outer] / v[3, outer]
    return out


def _newton_columns(c):
    """Coefficients, against powers of z, of p and p'; then, against powers of
    w = 1/z, of z^-r p and z^(1-r) p', whose ratio times z is p/p'."""
    j = np.arange(len(c))
    return np.stack([c, np.append(c[1:] * j[1:], 0.0), c[::-1], (c * j)[::-1]], axis=1)


def _relative_residuals(coeffs, z):
    """|p(z)| / sum_j |a_j| |z|^j, evaluated without overflow."""
    c = np.asarray(coeffs, dtype=complex)
    inner, pw = _powers(z, len(c) - 1)
    num = np.abs(np.stack([c, c[::-1]]) @ pw)
    absc = np.abs(c)
    den = np.stack([absc, absc[::-1]]) @ np.abs(pw)
    return np.where(inner, num[0] / den[0], num[1] / den[1])


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


def aberth_roots(coeffs, tol=1e-12, cap=200, retries=3):
    """All complex roots of sum_j coeffs[j] z^j by Aberth-Ehrlich iteration.

    coeffs runs from the constant term up; the leading coefficient must be
    nonzero and the degree at most 4096. Each leading zero coefficient
    (coeffs[0] = coeffs[1] = ... = 0) gives one exact root 0, returned first;
    the rest solve the deflated polynomial. The iteration starts from Bini's
    Newton-polygon points: one circle per edge of the upper convex hull of
    (j, log|coeffs[j]|), with as many points as the edge is long, so roots of
    very different moduli start near their own circle. A root stops moving
    once its step satisfies |dz| <= tol (1 + |z|); later sweeps update only
    the roots still moving, each against all r current roots. An attempt is
    accepted when every relative residual ends below 1e-10, so
    ill-conditioned roots whose forward steps stagnate still pass on backward
    error. Each retry restarts from the same circles, re-phased. Raises
    RootFindingError when every attempt fails.
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
        return zeros if k == r else np.concatenate([zeros, aberth_roots(c[k:], tol, cap, retries)])
    radii, angles = _newton_polygon_starts(c)
    cols = _newton_columns(c)
    # one difference buffer for every sweep: reusing it, rather than
    # allocating a smaller array as roots freeze, keeps peak RSS down
    buf = np.empty((r, r), dtype=complex)
    for attempt in range(retries + 1):
        z = radii * np.exp(1j * (angles + 0.35 + 0.6 * attempt))
        active = np.arange(r)
        for _ in range(cap):
            za = z[active]
            w = _newton_ratio(cols, za)
            diff = np.subtract(za[:, None], z[None, :], out=buf[: len(active)])
            diff[np.arange(len(active)), active] = np.inf
            np.reciprocal(diff, out=diff)
            delta = w / (1.0 - w * diff.sum(axis=1))
            za = za - delta
            z[active] = za
            if not np.all(np.isfinite(za)):
                break
            active = active[np.abs(delta) > tol * (1.0 + np.abs(za))]
            if len(active) == 0:
                break
        if np.all(np.isfinite(z)) and np.max(_relative_residuals(c, z)) <= _RESIDUAL_TOL:
            return z
    raise RootFindingError(f"degree-{r} root iteration failed after {retries + 1} attempts")


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

    kind: str  # "cap" | "collar-cell"
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
        return [EqualAreaRegion("cap", 0.0, math.pi, 0.0, two_pi)]
    theta_c = math.acos(1.0 - 2.0 / r)
    if r == 2:
        return [
            EqualAreaRegion("cap", 0.0, theta_c, 0.0, two_pi),
            EqualAreaRegion("cap", theta_c, math.pi, 0.0, two_pi),
        ]
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
    regions = [EqualAreaRegion("cap", 0.0, theta_c, 0.0, two_pi)]
    for i, m in enumerate(counts):
        for k in range(m):
            regions.append(
                EqualAreaRegion("collar-cell", bounds[i], bounds[i + 1], two_pi * k / m, two_pi * (k + 1) / m)
            )
    regions.append(EqualAreaRegion("cap", bounds[-1], math.pi, 0.0, two_pi))
    return regions


def max_region_diameter(r):
    return max(region.diameter() for region in equal_area_partition(r))


def sample_equal_area(r, rng):
    """One point per partition region, uniform by area inside its region
    (phi uniform, cos theta uniform): exact, rejection-free."""
    regions = equal_area_partition(r)
    pts = np.empty((r, 3))
    for i, reg in enumerate(regions):
        phi = rng.uniform(reg.phi0, reg.phi1)
        z = rng.uniform(math.cos(reg.theta1), math.cos(reg.theta0))
        rho = math.sqrt(max(0.0, 1.0 - z * z))
        pts[i] = (rho * math.cos(phi), rho * math.sin(phi), z)
    return pts


# --- spherical ensemble -------------------------------------------------------


def sample_spherical_ensemble(r, rng):
    """Eigenvalues of A^{-1} B for independent complex Gaussian matrices,
    projected to the sphere. A nearly singular A (condition number above
    1e14, probability-zero event) is redrawn.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
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
