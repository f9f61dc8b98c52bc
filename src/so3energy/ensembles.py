"""Samplers for the four tractable spherical point processes: uniform i.i.d.
points, zeros of random elliptic (Kostlan) polynomials, points in an
equal-area partition, and the spherical ensemble of generalized eigenvalues.

All samplers return an array of shape (r, 3) with one unit vector per row
and are deterministic given the supplied generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import inverse_stereographic

ENSEMBLE_KINDS = ("uniform", "zeros", "eap", "spherical")

_DEGENERATE_LEAD = 1e-300
_RESIDUAL_TOL = 1e-10


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


def _newton_ratio(coeffs, z):
    """p(z)/p'(z) elementwise, switching to reversed coefficients at 1/z for
    |z| > 1 so that high-degree evaluation never overflows."""
    r = len(coeffs) - 1
    out = np.empty_like(z)
    inner = np.abs(z) <= 1.0
    if np.any(inner):
        zi = z[inner]
        p = np.polyval(coeffs[::-1], zi)
        dp = np.polyval((coeffs[1:] * np.arange(1, r + 1))[::-1], zi)
        out[inner] = p / dp
    if np.any(~inner):
        w = 1.0 / z[~inner]
        # p(z) = z^r q(w) with q(w) = sum_j a_{r-j} w^j
        q = np.polyval(coeffs, w)
        dq = np.polyval(coeffs[:r] * np.arange(r, 0, -1), w)
        out[~inner] = z[~inner] * q / (r * q - w * dq)
    return out


def _relative_residuals(coeffs, z):
    """|p(z)| / sum_j |a_j| |z|^j, evaluated without overflow."""
    r = len(coeffs) - 1
    out = np.empty(z.shape, dtype=float)
    absc = np.abs(coeffs)
    inner = np.abs(z) <= 1.0
    if np.any(inner):
        zi = z[inner]
        out[inner] = np.abs(np.polyval(coeffs[::-1], zi)) / np.polyval(absc[::-1], np.abs(zi))
    if np.any(~inner):
        w = 1.0 / z[~inner]
        out[~inner] = np.abs(np.polyval(coeffs, w)) / np.polyval(absc, np.abs(w))
    return out


def aberth_roots(coeffs, tol=1e-12, cap=200, retries=3):
    """All complex roots of sum_j coeffs[j] z^j by Aberth-Ehrlich iteration.

    coeffs runs from the constant term up; the leading coefficient must be
    nonzero. A sweep stops early when |dz| <= tol (1 + |z|); an attempt is
    accepted when the relative residual ends below 1e-10, so ill-conditioned
    roots whose forward steps stagnate still pass on backward error. Each
    retry restarts from a re-phased initial circle. Raises RootFindingError
    when every attempt fails.
    """
    c = np.asarray(coeffs, dtype=complex)
    r = len(c) - 1
    if r < 1:
        raise ValueError("polynomial must have degree >= 1")
    if abs(c[r]) == 0.0:
        raise ValueError("leading coefficient is zero")
    radius = abs(c[0] / c[r]) ** (1.0 / r) if c[0] != 0 else 1.0
    for attempt in range(retries + 1):
        z = radius * np.exp(1j * (2.0 * np.pi * np.arange(r) / r + 0.35 + 0.6 * attempt))
        for _ in range(cap):
            w = _newton_ratio(c, z)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            delta = w / (1.0 - w * (1.0 / diff).sum(axis=1))
            z = z - delta
            if not np.all(np.isfinite(z.real) & np.isfinite(z.imag)):
                break
            if np.all(np.abs(delta) <= tol * (1.0 + np.abs(z))):
                break
        if np.all(np.isfinite(z.real) & np.isfinite(z.imag)) and np.max(
            _relative_residuals(c, z)
        ) <= _RESIDUAL_TOL:
            return z
    raise RootFindingError(f"degree-{r} root iteration failed after {retries + 1} attempts")


def sample_elliptic_zeros(r, rng):
    """Zeros of a degree-r polynomial with independent complex Gaussian
    coefficients of variance binomial(r, j), projected to the sphere.

    A vanishing leading block (|a_r| < 1e-300, probability-zero event) sends
    the corresponding roots to infinity, i.e. the north pole.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    std = np.sqrt([math.comb(r, j) / 2.0 for j in range(r + 1)])
    a = std * (rng.standard_normal(r + 1) + 1j * rng.standard_normal(r + 1))
    deg = r
    while deg >= 1 and abs(a[deg]) < _DEGENERATE_LEAD:
        deg -= 1
    roots = np.full(r, np.inf + 0j)
    if deg >= 1:
        roots[:deg] = aberth_roots(a[: deg + 1])
    return np.stack([inverse_stereographic(z) for z in roots])


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
    eig = np.linalg.eigvals(np.linalg.solve(a, b))
    return np.stack([inverse_stereographic(z) for z in eig])


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
