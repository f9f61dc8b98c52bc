"""Primitive operations on the unit sphere and the rotation group.

Points on the sphere are plain numpy arrays of shape (3,); rotations are
numpy arrays of shape (3, 3), row-major. Everything is double precision.
"""

from __future__ import annotations

import numpy as np

# squared distance from the vertical axis below which a point counts as a pole;
# the generic frame formula divides by that distance and degrades there
_POLE_TOL = 1e-24


def base_frames(points):
    """For each row p of an (r, 3) array of unit vectors, a rotation H with H e3 = p.

    Three cases: identity at the north pole, diag(1, -1, -1) at the south
    pole, and otherwise the closed-form frame whose third column is p.
    """
    pts = np.asarray(points, dtype=float)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    rho2 = x * x + y * y
    rho = np.sqrt(rho2)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.stack([y / rho, z * x / rho, x, -x / rho, z * y / rho, y, np.zeros_like(x), -rho, z], axis=1)
    out = out.reshape(-1, 3, 3)
    pole = ~(rho2 >= _POLE_TOL)
    out[pole] = np.eye(3)
    out[pole, 1, 1] = out[pole, 2, 2] = np.where(z[pole] > 0, 1.0, -1.0)
    return out


def so3_dist_sq(a, b):
    """Squared Frobenius distance 6 - 2 trace(a^T b) between rotations.

    Broadcasts over leading axes; a single pair gives a float.
    """
    d = 6.0 - 2.0 * np.einsum("...ij,...ij->...", np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return float(d) if d.ndim == 0 else d


def haar_rotations(rng, count):
    """Independent rotations from the invariant (Haar) distribution, shape (count, 3, 3).

    Method: four standard Gaussians normalized to a unit quaternion, mapped
    to its rotation matrix. Exact and branch-free.
    """
    return quaternion_matrix(_gaussian_directions(rng, count, 4))


def _gaussian_directions(rng, count, dim):
    """count uniform unit vectors of dimension dim, normalized Gaussians; a row
    of norm below 1e-150 (probability under 1e-400) is drawn again."""
    g = rng.standard_normal((count, dim))
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms < 1e-150):
        bad = norms < 1e-150
        g[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(g, axis=1)
    return g / norms[:, None]


def quaternion_matrix(q):
    """Rotation matrices for an array of unit quaternions, shape (m, 4) -> (m, 3, 3)."""
    q = np.atleast_2d(np.asarray(q, dtype=float))
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    m = np.empty((len(q), 3, 3))
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - w * z)
    m[:, 0, 2] = 2 * (x * z + w * y)
    m[:, 1, 0] = 2 * (x * y + w * z)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - w * x)
    m[:, 2, 0] = 2 * (x * z - w * y)
    m[:, 2, 1] = 2 * (y * z + w * x)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def inverse_stereographic(z):
    """Map complex numbers to the unit sphere; infinity maps to (0, 0, 1).

    A scalar gives shape (3,), an array of m values gives (m, 3).
    Convention: the north pole is the point at infinity, so z = 0 lands on
    the south pole and the unit circle lands on the equator.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    u, v = zs.real, zs.imag
    out = np.empty(zs.shape + (3,))
    with np.errstate(over="ignore", invalid="ignore"):
        m2 = u * u + v * v
        big = m2 > 1e16
        small = ~big
        den = 1.0 + m2[small]
        out[small, 0] = 2.0 * u[small] / den
        out[small, 1] = 2.0 * v[small] / den
        out[small, 2] = (m2[small] - 1.0) / den
        # work with reciprocals to dodge overflow for huge |z|
        q = 1.0 / m2[big]
        out[big, 0] = 2.0 * (u[big] * q) / (1.0 + q)
        out[big, 1] = 2.0 * (v[big] * q) / (1.0 + q)
        out[big, 2] = (1.0 - q) / (1.0 + q)
    out[~np.isfinite(zs)] = (0.0, 0.0, 1.0)
    return out[0] if np.ndim(z) == 0 else out


def unit_vector(v):
    """Normalize v to the sphere; rejects near-zero input."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n < 1e-150:
        raise ValueError("cannot normalize a (near-)zero vector")
    return v / n


def _unit_points(points):
    """`points` as an (r, 3) float array; ValueError for another shape or a
    row that is not finite with a norm within 1e-10 of 1."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must form an (r, 3) array, got shape {pts.shape}")
    bad = np.flatnonzero(~(np.abs(np.linalg.norm(pts, axis=1) - 1.0) <= 1e-10))
    if bad.size:
        i = bad[0]
        raise ValueError(f"point {i} is {pts[i].tolist()}: points must be finite with norm within 1e-10 of 1")
    return pts


def rotation_mask(mats, tol=1e-10):
    """Which matrices of an (m, 3, 3) stack are rotations: finite entries,
    max |M^T M - I| <= tol and |det M - 1| <= tol."""
    m = np.asarray(mats, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        ortho = np.abs(np.swapaxes(m, 1, 2) @ m - np.eye(3)).max(axis=(1, 2)) <= tol
        unit_det = np.abs(np.linalg.det(m) - 1.0) <= tol
    return np.isfinite(m).all(axis=(1, 2)) & ortho & unit_det


def first_non_rotation(mats):
    """Index of the first matrix of an (m, 3, 3) stack that rotation_mask
    refuses, or None when every one is a rotation."""
    bad = np.flatnonzero(~rotation_mask(mats))
    return int(bad[0]) if bad.size else None


def is_rotation(m, tol=1e-10):
    """Check orthogonality and unit determinant within tol."""
    m = np.asarray(m, dtype=float)
    return m.shape == (3, 3) and bool(rotation_mask(m[None], tol)[0])
