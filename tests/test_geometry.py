"""Sphere and rotation primitives: frames, Haar sampling, stereographic map."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from so3energy.geometry import (
    base_frames,
    haar_rotations,
    inverse_stereographic,
    is_rotation,
    quaternion_matrix,
    rotation_mask,
    so3_dist_sq,
    unit_vector,
)


def random_sphere_points(rng, count):
    v = rng.standard_normal((count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def frame_reference(p):
    """The frame base_frames documents, one point at a time."""
    x, y, z = p
    rho2 = x * x + y * y
    if rho2 < 1e-24:
        return np.eye(3) if z > 0 else np.diag([1.0, -1.0, -1.0])
    rho = math.sqrt(rho2)
    return np.array([[y / rho, z * x / rho, x], [-x / rho, z * y / rho, y], [0.0, -rho, z]])


def frames_where_twin(points):
    """base_frames as one np.where per entry between the generic frame and
    the pole frames."""
    pts = np.asarray(points, dtype=float)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    rho2 = x * x + y * y
    generic = rho2 >= 1e-24
    rho = np.sqrt(np.where(generic, rho2, 1.0))
    out = np.zeros((len(pts), 3, 3))
    out[:, 0, 0] = np.where(generic, y / rho, 1.0)
    out[:, 0, 1] = np.where(generic, z * x / rho, 0.0)
    out[:, 0, 2] = np.where(generic, x, 0.0)
    out[:, 1, 1] = np.where(generic, z * y / rho, np.where(z > 0, 1.0, -1.0))
    out[:, 1, 0] = np.where(generic, -x / rho, 0.0)
    out[:, 1, 2] = np.where(generic, y, 0.0)
    out[:, 2, 1] = np.where(generic, -rho, 0.0)
    out[:, 2, 2] = np.where(generic, z, np.where(z > 0, 1.0, -1.0))
    return out


def test_base_frames_match_where_twin_bit_for_bit():
    # poles with every sign of zero, near-poles on both sides of the pole
    # threshold, points on the equator with signed zeros, and random points
    zeros = (0.0, -0.0)
    poles = [(x, y, z) for x in zeros for y in zeros for z in (1.0, -1.0)]
    near = [
        pt
        for a in (1e-13, -1e-13, 7e-13, 1e-12, -1e-12)
        for z in (1.0, -1.0)
        for pt in ((a, 0.0, z), (-0.0, a, z), (a, -a, z))
    ]
    equator = [(x, y, z) for x, y in ((1.0, 0.0), (-1.0, -0.0), (0.0, 1.0), (-0.0, -1.0)) for z in zeros]
    pts = np.vstack([poles, near, equator, random_sphere_points(np.random.default_rng(8), 1000)])
    got = base_frames(pts)
    assert np.array_equal(got.view(np.uint64), frames_where_twin(pts).view(np.uint64))


def test_base_frame_maps_pole_to_point():
    rng = np.random.default_rng(5)
    pts = random_sphere_points(rng, 50)
    for p, h in zip(pts, base_frames(pts)):
        assert is_rotation(h, tol=1e-12)
        assert np.allclose(h @ np.array([0.0, 0.0, 1.0]), p, atol=1e-14)


def test_base_frame_at_poles():
    north, south = base_frames([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    assert np.array_equal(north, np.eye(3))
    assert is_rotation(south, tol=0.0)
    assert np.allclose(south @ np.array([0.0, 0.0, 1.0]), [0.0, 0.0, -1.0])


def test_base_frames_matches_scalar_version():
    rng = np.random.default_rng(6)
    pts = np.vstack([random_sphere_points(rng, 40), [[0, 0, 1.0]], [[0, 0, -1.0]]])
    batch = base_frames(pts)
    for k, p in enumerate(pts):
        assert np.array_equal(batch[k], frame_reference(p))
        assert np.array_equal(batch[k], base_frames(p[None])[0])


def test_so3_dist_sq_range_and_exact_values():
    assert so3_dist_sq(np.eye(3), np.eye(3)) == 0.0
    # rotation by pi about z against the identity: trace = -1 + 0 + ... actually
    # diag(-1, -1, 1), trace 1 - 2 = -1, squared distance 6 + 2 = 8
    assert so3_dist_sq(np.eye(3), np.diag([-1.0, -1.0, 1.0])) == pytest.approx(8.0, abs=1e-12)
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(20):
        a, b = haar_rotations(rng, 1)[0], haar_rotations(rng, 1)[0]
        d = so3_dist_sq(a, b)
        assert isinstance(d, float)
        assert 0.0 <= d <= 8.0 + 1e-12
        assert d == pytest.approx(np.sum((a - b) ** 2), abs=1e-12)
        pairs.append((a, b, d))
    # stacks of rotations give the pairwise distances of their members
    a, b, d = (np.array(col) for col in zip(*pairs))
    np.testing.assert_allclose(so3_dist_sq(a, b), d, rtol=0.0, atol=1e-15)


def test_haar_rotation_invariance_moments():
    # under the invariant measure E[m_ij] = 0 and E[m_ij^2] = 1/3
    rng = np.random.default_rng(11)
    ms = haar_rotations(rng, 40000)
    mean = ms.mean(axis=0)
    second = (ms**2).mean(axis=0)
    assert np.all(np.abs(mean) < 0.02)
    assert np.all(np.abs(second - 1.0 / 3.0) < 0.02)
    for m in ms[:25]:
        assert is_rotation(m)


def test_haar_rotations_match_scalar_stream():
    a = haar_rotations(np.random.default_rng(3), 4)
    rng = np.random.default_rng(3)
    b = np.stack([haar_rotations(rng, 1)[0] for _ in range(4)])
    assert np.array_equal(a, b)


def test_quaternion_matrix_double_cover():
    rng = np.random.default_rng(12)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    assert np.allclose(quaternion_matrix(q), quaternion_matrix(-q))


def test_inverse_stereographic_conventions():
    assert np.allclose(inverse_stereographic(0.0), [0.0, 0.0, -1.0])
    assert np.allclose(inverse_stereographic(complex("inf")), [0.0, 0.0, 1.0])
    assert np.allclose(inverse_stereographic(1.0), [1.0, 0.0, 0.0])
    assert np.allclose(inverse_stereographic(1j), [0.0, 1.0, 0.0])
    # huge inputs approach the north pole without overflow
    p = inverse_stereographic(1e200 + 1e200j)
    assert math.isfinite(p[0]) and math.isfinite(p[1])
    assert p[2] == pytest.approx(1.0, abs=1e-15)
    # all images live on the sphere
    rng = np.random.default_rng(13)
    for _ in range(50):
        z = complex(*rng.standard_normal(2)) * 10 ** rng.uniform(-3, 3)
        assert np.linalg.norm(inverse_stereographic(z)) == pytest.approx(1.0, abs=1e-12)


def _scalar_inverse_stereographic(z):
    # the per-point formula, kept as the reference for the array version
    z = complex(z)
    if not cmath.isfinite(z):
        return np.array([0.0, 0.0, 1.0])
    u, v = z.real, z.imag
    m2 = u * u + v * v
    if m2 > 1e16:
        q = 1.0 / m2
        return np.array([2.0 * (u * q) / (1.0 + q), 2.0 * (v * q) / (1.0 + q), (1.0 - q) / (1.0 + q)])
    den = 1.0 + m2
    return np.array([2.0 * u / den, 2.0 * v / den, (m2 - 1.0) / den])


def test_inverse_stereographic_array_matches_scalar_formula_bit_for_bit():
    rng = np.random.default_rng(14)
    mags = 10.0 ** rng.uniform(-8.0, 300.0, 5000)
    z = mags * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 5000))
    z = np.concatenate([z, [0.0, complex("inf"), 1e8, 1e300, -1e300j, complex("nan")]])
    want = np.stack([_scalar_inverse_stereographic(x) for x in z])
    got = inverse_stereographic(z)
    assert got.shape == (len(z), 3)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # a scalar still gives one point
    assert inverse_stereographic(z[7]).shape == (3,)
    assert np.array_equal(inverse_stereographic(z[7]), want[7])


def _exact_inverse_stereographic(z):
    # the image of z in exact rational arithmetic, rounded once to doubles
    u, v = Fraction(z.real), Fraction(z.imag)
    m2 = u * u + v * v
    return np.array([float(2 * u / (1 + m2)), float(2 * v / (1 + m2)), float((m2 - 1) / (1 + m2))])


def test_inverse_stereographic_for_huge_arguments():
    rng = np.random.default_rng(15)
    mags = np.sort(10.0 ** rng.uniform(8.0, 300.0, 400))
    args = rng.uniform(0.0, 2.0 * math.pi, 400)
    p = inverse_stereographic(mags * np.exp(1j * args))
    assert np.all(np.abs(np.linalg.norm(p, axis=1) - 1.0) <= 1e-15)
    # the image tends to the north pole: x, y shrink like 2 / |z| and z -> 1
    assert np.all(np.hypot(p[:, 0], p[:, 1]) <= 2.0 / mags * (1.0 + 1e-15))
    assert np.all(1.0 - p[:, 2] <= 2.0 / mags / mags + 2.3e-16)
    assert np.all(np.diff(p[:, 2]) >= 0.0) and p[-1, 2] == 1.0
    # both branches agree with the exact image where |z|^2 crosses 1e16
    near = 1e8 * (1.0 + rng.uniform(-1e-6, 1e-6, 200)) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 200))
    m2 = near.real**2 + near.imag**2
    assert np.any(m2 > 1e16) and np.any(m2 <= 1e16)
    got = inverse_stereographic(near)
    want = np.stack([_exact_inverse_stereographic(z) for z in near])
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want) + 1e-300)


def test_unit_vector():
    assert np.allclose(unit_vector([3.0, 0.0, 4.0]), [0.6, 0.0, 0.8])
    with pytest.raises(ValueError):
        unit_vector([0.0, 0.0, 0.0])


def test_is_rotation_rejects_reflections_and_junk():
    assert not is_rotation(np.diag([1.0, 1.0, -1.0]))
    assert not is_rotation(2.0 * np.eye(3))
    assert not is_rotation(np.eye(2))
    assert is_rotation(np.eye(3))


def test_rotation_mask_flags_each_bad_matrix():
    mats = haar_rotations(np.random.default_rng(14), 6)
    mats[1, 0, 2] = math.nan
    mats[2] *= 1.01
    mats[3] = np.diag([1.0, 1.0, -1.0])
    mats[4, 2, 2] = math.inf
    assert rotation_mask(mats).tolist() == [True, False, False, False, False, True]
    assert rotation_mask(np.empty((0, 3, 3))).shape == (0,)
