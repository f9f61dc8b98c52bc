"""Logarithmic energy of rotation configurations and the sphere kernel.

The central identity under test: for fibers of s equally spaced rotations
over base points p_1..p_r with independent uniform phases, the expected
energy is an explicit closed form in n = r s plus the pairwise sphere kernel
sum. Monte Carlo checks of that identity live in the harness tests; here the
pieces are checked deterministically.
"""

import math

import numpy as np
import pytest

from so3energy.construct import build_configuration, fiber_energy_closed_form, fiber_matrices
from so3energy.energy import (
    COINCIDENCE_TOL,
    EnergyValue,
    circle_average,
    circle_average_quadrature,
    crossed_expectation,
    log_energy,
    pair_log_sums,
    predicted_energy,
    sphere_kernel,
    sphere_kernel_energy,
)
from so3energy.geometry import base_frames, haar_rotations, unit_vector

_LOG2 = math.log(2.0)


def brute_force_energy(mats):
    n = len(mats)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d2 = float(np.sum((mats[i] - mats[j]) ** 2))
            total += math.log(d2)
    # ordered-pair sum of log distance, negated
    return -total


def test_pair_log_sums_small_cases():
    rng = np.random.default_rng(41)
    mats = haar_rotations(rng, 6)
    gram = np.einsum("aij,bij->ab", mats, mats)
    d2 = 6.0 - 2.0 * gram
    sums, mins = pair_log_sums(d2[None])
    assert sums.shape == (1,) and mins.shape == (1,)
    assert -sums[0] == pytest.approx(brute_force_energy(mats), rel=1e-13)
    iu = np.triu_indices(6, 1)
    assert mins[0] == pytest.approx(float(d2[iu].min()), abs=0.0)


def test_pair_log_sums_tiling_boundary():
    # exercise sizes straddling the 64-wide tiles
    rng = np.random.default_rng(42)
    for n in [1, 2, 63, 64, 65, 130]:
        mats = haar_rotations(rng, n)
        gram = np.einsum("aij,bij->ab", mats, mats)
        d2 = 6.0 - 2.0 * gram
        sums, mins = pair_log_sums(d2[None])
        if n == 1:
            assert sums[0] == 0.0 and mins[0] == math.inf
        else:
            assert -sums[0] == pytest.approx(brute_force_energy(mats), rel=1e-12)


def test_pair_log_sums_batched_matches_loop():
    rng = np.random.default_rng(43)
    batch = np.stack([6.0 - 2.0 * np.einsum("aij,bij->ab", m, m) for m in (haar_rotations(rng, 9) for _ in range(5))])
    sums, mins = pair_log_sums(batch)
    for k in range(5):
        sk, mk = pair_log_sums(batch[k : k + 1])
        assert sums[k] == pytest.approx(sk[0], rel=1e-13)
        assert mins[k] == mk[0]


def test_log_energy_fiber_identity():
    # one fiber: energy equals minus the closed form, any base point or phase
    rng = np.random.default_rng(44)
    for s in [2, 3, 16]:
        e = log_energy(build_configuration(unit_vector(rng.standard_normal(3)), s, rng))
        assert isinstance(e, EnergyValue)
        assert not e.is_infinite
        assert e.value == pytest.approx(-fiber_energy_closed_form(s), rel=1e-12)


def test_log_energy_coincident_matrices_is_infinite():
    m = np.stack([np.eye(3), np.eye(3)])
    e = log_energy(m)
    assert e.is_infinite
    assert e.value == math.inf
    assert float(e) == math.inf


def test_log_energy_single_matrix_is_zero():
    assert log_energy(np.eye(3)[None]).value == 0.0


def test_coincidence_tolerance_is_tiny():
    # separations at the detection threshold must not count as coincident
    assert COINCIDENCE_TOL <= 1e-12


def test_sphere_kernel_values():
    # g(t) = log(1 + sqrt((1 - t)/2)): zero at coincidence, log 2 at antipodes
    assert sphere_kernel(1.0) == 0.0
    assert sphere_kernel(-1.0) == pytest.approx(_LOG2, abs=1e-15)
    assert sphere_kernel(0.0) == pytest.approx(math.log(1.0 + 1.0 / math.sqrt(2.0)), abs=1e-15)
    arr = sphere_kernel(np.array([0.5, -0.5]))
    assert arr.shape == (2,)
    # slight excursions past the endpoints from rounding are clamped
    assert sphere_kernel(1.0 + 5e-13) == sphere_kernel(1.0)
    with pytest.raises(ValueError):
        sphere_kernel(1.1)


def test_sphere_kernel_energy_two_antipodal_points():
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    # ordered pairs: 2 * g(-1) = 2 log 2
    assert sphere_kernel_energy(pts) == pytest.approx(2.0 * _LOG2, abs=1e-14)
    assert sphere_kernel_energy(pts[:1]) == 0.0


def test_sphere_kernel_energy_matches_brute_force():
    rng = np.random.default_rng(45)
    pts = rng.standard_normal((20, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    brute = 0.0
    for i in range(20):
        for j in range(20):
            if i != j:
                brute += sphere_kernel(float(pts[i] @ pts[j]))
    assert sphere_kernel_energy(pts) == pytest.approx(brute, rel=1e-12)


def test_predicted_energy_explicit_small_case():
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    s = 3
    n = 6
    expected = -(n * n / 2.0) * _LOG2 + (n / 2.0) * _LOG2 - n * math.log(s) - s * s * (2.0 * _LOG2)
    assert predicted_energy(pts, s) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        predicted_energy(pts, 0)


def test_predicted_energy_single_fiber_consistency():
    # r = 1: prediction reduces to minus the fiber closed form exactly
    p = np.array([[0.6, 0.0, 0.8]])
    for s in [1, 2, 5, 9]:
        assert predicted_energy(p, s) == pytest.approx(-fiber_energy_closed_form(s), rel=1e-13)


def test_circle_average_against_quadrature():
    # average of log(alpha + beta tr(H R(phi))) over the circle has a closed
    # form depending on H only through its corner entry
    rng = np.random.default_rng(46)
    for h in haar_rotations(rng, 25):
        cf = circle_average(float(h[2, 2]), 6.0, -2.0)
        q = circle_average_quadrature(h, 6.0, -2.0)
        assert cf == pytest.approx(q, abs=1e-9)


def test_circle_average_identity_corner():
    # H = identity: alpha + beta(2 cos phi + 1); at (6, -2) the average is
    # 2 log((2 + sqrt(2 - 2))/2)... evaluated directly from the closed form
    val = circle_average(1.0, 6.0, -2.0)
    ref = 2.0 * math.log((math.sqrt(8.0) + math.sqrt(0.0)) / 2.0)
    assert val == pytest.approx(ref, abs=1e-14)


def test_circle_average_requires_margin():
    with pytest.raises(ValueError):
        circle_average(0.0, 3.0, -2.0)


def test_crossed_expectation_matches_monte_carlo_structure():
    # the phase-averaged cross term between two fibers is s^2 times the
    # log of (sqrt 2 + sqrt(1 - p.q)); check the scaling in s explicitly
    p = unit_vector([1.0, 2.0, -1.0])
    q = unit_vector([-0.3, 0.7, 0.2])
    base = crossed_expectation(p, q, 1)
    for s in [2, 3, 7]:
        assert crossed_expectation(p, q, s) == pytest.approx(s * s * base, rel=1e-14)
    t = float(p @ q)
    assert base == pytest.approx(math.log(math.sqrt(2.0) + math.sqrt(1.0 - t)), rel=1e-14)
    # the cross term splits into the kernel plus half a log 2 per ordered pair
    assert base == pytest.approx(sphere_kernel(t) + 0.5 * _LOG2, rel=1e-14)


def test_crossed_expectation_by_direct_phase_average():
    # average exp of the cross sum over a fine phase grid converges to the
    # closed form; fibers over distinct points, s = 2
    p = np.array([0.0, 0.0, 1.0])
    q = unit_vector([1.0, 0.0, 1.0])
    s = 2
    grid = 400
    totals = []
    for a in np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False):
        fa = fiber_matrices(base_frames([p]), [a], s).reshape(s, 3, 3)
        fb = fiber_matrices(base_frames([q]), [0.0], s).reshape(s, 3, 3)
        cross = 0.0
        for ma in fa:
            for mb in fb:
                cross += 0.5 * math.log(float(np.sum((ma - mb) ** 2)))
        totals.append(cross)
    # uniform phase average over one phase suffices: the difference of
    # phases is what matters, so averaging one of them is exact
    assert np.mean(totals) == pytest.approx(crossed_expectation(p, q, s), rel=1e-10)
