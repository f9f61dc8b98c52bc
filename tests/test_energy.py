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

from so3energy.construct import ConfigMeta, Configuration, build_configuration, fiber_matrices
from so3energy.energy import (
    COINCIDENCE_TOL,
    _band_pairs,
    _bands,
    _fluctuation_logs,
    _fsum_rows,
    band_len,
    fibered_energy,
    circle_average_quadrature,
    fiber_pair_energies,
    log_energy,
    pair_log_sums,
    predicted_energy,
    sphere_kernel,
    sphere_kernel_energy,
)
from so3energy.ensembles import sample_points
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
    rows = haar_rotations(rng, 6).reshape(1, 6, 9)
    mats = rows[0].reshape(6, 3, 3)
    d2 = 6.0 - 2.0 * (rows[0] @ rows[0].T)
    sums, mins = pair_log_sums(rows)
    assert sums.shape == (1,) and mins.shape == (1,)
    assert -sums[0] == pytest.approx(brute_force_energy(mats), rel=1e-13)
    iu = np.triu_indices(6, 1)
    assert mins[0] == pytest.approx(float(d2[iu].min()), abs=0.0)


def test_pair_log_sums_tiling_boundary():
    # exercise sizes straddling the 64-wide tiles
    rng = np.random.default_rng(42)
    for n in [1, 2, 63, 64, 65, 130]:
        mats = haar_rotations(rng, n)
        sums, mins = pair_log_sums(mats.reshape(1, n, 9))
        if n == 1:
            assert sums[0] == 0.0 and mins[0] == math.inf
        else:
            assert -sums[0] == pytest.approx(brute_force_energy(mats), rel=1e-12)


def test_pair_log_sums_batched_matches_loop():
    # every row of a tile, diagonal tiles included, is summed pairwise, so a
    # slice gives the same bits alone and inside a batch (n = 150: three tile rows)
    rng = np.random.default_rng(43)
    for n in (9, 150):
        batch = haar_rotations(rng, 5 * n).reshape(5, n, 9)
        sums, mins = pair_log_sums(batch)
        for k in range(5):
            sk, mk = pair_log_sums(batch[k : k + 1])
            assert sums[k] == sk[0]
            assert mins[k] == mk[0]


class _SumFromNegativeZero(np.ndarray):
    """Row sums that start from -0.0 (numpy's start from 0.0), so that a row
    of -0.0 values gives a -0.0 band partial."""

    def sum(self, axis=None):
        return np.add.reduce(self.view(np.ndarray), axis=axis, initial=-0.0)


def _band_walk(data, pair_map, f):
    """Each band's pairs of the (b, n, p) data, as the pair sums form them
    (np.matmul, then pair_map), and the (b, bands) partials of f over them."""
    xt = data.transpose(0, 2, 1)
    bands = [pair_map(_band_pairs(np.matmul, data, xt, a0, a1)) for a0, a1 in _bands(data.shape[1])]
    return bands, np.stack([f(vals).sum(axis=1) for vals in bands], axis=1)


def _band_source(source, n, rng):
    """(pair_map, f, data) for 1024 batch rows whose rows 0 and 1 hold a pair
    with f = -inf (a coincident pair of rotations, an antipodal pair of
    points) and a nan entry: the squared distances of rotation rows under
    log, as pair_log_sums takes them, or the clipped Gram of points under
    log1p, a sphere-kernel-like pair sum."""
    if source == "rows":
        data = haar_rotations(rng, 1024 * n).reshape(1024, n, 9)
        data[0, 0] = data[0, n - 1] = np.eye(3).reshape(9)
        data[1, n // 2, 4] = np.nan
        return (lambda g: 6.0 - 2.0 * g), np.log, data
    data = rng.standard_normal((1024, n, 3))
    data /= np.linalg.norm(data, axis=2, keepdims=True)
    data[0, 0], data[0, n - 1] = (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)
    data[1, n // 2, 1] = np.nan
    return (lambda g: np.clip(g, -1.0, 1.0)), np.log1p, data


@pytest.mark.parametrize(
    "source, n",
    [pytest.param("rows", n, id=str(n)) for n in (2, 30, 64, 65, 200)]
    + [pytest.param("gram", n, id=f"gram-{n}") for n in (2, 30, 64, 65, 200)],
)
def test_upper_tile_sums_equal_per_row_fsum_bit_for_bit(source, n):
    # the band walk's pair sums are one math.fsum per batch row of its band
    # partials, bit for bit. Batch rows 0..2 hold an f = -inf pair, a nan
    # entry and, through f, only -0.0 values; b = 1024, the first 7 rows, and
    # each of them alone.
    rng = np.random.default_rng(45 + n)
    pair_map, g, data = _band_source(source, n, rng)
    negative_zero = np.zeros(1024, dtype=bool)
    negative_zero[2] = True
    iu = np.triu_indices(n, 1)

    for lo, hi in [(0, 1024), (0, 7)] + [(k, k + 1) for k in range(7)]:
        x = data[lo:hi]
        nz = negative_zero[lo:hi, None]
        f = lambda vals: np.where(nz, -0.0, g(vals)).view(_SumFromNegativeZero)
        with np.errstate(divide="ignore", invalid="ignore"):
            bands, partials = _band_walk(x, pair_map, f)
            sums = _fsum_rows(list(partials.T))
            if source == "rows":
                # pair_log_sums is that walk under log
                got, mins = pair_log_sums(x)
                _, log_partials = _band_walk(x, pair_map, np.log)
                assert np.array_equal(got.view(np.uint64), _fsum_rows(list(log_partials.T)).view(np.uint64))
                assert np.array_equal(mins, np.min(np.concatenate(bands, axis=1), axis=1), equal_nan=True)
        want = np.array([math.fsum(row) for row in partials])
        assert np.array_equal(sums.view(np.uint64), want.view(np.uint64)), (lo, hi)
        if hi - lo <= 7:
            # the bands hold each pair i < j once; BLAS may round a product
            # of the full (n, n) array in another order
            full = pair_map(x @ x.transpose(0, 2, 1))[:, iu[0], iu[1]]
            walked = np.concatenate(bands, axis=1)
            np.testing.assert_allclose(np.sort(walked, axis=1), np.sort(full, axis=1), rtol=0.0, atol=1e-15)
        if hi - lo > 2:
            assert want[0] == -math.inf and math.isnan(want[1])
            assert np.all(np.signbit(partials[2])) and want[2] == 0.0 and not np.signbit(want[2])


def test_log_energy_fiber_identity():
    # one fiber: energy equals the r = 1 phase average, any base point or phase
    rng = np.random.default_rng(44)
    for s in [2, 3, 16]:
        e = log_energy(build_configuration(unit_vector(rng.standard_normal(3)), s, int(rng.integers(0, 2**63))))
        assert type(e) is float
        assert e == pytest.approx(fibered_energy(1, s, 0.0), rel=1e-12)


def test_log_energy_coincident_matrices_is_infinite():
    m = np.stack([np.eye(3), np.eye(3)])
    assert log_energy(m) == math.inf


def test_log_energy_single_matrix_is_zero():
    assert log_energy(np.eye(3)[None]) == 0.0


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_log_energy_rejects_non_finite_matrices(value):
    mats = haar_rotations(np.random.default_rng(3), 4)
    mats[2, 1, 0] = value
    with pytest.raises(ValueError, match="matrix 2 has a non-finite entry"):
        log_energy(mats)


def test_log_energy_refuses_what_is_not_a_stack_of_rotations():
    # a (4, 9) zero array used to give -10.75, a reflection a finite energy,
    # and a single matrix numpy's reshape error
    with pytest.raises(ValueError, match=r"\(n, 3, 3\) stack of rotations, got shape \(4, 9\)"):
        log_energy(np.zeros((4, 9)))
    with pytest.raises(ValueError, match=r"got shape \(3, 3\)"):
        log_energy(np.eye(3))
    mats = haar_rotations(np.random.default_rng(4), 5)
    mats[3] = np.diag([1.0, 1.0, -1.0])
    mats[4, 0, 0] = math.nan
    with pytest.raises(ValueError, match="matrix 3 is not a rotation"):
        log_energy(mats)
    mats[1] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="matrix 1 is not a rotation"):
        log_energy(mats)


def test_log_energy_refuses_a_hand_built_configuration_of_non_rotations():
    meta = ConfigMeta(ensemble="custom", r=4, s=1, seed=None)
    mats = haar_rotations(np.random.default_rng(6), 4)
    mats[2, 0, 1] = math.inf
    with pytest.raises(ValueError, match="matrix 2 has a non-finite entry"):
        log_energy(Configuration(mats, meta))
    mats[2] = np.diag([-1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="matrix 2 is not a rotation"):
        log_energy(Configuration(mats, meta))


def test_direct_route_builds_no_n_by_n_array():
    # n = 4000: a (4000, 4000) float Gram would take 122 MiB; the row bands
    # take 2 MiB. The value matches the sum over a full distance array.
    import tracemalloc

    rng = np.random.default_rng(45)
    mats = haar_rotations(rng, 4000)
    rows = np.ascontiguousarray(mats.reshape(1, -1, 9))
    tracemalloc.start()
    try:
        sums, mins = pair_log_sums(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    small = rows[:, :300]
    d2 = (6.0 - 2.0 * (small @ small.transpose(0, 2, 1)))[0][np.triu_indices(300, 1)]
    banded, banded_mins = pair_log_sums(small)
    assert banded[0] == pytest.approx(math.fsum(np.log(d2)), rel=1e-13)
    assert banded_mins[0] == pytest.approx(d2.min(), rel=1e-12)
    assert np.isfinite(sums[0]) and mins[0] > 0.0


@pytest.mark.parametrize("b, n, limit", [(64, 256, 11.0), (1, 3584, 2.5)])
def test_pair_log_sums_holds_one_band_and_no_log_copy(b, n, limit):
    # one buffer sized for the first band holds every band and its logs, and
    # the heads are formed a block of trials at a time: (64, 256) peaked at
    # 15.0 MiB with a buffered head gather and a copy for the logs, and now
    # at 8.5 MiB (a 7.0 MiB band, a 1 MiB head block, its 0.5 MiB gather);
    # (1, 3584) at 3.5 MiB, now 1.8 MiB (one 1.7 MiB band)
    import tracemalloc

    rows = haar_rotations(np.random.default_rng(53), b * n).reshape(b, n, 9)
    pair_log_sums(rows)
    tracemalloc.start()
    try:
        pair_log_sums(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit * 2**20


@pytest.mark.parametrize("op", ["matmul", "subtract"])
@pytest.mark.parametrize("n", [64, 200])
def test_band_pairs_head_blocks_equal_one_block_bit_for_bit(monkeypatch, op, n):
    # b = 101 trials of m = 64 heads are four head blocks of 32, the last
    # holding 5; a single block gives the same bits. Band (0, 64) has a tail
    # at n = 200 and none at n = 64.
    from so3energy import energy

    rng = np.random.default_rng(54)
    b = 101
    if op == "matmul":
        u = haar_rotations(rng, b * n).reshape(b, n, 9)
        vt = u.transpose(0, 2, 1)
    else:
        phases = rng.uniform(0.0, 2.0 * math.pi, (b, n))
        u, vt = phases[:, :, None], phases[:, None, :]
    f = getattr(np, op)
    assert energy._HEAD_BLOCK // 64**2 == 32
    blocked = _band_pairs(f, u, vt, 0, 64)
    monkeypatch.setattr(energy, "_HEAD_BLOCK", b * 64**2)
    single = _band_pairs(f, u, vt, 0, 64)
    assert blocked.shape == (b, 2016 + (n - 64) * 64)
    assert np.array_equal(blocked.view(np.uint64), single.view(np.uint64))
    iu = np.triu_indices(n, 1)
    band = iu[0] < 64
    want = (f(u, vt).transpose(0, 2, 1) if op == "matmul" else f(vt, u))[:, iu[0][band], iu[1][band]]
    np.testing.assert_allclose(np.sort(blocked, axis=1), np.sort(want, axis=1), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("b, r, s", [(1, 5, 3), (6, 10, 3), (3, 75, 2)])
def test_supplied_buffers_give_the_unbuffered_bits(b, r, s):
    # fiber_matrices and pair_log_sums write into the start of a longer
    # buffer filled with nan when one is given, with the bits of the calls
    # that allocate their own; n = 150 spans three bands
    rng = np.random.default_rng(55)
    frames = haar_rotations(rng, r)
    phases = rng.uniform(0.0, 2.0 * math.pi, (b, r))
    n = r * s
    work = np.full(b * n * 9 + 7, np.nan)
    rows = fiber_matrices(frames, phases, s, out=work)
    want_rows = fiber_matrices(frames, phases, s)
    assert np.shares_memory(rows, work) and rows.shape == want_rows.shape
    assert np.array_equal(rows.view(np.uint64), want_rows.view(np.uint64))
    buf = np.full(b * band_len(n) + 7, np.nan)
    for got, want in zip(pair_log_sums(rows, out=buf), pair_log_sums(want_rows)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


def test_sphere_kernel_energy_builds_no_r_by_r_array():
    # r = 4000: the full Gram and its kernel peaked at 244 MiB; the 64-row
    # bands stay under 16 MiB. At r = 150 (three bands) the value matches the
    # sum over the full Gram.
    import tracemalloc

    rng = np.random.default_rng(50)
    pts = sample_points("uniform", 4000, rng)
    tracemalloc.start()
    try:
        energy = sphere_kernel_energy(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert np.isfinite(energy)
    small = pts[:150]
    g = np.clip(small @ small.T, -1.0, 1.0)[np.triu_indices(150, 1)]
    assert sphere_kernel_energy(small) == pytest.approx(2.0 * math.fsum(sphere_kernel(g)), rel=1e-13)


@pytest.mark.parametrize("bad", [[0.0, 0.0, 2.0], [math.nan, 0.0, 0.0]])
def test_sphere_kernel_energy_rejects_non_unit_points(bad):
    # points scaled by 2 used to give the unit points' value, a NaN point nan
    pts = [[1.0, 0.0, 0.0], bad]
    with pytest.raises(ValueError, match="point 1 is"):
        sphere_kernel_energy(pts)
    with pytest.raises(ValueError, match="point 0 is"):
        sphere_kernel_energy(2.0 * np.eye(3))


def test_predicted_energy_explicit_small_case():
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    s = 3
    n = 6
    expected = -(n * n / 2.0) * _LOG2 + (n / 2.0) * _LOG2 - n * math.log(s) - s * s * (2.0 * _LOG2)
    assert predicted_energy(pts, s) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        predicted_energy(pts, 0)


@pytest.mark.parametrize(
    "bad", [[math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0], [1.0 + 2e-10, 0.0, 0.0], [0.6, 0.0, 0.6]]
)
def test_predicted_energy_rejects_non_unit_points(bad):
    # a NaN point used to give a nan prediction without complaint
    pts = [[0.0, 0.0, 1.0], bad, [1.0, 0.0, 0.0]]
    with pytest.raises(ValueError, match="point 1 is"):
        predicted_energy(pts, 2)
    assert math.isfinite(predicted_energy([[0.0, 0.0, 1.0], [1.0 + 5e-11, 0.0, 0.0]], 2))


def test_predicted_energy_single_fiber_consistency():
    # r = 1: the prediction is minus the within-fiber closed form
    # s(s-1)/2 log 2 + s log s
    p = np.array([[0.6, 0.0, 0.8]])
    for s in [1, 2, 5, 9]:
        within = s * (s - 1) / 2.0 * math.log(2.0) + s * math.log(s)
        assert predicted_energy(p, s) == pytest.approx(-within, rel=1e-13)


def test_circle_average_against_quadrature():
    # the circle average of log(6 - 2 tr(H R(phi))) is log 2 + 2 K(h33), the
    # phase average fibered_energy rests on
    rng = np.random.default_rng(46)
    for h in haar_rotations(rng, 25):
        cf = math.log(2.0) + 2.0 * sphere_kernel(float(h[2, 2]))
        q = circle_average_quadrature(h)
        assert cf == pytest.approx(q, abs=1e-9)


def test_circle_average_identity_corner():
    # H = identity: 6 - 2(2 cos phi + 1) = 4 - 4 cos phi, whose circle mean of
    # logs is 2 log((sqrt 8 + sqrt 0) / 2) = log 2, and K(1) = 0; H = diag(1,
    # -1, -1) leaves the constant log 8 = log 2 + 2 K(-1)
    val = math.log(2.0) + 2.0 * sphere_kernel(1.0)
    ref = 2.0 * math.log((math.sqrt(8.0) + math.sqrt(0.0)) / 2.0)
    assert val == pytest.approx(ref, abs=1e-14)
    flip = np.diag([1.0, -1.0, -1.0])
    assert circle_average_quadrature(flip) == pytest.approx(math.log(2.0) + 2.0 * sphere_kernel(-1.0), abs=1e-14)


def test_crossed_expectation_by_direct_phase_average():
    # the phase average of the cross sum over a fine grid converges to the
    # predicted energy of the two base points less the two within-fiber
    # energies: the energy is minus twice the cross sum plus those terms.
    # Fibers over distinct points, s = 2.
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
    expected = -(predicted_energy([p, q], s) - 2.0 * fibered_energy(1, s, 0.0)) / 2.0
    assert np.mean(totals) == pytest.approx(expected, rel=1e-10)
    # that is s^2 log(sqrt 2 + sqrt(1 - <p, q>)) = s^2 (log 2 / 2 + sphere_kernel(<p, q>))
    t = float(p @ q)
    assert expected == pytest.approx(s * s * math.log(math.sqrt(2.0) + math.sqrt(1.0 - t)), rel=1e-13)
    assert expected == pytest.approx(s * s * (0.5 * _LOG2 + sphere_kernel(t)), rel=1e-13)


# --- fiber-pair identity --------------------------------------------------------


def _fiber_energies(frames, phases, s):
    """fiber_pair_energies' energies, formed from its kernel and fluctuation
    sums as the harness forms them, and its minima."""
    kernel, fluct, mins = fiber_pair_energies(frames, phases, s)
    return fibered_energy(np.shape(phases)[-1], s, kernel) - s * fluct, mins


def _fiber_route(frames, phases, s):
    e, m = _fiber_energies(np.asarray(frames)[None], np.asarray(phases)[None], s)
    return float(e[0]), float(m[0])


def _both_routes(frames, phases, s):
    sums, dmin = pair_log_sums(fiber_matrices(frames, phases, s)[None])
    return _fiber_route(frames, phases, s), (float(-sums[0]), float(dmin[0]))


def _grid_points(rng):
    # both poles, an antipodal pair, base points with t within 1e-12 of 1, and
    # generic points
    p = unit_vector(rng.standard_normal(3))
    near = unit_vector(p + 1e-6 * unit_vector(np.cross(p, rng.standard_normal(3))))
    assert 1.0 - 1e-12 < float(p @ near) < 1.0
    generic = rng.standard_normal((6, 3))
    generic /= np.linalg.norm(generic, axis=1, keepdims=True)
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    return np.vstack([poles, p, -p, near, generic])


def _masked_minima(frames, phases, s):
    """fiber_pair_energies' smallest squared distances with sin taken only
    on each band's pairs whose 4 (1 - t) lies under the band's cap, the least
    4 (1 - t) + (1 + t) u^2; sin^2 v <= v^2, so no other pair can hold the
    band's minimum."""
    nb, r = phases.shape
    pts, cols = frames[..., 2], frames[..., :2]
    a = cols.reshape(nb, r, 6)
    b = (cols[..., ::-1] * (1.0, -1.0)).reshape(nb, r, 6)
    at = a.transpose(0, 2, 1)
    step = 2.0 * math.pi / s
    dmin = np.full(nb, 8.0 * math.sin(math.pi / s) ** 2 if s > 1 else math.inf)
    for a0, a1 in _bands(r):
        t = np.clip(_band_pairs(np.matmul, pts, pts.transpose(0, 2, 1), a0, a1), -1.0, 1.0)
        psi = np.arctan2(_band_pairs(np.matmul, b, at, a0, a1), _band_pairs(np.matmul, a, at, a0, a1))
        theta = _band_pairs(np.subtract, phases[:, :, None], phases[:, None, :], a0, a1) - psi
        u = theta - step * np.rint(theta / step)
        lo = 4.0 * (1.0 - t)
        cap = (lo + (1.0 + t) * np.square(u)).min(axis=1, initial=np.inf, keepdims=True)
        near = lo <= cap
        d = np.full_like(lo, np.inf)
        d[near] = lo[near] + 4.0 * (1.0 + t[near]) * np.square(np.sin(0.5 * u[near]))
        dmin = np.minimum(dmin, d.min(axis=1, initial=np.inf))
    return dmin


@pytest.mark.parametrize("s", [1, 2, 3, 7, 17])
def test_fiber_pair_energy_matches_direct_route(s):
    rng = np.random.default_rng(100 + s)
    pts = _grid_points(rng)
    cases = [pts, pts[:2], pts[2:4], pts[2:5]]
    for points in cases:
        frames = base_frames(points)
        (e, m), (e_direct, m_direct) = _both_routes(frames, rng.uniform(0.0, 2.0 * math.pi, len(points)), s)
        assert e == pytest.approx(e_direct, rel=1e-12)
        assert m == pytest.approx(m_direct, rel=1e-9, abs=1e-13)
        assert m >= COINCIDENCE_TOL


@pytest.mark.parametrize("s", [2, 3, 7, 17])
def test_fiber_pair_energy_aligned_phases_are_coincident(s):
    # fibers over one base point whose phases differ by a multiple of 2 pi / s
    # share a rotation; both routes put the minimum under the tolerance
    rng = np.random.default_rng(200 + s)
    points = _grid_points(rng)[[2, 0, 5, 2]]
    phases = rng.uniform(0.0, 2.0 * math.pi, 4)
    phases[3] = phases[0] + 2.0 * math.pi * 3 / s
    (_, m), (_, m_direct) = _both_routes(base_frames(points), phases, s)
    assert m < COINCIDENCE_TOL and m_direct < COINCIDENCE_TOL
    assert m.hex() == float(_masked_minima(base_frames(points)[None], phases[None], s)[0]).hex()


@pytest.mark.parametrize("r, s", [(2, 1), (24, 4), (96, 8), (130, 3)])
def test_fiber_pair_minima_equal_masked_minima_bit_for_bit(r, s):
    # resampled zeros draws, 1 to 3 bands of fibers
    rng = np.random.default_rng(700 + r)
    frames = np.stack([base_frames(sample_points("zeros", r, rng)) for _ in range(5)])
    phases = rng.uniform(0.0, 2.0 * math.pi, (5, r))
    _, _, mins = fiber_pair_energies(frames, phases, s)
    assert np.array_equal(mins.view(np.uint64), _masked_minima(frames, phases, s).view(np.uint64))


def test_fluctuation_log_near_coincidence_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    slog_x, s_theta = math.log1p(-1e-9), 1e-9
    got = float(_fluctuation_logs(np.array(slog_x), np.array(s_theta)))
    with mpmath.workdps(50):
        y = mpmath.exp(mpmath.mpf(slog_x))
        ref = mpmath.log((1 - y) ** 2 + 4 * y * mpmath.sin(mpmath.mpf(s_theta) / 2) ** 2)
    assert math.isfinite(got)
    assert abs(got - float(ref)) <= 1e-10
    assert float(ref) == pytest.approx(-40.75, abs=0.01)


@pytest.mark.parametrize("seed", range(40))
def test_fiber_pair_energy_invariant_under_left_rotation_and_permutation(seed):
    rng = np.random.default_rng(300 + seed)
    r, s = int(rng.integers(2, 13)), int(rng.integers(2, 10))
    frames = haar_rotations(rng, r)
    phases = rng.uniform(0.0, 2.0 * math.pi, r)
    e, _ = _fiber_route(frames, phases, s)
    rotated, _ = _fiber_route(haar_rotations(rng, 1)[0] @ frames, phases, s)
    perm = rng.permutation(r)
    permuted, _ = _fiber_route(frames[perm], phases[perm], s)
    assert rotated == pytest.approx(e, rel=1e-12)
    assert permuted == pytest.approx(e, rel=1e-12)


@pytest.mark.parametrize("kind", ["uniform", "zeros"])
@pytest.mark.parametrize("s", [3, 7])
@pytest.mark.parametrize("r", [65, 130, 200])
def test_fiber_pair_energy_matches_direct_route_across_bands(r, s, kind):
    # r > 64: the fiber pairs span two to four 64-row bands, whose partials
    # are combined with fsum
    rng = np.random.default_rng(10 * r + s)
    frames = base_frames(sample_points(kind, r, rng))
    (e, m), (e_direct, m_direct) = _both_routes(frames, rng.uniform(0.0, 2.0 * math.pi, r), s)
    assert e == pytest.approx(e_direct, rel=1e-12)
    assert m == pytest.approx(m_direct, rel=1e-9, abs=1e-13)


def _one_band_reference(frames, phases, s):
    """The fiber-pair identity over all pairs i < j of one trial as one row,
    each sum taken pairwise once: for r <= 64 the banded route's only band."""
    r = len(phases)
    frames, phases = frames[None], phases[None]
    flat = np.flatnonzero(np.triu(np.ones((r, r), dtype=bool), 1))

    def pairs(x):
        return x.reshape(1, r * r)[:, flat]

    pts, cols = frames[..., 2], frames[..., :2]
    a = cols.reshape(1, r, 6)
    b = (cols[..., ::-1] * (1.0, -1.0)).reshape(1, r, 6)
    t = np.clip(pairs(pts @ pts.transpose(0, 2, 1)), -1.0, 1.0)
    psi = np.arctan2(pairs(a @ b.transpose(0, 2, 1)), pairs(a @ a.transpose(0, 2, 1)))
    theta = pairs(phases[:, None, :] - phases[:, :, None]) - psi
    step = 2.0 * math.pi / s
    u = theta - step * np.rint(theta / step)
    q = np.sqrt(1.0 - t)
    fluct = _fluctuation_logs(s * np.log1p(-2.0 * q / (math.sqrt(2.0) + q)), s * u)
    energy = fibered_energy(r, s, 2.0 * sphere_kernel(t).sum(axis=1)) - s * fluct.sum(axis=1)
    d = 4.0 * (1.0 - t) + 4.0 * (1.0 + t) * np.square(np.sin(0.5 * u))
    return float(energy[0]), float(d.min(initial=8.0 * math.sin(math.pi / s) ** 2))


def test_fiber_pair_energy_with_one_band_is_one_pairwise_sum():
    rng = np.random.default_rng(47)
    for r in (2, 40, 64):
        for s in (3, 14):
            frames = base_frames(sample_points("zeros", r, rng))
            phases = rng.uniform(0.0, 2.0 * math.pi, r)
            assert _fiber_route(frames, phases, s) == _one_band_reference(frames, phases, s)


def test_fiber_route_memory_grows_as_64_r():
    # r = 400: (r, r) products and r (r - 1)/2-long pair rows peaked at
    # 7.4 MiB; (64, r) bands stay under 4 MiB
    import tracemalloc

    rng = np.random.default_rng(48)
    frames = haar_rotations(rng, 400)[None]
    phases = rng.uniform(0.0, 2.0 * math.pi, (1, 400))
    tracemalloc.start()
    try:
        energies, _ = _fiber_energies(frames, phases, 17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(energies[0])
    assert peak < 4 * 2**20


def test_fiber_pair_energy_past_32_bands_matches_log_energy():
    # r = 2100: 33 bands, one more than the band shapes a 32-entry index
    # cache held
    rng = np.random.default_rng(51)
    r, s = 2100, 3
    frames = base_frames(sample_points("uniform", r, rng))
    phases = rng.uniform(0.0, 2.0 * math.pi, r)
    e, _ = _fiber_route(frames, phases, s)
    assert e == pytest.approx(log_energy(fiber_matrices(frames, phases, s).reshape(-1, 3, 3)), rel=1e-12)


def test_fiber_route_memory_at_r_3000():
    # a warm single trial at r = 3000, s = 14: an index per band shape,
    # rebuilt on every call, peaked at 38.5 MiB; the bands' own arrays take
    # about 22 MiB
    import tracemalloc

    rng = np.random.default_rng(52)
    frames = haar_rotations(rng, 3000)[None]
    phases = rng.uniform(0.0, 2.0 * math.pi, (1, 3000))
    fiber_pair_energies(frames, phases, 14)
    tracemalloc.start()
    try:
        energies, _ = _fiber_energies(frames, phases, 14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(energies[0])
    assert peak < 28 * 2**20


@pytest.mark.parametrize("r, s", [(2, 3), (24, 4), (64, 5), (130, 8)])
def test_fiber_pair_parts_against_direct_route(r, s):
    # three resampled zeros trials, one to three bands of fibers: the kernel
    # part is sphere_kernel_energy of the base points bit for bit, and the
    # energy formed from the parts is the direct pair sum within 1e-12
    rng = np.random.default_rng(800 + r)
    frames = np.stack([base_frames(sample_points("zeros", r, rng)) for _ in range(3)])
    phases = rng.uniform(0.0, 2.0 * math.pi, (3, r))
    kernel, fluct, _ = fiber_pair_energies(frames, phases, s)
    for k in range(3):
        assert kernel[k].hex() == sphere_kernel_energy(frames[k, :, :, 2]).hex()
        direct = -pair_log_sums(fiber_matrices(frames[k], phases[k], s)[None])[0][0]
        assert fibered_energy(r, s, kernel[k]) - s * fluct[k] == pytest.approx(direct, rel=1e-12)


def test_fiber_pair_fluctuation_has_mean_zero_over_phases():
    # fixed zeros frames, r = 24, s = 4, 4,000 uniform phase draws at seed
    # 61: the kernel part does not depend on the phases, and the fluctuation
    # sum F averages to 0 within 4 standard errors
    rng = np.random.default_rng(61)
    r, s, trials = 24, 4, 4000
    frames = np.repeat(base_frames(sample_points("zeros", r, rng))[None], trials, axis=0)
    kernel, fluct, _ = fiber_pair_energies(frames, rng.uniform(0.0, 2.0 * math.pi, (trials, r)), s)
    assert np.all(kernel == sphere_kernel_energy(frames[0, :, :, 2]))
    assert abs(fluct.mean()) <= 4.0 * fluct.std(ddof=1) / math.sqrt(trials)


def test_fiber_pair_energies_batch_equals_single_trials():
    # a trial gives the same bits alone and inside a batch of 6
    rng = np.random.default_rng(46)
    for r, s in ((5, 3), (70, 2), (130, 5)):
        frames = haar_rotations(rng, 6 * r).reshape(6, r, 3, 3)
        phases = rng.uniform(0.0, 2.0 * math.pi, (6, r))
        energies, mins = _fiber_energies(frames, phases, s)
        for k in range(6):
            assert (energies[k], mins[k]) == _fiber_route(frames[k], phases[k], s)


@pytest.mark.parametrize("seed", range(30))
def test_log_energy_invariant_under_common_rotations_and_permutation(seed):
    # E depends only on the traces of O_i^T O_j: a common left rotation Q O_i,
    # a common right rotation O_i Q and a relabelling leave it unchanged
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(2, 150))
    mats = haar_rotations(rng, n)
    q = haar_rotations(rng, 1)[0]
    e = log_energy(mats)
    assert log_energy(q @ mats) == pytest.approx(e, rel=1e-12)
    assert log_energy(mats @ q) == pytest.approx(e, rel=1e-12)
    assert log_energy(mats[rng.permutation(n)]) == pytest.approx(e, rel=1e-12)
