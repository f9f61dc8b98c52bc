"""Point ensembles on the sphere: uniform, random polynomial zeros, the
equal-area partition, and the generalized-eigenvalue (spherical) ensemble.

Root finding gets the heaviest scrutiny because everything downstream of the
zeros ensemble relies on it being accurate at high degree. Every test here
fails on a RuntimeWarning: an overflow or invalid value inside the root
finder is a defect even when the result passes.
"""

import math

import numpy as np
import pytest

from so3energy.ensembles import (
    ENSEMBLE_KINDS,
    EnsembleSpec,
    RootFindingError,
    _AberthWorkspace,
    _block_sums,
    _inner_first,
    _newton_polygon_starts,
    aberth_roots,
    equal_area_partition,
    max_region_diameter,
    sample_elliptic_zeros,
    sample_equal_area,
    sample_points,
    sample_spherical_ensemble,
    sample_uniform,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def assert_on_sphere(pts, r):
    assert pts.shape == (r, 3)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12


# --- spec -------------------------------------------------------------------


def test_ensemble_spec_validation():
    spec = EnsembleSpec("uniform", 5)
    assert spec.kind == "uniform" and spec.r == 5
    with pytest.raises(ValueError):
        EnsembleSpec("exotic", 5)
    with pytest.raises(ValueError):
        EnsembleSpec("uniform", 0)
    with pytest.raises(ValueError):
        EnsembleSpec("uniform", 5, s=0)


def test_sample_points_dispatch_covers_all_kinds():
    for kind in ENSEMBLE_KINDS:
        pts = sample_points(kind, 6, np.random.default_rng(1))
        assert_on_sphere(pts, 6)
    with pytest.raises(ValueError):
        sample_points("exotic", 6, np.random.default_rng(1))


# --- uniform ------------------------------------------------------------------


def test_sample_uniform_law():
    rng = np.random.default_rng(71)
    pts = sample_uniform(30000, rng)
    assert_on_sphere(pts, 30000)
    # each coordinate has mean 0, variance 1/3 under the uniform law
    assert np.max(np.abs(pts.mean(axis=0))) < 0.02
    assert np.max(np.abs((pts**2).mean(axis=0) - 1.0 / 3.0)) < 0.02
    # z-coordinate is uniform on [-1, 1]: fourth moment 1/5
    assert abs((pts[:, 2] ** 4).mean() - 0.2) < 0.02


# --- root finding ---------------------------------------------------------------


def relative_residuals(coeffs, z):
    # |p(z)| / sum_j |a_j| |z|^j at the deg(p) points z, as the root finder's gate reads it
    return _AberthWorkspace(np.asarray(coeffs, dtype=complex)).relative_residuals(z)


def poly_eval_stable(coeffs, z):
    # reference evaluation via numpy polyval on reversed coefficients
    return np.polyval(coeffs[::-1], z)


def test_aberth_roots_quadratic_and_cubic():
    # z^2 - 3z + 2 = (z - 1)(z - 2)
    roots = aberth_roots(np.array([2.0, -3.0, 1.0], dtype=complex))
    assert sorted(np.round(roots.real, 9)) == [1.0, 2.0]
    # z^3 - 1: cube roots of unity
    roots = aberth_roots(np.array([-1.0, 0.0, 0.0, 1.0], dtype=complex))
    assert np.max(np.abs(np.sort(np.abs(roots)) - 1.0)) < 1e-12


def test_aberth_roots_wilkinson_style():
    # (z - 1)(z - 2)...(z - 12) from its expanded coefficients
    coeffs = np.poly(np.arange(1, 13))[::-1].astype(complex)
    roots = np.sort(aberth_roots(coeffs).real)
    assert np.max(np.abs(roots - np.arange(1, 13))) < 1e-6


def test_aberth_roots_high_degree_residuals():
    # random coefficients at degree 300: every root must have a tiny
    # backward-error residual even when |z| > 1
    rng = np.random.default_rng(72)
    deg = 300
    std = np.sqrt(np.array([math.comb(deg, j) for j in range(deg + 1)], dtype=float))
    coeffs = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) * std
    roots = aberth_roots(coeffs)
    assert len(roots) == deg
    # backward error |p(z)| / sum |a_j| |z|^j, evaluated in extended range
    res = relative_residuals(coeffs, roots)
    assert np.max(res) < 1e-10


def test_aberth_roots_rejects_degenerate_input():
    with pytest.raises(ValueError):
        aberth_roots(np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        aberth_roots(np.array([], dtype=complex))


@pytest.mark.parametrize(
    "coeffs, roots", [([0, 1], [0]), ([0, 0, 1], [0, 0]), ([0, -1, 0, 1], [-1, 0, 1])]
)
def test_aberth_roots_exact_zero_roots(coeffs, roots):
    # leading zero coefficients give exact zero roots; the rest are solved
    got = aberth_roots(np.array(coeffs, dtype=complex))
    assert len(got) == len(roots)
    assert np.sum(got == 0) == roots.count(0)
    assert np.allclose(np.sort_complex(got), roots, atol=1e-12)


def kostlan_coeffs(rng, deg):
    std = np.sqrt(np.array([math.comb(deg, j) / 2.0 for j in range(deg + 1)]))
    return std * (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))


def assert_converged_or_raised(coeffs):
    # the finder may give up, but never returns a non-finite or unchecked root
    from so3energy.ensembles import _RESIDUAL_TOL

    try:
        roots = aberth_roots(coeffs)
    except RootFindingError:
        return
    assert len(roots) == len(coeffs) - 1
    assert np.all(np.isfinite(roots))
    assert np.max(relative_residuals(coeffs, roots)) <= _RESIDUAL_TOL


def test_aberth_roots_spread_moduli():
    # roots 10^-6 .. 10^6: the Newton polygon has one edge per root
    want = 10.0 ** np.arange(-6, 7)
    coeffs = np.poly(want)[::-1].astype(complex)
    radii, _ = _newton_polygon_starts(coeffs)
    assert np.all(np.abs(np.sort(radii) / want - 1.0) <= 0.12)
    roots = aberth_roots(coeffs)
    assert np.max(relative_residuals(coeffs, roots)) <= 1e-10
    assert np.max(np.abs(np.sort(roots.real) / want - 1.0)) < 1e-10
    assert np.max(np.abs(roots.imag) / want) < 1e-10


def test_aberth_roots_near_double_root():
    assert_converged_or_raised(np.poly([1.0, 1.0 + 1e-8, -2.0])[::-1].astype(complex))


def test_aberth_roots_leading_coefficient_near_degenerate():
    from so3energy.ensembles import _DEGENERATE_LEAD

    assert_converged_or_raised(np.array([1.0, 0.5, 2.0 * _DEGENERATE_LEAD], dtype=complex))
    coeffs = kostlan_coeffs(np.random.default_rng(80), 24)
    coeffs[-1] = 1.5 * _DEGENERATE_LEAD
    assert_converged_or_raised(coeffs)


@pytest.mark.parametrize("deg", [24, 96])
def test_aberth_roots_match_companion_eigenvalues(deg):
    coeffs = kostlan_coeffs(np.random.default_rng(81 + deg), deg)
    roots = aberth_roots(coeffs)
    ref = np.polynomial.polynomial.polyroots(coeffs)
    nearest = np.abs(roots[:, None] - ref[None, :]).argmin(axis=1)
    assert sorted(nearest) == list(range(deg))  # a one-to-one matching
    assert np.max(np.abs(roots - ref[nearest]) / np.abs(ref[nearest])) <= 1e-8


def _reference_aberth(c, tol=1e-12, cap=200, retries=3):
    """Aberth iteration in its plain elementwise form: one (r + 1, a) power
    matrix against all four Newton columns, and the Cauchy sums by complex
    subtraction. The starts, freezing and residual gate are aberth_roots',
    so the roots come back in the same index order."""
    r = len(c) - 1
    j = np.arange(r + 1)
    cols = np.stack([c, np.append(c[1:] * j[1:], 0.0), c[::-1], (c * j)[::-1]], axis=1)

    def powers(z):
        # rows u^0..u^r by doubling, u = z where |z| <= 1 and 1/z elsewhere
        inner = np.abs(z) <= 1.0
        u = z.copy()
        u[~inner] = 1.0 / u[~inner]
        pw = np.empty((r + 1, len(z)), dtype=complex)
        pw[0], pw[1] = 1.0, u
        k = 2
        while k <= r:
            m = min(k, r + 1 - k)
            np.multiply(pw[:m], pw[k // 2] * pw[k // 2], out=pw[k : k + m])
            k *= 2
        return inner, pw

    radii, angles = _newton_polygon_starts(c)
    for attempt in range(retries + 1):
        z = radii * np.exp(1j * (angles + 0.35 + 0.6 * attempt))
        active = np.arange(r)
        for _ in range(cap):
            za = z[active]
            inner, pw = powers(za)
            v = cols.T @ pw
            w = v[0] / v[1]
            w[~inner] = za[~inner] * v[2, ~inner] / v[3, ~inner]
            diff = za[:, None] - z[None, :]
            diff[np.arange(len(active)), active] = np.inf
            delta = w / (1.0 - w * np.reciprocal(diff).sum(axis=1))
            za = za - delta
            z[active] = za
            if not np.all(np.isfinite(za)):
                break
            active = active[np.abs(delta) > tol * (1.0 + np.abs(za))]
            if len(active) == 0:
                break
        inner, pw = powers(z)
        num = np.abs(np.stack([c, c[::-1]]) @ pw)
        den = np.stack([np.abs(c), np.abs(c[::-1])]) @ np.abs(pw)
        if np.all(np.isfinite(z)) and np.max(np.where(inner, num[0] / den[0], num[1] / den[1])) <= 1e-10:
            return z
    raise RootFindingError("reference iteration failed")


def test_aberth_roots_match_reference_in_order():
    # 200 Kostlan draws: each root must match the reference's root of the same
    # index, since each root is later paired with its own fiber phase
    for deg, draws in [(24, 100), (96, 50), (256, 30), (400, 15), (1029, 5)]:
        rng = np.random.default_rng(83 + deg)
        for _ in range(draws):
            coeffs = kostlan_coeffs(rng, deg)
            want = _reference_aberth(coeffs)
            got = aberth_roots(coeffs)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def _spread_points(rng, r, lo, hi):
    return 10.0 ** rng.uniform(lo, hi, r) * np.exp(2j * np.pi * rng.uniform(size=r))


def _cauchy_point_sets():
    rng = np.random.default_rng(84)
    yield "random", rng.standard_normal(200) + 1j * rng.standard_normal(200)
    z = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    z[1::2] = z[::2] + 1e-9 * np.exp(2j * np.pi * rng.uniform(size=100))
    yield "pairs 1e-9 apart", z
    yield "moduli 1e-140..1e140", _spread_points(rng, 200, -140, 140)
    yield "moduli 1e-150..1e150", _spread_points(rng, 200, -150, 150)
    yield "kostlan roots", aberth_roots(kostlan_coeffs(rng, 200))
    # every point within 1% of its modulus of two others, in several blocks
    yield "1000 on the unit circle", np.exp(2j * np.pi * (np.arange(1000) + 0.3 * rng.uniform(size=1000)) / 1000)


@pytest.mark.parametrize("name, z", list(_cauchy_point_sets()), ids=lambda v: v if isinstance(v, str) else "")
def test_gram_cauchy_sums_match_direct_sums(name, z):
    r = len(z)
    ws = _AberthWorkspace(np.ones(r + 1, dtype=complex))
    rng = np.random.default_rng(85)
    for active in (np.arange(r), np.sort(rng.permutation(r)[: r // 3]), rng.permutation(r)[:21]):
        za = z[active]
        got = ws.cauchy_sums(z, active, za)
        inv = za[:, None] - z[None, :]
        inv[np.arange(len(active)), active] = np.inf
        inv = 1.0 / inv
        err = np.abs(got - inv.sum(axis=1))
        assert np.all(err <= 1e-10 * np.abs(inv).sum(axis=1)), name


@pytest.mark.parametrize("deg", [1, 2, 24, 63, 64, 96, 256, 1029])
def test_blocked_p_and_dp_match_horner(deg):
    # p and p' at |z| <= 1, z^-r p and z^(1-r) p' in u = 1/z elsewhere, each
    # within 1e-12 of sum_j |a_j| |u|^j (and the same for p')
    rng = np.random.default_rng(86 + deg)
    c = kostlan_coeffs(rng, deg)
    z = _spread_points(rng, deg, -1.5, 1.5)
    order, n_in = _inner_first(np.abs(z))
    z = z[order]
    ws = _AberthWorkspace(c)
    baby, giant = ws._powers(z, n_in)
    got = _block_sums(ws.k_in, ws.k_out, baby, giant, n_in, ws.prod[:, :deg])
    u = np.concatenate([z[:n_in], 1.0 / z[n_in:]])
    j = np.arange(deg + 1)
    dc = np.append(c[1:] * j[1:], 0.0)
    for row, k_in, k_out in [(0, c, c[::-1]), (1, dc, (c * j)[::-1])]:
        poly = np.polynomial.polynomial.polyval
        want = np.concatenate([poly(u[:n_in], k_in), poly(u[n_in:], k_out)])
        scale = np.concatenate([poly(np.abs(u[:n_in]), np.abs(k_in)), poly(np.abs(u[n_in:]), np.abs(k_out))])
        assert np.all(np.abs(got[row] - want) <= 1e-12 * scale)


def test_aberth_roots_refuses_degree_above_limit():
    with pytest.raises(ValueError, match="4096"):
        aberth_roots(np.ones(5001, dtype=complex))


def test_sample_elliptic_zeros_degree_limit():
    # comb(r, j) / 2 leaves the double range from r = 1030; refuse before drawing
    rng = np.random.default_rng(82)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="r <= 1029"):
        sample_elliptic_zeros(1030, rng)
    assert rng.bit_generator.state == state
    assert_on_sphere(sample_elliptic_zeros(1029, rng), 1029)


def test_sample_elliptic_zeros_law():
    # degree-r zeros pushed to the sphere are invariant in law under
    # rotation; check the one-point function is uniform via the z-moment
    rng = np.random.default_rng(73)
    r = 12
    draws = 400
    zs = np.concatenate([sample_elliptic_zeros(r, rng)[:, 2] for _ in range(draws)])
    assert abs(zs.mean()) < 4.0 / math.sqrt(len(zs))  # E z = 0
    # second moment of z under the uniform law is 1/3; the zeros ensemble
    # shares the one-point law
    assert abs((zs**2).mean() - 1.0 / 3.0) < 0.02


def test_sample_elliptic_zeros_shapes_and_sphere():
    rng = np.random.default_rng(74)
    for r in [2, 5, 48]:
        assert_on_sphere(sample_elliptic_zeros(r, rng), r)


def test_root_finding_error_is_runtime_error():
    assert issubclass(RootFindingError, RuntimeError)


# --- equal-area partition --------------------------------------------------------


@pytest.mark.parametrize("r", [1, 2, 3, 4, 10, 100, 1000])
def test_equal_area_partition_exact_areas(r):
    regions = equal_area_partition(r)
    assert len(regions) == r
    target = 4.0 * math.pi / r
    for reg in regions:
        assert reg.area() == pytest.approx(target, abs=1e-9)


def test_equal_area_partition_covers_sphere():
    # total area is the full sphere and collar bands tile longitudes exactly
    for r in [7, 33]:
        regions = equal_area_partition(r)
        total = sum(reg.area() for reg in regions)
        assert total == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_equal_area_diameter_scaling():
    # max diameter decays like 1/sqrt(r) with the documented constant 7
    for r in [2, 10, 100, 1000, 4000]:
        assert max_region_diameter(r) <= 7.0 / math.sqrt(r)


def test_equal_area_diameter_fixture(oracle):
    assert max_region_diameter(100) == pytest.approx(oracle["equal_area"]["r100_max_diameter"], abs=1e-12)


def test_equal_area_region_diameter_brute_force():
    # sample many pairs inside each region of a moderate partition and
    # confirm no pair exceeds the reported diameter
    rng = np.random.default_rng(75)
    for reg in equal_area_partition(24):
        d = reg.diameter()
        phis = rng.uniform(reg.phi0, reg.phi1, 300)
        zs = rng.uniform(math.cos(reg.theta1), math.cos(reg.theta0), 300)
        rho = np.sqrt(np.maximum(0.0, 1.0 - zs**2))
        pts = np.stack([rho * np.cos(phis), rho * np.sin(phis), zs], axis=1)
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        assert dist.max() <= d + 1e-12


def _equal_area_by_region(r, rng):
    # one point per region, drawn region by region
    pts = np.empty((r, 3))
    for i, reg in enumerate(equal_area_partition(r)):
        phi = rng.uniform(reg.phi0, reg.phi1)
        z = rng.uniform(math.cos(reg.theta1), math.cos(reg.theta0))
        rho = math.sqrt(max(0.0, 1.0 - z * z))
        pts[i] = (rho * math.cos(phi), rho * math.sin(phi), z)
    return pts


@pytest.mark.parametrize("r", [1, 2, 3, 7, 100, 400])
def test_sample_equal_area_matches_region_by_region_draws(r):
    for seed in range(5):
        want = _equal_area_by_region(r, np.random.default_rng(seed))
        got = sample_equal_area(r, np.random.default_rng(seed))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_numpy_cos_and_sin_match_libm_bit_for_bit():
    # the batched equal-area sampler relies on np.cos / np.sin giving the bits
    # of math.cos / math.sin, which some SIMD builds do not
    x = np.random.default_rng(87).uniform(0.0, 2.0 * math.pi, 100_000)
    for vec, scalar in [(np.cos, math.cos), (np.sin, math.sin)]:
        want = np.array([scalar(v) for v in x.tolist()])
        assert np.array_equal(vec(x).view(np.uint64), want.view(np.uint64))


def test_sample_equal_area_one_point_per_region():
    rng = np.random.default_rng(76)
    r = 50
    pts = sample_equal_area(r, rng)
    assert_on_sphere(pts, r)
    regions = equal_area_partition(r)
    for p, reg in zip(pts, regions):
        theta = math.acos(min(1.0, max(-1.0, p[2])))
        assert reg.theta0 - 1e-12 <= theta <= reg.theta1 + 1e-12
        phi = math.atan2(p[1], p[0]) % (2.0 * math.pi)
        if reg.kind == "collar-cell":
            assert reg.phi0 - 1e-12 <= phi <= reg.phi1 + 1e-12


# --- spherical ensemble -----------------------------------------------------------


def test_sample_spherical_ensemble_shapes():
    rng = np.random.default_rng(77)
    for r in [2, 5, 16]:
        assert_on_sphere(sample_spherical_ensemble(r, rng), r)


def test_sample_spherical_ensemble_z_moments():
    # the one-point function is uniform, so z has mean 0 and variance 1/3
    rng = np.random.default_rng(78)
    zs = np.concatenate([sample_spherical_ensemble(8, rng)[:, 2] for _ in range(1500)])
    assert abs(zs.mean()) < 4.0 / math.sqrt(len(zs)) * math.sqrt(1.0 / 3.0) + 0.01
    assert abs((zs**2).mean() - 1.0 / 3.0) < 0.02


def test_spherical_ensemble_repulsion():
    # eigenvalue repulsion: nearest-neighbor spacings on the sphere are
    # stochastically larger than for independent uniforms
    rng = np.random.default_rng(79)
    r = 24

    def mean_min_gap(sampler):
        vals = []
        for _ in range(60):
            pts = sampler(r, rng)
            g = pts @ pts.T
            np.fill_diagonal(g, -1.0)
            # smallest chordal gap over all pairs
            vals.append(math.sqrt(max(0.0, 2.0 - 2.0 * float(g.max()))))
        return float(np.mean(vals))

    assert mean_min_gap(sample_spherical_ensemble) > 1.5 * mean_min_gap(sample_uniform)
