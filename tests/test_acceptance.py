"""End-to-end acceptance checks.

Each test pins one user-facing guarantee of the package: a constant to its
printed digits, a closed form against an independent numerical route, a
Monte Carlo estimate against its prediction at four standard errors, or a
structural property (determinism, runtime). Tolerances are part of the
contract and are asserted exactly as documented in the README.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from so3energy.constants import (
    c_harmonic_so3,
    c_sph,
    c_zeros,
    constant_J,
    eap_kernel_lower_bound,
    expected_kernel_energy,
    kappa,
    kappa_quadrature,
    optimal_s,
    zeros_J_sequence,
)
from so3energy.construct import build_configuration, fiber_energy_closed_form
from so3energy.energy import (
    circle_average,
    circle_average_quadrature,
    sphere_kernel,
    sphere_kernel_energy,
)
from so3energy.ensembles import (
    EnsembleSpec,
    equal_area_partition,
    max_region_diameter,
    sample_points,
)
from so3energy.geometry import haar_rotations, unit_vector
from so3energy.harness import ExperimentConfig, run_experiment
from so3energy.specfun import (
    bessel_log_moment,
    bessel_moment,
    gegenbauer,
    gegenbauer_via_jacobi,
    kernel_derivative,
    kernel_gegenbauer_coeff,
)
from so3energy.verify import _turan_tail_ratio

_EULER = 0.57721566490153286
_LOG2 = math.log(2.0)


# 1 -------------------------------------------------------------------------------


def test_kappa_quadrature_twin_and_monte_carlo():
    # closed form -(1 + log 2)/2, its quadrature twin, and a 10^6-pair
    # Monte Carlo over invariant rotation pairs must all agree
    closed = -(1.0 + _LOG2) / 2.0
    assert abs(kappa() - closed) == 0.0
    assert abs(kappa_quadrature() - closed) <= 1e-10

    rng = np.random.default_rng(1001)
    total_pairs = 1_000_000
    chunk = 100_000
    vals = np.empty(total_pairs)
    for k in range(total_pairs // chunk):
        a = haar_rotations(rng, chunk)
        b = haar_rotations(rng, chunk)
        tr = np.einsum("kij,kij->k", a, b)
        vals[k * chunk : (k + 1) * chunk] = 0.5 * np.log(6.0 - 2.0 * tr)
    se = vals.std(ddof=1) / math.sqrt(total_pairs)
    assert se < 1e-3  # sanity: the documented scale of the standard error
    assert abs(vals.mean() - (-closed)) <= 4.0 * se


# 2 -------------------------------------------------------------------------------


def test_printed_constants_match_their_digits():
    assert abs(constant_J() - (-0.57878934)) <= 1e-6
    assert abs(c_zeros() - (-0.4191502)) <= 1e-6
    assert abs(c_sph() - 1.203028) <= 1e-6
    assert abs(c_harmonic_so3() - 1.5054) <= 1e-4


# 3 -------------------------------------------------------------------------------


def test_fiber_energy_identity_every_count_to_64():
    # the within-fiber pairwise log-distance sum has an exact closed form
    # for every fiber count; verified directly for s = 1 .. 64, under 5 s
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    worst = 0.0
    for s in range(1, 65):
        p = unit_vector(rng.standard_normal(3))
        mats = build_configuration(p, s, rng).matrices
        if s == 1:
            direct = 0.0
        else:
            gram = np.einsum("aij,bij->ab", mats, mats)
            d2 = 6.0 - 2.0 * gram
            iu = np.triu_indices(s, 1)
            direct = float(np.sum(np.log(d2[iu])))
        expected = fiber_energy_closed_form(s)
        scale = max(1.0, abs(expected))
        worst = max(worst, abs(direct - expected) / scale)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 5.0


# 4 -------------------------------------------------------------------------------


def test_circle_average_closed_form_on_haar_rotations():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for h in haar_rotations(rng, 100):
        cf = circle_average(float(h[2, 2]), 6.0, -2.0)
        quad = circle_average_quadrature(h, 6.0, -2.0)
        worst = max(worst, abs(cf - quad))
    assert worst <= 1e-8


# 5 -------------------------------------------------------------------------------


def test_fixed_point_sets_phase_average_matches_prediction():
    # for frozen base points the phase-averaged energy has an exact
    # prediction; nine (r, s) grids, 10^5 phase trials each, z within 4
    start = time.perf_counter()
    for r in (2, 5, 10):
        for s in (1, 2, 3):
            spec = EnsembleSpec("uniform", r, s=s)
            cfg = ExperimentConfig(
                spec, trials=100_000, master_seed=40 + 10 * r + s, resample_points=False
            )
            rep = run_experiment(cfg)
            assert rep.prediction_kind == "mean"
            assert rep.excluded == 0
            assert abs(rep.z_score) <= 4.0, (r, s, rep.z_score)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


# 6 -------------------------------------------------------------------------------


def test_pair_kernel_mean_is_one_half():
    rng = np.random.default_rng(1006)
    total = 1_000_000
    chunk = 200_000
    vals = np.empty(total)
    for k in range(total // chunk):
        a = rng.standard_normal((chunk, 3))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b = rng.standard_normal((chunk, 3))
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        vals[k * chunk : (k + 1) * chunk] = sphere_kernel(np.einsum("ij,ij->i", a, b))
    se = vals.std(ddof=1) / math.sqrt(total)
    assert abs(vals.mean() - 0.5) <= 4.0 * se


# 7 -------------------------------------------------------------------------------


def test_spherical_ensemble_kernel_energy():
    # exact value at r = 2 and a 2000-instance Monte Carlo at r = 8
    assert abs(expected_kernel_energy("spherical", 2) - 7.0 / 6.0) <= 1e-12

    rng = np.random.default_rng(1007)
    draws = 2000
    vals = np.array(
        [sphere_kernel_energy(sample_points("spherical", 8, rng)) for _ in range(draws)]
    )
    se = vals.std(ddof=1) / math.sqrt(draws)
    assert abs(vals.mean() - expected_kernel_energy("spherical", 8)) <= 4.0 * se


# 8 -------------------------------------------------------------------------------


def test_zeros_ensemble_kernel_energy_and_large_r_limit():
    rng = np.random.default_rng(1008)
    draws = 2000
    for r in (4, 8):
        vals = np.array(
            [sphere_kernel_energy(sample_points("zeros", r, rng)) for _ in range(draws)]
        )
        se = vals.std(ddof=1) / math.sqrt(draws)
        assert abs(vals.mean() - expected_kernel_energy("zeros", r)) <= 4.0 * se, r

    # the quadrature value approaches r^2/2: at r = 1000 the ratio is 1/2
    # to within 0.02
    ratio = expected_kernel_energy("zeros", 1000) / 1000**2
    assert abs(ratio - 0.5) <= 0.02

    # the rescaled deviation decreases monotonically onto its limit
    j_limit = constant_J()
    seq = [zeros_J_sequence(r) for r in (64, 256, 1024, 4096)]
    assert all(b < a for a, b in zip(seq, seq[1:]))
    assert all(j_limit - 1e-9 < v < -0.5 for v in seq)
    assert abs(seq[-1] - j_limit) <= 1e-4


# 9 -------------------------------------------------------------------------------


def test_equal_area_partition_and_configuration_bound():
    for r in (2, 10, 100, 1000):
        regions = equal_area_partition(r)
        target = 4.0 * math.pi / r
        assert len(regions) == r
        assert max(abs(reg.area() - target) for reg in regions) <= 1e-9
        assert max_region_diameter(r) <= 7.0 / math.sqrt(r)

    # sampled configuration energy stays below the closed-form upper bound
    spec = EnsembleSpec("eap", 100, s=10)
    rep = run_experiment(ExperimentConfig(spec, trials=60, master_seed=1009))
    assert rep.prediction_kind == "upper_bound"
    assert rep.mean <= rep.prediction
    assert rep.passed


# 10 ------------------------------------------------------------------------------


def test_kernel_positive_definiteness_and_derivatives():
    # expansion coefficients: index 0 equals -1/2, all higher ones strictly
    # positive; low-order derivatives positive and matching differences
    assert abs(kernel_gegenbauer_coeff(0).value - (-0.5)) <= 1e-8
    for n in range(1, 51):
        assert kernel_gegenbauer_coeff(n).value > 0.0, n

    def f(t):
        return -math.log1p(math.sqrt((1.0 - t) / 2.0))

    h = 1e-5
    worst = 0.0
    for t in np.linspace(-0.9, 0.9, 25):
        t = float(t)
        for order in range(1, 5):
            val = kernel_derivative(order, t)
            assert val > 0.0, (order, t)
            if order == 1:
                fd = (f(t + h) - f(t - h)) / (2.0 * h)
            else:
                fd = (kernel_derivative(order - 1, t + h) - kernel_derivative(order - 1, t - h)) / (2.0 * h)
            worst = max(worst, abs(val - fd) / abs(val))
    assert worst <= 1e-5


# 11 ------------------------------------------------------------------------------


def test_bessel_moments_and_polynomial_recurrences():
    assert abs(bessel_moment(0.0, 1.5) - 1.0 / 3.0) <= 1e-8
    target = (7.0 - 3.0 * _EULER - 3.0 * _LOG2) / 9.0
    assert abs(bessel_log_moment(1.5) - target) <= 1e-8

    xs = np.linspace(-1.0, 1.0, 41)
    worst = 0.0
    for deg in range(0, 61):
        for lam in (0.5, 2.0):
            a = gegenbauer(deg, lam, xs)
            b = gegenbauer_via_jacobi(deg, lam, xs)
            worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-12))))
    assert worst <= 1e-9

    # tail-ratio trend: bounded within the recorded bracket across degrees
    for L in (16, 32, 64, 128):
        ratio = _turan_tail_ratio(L)
        assert 0.05 <= ratio <= 5.0, (L, ratio)


def test_turan_tail_ratios_match_fixture(oracle):
    for key, expected in oracle["turan_tail_ratio"].items():
        assert _turan_tail_ratio(int(key)) == pytest.approx(expected, abs=1e-7)


# 12 ------------------------------------------------------------------------------


def test_zeros_construction_residual_trend(oracle):
    # full asymptotic digits are out of reach at desk scale; instead the
    # normalized residual (mean energy - kappa n^2 + (1/3) n log n)/n must
    # be finite, lie in the pre-registered fixture bracket, and tighten
    rows = oracle["headline_residuals"]["rows"]
    kap = kappa()
    spreads = []
    for row in rows:
        r, s, n = row["r"], row["s"], row["n"]
        assert s == optimal_s("zeros", r)
        spec = EnsembleSpec("zeros", r, s=s)
        rep = run_experiment(ExperimentConfig(spec, trials=200, master_seed=1200 + n))
        residual = (rep.mean - kap * n * n + n * math.log(n) / 3.0) / n
        assert math.isfinite(residual)
        lo = row["predicted_residual"] - row["half_width"]
        hi = row["predicted_residual"] + row["half_width"]
        assert lo <= residual <= hi, (r, residual, (lo, hi))
        m = rep.trials - rep.excluded
        spreads.append(rep.std_error * math.sqrt(m) / n)
    assert all(b < a for a, b in zip(spreads, spreads[1:]))


# 13 ------------------------------------------------------------------------------


def _run_cli(args, workers, cwd, base_env):
    env = dict(base_env, SO3ENERGY_WORKERS=str(workers))
    proc = subprocess.run(
        [sys.executable, "-m", "so3energy.cli"] + args,
        capture_output=True,
        env=env,
        cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_outputs_byte_identical_across_worker_counts(tmp_path, child_env):
    gen_outs, gen_files = [], []
    for w in (1, 8):
        out = tmp_path / f"cfg_w{w}.json"
        stdout = _run_cli(
            [
                "generate", "--ensemble", "zeros", "--r", "6", "--s", "2",
                "--seed", "13", "--out", str(out),
            ],
            w,
            tmp_path,
            child_env,
        )
        gen_outs.append(stdout.replace(str(out).encode(), b"OUT"))
        gen_files.append(out.read_bytes())
    assert gen_outs[0] == gen_outs[1]
    assert gen_files[0] == gen_files[1]

    mc_outs = []
    for w in (1, 8):
        stdout = _run_cli(
            [
                "mc", "--ensemble", "uniform", "--r", "32", "--s", "2",
                "--trials", "2500", "--seed", "13",
            ],
            w,
            tmp_path,
            child_env,
        )
        mc_outs.append(stdout)
    assert mc_outs[0] == mc_outs[1]
    report = json.loads(mc_outs[0])
    assert report["pass"] is True

    # fixed points take the batched phase route: 2,500 trials of n = 64 make
    # three 1,024-trial chunks
    cfg = ExperimentConfig(EnsembleSpec("uniform", 32, s=2), trials=2500, master_seed=13, resample_points=False)
    assert run_experiment(cfg, workers=1).to_json() == run_experiment(cfg, workers=8).to_json()
