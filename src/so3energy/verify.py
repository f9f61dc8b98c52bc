"""Self-check suites behind the `verify` CLI subcommand.

Every check compares two independent routes (closed form vs quadrature vs
Monte Carlo) at its stated tolerance. `_CHECKS` is the only definition of
the package's acceptance checks: each check owns its seeds, streams, trial
counts and tolerances, and the acceptance tests run every one of them at the
full size (`check(False)`) and assert that it passes. The fast suite trims
the trial counts of the Monte Carlo checks and finishes in a few seconds.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import constants as cn
from .construct import build_configuration
from .energy import (
    circle_average_quadrature,
    log_energy,
    predicted_energy,
    sphere_kernel,
    sphere_kernel_energy,
)
from .ensembles import EnsembleSpec, equal_area_partition, sample_points, sample_uniform
from .geometry import _gaussian_directions, haar_rotations, quaternion_matrix, so3_dist_sq
from .harness import _Z_THRESHOLD, ExperimentConfig, run_experiment
from .quadrature import integrate
from .specfun import (
    bessel_log_moment,
    bessel_moment,
    gegenbauer,
    gegenbauer_via_jacobi,
    jacobi_p,
    kernel_derivative,
    kernel_gegenbauer_coeff,
)
from .streams import DOMAIN_POINTS, keyed_stream

_FIXTURES = os.path.join(os.path.dirname(__file__), "_verify_fixtures.json")
# Haar pairs per chunk of the kappa check
_KAPPA_CHUNK = 2**16


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _check_kappa(fast):
    k = cn.kappa()
    quad_err = abs(cn.kappa_quadrature() - k)
    npairs = 200_000 if fast else 1_000_000
    rng = keyed_stream(2026, DOMAIN_POINTS)
    # the a draws, then the b draws, as two haar_rotations calls would take
    # them; the rotations and distances are formed in chunks
    qa = _gaussian_directions(rng, npairs, 4)
    qb = _gaussian_directions(rng, npairs, 4)
    x = np.empty(npairs)
    for lo in range(0, npairs, _KAPPA_CHUNK):
        hi = lo + _KAPPA_CHUNK
        x[lo:hi] = np.log(so3_dist_sq(quaternion_matrix(qa[lo:hi]), quaternion_matrix(qb[lo:hi])))
    est = -x.mean() / 2.0
    se = x.std(ddof=1) / 2.0 / math.sqrt(npairs)
    z = (est - k) / se
    ok = k == -(1.0 + math.log(2.0)) / 2.0 and quad_err < 1e-10 and se < 1e-3 and abs(z) <= _Z_THRESHOLD
    return _result("kappa", ok, f"quad err {quad_err:.2e}, MC z {z:+.2f} over {npairs} pairs")


def _check_constants(fast):
    checks = [
        ("J", cn.constant_J(), -0.57878934, 1e-6),
        ("C_zeros", cn.c_zeros(), -0.4191502, 1e-6),
        ("C_sph", cn.c_sph(), 1.203028, 1e-6),
        ("C_harmonic_so3", cn.c_harmonic_so3(), 1.5054, 1e-4),
    ]
    bad = [f"{n}={v!r}" for n, v, ref, tol in checks if not abs(v - ref) <= tol]
    return _result("constants", not bad, "all printed digits match" if not bad else "; ".join(bad))


def _check_fiber_identity(fast):
    # one fiber, built as `generate` builds it, has no fiber pairs: every phase gives the phase average
    rng = keyed_stream(2026, DOMAIN_POINTS)
    errs = []
    for s in range(1, 65):
        p = sample_uniform(1, rng)[0]
        direct = log_energy(build_configuration(p, s, 2026))
        expected = predicted_energy(p, s)
        errs.append(abs(direct - expected) / max(1.0, abs(expected)))
    # np.max, unlike max, keeps a NaN, which then fails the comparison
    worst = float(np.max(errs))
    return _result("fiber-identity", worst <= 1e-9, f"worst rel err {worst:.2e} over s=1..64")


def _check_circle_average(fast):
    count = 20 if fast else 100
    rng = keyed_stream(2027, DOMAIN_POINTS)
    hs = haar_rotations(rng, count)
    # against the phase average of the log squared distance that fibered_energy takes
    worst = float(
        np.max([abs(math.log(2.0) + 2.0 * sphere_kernel(h[2, 2]) - circle_average_quadrature(h)) for h in hs])
    )
    return _result("circle-average", worst <= 1e-8, f"worst abs err {worst:.2e} over {count} rotations")


def _check_fixed_point_mean(fast):
    grid = [(2, 2), (5, 3)] if fast else [(r, s) for r in (2, 5, 10) for s in (1, 2, 3)]
    trials = 20_000 if fast else 100_000
    worst = 0.0
    for r, s in grid:
        cfg = ExperimentConfig(
            spec=EnsembleSpec("uniform", r, s),
            trials=trials,
            master_seed=1000 + 10 * r + s,
            resample_points=False,
        )
        rep = run_experiment(cfg)
        worst = max(worst, abs(rep.z_score))
        if not (rep.passed and rep.excluded == 0 and rep.prediction_kind == "mean"):
            return _result("fixed-point-mean", False, f"(r={r}, s={s}) z {rep.z_score:+.2f}")
    return _result("fixed-point-mean", True, f"worst |z| {worst:.2f} over {len(grid)} configs x {trials} trials")


def _check_pair_kernel_mean(fast):
    npairs = 200_000 if fast else 1_000_000
    rng = keyed_stream(2028, DOMAIN_POINTS)
    p = sample_uniform(npairs, rng)
    q = sample_uniform(npairs, rng)
    vals = sphere_kernel(np.einsum("ij,ij->i", p, q))
    z = (vals.mean() - 0.5) / (vals.std(ddof=1) / math.sqrt(npairs))
    return _result("pair-kernel-mean", abs(z) <= _Z_THRESHOLD, f"z {z:+.2f} over {npairs} pairs")


def _kernel_energy_z(kind, r, draws, rng):
    """z-score of the mean sphere_kernel_energy of draws samples of kind at r
    against expected_kernel_energy."""
    vals = np.array([sphere_kernel_energy(sample_points(kind, r, rng)) for _ in range(draws)])
    return (vals.mean() - cn.expected_kernel_energy(kind, r)) / (vals.std(ddof=1) / math.sqrt(draws))


def _check_spherical(fast):
    exact2 = cn.expected_kernel_energy("spherical", 2)
    err2 = abs(exact2 - 7.0 / 6.0)
    instances = 400 if fast else 2000
    z = _kernel_energy_z("spherical", 8, instances, keyed_stream(2029, DOMAIN_POINTS))
    ok = err2 < 1e-12 and abs(z) <= _Z_THRESHOLD
    return _result("spherical-ensemble", ok, f"r=2 err {err2:.1e}, r=8 MC z {z:+.2f} over {instances} draws")


def _check_zeros(fast):
    rs = (4,) if fast else (4, 8)
    draws = 400 if fast else 2000
    rng = keyed_stream(2030, DOMAIN_POINTS)
    zs = [_kernel_energy_z("zeros", r, draws, rng) for r in rs]
    tail = abs(cn.expected_kernel_energy("zeros", 1000) / 1000.0**2 - 0.5)
    j = cn.constant_J()
    seq = [cn.zeros_J_sequence(r) for r in (64, 256, 1024, 4096)]
    monotone = all(b < a for a, b in zip(seq, seq[1:]))
    near = all(j - 1e-9 < v < -0.5 for v in seq) and abs(seq[-1] - j) <= 1e-4
    ok = all(abs(z) <= _Z_THRESHOLD for z in zs) and tail < 0.02 and monotone and near
    ztxt = ", ".join(f"r={r} z {z:+.2f}" for r, z in zip(rs, zs))
    return _result("zeros-ensemble", ok, f"{ztxt}; I_1000/r^2 off by {tail:.3f}; J_r monotone={monotone}")


def _check_equal_area(fast):
    for r in (2, 10, 100, 1000):
        regions = equal_area_partition(r)
        area_err = max(abs(reg.area() - 4.0 * math.pi / r) for reg in regions)
        dmax = max(reg.diameter() for reg in regions)
        if not (len(regions) == r and area_err <= 1e-9 and dmax <= 7.0 / math.sqrt(r)):
            return _result("equal-area", False, f"r={r}: area err {area_err:.1e}, diameter {dmax:.3f}")
    trials = 10 if fast else 60
    cfg = ExperimentConfig(spec=EnsembleSpec("eap", 100, 10), trials=trials, master_seed=2031)
    rep = run_experiment(cfg)
    ok = rep.passed and rep.excluded == 0 and rep.prediction_kind == "upper_bound"
    return _result(
        "equal-area", ok, f"areas/diameters ok; energy mean {rep.mean:.1f} <= bound {rep.prediction:.1f}"
    )


def _check_kernel_positivity(fast):
    f0 = kernel_gegenbauer_coeff(0)
    if not abs(f0 + 0.5) <= 1e-8:
        return _result("kernel-positivity", False, f"fhat(0) = {f0!r}")
    coeffs = [kernel_gegenbauer_coeff(k) for k in range(1, 51)]
    if not all(c > 0.0 for c in coeffs):
        return _result("kernel-positivity", False, f"min fhat {min(coeffs):.2e}")
    grid = np.linspace(-0.9, 0.9, 25)
    for t in grid:
        for order in (1, 2, 3, 4):
            val = kernel_derivative(order, t)
            if not val > 0.0:
                return _result("kernel-positivity", False, f"d^{order} at {t:.2f} = {val!r}")
    h = 1e-4
    errs = []
    for t in grid[::2]:
        val = kernel_derivative(1, t)
        fd = (sphere_kernel(t - h) - sphere_kernel(t + h)) / (2 * h)
        errs.append(abs(val - fd) / abs(val))
    worst = float(np.max(errs))
    return _result("kernel-positivity", worst <= 1e-5, f"fhat>0 through 50, FD rel err {worst:.1e}")


def _check_bessel_moments(fast):
    m = bessel_moment(0.0)
    lm = bessel_log_moment()
    target = (7.0 - 3.0 * cn._EULER - 3.0 * math.log(2.0)) / 9.0
    errs = [abs(m - 1.0 / 3.0), abs(lm - target)]
    xs = np.linspace(-1.0, 1.0, 21)
    degs = (3, 17, 44, 60)
    a = np.array([gegenbauer(deg, 2.0, xs) for deg in degs])
    b = np.array([gegenbauer_via_jacobi(deg, 2.0, xs) for deg in degs])
    cross = float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-12)))
    ls = (16, 32) if fast else (16, 32, 64, 128)
    ratios = [_turan_tail_ratio(L) for L in ls]
    bracket = all(0.05 <= ratio <= 5.0 for ratio in ratios)
    ok = errs[0] < 1e-8 and errs[1] < 1e-8 and cross <= 1e-9 and bracket
    return _result(
        "bessel-moments",
        ok,
        f"moment errs {errs[0]:.1e}/{errs[1]:.1e}, recurrence cross {cross:.1e}, tail ratios ok={bracket}",
    )


def _turan_tail_ratio(L):
    def f(t):
        p = jacobi_p(L, 1.0, 0.0, np.cos(t))
        return p * p * np.log1p(np.sin(t / 2.0)) * np.sin(t)

    val = integrate(f, 1.0 / math.sqrt(L), math.pi / 2.0, tol=1e-9)
    return L * val / math.log(L)


def _headline_rows():
    with open(_FIXTURES) as fh:
        return json.load(fh)["headline_residuals"]["rows"]


def _check_headline_residual(fast):
    trials = 50 if fast else 200
    kap = cn.kappa()
    spreads = []
    for row in _headline_rows():
        r, s, n = row["r"], row["s"], row["n"]
        if s != cn.optimal_s("zeros", r):
            return _result("headline-residual", False, f"r={r}: fixture s={s} is not optimal_s")
        cfg = ExperimentConfig(spec=EnsembleSpec("zeros", r, s), trials=trials, master_seed=20260825)
        rep = run_experiment(cfg)
        resid = (rep.mean - kap * n * n + n * math.log(n) / 3.0) / n
        if not math.isfinite(resid):
            return _result("headline-residual", False, f"r={r}: residual not finite")
        lo = row["predicted_residual"] - row["half_width"]
        hi = row["predicted_residual"] + row["half_width"]
        if not lo <= resid <= hi:
            return _result("headline-residual", False, f"r={r}: residual {resid:.4f} outside [{lo:.4f}, {hi:.4f}]")
        spreads.append(rep.std_error * math.sqrt(rep.trials - rep.excluded) / n)
    decreasing = all(b < a for a, b in zip(spreads, spreads[1:]))
    return _result(
        "headline-residual",
        decreasing,
        f"residuals in brackets, spreads {', '.join(f'{sp:.4f}' for sp in spreads)} decreasing={decreasing}",
    )


def _check_determinism(fast):
    # n = 64 gives 43-trial chunks, so 2,500 trials make 59 and the
    # second run of each config maps them over a worker pool
    workers = (1, 2) if fast else (1, 8)
    ok = True
    for resample in (True, False):
        cfg = ExperimentConfig(EnsembleSpec("uniform", 32, 2), trials=2500, master_seed=77, resample_points=resample)
        outs = [run_experiment(cfg, workers=w).to_json() for w in workers]
        ok = ok and outs[0] == outs[1]
    return _result("determinism", ok, f"workers {workers[0]} vs {workers[1]}: {'identical' if ok else 'DIFFER'}")


_CHECKS = [
    _check_kappa,
    _check_constants,
    _check_fiber_identity,
    _check_circle_average,
    _check_fixed_point_mean,
    _check_pair_kernel_mean,
    _check_spherical,
    _check_zeros,
    _check_equal_area,
    _check_kernel_positivity,
    _check_bessel_moments,
    _check_headline_residual,
    _check_determinism,
]


def run_suite(suite="fast"):
    """Run all checks; returns (all_passed, list of CheckResult)."""
    if suite not in ("fast", "full"):
        raise ValueError(f"unknown suite {suite!r}")
    fast = suite == "fast"
    results = [check(fast) for check in _CHECKS]
    return all(res.passed for res in results), results
