"""Closed-form constants, expected kernel energies, and fiber-count rules.

Every printed constant is pinned to the frozen fixture and, where a second
route exists (quadrature twin, Monte Carlo, independent series), the routes
are required to agree to tight tolerances.
"""

import math

import numpy as np
import pytest

from so3energy.constants import (
    ConstantValue,
    all_constants,
    c_harmonic_so3,
    c_sph,
    c_zeros,
    constant_J,
    eap_energy_upper_bound,
    eap_kernel_lower_bound,
    expected_configuration_energy,
    expected_kernel_energy,
    gamma_r,
    gamma_r_bounds_check,
    kappa,
    kappa_quadrature,
    optimal_s,
    realizable_n,
    so3_harmonic_integral,
    zeros_J_sequence,
)
from so3energy.energy import predicted_energy, sphere_kernel
from so3energy.ensembles import sample_points

_LOG2 = math.log(2.0)


# --- kappa ----------------------------------------------------------------------


def test_kappa_closed_form(oracle):
    assert kappa() == pytest.approx(-(1.0 + _LOG2) / 2.0, abs=0.0)
    assert kappa() == pytest.approx(oracle["constants"]["kappa"], abs=1e-15)


def test_kappa_quadrature_twin(oracle):
    assert kappa_quadrature() == pytest.approx(kappa(), abs=1e-10)
    assert kappa_quadrature() == pytest.approx(oracle["constants"]["kappa_quadrature_twin"], abs=1e-10)


def test_kappa_monte_carlo():
    # E log ||A - B||_F over independent invariant rotations equals kappa;
    # moderate sample here, the acceptance test runs the large one
    from so3energy.geometry import haar_rotations

    rng = np.random.default_rng(101)
    m = 200000
    a = haar_rotations(rng, m)
    b = haar_rotations(rng, m)
    tr = np.einsum("kij,kij->k", a, b)
    vals = 0.5 * np.log(6.0 - 2.0 * tr)
    se = vals.std(ddof=1) / math.sqrt(m)
    # kappa is minus the expected log distance (energies carry the sign)
    assert abs(vals.mean() + kappa()) < 4.0 * se


# --- printed constants -------------------------------------------------------------


def test_constant_j_fixture(oracle):
    assert constant_J() == pytest.approx(oracle["constants"]["J"], abs=1e-8)


def test_c_sph_fixture(oracle):
    assert c_sph() == pytest.approx(oracle["constants"]["c_sph"], abs=1e-12)


def test_c_harmonic_fixture(oracle):
    assert c_harmonic_so3() == pytest.approx(oracle["constants"]["c_harmonic_so3"], abs=1e-12)


def test_c_zeros_consistency(oracle):
    # the zeros constant is a function of J alone; against the fixture J it
    # must reproduce the recorded value of the same formula
    aj = abs(oracle["constants"]["J"])
    ref = -math.log(4.0 / (9.0 * aj)) / 3.0 - 2.0 * math.sqrt(aj) / 3.0
    assert c_zeros() == pytest.approx(ref, abs=1e-8)


def test_all_constants_structure():
    consts = all_constants()
    names = [c.name for c in consts]
    assert len(names) == len(set(names))
    assert {"kappa", "J"}.issubset(set(names))
    for c in consts:
        assert isinstance(c, ConstantValue)
        assert math.isfinite(c.value)
        # closed forms carry tolerance 0, numerical routes are positive
        assert c.tolerance >= 0.0
        assert c.method in ("closed-form", "quadrature")


# --- expected kernel energies ----------------------------------------------------


def test_uniform_kernel_energy_exact():
    # E g(p.q) = 1/2 for independent uniform points; r(r-1) ordered pairs
    for r in [2, 3, 10]:
        assert expected_kernel_energy("uniform", r) == pytest.approx(r * (r - 1) * 0.5, rel=1e-14)


def test_uniform_kernel_mean_monte_carlo():
    rng = np.random.default_rng(102)
    m = 200000
    a = rng.standard_normal((m, 3))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = rng.standard_normal((m, 3))
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    vals = sphere_kernel(np.einsum("ij,ij->i", a, b))
    se = vals.std(ddof=1) / math.sqrt(m)
    assert abs(vals.mean() - 0.5) < 4.0 * se


def test_spherical_kernel_energy_fixture(oracle):
    assert expected_kernel_energy("spherical", 2) == pytest.approx(7.0 / 6.0, abs=1e-12)
    assert expected_kernel_energy("spherical", 2) == pytest.approx(oracle["spherical_eke"]["r2"], abs=1e-12)
    assert expected_kernel_energy("spherical", 8) == pytest.approx(oracle["spherical_eke"]["r8"], abs=1e-10)


def test_spherical_kernel_energy_closed_form_structure():
    # r^2/2 - (sqrt(pi)/2) r Gamma(r) / Gamma(r + 1/2) + 1/2
    for r in [2, 5, 12]:
        ref = (
            r * r / 2.0
            - 0.5 * math.sqrt(math.pi) * r * math.exp(math.lgamma(r) - math.lgamma(r + 0.5))
            + 0.5
        )
        assert expected_kernel_energy("spherical", r) == pytest.approx(ref, rel=1e-13)


def test_zeros_kernel_energy_fixture(oracle):
    table = oracle["zeros"]["I_r"]
    for key in ["2", "24", "1000"]:
        assert expected_kernel_energy("zeros", int(key)) == pytest.approx(table[key], rel=1e-10)
    assert expected_kernel_energy("zeros", 1000) / 1000**2 == pytest.approx(
        oracle["zeros"]["I_1000_over_r2"], rel=1e-10
    )


def test_zeros_kernel_energy_monte_carlo():
    # direct sampling of the zeros ensemble against the quadrature value
    from so3energy.energy import sphere_kernel_energy

    rng = np.random.default_rng(103)
    r = 6
    m = 1500
    vals = np.array([sphere_kernel_energy(sample_points("zeros", r, rng)) for _ in range(m)])
    se = vals.std(ddof=1) / math.sqrt(m)
    assert abs(vals.mean() - expected_kernel_energy("zeros", r)) < 4.0 * se


def test_zeros_J_sequence_trend(oracle):
    # the rescaled deviation decreases toward J and brackets the fixture
    table = oracle["zeros"]["J_r"]
    for key, val in table.items():
        # quadrature tolerances differ slightly between routes at large r
        assert zeros_J_sequence(int(key)) == pytest.approx(val, abs=1e-6)
    seq = [zeros_J_sequence(2**k) for k in range(1, 9)]
    assert all(b < a for a, b in zip(seq, seq[1:]))
    assert abs(seq[-1] - constant_J()) < 0.005


def test_harmonic_kernel_energy_fixture(oracle):
    table = oracle["harmonic_eke"]
    for key, val in table.items():
        L = int(key.lstrip("L"))
        r = (L + 1) ** 2
        assert expected_kernel_energy("harmonic", r) == pytest.approx(val, rel=1e-10)


def test_harmonic_kernel_energy_requires_square():
    with pytest.raises(ValueError):
        expected_kernel_energy("harmonic", 5)


def test_one_point_has_zero_kernel_energy():
    # zeros went through the quadrature of a density that vanishes at r = 1
    for kind in ("uniform", "zeros", "spherical", "harmonic"):
        assert expected_kernel_energy(kind, 1) == 0.0
    with pytest.raises(ValueError):
        expected_kernel_energy("eap", 1)
    # its bound used to take the whole sphere's diameter: 1/2 - log 2
    assert eap_kernel_lower_bound(1) == 0.0


def test_expected_kernel_energy_rejects_unknown():
    with pytest.raises(ValueError):
        expected_kernel_energy("exotic", 4)
    with pytest.raises(ValueError):
        expected_kernel_energy("eap", 4)


# --- gamma density and bounds ------------------------------------------------------


def test_gamma_r_normalization():
    # the radial pair density integrates against 2 u du to (r - 1)/r:
    # each of the r zeros sees the other r - 1 in the pair average
    from so3energy.quadrature import integrate_improper

    for r in [2, 5, 40, 300]:
        total = integrate_improper(lambda u: 2.0 * u * gamma_r(r, u), tol=1e-9)
        assert total == pytest.approx((r - 1.0) / r, abs=1e-7)


def test_gamma_r_limits():
    # for large r the density concentrates: mass near u ~ 1/sqrt(r) grows
    assert gamma_r(2, 1e6) == pytest.approx(0.0, abs=1e-20)
    assert gamma_r(2, 0.0) == 0.0


def test_gamma_r_bounds_check_passes():
    for r in [2, 17, 100, 1000]:
        report = gamma_r_bounds_check(r)
        assert report.passed, report
        assert report.failures == 0
        assert report.max_ratio_inner <= 1.0 + 1e-9
        assert report.max_ratio_outer <= 1.0 + 1e-9


def test_eap_kernel_lower_bound_fixture(oracle):
    assert eap_kernel_lower_bound(100) == pytest.approx(
        oracle["equal_area"]["r100_kernel_lower_bound"], rel=1e-12
    )
    # bound structure: r^2/2 - r log(1 + D^2/2)... always below r^2/2
    for r in [4, 100, 900]:
        assert eap_kernel_lower_bound(r) < r * r / 2.0


def test_eap_energy_upper_bound_fixture(oracle):
    assert eap_energy_upper_bound(100, 10) == pytest.approx(
        oracle["equal_area"]["r100_s10_energy_upper_bound"], rel=1e-12
    )


# --- configuration-level prediction ------------------------------------------------


def test_expected_configuration_energy_consistent_with_pointwise():
    # averaging the fixed-point prediction over sampled point sets converges
    # to the ensemble-level expectation (uniform case, small MC)
    rng = np.random.default_rng(104)
    r, s = 4, 3
    m = 4000
    vals = np.empty(m)
    for k in range(m):
        pts = sample_points("uniform", r, rng)
        vals[k] = predicted_energy(pts, s)
    se = vals.std(ddof=1) / math.sqrt(m)
    assert abs(vals.mean() - expected_configuration_energy("uniform", r, s)) < 4.0 * se


def test_optimal_s_rules():
    assert optimal_s("uniform", 7) == 2
    assert optimal_s("eap", 16) == 4
    assert optimal_s("eap", 17) == 4
    assert optimal_s("zeros", 2) == 1
    # harmonic rule: floor(sqrt(r)/log r), clamped to at least 1
    assert optimal_s("harmonic", 2) == 2
    assert optimal_s("harmonic", 4) == 1
    assert optimal_s("spherical", 2) >= 1
    with pytest.raises(ValueError):
        optimal_s("uniform", 0)
    with pytest.raises(ValueError):
        optimal_s("exotic", 5)


def test_realizable_n_zeros_fixture(oracle):
    table = oracle["zeros"]["table_rmax9"]
    rows = realizable_n("zeros", 9)
    assert [row[0] for row in rows] == table["r"]
    assert [row[1] for row in rows] == table["s"]
    assert [row[2] for row in rows] == table["n"]


# --- rotation group harmonic integral ------------------------------------------------


def test_so3_harmonic_integral_fixture(oracle):
    table = oracle["rotation_harmonic"]["I_L"]
    for key in ["0", "1", "16", "32"]:
        assert so3_harmonic_integral(int(key)) == pytest.approx(table[key], rel=1e-9)


def test_so3_harmonic_integral_degree_zero_is_minus_kappa():
    # L = 0: the integral reduces to -2 kappa ... check against kappa
    assert so3_harmonic_integral(0) == pytest.approx(-kappa(), rel=1e-9)
