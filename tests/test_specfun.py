"""Special functions: Bessel evaluation, orthogonal polynomials, kernel
coefficients and derivatives, and the oscillatory Bessel moments.

Where an independent implementation exists (scipy, mpmath) the tests compare
against it; the frozen fixture file pins the values everything else uses.
"""

import math

import numpy as np
import pytest

from so3energy.specfun import (
    bessel_j,
    bessel_log_moment,
    bessel_log_moment_closed_form,
    bessel_moment,
    bessel_moment_closed_form,
    digamma,
    gegenbauer,
    gegenbauer_via_jacobi,
    jacobi_p,
    kernel_derivative,
    kernel_gegenbauer_coeff,
)

scipy_special = pytest.importorskip("scipy.special")

_EULER = 0.57721566490153286


def test_digamma_against_scipy_and_fixture(oracle):
    assert digamma(1.5) == pytest.approx(oracle["constants"]["digamma_3_2"], abs=1e-14)
    for x in [0.25, 0.5, 1.0, 1.5, 2.0, 3.75, 11.0, 12.0, 57.3, 400.0]:
        assert digamma(x) == pytest.approx(float(scipy_special.digamma(x)), rel=1e-13, abs=1e-14)
    # classical special values
    assert digamma(1.0) == pytest.approx(-_EULER, abs=1e-15)
    assert digamma(0.5) == pytest.approx(-_EULER - 2.0 * math.log(2.0), abs=1e-14)


def test_bessel_j_against_scipy():
    xs = np.concatenate([[0.0, 1e-8, 1e-3], np.linspace(0.05, 4.9, 33), np.linspace(5.0, 120.0, 47)])
    ours = np.array([bessel_j(x) for x in xs])
    theirs = scipy_special.jv(1.5, xs)
    assert np.max(np.abs(ours - theirs)) < 2e-14


def test_bessel_j_half_integer_closed_form():
    # J_{3/2}(x) = sqrt(2/(pi x)) (sin x / x - cos x)
    for x in [0.3, 1.0, 2.7, 10.0, 55.5]:
        ref = math.sqrt(2.0 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
        assert bessel_j(x) == pytest.approx(ref, rel=1e-12, abs=1e-15)
    assert bessel_j(0.0) == 0.0


def test_bessel_j_rejects_unsupported_order():
    # the order is fixed at 3/2, so an order argument is refused
    with pytest.raises(TypeError):
        bessel_j(2.0, 1.0)
    with pytest.raises(ValueError):
        bessel_j(-1.0)


def test_jacobi_p_against_scipy():
    ts = np.linspace(-1.0, 1.0, 21)
    for L in [0, 1, 2, 3, 5, 10, 31]:
        for alpha, beta in [(1.0, 0.0), (0.0, 0.0), (2.5, 1.5)]:
            ours = jacobi_p(L, alpha, beta, ts)
            theirs = scipy_special.eval_jacobi(L, alpha, beta, ts)
            assert np.max(np.abs(ours - theirs)) < 1e-11 * max(1.0, np.max(np.abs(theirs)))


def test_gegenbauer_two_routes_agree_and_match_scipy():
    ts = np.linspace(-0.999, 0.999, 17)
    for n in [0, 1, 2, 3, 7, 20]:
        for lam in [0.5, 1.0, 1.5]:
            a = gegenbauer(n, lam, ts)
            b = gegenbauer_via_jacobi(n, lam, ts)
            c = scipy_special.eval_gegenbauer(n, lam, ts)
            scale = max(1.0, float(np.max(np.abs(c))))
            assert np.max(np.abs(a - b)) < 1e-10 * scale
            assert np.max(np.abs(a - c)) < 1e-10 * scale
    # through degree 60 on the closed interval, relative to each value
    xs = np.linspace(-1.0, 1.0, 41)
    for n in range(61):
        for lam in [0.5, 2.0]:
            a = gegenbauer(n, lam, xs)
            b = gegenbauer_via_jacobi(n, lam, xs)
            assert np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-12)) <= 1e-9, (n, lam)
    # the Gamma ratio needs lam > 0 (lgamma would accept -0.3 and -0.6)
    with pytest.raises(ValueError, match="lam > 0"):
        gegenbauer_via_jacobi(3, -0.3, xs)


def test_kernel_gegenbauer_coeff_fixture(oracle):
    table = oracle["kernel_fourier"]
    assert kernel_gegenbauer_coeff(0) == pytest.approx(table["fhat_0"], abs=1e-10)
    for n in [1, 2, 3, 10, 50]:
        got = kernel_gegenbauer_coeff(n)
        assert got == pytest.approx(table["fhat_1_to_50"][n - 1], abs=1e-10)
        assert got > 0.0


def test_kernel_gegenbauer_coeff_closed_form_small_n():
    # the n = 1 coefficient is exactly 1/4 and n = 2 is exactly 1/12
    assert kernel_gegenbauer_coeff(1) == pytest.approx(0.25, abs=1e-11)
    assert kernel_gegenbauer_coeff(2) == pytest.approx(1.0 / 12.0, abs=1e-11)
    # and in general f_hat(n) = 1 / (2 n (n + 1)) for n >= 1
    for n in range(3, 51):
        assert kernel_gegenbauer_coeff(n) == pytest.approx(1.0 / (2.0 * n * (n + 1)), abs=1e-11), n


def test_kernel_gegenbauer_coeff_integrand_is_smooth(monkeypatch):
    # in x = sqrt((1 - t)/2) the integrand has no endpoint singularity, so the
    # adaptive rule accepts after a few bisection generations (two integrand
    # calls each)
    from so3energy import specfun

    real = specfun.integrate
    calls = []

    def counting(f, a, b, tol=1e-10):
        def g(x):
            calls.append(len(x))
            return f(x)

        return real(g, a, b, tol=tol)

    monkeypatch.setattr(specfun, "integrate", counting)
    for n in range(51):
        calls.clear()
        kernel_gegenbauer_coeff(n)
        assert 0 < len(calls) <= 16, (n, len(calls))


def test_kernel_derivative_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40

    def ref(n, t):
        f = lambda x: -mp.log(mp.sqrt(2) + mp.sqrt(1 - x))
        return float(mp.diff(f, t, n))

    for t in [-0.9, -0.3, 0.0, 0.4, 0.85]:
        for n in range(1, 7):
            val = kernel_derivative(n, t)
            assert val == pytest.approx(ref(n, t), rel=1e-9)
            assert val > 0.0


def test_kernel_derivative_first_matches_difference_quotient(oracle):
    assert kernel_derivative(1, 0.0) == pytest.approx(oracle["kernel_fourier"]["f_prime_at_0"], rel=1e-12)
    h = 1e-6
    f = lambda t: -math.log(math.sqrt(2.0) + math.sqrt(1.0 - t))
    for t in [-0.8, -0.1, 0.5]:
        fd = (f(t + h) - f(t - h)) / (2.0 * h)
        assert kernel_derivative(1, t) == pytest.approx(fd, rel=1e-8)


def test_kernel_derivative_domain_and_order():
    with pytest.raises(ValueError):
        kernel_derivative(1, 1.0)
    with pytest.raises(ValueError):
        kernel_derivative(7, 0.0)
    with pytest.raises(ValueError):
        kernel_derivative(0, 0.0)


def test_bessel_moment_against_fixture_and_closed_form(oracle):
    for s_exp, key in [(0.0, "moment_s0_nu32"), (0.5, "moment_s05_nu32")]:
        expected = oracle["bessel"][key]
        quad = bessel_moment(s_exp)
        closed = bessel_moment_closed_form(s_exp, 1.5)
        assert quad == pytest.approx(expected, abs=1e-9)
        assert closed == pytest.approx(expected, abs=1e-12)
        assert quad == pytest.approx(closed, abs=1e-9)
    # the closed form holds for other orders too
    assert bessel_moment_closed_form(1.0, 1.0) == pytest.approx(oracle["bessel"]["moment_s1_nu1"], abs=1e-12)


def test_bessel_moment_both_routes_on_a_grid():
    # dual-route agreement across the admissible strip
    for s_exp in [-0.5, 0.0, 0.3, 0.9, 1.5]:
        assert bessel_moment(s_exp) == pytest.approx(bessel_moment_closed_form(s_exp, 1.5), abs=2e-9)


def test_bessel_log_moment_against_fixture(oracle):
    expected = oracle["bessel"]["log_moment_nu32"]
    assert bessel_log_moment() == pytest.approx(expected, abs=1e-9)
    assert bessel_log_moment_closed_form(1.5) == pytest.approx(expected, abs=1e-12)
    assert bessel_log_moment_closed_form(1.0) == pytest.approx(oracle["bessel"]["log_moment_nu1"], abs=1e-12)


def test_bessel_log_moment_nu32_explicit_constant():
    # (7 - 3*euler - 3*log 2)/9 for order three halves
    ref = (7.0 - 3.0 * _EULER - 3.0 * math.log(2.0)) / 9.0
    assert bessel_log_moment_closed_form(1.5) == pytest.approx(ref, abs=1e-15)
    assert bessel_log_moment() == pytest.approx(ref, abs=1e-9)


def test_bessel_moment_rejects_out_of_strip():
    with pytest.raises(ValueError):
        bessel_moment(-1.0)
    with pytest.raises(ValueError):
        bessel_moment(3.0)
    # the order is fixed at 3/2; a second positional argument is not a tolerance
    with pytest.raises(TypeError):
        bessel_moment(0.0, 1.5)
