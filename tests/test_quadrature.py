import math

import numpy as np
import pytest

from so3energy import constants, quadrature, specfun
from so3energy.quadrature import QuadratureError, integrate, integrate_improper


def _depth_first(f, a, b, tol):
    """Reference twin: the engine before its breadth-first walk, one panel
    per integrand call in depth-first order, with the same per-panel
    arithmetic."""
    if b < a:
        return -_depth_first(f, b, a, tol)
    q = quadrature
    width_total = b - a
    stack = [(a, b)]
    accepted = []
    used = 0
    while stack:
        pa, pb = stack.pop()
        used += 1
        assert used <= q._MAX_PANELS
        mid, half = (pa + pb) / 2.0, (pb - pa) / 2.0
        lo = half * float(np.dot(q._W_LO, q._eval(f, mid + half * q._X_LO)))
        hi = half * float(np.dot(q._W_HI, q._eval(f, mid + half * q._X_HI)))
        err = abs(hi - lo)
        frac = (pb - pa) / width_total
        budget = tol * max(frac, math.sqrt(frac) / 8.0)
        if err <= budget or (pb - pa) < 1e-15 * width_total:
            accepted.append(hi)
        else:
            stack.append((mid, pb))
            stack.append((pa, mid))
    return math.fsum(accepted)


def test_polynomial_and_smooth_integrands():
    assert abs(integrate(lambda x: x**7, -1.0, 2.0) - (2.0**8 - 1.0) / 8.0) < 1e-12
    assert abs(integrate(np.exp, 0.0, 1.0) - (math.e - 1.0)) < 1e-12
    assert abs(integrate(np.sin, 0.0, 20.0 * math.pi)) < 1e-10


def test_orientation_and_empty_interval():
    assert integrate(np.cos, 1.0, 1.0) == 0.0
    forward = integrate(np.exp, 0.0, 1.0)
    assert abs(integrate(np.exp, 1.0, 0.0) + forward) < 1e-14


def test_endpoint_log_singularity():
    assert abs(integrate(np.log, 0.0, 1.0) - (-1.0)) < 1e-10
    val = integrate(lambda x: np.log(x) ** 2, 0.0, 1.0)
    assert abs(val - 2.0) < 1e-9


def test_integrand_must_return_its_nodes_shape():
    # an integrand evaluates all nodes of a panel at once; a scalar-only
    # callable fails on the array, and an output of another shape is refused
    with pytest.raises(TypeError):
        integrate(lambda x: math.exp(x), 0.0, 1.0)
    with pytest.raises(ValueError, match=r"integrand gave shape \(\) for nodes of shape \(16,\)"):
        integrate(lambda x: 1.0, 0.0, 1.0)


def test_tolerance_floor_rejected():
    with pytest.raises(ValueError):
        integrate(np.exp, 0.0, 1.0, tol=1e-15)


def test_power_singularity_converges():
    # the bisection chain toward x=0 bottoms out at the width floor,
    # so even 1/sqrt(x) resolves to near machine accuracy
    v = integrate(lambda x: 1.0 / np.sqrt(np.abs(x)), 0.0, 1.0)
    assert abs(v - 2.0) < 1e-8


def test_panel_budget_exhaustion_reports_state(monkeypatch):
    # a panel cap too small for the integrand must raise, and the error
    # must carry the panel count and a finite partial estimate
    from so3energy import quadrature

    monkeypatch.setattr(quadrature, "_MAX_PANELS", 4)
    with pytest.raises(QuadratureError) as info:
        integrate(np.log, 0.0, 1.0)
    assert info.value.panels == 5
    assert math.isfinite(info.value.estimate)


def test_improper_integrals():
    assert abs(integrate_improper(lambda t: np.exp(-t)) - 1.0) < 1e-10
    assert abs(integrate_improper(lambda t: np.exp(-t * t)) - math.sqrt(math.pi) / 2.0) < 1e-10
    assert abs(integrate_improper(lambda t: 1.0 / (1.0 + t * t) ** 2) - math.pi / 4.0) < 1e-10


def test_improper_rejects_slow_decay():
    with pytest.raises(QuadratureError):
        integrate_improper(lambda t: 1.0 / (1.0 + t))


def test_non_finite_bound_refused_before_evaluation():
    def f(x):
        raise AssertionError("integrand evaluated")

    for a, b, name in ((0.0, math.inf, "b"), (-math.inf, 0.0, "a"), (0.0, math.nan, "b"), (math.nan, 1.0, "a")):
        with pytest.raises(ValueError, match=rf"bound {name} must be finite.*integrate_improper"):
            integrate(f, a, b)


@pytest.mark.parametrize(
    "compute",
    [
        constants.constant_J.__wrapped__,
        lambda: constants._zeros_kernel_integral.__wrapped__(24),
        lambda: constants._zeros_kernel_integral.__wrapped__(256),
        lambda: constants._zeros_kernel_integral.__wrapped__(1029),
        lambda: constants._harmonic_kernel_energy.__wrapped__(5),
        lambda: constants.so3_harmonic_integral.__wrapped__(4),
        lambda: specfun.kernel_gegenbauer_coeff(7),
        lambda: quadrature.integrate(np.log, 0.0, 1.0),
        lambda: quadrature.integrate(lambda x: 1.0 / np.sqrt(np.abs(x)), 0.0, 1.0),
    ],
    ids=["J", "zeros-24", "zeros-256", "zeros-1029", "harmonic-5", "so3-harmonic-4", "gegenbauer-7", "log", "inv-sqrt"],
)
def test_breadth_first_walk_equals_depth_first_twin(monkeypatch, compute):
    # every panel's arithmetic is unchanged and fsum is exact, so the walk
    # order leaves each value's bits, the sign of a zero included
    real = quadrature.integrate
    pairs = []

    def both(f, a, b, tol=1e-10):
        got = real(f, a, b, tol=tol)
        pairs.append((got.hex(), _depth_first(f, float(a), float(b), tol).hex()))
        return got

    for mod in (quadrature, constants, specfun):
        monkeypatch.setattr(mod, "integrate", both)
    compute()
    assert pairs and all(got == want for got, want in pairs), pairs


def test_cold_constant_J_calls_its_integrand_once_per_generation(monkeypatch):
    # depth first, a cold J took 1,674 panel evaluations and 2 tail probes
    calls = []
    real = constants.integrate_improper

    def counted(f, tol=1e-10):
        def g(t):
            calls.append(t.shape)
            return f(t)

        return real(g, tol=tol)

    monkeypatch.setattr(constants, "integrate_improper", counted)
    assert constants.constant_J.__wrapped__() == -0.5787893433541281
    assert len(calls) < 64
