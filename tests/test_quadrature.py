import math

import numpy as np
import pytest

from so3energy.quadrature import QuadratureError, integrate, integrate_improper


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
