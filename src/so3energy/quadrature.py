"""Adaptive Gauss-Legendre quadrature with deterministic panel bisection.

The engine is deliberately small: fixed-order Gauss-Legendre estimates on a
panel, error estimated by comparing two orders, bisection until each panel
meets its share of the tolerance. Everything is double precision and the
panel processing order is fixed, so results are bit-reproducible.
"""

from __future__ import annotations

import math

import numpy as np

_ORDER_LO = 16
_ORDER_HI = 32
_X_LO, _W_LO = np.polynomial.legendre.leggauss(_ORDER_LO)
_X_HI, _W_HI = np.polynomial.legendre.leggauss(_ORDER_HI)

_MIN_TOL = 1e-12
_MAX_PANELS = 20000


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted before convergence."""

    def __init__(self, msg, estimate=None, panels=None):
        super().__init__(msg)
        self.estimate = estimate
        self.panels = panels


def _eval(f, x):
    """f at an array of nodes; f must return an array of their shape."""
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise ValueError(f"integrand gave shape {y.shape} for nodes of shape {x.shape}")
    return y


def _panel_estimates(f, a, b):
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    lo = half * float(np.dot(_W_LO, _eval(f, mid + half * _X_LO)))
    hi = half * float(np.dot(_W_HI, _eval(f, mid + half * _X_HI)))
    return lo, hi


def integrate(f, a, b, tol=1e-10):
    """Integrate f over [a, b] to roughly `tol` absolute accuracy.

    f takes a numpy array of abscissae and returns an array of the same
    shape; ValueError otherwise. Integrable endpoint singularities (log, fractional
    powers) are handled by bisection: a panel's error budget scales with
    sqrt(width) once panels get small, so refinement chains terminate.

    Raises QuadratureError if 20000 panels do not suffice.
    """
    a, b = float(a), float(b)
    if not (tol >= _MIN_TOL):
        raise ValueError(f"tol must be >= {_MIN_TOL}, got {tol}")
    if a == b:
        return 0.0
    if b < a:
        return -integrate(f, b, a, tol=tol)

    width_total = b - a
    stack = [(a, b)]
    accepted = []
    used = 0
    while stack:
        pa, pb = stack.pop()
        used += 1
        if used > _MAX_PANELS:
            raise QuadratureError(
                f"no convergence after {_MAX_PANELS} panels on [{a}, {b}]",
                estimate=math.fsum(accepted),
                panels=used,
            )
        lo, hi = _panel_estimates(f, pa, pb)
        err = abs(hi - lo)
        frac = (pb - pa) / width_total
        budget = tol * max(frac, math.sqrt(frac) / 8.0)
        if err <= budget or (pb - pa) < 1e-15 * width_total:
            accepted.append(hi)
        else:
            mid = (pa + pb) / 2.0
            stack.append((mid, pb))
            stack.append((pa, mid))
    return math.fsum(accepted)


def integrate_improper(f, tol=1e-10):
    """Integrate f over (0, inf) via the substitution t = u / (1 - u).

    The transformed integrand must vanish as u -> 1 (i.e. f must decay
    faster than 1/t at infinity); a tail probe raises QuadratureError when
    it visibly does not.
    """
    if not (tol >= _MIN_TOL):
        raise ValueError(f"tol must be >= {_MIN_TOL}, got {tol}")

    def g(u):
        u = np.asarray(u, dtype=float)
        onemu = 1.0 - u
        t = u / onemu
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(f(t), dtype=float) / (onemu * onemu)
        return np.where(np.isfinite(vals), vals, 0.0)

    # tail probe: a convergent transformed integrand decays toward u = 1
    g_near = abs(float(g(np.array([1.0 - 1e-7]))[0]))
    g_far = abs(float(g(np.array([1.0 - 1e-9]))[0]))
    if g_far > 10.0 * g_near + tol:
        raise QuadratureError(
            f"transformed integrand grows near infinity (|g|: {g_near:.3e} -> {g_far:.3e})"
        )
    return integrate(g, 0.0, 1.0, tol=tol)
