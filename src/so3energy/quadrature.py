"""Adaptive Gauss-Legendre quadrature with deterministic panel bisection.

The engine is deliberately small: fixed-order Gauss-Legendre estimates on a
panel, error estimated by comparing two orders, bisection until each panel
meets its share of the tolerance. The bisection tree is walked breadth
first, so one integrand call per order evaluates the nodes of a whole
generation of panels (at most _BLOCK of them). Everything is double
precision, each panel's arithmetic does not depend on the others and the
accepted estimates are summed exactly, so results are bit-reproducible.
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
_BLOCK = 256  # panels per integrand call


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


def _panel_estimates(f, panels):
    """(16-point, 32-point) estimate of each (a, b) panel; one call of f per order."""
    ends = np.array(panels)
    mid, half = (ends[:, 0] + ends[:, 1]) / 2.0, (ends[:, 1] - ends[:, 0]) / 2.0
    est = []
    for x, w in ((_X_LO, _W_LO), (_X_HI, _W_HI)):
        y = _eval(f, (mid[:, None] + half[:, None] * x).ravel()).reshape(len(panels), -1)
        est.append([h * float(np.dot(w, row)) for h, row in zip(half.tolist(), y)])
    return zip(*est)


def integrate(f, a, b, tol=1e-10):
    """Integrate f over [a, b] to roughly `tol` absolute accuracy.

    f takes a 1-D numpy array of abscissae, the nodes of many panels at
    once, and returns an array of the same shape; ValueError otherwise. Its
    value at a node must not depend on the other nodes. Integrable endpoint
    singularities (log, fractional powers) are handled by bisection: a
    panel's error budget scales with sqrt(width) once panels get small, so
    refinement chains terminate.

    Raises ValueError for a bound that is not finite (integrate_improper
    covers (0, inf)) and QuadratureError if 20000 panels do not suffice.
    """
    a, b = float(a), float(b)
    for name, bound in (("a", a), ("b", b)):
        if not math.isfinite(bound):
            raise ValueError(f"bound {name} must be finite, got {bound}; use integrate_improper for (0, inf)")
    if not (tol >= _MIN_TOL):
        raise ValueError(f"tol must be >= {_MIN_TOL}, got {tol}")
    if a == b:
        return 0.0
    if b < a:
        return -integrate(f, b, a, tol=tol)

    width_total = b - a
    queue = [(a, b)]
    accepted = []
    used = 0
    while queue:
        take = min(len(queue), _BLOCK, _MAX_PANELS - used)
        if take == 0:
            raise QuadratureError(
                f"no convergence after {_MAX_PANELS} panels on [{a}, {b}]",
                estimate=math.fsum(accepted),
                panels=used + 1,
            )
        block, queue = queue[:take], queue[take:]
        used += take
        for (pa, pb), (lo, hi) in zip(block, _panel_estimates(f, block)):
            err = abs(hi - lo)
            frac = (pb - pa) / width_total
            budget = tol * max(frac, math.sqrt(frac) / 8.0)
            if err <= budget or (pb - pa) < 1e-15 * width_total:
                accepted.append(hi)
            else:
                mid = (pa + pb) / 2.0
                queue += [(pa, mid), (mid, pb)]
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
    g_near, g_far = np.abs(g(np.array([1.0 - 1e-7, 1.0 - 1e-9]))).tolist()
    if g_far > 10.0 * g_near + tol:
        raise QuadratureError(
            f"transformed integrand grows near infinity (|g|: {g_near:.3e} -> {g_far:.3e})"
        )
    return integrate(g, 0.0, 1.0, tol=tol)
