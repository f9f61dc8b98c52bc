"""Named constants, optimal fiber counts, and per-ensemble expected kernel
energies. Every closed form has an independent quadrature or sampling route
somewhere in the test suite; nothing here is calibrated to measured output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .energy import fibered_energy, predicted_energy, sphere_kernel
from .ensembles import max_region_diameter
from .quadrature import integrate, integrate_improper
from .specfun import jacobi_p, gegenbauer

_EULER = 0.57721566490153286


def kappa():
    """Mean logarithmic pair energy constant, -(1 + log 2)/2."""
    return -(1.0 + math.log(2.0)) / 2.0


def kappa_quadrature():
    """Same constant as -(2/pi) int_0^pi log(sqrt8 sin(t/2)) sin^2(t/2) dt."""

    def f(t):
        return np.log(np.sqrt(8.0) * np.sin(t / 2.0)) * np.sin(t / 2.0) ** 2

    return -(2.0 / math.pi) * integrate(f, 0.0, math.pi, tol=1e-11)


@lru_cache(maxsize=None)
def constant_J():
    """Limit constant of the rescaled zeros-ensemble kernel energies.

    Improper quadrature of sqrt(t) N(t)/(e^t - 1)^3 with
    N = e^{2t}(t^2-4t+2) + e^t(t^2+4t-4) + 2, written in e^{-t} powers so no
    term overflows; a short series takes over below t = 1e-4 where N cancels
    to -t^3 (1 + t + t^2/2 + ...).
    """

    def f(t):
        t = np.asarray(t, dtype=float)
        small = t < 1e-4
        ts = np.where(small, t, 1.0)
        series = -(ts**3) * (1.0 + ts + ts * ts / 2.0) / np.expm1(ts) ** 3
        w = np.exp(-t)
        ratio = (w * (t * t - 4.0 * t + 2.0) + w * w * (t * t + 4.0 * t - 4.0) + 2.0 * w**3) / (
            -np.expm1(-t)
        ) ** 3
        return np.sqrt(t) * np.where(small, series, ratio)

    return integrate_improper(f, tol=1e-9)


def c_zeros():
    """-(1/3) log(4/(9|J|)) - (2/3) sqrt(|J|)."""
    aj = abs(constant_J())
    return -math.log(4.0 / (9.0 * aj)) / 3.0 - 2.0 * math.sqrt(aj) / 3.0


def c_sph():
    return -(5.0 / 6.0) * math.log(2.0) + (2.0 / 3.0) * math.log(3.0) + math.log(math.pi) / 3.0 + 2.0 / 3.0


def c_harmonic_so3():
    return 7.0 / 3.0 - _EULER + math.log(2.0) / 6.0 - math.log(3.0) / 3.0


# --- fiber-count rules --------------------------------------------------------


def optimal_s(kind, r):
    """Energy-minimizing fiber count for a given spherical process, >= 1."""
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if kind == "uniform":
        s = 2
    elif kind == "zeros":
        s = math.floor(math.sqrt(4.0 * r / (9.0 * abs(constant_J()))))
    elif kind == "spherical":
        s = math.floor(math.sqrt(16.0 * r / (9.0 * math.pi)))
    elif kind == "eap":
        s = math.floor(math.sqrt(r))
    elif kind == "harmonic":
        s = math.floor(math.sqrt(r) / math.log(r)) if r >= 2 else 1
    else:
        raise ValueError(f"unknown ensemble kind {kind!r}")
    return max(1, s)


def realizable_n(kind, r_max):
    """All (r, s, n) with the optimal fiber count for r = 2 .. r_max; for the
    harmonic process only the r = (L+1)^2 it is defined at."""
    if r_max < 2:
        raise ValueError(f"need r_max >= 2, got {r_max}")
    out = []
    for r in range(2, r_max + 1):
        if kind == "harmonic" and math.isqrt(r) ** 2 != r:
            continue
        s = optimal_s(kind, r)
        out.append((r, s, r * s))
    return out


# --- expected kernel energies ---------------------------------------------------


def _gamma_r_logs(r, u):
    """Stable intermediates for the radial pair density of the zeros
    ensemble: l1p = log(1+u^2), log w1 with w1 = (1+u^2)^r - 1, and the two
    exponents eta whose expm1 squares appear in the density."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        l1p = np.log1p(u * u)
        ell = r * l1p
        logw1 = np.where(ell > 700.0, ell, np.log(np.expm1(np.minimum(ell, 700.0))))
        logu = np.log(np.where(u > 0.0, u, 1.0))
        # expm1(ell) ~ ell for tiny ell, so log w1 ~ log r + 2 log u
        logw1 = np.where(ell < 1e-8, math.log(r) + 2.0 * logu, logw1)
        eta1 = math.log(r) + 2.0 * logu - logw1
        eta2 = eta1 + (r - 1.0) * l1p
    return l1p, logw1, eta1, eta2


def _log_abs_expm1(eta):
    """log |expm1(eta)|, stable across eta of any sign and size."""
    eta = np.asarray(eta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pos = np.log(np.expm1(np.maximum(eta, 1e-8)))
        mid = np.log(np.abs(np.where(eta != 0.0, eta, 1.0)))
        neg = np.log1p(-np.exp(np.minimum(eta, -1e-8)))
    out = np.where(eta > 1e-8, pos, np.where(eta < -1e-8, neg, mid))
    return np.where(eta == 0.0, -np.inf, out)


def gamma_r(r, u):
    """The radial pair density of the zeros ensemble, the sum of its two
    parts, evaluated stably for u from 1e-300 to 1e300 and r up to ~1e6."""
    u = np.asarray(u, dtype=float)
    l1p, logw1, eta1, eta2 = _gamma_r_logs(r, u)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g1 = np.expm1(eta1) ** 2 * np.exp((r - 2.0) * l1p - logw1)
        g2 = np.expm1(eta2) ** 2 * np.exp(-logw1)
    return np.where(u > 0.0, g1, 0.0) + np.where(u > 0.0, g2, 0.0)


@lru_cache(maxsize=None)
def _zeros_kernel_integral(r):
    def f(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(invalid="ignore"):
            core = u * np.log1p(u / np.sqrt(1.0 + u * u))
        return np.where(u > 0.0, core * gamma_r(r, u), 0.0)

    return r * r * 2.0 * integrate_improper(f)


def expected_kernel_energy(kind, r):
    """Expected sphere_kernel_energy (sum over ordered pairs of distinct
    indices) for each tractable process.

    uniform and spherical are closed forms; zeros and harmonic go through
    quadrature. harmonic requires r = (L+1)^2; eap admits only the lower
    bound eap_kernel_lower_bound.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if kind == "uniform":
        return r * (r - 1) / 2.0
    if kind == "spherical":
        return r * r / 2.0 - math.sqrt(math.pi) / 2.0 * r * math.exp(math.lgamma(r) - math.lgamma(r + 0.5)) + 0.5
    if kind == "zeros":
        # one point has no pairs; the quadrature would round the vanishing density to -5e-30
        return _zeros_kernel_integral(int(r)) if r >= 2 else 0.0
    if kind == "harmonic":
        side = math.isqrt(int(r))
        if side * side != r:
            raise ValueError(f"harmonic process needs r = (L+1)^2, got {r}")
        return _harmonic_kernel_energy(side - 1)
    if kind == "eap":
        raise ValueError("no closed form for eap; use eap_kernel_lower_bound")
    raise ValueError(f"unknown ensemble kind {kind!r}")


@lru_cache(maxsize=None)
def _harmonic_kernel_energy(L):
    r = (L + 1) ** 2

    def f(t):
        p = jacobi_p(L, 1.0, 0.0, t)
        return (1.0 - p * p / (L + 1) ** 2) * sphere_kernel(t)

    return r * r / 2.0 * integrate(f, -1.0, 1.0)


def eap_kernel_lower_bound(r):
    """r^2/2 - r log(1 + D/2) with D the largest region diameter; 0 at r = 1.

    An equal-area mixture of the per-region uniform laws is the uniform law,
    so the full double sum has mean r^2/2; each diagonal term is at most
    log(1 + D/2). One point has no pairs, so its kernel energy is exactly 0.
    """
    return 0.0 if r == 1 else r * r / 2.0 - r * math.log1p(max_region_diameter(r) / 2.0)


def zeros_J_sequence(r):
    """(I_r - r^2/2)/sqrt(r), the rescaled deviation that converges to J."""
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    return (expected_kernel_energy("zeros", r) - r * r / 2.0) / math.sqrt(r)


def expected_configuration_energy(kind, r, s):
    """Expected energy of r fibers of s rotations over the ensemble's points:
    fibered_energy of expected_kernel_energy."""
    return fibered_energy(r, s, expected_kernel_energy(kind, r))


def eap_energy_upper_bound(r, s):
    """Upper bound for the expected configuration energy of the eap process."""
    return fibered_energy(r, s, eap_kernel_lower_bound(r))


def _energy_prediction(kind, r, s=None, points=None):
    """(s, value, prediction kind) that `predict` prints and `mc` tests against.

    s=None takes optimal_s. Over fixed base points the value is their phase
    average, predicted_energy; otherwise eap has only its upper bound and
    every other ensemble its expected configuration energy.
    """
    s = optimal_s(kind, r) if s is None else s
    if points is not None:
        return s, predicted_energy(points, s), "mean"
    if kind == "eap":
        return s, eap_energy_upper_bound(r, s), "upper_bound"
    return s, expected_configuration_energy(kind, r, s), "mean"


# --- density bound report -------------------------------------------------------


@dataclass(frozen=True)
class GammaBoundsReport:
    r: int
    failures: int
    max_ratio_inner: float
    max_ratio_outer: float

    @property
    def passed(self):
        return self.failures == 0


def gamma_r_bounds_check(r):
    """Check the two-regime envelope of the radial pair density on 200
    log-spaced u from 1e-4 to 1e4.

    Inside u < 1/sqrt(r): gamma_1 <= 11 r u^2, gamma_2 <= 2 r u^2, total
    <= 13 r u^2. Outside: gamma_1 <= 2/(1+u^2)^2, gamma_2 <= 8 r^2 u^4 /
    (1+u^2)^{r+2}, total <= 34/(1+u^2)^2. Compared in log scale so that
    envelopes far below the double-precision underflow floor still count.
    """
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    grid = np.geomspace(1e-4, 1e4, 200)
    l1p, logw1, eta1, eta2 = _gamma_r_logs(r, grid)
    log_g1 = 2.0 * _log_abs_expm1(eta1) + (r - 2.0) * l1p - logw1
    log_g2 = 2.0 * _log_abs_expm1(eta2) - logw1
    log_tot = np.logaddexp(log_g1, log_g2)
    inner = grid < 1.0 / math.sqrt(r)
    logu = np.log(grid)
    log_ru2 = math.log(r) + 2.0 * logu
    cap1 = np.where(inner, math.log(11.0) + log_ru2, math.log(2.0) - 2.0 * l1p)
    cap2 = np.where(
        inner,
        math.log(2.0) + log_ru2,
        math.log(8.0) + 2.0 * math.log(r) + 4.0 * logu - (r + 2.0) * l1p,
    )
    cap_tot = np.where(inner, math.log(13.0) + log_ru2, math.log(34.0) - 2.0 * l1p)
    slack = 1e-9  # roundoff headroom in log scale
    ok = (log_g1 <= cap1 + slack) & (log_g2 <= cap2 + slack) & (log_tot <= cap_tot + slack)
    with np.errstate(under="ignore"):
        ratio = np.exp(log_tot - cap_tot)
    return GammaBoundsReport(
        r=int(r),
        failures=int(np.count_nonzero(~ok)),
        max_ratio_inner=float(ratio[inner].max()) if np.any(inner) else 0.0,
        max_ratio_outer=float(ratio[~inner].max()) if np.any(~inner) else 0.0,
    )


# --- rotation-group harmonic integral --------------------------------------------


@lru_cache(maxsize=None)
def so3_harmonic_integral(L):
    """(4/pi) int_0^{pi/2} log(sqrt8 sin t) C_{2L}^{(2)}(cos t)^2 sin^2 t dt."""
    if L < 0:
        raise ValueError(f"need L >= 0, got {L}")

    def f(t):
        c = gegenbauer(2 * L, 2.0, np.cos(t))
        return np.log(np.sqrt(8.0) * np.sin(t)) * c * c * np.sin(t) ** 2

    return 4.0 / math.pi * integrate(f, 0.0, math.pi / 2.0, tol=1e-9)


# --- CLI surface -----------------------------------------------------------------


@dataclass(frozen=True)
class ConstantValue:
    name: str
    value: float
    method: str  # "closed-form" | "quadrature"
    tolerance: float


def all_constants():
    """The named constants as (name, value, method, tolerance) records."""
    return [
        ConstantValue("kappa", kappa(), "closed-form", 0.0),
        ConstantValue("kappa_quadrature", kappa_quadrature(), "quadrature", 1e-10),
        ConstantValue("J", constant_J(), "quadrature", 1e-8),
        ConstantValue("C_zeros", c_zeros(), "closed-form", 1e-6),
        ConstantValue("C_sph", c_sph(), "closed-form", 1e-6),
        ConstantValue("C_harmonic_so3", c_harmonic_so3(), "closed-form", 1e-4),
    ]
