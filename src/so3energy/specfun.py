"""Special functions: digamma, Bessel J of order 3/2, Jacobi and Gegenbauer
polynomials, the surrogate kernel's Fourier coefficients and derivatives,
and oscillatory Bessel moment integrals.

Only the orders actually used downstream are supported; accuracy contracts
are enforced by the test suite against independent references.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import integrate

_SQRT2 = math.sqrt(2.0)


# --- digamma ----------------------------------------------------------------


def digamma(x):
    """Logarithmic derivative of Gamma for x > 0.

    Upward recurrence to x >= 8, then the asymptotic series with Bernoulli
    coefficients through 1/x^12; worst-case relative error ~1e-14.
    """
    if x <= 0.0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < 12.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = inv2 * (
        1.0 / 12.0
        - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 * (1.0 / 132.0 - inv2 * 691.0 / 32760.0))))
    )
    return acc + math.log(x) - 0.5 / x - series


# --- Bessel J ---------------------------------------------------------------


def bessel_j(x):
    """J_{3/2}(x) for x >= 0, absolute error <= 1e-12 on [0, 100]."""
    if x < 0.0:
        raise ValueError(f"bessel_j requires x >= 0, got {x}")
    # sqrt(2/(pi x)) (sin x / x - cos x); series for the parenthesis when x
    # is tiny, where the two terms cancel to O(x^2)
    if x == 0.0:
        return 0.0
    if x < 1e-2:
        x2 = x * x
        core = x2 / 3.0 - x2 * x2 / 30.0 + x2 * x2 * x2 / 840.0
    else:
        core = math.sin(x) / x - math.cos(x)
    return math.sqrt(2.0 / (math.pi * x)) * core


# --- Jacobi / Gegenbauer ----------------------------------------------------


def jacobi_p(L, alpha, beta, x):
    """Jacobi polynomial P_L^(alpha, beta)(x) by the three-term recurrence.

    Works elementwise on arrays.
    """
    if L < 0 or L != int(L):
        raise ValueError(f"degree must be a nonnegative integer, got {L}")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if L == 0:
        return float(p_prev) if p_prev.ndim == 0 else p_prev
    p = (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0
    for n in range(2, int(L) + 1):
        c = 2.0 * n + alpha + beta
        a_n = 2.0 * n * (n + alpha + beta) * (c - 2.0)
        b_n = (c - 1.0) * (alpha * alpha - beta * beta)
        c_n = (c - 1.0) * c * (c - 2.0)
        d_n = 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * c
        p, p_prev = ((b_n + c_n * x) * p - d_n * p_prev) / a_n, p
    return float(p) if p.ndim == 0 else p


def gegenbauer(n, lam, x):
    """Gegenbauer polynomial C_n^(lam)(x) by its own recurrence, elementwise."""
    if n < 0 or n != int(n):
        raise ValueError(f"degree must be a nonnegative integer, got {n}")
    x = np.asarray(x, dtype=float)
    c_prev = np.ones_like(x)
    if n == 0:
        return float(c_prev) if c_prev.ndim == 0 else c_prev
    c = 2.0 * lam * x
    for k in range(2, int(n) + 1):
        c, c_prev = (2.0 * (k + lam - 1.0) * x * c - (k + 2.0 * lam - 2.0) * c_prev) / k, c
    return float(c) if c.ndim == 0 else c


def gegenbauer_via_jacobi(n, lam, x):
    """Cross-check route: Gegenbauer from the Jacobi family with a Gamma
    ratio, for lam > 0."""
    if lam <= 0.0:
        raise ValueError(f"gegenbauer_via_jacobi requires lam > 0, got {lam}")
    pref = math.exp(
        math.lgamma(n + 2.0 * lam) + math.lgamma(lam + 0.5) - math.lgamma(n + lam + 0.5) - math.lgamma(2.0 * lam)
    )
    return pref * jacobi_p(n, lam - 0.5, lam - 0.5, x)


# --- surrogate kernel: Fourier coefficients and derivatives -----------------


def kernel_gegenbauer_coeff(n):
    """Coefficient of index n in the Legendre expansion of
    f(t) = -log(1 + sqrt((1-t)/2)) on the two-sphere, weight 1/2.

    f_hat(n) = (2n+1)/2 * int_{-1}^{1} f(t) P_n(t) dt, integrated in
    x = sqrt((1-t)/2), t = 1 - 2x^2, dt = -4x dx, where the integrand is smooth.
    """
    if n < 0:
        raise ValueError("index must be >= 0")

    def f(x):
        return -np.log1p(x) * jacobi_p(n, 0.0, 0.0, 1.0 - 2.0 * x * x) * 4.0 * x

    return (2.0 * n + 1.0) / 2.0 * integrate(f, 0.0, 1.0, tol=1e-11)


def kernel_derivative(n, t):
    """n-th derivative of f(t) = -log(1 + sqrt((1-t)/2)) for 1 <= n <= 6.

    With h = sqrt(1 - t), f = (1/2) log 2 - log(sqrt 2 + h) and
    d/dt = -(1/(2h)) d/dh, which takes c h^-p (sqrt 2 + h)^-q to
    (c p/2) h^-(p+2) (sqrt 2 + h)^-q + (c q/2) h^-(p+1) (sqrt 2 + h)^-(q+1).
    The recurrence starts from f' = (1/2) h^-1 (sqrt 2 + h)^-1, so every
    coefficient stays positive and every summand is positive on (-1, 1).
    """
    if n not in range(1, 7):
        raise ValueError(f"derivative order must be in 1..6, got {n}")
    if not -1.0 < t < 1.0:
        raise ValueError(f"t must lie strictly inside (-1, 1), got {t}")
    terms = {(1, 1): 0.5}  # (p, q) -> c
    for _ in range(n - 1):
        nxt = {}
        for (p, q), c in terms.items():
            nxt[p + 2, q] = nxt.get((p + 2, q), 0.0) + c * p / 2.0
            nxt[p + 1, q + 1] = nxt.get((p + 1, q + 1), 0.0) + c * q / 2.0
        terms = nxt
    h = math.sqrt(1.0 - t)
    return math.fsum(c * h**-p * (_SQRT2 + h) ** -q for (p, q), c in terms.items())


# --- oscillatory Bessel moments ---------------------------------------------
#
# int_0^inf w(t) J_{3/2}(t)^2 dt with w = t^{-s-1} or w = log(t)/t. The
# finite part [0, T] is integrated over panels aligned with the oscillation;
# the tail uses the exact elementary form
#   J_{3/2}(t)^2 = (1/(pi t)) [A(t) + B(t) cos 2t + D(t) sin 2t],
# A = 1 + t^-2, B = 1 - t^-2, D = -2 t^-1, reduced to integrals of
# t^{-m} {1, cos 2t, sin 2t} {1, log t} with stable integration-by-parts
# recurrences.

# A, B and D as tables from a power of 1/t to its coefficient
_TAIL_A, _TAIL_B, _TAIL_D = {0: 1.0, 2: 1.0}, {0: 1.0, 2: -1.0}, {1: -2.0}


def _tail_primitives(T, m, depth=20):
    """Integrals over (T, inf) of t^-m cos(2t) and t^-m sin(2t), then the
    same times log t."""
    c = [0.0] * (depth + 2)
    s = [0.0] * (depth + 2)
    sin2t, cos2t = math.sin(2.0 * T), math.cos(2.0 * T)
    for k in range(depth, -1, -1):
        mm = m + k
        tp = T ** (-mm)
        c[k] = -sin2t * tp / 2.0 + mm / 2.0 * s[k + 1]
        s[k] = cos2t * tp / 2.0 - mm / 2.0 * c[k + 1]
    cl = [0.0] * (depth + 2)
    sl = [0.0] * (depth + 2)
    logT = math.log(T)
    for k in range(depth, -1, -1):
        mm = m + k
        tp = T ** (-mm)
        cl[k] = -sin2t * logT * tp / 2.0 + mm / 2.0 * sl[k + 1] - s[k + 1] / 2.0
        sl[k] = cos2t * logT * tp / 2.0 - mm / 2.0 * cl[k + 1] + c[k + 1] / 2.0
    return c[0], s[0], cl[0], sl[0]


def _power_tail(T, m):
    """Integrals over (T, inf) of t^-m and of t^-m log t; needs m > 1."""
    return T ** (1.0 - m) / (m - 1.0), T ** (1.0 - m) * (math.log(T) / (m - 1.0) + 1.0 / (m - 1.0) ** 2)


def _moment_tail(T, s_exp, log_weight):
    # the log-weighted moment has s_exp = 0 and reads the log entries
    w = int(log_weight)
    total = 0.0
    for j, coeff in _TAIL_A.items():
        total += coeff * _power_tail(T, s_exp + 2.0 + j)[w]
    for j, coeff in _TAIL_B.items():
        total += coeff * _tail_primitives(T, s_exp + 2.0 + j)[2 * w]
    for j, coeff in _TAIL_D.items():
        total += coeff * _tail_primitives(T, s_exp + 2.0 + j)[2 * w + 1]
    return total / math.pi


def _moment_quadrature(weight, s_exp, log_weight):
    # T = 14 pi sits on an oscillation boundary; the exact tail allows a
    # short finite part
    zeros = [(k + 1.0) * math.pi for k in range(14)]
    T = zeros[-1]
    edges = [0.0] + zeros
    panel_tol = max(1e-10 / (4.0 * len(edges)), 1e-12)

    def f(t):
        t = np.asarray(t, dtype=float)
        jv = np.array([bessel_j(x) for x in np.atleast_1d(t)])
        return weight(t) * jv * jv

    finite = math.fsum(integrate(f, edges[k], edges[k + 1], tol=panel_tol) for k in range(len(edges) - 1))
    return finite + _moment_tail(T, s_exp, log_weight)


def bessel_moment(s_exp):
    """Quadrature value of int_0^inf t^{-s-1} J_{3/2}(t)^2 dt.

    Convergence needs -1 < s_exp < 3. Compare with
    bessel_moment_closed_form(s_exp, 1.5) for the Gamma-ratio identity.
    """
    if not (-1.0 < s_exp < 3.0):
        raise ValueError(f"moment diverges: need -1 < s < 3, got s={s_exp}")

    def weight(t):
        return np.power(t, -s_exp - 1.0, where=t > 0, out=np.zeros_like(t))

    return _moment_quadrature(weight, s_exp, log_weight=False)


def bessel_log_moment():
    """Quadrature value of int_0^inf log(t)/t * J_{3/2}(t)^2 dt."""

    def weight(t):
        return np.where(t > 0, np.log(np.where(t > 0, t, 1.0)) / np.where(t > 0, t, 1.0), 0.0)

    return _moment_quadrature(weight, 0.0, log_weight=True)


def bessel_moment_closed_form(s_exp, nu):
    """Gamma(s+1) Gamma(nu - s/2) / (2^{s+1} Gamma(s/2+1)^2 Gamma(nu + s/2 + 1))."""
    if not (-1.0 < s_exp < 2.0 * nu):
        raise ValueError(f"moment diverges: need -1 < s < 2 nu, got s={s_exp}, nu={nu}")
    return math.exp(
        math.lgamma(s_exp + 1.0)
        + math.lgamma(nu - s_exp / 2.0)
        - (s_exp + 1.0) * math.log(2.0)
        - 2.0 * math.lgamma(s_exp / 2.0 + 1.0)
        - math.lgamma(nu + s_exp / 2.0 + 1.0)
    )


def bessel_log_moment_closed_form(nu):
    """((psi(nu) + psi(nu+1))/2 + log 2) / (2 nu) for nu > 0."""
    if nu <= 0:
        raise ValueError(f"log moment needs nu > 0, got {nu}")
    return ((digamma(nu) + digamma(nu + 1.0)) / 2.0 + math.log(2.0)) / (2.0 * nu)
