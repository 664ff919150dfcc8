"""Marchenko-Pastur limit law and its closed-form reconstruction error.

For oversampling ratio beta in (0, 1] the limiting eigenvalue density is
supported on [c2, c1] with c_{1,2} = (1 +- sqrt(beta))^2. Its moments are
the Narayana polynomials in beta, the large-d limit of the exact moment
expansion (``moments.moment_limit``), and the mean reconstruction error of
the linear MMSE filter has a closed form in (beta, alpha) where alpha is the
noise-to-signal power ratio.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, check_alpha, check_beta, check_tolerance

#: The closed form may round fractionally outside [0, 1]; anything this far
#: outside signals corrupted inputs instead.
_DOMAIN_SLACK = 1e-12

#: Node counts of the first and the largest midpoint rule in mp_expectation.
_MIDPOINT_START = 8
_MIDPOINT_CAP = 2**15
_EPS = float(np.finfo(float).eps)


def _support(beta: float) -> tuple:
    """Support edges (c2, c1) = ((1 - sqrt(beta))^2, (1 + sqrt(beta))^2)."""
    check_beta(beta)
    root = math.sqrt(beta)
    return (1 - root) ** 2, (1 + root) ** 2


def mp_pdf(x, beta: float):
    """Density of the Marchenko-Pastur law, zero outside (c2, c1).

    Accepts scalars or arrays. The value at the support edges is 0; for
    beta = 1 the density is integrable but unbounded near x = 0. A NaN
    point raises ValueError.
    """
    c2, c1 = _support(beta)
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError("mp_pdf points must be numbers, got nan")
    inside = (x > c2) & (x < c1)
    out = np.zeros_like(x)
    xi = x[inside]
    out[inside] = np.sqrt((c1 - xi) * (xi - c2)) / (2 * np.pi * xi * beta)
    return out if out.ndim else float(out)


def mp_lmmse(beta: float, alpha: float) -> float:
    """Mean LMMSE reconstruction error under the Marchenko-Pastur law.

    ``alpha`` is the noise-to-signal power ratio; alpha = 0 is the
    noiseless sentinel and returns exactly 0. The closed form is
    (2 beta - theta + sqrt(theta^2 - 4 beta)) / (2 beta) with
    theta = 1 + beta (1 + alpha). Its numerator cancels at low SNR, so the
    equal form 2 alpha beta / (1 - beta + alpha beta + sqrt(theta^2 - 4 beta))
    is evaluated instead: every term of its denominator is non-negative.
    The root is taken of the two factors (1 -+ sqrt(beta))^2 + alpha beta
    of theta^2 - 4 beta, the first as ((1 - beta) / (1 + sqrt(beta)))^2,
    which does not cancel near beta = 1, and the denominator is halved term
    by term, so nothing overflows for any finite alpha (theta^2 itself
    does once alpha passes about 1e154).
    """
    check_beta(beta)
    check_alpha(alpha)
    if alpha == 0:
        return 0.0
    ab = alpha * beta
    rb = math.sqrt(beta)
    root = math.sqrt(((1 - beta) / (1 + rb)) ** 2 + ab) * math.sqrt((1 + rb) ** 2 + ab)
    value = ab / ((1 - beta) / 2 + ab / 2 + root / 2)
    if value < -_DOMAIN_SLACK or value > 1 + _DOMAIN_SLACK:
        raise ValueError(f"closed form produced {value}, outside [0, 1]")
    return min(max(value, 0.0), 1.0)


def mp_expectation(g, beta: float, tolerance: float = 1e-10) -> float:
    """Integral of ``g`` against the Marchenko-Pastur density.

    Substituting x = c2 + (c1 - c2) sin^2(t) removes the square-root
    endpoint singularities (and the 1/x pole at beta = 1), leaving an
    integrand on [0, pi/2] that extends to a smooth, even, pi-periodic
    function. The equal-weight midpoint rule therefore converges
    geometrically, and it never evaluates the endpoints, where x = 0 at
    beta = 1. The node count doubles until two successive rules agree; the
    error estimate is their difference, floored at the rounding error of
    the sum.
    """
    check_tolerance(tolerance)
    c2, c1 = _support(beta)
    span = c1 - c2

    def midpoint(n):
        h = math.pi / (2 * n)
        t = (np.arange(n) + 0.5) * h
        x = c2 + span * np.sin(t) ** 2
        gx = np.array([g(float(v)) for v in x], dtype=float)
        f = gx * span**2 * np.sin(2 * t) ** 2 / (4 * math.pi * beta * x)
        return h * f.sum(), h * np.abs(f).sum()

    n = _MIDPOINT_START
    coarse, _ = midpoint(n)
    while True:
        n *= 2
        value, magnitude = midpoint(n)
        err = max(abs(value - coarse), 50 * _EPS * magnitude)
        if err <= tolerance:
            return float(value)
        if n >= _MIDPOINT_CAP:
            raise ConvergenceError(
                f"quadrature error estimate {err} exceeds tolerance {tolerance}",
                estimates=(float(value), float(value + err)),
            )
        coarse = value
