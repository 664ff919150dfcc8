"""Marchenko-Pastur limit law and its closed-form reconstruction error.

For oversampling ratio beta in (0, 1] the limiting eigenvalue density is
supported on [c2, c1] with c_{1,2} = (1 +- sqrt(beta))^2. Its moments are
the Narayana polynomials in beta, matching the large-d limit of the exact
moment expansion, and the mean reconstruction error of the linear MMSE
filter has a closed form in (beta, alpha) where alpha is the noise-to-signal
power ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .moments import moment_limit

#: The closed form may round fractionally outside [0, 1]; anything this far
#: outside signals corrupted inputs instead.
_DOMAIN_SLACK = 1e-12

#: Node counts of the first and the largest midpoint rule in mp_expectation.
_MIDPOINT_START = 8
_MIDPOINT_CAP = 2**15
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class MPParams:
    """Support edges of the Marchenko-Pastur law for a given beta."""

    beta: float
    c1: float = field(init=False)
    c2: float = field(init=False)

    def __post_init__(self):
        if not 0 < self.beta <= 1:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        root = math.sqrt(self.beta)
        object.__setattr__(self, "c1", (1 + root) ** 2)
        object.__setattr__(self, "c2", (1 - root) ** 2)


def mp_pdf(x, params: MPParams):
    """Density of the Marchenko-Pastur law, zero outside (c2, c1).

    Accepts scalars or arrays. The value at the support edges is 0; for
    beta = 1 the density is integrable but unbounded near x = 0.
    """
    x = np.asarray(x, dtype=float)
    inside = (x > params.c2) & (x < params.c1)
    out = np.zeros_like(x)
    xi = x[inside]
    out[inside] = np.sqrt((params.c1 - xi) * (xi - params.c2)) / (
        2 * np.pi * xi * params.beta
    )
    return out if out.ndim else float(out)


def mp_moment(p: int, beta: float) -> float:
    """p-th moment of the law: the Narayana polynomial in beta (1 for p=0)."""
    if p == 0:
        return 1.0
    return moment_limit(p, beta)


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
    if not 0 < beta <= 1:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if alpha < 0 or not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite and non-negative, got {alpha}")
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
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    params = MPParams(beta)
    c1, c2 = params.c1, params.c2
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
