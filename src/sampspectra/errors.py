"""Shared exception types and argument checks.

Argument problems raise plain ``ValueError``, from the one check below for
each kind of argument; the classes here cover the two other failure families
the library distinguishes: declining work that would exceed a configured
resource budget, and detecting that a numerical result cannot be trusted.
"""

import math
from numbers import Integral, Rational, Real


class CapacityError(Exception):
    """Requested work exceeds a configured size or memory budget."""


class IntegrityError(Exception):
    """A computed result failed an internal exactness or residual check."""


class ConvergenceError(IntegrityError):
    """An iterative numerical routine ran out of budget before converging.

    Carries the last two successive estimates so callers can judge how far
    the iteration was from the requested tolerance.
    """

    def __init__(self, message, estimates=None):
        super().__init__(message)
        self.estimates = tuple(estimates) if estimates is not None else None


def check_integer(name, value, minimum):
    """``value`` as an int, after checking it is an integer >= ``minimum`` (0 or 1)."""
    if not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(
            f"{name} must be {'positive' if minimum else 'non-negative'}, got {value}")
    return int(value)


def check_beta(beta):
    """Validated beta in (0, 1]: a Fraction stays exact, anything else is a float.

    A Fraction is told apart as a rational that is not an integer: importing
    :mod:`fractions` here would load :mod:`decimal` into every simulation.
    """
    if isinstance(beta, Rational) and not isinstance(beta, Integral):
        value = beta
    elif isinstance(beta, Real):
        value = float(beta)
    else:
        raise ValueError(f"beta must be a real number, got {beta!r}")
    if not 0 < value <= 1:  # also for nan
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    return value


def check_alpha(alpha, positive=False):
    """Raise ValueError unless alpha is finite and non-negative (positive if ``positive``)."""
    kind = "positive" if positive else "non-negative"
    if not 0 <= alpha < math.inf or (positive and alpha == 0):  # also for nan
        raise ValueError(f"alpha must be finite and {kind}, got {alpha}")


def check_tolerance(tolerance):
    """Raise ValueError unless the tolerance is positive."""
    if not tolerance > 0:  # also for nan
        raise ValueError(f"tolerance must be positive, got {tolerance}")
