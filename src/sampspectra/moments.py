"""Asymptotic spectral moments of the sampling Gram matrix.

The p-th moment of the limiting eigenvalue distribution, for field
dimension d and oversampling ratio beta, is a sum over all partition paths
of order p: each path contributes beta^(p-k) times the d-th power of its
volume coefficient. Grouping paths by (volume, block count) gives a short
exact expansion, a polynomial in beta of degree p - 1 whose coefficients
depend on d only through the powers v^d. Non-crossing paths all have v = 1,
so as d grows the moments decrease monotonically to the Narayana polynomial
Nar_p(beta), which is the Marchenko-Pastur moment.

The expansion is built from cores (see :mod:`sampspectra.combinatorics`). If class
c has e_c elements, v_c blocks, volume vol_c and A_c cores, then
A_c C(p, k - v_c) C(p, k + e_c - v_c) paths of order p with k blocks reduce
into c (verified by enumeration through p = 13), so

    m_p(d, beta) = Nar_p(beta) + sum over classes c with e_c <= p of
                   A_c vol_c^d sum_k C(p, k - v_c) C(p, k + e_c - v_c) beta^(p - k).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import (
    MAX_ORDER,
    bell,
    catalan,
    iter_cores,
    iter_partition_paths,  # noqa: F401  wrapped by perfbench/tracer.py
    multigraph_class,
    narayana,
)
from .errors import CapacityError
from .volumes import volume_of


@dataclass(frozen=True)
class MomentTerm:
    """One group of paths sharing a volume coefficient and block count."""

    volume: Fraction
    k: int
    multiplicity: int


@dataclass(frozen=True)
class MomentExpansion:
    """Exact moment expansion of order p, aggregated over partition paths."""

    p: int
    terms: tuple

    def term_map(self) -> dict:
        return {(t.volume, t.k): t.multiplicity for t in self.terms}


def moment_expansion(p: int) -> MomentExpansion:
    """Aggregate volume coefficients over all partition paths of order p.

    Terms are keyed by the exact rational volume and the block count of the
    unreduced path, and come out sorted by (k, volume) so the expansion is
    deterministic. Orders beyond ``MAX_ORDER`` are refused up front.

    The non-crossing paths give the Narayana numbers, and each core of
    order e with v blocks adds C(p, k - v) C(p, k + e - v) paths with k
    blocks: 394 cores stand for the 21,147 paths at p = 9. Cores are grouped
    by :func:`~sampspectra.combinatorics.multigraph_class` first, so
    ``volume_of`` is asked, and the binomial sum run, once per class.
    """
    if p < 1:
        raise ValueError(f"order must be at least 1, got {p}")
    if p > MAX_ORDER:
        raise CapacityError(
            f"moment order {p} exceeds the configured maximum {MAX_ORDER}"
        )
    agg = {(Fraction(1), k): narayana(p, k) for k in range(1, p + 1)}
    for e in range(1, p + 1):
        classes = {}  # class -> [first core, number of cores]
        for core in iter_cores(e):
            classes.setdefault(multigraph_class(core), [core, 0])[1] += 1
        for core, count in classes.values():
            volume, v = volume_of(core), max(core)
            for k in range(v, p - e + v + 1):
                key = (volume, k)
                agg[key] = agg.get(key, 0) + (
                    count * math.comb(p, k - v) * math.comb(p, k + e - v)
                )
    terms = tuple(
        MomentTerm(volume=v, k=k, multiplicity=agg[(v, k)])
        for v, k in sorted(agg, key=lambda vk: (vk[1], vk[0]))
    )
    return MomentExpansion(p=p, terms=terms)


def moment_eval(expansion: MomentExpansion, d: int, beta):
    """Evaluate an expansion at field dimension d and ratio beta.

    Returns a float, or an exact Fraction when beta is a Fraction: the
    arithmetic then stays in Fractions end to end.
    """
    check_d(d)
    beta = check_beta(beta)
    exact = isinstance(beta, Fraction)
    total = sum(
        t.multiplicity * (t.volume if exact else float(t.volume)) ** d
        * beta ** (expansion.p - t.k)
        for t in expansion.terms
    )
    return total if exact else float(total)


def moment_limit(p: int, beta) -> float:
    """Large-d limit of the p-th moment: the Narayana polynomial in beta."""
    if p < 1:
        raise ValueError(f"order must be at least 1, got {p}")
    beta = check_beta(beta)
    return float(sum(narayana(p, k) * beta ** (p - k) for k in range(1, p + 1)))


def crossing_envelope(p: int, d: int) -> float:
    """Bound on |moment_eval - moment_limit| for any beta in (0, 1].

    Crossing paths are the only contributors to the gap; there are
    B(p) - Catalan(p) of them, each with v^d <= (2/3)^d and beta power <= 1.
    """
    check_d(d)
    return float((bell(p) - catalan(p)) * (Fraction(2, 3) ** d))


def symbolic_expansion(expansion: MomentExpansion) -> str:
    """Render the expansion as a polynomial in b with d left symbolic.

    Order 4 prints as ``b^3 + (6 + (2/3)^d) b^2 + 6 b + 1``.
    """
    p = expansion.p
    by_k: dict = {}
    for t in expansion.terms:
        by_k.setdefault(t.k, []).append(t)
    pieces = []
    for k in sorted(by_k):  # k ascending means descending powers of b
        power = p - k
        parts = []
        unit = sum(t.multiplicity for t in by_k[k] if t.volume == 1)
        if unit:
            parts.append(str(unit))
        for t in sorted(by_k[k], key=lambda t: t.volume, reverse=True):
            if t.volume == 1:
                continue
            base = f"({t.volume.numerator}/{t.volume.denominator})^d"
            parts.append(base if t.multiplicity == 1 else f"{t.multiplicity}*{base}")
        coeff = " + ".join(parts)
        if power == 0:
            pieces.append(coeff if len(parts) == 1 else f"({coeff})")
        else:
            var = "b" if power == 1 else f"b^{power}"
            if coeff == "1":
                pieces.append(var)
            elif len(parts) == 1:
                pieces.append(f"{coeff} {var}")
            else:
                pieces.append(f"({coeff}) {var}")
    return " + ".join(pieces)


def check_d(d):
    """Raise ValueError unless d is a positive integer."""
    if not isinstance(d, numbers.Integral) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")


def check_beta(beta):
    """Validated beta in (0, 1]: a Fraction if given one, else a float."""
    if isinstance(beta, Fraction):
        value = beta
    elif isinstance(beta, numbers.Real):
        value = float(beta)
    else:
        raise ValueError(f"beta must be a real number, got {beta!r}")
    if not 0 < value <= 1:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    return value
