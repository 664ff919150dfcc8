"""Asymptotic spectral moments of the sampling Gram matrix.

The p-th moment of the limiting eigenvalue distribution, for field
dimension d and oversampling ratio beta, is a sum over all partition paths
of order p: each path contributes beta^(p-k) times the d-th power of its
volume coefficient. Grouping paths by (volume, block count) gives a short
exact expansion, a polynomial in beta of degree p - 1 whose coefficients
depend on d only through the powers v^d. Non-crossing paths all have v = 1,
so as d grows the moments decrease monotonically to the Narayana polynomial
Nar_p(beta), which is the Marchenko-Pastur moment.

The expansion is built from core classes (see
:mod:`sampspectra.combinatorics`). If class c has e_c elements, v_c blocks,
volume vol_c and A_c cores, then A_c C(p, k - v_c) C(p, k + e_c - v_c)
paths of order p with k blocks reduce into c (verified by enumeration
through p = 13), so

    m_p(d, beta) = Nar_p(beta) + sum over classes c with e_c <= p of
                   A_c vol_c^d sum_k C(p, k - v_c) C(p, k + e_c - v_c) beta^(p - k).

The classes come from a committed table, :mod:`sampspectra._core_classes`,
written by ``python scripts/core_classes.py``, so no core is listed and no
lattice point counted at run time. A test rebuilds its rows through e = 12
from the cores, and at p = 13, 14 the expansion also rests on its check
against the Stirling numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import (
    MAX_ORDER,
    bell,
    catalan,
    iter_partition_paths,  # noqa: F401  wrapped by perfbench/tracer.py
    narayana_row,
    stirling2,
)
from .errors import CapacityError, IntegrityError, check_beta, check_integer
from .volumes import table_rows, volume_of  # noqa: F401  volume_of wrapped by perfbench


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

    The non-crossing paths give the Narayana numbers, and each core class
    of order e with v blocks and A_c cores adds A_c C(p, k - v)
    C(p, k + e - v) paths with k blocks: 16 classes of 394 cores stand for
    the 21,147 paths at p = 9. The classes are read from the committed
    table (:func:`~sampspectra.volumes.table_rows`), whose rows through
    e = 12 a test rebuilds from the cores. The binomial identity is verified
    by enumeration through p = 13, and p = 14 also rests on the check below.

    Raises IntegrityError when a row read has a volume outside (0, 2/3] or
    when, for some k, the multiplicities do not sum to the Stirling number
    S(p, k), the count of all paths with k blocks.
    """
    check_integer("order", p, 1)
    if p > MAX_ORDER:
        raise CapacityError(
            f"moment order {p} exceeds the configured maximum {MAX_ORDER}"
        )
    agg = {(Fraction(1), k): n for k, n in enumerate(narayana_row(p), 1)}
    for labels, count, volume in table_rows(p):
        e, v = len(labels), max(labels)
        for k in range(v, p - e + v + 1):
            key = (volume, k)
            agg[key] = agg.get(key, 0) + (
                count * math.comb(p, k - v) * math.comb(p, k + e - v)
            )
    per_k = dict.fromkeys(range(1, p + 1), 0)
    for (_, k), multiplicity in agg.items():
        per_k[k] += multiplicity
    for k, total in per_k.items():
        if total != stirling2(p, k):
            raise IntegrityError(
                f"order {p}: multiplicities with {k} blocks sum to {total}, "
                f"not S({p}, {k}) = {stirling2(p, k)}"
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
    check_integer("dimension", d, 1)
    beta = check_beta(beta)
    exact = isinstance(beta, Fraction)
    total = sum(
        t.multiplicity * (t.volume if exact else float(t.volume)) ** d
        * beta ** (expansion.p - t.k)
        for t in expansion.terms
    )
    return total if exact else float(total)


def moment_limit(p: int, beta) -> float:
    """Large-d limit of the p-th moment: the Narayana polynomial in beta.

    The terms are summed as floats while every Narayana number converts to
    one (to about p = 515). Past that the sum is exact: with beta = a / b,
    Horner's rule gives the integer sum_k Nar(p, k) a^(p-k) b^(k-1), and its
    quotient by b^(p-1) is rounded once. Writing b = c 2^t with c odd (c = 1
    for a float) turns the powers of 2 into shifts. A moment past the float
    range raises ValueError.
    """
    check_integer("order", p, 1)
    beta = check_beta(beta)
    counts = narayana_row(p)
    try:
        value = float(sum(n * beta ** (p - k) for k, n in enumerate(counts, 1)))
    except OverflowError:
        a, b = beta.as_integer_ratio()
        t = (b & -b).bit_length() - 1
        c = b >> t
        total, c_power = 0, 1
        for k, n in enumerate(counts):
            total = total * a + (n * c_power << t * k)
            c_power *= c
        try:
            value = total / (c ** (p - 1) << t * (p - 1))
        except OverflowError:
            value = math.inf
    if value == math.inf:
        raise ValueError(
            f"the limit moment of order p={p} at beta={beta} is past the float range")
    return value


def crossing_envelope(p: int, d: int) -> float:
    """Bound on |moment_eval - moment_limit| for any beta in (0, 1].

    Crossing paths are the only contributors to the gap; there are
    B(p) - Catalan(p) of them, each with v^d <= (2/3)^d and beta power <= 1.
    """
    check_integer("dimension", d, 1)
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
