"""Exact volume coefficients attached to partition paths.

Each partition path carries a homogeneous linear constraint system on p
integer variables: block by block, the sum of the variables at the block's
positions must equal the sum at their circular successors. The number of
solutions inside the cube [-M..M]^p, written zeta_M here, is a polynomial
in (2M+1) of degree p - k + 1, and its leading coefficient is the path's
volume coefficient v, a rational number in [0, 1]. v = 1 exactly when the
path reduces to the empty path; crossing survivors have v <= 2/3.

The module computes zeta_M exactly with integer arithmetic. The solutions
form a lattice polytope (the constraint matrix is a graph's incidence
matrix, hence totally unimodular), so by Ehrhart-Macdonald reciprocity the
count is even or odd in 2M+1 with D = p - k + 1, and D // 2 + 3 exact counts
fix it: v is the leading Newton divided difference over the squared nodes,
with the next two checked to be zero. The module also offers an
independent floating-point cross-check that integrates a product of
band-limited sinc factors by the midpoint rule at the Nyquist step,
refining only the truncation half-width up to a per-dimension cap on grid
points per axis, with Aitken extrapolation of the truncation error.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .combinatorics import (
    MAX_ORDER,
    PartitionPath,
    PathLike,
    multigraph_class,
    reduce_path,
)
from .errors import CapacityError, ConvergenceError, IntegrityError


@dataclass(frozen=True)
class VolumeResult:
    """Exact volume coefficient plus the lattice counts behind it."""

    exact: Fraction
    degree: int
    fit_points: tuple


def constraint_system(path: PathLike) -> np.ndarray:
    """Integer k x p constraint matrix of a non-empty partition path.

    Row j - 1 says: the variables at block j's positions sum to the same
    value as the variables at those positions' circular successors. Entries
    lie in {-1, 0, 1}, every column sums to zero, and the rank is exactly
    k - 1 (the k rows always carry one redundancy).
    """
    path = PartitionPath.of(path)
    if path.p == 0:
        raise ValueError("constraint system needs a non-empty path")
    labels = np.array(path.labels)
    blocks = np.arange(1, path.k + 1)[:, None]
    # Column i is +1 at block labels[i] and -1 at block labels[i - 1].
    return (labels == blocks).astype(np.int64) - (np.roll(labels, 1) == blocks)


# --- exact lattice counting -------------------------------------------------


def zeta_count(path: PathLike, M: int) -> int:
    """Number of integer solutions of the constraint system inside [-M..M]^p.

    Counted exactly by dynamic programming over the partial sums of k - 1
    independent constraint rows: each variable contributes one sweep over
    its 2M+1 admissible values, and a row's partial-sum axis is only carried
    while the sweep is inside that row's support. The full (2M+1)^p grid is
    never touched.
    """
    path = PartitionPath.of(path)
    if M < 0:
        raise ValueError(f"M must be non-negative, got {M}")
    p = path.p
    if p == 0:
        return 1
    k = path.k
    if k == 1:
        # The single constraint telescopes to 0 = 0 around the circle.
        return (2 * M + 1) ** p
    # Any one row is implied by the others; dropping the block that contains
    # position p removes the only row whose support wraps past the end,
    # which keeps the active windows short.
    drop = path.labels[-1] - 1
    kept = [
        row for j, row in enumerate(constraint_system(path)) if j != drop and row.any()
    ]

    dtype = object if (2 * M + 1) ** p >= 2**62 else np.int64
    starts = [int(np.flatnonzero(row)[0]) for row in kept]

    state = np.ones((), dtype=dtype)
    active = []  # indices into kept, in axis order
    lo = []
    hi = []
    rem = []  # remaining absolute coefficient mass of each active row
    free_exponent = 0

    for col in range(p):
        for j in range(len(kept)):
            if starts[j] == col:
                state = state[..., np.newaxis]
                active.append(j)
                lo.append(0)
                hi.append(0)
                rem.append(int(np.abs(kept[j]).sum()))
        coeffs = [int(kept[j][col]) for j in active]
        if not any(coeffs):
            free_exponent += 1
            continue

        new_lo, new_hi = [], []
        for a, c in enumerate(coeffs):
            r_after = rem[a] - abs(c)
            nl = max(lo[a] - abs(c) * M, -r_after * M)
            nh = min(hi[a] + abs(c) * M, r_after * M)
            if nl > nh:
                return 0  # partial sum can no longer return to zero
            new_lo.append(nl)
            new_hi.append(nh)
        new_state = np.zeros(
            [h - l + 1 for l, h in zip(new_lo, new_hi)], dtype=dtype
        )
        for t in range(-M, M + 1):
            src, dst = [], []
            feasible = True
            for a, c in enumerate(coeffs):
                s = t * c
                d0 = max(lo[a] + s, new_lo[a])
                d1 = min(hi[a] + s, new_hi[a])
                if d0 > d1:
                    feasible = False
                    break
                dst.append(slice(d0 - new_lo[a], d1 - new_lo[a] + 1))
                src.append(slice(d0 - s - lo[a], d1 - s - lo[a] + 1))
            if feasible:
                new_state[tuple(dst)] += state[tuple(src)]
        state = new_state
        lo, hi = new_lo, new_hi
        rem = [r - abs(c) for r, c in zip(rem, coeffs)]

        for a in range(len(active) - 1, -1, -1):
            if rem[a] == 0:  # axis has collapsed onto partial sum 0
                state = state.squeeze(axis=a)
                del active[a], lo[a], hi[a], rem[a]

    count = int(state.item() if state.ndim == 0 else state.sum())
    return count * (2 * M + 1) ** free_exponent


# --- exact volume as a divided difference ----------------------------------


def volume_exact(path: PathLike) -> VolumeResult:
    """Exact volume coefficient of a path.

    zeta_M is the Ehrhart polynomial of the lattice polytope ker W cut by
    [-1, 1]^p, and the polytope's interior holds exactly the points of the
    next smaller box, so reciprocity gives L(-M) = (-1)^D L(M - 1): in
    x = 2M + 1 the degree-D count is x^r Q(x^2) with r = D mod 2 and
    h = deg Q = D // 2, where D = p - k + 1. So only M = 0..h+2 are counted,
    h + 3 counts, and the Newton divided differences of zeta_M / x^r over
    the nodes x^2 are taken. Entry h is the leading coefficient, which is
    the volume, and entries h+1 and h+2 must vanish. The empty path has
    volume 1 by convention. Paths longer than ``MAX_ORDER`` are refused
    before any lattice point is counted.
    """
    path = PartitionPath.of(path)
    if path.p > MAX_ORDER:
        raise CapacityError(f"path order {path.p} exceeds the maximum {MAX_ORDER}")
    if path.p == 0:
        return VolumeResult(exact=Fraction(1), degree=0, fit_points=((0, 1),))
    degree = path.p - path.k + 1
    half, odd = divmod(degree, 2)
    points = tuple((M, zeta_count(path, M)) for M in range(half + 3))
    nodes = [(2 * M + 1) ** 2 for M, _ in points]
    # Entry L of diffs is the divided difference over nodes 0..L.
    table = [Fraction(z, (2 * M + 1) ** odd) for M, z in points]
    diffs = [table[0]]
    for level in range(1, half + 3):
        table = [
            (b - a) / (nodes[i + level] - nodes[i])
            for i, (a, b) in enumerate(zip(table, table[1:]))
        ]
        diffs.append(table[0])
    for M in (half + 1, half + 2):
        if diffs[M]:
            raise IntegrityError(
                f"lattice count mismatch at M={M}: counts at M=0..{M} have "
                f"divided difference {diffs[M]}, not 0 as for a degree-{degree} "
                f"polynomial of parity {odd}"
            )
    exact = diffs[half]
    if not 0 <= exact <= 1:
        raise IntegrityError(f"volume coefficient {exact} outside [0, 1]")
    return VolumeResult(exact=exact, degree=degree, fit_points=points)


_volume_cache: dict = {}
_cache_lock = threading.Lock()


def volume_of(path: PathLike) -> Fraction:
    """Volume coefficient of an arbitrary path, reducing first.

    Memoized on the class of the reduced path's transition multigraph
    (:func:`~sampspectra.combinatorics.multigraph_class`): 16 classes cover
    the 394 cores of order at most 9. Only a miss counts lattice points.
    """
    reduced = reduce_path(path)
    key = multigraph_class(reduced.labels)
    cached = _volume_cache.get(key)
    if cached is None:
        cached = volume_exact(reduced).exact
        with _cache_lock:
            _volume_cache[key] = cached
    return cached


def clear_volume_cache() -> None:
    with _cache_lock:
        _volume_cache.clear()


# --- independent quadrature cross-check --------------------------------------

# Grid points per axis allowed in each quadrature dimension k - 1. The grid
# of half-width Y has 2 Y deg_max points per axis, and a three-dimensional
# einsum may form n x n intermediates (32 MiB each at the cap).
_MAX_POINTS = {1: 2**18, 2: 2**12, 3: 2**11}
_BASE_HALF_WIDTH = 8


def volume_quadrature(path: PathLike, tolerance: float) -> float:
    """Volume coefficient as a truncated sinc-product integral.

    The constraint system's solution density equals the integral over
    R^(k-1) of the product of sinc(y_a - y_b) over circularly consecutive
    label pairs (a, b), with the last label's variable pinned to zero.
    Along y_a the product is band-limited to |xi| <= deg(a) / 2, deg(a)
    being twice block a's size, so by Poisson summation the midpoint rule
    with step 1 / deg_max is exact on R^(k-1). Only the grid's half-width Y
    doubles, from 8, and Aitken's delta-squared extrapolation of each three
    successive estimates removes most of the truncation error, until two
    extrapolated values agree within ``tolerance`` or the grid would pass
    the cap. Only k - 1 <= 3 is supported.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    path = PartitionPath.of(path)
    if path.p == 0:
        raise ValueError("quadrature needs a non-empty path")
    if reduce_path(path).labels != path.labels:
        raise ValueError("path must be fully reduced before quadrature")
    dim = path.k - 1
    if dim > 3:
        raise ValueError(f"quadrature dimension k-1 = {dim} exceeds the supported 3")

    rate = _nyquist_rate(path)
    cap = _MAX_POINTS[dim]
    half_width = _BASE_HALF_WIDTH
    if 16 * half_width * rate > cap:  # fewer than two extrapolations would fit
        raise CapacityError(f"{rate} grid points per unit exceed the cap {cap}")
    estimates, extrapolated = [], []
    while 2 * half_width * rate <= cap:
        estimates.append(_grid_estimate(path, half_width, rate))
        half_width *= 2
        if len(estimates) >= 3:
            extrapolated.append(_aitken(*estimates[-3:]))
        if len(extrapolated) >= 2:
            previous, latest = extrapolated[-2:]
            # Equal floats agree only to within their spacing, so a
            # tolerance finer than that is never met.
            if abs(latest - previous) + np.spacing(latest) < tolerance:
                return latest
    raise ConvergenceError(
        f"quadrature did not reach tolerance {tolerance} by half-width "
        f"{half_width // 2} (last extrapolations {previous} and {latest})",
        estimates=(previous, latest),
    )


def _aitken(older, old, new):
    """Aitken's delta-squared limit of three successive estimates."""
    inc, prev_inc = new - old, old - older
    if inc == prev_inc:
        return new
    return new - inc * inc / (inc - prev_inc)


def _nyquist_rate(path):
    """Grid points per unit length: deg_max = twice the largest block."""
    return 2 * max(Counter(path.labels).values())


def _grid_estimate(path, half_width, rate):
    """Midpoint rule over [-Y, Y]^(k-1) at ``rate`` points per unit, one einsum.

    A label paired with the pinned label k contributes the vector sinc(y)^e,
    any other pair the Toeplitz matrix sinc(y_a - y_b)^e: row i is the
    window of n lags from -i upwards, a strided view onto 2n - 1 values.
    """
    n = 2 * half_width * rate
    step = 1.0 / rate
    y = -half_width + (np.arange(n) + 0.5) * step
    lags = np.sinc(np.arange(1 - n, n) * step)
    w = path.labels
    exponents = Counter(tuple(sorted(pair)) for pair in zip(w, w[1:] + w[:1]))
    subscripts, operands = [], []
    for (a, b), e in exponents.items():
        if b == path.k:
            subscripts.append("ijl"[a - 1])
            operands.append(np.sinc(y) ** e)
        else:
            subscripts.append("ijl"[a - 1] + "ijl"[b - 1])
            operands.append(sliding_window_view(lags**e, n)[::-1])
    total = np.einsum(",".join(subscripts) + "->", *operands, optimize=True)
    return float(total) * step ** (path.k - 1)
