"""Exact volume coefficients attached to partition paths.

A partition path's transition multigraph has one vertex per block and one
edge per circularly consecutive label pair (see
:func:`~sampspectra.combinatorics.transition_multigraph`). Put an integer
on each of its p edges and ask every block's inflow to equal its outflow:
the number of such flows with values in [-M..M], written zeta_M here, is a
polynomial in (2M+1) of degree p - k + 1, and its leading coefficient is the
path's volume coefficient v, a rational number in [0, 1]. v = 1 exactly when
the path reduces to the empty path; crossing survivors have v <= 2/3.

The module computes zeta_M exactly with integer arithmetic. The flows form
a lattice polytope (a graph's incidence matrix is totally unimodular), so
by Ehrhart-Macdonald reciprocity the count is even or odd in 2M+1 with
D = p - k + 1, and D // 2 + 3 exact counts fix it: v is the leading Newton
divided difference over the squared nodes, with the next two checked to be
zero. The module also offers an independent floating-point cross-check
that integrates a product of band-limited sinc factors, one per edge, by
the midpoint rule at the Nyquist step, refining only the truncation
half-width up to a per-dimension cap on grid points per axis, with Aitken
extrapolation of the truncation error.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .combinatorics import (
    MAX_ORDER,
    PartitionPath,
    PathLike,
    multigraph_class,
    reduce_path,
    transition_multigraph,
)
from .errors import CapacityError, ConvergenceError, IntegrityError
from .errors import check_integer, check_tolerance


# --- exact lattice counting -------------------------------------------------


def zeta_count(path: PathLike, M: int) -> int:
    """Number of integer flows on the transition multigraph with values in [-M..M].

    Position i's variable flows along the edge from block w_(i-1) to block
    w_i, and each block's inflow must equal its outflow. A loop is a free
    variable, a factor 2M+1. The m parallel variables between two blocks act
    only through their sum, which takes the value s in as many ways as the
    m-fold convolution of ones(2M+1) has at s, so they merge into one
    weighted edge. Edges are then added in the order the walk first crosses
    them, and the state carries one axis per open block: its balance so far,
    from the block's first edge until its last pins it to zero. A balance
    never leaves +-M times the edge variables still to come at its block.
    The balances sum to zero, so the busiest block's is dropped. The
    (2M+1)^p box is never touched.
    """
    path = PartitionPath.of(path)
    check_integer("M", M, 0)
    dtype = object if (2 * M + 1) ** path.p >= 2**62 else np.int64
    edges = transition_multigraph(path.labels)
    left = Counter()  # edge variables still to come at each block
    for (a, b), m in edges.items():
        if a != b:
            left[a] += m
            left[b] += m
    drop = max(left, key=left.get, default=None)
    state = np.ones((), dtype=dtype)
    blocks, half = [], []  # open blocks in axis order, balance windows [-half, half]
    free = 0
    for (a, b), m in edges.items():
        if a == b:
            free += m
            continue
        left[a] -= m
        left[b] -= m
        ends = []  # (axis, sign) of the edge's tracked endpoints
        for block, sign in ((a, 1), (b, -1)):
            if block == drop:
                continue
            if block not in blocks:
                state = state[..., np.newaxis]
                blocks.append(block)
                half.append(0)
            ends.append((blocks.index(block), sign))
        weight = functools.reduce(np.convolve, [np.ones(2 * M + 1, dtype=dtype)] * m)
        reach = m * M
        new_half = list(half)
        for axis, _ in ends:
            new_half[axis] = min(half[axis] + reach, left[blocks[axis]] * M)
        new_state = np.zeros([2 * h + 1 for h in new_half], dtype=dtype)
        for s in range(-reach, reach + 1):
            src, dst = [slice(None)] * state.ndim, [slice(None)] * state.ndim
            for axis, sign in ends:
                # Balance x moves to x + sign s, which must stay in the new window.
                t, h, nh = sign * s, half[axis], new_half[axis]
                first, last = max(t - h, -nh), min(t + h, nh)
                if first > last:
                    break
                dst[axis] = slice(first + nh, last + nh + 1)
                src[axis] = slice(first - t + h, last - t + h + 1)
            else:
                new_state[tuple(dst)] += weight[s + reach] * state[tuple(src)]
        state, half = new_state, new_half
        for axis in sorted((axis for axis, _ in ends if not left[blocks[axis]]), reverse=True):
            state = state.squeeze(axis=axis)  # the balance has closed on zero
            del blocks[axis], half[axis]
    return int(state) * (2 * M + 1) ** free


# --- exact volume as a divided difference ----------------------------------


def volume_exact(path: PathLike) -> Fraction:
    """Exact volume coefficient of a path.

    zeta_M is the Ehrhart polynomial of the lattice polytope of flows with
    values in [-1, 1], and the polytope's interior holds exactly the points
    of the next smaller box, so reciprocity gives L(-M) = (-1)^D L(M - 1): in
    x = 2M + 1 the degree-D count is x^r Q(x^2) with r = D mod 2 and
    h = deg Q = D // 2, where D = p - k + 1. So only M = 0..h+2 are used,
    h + 3 counts, and the Newton divided differences of zeta_M / x^r over
    the nodes x^2 are taken. zeta_0 is 1 (every variable is 0), so M = 0
    is not counted. Entry h is the leading coefficient, which is the
    volume, and entries h+1 and h+2 must vanish. The empty path has
    volume 1 by convention. Paths longer than ``MAX_ORDER`` are refused
    before any lattice point is counted.
    """
    path = PartitionPath.of(path)
    if path.p > MAX_ORDER:
        raise CapacityError(f"path order {path.p} exceeds the maximum {MAX_ORDER}")
    if path.p == 0:
        return Fraction(1)
    degree = path.p - path.k + 1
    half, odd = divmod(degree, 2)
    counts = [1] + [zeta_count(path, M) for M in range(1, half + 3)]
    nodes = [(2 * M + 1) ** 2 for M in range(half + 3)]
    # Entry L of diffs is the divided difference over nodes 0..L.
    table = [Fraction(z, (2 * M + 1) ** odd) for M, z in enumerate(counts)]
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
    return exact


def volume_of(path: PathLike) -> Fraction:
    """Volume coefficient of an arbitrary path, read from the core-class table.

    The path is reduced, and its core's volume is the one in the committed
    table row of the same order whose core has the same
    :func:`~sampspectra.combinatorics.multigraph_class`, so no lattice point
    is counted. The empty core has volume 1. A core longer than
    ``MAX_ORDER`` is refused as by :func:`volume_exact`, and a core whose
    class has no row raises IntegrityError.
    """
    core = reduce_path(path)
    if core.p > MAX_ORDER:
        raise CapacityError(f"path order {core.p} exceeds the maximum {MAX_ORDER}")
    if core.p == 0:
        return Fraction(1)
    volume = _class_volumes(core.p).get(multigraph_class(core.labels))
    if volume is None:
        raise IntegrityError(f"core {core} has no class in the core-class table")
    return volume


@functools.lru_cache(maxsize=MAX_ORDER)
def _class_volumes(e: int) -> dict:
    """Volume of each committed class of order e, keyed by its multigraph class."""
    return {multigraph_class(labels): volume
            for labels, _, volume in table_rows(e) if len(labels) == e}


def table_rows(p: int):
    """Yield (labels, A_c, volume) for each committed core class with e <= p.

    A row is a line ``labels A_c num/den`` of the generated table, and e is
    the length of its representative core ``labels``. Rows are sorted by e,
    so reading stops at the first one above p. This is the one reader of
    the table; it is imported on first use, not with the package.
    """
    from . import _core_classes

    for line in _core_classes.CORE_CLASSES.splitlines():
        core, count, volume = line.split(" ")
        labels = tuple(int(label) for label in core.split(","))
        if len(labels) > p:
            return
        volume = Fraction(volume)
        if not 0 < volume <= Fraction(2, 3):
            raise IntegrityError(
                f"core class [{core}] has volume {volume} outside (0, 2/3]"
            )
        yield labels, int(count), volume


# --- independent quadrature cross-check --------------------------------------

# Grid points per axis allowed in each quadrature dimension k - 1. The grid
# of half-width Y has 2 Y deg_max points per axis, and a three-dimensional
# einsum may form n x n intermediates (32 MiB each at the cap).
_MAX_POINTS = {1: 2**18, 2: 2**12, 3: 2**11}
_BASE_HALF_WIDTH = 8


def volume_quadrature(path: PathLike, tolerance: float) -> float:
    """Volume coefficient as a truncated sinc-product integral.

    The density of the flows equals the integral over R^(k-1) of the
    product of sinc(y_a - y_b) over the edges (a, b) of the transition
    multigraph, with block k's variable pinned to zero.
    Along y_a the product is band-limited to |xi| <= deg(a) / 2, deg(a)
    being twice block a's size, so by Poisson summation the midpoint rule
    with step 1 / deg_max is exact on R^(k-1). Only the grid's half-width Y
    doubles, from 8, and Aitken's delta-squared extrapolation of each three
    successive estimates removes most of the truncation error, until two
    extrapolated values agree within ``tolerance`` or the grid would pass
    the cap. Only k - 1 <= 3 is supported.
    """
    check_tolerance(tolerance)
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
    subscripts, operands = [], []
    for (a, b), e in transition_multigraph(path.labels).items():
        if b == path.k:
            subscripts.append("ijl"[a - 1])
            operands.append(np.sinc(y) ** e)
        else:
            subscripts.append("ijl"[a - 1] + "ijl"[b - 1])
            operands.append(sliding_window_view(lags**e, n)[::-1])
    total = np.einsum(",".join(subscripts) + "->", *operands, optimize=True)
    return float(total) * step ** (path.k - 1)
