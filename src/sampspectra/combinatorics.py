"""Set partitions of {1..p} encoded as restricted-growth label paths.

A partition is carried as the sequence ``(w_1, ..., w_p)`` where ``w_i`` is
the index of the block containing element ``i`` and blocks are numbered by
first appearance, so ``w_1 = 1`` and ``w_{i+1} <= 1 + max(w_1..w_i)``.
Alongside lazy enumeration (:func:`iter_partition_paths`), the crossing test
and the classical counting sequences (Bell, Stirling, Narayana, Catalan),
this module implements the volume-preserving reduction rules that strip
singleton blocks and circularly adjacent repeats from a path. A path
that reduces to the empty path is exactly a non-crossing partition;
whatever survives reduction determines the path's volume coefficient (see
:mod:`sampspectra.volumes`).

A path that neither rule changes is a *core*: no singleton block and no two
circularly adjacent elements in one block. :func:`iter_cores` lists the
cores of one order. :func:`transition_multigraph` gives a path's transition
multigraph, whose edges join circularly consecutive labels, and
:func:`multigraph_class` names the isomorphism class of a core's, which is
all the volume depends on.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from numbers import Integral
from typing import Iterator, Sequence, Union

from .errors import check_integer

#: Largest order accepted by ``volume_exact`` and ``moment_expansion``: the
#: committed core-class table (:mod:`sampspectra._core_classes`) holds every
#: class of order at most 14. The binomial identity behind
#: ``moment_expansion`` is verified by enumeration through p = 13.
MAX_ORDER = 14

PathLike = Union["PartitionPath", Sequence[int]]


@dataclass(frozen=True)
class PartitionPath:
    """A set partition of {1..p} in restricted-growth encoding.

    ``labels`` may be empty (the partition of the empty set), which is the
    fixed point of :func:`reduce_path` for non-crossing partitions.
    """

    labels: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        running_max = 0
        for pos, v in enumerate(labels, start=1):
            if not isinstance(v, Integral) or v < 1:
                raise ValueError(f"label {v!r} at position {pos} is not a positive integer")
            if v > running_max + 1:
                raise ValueError(
                    f"label {v} at position {pos} breaks restricted growth "
                    f"(previous maximum is {running_max})"
                )
            running_max = max(running_max, v)
        object.__setattr__(self, "labels", tuple(map(int, labels)))

    @classmethod
    def of(cls, path: PathLike) -> "PartitionPath":
        if isinstance(path, cls):
            return path
        return cls(tuple(path))

    @property
    def p(self) -> int:
        return len(self.labels)

    @property
    def k(self) -> int:
        """Number of blocks (0 for the empty path)."""
        return max(self.labels) if self.labels else 0

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.labels) + "]"


def iter_partition_paths(p: int) -> Iterator[tuple]:
    """Yield every restricted-growth sequence of length ``p`` in lexicographic order."""
    check_integer("order", p, 0)
    if p == 0:
        yield ()
        return
    w = [1] * p
    mx = [1] * p  # mx[i] = max(w[0..i])
    while True:
        yield tuple(w)
        i = p - 1
        while i > 0 and w[i] == mx[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        w[i] += 1
        mx[i] = max(mx[i - 1], w[i])
        for j in range(i + 1, p):
            w[j] = 1
            mx[j] = mx[i]


# --- counting sequences ---------------------------------------------------


def stirling2(p: int, k: int) -> int:
    """Stirling number of the second kind: partitions of {1..p} into k blocks."""
    _check_pk(p, k)
    total = sum(
        (-1) ** i * math.comb(k, i) * (k - i) ** p for i in range(k + 1)
    )
    return total // math.factorial(k)


def bell(p: int) -> int:
    """Bell number: partitions of {1..p} into any number of blocks."""
    check_integer("order", p, 0)
    if p == 0:
        return 1
    return sum(stirling2(p, k) for k in range(1, p + 1))


def narayana(p: int, k: int) -> int:
    """Narayana number: non-crossing partitions of {1..p} into k blocks."""
    _check_pk(p, k)
    num = math.comb(p - 1, k - 1) * math.comb(p, k - 1)
    q, rem = divmod(num, k)
    assert rem == 0
    return q


def narayana_row(p: int) -> list:
    """Nar(p, 1..p) by the exact Nar(p, k+1) = Nar(p, k) (p-k)(p-k+1) / (k(k+1))."""
    _check_pk(p, 1)
    row = [1]
    for k in range(1, p):
        row.append(row[-1] * (p - k) * (p - k + 1) // (k * (k + 1)))
    return row


def catalan(p: int) -> int:
    """Catalan number: non-crossing partitions of {1..p}."""
    check_integer("order", p, 0)
    return math.comb(2 * p, p) // (p + 1)


def _check_pk(p, k):
    check_integer("order", p, 1)
    if not (isinstance(k, Integral) and 1 <= k <= p):
        raise ValueError(f"block count {k} out of range 1..{p}")


# --- crossing test --------------------------------------------------------


def is_crossing(path: PathLike) -> bool:
    """True when some a < b < c < d has a,c in one block and b,d in another."""
    w = PartitionPath.of(path).labels
    return any(
        w[a] == w[c] != w[b] == w[d]
        for a, b, c, d in itertools.combinations(range(len(w)), 4)
    )


# --- reduction ------------------------------------------------------------


@dataclass(frozen=True)
class ReductionStep:
    """One row of a reduction trace.

    ``rule``/``index`` describe the removal applied to ``path`` (1-based
    element index); both are None on the terminal step where no rule applies.
    """

    path: PartitionPath
    rule: int
    index: int


def _relabel(labels):
    """Renumber labels by first appearance so the result is restricted-growth."""
    seen = {}
    out = []
    for v in labels:
        if v not in seen:
            seen[v] = len(seen) + 1
        out.append(seen[v])
    return tuple(out)


def _find_singleton(labels):
    counts = {}
    for v in labels:
        counts[v] = counts.get(v, 0) + 1
    for pos, v in enumerate(labels, start=1):
        if counts[v] == 1:
            return pos
    return None


def _find_adjacency(labels):
    # Scan i = 2..p first and the wrap pair (p, 1) by its first element,
    # then i = 1. Removing position 1 forces a full relabel, so it is the
    # choice of last resort.
    p = len(labels)
    for i in range(2, p + 1):
        if labels[i - 1] == labels[i % p]:
            return i
    if p >= 2 and labels[0] == labels[1]:
        return 1
    return None


def reduction_trace(path: PathLike) -> list:
    """Apply the two reduction rules to exhaustion, recording every step.

    Rule 1 removes an element whose block is a singleton; rule 2 removes an
    element whose circular successor lies in the same block. Rule 1 is
    scanned first (lowest index), then rule 2, and the survivor is
    relabelled to canonical restricted-growth form after each removal. The
    final step carries the fully reduced path and no rule.
    """
    cur = PartitionPath.of(path)
    steps = []
    while True:
        idx = _find_singleton(cur.labels)
        rule = 1 if idx is not None else None
        if idx is None:
            idx = _find_adjacency(cur.labels)
            rule = 2 if idx is not None else None
        steps.append(ReductionStep(cur, rule, idx))
        if rule is None:
            return steps
        trimmed = cur.labels[: idx - 1] + cur.labels[idx:]
        cur = PartitionPath(_relabel(trimmed))


def reduce_path(path: PathLike) -> PartitionPath:
    """Fully reduced form of ``path``; empty exactly for non-crossing paths."""
    return reduction_trace(path)[-1].path


# --- cores and their classes -------------------------------------------------


def iter_cores(e: int) -> Iterator[tuple]:
    """Yield every core of order ``e`` (a path that :func:`reduce_path` keeps).

    Labels are grown in restricted-growth order, never repeating the
    previous one, and a branch stops once the blocks that still hold one
    element outnumber the positions left. Order 0 yields the empty path.
    """
    check_integer("order", e, 0)
    labels = []
    sizes = [0] * (e + 2)  # sizes[b] = elements placed in block b so far

    def grow(k, lonely):
        left = e - len(labels)
        if lonely > left:
            return
        if not left:
            if not labels or labels[-1] != 1:
                yield tuple(labels)
            return
        for v in range(1, k + 2):
            if labels and v == labels[-1]:
                continue
            sizes[v] += 1
            labels.append(v)
            yield from grow(max(k, v), lonely + (sizes[v] == 1) - (sizes[v] == 2))
            labels.pop()
            sizes[v] -= 1

    return grow(0, 0)


def transition_multigraph(labels: Sequence[int]) -> Counter:
    """Edge multiset of a path's transition multigraph.

    Maps each sorted block pair ``(a, b)``, a loop when ``a == b``, to the
    number of circularly consecutive label pairs that join blocks a and b,
    keyed in the order the walk first crosses them.
    """
    labels = tuple(labels)
    pairs = zip(labels, labels[1:] + labels[:1])
    return Counter((a, b) if a <= b else (b, a) for a, b in pairs)


def multigraph_class(labels: Sequence[int]) -> tuple:
    """Isomorphism class of the transition multigraph of a core.

    The multigraph (:func:`transition_multigraph`) has one vertex per label
    and one edge per circularly consecutive label pair, with no loops in a
    core. The class is the least sorted ``(i, j, multiplicity)`` edge list
    over the relabellings of the vertices to 0..n-1 that order them by an
    isomorphism-invariant colour (:func:`_canonical_form`); the empty core
    gives ``()``. Other paths must be reduced first (:func:`reduce_path`).
    """
    edges = transition_multigraph(labels)
    return _canonical_form(tuple(sorted((a - 1, b - 1, m) for (a, b), m in edges.items())))


@functools.lru_cache(maxsize=None)
def _canonical_form(edges: tuple) -> tuple:
    """Least relabelled edge list of a graph on vertices 0..n-1.

    Every isomorphism preserves a vertex's colour: its degree and the
    sorted (neighbour degree, multiplicity) pairs of its edges. So only
    relabellings that sort vertices by colour are tried, permuting within
    each colour group. A core of order e has at most e/2 vertices, so at
    e <= 14 this is at most 7! orderings. Memoized, because many cores
    share one labelled multigraph.
    """
    degree = {}
    for u, w, m in edges:
        degree[u] = degree.get(u, 0) + m
        degree[w] = degree.get(w, 0) + m
    links = {v: [] for v in degree}
    for u, w, m in edges:
        links[u].append((degree[w], m))
        links[w].append((degree[u], m))
    colour = {v: (degree[v], tuple(sorted(links[v]))) for v in degree}
    by_colour = sorted(degree, key=colour.get)
    groups = [list(g) for _, g in itertools.groupby(by_colour, key=colour.get)]

    def relabelled(ordering):
        index = {v: i for i, v in enumerate(itertools.chain.from_iterable(ordering))}
        return tuple(sorted(
            (min(index[u], index[w]), max(index[u], index[w]), m) for u, w, m in edges
        ))

    return min(map(relabelled, itertools.product(*map(itertools.permutations, groups))))
