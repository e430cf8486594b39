"""Brute-force counting kernel.

The exhaustive subset-filter count (test every k-subset of a candidate
universe that holds the anchor, keep the R-connected ones) is the
independent oracle that the Redelmeier-growth enumerator in
:mod:`decorr.lattice` is checked against.  The universe for D=2, R=2, k=4
already has ~300 sites and ~5e6 subsets, so the filter runs in 2-D numpy
blocks: a Python loop fixes the middle rows of a subset, and one block holds
every first row below them against every last row above them.  Whether a
subset is connected is one lookup: its C(k,2) adjacency bits are a flat
index into a table over all graphs on k labelled vertices
(:func:`connected_graphs`), built once per count.  The table has 2^C(k,2)
entries, 32768 at k = 6 and 2^28 at k = 8, so counts stop at ``MAX_K``.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import DimensionError
from .lattice import _ball_offsets

MAX_K = 6  # largest k whose connectivity table is built


def reach_radius(R: int, k: int) -> int:
    """Any R-connected k-set through the origin fits in this l1 radius."""
    return 2 * R * max(k - 1, 0)


def universe_size(D: int, R: int, k: int) -> int:
    """Rows of :func:`build_universe`: the points of Z^D with l1 norm <= 2R(k-1)."""
    r = reach_radius(R, k)
    return sum(2**i * math.comb(D, i) * math.comb(r, i) for i in range(D + 1))


def build_universe(D: int, R: int, k: int) -> np.ndarray:
    """Candidate sites for connected k-sets through the origin, anchor first.

    Rows are the integer points of the unclipped l1 ball of radius 2R(k-1)
    around the origin; row 0 is the origin itself, the rest sorted
    lexicographically.
    """
    origin = (0,) * D
    ball = _ball_offsets(D, reach_radius(R, k))  # lexicographic, so sorted
    return np.array([origin] + [p for p in ball if p != origin], dtype=np.int64)


def adjacency(points: np.ndarray, R: int) -> np.ndarray:
    """Matrix (uint8, 0 or 1) of the pairwise relation l1(x, y) <= 2R.

    |Δx| is added up one axis at a time in the narrowest signed integer type
    that holds the l1 diameter of ``points``, so no m×m×D temporary is made.
    """
    pts = points - points.min(axis=0)  # every axis starts at 0
    dtype = np.result_type(np.int8, np.min_scalar_type(-int(pts.max(axis=0).sum())))
    dist = np.zeros((len(pts),) * 2, dtype=dtype)
    step = np.empty_like(dist)
    for x in pts.T.astype(dtype):
        np.subtract(x[:, None], x, out=step)
        dist += np.abs(step, out=step)
    del step  # before the comparison allocates its result
    return (dist <= 2 * R).view(np.uint8)


def _pairs(k: int) -> list[tuple[int, int]]:
    """The vertex pairs (p, q), p < q, of k vertices, by q and then p.

    In this (colex) order the pairs among the first j vertices come before
    every pair that involves a later vertex.
    """
    return [(p, q) for q in range(k) for p in range(q)]


def connected_graphs(k: int) -> np.ndarray:
    """Table of which graphs on k labelled vertices are connected.

    One axis of length 2 per vertex pair of :func:`_pairs`, indexed by
    whether that edge is present; an entry is True iff its graph is
    connected.  All 2^C(k,2) edge patterns are decided at once: each vertex
    gets its neighbours as a k-bit mask, and k-2 rounds of bit-smearing
    close the set of vertices reached from vertex 0.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k > MAX_K:
        raise DimensionError(f"a connectivity table for k = {k} exceeds the cap k <= {MAX_K}")
    pairs = _pairs(k)
    n = len(pairs)
    pattern = np.arange(1 << n)
    masks = [np.full(1 << n, 1 << p, dtype=np.uint8) for p in range(k)]
    for i, (p, q) in enumerate(pairs):
        # axis i of the (2,)*n table is bit n-1-i of the flat pattern
        edge = ((pattern >> (n - 1 - i)) & 1).astype(np.uint8)
        masks[p] |= edge << q
        masks[q] |= edge << p
    reach = masks[0]
    for _ in range(k - 2):
        new = reach
        for p in range(1, k):
            new = new | np.where(reach & (1 << p), masks[p], 0)
        reach = new
    return (reach == (1 << k) - 1).reshape((2,) * n)


def _edge_weight(p: int, q: int, k: int) -> np.intp:
    """Weight of the edge (p, q), p < q, in a flat index of ``connected_graphs(k)``."""
    return np.intp(1 << (math.comb(k, 2) - 1 - _pairs(k).index((p, q))))


def count_connected_ksubsets(points: np.ndarray, R: int, k: int) -> int:
    """Exhaustive count of R-connected k-subsets of ``points`` containing row 0.

    Every subset {0, r1 < ... < r_{k-1}} of rows is looked up in
    :func:`connected_graphs` -- no pruning, no generation trick; this is the
    slow, obviously-correct reference count.  The table's vertices are the
    anchor, the middle rows r2 ... r_{k-2}, then r1 and r_{k-1}, so the
    r1--r_{k-1} edge is the lowest bit of the flat index.  For each choice
    of middle rows (:func:`_count_blocks`), the indices of every r1 below
    them against every r_{k-1} above them are a constant, a column vector
    and a row vector (the edges of the anchor and the middle rows) plus the
    adjacency slice between r1 and r_{k-1}, added by broadcasting.  The
    adjacency stays uint8; only a block's slices are widened.  k = 3 has no
    middle row and counts row strips; k = 2 reads row 0.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        return 1
    table = connected_graphs(k).ravel()
    adj = adjacency(points, R)
    if k == 2:
        return int(np.count_nonzero(table[adj[0, 1:]]))
    if k == 3:
        # the index is 4·adj[0, r1] + 2·adj[0, r2] + adj[r1, r2], all in uint8
        by_first = table.reshape(2, 4)
        to_last = adj[0] << 1
        return sum(
            int(np.count_nonzero(by_first[adj[0, r1]][to_last[r1 + 1 :] + adj[r1, r1 + 1 :]]))
            for r1 in range(1, len(adj) - 1)
        )
    weights = [[_edge_weight(p, q, k) for p in range(q)] for q in range(k)]
    # the anchor's edges to every first and every last row, over rows 1..m-1
    col, row = (adj[0, 1:] * weights[q][0] for q in (k - 2, k - 1))
    return _count_blocks(adj, table, weights, [0], 0, col, row)


def _count_blocks(adj, table, weights, fixed, const, col, row) -> int:
    """Connected subsets whose middle rows begin with ``fixed[1:]``.

    ``fixed`` is the anchor and the middle rows chosen so far.  Their edges
    make up three parts of the flat index: ``const`` (among themselves),
    ``col`` (to each first row, from row 1 on) and ``row`` (to each row after
    ``fixed[-1]``); ``weights[q][p]`` is the weight of the edge between
    vertices p < q.  Each next middle row adds its edges to all three; once
    all are chosen, one block of indices covers every first and every last
    row.
    """
    k = len(weights)
    j, prev, m = len(fixed), fixed[-1], len(adj)
    first, last = weights[k - 2], weights[k - 1]
    total = 0
    # r leaves room for a first row below, later middle rows and a last row above
    for r in range(max(prev + 1, 2), m - (k - 2 - j)):
        lo = fixed[1] if j > 1 else r
        c = const + sum(w for p, w in enumerate(weights[j]) if adj[fixed[p], r])
        col_r = col[: lo - 1] + adj[r, 1:lo] * first[j]
        row_r = row[r - prev :] + adj[r, r + 1 :] * last[j]
        if j < k - 3:
            total += _count_blocks(adj, table, weights, [*fixed, r], c, col_r, row_r)
        else:
            block = col_r[:, None] + row_r
            block += adj[1:lo, r + 1 :]  # the r1--r_{k-1} edge
            total += int(np.count_nonzero(table[c:][block]))
    return total


def brute_force_connected_count(D: int, R: int, k: int) -> int:
    """Reference count of R-connected k-sets through the origin in Z^D."""
    return count_connected_ksubsets(build_universe(D, R, k), R, k)
