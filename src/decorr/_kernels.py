"""Brute-force counting kernel.

The exhaustive subset-filter count (iterate every k-subset of a candidate
universe, keep the R-connected ones through the anchor) is the independent
oracle that the Redelmeier-growth enumerator in :mod:`decorr.lattice` is
checked against.  The universe for D=2, R=2, k=4 already has ~300 sites and
~5e6 subsets, so the filter runs in numpy chunks: a Python loop fixes all
but the last two chosen rows, and one chunk holds every pair of rows after
them.  Whether a subset is connected is one lookup: its C(k,2) adjacency
bits index a table over all graphs on k labelled vertices
(:func:`connected_graphs`), built once per count.  The table has 2^C(k,2)
entries, 32768 at k = 6 and 2^28 at k = 8, so counts stop at ``MAX_K``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .algebra import DimensionError

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
    r = reach_radius(R, k)
    pts = [
        p
        for p in itertools.product(range(-r, r + 1), repeat=D)
        if sum(abs(c) for c in p) <= r and any(c != 0 for c in p)
    ]
    pts.sort()
    return np.array([(0,) * D] + pts, dtype=np.int64)


def adjacency(points: np.ndarray, R: int) -> np.ndarray:
    """Boolean matrix of the pairwise relation l1(x, y) <= 2R."""
    diff = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=-1)
    return (diff <= 2 * R).astype(np.uint8)


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


def count_connected_ksubsets(points: np.ndarray, R: int, k: int) -> int:
    """Exhaustive count of R-connected k-subsets of ``points`` containing row 0.

    Every (k-1)-combination of the remaining rows is tested for chain
    connectivity together with the anchor -- no pruning, no generation trick;
    this is the slow, obviously-correct reference count.  The edges among
    the anchor and the rows the loop fixes pick a sub-table of
    :func:`connected_graphs`; in a chunk, each tail row's edges to those
    rows are packed into one index, and two tail rows add their own edge.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        return 1
    adj = adjacency(points, R)
    m = adj.shape[0]
    n_fixed = max(k - 2, 1)  # the anchor and the rows the loop fixes
    n_tail = k - n_fixed
    # In the colex pair order the edges among the fixed rows come first,
    # then each tail row's edges to the fixed rows, then the tail rows' edge.
    shape = (2,) * math.comb(n_fixed, 2) + (1 << n_fixed,) * n_tail + (2,) * (n_tail - 1)
    table = connected_graphs(k).reshape(shape)
    fixed_pairs = _pairs(n_fixed)
    weight = 2 ** np.arange(n_fixed - 1, -1, -1, dtype=np.uint8)  # first fixed row highest
    # The tails of all chunks: every pair of rows a < b (np.triu_indices lists
    # them by ascending a), or every single row for k = 2.  The tails after
    # the last fixed row are a suffix of that list.
    tail = list(np.triu_indices(m, 1)) if n_tail == 2 else [np.arange(m)]
    tail_edge = [adj[tail[0], tail[1]]] if n_tail == 2 else []
    total = 0
    for head in itertools.combinations(range(1, m), n_fixed - 1):
        fixed = [0, *head]
        start = np.searchsorted(tail[0], fixed[-1] + 1)
        sub = table[tuple(adj[fixed[p], fixed[q]] for p, q in fixed_pairs)]
        code = weight @ adj[fixed]
        index = [code[t[start:]] for t in tail] + [e[start:] for e in tail_edge]
        total += int(np.count_nonzero(sub[tuple(index)]))
    return total


def brute_force_connected_count(D: int, R: int, k: int) -> int:
    """Reference count of R-connected k-sets through the origin in Z^D."""
    return count_connected_ksubsets(build_universe(D, R, k), R, k)
