"""Brute-force counting kernel.

The exhaustive subset-filter count (iterate every k-subset of a candidate
universe, keep the R-connected ones through the anchor) is the independent
oracle that the canonical-growth enumerator in :mod:`decorr.lattice` is
checked against.  The universe for D=2, R=2, k=4 already has ~300 sites and
~5e6 subsets, so the filter runs in numpy chunks: a Python loop fixes all
but the last two chosen rows, and one chunk holds every pair of rows after
them.  Each subset in a chunk gets its local adjacency as k-bit row masks,
reachability from the anchor is closed by k-1 rounds of bit-smearing, and
the subsets whose reach covers all k bits are counted.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


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


def count_connected_ksubsets(points: np.ndarray, R: int, k: int) -> int:
    """Exhaustive count of R-connected k-subsets of ``points`` containing row 0.

    Every (k-1)-combination of the remaining rows is tested for chain
    connectivity together with the anchor -- no pruning, no generation trick;
    this is the slow, obviously-correct reference count.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        return 1
    full = (1 << k) - 1
    adj = adjacency(points, R).astype(np.min_scalar_type(full), copy=False)
    m = adj.shape[0]
    n_tail = min(k - 1, 2)
    total = 0
    for head in itertools.combinations(range(1, m), k - 1 - n_tail):
        lo = (head[-1] if head else 0) + 1
        if n_tail == 2:
            tail = [t + lo for t in np.triu_indices(m - lo, 1)]
        else:
            tail = [np.arange(lo, m)]
        # one entry per bit: fixed rows as ints, the chunk's rows as arrays
        rows = [0, *head, *tail]
        masks = [adj.dtype.type(1 << p) for p in range(k)]
        for p, q in itertools.combinations(range(k), 2):
            bit = adj[rows[p], rows[q]]
            masks[p] = masks[p] | (bit << q)
            masks[q] = masks[q] | (bit << p)
        reach = masks[0]
        for _ in range(k - 2):
            new = reach
            for p in range(1, k):
                new = new | np.where(reach & (1 << p), masks[p], 0)
            reach = new
        total += int(np.count_nonzero(reach == full))
    return total


def brute_force_connected_count(D: int, R: int, k: int) -> int:
    """Reference count of R-connected k-sets through the origin in Z^D."""
    return count_connected_ksubsets(build_universe(D, R, k), R, k)
