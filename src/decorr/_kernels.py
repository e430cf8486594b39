"""Brute-force counting kernel.

The exhaustive subset-filter count (iterate every k-subset of a candidate
universe, keep the R-connected ones through the anchor) is the independent
oracle that the canonical-growth enumerator in :mod:`decorr.lattice` is
checked against.  The universe for D=2, R=2, k=4 already has ~300 sites and
~5e6 subsets, so the inner loop works on integer bitmasks.
"""

from __future__ import annotations

import itertools

import numpy as np


def reach_radius(R: int, k: int) -> int:
    """Any R-connected k-set through the origin fits in this l1 radius."""
    return 2 * R * max(k - 1, 0)


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


def _count_py(adj: np.ndarray, k: int) -> int:
    m = adj.shape[0]
    if k == 1:
        return 1
    # adjacency rows as int bitmasks; reachability closure by bit-smearing
    masks = [int.from_bytes(np.packbits(adj[i], bitorder="little").tobytes(), "little") for i in range(m)]
    total = 0
    for comb in itertools.combinations(range(1, m), k - 1):
        subset = 1
        for i in comb:
            subset |= 1 << i
        reach = 1
        while True:
            new = reach
            mm = reach
            while mm:
                low = mm & (-mm)
                new |= masks[low.bit_length() - 1] & subset
                mm ^= low
            if new == reach:
                break
            reach = new
        if reach == subset:
            total += 1
    return total


def count_connected_ksubsets(points: np.ndarray, R: int, k: int) -> int:
    """Exhaustive count of R-connected k-subsets of ``points`` containing row 0.

    Every (k-1)-combination of the remaining rows is tested for chain
    connectivity together with the anchor -- no pruning, no generation trick;
    this is the slow, obviously-correct reference count.
    """
    if k < 1:
        raise ValueError("k must be positive")
    return _count_py(adjacency(points, R), k)


def brute_force_connected_count(D: int, R: int, k: int) -> int:
    """Reference count of R-connected k-sets through the origin in Z^D."""
    return count_connected_ksubsets(build_universe(D, R, k), R, k)
