"""Brute-force counting kernel, cross-checked against a maximally dumb reference."""

import itertools
import tracemalloc

import numpy as np
import pytest

from decorr._kernels import (
    MAX_K,
    adjacency,
    brute_force_connected_count,
    build_universe,
    connected_graphs,
    count_connected_ksubsets,
    reach_radius,
    universe_size,
)
from decorr.algebra import DimensionError

# frozen counts of R-connected k-sets through the origin in Z^D
FREE_COUNTS = {
    (1, 1): [1, 4, 12, 32],
    (1, 2): [1, 8, 48, 256],
    (2, 1): [1, 12, 138, 1564],
}


def test_reach_radius():
    assert reach_radius(1, 1) == 0
    assert reach_radius(1, 4) == 6
    assert reach_radius(2, 3) == 8


def test_build_universe_shape():
    pts = build_universe(2, 1, 3)
    assert tuple(pts[0]) == (0, 0)
    r = reach_radius(1, 3)
    norms = np.abs(pts).sum(axis=1)
    assert norms.max() <= r
    # no duplicates, rest sorted lexicographically
    rows = [tuple(p) for p in pts]
    assert len(rows) == len(set(rows))
    assert rows[1:] == sorted(rows[1:])


@pytest.mark.parametrize("D, R, k", [(1, 1, 1), (1, 2, 4), (2, 1, 3), (2, 2, 4), (3, 1, 3)])
def test_universe_size_is_closed_form_of_build_universe(D, R, k):
    assert universe_size(D, R, k) == len(build_universe(D, R, k))


def test_adjacency_symmetric_reflexive():
    pts = build_universe(1, 1, 3)
    adj = adjacency(pts, 1)
    assert np.array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 1)
    i = [tuple(p) for p in pts].index((2,))
    j = [tuple(p) for p in pts].index((-1,))
    assert adj[0, i] == 1  # distance 2 <= 2R
    assert adj[i, j] == 0  # distance 3 > 2R


@pytest.mark.parametrize("D, R, k", [(3, 1, 3), (1, 40, 3), (2, 2, 2)])
def test_adjacency_matches_the_dense_l1_distance(D, R, k):
    # summed one axis at a time in int8 (D = 3) or int16 (D = 1, diameter 320);
    # a shift of every point leaves every distance as it is
    pts = build_universe(D, R, k)
    dense = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=-1) <= 2 * R
    assert np.array_equal(adjacency(pts, R), dense)
    assert np.array_equal(adjacency(pts + 10**6, R), dense)


def _count_reference(pts, R, k):
    """Third, maximally dumb implementation for cross-checking the kernels."""
    if k == 1:
        return 1
    sites = [tuple(int(c) for c in p) for p in pts]
    m = len(sites)
    total = 0
    for comb in itertools.combinations(range(1, m), k - 1):
        nodes = [0, *comb]
        seen = {0}
        frontier = [0]
        while frontier:
            u = frontier.pop()
            for v in nodes:
                if v not in seen and sum(abs(a - b) for a, b in zip(sites[u], sites[v])) <= 2 * R:
                    seen.add(v)
                    frontier.append(v)
        if len(seen) == k:
            total += 1
    return total


# k = 2 reads row 0, k = 3 counts row strips, and k = 4, 5, 6 fix 1, 2, 3
# middle rows per block of first rows against last rows
@pytest.mark.parametrize(
    "D,R,k",
    [
        (1, 1, 2), (2, 1, 2),
        (1, 1, 3), (1, 2, 3), (2, 1, 3), (3, 1, 3),
        (1, 1, 4), (1, 2, 4), (2, 1, 4), (1, 3, 4),
        (1, 1, 5),
        (1, 1, 6),
    ],
)
def test_python_path_matches_reference(D, R, k):
    pts = build_universe(D, R, k)
    assert count_connected_ksubsets(pts, R, k) == _count_reference(pts, R, k)


@pytest.mark.parametrize("D,R,k", [(2, 1, 3), (2, 1, 4), (1, 2, 5), (1, 1, 6)])
def test_count_does_not_depend_on_the_row_order(D, R, k):
    # which rows are first, middle and last in a block follows the row
    # order; any order of the rows after the anchor gives the same count
    pts = build_universe(D, R, k)
    expected = count_connected_ksubsets(pts, R, k)
    rng = np.random.default_rng(k)
    for _ in range(3):
        shuffled = np.concatenate([pts[:1], rng.permutation(pts[1:])])
        assert count_connected_ksubsets(shuffled, R, k) == expected


@pytest.mark.parametrize("D,R,k", [(3, 3, 2), (1, 40, 3)])
def test_brute_force_peak_memory_is_at_most_two_int64_squares(D, R, k):
    # no m×m×D int64 distance temporary, and no m×m index square at k = 3
    m = universe_size(D, R, k)
    tracemalloc.start()
    try:
        brute_force_connected_count(D, R, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * m * m


def test_brute_force_frozen_values():
    for (D, R), vals in FREE_COUNTS.items():
        for k, expected in enumerate(vals, start=1):
            assert brute_force_connected_count(D, R, k) == expected


def test_k_validation():
    pts = build_universe(1, 1, 2)
    with pytest.raises(ValueError):
        count_connected_ksubsets(pts, 1, 0)
    with pytest.raises(ValueError):
        count_connected_ksubsets(pts, 1, MAX_K + 1)


def test_k_over_the_table_cap_is_a_size_cap():
    # like every other size cap, and still a ValueError
    with pytest.raises(DimensionError, match="k <= 6"):
        brute_force_connected_count(1, 1, 7)


def test_connected_graph_table_counts():
    # connected labelled graphs on k vertices, OEIS A001187
    counts = [int(np.count_nonzero(connected_graphs(k))) for k in range(1, MAX_K + 1)]
    assert counts == [1, 1, 4, 38, 728, 26704]


@pytest.mark.parametrize("k", [0, -1])
def test_a_connectivity_table_needs_a_vertex(k):
    with pytest.raises(ValueError, match="^k must be positive$"):
        connected_graphs(k)
