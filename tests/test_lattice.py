"""Geometry layer: metric, balls, interior/closure, connectivity, counting."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decorr as dc
from decorr.lattice import (
    LatticeGeometry,
    Region,
    ball,
    box_geometry,
    canonical_site_order,
    chain_geometry,
    closure,
    connected_components,
    count_connected_sets,
    counting_bound,
    counting_constant,
    enumerate_connected_sets,
    interior,
    l1_distance,
    r_connected,
    r_connected_set,
    set_distance,
    supercluster_decompose,
)

sites_1d = st.lists(
    st.integers(-8, 8).map(lambda v: (v,)), min_size=1, max_size=8, unique=True
)


def test_l1_distance():
    assert l1_distance((0,), (3,)) == 3
    assert l1_distance((1, 2), (4, -1)) == 6
    assert l1_distance((5,), (5,)) == 0
    with pytest.raises(ValueError):
        l1_distance((0,), (0, 0))


def test_set_distance():
    A = Region([(0,), (1,)])
    B = Region([(4,), (9,)])
    assert set_distance(A, B) == 3
    assert set_distance(A, A) == 0
    with pytest.raises(ValueError):
        set_distance(Region(), A)


def test_region_is_sorted_and_unique():
    r = Region([(3,), (1,), (3,)])
    assert tuple(r) == ((1,), (3,))
    assert r.index_of((3,)) == 1
    assert (1,) in r._set
    assert r | Region([(2,)]) == Region([(1,), (2,), (3,)])
    assert r - Region([(1,)]) == Region([(3,)])
    assert (r & Region([(3,), (5,)])) == Region([(3,)])
    assert r.issubset(Region([(0,), (1,), (3,)]))
    assert r.isdisjoint(Region([(2,)]))


def test_region_json_roundtrip():
    r = Region([(2, -1), (0, 3)])
    assert Region.from_json(r.to_json()) == r
    assert Region.from_json([]) == Region()


@given(sites_1d)
def test_region_set_semantics(sites):
    r = Region(sites)
    assert tuple(r) == tuple(sorted(set(sites)))
    assert Region(tuple(r)) == r


def test_chain_and_box_geometry():
    g = chain_geometry(5, 1)
    assert g.D == 1 and g.R == 1
    assert tuple(g.sites) == tuple((i,) for i in range(5))
    b = box_geometry((2, 3), 1)
    assert b.D == 2
    assert len(b.sites) == 6


def test_ball_clipping():
    g = chain_geometry(5, 1)
    assert ball((0,), 1, g) == Region([(0,), (1,)])
    assert ball((0,), 1, g, clip=False) == Region([(-1,), (0,), (1,)])
    assert ball((2,), 1, g) == Region([(1,), (2,), (3,)])
    # l1 ball sizes: 2r+1 in D=1, 2r^2+2r+1 in D=2
    b2 = box_geometry((9, 9), 2)
    assert len(ball((4, 4), 1, b2)) == 5
    assert len(ball((4, 4), 2, b2)) == 13


def test_interior_closure_hand_values():
    g = chain_geometry(8, 1)
    lam = g.sites
    assert interior(lam, g) == Region([(i,) for i in range(1, 7)])
    assert closure(Region([(3,)]), g) == Region([(2,), (3,), (4,)])
    assert closure(Region([(0,)]), g) == Region([(0,), (1,)])
    assert interior(Region(), g) == Region()
    with pytest.raises(ValueError):
        interior(Region([(99,)]), g)
    with pytest.raises(ValueError):
        closure(Region([(99,)]), g)


@given(st.sets(st.integers(0, 7), min_size=0, max_size=8))
def test_interior_subset_closure(ids):
    g = chain_geometry(8, 1)
    M = Region([(i,) for i in ids])
    assert interior(M, g).issubset(M)
    assert M.issubset(closure(M, g))
    # closure is idempotent-monotone: closing again never shrinks
    assert closure(M, g).issubset(closure(closure(M, g), g))


@given(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.integers(1, 2),
)
def test_r_connected_iff_balls_intersect(x, y, R):
    g = LatticeGeometry(2, R, Region([x, y]))
    bx = ball(x, R, g, clip=False)
    by = ball(y, R, g, clip=False)
    assert r_connected(x, y, R) == (not bx.isdisjoint(by))
    assert r_connected(x, y, R) == (l1_distance(x, y) <= 2 * R)


def test_r_connected_set_and_components():
    assert r_connected_set(Region([(0,), (2,), (4,)]), 1)
    assert not r_connected_set(Region([(0,), (3,)]), 1)
    assert r_connected_set(Region([(0,), (3,)]), 2)
    assert r_connected_set(Region(), 1)
    comps = connected_components(Region([(0,), (1,), (5,), (7,)]), 1)
    assert comps == (Region([(0,), (1,)]), Region([(5,), (7,)]))


def test_supercluster_decompose_merging_and_provenance():
    I = Region([(1,)])
    J = Region([(5,)])
    X = Region([(0,)])
    Y = Region([(7,)])
    dec = supercluster_decompose([I, J, X, Y], 1)
    assert len(dec.components) == 2
    assert dec.component_of((0,)) == dec.component_of((1,))
    assert dec.component_of((5,)) == dec.component_of((7,))
    assert dec.in_different_components(X, Y)
    assert not dec.in_different_components(X, I)


def test_supercluster_decompose_order_independent():
    parts = [Region([(1,)]), Region([(4,)]), Region([(2,)]), Region([(9,)])]
    a = supercluster_decompose(parts, 1)
    b = supercluster_decompose(list(reversed(parts)), 1)
    assert a.components == b.components
    # re-decomposing the components reproduces them
    c = supercluster_decompose(list(a.components), 1)
    assert c.components == a.components


def test_canonical_site_order_greedy():
    S = Region([(0,), (2,), (4,)])
    assert canonical_site_order(S, (0,), 1) == ((0,), (2,), (4,))
    # every prefix of the canonical order is itself canonically ordered
    seq = canonical_site_order(Region([(0,), (1,), (2,), (3,)]), (0,), 1)
    for m in range(1, len(seq)):
        assert canonical_site_order(Region(seq[:m]), (0,), 1) == seq[:m]


def _brute_connected_through(v1, k, geometry):
    """Independent oracle: filter all k-subsets of the lattice."""
    out = []
    rest = [s for s in geometry.sites if s != v1]
    for comb in itertools.combinations(rest, k - 1):
        S = Region((v1,) + comb)
        if r_connected_set(S, geometry.R):
            out.append(S)
    return sorted(out)


@pytest.mark.parametrize("n,R,k", [(9, 1, 2), (9, 1, 3), (9, 2, 2), (7, 1, 4)])
def test_enumerate_matches_subset_filter(n, R, k):
    g = chain_geometry(n, R)
    v1 = g.sites[n // 2]
    got = sorted(enumerate_connected_sets(v1, k, g))
    assert got == _brute_connected_through(v1, k, g)


@pytest.mark.parametrize(
    "extent,R,v1,k",
    [((4, 4), 1, (0, 0), 4), ((4, 4), 1, (1, 2), 4), ((4, 5), 2, (0, 3), 3)],
    ids=["corner-R1-k4", "interior-R1-k4", "edge-R2-k3"],
)
def test_enumerate_matches_subset_filter_on_clipped_box(extent, R, v1, k):
    # corner and edge anchors see the box edges cut their 2R-balls
    g = box_geometry(extent, R)
    sets = enumerate_connected_sets(v1, k, g)
    assert len(sets) == len(set(sets))
    assert sorted(sets) == _brute_connected_through(v1, k, g)
    for S in sets:
        assert canonical_site_order(S, v1, R)[0] == v1


def test_enumerate_respects_lattice_clipping():
    g = chain_geometry(9, 1)
    got = {tuple(s) for s in enumerate_connected_sets((0,), 2, g)}
    # anchor at the edge: only right-hand partners survive
    assert got == {((0,), (1,)), ((0,), (2,))}


def test_enumerate_all_contain_anchor_and_connected():
    g = box_geometry((5, 5), 1)
    v1 = (2, 2)
    sets = enumerate_connected_sets(v1, 3, g)
    assert len(sets) == len({tuple(s) for s in sets})
    for S in sets:
        assert v1 in S._set
        assert r_connected_set(S, 1)
    assert count_connected_sets(v1, 3, g) == len(sets)


def test_counting_bounds_order():
    # exact binomial-type bound is never above the simplified exponential one
    for D, R, k in itertools.product((1, 2), (1, 2), (1, 2, 3, 4)):
        exact = counting_bound(k, D, R)
        simple = counting_bound(k, D, R, simplified=True)
        assert exact <= simple + 1e-9
        assert simple == pytest.approx(counting_constant(D, R) ** (k - 1))


def test_counting_bound_dominates_free_lattice_count():
    from decorr._kernels import brute_force_connected_count

    for D, R, k in itertools.product((1, 2), (1,), (1, 2, 3)):
        assert brute_force_connected_count(D, R, k) <= counting_bound(k, D, R)
