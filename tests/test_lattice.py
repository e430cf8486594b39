"""Geometry layer: metric, balls, interior/closure, connectivity, counting."""

import gc
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decorr as dc
from decorr.lattice import (
    LatticeGeometry,
    Region,
    _integer,
    _real,
    ball,
    box_geometry,
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

WIDE_SQUARE = Region(itertools.product(range(-7, 8), repeat=2))

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
    # a site listed twice is refused, not merged
    with pytest.raises(ValueError, match=r"^site \[2, -1\] is listed twice$"):
        Region.from_json([[2, -1], [0, 3], [2, -1]])


def test_config_numbers_are_real_numbers():
    # numpy numbers are numbers; a bool or a numeric string is not, though
    # int() and float() take them
    assert _integer(np.int64(3)) == _integer(3.0) == 3
    assert type(_integer(np.int64(3))) is int
    assert _real(np.float32(0.5)) == _real(1) - 0.5 == 0.5
    for bad in (True, np.True_, "1", "1.0", None, [1]):
        with pytest.raises(TypeError):
            _integer(bad)
        with pytest.raises(TypeError):
            _real(bad)
    with pytest.raises(ValueError, match="is not an integer"):
        _integer(np.float32(1.5))
    with pytest.raises(TypeError):
        Region.from_json([[0], [True]])


@given(sites_1d)
def test_region_set_semantics(sites):
    r = Region(sites)
    assert tuple(r) == tuple(sorted(set(sites)))
    assert Region(tuple(r)) == r


sites_2d = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=10)


@given(sites_2d, sites_2d)
def test_region_operations_match_construction(a, b):
    # set operations between two Regions skip re-normalizing their sites;
    # each result must be the Region built from the same sites
    A, B = Region(a), Region(b)
    for got, sites in (
        (A | B, set(a) | set(b)),
        (A & B, set(a) & set(b)),
        (A - B, set(a) - set(b)),
    ):
        want = Region(sites)
        assert type(got) is Region
        assert tuple(got) == tuple(want) and got._set == want._set
        assert hash(got) == hash(want)


def test_region_normalizes_int_and_numpy_sites():
    r = Region([0, np.int64(2), (1,), (np.int32(2),)])
    assert tuple(r) == ((0,), (1,), (2,))
    assert all(type(c) is int for site in r for c in site)
    assert all(type(c) is int for site in r._set for c in site)
    assert json.loads(json.dumps(r.to_json())) == [[0], [1], [2]]


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
    # a lattice that covers the ball clips nothing
    wide = LatticeGeometry(1, 1, Region((i,) for i in range(-7, 8)))
    assert ball((0,), 1, wide) == Region([(-1,), (0,), (1,)])
    assert ball((2,), 1, g) == Region([(1,), (2,), (3,)])
    # l1 ball sizes: 2r+1 in D=1, 2r^2+2r+1 in D=2
    b2 = box_geometry((9, 9), 2)
    assert len(ball((4, 4), 1, b2)) == 5
    assert len(ball((4, 4), 2, b2)) == 13


@pytest.mark.parametrize("D", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
@pytest.mark.parametrize("clipped", [True, False])
@pytest.mark.parametrize("corner", ["low", "high"])
def test_ball_equals_region_of_l1_filter(D, r, clipped, corner):
    # ball() builds its Region as given; it must be the Region that
    # normalizing the brute-force l1 filter gives, in order, set and hash.
    # The 4^D box clips the ball at its corners; [-7, 7]^D clips nothing.
    side = range(4) if clipped else range(-7, 8)
    g = LatticeGeometry(D, 1, Region(itertools.product(side, repeat=D)))
    x = (0,) * D if corner == "low" else (3,) * D
    box = itertools.product(*(range(c - r, c + r + 1) for c in x))
    want = Region(p for p in box if l1_distance(x, p) <= r and p in g.sites)
    got = ball(x, r, g)
    assert type(got) is Region
    assert tuple(got) == tuple(want) and got._set == want._set
    assert hash(got) == hash(want)


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
    # [-7, 7]^2 covers both balls, so neither is clipped
    g = LatticeGeometry(2, R, WIDE_SQUARE)
    bx = ball(x, R, g)
    by = ball(y, R, g)
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
        assert v1 in S
        # the enumerator builds its Regions without re-normalizing the sites
        assert type(S) is Region and S == Region(S) and S._set == Region(S)._set


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


@pytest.mark.parametrize(
    "geometry,v1,k_max",
    [
        (chain_geometry(9, 1), (4,), 5),
        (chain_geometry(9, 2), (0,), 4),
        (box_geometry((4, 5), 1), (0, 0), 4),
        (box_geometry((4, 5), 1), (0, 2), 4),
        (box_geometry((4, 5), 2), (2, 2), 3),
        (box_geometry((3, 3, 3), 1), (1, 1, 1), 4),
    ],
    ids=["chain-R1", "chain-R2-end", "box-corner", "box-edge", "box-interior-R2", "box-D3"],
)
def test_count_equals_enumeration(geometry, v1, k_max):
    for k in range(1, k_max + 1):
        sets = enumerate_connected_sets(v1, k, geometry)
        assert count_connected_sets(v1, k, geometry) == len(sets)


def test_count_builds_no_region_per_set(monkeypatch):
    # the growth keeps its neighbour lists as plain site lists: the count
    # builds no Region at all, and the enumerator one per set
    g = box_geometry((5, 5), 1)
    canonical = Region.__dict__["_canonical"].__func__
    new = Region.__new__
    calls = []

    def counted_canonical(cls, sites):
        calls.append(sites)
        return canonical(cls, sites)

    def counted_new(cls, sites=()):
        calls.append(sites)
        return new(cls, sites)

    monkeypatch.setattr(Region, "_canonical", classmethod(counted_canonical))
    monkeypatch.setattr(Region, "__new__", staticmethod(counted_new))
    n_sets = len(enumerate_connected_sets((2, 2), 4, g))
    assert len(calls) == n_sets
    calls.clear()
    assert count_connected_sets((2, 2), 4, g) == n_sets
    assert calls == []


def test_connected_set_walks_leave_no_cyclic_garbage():
    # the growth holds no self-referencing closure, so reference counting
    # frees all it builds and the collector finds nothing left over
    g = box_geometry((5, 5), 1)
    gc.collect()
    gc.disable()
    try:
        count_connected_sets((2, 2), 4, g)
        enumerate_connected_sets((2, 2), 3, g)
        assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def _anchored_boxes(draw):
    extent = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    g = box_geometry(extent, draw(st.sampled_from((1, 2))))
    # the subset filter tries C(n-1, k-1) sets at ~30 us each, so k is
    # drawn up to the largest k <= 4 that keeps this at most 3000: every
    # k <= 4 on boxes of up to 27 sites, k <= 3 on the larger ones
    n = len(g.sites)
    k_max = max(k for k in range(1, 5) if math.comb(n - 1, k - 1) <= 3000)
    return g, draw(st.sampled_from(g.sites)), draw(st.integers(1, k_max))


@settings(max_examples=40, deadline=None)
@given(_anchored_boxes())
def test_growth_matches_subset_filter_on_random_boxes(case):
    # any anchor, corners and edges included, where the box clips the balls
    g, v1, k = case
    sets = enumerate_connected_sets(v1, k, g)
    assert len(set(sets)) == len(sets)
    assert sorted(sets) == _brute_connected_through(v1, k, g)
    assert count_connected_sets(v1, k, g) == len(sets)


@pytest.mark.parametrize("fn", [enumerate_connected_sets, count_connected_sets])
def test_connected_set_argument_errors(fn):
    g = chain_geometry(5, 1)
    with pytest.raises(ValueError, match="anchor site is not in the lattice"):
        fn((7,), 2, g)
    with pytest.raises(ValueError, match="k must be positive"):
        fn((2,), 0, g)


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
