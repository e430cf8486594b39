"""Finite lattice geometry: regions, l1 balls, connectivity, superclusters.

Sites are integer tuples in Z^D.  All distances are l1 (graph metric of the
hypercubic lattice).  A set is R-connected when its sites can be chained with
steps of l1 length at most 2R, i.e. when the radius-R balls around its sites
form a connected cover.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

Site = tuple[int, ...]


def _as_site(x) -> Site:
    if isinstance(x, int):
        return (x,)
    return tuple(int(c) for c in x)


class Region(tuple):
    """Immutable set of lattice sites, stored in sorted (lexicographic) order.

    Behaves as a tuple of sites for iteration/indexing and supports the usual
    set operations.  Canonical order matters: serialization, PRNG draws and
    tensor-leg ordering all follow the sorted site list.
    """

    def __new__(cls, sites: Iterable = ()):
        norm = sorted({_as_site(s) for s in sites})
        return super().__new__(cls, norm)

    def __init__(self, sites: Iterable = ()):
        self._set = frozenset(self)

    # -- set algebra -------------------------------------------------------
    def __contains__(self, site) -> bool:
        return _as_site(site) in self._set

    def __or__(self, other) -> "Region":
        return Region(itertools.chain(self, other))

    def __and__(self, other) -> "Region":
        o = other._set if isinstance(other, Region) else set(map(_as_site, other))
        return Region(s for s in self if s in o)

    def __sub__(self, other) -> "Region":
        o = other._set if isinstance(other, Region) else set(map(_as_site, other))
        return Region(s for s in self if s not in o)

    def issubset(self, other) -> bool:
        o = other._set if isinstance(other, Region) else set(map(_as_site, other))
        return self._set <= o

    def isdisjoint(self, other) -> bool:
        o = other._set if isinstance(other, Region) else set(map(_as_site, other))
        return self._set.isdisjoint(o)

    def index_of(self, site) -> int:
        return tuple.index(self, _as_site(site))

    # -- serialization -----------------------------------------------------
    def to_json(self) -> list[list[int]]:
        return [list(s) for s in self]

    @classmethod
    def from_json(cls, data) -> "Region":
        return cls(tuple(int(c) for c in s) for s in data)

    def __repr__(self) -> str:
        return f"Region({list(self)})"


@dataclass(frozen=True)
class LatticeGeometry:
    """A finite region Lambda of Z^D together with the interaction radius R."""

    D: int
    R: int
    sites: Region

    def __post_init__(self):
        if self.D < 1 or self.R < 1:
            raise ValueError("dimension and radius must be positive")
        for s in self.sites:
            if len(s) != self.D:
                raise ValueError(f"site {s} has wrong dimension (expected {self.D})")

    def __contains__(self, site) -> bool:
        return site in self.sites

    def __len__(self) -> int:
        return len(self.sites)


def chain_geometry(n: int, R: int = 1) -> LatticeGeometry:
    """Open chain 0..n-1 in one dimension."""
    return LatticeGeometry(D=1, R=R, sites=Region((i,) for i in range(n)))


def box_geometry(extent: Sequence[int], R: int = 1) -> LatticeGeometry:
    """Full box prod_i {0..extent_i - 1}."""
    sites = Region(itertools.product(*(range(e) for e in extent)))
    return LatticeGeometry(D=len(extent), R=R, sites=sites)


# ---------------------------------------------------------------------------
# metric and balls
# ---------------------------------------------------------------------------

def l1_distance(x, y) -> int:
    x, y = _as_site(x), _as_site(y)
    if len(x) != len(y):
        raise ValueError("sites of different dimension")
    return sum(abs(a - b) for a, b in zip(x, y))


def set_distance(X: Region, Y: Region) -> int:
    """min_{x in X, y in Y} l1(x, y); rejects empty operands."""
    if len(X) == 0 or len(Y) == 0:
        raise ValueError("set_distance undefined for empty regions")
    return min(l1_distance(x, y) for x in X for y in Y)


def _ball_offsets(D: int, r: int) -> list[Site]:
    # all integer vectors with l1 norm <= r, built once per (D, r)
    key = (D, r)
    cached = _ball_offsets._cache.get(key)
    if cached is not None:
        return cached
    offs = [
        off
        for off in itertools.product(range(-r, r + 1), repeat=D)
        if sum(abs(c) for c in off) <= r
    ]
    _ball_offsets._cache[key] = offs
    return offs


_ball_offsets._cache = {}


def ball(x, r: int, geometry: LatticeGeometry, clip: bool = True) -> Region:
    """l1 ball of radius r around x: B_r(x) = {y : l1(x,y) <= r}.

    Clipped to the lattice by default; with clip=False the full ball in Z^D
    is returned (cardinality at most (2r+1)^D, with equality for the
    sup-metric box it sits in -- the unclipped ball is what cardinality
    bounds are stated against).
    """
    x = _as_site(x)
    pts = (tuple(a + b for a, b in zip(x, off)) for off in _ball_offsets(geometry.D, r))
    if clip:
        return Region(p for p in pts if p in geometry.sites)
    return Region(pts)


def interior(M: Region, geometry: LatticeGeometry) -> Region:
    """Sites of M whose radius-R ball lies entirely inside the lattice."""
    if not M.issubset(geometry.sites):
        raise ValueError("region is not contained in the lattice")
    R = geometry.R
    out = []
    for x in M:
        if all(
            tuple(a + b for a, b in zip(x, off)) in geometry.sites
            for off in _ball_offsets(geometry.D, R)
        ):
            out.append(x)
    return Region(out)


def closure(M: Region, geometry: LatticeGeometry) -> Region:
    """Union of the (clipped) radius-R balls around the sites of M."""
    if not M.issubset(geometry.sites):
        raise ValueError("region is not contained in the lattice")
    acc: set[Site] = set()
    for x in M:
        acc.update(ball(x, geometry.R, geometry))
    return Region(acc)


# ---------------------------------------------------------------------------
# R-connectivity
# ---------------------------------------------------------------------------

def r_connected(x, y, R: int) -> bool:
    """Two sites interact at radius R iff their R-balls intersect: l1 <= 2R."""
    return l1_distance(x, y) <= 2 * R


def r_connected_set(S: Region, R: int) -> bool:
    """Chain connectivity of S under the pairwise relation l1 <= 2R.

    Empty and singleton sets count as connected.
    """
    return len(connected_components(S, R)) <= 1


def connected_components(S: Region, R: int) -> tuple[Region, ...]:
    """Maximal R-connected components of S, ordered by their smallest site."""
    remaining = set(S)
    comps = []
    while remaining:
        root = min(remaining)
        comp = {root}
        frontier = [root]
        while frontier:
            cur = frontier.pop()
            hits = [s for s in remaining if s not in comp and r_connected(cur, s, R)]
            comp.update(hits)
            frontier.extend(hits)
        remaining -= comp
        comps.append(Region(comp))
    return tuple(sorted(comps, key=lambda c: c[0]))


@dataclass(frozen=True)
class SuperclusterDecomposition:
    """The maximal R-connected components of a union of regions.

    Merging is decided by geometry alone, never by which part a site came
    from, so the components are all the record keeps; they depend only on
    the union of the parts.
    """

    components: tuple[Region, ...]

    def component_of(self, site) -> Region:
        site = _as_site(site)
        for comp in self.components:
            if site in comp:
                return comp
        raise KeyError(f"site {site} is in no component")

    def component_index(self, region: Region) -> int:
        """Index of the single component containing ``region`` entirely."""
        idx = {i for i, comp in enumerate(self.components) for s in region if s in comp}
        if len(idx) != 1:
            raise ValueError("region does not sit inside a single component")
        return idx.pop()

    def in_different_components(self, X: Region, Y: Region) -> bool:
        return self.component_index(X) != self.component_index(Y)


def supercluster_decompose(parts: Sequence[Region], R: int) -> SuperclusterDecomposition:
    union = Region(itertools.chain.from_iterable(parts))
    return SuperclusterDecomposition(components=connected_components(union, R))


# ---------------------------------------------------------------------------
# enumeration of connected sets and the counting bound
# ---------------------------------------------------------------------------

def _greedy_order(sites: frozenset, v1: Site, R: int) -> tuple[Site, ...] | None:
    if v1 not in sites:
        return None
    order = [v1]
    placed = {v1}
    while len(placed) < len(sites):
        candidates = [
            s
            for s in sites
            if s not in placed and any(r_connected(s, w, R) for w in order)
        ]
        if not candidates:
            return None  # not R-connected
        nxt = min(candidates)
        order.append(nxt)
        placed.add(nxt)
    return tuple(order)


def canonical_site_order(S: Region, v1, R: int) -> tuple[Site, ...]:
    """Greedy well-ordering of an R-connected set, anchored at v1.

    Repeatedly appends the lexicographically smallest not-yet-listed site of S
    lying within distance 2R of one already listed.  For an R-connected set
    containing v1 this consumes all of S; the resulting sequence is the
    canonical generation certificate used by the enumerator below, which
    relies on every prefix of a canonical order being the canonical order of
    the prefix set.
    """
    v1 = _as_site(v1)
    order = _greedy_order(frozenset(S), v1, R)
    if order is None:
        raise ValueError("set is not R-connected or does not contain the anchor")
    return order


def enumerate_connected_sets(v1, k: int, geometry: LatticeGeometry) -> list[Region]:
    """All R-connected k-site subsets of the lattice containing v1.

    Each set is produced exactly once, via depth-first growth of canonical
    generation sequences: a partial sequence (w_1 .. w_i) is extended by a
    site c within 2R of some w_j, and the extension is kept iff the greedy
    order of {w_1 .. w_i, c} (:func:`canonical_site_order`) is exactly the
    extended sequence.  Prefixes of canonical sequences are canonical, so the
    search needs no seen-set and never revisits a set.

    The greedy-order test is decided incrementally.  Let j be c's first
    neighbour index, the smallest j with l1(c, w_j) <= 2R.  Then c extends
    the sequence canonically iff c > w_t for every t > j.  Greedy ordering of
    S + {c} places w_1 .. w_j exactly as for S, since c is no candidate
    before w_j is listed, and c brings no other site into candidacy.  At each
    later step t > j, c is a candidate next to w_t, the smallest candidate
    from S, and the greedy order lists w_t there iff c > w_t.  Candidates
    are visited in sorted order, so the output order is that of the plain
    greedy-order filter.
    """
    v1 = _as_site(v1)
    if v1 not in geometry.sites:
        raise ValueError("anchor site is not in the lattice")
    if k < 1:
        raise ValueError("k must be positive")
    R = geometry.R
    if k == 1:
        return [Region([v1])]
    neighbours: dict[Site, tuple[Site, ...]] = {}

    def nbrs(w: Site) -> tuple[Site, ...]:
        got = neighbours.get(w)
        if got is None:
            got = neighbours[w] = tuple(s for s in ball(w, 2 * R, geometry) if s != w)
        return got

    out: list[Region] = []

    def grow(seq: tuple[Site, ...], first: dict[Site, int]):
        # first: candidate site -> index of its first neighbour in seq
        i = len(seq)
        # later[j] = max(w_t : t > j); () sorts below every site
        later = [()] * i
        for t in range(i - 2, -1, -1):
            later[t] = max(later[t + 1], seq[t + 1])
        for c in sorted(c for c, j in first.items() if c > later[j]):
            if i + 1 == k:
                out.append(Region(seq + (c,)))
                continue
            nxt = dict(first)
            del nxt[c]
            for s in nbrs(c):
                if s not in nxt and s not in seq:
                    nxt[s] = i
            grow(seq + (c,), nxt)

    grow((v1,), dict.fromkeys(nbrs(v1), 0))
    return out


def count_connected_sets(v1, k: int, geometry: LatticeGeometry) -> int:
    return len(enumerate_connected_sets(v1, k, geometry))


def counting_constant(D: int, R: int) -> float:
    """Per-site growth constant 2e(2R+1)^D of the connected-set counting bound."""
    return 2.0 * math.e * (2 * R + 1) ** D


def counting_bound(k: int, D: int, R: int, simplified: bool = False):
    """Upper bound on the number of R-connected k-sets through a fixed site.

    Exact form: binom(2(k-1), k-1) * (2R+1)^(D(k-1)), an integer.  The
    simplified form (2e(2R+1)^D)^(k-1) dominates it via binom(2m, m) <= (2e)^m.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if simplified:
        return counting_constant(D, R) ** (k - 1)
    return math.comb(2 * (k - 1), k - 1) * (2 * R + 1) ** (D * (k - 1))
