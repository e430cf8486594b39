"""Finite lattice geometry: regions, l1 balls, connectivity, superclusters.

Sites are integer tuples in Z^D.  All distances are l1 (graph metric of the
hypercubic lattice).  A set is R-connected when its sites can be chained with
steps of l1 length at most 2R, i.e. when the radius-R balls around its sites
form a connected cover.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Iterable, Sequence

Site = tuple[int, ...]


def _real(value) -> float:
    """float(value) of a real number; a bool or a string, which float() also takes, is refused."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _integer(value) -> int:
    """int(value) of a real number (see :func:`_real`), refusing a fractional part.

    int() would truncate it.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        if not _real(value).is_integer():
            raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _site(value, what: str) -> Site:
    """A site or offset from an integer or a list of integers (:func:`_integer`), as a tuple."""
    try:
        if isinstance(value, (list, tuple)):
            return tuple(map(_integer, value))
        return (_integer(value),)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad {what} {value!r}: {exc}") from exc


class Region(tuple):
    """Immutable set of lattice sites, stored in sorted (lexicographic) order.

    Behaves as a tuple of sites for iteration/indexing and supports the usual
    set operations between Regions.  Canonical order matters: serialization,
    PRNG draws and tensor-leg ordering all follow the sorted site list.

    Sites are normalized here, when a Region is built from outside input: an
    int becomes a 1-tuple and numpy ints become Python ints.  Every site a
    Region holds is a tuple of Python ints, so the rest of the lattice layer
    takes sites in that form and compares them as they are.
    """

    def __new__(cls, sites: Iterable = ()):
        distinct = frozenset(
            (int(s),) if isinstance(s, Integral) else tuple(map(int, s)) for s in sites
        )
        region = super().__new__(cls, sorted(distinct))
        region._set = distinct
        return region

    @classmethod
    def _canonical(cls, sites: tuple[Site, ...]) -> "Region":
        """The Region of distinct int-tuple sites already in sorted order, as given.

        The lattice layer builds every Region it derives from Regions this
        way: balls, interiors, closures, components, the connected-set
        enumerator and the set operations between two Regions.  The
        enumerator makes one per set from sorted int tuples, and going
        through ``Region(...)`` (normalize each site, dedupe, sort) costs
        more than the rest of the enumeration: the 56096 R-connected 4-sets
        through the origin at D = 2, R = 2 take ~0.25 s this way and ~0.69 s
        through ``Region(...)`` on a 2-core Xeon host.  The count of the
        same sets builds no Region at all (~0.02 s).
        """
        region = tuple.__new__(cls, sites)
        region._set = frozenset(sites)
        return region

    # -- set algebra between Regions; both operands' sites are canonical ----
    def __contains__(self, site) -> bool:
        return site in self._set

    def __or__(self, other: "Region") -> "Region":
        return Region._canonical(tuple(sorted(self._set | other._set)))

    def __and__(self, other: "Region") -> "Region":
        return Region._canonical(tuple(s for s in self if s in other._set))

    def __sub__(self, other: "Region") -> "Region":
        return Region._canonical(tuple(s for s in self if s not in other._set))

    def issubset(self, other: "Region") -> bool:
        return self._set <= other._set

    def isdisjoint(self, other: "Region") -> bool:
        return self._set.isdisjoint(other._set)

    # -- serialization -----------------------------------------------------
    def to_json(self) -> list[list[int]]:
        return [list(s) for s in self]

    @classmethod
    def from_json(cls, data) -> "Region":
        """The Region of a list of sites, each a list of integers, refusing a site listed twice."""
        sites = [tuple(_integer(c) for c in s) for s in data]
        region = cls(sites)
        if len(region) < len(sites):
            twice = next(s for i, s in enumerate(sites) if s in sites[:i])
            raise ValueError(f"site {list(twice)} is listed twice")
        return region

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

def l1_distance(x: Site, y: Site) -> int:
    if len(x) != len(y):
        raise ValueError("sites of different dimension")
    return sum(abs(a - b) for a, b in zip(x, y))


def set_distance(X: Region, Y: Region) -> int:
    """min_{x in X, y in Y} l1(x, y); rejects empty operands."""
    if len(X) == 0 or len(Y) == 0:
        raise ValueError("set_distance undefined for empty regions")
    return min(l1_distance(x, y) for x in X for y in Y)


@functools.cache
def _ball_offsets(D: int, r: int) -> tuple[Site, ...]:
    # all integer vectors with l1 norm <= r, built once per (D, r)
    return tuple(
        off
        for off in itertools.product(range(-r, r + 1), repeat=D)
        if sum(abs(c) for c in off) <= r
    )


def ball(x: Site, r: int, geometry: LatticeGeometry) -> Region:
    """l1 ball of radius r around x, clipped to the lattice: {y in Lambda : l1(x,y) <= r}.

    Where the lattice covers it, it is the full ball of Z^D, the one
    cardinality bounds are stated against: at most (2r+1)^D sites, the size
    of the sup-metric box it sits in.  The offsets come in lexicographic
    order, so the points x + offset do too.
    """
    pts = (tuple(a + b for a, b in zip(x, off)) for off in _ball_offsets(geometry.D, r))
    return Region._canonical(tuple(p for p in pts if p in geometry.sites._set))


def interior(M: Region, geometry: LatticeGeometry) -> Region:
    """Sites of M whose radius-R ball lies entirely inside the lattice."""
    if not M.issubset(geometry.sites):
        raise ValueError("region is not contained in the lattice")
    inside = geometry.sites._set
    offsets = _ball_offsets(geometry.D, geometry.R)
    return Region._canonical(tuple(
        x for x in M if all(tuple(a + b for a, b in zip(x, off)) in inside for off in offsets)
    ))


def closure(M: Region, geometry: LatticeGeometry) -> Region:
    """Union of the (clipped) radius-R balls around the sites of M."""
    if not M.issubset(geometry.sites):
        raise ValueError("region is not contained in the lattice")
    acc: set[Site] = set()
    for x in M:
        acc.update(ball(x, geometry.R, geometry))
    return Region._canonical(tuple(sorted(acc)))


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
        comps.append(Region._canonical(tuple(sorted(comp))))
    return tuple(sorted(comps, key=lambda c: c[0]))


@dataclass(frozen=True)
class SuperclusterDecomposition:
    """The maximal R-connected components of a union of regions.

    Merging is decided by geometry alone, never by which part a site came
    from, so the components are all the record keeps; they depend only on
    the union of the parts.
    """

    components: tuple[Region, ...]

    def component_of(self, site: Site) -> Region:
        for comp in self.components:
            if site in comp:
                return comp
        raise KeyError(f"site {site} is in no component")


def supercluster_decompose(parts: Sequence[Region], R: int) -> SuperclusterDecomposition:
    union = Region._canonical(tuple(sorted(frozenset().union(*parts))))
    return SuperclusterDecomposition(components=connected_components(union, R))


# ---------------------------------------------------------------------------
# enumeration of connected sets and the counting bound
# ---------------------------------------------------------------------------

def _grow(grown: tuple[Site, ...], untried: list[Site], seen: set[Site], k: int, neighbours):
    """Redelmeier's growth: yield (set, untried) for each (k-1)-site set grown from ``grown``.

    ``grown`` is an R-connected set, ``untried`` (a list this call owns)
    the sites that may still join it, and ``seen`` every site that was put
    on an untried list on the way down, the sites of ``grown`` included.
    Each step pops the last untried site v and grows ``grown + (v,)``,
    whose untried list is the rest of this one plus the sites of
    ``neighbours(v)`` (the lattice sites within 2R of v) not yet seen.  A
    popped site stays seen, so no later branch at this level adds it: the
    branches split the sets grown from here by the first popped site they
    hold.  Started from ((), [v1], {v1}), the growth reaches every
    R-connected set through v1 exactly once (D. H. Redelmeier, Discrete
    Math. 36 (1981)), so the R-connected k-sets through v1 are the sets
    ``set + (u,)`` over the yielded (k-1)-sets and their untried sites u,
    each once.  For k = 1 the one yield is ((), [v1]).
    """
    if len(grown) == k - 1:
        yield grown, untried
        return
    while untried:
        v = untried.pop()
        fresh = [w for w in neighbours(v) if w not in seen]
        yield from _grow(grown + (v,), untried + fresh, seen.union(fresh), k, neighbours)


def _growth(v1: Site, k: int, geometry: LatticeGeometry):
    """The (k-1)-sets through v1 and their untried sites, by :func:`_grow`."""
    if v1 not in geometry.sites:
        raise ValueError("anchor site is not in the lattice")
    if k < 1:
        raise ValueError("k must be positive")
    sites = geometry.sites._set
    offsets = _ball_offsets(geometry.D, 2 * geometry.R)

    @functools.cache
    def neighbours(v: Site) -> list[Site]:
        # the lattice sites within 2R of v, v included
        return [p for p in (tuple(map(operator.add, v, off)) for off in offsets) if p in sites]

    return _grow((), [v1], {v1}, k, neighbours)


def enumerate_connected_sets(v1: Site, k: int, geometry: LatticeGeometry) -> list[Region]:
    """All R-connected k-site subsets of the lattice containing v1.

    Each set is produced exactly once, by Redelmeier's growth from v1
    (:func:`_grow`), in the order of that growth.
    """
    return [
        Region._canonical(tuple(sorted(grown + (u,))))
        for grown, untried in _growth(v1, k, geometry)
        for u in untried
    ]


def count_connected_sets(v1: Site, k: int, geometry: LatticeGeometry) -> int:
    """Number of R-connected k-site subsets of the lattice containing v1.

    Equal to ``len(enumerate_connected_sets(v1, k, geometry))``, but the
    sets are never built: the growth stops at the (k-1)-site sets and adds
    up how many untried sites each one has.
    """
    return sum(len(untried) for _, untried in _growth(v1, k, geometry))


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
