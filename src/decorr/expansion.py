"""Inclusion-exclusion cluster expansion of e^{-beta H} and its identities.

For a configuration I of interaction centers inside the lattice interior,
the alternating sum over sub-configurations

    T_I^{base} = sum_{M subset I} (-1)^{|I| - |M|} exp(-beta (H0_base + sum_{x in M} v_x))

isolates the part of the Boltzmann operator in which every center of I
participates.  Summing T over all I resums exactly to e^{-beta H}; each term
factorizes over R-connected components; and normalized traces of terms
("weights") obey a swapping identity that decouples distant observables.
Every identity is checked numerically here, with machine-level residuals.

Precision: the alternating sum cancels to roughly (2a q^{(2R+1)^D})^{|I|} of
the individual summand scale, so double arithmetic leaves relative noise of
order 1e-16 / weight -- far too coarse for third-order weights.  All weight
computations therefore run in clongdouble (80-bit extended) through the
extended-precision eigensolver in :mod:`decorr.algebra` (LAPACK in double,
then Ogita-Aishima refinement in clongdouble of each block shifted by its
mean diagonal, with a Jacobi fallback for clustered eigenvalues), combined
with the exact zero-pattern block split: the split keeps structurally-exact
zeros exact (pure rotations would smear the ground sector at large beta),
and the extended mantissa pushes the cancellation noise below 1e-13
relative even for weights of order 1e-50.

A weight w(I; O) lives on the base closure(I) + supp O.  The sweeps (swap
identity and covariance, supercluster classes) build one term per
(configuration, base) and read every trace from it by
:func:`~decorr.algebra._local_trace`, with O never embedded.
The pair sweeps split each distinct union into superclusters once, since
the split of I + J + X + Y depends on I + J alone.  Z and Z0 both come from
the per-spec spectrum memo (:func:`~decorr.model.restricted_spectrum`).

Every term's H_M is summed as every H_S is, by
:func:`~decorr.model._local_sums`, in clongdouble.  The exponentials read
their blocks' eigensystems from ``spec.block_spectra`` (see
:mod:`decorr.algebra`), keyed by the block shifted by its mean diagonal,
so each distinct shifted block is solved once per spec, whatever the
subset, base, beta or free sites.
Each H_M is assembled once per spec, too, in one fill per sweep
(:func:`_fill`): each sweep (resummation, term norms, factorization, swap,
supercluster classes) first passes every (M, base) it will
meet, and one memo call (:func:`~decorr.algebra._memo_eighs`) solves the
blocks none of them found in the memo together, one stack per block size.
An entry of ``spec.term_blocks`` keeps the blocks' rows, eigenvalues and
references to their eigenvectors, and every later term, observable base,
beta or check that meets it adds V e^{-beta w} V^H from there into its own
block rows and columns, with no dense H_M, pattern scan or block hash.  The
resummation's reference e^{-beta H} and the free factor outside each
closure, which every configuration of that closure shares, are such entries
too (:func:`_boltzmann`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    EPS_EXT,
    DimensionError,
    GlobalOperator,
    _block_function,
    _block_products,
    _check_dense,
    _local_trace,
    _memo_eighs,
    op_norm,
    operator_product,
    support_index_map,
)
from .gibbs import partition_sum
from .lattice import (
    LatticeGeometry,
    Region,
    closure,
    interior,
    r_connected_set,
    set_distance,
    supercluster_decompose,
)
from .model import (
    HamiltonianSpec,
    _local_sums,
    interaction_centers,
    restricted_spectrum,
)

MAX_RESUM_INTERIOR = 12
MAX_SWEEP_INTERIOR = 6  # 4^|interior| (I, J) pairs
TERM_NORM_MAX_SIZE = 3  # the largest configuration term_norm_scan builds
ZERO_FLOOR = 1e-300


class NotApplicable(ValueError):
    """An instance lies outside the hypothesis of the identity a check measures."""


def _rel(lhs, rhs) -> float:
    """|lhs - rhs| / max(|lhs|, |rhs|) in longdouble, so sums equal in double still differ."""
    lhs, rhs = np.longdouble(lhs), np.longdouble(rhs)
    return float(abs(lhs - rhs) / max(abs(lhs), abs(rhs), np.longdouble(ZERO_FLOOR)))


def interior_configurations(
    centers: Region, cap: int, max_size: int | None = None
) -> list[Region]:
    """Every configuration I of ``centers`` with |I| <= max_size (default: all).

    Ordered by increasing size and, within a size, in itertools.combinations
    order, so sums over the configurations accumulate the same way on every
    call.  ``cap`` bounds the sweep at the 2^cap configurations of a
    cap-site interior; a larger sweep raises DimensionError.
    """
    top = len(centers) if max_size is None else min(max_size, len(centers))
    count = sum(math.comb(len(centers), k) for k in range(top + 1))
    if count > 2**cap:
        raise DimensionError(
            f"{count} configurations of an interior of size {len(centers)} "
            f"exceed the cap 2^{cap}"
        )
    return [
        Region(c) for k in range(top + 1) for c in itertools.combinations(centers, k)
    ]


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------

def _term_pairs(I: Region, base: Region, spec: HamiltonianSpec) -> list[tuple]:
    """The (M, base) of every summand of T_I^{base}, M by increasing size; none if
    a center of I has no interaction.

    Such a center carries v_x = 0, so the in and out halves of the
    alternating sum cancel exactly and the term is a structural zero.
    """
    if any(x not in spec.interactions for x in I):
        return []
    return [(M, base) for k in range(len(I) + 1) for M in itertools.combinations(I, k)]


def yarotsky_term(I: Region, base: Region, spec: HamiltonianSpec, beta: float) -> GlobalOperator:
    """The alternating-sum term T_I^{base} on the region ``base``, in clongdouble.

    Requires I inside the lattice interior and closure(I) inside base, so
    every interaction of I acts within the base region.  A center of I with
    no interaction makes the term a structural zero, returned without
    computing any exponentials (:func:`_term_pairs`).  Each summand
    e^{-beta H_M} is added (or subtracted) block by block, from the blocks
    of H_M in ``spec.term_blocks`` (:func:`_fill`), and no dense summand is
    formed: the entries outside the blocks are zero, and adding zero to a
    sum accumulated from zeros changes no bit.
    """
    if not I.issubset(spec.interior):
        raise ValueError("configuration must lie in the lattice interior")
    if not closure(I, spec.geometry).issubset(base):
        raise ValueError("base region must contain the closure of I")
    _check_dense(spec.q, len(base))  # a structural zero makes no index map to refuse it
    dim = spec.q ** len(base)
    total = np.zeros((dim, dim), dtype=np.clongdouble)
    pairs = _term_pairs(I, base, spec)
    for (M, _), systems in zip(pairs, _fill(spec, pairs)):
        # subtracting is adding the summand times -1 bit for bit, without its copy
        add = np.add if (len(I) - len(M)) % 2 == 0 else np.subtract
        for rows, summand in _block_products(_exp_blocks(systems, beta)):
            at = rows[:, :, None], rows[:, None, :]
            total[at] = add(total[at], summand)
    return GlobalOperator(base, spec.q, total)


def _fill(spec: HamiltonianSpec, pairs: list) -> list:
    """The ``spec.term_blocks`` entry of H_M = H0_base + sum_{x in M} v_x for each (M, base).

    The H_M not yet in the memo are summed in clongdouble, one
    :func:`~decorr.model._local_sums` call per base, and go through the
    block memo in one :func:`~decorr.algebra._memo_eighs` call, which reads
    them one base at a time and solves the shifted blocks
    ``spec.block_spectra`` lacks in one core call per block size; so a
    sweep that passes all of its pairs at once makes one solve per block
    size.  A spec and its local matrices never change, and each block is
    solved on its own, so an entry is what summing and solving H_M again
    would give, bit for bit.  A ``longdouble`` with fewer mantissa bits
    than x87's 64 cannot resolve the weights, so no term is built on it.
    """
    if EPS_EXT > 2.0**-63:
        bits = 1 - round(math.log2(EPS_EXT))
        raise NotApplicable(f"longdouble has a {bits}-bit mantissa; the terms need 64")
    missing: dict[Region, dict] = {}  # the Ms of each base, in order, without repeats
    for M, base in pairs:
        if (M, base) not in spec.term_blocks:
            missing.setdefault(base, {})[M] = None

    splits = (
        H for base, Ms in missing.items() for H in _local_sums(spec, base, Ms, np.clongdouble)
    )
    keys = [(M, base) for base, Ms in missing.items() for M in Ms]
    spec.term_blocks.update(zip(keys, _memo_eighs(splits, spec.block_spectra)))
    return [spec.term_blocks[pair] for pair in pairs]


def _exp_blocks(systems: tuple, beta: float):
    """(rows, e^{-beta w}, V) per block size of an entry of ``spec.term_blocks``."""
    s = np.clongdouble(-beta)
    for rows, w, V in systems:
        yield rows, np.exp(s * w), np.asarray(V)


def _boltzmann(spec: HamiltonianSpec, M: tuple, region: Region, beta: float) -> np.ndarray:
    """e^{-beta H_M} on ``region``, written from its ``spec.term_blocks`` entry."""
    (systems,) = _fill(spec, [(M, region)])
    return _block_function(spec.q ** len(region), np.clongdouble, _exp_blocks(systems, beta))


def verify_resummation(spec: HamiltonianSpec, beta: float) -> float:
    """Relative Frobenius residual of sum_I T_I against e^{-beta H} (extended precision).

    The sum runs over all subsets of the lattice interior (configurations on
    centers without interactions contribute exact zeros but are included --
    the resummation identity is about the full subset lattice).  On the whole
    lattice T_I is the free factor exp(-beta H0_rest), rest = L - closure(I),
    times T_I^{cl I}: the terms of one closure are summed on it in
    configuration order and meet their shared factor once.  Entry (i, j) of
    that disjoint product is the single product outer[a1(i), a1(j)]
    inner[a2(i), a2(j)], a1, a2 the digits of an index on each region
    (:func:`~decorr.algebra.support_index_map`): operator_product(outer,
    inner) without its dim^3 matrix product, in place in the gathered factor.
    The factor and the reference e^{-beta H} are ``spec.term_blocks`` entries
    (:func:`_boltzmann`); one :func:`_fill` takes them and every term's H_M.
    It refuses an instance on which the sum meets the reference by
    construction: an empty interior, where the one term is the reference,
    and a lattice on which every nonempty configuration closes to the whole
    lattice (the 3-site chain at R = 1), where no free factor enters and
    the terms telescope into the reference's own memo entries.
    """
    if not spec.interior:
        raise NotApplicable("lattice interior is empty")
    configs = interior_configurations(spec.interior, MAX_RESUM_INTERIOR)
    centers = tuple(interaction_centers(spec, spec.sites))
    pairs = [(centers, spec.sites)]
    closures: dict[Region, list[Region]] = {}  # the configurations of each closure, in order
    for I in configs:
        cl = closure(I, spec.geometry)
        closures.setdefault(cl, []).append(I)
        pairs += [((), spec.sites - cl), *_term_pairs(I, cl, spec)]
    if all(cl == spec.sites for cl in closures if cl):
        raise NotApplicable(
            "every nonempty configuration closes to the whole lattice: no free factor "
            "enters, and the terms sum to the reference's own entries whatever they hold"
        )
    _fill(spec, pairs)
    ref = _boltzmann(spec, centers, spec.sites, beta)
    acc = np.zeros_like(ref)
    for cl, Is in closures.items():
        inner = yarotsky_term(Is[0], cl, spec, beta).matrix
        for I in Is[1:]:  # only the sum and one term are alive at a time
            inner += yarotsky_term(I, cl, spec, beta).matrix
        rest = spec.sites - cl
        a1 = support_index_map(rest, spec.sites, spec.q)[0]
        a2 = support_index_map(cl, spec.sites, spec.q)[0]
        product = _boltzmann(spec, (), rest, beta)[np.ix_(a1, a1)]
        product *= inner[np.ix_(a2, a2)]
        acc += product
        del inner, product  # the next closure's terms meet no whole-lattice temporary
    acc -= ref  # the difference, without a whole-lattice temporary
    num = np.sqrt(np.abs(acc * acc.conj()).sum().real)
    den = np.sqrt(np.abs(ref * ref.conj()).sum().real)
    return float(num / max(den, ZERO_FLOOR))


def term_norm_scan(spec: HamiltonianSpec, beta: float) -> list[tuple[Region, float, float]]:
    """(I, ||T_I^{cl I}||, (2a)^|I|) for every interior configuration up to TERM_NORM_MAX_SIZE.

    The terms are built as every sweep builds them, after one :func:`_fill`
    of all their H_M.  Zero terms are left out; with no other term the scan
    would bound nothing and raises NotApplicable.
    """
    geo = spec.geometry
    configs = interior_configurations(spec.interior, MAX_RESUM_INTERIOR, TERM_NORM_MAX_SIZE)
    terms = []
    for I in configs[1:]:  # the empty configuration comes first
        cl = closure(I, geo)
        pairs = _term_pairs(I, cl, spec)
        if pairs:  # a center without interaction makes a zero term
            terms.append((I, cl, pairs))
    if not terms:
        raise NotApplicable(f"no interacting configuration of size <= {TERM_NORM_MAX_SIZE}")
    _fill(spec, [pair for _, _, pairs in terms for pair in pairs])
    rows = []
    for I, cl, _ in terms:
        T = yarotsky_term(I, cl, spec, beta)
        rows.append((I, op_norm(T.matrix), (2 * spec.a) ** len(I)))
    return rows


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def _interacting_partition(
    region: Region, spec: HamiltonianSpec, beta: float
) -> np.longdouble:
    """Z over a region (1 for the empty region), from double-precision eigenvalues.

    The eigenvalues of each region are solved once per spec and reused at
    every beta (:func:`~decorr.model.restricted_spectrum`).

    No extended-precision solve here: a partition function is a sum of
    positive terms, so unlike the alternating weight sums it carries no
    cancellation and LAPACK doubles already give ~1e-15 relative accuracy.
    """
    return partition_sum(restricted_spectrum(spec, region).eigenvalues, beta)[0]


def _free_partition(region: Region, spec: HamiltonianSpec, beta: float) -> np.longdouble:
    """Z0 over a region: product of single-site Z's (exact factorization).

    Each site's Z is read from the spectrum memo, so a site is solved once
    per spec.  Its double eigenvalues are exact for diagonal on-site terms
    and about one ulp off otherwise, which is enough for a sum of positive
    terms (see :func:`_interacting_partition`).
    """
    z = np.longdouble(1.0)
    for site in region:
        z *= _interacting_partition(Region._canonical((site,)), spec, beta)
    return z


def _weights(
    items: list[tuple[Region, list]], spec: HamiltonianSpec, beta: float
) -> list[list[np.longdouble]]:
    """w(I; O) for each O of each (I, observables) of a sweep (None stands for w(I)).

    One term and one Z0 per distinct base closure(I) + supp O of each I;
    every trace on a base is read from its term.  The H_M of all the terms
    are filled first, in one :func:`_fill`; only one configuration's terms
    are alive at a time.
    """
    geo = spec.geometry
    item_bases = []
    for I, observables in items:
        cl = closure(I, geo)
        item_bases.append([cl if O is None else cl | O.region for O in observables])
    _fill(spec, [
        pair
        for (I, _), bases in zip(items, item_bases)
        for base in dict.fromkeys(bases)
        for pair in _term_pairs(I, base, spec)
    ])
    out = []
    for (I, observables), bases in zip(items, item_bases):
        ws = [None] * len(observables)
        for base in dict.fromkeys(bases):
            T = yarotsky_term(I, base, spec, beta)
            z0 = _free_partition(base, spec, beta)
            for k, O in enumerate(observables):
                if bases[k] == base:
                    tr = np.trace(T.matrix) if O is None else _local_trace(T, O)
                    ws[k] = tr.real / z0
        out.append(ws)
    return out


def weight(I: Region, spec: HamiltonianSpec, beta: float) -> float:
    """Normalized trace weight w(I) = tr T_I^{cl I} / Z0_{cl I}.

    Both trace and normalization live on the closure of I only; the rest of
    the lattice cancels exactly between numerator and denominator.
    """
    return float(_weights([(I, [None])], spec, beta)[0][0])


def observable_weight(
    I: Region, O: GlobalOperator, spec: HamiltonianSpec, beta: float
) -> float:
    """w(I; O) = tr(O T_I^{cl I + supp O}) / Z0_{cl I + supp O}."""
    return float(_weights([(I, [O])], spec, beta)[0][0])


def _require_disjoint(A: GlobalOperator, B: GlobalOperator):
    if not A.region.isdisjoint(B.region):
        raise ValueError("product observable requires disjoint supports")


@dataclass(frozen=True)
class FactorizationCheck:
    lhs: float
    rhs: float
    rel_residual: float


def verify_factorization(
    I1: Region,
    O1: GlobalOperator,
    I2: Region,
    O2: GlobalOperator,
    spec: HamiltonianSpec,
    beta: float,
) -> FactorizationCheck:
    """w(I1 + I2; O1 O2) against w(I1; O1) w(I2; O2) for distant halves.

    Requires I1 + supp(O1) and I2 + supp(O2) to be mutually non-R-connected
    (distance > 2R), which makes the alternating sum split as a tensor
    product and the normalized traces factor exactly, and a nonempty
    lattice interior: on an empty one both halves are empty and only free
    traces are compared.  Outside either, or with an empty half, it raises
    NotApplicable.
    """
    if not spec.interior:
        raise NotApplicable("lattice interior is empty")
    part1 = I1 | O1.region
    part2 = I2 | O2.region
    _require_nonempty(("the half I1 + supp O1", part1), ("the half I2 + supp O2", part2))
    if set_distance(part1, part2) <= 2 * spec.geometry.R:
        raise NotApplicable("the two halves are R-connected; factorization does not apply")
    items = [(I1 | I2, [operator_product(O1, O2)]), (I1, [O1]), (I2, [O2])]
    [lhs], [w1], [w2] = _weights(items, spec, beta)
    rhs = w1 * w2
    return FactorizationCheck(lhs=float(lhs), rhs=float(rhs), rel_residual=_rel(lhs, rhs))


# ---------------------------------------------------------------------------
# swapping
# ---------------------------------------------------------------------------

def swap_configurations(I: Region, J: Region, X: Region, Y: Region, R: int):
    """Exchange the I- and J-content of the supercluster holding X.

    Decomposes I + J + X + Y into R-connected components; with S1 the
    component containing X (which must not contain Y; an X or Y that is not
    R-connected raises NotApplicable), returns

        I' = (J & S1) + (I - S1),   J' = (I & S1) + (J - S1).

    The map is an involution on pairs satisfying the separation event, and
    it preserves the supercluster decomposition itself.
    """
    _require_r_connected(R, X, Y)
    dec = supercluster_decompose([I, J, X, Y], R)
    if not dec.in_different_components(X, Y):
        raise ValueError("swap undefined: X and Y lie in the same supercluster")
    return _swap(I, J, dec.component_of(X[0]))


def _require_nonempty(*named: tuple[str, Region]) -> None:
    """Refuse an empty support or half by name: no distance or supercluster holds it."""
    for name, region in named:
        if not region:
            raise NotApplicable(f"{name} is empty")


def _require_r_connected(R: int, *supports: Region) -> None:
    """Refuse a support that is not R-connected: the swap needs it in one supercluster."""
    for support in supports:
        if not r_connected_set(support, R):
            raise NotApplicable(f"support {support!r} is not R-connected")


def _swap(I: Region, J: Region, S1: Region) -> tuple[Region, Region]:
    """(I, J) with their contents inside S1 exchanged; keeps I + J."""
    return (J & S1) | (I - S1), (I & S1) | (J - S1)


@dataclass(frozen=True)
class SwapCheck:
    lhs: float
    rhs: float
    rel_residual: float
    per_pair_max: float
    n_event_pairs: int
    n_configs: int
    covariance: float


def verify_swap_identity(
    spec: HamiltonianSpec,
    A: GlobalOperator,
    B: GlobalOperator,
    beta: float,
) -> SwapCheck:
    """Exhaustive check of the swapped-weight identity on a small lattice.

    Over all pairs (I, J) of interior configurations satisfying the event
    "X and Y lie in different superclusters of I + J + X + Y":

        sum w(I) w(J; AB)  =  sum w(I; A) w(J; B),

    and term by term w(I) w(J; AB) = w(I'; A) w(J'; B) with (I', J') the
    swapped pair.  X = supp A, Y = supp B must be further than 2R apart
    (otherwise the event never holds), and the lattice interior must not
    be empty (otherwise the only pair is two empty configurations); outside
    either, the check would be vacuous and raises NotApplicable.  So does an
    empty support or one that is not R-connected, before any term is built.

    The separated pairs cancel, so the same sweep also reports the covariance
    from the pairs whose supercluster joins X and Y:

        Cov(A, B) = (Z0/Z)^2 sum_{X, Y joined} [w(I) w(J; AB) - w(I; A) w(J; B)].

    This sum never meets the separated pairs, which dominate the unrestricted
    double sum and cancel in it, so it keeps its relative precision down to
    covariances of order 1e-35.  An observable with a nonzero free mean (Z
    on a free spin, say) makes each summand O(1) and the sum cancel to the
    covariance; there the result is good to about 1e-18 absolute only.
    """
    geo = spec.geometry
    X, Y = A.region, B.region
    if not spec.interior:
        raise NotApplicable("lattice interior is empty")
    _require_nonempty(("supp A", X), ("supp B", Y))
    if set_distance(X, Y) <= 2 * geo.R:
        raise NotApplicable("supports of A and B must be further than 2R apart")
    _require_r_connected(geo.R, X, Y)
    configs = interior_configurations(spec.interior, MAX_SWEEP_INTERIOR)
    AB = operator_product(A, B)
    w, wa, wb, wab = {}, {}, {}, {}
    for c, ws in zip(configs, _weights([(c, [None, A, B, AB]) for c in configs], spec, beta)):
        w[c], wa[c], wb[c], wab[c] = ws

    lhs = np.longdouble(0.0)
    rhs = np.longdouble(0.0)
    joined = np.longdouble(0.0)
    per_pair_max = 0.0
    n_pairs = 0
    splits = {}  # the event and S1 depend on U = I + J only: split each U once
    for I in configs:
        for J in configs:
            U = I | J
            if U not in splits:
                splits[U] = supercluster_decompose([U, X, Y], geo.R)
            if not splits[U].in_different_components(X, Y):
                joined += w[I] * wab[J] - wa[I] * wb[J]
                continue
            n_pairs += 1
            lhs += w[I] * wab[J]
            rhs += wa[I] * wb[J]
            S1 = splits[U].component_of(X[0])
            I2, J2 = _swap(I, J, S1)
            # the swap keeps the union, hence the split and S1
            if I2 | J2 != U or _swap(I2, J2, S1) != (I, J):
                raise AssertionError("swap failed to be an involution")
            per_pair_max = max(
                per_pair_max, _rel(w[I] * wab[J], wa[I2] * wb[J2])
            )
    z_free = _free_partition(spec.sites, spec, beta)
    scale = (z_free / _interacting_partition(spec.sites, spec, beta)) ** 2
    return SwapCheck(
        lhs=float(lhs),
        rhs=float(rhs),
        rel_residual=_rel(lhs, rhs),
        per_pair_max=per_pair_max,
        n_event_pairs=n_pairs,
        n_configs=len(configs),
        covariance=float(scale * joined),
    )


# ---------------------------------------------------------------------------
# supercluster class resummation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperclusterCheck:
    lhs_weight: float
    rhs_weight: float
    rel_residual_weight: float
    lhs_observable: float
    rhs_observable: float
    rel_residual_observable: float
    ratio: float
    n_class_pairs: int


def verify_supercluster_resummation(
    I0: Region,
    J0: Region,
    A: GlobalOperator,
    B: GlobalOperator,
    spec: HamiltonianSpec,
    beta: float,
) -> SuperclusterCheck:
    """Resum the class of pairs whose supercluster through X, Y is exactly S0.

    S0 = I0 + J0 + X + Y must be R-connected.  The class consists of pairs
    (I0 + I', J0 + J') with I', J' ranging over configurations in the
    interior of the reduced lattice L' = L - closure(S0); interior separation
    keeps every added site non-R-connected to S0, so the class is exactly
    the set of pairs with X- and Y-supercluster S0.  An empty X or Y, and an
    S0 or I0, J0 outside these hypotheses, raise NotApplicable before any
    term is built, and so does an L' with an empty interior: the class is
    then the single pair (I0, J0), a tautology.
    Two identities are checked, one weighting J with the product AB, one
    splitting A and B:

        sum w(I) w(J; AB) = w(I0) w(J0; AB) (Z_{L'} / Z0_{L'})^2
        sum w(I; A) w(J; B) = w(I0; A) w(J0; B) (Z_{L'} / Z0_{L'})^2
    """
    geo = spec.geometry
    X, Y = A.region, B.region
    _require_nonempty(("supp A", X), ("supp B", Y))
    S0 = I0 | J0 | X | Y
    if not r_connected_set(S0, geo.R):
        raise NotApplicable("I0 + J0 + X + Y must be a single R-connected cluster")
    inter = spec.interior
    if not (I0.issubset(inter) and J0.issubset(inter)):
        raise NotApplicable("I0 and J0 must lie in the lattice interior")
    lattice_rest = spec.sites - closure(S0, geo)
    geo_rest = LatticeGeometry(D=geo.D, R=geo.R, sites=lattice_rest)
    centers = interior(lattice_rest, geo_rest)
    if not centers:
        raise NotApplicable(
            f"the class of S0 = {list(S0)} is the single pair (I0, J0), since "
            "L - closure(S0) has an empty interior; its identity is a tautology"
        )
    addons = interior_configurations(centers, MAX_SWEEP_INTERIOR)
    _require_disjoint(A, B)
    AB = operator_product(A, B)
    # each weight depends on one side's add-on only: one of each per add-on
    items = [item for a in addons for item in ((I0 | a, [None, A]), (J0 | a, [AB, B]))]
    ws = iter(_weights(items, spec, beta))
    wI, waI, wabJ, wbJ = {}, {}, {}, {}
    for a in addons:
        wI[a], waI[a] = next(ws)
        wabJ[a], wbJ[a] = next(ws)
    lhs_w = np.longdouble(0.0)
    lhs_o = np.longdouble(0.0)
    n_pairs = 0
    splits = {}  # Iadd + Jadd -> decomposition of the pair's union with X, Y
    for Iadd in addons:
        for Jadd in addons:
            U = Iadd | Jadd
            if U not in splits:
                splits[U] = supercluster_decompose([S0, U], geo.R)
            if splits[U].component_of(X[0]) != S0:
                raise AssertionError("class member lost the supercluster S0")
            n_pairs += 1
            lhs_w += wI[Iadd] * wabJ[Jadd]
            lhs_o += waI[Iadd] * wbJ[Jadd]

    ratio = _interacting_partition(lattice_rest, spec, beta) / _free_partition(
        lattice_rest, spec, beta
    )
    empty = addons[0]  # the empty add-on comes first
    rhs_w = wI[empty] * wabJ[empty] * ratio**2
    rhs_o = waI[empty] * wbJ[empty] * ratio**2
    return SuperclusterCheck(
        lhs_weight=float(lhs_w),
        rhs_weight=float(rhs_w),
        rel_residual_weight=_rel(lhs_w, rhs_w),
        lhs_observable=float(lhs_o),
        rhs_observable=float(rhs_o),
        rel_residual_observable=_rel(lhs_o, rhs_o),
        ratio=float(ratio),
        n_class_pairs=n_pairs,
    )


# ---------------------------------------------------------------------------
# partition ratios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionRatio:
    ratio: float
    bound: float
    bound_ok: bool
    split_product_le_full: bool  # Z_{L - cl S} * Z_{cl S} <= Z_L
    free_le_power: bool  # Z0_{cl S} <= q^{|cl S|}
    interacting_ge_one: bool  # Z_{cl S} >= 1
    cl_size: int


def partition_ratio(S: Region, spec: HamiltonianSpec, beta: float) -> PartitionRatio:
    """Z_{L - cl S} Z0_{cl S} / Z_L and the chain of bounds certifying it.

    Valid for specs whose interactions are all negative semidefinite (apply
    normalize_nonpositive first): dropping nonpositive interactions can only
    raise energies, hence lower partition functions -- that gives
    Z_{L - cl S} Z_{cl S} <= Z_L; combined with Z_{cl S} >= 1 (zero ground
    energy) and Z0_{cl S} <= q^{|cl S|} <= (q^{(2R+1)^D})^{|S|} the ratio is
    bounded by C^{|S|} with C = q^{(2R+1)^D}.
    """
    geo = spec.geometry
    if not r_connected_set(S, geo.R):
        raise ValueError("S must be R-connected")
    if not S.issubset(spec.sites):
        raise ValueError("S must lie inside the lattice")
    if not spec.nonpositive:
        raise ValueError(
            "partition ratio bounds require nonpositive interactions; "
            "apply normalize_nonpositive first"
        )
    cl = closure(S, geo)
    rest = spec.sites - cl

    z_rest = _interacting_partition(rest, spec, beta)
    z_cl = _interacting_partition(cl, spec, beta)
    z_full = _interacting_partition(spec.sites, spec, beta)
    z0_cl = _free_partition(cl, spec, beta)

    ratio = float(z_rest * z0_cl / z_full)
    C = spec.q ** ((2 * geo.R + 1) ** geo.D)
    bound = float(C ** len(S))
    slack = 1e-9
    return PartitionRatio(
        ratio=ratio,
        bound=bound,
        bound_ok=ratio <= bound * (1 + slack),
        split_product_le_full=float(z_rest * z_cl) <= float(z_full) * (1 + slack),
        free_le_power=float(z0_cl) <= spec.q ** len(cl) * (1 + slack),
        interacting_ge_one=float(z_cl) >= 1 - slack,
        cl_size=len(cl),
    )
