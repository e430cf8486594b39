"""Exact Gibbs states and truncated-correlation measurements.

Everything here is exact diagonalization: rho = e^{-beta H} / Z with the
spectrum shifted by the ground energy before exponentiating, so large beta
never overflows.  H is solved block by block on its exact zero pattern; a
spec's H_S and the Ising oracle's H are assembled block by block from
their local terms (:func:`~decorr.algebra._sector_sums`), and a thermal
state keeps rho as its blocks, packed by size: nothing of the full
dimension is written or multiplied, so memory scales with the blocks.
Expectations read tr(rho A) from the entries of rho that A meets, gathered
from the blocks, so observables are never embedded into the full space;
``ThermalState.rho`` writes the dense rho only when asked.  Partition
functions are summed in longdouble and
returned with their logarithm (a max-shifted log-sum-exp) because ratios of
Z's at beta = 50 underflow double precision long before the physics
degenerates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    BlockEigensystem,
    BlockOperator,
    DimensionError,
    GlobalOperator,
    _block_products,
    _local_trace,
    _pack_blocks,
    _place,
    _sector_sums,
    _stack_eigensystem,
    herm_blocks,
    operator_product,
    support_index_map,
)
from .lattice import Region, _integer, _site, counting_constant
from .model import PAULI_BY_NAME, HamiltonianSpec, restricted_spectrum


class DegenerateFitError(RuntimeError):
    """Fewer than two sweep points survive the noise floor."""


def partition_sum(w: np.ndarray, beta: float) -> tuple[np.longdouble, np.longdouble]:
    """(Z, log Z) for Z = sum_k e^{-beta w_k}, summed in longdouble after a max shift."""
    x = -np.longdouble(beta) * w
    top = x.max()
    s = np.exp(x - top).sum()
    return np.exp(top) * s, top + np.log(s)


@dataclass(frozen=True)
class ThermalState:
    """rho = e^{-beta H} / Z, held as its blocks, those of H's exact zero pattern.

    ``blocks`` packs rho's blocks by size (see
    :class:`~decorr.algebra.BlockOperator`); rho is zero between them.
    """

    blocks: BlockOperator
    beta: float
    logZ: float

    @property
    def region(self) -> Region:
        return self.blocks.region

    @property
    def rho(self) -> GlobalOperator:
        """rho written dense, on demand: zeros with each block on its rows and columns."""
        return GlobalOperator(self.blocks.region, self.blocks.q, self.blocks.dense())


def _state_from_blocks(
    eig: BlockEigensystem, region: Region, q: int, beta: float
) -> ThermalState:
    """rho = e^{-beta H} / Z written block by block from H's block eigensystems.

    The Boltzmann weights are formed and normalized over the ascending
    eigenvalues, then split by block; each block of rho is V diag(p) V^H
    (:func:`~decorr.algebra._block_products`), packed, and nothing of the
    full dimension is written.
    """
    w = eig.eigenvalues
    boltz = np.exp(-beta * (w - w[0]))
    p = np.empty_like(boltz)
    p[eig.order] = boltz / boltz.sum()
    ends = np.cumsum([rows.size for rows, _, _ in eig.blocks])[:-1]
    blocks = ((r, pb.reshape(r.shape), V) for (r, _, V), pb in zip(eig.blocks, np.split(p, ends)))
    rows = tuple(r for r, _, _ in eig.blocks)
    rho = _pack_blocks(region, q, rows, eig.blocks[0][2].dtype, _block_products(blocks))
    logZ = float(partition_sum(w, beta)[1])
    return ThermalState(blocks=rho, beta=beta, logZ=logZ)


def gibbs_state(H: GlobalOperator, beta: float) -> ThermalState:
    """The Gibbs state e^{-beta H} / Z, rho written block by block."""
    return _state_from_blocks(herm_blocks(H.matrix), H.region, H.q, beta)


def expectation(state: ThermalState, A: GlobalOperator) -> complex:
    """tr(rho A), with A acting on a subregion of the state's region.

    A is never embedded and rho is never written dense: the entries of rho
    that A meets are gathered from its blocks (+0 between them), O(dim
    q^|supp A|), and contracted by :func:`~decorr.algebra._local_trace`, the
    contraction the expansion's weights use too.
    """
    if not A.region.issubset(state.region):
        raise ValueError("observable support is not contained in the state's region")
    return complex(_local_trace(state.blocks, A))


def covariance(state: ThermalState, A: GlobalOperator, B: GlobalOperator) -> complex:
    """<AB> - <A><B> in the given thermal state.

    The product AB is formed on the joint support of A and B, and each
    expectation costs dim * q^|support| operations (see :func:`expectation`),
    so the cost is linear in the full dimension.
    """
    mean_ab = expectation(state, operator_product(A, B))
    return complex(mean_ab - expectation(state, A) * expectation(state, B))


# ---------------------------------------------------------------------------
# decay sweeps
# ---------------------------------------------------------------------------

FIT_FLOOR = 1e-13  # |cov| below this is treated as numerically zero
MAX_ISING_SPINS = 12  # the classical-chain oracle's cap


def observable_from_template(
    template, anchor, spec: HamiltonianSpec, shift: int = 0
) -> GlobalOperator:
    """Product of single-site operators at offsets relative to an anchor site.

    ``template`` is a nonempty list of [offset, name] pairs (JSON lists or
    tuples), names from I, X, Y, Z, N, which act on q = 2 sites only.
    Anchors and offsets are integers or lists of integers; an integer
    offset acts on the first axis, and one given as coordinates must have
    as many as the anchor.  ``shift`` displaces the whole template along
    the first axis.
    """
    anchor = _site(anchor, "anchor")
    if not isinstance(template, (list, tuple)) or not template:
        raise ValueError(f"a template is a nonempty list of [offset, name] pairs, got {template!r}")
    factors = []
    for entry in template:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"a template needs [offset, name] pairs, got {entry!r}")
        off, name = entry
        if not isinstance(name, str) or name not in PAULI_BY_NAME:
            raise ValueError(f"unknown operator name {name!r}, not one of {', '.join(PAULI_BY_NAME)}")
        if spec.q != 2:
            raise ValueError(f"operator {name!r} acts on q = 2 sites; the model has q = {spec.q}")
        coords = _site(off, "offset")
        if not isinstance(off, (list, tuple)):  # an integer offset acts on the first axis
            coords += (0,) * (len(anchor) - 1)
        if len(coords) != len(anchor):
            raise ValueError(
                f"offset {coords} has {len(coords)} coordinates; the anchor {anchor} has "
                f"{len(anchor)}"
            )
        site = tuple(a + o for a, o in zip(anchor, coords))
        site = (site[0] + shift,) + site[1:]
        if site not in spec.sites:
            raise ValueError(f"observable site {site} is outside the lattice")
        factors.append(GlobalOperator(Region([site]), spec.q, PAULI_BY_NAME[name]))
    return operator_product(*factors)


@dataclass(frozen=True)
class DecayFit:
    """ln|cov| against distance, with the fitted correlation length."""

    beta: float
    points: tuple  # (distance, abs_cov) for every requested distance
    points_used: int
    slope: float
    intercept: float
    xi: float
    outcome: str  # "ok" or "floor"


def decay_sweep(
    spec: HamiltonianSpec,
    beta: float,
    A_template,
    B_template,
    distances,
    anchor,
    strict: bool = True,
) -> DecayFit:
    """Measure |Cov(A, B_d)| over a list of distances and fit ln|cov| ~ d.

    A and B are placed from the site ``anchor`` (see
    :func:`observable_from_template`), B displaced by d along the first
    axis; there is no default, since an anchor on a site that meets no
    interaction would read every covariance as exactly 0.  Every A and B is
    placed before anything is solved.  ``distances`` is a nonempty list
    of integers, at least 1 (d = 0 would fit a variance) and strictly
    increasing.
    Points with |cov| <= FIT_FLOOR are recorded but excluded from the fit;
    if fewer than two remain the sweep has no usable decay signal -- strict
    mode raises DegenerateFitError, otherwise a DecayFit with outcome
    "floor" and NaN fit parameters is returned.
    """
    if not isinstance(distances, (list, tuple)) or not distances:
        raise ValueError(f"distances must be a nonempty list of integers, got {distances!r}")
    try:
        distances = [_integer(d) for d in distances]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad distance: {exc}") from exc
    if any(d < 1 for d in distances):
        raise ValueError(f"distances must be at least 1, got {distances!r}")
    if any(d2 <= d1 for d1, d2 in zip(distances, distances[1:])):
        raise ValueError("distances must be strictly increasing")
    A = observable_from_template(A_template, anchor, spec)
    Bs = [observable_from_template(B_template, anchor, spec, shift=d) for d in distances]
    eig = restricted_spectrum(spec, spec.sites)  # solved once per spec, at any beta
    state = _state_from_blocks(eig, spec.sites, spec.q, beta)
    points = [(d, abs(covariance(state, A, B))) for d, B in zip(distances, Bs)]

    usable = [(d, c) for d, c in points if c > FIT_FLOOR]
    if len(usable) >= 2:
        fit, outcome = fit_decay(usable), "ok"
    elif strict:
        raise DegenerateFitError(
            f"only {len(usable)} of {len(points)} covariances exceed the "
            f"floor {FIT_FLOOR:g} at beta = {beta}"
        )
    else:
        fit, outcome = (math.nan, math.nan, math.nan), "floor"
    return DecayFit(beta, tuple(points), len(usable), *fit, outcome=outcome)


def fit_decay(points) -> tuple[float, float, float]:
    """Least-squares line ln c = slope * d + intercept through (d, c) points.

    Returns (slope, intercept, xi) with the correlation length xi = -1/slope.
    """
    xs = np.array([d for d, _ in points], dtype=float)
    ys = np.array([math.log(c) for _, c in points], dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    xi = -1.0 / slope if slope != 0 else math.inf
    return float(slope), float(intercept), float(xi)


# ---------------------------------------------------------------------------
# classical-chain oracle
# ---------------------------------------------------------------------------

def _ising_bonds(n: int, J: float) -> tuple[Region, list]:
    """The open chain of n spins and its bonds -J sigma3_k sigma3_{k+1}, each with its index map."""
    if n > MAX_ISING_SPINS:
        raise DimensionError(f"classical-chain oracle capped at n = {MAX_ISING_SPINS} (got {n})")
    sites = Region((i,) for i in range(n))
    bond = -J * np.kron(PAULI_BY_NAME["Z"], PAULI_BY_NAME["Z"])
    maps = (support_index_map(Region([(k,), (k + 1,)]), sites, 2) for k in range(n - 1))
    return sites, [(bond, index_map) for index_map in maps]


def ising_oracle(n: int, J: float, beta: float) -> dict[tuple[int, int], float]:
    """Exact Cov(sigma3_i, sigma3_j) for every pair i < j of the open classical chain.

    For free boundaries the transfer-matrix answer is tanh(beta J)^|i-j|
    independently of n; this routine computes the same numbers through the
    generic Gibbs machinery, from one Gibbs state, so the two can be compared
    as independent routes.  H is assembled block by block from its bonds
    (:func:`~decorr.algebra._sector_sums`; its blocks are those of the
    dense sum of the same bonds) and, exactly Hermitian by construction, is
    solved unchecked.
    """
    sites, bonds = _ising_bonds(n, J)
    (stacks,) = _sector_sums([_place(bonds)], sites, 2, complex)
    state = _state_from_blocks(_stack_eigensystem(2**n, stacks), sites, 2, beta)
    Z = [GlobalOperator(Region([(i,)]), 2, PAULI_BY_NAME["Z"]) for i in range(n)]
    return {
        (i, j): float(covariance(state, Z[i], Z[j]).real)
        for i in range(n)
        for j in range(i + 1, n)
    }


def ising_exact_covariance(J: float, beta: float, i: int, j: int) -> float:
    return math.tanh(beta * J) ** abs(j - i)


def ising_exact_xi(J: float, beta: float) -> float:
    """-1/ln|tanh(beta J)| = 1/(log1p(t) - log1p(-t)), t = e^{-2 beta |J|}; J of either sign."""
    t = math.exp(-2.0 * beta * abs(J))
    return 1.0 / (math.log1p(t) - math.log1p(-t))


# ---------------------------------------------------------------------------
# the decay-bound certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCertificate:
    """Parameters of the proved exponential-decay bound for one spec.

    The per-configuration weight scale is p = 2 a q^((2R+1)^D); summing the
    weight of all connected configurations through a site multiplies it by
    the counting constant 2e(2R+1)^D, and the pair (I, J) structure doubles
    the bookkeeping, giving decay_base = 2 p (1+p) * 2e(2R+1)^D per unit of
    chain length.  The bound proves exponential decay iff decay_base < 1;
    its rate prefactor_exponent = ln(1/2 + 1/(2p)) comes from the swap
    inequality.
    """

    p: float
    decay_base: float
    prefactor_exponent: float
    active: bool


def bound_certificate(spec: HamiltonianSpec) -> BoundCertificate:
    D, R, q = spec.geometry.D, spec.geometry.R, spec.q
    p = 2.0 * spec.a * q ** ((2 * R + 1) ** D)
    decay_base = 2.0 * p * (1.0 + p) * counting_constant(D, R)
    prefactor_exponent = math.inf if p == 0 else math.log(0.5 + 1.0 / (2.0 * p))
    return BoundCertificate(
        p=p,
        decay_base=decay_base,
        prefactor_exponent=prefactor_exponent,
        active=decay_base < 1,
    )
