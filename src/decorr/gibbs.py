"""Exact Gibbs states and truncated-correlation measurements.

Everything here is plain dense exact diagonalization: rho = e^{-beta H} / Z
with the spectrum shifted by the ground energy before exponentiating, so
large beta never overflows.  Partition functions are returned with their
logarithm (computed by max-shifted log-sum-exp) because ratios of Z's at
beta = 50 underflow double precision long before the physics degenerates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import GlobalOperator, embed, herm_eig, trace
from .lattice import Region, counting_constant
from .model import PAULI_BY_NAME, HamiltonianSpec, build_restricted


def _logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))), shifted by max(x) so that nothing overflows."""
    top = np.max(x)
    return float(top + np.log(np.sum(np.exp(x - top))))


class DegenerateFitError(RuntimeError):
    """Fewer than two sweep points survive the noise floor."""


def partition_function(H, beta: float) -> tuple[float, float]:
    """(Z, log Z) for Z = tr e^{-beta H}."""
    mat = H.matrix if isinstance(H, GlobalOperator) else np.asarray(H)
    w = herm_eig(mat).eigenvalues
    logZ = _logsumexp(-beta * w)
    return float(np.exp(logZ)), logZ


@dataclass(frozen=True)
class ThermalState:
    rho: GlobalOperator
    beta: float
    logZ: float

    @property
    def region(self) -> Region:
        return self.rho.region


def gibbs_state(H: GlobalOperator, beta: float) -> ThermalState:
    eig = herm_eig(H.matrix)
    w, V = eig.eigenvalues, eig.eigenvectors
    boltz = np.exp(-beta * (w - w[0]))
    rho = (V * (boltz / boltz.sum())) @ V.conj().T
    logZ = _logsumexp(-beta * w)
    return ThermalState(rho=GlobalOperator(H.region, H.q, rho), beta=beta, logZ=logZ)


def _on_region(A: GlobalOperator, region: Region, q: int) -> np.ndarray:
    if A.region == region:
        return A.matrix
    return embed(A.matrix, A.region, region, q).matrix


def _traced_with(rho: np.ndarray, mat: np.ndarray) -> complex:
    # tr(rho @ mat) without forming the product
    return complex(np.einsum("ij,ji->", rho, mat))


def expectation(state: ThermalState, A: GlobalOperator) -> complex:
    mat = _on_region(A, state.region, state.rho.q)
    return _traced_with(state.rho.matrix, mat)


def covariance(state: ThermalState, A: GlobalOperator, B: GlobalOperator) -> complex:
    """<AB> - <A><B> in the given thermal state.

    For observables on disjoint supports the product AB is assembled on the
    small joint support before embedding, so the cost stays quadratic in the
    full dimension rather than cubic.
    """
    q = state.rho.q
    rho = state.rho.matrix
    if A.region.isdisjoint(B.region):
        both = A.region | B.region
        ab = embed(A.matrix, A.region, both, q).matrix @ embed(
            B.matrix, B.region, both, q
        ).matrix
        ab_full = embed(ab, both, state.region, q).matrix
    else:
        ab_full = _on_region(A, state.region, q) @ _on_region(B, state.region, q)
    mean_ab = _traced_with(rho, ab_full)
    mean_a = _traced_with(rho, _on_region(A, state.region, q))
    mean_b = _traced_with(rho, _on_region(B, state.region, q))
    return complex(mean_ab - mean_a * mean_b)


# ---------------------------------------------------------------------------
# decay sweeps
# ---------------------------------------------------------------------------

FIT_FLOOR = 1e-13  # |cov| below this is treated as numerically zero


def observable_from_template(
    template, anchor, spec: HamiltonianSpec, shift: int = 0
) -> GlobalOperator:
    """Product of single-site operators at offsets relative to an anchor site.

    ``template`` is a list of (offset, name) pairs with names from
    I, X, Y, Z, N; integer offsets act on the first coordinate axis.
    ``shift`` displaces the whole template along the first axis.
    """
    anchor = (anchor,) if isinstance(anchor, int) else tuple(anchor)
    factors = []
    for off, name in template:
        if isinstance(off, int):
            off = (off,) + (0,) * (len(anchor) - 1)
        site = tuple(a + o for a, o in zip(anchor, off))
        site = (site[0] + shift,) + site[1:]
        if site not in spec.sites:
            raise ValueError(f"observable site {site} is outside the lattice")
        factors.append((site, PAULI_BY_NAME[name]))
    support = Region(site for site, _ in factors)
    dim = spec.q ** len(support)
    mat = np.eye(dim, dtype=complex)
    for site, local in factors:
        mat = mat @ embed(local, Region([site]), support, spec.q).matrix
    return GlobalOperator(support, spec.q, mat)


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
    anchor=None,
    strict: bool = True,
    floor: float = FIT_FLOOR,
) -> DecayFit:
    """Measure |Cov(A, B_d)| over a list of distances and fit ln|cov| ~ d.

    B is the B_template displaced by d along the first axis.  Distances must
    be strictly increasing.  Points with |cov| <= floor are recorded but
    excluded from the fit; if fewer than two remain the sweep has no usable
    decay signal -- strict mode raises DegenerateFitError, otherwise a
    DecayFit with outcome "floor" and NaN fit parameters is returned.
    """
    distances = list(distances)
    if any(d2 <= d1 for d1, d2 in zip(distances, distances[1:])):
        raise ValueError("distances must be strictly increasing")
    if anchor is None:
        anchor = spec.sites[0]
    A = observable_from_template(A_template, anchor, spec)
    _, _, H = build_restricted(spec, spec.sites)
    state = gibbs_state(H, beta)

    points = []
    for d in distances:
        B = observable_from_template(B_template, anchor, spec, shift=d)
        points.append((d, abs(covariance(state, A, B))))

    usable = [(d, math.log(c)) for d, c in points if c > floor]
    if len(usable) < 2:
        if strict:
            raise DegenerateFitError(
                f"only {len(usable)} of {len(points)} covariances exceed the "
                f"floor {floor:g} at beta = {beta}"
            )
        return DecayFit(
            beta=beta,
            points=tuple(points),
            points_used=len(usable),
            slope=math.nan,
            intercept=math.nan,
            xi=math.nan,
            outcome="floor",
        )
    xs = np.array([d for d, _ in usable], dtype=float)
    ys = np.array([y for _, y in usable], dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    xi = -1.0 / slope if slope != 0 else math.inf
    return DecayFit(
        beta=beta,
        points=tuple(points),
        points_used=len(usable),
        slope=float(slope),
        intercept=float(intercept),
        xi=float(xi),
        outcome="ok",
    )


# ---------------------------------------------------------------------------
# classical-chain oracle
# ---------------------------------------------------------------------------

def ising_hamiltonian(n: int, J: float) -> GlobalOperator:
    """H = -J sum_k sigma3_k sigma3_{k+1} on an open chain of n spins."""
    if n > 12:
        raise ValueError("classical-chain oracle capped at n = 12 spins")
    sites = Region((i,) for i in range(n))
    zz = np.kron(PAULI_BY_NAME["Z"], PAULI_BY_NAME["Z"])
    H = np.zeros((2**n, 2**n), dtype=complex)
    for k in range(n - 1):
        H -= J * embed(zz, Region([(k,), (k + 1,)]), sites, 2).matrix
    return GlobalOperator(sites, 2, H)


def ising_oracle(n: int, J: float, beta: float, i: int, j: int) -> float:
    """Exact Cov(sigma3_i, sigma3_j) in the open-chain classical model.

    For free boundaries the transfer-matrix answer is tanh(beta J)^|i-j|
    independently of n; this routine computes the same number through the
    generic Gibbs machinery so the two can be compared as independent routes.
    """
    H = ising_hamiltonian(n, J)
    state = gibbs_state(H, beta)
    Z = PAULI_BY_NAME["Z"]
    A = GlobalOperator(Region([(i,)]), 2, Z.copy())
    B = GlobalOperator(Region([(j,)]), 2, Z.copy())
    return float(covariance(state, A, B).real)


def ising_exact_covariance(J: float, beta: float, i: int, j: int) -> float:
    return math.tanh(beta * J) ** abs(j - i)


def ising_exact_xi(J: float, beta: float) -> float:
    return -1.0 / math.log(math.tanh(beta * J))


# ---------------------------------------------------------------------------
# spectral histogram and the decay-bound certificate
# ---------------------------------------------------------------------------

def mbdos_histogram(H, bin_width: float = 1.0) -> list[tuple[float, int]]:
    """Many-body density of states: eigenvalue counts in bins k * bin_width.

    Each eigenvalue is assigned to the nearest integer multiple of
    bin_width; returned as a sorted list of (bin center, count) with empty
    bins omitted.
    """
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    mat = H.matrix if isinstance(H, GlobalOperator) else np.asarray(H)
    w = herm_eig(mat).eigenvalues
    counts: dict[int, int] = {}
    for e in w:
        k = int(round(float(e) / bin_width))
        counts[k] = counts.get(k, 0) + 1
    return [(k * bin_width, counts[k]) for k in sorted(counts)]


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
