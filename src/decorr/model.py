"""Hamiltonian classes: gapped on-site parts plus form-bounded interactions.

The models treated here have H = H0 + V with H0 = sum_z h_z strictly local,
every h_z positive semidefinite with a simple ground state at energy exactly
zero and spectral gap >= 1, and V = sum_x v_x where v_x is supported on the
radius-R ball around its center x (only centers whose ball lies inside the
lattice contribute).  Each interaction carries a certified relative form
bound:

    |<psi, v_x psi>| <= (a / (2R+1)^D) <psi, H0_{B_R(x)} psi>,

and the certificate is computed, not assumed: the generalized eigenproblem
of v against K = H0_ball / (2R+1)^D is solved exactly on the complement of
ker K, after checking that v annihilates the kernel (a nonzero kernel block
would make no finite constant work, and physically it couples the
unperturbed ground state to itself or to excited states).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Number
from typing import Mapping

import numpy as np

from .algebra import (
    BlockEigensystem,
    GlobalOperator,
    _herm_blocks,
    _place,
    _require_hermitian,
    _scatter_blocks,
    _sector_sums,
    _stack_eigensystem,
    embed,
    herm_blocks,
    herm_eig,
    op_norm,
    support_index_map,
)
from .lattice import (
    LatticeGeometry,
    Region,
    Site,
    _integer,
    _real,
    _site,
    ball,
    chain_geometry,
    interior,
    l1_distance,
)

# single-site operator basis (q = 2)
SIGMA0 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_MINUS = SIGMA_PLUS.T.copy()
NUMBER = np.diag([0.0, 1.0]).astype(complex)  # N = (1 - sigma3)/2

PAULI_BY_NAME = {"I": SIGMA0, "X": SIGMA1, "Y": SIGMA2, "Z": SIGMA3, "N": NUMBER}

KERNEL_TOL = 1e-12
GAP_TOL = 1e-9  # absolute, on the ground energy, its degeneracy and the gap
NONPOSITIVE_TOL = 1e-12


class CertificationError(ValueError):
    """Raised when an interaction admits no valid relative form bound."""

    def __init__(self, message: str, center: Site | None = None):
        super().__init__(message)
        self.center = center


class CouplingRangeError(ValueError):
    """A two-site coupling reaches farther than the declared radius R."""


@dataclass(frozen=True)
class GapCheck:
    ok: bool
    ground_energy: float
    gap: float
    ground_degeneracy: int


def gap_check(h: np.ndarray) -> GapCheck:
    """Check one on-site term: PSD, simple ground state at 0, gap >= 1."""
    w = herm_blocks(h).eigenvalues
    e0 = float(w[0])
    degeneracy = int(np.sum(w <= e0 + GAP_TOL))
    gap = float(w[degeneracy] - e0) if len(w) > degeneracy else np.inf
    ok = abs(e0) <= GAP_TOL and degeneracy == 1 and gap >= 1 - GAP_TOL
    return GapCheck(ok=ok, ground_energy=e0, gap=gap, ground_degeneracy=degeneracy)


@dataclass(frozen=True)
class InteractionTerm:
    """One interaction v_x: a Hermitian operator on ``support`` centered at x."""

    center: Site
    support: Region
    matrix: np.ndarray


def _symmetrized(M, what: str) -> np.ndarray:
    """The symmetrization of a Hermitian M, read-only; ValueError naming ``what`` otherwise."""
    try:
        M = _require_hermitian(np.asarray(M))
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc
    M.flags.writeable = False
    return M


@dataclass
class HamiltonianSpec:
    """A lattice, on-site terms, certified interactions, and their metadata.

    ``a`` is the certified form-bound constant (max over interaction
    centers).  Building a spec checks each on-site and interaction matrix for
    hermiticity once and keeps its symmetrization, read-only, so every sum
    of them accumulated from zeros is exactly Hermitian and never checked
    again; it then computes ``h_sup``/``v_sup``, the largest operator norms
    among them, ``nonpositive`` (every interaction's top eigenvalue is at most
    NONPOSITIVE_TOL * max(1, |lowest|)) and ``interior``, the sites whose
    radius-R ball lies in the lattice.

    A spec is not changed after :func:`make_spec` builds it (no function
    here assigns to its fields or to its term dicts), so ``spectra`` can
    memoize, per region S, the block eigensystems of H_S that
    :func:`restricted_spectrum` solves, and ``block_spectra``, per (size,
    value bytes) of a clongdouble zero-pattern block of some H_M in an
    alternating-sum term, shifted by its mean diagonal, the refined core's
    (eigenvalues, eigenvectors) of that shifted block, in the core's order
    (beta-independent; see :mod:`decorr.algebra`).  ``term_blocks`` maps
    (M, base), M a tuple of centers in canonical order, to the blocks of
    H_M = H0_base + sum_{x in M} v_x: per block size their rows, ascending
    eigenvalues and, for blocks above size one, the eigenvectors in
    ``block_spectra`` themselves, or sorted copies where sorting moves a
    column (see :func:`~decorr.algebra._memo_eighs`).  H_M depends on
    (spec, M, base) alone, so an entry serves every term, base observable
    and beta that meets that H_M again, without summing or splitting it;
    with M every interaction center and base the lattice, it is the
    resummation's reference H.
    The memos live and die with the spec and take no part in its repr or
    equality.
    """

    geometry: LatticeGeometry
    q: int
    onsite: dict[Site, np.ndarray]
    interactions: dict[Site, InteractionTerm]
    a: float
    model: str = "custom"
    params: dict = field(default_factory=dict)
    spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    block_spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    term_blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    h_sup: float = field(init=False)
    v_sup: float = field(init=False)
    nonpositive: bool = field(init=False)
    interior: Region = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.onsite = {z: _symmetrized(h, f"on-site term at {z}") for z, h in self.onsite.items()}
        self.interactions = {
            x: InteractionTerm(t.center, t.support, _symmetrized(t.matrix, f"interaction at {x}"))
            for x, t in self.interactions.items()
        }
        self.h_sup = max((op_norm(h) for h in self.onsite.values()), default=0.0)
        self.v_sup = max((op_norm(t.matrix) for t in self.interactions.values()), default=0.0)
        eigenvalues = (_herm_blocks(t.matrix).eigenvalues for t in self.interactions.values())
        self.nonpositive = all(
            float(w[-1]) <= NONPOSITIVE_TOL * max(1.0, abs(float(w[0]))) for w in eigenvalues
        )
        self.interior = interior(self.sites, self.geometry)

    @property
    def sites(self) -> Region:
        return self.geometry.sites


def certify_form_bound(
    interaction: InteractionTerm,
    onsite: Mapping[Site, np.ndarray],
    geometry: LatticeGeometry,
    q: int,
) -> float:
    """Minimal a' >= 0 with -a'K <= v <= a'K, K = H0_ball / (2R+1)^D.

    The ball Hamiltonian is diagonalized; eigenvectors with eigenvalue below
    KERNEL_TOL (relative to the top of the spectrum) span ker K.  v must
    vanish on ker K and between ker K and its complement -- otherwise no
    constant exists and certification fails.  On the complement the optimal
    constant is the largest |eigenvalue| of D^{-1/2} U* v U D^{-1/2}.
    """
    x = interaction.center
    B = ball(x, geometry.R, geometry)
    if x not in interior(B, geometry):
        raise CertificationError(
            f"interaction ball around {x} sticks out of the lattice", center=x
        )
    if not interaction.support.issubset(B):
        raise CertificationError(
            f"interaction at {x} is supported outside its radius-R ball", center=x
        )
    card = (2 * geometry.R + 1) ** geometry.D
    dim = q ** len(B)
    K = onsite_sum(onsite, B, q, complex) / card
    V = embed(interaction.matrix, interaction.support, B, q).matrix

    eig = herm_eig(K)
    w, U = eig.eigenvalues, eig.eigenvectors
    ktol = KERNEL_TOL * max(1.0, float(w[-1]))
    n0 = int(np.sum(w <= ktol))
    W = U.conj().T @ V @ U
    vtol = KERNEL_TOL * max(1.0, op_norm(V))
    if n0 > 0:
        kk = np.max(np.abs(W[:n0, :n0]))
        kr = np.max(np.abs(W[:n0, n0:])) if n0 < dim else 0.0
        if kk > vtol or kr > vtol:
            raise CertificationError(
                f"interaction at {x} does not vanish on the ground sector of its "
                f"ball (kernel block {kk:.2e}, cross block {kr:.2e})",
                center=x,
            )
    if n0 == dim:
        return 0.0
    d_inv = 1.0 / np.sqrt(w[n0:])
    Wt = (W[n0:, n0:] * d_inv[None, :]) * d_inv[:, None]
    Wt = (Wt + Wt.conj().T) / 2
    return float(np.max(np.abs(np.linalg.eigvalsh(Wt))))


def make_spec(
    geometry: LatticeGeometry,
    q: int,
    onsite: Mapping[Site, np.ndarray],
    interactions: Mapping[Site, InteractionTerm],
    model: str = "custom",
    params: dict | None = None,
) -> HamiltonianSpec:
    """Assemble and certify a spec: hermiticity, gap checks, form bounds, metadata.

    The spec is built first, so a non-Hermitian term is rejected before
    anything is solved; the certified constant is set on it last.  ``model``
    is a kind :func:`spec_from_json` reads.
    """
    _known_model(model)
    if any(term.center != x for x, term in interactions.items()):
        raise ValueError("interaction dict key must equal the term center")
    spec = HamiltonianSpec(
        geometry=geometry,
        q=q,
        onsite=onsite,
        interactions=interactions,
        a=math.nan,
        model=model,
        params=dict(params or {}),
    )
    for z in geometry.sites:
        if z not in spec.onsite:
            raise ValueError(f"missing on-site term at {z}")
        chk = gap_check(spec.onsite[z])
        if not chk.ok:
            raise ValueError(
                f"on-site term at {z} violates the gap condition: "
                f"ground energy {chk.ground_energy:.2e}, gap {chk.gap:.3f}, "
                f"degeneracy {chk.ground_degeneracy}"
            )
    a = 0.0
    for term in spec.interactions.values():
        a = max(a, certify_form_bound(term, spec.onsite, geometry, q))
    if a >= 1:
        raise CertificationError(f"certified constant a = {a:.4f} is not below 1")
    spec.a = float(a)
    return spec


# ---------------------------------------------------------------------------
# anisotropic nearest-neighbour spin chain / lattice builder
# ---------------------------------------------------------------------------

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's 32-bit hash; each call advances its hash constant."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of two 32-bit pool words."""
    r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
    return r ^ r >> 16


def _uniform_draws(seed: int, n: int) -> list[float]:
    """The first n doubles of numpy's ``default_rng(seed).random(n)``, bit for bit.

    ``default_rng`` is a PCG64 generator (M. E. O'Neill, HMC-CS-2014-0905:
    128-bit LCG, XSL-RR output) seeded through ``SeedSequence``; both are
    written out here on Python ints, so a seed fixes its instance on any numpy
    and a seeded spec does not import numpy.random.
    """
    words = [seed & _M32]  # little-endian 32-bit words of the seed
    while seed >> 32:
        seed >>= 32
        words.append(seed & _M32)
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(w))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    state32 = [hashmix(pool[i % 4]) for i in range(8)]
    u = [state32[i] | state32[i + 1] << 32 for i in range(0, 8, 2)]
    inc = ((u[2] << 64 | u[3]) << 1 | 1) & _M128
    state = ((inc + (u[0] << 64 | u[1])) * _PCG_MULT + inc) & _M128
    out = []
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _M128
        x, rot = ((state >> 64) ^ state) & _M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        out.append((x >> 11) * 2.0**-53)
    return out


def _pair_key(x: Site, y: Site) -> tuple[Site, Site]:
    return (x, y) if x <= y else (y, x)


def _coupling_map(values, sites: Region, name: str, hermitian: bool) -> dict:
    """Normalize scalar or per-pair coupling ``name`` to {ordered pair: value}.

    A scalar J means J on every ordered pair at l1 distance exactly 1
    (nearest neighbours), zero elsewhere.  A value that is not finite is
    refused by name before anything multiplies it.
    """
    if not isinstance(values, (dict, list, tuple)):
        if isinstance(values, bool) or not isinstance(values, Number):  # a bool is a Number
            raise TypeError(f"coupling {name} = {values!r} is not a number")
        J = complex(values)
        if not np.isfinite(J):
            raise ValueError(f"coupling {name} = {values!r} is not finite")
        if J == 0:
            return {}
        out = {}
        for x in sites:
            for y in sites:
                if l1_distance(x, y) == 1:
                    out[(x, y)] = J
        return out
    out = {}
    for entry in values.items() if isinstance(values, dict) else values:
        if isinstance(values, dict):
            (x, y), val = entry
        else:
            x, y, re, im = entry
            val = complex(_real(re), _real(im))
        x, y = _site(x, f"{name} site"), _site(y, f"{name} site")
        out[(x, y)] = complex(val)
        if not np.isfinite(out[(x, y)]):
            raise ValueError(f"coupling {name} on pair ({x}, {y}) is not finite: {val!r}")
    for (x, y), val in out.items():
        if x == y:
            raise ValueError(f"coupling on the diagonal pair ({x}, {x}) is not allowed")
        partner = out.get((y, x), 0.0)
        expected = np.conj(val) if hermitian else val
        if abs(partner - expected) > 1e-12 * max(1.0, abs(val)):
            raise ValueError(f"coupling map is not symmetric on pair ({x}, {y})")
    return out


def xxz_spec(
    extent,
    lam: float = 0.0,
    seed: int = 0,
    J12=0.0,
    J3=0.0,
    R: int | None = None,
) -> HamiltonianSpec:
    """Random-field anisotropic spin model on an open n-site chain or a given geometry.

    On-site terms h_z = (1 + lam * omega_z) N_z with omega_z drawn uniformly
    from [0, 1), one draw per site in canonical order from the PCG64 stream
    of a non-negative integer seed.  The stream is numpy's
    ``default_rng(seed).random``, reproduced bit for bit on Python ints by
    ``_uniform_draws`` (tests/test_model.py compares the two), so a seed
    gives the same instance on any numpy.  Interactions collect, for every
    unordered pair {x, y} inside some radius-R ball,

        (J12(x,y) + J12(y,x)) (sp_x sm_y + sm_x sp_y)
      + (J3(x,y) + J3(y,x)) N_x N_y,

    assigned to the lexicographically smaller endpoint as center.  Pairs
    whose center ball sticks out of the lattice are omitted (open-boundary
    convention: the interaction sum runs over interior centers only).
    Couplings between sites farther than R apart raise CouplingRangeError.
    An integer extent is a chain of radius R (1 if None); a geometry brings
    its own radius, and an R that differs from it is refused.
    """
    if not isinstance(extent, LatticeGeometry):
        extent = chain_geometry(extent, 1 if R is None else R)
    elif R not in (None, extent.R):
        raise ValueError(f"R = {R!r} differs from the geometry's R = {extent.R}")
    geometry = extent
    sites = geometry.sites
    inner = interior(sites, geometry)

    seed = _integer(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    lam = _real(lam)
    if not math.isfinite(lam):
        raise ValueError(f"lambda = {lam!r} is not finite")
    j12 = _coupling_map(J12, sites, "J12", hermitian=True)
    j3 = _coupling_map(J3, sites, "J3", hermitian=False)

    omega = _uniform_draws(seed, len(sites))
    onsite = {z: (1.0 + lam * w) * NUMBER for z, w in zip(sites, omega)}

    hop = np.kron(SIGMA_PLUS, SIGMA_MINUS) + np.kron(SIGMA_MINUS, SIGMA_PLUS)
    nn = np.kron(NUMBER, NUMBER)
    pair_terms: dict[tuple[Site, Site], np.ndarray] = {}
    for (x, y) in set(j12) | set(j3):
        key = _pair_key(x, y)
        if key in pair_terms:
            continue
        d = l1_distance(*key)
        if d > geometry.R:
            raise CouplingRangeError(
                f"pair {key} at distance {d} exceeds the interaction radius {geometry.R}"
            )
        c12 = j12.get(key, 0.0) + j12.get(key[::-1], 0.0)
        c3 = j3.get(key, 0.0) + j3.get(key[::-1], 0.0)
        if abs(c12.imag) > 1e-14 or abs(complex(c3).imag) > 1e-14:
            raise ValueError("assembled pair coefficients must be real")
        # legs of the 4x4 blocks follow canonical order, i.e. key[0] first
        pair_terms[key] = c12.real * hop + complex(c3).real * nn

    interactions: dict[Site, InteractionTerm] = {}
    for (x, y), mat in sorted(pair_terms.items()):
        center = x  # lexicographically smaller endpoint
        if center not in inner:
            continue  # boundary pair: no interior center owns it
        pair_region = Region([x, y])
        if center in interactions:
            old = interactions[center]
            support = old.support | pair_region
            m = embed(old.matrix, old.support, support, 2).matrix + embed(
                mat, pair_region, support, 2
            ).matrix
            interactions[center] = InteractionTerm(center, support, m)
        else:
            interactions[center] = InteractionTerm(center, pair_region, mat)

    params = {
        "lambda": lam,
        "seed": seed,
        "J12": J12 if np.isscalar(J12) else sorted((x, y, v.real, v.imag) for (x, y), v in j12.items()),
        "J3": J3 if np.isscalar(J3) else sorted((x, y, v.real, v.imag) for (x, y), v in j3.items()),
    }
    return make_spec(geometry, 2, onsite, interactions, model="xxz", params=params)


# ---------------------------------------------------------------------------
# restriction and normalization
# ---------------------------------------------------------------------------

def _onsite_terms(onsite: Mapping, region: Region, q: int) -> list:
    """The on-site terms of ``region`` in site order, each with its index map on ``region``.

    A region with a site outside the lattice is refused first; the index
    maps refuse one above the dense cap before any is made.
    """
    if any(z not in onsite for z in region):
        raise ValueError("restriction region is not contained in the lattice")
    return [(onsite[z], support_index_map(Region._canonical((z,)), region, q)) for z in region]


def _interaction_terms(spec: HamiltonianSpec, centers, region: Region) -> list:
    """The interactions of ``centers`` in their order, each with its index map on ``region``."""
    terms = (spec.interactions[x] for x in centers)
    return [(t.matrix, support_index_map(t.support, region, spec.q)) for t in terms]


def onsite_sum(onsite: Mapping, region: Region, q: int, dtype) -> np.ndarray:
    """H0 = sum_z h_z (x) 1 on ``region``: the embeddings added into ``dtype`` zeros in site order.

    The region is refused as :func:`_onsite_terms` refuses it, before any matrix is made.
    """
    terms = _onsite_terms(onsite, region, q)
    H0 = np.zeros((q ** len(region),) * 2, dtype=dtype)
    for z, (h, _) in zip(region, terms):
        H0 += embed(h, Region._canonical((z,)), region, q).matrix
    return H0


def _local_sums(spec: HamiltonianSpec, base: Region, Ms, dtype) -> list[list]:
    """H_M = H0_base + sum_{x in M} v_x on ``base`` for each M, assembled by sectors in ``dtype``.

    Every H of a spec that is solved is such a sum, in one order: the
    base's on-site terms in site order, then each v_x of M in turn.  Each
    term is placed once for all the Ms, and each H_M comes as its
    ``(rows, blocks)`` per block size (:func:`~decorr.algebra._sector_sums`).
    """
    onsite = _place(_onsite_terms(spec.onsite, base, spec.q))
    centers = dict.fromkeys(x for M in Ms for x in M)
    placed = dict(zip(centers, _place(_interaction_terms(spec, centers, base))))
    return _sector_sums([onsite + [placed[x] for x in M] for M in Ms], base, spec.q, dtype)


def build_restricted(spec: HamiltonianSpec, S: Region):
    """(H0_S, V_S, H_S) on S in complex128: all on-site terms in S, interactions with ball in S.

    The on-site terms in site order, the interactions in center order and
    both lists one after the other, each summed by sectors
    (:func:`~decorr.algebra._sector_sums`) and its blocks written into
    zeros: H_S is the blocks :func:`restricted_spectrum` solves.
    """
    onsite = _place(_onsite_terms(spec.onsite, S, spec.q))
    interactions = _place(_interaction_terms(spec, interaction_centers(spec, S), S))
    sums = _sector_sums([onsite, interactions, onsite + interactions], S, spec.q, complex)
    dim = spec.q ** len(S)
    return tuple(GlobalOperator(S, spec.q, _scatter_blocks(dim, complex, s)) for s in sums)


def restricted_spectrum(spec: HamiltonianSpec, S: Region) -> BlockEigensystem:
    """Block eigensystems of H_S in complex128, solved once per spec and region.

    H_S is :func:`_local_sums`'s H_M with M the interaction centers of S
    (:func:`interaction_centers`): no matrix of the full dimension is
    formed, and its blocks, those :func:`build_restricted` writes into its
    dense H_S, are solved unchecked.  Later calls with the same region
    (at any beta) reuse ``spec.spectra``.
    """
    if S not in spec.spectra:
        (stacks,) = _local_sums(spec, S, [interaction_centers(spec, S)], complex)
        spec.spectra[S] = _stack_eigensystem(spec.q ** len(S), stacks)
    return spec.spectra[S]


def interaction_centers(spec: HamiltonianSpec, S: Region) -> Region:
    """Centers whose interaction survives restriction to S."""
    return Region(
        x
        for x in spec.interactions
        if ball(x, spec.geometry.R, spec.geometry).issubset(S)
    )


def normalize_nonpositive(spec: HamiltonianSpec) -> HamiltonianSpec:
    """Rewrite H = H0' + V' with every interaction negative semidefinite.

    Subtracting the form bound makes each interaction nonpositive:
    v'_x = v_x - atilde * H0_{B_R(x)} with atilde = a / (2R+1)^D.  The
    on-site terms absorb the subtraction: h'_z = (1 + atilde * m_z) h_z,
    where m_z counts the interaction balls containing z, so the total
    Hamiltonian is unchanged identically (in the bulk of a regular lattice
    m_z is the full ball cardinality; near the boundary the multiplicity
    correction keeps the identity exact).  Gap and zero ground energy of the
    on-site terms survive since 1 + atilde * m_z >= 1, and the recertified
    constant obeys a_new <= 2 atilde (2R+1)^D / (1 + atilde).
    Its CertificationError, center kept, is prefixed ``normalized spec:``.
    """
    if not spec.interactions:
        return spec
    geometry, q = spec.geometry, spec.q
    card = (2 * geometry.R + 1) ** geometry.D
    atilde = spec.a / card

    mult = {z: 0 for z in spec.sites}
    for x in spec.interactions:
        for z in ball(x, geometry.R, geometry):
            mult[z] += 1
    onsite = {z: (1.0 + atilde * mult[z]) * h for z, h in spec.onsite.items()}

    interactions = {}
    for x, term in spec.interactions.items():
        B = ball(x, geometry.R, geometry)
        m = embed(term.matrix, term.support, B, q).matrix - atilde * onsite_sum(
            spec.onsite, B, q, complex
        )
        interactions[x] = InteractionTerm(x, B, m)

    params = dict(spec.params)
    params["normalized_from_a"] = spec.a
    try:
        return make_spec(geometry, q, onsite, interactions, model="custom", params=params)
    except CertificationError as exc:
        raise CertificationError(f"normalized spec: {exc}", center=exc.center) from exc


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, complex)]


def _matrix_from_json(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def spec_to_json(spec: HamiltonianSpec) -> dict:
    out = {
        "D": spec.geometry.D,
        "R": spec.geometry.R,
        "q": spec.q,
        "lattice": spec.sites.to_json(),
        "model": spec.model,
    }
    if spec.model == "xxz":  # xxz_spec keeps each of its parameters
        out.update((key, spec.params[key]) for key in ("lambda", "seed", "J12", "J3"))
    else:
        out["onsite"] = [[list(z), _matrix_to_json(h)] for z, h in sorted(spec.onsite.items())]
        out["interactions"] = [
            [list(x), t.support.to_json(), _matrix_to_json(t.matrix)]
            for x, t in sorted(spec.interactions.items())
        ]
    return out


# the keys spec_to_json writes for each kind of model, and all spec_from_json reads
_SPEC_KEYS = {
    "xxz": ("D", "R", "q", "lattice", "model", "lambda", "seed", "J12", "J3"),
    "custom": ("D", "R", "q", "lattice", "model", "onsite", "interactions"),
}


def _known_model(model) -> str:
    """``model`` if it is a kind in ``_SPEC_KEYS``; a ValueError naming it otherwise."""
    if not isinstance(model, str) or model not in _SPEC_KEYS:
        raise ValueError(f"unknown model {model!r}; known: {', '.join(map(repr, _SPEC_KEYS))}")
    return model


def spec_from_json(data: dict) -> HamiltonianSpec:
    """The spec a model block describes: spec_to_json's keys, with defaults.

    ``n`` in place of ``D`` and ``lattice`` is the D = 1 chain of sites
    0..n-1.  ``model`` defaults to "xxz" and ``q`` to 2, an xxz model's
    ``lambda``, ``seed``, ``J12`` and ``J3`` to 0.  A key the kind of model
    does not read is refused by name, and so are an unknown kind of model,
    a missing key, a lattice with no sites and a site listed twice.
    """
    data = dict(data)
    if "n" in data and "lattice" not in data:
        data.setdefault("D", 1)
        data["lattice"] = [[i] for i in range(_integer(data.pop("n")))]
    model = _known_model(data.get("model", "xxz"))
    unknown = sorted(set(data) - set(_SPEC_KEYS[model]))
    if unknown:
        raise ValueError(f"unknown key {', '.join(map(repr, unknown))} for model {model!r}")
    for key in ("R", "D", "lattice") + (() if model == "xxz" else ("onsite", "interactions")):
        if key not in data:
            raise ValueError(f"model block needs {key!r}")
    geometry = LatticeGeometry(
        D=_integer(data["D"]), R=_integer(data["R"]), sites=Region.from_json(data["lattice"])
    )
    if not geometry.sites:
        raise ValueError("the model lattice has no sites")
    q = _integer(data.get("q", 2))
    if model == "xxz":
        if q != 2:
            raise ValueError(f"an xxz model has q = 2, got q = {q}")
        return xxz_spec(
            geometry,
            lam=data.get("lambda", 0.0),
            seed=data.get("seed", 0),
            J12=data.get("J12", 0.0),
            J3=data.get("J3", 0.0),
        )
    onsite = {tuple(map(_integer, z)): _matrix_from_json(h) for z, h in data["onsite"]}
    interactions = {}
    for x, support, m in data["interactions"]:
        x = tuple(map(_integer, x))
        interactions[x] = InteractionTerm(x, Region.from_json(support), _matrix_from_json(m))
    return make_spec(geometry, q, onsite, interactions, model="custom")
