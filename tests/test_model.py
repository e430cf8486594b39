"""Hamiltonian assembly, form-bound certification, normalization."""

import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest

import decorr as dc
from decorr import algebra, expansion, model
from decorr.lattice import Region, box_geometry, chain_geometry
from decorr.model import (
    NUMBER,
    PAULI_BY_NAME,
    CertificationError,
    CouplingRangeError,
    InteractionTerm,
    certify_form_bound,
    interaction_centers,
    onsite_sum,
    restricted_spectrum,
)

import reference
from conftest import boson_model, chain, zero_pattern_groups

# certified relative form-bound constant of the canonical instance; the
# maximizing ball sits in the seed-7 field prefix shared by every chain length
CANONICAL_A = 0.11124012648154569


def test_pauli_algebra():
    X, Y, Z, I = (PAULI_BY_NAME[k] for k in "XYZI")
    assert np.allclose(X @ X, I)
    assert np.allclose(X @ Y - Y @ X, 2j * Z)
    assert np.allclose(NUMBER, (I - Z) / 2)


def test_free_chain_spectrum():
    spec = chain(5, lam=0.0, J12=0.0, J3=0.0, seed=0)
    _, _, H = dc.build_restricted(spec, spec.sites)
    w = np.linalg.eigvalsh(H.matrix)
    # total-occupation spectrum: integers 0..5 with binomial degeneracy
    assert np.allclose(w, np.repeat(np.arange(6), [1, 5, 10, 10, 5, 1]))


def test_ground_state_is_exact_vacuum(chain6):
    _, _, H = dc.build_restricted(chain6, chain6.sites)
    # the all-empty product state is an exact eigenstate at exactly 0
    assert H.matrix[0, 0] == 0.0
    assert np.abs(H.matrix[0, 1:]).max() == 0.0
    w = np.linalg.eigvalsh(H.matrix)
    assert w[0] == pytest.approx(0.0, abs=1e-12)
    assert w[1] > 0.5


def test_certified_constant_frozen(chain5, chain10):
    assert chain5.a == pytest.approx(CANONICAL_A, rel=1e-12)
    assert chain10.a == pytest.approx(CANONICAL_A, rel=1e-12)


def test_certified_constant_scales_linearly(chain5):
    doubled = chain(5, J12=0.04, J3=0.04)
    assert doubled.a == pytest.approx(2 * chain5.a, rel=1e-9)


def test_seed_determinism():
    a = chain(5)
    b = chain(5)
    for s in a.sites:
        assert np.array_equal(a.onsite[s], b.onsite[s])
    c = chain(5, seed=8)
    assert any(not np.array_equal(a.onsite[s], c.onsite[s]) for s in a.sites)


# seeds of one to five 32-bit words, at and past the word boundaries:
# SeedSequence pads the first four words and folds in the rest
LARGE_SEEDS = [2**32 - 1, 2**32, 2**40 + 12345, 2**64 + 7, 2**130 + 99, 10**30]


@pytest.mark.parametrize("seeds", [range(200), LARGE_SEEDS], ids=["0-199", "large"])
def test_uniform_draws_are_numpys_default_rng_stream(seeds):
    # the in-repo PCG64 / SeedSequence draw against numpy's, bit for bit
    for seed in seeds:
        for n in range(1, 15):  # every chain length the dense cap admits at q = 2
            assert model._uniform_draws(seed, n) == np.random.default_rng(seed).random(n).tolist()


@pytest.mark.parametrize("seed, error", [(None, TypeError), (True, TypeError), (-1, ValueError)])
def test_seed_is_a_non_negative_integer(seed, error):
    # None would draw OS entropy and True read as 1: neither spec's JSON reads back
    with pytest.raises(error):
        chain(5, seed=seed)


def test_numpy_integer_seed_is_stored_as_an_int():
    spec = chain(5, seed=np.int64(7))
    assert type(spec.params["seed"]) is int
    back = dc.spec_from_json(json.loads(json.dumps(dc.spec_to_json(spec))))
    assert back.params == spec.params
    for s in spec.sites:
        assert np.array_equal(back.onsite[s], spec.onsite[s])
        assert np.array_equal(back.onsite[s], chain(5, seed=7).onsite[s])


def _pencil_setup():
    geo = chain_geometry(5, 1)
    onsite = {s: NUMBER.astype(complex) for s in geo.sites}
    return geo, onsite


def test_certify_pair_occupation_oracle():
    # v = -c N (x) N on the middle ball: the optimizer is the doubly-occupied
    # pair state, giving |<v>| / <H0_B/3> = c / (2/3) = 1.5 c
    geo, onsite = _pencil_setup()
    c = 0.37
    v = -c * np.kron(NUMBER, NUMBER).astype(complex)
    term = InteractionTerm((2,), Region([(1,), (2,)]), v)
    a = certify_form_bound(term, onsite, geo, 2)
    assert a == pytest.approx(1.5 * c, rel=1e-10)


def test_certify_single_occupation_oracle():
    geo, onsite = _pencil_setup()
    c = 0.37
    term = InteractionTerm((2,), Region([(2,)]), -c * NUMBER.astype(complex))
    assert certify_form_bound(term, onsite, geo, 2) == pytest.approx(
        3 * c, rel=1e-10
    )


def test_certify_zero_interaction():
    geo, onsite = _pencil_setup()
    term = InteractionTerm((2,), Region([(2,)]), np.zeros((2, 2), dtype=complex))
    assert certify_form_bound(term, onsite, geo, 2) == 0.0


def test_certified_constant_dominates_random_states():
    # independent check of the variational characterization: no normalized
    # state orthogonal to the ground sector beats the certified ratio
    geo, onsite = _pencil_setup()
    c = 0.37
    v = -c * np.kron(NUMBER, NUMBER).astype(complex)
    term = InteractionTerm((2,), Region([(1,), (2,)]), v)
    a = certify_form_bound(term, onsite, geo, 2)
    ballsites = Region([(1,), (2,), (3,)])
    H0B = sum(
        dc.embed(onsite[s], Region([s]), ballsites, 2).matrix for s in ballsites
    )
    V = dc.embed(v, Region([(1,), (2,)]), ballsites, 2).matrix
    K = H0B / 3.0
    r = np.random.default_rng(5)
    trials = [psi for psi in np.eye(8)[1:]]  # occupation basis states
    for _ in range(300):
        psi = r.normal(size=8) + 1j * r.normal(size=8)
        psi[0] = 0.0  # project out the vacuum = ker K
        trials.append(psi)
    best = 0.0
    for psi in trials:
        num = abs(np.vdot(psi, V @ psi))
        den = np.real(np.vdot(psi, K @ psi))
        best = max(best, num / den)
    assert best <= a + 1e-9
    # the doubly-occupied basis state is an exact maximizer
    assert best == pytest.approx(a, rel=1e-12)


def test_certify_rejects_ground_coupling():
    geo, onsite = _pencil_setup()
    sx = PAULI_BY_NAME["X"].astype(complex)
    term = InteractionTerm((2,), Region([(2,)]), 0.3 * sx)
    with pytest.raises(CertificationError):
        certify_form_bound(term, onsite, geo, 2)


def test_spec_rejects_large_coupling():
    with pytest.raises(CertificationError, match="below 1"):
        chain(4, J12=3.0)


def test_coupling_range_enforced():
    with pytest.raises(CouplingRangeError):
        chain(6, J12={(0, 2): 0.1, (2, 0): 0.1})


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"lam": np.nan}, "lambda = nan"),
        ({"lam": np.inf}, "lambda = inf"),
        ({"J12": np.inf}, "J12 = inf"),
        ({"J3": complex(0.02, np.nan)}, "J3 = "),
        ({"J12": {((1,), (2,)): np.inf, ((2,), (1,)): np.inf}}, "J12 on pair ((1,), (2,))"),
        ({"J3": [[1, 2, np.nan, 0], [2, 1, np.nan, 0]]}, "J3 on pair ((1,), (2,))"),
    ],
    ids=["lambda-nan", "lambda-inf", "J12-inf", "J3-complex-nan", "J12-pair-inf", "J3-pair-nan"],
)
def test_non_finite_parameters_are_refused_by_name(overrides, named):
    # refused before any product: inf * 0 would warn, and a NaN term ended
    # the certificate in an SVD that does not converge
    with pytest.raises(ValueError, match=re.escape(named)):
        chain(5, **overrides)


def test_coupling_map_requires_symmetry():
    with pytest.raises(ValueError, match="symmetric"):
        chain(6, J12={(0, 1): 0.1})


def test_scalar_coupling_equals_explicit_ordered_pairs():
    n = 4
    pairs = {}
    for i in range(n - 1):
        pairs[(i, i + 1)] = 0.02
        pairs[(i + 1, i)] = 0.02
    a = chain(n)
    b = chain(n, J12=pairs, J3=pairs)
    Ha = dc.build_restricted(a, a.sites)[2]
    Hb = dc.build_restricted(b, b.sites)[2]
    assert np.allclose(Ha.matrix, Hb.matrix, atol=1e-15)


def test_boundary_bonds_dropped(chain6):
    # bonds whose center ball sticks out of the lattice are not assembled,
    # so the leftmost site of an R=1 chain ends up fully decoupled
    assert interaction_centers(chain6, chain6.sites) == Region(
        [(1,), (2,), (3,), (4,)]
    )
    tiny = chain(3)
    assert interaction_centers(tiny, tiny.sites) == Region([(1,)])


def test_gap_check_cases():
    ok = dc.gap_check(NUMBER.astype(complex))
    assert ok.ok and ok.gap == pytest.approx(1.0) and ok.ground_degeneracy == 1
    assert not dc.gap_check(np.diag([0.0, 0.5]).astype(complex)).ok
    assert not dc.gap_check(np.diag([0.2, 1.2]).astype(complex)).ok
    assert not dc.gap_check(np.diag([0.0, 0.0, 1.0]).astype(complex)).ok


def test_build_restricted_subregion(chain6):
    S = Region([(0,), (1,), (2,)])
    H0, V, H = dc.build_restricted(chain6, S)
    assert H0.region == S and H.region == S
    assert np.allclose(H0.matrix + V.matrix, H.matrix)
    # only center 1 has its ball inside S
    assert interaction_centers(chain6, S) == Region([(1,)])


@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
def test_onsite_sum_matches_kronecker_sum(dtype):
    # non-diagonal on-site terms on a 2x2 box; the Kronecker sum puts site k
    # (canonical order) on the k-th most significant tensor leg
    sites = box_geometry((2, 2)).sites
    r = np.random.default_rng(11)
    onsite = {}
    for z in sites:
        m = r.normal(size=(2, 2)) + 1j * r.normal(size=(2, 2))
        onsite[z] = m + m.conj().T
    assert all(onsite[z][0, 1] != 0 for z in sites)
    ref = np.zeros((16, 16), dtype=dtype)
    for k, z in enumerate(sites):
        ref += np.kron(
            np.kron(np.eye(2**k, dtype=dtype), onsite[z].astype(dtype)),
            np.eye(2 ** (len(sites) - 1 - k), dtype=dtype),
        )
    got = onsite_sum(onsite, sites, 2, dtype)
    assert got.dtype == dtype
    assert np.array_equal(got, ref)


def reference_terms(spec, S, centers):
    """The on-site terms of S in site order and the interactions of ``centers`` in their order.

    Each is a (legs, matrix) pair of ``reference.local_sum``: the positions
    of its support's sites in the canonical order of S.
    """
    leg = {z: k for k, z in enumerate(S)}
    onsite = [([leg[z]], spec.onsite[z]) for z in S]
    terms = (spec.interactions[x] for x in centers)
    return onsite, [([leg[z] for z in t.support], t.matrix) for t in terms]


def reference_restricted(spec, S):
    """(H0_S, V_S, H_S) summed from ``np.kron`` products (``reference.local_sum``)."""
    onsite, interactions = reference_terms(spec, S, interaction_centers(spec, S))
    return tuple(
        reference.local_sum(terms, len(S), spec.q)
        for terms in (onsite, interactions, onsite + interactions)
    )


def assert_sector_sum_is_the_dense_split(spec, S):
    """The sector blocks of H_S are the dense H_S's split; scattered back they are H_S, bitwise.

    The dense H_S is the ``np.kron`` reference; ``build_restricted`` writes
    its bits and those of the reference H0_S and V_S.
    """
    refs = reference_restricted(spec, S)
    for op, ref in zip(dc.build_restricted(spec, S), refs, strict=True):
        assert op.region == S and op.q == spec.q
        assert op.matrix.tobytes() == ref.tobytes()
    dense = refs[2]
    (stacks,) = model._local_sums(spec, S, [interaction_centers(spec, S)], complex)
    ref = list(algebra._block_stacks(dense))
    assert len(stacks) == len(ref)
    for (rows, blocks), (ref_rows, ref_blocks) in zip(stacks, ref):
        assert np.array_equal(rows, ref_rows)
        assert blocks.tobytes() == ref_blocks.tobytes()
    assert algebra._scatter_blocks(len(dense), complex, stacks).tobytes() == dense.tobytes()


SUBREGION = Region([(1,), (2,), (3,), (4,)])  # holds the interaction balls of 2 and 3

SECTOR_CASES = {
    "chain5": lambda: [(chain(5), None)],
    "chain6": lambda: [(chain(6), None)],
    "chain8": lambda: [(chain(8), None)],
    "chain10": lambda: [(chain(10), None)],
    "chain8-normalized": lambda: [(dc.normalize_nonpositive(chain(8)), None)],
    "chain6-subregions": lambda: [
        (spec, Region(c))
        for spec in [chain(6)]
        for k in range(7)
        for c in itertools.combinations(spec.sites, k)
    ],
    "empty": lambda: [(chain(5), Region())],
    # truncated bosons: q-level on-site terms and non-diagonal hops
    "bosons-q3": lambda: [
        (spec, S) for spec in [dc.spec_from_json(boson_model(6, 3))] for S in (None, SUBREGION)
    ],
    "bosons-q4": lambda: [
        (spec, S) for spec in [dc.spec_from_json(boson_model(5, 4))] for S in (None, SUBREGION)
    ],
}


@pytest.mark.parametrize("case", SECTOR_CASES)
def test_sector_sum_scatters_to_build_restricted(case):
    for spec, S in SECTOR_CASES[case]():
        assert_sector_sum_is_the_dense_split(spec, spec.sites if S is None else S)


def cancelling_spec():
    """A 4-site chain whose two interactions cancel the hop between sites 1 and 2 exactly.

    v_1 = c (hop_01 + hop_12) on the ball {0, 1, 2}, v_2 = c (hop_23 - hop_12)
    on {1, 2, 3}: every entry of hop_12 sums to c + (-c) = 0 in H, which
    splits each particle-number sector the term patterns join.
    """
    geometry = chain_geometry(4, 1)
    hop = np.kron(model.SIGMA_PLUS, model.SIGMA_MINUS)
    hop = hop + hop.T
    c = 0.02

    def on_ball(center, pairs):
        ball = Region([(center - 1,), (center,), (center + 1,)])
        return sum(
            sign * c * dc.embed(hop, Region([(a,), (a + 1,)]), ball, 2).matrix
            for a, sign in pairs
        ), ball

    interactions = {}
    for center, pairs in ((1, [(0, 1), (1, 1)]), (2, [(2, 1), (1, -1)])):
        m, ball = on_ball(center, pairs)
        interactions[(center,)] = InteractionTerm((center,), ball, m)
    onsite = {z: NUMBER for z in geometry.sites}
    return model.make_spec(geometry, 2, onsite, interactions)


def test_exact_cancellation_splits_sectors_as_the_dense_sum():
    spec = cancelling_spec()
    S = spec.sites
    dense = reference_restricted(spec, S)[2]
    dim = len(dense)
    # the term patterns join what the summed H splits: not a vacuous case
    patterns = sum(
        np.abs(algebra.embed(np.abs(t.matrix), t.support, S, 2).matrix)
        for t in spec.interactions.values()
    ) + np.abs(dense)
    joined = zero_pattern_groups(dim, *np.nonzero(patterns))
    split = zero_pattern_groups(dim, *np.nonzero(dense))
    assert len(split) > len(joined)
    assert_sector_sum_is_the_dense_split(spec, S)
    # the Gibbs path's spectrum is the dense split's, bit for bit
    got, ref = restricted_spectrum(spec, S), algebra._herm_blocks(dense)
    assert np.array_equal(got.order, ref.order)
    assert got.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
    for (rows, w, V), (ref_rows, ref_w, ref_V) in zip(got.blocks, ref.blocks, strict=True):
        assert np.array_equal(rows, ref_rows)
        assert w.tobytes() == ref_w.tobytes() and V.tobytes() == ref_V.tobytes()
    # and so is the expansion's, in clongdouble
    M = ((1,), (2,))
    (systems,) = expansion._fill(spec, [(M, S)])
    HM = reference.local_sum(sum(reference_terms(spec, S, M), []), len(S), 2, np.clongdouble)
    assert len(zero_pattern_groups(dim, *np.nonzero(HM))) == len(split)
    fresh = list(algebra._block_eighs(HM))
    for (rows, w, V), (ref_rows, ref_w, ref_V) in zip(systems, fresh, strict=True):
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(w, ref_w) and np.array_equal(np.asarray(V), ref_V)


def test_build_restricted_keeps_dtype(chain6):
    H0, V, H = dc.build_restricted(chain6, chain6.sites)
    assert H0.matrix.dtype == V.matrix.dtype == H.matrix.dtype == np.complex128


def test_disjoint_pieces_split_additively(chain6):
    A = Region([(0,), (1,)])
    B = Region([(4,), (5,)])
    wA = np.linalg.eigvalsh(dc.build_restricted(chain6, A)[2].matrix)
    wB = np.linalg.eigvalsh(dc.build_restricted(chain6, B)[2].matrix)
    wAB = np.linalg.eigvalsh(dc.build_restricted(chain6, A | B)[2].matrix)
    sums = np.sort(np.add.outer(wA, wB).ravel())
    assert np.allclose(wAB, sums, atol=1e-12)


def test_normalize_nonpositive_preserves_hamiltonian(chain8):
    norm = dc.normalize_nonpositive(chain8)
    H_old = dc.build_restricted(chain8, chain8.sites)[2].matrix
    H_new = dc.build_restricted(norm, norm.sites)[2].matrix
    assert np.linalg.norm(H_new - H_old) <= 1e-12 * np.linalg.norm(H_old)
    assert norm.nonpositive
    assert not chain8.nonpositive
    for s in norm.sites:
        assert dc.gap_check(norm.onsite[s]).ok


def test_normalize_constant_bound(chain8):
    atil = chain8.a / 3.0  # per-site share over the 3-site ball
    claimed = 2 * atil * 3 / (1 + atil)
    norm = dc.normalize_nonpositive(chain8)
    assert norm.a <= claimed + 1e-12
    assert norm.a == pytest.approx(0.20718772093491739, rel=1e-10)


def test_normalized_spec_refusal_is_worded_by_the_model(monkeypatch):
    # the seed-7 n = 4 chain at J12 = 0.13 certifies (a = 0.68), its
    # normalized spec does not; every caller reads the same prefixed refusal
    spec = chain(4, J12=0.13)
    assert spec.a == pytest.approx(0.68, abs=0.01)
    with pytest.raises(CertificationError) as refused:
        dc.normalize_nonpositive(spec)
    assert str(refused.value) == "normalized spec: certified constant a = 1.0222 is not below 1"
    assert refused.value.center is None

    def refuse(*args, **kwargs):
        raise CertificationError("interaction at (2,) does not vanish", center=(2,))

    monkeypatch.setattr(model, "make_spec", refuse)  # a refusal that names a center keeps it
    with pytest.raises(CertificationError) as refused:
        dc.normalize_nonpositive(spec)
    assert str(refused.value) == "normalized spec: interaction at (2,) does not vanish"
    assert refused.value.center == (2,)


def test_normalize_free_spec_is_noop():
    free = chain(4, lam=0.0, J12=0.0, J3=0.0, seed=0)
    norm = dc.normalize_nonpositive(free)
    H_old = dc.build_restricted(free, free.sites)[2].matrix
    H_new = dc.build_restricted(norm, norm.sites)[2].matrix
    assert np.array_equal(H_old, H_new)


def test_metadata_suprema(chain5):
    from decorr.algebra import op_norm

    h_sup = max(op_norm(chain5.onsite[s]) for s in chain5.sites)
    v_sup = max(op_norm(t.matrix) for t in chain5.interactions.values())
    assert chain5.h_sup == pytest.approx(h_sup, rel=1e-12)
    assert chain5.v_sup == pytest.approx(v_sup, rel=1e-12)


def test_spec_json_roundtrip_xxz(chain5):
    back = dc.spec_from_json(dc.spec_to_json(chain5))
    assert back.a == chain5.a
    assert back.sites == chain5.sites
    for s in chain5.sites:
        assert np.array_equal(back.onsite[s], chain5.onsite[s])


def test_spec_from_json_reads_the_chain_shorthand_and_the_defaults():
    # n is the D = 1 chain 0..n-1; model, q and the xxz parameters default
    short = dc.spec_from_json({"n": 4, "R": 1, "seed": 7})
    listed = dc.spec_from_json(
        {"model": "xxz", "D": 1, "R": 1, "q": 2, "lattice": [[0], [1], [2], [3]], "seed": 7,
         "lambda": 0.0, "J12": 0.0, "J3": 0.0}
    )
    assert dc.spec_to_json(short) == dc.spec_to_json(listed)
    assert short.sites == chain_geometry(4).sites


@pytest.mark.parametrize(
    "block, refusal",
    [
        ({"n": 4}, "model block needs 'R'"),
        ({"R": 1, "lattice": [[0], [1]]}, "model block needs 'D'"),
        ({"D": 1, "R": 1}, "model block needs 'lattice'"),
        ({"model": "custom", "n": 3, "R": 1, "onsite": []}, "model block needs 'interactions'"),
        ({"n": 0, "R": 1}, "the model lattice has no sites"),
        ({"D": 1, "R": 1, "lattice": []}, "the model lattice has no sites"),
        # a site listed twice was merged into one
        ({"D": 1, "R": 1, "lattice": [[0], [1], [0]]}, "site [0] is listed twice"),
        ({"n": 3, "D": 1, "R": 1, "lattice": [[0], [1], [2]]}, "unknown key 'n'"),
        # a misspelt kind was read as a custom model, refused for its keys
        ({"model": "xzz", "n": 4, "R": 1, "lambda": 0.3}, "unknown model 'xzz'"),
        # ... or, with a custom model's keys, built as one
        ({"model": "cstom", "D": 1, "R": 1, "lattice": [[0]], "onsite": [[[0], [[[0, 0], [0, 0]],
          [[0, 0], [1, 0]]]]], "interactions": []}, "unknown model 'cstom'"),
        ({"model": ["xxz"], "n": 4, "R": 1}, "unknown model ['xxz']"),
    ],
    ids=["R", "D", "lattice", "interactions", "n-zero", "lattice-empty", "repeated-site",
         "n-and-lattice", "kind-misspelt", "kind-misspelt-custom-keys", "kind-list"],
)
def test_spec_from_json_refuses_by_name(block, refusal):
    with pytest.raises(ValueError, match=re.escape(refusal)):
        dc.spec_from_json(block)


def test_make_spec_refuses_a_kind_spec_from_json_cannot_read():
    # spec_to_json wrote any kind back, and spec_from_json read it as custom
    geo = chain_geometry(3, 1)
    with pytest.raises(ValueError, match="unknown model 'banana'"):
        dc.make_spec(geo, 2, {s: NUMBER for s in geo.sites}, {}, model="banana")


def test_xxz_spec_refuses_an_R_its_geometry_does_not_have():
    # the geometry's radius was used and R ignored without a word
    geo = chain_geometry(5, 1)
    with pytest.raises(ValueError, match=r"R = 2 differs from the geometry's R = 1"):
        dc.xxz_spec(geo, lam=0.3, seed=7, J12=0.02, R=2)
    assert dc.xxz_spec(geo, R=1).geometry == dc.xxz_spec(geo).geometry == geo
    assert dc.xxz_spec(5).geometry == geo
    assert dc.xxz_spec(5, R=2).geometry == chain_geometry(5, 2)


def test_make_spec_rejects_non_hermitian_interaction():
    # the form-bound certificate symmetrizes v, so it alone would pass this term
    v = -0.1 * np.kron(NUMBER, NUMBER).astype(complex)
    v[3, 3] += 0.05j
    geo = chain_geometry(5, 1)
    onsite = {s: NUMBER.astype(complex) for s in geo.sites}
    terms = {(2,): InteractionTerm((2,), Region([(2,), (3,)]), v)}
    with pytest.raises(ValueError, match=r"interaction at \(2,\): matrix is not Hermitian"):
        dc.make_spec(geo, 2, onsite, terms)


def test_spec_json_roundtrip_custom():
    geo = chain_geometry(5, 1)
    onsite = {s: NUMBER.astype(complex) for s in geo.sites}
    v = -0.1 * np.kron(NUMBER, NUMBER).astype(complex)
    terms = {(2,): InteractionTerm((2,), Region([(2,), (3,)]), v)}
    spec = dc.make_spec(geo, 2, onsite, terms)
    back = dc.spec_from_json(dc.spec_to_json(spec))
    assert back.a == pytest.approx(spec.a, rel=1e-12)
    assert np.array_equal(back.interactions[(2,)].matrix, v)


@pytest.fixture(scope="module")
def bosons9():
    """A 9-site chain of q = 3 bosons: dimension 3^9 = 19683, above the dense cap."""
    return dc.spec_from_json(boson_model(9, 3))


@pytest.mark.parametrize(
    "solve",
    [
        lambda spec: algebra.support_index_map(Region([(0,)]), spec.sites, spec.q),
        lambda spec: restricted_spectrum(spec, spec.sites),
        lambda spec: model.build_restricted(spec, spec.sites),
        lambda spec: expansion.yarotsky_term(spec.interior, spec.sites, spec, 1.0),
    ],
    ids=["support_index_map", "restricted_spectrum", "build_restricted", "yarotsky_term"],
)
def test_a_chain_above_the_dense_dimension_is_refused_before_any_allocation(bosons9, solve):
    # nine sites pass a cap counted in sites; one 19683 x 19683 clongdouble
    # matrix would take 12.4 GB
    tracemalloc.start()
    try:
        with pytest.raises(
            algebra.DimensionError,
            match="^dense operator on 9 sites of dimension 3: 19683 exceeds the cap 16384$",
        ):
            solve(bosons9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _fields(n):
    return {(i,): NUMBER for i in range(n)}


NN_PAIR = -0.1 * np.kron(NUMBER, NUMBER)


def _pair(center, *support):
    return {center: InteractionTerm(center, Region(support), NN_PAIR)}


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: model.make_spec(chain_geometry(4), 2, _fields(4), _pair((0,), (0,), (1,))),
            CertificationError,
            r"^interaction ball around \(0,\) sticks out of the lattice$",
        ),
        (
            lambda: model.make_spec(chain_geometry(4), 2, _fields(4), _pair((1,), (1,), (3,))),
            CertificationError,
            r"^interaction at \(1,\) is supported outside its radius-R ball$",
        ),
        (
            lambda: model.make_spec(
                chain_geometry(4), 2, _fields(4), {(2,): _pair((1,), (1,), (2,))[(1,)]}
            ),
            ValueError,
            "^interaction dict key must equal the term center$",
        ),
        (
            lambda: model.make_spec(chain_geometry(4), 2, _fields(3), {}),
            ValueError,
            r"^missing on-site term at \(3,\)$",
        ),
        (
            lambda: model.make_spec(
                chain_geometry(4), 2, {**_fields(4), (2,): np.diag([1.0, 2.0])}, {}
            ),
            ValueError,
            r"^on-site term at \(2,\) violates the gap condition: ground energy 1\.00e\+00",
        ),
        (
            lambda: dc.xxz_spec(4, J12={((1,), (1,)): 0.02}),
            ValueError,
            r"^coupling on the diagonal pair \(\(1,\), \(1,\)\) is not allowed$",
        ),
        (
            lambda: dc.xxz_spec(4, J3=0.02j),
            ValueError,
            "^assembled pair coefficients must be real$",
        ),
        (
            lambda: model.build_restricted(chain(4), Region([(2,), (7,)])),
            ValueError,
            "^restriction region is not contained in the lattice$",
        ),
        (
            lambda: restricted_spectrum(chain(4), Region([(2,), (7,)])),
            ValueError,
            "^restriction region is not contained in the lattice$",
        ),
    ],
    ids=[
        "ball-outside-the-lattice",
        "support-outside-the-ball",
        "key-not-the-center",
        "missing-onsite-term",
        "gap-condition",
        "diagonal-pair",
        "complex-pair-coefficient",
        "restriction-outside-the-lattice-dense",
        "restriction-outside-the-lattice-blocks",
    ],
)
def test_each_model_refusal_names_what_it_refuses(build, error, message):
    with pytest.raises(error, match=message):
        build()
