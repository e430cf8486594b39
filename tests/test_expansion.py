"""Inclusion-exclusion terms, weights, swap identity, ratio bounds."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import decorr as dc
from decorr import expansion, model
from decorr.algebra import GlobalOperator, herm_exp, operator_product
from decorr.expansion import MAX_TERM_SIZE, _trace_product, interior_configurations
from decorr.lattice import Region, closure, interior, r_connected_set

from conftest import chain, pauli_at


def interior_sites(spec):
    return interior(spec.sites, spec.geometry)


def all_interior_configs(spec, max_size=None):
    core = interior_sites(spec)
    top = len(core) if max_size is None else max_size
    for r in range(top + 1):
        for comb in itertools.combinations(core, r):
            yield Region(comb)


def zz_ratio(spec, beta):
    """Direct Z / Z0 via dense diagonalization, no expansion machinery."""
    H0, _, H = dc.build_restricted(spec, spec.sites)
    w0 = np.linalg.eigvalsh(H0.matrix)
    w = np.linalg.eigvalsh(H.matrix)
    return float(np.exp(logsumexp(-beta * w) - logsumexp(-beta * w0)))


def test_empty_term_is_free_exponential(chain5):
    beta = 1.3
    H0 = dc.build_restricted(chain5, chain5.sites)[0]
    T = dc.yarotsky_term(Region(), chain5.sites, chain5, beta)
    ref = herm_exp(H0.matrix, -beta)
    assert np.allclose(np.asarray(T.matrix, dtype=complex), ref, atol=1e-12)


def test_single_site_term_by_hand(chain5):
    beta = 0.9
    I = Region([(2,)])
    base = closure(I, chain5.geometry)
    T = dc.yarotsky_term(I, base, chain5, beta)
    H0 = dc.build_restricted(chain5, base)[0]
    term = chain5.interactions[(2,)]
    V = dc.embed(term.matrix, term.support, base, 2)
    ref = herm_exp(H0.matrix + V.matrix, -beta) - herm_exp(H0.matrix, -beta)
    assert np.allclose(np.asarray(T.matrix, dtype=complex), ref, atol=1e-12)


def test_term_validation(chain5):
    with pytest.raises(ValueError, match="interior"):
        dc.yarotsky_term(Region([(0,)]), chain5.sites, chain5, 1.0)
    oversized = Region([(i,) for i in range(MAX_TERM_SIZE + 1)])
    with pytest.raises(ValueError, match="term cap"):
        dc.yarotsky_term(oversized, chain5.sites, chain5, 1.0)


def test_global_term_region(chain5):
    T = dc.global_term(Region([(2,)]), chain5, 1.0)
    assert T.region == chain5.sites


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_resummation_identity(chain6, beta):
    assert dc.verify_resummation(chain6, beta) <= 1e-12


def test_resummation_free_spec(free6):
    # v = 0 makes every nonempty term an exact alternating-sum zero
    assert dc.verify_resummation(free6, 1.0) <= 1e-14
    T = dc.yarotsky_term(Region([(2,)]), free6.sites, free6, 1.0)
    assert np.abs(np.asarray(T.matrix, dtype=complex)).max() == 0.0


def test_resummation_residual_at_extended_floor(chain5):
    # H is assembled in clongdouble like the terms it is compared with, so the
    # residual sits at the longdouble rounding floor (eps_ld = 1.1e-19)
    for beta in (0.5, 2.0, 10.0):
        assert dc.verify_resummation(chain5, beta) <= 1e-18


def test_interior_configurations_order_cap_and_max_size():
    centers = Region([(1,), (2,), (3,)])
    expected = [(), ((1,),), ((2,),), ((3,),), ((1,), (2,)), ((1,), (3,)),
                ((2,), (3,)), ((1,), (2,), (3,))]
    assert interior_configurations(centers, 3) == [Region(c) for c in expected]
    assert interior_configurations(centers, 3, max_size=1) == [
        Region(c) for c in expected[:4]
    ]
    assert interior_configurations(centers, 3, max_size=9) == [Region(c) for c in expected]
    with pytest.raises(ValueError, match=r"^8 configurations of an interior of size 3 exceed the cap 2\^2$"):
        interior_configurations(centers, 2)
    # the cap counts what is swept: 1 + 3 configurations fit under 2^2
    assert len(interior_configurations(centers, 2, max_size=1)) == 4


def test_sweep_cap():
    # chain9 has 7 interior centers, one over the 2^6 cap of the pair sweeps
    spec = chain(9)
    with pytest.raises(ValueError, match="128 configurations"):
        dc.verify_swap_identity(spec, pauli_at(0, "Z"), pauli_at(8, "Z"), 1.0)
    with pytest.raises(ValueError, match="128 configurations"):
        dc.covariance_from_expansion(spec, pauli_at(0, "Z"), pauli_at(8, "Z"), 1.0)


def test_resummation_cap():
    spec = chain(15)
    with pytest.raises(ValueError, match="cap"):
        dc.verify_resummation(spec, 1.0)


def test_term_norm_scan(chain6):
    rows = dc.term_norm_scan(chain6, 0.5, max_size=3)
    assert len(rows) == 14  # all nonempty interior subsets of size <= 3
    for I, norm, bound in rows:
        assert bound == pytest.approx((2 * chain6.a) ** len(I), rel=1e-12)
        assert norm <= bound + 1e-12


def test_weight_empty_is_one(chain6):
    assert dc.weight(Region(), chain6, 2.0) == 1.0


def test_weight_frozen_value(chain6):
    w = dc.weight(Region([(2,)]), chain6, 2.0)
    assert w == pytest.approx(-1.052217283876461e-04, rel=1e-10)


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_weights_sum_to_partition_ratio(chain6, beta):
    total = sum(dc.weight(I, chain6, beta) for I in all_interior_configs(chain6))
    assert total == pytest.approx(zz_ratio(chain6, beta), rel=1e-12)


def test_weight_certificate_bound(chain6):
    p = 2 * chain6.a * 2 ** 3
    for I in all_interior_configs(chain6, max_size=3):
        assert abs(dc.weight(I, chain6, 2.0)) <= p ** len(I) + 1e-12


def test_observable_weight_with_identity_matches_weight(chain6):
    I = Region([(2,), (3,)])
    O = pauli_at(0, "I")
    w = dc.weight(I, chain6, 2.0)
    ow = dc.observable_weight(I, O, chain6, 2.0)
    assert ow == pytest.approx(w, rel=1e-12)


def test_observable_weight_empty_config(free6):
    # I = {}: reduces to the free single-site thermal expectation
    beta = 2.0
    h = free6.onsite[(0,)]
    e = np.exp(-beta * np.real(np.diag(h)))
    expect_z = (e[0] - e[1]) / e.sum()
    ow = dc.observable_weight(Region(), pauli_at(0, "Z"), free6, beta)
    assert ow == pytest.approx(expect_z, rel=1e-12)


def test_observable_weights_sum_to_weighted_trace(chain6):
    beta = 2.0
    O = pauli_at(2, "Z")
    total = sum(
        dc.observable_weight(I, O, chain6, beta)
        for I in all_interior_configs(chain6)
    )
    H0, _, H = dc.build_restricted(chain6, chain6.sites)
    state = dc.gibbs_state(H, beta)
    direct = float(np.real(dc.expectation(state, O))) * zz_ratio(chain6, beta)
    assert total == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_observable_trace_matches_dense_product(m):
    # tr(O T) read through the index map adds the nonzero terms of the dense
    # product's diagonal in the same order, so the bits agree exactly
    rng = np.random.default_rng(m)
    base = Region([(i,) for i in range(m)])
    dim = 2**m
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    T = GlobalOperator(base, 2, raw.astype(np.clongdouble) / np.longdouble(3))
    supports = [c for k in (1, 2) for c in itertools.combinations(range(m), k)]
    if m <= 4:
        supports.append(tuple(range(m)))  # O on the whole base, as for I = {}
    for sup in supports:
        k = 2 ** len(sup)
        O = GlobalOperator(
            Region([(i,) for i in sup]), 2,
            rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)),
        )
        assert _trace_product(O, T) == np.trace(operator_product(O, T).matrix), sup


def test_weight_sweeps_build_each_term_once(chain6, chain10, monkeypatch):
    built = []
    split = []
    original_term = expansion.yarotsky_term
    original_split = expansion.supercluster_decompose

    def counting_term(I, base, *args, **kwargs):
        built.append((I, base))
        return original_term(I, base, *args, **kwargs)

    def counting_split(parts, R):
        split.append(parts)
        return original_split(parts, R)

    monkeypatch.setattr(expansion, "yarotsky_term", counting_term)
    monkeypatch.setattr(expansion, "supercluster_decompose", counting_split)
    A, B = pauli_at(0, "Z"), pauli_at(5, "Z")
    chk = dc.verify_swap_identity(chain6, A, B, 2.0)
    assert len(built) == len(set(built)) == 36  # 16 configurations x 4 weights, 36 bases
    assert len(split) == 16  # 256 pairs, one split per union I + J
    assert chk.per_pair_max == 6.95754581817457e-12
    assert chk.lhs == chk.rhs == 0.7066842324676711
    built.clear()
    split.clear()
    dc.verify_supercluster_resummation(
        Region([(3,)]), Region(), pauli_at(2, "Z"), pauli_at(4, "Z"), chain10, 2.0
    )
    assert len(built) == len(set(built)) == 12  # 4 add-ons x 4 weights, 12 bases
    assert len(split) == 4  # 16 class pairs, one split per union of add-ons
    built.clear()
    dc.covariance_from_expansion(chain6, pauli_at(1, "X"), pauli_at(2, "X"), 2.0)
    assert len(built) == len(set(built)) == 24  # 64 weights, 24 bases


def test_factorization_identity(chain9):
    chk = dc.verify_factorization(
        Region([(1,)]), pauli_at(0, "Z"), Region([(7,)]), pauli_at(8, "Z"),
        chain9, 0.5,
    )
    assert chk.rel_residual <= 1e-10
    assert chk.lhs == pytest.approx(-1.6145657179621191e-06, rel=1e-8)


def test_factorization_requires_separation(chain9):
    with pytest.raises(ValueError):
        dc.verify_factorization(
            Region([(1,)]), pauli_at(0, "Z"), Region([(3,)]), pauli_at(4, "Z"),
            chain9, 0.5,
        )


def test_swap_hand_example():
    # X's component is {0,1}; membership there is exchanged, the rest kept
    I = Region([(1,), (5,)])
    J = Region([(0,), (6,)])
    X = Region([(0,)])
    Y = Region([(6,)])
    I2, J2 = dc.swap_configurations(I, J, X, Y, 1)
    assert I2 == Region([(0,), (5,)])
    assert J2 == Region([(1,), (6,)])


def test_swap_rejects_shared_component():
    with pytest.raises(ValueError):
        dc.swap_configurations(
            Region([(1,)]), Region(), Region([(2,)]), Region([(3,)]), 1
        )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_swap_is_involution(data):
    sites = [(i,) for i in range(12)]
    X = Region([(0,)])
    Y = Region([(11,)])
    I = Region(data.draw(st.sets(st.sampled_from(sites[1:11]))))
    J = Region(data.draw(st.sets(st.sampled_from(sites[1:11]))))
    dec = dc.supercluster_decompose([I, J, X, Y], 1)
    if not dec.in_different_components(X, Y):
        return  # swap undefined on these
    I2, J2 = dc.swap_configurations(I, J, X, Y, 1)
    assert (I2 | J2) == (I | J)
    assert (I2 & J2) == (I & J)
    I3, J3 = dc.swap_configurations(I2, J2, X, Y, 1)
    assert I3 == I and J3 == J


def test_swap_identity_sums(chain6):
    chk = dc.verify_swap_identity(chain6, pauli_at(0, "Z"), pauli_at(5, "Z"), 2.0)
    assert chk.rel_residual <= 1e-12
    assert chk.per_pair_max <= 1e-10
    assert chk.n_event_pairs == 40
    assert chk.n_configs == 16
    assert chk.lhs == pytest.approx(0.7066842324676711, rel=1e-10)
    assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)


def test_swap_identity_requires_distance(chain6):
    with pytest.raises(ValueError, match="2R"):
        dc.verify_swap_identity(chain6, pauli_at(0, "Z"), pauli_at(2, "Z"), 2.0)


def test_supercluster_resummation_minimal(chain8):
    chk = dc.verify_supercluster_resummation(
        Region([(3,)]), Region(), pauli_at(2, "Z"), pauli_at(4, "Z"), chain8, 2.0
    )
    # the residual lattice has no interior: a single class pair, free ratio
    assert chk.n_class_pairs == 1
    assert chk.ratio == 1.0
    assert chk.rel_residual_weight <= 1e-12
    assert chk.rel_residual_observable <= 1e-12


def test_supercluster_resummation_nontrivial(chain10):
    chk = dc.verify_supercluster_resummation(
        Region([(3,)]), Region(), pauli_at(2, "Z"), pauli_at(4, "Z"), chain10, 2.0
    )
    assert chk.n_class_pairs == 16
    assert chk.ratio == pytest.approx(0.9999460143845773, rel=1e-10)
    assert chk.ratio != 1.0
    assert chk.rel_residual_weight <= 1e-12
    assert chk.rel_residual_observable <= 1e-12
    assert chk.lhs_weight == pytest.approx(-1.550313206276384e-04, rel=1e-8)


def test_supercluster_requires_connected_seed(chain10):
    with pytest.raises(ValueError, match="connected"):
        dc.verify_supercluster_resummation(
            Region([(1,)]), Region([(4,)]), pauli_at(0, "Z"), pauli_at(5, "Z"),
            chain10, 1.0,
        )


def test_partition_ratio_free_spec():
    free = chain(6, lam=0.0, J12=0.0, J3=0.0)
    out = dc.partition_ratio(Region([(2,), (3,)]), free, 1.0)
    assert out.ratio == pytest.approx(1.0, rel=1e-12)
    assert out.bound_ok and out.split_product_le_full
    assert out.free_le_power and out.interacting_ge_one


def test_partition_ratio_frozen(chain8):
    norm = dc.normalize_nonpositive(chain8)
    out = dc.partition_ratio(Region([(3,), (4,)]), norm, 1.0)
    assert out.ratio == pytest.approx(0.8481460397338141, rel=1e-10)
    assert out.bound == pytest.approx(64.0)
    assert out.cl_size == 4
    assert out.bound_ok and out.split_product_le_full
    assert out.free_le_power and out.interacting_ge_one


def connected_sets(spec):
    return [
        Region(c)
        for k in (1, 2, 3)
        for c in itertools.combinations(spec.sites, k)
        if r_connected_set(Region(c), spec.geometry.R)
    ]


def test_partition_ratio_solves_each_region_once(chain8, monkeypatch):
    # criterion 06's loop: 41 sets x 2 betas x 3 regions (rest, closure,
    # lattice) are 246 partition functions over 35 distinct regions; the Z0
    # of each closure adds the 6 single sites not among them
    norm = dc.normalize_nonpositive(chain8)
    assert norm.spectra == {} and norm.spectra is not chain8.spectra
    before = set(chain8.spectra)
    sets = connected_sets(norm)
    solved = []
    original = model.build_restricted

    def counting_build(spec, S, dtype=complex):
        solved.append(S)
        return original(spec, S, dtype)

    monkeypatch.setattr(model, "build_restricted", counting_build)
    betas = (1.0, 10.0)
    memoized = [dc.partition_ratio(S, norm, b).ratio for b in betas for S in sets]
    monkeypatch.undo()
    assert len(sets) == 41
    assert len(solved) == len(set(solved)) == 41
    assert set(chain8.spectra) == before
    # a fresh spec (same terms, empty memo) per call gives the same bits
    fresh = [
        dc.partition_ratio(S, dataclasses.replace(norm), b).ratio for b in betas for S in sets
    ]
    assert memoized == fresh


def test_free_partition_reads_site_spectra(chain6, chain8):
    def per_site(spec, beta):
        z = np.longdouble(1.0)
        for site in spec.sites:
            h = spec.onsite[site].astype(np.clongdouble)
            z *= dc.partition_function(h, beta)[0]
        return z

    for spec in (chain6, dc.normalize_nonpositive(chain8)):
        for beta in (0.5, 2.0, 50.0):
            assert expansion._free_partition(spec.sites, spec, beta) == per_site(spec, beta)
    # a non-diagonal on-site term: double eigenvalues, about one ulp off
    c, s = np.cos(0.4), np.sin(0.4)
    V = np.array([[c, -s], [s, c]])
    h = V @ np.diag([0.0, 1.7]) @ V.T
    mixed = model.make_spec(chain6.geometry, 2, {**chain6.onsite, (2,): h}, {})
    pairs = [
        (expansion._free_partition(mixed.sites, mixed, b), per_site(mixed, b))
        for b in (0.5, 2.0, 50.0)
    ]
    assert all(abs(z0 - ref) <= 1e-15 * ref for z0, ref in pairs)
    assert any(z0 != ref for z0, ref in pairs)  # the routes do differ here


def test_partition_ratio_checks_nonpositive_once(chain8, monkeypatch):
    # criterion 06's 82 calls decide the sign of the interaction terms once
    norm = dc.normalize_nonpositive(chain8)
    terms = [t.matrix for t in norm.interactions.values()]
    solved = []
    original = model.herm_blocks

    def counting_blocks(M, *args, **kwargs):
        if any(M is t for t in terms):
            solved.append(M)
        return original(M, *args, **kwargs)

    monkeypatch.setattr(model, "herm_blocks", counting_blocks)
    calls = [(S, b) for b in (1.0, 10.0) for S in connected_sets(norm)]
    memoized = [dc.partition_ratio(S, norm, b) for S, b in calls]
    monkeypatch.undo()
    assert len(calls) == 82
    assert len(solved) == len(terms) > 0
    assert norm.nonpositive == {1e-12: True}
    fresh = [dc.partition_ratio(S, dataclasses.replace(norm), b) for S, b in calls]
    assert memoized == fresh


def test_partition_ratio_preconditions(chain8):
    with pytest.raises(ValueError, match="nonpositive"):
        dc.partition_ratio(Region([(3,)]), chain8, 1.0)
    norm = dc.normalize_nonpositive(chain8)
    with pytest.raises(ValueError, match="connected"):
        dc.partition_ratio(Region([(1,), (4,)]), norm, 1.0)


def test_subset_sum_identity_hand_values():
    lhs, rhs = dc.subset_sum_identity_check(0, 0.7)
    assert lhs == rhs == 1.0
    lhs, rhs = dc.subset_sum_identity_check(3, 0.5)
    assert lhs == pytest.approx(3.375, rel=1e-14)
    assert rhs == pytest.approx(3.375, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.floats(0.0, 2.0, allow_nan=False))
def test_subset_sum_identity_property(F, p):
    lhs, rhs = dc.subset_sum_identity_check(F, p)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert rhs == pytest.approx((1 + p) ** F, rel=1e-12)


def test_subset_sum_cap():
    with pytest.raises(ValueError):
        dc.subset_sum_identity_check(21, 0.5)


def test_covariance_from_expansion_matches_direct(chain6):
    beta = 2.0
    A = pauli_at(1, "X")
    B = pauli_at(2, "X")
    got = dc.covariance_from_expansion(chain6, A, B, beta)
    state = dc.gibbs_state(dc.build_restricted(chain6, chain6.sites)[2], beta)
    direct = float(np.real(dc.covariance(state, A, B)))
    assert got == pytest.approx(direct, rel=1e-12)
    assert got == pytest.approx(-0.011179694634296558, rel=1e-10)
    # a longer-range pair: direct double arithmetic is noisier, loosen a bit
    A4, B4 = pauli_at(1, "X"), pauli_at(4, "X")
    got4 = dc.covariance_from_expansion(chain6, A4, B4, beta)
    direct4 = float(np.real(dc.covariance(state, A4, B4)))
    assert got4 == pytest.approx(direct4, rel=1e-9)


def test_covariance_from_expansion_decoupled_site(chain6):
    # the leftmost site keeps no bond (its center ball clips), so its
    # correlations vanish identically; the expansion resolves the exact zero
    # far below what double-precision dense arithmetic can see
    got = dc.covariance_from_expansion(chain6, pauli_at(0, "Z"), pauli_at(5, "Z"), 2.0)
    assert abs(got) < 1e-15


def test_covariance_from_expansion_requires_disjoint(chain6):
    with pytest.raises(ValueError, match="disjoint"):
        dc.covariance_from_expansion(chain6, pauli_at(1, "Z"), pauli_at(1, "X"), 1.0)
