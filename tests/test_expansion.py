"""Inclusion-exclusion terms, weights, swap identity, ratio bounds."""

import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import decorr as dc
from decorr import algebra, expansion, gibbs, model
from decorr.algebra import DimensionError, GlobalOperator, embed, herm_exp, operator_product
from decorr.expansion import interior_configurations
from decorr.lattice import Region, box_geometry, closure, interior, r_connected_set

from conftest import boson_model, chain, count_core_solves, count_sector_sums, pauli_at


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


def _reference_term(I, base, spec, beta):
    """T_I^{base} as the signed sum of public herm_exp calls, each H_M checked."""
    q, dt = spec.q, np.clongdouble
    H0 = model.onsite_sum(spec.onsite, base, q, dt)
    v = {
        x: embed(spec.interactions[x].matrix.astype(dt), spec.interactions[x].support, base, q).matrix
        for x in I
    }
    total = np.zeros_like(H0)
    for k in range(len(I) + 1):
        for M in itertools.combinations(I, k):
            HM = H0.copy()
            for x in M:
                HM += v[x]
            total += (-1) ** (len(I) - k) * herm_exp(HM, -beta)
    return total


def _rotated_onsite(spec, site):
    """spec with a non-diagonal on-site term at ``site`` (same spectrum), uncertified."""
    c, s = np.cos(0.4), np.sin(0.4)
    R = np.array([[c, -s], [s, c]])
    onsite = {**spec.onsite, site: R @ spec.onsite[site] @ R.T}
    return model.HamiltonianSpec(spec.geometry, spec.q, onsite, spec.interactions, spec.a)


@pytest.mark.parametrize("variant", ["chain6", "normalized-chain8", "rotated-onsite"])
def test_term_matches_public_herm_exp_sum(variant, chain6, chain8):
    # the term checks hermiticity once on the local matrices and memoizes
    # blocks; neither may move a bit against the plain route
    spec = {
        "chain6": lambda: chain(6),
        "normalized-chain8": lambda: dc.normalize_nonpositive(chain8),
        "rotated-onsite": lambda: _rotated_onsite(chain(6), (2,)),
    }[variant]()
    geo = spec.geometry
    for I in [Region([(1,)]), Region([(1,), (2,)]), Region([(1,), (2,), (4,)])]:
        base = closure(I, geo)
        for beta in (0.5, 2.0, 50.0):
            ref = _reference_term(I, base, spec, beta)
            # the first beta builds each H_M of I, later ones read spec.term_blocks;
            # a second call at the same beta reads them too
            for _ in range(2):
                T = dc.yarotsky_term(I, base, spec, beta)
                assert np.array_equal(T.matrix, ref)
            assert all((M, base) in spec.term_blocks for k in range(len(I) + 1)
                       for M in itertools.combinations(I, k))
    assert spec.block_spectra  # the memo was used


WARM_CHECKS = (
    lambda spec, beta: dc.verify_swap_identity(spec, pauli_at(0, "Z"), pauli_at(5, "Z"), beta),
    # the reference e^{-beta H} is an entry of spec.term_blocks like every H_M
    dc.verify_resummation,
)


def test_warm_swap_builds_no_matrix(monkeypatch):
    # a second beta finds every H_M of the check in spec.term_blocks: no term
    # is placed, no H_M is summed or split (so no block is hashed), and the
    # check keeps its bits
    for check in WARM_CHECKS:
        spec = chain(6)
        check(spec, 2.0)
        calls = []
        for name in ("_zero_pattern_components", "_place"):
            original = getattr(algebra, name)
            spy = lambda *a, f=original, n=name: calls.append(n) or f(*a)  # noqa: E731
            for module in (algebra, model, gibbs, expansion):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, spy)
        sums = count_sector_sums(monkeypatch)
        warm = check(spec, 0.5)
        monkeypatch.undo()
        assert calls == [] and sums == []
        assert warm == check(chain(6), 0.5)


def test_term_blocks_hold_the_block_memo_arrays():
    # an entry is the block split and solve of its H_M, bit for bit, holding
    # the rows, each block's own eigenvalues and the memo's eigenvectors
    spec = chain(6)
    dc.verify_swap_identity(spec, pauli_at(0, "Z"), pauli_at(5, "Z"), 2.0)
    memo = {id(X) for _, X in spec.block_spectra.values()}
    held = set()
    for (M, base), systems in spec.term_blocks.items():
        HM = model.onsite_sum(spec.onsite, base, spec.q, np.clongdouble)
        for x in M:
            term = spec.interactions[x]
            HM += embed(term.matrix, term.support, base, spec.q).matrix
        fresh = list(algebra._block_eighs(HM))
        assert len(systems) == len(fresh)
        for (rows, w, V), (fresh_rows, fresh_w, fresh_V) in zip(systems, fresh):
            assert np.array_equal(rows, fresh_rows)
            assert np.array_equal(w, fresh_w)
            assert np.array_equal(np.asarray(V), fresh_V)
            if rows.shape[1] == 1:
                continue  # a 1x1 block needs no solve and is not in the memo
            assert len(V) == len(rows)
            # no sort of this sweep moves a column, so no entry holds a copy
            assert all(id(X) in memo for X in V)
            held.update(map(id, V))
    assert held == memo  # every solved block belongs to some H_M of the sweep


def test_term_rejects_non_hermitian_local_matrix(chain6):
    # the spec checks its local matrices when it is built, before any term
    bad = dict(chain6.onsite)
    bad[(3,)] = bad[(3,)] + np.array([[0, 1e-6], [0, 0]])
    with pytest.raises(ValueError, match=r"^on-site term at \(3,\): matrix is not Hermitian"):
        model.HamiltonianSpec(chain6.geometry, 2, bad, chain6.interactions, chain6.a)


def test_resummation_matches_operator_products(chain5):
    # the terms of one closure share the free factor outside it, and each entry
    # of their disjoint product has one nonzero term, so the index-map product
    # equals the dense matrix product exactly: rebuilt from public herm_exp
    # factors and operator_product, the residual keeps every bit
    spec, geo = chain5, chain5.geometry
    closures = {}
    for I in interior_configurations(spec.interior, expansion.MAX_RESUM_INTERIOR):
        closures.setdefault(closure(I, geo), []).append(I)
    H = model.onsite_sum(spec.onsite, spec.sites, 2, np.clongdouble)
    for x in model.interaction_centers(spec, spec.sites):
        H += embed(spec.interactions[x].matrix, spec.interactions[x].support, spec.sites, 2).matrix
    for beta in (0.5, 2.0):
        acc = 0
        for cl, Is in closures.items():
            inner = dc.yarotsky_term(Is[0], cl, spec, beta).matrix
            for I in Is[1:]:
                inner = inner + dc.yarotsky_term(I, cl, spec, beta).matrix
            H0 = model.onsite_sum(spec.onsite, spec.sites - cl, 2, np.clongdouble)
            outer = GlobalOperator(spec.sites - cl, 2, herm_exp(H0, -beta))
            product = operator_product(outer, GlobalOperator(cl, 2, inner))
            assert product.region == spec.sites
            acc = acc + product.matrix
        ref = herm_exp(H, -beta)
        diff = acc - ref
        residual = np.sqrt(np.abs(diff * diff.conj()).sum().real) / np.sqrt(
            np.abs(ref * ref.conj()).sum().real
        )
        assert float(residual) == dc.verify_resummation(spec, beta)


def test_resummation_gathers_one_free_factor_per_closure(monkeypatch):
    # chain6's 16 interior configurations have 11 distinct closures: one free
    # factor each, plus the reference e^{-beta H}
    spec = chain(6)
    calls = []
    boltzmann = expansion._boltzmann
    monkeypatch.setattr(
        expansion, "_boltzmann", lambda *a: calls.append(a[1:3]) or boltzmann(*a)
    )
    dc.verify_resummation(spec, 0.5)
    assert len(calls) == len(set(calls)) == 12


def test_resummation_and_sweeps_share_block_solves(monkeypatch):
    # the free factors and the reference exp(-beta H) read the spec memo like
    # every term, so a second beta and the swap sweep solve nothing new
    spec = chain(6)
    solved = count_core_solves(monkeypatch)
    dc.verify_resummation(spec, 0.5)
    # 39 distinct shifted blocks, one core solve per block size; the
    # reference's blocks are those of the term of the whole interior, whose
    # closure is the lattice.  Without the memo the terms solved 736 blocks
    # per beta
    assert (len(solved), sum(k for k, _ in solved)) == (6, 39)
    assert len(spec.block_spectra) == 39
    dc.verify_resummation(spec, 2.0)
    dc.verify_swap_identity(spec, pauli_at(0, "Z"), pauli_at(5, "Z"), 2.0)
    assert len(solved) == 6  # every block of the second beta and the swap was met
    assert len(spec.block_spectra) == 39


def test_each_local_matrix_is_checked_once_per_spec(monkeypatch):
    calls = {"model": [], "algebra": []}
    for name, module in (("model", model), ("algebra", algebra)):
        original = module._require_hermitian
        monkeypatch.setattr(
            module,
            "_require_hermitian",
            lambda m, log=calls[name], f=original: log.append(m) or f(m),
        )
    spec = chain(6)
    # building the spec checks the 6 on-site terms and the interactions at
    # the 4 interior centers, each once, and keeps them read-only
    assert len(calls["model"]) == 10
    assert all(not h.flags.writeable for h in spec.onsite.values())
    assert all(not t.matrix.flags.writeable for t in spec.interactions.values())
    calls["algebra"].clear()
    A, B = pauli_at(0, "Z"), pauli_at(5, "Z")
    for beta in (0.5, 2.0):
        dc.verify_swap_identity(spec, A, B, beta)
    dc.verify_resummation(spec, 0.5)
    # every matrix summed from them is exactly Hermitian and checked nowhere:
    # not in the terms, the spectrum memo or the resummation's reference
    assert len(calls["model"]) == 10
    assert spec.spectra and calls["algebra"] == []
    alpha, base, off = algebra.support_index_map(Region([(2,)]), spec.sites, 2)
    assert not (alpha.flags.writeable or base.flags.writeable or off.flags.writeable)


def test_term_validation(chain5):
    with pytest.raises(ValueError, match="interior"):
        dc.yarotsky_term(Region([(0,)]), chain5.sites, chain5, 1.0)
    # the dense cap refuses the 17-site base of a 15-site interior before any
    # pair is listed or any matrix allocated
    spec = chain(17)
    with pytest.raises(DimensionError, match="17 sites"):
        dc.yarotsky_term(spec.interior, spec.sites, spec, 1.0)


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_resummation_identity(chain6, beta):
    # the 3x3 box's interior is the site (1, 1), so its closure and the rest
    # are 2D regions
    box = dc.xxz_spec(box_geometry((3, 3), 1), lam=0.3, seed=7, J12=0.02, J3=0.02)
    assert box.interior == Region([(1, 1)])
    for spec in (chain6, box):
        assert dc.verify_resummation(spec, beta) <= 1e-12


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
    with pytest.raises(DimensionError, match=r"^8 configurations of an interior of size 3 exceed the cap 2\^2$"):
        interior_configurations(centers, 2)
    # the cap counts what is swept: 1 + 3 configurations fit under 2^2
    assert len(interior_configurations(centers, 2, max_size=1)) == 4


def test_sweep_cap():
    # chain9 has 7 interior centers, one over the 2^6 cap of the pair sweeps
    spec = chain(9)
    with pytest.raises(DimensionError, match="128 configurations"):
        dc.verify_swap_identity(spec, pauli_at(0, "Z"), pauli_at(8, "Z"), 1.0)


def test_resummation_cap():
    spec = chain(15)
    with pytest.raises(DimensionError, match="cap"):
        dc.verify_resummation(spec, 1.0)


def test_checks_refuse_an_empty_interior():
    # every configuration lies in the interior: on chain2 the checks would
    # compare free traces only, and the resummation's one term, I = {}, is
    # the reference itself
    spec = chain(2)
    A, B = pauli_at(0, "Z"), pauli_at(1, "Z")
    with pytest.raises(expansion.NotApplicable, match="^lattice interior is empty$"):
        dc.verify_resummation(spec, 1.0)
    with pytest.raises(expansion.NotApplicable, match="^lattice interior is empty$"):
        dc.verify_factorization(Region(), A, Region(), B, spec, 1.0)
    with pytest.raises(expansion.NotApplicable, match="^lattice interior is empty$"):
        dc.verify_swap_identity(spec, A, B, 1.0)


@pytest.mark.parametrize("n, R", [(3, 1), (5, 2)])
def test_resummation_refuses_a_lattice_that_every_configuration_closes_to(n, R):
    # no free factor enters: the terms telescope into the reference's own
    # memo entries, so the residual would read 0 even with every exponential
    # doubled
    spec = dc.xxz_spec(n, lam=0.3, seed=7, J12=0.02, J3=0.02, R=R)
    assert all(closure(Region([x]), spec.geometry) == spec.sites for x in spec.interior)
    with pytest.raises(expansion.NotApplicable, match="^every nonempty configuration closes"):
        dc.verify_resummation(spec, 1.0)


def test_resummation_sees_a_wrong_exponential_where_a_free_factor_enters(monkeypatch):
    # on chain4 the closure of each single center leaves a free site, so
    # doubled exponentials no longer cancel and the residual shows it
    spec = chain(4)
    assert dc.verify_resummation(spec, 1.0) <= 1e-18
    monkeypatch.setattr(expansion, "_exp_blocks", lambda systems, beta: (
        (rows, 2 * np.exp(np.clongdouble(-beta) * w), np.asarray(V)) for rows, w, V in systems
    ))
    assert dc.verify_resummation(spec, 1.0) > 1e-3


@pytest.mark.parametrize(
    "n, couplings",
    [(2, {}), (5, {"lam": 0.0, "J12": 0.0, "J3": 0.0})],
    ids=["no-interior", "free"],
)
def test_term_norm_scan_refuses_when_nothing_interacts(n, couplings):
    # no configuration has a nonzero term: there is no bound to check
    spec = chain(n, **couplings)
    refusal = "^no interacting configuration of size <= 3$"
    with pytest.raises(expansion.NotApplicable, match=refusal):
        dc.term_norm_scan(spec, 1.0)


def test_term_norm_scan():
    spec = chain(6)  # a fresh spec, so its block memo starts empty
    rows = dc.term_norm_scan(spec, 0.5)
    assert len(rows) == 14  # all nonempty interior subsets of size <= 3
    assert spec.block_spectra  # the terms are built as the sweeps build them
    for I, norm, bound in rows:
        assert bound == pytest.approx((2 * spec.a) ** len(I), rel=1e-12)
        assert norm <= bound + 1e-12
        T = dc.yarotsky_term(I, closure(I, spec.geometry), spec, 0.5)
        assert T.matrix.dtype == np.clongdouble and norm == dc.op_norm(T)


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


def _trace_by_rows(T, O):
    """tr(T O) as a plain loop: each row's terms in column order, then the rows in order."""
    alpha, base, off = algebra.support_index_map(O.region, T.region, T.q)
    total = np.clongdouble(0)
    for i in range(T.dim):
        row = np.clongdouble(0)
        for b in range(off.size):
            row += T.matrix[i, base[i] + off[b]] * O.matrix[b, alpha[i]]
        total += row
    return total


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_observable_trace_matches_dense_product(m):
    # tr(O T) read through the index map adds the nonzero terms of the dense
    # product in the order expectation() adds them, bit for bit, and agrees
    # with the dense product's trace to the longdouble rounding of the sum
    rng = np.random.default_rng(m)
    base = Region([(i,) for i in range(m)])
    dim = 2**m
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    T = GlobalOperator(base, 2, raw.astype(np.clongdouble) / np.longdouble(3))
    supports = [c for k in (1, 2) for c in itertools.combinations(range(m), k)]
    if m <= 4:
        supports.append(tuple(range(m)))  # O on the whole base, as for I = {}
    eps = np.finfo(np.longdouble).eps
    for sup in supports:
        k = 2 ** len(sup)
        O = GlobalOperator(
            Region([(i,) for i in sup]), 2,
            rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)),
        )
        got = algebra._local_trace(T, O)
        assert got == _trace_by_rows(T, O), sup
        dense = np.trace(operator_product(O, T).matrix)
        magnitudes = operator_product(GlobalOperator(O.region, 2, np.abs(O.matrix)),
                                      GlobalOperator(base, 2, np.abs(T.matrix)))
        scale = np.trace(magnitudes.matrix)  # the sum of the terms' magnitudes
        assert abs(got - dense) <= dim * k * eps * scale, sup


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
    assert chk.per_pair_max == 6.957567300521535e-12
    assert chk.lhs == chk.rhs == 0.7066842324676711
    built.clear()
    split.clear()
    dc.verify_supercluster_resummation(
        Region([(3,)]), Region(), pauli_at(2, "Z"), pauli_at(4, "Z"), chain10, 2.0
    )
    assert len(built) == len(set(built)) == 12  # 4 add-ons x 4 weights, 12 bases
    assert len(split) == 4  # 16 class pairs, one split per union of add-ons


def test_swap_solves_each_distinct_block_once(monkeypatch):
    spec = chain(6)
    solved = count_core_solves(monkeypatch)
    A, B = pauli_at(0, "Z"), pauli_at(5, "Z")
    cold = dc.verify_swap_identity(spec, A, B, 2.0)
    # 6 core solves, one per block size, of 39 distinct shifted blocks;
    # solving the blocks of each H_M afresh, the same sweep makes 139
    # stacked solves of 1248 blocks
    assert (len(solved), sum(k for k, _ in solved)) == (6, 39)
    assert len(spec.block_spectra) == 39
    solved.clear()
    dc.verify_swap_identity(spec, A, B, 0.5)
    assert solved == []  # the eigensystems do not depend on beta
    warm = dc.verify_swap_identity(spec, A, B, 2.0)
    assert solved == []
    fresh = dc.verify_swap_identity(chain(6), A, B, 2.0)
    assert cold == warm == fresh
    assert cold.per_pair_max == 6.957567300521535e-12
    # the leftmost site keeps no bond (its center ball clips), so its
    # correlations vanish identically; the joining pairs resolve the exact
    # zero far below what double-precision dense arithmetic can see
    assert abs(cold.covariance) < 1e-15


# each sweep on a fresh spec; the supercluster class of I0 = {1} on chain8
# has 16 pairs (a class on chain6 has one, which the check refuses)
COLD_SWEEPS = {
    "swap": lambda: dc.verify_swap_identity(chain(6), pauli_at(0, "Z"), pauli_at(5, "Z"), 2.0),
    "supercluster": lambda: dc.verify_supercluster_resummation(
        Region([(1,)]), Region(), pauli_at(0, "Z"), pauli_at(2, "Z"), chain(8), 2.0
    ),
    "factorization": lambda: dc.verify_factorization(
        Region([(1,)]), pauli_at(0, "Z"), Region([(4,)]), pauli_at(5, "Z"), chain(6), 2.0
    ),
    "term-norm-scan": lambda: dc.term_norm_scan(chain(6), 2.0),
    "resummation": lambda: dc.verify_resummation(chain(6), 2.0),
}


@pytest.mark.parametrize("sweep", list(COLD_SWEEPS))
def test_cold_sweep_makes_one_core_solve_per_block_size(sweep, monkeypatch):
    # a sweep fills all of its H_M at once, so the new blocks of each size
    # are solved in one stack
    solved = count_core_solves(monkeypatch)
    COLD_SWEEPS[sweep]()
    sizes = [m for _, m in solved]
    assert sizes and len(sizes) == len(set(sizes))


SWAP_SCRIPT = """
import json
from conftest import chain, pauli_at
import decorr as dc
chk = dc.verify_swap_identity(chain(6), pauli_at(0, "Z"), pauli_at(5, "Z"), 2.0)
print(json.dumps({
    "per_pair_max": chk.per_pair_max, "lhs": chk.lhs, "rhs": chk.rhs,
    "covariance": chk.covariance,
}))
"""


def test_swap_check_independent_of_blas_threads():
    # the memo decides which blocks share a stacked solve; the LAPACK starts
    # of those stacks must not round differently at another thread count
    paths = [str(Path(dc.__file__).parents[1]), str(Path(__file__).parent)]
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-c", SWAP_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=600,
        ).stdout
        runs[threads] = json.loads(out)
    assert runs["1"] == runs["2"]
    assert runs["1"]["per_pair_max"] == 6.957567300521535e-12


def test_factorization_identity(chain9):
    chk = dc.verify_factorization(
        Region([(1,)]), pauli_at(0, "Z"), Region([(7,)]), pauli_at(8, "Z"),
        chain9, 0.5,
    )
    assert chk.rel_residual <= 1e-10
    assert chk.lhs == pytest.approx(-1.6145657179621191e-06, rel=1e-8)


def test_factorization_requires_separation(chain9):
    with pytest.raises(expansion.NotApplicable, match="R-connected"):
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


def test_swap_refuses_an_empty_support():
    # X[0] names X's supercluster: an empty X has none
    with pytest.raises(expansion.NotApplicable, match="^X is empty$"):
        dc.swap_configurations(Region([(1,)]), Region(), Region(), Region([(3,)]), 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_swap_is_involution(data):
    sites = [(i,) for i in range(12)]
    X = Region([(0,)])
    Y = Region([(11,)])
    I = Region(data.draw(st.sets(st.sampled_from(sites[1:11]))))
    J = Region(data.draw(st.sets(st.sampled_from(sites[1:11]))))
    dec = dc.supercluster_decompose([I, J, X, Y], 1)
    if Y[0] in dec.component_of(X[0]):
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


def test_residuals_are_subtracted_in_extended_precision(chain6):
    # the two swap sums round to the same double and differ by 5.4e-20 in
    # longdouble; rounding each side before subtracting read that as 0
    chk = dc.verify_swap_identity(chain6, pauli_at(0, "Z"), pauli_at(5, "Z"), 2.0)
    assert chk.lhs == chk.rhs
    assert 0 < chk.rel_residual < 1e-18
    one_ulp_up = np.nextafter(np.longdouble(1), np.longdouble(2))
    assert expansion._rel(one_ulp_up, 1.0) == float(one_ulp_up - 1) / float(one_ulp_up)


def test_swap_identity_requires_distance(chain6):
    with pytest.raises(expansion.NotApplicable, match="2R"):
        dc.verify_swap_identity(chain6, pauli_at(0, "Z"), pauli_at(2, "Z"), 2.0)


@pytest.mark.parametrize("far", ["A", "B"])
def test_swap_refuses_a_support_that_is_not_r_connected(chain8, monkeypatch, far):
    # {1, 4} lies in no single supercluster of its own: every weight was
    # built, then the split raised a plain ValueError
    calls = []
    term = expansion.yarotsky_term
    monkeypatch.setattr(expansion, "yarotsky_term", lambda *a: calls.append(a) or term(*a))
    split = operator_product(pauli_at(1, "Z"), pauli_at(4, "Z"))
    A, B = (split, pauli_at(7, "Z")) if far == "A" else (pauli_at(7, "Z"), split)
    with pytest.raises(expansion.NotApplicable, match=re.escape("support Region([(1,), (4,)])")):
        dc.verify_swap_identity(chain8, A, B, 2.0)
    assert calls == []
    with pytest.raises(expansion.NotApplicable, match="is not R-connected"):
        dc.swap_configurations(Region(), Region(), A.region, B.region, 1)


@pytest.mark.xfail(
    strict=True,
    reason="w({4}; Z5) is exactly 0, and the swapped side w({1, 4}; Z5) reads 1.6e-21 of "
    "rounding, so the pair's relative residual reads 1",
)
def test_swap_per_pair_on_a_boson_chain():
    # a known defect of the per-pair ratio: an exact zero against rounding noise
    spec = dc.spec_from_json(boson_model(6, 2))
    chk = dc.verify_swap_identity(spec, pauli_at(0, "Z"), pauli_at(5, "Z"), 0.5)
    assert chk.rel_residual < 1e-10
    assert chk.per_pair_max < 1e-10


# Seed census: the identities hold in exact arithmetic on every disorder
# seed, so a seed over the tolerance is a program defect. Both censuses fail
# today and are kept whole, every seed at 1e-10, so that a fix flips them.
CENSUS_SEEDS = range(100)


def census(residual):
    """The failing seeds, and a message naming them and the worst residual."""
    residuals = {seed: residual(seed) for seed in CENSUS_SEEDS}
    failing = [seed for seed, r in residuals.items() if not r <= 1e-10]
    return failing, f"failing seeds {failing}, worst residual {max(residuals.values()):.3e}"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the signed alternating sum misses exact structural zeros (cause A): "
    "seeds 0, 29, 68, 73, 76, 91, 94 and 99 read up to 1.0",
)
def test_factorization_census_on_chain9_over_seeds():
    # coupled probes Z1 and Z7 on I1 = {1}, I2 = {7}, worst of three betas
    def residual(seed):
        spec = chain(9, seed=seed)
        return max(
            dc.verify_factorization(
                Region([(1,)]), pauli_at(1, "Z"), Region([(7,)]), pauli_at(7, "Z"), spec, beta
            ).rel_residual
            for beta in (0.5, 5.0, 50.0)
        )

    failing, message = census(residual)
    assert failing == [], message


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="cancellation at the 80-bit floor (cause B): seeds 21 and 40 read up to 1.24e-9",
)
def test_swap_per_pair_census_on_chain6_over_seeds():
    def residual(seed):
        spec = chain(6, seed=seed)
        return dc.verify_swap_identity(spec, pauli_at(1, "Z"), pauli_at(4, "Z"), 2.0).per_pair_max

    failing, message = census(residual)
    assert failing == [], message


def test_terms_refuse_a_longdouble_without_64_mantissa_bits(chain6, monkeypatch):
    # float64 as longdouble leaves the weights at rounding noise; no term is built
    monkeypatch.setattr(expansion, "EPS_EXT", np.finfo(np.float64).eps)
    filled = set(chain6.term_blocks)
    refusal = "^longdouble has a 53-bit mantissa; the terms need 64$"
    with pytest.raises(dc.NotApplicable, match=refusal):
        dc.weight(Region([(2,)]), chain6, 2.0)
    assert set(chain6.term_blocks) == filled


SCALAR = GlobalOperator(Region(), 2, np.eye(1, dtype=complex))  # an observable on no site


@pytest.mark.parametrize(
    "check, refusal",
    [
        (lambda s, Z: dc.verify_factorization(Region(), SCALAR, Region([(5,)]), Z(6), s, 1.0),
         "the half I1 + supp O1 is empty"),
        (lambda s, Z: dc.verify_factorization(Region([(1,)]), Z(0), Region(), SCALAR, s, 1.0),
         "the half I2 + supp O2 is empty"),
        (lambda s, Z: dc.verify_swap_identity(s, SCALAR, Z(7), 1.0), "supp A is empty"),
        (lambda s, Z: dc.verify_swap_identity(s, Z(0), SCALAR, 1.0), "supp B is empty"),
        (lambda s, Z: dc.verify_supercluster_resummation(
            Region([(1,)]), Region(), SCALAR, Z(2), s, 1.0), "supp A is empty"),
        (lambda s, Z: dc.verify_supercluster_resummation(
            Region(), Region([(1,)]), Z(2), SCALAR, s, 1.0), "supp B is empty"),
    ],
    ids=["factorization-1", "factorization-2", "swap-A", "swap-B", "supercluster-A",
         "supercluster-B"],
)
def test_checks_refuse_an_empty_support_before_any_term(chain8, monkeypatch, check, refusal):
    # no distance or supercluster holds an empty support: the supercluster
    # check built every weight, then failed on X[0], and the others raised
    # set_distance's plain ValueError
    calls = []
    term = expansion.yarotsky_term
    monkeypatch.setattr(expansion, "yarotsky_term", lambda *a: calls.append(a) or term(*a))
    with pytest.raises(expansion.NotApplicable, match=f"^{re.escape(refusal)}$"):
        check(chain8, lambda x: pauli_at(x, "Z"))
    assert calls == []


def test_supercluster_resummation_minimal(chain8, monkeypatch):
    # the reduced lattice has no interior, so the class is the single pair
    # (I0, J0), whose identities hold by definition: refused before any term
    def unbuilt(*args):
        raise AssertionError("a term was built")

    monkeypatch.setattr(expansion, "yarotsky_term", unbuilt)
    monkeypatch.setattr(expansion, "_fill", unbuilt)
    with pytest.raises(expansion.NotApplicable, match=r"is the single pair \(I0, J0\)"):
        dc.verify_supercluster_resummation(
            Region([(3,)]), Region(), pauli_at(2, "Z"), pauli_at(4, "Z"), chain8, 2.0
        )


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
    with pytest.raises(expansion.NotApplicable, match="connected"):
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
    solved = count_sector_sums(monkeypatch)
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
    def levels(h):
        # a 2x2 Hermitian h's eigenvalues in closed form, in longdouble
        a, d = (np.longdouble(x.real) for x in np.diag(h))
        half = np.hypot((a - d) / 2, np.hypot(np.longdouble(h[0, 1].real), h[0, 1].imag))
        return np.array([(a + d) / 2 - half, (a + d) / 2 + half])

    def per_site(spec, beta):
        z = np.longdouble(1.0)
        for site in spec.sites:
            z *= gibbs.partition_sum(levels(spec.onsite[site]), beta)[0]
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
    # the sign of the interaction terms is decided when the spec is built;
    # criterion 06's 82 calls solve none of them
    solved = []
    original = model._herm_blocks
    monkeypatch.setattr(model, "_herm_blocks", lambda M: solved.append(M) or original(M))
    norm = dc.normalize_nonpositive(chain8)
    terms = [t.matrix for t in norm.interactions.values()]
    assert terms and all(any(M is t for M in solved) for t in terms)
    assert norm.nonpositive is True
    solved.clear()
    assembled = count_sector_sums(monkeypatch)
    calls = [(S, b) for b in (1.0, 10.0) for S in connected_sets(norm)]
    memoized = [dc.partition_ratio(S, norm, b) for S, b in calls]
    monkeypatch.undo()
    assert len(calls) == 82
    # every region's H is assembled and solved by blocks, and no matrix is split densely
    assert assembled and solved == []
    fresh = [dc.partition_ratio(S, dataclasses.replace(norm), b) for S, b in calls]
    assert memoized == fresh


def test_partition_ratio_preconditions(chain8):
    with pytest.raises(ValueError, match="nonpositive"):
        dc.partition_ratio(Region([(3,)]), chain8, 1.0)
    norm = dc.normalize_nonpositive(chain8)
    with pytest.raises(ValueError, match="connected"):
        dc.partition_ratio(Region([(1,), (4,)]), norm, 1.0)


def extended_rho_covariance(spec, A, B, beta):
    """Cov(A, B) from e^{-beta H} in clongdouble by the public herm_exp.

    It meets neither the spec's block memo nor the term fill.
    """
    H = dc.build_restricted(spec, spec.sites)[2].matrix.astype(np.clongdouble)
    rho = GlobalOperator(spec.sites, spec.q, herm_exp(H, -beta))
    z = np.trace(rho.matrix)
    mean = lambda O: algebra._local_trace(rho, O) / z
    return (mean(operator_product(A, B)) - mean(A) * mean(B)).real


@pytest.mark.parametrize(
    "n, coupling, x, y, beta",
    [
        (6, 0.02, 1, 4, 0.5),
        (6, 0.02, 1, 4, 2.0),
        # inside the theorem's hypothesis (decay_base 0.591); dense double
        # arithmetic reads -4.68e-18 at beta=2, 3.6 times the value
        (8, 2e-4, 1, 6, 2.0),
        (8, 2e-4, 1, 6, 50.0),
    ],
)
def test_swap_covariance_matches_extended_rho(n, coupling, x, y, beta):
    # X probes have zero free mean, so no summand is O(1) and the joining
    # pairs keep full relative precision down to covariances of 1e-35
    spec = chain(n, J12=coupling, J3=coupling)
    A, B = pauli_at(x, "X"), pauli_at(y, "X")
    got = dc.verify_swap_identity(spec, A, B, beta).covariance
    ref = extended_rho_covariance(spec, A, B, beta)
    assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize(
    "check, error, message",
    [
        (
            lambda spec: dc.yarotsky_term(Region([(2,)]), Region([(2,)]), spec, 0.5),
            ValueError,
            "^base region must contain the closure of I$",
        ),
        (
            lambda spec: dc.verify_supercluster_resummation(
                Region([(5,)]), Region(), pauli_at(5, "Z"), pauli_at(5, "Z"), spec, 0.5
            ),
            ValueError,
            "^product observable requires disjoint supports$",
        ),
        (
            lambda spec: dc.verify_supercluster_resummation(
                Region([(0,)]), Region(), pauli_at(1, "Z"), pauli_at(2, "Z"), spec, 0.5
            ),
            dc.NotApplicable,
            "^I0 and J0 must lie in the lattice interior$",
        ),
        (
            lambda spec: dc.partition_ratio(Region([(10,)]), spec, 0.5),
            ValueError,
            "^S must lie inside the lattice$",
        ),
    ],
    ids=["base-without-the-closure", "overlapping-probes", "I0-outside-the-interior",
         "S-outside-the-lattice"],
)
def test_each_expansion_refusal_names_what_it_refuses(chain10, check, error, message):
    with pytest.raises(error, match=message):
        check(chain10)
