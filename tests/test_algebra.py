"""Dense operator layer: embeddings, Hermitian eigensolves, exponentials.

The extended-precision path (LAPACK start, Ogita-Aishima refinement, Jacobi
fallback) is cross-checked against LAPACK and a 40-digit mpmath oracle
here; its raison d'etre (weights at large beta) is exercised in
test_expansion.
"""

import mpmath
import numpy as np
import pytest

from decorr import algebra
from decorr.algebra import (
    MAX_DENSE_DIM,
    DimensionError,
    GlobalOperator,
    embed,
    herm_eig,
    herm_exp,
    op_norm,
    operator_product,
)
from decorr.lattice import Region
from decorr.model import build_restricted, onsite_sum

from conftest import chain, count_core_solves, zero_pattern_groups

rng = np.random.default_rng(42)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(n, seed=None):
    r = np.random.default_rng(seed)
    M = r.normal(size=(n, n)) + 1j * r.normal(size=(n, n))
    return (M + M.conj().T) / 2


def two_sites():
    return Region([(0,), (1,)])


def test_embed_diagonal_oracle():
    tgt = two_sites()
    z0 = embed(SZ, Region([(0,)]), tgt, 2)
    z1 = embed(SZ, Region([(1,)]), tgt, 2)
    assert isinstance(z0, GlobalOperator)
    assert z0.region == tgt
    # first tensor factor is the lexicographically first site
    assert np.allclose(z0.matrix, np.diag([1, 1, -1, -1]))
    assert np.allclose(z1.matrix, np.diag([1, -1, 1, -1]))


def test_embed_is_homomorphism():
    tgt = Region([(0,), (1,), (2,)])
    sup = Region([(1,)])
    A = random_hermitian(2, 1)
    B = random_hermitian(2, 2)
    left = embed(A @ B, sup, tgt, 2)
    right = embed(A, sup, tgt, 2).matrix @ embed(B, sup, tgt, 2).matrix
    assert np.allclose(left.matrix, right, atol=1e-13)


def test_disjoint_embeds_commute():
    tgt = Region([(0,), (1,), (2,)])
    A = embed(random_hermitian(2, 3), Region([(0,)]), tgt, 2)
    B = embed(random_hermitian(2, 4), Region([(2,)]), tgt, 2)
    assert np.allclose(A.matrix @ B.matrix, B.matrix @ A.matrix, atol=1e-13)


def test_embed_multisite_support():
    tgt = Region([(0,), (1,), (2,)])
    sup = Region([(0,), (2,)])
    local = np.kron(SZ, SX)
    full = embed(local, sup, tgt, 2)
    # must equal the product of the single-site embeddings
    ref = embed(SZ, Region([(0,)]), tgt, 2).matrix @ embed(SX, Region([(2,)]), tgt, 2).matrix
    assert np.allclose(full.matrix, ref, atol=1e-13)


def kron_embed(local, support, target, q):
    """The Kronecker-product embed: local (x) identity, legs permuted into target order."""
    m = len(target)
    dtype = np.clongdouble if local.dtype in (np.longdouble, np.clongdouble) else complex
    rest = [site for site in target if site not in support]
    full = np.kron(local.astype(dtype), np.eye(q ** len(rest), dtype=dtype))
    src_pos = {site: i for i, site in enumerate(list(support) + rest)}
    perm = [src_pos[site] for site in target]
    tensor = full.reshape([q] * (2 * m)).transpose(perm + [m + p for p in perm])
    return tensor.reshape(q**m, q**m)


@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
@pytest.mark.parametrize(
    "q, m, support",
    [
        (2, 5, [(2,)]),
        (2, 6, [(0,), (3,)]),
        (2, 7, [(1,), (2,), (6,)]),
        (2, 10, [(0,), (4,), (9,)]),
        (3, 4, [(1,), (3,)]),
        (3, 5, [(0,), (2,), (4,)]),
        (2, 4, []),
    ],
)
def test_embed_matches_kron_reference(dtype, q, m, support):
    # the index-map embed copies entries where the Kronecker route multiplies
    # them by 1: equal to the last bit, on non-contiguous supports too
    r = np.random.default_rng(m * 10 + q)
    d = q ** len(support)
    local = (r.normal(size=(d, d)) + 1j * r.normal(size=(d, d))).astype(dtype)
    sup, tgt = Region(support), Region((i,) for i in range(m))
    got = embed(local, sup, tgt, q).matrix
    assert got.dtype == dtype
    assert np.array_equal(got, kron_embed(local, sup, tgt, q))


def test_embed_trace_scaling():
    tgt = Region([(0,), (1,), (2,)])
    A = random_hermitian(2, 5)
    assert np.trace(embed(A, Region([(1,)]), tgt, 2).matrix) == pytest.approx(
        np.trace(A) * 4, rel=1e-13
    )


def test_embed_preserves_extended_dtype():
    tgt = two_sites()
    A = SZ.astype(np.clongdouble)
    out = embed(A, Region([(0,)]), tgt, 2)
    assert out.matrix.dtype == np.clongdouble


def test_embed_dimension_cap():
    # 15 qubits are the first q = 2 region above the cap
    assert 2**14 <= MAX_DENSE_DIM < 2**15
    big = Region([(i,) for i in range(15)])
    with pytest.raises(DimensionError, match="on 15 sites of dimension 2: 32768 exceeds the cap"):
        embed(SZ, Region([(0,)]), big, 2)


@pytest.mark.parametrize(
    "q, n, refused",
    [(2, 14, False), (2, 15, True), (3, 8, False), (3, 9, True),
     (4, 7, False), (4, 8, True), (5, 6, False), (5, 7, True)],
)
def test_the_dense_cap_counts_the_dimension(q, n, refused):
    # the map decides the cap in q^n, the unit memory is spent in: a 9-site
    # q = 3 region (19683) passed a cap of 14 sites
    target = Region([(i,) for i in range(n)])
    if refused:
        message = f"^dense operator on {n} sites of dimension {q}: {q**n} exceeds the cap 16384$"
        with pytest.raises(DimensionError, match=message):
            algebra.support_index_map(Region([(0,)]), target, q)
    else:
        alpha, base, off = algebra.support_index_map(Region([(0,)]), target, q)
        assert base.size == q**n <= MAX_DENSE_DIM and off.size == q


@pytest.mark.parametrize(
    "place",
    [
        lambda support, target: algebra.support_index_map(support, target, 2),
        lambda support, target: embed(SZ, support, target, 2),
        lambda support, target: algebra._local_trace(
            GlobalOperator(target, 2, np.eye(4, dtype=complex)), GlobalOperator(support, 2, SZ)
        ),
    ],
    ids=["map", "embed", "local_trace"],
)
def test_a_support_outside_the_target_is_refused_by_the_map(place):
    # the map owns containment: its own lookup raised a bare KeyError
    with pytest.raises(ValueError, match="^support is not contained in the target region$"):
        place(Region([(2,)]), two_sites())


@pytest.mark.parametrize(
    "place",
    [
        lambda local, index_map: embed(local, Region([(1,)]), two_sites(), 2),
        lambda local, index_map: onsite_sum({(0,): SZ, (1,): local}, two_sites(), 2, complex),
        lambda local, index_map: algebra._sector_sums(
            [algebra._place([(local, index_map)])], two_sites(), 2, complex
        ),
    ],
    ids=["embed", "dense_sum", "sector_sums"],
)
@pytest.mark.parametrize("size", [1, 3, 4])
def test_every_placement_checks_the_local_shape(place, size):
    # one gather reads a local matrix through its map, and refuses one that
    # is not q^|support| square, whichever way it is placed
    index_map = algebra.support_index_map(Region([(1,)]), two_sites(), 2)
    message = rf"^local operator shape \({size}, {size}\) != q\^\|support\|$"
    with pytest.raises(ValueError, match=message):
        place(np.eye(size, dtype=complex), index_map)


def test_operator_product_overlapping_supports():
    # three non-commuting factors on {0,1}, {1,2} and {0}: the product lives
    # on the union {0,1,2} and equals the product of full-space Kronecker
    # embeds taken in the same order
    r = np.random.default_rng(5)
    a, b, c = (r.normal(size=(d, d)) + 1j * r.normal(size=(d, d)) for d in (4, 4, 2))
    ops = (
        GlobalOperator(Region([(0,), (1,)]), 2, a),
        GlobalOperator(Region([(1,), (2,)]), 2, b),
        GlobalOperator(Region([(0,)]), 2, c),
    )
    I2, I4 = np.eye(2), np.eye(4)
    full = np.kron(a, I2) @ np.kron(I2, b) @ np.kron(c, I4)
    got = operator_product(*ops)
    assert got.region == Region([(0,), (1,), (2,)])
    assert np.allclose(got.matrix, full, rtol=0, atol=1e-13 * np.abs(full).max())
    swapped = operator_product(ops[1], ops[0], ops[2]).matrix
    assert not np.allclose(swapped, full)


def test_global_operator_arithmetic():
    tgt = two_sites()
    with pytest.raises(ValueError):
        GlobalOperator(tgt, 2, np.eye(3, dtype=complex))


def reconstruct(es):
    """V diag(w) V^H from an eigensystem, in its own dtype."""
    V = es.eigenvectors
    return (V * es.eigenvalues) @ V.conj().T


def test_herm_eig_reconstructs():
    M = random_hermitian(12, 7)
    es = herm_eig(M)
    assert np.all(np.diff(es.eigenvalues) >= -1e-12)
    assert np.allclose(reconstruct(es), M, atol=1e-10)


def test_herm_eig_pauli_x():
    es = herm_eig(SX)
    assert es.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-14)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_jacobi_matches_lapack():
    M = random_hermitian(8, 11)
    lap = herm_eig(M)
    jac = herm_eig(M.astype(np.clongdouble))
    assert np.allclose(
        np.asarray(jac.eigenvalues, dtype=float), lap.eigenvalues, atol=1e-13
    )
    res = np.asarray(reconstruct(jac), dtype=complex) - M
    assert np.abs(res).max() < 1e-15


def test_herm_exp_identity_and_diagonal():
    M = np.diag([0.0, 1.0]).astype(complex)
    assert np.allclose(herm_exp(M, 0.0), np.eye(2))
    out = herm_exp(M, -np.log(2.0))
    assert np.allclose(out, np.diag([1.0, 0.5]), atol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
def test_non_finite_matrices_are_refused(bad, dtype):
    # a NaN deviation from hermiticity compares false with the tolerance;
    # [[1, nan], [0, 1]] is not Hermitian and came back as a NaN matrix
    M = np.array([[1, bad], [0, 1]], dtype=dtype)
    with pytest.raises(ValueError, match="non-finite entry"):
        herm_exp(M, -1.0)
    with pytest.raises(ValueError, match="non-finite entry"):
        algebra.herm_blocks(M)
    with pytest.raises(ValueError, match="non-finite entry"):
        herm_exp(np.diag([0.0, bad]).astype(dtype), -1.0)


def test_herm_exp_semigroup():
    M = random_hermitian(6, 13)
    a = herm_exp(M, 0.3) @ herm_exp(M, 0.5)
    b = herm_exp(M, 0.8)
    assert np.allclose(a, b, atol=1e-12)


def test_herm_exp_kron_sum_factorizes():
    A = random_hermitian(2, 17)
    B = random_hermitian(2, 19)
    H = np.kron(A, np.eye(2)) + np.kron(np.eye(2), B)
    lhs = herm_exp(H, -1.2)
    rhs = np.kron(herm_exp(A, -1.2), herm_exp(B, -1.2))
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_herm_exp_block_split_keeps_exact_zeros():
    # permuted block-diagonal matrix: cross-block entries of exp stay exactly 0
    A = random_hermitian(2, 23)
    B = random_hermitian(2, 29)
    M = np.zeros((4, 4), dtype=np.clongdouble)
    idx_a, idx_b = [0, 2], [1, 3]
    for i, ii in enumerate(idx_a):
        for j, jj in enumerate(idx_a):
            M[ii, jj] = A[i, j]
    for i, ii in enumerate(idx_b):
        for j, jj in enumerate(idx_b):
            M[ii, jj] = B[i, j]
    out = herm_exp(M, -3.0)
    for i in idx_a:
        for j in idx_b:
            assert out[i, j] == 0.0
            assert out[j, i] == 0.0
    dense = herm_exp(np.asarray(M, dtype=complex), -3.0)
    assert np.allclose(np.asarray(out, dtype=complex), dense, atol=1e-13)


@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
def test_herm_eig_block_split_keeps_exact_zeros(dtype):
    # permuted block-diagonal matrix: each eigenvector lives on one block
    blocks = [[0, 3], [1, 4, 5], [2]]
    M = np.zeros((6, 6), dtype=dtype)
    for k, idx in enumerate(blocks):
        M[np.ix_(idx, idx)] = random_hermitian(len(idx), 31 + k)
    es = herm_eig(M)
    w = np.asarray(es.eigenvalues, dtype=float)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(w, np.linalg.eigvalsh(np.asarray(M, dtype=complex)), atol=1e-13)
    V = es.eigenvectors
    gram = np.asarray(V.conj().T @ V, dtype=complex)
    assert np.abs(gram - np.eye(6)).max() < 1e-14
    for col in V.T:
        home = [idx for idx in blocks if col[idx].any()]
        assert len(home) == 1
        outside = [i for i in range(6) if i not in home[0]]
        assert np.all(col[outside] == 0)
    res = np.asarray(reconstruct(es) - M, dtype=complex)
    assert np.abs(res).max() < 1e-14



def _per_block_eig(A):
    """One LAPACK call per zero-pattern block, scattered block by block.

    Columns follow the stable ascending order of the block eigenvalues
    concatenated in the order of the blocks' first rows.
    """
    blocks = []
    for idx in zero_pattern_groups(len(A), *np.nonzero(A)):
        if idx.size == 1:
            blocks.append((idx, A[idx, idx].real, np.ones((1, 1), dtype=A.dtype)))
        else:
            blocks.append((idx, *np.linalg.eigh(A[np.ix_(idx, idx)])))
    w = np.concatenate([bw for _, bw, _ in blocks])
    order = np.argsort(w, kind="stable")
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    V = np.zeros(A.shape, dtype=A.dtype)
    start = 0
    for idx, bw, bV in blocks:
        V[np.ix_(idx, column[start : start + bw.size])] = bV
        start += bw.size
    return w[order], V


def _tied_blocks():
    # eigenvalue 1 in three blocks of sizes 2, 1, 2 (rows [0, 3], [1], [2, 4])
    M = np.zeros((5, 5), dtype=complex)
    M[np.ix_([0, 3], [0, 3])] = [[2, 1], [1, 2]]
    M[1, 1] = 1
    M[np.ix_([2, 4], [2, 4])] = [[2, 1j], [-1j, 2]]
    return M


@pytest.mark.parametrize("case", ["chain10", "tied-blocks"])
def test_herm_eig_stacked_lapack_is_bit_identical_to_per_block(case):
    if case == "chain10":
        spec = chain(10)
        H = build_restricted(spec, spec.sites)[2].matrix
    else:
        H = _tied_blocks()
    w, V = _per_block_eig((H + H.conj().T) / 2)
    es = herm_eig(H)
    assert np.array_equal(es.eigenvalues, w)
    assert np.array_equal(es.eigenvectors, V)


def _bfs_components(A):
    """Reference split: breadth-first search over the symmetrized nonzero pattern."""
    pattern = A != 0
    pattern |= pattern.T
    unvisited = np.ones(A.shape[0], dtype=bool)
    comps = []
    for start in range(A.shape[0]):
        if not unvisited[start]:
            continue
        unvisited[start] = False
        comp, frontier = [start], [start]
        while frontier:
            hits = np.nonzero(pattern[frontier.pop()] & unvisited)[0]
            unvisited[hits] = False
            comp.extend(hits.tolist())
            frontier.extend(hits.tolist())
        comps.append(sorted(comp))
    return comps


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 150])
@pytest.mark.parametrize("density", [0.0, 0.01, 0.05, 0.3])
def test_zero_pattern_components_match_bfs(n, density):
    # random patterns need not be symmetric; rows with no entry at all are
    # components of their own
    r = np.random.default_rng(1000 * n + int(100 * density))
    A = np.where(r.random((n, n)) < density, r.normal(size=(n, n)), 0.0)
    if n > 3:
        A[n // 2] = 0
        A[:, n // 2] = 0
    got = zero_pattern_groups(n, *np.nonzero(A.astype(np.clongdouble)))
    assert [g.tolist() for g in got] == _bfs_components(A)


def test_zero_pattern_components_of_a_long_path():
    # a path graph over shuffled indices: labels must travel its full length
    n = 64
    perm = np.random.default_rng(5).permutation(n)
    A = np.zeros((n, n))
    A[perm[:-1], perm[1:]] = 1.0
    assert [g.tolist() for g in zero_pattern_groups(n, *np.nonzero(A))] == [list(range(n))]


def memo_fill(matrices, memo):
    """One block memo fill of ``matrices``: their split, the new blocks solved, each read off."""
    return algebra._memo_eighs((algebra._block_stacks(A) for A in matrices), memo)


def test_block_memo_is_bit_identical_and_solves_each_block_once(monkeypatch):
    # two copies of one block, a third block, and a 1x1 block that needs no solve
    M = np.zeros((7, 7), dtype=np.clongdouble)
    B = random_hermitian(3, 81).astype(np.clongdouble)
    M[np.ix_([0, 2, 4], [0, 2, 4])] = B
    M[np.ix_([1, 3, 5], [1, 3, 5])] = B
    M[6, 6] = 2
    N = M.copy()
    N[np.ix_([1, 3, 5], [1, 3, 5])] = random_hermitian(3, 83)
    solved = count_core_solves(monkeypatch)
    memo = {}
    for A in (M, N, M, N):
        (held,) = memo_fill([A], memo)
        fresh = list(algebra._block_eighs(A))
        assert len(held) == len(fresh)
        for (rows, w, V), (fresh_rows, fresh_w, fresh_V) in zip(held, fresh):
            assert np.array_equal(rows, fresh_rows)
            assert np.array_equal(w, fresh_w)
            assert np.array_equal(np.asarray(V), fresh_V)
    # per round (memo, then a fresh solve): the fresh solve refines both 3x3
    # blocks of each call, the memo only the blocks it has not seen (M: 1,
    # then the new block of N, then none)
    assert [k for k, _ in solved] == [1, 2, 1, 2, 2, 2]
    assert len(memo) == 2
    # the two copies of B in M hold the memo's one eigenvector array
    (_, _, V), _ = memo_fill([M], memo)[0]
    assert V[0] is V[1] is next(iter(memo.values()))[1]
    # one fill of both matrices solves their two distinct blocks in one call
    solved.clear()
    memo_fill([M, N], {})
    assert solved == [(2, 3)]


def test_block_memo_ignores_longdouble_padding(monkeypatch):
    # x87 extended precision leaves 6 of each 16 bytes as padding; equal
    # blocks with different padding are one memo entry
    B = random_hermitian(4, 85).astype(np.clongdouble)
    A = np.zeros((8, 8), dtype=np.clongdouble)
    A[:4, :4] = A[4:, 4:] = B
    pad = ~algebra._LONGDOUBLE_VALUE_BYTES
    A.view(np.uint8).reshape(8, 8, 2, pad.size)[4:, 4:, :, pad] = 0xA5
    assert np.array_equal(A[4:, 4:], B)
    (_, blocks), = algebra._block_stacks(A)
    assert blocks[0].tobytes() != blocks[1].tobytes()  # the padding reaches the split
    memo = {}
    solved = count_core_solves(monkeypatch)
    ((_, _, V),) = memo_fill([A], memo)[0]
    assert solved == [(1, 4)]  # one new block to solve, not two
    assert len(memo) == 1
    assert V[0] is V[1]


def core_inversion_block():
    """A zero-diagonal block whose core eigenvalues come out of ascending order.

    The complete graphs and odd cycles have degenerate spectra; the
    refinement leaves the members of a degenerate eigenvalue apart by an ulp
    or so, in no particular order.  A zero diagonal makes the block shift by
    exactly c when c I is added, for c with exact sums, so A and A + c I
    share one memo entry.
    """
    complete = lambda n: np.ones((n, n)) - np.eye(n)  # noqa: E731
    cycle = lambda n: np.roll(np.eye(n), 1, 0) + np.roll(np.eye(n), -1, 0)  # noqa: E731
    for A in (complete(4), complete(5), complete(6), cycle(5), cycle(7)):
        A = A.astype(np.clongdouble)
        w, _ = algebra._refined_core(A[None])
        if (np.diff(w[0]) < 0).any():
            return A
    raise AssertionError("no candidate block has core eigenvalues out of order")


@pytest.mark.parametrize("c", [0.0, 1024.0], ids=["inverted", "tie"])
def test_shift_keyed_memo_matches_refined_eigh(c):
    # A and A + c I shift to the same bytes: one memo solve serves both, and
    # each block gets exactly _refined_eigh's (w, V).  At c = 1024 the shift
    # rounds the members of the degenerate eigenvalue, apart by an ulp of 1,
    # to one value, and _refined_eigh's stable argsort keeps them in the
    # core's order, not the memo's ascending one.
    A = core_inversion_block()
    n = len(A)
    blocks = np.array([A, A + c * np.eye(n)])
    H = np.zeros((2 * n, 2 * n), dtype=np.clongdouble)
    H[:n, :n], H[n:, n:] = blocks
    memo = {}
    ((rows, w, V),) = memo_fill([H], memo)[0]
    assert len(memo) == 1
    ((memo_w, memo_X),) = memo.values()  # the core's system, as it came
    assert (np.diff(memo_w) < 0).any()  # the core's order was not ascending
    ref_w, ref_V = algebra._refined_eigh(blocks)
    assert np.array_equal(rows, [range(n), range(n, 2 * n)])
    assert np.array_equal(w, ref_w)
    for k in range(2):
        assert np.array_equal(V[k], ref_V[k])
    assert V[0] is not memo_X  # sorting A's pairs moves a column: a copy
    if c:
        assert len(np.unique(w[1])) < len(np.unique(memo_w))  # the shift made a tie
        assert V[1] is memo_X  # ... that keeps the core's order, and its X
    else:
        assert V[1] is not memo_X


def test_op_norm_values():
    assert op_norm(SZ) == pytest.approx(1.0)
    assert op_norm(2 * np.eye(3)) == pytest.approx(2.0)
    assert op_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# extended-precision solver against a 40-digit mpmath oracle
# ---------------------------------------------------------------------------

EPS_EXT = np.finfo(np.longdouble).eps


def _mpf(x):
    """The exact value of a longdouble as an mpmath number."""
    mant, expo = np.frexp(np.longdouble(x))
    return mpmath.mpf(int(np.ldexp(mant, 64))) * mpmath.mpf(2) ** (int(expo) - 64)


def _mp_reference(A, beta):
    """Eigenvalues and exp(-beta A) of the stored entries of A, to 40 digits."""
    n = A.shape[0]
    with mpmath.workdps(40):
        M = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                M[i, j] = mpmath.mpc(_mpf(A[i, j].real), _mpf(A[i, j].imag))
        w, Q = mpmath.eighe(M)
        E = Q * mpmath.diag([mpmath.exp(-beta * x) for x in w]) * Q.transpose_conj()
        to_ld = lambda x: np.longdouble(mpmath.nstr(x, 30))  # noqa: E731
        w = np.array([to_ld(x) for x in w])
        E = np.array(
            [[to_ld(E[i, j].real) + 1j * to_ld(E[i, j].imag) for j in range(n)] for i in range(n)],
            dtype=np.clongdouble,
        )
    return w, E


def _block_with_spectrum(spectrum, seed):
    """U diag(spectrum) U^H in clongdouble for a random unitary U."""
    r = np.random.default_rng(seed)
    n = len(spectrum)
    U, _ = np.linalg.qr(r.normal(size=(n, n)) + 1j * r.normal(size=(n, n)))
    U = U.astype(np.clongdouble)
    A = (U * np.array(spectrum, dtype=np.longdouble)) @ U.conj().T
    return (A + A.conj().T) / 2


ORACLE_BLOCKS = {
    "2x2": lambda: random_hermitian(2, 41).astype(np.clongdouble),
    "random-10x10": lambda: random_hermitian(10, 43).astype(np.clongdouble),
    # a three-fold eigenvalue; rounding the product splits it by ~1e-16,
    # which the refinement cannot resolve: the Jacobi fallback takes over
    "degenerate": lambda: _block_with_spectrum([1.0, 1.0, 1.0, 2.0, -0.5, 0.25], 47),
    "gap-1e-14": lambda: _block_with_spectrum([1.0, 1.0 + 1e-14, 2.0, 3.0, -1.0, 0.25], 3),
    # like a symmetry sector: eigenvalues spread by ~2 around 100
    "offset-100": lambda: (random_hermitian(6, 59) / 4 + 100 * np.eye(6)).astype(np.clongdouble),
}


@pytest.mark.parametrize("kind", list(ORACLE_BLOCKS))
def test_extended_solver_matches_mpmath(kind, monkeypatch):
    # the solver works on A shifted by its mean diagonal, so eigenvalues are
    # good to 16 eps times the spread of the spectrum plus one rounding when
    # the shift is added back; exp(-beta A) moves by beta times that
    A = ORACLE_BLOCKS[kind]()
    fallbacks = []
    jacobi = algebra._jacobi_eigh
    monkeypatch.setattr(
        algebra, "_jacobi_eigh", lambda B: fallbacks.append(B.shape) or jacobi(B)
    )
    beta = 2.0
    es = herm_eig(A)
    out = herm_exp(A, -beta)
    ref_w, ref_exp = _mp_reference(A, beta)
    bound = EPS_EXT * (16 * (ref_w.max() - ref_w.min()) + np.abs(ref_w).max() / 2)
    assert np.abs(es.eigenvalues - ref_w).max() <= bound
    exp_tol = max(16 * EPS_EXT, beta * bound) * np.abs(ref_exp).max()
    assert np.abs(out - ref_exp).max() <= exp_tol
    if kind == "degenerate":
        assert fallbacks
    elif kind in ("2x2", "random-10x10", "offset-100"):
        assert not fallbacks


def test_stacked_refined_eigh_is_bit_identical_to_per_block(monkeypatch):
    # the premise of the block memo: a block's refined eigensystem does not
    # depend on the other blocks of its stack, the Jacobi fallback included
    fallbacks = []
    jacobi = algebra._jacobi_eigh
    monkeypatch.setattr(
        algebra, "_jacobi_eigh", lambda B: fallbacks.append(B.shape) or jacobi(B)
    )
    stack = np.array([
        random_hermitian(6, 71).astype(np.clongdouble),
        ORACLE_BLOCKS["degenerate"](),
        ORACLE_BLOCKS["gap-1e-14"](),
        ORACLE_BLOCKS["offset-100"](),
        random_hermitian(6, 73).astype(np.clongdouble) * 1e-6,
    ])
    w, V = algebra._refined_eigh(stack)
    for k, block in enumerate(stack):
        wk, Vk = algebra._refined_eigh(block[None])
        assert np.array_equal(w[k], wk[0])
        assert np.array_equal(V[k], Vk[0])
    assert fallbacks  # the degenerate block took the Jacobi fallback
