"""Dense operator algebra on tensor products of q-level sites.

Operators live on a :class:`~decorr.lattice.Region`; the tensor leg of the
k-th site in canonical (sorted) order is the k-th most significant digit of
the matrix index, so a basis state |d_0 d_1 ... d_{m-1}> has index
sum_k d_k q^(m-1-k).

Local operators are placed on a region through the cached index maps of
:func:`support_index_map`, which refuse what cannot be placed: :func:`embed`
scatters one into zeros and :func:`_place` lists the entries one places,
each reading it through one shape check, :func:`_gather`.

A sum of local terms is assembled one way, :func:`_sector_sums`: every H
of a spec (:mod:`decorr.model` lists its terms, and its dense
``build_restricted`` writes the blocks into zeros) and the Ising oracle's
H.  It lists the entries the terms place from their nonzero local entries,
sums them in term order as a dense sum from zeros would, finds the blocks
from the summed entries that are not zero, and packs the blocks by size
into one buffer, so no q^n x q^n matrix is written and memory scales with
the blocks.  The blocks are those of the dense sum's split, bit for bit.

Eigen-solves dispatch on dtype.  complex128 goes to LAPACK.  LAPACK has no
extended-precision path, so clongdouble blocks are solved by LAPACK in
double and then refined by Ogita-Aishima iterations, which need only matrix
products and so run in clongdouble; the rare block with degenerate or
clustered eigenvalues that the refinement cannot separate falls back to a
cyclic complex Jacobi solver.  Extended precision exists because
inclusion-exclusion weights in the cluster expansion cancel to ~1e-12 of
the summand scale, which plain double arithmetic cannot resolve; see
:mod:`decorr.expansion`.

Eigen-solves and matrix exponentials split the matrix into its exact
zero-pattern blocks first (a dense matrix by its nonzero entries, a sector
sum as it is assembled; one label propagation,
:func:`_zero_pattern_components`, gives both the same components in the
same order) and solve the blocks of each size as one stack.
The split is decided by entries being exactly zero, so nothing is
thresholded; it preserves sparsity-protected exact zeros in the output (a
dense rotation-based solver would otherwise pollute them) and it is much
faster for number-conserving Hamiltonians.  It also makes the
results independent of the BLAS thread count for block sizes up to 126 (the
largest block of the 10-site chain), where one dense solve of the whole
1024x1024 matrix rounds differently at different thread counts.

The public :func:`herm_exp`, :func:`herm_blocks` and :func:`herm_eig` check
hermiticity, solve the symmetrization and keep nothing across calls.  A sum
of a spec's local terms, checked when the spec was built, is exactly
Hermitian and is solved unchecked (:func:`_stack_eigensystem`);
:func:`_block_products` forms V f(w) V^H per block, which
:func:`_block_function` writes into every dense f(H) or exp(sH) and a
thermal state packs as its rho.  The
alternating sums of :mod:`decorr.expansion` meet the same sector block
again and again, across subsets, bases and beta, and blocks that differ
only by a multiple of the identity (sectors that differ only in free
sites) more often still.  A refined solve shifts each block by the mean of
its diagonal (:func:`_shift_diagonal`), solves the shifted block
(:func:`_refined_core`), adds the shift back and sorts; so the solves share
the memo ``HamiltonianSpec.block_spectra`` (one per spec), keyed by the
size and value bytes (no padding) of the shifted block and holding the
core's eigensystem of it: each distinct shifted block is refined once per
spec.  The core treats every block of its stack on its own, so a memo hit
with the block's own shift and sort applied is bit-identical to solving
the block again.  They meet the same H_M again too, and one memo fill
call, :func:`_memo_eighs`, takes many H_M, solves the shifted blocks the
memo lacks in one core call per block size and gives each H_M's split in
the form ``HamiltonianSpec.term_blocks`` keeps per (M, base): the blocks'
rows, their eigenvalues and, unless the sort moves a column, the memo's
eigenvector arrays, not copies; every extended-precision e^{-beta H_M},
the resummation's reference included, is written from one.  tr(X A) for A
on a subregion is one contraction, :func:`_local_trace`, with A never
embedded and X dense or held as blocks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .lattice import Region

MAX_DENSE_DIM = 2**14  # hard cap on q^m; larger matrices and index maps are not materialized

HERMITICITY_TOL = 1e-10  # absolute, on max |M - M^dagger|

EPS_EXT = np.finfo(np.longdouble).eps
# bound on a refined block's |X^H A X| off-diagonal, in EPS_EXT ||A||, and on
# |I - X^H X|, in EPS_EXT; converged blocks reach about 1
CLUSTER_TOL = 16


def _value_bytes(dtype) -> np.ndarray:
    """Mask of the bytes of a ``dtype`` item that hold its value.

    x87 extended precision keeps 10 value bytes in a 16-byte longdouble; the
    other 6 are padding, left as whatever the buffer held, so equal numbers
    may differ there.  A cast writes the value bytes only: the bytes where a
    zero-filled and a 0xff-filled buffer still differ after the same cast
    are padding.
    """
    probe = np.array([1.0, -2.5, 1e-300, np.inf])
    size = np.dtype(dtype).itemsize
    bufs = [np.full(probe.size * size, fill, np.uint8) for fill in (0, 255)]
    for buf in bufs:
        buf.view(dtype)[:] = probe
    return (bufs[0] == bufs[1]).reshape(probe.size, size).all(axis=0)


_LONGDOUBLE_VALUE_BYTES = _value_bytes(np.longdouble)


class DimensionError(ValueError):
    """A size cap would be exceeded.

    The caps: a dense object of dimension q^m above MAX_DENSE_DIM (14
    sites at q = 2, 8 at q = 3, 7 at q = 4, 6 at q = 5), a configuration
    sweep over its 2^cap configurations, the classical-chain oracle's spin
    count, the brute-force count's connectivity table, and the command
    line's connected-set count.
    """


def _check_dense(q: int, n_sites: int):
    if q**n_sites > MAX_DENSE_DIM:
        raise DimensionError(
            f"dense operator on {n_sites} sites of dimension {q}: {q**n_sites} "
            f"exceeds the cap {MAX_DENSE_DIM}"
        )


def _work_dtype(dtype) -> np.dtype:
    if dtype in (np.longdouble, np.clongdouble):
        return np.dtype(np.clongdouble)
    return np.dtype(np.complex128)


@dataclass(frozen=True)
class GlobalOperator:
    """A dense operator together with the region and local dimension it acts on."""

    region: Region
    q: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = self.q ** len(self.region)
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match q^|region| = {dim}"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def entries(self, cols: np.ndarray) -> np.ndarray:
        """The entries (i, cols[i, c]) of the matrix, one row of ``cols`` per row i."""
        return self.matrix[np.arange(self.dim)[:, None], cols]


def _matrix_of(op) -> np.ndarray:
    return op.matrix if isinstance(op, GlobalOperator) else np.asarray(op)


@functools.lru_cache(maxsize=None)
def support_index_map(support: Region, target: Region, q: int):
    """Where the support's tensor legs sit in the index of ``target``.

    Returns integer arrays (alpha, base, off): row i of a target-indexed
    matrix has support digits alpha[i] (an index in the support's canonical
    order), and the target index with the same off-support digits as i and
    support digits b is base[i] + off[b].  off is increasing in b.  Each
    map is made once per process and shared as read-only arrays.  A support
    outside the target raises ValueError, and a target above the dense cap
    DimensionError, before any array is made.
    """
    if not support.issubset(target):
        raise ValueError("support is not contained in the target region")
    _check_dense(q, len(target))
    place = {site: q ** (len(target) - 1 - k) for k, site in enumerate(target)}
    weights = np.array([place[site] for site in support], dtype=np.int64)
    local_place = q ** np.arange(len(support) - 1, -1, -1, dtype=np.int64)
    off = (np.arange(q ** len(support))[:, None] // local_place % q) @ weights
    rows = np.arange(q ** len(target))
    alpha = (rows[:, None] // weights % q) @ local_place
    maps = alpha, rows - off[alpha], off
    for a in maps:
        a.flags.writeable = False
    return maps


def embed(local: np.ndarray, support: Region, target: Region, q: int) -> GlobalOperator:
    """Embed an operator on ``support`` into ``target`` as local (x) identity.

    ``local`` must be indexed by the canonical order of ``support``; the
    result is indexed by the canonical order of ``target``.  Entry
    local[alpha(i), b] goes to row i, column base(i) + off(b) of a zero matrix
    (see :func:`support_index_map`); the entries are copied, not multiplied,
    so the result equals local (x) identity with its legs permuted, exactly.
    """
    index_map = support_index_map(support, target, q)
    local = np.asarray(local)
    _, base, off = index_map
    full = np.zeros((base.size, base.size), dtype=_work_dtype(local.dtype))
    full[np.arange(base.size)[:, None], base[:, None] + off] = _gather(local, index_map)
    return GlobalOperator(target, q, full)


def _gather(local: np.ndarray, index_map) -> np.ndarray:
    """local[alpha], row i of the embedding in columns base(i) + off; refuses a wrong shape."""
    alpha, _, off = index_map
    if local.shape != (off.size, off.size):
        raise ValueError(f"local operator shape {local.shape} != q^|support|")
    return local[alpha]


def _local_trace(X, A: GlobalOperator):
    """tr(X A) for A on a subregion of X's region, A not embedded; a scalar of X's dtype.

    Row i of X meets the embedded A only in the columns base(i) + off(b) of
    :func:`support_index_map`, so the trace is the sum of the terms
    X[i, base(i) + off(b)] A[b, alpha(i)], dim q^|supp A| of them.  They are
    added within each row in column order, then the row sums in row order.
    X is a :class:`GlobalOperator` or a :class:`BlockOperator`; either
    gives those entries (``X.entries``), +0 outside a BlockOperator's blocks
    as in its dense matrix, so both take the same bits to the same sum.
    """
    alpha, base, off = support_index_map(A.region, X.region, X.q)
    terms = X.entries(base[:, None] + off) * A.matrix.T[alpha]
    return np.cumsum(np.cumsum(terms, axis=1)[:, -1])[-1]


def operator_product(*ops: GlobalOperator) -> GlobalOperator:
    """The product ops[0] ops[1] ... on the union of their regions.

    Each factor is embedded into the union and the matrices are multiplied
    left to right; supports may overlap.  Later factors that already act on
    the whole union are used as they are (embedding would only copy them).
    """
    q = ops[0].q
    region = Region(site for op in ops for site in op.region)
    mat = embed(ops[0].matrix, ops[0].region, region, q).matrix
    for op in ops[1:]:
        if op.region != region:
            op = embed(op.matrix, op.region, region, q)
        mat = mat @ op.matrix
    return GlobalOperator(region, q, mat)


# ---------------------------------------------------------------------------
# Hermitian eigen-machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Eigensystem:
    """Ascending eigenvalues and the matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _require_hermitian(M: np.ndarray) -> np.ndarray:
    # a NaN deviation compares false with the tolerance and would pass
    if not np.isfinite(M).all():
        raise ValueError("matrix has a non-finite entry")
    dev = np.max(np.abs(M - M.conj().T)) if M.size else 0.0
    if dev > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max deviation {dev:.3e} > {HERMITICITY_TOL:.1e}"
        )
    return (M + M.conj().T) / 2


def _conj_t(X: np.ndarray) -> np.ndarray:
    return X.conj().swapaxes(-1, -2)


def _jacobi_eigh(A: np.ndarray):
    """Cyclic complex Jacobi diagonalization in extended precision.

    The fallback of :func:`_refined_eigh` for blocks with degenerate or
    clustered eigenvalues.  Runs entirely in clongdouble.  Each rotation
    annihilates one off-diagonal pair; sweeps repeat until the off-diagonal
    Frobenius mass falls below a few units of longdouble epsilon relative to
    the matrix norm.  Quadratic convergence makes ~6-10 sweeps typical; the
    cap of 80 sweeps is a safety net, not a tuning knob.
    """
    A = np.array(A, dtype=np.clongdouble)
    n = A.shape[0]
    V = np.eye(n, dtype=np.clongdouble)
    for _ in range(80):
        offd = A - np.diag(np.diag(A))
        off = np.sqrt(np.abs(offd * offd.conj()).sum().real)
        nrm = np.sqrt(np.abs(A * A.conj()).sum().real)
        if off == 0 or off <= 4 * EPS_EXT * nrm:
            break
        for p in range(n - 1):
            for q_ in range(p + 1, n):
                apq = A[p, q_]
                a = np.abs(apq)
                if a == 0:
                    continue
                phase = apq / a
                app, aqq = A[p, p].real, A[q_, q_].real
                tau = (aqq - app) / (2 * a)
                t = (1 if tau >= 0 else -1) / (np.abs(tau) + np.sqrt(1 + tau * tau))
                c = 1 / np.sqrt(1 + t * t)
                s = t * c
                Ap, Aq = A[:, p].copy(), A[:, q_].copy()
                A[:, p] = c * Ap - s * np.conj(phase) * Aq
                A[:, q_] = s * phase * Ap + c * Aq
                Ap, Aq = A[p, :].copy(), A[q_, :].copy()
                A[p, :] = c * Ap - s * phase * Aq
                A[q_, :] = s * np.conj(phase) * Ap + c * Aq
                Vp, Vq = V[:, p].copy(), V[:, q_].copy()
                V[:, p] = c * Vp - s * np.conj(phase) * Vq
                V[:, q_] = s * phase * Vp + c * Vq
    w = np.diag(A).real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


def _ogita_aishima_step(A: np.ndarray, X: np.ndarray, norm_a: np.ndarray) -> np.ndarray:
    """One Ogita-Aishima refinement step for a stack of Hermitian blocks.

    T. Ogita and K. Aishima, "Iterative refinement for symmetric eigenvalue
    decomposition", JJIAM 35 (2018), Algorithm 1, with S symmetrized.  For
    approximate eigenvectors X of A (shape (k, m, m), any dtype) and the
    2-norms ``norm_a`` of the blocks, returns E such that X + X E is the
    refined X.  Only matrix products are needed, so the step runs in the
    precision of its inputs.  Eigenvalue pairs closer than the step's error
    bound are treated as a cluster: E only re-orthogonalizes them.
    """
    diag = np.arange(X.shape[-1])
    Xh = _conj_t(X)
    R = np.eye(len(diag), dtype=X.dtype) - Xh @ X
    S = Xh @ A @ X
    S = (S + _conj_t(S)) / 2
    lam = S[:, diag, diag].real / (1 - R[:, diag, diag].real)
    off = S.copy()
    off[:, diag, diag] -= lam
    # Frobenius norms bound the 2-norms of Algorithm 1 from above
    delta = 2 * (
        np.linalg.norm(off, axis=(-2, -1)) + norm_a * np.linalg.norm(R, axis=(-2, -1))
    )
    gap = lam[:, None, :] - lam[:, :, None]
    near = np.abs(gap) <= delta[:, None, None]
    return np.where(near, R / 2, (S + lam[:, None, :] * R) / np.where(near, 1, gap))


def _shift_diagonal(A: np.ndarray):
    """(A - shift I, shift) for a stack of blocks, shift the mean of each block's diagonal.

    Returned in clongdouble, as :func:`_refined_core` takes it.  Symmetry
    sectors have nearly equal diagonals, so the shifted block's products
    round relative to the spread of its eigenvalues instead of their size
    (the refined eigenvalues come out several times more accurate there).
    """
    A = A.astype(np.clongdouble)
    diag = np.arange(A.shape[-1])
    shift = A[:, diag, diag].real.mean(axis=-1)
    A[:, diag, diag] -= shift[:, None]
    return A, shift


def _refined_core(A: np.ndarray):
    """Extended-precision eigensystems (w, X) of a stack of shifted clongdouble blocks.

    One stacked complex128 LAPACK solve gives the start; Ogita-Aishima steps
    refine it in clongdouble until the correction max|E| of a block stops
    halving or falls to a few units of longdouble epsilon.  (Stopping on the
    orthogonality residual instead ends too early for blocks whose start
    mixes close eigenvalues.)  A block whose X^H A X keeps an off-diagonal
    above ``CLUSTER_TOL * EPS_EXT * ||A||``, or whose X stays further than
    ``CLUSTER_TOL * EPS_EXT`` from orthonormal, has degenerate or clustered
    eigenvalues the refinement cannot separate; it is solved again by
    Jacobi.  The step cap is a safety net: quadratic convergence takes two or
    three steps from a double-precision start.  The eigenvalues come in the
    order the refinement leaves them, which need not be ascending.
    """
    diag = np.arange(A.shape[-1])
    w0, X = np.linalg.eigh(A.astype(np.complex128))
    X = X.astype(np.clongdouble)
    norm_a = np.abs(w0).max(axis=-1)
    last = np.full(len(A), np.inf)
    todo = np.arange(len(A))
    for _ in range(12):  # safety cap
        E = _ogita_aishima_step(A[todo], X[todo], norm_a[todo])
        size = np.abs(E).max(axis=(-2, -1))
        halved = size <= last[todo] / 2
        X[todo[halved]] += X[todo[halved]] @ E[halved]
        last[todo] = size
        todo = todo[halved & (size > 4 * EPS_EXT)]
        if not todo.size:
            break
    Xh = _conj_t(X)
    S = Xh @ A @ X
    w = S[:, diag, diag].real.copy()
    S[:, diag, diag] = 0
    off = np.abs(S).max(axis=(-2, -1))
    orth = np.abs(np.eye(len(diag)) - Xh @ X).max(axis=(-2, -1))
    unresolved = (off > CLUSTER_TOL * EPS_EXT * norm_a) | (orth > CLUSTER_TOL * EPS_EXT)
    for i in np.nonzero(unresolved)[0]:
        w[i], X[i] = _jacobi_eigh(A[i])
    return w, X


def _refined_eigh(A: np.ndarray):
    """Eigensystems of a stack of Hermitian blocks in extended precision.

    :func:`_refined_core` of each block shifted by :func:`_shift_diagonal`;
    the shift is added back and each block's eigenpairs are sorted by a
    stable argsort.  Every step treats each block of the stack on its own,
    and the core sees only the shifted block, so the block memo keeps the
    core's system per shifted block and applies this tail per block
    (:func:`_memo_eighs`).
    """
    A, shift = _shift_diagonal(A)
    w, X = _refined_core(A)
    w += shift[:, None]
    order = np.argsort(w, axis=-1, kind="stable")
    return np.take_along_axis(w, order, -1), np.take_along_axis(X, order[:, None, :], -1)


def _zero_pattern_components(n: int, i: np.ndarray, j: np.ndarray):
    """The connected components of range(n) under the edges (i[k], j[k]): (order, starts).

    ``order`` lists the indices component by component, each component
    ascending, the components in order of their smallest index;
    ``starts`` holds where each component begins in it.  The edges of a
    matrix's zero pattern are its nonzero entries.  Label propagation over
    the edges, read in both directions so the pattern need not be
    symmetric: every index starts as its own label; each round it takes the
    smallest label among its neighbours and then its label's label, until a
    round changes nothing.  Labels only ever name an index of the same
    component and the smallest index of a component keeps its own, so each
    component ends up labelled by its smallest index, whatever the order of
    the edges.  Memory is O(n + edges).
    """
    labels = np.arange(n)
    while True:
        new = labels.copy()
        np.minimum.at(new, i, labels[j])
        np.minimum.at(new, j, labels[i])
        new = new[new]
        if (new == labels).all():
            break
        labels = new
    order = np.argsort(labels, kind="stable")
    return order, np.flatnonzero(order == labels[order])  # each group's own label


def _stack_runs(order: np.ndarray, starts: np.ndarray, dim: int):
    """Components of the index runs [r dim, (r + 1) dim), stacked by size within each run.

    ``order`` and ``starts`` are :func:`_zero_pattern_components` of a
    graph no edge of which leaves its run, so each run's components come
    one after another.  The stacks come run by run, within a run in the
    order their size first appears, and the blocks of a stack in component
    order.  Returns ``(stacks, nodes, sizes)``: one (run, rows) per stack,
    rows (k, m) the indices of its k blocks of size m; and, over all
    stacks in order, the blocks' indices ``nodes``, block after block, and
    their ``sizes``.
    """
    stacks: dict[tuple[int, int], list[int]] = {}  # (run, size): where its blocks start
    ends = starts[1:].tolist() + [order.size]
    for first, a, b in zip(order[starts].tolist(), starts.tolist(), ends):
        stacks.setdefault((first // dim, b - a), []).append(a)
    at = np.array([a for found in stacks.values() for a in found], dtype=np.int64)
    sizes = np.repeat([m for _, m in stacks], [len(found) for found in stacks.values()])
    nodes = order[np.repeat(at - (np.cumsum(sizes) - sizes), sizes) + np.arange(order.size)]
    out, i = [], 0
    for (run, m), found in stacks.items():
        out.append((run, nodes[i : i + len(found) * m].reshape(-1, m)))
        i += len(found) * m
    return out, nodes, sizes


def _block_layout(n: int, nodes: np.ndarray, sizes: np.ndarray):
    """(block, pos, start) of each of n indices, and the packed size, of blocks packed in order.

    The blocks' indices are ``nodes``, block after block, and their sizes
    ``sizes``; they are packed one after another in that order.  Index i
    is at position pos[i] of block block[i], whose row pos[i] starts at
    start[i] of the packed buffer.
    """
    first = np.cumsum(sizes) - sizes
    area = sizes * sizes
    block = np.repeat(np.arange(sizes.size), sizes)
    pos = np.arange(nodes.size) - first[block]
    layout = np.empty((3, n), dtype=np.int64)
    layout[:, nodes] = block, pos, (np.cumsum(area) - area)[block] + pos * sizes[block]
    return layout, int(area.sum())


def _block_stacks(A: np.ndarray):
    """The exact zero-pattern blocks of a dense A, grouped by size.

    Yields ``(rows, blocks)`` per block size m: the row indices of its k
    blocks (k, m) and the blocks themselves (k, m, m); sizes in the order
    their first block appears, blocks in component order.
    """
    n = A.shape[0]
    if not n:
        return
    stacks, _, _ = _stack_runs(*_zero_pattern_components(n, *np.nonzero(A)), n)
    for _, rows in stacks:
        yield rows, A[rows[:, :, None], rows[:, None, :]]


@dataclass(frozen=True)
class BlockOperator:
    """A block-diagonal operator on a region, held as its blocks, packed by size.

    ``rows`` holds one (k, m) array per block size m, the rows of its k
    blocks, as :func:`_block_stacks` gives them; ``packed`` holds the blocks
    of every size, raveled one after another in that order.  Index i lies
    in block ``block[i]`` at position ``pos[i]``, and row pos[i] of its
    block starts at ``packed[start[i]]``: entry (i, j) is packed[start[i] +
    pos[j]] if block[i] == block[j] and +0 otherwise.  Nothing of dimension
    dim^2 is held.
    """

    region: Region
    q: int
    rows: tuple
    packed: np.ndarray
    block: np.ndarray
    pos: np.ndarray
    start: np.ndarray

    @property
    def dim(self) -> int:
        return self.block.size

    def stacks(self):
        """``(rows, blocks)`` per block size, the blocks (k, m, m) views of ``packed``."""
        at = 0
        for rows in self.rows:
            k, m = rows.shape
            yield rows, self.packed[at : at + k * m * m].reshape(k, m, m)
            at += k * m * m

    def entries(self, cols: np.ndarray) -> np.ndarray:
        """The entries (i, cols[i, c]), one row of ``cols`` per row i; +0 outside the blocks."""
        i = np.arange(self.dim)[:, None]
        inside = self.block[i] == self.block[cols]
        out = np.zeros(cols.shape, dtype=self.packed.dtype)
        out[inside] = self.packed[(self.start[i] + self.pos[cols])[inside]]
        return out

    def dense(self) -> np.ndarray:
        """The dense matrix: zeros with each block written on its rows and columns."""
        return _scatter_blocks(self.dim, self.packed.dtype, self.stacks())


def _pack_blocks(region: Region, q: int, rows: tuple, dtype, stacks) -> BlockOperator:
    """The :class:`BlockOperator` on the blocks ``rows`` holding the blocks ``stacks`` yields.

    ``stacks`` yields ``(rows, blocks)`` per block size, in the order of
    ``rows``; each stack is copied in as it comes, so only one is alive
    beside the packed buffer.
    """
    nodes = np.concatenate([r.ravel() for r in rows])
    sizes = np.repeat([r.shape[1] for r in rows], [r.shape[0] for r in rows])
    layout, size = _block_layout(q ** len(region), nodes, sizes)
    op = BlockOperator(region, q, rows, np.empty(size, dtype=dtype), *layout)
    for (_, view), (_, blocks) in zip(op.stacks(), stacks):
        view[...] = blocks
    return op


def _place(terms) -> list[tuple[np.ndarray, np.ndarray]]:
    """The entries each local term places, term by term: (flat index, value) pairs.

    ``terms`` holds (local, index map) pairs, the maps those of
    :func:`support_index_map` on one region of dimension dim.  A term's
    entries are those of its embedding that come from nonzero local
    entries, row by row; entry (i, j) has flat index i * dim + j.
    """
    placed = []
    for local, index_map in terms:
        _, base, off = index_map
        values = _gather(local, index_map)
        i, b = np.nonzero(values)
        placed.append((i * base.size + base[i] + off[b], values[i, b]))
    return placed


def _sector_sums(sums, region: Region, q: int, dtype) -> list[list]:
    """Sums of local terms on ``region``, each assembled block by block; no dense sum is formed.

    Each sum is one list of terms as :func:`_place` gives them, summed in
    its order as the sum of their embeddings from zeros would be: one
    ordered ``np.add.at`` into one slot per distinct entry, so an entry's
    values meet in term order (a fancy-index ``+=`` would drop repeated
    indices).  The terms' zero entries are left out: a zero changes no
    entry of a sum accumulated from zeros, which never holds -0 (x + y
    rounds an exact zero to +0).  The blocks are the components of the
    summed entries that are not zero, not of the terms' patterns: two
    terms that cancel an entry exactly split a block as the dense sum
    does.  Each sum comes as its ``(rows, blocks)`` per block size, views
    of one packed buffer, as :func:`_block_stacks` of the dense sum gives
    them, bit for bit.

    The sums are assembled as one block-diagonal sum, sum s on the indices
    s * dim to s * dim + dim - 1, so one sort, one ``np.add.at`` and one
    label propagation serve them all; no entry of one sum meets another's,
    and the components of each sum come as one run.
    """
    dim = q ** len(region)
    square = dim * dim
    keys = [flat + s * square for s, placed in enumerate(sums) for flat, _ in placed]
    values = [v for placed in sums for _, v in placed]
    keys, slot = np.unique(np.concatenate([np.zeros(0, np.int64), *keys]), return_inverse=True)
    total = np.zeros(keys.size, dtype=dtype)
    np.add.at(total, slot, np.concatenate([np.zeros(0, dtype), *values]))
    nonzero = total != 0
    keys, total = keys[nonzero], total[nonzero]
    i, j = keys // dim, keys // square * dim + keys % dim  # in the block-diagonal sum
    stacks, nodes, sizes = _stack_runs(*_zero_pattern_components(len(sums) * dim, i, j), dim)
    (_, pos, start), size = _block_layout(len(sums) * dim, nodes, sizes)
    packed = np.zeros(size, dtype=dtype)
    packed[start[i] + pos[j]] = total
    out: list[list] = [[] for _ in sums]
    at = 0
    for run, rows in stacks:
        k, m = rows.shape
        out[run].append((rows - run * dim, packed[at : at + k * m * m].reshape(k, m, m)))
        at += k * m * m
    return out


def _stack_eighs(stacks):
    """Eigensystems of stacks of Hermitian blocks, ``(rows, blocks)`` per block size.

    Yields ``(rows, w, V)`` per block size m: the row indices of its k
    blocks (k, m), their ascending eigenvalues (k, m) and eigenvector
    columns (k, m, m).  complex128 stacks go to LAPACK (bit-identical to
    solving each block on its own), clongdouble stacks to
    :func:`_refined_eigh`; blocks of size one need no solve.
    """
    for rows, blocks in stacks:
        if rows.shape[1] == 1:  # a copy: blocks may be a view of a whole packed sum
            yield rows, blocks[:, 0].real.copy(), np.ones_like(blocks)
        elif blocks.dtype not in (np.longdouble, np.clongdouble):
            yield (rows, *np.linalg.eigh(blocks))
        else:
            yield (rows, *_refined_eigh(blocks))


def _block_eighs(A: np.ndarray):
    """:func:`_stack_eighs` of the exact zero-pattern blocks of a dense Hermitian A."""
    return _stack_eighs(_block_stacks(A))


def _memo_eighs(splits, memo: dict) -> list[tuple]:
    """:func:`_block_eighs` of each clongdouble H ``splits`` gives, solved through the block memo.

    ``splits`` yields, per H, the ``(rows, blocks)`` per block size that
    :func:`_sector_sums` gives each sum and :func:`_block_stacks` yields,
    and is read one H at a time.  ``memo`` maps (size, value bytes) of a block
    shifted by :func:`_shift_diagonal` to the :func:`_refined_core` system
    (w, X) of that shifted block, as the core returns it; the value bytes
    leave out the padding of each longdouble (see :func:`_value_bytes`).
    Blocks that differ by a multiple of the identity, as sectors do that
    differ only in free sites, mostly shift to the same bytes and share one
    entry.  The distinct shifted blocks the memo lacks are solved after the
    last H, one core call per block size; until then each block holds only
    a place in a list of memo systems and new blocks, not its key.  The core
    treats each block of its stack on its own (the LAPACK start, the
    clongdouble products, the stop test and the Jacobi fallback are all per
    block), so a system does not depend on which blocks it was solved with;
    nor on the exponent a caller applies, so one solve serves every beta.

    Each block then gets :func:`_refined_eigh`'s tail on its own: its shift
    is added to the core's w and the pairs are sorted by a stable argsort.
    V keeps the memo's own X, not a copy (stacked copies would hold the
    memo's memory again per H), unless the sort moves a column.  So each
    H's result is its :func:`_block_eighs`, bit for bit; ``np.asarray`` of
    a V list gives the stack.
    """
    mask = _LONGDOUBLE_VALUE_BYTES
    found: list = []  # a memo system, or a new shifted block until it is solved
    new: dict = {}  # the key of each new shifted block: its place in found
    held = []
    for stacks in splits:
        parts = []
        for rows, blocks in stacks:
            if rows.shape[1] == 1:  # a copy, as in _stack_eighs
                parts.append((rows, blocks[:, 0].real.copy(), np.ones_like(blocks)))
                continue
            shifted, shift = _shift_diagonal(blocks)
            values = shifted.view(np.uint8).reshape(len(blocks), -1, mask.size)[:, :, mask]
            at = np.empty(len(blocks), dtype=np.int64)
            for k, (block, v) in enumerate(zip(shifted, values)):
                key = (rows.shape[1], v.tobytes())
                i = new.get(key)
                if i is None:
                    i = len(found)
                    system = memo.get(key)
                    if system is None:
                        new[key], system = i, block.copy()
                    found.append(system)
                at[k] = i
            parts.append((rows, shift, at))
        held.append(parts)
    by_size: dict[int, list] = {}
    for (m, _), i in new.items():
        by_size.setdefault(m, []).append(i)
    for at in by_size.values():
        w, X = _refined_core(np.array([found[i] for i in at]))
        for i, system in zip(at, zip(w, X)):
            found[i] = system
    memo.update((key, found[i]) for key, i in new.items())
    out = []
    for parts in held:
        systems = []
        for part in parts:
            rows, shift, at = part
            if rows.shape[1] == 1:  # the part holds its 1x1 blocks' system
                systems.append(part)
                continue
            w = np.array([found[i][0] for i in at])
            w += shift[:, None]
            order = np.argsort(w, axis=-1, kind="stable")
            V = [found[i][1] for i in at]
            for k in np.flatnonzero((order != np.arange(w.shape[1])).any(axis=1)):
                w[k], V[k] = w[k][order[k]], V[k][:, order[k]]
            systems.append((rows, w, V))
        out.append(tuple(systems))
    return out


@dataclass(frozen=True)
class BlockEigensystem:
    """Eigensystems of the exact zero-pattern blocks of one Hermitian matrix.

    ``blocks`` holds one ``(rows, w, V)`` per block size, as yielded by
    :func:`_block_eighs`.  ``order`` sorts the concatenated block eigenvalues
    (block by block, each block's ascending) into ``eigenvalues``; equal
    eigenvalues of different blocks keep the order of the blocks' first rows,
    so the columns are those of a block-by-block solve.
    """

    dim: int
    blocks: tuple
    order: np.ndarray
    eigenvalues: np.ndarray


def herm_blocks(M) -> BlockEigensystem:
    """Block eigensystems of a Hermitian matrix (symmetrized before solving).

    The matrix is split into the connected components of its exact zero
    pattern and each block is solved on its own (LAPACK for complex128,
    refined LAPACK in extended precision for clongdouble); no eigenvector
    matrix of the full dimension is formed.  Number-conserving Hamiltonians
    split into small sectors (chain10: 20 blocks, the largest 126x126), which
    keeps the result independent of the BLAS thread count where one dense
    solve of the whole matrix is not.
    """
    return _herm_blocks(_require_hermitian(_matrix_of(M)))


def _herm_blocks(A: np.ndarray) -> BlockEigensystem:
    """:func:`herm_blocks` of a matrix that equals its symmetrization, without the check."""
    return _stack_eigensystem(A.shape[0], _block_stacks(A))


def _stack_eigensystem(dim: int, stacks) -> BlockEigensystem:
    """The :class:`BlockEigensystem` of the blocks ``stacks`` yields, solved unchecked.

    ``stacks`` are those of :func:`_block_stacks` or of a :func:`_sector_sums` sum.
    """
    blocks = tuple(_stack_eighs(stacks))
    w = np.concatenate([bw.ravel() for _, bw, _ in blocks])
    first = np.concatenate([np.repeat(r[:, 0], r.shape[1]) for r, _, _ in blocks])
    pos = np.concatenate([np.tile(np.arange(r.shape[1]), len(r)) for r, _, _ in blocks])
    order = np.lexsort((pos, first, w))
    return BlockEigensystem(dim, blocks, order, w[order])


def herm_eig(M) -> Eigensystem:
    """Full eigensystem of a Hermitian matrix, from :func:`herm_blocks`.

    The block eigenvectors are scattered into their rows and the columns
    ordered by ascending eigenvalue, so entries coupling different blocks
    are exactly zero.
    """
    eig = herm_blocks(M)
    column = np.empty_like(eig.order)
    column[eig.order] = np.arange(eig.order.size)
    dtype = np.result_type(*{bV.dtype for _, _, bV in eig.blocks})
    V = np.zeros((eig.dim, eig.dim), dtype=dtype)
    start = 0
    for rows, _, bV in eig.blocks:
        cols = column[start : start + rows.size].reshape(rows.shape)
        V[rows[:, :, None], cols[:, None, :]] = bV
        start += rows.size
    return Eigensystem(eigenvalues=eig.eigenvalues, eigenvectors=V)


def herm_exp(M, s) -> np.ndarray:
    """exp(s * M) for Hermitian M, via blockwise eigendecomposition.

    The matrix is first split into the connected components of its exact
    zero pattern (an exact operation -- nothing is thresholded), then the
    blocks of each size are diagonalized as one stack with the
    dtype-appropriate solver and written back with one assignment.  Entries
    coupling different blocks stay exactly zero in the output.
    """
    M = _matrix_of(M)
    A = _require_hermitian(M.astype(_work_dtype(M.dtype), copy=False))
    s = np.clongdouble(s) if A.dtype == np.clongdouble else complex(s)
    blocks = ((rows, np.exp(s * w), V) for rows, w, V in _block_eighs(A))
    return _block_function(A.shape[0], A.dtype, blocks)


def _block_function(dim: int, dtype, blocks) -> np.ndarray:
    """f(H) of dimension dim: V diag(fw) V^H on each block's rows and columns, zero elsewhere.

    ``blocks`` yields ``(rows, fw, V)`` per block size: :func:`_block_eighs` with fw = f(w).
    """
    return _scatter_blocks(dim, dtype, _block_products(blocks))


def _block_products(blocks):
    """(rows, V diag(fw) V^H) per block size of ``blocks`` (as for :func:`_block_function`)."""
    for rows, fw, V in blocks:
        yield rows, (V * fw[:, None, :]) @ _conj_t(V)


def _scatter_blocks(dim: int, dtype, stacks) -> np.ndarray:
    """``dtype`` zeros of dimension dim, each of the ``(rows, blocks)`` on its rows and columns."""
    out = np.zeros((dim, dim), dtype=dtype)
    for rows, blocks in stacks:
        out[rows[:, :, None], rows[:, None, :]] = blocks
    return out


def op_norm(M) -> float:
    """Operator (largest singular value) norm."""
    A = np.asarray(_matrix_of(M), dtype=np.complex128)
    return float(np.linalg.norm(A, 2))
