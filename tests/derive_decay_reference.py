"""Extended-precision reference for the chain10 decay sweeps.

Recomputes the sweep that ``test_gibbs.test_decay_sweep_frozen_fit`` pins
(chain10, beta = 5, |Cov(X_1, X_{1+d})| for d = 2..7), and the beta = 50
sweep of acceptance criterion 10, without the program's double-precision
Gibbs path: each exact zero-pattern block of H is solved by the library's
extended-precision block solver (LAPACK in double, then Ogita-Aishima
refinement in clongdouble; T. Ogita and K. Aishima, JJIAM 35 (2018)), and
the Gibbs weights, both trace routes and the least-squares fit run in
clongdouble; the spread of the two routes estimates the rounding noise of
the reference itself.

Run from the repository root (about 15 seconds, one core):

    PYTHONPATH=src python tests/derive_decay_reference.py
"""

import numpy as np

import decorr as dc
from decorr.algebra import _block_eighs, embed
from decorr.lattice import Region
from decorr.model import PAULI_BY_NAME

from conftest import chain

EXT = np.clongdouble
BETAS = (np.longdouble(5), np.longdouble(50))
DISTANCES = [2, 3, 4, 5, 6, 7]
ANCHOR = 1


def main():
    spec = chain(10)
    H = dc.build_restricted(spec, spec.sites)[2].matrix.astype(EXT)
    blocks, orth, resid = [], 0.0, 0.0
    for rows, lams, Xs in _block_eighs(H):
        for idx, lam, X in zip(rows, lams, Xs):
            A = H[np.ix_(idx, idx)]
            orth = max(orth, float(np.abs(np.eye(idx.size) - X.conj().T @ X).max()))
            resid = max(resid, float(np.abs(A @ X - X * lam).max()))
            blocks.append((idx, lam, X))
    print(f"{len(blocks)} blocks, largest {max(b[0].size for b in blocks)}; "
          f"max|I - X^H X| = {orth:.2e}, max|AX - X diag(lam)| = {resid:.2e}")

    for beta in BETAS:
        report(spec, blocks, beta)


def report(spec, blocks, beta):
    e0 = min(lam.min() for _, lam, _ in blocks)
    Z = sum(np.exp(-beta * (lam - e0)).sum() for _, lam, _ in blocks)

    def mean(M):
        # rho is block diagonal, so only the diagonal blocks of M contribute
        via_rho, via_vectors = EXT(0), EXT(0)
        for idx, lam, X in blocks:
            p = np.exp(-beta * (lam - e0)) / Z
            Mb = M[np.ix_(idx, idx)]
            via_rho += np.sum(((X * p) @ X.conj().T) * Mb.T)
            via_vectors += np.sum(p * np.diag(X.conj().T @ Mb @ X))
        return np.array([via_rho, via_vectors])

    X1 = PAULI_BY_NAME["X"].astype(EXT)
    a = embed(X1, Region([(ANCHOR,)]), spec.sites, 2).matrix
    mean_a = mean(a)
    covs = []
    for d in DISTANCES:
        site = (ANCHOR + d,)
        b = embed(X1, Region([site]), spec.sites, 2).matrix
        ab = embed(np.kron(X1, X1), Region([(ANCHOR,), site]), spec.sites, 2).matrix
        covs.append(np.abs(mean(ab) - mean_a * mean(b)))
    covs = np.array(covs)  # rows: distance; columns: the two trace routes

    print(f"beta = {float(beta):g}")
    x = np.array(DISTANCES, dtype=np.longdouble)
    x -= x.mean()
    for route, name in enumerate(("rho", "vectors")):
        y = np.log(covs[:, route])
        slope = (x * (y - y.mean())).sum() / (x * x).sum()
        print(f"  route {name}: xi = {float(-1 / slope)!r}, slope = {float(slope)!r}")
        print("    |cov| =", " ".join(repr(float(c)) for c in covs[:, route]))
    spread = np.abs(covs[:, 0] - covs[:, 1]) / covs[:, 0]
    print("  relative spread of the two routes per distance:",
          " ".join(f"{float(s):.1e}" for s in spread))


if __name__ == "__main__":
    main()
