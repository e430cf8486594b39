"""Dense references written from numpy alone, independent of decorr.

The tests compare decorr's block-by-block routes with these: Hamiltonians
summed from ``np.kron`` products and level counts from
``np.linalg.eigvalsh``.  Nothing here imports decorr, so a fault in the
code under test cannot also be a fault of its reference.
"""

import numpy as np

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def ising_hamiltonian(n: int, J: float) -> np.ndarray:
    """H = -J sum_k sigma3_k sigma3_{k+1} on an open chain of n spins, dense.

    Each bond is the Kronecker product I_{2^k} (x) (-J Z Z) (x) I_{2^(n-k-2)},
    the leg of site 0 most significant; the bonds are summed from zeros in
    the order k = 0, 1, ..., n-2.
    """
    bond = -J * np.kron(PAULI_Z, PAULI_Z)
    H = np.zeros((2**n, 2**n), dtype=complex)
    for k in range(n - 1):
        H += np.kron(np.kron(np.eye(2**k), bond), np.eye(2 ** (n - k - 2)))
    return H


def local_sum(terms, n: int, q: int, dtype=complex) -> np.ndarray:
    """The sum of local terms on n q-level sites, dense, summed from ``dtype`` zeros in list order.

    ``terms`` holds (legs, matrix) pairs: the matrix acts on the tensor legs
    ``legs`` (leg 0 most significant), its own k-th leg on legs[k].  Each
    term is matrix (x) I_{q^(n-k)} by ``np.kron``, its 2n tensor legs then
    transposed so that leg j of the product lands on legs[j] and the legs
    of the identity on the other positions in order.
    """
    H = np.zeros((q**n, q**n), dtype=dtype)
    for legs, m in terms:
        order = np.argsort(list(legs) + [p for p in range(n) if p not in legs])
        full = np.kron(m, np.eye(q ** (n - len(legs)))).reshape((q,) * 2 * n)
        H += full.transpose(*order, *(n + order)).reshape(q**n, q**n)
    return H


def level_counts(H: np.ndarray) -> list[int]:
    """How many eigenvalues of the Hermitian H round to each integer, in ascending order."""
    _, counts = np.unique(np.rint(np.linalg.eigvalsh(H)), return_counts=True)
    return counts.tolist()
