"""Shared fixtures: small XXZ chains reused across the suite.

The canonical instance (lam=0.3, seed=7, J12=J3=0.02, R=1) is deliberately
identical everywhere so certified constants and weights can be frozen once
and asserted as literals.
"""

import numpy as np
import pytest

import decorr as dc
from decorr import algebra, expansion, gibbs, model
from decorr.algebra import GlobalOperator
from decorr.lattice import Region
from decorr.model import PAULI_BY_NAME


def chain(n, **overrides):
    params = dict(lam=0.3, seed=7, J12=0.02, J3=0.02, R=1)
    params.update(overrides)
    return dc.xxz_spec(n, **params)


def boson_model(n, q, hop=0.05):
    """Model block of an n-site chain of q-level truncated bosons.

    h_x = diag(0, 1, ..., q-1) on every site and v_x = -hop (b+_x b_{x+1} + h.c.)
    on the interior centers, b the truncated annihilator; [re, im] entries.
    """
    b = np.diag(np.sqrt(np.arange(1.0, q)), 1)
    v = -hop * (np.kron(b.T, b) + np.kron(b, b.T))

    def entries(m):
        return [[[float(e), 0.0] for e in row] for row in m]

    return {
        "model": "custom", "D": 1, "R": 1, "q": q, "lattice": [[i] for i in range(n)],
        "onsite": [[[i], entries(np.diag(np.arange(q)))] for i in range(n)],
        "interactions": [[[x], [[x], [x + 1]], entries(v)] for x in range(1, n - 1)],
    }


def count_core_solves(monkeypatch):
    """The (stack size, block size) of every refined core solve from now on, in order."""
    solved = []
    core = algebra._refined_core
    monkeypatch.setattr(
        algebra, "_refined_core", lambda A: solved.append(A.shape[:2]) or core(A)
    )
    return solved


def zero_pattern_groups(n, i, j):
    """The components of ``algebra._zero_pattern_components``, one index array each."""
    order, starts = algebra._zero_pattern_components(n, i, j)
    return np.split(order, starts[1:]) if n else []


def count_sector_sums(monkeypatch):
    """The region of every sum assembled by sectors (``algebra._sector_sums``) from now on.

    The counter replaces the function in every module that imports it.
    """
    regions = []
    original = algebra._sector_sums

    def counting(sums, region, q, dtype):
        sums = list(sums)
        regions.extend([region] * len(sums))
        return original(sums, region, q, dtype)

    for module in (algebra, model, gibbs, expansion):
        if getattr(module, "_sector_sums", None) is original:
            monkeypatch.setattr(module, "_sector_sums", counting)
    return regions


def fresh_memo(spec):
    """The spec built again from its terms: the same Hamiltonian with empty memos."""
    return model.HamiltonianSpec(
        spec.geometry, spec.q, spec.onsite, spec.interactions, spec.a, spec.model, spec.params
    )


def pauli_at(site, name, q=2):
    """Single-site Pauli observable as a GlobalOperator."""
    if isinstance(site, int):
        site = (site,)
    return GlobalOperator(Region([tuple(site)]), q, PAULI_BY_NAME[name].astype(complex))


@pytest.fixture(scope="session")
def chain5():
    return chain(5)


@pytest.fixture(scope="session")
def chain6():
    return chain(6)


@pytest.fixture(scope="session")
def chain8():
    return chain(8)


@pytest.fixture(scope="session")
def chain9():
    return chain(9)


@pytest.fixture(scope="session")
def chain10():
    return chain(10)


@pytest.fixture(scope="session")
def free6():
    """Unperturbed 6-site chain: uniform fields, no couplings."""
    return chain(6, lam=0.0, J12=0.0, J3=0.0, seed=0)
