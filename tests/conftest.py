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
