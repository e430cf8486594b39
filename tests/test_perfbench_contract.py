"""What the benchmark harness in perfbench/ reads of decorr, by name.

The harness wraps the functions listed in ``tracing.TRACED`` by
``getattr`` and assembles an independent Hamiltonian from a spec's local
terms (``checks._assemble``).  A rename or a reshaped spec field would
break a benchmark run, not a test; these tests make it break here.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from decorr.lattice import Region
from decorr.model import build_restricted

from conftest import chain

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing"), importlib.import_module("checks")


def test_every_traced_function_resolves(harness):
    tracing, _ = harness
    for span, (module, attr) in tracing.TRACED.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), span


def test_spec_terms_keep_the_shape_the_harness_reads(harness):
    _, checks = harness
    spec = chain(6)
    q = spec.q
    assert set(spec.onsite) == set(spec.sites)
    for h in spec.onsite.values():
        assert isinstance(h, np.ndarray) and h.shape == (q, q)
    assert spec.interactions
    for x, term in spec.interactions.items():
        assert term.center == x
        assert isinstance(term.support, Region) and term.support.issubset(spec.sites)
        assert term.matrix.shape == (q ** len(term.support),) * 2
    H = build_restricted(spec, spec.sites)[2].matrix
    assert np.allclose(checks._assemble(spec), H, rtol=0, atol=1e-14)
