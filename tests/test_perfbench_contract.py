"""What the benchmark harness in perfbench/ reads of decorr, by name.

The harness wraps the functions listed in ``tracing.TRACED`` by
``getattr``, assembles an independent Hamiltonian from a spec's local
terms (``checks._assemble``), and its workloads and self-tests call decorr's
public functions and read fields of their results.  A rename or a reshaped
spec field would break a benchmark run, not a test; these tests make it
break here.
"""

import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

import decorr as dc
import decorr.cli
from decorr import _kernels, expansion, gibbs
from decorr.algebra import GlobalOperator
from decorr.lattice import LatticeGeometry, Region, box_geometry, chain_geometry
from decorr.model import build_restricted

from conftest import chain, pauli_at

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


def box34():
    return dc.xxz_spec(box_geometry((3, 4), 1), lam=0.3, seed=7, J12=0.02, J3=0.02)


@pytest.mark.parametrize(
    "make",
    [
        lambda: chain(10),
        lambda: dc.normalize_nonpositive(chain(8)),
        box34,
        lambda: dc.normalize_nonpositive(box34()),
    ],
    ids=["chain10", "chain8-normalized", "box3x4", "box3x4-normalized"],
)
def test_the_summation_order_is_the_harness_order_bit_for_bit(harness, make):
    # the harness adds each term into one H, the on-site terms in site order
    # and then each interaction; decorr sums every H it solves in that order
    _, checks = harness
    spec = make()
    assert np.array_equal(build_restricted(spec, spec.sites)[2].matrix, checks._assemble(spec))


# every call form perfbench/workloads.py and perfbench/tests make, as
# (function, positional argument count, keyword names)
CALL_FORMS = [
    (dc.xxz_spec, 1, ("lam", "seed", "J12", "J3", "R")),
    (dc.verify_resummation, 2, ()),
    (dc.verify_factorization, 6, ()),
    (dc.verify_swap_identity, 4, ()),
    (dc.verify_supercluster_resummation, 6, ()),
    (dc.normalize_nonpositive, 1, ()),
    (dc.partition_ratio, 3, ()),
    (dc.count_connected_sets, 3, ()),
    (dc.decay_sweep, 5, ("anchor", "strict")),
    (dc.gibbs_state, 2, ()),
    (dc.build_restricted, 2, ()),
    (dc.covariance, 3, ()),
    (decorr.cli.main, 1, ()),
    (_kernels.build_universe, 3, ()),
    (_kernels.brute_force_connected_count, 3, ()),
    (GlobalOperator, 3, ()),
    (LatticeGeometry, 3, ()),
    (chain_geometry, 1, ()),
]

# result fields the workloads and self-tests read
RESULT_FIELDS = {
    expansion.FactorizationCheck: {"rel_residual"},
    expansion.SwapCheck: {"rel_residual", "per_pair_max", "n_event_pairs"},
    expansion.SuperclusterCheck: {
        "rel_residual_weight", "rel_residual_observable", "n_class_pairs", "ratio",
    },
    expansion.PartitionRatio: {
        "ratio", "bound_ok", "split_product_le_full", "free_le_power", "interacting_ge_one",
    },
    gibbs.DecayFit: {"points"},
}


@pytest.mark.parametrize(
    "func,n_args,keywords", CALL_FORMS, ids=[f.__name__ for f, _, _ in CALL_FORMS]
)
def test_call_forms_the_harness_uses_still_bind(func, n_args, keywords):
    inspect.signature(func).bind(*range(n_args), **dict.fromkeys(keywords))


def test_result_fields_the_harness_reads(chain5):
    for cls, names in RESULT_FIELDS.items():
        assert names <= {f.name for f in dataclasses.fields(cls)}, cls.__name__
    fit = dc.decay_sweep(
        chain5, 5.0, [(0, "X")], [(0, "X")], [1, 2, 3], anchor=(1,), strict=False
    )
    assert [d for d, _ in fit.points] == [1, 2, 3]


@pytest.mark.parametrize("sweep", ["swap", "resummation"])
def test_sweeps_call_yarotsky_term_through_the_module(sweep, monkeypatch):
    # the harness counts terms by replacing expansion.yarotsky_term, so the
    # sweeps must look it up there; a term's summands do not pass through
    # herm_exp, so these calls are all the harness sees of the terms
    calls = []
    term = expansion.yarotsky_term
    monkeypatch.setattr(
        expansion, "yarotsky_term", lambda *a: calls.append(a[0]) or term(*a)
    )
    spec = chain(6)
    if sweep == "swap":
        dc.verify_swap_identity(spec, pauli_at(0, "Z"), pauli_at(5, "Z"), 2.0)
    else:
        dc.verify_resummation(spec, 2.0)
    assert len(calls) > 0


def test_workload_configs_are_read_whole_and_pass(harness, monkeypatch, tmp_path):
    # decorr refuses a config key that no command reads; every config the
    # workloads write must pass that check and exit 0
    workloads = importlib.import_module("workloads")
    ran = []
    main = decorr.cli.main

    def recording(argv):
        ran.append((argv[0], main(argv)))
        return ran[-1][1]

    monkeypatch.setattr(decorr.cli, "main", recording)
    for name, (setup, run) in workloads.WORKLOADS.items():
        run(setup(workloads.GATE_SEED), workloads.GATE_SEED, tmp_path / name,
            lambda step: nullcontext())
    assert ran == [("verify", 0), ("decay", 0), ("ising", 0), ("count", 0)]


def test_cli_dispatch_table_holds_each_runner_itself():
    # the harness traces a command by swapping its runner wherever a module
    # or a module-level dict holds the function itself; main calls the
    # runner through this table, so a value wrapped in a tuple would keep
    # the command's self time at 0
    assert set(decorr.cli._RUNNERS) == set(decorr.cli._CONFIG_KEYS)
    for name in decorr.cli._RUNNERS:
        assert decorr.cli._RUNNERS[name] is getattr(decorr.cli, f"run_{name}"), name


# runs in a fresh interpreter: other tests have imported every module by now
_IMPORT_CLI = """
import json, sys
import decorr.cli
print(json.dumps(sorted(m for m in sys.modules if m.startswith("decorr"))))
"""


def test_importing_the_cli_imports_every_traced_module(harness):
    # passrun.py installs the tracer right after `import decorr.cli`, and
    # Tracer.install reads sys.modules for each traced module: a submodule
    # that the CLI imported lazily would fail every traced pass with KeyError
    tracing, _ = harness
    src = Path(decorr.cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_CLI], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    imported = set(json.loads(run.stdout))
    traced = {module for module, _ in tracing.TRACED.values() if module.startswith("decorr")}
    assert traced and traced <= imported, traced - imported
