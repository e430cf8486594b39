"""Thermal states, covariances, decay fits, closed-form oracles."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import decorr as dc
from decorr import algebra, gibbs
from decorr.algebra import GlobalOperator, embed, operator_product
from decorr.gibbs import (
    FIT_FLOOR,
    DegenerateFitError,
    bound_certificate,
    fit_decay,
    observable_from_template,
)
from decorr.lattice import Region, counting_constant
from decorr.model import PAULI_BY_NAME

import reference
from conftest import chain, count_sector_sums, pauli_at, zero_pattern_groups

N2 = np.diag([0.0, 1.0]).astype(complex)


def one_site_op(mat):
    return GlobalOperator(Region([(0,)]), 2, mat)


def test_partition_function_single_site():
    beta = 1.7
    Z, logZ = gibbs.partition_sum(np.linalg.eigvalsh(N2), beta)
    assert Z == pytest.approx(1 + np.exp(-beta), rel=1e-14)
    assert logZ == pytest.approx(np.log(1 + np.exp(-beta)), rel=1e-14)


def test_partition_function_accepts_matrix():
    # a dense H's spectrum in any order: the max shift needs no sorting
    spec = chain(3)
    w = np.linalg.eigvalsh(dc.build_restricted(spec, spec.sites)[2].matrix)
    Z, logZ = gibbs.partition_sum(w[::-1], 2.0)
    assert Z == pytest.approx(np.exp(-2.0 * w).sum(), rel=1e-14)
    assert logZ == pytest.approx(np.log(np.exp(-2.0 * w).sum()), rel=1e-14)


def test_partition_function_empty_region_is_one(chain5):
    H = dc.build_restricted(chain5, Region())[2].matrix
    Z, logZ = gibbs.partition_sum(np.linalg.eigvalsh(H), 3.0)
    assert Z == 1 and logZ == 0


def test_partition_function_large_beta_log_is_finite():
    # Z = e^{50000} overflows even longdouble, log Z does not
    w = np.linalg.eigvalsh(np.diag([-1000.0, 0.0]))
    with np.errstate(over="ignore"):
        _, logZ = gibbs.partition_sum(w, 50.0)
    assert logZ == pytest.approx(50000.0, rel=1e-15)


def test_gibbs_state_single_site():
    beta = np.log(2.0)
    state = dc.gibbs_state(one_site_op(N2), beta)
    assert np.allclose(state.rho.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-14)
    assert np.trace(state.rho.matrix) == pytest.approx(1.0, rel=1e-14)
    assert state.beta == beta


def test_gibbs_state_infinite_temperature_limit():
    state = dc.gibbs_state(one_site_op(N2), 1e-12)
    assert np.allclose(state.rho.matrix, np.eye(2) / 2, atol=1e-10)


def test_gibbs_state_commutes_with_hamiltonian(chain5):
    H = dc.build_restricted(chain5, chain5.sites)[2]
    state = dc.gibbs_state(H, 2.0)
    comm = state.rho.matrix @ H.matrix - H.matrix @ state.rho.matrix
    assert np.abs(comm).max() < 1e-12


def test_expectation_values(chain5):
    H = dc.build_restricted(chain5, chain5.sites)[2]
    state = dc.gibbs_state(H, 2.0)
    ident = embed(np.eye(2, dtype=complex), Region([(2,)]), chain5.sites, 2)
    assert dc.expectation(state, ident) == pytest.approx(1.0, rel=1e-13)
    # single free site: <Z> = tanh(beta h / 2) with h the local field
    free = chain(1, lam=0.0, J12=0.0, J3=0.0)
    s1 = dc.gibbs_state(dc.build_restricted(free, free.sites)[2], 2.0)
    z = GlobalOperator(free.sites, 2, np.diag([1.0, -1.0]).astype(complex))
    assert dc.expectation(s1, z) == pytest.approx(np.tanh(1.0), rel=1e-13)


def test_covariance_basics(chain5):
    H = dc.build_restricted(chain5, chain5.sites)[2]
    state = dc.gibbs_state(H, 2.0)
    A = pauli_at(1, "Z")
    ident = pauli_at(3, "I")
    assert abs(dc.covariance(state, ident, A)) < 1e-13
    assert abs(dc.covariance(state, A, ident)) < 1e-13
    var = complex(dc.covariance(state, A, A))
    assert var.real > 0 and abs(var.imag) < 1e-13


def test_covariance_paths_agree(chain5):
    # minimal disjoint supports against supports padded with identities
    # until they overlap, so that AB is multiplied on a shared site
    H = dc.build_restricted(chain5, chain5.sites)[2]
    state = dc.gibbs_state(H, 2.0)
    fast = dc.covariance(state, pauli_at(1, "Z"), pauli_at(3, "Z"))
    Zpad1 = embed(
        np.diag([1.0, -1.0]).astype(complex), Region([(1,)]), Region([(1,), (2,)]), 2
    )
    Zpad3 = embed(
        np.diag([1.0, -1.0]).astype(complex), Region([(3,)]), Region([(2,), (3,)]), 2
    )
    slow = dc.covariance(state, Zpad1, Zpad3)
    assert complex(fast) == pytest.approx(complex(slow), rel=1e-12)


def test_covariance_product_state_uncorrelated(free6):
    H = dc.build_restricted(free6, free6.sites)[2]
    state = dc.gibbs_state(H, 1.5)
    cov = dc.covariance(state, pauli_at(0, "Z"), pauli_at(5, "Z"))
    assert abs(complex(cov)) < 1e-14


def full_space_expectation(state, A):
    """tr(rho A) with A embedded into the state's whole region."""
    mat = embed(A.matrix, A.region, state.region, state.rho.q).matrix
    return complex(np.einsum("ij,ji->", state.rho.matrix, mat))


def test_expectation_matches_full_space_einsum(chain6):
    state = dc.gibbs_state(dc.build_restricted(chain6, chain6.sites)[2], 2.0)
    strings = [
        [(2, "X")],
        [(0, "Z")],
        [(1, "X"), (4, "X")],
        [(0, "Y"), (3, "Y")],
        [(2, "N"), (3, "X"), (5, "Z")],
        [(0, "X"), (1, "Y"), (2, "Z"), (3, "N")],
    ]
    for factors in strings:
        A = operator_product(*(pauli_at(i, name) for i, name in factors))
        # same terms, added in the same order as the einsum
        assert dc.expectation(state, A) == full_space_expectation(state, A)
    r = np.random.default_rng(11)
    dense = GlobalOperator(
        Region([(1,), (4,)]), 2, r.normal(size=(4, 4)) + 1j * r.normal(size=(4, 4))
    )
    assert dc.expectation(state, dense) == pytest.approx(
        full_space_expectation(state, dense), rel=1e-14
    )
    outside = pauli_at(6, "Z")
    with pytest.raises(ValueError):
        dc.expectation(state, outside)


def test_gibbs_state_blockwise(chain6):
    H = dc.build_restricted(chain6, chain6.sites)[2]
    beta = 2.0
    rho = dc.gibbs_state(H, beta).rho.matrix
    block = np.empty(H.dim, dtype=int)
    for k, idx in enumerate(zero_pattern_groups(H.dim, *np.nonzero(H.matrix))):
        block[idx] = k
    assert block.max() > 0
    cross = block[:, None] != block[None, :]
    assert np.all(rho[cross] == 0)
    assert abs(np.trace(rho) - 1) <= 1e-15
    eig = algebra.herm_eig(H)
    w, V = eig.eigenvalues, eig.eigenvectors
    boltz = np.exp(-beta * (w - w[0]))
    dense = (V * (boltz / boltz.sum())) @ V.conj().T
    assert np.abs(rho - dense).max() <= 1e-15


@pytest.mark.parametrize("beta", [0.5, 5.0])
def test_gibbs_state_keeps_the_bits_of_the_block_loop(chain6, beta):
    # rho is written by the block assembly that exp(sH) uses; it must equal
    # the per-block loop it replaced, including the sign of every zero
    H = dc.build_restricted(chain6, chain6.sites)[2]
    eig = algebra.herm_blocks(H)
    w = eig.eigenvalues
    boltz = np.exp(-beta * (w - w[0]))
    p = np.empty_like(boltz)
    p[eig.order] = boltz / boltz.sum()
    ref = np.zeros((eig.dim, eig.dim), dtype=eig.blocks[0][2].dtype)
    start = 0
    for rows, _, V in eig.blocks:
        pb = p[start : start + rows.size].reshape(rows.shape)
        Vh = V.conj().swapaxes(-1, -2)
        ref[rows[:, :, None], rows[:, None, :]] = (V * pb[:, None, :]) @ Vh
        start += rows.size
    assert dc.gibbs_state(H, beta).rho.matrix.tobytes() == ref.tobytes()


def test_covariance_never_embeds_into_the_full_space(chain10, monkeypatch):
    # covariance multiplies A and B on their joint support; a regression
    # back to full-space embeds would show here as a 10-site target
    state = dc.gibbs_state(dc.build_restricted(chain10, chain10.sites)[2], 5.0)
    targets = []
    original = algebra.embed

    def counting_embed(local, support, target, q):
        targets.append(len(target))
        return original(local, support, target, q)

    monkeypatch.setattr(algebra, "embed", counting_embed)
    cov = dc.covariance(state, pauli_at(1, "X"), pauli_at(6, "X"))
    assert targets and max(targets) < len(chain10.sites)
    monkeypatch.undo()
    A, B = pauli_at(1, "X"), pauli_at(6, "X")
    ref = full_space_expectation(state, operator_product(A, B)) - full_space_expectation(
        state, A
    ) * full_space_expectation(state, B)
    assert cov == ref


def test_expectation_from_blocks_keeps_the_bits_of_dense_rho(chain6):
    # the entries gathered from rho's blocks, +0 between them, are dense rho's
    state = dc.gibbs_state(dc.build_restricted(chain6, chain6.sites)[2], 2.0)
    rho = state.rho
    for A in (pauli_at(0, "Z"), pauli_at(2, "X"),
              operator_product(pauli_at(1, "X"), pauli_at(4, "Y")),
              operator_product(pauli_at(0, "Y"), pauli_at(3, "X"), pauli_at(5, "N"))):
        got = algebra._local_trace(state.blocks, A)
        assert got.tobytes() == algebra._local_trace(rho, A).tobytes()


GIBBS_RUNS = {
    "decay": lambda: dc.decay_sweep(
        chain(10), 5.0, [(0, "X")], [(0, "X")], [2, 3, 4, 5, 6, 7], anchor=(1,)
    ),
    "ising": lambda: dc.ising_oracle(10, 1.0, 0.5),
}


@pytest.mark.parametrize("run", GIBBS_RUNS)
def test_gibbs_path_writes_no_full_dimension_matrix(run):
    # a 10-site H, rho or embedded observable alone is a 1024^2 complex128 matrix
    dense = 1024**2 * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        GIBBS_RUNS[run]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense


def test_decay_sweep_solves_the_full_spectrum_once(chain10, monkeypatch):
    spec = dataclasses.replace(chain10)  # same Hamiltonian, empty spectrum memo
    solves = count_sector_sums(monkeypatch)
    fits = [
        dc.decay_sweep(spec, beta, [(0, "X")], [(0, "X")], [2, 3], anchor=(1,), strict=False)
        for beta in (5.0, 50.0)
    ]
    assert solves.count(spec.sites) == 1
    assert fits[0].points != fits[1].points


def test_observable_from_template(chain6):
    O = observable_from_template([(0, "Z")], (2,), chain6)
    assert O.region == Region([(2,)])
    assert np.allclose(O.matrix, np.diag([1.0, -1.0]))
    O2 = observable_from_template([(0, "Z"), (1, "X")], (2,), chain6)
    assert O2.region == Region([(2,), (3,)])
    O3 = observable_from_template([(0, "Z")], (2,), chain6, shift=3)
    assert O3.region == Region([(5,)])
    with pytest.raises(ValueError):
        observable_from_template([(0, "Z")], (5,), chain6, shift=3)


def test_observable_from_template_reads_the_json_form(chain6):
    # lists as JSON gives them: [offset, name] pairs, anchors and offsets as
    # an integer or a list of integers
    O = observable_from_template([[0, "Z"], [[1], "X"]], [2], chain6)
    assert O.region == Region([(2,), (3,)])
    ref = observable_from_template([(0, "Z"), (1, "X")], (2,), chain6)
    assert np.array_equal(O.matrix, ref.matrix)


@pytest.mark.parametrize(
    "template, anchor, refusal",
    [
        ([[0, "Q"]], 2, "unknown operator name 'Q'"),
        ([[0, ["X"]]], 2, "unknown operator name ['X']"),
        ([], 2, "nonempty list of [offset, name] pairs"),
        (None, 2, "nonempty list of [offset, name] pairs"),
        ([5], 2, "[offset, name] pairs, got 5"),
        ([[0, "Z", 1]], 2, "[offset, name] pairs, got [0, 'Z', 1]"),
        ([[True, "Z"]], 2, "bad offset True"),
        ([[0.5, "Z"]], 2, "bad offset 0.5"),
        ([[[1.5], "Z"]], 2, "bad offset [1.5]"),
        ([[0, "Z"]], True, "bad anchor True"),
        ([[0, "Z"]], [2.5], "bad anchor [2.5]"),
        ([[0, "Z"]], "2", "bad anchor '2'"),
        ([[[0, 1], "Z"]], 2, "offset (0, 1) has 2 coordinates; the anchor (2,) has 1"),
    ],
    ids=["name", "name-list", "empty", "none", "entry", "entry-long", "offset-bool",
         "offset-fraction", "offset-coordinate-fraction", "anchor-bool", "anchor-fraction",
         "anchor-string", "offset-too-long"],
)
def test_observable_from_template_refuses_by_name(chain6, template, anchor, refusal):
    # every refusal is a ValueError (an unknown name was a KeyError), and a
    # bool or a fraction is not truncated to a coordinate
    with pytest.raises(ValueError, match=re.escape(refusal)):
        observable_from_template(template, anchor, chain6)


@pytest.mark.parametrize(
    "distances, refusal",
    [
        ([], "nonempty list of integers"),
        (None, "nonempty list of integers"),
        (3, "nonempty list of integers"),
        ([2, 3.5], "bad distance: 3.5 is not an integer"),
        ([2, "3"], "bad distance: '3' is not a number"),
        ([True, 2], "bad distance: True is not a number"),
        ([0, 2], "at least 1"),
        ([3, 2], "strictly increasing"),
    ],
    ids=["empty", "none", "scalar", "fraction", "string", "bool", "zero", "decreasing"],
)
def test_decay_sweep_reads_its_distances(free6, monkeypatch, distances, refusal):
    monkeypatch.setattr(gibbs, "restricted_spectrum", _no_solve)
    with pytest.raises(ValueError, match=re.escape(refusal)):
        dc.decay_sweep(free6, 1.0, [(0, "Z")], [(0, "Z")], distances, anchor=(0,))


def _no_solve(*args):
    raise AssertionError("the spectrum was built")


@pytest.mark.parametrize(
    "B_template", [[[0, "Q"]], [], [[2.5, "X"]], [[20, "X"]]],
    ids=["name", "empty", "offset", "outside"],
)
def test_decay_sweep_places_every_observable_before_it_solves(chain6, monkeypatch, B_template):
    monkeypatch.setattr(gibbs, "restricted_spectrum", _no_solve)
    with pytest.raises(ValueError):
        dc.decay_sweep(chain6, 1.0, [(0, "X")], B_template, [2, 3], anchor=(1,))


def test_decay_sweep_frozen_fit(chain10):
    # literals from the extended-precision reference in
    # derive_decay_reference.py, good to ~1e-12 relative on xi
    fit = dc.decay_sweep(
        chain10, 5.0, [(0, "X")], [(0, "X")], [2, 3, 4, 5, 6, 7], anchor=(1,)
    )
    assert fit.outcome == "ok"
    assert fit.points_used == 6
    assert fit.xi == pytest.approx(0.3205040040634852, rel=1e-9)
    assert fit.slope == pytest.approx(-3.120085825205231, rel=1e-9)
    covs = [abs(c) for _, c in fit.points]
    assert covs == sorted(covs, reverse=True)
    assert covs[0] == pytest.approx(1.0733944636850296e-04, rel=1e-9)


SWEEP_SCRIPT = """
import json
from conftest import chain
import decorr as dc
fit = dc.decay_sweep(
    chain(10), 5.0, [(0, "X")], [(0, "X")], [2, 3, 4, 5, 6, 7], anchor=(1,)
)
print(json.dumps({"points": fit.points, "xi": fit.xi}))
"""


def test_decay_sweep_independent_of_blas_threads():
    # thread counts only take effect when set before numpy is imported, so
    # each count gets a fresh interpreter; floats round-trip exactly via json
    paths = [str(Path(dc.__file__).parents[1]), str(Path(__file__).parent)]
    runs = {}
    for threads in ("1", "2", "4"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
        out = subprocess.run(
            [sys.executable, "-c", SWEEP_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=600,
        ).stdout
        runs[threads] = json.loads(out)
    assert runs["1"] == runs["2"] == runs["4"]


def test_decay_sweep_strictness(free6):
    with pytest.raises(ValueError, match="strictly increasing"):
        dc.decay_sweep(free6, 1.0, [(0, "Z")], [(0, "Z")], [3, 2], anchor=(0,))
    # d = 0 would fit the variance of A as a correlation
    with pytest.raises(ValueError, match="at least 1"):
        dc.decay_sweep(free6, 1.0, [(0, "Z")], [(0, "Z")], [0, 2], anchor=(0,))
    with pytest.raises(DegenerateFitError):
        dc.decay_sweep(free6, 1.0, [(0, "Z")], [(0, "Z")], [2, 3], anchor=(0,))
    fit = dc.decay_sweep(free6, 1.0, [(0, "Z")], [(0, "Z")], [2, 3], anchor=(0,), strict=False)
    assert fit.outcome == "floor"
    assert np.isnan(fit.xi)
    assert fit.points_used == 0
    assert FIT_FLOOR == 1e-13


def test_fit_decay_recovers_exponential():
    points = [(d, 3.0 * np.exp(-d / 0.7)) for d in (1, 2, 4, 5)]
    slope, intercept, xi = fit_decay(points)
    assert slope == pytest.approx(-1 / 0.7, rel=1e-12)
    assert intercept == pytest.approx(np.log(3.0), rel=1e-12)
    assert xi == pytest.approx(0.7, rel=1e-12)


def test_ising_hamiltonian_is_classical():
    H = reference.ising_hamiltonian(4, 1.0)
    off = H - np.diag(np.diag(H))
    assert np.abs(off).max() == 0.0
    # ferromagnetic alignment: all-up configuration sits at -J (n-1)
    assert H[0, 0] == pytest.approx(-3.0)
    # the oracle's spin cap is a size cap, as every cap is
    with pytest.raises(dc.DimensionError, match=r"capped at n = 12 \(got 13\)"):
        dc.ising_oracle(13, 1.0, 0.5)


@pytest.mark.parametrize("J", [0.7, -0.7])
def test_ising_hamiltonian_keeps_the_bits_of_dense_embeds(J):
    # the oracle's bonds summed by sectors and written into zeros, the dense
    # embed per bond and the Kronecker reference all give the same bits
    n = 6
    sites, bonds = gibbs._ising_bonds(n, J)
    zz = np.kron(PAULI_BY_NAME["Z"], PAULI_BY_NAME["Z"])
    embeds = np.zeros((2**n, 2**n), dtype=complex)
    for k in range(n - 1):
        embeds -= J * embed(zz, Region([(k,), (k + 1,)]), sites, 2).matrix
    ref = reference.ising_hamiltonian(n, J)
    (stacks,) = algebra._sector_sums([algebra._place(bonds)], sites, 2, complex)
    assert algebra._scatter_blocks(2**n, complex, stacks).tobytes() == ref.tobytes()
    assert embeds.tobytes() == ref.tobytes()


@pytest.mark.parametrize("i,j", [(0, 1), (2, 5), (0, 7)])
def test_ising_oracle_matches_closed_form(i, j):
    n, J, beta = 8, 1.0, 0.7
    got = dc.ising_oracle(n, J, beta)[i, j]
    assert got == pytest.approx(dc.ising_exact_covariance(J, beta, i, j), rel=1e-12)
    assert dc.ising_exact_covariance(J, beta, i, j) == pytest.approx(
        np.tanh(beta * J) ** (j - i), rel=1e-14
    )


@pytest.mark.parametrize("J", [1.0, -0.7])
def test_ising_oracle_solves_its_hamiltonian_unchecked(J, monkeypatch):
    # the oracle's H is exactly Hermitian; skipping the check keeps rho's bits
    n, beta = 8, 0.5
    checks, states = [], []
    original_check, original_state = algebra._require_hermitian, gibbs._state_from_blocks
    monkeypatch.setattr(
        algebra, "_require_hermitian", lambda m: checks.append(m) or original_check(m)
    )
    monkeypatch.setattr(
        gibbs, "_state_from_blocks", lambda *a: states.append(original_state(*a)) or states[-1]
    )
    cov = dc.ising_oracle(n, J, beta)
    assert checks == [] and len(states) == 1
    sites = Region((i,) for i in range(n))
    ref = dc.gibbs_state(GlobalOperator(sites, 2, reference.ising_hamiltonian(n, J)), beta)
    assert len(checks) == 1
    assert states[0].rho.matrix.tobytes() == ref.rho.matrix.tobytes()
    assert states[0].logZ == ref.logZ
    Z = [GlobalOperator(Region([(i,)]), 2, PAULI_BY_NAME["Z"]) for i in range(n)]
    assert cov == {
        (i, j): float(dc.covariance(ref, Z[i], Z[j]).real)
        for i in range(n)
        for j in range(i + 1, n)
    }


def test_the_references_import_no_decorr():
    # a reference that reached into decorr would share the faults it checks;
    # decorr is importable in the child, so an import of it would show
    script = (
        "import sys, reference; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'decorr'))"
    )
    paths = [str(Path(dc.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    ).stdout
    assert out == "[]\n"


def test_ising_exact_xi():
    beta, J = 0.5, 1.0
    assert dc.ising_exact_xi(J, beta) == pytest.approx(
        -1.0 / np.log(np.tanh(beta * J)), rel=1e-14
    )
    # near tanh = 1 the log1p form keeps its digits (50-digit mpmath value);
    # -1/ln tanh(5) read 11013.232889833915, 2.5e-13 off
    assert dc.ising_exact_xi(1.0, 5.0) == pytest.approx(11013.232889836703, rel=1e-15)


def test_spectral_bracketing(chain6):
    # certified form bound squeezes every eigenvalue between the scaled
    # free levels: (1-a) E0_j <= E_j <= (1+a) E0_j
    H0, _, H = dc.build_restricted(chain6, chain6.sites)
    w0 = np.linalg.eigvalsh(H0.matrix)
    w = np.linalg.eigvalsh(H.matrix)
    a = chain6.a
    assert np.all(w >= (1 - a) * w0 - 1e-9)
    assert np.all(w <= (1 + a) * w0 + 1e-9)


def test_bound_certificate_free():
    free = chain(4, lam=0.0, J12=0.0, J3=0.0)
    cert = bound_certificate(free)
    assert cert.p == 0.0
    assert cert.decay_base == 0.0
    assert cert.prefactor_exponent == np.inf
    assert cert.active


def test_bound_certificate_formulas(chain5):
    cert = bound_certificate(chain5)
    p = 2 * chain5.a * 2 ** 3
    assert cert.p == pytest.approx(p, rel=1e-12)
    assert cert.decay_base == pytest.approx(
        2 * p * (1 + p) * counting_constant(1, 1), rel=1e-12
    )
    assert cert.prefactor_exponent == pytest.approx(
        np.log(0.5 + 0.5 / p), rel=1e-12
    )
    assert not cert.active  # desk-scale couplings sit far outside the regime
