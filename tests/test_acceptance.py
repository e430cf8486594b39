"""Acceptance gate: ten end-to-end checks of the expansion machinery.

Each test prints one PASS/FAIL line with the measured residuals so the gate
can be read off a plain ``pytest -v`` run.  The criteria are ordered from the
basic resummation identity to the qualitative uniform-correlation-length
property; the wall-clock caps keep the whole gate honest as a desk-scale
verification (everything runs dense, nothing is precomputed).
"""

import itertools
import time

import numpy as np
import pytest

import decorr as dc
from decorr._kernels import brute_force_connected_count, build_universe
from decorr.gibbs import FIT_FLOOR
from decorr.lattice import LatticeGeometry, Region, r_connected_set
import reference
from conftest import chain, pauli_at

MODULE_T0 = time.monotonic()

BETAS_IDENTITY = (0.5, 2.0, 10.0)
BETAS_FACTOR = (0.5, 5.0, 50.0)


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def chain5():
    return chain(5)


@pytest.fixture(scope="module")
def chain6():
    return chain(6)


@pytest.fixture(scope="module")
def chain8():
    return chain(8)


@pytest.fixture(scope="module")
def chain9():
    return chain(9)


@pytest.fixture(scope="module")
def chain10():
    return chain(10)


def test_criterion_01_resummation_identity(chain5):
    t0 = time.monotonic()
    residuals = {b: dc.verify_resummation(chain5, b) for b in BETAS_IDENTITY}
    elapsed = time.monotonic() - t0
    worst = max(residuals.values())
    ok = worst <= 1e-10 and elapsed <= 10.0
    report(
        "criterion-01 resummation-identity",
        ok,
        f"worst residual={worst:.3e} (tol 1e-10) over beta={list(residuals)} "
        f"in {elapsed:.2f}s (cap 10s)",
    )


def test_criterion_02_term_norm_bound(chain5):
    t0 = time.monotonic()
    worst_margin = -np.inf
    n_rows = 0
    for beta in BETAS_IDENTITY:
        for I, norm, bound in dc.term_norm_scan(chain5, beta):
            worst_margin = max(worst_margin, norm - bound)
            n_rows += 1
    elapsed = time.monotonic() - t0
    ok = n_rows == 21 and worst_margin <= 1e-12 and elapsed <= 30.0
    report(
        "criterion-02 term-norm-bound",
        ok,
        f"{n_rows} terms, worst norm-bound margin={worst_margin:.3e} "
        f"(tol 1e-12) in {elapsed:.2f}s (cap 30s)",
    )


def test_criterion_03_factorization(chain9):
    A = pauli_at(0, "Z")
    B = pauli_at(8, "Z")
    residuals = {}
    for beta in BETAS_FACTOR:
        chk = dc.verify_factorization(
            Region([(1,)]), A, Region([(7,)]), B, chain9, beta
        )
        residuals[beta] = chk.rel_residual
    worst = max(residuals.values())
    ok = worst <= 1e-10
    report(
        "criterion-03 weight-factorization",
        ok,
        f"worst rel residual={worst:.3e} (tol 1e-10) over beta={list(residuals)}",
    )


def test_criterion_04_swap_identity(chain6):
    t0 = time.monotonic()
    chk = dc.verify_swap_identity(chain6, pauli_at(0, "Z"), pauli_at(5, "Z"), 2.0)
    elapsed = time.monotonic() - t0
    ok = (
        chk.rel_residual <= 1e-10
        and chk.per_pair_max <= 1e-10
        and elapsed <= 60.0
    )
    report(
        "criterion-04 swap-identity",
        ok,
        f"sum residual={chk.rel_residual:.3e}, per-pair max={chk.per_pair_max:.3e} "
        f"(tol 1e-10) over {chk.n_event_pairs} event pairs in {elapsed:.2f}s (cap 60s)",
    )


def test_criterion_05_supercluster_resummation(chain8, chain10):
    # on chain8 the reduced lattice has an empty interior, so the class would
    # be the single pair (I0, J0), a tautology the check refuses; chain10
    # leaves room for 16 pairs
    I0, A, B = Region([(3,)]), pauli_at(2, "Z"), pauli_at(4, "Z")
    with pytest.raises(dc.NotApplicable, match="single pair") as refused:
        dc.verify_supercluster_resummation(I0, Region(), A, B, chain8, 2.0)
    chk = dc.verify_supercluster_resummation(I0, Region(), A, B, chain10, 2.0)
    ok = chk.n_class_pairs > 1
    ok &= chk.rel_residual_weight <= 1e-10 and chk.rel_residual_observable <= 1e-10
    report(
        "criterion-05 supercluster-resummation",
        ok,
        f"chain8: refused ({refused.value}); chain10: weight "
        f"residual={chk.rel_residual_weight:.3e}, observable "
        f"residual={chk.rel_residual_observable:.3e} (tol 1e-10), "
        f"{chk.n_class_pairs} class pairs, ratio={chk.ratio:.6f}",
    )


def test_criterion_06_partition_ratio_bound(chain8):
    norm = dc.normalize_nonpositive(chain8)
    sets = []
    for k in (1, 2, 3):
        for comb in itertools.combinations(norm.sites, k):
            S = Region(comb)
            if r_connected_set(S, norm.geometry.R):
                sets.append(S)
    assert len(sets) == 41
    # the ratio bound and every link of the chain that proves it
    links = ("bound_ok", "split_product_le_full", "free_le_power", "interacting_ge_one")
    failed = {link: 0 for link in links}
    worst = 0.0
    for beta in (1.0, 10.0):
        for S in sets:
            out = dc.partition_ratio(S, norm, beta)
            for link in links:
                failed[link] += not getattr(out, link)
            worst = max(worst, out.ratio / out.bound)
    report(
        "criterion-06 partition-ratio-bound",
        not any(failed.values()),
        f"{len(sets)} connected sets x 2 betas, failures per link {failed}, "
        f"worst ratio/bound={worst:.3f}",
    )


def test_criterion_07_ising_oracle():
    n, J, beta = 10, 1.0, 0.5
    cov = dc.ising_oracle(n, J, beta)
    worst = max(abs(c - dc.ising_exact_covariance(J, beta, i, j)) for (i, j), c in cov.items())
    ds = np.arange(1, n)
    lncov = [np.log(abs(cov[0, int(d)])) for d in ds]
    slope = np.polyfit(ds, lncov, 1)[0]
    xi = -1.0 / slope
    xi_exact = dc.ising_exact_xi(J, beta)
    rel = abs(xi - xi_exact) / xi_exact
    ok = worst <= 1e-10 and rel <= 1e-6
    report(
        "criterion-07 ising-oracle",
        ok,
        f"max covariance deviation={worst:.3e} (tol 1e-10), "
        f"xi={xi:.10f} vs exact={xi_exact:.10f}, rel={rel:.3e} (tol 1e-6)",
    )


def test_criterion_08_mbdos(chain6):
    free = chain(6, lam=0.0, J12=0.0, J3=0.0, seed=0)
    Hf = dc.build_restricted(free, free.sites)[2]
    counts = reference.level_counts(Hf.matrix)
    binomial_ok = counts == [1, 6, 15, 20, 15, 6, 1]

    H0, _, H = dc.build_restricted(chain6, chain6.sites)
    w0 = np.linalg.eigvalsh(H0.matrix)
    w = np.linalg.eigvalsh(H.matrix)
    a = chain6.a
    slack = 1e-9
    bracket_ok = bool(
        np.all(w >= (1 - a) * w0 - slack) and np.all(w <= (1 + a) * w0 + slack)
    )
    lo = float(np.min(w - (1 - a) * w0))
    hi = float(np.min((1 + a) * w0 - w))
    ok = binomial_ok and bracket_ok
    report(
        "criterion-08 mbdos",
        ok,
        f"free histogram counts={counts}, perturbed levels bracketed by "
        f"(1+-a)E0 with margins [{lo:.2e}, {hi:.2e}] (slack 1e-9)",
    )


def test_criterion_09_counting():
    t0 = time.monotonic()
    all_ok = True
    table = {}
    for D, R in itertools.product((1, 2), (1, 2)):
        pts = build_universe(D, R, 4)
        geo = LatticeGeometry(D, R, Region(tuple(p) for p in pts))
        origin = (0,) * D
        for k in (1, 2, 3, 4):
            grown = dc.count_connected_sets(origin, k, geo)
            brute = brute_force_connected_count(D, R, k)
            bound = dc.counting_bound(k, D, R, simplified=True)
            table[(D, R, k)] = grown
            all_ok &= grown == brute and grown <= bound
    elapsed = time.monotonic() - t0
    known = {
        (1, 1): [1, 4, 12, 32],
        (1, 2): [1, 8, 48, 256],
        (2, 1): [1, 12, 138, 1564],
        (2, 2): [1, 40, 1512, 56096],
    }
    for (D, R), vals in known.items():
        for k, v in enumerate(vals, start=1):
            all_ok &= table[(D, R, k)] == v
    report(
        "criterion-09 counting",
        all_ok,
        f"16 (D,R,k) cases, enumerated == brute force, all within "
        f"(2e(2R+1)^D)^(k-1), D2R2k4={table[(2, 2, 4)]} in {elapsed:.2f}s",
    )


def test_criterion_10_uniform_correlation_length(chain10):
    fits = {}
    for beta in (5.0, 50.0):
        fits[beta] = dc.decay_sweep(
            chain10, beta, [(0, "X")], [(0, "X")], [2, 3, 4, 5, 6, 7],
            anchor=(1,), strict=False,
        )
    xi5, xi50 = fits[5.0].xi, fits[50.0].xi
    finite = np.isfinite(xi5) and np.isfinite(xi50)
    ratio = xi50 / xi5 if finite else np.nan
    ok = bool(finite and 0.5 <= ratio <= 2.0)
    # the message states why the criterion fails; it does not enter `ok`
    d50, c50 = (np.array(v, dtype=float) for v in zip(*fits[50.0].points))
    xi50_all = -1.0 / np.polyfit(d50, np.log(c50), 1)[0]
    cert = dc.bound_certificate(chain10)
    report(
        "criterion-10 uniform-correlation-length",
        ok,
        f"xi(5)={xi5!r} ({fits[5.0].points_used}/6 points), "
        f"xi(50)={xi50!r} ({fits[50.0].points_used}/6 points): the beta=50 "
        f"covariances are measurable, between {c50.max():.1e} and "
        f"{c50.min():.1e} (the dense route, 1 and 2 BLAS threads and an "
        f"extended-precision reference agree to ~1e-13 relative), but the "
        f"absolute fit floor {FIT_FLOOR:g} discards all of them; fitted "
        f"anyway they give xi(50)={xi50_all:.4f}, ratio "
        f"{xi50_all / xi5:.2f}, still outside the required [0.5, 2.0]; the "
        f"proved bound does not cover this instance "
        f"(decay_base={cert.decay_base:.0f} > 1)",
    )


def test_total_suite_runtime():
    elapsed = time.monotonic() - MODULE_T0
    report(
        "acceptance-suite runtime",
        elapsed < 300.0,
        f"{elapsed:.1f}s of the 300s budget",
    )
