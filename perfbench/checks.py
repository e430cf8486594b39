"""Correctness references and the checks that compare a pass against them.

The references are computed outside the timed region and do not depend on
the seed in how they are obtained:

* geometry-only counts: 40 swap event pairs on chain6 with X = {0} and
  Y = {5}; 16 class pairs for S0 = {2, 3, 4} on chain10 (the reduced
  lattice keeps interior {7, 8}, so 4 add-ons per side); 41 connected sets
  with |S| <= 3 on chain8; the criterion-09 table of connected-set counts;
* the Ising closed forms Cov(Z_i, Z_j) = tanh(beta J)^|i-j| and
  xi = -1 / ln tanh(beta J);
* the partition-ratio bound chain Z_rest Z0_cl / Z_L <= C^|S|, C = 8;
* the beta = 5 decay covariances from an independent solve written here:
  H is assembled by index arithmetic from the spec's local terms, split
  into particle-number sectors and diagonalized sector by sector, and
  Cov(X_a, X_b) is read off as the hopping matrix element between states
  that differ at a and b (<X> vanishes exactly by number conservation).

A covariance is compared with a tolerance scaled to the largest reference
covariance of the sweep, |c - c_ref| <= DECAY_TOL * max |c_ref|: the dense
path's error is absolute, so the smallest points would otherwise need
a tolerance loose enough to hide errors at the largest.
"""

from __future__ import annotations

import math

import numpy as np

import workloads as wl

IDENTITY_TOL = 1e-10  # the acceptance gate's tolerance on identity residuals
DECAY_TOL = 1e-12  # relative to the largest beta = 5 covariance
ISING_COV_TOL = 1e-10
ISING_XI_TOL = 1e-6
RATIO_SLACK = 1e-9
RATIO_C = 2 ** 3  # q^((2R+1)^D) for the q = 2, R = 1 chain
MARGIN_CAP = 16.0  # decades reported for an exact (zero) residual

SWAP_PAIRS = 40
CLASS_PAIRS = 16
RATIO_SETS = 41
COUNT_TABLE = {
    (1, 1): [1, 4, 12, 32],
    (1, 2): [1, 8, 48, 256],
    (2, 1): [1, 12, 138, 1564],
    (2, 2): [1, 40, 1512, 56096],
}
BOUND_CHECKS = {"form_bound_certificate", "term_norm_bound", "partition_ratio_bound"}


def check(name, ok, kind="exact", residual=None, tol=None) -> dict:
    return {"name": name, "ok": bool(ok), "kind": kind, "residual": residual, "tol": tol}


def residual_check(name, residual, tol) -> dict:
    residual = float(residual)
    return check(name, residual <= tol, "residual", residual, tol)


def precision_margin(checks: list[dict]) -> float:
    """min over residual checks of log10(tol / residual); zeros give MARGIN_CAP."""
    margins = [
        MARGIN_CAP if c["residual"] == 0 else min(MARGIN_CAP, math.log10(c["tol"] / c["residual"]))
        for c in checks
        if c["kind"] == "residual"
    ]
    return min(margins, default=MARGIN_CAP)


# ---------------------------------------------------------------------------
# the independent sector solve
# ---------------------------------------------------------------------------

def _assemble(spec) -> np.ndarray:
    """Dense H from the spec's on-site and interaction terms, by bit indexing.

    Site i is bit n-1-i of the basis index (first site most significant),
    the convention of decorr.algebra.
    """
    sites = list(spec.sites)
    n = len(sites)
    pos = {s: n - 1 - i for i, s in enumerate(sites)}
    states = np.arange(2**n)
    H = np.zeros((2**n, 2**n), dtype=complex)
    terms = [([z], h) for z, h in spec.onsite.items()]
    terms += [(list(t.support), t.matrix) for t in spec.interactions.values()]
    for support, M in terms:
        shifts = [pos[s] for s in support]
        k = len(shifts)
        local = sum(((states >> sh) & 1) << (k - 1 - j) for j, sh in enumerate(shifts))
        cleared = states & ~sum(1 << sh for sh in shifts)
        for l_out, l_in in zip(*np.nonzero(M)):
            cols = np.nonzero(local == l_in)[0]
            rows = cleared[cols] | sum(((int(l_out) >> (k - 1 - j)) & 1) << sh
                                       for j, sh in enumerate(shifts))
            H[rows, cols] += M[l_out, l_in]
    return H


def sector_covariances(spec, beta: float, anchor: int, distances) -> dict[int, float]:
    """|Cov(X_anchor, X_anchor+d)| by particle-number sectors."""
    n = len(spec.sites)
    H = _assemble(spec)
    states = np.arange(2**n)
    number = np.array([bin(s).count("1") for s in states])
    if np.any(H[number[:, None] != number[None, :]] != 0):
        raise ValueError("H does not conserve particle number")
    sectors = []
    for N in range(n + 1):
        idx = np.nonzero(number == N)[0]
        w, V = np.linalg.eigh(H[np.ix_(idx, idx)])
        sectors.append((idx, w, V))
    e0 = min(w[0] for _, w, _ in sectors)
    Z = sum(np.exp(-beta * (w - e0)).sum() for _, w, _ in sectors)
    a_bit = 1 << (n - 1 - anchor)
    out = {}
    for d in distances:
        b_bit = 1 << (n - 1 - (anchor + d))
        total = 0.0
        for idx, w, V in sectors:
            rho = (V * (np.exp(-beta * (w - e0)) / Z)) @ V.conj().T
            where = {s: i for i, s in enumerate(idx)}
            for i, s in enumerate(idx):
                if bool(s & a_bit) != bool(s & b_bit):
                    total += rho[where[s ^ a_bit ^ b_bit], i].real
        out[d] = abs(total)
    return out


def references(workload: str, seed: int) -> dict:
    if workload == "thermal-dense":
        spec = wl.chain(10, seed)
        ref = sector_covariances(spec, wl.DECAY_BETAS[0], 1, wl.DECAY_DISTANCES)
        return {"decay": ref}
    return {}


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------

def _expansion(out: dict, refs: dict) -> list[dict]:
    checks = [check("verify.exit", out["verify_exit"] == 0)]
    for c in out["verify_checks"]:
        name = f"verify.{c['name']}[{c['instance']}]"
        if c["name"] in BOUND_CHECKS:
            checks.append(check(name, c["pass"] and c["residual"] <= c["tolerance"], "bound",
                                c["residual"], c["tolerance"]))
        else:
            rc = residual_check(name, c["residual"], c["tolerance"])
            rc["ok"] = rc["ok"] and c["pass"]
            checks.append(rc)
    checks += [residual_check(f"resummation.chain5[beta={b:g}]", r, IDENTITY_TOL)
               for b, r in out["resummation"]]
    checks += [residual_check(f"factorization.chain9[beta={b:g}]", r, IDENTITY_TOL)
               for b, r in out["factorization"]]
    swap, sc = out["swap"], out["supercluster"]
    checks += [
        residual_check("swap.sums", swap["rel_residual"], IDENTITY_TOL),
        residual_check("swap.per_pair", swap["per_pair_max"], IDENTITY_TOL),
        check("swap.event_pairs", swap["pairs"] == SWAP_PAIRS),
        residual_check("supercluster.weight", sc["weight"], IDENTITY_TOL),
        residual_check("supercluster.observable", sc["observable"], IDENTITY_TOL),
        check("supercluster.class_pairs", sc["pairs"] == CLASS_PAIRS),
        check("supercluster.non_vacuous", sc["ratio"] != 1.0),
    ]
    return checks


def _thermal(out: dict, refs: dict) -> list[dict]:
    checks = [check("decay.exit", out["decay_exit"] == 0)]
    ref = refs["decay"]
    got = {d: c for b, d, c in out["decay"] if b == wl.DECAY_BETAS[0]}
    scale = max(ref.values())
    worst = max(abs(got.get(d, math.inf) - c) for d, c in ref.items())
    checks.append(residual_check("decay.beta5_vs_sectors", worst / scale, DECAY_TOL))
    checks.append(check("ising.exit", out["ising_exit"] == 0))
    J, beta = wl.ISING["J"], wl.ISING["beta"]
    n = wl.ISING["n"]
    cov = {(i, j): c for i, j, c in out["ising_cov"]}
    worst = max(abs(cov.get((i, j), math.inf) - math.tanh(beta * J) ** (j - i))
                for i in range(n) for j in range(i + 1, n))
    checks.append(residual_check("ising.cov_vs_closed_form", worst, ISING_COV_TOL))
    xi_exact = -1.0 / math.log(math.tanh(beta * J))
    checks.append(residual_check("ising.xi_vs_closed_form",
                                 abs(out["ising_xi"] - xi_exact) / xi_exact, ISING_XI_TOL))
    rows = out["partition_ratio"]
    checks.append(check("partition_ratio.sets", len(rows) == RATIO_SETS * len(wl.RATIO_BETAS)))
    worst = max((r["ratio"] / RATIO_C ** len(r["S"]) for r in rows), default=math.inf)
    checks.append(check("partition_ratio.bound_chain",
                        all(r["chain_ok"] for r in rows) and worst <= 1 + RATIO_SLACK,
                        "bound", worst, 1.0))
    return checks


def _counting(out: dict, refs: dict) -> list[dict]:
    checks = [check("count.exit", out["count_exit"] == 0)]
    for D, R, k, enumerated, brute in out["count_rows"] + out["count_cases"]:
        want = COUNT_TABLE[(D, R)][k - 1]
        checks.append(check(f"count[D={D},R={R},k={k}]", enumerated == brute == want))
    cases = {(D, R, k) for D, R, k, _, _ in out["count_rows"] + out["count_cases"]}
    checks.append(check("count.cases", len(cases) == 4 * len(COUNT_TABLE)))
    return checks


CHECKS = {"expansion-weights": _expansion, "thermal-dense": _thermal, "counting": _counting}


def check_pass(workload: str, outputs: dict, refs: dict) -> list[dict]:
    """Every check of one pass; a malformed output is one failed check."""
    try:
        return CHECKS[workload](outputs, refs)
    except (KeyError, TypeError, ValueError) as exc:
        return [check(f"outputs.well_formed ({type(exc).__name__}: {exc})", False)]
