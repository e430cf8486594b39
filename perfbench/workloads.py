"""The three workloads.  One call of ``run`` is one timed pass.

Each workload drives decorr from outside, through its public functions and
``decorr.cli.main``, and returns the raw outputs the parent process checks
against its references.  ``setup`` is the part timed as ``setup_s``:
everything a pass builds before the work starts.  ``step(name)`` is a
context manager around each step of a pass; the traced run makes it a span.

* expansion-weights: thousands of tiny 80-bit Jacobi solves inside
  ``herm_exp`` and the 2^|I| alternating sums of ``yarotsky_term``; little
  reuse, no matrix above 64x64.  ``decorr verify`` runs the README's n = 6
  config, and the factorization (chain9) and swap (chain6) identities run
  on the same acceptance-gate instance (seed 7): on other disorder seeds
  the program's residuals there exceed the gate's 1e-10 -- the swap
  per-pair residual at beta = 2 on seeds 9, 13, 21 and 40 of 1-60 (up to
  7.6e-9), the beta = 50 factorization on 10 of seeds 1-120 (relative
  residual ~1) -- an open precision defect of the program, not of a pass.
  The resummation (chain5) and supercluster (chain10) identities run on
  the pass's seed; their residuals stay below 3e-13 on seeds 0-149.
* thermal-dense: a few large double-precision ``eigh`` solves (256-1024),
  ``embed`` into 2^10 space and trace contractions, with heavy reuse of the
  same spectra across betas and sets.
* counting: pure-Python combinatorics with no linear algebra -- the bypass
  workload on which a spectral change must not move.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path

GATE_SEED = 7  # the disorder seed of the acceptance gate's instances
XXZ = {"lambda": 0.3, "J12": 0.02, "J3": 0.02, "R": 1}
VERIFY_BETAS = [0.5, 2.0]
RESUM_BETAS = (0.5, 2.0, 10.0)
FACTOR_BETAS = (0.5, 5.0, 50.0)
SWAP_BETA = 2.0
CLASS_BETA = 2.0
DECAY_BETAS = [5.0, 50.0]
DECAY_DISTANCES = [2, 3, 4, 5, 6, 7]
ISING = {"n": 10, "J": 1.0, "beta": 0.5}
RATIO_BETAS = (1.0, 10.0)
COUNT_CLI = {"D": 2, "R": 2, "k_max": 4}
COUNT_CASES = ((1, 1), (1, 2), (2, 1))
COUNT_K = (1, 2, 3, 4)


def chain(n: int, seed: int):
    import decorr as dc

    return dc.xxz_spec(n, lam=XXZ["lambda"], seed=seed, J12=XXZ["J12"], J3=XXZ["J3"], R=XXZ["R"])


def pauli(site: int, name: str):
    from decorr.algebra import GlobalOperator
    from decorr.lattice import Region
    from decorr.model import PAULI_BY_NAME

    return GlobalOperator(Region([(site,)]), 2, PAULI_BY_NAME[name].astype(complex))


def _cli(command: str, cfg: dict, workdir: Path) -> int:
    from decorr.cli import main

    out = workdir / command
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return main([command, "--config", str(cfg_path), "--out", str(out)])


def _model_block(n: int, seed: int) -> dict:
    return {"n": n, "R": XXZ["R"], "lambda": XXZ["lambda"], "seed": seed,
            "J12": XXZ["J12"], "J3": XXZ["J3"]}


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# expansion-weights
# ---------------------------------------------------------------------------

def setup_expansion(seed: int) -> dict:
    """chain5 and chain10 on the pass's seed; chain6 and chain9 on the gate's."""
    return {5: chain(5, seed), 6: chain(6, GATE_SEED), 9: chain(9, GATE_SEED), 10: chain(10, seed)}


def run_expansion(specs: dict, seed: int, workdir: Path, step) -> dict:
    import decorr as dc
    from decorr.lattice import Region

    out = {}
    with step("verify"):
        cfg = {"model": _model_block(6, GATE_SEED), "betas": VERIFY_BETAS}
        out["verify_exit"] = _cli("verify", cfg, workdir)
        report = json.loads((workdir / "verify" / "verify_report.json").read_text())
        out["verify_checks"] = report["checks"]
    with step("resummation"):
        out["resummation"] = [
            [b, dc.verify_resummation(specs[5], b)] for b in RESUM_BETAS
        ]
    with step("factorization"):
        out["factorization"] = [
            [b, dc.verify_factorization(
                Region([(1,)]), pauli(0, "Z"), Region([(7,)]), pauli(8, "Z"), specs[9], b
            ).rel_residual]
            for b in FACTOR_BETAS
        ]
    with step("swap"):
        chk = dc.verify_swap_identity(specs[6], pauli(0, "Z"), pauli(5, "Z"), SWAP_BETA)
        out["swap"] = {"rel_residual": chk.rel_residual, "per_pair_max": chk.per_pair_max,
                       "pairs": chk.n_event_pairs}
    with step("supercluster"):
        chk = dc.verify_supercluster_resummation(
            Region([(3,)]), Region(), pauli(2, "Z"), pauli(4, "Z"), specs[10], CLASS_BETA
        )
        out["supercluster"] = {"weight": chk.rel_residual_weight,
                               "observable": chk.rel_residual_observable,
                               "pairs": chk.n_class_pairs, "ratio": chk.ratio}
    return out


# ---------------------------------------------------------------------------
# thermal-dense
# ---------------------------------------------------------------------------

def connected_sets(n: int, R: int, max_size: int) -> list[tuple[int, ...]]:
    """R-connected subsets of the chain 0..n-1 up to max_size (gaps <= 2R)."""
    return [
        S
        for k in range(1, max_size + 1)
        for S in itertools.combinations(range(n), k)
        if all(b - a <= 2 * R for a, b in zip(S, S[1:]))
    ]


def setup_thermal(seed: int) -> dict:
    import decorr as dc

    return {"chain8_normalized": dc.normalize_nonpositive(chain(8, seed))}


def run_thermal(specs: dict, seed: int, workdir: Path, step) -> dict:
    import decorr as dc
    from decorr.lattice import Region

    out = {}
    with step("decay"):
        cfg = {"model": _model_block(10, seed), "betas": DECAY_BETAS,
               "observables": {"A": [[0, "X"]], "B": [[0, "X"]], "anchor": 1},
               "distances": DECAY_DISTANCES}
        out["decay_exit"] = _cli("decay", cfg, workdir)
        out["decay"] = [[float(r["beta"]), int(r["distance"]), float(r["abs_cov"])]
                        for r in _read_csv(workdir / "decay" / "decay.csv")]
        report = json.loads((workdir / "decay" / "decay_report.json").read_text())
        out["decay_xi"] = [[f["beta"], f["xi"]] for f in report["fits"]]
    with step("ising"):
        cfg = {"n": ISING["n"], "J": ISING["J"], "betas": [ISING["beta"]]}
        out["ising_exit"] = _cli("ising", cfg, workdir)
        out["ising_cov"] = [[int(r["i"]), int(r["j"]), float(r["measured"])]
                            for r in _read_csv(workdir / "ising" / "ising_cov.csv")]
        report = json.loads((workdir / "ising" / "ising_report.json").read_text())
        out["ising_xi"] = report["rows"][0]["xi"]
    with step("partition_ratio"):
        spec = specs["chain8_normalized"]
        rows = []
        for beta in RATIO_BETAS:
            for S in connected_sets(8, spec.geometry.R, 3):
                pr = dc.partition_ratio(Region((s,) for s in S), spec, beta)
                rows.append({"beta": beta, "S": list(S), "ratio": pr.ratio,
                             "chain_ok": bool(pr.bound_ok and pr.split_product_le_full
                                              and pr.free_le_power and pr.interacting_ge_one)})
        out["partition_ratio"] = rows
    return out


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def setup_counting(seed: int) -> dict:
    from decorr._kernels import build_universe
    from decorr.lattice import LatticeGeometry, Region

    return {
        (D, R): LatticeGeometry(D, R, Region(tuple(p) for p in build_universe(D, R, max(COUNT_K))))
        for D, R in COUNT_CASES
    }


def run_counting(geos: dict, seed: int, workdir: Path, step) -> dict:
    import decorr as dc
    from decorr._kernels import brute_force_connected_count

    out = {}
    with step("count"):
        out["count_exit"] = _cli("count", dict(COUNT_CLI), workdir)
        report = json.loads((workdir / "count" / "count_report.json").read_text())
        out["count_rows"] = [[COUNT_CLI["D"], COUNT_CLI["R"], r["k"], r["enumerated"],
                              r["brute_force"]] for r in report["rows"]]
    with step("enumerate_vs_brute"):
        rows = []
        for (D, R), geo in geos.items():
            for k in COUNT_K:
                rows.append([D, R, k, dc.count_connected_sets((0,) * D, k, geo),
                             brute_force_connected_count(D, R, k)])
        out["count_cases"] = rows
    return out


WORKLOADS = {
    "expansion-weights": (setup_expansion, run_expansion),
    "thermal-dense": (setup_thermal, run_thermal),
    "counting": (setup_counting, run_counting),
}
SEEDED = {"expansion-weights", "thermal-dense"}  # counting has no randomness
