"""Command-line driver: verify / decay / count / ising / certify.

Every command takes a JSON config (--config), writes deterministic reports
into an output directory (--out, falling back to the config's output_dir,
then the working directory), and communicates through its exit code:

    0  all requested checks passed
    1  a check failed (identity residual over tolerance, bound violated, ...)
    2  config malformed, inconsistent, or holding a key the command does not read
    3  a size cap would be exceeded

Reports are JSON with sorted keys and no timestamps, so identical configs
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import expansion, gibbs, lattice, model
from ._kernels import MAX_K, brute_force_connected_count, build_universe, universe_size
from .algebra import DimensionError, GlobalOperator
from .lattice import LatticeGeometry, Region, _integer, _real, r_connected_set
from .model import CertificationError, HamiltonianSpec

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_CAP = 3

# one fixed tolerance per check, so a PASS means the same on every config
IDENTITY_TOL = 1e-10  # relative residual of an expansion identity
NORM_SLACK = 1e-12  # relative: ||T_I|| may reach (1 + NORM_SLACK) (2a)^|I|
COVARIANCE_TOL = 1e-10  # Ising oracle covariance against the closed form
XI_REL_TOL = 1e-6  # relative error of the fitted Ising correlation length

# cap on a brute-force count's work at its largest k: m^2 dense adjacency
# entries of its m sites plus C(m-1, k-1) subsets tested; the largest config
# in use, D=2, R=2, k=4, comes to 5,111,289
MAX_COUNT_WORK = 10**7


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _model_spec(cfg: dict) -> HamiltonianSpec:
    block = cfg.get("model")
    if not isinstance(block, dict):
        raise ConfigError("config needs a 'model' object")
    try:
        return model.spec_from_json(block)
    except (CertificationError, DimensionError):
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model block: {exc}") from exc


def _convert(convert, value, what: str):
    """convert(value), reporting a value it rejects as a ConfigError."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} {value!r}: {exc}") from exc


def _betas(cfg: dict) -> list[float]:
    betas = cfg.get("betas")
    if not isinstance(betas, list) or not betas:
        raise ConfigError("config needs a nonempty 'betas' list")
    betas = [_convert(_real, b, "beta") for b in betas]
    if not all(math.isfinite(b) and b > 0 for b in betas):
        raise ConfigError(f"betas must be finite and positive, got {betas!r}")
    return betas


def _refuse_unknown(block: dict, known, where: str):
    """Name each key nothing reads, which would otherwise be silently ignored."""
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ConfigError(f"unknown key {', '.join(map(repr, unknown))} in {where}")


def _write_json(path: Path, payload: dict):
    payload = dict(payload)
    payload["schema"] = SCHEMA_VERSION
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _spin_probe(spec: HamiltonianSpec, site) -> GlobalOperator:
    """2 S_z = diag(q-1, q-3, ..., 1-q) on one site: Pauli Z at q = 2, and defined on every q."""
    z = np.diag(np.arange(spec.q - 1, -spec.q, -2)).astype(complex)
    return GlobalOperator(Region([site]), spec.q, z)


def run_verify(cfg: dict, outdir: Path) -> int:
    spec = _model_spec(cfg)
    betas = _betas(cfg)
    geo = spec.geometry
    inter = spec.interior

    checks: list[dict] = []
    skipped: list[dict] = []

    def add(name, instance, residual, tolerance=IDENTITY_TOL, ok=None):
        checks.append(
            {
                "name": name,
                "instance": instance,
                "residual": float(residual),
                "tolerance": float(tolerance),
                "pass": bool(residual <= tolerance if ok is None else ok),
            }
        )

    add("form_bound_certificate", f"a={spec.a!r}", spec.a, 1.0, 0 <= spec.a < 1)

    # a check refuses an instance outside its hypothesis or over a sweep cap;
    # the refusal's message is the check's SKIP reason
    @contextlib.contextmanager
    def family(name, refusals=(expansion.NotApplicable, DimensionError)):
        try:
            yield
        except refusals as exc:
            skipped.append({"name": name, "reason": str(exc)})

    with family("resummation", expansion.NotApplicable):  # its cap exits 3, as every cap does
        for beta in betas:
            add("resummation", f"beta={beta:g}", expansion.verify_resummation(spec, beta))
    with family("term_norm_bound"):
        rows = expansion.term_norm_scan(spec, betas[0])
        # a zero term meets any bound, a zero bound (a = 0) included
        worst = max(norm / bound if norm else 0.0 for _, norm, bound in rows)
        instance = f"beta={betas[0]:g} sizes<={expansion.TERM_NORM_MAX_SIZE} ({len(rows)} terms)"
        add("term_norm_bound", instance, worst, 1 + NORM_SLACK)

    # structural checks need two well-separated probes; pick lattice extremes
    A, B = _spin_probe(spec, spec.sites[0]), _spin_probe(spec, spec.sites[-1])
    I1, I2 = Region(inter[:1]), Region(inter[-1:])
    with family("factorization"):
        for beta in betas:
            chk = expansion.verify_factorization(I1, A, I2, B, spec, beta)
            add("factorization", f"I1={list(I1)} I2={list(I2)} beta={beta:g}", chk.rel_residual)
    with family("swap_identity"):
        for beta in betas:
            chk = expansion.verify_swap_identity(spec, A, B, beta)
            add("swap_identity_sums", f"beta={beta:g} pairs={chk.n_event_pairs}", chk.rel_residual)
            add("swap_identity_per_pair", f"beta={beta:g}", chk.per_pair_max)

    with family("supercluster_resummation"):
        if not inter:  # no center to place the probes around
            raise expansion.NotApplicable("lattice interior is empty")
        # probes R from c along the first axis, in c's R-ball and so in the lattice
        c = inter[len(inter) // 2]
        Ax = _spin_probe(spec, (c[0] - geo.R, *c[1:]))
        By = _spin_probe(spec, (c[0] + geo.R, *c[1:]))
        for beta in betas:
            chk = expansion.verify_supercluster_resummation(
                Region([c]), Region(), Ax, By, spec, beta
            )
            instance = f"S0 around {c} beta={beta:g} pairs={chk.n_class_pairs}"
            add("supercluster_resummation_weight", instance, chk.rel_residual_weight)
            add("supercluster_resummation_observable", instance, chk.rel_residual_observable)

    normalized = model.normalize_nonpositive(spec)
    ratio_rows = []
    for k in (1, 2):
        for S in map(Region, itertools.combinations(spec.sites, k)):
            if r_connected_set(S, geo.R):
                pr = expansion.partition_ratio(S, normalized, betas[0])
                ratio_rows.append(pr)
    ratios_ok = all(
        pr.bound_ok and pr.split_product_le_full and pr.free_le_power and pr.interacting_ge_one
        for pr in ratio_rows
    )
    worst_ratio = max((pr.ratio / pr.bound for pr in ratio_rows), default=0.0)
    add(
        "partition_ratio_bound",
        f"beta={betas[0]:g} |S|<=2 ({len(ratio_rows)} sets)",
        worst_ratio,
        1.0,
        ratios_ok,
    )

    cert = gibbs.bound_certificate(spec)
    lhs, rhs = expansion.subset_sum_identity_check(8, cert.p)
    add("subset_sum_identity", f"F=8 p={cert.p:.6g}", expansion._rel(lhs, rhs), 1e-12)

    ok = all(c["pass"] for c in checks)
    _write_json(
        outdir / "verify_report.json",
        {
            "command": "verify",
            "checks": checks,
            "skipped": skipped,
            "certificate": dataclasses.asdict(cert),
        },
    )
    for c in checks:
        print(
            f"{'PASS' if c['pass'] else 'FAIL'} {c['name']} [{c['instance']}] "
            f"residual={c['residual']:.3e} tol={c['tolerance']!r}"
        )
    for s in skipped:
        print(f"SKIP {s['name']}: {s['reason']}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------

def run_decay(cfg: dict, outdir: Path) -> int:
    spec = _model_spec(cfg)
    betas = _betas(cfg)
    obs = cfg.get("observables")
    if not isinstance(obs, dict):
        raise ConfigError("config needs an 'observables' object with A, B, anchor")
    _refuse_unknown(obs, ("A", "B", "anchor"), "observables")
    if "anchor" not in obs:
        raise ConfigError("observables need an 'anchor' site")

    fits = []
    for beta in betas:
        # the sweep reads the templates, the anchor and the distances
        try:
            fit = gibbs.decay_sweep(
                spec, beta, obs.get("A"), obs.get("B"), cfg.get("distances"),
                anchor=obs["anchor"], strict=False,
            )
        except DimensionError:
            raise
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        fits.append(fit)

    with open(outdir / "decay.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "distance", "abs_cov", "ln_abs_cov"])
        for f in fits:
            for d, c in f.points:
                lnc = math.log(c) if c > 0 else -math.inf
                writer.writerow([repr(float(f.beta)), d, repr(float(c)), repr(lnc)])

    fields = ("beta", "xi", "slope", "intercept", "points_used", "outcome")
    fit_rows = [{k: getattr(f, k) for k in fields} for f in fits]
    _write_json(outdir / "decay_report.json", {"command": "decay", "fits": fit_rows})
    for f in fits:
        xi = f"{f.xi:.6g}" if math.isfinite(f.xi) else "nan"
        print(f"beta={f.beta:g}: outcome={f.outcome} points_used={f.points_used} xi={xi}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def run_count(cfg: dict, outdir: Path) -> int:
    D = _convert(_integer, cfg.get("D", 1), "D")
    R = _convert(_integer, cfg.get("R", 1), "R")
    k_max = _convert(_integer, cfg.get("k_max", 4), "k_max")
    if D < 1 or R < 1 or k_max < 1:
        raise ConfigError("D, R and k_max must be positive")
    if D > 3 or k_max > MAX_K:
        raise DimensionError(f"counting capped at D <= 3, k <= {MAX_K} (got D={D}, k={k_max})")
    m = universe_size(D, R, k_max)
    work = m * m + math.comb(m - 1, k_max - 1)
    if work > MAX_COUNT_WORK:
        raise DimensionError(
            f"brute-force count work {work} at k={k_max} exceeds {MAX_COUNT_WORK}"
        )

    origin = (0,) * D
    rows = []
    ok = True
    for k in range(1, k_max + 1):
        universe = Region(map(tuple, build_universe(D, R, k)))
        geo = LatticeGeometry(D=D, R=R, sites=universe)
        enumerated = lattice.count_connected_sets(origin, k, geo)
        brute = brute_force_connected_count(D, R, k)
        bound = lattice.counting_bound(k, D, R)
        bound_simple = lattice.counting_bound(k, D, R, simplified=True)
        row_ok = enumerated == brute and enumerated <= bound <= bound_simple * (1 + 1e-12)
        ok = ok and row_ok
        rows.append(
            {
                "k": k,
                "enumerated": enumerated,
                "brute_force": brute,
                "bound_exact": bound,
                "bound_simplified": bound_simple,
                "pass": row_ok,
            }
        )
        print(
            f"{'PASS' if row_ok else 'FAIL'} k={k}: enumerated={enumerated} "
            f"brute={brute} bound={bound}"
        )

    _write_json(
        outdir / "count_report.json",
        {"command": "count", "D": D, "R": R, "rows": rows},
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# ising
# ---------------------------------------------------------------------------

def run_ising(cfg: dict, outdir: Path) -> int:
    n = _convert(_integer, cfg.get("n", 10), "n")
    J = _convert(_real, cfg.get("J", 1.0), "J")
    betas = _betas(cfg)
    # a decay fit needs 3 spins and 0 < |tanh(beta J)| < 1 in double at every beta
    tanh = [abs(math.tanh(beta * J)) for beta in betas]
    if n < 3 or not all(0 < t < 1 for t in tanh):
        raise ConfigError(f"no decay to fit: n = {n}, J = {J!r}, |tanh(beta J)| = {tanh}")

    rows = []
    report_rows = []
    ok = True
    for beta in betas:
        cov = gibbs.ising_oracle(n, J, beta)
        max_dev = 0.0
        for (i, j), measured in cov.items():
            exact = gibbs.ising_exact_covariance(J, beta, i, j)
            max_dev = max(max_dev, abs(measured - exact))
            rows.append((beta, i, j, measured, exact))
        # measured xi from the covariances against site 0; log 0 has no line through it
        points = [(d, abs(cov[0, d])) for d in range(1, n)]
        zero = [d for d, c in points if c == 0]
        if zero:
            raise ConfigError(
                f"no decay to fit at beta={beta:g}: the measured Cov(Z_0, Z_d) is exactly 0 "
                f"at d = {zero} (exact tanh(beta J)^{zero[0]} = "
                f"{gibbs.ising_exact_covariance(J, beta, 0, zero[0]):.3e})"
            )
        _, _, xi = gibbs.fit_decay(points)
        xi_exact = gibbs.ising_exact_xi(J, beta)
        xi_err = abs(xi - xi_exact) / xi_exact
        row_ok = max_dev <= COVARIANCE_TOL and xi_err <= XI_REL_TOL
        ok = ok and row_ok
        report_rows.append(
            {
                "beta": beta,
                "max_cov_deviation": max_dev,
                "xi": xi,
                "xi_exact": xi_exact,
                "xi_rel_err": xi_err,
                "pass": row_ok,
            }
        )
        print(
            f"{'PASS' if row_ok else 'FAIL'} beta={beta:g}: max|dcov|={max_dev:.3e} "
            f"xi={xi:.8f} exact={xi_exact:.8f}"
        )

    with open(outdir / "ising_cov.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "i", "j", "measured", "exact"])
        for beta, i, j, m, e in rows:
            writer.writerow([repr(float(beta)), i, j, repr(m), repr(e)])
    _write_json(
        outdir / "ising_report.json",
        {"command": "ising", "n": n, "J": J, "rows": report_rows},
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def run_certify(cfg: dict, outdir: Path) -> int:
    try:
        spec = _model_spec(cfg)
    except CertificationError as exc:
        payload = {
            "command": "certify",
            "certified": False,
            "error": str(exc),
            "center": list(exc.center) if exc.center is not None else None,
        }
        _write_json(outdir / "certify_report.json", payload)
        print(f"FAIL certification: {exc}")
        return EXIT_CHECK_FAILED
    cert = gibbs.bound_certificate(spec)
    payload = {
        "command": "certify",
        "certified": True,
        "a": spec.a,
        "h_sup": spec.h_sup,
        "v_sup": spec.v_sup,
        "n_interactions": len(spec.interactions),
        "certificate": dataclasses.asdict(cert),
    }
    _write_json(outdir / "certify_report.json", payload)
    print(
        f"PASS certification: a={spec.a:.12g} p={cert.p:.6g} "
        f"decay_base={cert.decay_base:.6g} active={cert.active}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# each command's runner, looked up by main when the command runs
_RUNNERS = {
    "verify": run_verify,
    "decay": run_decay,
    "count": run_count,
    "ising": run_ising,
    "certify": run_certify,
}
# the top-level keys each command reads; main reads output_dir
_CONFIG_KEYS = {
    "verify": ("model", "betas"),
    "decay": ("model", "betas", "distances", "observables"),
    "count": ("D", "R", "k_max"),
    "ising": ("n", "J", "betas"),
    "certify": ("model",),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="decorr",
        description="verify cluster-expansion identities and measure correlation decay",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        keys = (*_CONFIG_KEYS[args.command], "output_dir")
        _refuse_unknown(cfg, keys, f"a {args.command} config")
        out = cfg.get("output_dir", ".")
        if not isinstance(out, str):
            raise ConfigError(f"output_dir must be a path string, got {out!r}")
        outdir = Path(args.out or out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make the output directory: {exc}") from exc
        return _RUNNERS[args.command](cfg, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DimensionError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
