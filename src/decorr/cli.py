"""Command-line driver: verify / decay / count / ising / certify.

Every command takes a JSON config (--config), writes deterministic reports
into an output directory (--out, falling back to the config's output_dir,
then the working directory), and communicates through its exit code:

    0  all requested checks passed
    1  a check failed (identity residual over tolerance, bound violated, ...)
    2  config malformed or inconsistent
    3  a size cap would be exceeded

Reports are JSON with sorted keys and no timestamps, so identical configs
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from pathlib import Path

from . import expansion, gibbs, lattice, model
from ._kernels import brute_force_connected_count, build_universe
from .algebra import DimensionError, GlobalOperator
from .lattice import LatticeGeometry, Region, interior, r_connected_set, set_distance
from .model import CertificationError, HamiltonianSpec, PAULI_BY_NAME

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_CAP = 3


class ConfigError(ValueError):
    pass


class CapError(ValueError):
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
    block = dict(block)
    if "n" in block and "lattice" not in block:
        n = _convert(int, block.pop("n"), "n")
        block["lattice"] = [[i] for i in range(n)]
        block.setdefault("D", 1)
    block.setdefault("model", "xxz")
    block.setdefault("q", 2)
    if "seed" in cfg and "seed" not in block:
        block["seed"] = cfg["seed"]
    try:
        return model.spec_from_json(block)
    except CertificationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, DimensionError):
            raise
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
    betas = [_convert(float, b, "beta") for b in betas]
    if any(b <= 0 for b in betas):
        raise ConfigError("betas must be positive")
    return betas


def _distances(cfg: dict) -> list[int]:
    ds = cfg.get("distances")
    if not isinstance(ds, list) or len(ds) < 1:
        raise ConfigError("config needs a 'distances' list")
    ds = [_convert(int, d, "distance") for d in ds]
    if any(d2 <= d1 for d1, d2 in zip(ds, ds[1:])):
        raise ConfigError("distances must be strictly increasing")
    return ds


def _template(raw, name: str):
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"observable {name} must be a nonempty list of [offset, pauli]")
    out = []
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError(f"observable {name} needs [offset, pauli] pairs, got {entry!r}")
        off, pauli = entry
        if not isinstance(pauli, str) or pauli not in PAULI_BY_NAME:
            raise ConfigError(f"unknown operator name {pauli!r} in observable {name}")
        out.append((_site(off, f"offset in observable {name}"), pauli))
    return out


def _site(value, what: str):
    """A site or offset: an int, or a list of ints as a tuple."""
    return _convert(lambda v: v if isinstance(v, int) else tuple(int(c) for c in v), value, what)


def _tolerance(cfg: dict, key: str, default: float) -> float:
    tolerances = cfg.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("'tolerances' must be an object")
    return _convert(float, tolerances.get(key, default), f"tolerance {key}")


def _site_observable(spec: HamiltonianSpec, site, name: str) -> GlobalOperator:
    site = (site,) if isinstance(site, int) else tuple(site)
    return GlobalOperator(Region([site]), spec.q, PAULI_BY_NAME[name].copy())


def _write_json(path: Path, payload: dict):
    payload = dict(payload)
    payload["schema"] = SCHEMA_VERSION
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _set_threads(n: int | None):
    """Pin the BLAS thread pools to ``n`` threads, or warn that nothing was pinned."""
    if not n:
        return
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        print(
            f"warning: --threads {n} pinned nothing: threadpoolctl is not installed "
            "(set OMP_NUM_THREADS/OPENBLAS_NUM_THREADS before starting instead)",
            file=sys.stderr,
        )
        return
    threadpool_limits(limits=max(1, n))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def run_verify(cfg: dict, outdir: Path) -> int:
    spec = _model_spec(cfg)
    betas = _betas(cfg)
    tol = _tolerance(cfg, "identity", 1e-10)
    geo = spec.geometry
    inter = interior(spec.sites, geo)
    if len(inter) > expansion.MAX_RESUM_INTERIOR:
        raise CapError(
            f"lattice interior {len(inter)} exceeds the resummation cap "
            f"{expansion.MAX_RESUM_INTERIOR}"
        )

    checks: list[dict] = []
    skipped: list[dict] = []

    def add(name, instance, residual, tolerance, ok):
        checks.append(
            {
                "name": name,
                "instance": instance,
                "residual": float(residual),
                "tolerance": float(tolerance),
                "pass": bool(ok),
            }
        )

    add("form_bound_certificate", f"a={spec.a!r}", spec.a, 1.0, 0 <= spec.a < 1)

    for beta in betas:
        res = expansion.verify_resummation(spec, beta)
        add("resummation", f"beta={beta:g}", res, tol, res <= tol)

    norm_slack = _tolerance(cfg, "norm_slack", 1e-12)
    rows = expansion.term_norm_scan(spec, betas[0], max_size=min(3, len(inter)))
    worst = max((norm - bound for _, norm, bound in rows), default=-1.0)
    add(
        "term_norm_bound",
        f"beta={betas[0]:g} sizes<=3 ({len(rows)} terms)",
        max(worst, 0.0),
        norm_slack,
        worst <= norm_slack,
    )

    # structural checks need two well-separated probes; pick lattice extremes
    lo, hi = spec.sites[0], spec.sites[-1]
    X, Y = Region([lo]), Region([hi])
    A = _site_observable(spec, lo, "Z")
    B = _site_observable(spec, hi, "Z")
    if inter and set_distance(X, Y) > 2 * geo.R:
        I1, I2 = Region([inter[0]]), Region([inter[-1]])
        if set_distance(I1 | X, I2 | Y) > 2 * geo.R:
            for beta in betas:
                chk = expansion.verify_factorization(I1, A, I2, B, spec, beta)
                add(
                    "factorization",
                    f"I1={list(I1)} I2={list(I2)} beta={beta:g}",
                    chk.rel_residual,
                    tol,
                    chk.rel_residual <= tol,
                )
        else:
            skipped.append({"name": "factorization", "reason": "halves not separable"})
        if len(inter) <= expansion.MAX_SWEEP_INTERIOR:
            for beta in betas:
                chk = expansion.verify_swap_identity(spec, A, B, beta)
                add(
                    "swap_identity_sums",
                    f"beta={beta:g} pairs={chk.n_event_pairs}",
                    chk.rel_residual,
                    tol,
                    chk.rel_residual <= tol,
                )
                add(
                    "swap_identity_per_pair",
                    f"beta={beta:g}",
                    chk.per_pair_max,
                    tol,
                    chk.per_pair_max <= tol,
                )
        else:
            skipped.append(
                {"name": "swap_identity", "reason": "interior exceeds sweep cap"}
            )
    else:
        skipped.append({"name": "swap_identity", "reason": "lattice too small"})

    if len(inter) >= 1:
        c = inter[len(inter) // 2]
        x_site = tuple(ci - geo.R if i == 0 else ci for i, ci in enumerate(c))
        y_site = tuple(ci + geo.R if i == 0 else ci for i, ci in enumerate(c))
        if x_site in spec.sites and y_site in spec.sites:
            I0, J0 = Region([c]), Region()
            Ax = _site_observable(spec, x_site, "Z")
            By = _site_observable(spec, y_site, "Z")
            try:
                for beta in betas:
                    chk = expansion.verify_supercluster_resummation(
                        I0, J0, Ax, By, spec, beta
                    )
                    # a single class pair makes the identity a tautology
                    vacuous = " (vacuous)" if chk.n_class_pairs == 1 else ""
                    instance = (
                        f"S0 around {c} beta={beta:g} pairs={chk.n_class_pairs}{vacuous}"
                    )
                    for kind, res in (
                        ("weight", chk.rel_residual_weight),
                        ("observable", chk.rel_residual_observable),
                    ):
                        add(f"supercluster_resummation_{kind}", instance, res, tol, res <= tol)
            except ValueError as exc:
                skipped.append({"name": "supercluster_resummation", "reason": str(exc)})

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
    add("subset_sum_identity", f"F=8 p={cert.p:.6g}", abs(lhs - rhs) / max(rhs, 1e-300), 1e-12, abs(lhs - rhs) <= 1e-12 * max(rhs, 1.0))

    ok = all(c["pass"] for c in checks)
    _write_json(
        outdir / "verify_report.json",
        {
            "command": "verify",
            "checks": checks,
            "skipped": skipped,
            "certificate": {
                "p": cert.p,
                "decay_base": cert.decay_base,
                "prefactor_exponent": cert.prefactor_exponent,
                "active": cert.active,
            },
        },
    )
    for c in checks:
        print(
            f"{'PASS' if c['pass'] else 'FAIL'} {c['name']} [{c['instance']}] "
            f"residual={c['residual']:.3e} tol={c['tolerance']:.1e}"
        )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------

def run_decay(cfg: dict, outdir: Path) -> int:
    spec = _model_spec(cfg)
    betas = _betas(cfg)
    distances = _distances(cfg)
    obs = cfg.get("observables")
    if not isinstance(obs, dict):
        raise ConfigError("config needs an 'observables' object with A, B, anchor")
    A_t = _template(obs.get("A"), "A")
    B_t = _template(obs.get("B"), "B")
    anchor = _site(obs.get("anchor", 0), "anchor")
    if len(spec.sites) > 14:
        raise CapError("lattice too large for a dense decay sweep")

    fits = []
    rows = []
    for beta in betas:
        try:
            fit = gibbs.decay_sweep(
                spec, beta, A_t, B_t, distances, anchor=anchor, strict=False
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        fits.append(fit)
        for d, c in fit.points:
            rows.append((beta, d, c, math.log(c) if c > 0 else -math.inf))

    with open(outdir / "decay.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "distance", "abs_cov", "ln_abs_cov"])
        for beta, d, c, lnc in rows:
            writer.writerow([repr(float(beta)), d, repr(float(c)), repr(float(lnc))])

    payload = {
        "command": "decay",
        "fits": [
            {
                "beta": f.beta,
                "xi": f.xi,
                "slope": f.slope,
                "intercept": f.intercept,
                "points_used": f.points_used,
                "outcome": f.outcome,
            }
            for f in fits
        ],
    }
    _write_json(outdir / "decay_report.json", payload)
    for f in fits:
        xi = f"{f.xi:.6g}" if math.isfinite(f.xi) else "nan"
        print(f"beta={f.beta:g}: outcome={f.outcome} points_used={f.points_used} xi={xi}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def run_count(cfg: dict, outdir: Path) -> int:
    D = _convert(int, cfg.get("D", 1), "D")
    R = _convert(int, cfg.get("R", 1), "R")
    k_max = _convert(int, cfg.get("k_max", 4), "k_max")
    if D < 1 or R < 1 or k_max < 1:
        raise ConfigError("D, R and k_max must be positive")
    if D > 3 or k_max > 6:
        raise CapError(f"counting capped at D <= 3, k <= 6 (got D={D}, k={k_max})")

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
    n = _convert(int, cfg.get("n", 10), "n")
    J = _convert(float, cfg.get("J", 1.0), "J")
    betas = _betas(cfg)
    if n > 12:
        raise CapError(f"classical-chain oracle capped at n = 12 (got {n})")
    cov_tol = _tolerance(cfg, "covariance", 1e-10)
    xi_tol = _tolerance(cfg, "xi_rel", 1e-6)

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
        # measured xi from the covariances against site 0
        _, _, xi = gibbs.fit_decay([(d, abs(cov[0, d])) for d in range(1, n)])
        xi_exact = gibbs.ising_exact_xi(J, beta)
        xi_err = abs(xi - xi_exact) / xi_exact
        row_ok = max_dev <= cov_tol and xi_err <= xi_tol
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
        "certificate": {
            "p": cert.p,
            "decay_base": cert.decay_base,
            "prefactor_exponent": cert.prefactor_exponent,
            "active": cert.active,
        },
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

_RUNNERS = {
    "verify": run_verify,
    "decay": run_decay,
    "count": run_count,
    "ising": run_ising,
    "certify": run_certify,
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
        p.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        _set_threads(args.threads)
        outdir = Path(args.out or cfg.get("output_dir") or ".")
        outdir.mkdir(parents=True, exist_ok=True)
        return _RUNNERS[args.command](cfg, outdir)
    except (ConfigError,) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CapError, DimensionError) as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
