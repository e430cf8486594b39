"""Command-line driver: verify / decay / count / ising / certify.

Every command takes a JSON config (--config), writes deterministic reports
into an output directory (--out, falling back to the config's output_dir,
then the working directory), and communicates through its exit code:

    0  all requested checks passed
    1  a check or the certification failed (residual over tolerance, a >= 1,
       no expansion identity checked, ...)
    2  config malformed, inconsistent, or holding a key the command does not read
    3  a size cap would be exceeded

Reports are strict JSON with sorted keys and no timestamps, so identical
configs produce byte-identical outputs; a value that is not finite is null.
Each ``run_<command>`` computes and writes nothing: it returns its report,
its CSV tables, its stdout lines and whether every check passed, and
``main`` writes, prints and picks the exit code; a runner's certification
refusal becomes that command's report, ``certified: false``, exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

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


class Result(NamedTuple):
    """What a run computes; ``main`` writes, prints and exits from it."""

    report: dict  # <command>_report.json, before main adds command and schema
    tables: dict  # CSV file name -> its rows, the header first
    lines: list  # stdout
    ok: bool  # every check passed


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


def _finite(value):
    """value with every float that is not finite as None: strict JSON has no NaN or Infinity."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write(outdir: Path, command: str, result: Result):
    """The report, the tables and the stdout lines of a run: the one place that writes."""
    report = {**result.report, "command": command, "schema": SCHEMA_VERSION}
    text = json.dumps(_finite(report), sort_keys=True, indent=2, allow_nan=False)
    (outdir / f"{command}_report.json").write_text(text + "\n")
    for name, rows in result.tables.items():
        with open(outdir / name, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)  # as the repr of a float: rows hold Python floats
    for line in result.lines:
        print(line)


def _certificates(spec: HamiltonianSpec, normalized: HamiltonianSpec) -> tuple[dict, list[str]]:
    """The constant and bound certificate of a spec and of its normalized spec, whose
    partition ratios the proof bounds, as report blocks and stdout lines."""
    blocks, lines = {}, []
    for key, s in (("certificate", spec), ("certificate_normalized", normalized)):
        cert = gibbs.bound_certificate(s)
        blocks[key] = {"a": s.a, **cert._asdict()}
        lines.append(
            f"{key}: a={s.a:.12g} p={cert.p:.6g} "
            f"decay_base={cert.decay_base:.6g} active={cert.active}"
        )
    return blocks, lines


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _spin_probe(spec: HamiltonianSpec, site) -> GlobalOperator:
    """2 S_z = diag(q-1, q-3, ..., 1-q) on one site: Pauli Z at q = 2, and defined on every q."""
    z = np.diag(np.arange(spec.q - 1, -spec.q, -2)).astype(complex)
    return GlobalOperator(Region([site]), spec.q, z)


def run_verify(cfg: dict) -> Result:
    spec = _model_spec(cfg)
    normalized = model.normalize_nonpositive(spec)  # certified before any check runs
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

    # structural checks need two well-separated probes, on sites that
    # interactions couple: the interior's extremes, those of I1 and I2
    ends = inter or spec.sites
    A, B = _spin_probe(spec, ends[0]), _spin_probe(spec, ends[-1])
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

    identities_checked = bool(checks)  # some expansion family ran
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

    certificates, cert_lines = _certificates(spec, normalized)
    lines = [
        f"{'PASS' if c['pass'] else 'FAIL'} {c['name']} [{c['instance']}] "
        f"residual={c['residual']:.3e} tol={c['tolerance']!r}"
        for c in checks
    ]
    lines += [f"SKIP {s['name']}: {s['reason']}" for s in skipped]
    if not identities_checked:  # the partition ratios alone check no expansion
        lines.append("FAIL no expansion identity was checked: every family was skipped")
    report = {"checks": checks, "skipped": skipped, **certificates}
    ok = identities_checked and all(c["pass"] for c in checks)
    return Result(report, {}, lines + cert_lines, ok)


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------

def run_decay(cfg: dict) -> Result:
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

    table = [["beta", "distance", "abs_cov", "ln_abs_cov"]]
    table += [
        [float(f.beta), d, float(c), math.log(c) if c > 0 else -math.inf]
        for f in fits
        for d, c in f.points
    ]
    fields = ("beta", "xi", "slope", "intercept", "points_used", "outcome")
    fit_rows = [{k: getattr(f, k) for k in fields} for f in fits]
    lines = []
    for f in fits:
        xi = f"{f.xi:.6g}" if math.isfinite(f.xi) else "nan"
        lines.append(f"beta={f.beta:g}: outcome={f.outcome} points_used={f.points_used} xi={xi}")
    return Result({"fits": fit_rows}, {"decay.csv": table}, lines, True)


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def run_count(cfg: dict) -> Result:
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
    lines = []
    for k in range(1, k_max + 1):
        universe = Region(map(tuple, build_universe(D, R, k)))
        geo = LatticeGeometry(D=D, R=R, sites=universe)
        enumerated = lattice.count_connected_sets(origin, k, geo)
        brute = brute_force_connected_count(D, R, k)
        bound = lattice.counting_bound(k, D, R)
        bound_simple = lattice.counting_bound(k, D, R, simplified=True)
        # bound <= bound_simple is an identity (C(2m, m) <= 4^m < (2e)^m), not a check
        row_ok = enumerated == brute and enumerated <= bound
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
        lines.append(
            f"{'PASS' if row_ok else 'FAIL'} k={k}: enumerated={enumerated} "
            f"brute={brute} bound={bound}"
        )
    return Result({"D": D, "R": R, "rows": rows}, {}, lines, all(r["pass"] for r in rows))


# ---------------------------------------------------------------------------
# ising
# ---------------------------------------------------------------------------

def run_ising(cfg: dict) -> Result:
    n = _convert(_integer, cfg.get("n", 10), "n")
    J = _convert(_real, cfg.get("J", 1.0), "J")
    betas = _betas(cfg)
    # a decay fit needs 3 spins and 0 < |tanh(beta J)| < 1 in double at every beta
    tanh = [abs(math.tanh(beta * J)) for beta in betas]
    if n < 3 or not all(0 < t < 1 for t in tanh):
        raise ConfigError(f"no decay to fit: n = {n}, J = {J!r}, |tanh(beta J)| = {tanh}")

    table = [["beta", "i", "j", "measured", "exact"]]
    rows = []
    lines = []
    for beta in betas:
        cov = gibbs.ising_oracle(n, J, beta)
        max_dev = 0.0
        for (i, j), measured in cov.items():
            exact = gibbs.ising_exact_covariance(J, beta, i, j)
            max_dev = max(max_dev, abs(measured - exact))
            table.append([float(beta), i, j, measured, exact])
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
        rows.append(
            {
                "beta": beta,
                "max_cov_deviation": max_dev,
                "xi": xi,
                "xi_exact": xi_exact,
                "xi_rel_err": xi_err,
                "pass": row_ok,
            }
        )
        lines.append(
            f"{'PASS' if row_ok else 'FAIL'} beta={beta:g}: max|dcov|={max_dev:.3e} "
            f"xi={xi:.8f} exact={xi_exact:.8f}"
        )
    report = {"n": n, "J": J, "rows": rows}
    return Result(report, {"ising_cov.csv": table}, lines, all(r["pass"] for r in rows))


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def run_certify(cfg: dict) -> Result:
    spec = _model_spec(cfg)
    # the proof needs the normalized spec certified too: its ratios are the bounded ones
    certificates, lines = _certificates(spec, model.normalize_nonpositive(spec))
    report = {
        "certified": True,
        "a": spec.a,
        "h_sup": spec.h_sup,
        "v_sup": spec.v_sup,
        "n_interactions": len(spec.interactions),
        **certificates,
    }
    return Result(report, {}, ["PASS certification", *lines], True)


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
        result = _RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DimensionError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except CertificationError as exc:  # only a runner raises it, so outdir is made
        center = None if exc.center is None else list(exc.center)
        report = {"certified": False, "error": str(exc), "center": center}
        result = Result(report, {}, [f"FAIL certification: {exc}"], False)
    _write(outdir, args.command, result)
    return EXIT_OK if result.ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
