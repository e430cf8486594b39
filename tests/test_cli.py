"""Command-line entry points, exit codes, and report determinism."""

import json
import sys

import pytest

from decorr.cli import (
    EXIT_CAP,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    SCHEMA_VERSION,
    main,
)

CANONICAL_MODEL = {"n": 6, "R": 1, "lambda": 0.3, "seed": 7, "J12": 0.02, "J3": 0.02}


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run(tmp_path, command, payload, outname="out"):
    cfg = write_cfg(tmp_path, f"{command}.json", payload)
    out = tmp_path / outname
    rc = main([command, "--config", cfg, "--out", str(out)])
    return rc, out


def test_verify_free_model(tmp_path, capsys):
    payload = {
        "model": {"n": 5, "R": 1, "lambda": 0.0, "seed": 0, "J12": 0.0, "J3": 0.0},
        "betas": [1.0],
    }
    rc, out = run(tmp_path, "verify", payload)
    assert rc == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert all(l.startswith("PASS") for l in lines)
    report = json.loads((out / "verify_report.json").read_text())
    assert report["schema"] == SCHEMA_VERSION
    assert all(c["pass"] for c in report["checks"])


def test_verify_coupled_model(tmp_path, capsys):
    payload = {"model": CANONICAL_MODEL, "betas": [2.0]}
    rc, out = run(tmp_path, "verify", payload)
    assert rc == EXIT_OK
    report = json.loads((out / "verify_report.json").read_text())
    names = {c["name"] for c in report["checks"]}
    assert "resummation" in names
    assert "swap_identity_per_pair" in names
    assert "partition_ratio_bound" in names
    assert all(c["pass"] for c in report["checks"])
    # on n = 6 the reduced lattice of the supercluster check has an empty
    # interior: one class pair, and the report says so
    supercluster = [c for c in report["checks"] if c["name"].startswith("supercluster")]
    assert len(supercluster) == 2
    assert all(c["instance"].endswith("pairs=1 (vacuous)") for c in supercluster)
    # certificate p = 2 a q^{(2R+1)^D} for the frozen canonical constant
    assert report["certificate"]["p"] == pytest.approx(1.779842023704731, rel=1e-10)


def test_verify_malformed_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["verify", "--config", str(cfg)]) == EXIT_CONFIG


def test_verify_missing_model(tmp_path):
    rc, _ = run(tmp_path, "verify", {"betas": [1.0]})
    assert rc == EXIT_CONFIG


def test_verify_bad_betas(tmp_path):
    rc, _ = run(tmp_path, "verify", {"model": CANONICAL_MODEL, "betas": [-1.0]})
    assert rc == EXIT_CONFIG


DECAY_OBSERVABLES = {"A": [[0, "X"]], "B": [[0, "X"]], "anchor": 1}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("verify", {"model": CANONICAL_MODEL, "betas": ["x"]}),
        (
            "decay",
            {"model": CANONICAL_MODEL, "betas": [1.0], "distances": [2, 3],
             "observables": {**DECAY_OBSERVABLES, "A": [5]}},
        ),
        (
            "decay",
            {"model": CANONICAL_MODEL, "betas": [1.0], "distances": [2, 3],
             "observables": {**DECAY_OBSERVABLES, "A": [[0, ["X"]]]}},
        ),
        (
            "decay",
            {"model": CANONICAL_MODEL, "betas": [1.0], "distances": [2, "a"],
             "observables": DECAY_OBSERVABLES},
        ),
        (
            "decay",
            {"model": CANONICAL_MODEL, "betas": [1.0], "distances": [2, 3],
             "observables": {**DECAY_OBSERVABLES, "anchor": "x"}},
        ),
        ("count", {"D": "two"}),
        ("ising", {"n": 6, "J": 1.0, "betas": [0.5], "tolerances": 3}),
        ("verify", {"model": {**CANONICAL_MODEL, "n": "six"}, "betas": [1.0]}),
    ],
    ids=[
        "verify-beta", "decay-entry", "decay-pauli", "decay-distance", "decay-anchor",
        "count-D", "ising-tol", "verify-n",
    ],
)
def test_malformed_config_values_exit_config(tmp_path, capsys, command, payload):
    rc, _ = run(tmp_path, command, payload)
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


def test_decay_reports_and_is_deterministic(tmp_path):
    payload = {
        "model": {"n": 8, "R": 1, "lambda": 0.3, "seed": 7, "J12": 0.02, "J3": 0.02},
        "betas": [2.0],
        "observables": {"A": [[0, "X"]], "B": [[0, "X"]], "anchor": 1},
        "distances": [2, 3, 4],
    }
    rc1, out1 = run(tmp_path, "decay", payload, outname="run1")
    rc2, out2 = run(tmp_path, "decay", payload, outname="run2")
    assert rc1 == rc2 == EXIT_OK
    csv1 = (out1 / "decay.csv").read_bytes()
    assert csv1 == (out2 / "decay.csv").read_bytes()
    rep1 = (out1 / "decay_report.json").read_bytes()
    assert rep1 == (out2 / "decay_report.json").read_bytes()
    lines = csv1.decode().splitlines()
    assert lines[0] == "beta,distance,abs_cov,ln_abs_cov"
    assert len(lines) == 1 + 3  # one row per (beta, distance)
    report = json.loads(rep1)
    assert report["schema"] == SCHEMA_VERSION
    assert len(report["fits"]) == 1
    assert report["fits"][0]["outcome"] == "ok"


def test_decay_missing_observables(tmp_path):
    payload = {"model": CANONICAL_MODEL, "betas": [1.0], "distances": [2, 3]}
    rc, _ = run(tmp_path, "decay", payload)
    assert rc == EXIT_CONFIG


def test_count_matches_reference(tmp_path):
    rc, out = run(tmp_path, "count", {"D": 1, "R": 1, "k_max": 3})
    assert rc == EXIT_OK
    report = json.loads((out / "count_report.json").read_text())
    rows = {r["k"]: r for r in report["rows"]}
    assert [rows[k]["enumerated"] for k in (1, 2, 3)] == [1, 4, 12]
    for r in report["rows"]:
        assert r["pass"]
        assert r["enumerated"] == r["brute_force"]
        assert r["enumerated"] <= r["bound_exact"] <= r["bound_simplified"] + 1e-9


def test_count_cap(tmp_path):
    rc, _ = run(tmp_path, "count", {"D": 1, "R": 1, "k_max": 7})
    assert rc == EXIT_CAP


def test_ising_oracle_run(tmp_path):
    rc, out = run(tmp_path, "ising", {"n": 6, "J": 1.0, "betas": [0.5]})
    assert rc == EXIT_OK
    report = json.loads((out / "ising_report.json").read_text())
    row = report["rows"][0]
    assert row["pass"]
    assert row["max_cov_deviation"] < 1e-10
    assert row["xi_rel_err"] < 1e-6
    assert (out / "ising_cov.csv").exists()


def test_ising_cap(tmp_path):
    rc, _ = run(tmp_path, "ising", {"n": 13, "J": 1.0, "betas": [0.5]})
    assert rc == EXIT_CAP


def test_certify_reports_constant(tmp_path):
    payload = {"model": {"n": 5, "R": 1, "lambda": 0.3, "seed": 7, "J12": 0.02, "J3": 0.02}}
    rc, out = run(tmp_path, "certify", payload)
    assert rc == EXIT_OK
    report = json.loads((out / "certify_report.json").read_text())
    assert report["certified"] is True
    assert report["a"] == pytest.approx(0.11124012648154569, rel=1e-10)


def test_certify_failure_exit_code(tmp_path):
    payload = {"model": {"n": 4, "R": 1, "lambda": 0.3, "seed": 7, "J12": 3.0, "J3": 0.02}}
    rc, out = run(tmp_path, "certify", payload)
    assert rc == EXIT_CHECK_FAILED
    report = json.loads((out / "certify_report.json").read_text())
    assert report["certified"] is False


def test_threads_flag_accepted(tmp_path):
    payload = {"model": CANONICAL_MODEL, "betas": [1.0]}
    cfg = write_cfg(tmp_path, "v.json", payload)
    rc = main(["certify", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"])
    assert rc == EXIT_OK


def test_threads_flag_warns_when_nothing_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import now fails
    payload = {"model": CANONICAL_MODEL, "betas": [1.0]}
    cfg = write_cfg(tmp_path, "v.json", payload)
    rc = main(["certify", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "2"])
    assert rc == EXIT_OK
    err = capsys.readouterr().err
    assert "--threads 2 pinned nothing" in err
