"""Command-line entry points, exit codes, and report determinism."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from decorr import cli, expansion, gibbs
from decorr.cli import (
    EXIT_CAP,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    SCHEMA_VERSION,
    main,
)

from conftest import boson_model

CANONICAL_MODEL = {"n": 6, "R": 1, "lambda": 0.3, "seed": 7, "J12": 0.02, "J3": 0.02}
# the same model with its sites listed instead of counted
LATTICE_MODEL = {
    "D": 1, "lattice": [[i] for i in range(6)],
    "R": 1, "lambda": 0.3, "seed": 7, "J12": 0.02, "J3": 0.02,
}


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
    report = json.loads((out / "verify_report.json").read_text())
    # one PASS line per check, then one SKIP line per check not run, then
    # the certificates of the spec and of its normalized spec
    *lines, raw, normalized = lines
    assert raw.startswith("certificate: a=")
    assert normalized.startswith("certificate_normalized: a=")
    skips = [f"SKIP {s['name']}: {s['reason']}" for s in report["skipped"]]
    assert len(lines) == len(report["checks"]) + len(skips)
    assert all(l.startswith("PASS") for l in lines[: len(report["checks"])])
    assert lines[len(report["checks"]):] == skips
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
    # interior: one class pair, a tautology, so the check is skipped
    assert report["skipped"] == [{"name": "supercluster_resummation", "reason": single_pair(3)}]
    # certificate p = 2 a q^{(2R+1)^D} for the frozen canonical constant
    assert report["certificate"]["p"] == pytest.approx(1.779842023704731, rel=1e-10)
    assert {family(c["name"]) for c in report["checks"]} == VERIFY_FAMILIES - {
        "supercluster_resummation"
    }


def test_verify_certifies_the_spec_whose_ratios_it_bounds(tmp_path, capsys):
    # the partition ratios are bounded on the normalized spec, so the report
    # carries that spec's certificate and constant beside the raw spec's
    rc, out = run(tmp_path, "verify", {"model": CANONICAL_MODEL, "betas": [0.5, 2.0]})
    assert rc == EXIT_OK
    report = json.loads((out / "verify_report.json").read_text())
    raw, normalized = report["certificate"], report["certificate_normalized"]
    assert raw["a"] == 0.11124012648154569
    assert raw["p"] / 2**4 == pytest.approx(raw["a"], rel=1e-12)  # p = 2a q^3
    assert raw["decay_base"] == pytest.approx(161.39025232707115, rel=1e-10)
    assert raw["active"] is False
    assert normalized["a"] == pytest.approx(0.2036645909999083, rel=1e-10)
    assert normalized["p"] == pytest.approx(3.258633455998533, rel=1e-10)
    assert normalized["decay_base"] == pytest.approx(452.669779393872, rel=1e-10)
    assert normalized["prefactor_exponent"] == pytest.approx(-0.4255067789374274, rel=1e-10)
    assert normalized["active"] is False
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "certificate: a=0.111240126482 p=1.77984 decay_base=161.39 active=False",
        "certificate_normalized: a=0.203664591 p=3.25863 decay_base=452.67 active=False",
    ]


def test_term_norm_bound_reports_the_worst_ratio(tmp_path, capsys):
    # the residual is the worst ||T_I|| / (2a)^|I| of the scan, so it shows
    # the margin under the bound, and the bound is 1 + NORM_SLACK
    rc, out = run(tmp_path, "verify", {"model": CANONICAL_MODEL, "betas": [0.5]})
    assert rc == EXIT_OK
    report = json.loads((out / "verify_report.json").read_text())
    [check] = [c for c in report["checks"] if c["name"] == "term_norm_bound"]
    rows = expansion.term_norm_scan(cli._model_spec({"model": CANONICAL_MODEL}), 0.5)
    assert check["residual"] == max(norm / bound for _, norm, bound in rows)
    assert 0 < check["residual"] < 1
    assert check["tolerance"] == 1 + cli.NORM_SLACK
    # the printed tolerance is exact: 1 + 1e-12 does not read as the 1.0 of
    # partition_ratio_bound
    lines = capsys.readouterr().out.splitlines()
    [line] = [l for l in lines if l.startswith("PASS term_norm_bound ")]
    assert line == (
        f"PASS term_norm_bound [{check['instance']}] "
        f"residual={check['residual']:.3e} tol=1.000000000001"
    )
    [line] = [l for l in lines if " partition_ratio_bound " in l]
    assert line.endswith(" tol=1.0")


def test_zero_terms_meet_a_zero_term_norm_bound(tmp_path):
    # zero interaction matrices: a = 0, every term is exactly 0 and so is
    # its bound (2a)^|I|; the check passes with residual 0
    zero = [[[0, 0]] * 4 for _ in range(4)]
    payload = {"model": {**custom_model([1]), "interactions": [[[1], [[1], [2]], zero]]},
               "betas": [0.5]}
    rc, out = run(tmp_path, "verify", payload)
    assert rc == EXIT_OK
    report = json.loads((out / "verify_report.json").read_text())
    [check] = [c for c in report["checks"] if c["name"] == "term_norm_bound"]
    assert check["residual"] == 0.0 and check["pass"]


VERIFY_FAMILIES = {
    "resummation", "term_norm_bound", "factorization", "swap_identity",
    "supercluster_resummation", "partition_ratio_bound",
}


NOTHING_EXPANDED = "FAIL no expansion identity was checked: every family was skipped"


def family(name):
    return next(f for f in VERIFY_FAMILIES if name.startswith(f))


def single_pair(c):
    # the class of S0 = {c - 1, c, c + 1}, probes included, on a chain
    return (
        f"the class of S0 = {[(c - 1,), (c,), (c + 1,)]} is the single pair (I0, J0), "
        "since L - closure(S0) has an empty interior; its identity is a tautology"
    )


HALVES_CONNECTED = "the two halves are R-connected; factorization does not apply"
CLOSES_TO_THE_LATTICE = (
    "every nonempty configuration closes to the whole lattice: no free factor enters, "
    "and the terms sum to the reference's own entries whatever they hold"
)


@pytest.mark.parametrize(
    "n, skipped",
    [
        # no interior: the one resummation term is the reference itself, and
        # there is no term to bound, no probe pair and no supercluster; with
        # no expansion identity checked, the run fails
        (2, [("resummation", "lattice interior is empty"),
             ("term_norm_bound", "no interacting configuration of size <= 3"),
             ("factorization", "lattice interior is empty"),
             ("swap_identity", "lattice interior is empty"),
             ("supercluster_resummation", "lattice interior is empty")]),
        # one interior site, whose closure is the lattice: the resummation
        # meets its reference by construction, and both probes sit on it,
        # too close to separate
        (3, [("resummation", CLOSES_TO_THE_LATTICE),
             ("factorization", HALVES_CONNECTED),
             ("swap_identity", "supports of A and B must be further than 2R apart"),
             ("supercluster_resummation", single_pair(1))]),
        # the probes on the interior's ends 1 and 2 are within 2R, and the
        # halves {0, 1} and {2, 3} are R-connected
        (4, [("factorization", HALVES_CONNECTED),
             ("swap_identity", "supports of A and B must be further than 2R apart"),
             ("supercluster_resummation", single_pair(2))]),
        # an interior of 4 is over the sweep cap of 2^2 configurations
        (6, [("swap_identity", "16 configurations of an interior of size 4 exceed the cap 2^2"),
             ("supercluster_resummation", single_pair(3))]),
    ],
)
def test_verify_lists_every_check_it_does_not_run(tmp_path, capsys, monkeypatch, n, skipped):
    # each reason is the refusal of the check itself; a sweep cap of 2^2
    # refuses the interior of 4 at n = 6 and none of the smaller ones
    monkeypatch.setattr(expansion, "MAX_SWEEP_INTERIOR", 2)
    payload = {"model": {**CANONICAL_MODEL, "n": n}, "betas": [0.5]}
    rc, out = run(tmp_path, "verify", payload)
    expanded = len(skipped) < len(VERIFY_FAMILIES) - 1  # partition ratios always run
    assert rc == (EXIT_OK if expanded else EXIT_CHECK_FAILED)
    report = json.loads((out / "verify_report.json").read_text())
    assert [(s["name"], s["reason"]) for s in report["skipped"]] == skipped
    # stdout names each of them after the checks that ran, before the
    # two certificates
    *lines, raw, normalized = capsys.readouterr().out.splitlines()
    if not expanded:
        assert lines.pop() == NOTHING_EXPANDED
    assert raw.startswith("certificate: a=")
    assert normalized.startswith("certificate_normalized: a=")
    assert lines[-len(skipped):] == [f"SKIP {name}: {reason}" for name, reason in skipped]
    assert all(l.startswith(("PASS", "FAIL")) for l in lines[:-len(skipped)])
    ran = {family(c["name"]) for c in report["checks"]}
    assert ran.isdisjoint(name for name, _ in skipped)
    assert ran | {name for name, _ in skipped} == VERIFY_FAMILIES


def test_verify_probes_sites_that_interactions_couple(tmp_path, monkeypatch):
    # a probe on a site no interaction touches carries no correlation: on a
    # chain, site 0 meets no v_x, and the checks ran on observables that
    # factor out of every weight
    probed = []
    factorization, swap = expansion.verify_factorization, expansion.verify_swap_identity

    def record_factorization(I1, A, I2, B, spec, beta):
        probed.append(("factorization", spec, A, B))
        return factorization(I1, A, I2, B, spec, beta)

    def record_swap(spec, A, B, beta):
        probed.append(("swap_identity", spec, A, B))
        return swap(spec, A, B, beta)

    monkeypatch.setattr(expansion, "verify_factorization", record_factorization)
    monkeypatch.setattr(expansion, "verify_swap_identity", record_swap)
    monkeypatch.setattr(expansion, "verify_resummation", lambda spec, beta: 0.0)
    rc, _ = run(tmp_path, "verify", {"model": CANONICAL_MODEL, "betas": [0.5]})
    assert rc == EXIT_OK
    assert [name for name, *_ in probed] == ["factorization", "swap_identity"]
    for name, spec, A, B in probed:
        supports = [t.support for t in spec.interactions.values()]
        assert [list(A.region), list(B.region)] == [[(1,)], [(4,)]], name
        for probe in (A, B):
            assert any(probe.region.issubset(S) for S in supports), (name, probe.region)


def test_verify_passes_the_supercluster_check_on_a_class_of_several_pairs(
    tmp_path, capsys, monkeypatch
):
    # at n = 10 the reduced lattice L - closure(S0) keeps an interior, so the
    # class around the middle site has more pairs than (I0, J0); the
    # resummation, which costs most of an n = 10 run, is not this test's
    monkeypatch.setattr(expansion, "verify_resummation", lambda spec, beta: 0.0)
    payload = {"model": {**CANONICAL_MODEL, "n": 10}, "betas": [0.5]}
    rc, out = run(tmp_path, "verify", payload)
    assert rc == EXIT_OK
    report = json.loads((out / "verify_report.json").read_text())
    # an interior of 8 is over the swap sweep's cap; the supercluster check runs
    assert [s["name"] for s in report["skipped"]] == ["swap_identity"]
    lines = capsys.readouterr().out.splitlines()
    supercluster = [l for l in lines if "supercluster" in l]
    assert [l.split(" [")[0] for l in supercluster] == [
        "PASS supercluster_resummation_weight",
        "PASS supercluster_resummation_observable",
    ]
    assert all("[S0 around (5,) beta=0.5 pairs=4]" in l for l in supercluster)


def test_verify_skips_the_expansion_on_a_longdouble_without_64_mantissa_bits(
    tmp_path, capsys, monkeypatch
):
    # a longdouble that is float64 (eps 2^-52) would fail the expansion
    # checks at about 2e-10; each family is skipped by name instead, and
    # with no expansion identity checked the run fails
    monkeypatch.setattr(expansion, "EPS_EXT", np.finfo(np.float64).eps)
    rc, out = run(tmp_path, "verify", {"model": CANONICAL_MODEL, "betas": [0.5]})
    assert rc == EXIT_CHECK_FAILED
    report = strict_json(out / "verify_report.json")
    assert [c["name"] for c in report["checks"]] == ["partition_ratio_bound"]
    reason = "longdouble has a 53-bit mantissa; the terms need 64"
    assert report["skipped"] == [
        {"name": "resummation", "reason": reason},
        {"name": "term_norm_bound", "reason": reason},
        {"name": "factorization", "reason": reason},
        {"name": "swap_identity", "reason": reason},
        {"name": "supercluster_resummation", "reason": single_pair(3)},  # refused before a term
    ]
    lines = capsys.readouterr().out.splitlines()
    assert f"SKIP resummation: {reason}" in lines
    assert lines[-3] == NOTHING_EXPANDED  # after the SKIP lines, before the certificates


def test_verify_runs_on_a_q3_chain(tmp_path):
    # the probes are 2 S_z = diag(2, 0, -2), which a 3-level site carries: a
    # Pauli Z probe ended the run in a traceback
    rc, out = run(tmp_path, "verify", {"model": boson_model(6, 3), "betas": [0.5]})
    assert rc == EXIT_OK
    report = json.loads((out / "verify_report.json").read_text())
    assert all(c["pass"] for c in report["checks"])
    assert {family(c["name"]) for c in report["checks"]} == VERIFY_FAMILIES - {
        "supercluster_resummation"
    }
    assert report["skipped"] == [{"name": "supercluster_resummation", "reason": single_pair(3)}]


def test_verify_refuses_a_chain_above_the_dense_dimension(tmp_path, capsys):
    # 9 sites at q = 3 are 19683 dimensions: refused before any allocation
    payload = {"model": boson_model(9, 3), "betas": [0.5]}
    tracemalloc.start()
    try:
        rc, _ = run(tmp_path, "verify", payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == EXIT_CAP
    assert capsys.readouterr().err == (
        "size cap: dense operator on 9 sites of dimension 3: 19683 exceeds the cap 16384\n"
    )
    assert peak < 2**20


def test_decay_refuses_a_pauli_template_on_a_q3_chain_by_name(tmp_path, capsys):
    payload = {**DECAY_RUN, "model": boson_model(6, 3), "betas": [1.0]}
    rc, _ = run(tmp_path, "decay", payload)
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: operator 'X' acts on q = 2 sites; the model has q = 3\n"
    )


def test_verify_fails_on_an_error_that_is_not_a_refusal(tmp_path, monkeypatch):
    # only a refusal becomes a SKIP; any other ValueError stops the run
    def broken(*args):
        raise ValueError("broken inside the sweep")

    monkeypatch.setattr(expansion, "verify_swap_identity", broken)
    with pytest.raises(ValueError, match="broken inside the sweep"):
        run(tmp_path, "verify", {"model": CANONICAL_MODEL, "betas": [0.5]})


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
DECAY_RUN = {"model": CANONICAL_MODEL, "distances": [2, 3], "observables": DECAY_OBSERVABLES}

# a custom 5-site chain: N on every site, v = -0.1 N N on sites 1, 2 ([re, im] entries)
NUMBER_JSON = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]
NN_JSON = [[[0, 0]] * 4 for _ in range(3)] + [[[0, 0]] * 3 + [[-0.1, 0]]]


def custom_model(center):
    return {
        "model": "custom", "D": 1, "R": 1, "q": 2, "lattice": [[i] for i in range(5)],
        "onsite": [[[i], NUMBER_JSON] for i in range(5)],
        "interactions": [[center, [[1], [2]], NN_JSON]],
    }


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
        # a fractional number where an integer is meant is refused, not truncated
        ("count", {"D": 1.7, "R": 1, "k_max": 2}),
        ("count", {"D": 1, "R": 1.5, "k_max": 2}),
        ("count", {"D": 1, "R": 1, "k_max": 2.5}),
        ("ising", {"n": 6.5, "J": 1.0, "betas": [0.5]}),
        ("verify", {"model": {**CANONICAL_MODEL, "n": 6.5}, "betas": [1.0]}),
        ("verify", {"model": {**CANONICAL_MODEL, "R": 1.5}, "betas": [1.0]}),
        (
            "decay",
            {"model": CANONICAL_MODEL, "betas": [1.0], "distances": [2, 3.5],
             "observables": DECAY_OBSERVABLES},
        ),
        # each check's tolerance is fixed: a tolerances object is refused
        # whatever it holds (json.dumps writes Infinity and NaN)
        ("verify", {"model": CANONICAL_MODEL, "betas": [1.0], "tolerances": {"identity": math.inf}}),
        ("verify", {"model": CANONICAL_MODEL, "betas": [1.0], "tolerances": {"identity": math.nan}}),
        ("verify", {"model": CANONICAL_MODEL, "betas": [1.0], "tolerances": {"norm_slack": -1e-12}}),
        ("ising", {"n": 6, "J": 1.0, "betas": [0.5], "tolerances": {"xi_rel": math.inf}}),
        # an oracle with no decay to fit: no coupling, too few spins, or
        # tanh(beta J) rounded to 1
        ("ising", {"n": 6, "J": 0, "betas": [0.5]}),
        ("ising", {"n": 1, "J": 1.0, "betas": [0.5]}),
        ("ising", {"n": 2, "J": 1.0, "betas": [0.5]}),
        ("ising", {"n": 6, "J": 20.0, "betas": [1.0]}),
        # tanh(beta J) = 1e-100: every measured covariance is exactly 0
        ("ising", {"n": 10, "J": 1e-100, "betas": [1.0]}),
        # a fractional site coordinate is refused, not truncated to a duplicate
        ("certify", {"model": {**LATTICE_MODEL, "lattice": [[0], [1], [2], [3], [4], [4.5]]}}),
        ("certify", {"model": {**LATTICE_MODEL, "lattice": [[0], [1.5], [2], [3], [4], [5]]}}),
        # a coupling is one real number: a per-pair list is refused as not a
        # real number, whatever its pairs hold
        (
            "certify",
            {"model": {**CANONICAL_MODEL, "n": 5,
                       "J12": [[[1.5], [2], 0.02, 0], [[2], [1.5], 0.02, 0]]}},
        ),
        # ... and a fractional interaction center is refused, not truncated
        ("certify", {"model": custom_model([1.5])}),
        # a non-finite beta has no Gibbs state to check
        ("verify", {"model": CANONICAL_MODEL, "betas": [math.inf]}),
        ("verify", {"model": CANONICAL_MODEL, "betas": [math.nan]}),
        ("decay", {**DECAY_RUN, "betas": [math.inf]}),
        ("decay", {**DECAY_RUN, "betas": [math.nan]}),
        # a lattice with no sites has nothing to verify or certify
        ("verify", {"model": {**CANONICAL_MODEL, "n": 0}, "betas": [1.0]}),
        ("certify", {"model": {**CANONICAL_MODEL, "n": 0}}),
        ("certify", {"model": {**LATTICE_MODEL, "lattice": []}}),
        # no anchor: site 0 of an xxz chain meets no interaction, so every
        # covariance would read exactly 0 and the sweep nothing
        ("decay", {**DECAY_RUN, "betas": [1.0],
                   "observables": {"A": [[0, "X"]], "B": [[0, "X"]]}}),
        # a config number is a JSON number: not a bool, not a numeric string
        ("count", {"D": True, "R": "1", "k_max": 3.0}),
        ("count", {"D": 1, "R": "1", "k_max": 2}),
        ("ising", {"n": 6, "J": "1.0", "betas": [True]}),
        ("ising", {"n": 6, "J": 1.0, "betas": [True]}),
        ("verify", {"model": {**CANONICAL_MODEL, "lambda": "0.3"}, "betas": [1.0]}),
        ("verify", {"model": CANONICAL_MODEL, "betas": [1.0], "tolerances": {"identity": "1"}}),
        ("decay", {**DECAY_RUN, "betas": [1.0],
                   "observables": {**DECAY_OBSERVABLES, "anchor": True}}),
        ("certify", {"model": {**CANONICAL_MODEL, "J12": "0.02"}}),
        ("certify", {"model": {**CANONICAL_MODEL, "J3": True}}),
        # a per-pair list is not a real number, a bool in it or not
        (
            "certify",
            {"model": {**CANONICAL_MODEL, "n": 5,
                       "J12": [[1, 2, True, 0], [2, 1, True, 0]]}},
        ),
        (
            "certify",
            {"model": {**CANONICAL_MODEL, "n": 5,
                       "J12": [[True, 2, 0.02, 0], [2, True, 0.02, 0]]}},
        ),
        # an offset with more coordinates than the anchor has no site to act on
        ("decay", {**DECAY_RUN, "betas": [1.0],
                   "observables": {"A": [[[0, 3], "X"]], "B": [[[0, 7], "X"]], "anchor": 1}}),
        # d = 0 fits a variance and d < 0 a mirrored correlation, not a decay
        ("decay", {**DECAY_RUN, "betas": [1.0], "distances": [0, 2]}),
        ("decay", {**DECAY_RUN, "betas": [1.0], "distances": [-3, -2],
                   "observables": {**DECAY_OBSERVABLES, "anchor": 4}}),
        # an xxz model is a spin-1/2 chain
        ("certify", {"model": {**CANONICAL_MODEL, "q": 3}}),
        # decay_sweep reads the templates, the anchor and the distances
        ("decay", {**DECAY_RUN, "betas": [1.0],
                   "observables": {**DECAY_OBSERVABLES, "B": [[0, "Q"]]}}),
        ("decay", {**DECAY_RUN, "betas": [1.0],
                   "observables": {**DECAY_OBSERVABLES, "A": [[False, "X"]]}}),
        ("decay", {**DECAY_RUN, "betas": [1.0],
                   "observables": {**DECAY_OBSERVABLES, "anchor": [1.5]}}),
        ("decay", {**DECAY_RUN, "betas": [1.0],
                   "observables": {"A": [[0, "X"]], "anchor": 1}}),
        ("decay", {**DECAY_RUN, "betas": [1.0], "distances": []}),
        ("decay", {"model": CANONICAL_MODEL, "betas": [1.0],
                   "observables": DECAY_OBSERVABLES}),
        # the model block's reader names what it needs, and a site listed twice
        # was merged into one
        ("certify", {"model": {k: v for k, v in CANONICAL_MODEL.items() if k != "R"}}),
        ("certify", {"model": {k: v for k, v in LATTICE_MODEL.items() if k != "D"}}),
        ("certify", {"model": {k: v for k, v in LATTICE_MODEL.items() if k != "lattice"}}),
        ("certify", {"model": {**LATTICE_MODEL, "lattice": [[0], [1], [2], [1], [3], [4]]}}),
        # a null coupling was read as 0
        ("certify", {"model": {**CANONICAL_MODEL, "J12": None}}),
        # output_dir is a path string, checked even where --out overrides it
        ("verify", {"model": CANONICAL_MODEL, "betas": [1.0], "output_dir": 5}),
        ("verify", {"model": CANONICAL_MODEL, "betas": [1.0], "output_dir": ["a"]}),
    ],
    ids=[
        "verify-beta", "decay-entry", "decay-pauli", "decay-distance", "decay-anchor",
        "count-D", "ising-tol", "verify-n", "count-D-fraction", "count-R-fraction",
        "count-kmax-fraction", "ising-n-fraction", "verify-n-fraction",
        "verify-R-fraction", "decay-distance-fraction", "verify-tol-inf", "verify-tol-nan",
        "verify-tol-negative", "ising-tol-inf", "ising-J-zero", "ising-n-1", "ising-n-2",
        "ising-tanh-one", "ising-zero-covariance", "certify-site-fraction", "certify-site-fraction-inner",
        "certify-coupling-fraction", "certify-center-fraction", "verify-beta-inf",
        "verify-beta-nan", "decay-beta-inf", "decay-beta-nan", "verify-n-zero",
        "certify-n-zero", "certify-lattice-empty", "decay-anchor-missing",
        "count-bool-and-string", "count-R-string", "ising-J-string-beta-bool",
        "ising-beta-bool", "verify-lambda-string", "verify-tol-string",
        "decay-anchor-bool", "certify-J12-string", "certify-J3-bool",
        "certify-coupling-value-bool", "certify-coupling-site-bool",
        "decay-offset-too-long", "decay-distance-zero", "decay-distance-negative",
        "certify-xxz-q", "decay-pauli-unknown", "decay-offset-bool", "decay-anchor-fraction",
        "decay-B-missing", "decay-distances-empty", "decay-distances-missing", "certify-R-missing",
        "certify-D-missing", "certify-lattice-missing", "certify-site-repeated", "certify-J12-null",
        "verify-output-dir-int", "verify-output-dir-list",
    ],
)
def test_malformed_config_values_exit_config(tmp_path, capsys, command, payload):
    rc, _ = run(tmp_path, command, payload)
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


def test_an_output_directory_that_cannot_be_made_exits_config(tmp_path, capsys):
    # --out names the config file itself: no directory can be made there
    rc, _ = run(tmp_path, "certify", {"model": CANONICAL_MODEL}, outname="certify.json")
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: cannot make the output directory")


@pytest.mark.parametrize(
    "model, named",
    [
        ({**CANONICAL_MODEL, "lambda": math.nan}, "lambda = nan"),
        ({**CANONICAL_MODEL, "lambda": -math.inf}, "lambda = -inf"),
        ({**CANONICAL_MODEL, "J12": math.inf}, "J12 = inf"),
        ({**custom_model([1]), "onsite": [[[0], [[[0, 0], [math.nan, 0]], [[0, 0], [1, 0]]]]]
                                         + [[[i], NUMBER_JSON] for i in range(1, 5)]},
         "on-site term at (0,): matrix has a non-finite entry"),
    ],
    ids=["lambda-nan", "lambda-minus-inf", "J12-inf", "onsite-nan"],
)
def test_non_finite_model_numbers_exit_config_by_name(tmp_path, capsys, model, named):
    # json writes NaN and Infinity; a NaN passed the hermiticity check and an
    # inf coupling met 0 in a product, so the run ended in an SVD that did
    # not converge or a RuntimeWarning
    rc, _ = run(tmp_path, "certify", {"model": model})
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: bad model block:") and named in err


@pytest.mark.parametrize(
    "command, payload, named",
    [
        ("verify", {"model": CANONICAL_MODEL, "betas": [10**400]}, "bad beta"),
        ("certify", {"model": {**CANONICAL_MODEL, "lambda": 10**400}}, "lambda = 1000"),
        ("certify", {"model": {**CANONICAL_MODEL, "J12": 10**400}}, "J12 = 1000"),
        ("certify", {"model": {**CANONICAL_MODEL, "J3": -(10**400)}}, "J3 = -1000"),
    ],
    ids=["betas", "lambda", "J12", "J3"],
)
def test_a_number_too_large_for_a_float_exits_config_by_name(
    tmp_path, capsys, command, payload, named
):
    # json reads an integer of any size; float() of it raised OverflowError,
    # which ended the run in a traceback with exit 1, the code of a failed check
    rc, _ = run(tmp_path, command, payload)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err and "too large for a float" in err


@pytest.mark.parametrize(
    "block",
    [
        {"model": "xzz", "n": 4, "R": 1, "lambda": 0.3},
        {**custom_model([1]), "model": "xzz"},
    ],
    ids=["xxz-keys", "custom-keys"],
)
def test_an_unknown_model_kind_exits_config_by_name(tmp_path, capsys, block):
    # the kind was refused for an xxz key it did not read, or built as custom
    rc, out = run(tmp_path, "certify", {"model": block})
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: bad model block: unknown model 'xzz'")
    assert not (out / "certify_report.json").exists()


@pytest.mark.parametrize(
    "command, payload, key",
    [
        ("verify", {"model": CANONICAL_MODEL, "betas": [1.0], "beta": [2.0]}, "beta"),
        ("decay", {**DECAY_RUN, "betas": [1.0], "distance": [4]}, "distance"),
        ("count", {"D": 1, "R": 1, "kmax": 3}, "kmax"),
        ("ising", {"n": 6, "J": 1.0, "betas": [0.5], "j": 2.0}, "j"),
        # this run used to certify the lambda = 0 model and exit 0
        (
            "certify",
            {"model": {"n": 4, "R": 1, "lamda": 0.3, "seed": 7, "J12": 0.02, "J3": 0.02},
             "bogus": 1},
            "bogus",
        ),
        # inside the model block, per kind of model, and inside observables
        ("certify", {"model": {**CANONICAL_MODEL, "lamda": 0.3}}, "lamda"),
        ("certify", {"model": {**custom_model([1]), "lambda": 0.3}}, "lambda"),
        ("certify", {"model": {**LATTICE_MODEL, "n": 6}}, "n"),
        ("decay", {**DECAY_RUN, "betas": [1.0],
                   "observables": {**DECAY_OBSERVABLES, "anchr": 2}}, "anchr"),
        # each check has one fixed tolerance, and model.seed is the one seed
        ("verify", {"model": CANONICAL_MODEL, "betas": [1.0], "tolerances": {}}, "tolerances"),
        ("verify", {"model": CANONICAL_MODEL, "betas": [1.0], "seed": 7}, "seed"),
    ],
    ids=["verify", "decay", "count", "ising", "certify", "xxz-model", "custom-model",
         "model-n-and-lattice", "observables", "tolerances", "top-level-seed"],
)
def test_unread_config_keys_exit_config(tmp_path, capsys, command, payload, key):
    # a key that nothing reads would be silently ignored, its value never used
    rc, out = run(tmp_path, command, payload)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"unknown key {key!r}" in err
    assert not (out / f"{command}_report.json").exists()


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


@pytest.mark.parametrize(
    "command, payload, message",
    [
        # 15 sites leave 13 interior centers, over the resummation's 2^12
        ("verify", {"model": {**CANONICAL_MODEL, "n": 15}, "betas": [1.0]},
         "8192 configurations of an interior of size 13 exceed the cap 2^12"),
        ("decay", {**DECAY_RUN, "model": {**CANONICAL_MODEL, "n": 15}, "betas": [1.0]},
         "dense operator on 15 sites of dimension 2: 32768 exceeds the cap 16384"),
    ],
    ids=["verify-resummation", "decay-dense"],
)
def test_caps_exit_cap_with_the_library_message(tmp_path, capsys, command, payload, message):
    rc, _ = run(tmp_path, command, payload)
    assert rc == EXIT_CAP
    assert capsys.readouterr().err == f"size cap: {message}\n"


def test_count_cap(tmp_path):
    rc, _ = run(tmp_path, "count", {"D": 1, "R": 1, "k_max": 7})
    assert rc == EXIT_CAP


@pytest.mark.parametrize(
    "payload",
    [
        {"D": 1, "R": 1000, "k_max": 6},  # a 20001-site universe
        {"D": 3, "R": 1, "k_max": 6},  # C(1560, 5) = 7.7e13 subsets
        {"D": 1, "R": 10**6, "k_max": 2},  # few subsets, a dense 4e6 x 4e6 adjacency
    ],
    ids=["R-1000", "D3-k6", "k2-wide"],
)
def test_count_brute_force_size_cap(tmp_path, monkeypatch, capsys, payload):
    # the cap is decided from the closed-form universe size, before anything is built
    def refuse(*args):
        raise AssertionError("the universe was built")

    monkeypatch.setattr(cli, "build_universe", refuse)
    rc, _ = run(tmp_path, "count", payload)
    assert rc == EXIT_CAP
    assert capsys.readouterr().err.startswith("size cap: brute-force count")


def test_ising_oracle_run(tmp_path):
    rc, out = run(tmp_path, "ising", {"n": 6, "J": 1.0, "betas": [0.5]})
    assert rc == EXIT_OK
    report = json.loads((out / "ising_report.json").read_text())
    row = report["rows"][0]
    assert row["pass"]
    assert row["max_cov_deviation"] < 1e-10
    assert row["xi_rel_err"] < 1e-6
    assert (out / "ising_cov.csv").exists()


def test_ising_antiferromagnetic_run(tmp_path):
    # |Cov| = |tanh(beta J)|^d decays alike for J < 0, with alternating signs
    rc, out = run(tmp_path, "ising", {"n": 6, "J": -1.0, "betas": [0.5]})
    assert rc == EXIT_OK
    row = json.loads((out / "ising_report.json").read_text())["rows"][0]
    assert row["pass"]
    assert row["xi_exact"] == 1.295442784141215
    assert row["xi"] == pytest.approx(1.2954427841412157, rel=1e-12)


def test_ising_zero_covariance_is_named(tmp_path, capsys):
    rc, _ = run(tmp_path, "ising", {"n": 10, "J": 1e-100, "betas": [1.0]})
    assert rc == EXIT_CONFIG
    assert "the measured Cov(Z_0, Z_d) is exactly 0 at d = [1," in capsys.readouterr().err


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


def test_certify_custom_model(tmp_path):
    # the well-formed twin of the fractional-center case certifies
    rc, out = run(tmp_path, "certify", {"model": custom_model([1])})
    assert rc == EXIT_OK
    assert json.loads((out / "certify_report.json").read_text())["n_interactions"] == 1


def strict_json(path):
    """The report at path, refusing NaN and Infinity, which RFC 8259 JSON does not have."""

    def refuse(constant):
        raise ValueError(f"{constant} in {path.name}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_certify_reports_the_certificates_verify_reports(tmp_path, capsys):
    # the proof needs the normalized spec inside its hypothesis, so certify
    # reports and prints its certificate beside the configured spec's, as
    # verify does
    rc, out = run(tmp_path, "certify", {"model": CANONICAL_MODEL})
    assert rc == EXIT_OK
    certified = strict_json(out / "certify_report.json")
    assert capsys.readouterr().out.splitlines() == [
        "PASS certification",
        "certificate: a=0.111240126482 p=1.77984 decay_base=161.39 active=False",
        "certificate_normalized: a=0.203664591 p=3.25863 decay_base=452.67 active=False",
    ]
    rc, out = run(tmp_path, "verify", {"model": CANONICAL_MODEL, "betas": [0.5]})
    assert rc == EXIT_OK
    verified = strict_json(out / "verify_report.json")
    for key in ("certificate", "certificate_normalized"):
        assert certified[key] == verified[key], key
    assert certified["certificate"]["a"] == certified["a"]


def test_a_free_model_writes_a_null_prefactor_exponent(tmp_path):
    # a = 0 gives p = 0 and a prefactor exponent ln(1/2 + 1/(2p)) = inf, which
    # strict JSON writes as null
    zero = [[[0, 0]] * 4 for _ in range(4)]
    rc, out = run(tmp_path, "certify",
                  {"model": {**custom_model([1]), "interactions": [[[1], [[1], [2]], zero]]}})
    assert rc == EXIT_OK
    report = strict_json(out / "certify_report.json")
    for key in ("certificate", "certificate_normalized"):
        assert report[key]["p"] == 0.0 and report[key]["prefactor_exponent"] is None


BALL_OUTSIDE_MODEL = {**custom_model([0]), "interactions": [[[0], [[0], [1]], NN_JSON]]}


@pytest.mark.parametrize(
    "command, payload, code, line, report",
    [
        ("verify", [CANONICAL_MODEL], EXIT_CONFIG, "config error: config must be a JSON object",
         None),
        (
            "verify",
            {"model": CANONICAL_MODEL, "betas": []},
            EXIT_CONFIG,
            "config error: config needs a nonempty 'betas' list",
            None,
        ),
        ("count", {"D": 0}, EXIT_CONFIG, "config error: D, R and k_max must be positive", None),
        ("count", {"R": 0}, EXIT_CONFIG, "config error: D, R and k_max must be positive", None),
        ("count", {"k_max": 0}, EXIT_CONFIG, "config error: D, R and k_max must be positive",
         None),
        # a failed certification is the command's report, written by main,
        # with the interaction center to blame
        (
            "verify",
            {"model": BALL_OUTSIDE_MODEL, "betas": [0.5]},
            EXIT_CHECK_FAILED,
            "FAIL certification: interaction ball around (0,) sticks out of the lattice",
            {"certified": False, "center": [0], "command": "verify", "schema": SCHEMA_VERSION,
             "error": "interaction ball around (0,) sticks out of the lattice"},
        ),
    ],
    ids=["config-not-an-object", "empty-betas", "count-D-0", "count-R-0", "count-k_max-0",
         "verify-uncertifiable-model"],
)
def test_each_command_refusal_names_what_it_refuses(
    tmp_path, capsys, command, payload, code, line, report
):
    rc, out = run(tmp_path, command, payload)
    assert rc == code
    captured = capsys.readouterr()
    if report is None:  # a refused config: the reason on stderr, and no report
        assert (captured.out, captured.err) == ("", line + "\n")
        assert not list(out.glob("*"))
    else:
        assert (captured.out, captured.err) == (line + "\n", "")
        assert [p.name for p in out.glob("*")] == [f"{command}_report.json"]
        assert strict_json(out / f"{command}_report.json") == report


# (model block, refusal, center) of models outside the theorem's hypothesis
UNCERTIFIABLE = {
    "normalized-a-1.02": (
        {"n": 4, "R": 1, "lambda": 0.3, "seed": 7, "J12": 0.13, "J3": 0.02},
        "normalized spec: certified constant a = 1.0222 is not below 1",
        None,
    ),
    "raw-a-2.62": (
        {"n": 4, "R": 1, "lambda": 0.3, "seed": 7, "J12": 0.5, "J3": 0.02},
        "certified constant a = 2.6151 is not below 1",
        None,
    ),
    "ball-outside": (
        BALL_OUTSIDE_MODEL, "interaction ball around (0,) sticks out of the lattice", [0],
    ),
}
CHECKS = {
    expansion: ("verify_resummation", "term_norm_scan", "verify_factorization",
                "verify_swap_identity", "verify_supercluster_resummation", "partition_ratio"),
    gibbs: ("decay_sweep",),
}


@pytest.mark.parametrize(
    "command, case",
    [("verify", case) for case in UNCERTIFIABLE]
    + [("certify", case) for case in UNCERTIFIABLE]
    # decay measures the configured spec, which the normalized case certifies
    + [("decay", "raw-a-2.62"), ("decay", "ball-outside")],
)
def test_a_certification_failure_is_the_commands_report(
    tmp_path, capsys, monkeypatch, command, case
):
    # verify certifies the normalized spec before its checks; a model outside
    # the hypothesis costs no check and still gets its report
    for module, names in CHECKS.items():
        for name in names:
            monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("a check ran"))
    block, error, center = UNCERTIFIABLE[case]
    payload = {"verify": {"model": block, "betas": [0.5]},
               "decay": {**DECAY_RUN, "model": block, "betas": [0.5]},
               "certify": {"model": block}}[command]
    rc, out = run(tmp_path, command, payload)
    assert rc == EXIT_CHECK_FAILED
    assert capsys.readouterr().out == f"FAIL certification: {error}\n"
    assert [p.name for p in out.glob("*")] == [f"{command}_report.json"]
    assert strict_json(out / f"{command}_report.json") == {
        "certified": False, "error": error, "center": center,
        "command": command, "schema": SCHEMA_VERSION,
    }


def test_certify_failure_exit_code(tmp_path):
    payload = {"model": {"n": 4, "R": 1, "lambda": 0.3, "seed": 7, "J12": 3.0, "J3": 0.02}}
    rc, out = run(tmp_path, "certify", payload)
    assert rc == EXIT_CHECK_FAILED
    report = json.loads((out / "certify_report.json").read_text())
    assert report["certified"] is False


def test_certify_fails_a_model_whose_normalized_spec_has_no_form_bound(tmp_path, capsys):
    # a = 0.68 certifies the configured spec, but its normalized spec, on which
    # the partition ratios are bounded, reads a = 1.02: outside the hypothesis
    payload = {"model": {"n": 4, "R": 1, "lambda": 0.3, "seed": 7, "J12": 0.13, "J3": 0.02}}
    rc, out = run(tmp_path, "certify", payload)
    assert rc == EXIT_CHECK_FAILED
    report = json.loads((out / "certify_report.json").read_text())
    assert report["certified"] is False
    assert report["error"] == "normalized spec: certified constant a = 1.0222 is not below 1"
    assert capsys.readouterr().out == f"FAIL certification: {report['error']}\n"


def test_certify_non_hermitian_interaction_is_config_error(tmp_path, capsys):
    # v = -0.1 N(x)N on sites 2, 3 with v[3, 3] = -0.1 + 0.05j; the form-bound
    # certificate symmetrizes v, so only the hermiticity check rejects it
    number = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]  # entries are [re, im]
    v = [[[0, 0]] * 4 for _ in range(4)]
    v[3][3] = [-0.1, 0.05]
    block = {
        "model": "custom", "D": 1, "R": 1, "q": 2, "lattice": [[i] for i in range(5)],
        "onsite": [[[i], number] for i in range(5)],
        "interactions": [[[2], [[2], [3]], v]],
    }
    rc, out = run(tmp_path, "certify", {"model": block})
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "interaction at (2,)" in err
    assert not (out / "certify_report.json").exists()


def test_threads_flag_is_refused(tmp_path, capsys):
    # BLAS threads are pinned one way: by the environment, before starting
    cfg = write_cfg(tmp_path, "v.json", {"model": CANONICAL_MODEL, "betas": [1.0]})
    with pytest.raises(SystemExit) as refused:
        main(["certify", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"])
    assert refused.value.code == 2
    assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
