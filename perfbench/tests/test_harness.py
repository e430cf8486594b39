"""Self-tests of the benchmark harness: python3 -m pytest -q perfbench/tests"""

import io
import json
import math
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks as ck  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _span(name, start, end, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent, "pass": 0, **attrs}


def test_self_time_on_synthetic_tree():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.5, 6.0, parent=0),  # overlaps a: covered once
        _span("a.child", 2.0, 3.0, parent=1),
        _span("c", 9.0, 12.0, parent=0),  # runs past its parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 6, 3 - 1, 2.5, 1.0, 3.0])


def test_layer_metrics_on_synthetic_tree():
    spans = [
        _span("expansion.yarotsky_term", 0.0, 4.0),
        _span("algebra.herm_exp", 0.5, 1.5, parent=0, ext=True),
        _span("algebra.lapack_eigh", 0.6, 0.9, parent=1, n3=8),
        _span("algebra.herm_exp", 2.0, 3.0, parent=0, ext=False),
        _span("algebra.herm_exp", 5.0, 5.5, ext=True),
        _span("kernels.brute_force_connected_count", 6.0, 7.0, subsets=10, connected=4),
    ]
    m = tracing.layer_metrics(spans)
    assert m["algebra.herm_exp.calls"] == 3
    assert m["algebra.herm_exp.ext.calls"] == 2
    assert m["algebra.herm_exp.self_s"] == pytest.approx(0.7 + 1.0 + 0.5)
    assert m["algebra.herm_exp.ext.self_s"] == pytest.approx(0.7 + 0.5)
    assert m["expansion.yarotsky_term.self_s"] == pytest.approx(2.0)
    assert m["expansion.yarotsky_term.summands"] == 2
    assert m["algebra.lapack_eigh.n3"] == 8
    assert m["kernels.brute_force_connected_count.useful_ratio"] == pytest.approx(0.4)
    assert set(m) | {"trace.overhead_s"} == set(run.units("per_layer"))


def test_self_times_within_pass_catches_ill_nested_spans():
    nested = [
        _span("setup", 0.0, 1.0),
        _span("model.xxz_spec", 0.2, 0.8, parent=0),
        _span("pass", 1.0, 10.0),
        _span("cli.run_decay", 1.0, 6.0, parent=2),
        _span("algebra.embed", 2.0, 5.0, parent=3),
        _span("gibbs.covariance", 6.0, 9.0, parent=2),
    ]
    assert tracing.root_time(nested) == pytest.approx(10.0)
    assert tracing.layer_self_total(nested) == pytest.approx(0.6 + 2.0 + 3.0 + 3.0)
    overlapping = nested[:5] + [_span("gibbs.covariance", 4.0, 11.0, parent=2)]
    assert tracing.layer_self_total(overlapping) > tracing.root_time(overlapping)


def test_ball_points_matches_universe():
    from decorr._kernels import build_universe

    for D, R, k in [(1, 1, 3), (2, 1, 4), (2, 2, 4), (3, 1, 2)]:
        assert tracing._ball_points(D, 2 * R * (k - 1)) == len(build_universe(D, R, k))


def test_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    names = list(run.units("end_to_end")) + list(run.units("per_layer")) + list(wl.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_precision_margin():
    checks = [ck.residual_check("a", 1e-12, 1e-10), ck.residual_check("b", 0.0, 1e-10),
              ck.check("c", True)]
    assert ck.precision_margin(checks) == pytest.approx(2.0)
    assert ck.precision_margin(checks[1:]) == ck.MARGIN_CAP
    assert ck.precision_margin([ck.residual_check("d", 1e-9, 1e-10)]) == pytest.approx(-1.0)


def test_sector_reference_matches_dense_decay():
    import decorr as dc

    spec = wl.chain(6, seed=3)
    dense = dict(dc.decay_sweep(spec, 5.0, [(0, "X")], [(0, "X")], [1, 2, 3], anchor=(1,),
                                strict=False).points)
    ref = ck.sector_covariances(spec, 5.0, 1, [1, 2, 3])
    scale = max(ref.values())
    assert all(abs(dense[d] - ref[d]) <= ck.DECAY_TOL * scale for d in ref)


# ---------------------------------------------------------------------------
# the harness end to end, with canned pass results instead of processes
# ---------------------------------------------------------------------------

def _counting_outputs():
    table = ck.COUNT_TABLE
    return {
        "count_exit": 0,
        "count_rows": [[2, 2, k, v, v] for k, v in enumerate(table[(2, 2)], start=1)],
        "count_cases": [[D, R, k, v, v] for (D, R) in wl.COUNT_CASES
                        for k, v in enumerate(table[(D, R)], start=1)],
    }


def _thermal_outputs(refs):
    J, beta = wl.ISING["J"], wl.ISING["beta"]
    decay = [[wl.DECAY_BETAS[0], d, c] for d, c in refs["decay"].items()]
    return {
        "decay_exit": 0,
        "decay": decay + [[wl.DECAY_BETAS[1], d, 1e-24] for d in refs["decay"]],
        "decay_xi": [[5.0, 0.32], [50.0, math.nan]],
        "ising_exit": 0,
        "ising_cov": [[i, j, math.tanh(beta * J) ** (j - i)]
                      for i in range(10) for j in range(i + 1, 10)],
        "ising_xi": -1.0 / math.log(math.tanh(beta * J)),
        "partition_ratio": [{"beta": b, "S": list(S), "ratio": 1.5, "chain_ok": True}
                            for b in wl.RATIO_BETAS for S in wl.connected_sets(8, 1, 3)],
    }


def _run_canned(monkeypatch, tmp_path, workload, outputs, refs, seed=7, trace=0, spans=None,
                seconds=0.0):
    def fake_pass(w, seed, run_dir, tag, trace=False, pass_id=0):
        out = {"setup_s": 0.5, "peak_rss_mb": 100.0, "outputs": outputs, "wall": 1.0,
               "seed": seed, "traced": trace}
        if trace:
            out["spans"] = spans(pass_id)
        return out

    monkeypatch.setattr(run, "run_pass", fake_pass)
    monkeypatch.setattr(run, "WORK", tmp_path)
    args = SimpleNamespace(workload=workload, seed=seed, seconds=seconds, trace=trace)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.measure(args, {seed: refs, 7: refs}, tmp_path, {})
    return code, json.loads(buf.getvalue().splitlines()[-1]), tmp_path / "results"


def test_clean_results_pass(monkeypatch, tmp_path):
    code, result, results = _run_canned(monkeypatch, tmp_path, "counting", _counting_outputs(),
                                        {}, seed=1)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.units("end_to_end"))
    record = json.loads((results / "counting-seed1-trace0.json").read_text())
    assert [ps["seed"] for ps in record["passes"]] == [7]  # counting has no seed


def test_perturbed_count_fails(monkeypatch, tmp_path):
    outputs = _counting_outputs()
    outputs["count_rows"][3][3] += 1  # enumerated 56097 against brute force 56096
    code, result, _ = _run_canned(monkeypatch, tmp_path, "counting", outputs, {})
    assert code == 1 and not result["correct"]
    assert result["failed"] == 1 and result["attempted"] > 1


def test_perturbed_covariance_fails(monkeypatch, tmp_path):
    refs = {"decay": {d: 1e-4 * 0.3 ** d for d in wl.DECAY_DISTANCES}}
    code, result, _ = _run_canned(monkeypatch, tmp_path, "thermal-dense", _thermal_outputs(refs),
                                  refs)
    assert code == 0 and result["failed"] == 0
    outputs = _thermal_outputs(refs)
    outputs["decay"][2][2] *= 1 + 1e-6
    code, result, results = _run_canned(monkeypatch, tmp_path, "thermal-dense", outputs, refs)
    assert code == 1 and result["failed"] == 1
    record = json.loads((results / "thermal-dense-seed7-trace0.json").read_text())
    assert [c["name"] for c in record["checks"] if not c["ok"]] == ["decay.beta5_vs_sectors"]


def test_seed_reaches_expansion_weights(monkeypatch, tmp_path):
    """Pass 1 is the gate's instance, every later one --seed's; all are checked."""
    outputs = {"verify_exit": 0, "verify_checks": [], "resummation": [], "factorization": [],
               "swap": {"rel_residual": 0.0, "per_pair_max": 2e-10, "pairs": ck.SWAP_PAIRS},
               "supercluster": {"weight": 0.0, "observable": 0.0, "pairs": ck.CLASS_PAIRS,
                                "ratio": 0.5}}
    clock = SimpleNamespace(perf_counter=iter(range(0, 100, 5)).__next__)  # 5 s a pass
    monkeypatch.setattr(run, "time", clock)
    code, result, results = _run_canned(monkeypatch, tmp_path, "expansion-weights", outputs, {},
                                        seed=9, seconds=12)
    record = json.loads((results / "expansion-weights-seed9-trace0.json").read_text())
    assert [ps["seed"] for ps in record["passes"]] == [7, 9, 9]
    assert code == 1 and result["failed"] == 3  # swap.per_pair, on every pass


def test_expansion_instances():
    """chain5 and chain10 follow the pass's seed; chain6 and chain9 stay on the gate's."""
    specs = wl.setup_expansion(9)
    for n, seed in ((5, 9), (6, wl.GATE_SEED), (9, wl.GATE_SEED), (10, 9)):
        other = 9 if seed == wl.GATE_SEED else wl.GATE_SEED
        field = specs[n].onsite[(0,)]
        assert (field == wl.chain(n, seed).onsite[(0,)]).all()
        assert not (field == wl.chain(n, other).onsite[(0,)]).all()


def _traced_spans(pass_id, calls=2):
    spans = [_span("setup", 0.0, 1.0), _span("pass", 1.0, 9.0)]
    spans += [_span("algebra.herm_exp", 2.0 + i, 2.5 + i, parent=1, ext=False)
              for i in range(calls)]
    return spans


def test_trace_run_compares_two_traced_passes(monkeypatch, tmp_path):
    code, result, results = _run_canned(monkeypatch, tmp_path, "counting", _counting_outputs(),
                                        {}, trace=1, spans=_traced_spans)
    assert code == 0 and set(result["metrics"]) == set(run.units("per_layer"))
    assert result["metrics"]["algebra.herm_exp.calls"]["value"] == 2
    record = json.loads((results / "counting-seed7-trace1.json").read_text())
    assert [ps["traced"] for ps in record["passes"]] == [True, False, True]
    code, result, _ = _run_canned(monkeypatch, tmp_path, "counting", _counting_outputs(), {},
                                  trace=1, spans=lambda i: _traced_spans(i, calls=2 + i))
    assert code == 1 and result["failed"] == 1  # trace.counts_repeat


def test_missing_output_is_a_failed_check():
    assert [c["ok"] for c in ck.check_pass("counting", {}, {})] == [False]


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

TRACED_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import decorr as dc, decorr.cli
import tracing, workloads as wl
from decorr.lattice import Region, chain_geometry
tracer = tracing.Tracer()
tracer.install()
spec = wl.chain(5, seed=1)
dc.verify_resummation(spec, 2.0)
dc.partition_ratio(Region([(2,)]), dc.normalize_nonpositive(spec), 1.0)
state = dc.gibbs_state(dc.build_restricted(spec, spec.sites)[2], 1.0)
dc.covariance(state, wl.pauli(0, "Z"), wl.pauli(4, "Z"))
dc.count_connected_sets((0,), 3, chain_geometry(9))
decorr._kernels.brute_force_connected_count(1, 1, 3)
m = tracing.layer_metrics(tracer.spans)
print(json.dumps({k: v for k, v in m.items() if not k.endswith("_s")}))
"""


def test_two_traced_runs_give_identical_counts():
    runs = [
        json.loads(subprocess.run([sys.executable, "-c", TRACED_SCRIPT, str(ROOT)],
                                  capture_output=True, text=True, check=True,
                                  timeout=120).stdout)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    # every layer named by the traced functions was reached through its import path
    for name in ("algebra.herm_exp.calls", "algebra.lapack_eigh.calls", "algebra.embed.calls",
                 "model.build_restricted.calls", "gibbs.covariance.calls",
                 "expansion.yarotsky_term.summands", "expansion.partition_ratio.calls",
                 "lattice.enumerate_connected_sets.sets",
                 "kernels.brute_force_connected_count.subsets"):
        assert runs[0][name] > 0, name


def test_refuses_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "counting",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
