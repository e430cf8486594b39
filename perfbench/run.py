"""decorr benchmark: three workloads, fresh-process passes, checked results.

    python3 perfbench/run.py --workload {expansion-weights,thermal-dense,counting}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Closed loop, one client: passes run one
after another, each in a fresh Python process with BLAS pinned to one
thread, until --seconds have been spent and at least one pass has run on
--seed's instance.  --seed is the XXZ disorder seed of thermal-dense and
of the resummation and supercluster steps of expansion-weights, whose
other steps always run the acceptance gate's instance (workloads.py says
why); counting has no randomness.  References are computed before the
first pass, outside the timed region, and every pass is checked against
them.

--trace 0 reports the end-to-end metrics:
  wall_s                seconds of one pass process, median over passes
  setup_s               imports plus spec construction, median over passes
  peak_rss_mb           peak resident memory of a pass process, median
  precision_margin_dec  min over residual checks of log10(tol / residual)
                        on the acceptance gate's instance (seed 7)
The first pass of a seeded workload's run is on the gate's instance, the
others on --seed's.  Residuals are rounding noise whose size changes from
instance to instance (the beta = 5 decay margin spans 0.8 to 1.6 decades
over seeds 1-48), so precision is compared on one fixed instance; every
pass is checked and counts towards the timings.
--trace 1 alternates traced and untraced passes, all on --seed's instance,
until there are at least two traced passes and one untraced one, and
reports the per-layer metrics of the traced ones (tracing.py) and
trace.overhead_s; all spans go to .perfbench_work/traces/.  Each run also
leaves its environment block, checks and passes in .perfbench_work/results/.
Metric units are read from BENCHMARK.json.

The last line of standard output is the JSON result.  Exit code 1 means a
check failed, 2 that there is no decorr source tree to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path[:0] = [str(SRC), str(HERE)]

from envinfo import environment_block, pin_blas_threads  # noqa: E402

pin_blas_threads()  # before numpy is imported, here and in every pass process

import checks as ck  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

GATE_SEED = wl.GATE_SEED
PASS_TIMEOUT_S = 150


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit of BENCHMARK.json's "end_to_end" or "per_layer" list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_pass(workload, seed, run_dir, tag, trace=False, pass_id=0) -> dict:
    """Run one pass process; its wall time is taken here, around the process."""
    result = run_dir / f"{tag}.json"
    spans = run_dir / f"{tag}.spans.json"
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(run_dir / tag), "--result", str(result),
           "--pass-id", str(pass_id)]
    cmd += ["--trace", str(spans)] if trace else []
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=pin_blas_threads(dict(os.environ)), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"pass process {tag} failed ({proc.returncode}):\n{proc.stderr}")
    out = json.loads(result.read_text())
    out.update(wall=wall, seed=seed, traced=trace)
    if trace:
        out["spans"] = json.loads(spans.read_text())
    return out


def _summary(values) -> str:
    return (f"median {statistics.median(values):.4g} (min {min(values):.4g}, "
            f"max {max(values):.4g}, n={len(values)})")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=GATE_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "decorr" / "__init__.py").is_file():
        print(f"no decorr sources under {SRC}: nothing to benchmark", file=sys.stderr)
        return 2

    env = environment_block()
    print("environment:", json.dumps(env, sort_keys=True))
    if env["blas_pin"] != "confirmed":
        print(f"WARNING: BLAS thread pin {env['blas_pin']}")
    import decorr.cli  # noqa: F401  -- byte-compiles the package before any timing

    refs = {seed: ck.references(args.workload, seed) for seed in {args.seed, GATE_SEED}}
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, refs, run_dir, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, refs, run_dir, env) -> int:
    w = args.workload

    def seed_of(i: int) -> int:
        """Instance of pass i: the gate's first, then --seed's (seeded workloads)."""
        return args.seed if w in wl.SEEDED and (i > 0 or args.trace) else GATE_SEED

    def more(passes) -> bool:
        n_traced = sum(ps["traced"] for ps in passes)
        return (not passes or time.perf_counter() - t_begin < args.seconds
                or all(ps["seed"] != seed_of(1) for ps in passes)
                or (args.trace and (n_traced < 2 or n_traced == len(passes))))

    passes = []
    t_begin = time.perf_counter()
    while more(passes):
        i = len(passes)
        traced = bool(args.trace) and i % 2 == 0
        seed = seed_of(i)
        passes.append(run_pass(w, seed, run_dir, f"pass{i}", trace=traced, pass_id=i))
        ps = passes[-1]
        print(f"pass {i + 1} ({'traced' if traced else 'timed'}, seed {seed}): "
              f"wall {ps['wall']:.3f} s, setup {ps['setup_s']:.3f} s, "
              f"peak rss {ps['peak_rss_mb']:.1f} MB")

    all_checks, gate_checks = [], []
    for i, ps in enumerate(passes):
        cs = ck.check_pass(w, ps["outputs"], refs[ps["seed"]])
        all_checks += cs
        if ps["seed"] == GATE_SEED:
            gate_checks += cs
        for c in cs:
            if not c["ok"]:
                print(f"FAIL pass {i + 1}: {c['name']} residual={c['residual']} tol={c['tol']}")
    if w == "thermal-dense":
        xi = passes[0]["outputs"]["decay_xi"]
        print("decay fits (reported, not checked): " + ", ".join(f"xi({b:g})={x!r}" for b, x in xi))

    untraced = [ps for ps in passes if not ps["traced"]]
    if args.trace:
        metrics, unit = trace_metrics(w, args.seed, passes, all_checks), units("per_layer")
    else:
        walls = [ps["wall"] for ps in untraced]
        setups = [ps["setup_s"] for ps in untraced]
        metrics, unit = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(ps["peak_rss_mb"] for ps in untraced),
            "precision_margin_dec": ck.precision_margin(gate_checks),
        }, units("end_to_end")
        print(f"wall_s {_summary(walls)} s; setup_s {_summary(setups)} s")
    attempted, failed = len(all_checks), sum(not c["ok"] for c in all_checks)
    print(f"checks: {attempted} attempted, {failed} failed; checks_failed "
          f"{failed / attempted:.4g} share")
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {unit[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }
    record = WORK / "results" / f"{w}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({
        **result, "environment": env, "checks": all_checks,
        "passes": [{k: ps[k] for k in ("seed", "traced", "wall", "setup_s", "peak_rss_mb")}
                   for ps in passes],
    }, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def trace_metrics(workload, seed, passes, all_checks) -> dict:
    """Per-layer metrics: counts of the first traced pass, median times."""
    traced = [ps for ps in passes if ps["traced"]]
    per_pass = [tracing.layer_metrics(ps["spans"]) for ps in traced]
    unit = units("per_layer")
    metrics = {}
    for name in unit:
        if name == "trace.overhead_s":
            metrics[name] = (statistics.median(ps["wall"] for ps in traced)
                             - statistics.median(ps["wall"] for ps in passes if not ps["traced"]))
        elif unit[name] == "s":
            metrics[name] = statistics.median(m[name] for m in per_pass)
        else:
            metrics[name] = per_pass[0][name]
    counts = [{k: v for k, v in m.items() if unit[k] != "s"} for m in per_pass]
    all_checks.append(ck.check("trace.counts_repeat", all(c == counts[0] for c in counts)))
    for ps in traced:
        busy, spanned = tracing.layer_self_total(ps["spans"]), tracing.root_time(ps["spans"])
        all_checks.append(ck.check("trace.self_times_within_pass", busy <= spanned,
                                   "bound", busy, spanned))
        print(f"traced pass: set-up and run spans {spanned:.3f} s, "
              f"per-layer self times sum to {busy:.3f} s")
    artifact = WORK / "traces" / f"{workload}-seed{seed}.json"
    artifact.parent.mkdir(parents=True, exist_ok=True)
    artifact.write_text(json.dumps([s for ps in traced for s in ps["spans"]]))
    print(f"spans of {len(traced)} traced passes in {artifact}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
