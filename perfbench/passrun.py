"""One benchmark pass in a fresh process, as a user's CLI run is one.

    python3 perfbench/passrun.py --workload NAME --seed N --workdir DIR \
        --result FILE [--trace FILE]

BLAS is pinned to one thread before numpy is imported.  The result file
gets the set-up time (imports plus spec construction), the peak resident
memory and the workload's raw outputs; with --trace the spans of the pass
go to their own file.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from envinfo import pin_blas_threads  # noqa: E402

pin_blas_threads()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--trace", type=Path, default=None)
    p.add_argument("--pass-id", type=int, default=0)
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import decorr.cli  # noqa: F401
    from workloads import WORKLOADS

    setup, run = WORKLOADS[args.workload]
    tracer = None
    if args.trace is not None:
        from tracing import Tracer

        tracer = Tracer(args.pass_id)
        tracer.install()
    span = tracer.span if tracer else (lambda name: nullcontext())
    with span("setup"):
        ctx = setup(args.seed)
    result = {"setup_s": time.perf_counter() - t0}
    args.workdir.mkdir(parents=True, exist_ok=True)
    with span("pass"):
        result["outputs"] = run(ctx, args.seed, args.workdir, lambda name: span(f"step.{name}"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.dump(args.trace)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
