"""doqr benchmark: one workload, one seed, whole rounds for about --seconds.

    python3 bench/run.py --workload bivariate-session --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout: doqr is imported from ./src and the
CLI is called as ``python -m doqr.cli``.  The last line of stdout is one JSON
object {correct, attempted, failed, metrics}.  With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json; with --trace 1 the run records spans
around every call into doqr and reports the per-layer ones, and writes the
spans to bench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 5
DONE = object()


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def import_doqr() -> None:
    """Import doqr from this checkout's src/, and from nowhere else."""
    if not (SRC / "doqr" / "__init__.py").is_file():
        sys.exit(f"no doqr sources under {SRC}: run from a full checkout")
    sys.path.insert(0, str(SRC))
    mod = importlib.import_module("doqr")
    if Path(mod.__file__).resolve().parent != SRC / "doqr":
        sys.exit(f"imported doqr from {mod.__file__}, not from {SRC}")


def main() -> int:
    args = parse_args()
    # one process and no extra threads: BLAS threads would compete with the
    # benchmark for the machine's two cores and add noise
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_doqr()

    import tracing
    import workloads

    tracer = tracing.Tracer(enabled=bool(args.trace))
    # a directory of this run's own: a name made from the pid alone can be
    # shared with a concurrent run in another pid namespace, whose clean-up
    # would then delete this run's CSV files and working directory
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        ctx = workloads.Context(args.seed, tracer, workdir, SRC)
        units = workloads.units(args.workload, ctx)

        # set-up: importing doqr in a fresh interpreter plus making every
        # unit's inputs for a round.  It is timed SETUP_REPEATS times before
        # the first round and again before each later one, so that it
        # samples the whole run; the median is reported
        setups = []

        def setup(rnd: int) -> list:
            import_s = workloads.import_seconds(ctx)
            t0 = time.perf_counter()
            inputs = [u.prepare(rnd) for u in units]
            setups.append(import_s + time.perf_counter() - t0)
            return inputs

        for _ in range(SETUP_REPEATS):
            inputs = setup(0)

        # whole rounds while the next one, taken to last as long as the
        # mean round so far, is expected to fit, at least one; within a
        # round the units take turns item by item, so that every metric
        # samples the whole run and not one stretch of it
        start = time.perf_counter()
        rnd = 0
        while True:
            if rnd > 0:
                inputs = setup(rnd)
            turns = [(u.name, u.run(inp)) for u, inp in zip(units, inputs)]
            while turns:
                for turn in list(turns):
                    tracer.unit = turn[0]
                    if next(turn[1], DONE) is DONE:
                        turns.remove(turn)
            rnd += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rnd > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    e2e = workloads.end_to_end(ctx)
    e2e["setup_s"] = (statistics.median(setups), "s")
    e2e["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        layer = tracer.per_layer(names, [u.name for u in units])
        missing = sorted(set(names) - set(layer))
        if missing:
            sys.exit(f"traced run produced no spans for {missing}")
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = {"correct": not ctx.problems, "attempted": ctx.attempted,
              "failed": ctx.failed, "metrics": metrics}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    detail = {"args": vars(args), "rounds": rnd, "problems": ctx.problems[:50],
              "end_to_end": {k: v[0] for k, v in e2e.items()}, **result}
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        (OUT / f"trace-{tag}.json").write_text(json.dumps(tracer.spans) + "\n")
    for p in ctx.problems[:20]:
        print("CHECK FAILED:", p, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
