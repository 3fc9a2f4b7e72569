#!/usr/bin/env python3
"""Run one nisim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decide-probe --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a separate traced cycle with ``--trace 1``.
The line before it is the run record (machine, versions, seed, failure
counts, tail percentile).  See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import traceback
from pathlib import Path

# Hold the BLAS pool at no more than the core count, before numpy loads.
NPROC = os.cpu_count() or 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _cur = os.environ.get(_var, "")
    _n = int(_cur) if _cur.isdigit() and int(_cur) > 0 else NPROC
    os.environ[_var] = str(min(_n, NPROC))

RUN_PY = Path(__file__).resolve()
ROOT = RUN_PY.parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import nisim, build the inputs and exit (times set-up)")
    return p.parse_args(argv)


def traced_run(module, args, workdir: Path, records, harness, tracing):
    """One traced cycle (set-up included): its per-layer metrics and its checked records."""
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        cycle = module.build(args.seed, workdir / "traced")
        traced = []
        for i, op in enumerate(cycle):
            tracer.tags = dict(op.tags)
            traced.append(harness.run_op(op, i))
    finally:
        uninstall()
    metrics = tracing.layer_metrics(tracer.spans, len(cycle))

    # tracing overhead: the traced cycle against the median untraced time of each op
    untraced = {}
    for r in records:
        if r.error is None:
            untraced.setdefault(r.index, []).append(r.seconds)
    both = [r for r in traced if r.error is None and r.index in untraced]
    plain = sum(statistics.median(untraced[r.index]) for r in both)
    overhead = sum(r.seconds for r in both) - plain
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / plain if plain else 0.0, "ratio")

    counts = {"rounding.mc.nondeterministic_jobs": 0, "rounding.mc.thread_variant_jobs": 0}
    if hasattr(module, "determinism_counts"):
        # repeat each Monte Carlo op untraced, with the same seed and threads
        mc = [i for i, op in enumerate(cycle) if "job" in op.tags]
        repeat = [harness.run_op(cycle[i], i) for i in mc]
        counts = module.determinism_counts([traced[i] for i in mc], repeat)
    for k, v in counts.items():
        metrics[k] = (v, "count")
    metrics.update({k: (v, "s") for k, v in harness.import_breakdown(SRC).items()})
    for rec in traced:
        harness.check_record(rec)
    return metrics, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nisim" / "__init__.py").is_file():
        print(f"error: no nisim sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import harness, tracing
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    module = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    traced = []
    try:
        if args.setup_only:
            module.build(args.seed, workdir)
            return 0
        cycle = module.build(args.seed, workdir / "main")
        harness.run_op(cycle[0], 0)  # let lazy imports and caches settle
        cycles = math.ceil(args.seconds / module.CYCLE_SECONDS)
        # The set-up runs are spread between the cycles of the timed phase, so
        # their median samples the machine over the whole run, not one moment.
        records, wall, setups = [], 0.0, []
        for part in range(SETUP_REPEATS):
            setups.append(harness.time_setup(RUN_PY, args.workload, args.seed))
            chunk = (cycles * (part + 1)) // SETUP_REPEATS - (cycles * part) // SETUP_REPEATS
            recs, secs = harness.run_timed(cycle, chunk)
            records += recs
            wall += secs
        metrics, facts = harness.summarize(records, wall, harness.peak_rss_mb())
        metrics["setup_s"] = (statistics.median(setups), "s")
        facts.update(ops_per_cycle=len(cycle), cycles=cycles, setup_runs_s=setups)
        if args.trace:
            metrics, traced = traced_run(module, args, workdir, records, harness, tracing)
            facts["traced_failures"] = harness.failure_summary(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    checked = records + traced
    problems = sum(1 for r in checked if r.problem)
    record = harness.run_record(args.workload, args.seed, args.seconds,
                                module.MC_THREADS, facts)
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps({
        "correct": problems == 0,
        "attempted": len(checked),
        "failed": sum(1 for r in checked if r.error or r.problem),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
