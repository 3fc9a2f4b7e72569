"""Closed-loop timing, summary statistics and the run record.

One caller in one process runs a workload's op cycle back to back: each
op starts when the previous one returns and its output has been checked.
A run is a whole number of cycles, sized so that the op time covers the
requested seconds on the reference machine.
"""

from __future__ import annotations

import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile


@dataclass
class Op:
    """One timed call into the program and the certificate for its output."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    tags: dict = field(default_factory=dict)


@dataclass
class Record:
    op: Op
    index: int  # position in the cycle
    seconds: float
    result: Any = None
    error: str | None = None  # exception type and message when the op raised
    problem: str | None = None  # certificate failure


def run_op(op: Op, index: int) -> Record:
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a raising op is a failed op, not a crash of the run
        return Record(op, index, time.perf_counter() - start,
                      error=f"{type(exc).__name__}: {exc}"[:200])
    return Record(op, index, time.perf_counter() - start, result)


def check_record(rec: Record) -> None:
    """Judge a record's output by its certificate, then drop the output."""
    if rec.error is None:
        try:
            rec.problem = rec.op.check(rec.result)
        except Exception:
            rec.problem = "check raised: " + traceback.format_exc(limit=1)[-200:]
    rec.result = None


def run_timed(cycle: list[Op], cycles: int) -> tuple[list[Record], float]:
    """Run the cycle ``cycles`` times; return the records and the op wall time.

    Each output is checked as soon as its op returns and then dropped, so
    stored outputs do not grow the process; checking is left out of the
    returned wall time.  A fixed number of whole cycles gives every run
    the same multiset of ops, so the percentiles and the throughput do
    not depend on how fast the machine happened to be.
    """
    records: list[Record] = []
    checking = 0.0
    t0 = time.perf_counter()
    for _ in range(cycles):
        for i, op in enumerate(cycle):
            rec = run_op(op, i)
            start = time.perf_counter()
            check_record(rec)
            checking += time.perf_counter() - start
            records.append(rec)
    return records, time.perf_counter() - t0 - checking


def summarize(records: list[Record], wall: float, rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics and the facts the run record adds to them."""
    ok = sorted(r.seconds for r in records if r.error is None and r.problem is None)
    attempted = len(records)
    failed = attempted - len(ok)
    if not ok:
        raise RuntimeError("every op failed; no timing to report")
    if len(ok) > TAIL_BEYOND:
        tail = ok[len(ok) - TAIL_BEYOND - 1]
        tail_pct = 100.0 * (len(ok) - TAIL_BEYOND) / len(ok)
    else:
        tail, tail_pct = ok[-1], 100.0
    metrics = {
        "op_s.p50": (statistics.median(ok), "s"),
        "op_s.tail": (tail, "s"),
        "ops_per_s": (len(ok) / wall, "ops/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    facts = {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "timed_ops": len(ok),
        "tail_percentile": round(tail_pct, 3),
        "timed_wall_s": wall,
        "failures": failure_summary(records),
    }
    return metrics, facts


def failure_summary(records: list[Record]) -> dict:
    out: dict[str, int] = {}
    for r in records:
        why = r.error or r.problem
        if why:
            key = f"{r.op.label}: {why.split(':')[0] if r.error else why}"
            out[key] = out.get(key, 0) + 1
    return out


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up time ------------------------------------------------------------


def time_setup(run_py: Path, workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports nisim and builds the inputs."""
    cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr[-500:]}")
    return elapsed


# -- import breakdown ---------------------------------------------------------


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_breakdown(src_dir: Path) -> dict[str, float]:
    """``python -X importtime -c 'import nisim'`` as total and scipy seconds.

    The tree is printed children first, indented two spaces per level; the
    scipy share is the cumulative time of each scipy module not nested in
    another scipy module.
    """
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nisim"],
                          capture_output=True, text=True, env=env, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import of nisim failed: {proc.stderr[-500:]}")
    total = scipy = 0.0
    # (depth, scipy seconds already counted in the subtree) for lines awaiting their parent
    pending: list[tuple[int, float]] = []
    for line in proc.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        cum = int(m.group(2)) / 1e6
        depth = len(m.group(3)) // 2
        name = m.group(4)
        counted = sum(c for d, c in pending if d > depth)
        pending = [p for p in pending if p[0] <= depth]
        if name == "scipy" or name.startswith("scipy."):
            scipy += cum - counted
            counted = cum
        if name == "nisim":
            total = cum
        pending.append((depth, counted))
    return {"import.total_s": total, "import.scipy_s": scipy}


# -- run record ---------------------------------------------------------------


def blas_threads() -> int | None:
    """Size of the OpenBLAS pool numpy loaded, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_record(workload: str, seed: int, seconds: int, mc_threads, facts: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "mc_threads": list(mc_threads),
        "load": "closed loop, one caller, one process",
        **facts,
    }
