"""Shared test helpers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def outputs_at_blas_threads():
    """Run ``code`` in a fresh interpreter with a 1- and then a 2-thread BLAS
    pool; returns the two stdouts as bytes."""

    def run(code: str) -> list[bytes]:
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
            outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                       capture_output=True).stdout)
        return outs

    return run
