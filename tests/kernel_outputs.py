"""Print the outputs that must not depend on the machine, as one JSON object.

``python kernel_outputs.py RUNS`` runs each ``[name, argv]`` pair of the JSON
list RUNS through ``nisim.cli.main`` and then a seeded library corpus: exact
``estimate_strategy_stats``, ``transform``, ``noise_operator``,
``TableStrategy.mean``, ``TableStrategy.norm`` and ``decide_gap_nis`` on
random 2-4-atom sources, and ``bivariate_cdf`` on a grid.
``tests/test_cli.py`` runs it under several OpenBLAS kernels, one BLAS
thread and numpy's CPU-feature mask, and compares the objects.  JSON prints
each float with ``repr``, so equal objects mean equal bits.
"""

import io
import json
import sys
from contextlib import redirect_stdout

import numpy as np

from nisim import (
    FiniteSpace,
    JointDistribution,
    TableStrategy,
    bivariate_cdf,
    decide_gap_nis,
    estimate_strategy_stats,
    noise_operator,
    transform,
)
from nisim.cli import main

CORPUS_SOURCES = 24
NOISE_RATES = (0.3, 0.77, 0.91)
NORM_ORDERS = (1.0, 1.5, 2.0, 3.0, 4.0)


def cli_outputs(runs) -> dict:
    outputs = {}
    for name, argv in runs:
        text = io.StringIO()
        with redirect_stdout(text):
            code = main(argv)
        outputs[name] = [code, text.getvalue()]
    return outputs


def corpus_outputs(seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(CORPUS_SOURCES):
        qa, qb = (int(q) for q in rng.integers(2, 5, size=2))
        table = rng.dirichlet(np.ones(qa * qb)).reshape(qa, qb)
        dist = JointDistribution([f"a{i}" for i in range(qa)], [f"b{j}" for j in range(qb)], table)
        n = 2 if qa * qb <= 9 else 1
        f = TableStrategy(dist.row_space, n, rng.uniform(-1.0, 1.0, qa**n))
        g = TableStrategy(dist.col_space, n, rng.uniform(-1.0, 1.0, qb**n))
        stats = estimate_strategy_stats(f, g, dist, mode="exact").as_dict()
        poly = transform(f)
        rho, delta = float(rng.uniform(0.05, 0.95)), float(rng.choice([0.05, 0.1, 0.3, 0.45]))
        verdict = decide_gap_nis(dist, rho, delta, 2).as_dict()
        # the ceiling is the source's rho from LAPACK's SVD, which no fixed-order sum covers yet
        del verdict["thresholds"]["ceiling"]
        rows.append({
            "stats": stats,
            "transform": [poly.keys.tolist(), poly.values.tolist()],
            "noise": [noise_operator(poly, gamma).values.tolist() for gamma in NOISE_RATES],
            "mean": [f.mean(), g.mean()],
            "norm": [f.norm(p) for p in NORM_ORDERS],
            "decide": verdict,
        })
    # noise factors gamma^k up to degree n, beyond the corpus's depth 2
    for q, n in ((2, 8), (3, 6), (4, 5)):
        space = FiniteSpace([f"x{i}" for i in range(q)], rng.dirichlet(np.ones(q)))
        poly = transform(TableStrategy(space, n, rng.uniform(-1.0, 1.0, q**n)))
        rows.append([noise_operator(poly, gamma).values.tolist() for gamma in NOISE_RATES])
    grid = np.linspace(-2.0, 2.0, 9).tolist()
    rows.append([bivariate_cdf(a, b, rho) for a in grid for b in grid
                 for rho in (-0.95, -0.4, 0.3, 0.85)])
    return rows


if __name__ == "__main__":
    print(json.dumps({"cli": cli_outputs(json.loads(sys.argv[1])), "corpus": corpus_outputs()}))
