"""cli-coarse: in-process ``nisim.cli.main`` calls on coarse grids.

One of the three parts of the cli-mc-spectral workload.

Most ops are ``decide --n 1`` on 2x2 sources at delta in [0.45, 0.7],
where the value grid fits the work cap, so grid enumeration does the
search and calibrate + verify, ``maximal_correlation``, JSON I/O and the
CLI do the rest; the oracle does none of it.  This is the bypass for
decide-probe optimisations and guards the enumeration engine.  The rest
are ``maxcorr``, ``bounds``, ``examples`` (the corpus), ``n0`` and
exact-mode ``simulate``.

The distribution, target and function files are written during set-up,
so import and file creation fall in ``setup_s``.  At these deltas the
acceptance floor is negative and the mean windows cover [-1, 1], so the
all-zero pair is a grid witness for every query: every decide must
ACCEPT with a witness that re-verifies.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from .. import checks
from ..harness import Op
from .sources import certified_pair, joint, moments_of, random_table, target_probs

MC_THREADS = (1,)
CYCLE_SECONDS = 1.5  # op time of one cycle on the reference machine
# delta = 0.6 makes up 10 of the 27 ops, so the median falls well inside
# one op class, and the tail inside the heaviest enumerations at 0.45
DELTAS = (0.45, 0.5, 0.55, 0.6, 0.6, 0.6, 0.6, 0.6, 0.65, 0.7)
REPORT_N0 = (0.45, 0.55, 0.65)  # deltas whose file-target decide adds --report-n0


def _cli(argv: list[str]) -> dict:
    import nisim.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = nisim.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"nisim {argv[0]} exited with {code}")
    return json.loads(out.getvalue())


def _check_maxcorr(table):
    rho = checks.max_correlation(table)

    def check(out):
        if abs(out["rho"] - rho) > 1e-9:
            return f"rho {out['rho']} differs from the SVD value {rho}"
        lower = 1.0 - 2.0 * math.acos(rho) / math.pi
        got = out.get("dsbs_lower", out.get("lower"))
        if abs(got - lower) > 1e-9:
            return f"achievable bound {got} differs from {lower}"
        return None
    return check


def _check_dsbs(rho):
    a, b = (1 + rho) / 4, (1 - rho) / 4

    def check(out):
        if not checks.close(out["probs"], [[a, b], [b, a]], 1e-12):
            return f"dsbs:{rho} example table differs from [[(1+rho)/4, (1-rho)/4], ...]"
        return None
    return check


def _check_simulate(table, n, f, g):
    mf, mg, c = checks.pair_moments(table, n, f, g)

    def check(out):
        if out["mode"] != "exact":
            return f"expected exact statistics, got {out['mode']}"
        if not checks.close([out["mean_f"], out["mean_g"], out["corr_fg"]], [mf, mg, c], 1e-9):
            return "exact statistics differ from the tensor contraction"
        return None
    return check


def _write(path: Path, payload) -> str:
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def build(seed: int, workdir: Path) -> list[Op]:
    from nisim.spaces import make_dsbs, uniform_triple

    rng = np.random.default_rng([seed, 2])
    workdir.mkdir(parents=True, exist_ok=True)
    dists = [joint(random_table(rng, 2, 2)) for _ in range(4)]
    dists += [uniform_triple(), make_dsbs(float(rng.uniform(0.3, 0.7)))]
    paths = [_write(workdir / f"dist{i}.json", d.to_json()) for i, d in enumerate(dists)]

    cycle: list[Op] = []
    for k, delta in enumerate(DELTAS):
        # a DSBS target and a general 2x2 target file, alternating Case I and II
        for j, kind in enumerate(("dsbs", "file")):
            i = (2 * k + j) % len(dists)
            table = dists[i].table
            if kind == "dsbs":
                rho = round(float(rng.uniform(0.1, 0.9)), 6)
                target, q = f"dsbs:{rho}", checks.Query(table, delta, 1, target=(0.0, 0.0, rho),
                                                        certified=True)
            else:
                _, _, moments = certified_pair(rng, table, "I" if k % 2 else "II")
                probs = target_probs(moments)
                target = _write(workdir / f"target{k}.json", {"probs": probs})
                q = checks.Query(table, delta, 1, target=moments_of(probs), certified=True)
            argv = ["decide", "--dist", paths[i], "--target", target, "--delta", str(delta),
                    "--n", "1"] + (["--report-n0"] if kind == "file" and delta in REPORT_N0 else [])
            cycle.append(Op(f"decide/{kind}/delta{delta}", lambda a=argv: _cli(a),
                            lambda v, q=q: checks.check_verdict(q, v)))

    for i in (0, 4):
        cycle.append(Op("maxcorr", lambda p=paths[i]: _cli(["maxcorr", p]),
                        _check_maxcorr(dists[i].table)))
    cycle.append(Op("bounds", lambda p=paths[1]: _cli(["bounds", "--dist", p]),
                    _check_maxcorr(dists[1].table)))
    for rho in np.round(rng.uniform(0.1, 0.9, size=2), 6):
        cycle.append(Op("examples", lambda r=float(rho): _cli(["examples", "--name", f"dsbs:{r}"]),
                        _check_dsbs(float(rho))))
    for i, delta in ((2, 0.3), (5, 0.5)):
        argv = ["n0", "--dist", paths[i], "--delta", str(delta)]
        cycle.append(Op("n0", lambda a=argv: _cli(a),
                        lambda out, t=dists[i].table, d=delta: checks.check_n0(t, d, out)))

    from nisim.strategies import TableStrategy

    for i, n in ((0, 3), (3, 4)):
        dist = dists[i]
        f = rng.uniform(-1, 1, size=2**n)
        g = rng.uniform(-1, 1, size=2**n)
        fp = _write(workdir / f"f{i}.json", TableStrategy(dist.row_space, n, f).to_json_dict())
        gp = _write(workdir / f"g{i}.json", TableStrategy(dist.col_space, n, g).to_json_dict())
        argv = ["simulate", "--dist", paths[i], "--f", fp, "--g", gp, "--seed", str(seed),
                "--threads", "1"]
        cycle.append(Op("simulate/exact", lambda a=argv: _cli(a),
                        _check_simulate(dist.table, n, f, g)))
    return cycle
