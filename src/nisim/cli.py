"""Command-line front end.

Subcommands: maxcorr, bounds, fourier, regularity, n0, decide, simulate,
examples.  All reports are JSON with a ``nisim_format`` version field and
an echoed seed where randomness is involved; byte-stable for fixed inputs
and seeds.  Exit codes: 0 success, 1 domain error or refused allocation,
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .corpus import corpus_entry, examples_corpus
from .decision import (
    ChainConstants,
    decide_2x2,
    decide_gap_nis,
    n0_chain,
)
from .errors import NisimError
from .fourier import degree_tail_mass, influences, transform
from .maxcorr import maximal_correlation, witsenhausen_bounds
from .regularity import (
    regularity_params,
    restriction_regular_probability,
    joint_high_influence_set,
)
from .rounding import estimate_strategy_stats
from .spaces import EmpiricalJoint2x2, JointDistribution, json_floats, tv_distance
from .strategies import strategy_from_json

FORMAT_VERSION = 1


def _emit(payload: dict) -> None:
    payload = {"nisim_format": FORMAT_VERSION, **payload}
    print(json.dumps(payload, indent=2, sort_keys=True))


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise NisimError(f"input file {path!r} is not UTF-8 text") from None


def _load_dist(path: str) -> JointDistribution:
    return JointDistribution.from_json(_read_text(path))


def _load_strategy(path: str):
    return strategy_from_json(_read_text(path))


def _parse_target(text: str) -> EmpiricalJoint2x2:
    if text.startswith("dsbs:"):
        try:
            rho = float(text.split(":", 1)[1])
        except ValueError:
            raise NisimError(f"cannot parse correlation in target {text!r}") from None
        return EmpiricalJoint2x2.from_dsbs(rho)
    try:
        d = json.loads(_read_text(text))
    except json.JSONDecodeError as exc:
        raise NisimError(f"target file {text!r} is not valid JSON: {exc}") from None
    if not isinstance(d, dict) or "probs" not in d:
        raise NisimError(f"target file {text!r} needs a 'probs' 2x2 table")
    return EmpiricalJoint2x2.from_table(json_floats(d["probs"], f"target file {text!r} 'probs'"))


def _parse_constants(text: str | None) -> ChainConstants:
    if not text:
        return ChainConstants()
    vals = {}
    for part in text.split(","):
        if "=" not in part:
            raise NisimError(f"constants must look like C_smooth=1,C_tau=1,C_be=1; got {part!r}")
        key, raw = part.split("=", 1)
        key = key.strip()
        if key not in ("C_smooth", "C_tau", "C_be"):
            raise NisimError(f"unknown constant {key!r}")
        try:
            vals[key] = float(raw)
        except ValueError:
            raise NisimError(f"cannot parse the value of constant {key!r}: {raw!r}") from None
    return ChainConstants(**vals)


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {seed}")
    return seed


def _threads(text: str) -> int:
    threads = int(text)
    if threads < 1:
        raise argparse.ArgumentTypeError(f"thread count must be positive, got {threads}")
    return threads


def _polynomial_from_file(path: str):
    strat = _load_strategy(path)
    return transform(strat), strat


# -- subcommand handlers ---------------------------------------------------------


def _cmd_maxcorr(args) -> None:
    report = maximal_correlation(_load_dist(args.dist))
    _emit(report.as_dict())


def _cmd_bounds(args) -> None:
    report = maximal_correlation(_load_dist(args.dist))
    lower, upper = witsenhausen_bounds(report.rho)
    _emit({"rho": report.rho, "lower": lower, "upper": upper})


def _cmd_fourier(args) -> None:
    poly, strat = _polynomial_from_file(args.function)
    wanted = [w.strip() for w in args.report.split(",") if w.strip()]
    out: dict = {"n": strat.n, "q": strat.space.q}
    for item in wanted:
        if item == "influences":
            inf = influences(poly)
            out["influences"] = inf.tolist()
            out["total_influence"] = float(np.sum(inf))
        elif item.startswith("tail:"):
            try:
                d = int(item.split(":", 1)[1])
            except ValueError:
                raise NisimError(f"cannot parse the degree in report item {item!r}") from None
            out[f"tail_mass_above_{d}"] = degree_tail_mass(poly, d)
        elif item == "mean":
            out["mean"] = poly.mean()
        elif item == "var":
            out["var"] = poly.variance()
        elif item == "degree":
            out["degree"] = poly.degree()
        else:
            raise NisimError(
                f"unknown report item {item!r}; use influences, tail:<d>, mean, var, degree"
            )
    _emit(out)


def _cmd_regularity(args) -> None:
    poly, strat = _polynomial_from_file(args.function)
    alpha = min(strat.space.alpha, 0.5)
    params = regularity_params(args.d, args.tau, alpha)
    H = joint_high_influence_set(poly, poly, params)
    mode = "exact" if args.mc is None else "monte_carlo"
    prob = restriction_regular_probability(
        poly, H, args.tau, mode=mode, samples=args.mc, seed=args.seed
    )
    _emit(
        {
            "params": params.as_dict(),
            "H": list(H),
            "regular_probability": prob.as_dict(),
            "seed": args.seed,
        }
    )


def _cmd_n0(args) -> None:
    chain = n0_chain(_load_dist(args.dist), args.delta, _parse_constants(args.constants))
    _emit(chain.as_dict())


def _cmd_decide(args) -> None:
    dist = _load_dist(args.dist)
    target = _parse_target(args.target)
    constants = _parse_constants(args.constants)
    if target.mean_u == 0.0 and target.mean_v == 0.0 and target.corr_uv >= 0.0:
        verdict = decide_gap_nis(
            dist, target.corr_uv, args.delta, args.n,
            constants=constants, report_n0=args.report_n0,
        )
    else:
        verdict = decide_2x2(
            dist, target, args.delta, args.n,
            constants=constants, report_n0=args.report_n0,
        )
    _emit(verdict.as_dict())


def _cmd_simulate(args) -> None:
    dist = _load_dist(args.dist)
    f = _load_strategy(args.f)
    g = _load_strategy(args.g)
    stats = estimate_strategy_stats(
        f, g, dist, n_samples=args.samples, seed=args.seed,
        mode="monte_carlo" if args.force_mc else "auto", threads=args.threads,
    )
    out = stats.as_dict()
    out["seed"] = args.seed
    if args.target:
        target = _parse_target(args.target)
        out["target"] = target.as_dict()
        out["tv_to_target"] = tv_distance(stats.joint, target)
    _emit(out)


def _cmd_examples(args) -> None:
    if args.list:
        _emit({"available": sorted(examples_corpus().keys()),
               "families": ["triple", "dsbs:<rho>", "alpha:<alpha>"]})
        return
    if not args.name:
        raise NisimError("examples needs --name or --list")
    dist = corpus_entry(args.name)
    text = dist.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        _emit({"written": args.out, "name": args.name})
    else:
        print(text)


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nisim",
        description=(
            "Non-interactive simulation toolkit: maximal correlation, Fourier "
            "reports, regularity, sample-count chains, gap decisions, and "
            "Monte Carlo strategy simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("maxcorr", help="maximal correlation of a distribution JSON")
    p.add_argument("dist", help="path to a distribution JSON")
    p.set_defaults(func=_cmd_maxcorr)

    p = sub.add_parser("bounds", help="achievable/ceiling DSBS correlation bounds")
    p.add_argument("--dist", required=True, help="path to a distribution JSON")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("fourier", help="spectral report for a function JSON")
    p.add_argument("function", help="path to a function JSON (values or coeffs)")
    p.add_argument(
        "--report",
        default="mean,var,influences",
        help="comma list: influences, tail:<d>, mean, var, degree",
    )
    p.set_defaults(func=_cmd_fourier)

    p = sub.add_parser("regularity", help="high-influence set and restriction regularity")
    p.add_argument("function", help="path to a function JSON")
    p.add_argument("--d", type=int, required=True, help="degree cutoff")
    p.add_argument("--tau", type=float, required=True, help="influence threshold")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="exhaustive restriction enumeration (the default)")
    mode.add_argument("--mc", type=int, default=None, metavar="SAMPLES",
                      help="Monte Carlo restriction sampling instead of exact")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_regularity)

    p = sub.add_parser("n0", help="full parameter chain for a source and gap budget")
    p.add_argument("--dist", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--constants", default=None, help="C_smooth=1,C_tau=1,C_be=1")
    p.set_defaults(func=_cmd_n0)

    p = sub.add_parser("decide", help="gap decision for a 2x2 target")
    p.add_argument("--dist", required=True)
    p.add_argument("--target", required=True, help="dsbs:<rho> or a 2x2 target JSON path")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, default=1, help="search depth in tensor powers")
    p.add_argument("--report-n0", action="store_true", help="attach the parameter chain")
    p.add_argument("--constants", default=None, help="C_smooth=1,C_tau=1,C_be=1")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("simulate", help="Monte Carlo statistics of a strategy pair")
    p.add_argument("--dist", required=True)
    p.add_argument("--f", required=True, help="Alice's function JSON")
    p.add_argument("--g", required=True, help="Bob's function JSON")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--target", default=None, help="dsbs:<rho> or 2x2 JSON for TV reporting")
    p.add_argument("--force-mc", action="store_true",
                   help="skip exact enumeration even when it fits")
    p.add_argument("--threads", type=_threads, default=1,
                   help="Monte Carlo worker threads")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("examples", help="write a bundled example distribution")
    p.add_argument("--name", default=None, help="triple, dsbs:<rho>, or alpha:<alpha>")
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    p.add_argument("--list", action="store_true", help="list bundled names")
    p.set_defaults(func=_cmd_examples)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: building one costs more than a small command."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except (NisimError, OSError, MemoryError) as exc:
        # a bare MemoryError (a Python list too long for the host) has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
