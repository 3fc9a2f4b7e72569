"""Spans around each layer's public entry points, installed from outside.

``decision``, ``rounding`` and ``cli`` import their callees by name, so a
wrapper is installed in every ``nisim`` namespace that holds the function
(``nisim.decision.maximal_correlation`` as well as
``nisim.maxcorr.maximal_correlation``).  ``linprog`` is looked up from
``scipy.optimize`` at call time and is wrapped there.  Private helpers
stay unwrapped.

A span records its name, start, end and the span that caused it; spans
opened on Monte Carlo worker threads take the main thread's innermost
open span as their cause.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("spaces", "maxcorr", "fourier", "regularity", "gaussian", "strategies",
          "rounding", "decision", "corpus", "cli")


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    tags: dict
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.tags: dict = {}  # attributes of the op being run, copied into its spans
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main[-1] if self._main and stack is not self._main else None
        span = Span(name, parent, time.perf_counter(), self.tags)
        with self._lock:
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name: str, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                tracer.end(span)
            if count is not None:
                count(span, args, kwargs, out)
            return out

        return traced


# -- what gets wrapped ---------------------------------------------------------


def _rows(span, args, kwargs, out):
    span.attrs["rows"] = int(args[1].shape[0])


def _coeffs(span, args, kwargs, out):
    poly = args[0] if hasattr(args[0], "coeffs") else out
    span.attrs["coeffs"] = len(poly.coeffs)


def _restrictions(span, args, kwargs, out):
    span.attrs["restrictions"] = out.evaluations


def _stats(span, args, kwargs, out):
    span.attrs["mode"] = out.mode
    span.attrs["samples"] = out.n_samples
    span.attrs["threads"] = kwargs.get("threads", 1)


def _enum(span, args, kwargs, out):
    span.attrs["returned"] = True


# (defining module, attribute, span name, counter)
FUNCTIONS = [
    ("nisim.spaces", "make_dsbs", "spaces.build", None),
    ("nisim.spaces", "uniform_triple", "spaces.build", None),
    ("nisim.spaces", "tensor_power", "spaces.build", None),
    ("nisim.spaces", "tv_distance", "spaces.tv", None),
    ("nisim.maxcorr", "maximal_correlation", "maxcorr", None),
    ("nisim.maxcorr", "witsenhausen_bounds", "maxcorr", None),
    ("nisim.fourier", "build_basis", "fourier.basis", None),
    ("nisim.fourier", "transform", "fourier.transform", _coeffs),
    ("nisim.fourier", "inverse_transform", "fourier.transform", _coeffs),
    ("nisim.fourier", "noise_operator", "fourier.noise", _coeffs),
    ("nisim.fourier", "influences", "fourier.influences", _coeffs),
    ("nisim.fourier", "influence", "fourier.influences", _coeffs),
    ("nisim.fourier", "total_influence", "fourier.tail", _coeffs),
    ("nisim.fourier", "degree_tail_mass", "fourier.tail", _coeffs),
    ("nisim.fourier", "truncate_degree", "fourier.tail", _coeffs),
    ("nisim.fourier", "restrict", "fourier.restrict", _coeffs),
    ("nisim.regularity", "smoothing_params", "regularity.recipe", None),
    ("nisim.regularity", "smoothing_params_from_log_eta", "regularity.recipe", None),
    ("nisim.regularity", "regularity_params", "regularity.recipe", None),
    ("nisim.regularity", "high_influence_set", "regularity.high_influence", None),
    ("nisim.regularity", "joint_high_influence_set", "regularity.high_influence", None),
    ("nisim.regularity", "restriction_regular_probability", "regularity.regular_prob",
     _restrictions),
    ("nisim.gaussian", "std_normal_cdf", "gaussian", None),
    ("nisim.gaussian", "std_normal_quantile", "gaussian", None),
    ("nisim.gaussian", "bivariate_cdf", "gaussian", None),
    ("nisim.gaussian", "threshold_for_mean", "gaussian", None),
    ("nisim.gaussian", "gamma_bar", "gaussian", None),
    ("nisim.gaussian", "gamma_under", "gaussian", None),
    ("nisim.gaussian", "berry_esseen_sample_count", "gaussian", None),
    ("nisim.strategies", "strategy_from_json", "strategies.json", None),
    ("nisim.rounding", "gaussian_simulator_strategy", "rounding.lift", None),
    ("nisim.rounding", "lift_hybrid", "rounding.lift", None),
    ("nisim.decision", "n0_chain", "decision.n0_chain", None),
    ("nisim.decision", "brute_force_bmip", "decision.enum", _enum),
    ("nisim.decision", "oracle_max_balanced_ip", "decision.oracle", None),
    ("nisim.decision", "decide_gap_nis", "decision.decide", None),
    ("nisim.decision", "decide_2x2", "decision.decide", None),
    ("nisim.decision", "round_pair", "decision.round", None),
    ("nisim.decision", "randomized_round", "decision.round", None),
    ("nisim.corpus", "corpus_entry", "corpus", None),
    ("nisim.corpus", "examples_corpus", "corpus", None),
    ("nisim.corpus", "alpha_component_graph", "corpus", None),
    ("nisim.cli", "main", "cli.main", None),
]


def install(tracer: Tracer):
    """Wrap every listed entry point in each namespace that holds it; return an undo."""
    import scipy.optimize

    import nisim.cli
    import nisim.decision
    import nisim.rounding
    import nisim.spaces
    import nisim.strategies

    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                     else getattr(owner, attr)))
        setattr(owner, attr, new)

    namespaces = [m for k, m in sorted(sys.modules.items())
                  if m is not None and (k == "nisim" or k.startswith("nisim."))]
    for module, attr, name, count in FUNCTIONS:
        original = getattr(sys.modules[module], attr)
        wrapped = tracer.wrap(original, name, count)
        for ns in namespaces:
            if ns.__dict__.get(attr) is original:
                patch(ns, attr, wrapped)

    # the verifier inside decision and the statistics harness everywhere else
    stats = nisim.rounding.estimate_strategy_stats
    for ns in namespaces:
        if ns.__dict__.get("estimate_strategy_stats") is stats:
            name = "decision.verify" if ns is nisim.decision else "rounding.stats"
            patch(ns, "estimate_strategy_stats", tracer.wrap(stats, name, _stats))

    patch(scipy.optimize, "linprog", tracer.wrap(scipy.optimize.linprog, "decision.box_lp"))
    table = nisim.strategies.TableStrategy
    patch(table, "evaluate", tracer.wrap(table.evaluate, "strategies.evaluate", _rows))
    joint = nisim.spaces.JointDistribution
    patch(joint, "to_json", tracer.wrap(joint.to_json, "spaces.json"))
    from_json = joint.__dict__["from_json"].__func__
    patch(joint, "from_json", classmethod(tracer.wrap(from_json, "spaces.json")))

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return uninstall


# -- per-layer metrics ------------------------------------------------------------


def layer_of(name: str) -> str:
    # the verifier span runs the rounding layer's statistics code on decision's behalf
    return "rounding" if name == "decision.verify" else name.split(".")[0]


def _union_length(intervals, lo, hi) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - _union_length(children.get(i, []), s.start, s.end)
            for i, s in enumerate(spans)]


def _outermost(spans: list[Span], prefix: str) -> list[Span]:
    """Spans of a group that no span of the same group encloses (no double counting)."""
    out = []
    for s in spans:
        if not s.name.startswith(prefix):
            continue
        p = s.parent
        while p is not None and not spans[p].name.startswith(prefix):
            p = spans[p].parent
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans: list[Span], ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer counts and seconds from one traced cycle of ``ops`` ops."""
    def named(name):
        return [s for s in spans if s.name == name]

    def secs(prefix, pred=lambda s: True):
        return sum(s.end - s.start for s in _outermost(spans, prefix) if pred(s))

    m: dict[str, tuple[float, str]] = {}
    for key in ("oracle", "box_lp", "enum", "verify"):
        m[f"decision.{key}.calls"] = (len(named(f"decision.{key}")), "count")
        m[f"decision.{key}.s"] = (secs(f"decision.{key}"), "s")
    enum = named("decision.enum")
    fit = sum(1 for s in enum if s.attrs.get("returned"))
    m["decision.enum.fit_ratio"] = (fit / len(enum) if enum else 0.0, "ratio")
    m["decision.depths"] = (len(enum) / ops, "levels/op")
    m["decision.n0_chain.s"] = (secs("decision.n0_chain"), "s")

    mc_calls = named("maxcorr")
    m["maxcorr.calls"] = (len(mc_calls), "count")
    m["maxcorr.s"] = (secs("maxcorr"), "s")
    m["maxcorr.calls_per_op"] = (len(mc_calls) / ops, "calls/op")

    mc = [s for s in named("rounding.stats") if s.attrs.get("mode", "").endswith("monte_carlo")]
    m["rounding.mc.samples"] = (sum(s.attrs["samples"] for s in mc), "count")
    m["rounding.mc.s"] = (sum(s.end - s.start for s in mc), "s")
    for kind in ("generic", "rng_rounded", "lifted"):
        for threads in (1, 2):
            part = [s for s in mc if s.tags.get("kind") == kind and s.attrs["threads"] == threads]
            busy = sum(s.end - s.start for s in part)
            rate = sum(s.attrs["samples"] for s in part) / busy if busy else 0.0
            m[f"rounding.mc.samples_per_s.{kind}.t{threads}"] = (rate, "1/s")
    m["rounding.lift.s"] = (secs("rounding.lift"), "s")

    ev = named("strategies.evaluate")
    m["strategies.evaluate.rows"] = (sum(s.attrs.get("rows", 0) for s in ev), "count")
    m["strategies.evaluate.s"] = (secs("strategies.evaluate"), "s")
    m["gaussian.calls"] = (len(named("gaussian")), "count")
    m["gaussian.s"] = (secs("gaussian"), "s")

    for fam in ("dense", "sparse"):
        def in_family(s, fam=fam):
            return s.tags.get("family") == fam
        for key in ("transform", "noise", "influences", "tail", "restrict"):
            m[f"fourier.{key}.s.{fam}"] = (secs(f"fourier.{key}", in_family), "s")
        coeffs = sum(s.attrs.get("coeffs", 0) for s in spans
                     if s.name.startswith("fourier.") and in_family(s))
        m[f"fourier.coeffs.{fam}"] = (coeffs, "count")

    rp = named("regularity.regular_prob")
    m["regularity.regular_prob.s"] = (secs("regularity.regular_prob"), "s")
    m["regularity.restrictions"] = (sum(s.attrs.get("restrictions", 0) for s in rp), "count")
    m["regularity.high_influence.s"] = (secs("regularity.high_influence"), "s")
    m["spaces.json.s"] = (secs("spaces.json"), "s")

    own = self_times(spans)
    m["cli.main.self_s"] = (sum(t for s, t in zip(spans, own) if s.name == "cli.main"), "s")
    for layer in LAYERS:
        total = sum(t for s, t in zip(spans, own) if layer_of(s.name) == layer)
        m[f"layer.{layer}.self_s"] = (total, "s")
    m["trace.spans"] = (len(spans), "count")
    return m
