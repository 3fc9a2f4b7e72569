"""Bundled example sources.

Three families:

* ``triple``: uniform on {(0,0), (0,1), (1,0)}.  Maximal correlation 1/2;
  a balanced pair on one copy reaches inner product at most 1/4, while the
  many-copy limit reaches the DSBS at 1/3.

* ``dsbs:<rho>``: the doubly symmetric binary source.

* ``alpha:<alpha>``: a two-component bipartite source: a low-correlation
  block of total mass 1-alpha (complete bipartite, independent within the
  block) plus a perfectly correlated matching of mass alpha.  Its maximal
  correlation is 1 because of the perfect component, yet any small-n
  search underperforms badly: samples rarely hit the matching until the
  number of copies passes about 1/alpha, at which point the reachable
  correlation jumps toward 1.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, ParameterRangeError
from .spaces import JointDistribution, make_dsbs, uniform_triple


def alpha_component_graph(alpha: float) -> JointDistribution:
    """Union of an independent block L0..L5 (mass 1-alpha) and a perfect
    matching H0, H1 (mass alpha)."""
    if not 0.0 < alpha < 1.0:
        raise ParameterRangeError(f"component mass must lie in (0, 1), got {alpha}")
    table = np.zeros((8, 8))
    table[:6, :6] = (1.0 - alpha) / 36
    table[6, 6] = table[7, 7] = alpha / 2
    atoms = [f"L{i}" for i in range(6)] + ["H0", "H1"]
    return JointDistribution(atoms, atoms, table)


def examples_corpus() -> dict[str, JointDistribution]:
    """The fixed bundle shipped with the command-line tool."""
    return {
        "triple": uniform_triple(),
        "dsbs:0.49": make_dsbs(0.49),
        "dsbs:0.5": make_dsbs(0.5),
        "alpha:0.25": alpha_component_graph(0.25),
    }


def corpus_entry(name: str) -> JointDistribution:
    """Resolve a corpus name: 'triple', 'dsbs:<rho>', or 'alpha:<alpha>'."""
    if name == "triple":
        return uniform_triple()
    if name.startswith("dsbs:"):
        try:
            rho = float(name.split(":", 1)[1])
        except ValueError:
            raise InputError(f"cannot parse correlation in {name!r}") from None
        return make_dsbs(rho)
    if name.startswith("alpha:"):
        try:
            a = float(name.split(":", 1)[1])
        except ValueError:
            raise InputError(f"cannot parse component mass in {name!r}") from None
        return alpha_component_graph(a)
    raise InputError(
        f"unknown example {name!r}; use 'triple', 'dsbs:<rho>', or 'alpha:<alpha>'"
    )
