"""Finite probability spaces and joint distributions.

Core representations used everywhere else in the package: a finite
probability space with named atoms, a joint distribution over a product
of two such spaces, i.i.d. tensor powers, total variation distance,
and the 2x2 outcome table of a binary pair, which is both what a
strategy pair produces and the type of a decision target.

Conventions
-----------
* Probabilities are float64.  Construction renormalizes once and records
  the pre-correction residual; input drift beyond ``SUM_TOL`` is an error.
* Atoms with zero probability are dropped at construction; the original
  labels are kept in ``dropped_atoms`` metadata.
* Tensor-power atom labels are the coordinate labels joined with ``"|"``.
  JSON parsing rejects base labels containing the separator.
* All objects are immutable after construction (arrays have the
  writeable flag cleared) and safe to share across threads.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .errors import InputError, ParameterRangeError, ResourceLimitError
from .util import CELL_CAP, kron_power, power_exceeds

SUM_TOL = 1e-12
ATOM_SEPARATOR = "|"


def json_list(value, what: str) -> list:
    """A JSON array field; ``InputError`` naming ``what`` for anything else."""
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


def json_object(text: str, what: str) -> dict:
    """Parse ``text`` as a JSON object; ``InputError`` naming ``what`` otherwise."""
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from None
    if not isinstance(d, dict):
        raise InputError(f"{what} must be an object")
    return d


def json_floats(value, what: str) -> np.ndarray:
    """A JSON number (or nested number array) as floats; ``InputError`` for
    strings, booleans, objects, nulls, ragged nesting, NaN or infinities."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        raise InputError(f"{what} must be a rectangular array, not ragged") from None
    if arr.dtype.kind not in "iuf" or not np.all(np.isfinite(arr)):
        raise InputError(f"{what} must be finite numbers")
    return arr.astype(float)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class FiniteSpace:
    """A finite probability space with ordered, named atoms.

    Every listed atom has strictly positive probability; zero-probability
    atoms passed to the constructor are trimmed and remembered in
    ``dropped_atoms``.
    """

    __slots__ = ("atoms", "probs", "dropped_atoms", "normalization_residual", "_index")

    def __init__(self, atoms: Sequence[str], probs: Sequence[float]):
        atoms = [str(a) for a in atoms]
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or len(atoms) != p.shape[0]:
            raise InputError("atoms and probs must be 1-d sequences of equal length")
        if len(atoms) == 0:
            raise InputError("a probability space needs at least one atom")
        if len(set(atoms)) != len(atoms):
            raise InputError("atom labels must be unique")
        if not np.all(np.isfinite(p)):
            raise InputError("probabilities must be finite")
        if np.any(p < 0):
            raise InputError("probabilities must be nonnegative")
        residual = float(p.sum() - 1.0)
        if abs(residual) > SUM_TOL:
            raise InputError(
                f"probabilities sum to {p.sum():.17g}, off by {residual:.3g} (tolerance {SUM_TOL})"
            )
        keep = p > 0.0
        if not keep.any():
            raise InputError("all atoms have zero probability")
        self.dropped_atoms = tuple(a for a, k in zip(atoms, keep) if not k)
        self.atoms = tuple(a for a, k in zip(atoms, keep) if k)
        p = p[keep]
        self.normalization_residual = residual
        self.probs = _freeze(p / p.sum())
        self._index = {a: i for i, a in enumerate(self.atoms)}

    @property
    def q(self) -> int:
        """Number of atoms."""
        return len(self.atoms)

    @property
    def alpha(self) -> float:
        """Minimum atom probability."""
        return float(self.probs.min())

    def index(self, atom: str) -> int:
        try:
            return self._index[atom]
        except KeyError:
            raise InputError(f"unknown atom {atom!r}") from None

    def power_atoms(self, n: int) -> list[str]:
        """Labels of the n-fold product space, separator-joined, row-major."""
        labels = [""]
        for _ in range(n):
            labels = [
                (l + ATOM_SEPARATOR + a) if l else a for l in labels for a in self.atoms
            ]
        return labels

    def __eq__(self, other) -> bool:
        # within SUM_TOL: renormalizing on construction is not idempotent, so a
        # space rebuilt from its own probs may differ in the last bit
        return (
            isinstance(other, FiniteSpace)
            and self.atoms == other.atoms
            and bool(np.all(np.abs(self.probs - other.probs) <= SUM_TOL))
        )

    def __hash__(self):
        # atoms only, so spaces equal within SUM_TOL hash equal
        return hash(self.atoms)

    def __repr__(self):
        return f"FiniteSpace({list(self.atoms)!r}, {self.probs.tolist()!r})"


class JointDistribution:
    """A joint probability table over the product of two finite spaces.

    The marginals are derived from the table after trimming rows/columns
    of zero marginal mass, so marginal consistency holds by construction.
    ``alpha`` is the smallest strictly positive table entry.
    """

    __slots__ = ("row_space", "col_space", "table", "normalization_residual")

    def __init__(self, row_atoms: Sequence[str], col_atoms: Sequence[str], table):
        t = np.asarray(table, dtype=float)
        if t.ndim != 2:
            raise InputError("table must be a 2-d matrix")
        if t.shape != (len(row_atoms), len(col_atoms)):
            raise InputError(
                f"table shape {t.shape} does not match {len(row_atoms)} x {len(col_atoms)} atoms"
            )
        if not np.all(np.isfinite(t)):
            raise InputError("table entries must be finite")
        if np.any(t < 0):
            raise InputError("table entries must be nonnegative")
        residual = float(t.sum() - 1.0)
        if abs(residual) > SUM_TOL:
            raise InputError(
                f"table entries sum to {t.sum():.17g}, off by {residual:.3g} (tolerance {SUM_TOL})"
            )
        self.normalization_residual = residual
        t = t / t.sum()
        row_keep = t.sum(axis=1) > 0.0
        col_keep = t.sum(axis=0) > 0.0
        t = t[np.ix_(row_keep, col_keep)]
        t = t / t.sum()
        self.table = _freeze(t)
        self.row_space = FiniteSpace(
            [a for a, k in zip(row_atoms, row_keep) if k], t.sum(axis=1)
        )
        self.col_space = FiniteSpace(
            [a for a, k in zip(col_atoms, col_keep) if k], t.sum(axis=0)
        )

    @property
    def alpha(self) -> float:
        """Smallest strictly positive joint probability."""
        t = self.table
        return float(t[t > 0.0].min())

    @property
    def shape(self) -> tuple[int, int]:
        return self.table.shape

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "row_atoms": list(self.row_space.atoms),
            "col_atoms": list(self.col_space.atoms),
            "probs": [list(row) for row in self.table],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "JointDistribution":
        for key in ("row_atoms", "col_atoms", "probs"):
            if key not in d:
                raise InputError(f"distribution JSON is missing key {key!r}")
        for side in ("row_atoms", "col_atoms"):
            for a in json_list(d[side], f"distribution JSON {side!r}"):
                if ATOM_SEPARATOR in str(a):
                    raise InputError(
                        f"atom label {a!r} contains the reserved separator {ATOM_SEPARATOR!r}"
                    )
        probs = json_floats(d["probs"], "distribution JSON 'probs'")
        return cls(d["row_atoms"], d["col_atoms"], probs)

    @classmethod
    def from_json(cls, text: str) -> "JointDistribution":
        return cls.from_json_dict(json_object(text, "distribution JSON"))

    def __repr__(self):
        return (
            f"JointDistribution({list(self.row_space.atoms)!r}, "
            f"{list(self.col_space.atoms)!r}, shape={self.shape})"
        )


class EmpiricalJoint2x2:
    """Probabilities over the four outcomes of a binary pair; also the type
    of a decision target, with its moment summary and case tag.

    Outcome order is ``(+1,+1), (+1,-1), (-1,+1), (-1,-1)``, matching the
    row-major flattening of a 2x2 table with atom order ``["+1", "-1"]``.
    """

    __slots__ = ("probs",)

    OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))

    def __init__(self, probs: Sequence[float]):
        p = np.asarray(probs, dtype=float)
        if p.shape != (4,):
            raise InputError("need exactly four outcome probabilities")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise InputError("outcome probabilities must be finite and nonnegative")
        if abs(p.sum() - 1.0) > 1e-9:
            raise InputError(f"outcome probabilities sum to {p.sum():.17g}, not 1")
        self.probs = _freeze(p / p.sum())

    @classmethod
    def from_moments(cls, mean_u: float, mean_v: float, corr_uv: float) -> "EmpiricalJoint2x2":
        """Build the table with given E[U], E[V], E[UV] (must be feasible)."""
        p = np.array(
            [
                (1 + mean_u + mean_v + corr_uv) / 4,
                (1 + mean_u - mean_v - corr_uv) / 4,
                (1 - mean_u + mean_v - corr_uv) / 4,
                (1 - mean_u - mean_v + corr_uv) / 4,
            ]
        )
        if np.any(p < -1e-12):
            raise InputError("moments do not define a probability table")
        return cls(np.clip(p, 0.0, None))

    @classmethod
    def from_dsbs(cls, rho: float) -> "EmpiricalJoint2x2":
        # every DSBS row and column has mass 1/2, so no atom is trimmed and
        # the table is already in outcome order
        return cls(make_dsbs(rho).table.ravel())

    @classmethod
    def from_table(cls, table) -> "EmpiricalJoint2x2":
        t = np.asarray(table, dtype=float)
        if t.shape == (2, 2):
            t = t.ravel()
        return cls(t)

    @property
    def table(self) -> np.ndarray:
        return self.probs.reshape(2, 2)

    @property
    def mean_u(self) -> float:
        p = self.probs
        return float(p[0] + p[1] - p[2] - p[3])

    @property
    def mean_v(self) -> float:
        p = self.probs
        return float(p[0] - p[1] + p[2] - p[3])

    @property
    def corr_uv(self) -> float:
        p = self.probs
        return float(p[0] - p[1] - p[2] + p[3])

    @property
    def case(self) -> str:
        """"I" when E[UV] >= E[U]E[V], else "II" (the antipodal form)."""
        return "I" if self.corr_uv >= self.mean_u * self.mean_v else "II"

    def as_dict(self) -> dict:
        return {
            "probs": self.table.tolist(),
            "mean_u": self.mean_u,
            "mean_v": self.mean_v,
            "corr_uv": self.corr_uv,
            "case": self.case,
        }

    def __repr__(self):
        return f"EmpiricalJoint2x2({self.probs.tolist()!r})"


# -- constructors ------------------------------------------------------


def make_dsbs(rho: float) -> JointDistribution:
    """Binary source with uniform +-1 marginals and E[UV] = rho.

    Diagonal entries are (1+rho)/4, off-diagonal (1-rho)/4.
    """
    if not -1.0 <= rho <= 1.0:
        raise ParameterRangeError(f"correlation must lie in [-1, 1], got {rho}")
    d = (1.0 + rho) / 4.0
    o = (1.0 - rho) / 4.0
    return JointDistribution(["+1", "-1"], ["+1", "-1"], [[d, o], [o, d]])


def uniform_triple() -> JointDistribution:
    """Uniform distribution on {(0,0), (0,1), (1,0)}."""
    third = 1.0 / 3.0
    return JointDistribution(["0", "1"], ["0", "1"], [[third, third], [third, 0.0]])


def tensor_power(dist: JointDistribution, n: int) -> JointDistribution:
    """n-fold i.i.d. product of a joint distribution.

    The entry at ((x1..xn), (y1..yn)) is the product of the coordinate
    probabilities; atom labels are separator-joined coordinate labels.
    """
    if n < 1:
        raise ParameterRangeError(f"power must be a positive integer, got {n}")
    qa, qb = dist.shape
    if power_exceeds(qa * qb, n, CELL_CAP):
        raise ResourceLimitError(
            f"tensor power needs {qa * qb}^{n} cells, above the enumeration cap {CELL_CAP}"
        )
    return JointDistribution(
        dist.row_space.power_atoms(n), dist.col_space.power_atoms(n),
        kron_power(dist.table, n),
    )


# -- distances ---------------------------------------------------------


def _prob_vector(d) -> np.ndarray:
    if isinstance(d, JointDistribution):
        return d.table.ravel()
    if isinstance(d, EmpiricalJoint2x2):
        return d.probs
    a = np.asarray(d, dtype=float)
    return a.ravel()


def tv_distance(p, q) -> float:
    """Total variation distance: half the l1 distance between the tables.

    Accepts joint distributions, empirical 2x2 tables, or raw arrays; the
    two arguments must have the same outcome set.
    """
    if isinstance(p, JointDistribution) and isinstance(q, JointDistribution):
        if (
            p.row_space.atoms != q.row_space.atoms
            or p.col_space.atoms != q.col_space.atoms
        ):
            raise InputError("distributions are over different atom sets")
    pv, qv = _prob_vector(p), _prob_vector(q)
    if pv.shape != qv.shape:
        raise InputError(f"shape mismatch: {pv.shape} vs {qv.shape}")
    return float(0.5 * np.abs(pv - qv).sum())

