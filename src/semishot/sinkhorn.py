"""Balanced transport plans between class prototypes and unlabeled points.

The plan couples C classes (rows) with M unlabeled embeddings (columns).
Row masses come from a class-marginal estimate; every column carries the
uniform mass 1/M. The initial plan is a globally normalized exponential
of the scaled similarities, and alternating row/column scaling pulls it
toward both marginals. Scaling updates never touch the plan matrix
itself, only the two scaling vectors, so entries stay nonnegative by
construction.

The column update always runs last: returned plans satisfy the column
constraint exactly (up to roundoff) while the row constraint holds
approximately, with the gap shrinking as iterations increase. With zero
iterations the plan is a per-column softmax carrying mass 1/M, which
ignores the row marginal entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DegeneratePlanError
from .zeroshot import check_marginal, check_tau


@dataclass(frozen=True, eq=False)
class ScalingVectors:
    """The accumulated row/column scale factors of a balanced plan.

    Strictly positive and finite by construction; plans produced under a
    marginal with zero-mass rows have no well-defined positive row scale
    and carry no ScalingVectors.
    """

    row: np.ndarray
    col: np.ndarray

    def __post_init__(self) -> None:
        for name, vec in (("row", self.row), ("col", self.col)):
            arr = np.asarray(vec, dtype=np.float64)
            if arr.ndim != 1 or arr.size == 0:
                raise DataError(f"{name} scales must be a nonempty vector")
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
                raise DataError(f"{name} scales must be finite and strictly positive")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A coupling between classes (rows) and unlabeled points (columns).

    values: (C, M) nonnegative matrix; columns sum to col_total.
    row_marginal: (C,) target row sums the scaling aimed at.
    col_total: mass per column, always 1/M (total mass 1).
    residual: L1 gap between achieved and target row sums.
    iterations: number of row/column scaling rounds applied.
    scaling: row/column factors accumulated by the balancing updates,
        when they exist as positive finite numbers.
    """

    values: np.ndarray
    row_marginal: np.ndarray
    col_total: float
    residual: float
    iterations: int
    scaling: ScalingVectors | None = None

    @property
    def class_count(self) -> int:
        return self.values.shape[0]

    @property
    def point_count(self) -> int:
        return self.values.shape[1]


def similarity_matrix(prototypes: np.ndarray, embeddings: np.ndarray,
                      tau: float) -> np.ndarray:
    """Scaled cosine-style scores, classes by points: (W @ V.T) / tau."""
    tau = check_tau(tau)
    w = np.asarray(prototypes, dtype=np.float64)
    v = np.asarray(embeddings, dtype=np.float64)
    if w.ndim != 2 or v.ndim != 2 or w.shape[1] != v.shape[1]:
        raise DataError(f"shape mismatch: prototypes {w.shape} vs embeddings {v.shape}")
    s = (w @ v.T) / tau
    if not np.all(np.isfinite(s)):
        raise DataError("similarity matrix contains non-finite entries")
    return s


def init_plan(similarities: np.ndarray) -> np.ndarray:
    """Exponential of the scores, shifted by the global max and normalized
    so all entries sum to one. Shifting first keeps exp in range; the
    shift cancels in the normalization."""
    s = np.asarray(similarities, dtype=np.float64)
    if s.ndim != 2 or s.size == 0:
        raise DataError(f"similarity matrix must be 2-d and nonempty, got {s.shape}")
    q = np.exp(s - s.max())
    total = q.sum()
    if total <= 0 or not np.isfinite(total):
        raise DegeneratePlanError("initial plan mass vanished after exponentiation")
    return q / total


def marginal_residual(plan, row_marginal: np.ndarray) -> float:
    """L1 gap between the plan's row sums and the target marginal.

    Accepts a TransportPlan or a bare (C, M) array.
    """
    values = getattr(plan, "values", plan)
    rows = np.asarray(values, dtype=np.float64).sum(axis=1)
    return float(np.abs(rows - np.asarray(row_marginal, dtype=np.float64)).sum())


def sinkhorn(plan0: np.ndarray, row_marginal: np.ndarray,
             iterations: int = 10) -> TransportPlan:
    """Alternate row and column scaling of plan0 toward the marginals.

    Each round rescales rows to hit ``row_marginal`` and then columns to
    hit the uniform 1/M. ``iterations=0`` skips row scaling and applies
    the column step once, so the result is a column-normalized plan with
    mass 1/M per column. Raises DegeneratePlanError when a scaling
    denominator vanishes for a target that needs mass (zero-mass rows
    are allowed: their scale is pinned to zero).
    """
    if iterations < 0:
        raise ConfigError(f"iteration count must be >= 0, got {iterations}")
    q = np.asarray(plan0, dtype=np.float64)
    if q.ndim != 2 or q.size == 0:
        raise DataError(f"plan must be 2-d and nonempty, got {q.shape}")
    if np.any(q < 0) or not np.all(np.isfinite(q)):
        raise DataError("plan entries must be finite and nonnegative")
    m = check_marginal(row_marginal, q.shape[0], "row marginal")

    n_cols = q.shape[1]
    col_target = 1.0 / n_cols
    r = np.ones(q.shape[0])
    c = np.ones(n_cols)
    positive = m > 0
    for _ in range(iterations):
        row_mass = q @ c
        if np.any(positive & (row_mass <= 0)):
            raise DegeneratePlanError("row scaling denominator vanished")
        r = np.where(positive, m / np.where(row_mass > 0, row_mass, 1.0), 0.0)
        col_mass = q.T @ r
        if np.any(col_mass <= 0):
            raise DegeneratePlanError("column scaling denominator vanished")
        c = col_target / col_mass
    if iterations == 0:
        col_mass = q.T @ r
        if np.any(col_mass <= 0):
            raise DegeneratePlanError("column scaling denominator vanished")
        c = col_target / col_mass
    values = r[:, None] * q * c[None, :]
    return TransportPlan(
        values=values,
        row_marginal=m,
        col_total=col_target,
        residual=marginal_residual(values, m),
        iterations=iterations,
        scaling=_scaling_or_none(r, c),
    )


def _scaling_or_none(r: np.ndarray, c: np.ndarray) -> ScalingVectors | None:
    if np.all(np.isfinite(r)) and np.all(r > 0) and np.all(np.isfinite(c)) and np.all(c > 0):
        return ScalingVectors(row=r, col=c)
    return None


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    mx = a.max(axis=axis, keepdims=True)
    shift = np.where(np.isfinite(mx), mx, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - shift).sum(axis=axis, keepdims=True)) + shift
    return np.squeeze(out, axis=axis)


def solve_transport(similarities: np.ndarray, row_marginal: np.ndarray,
                    iterations: int = 10) -> TransportPlan:
    """The init_plan + sinkhorn pipeline evaluated in log space.

    Identical to the kernel form in exact arithmetic: the kernel's
    global normalization is absorbed by the first row update (or, with
    zero iterations, by the column step), and every scaling update maps
    to an addition of log factors. Working with the scores directly
    extends the float64-safe range from score spans of ~700 to
    arbitrary spans, which matters once sharpened prototypes push
    similarity spreads past what exp() can represent: entries too small
    to matter flush to zero instead of dragging whole rows or columns
    to zero and killing the scaling denominators.
    """
    if iterations < 0:
        raise ConfigError(f"iteration count must be >= 0, got {iterations}")
    s = np.asarray(similarities, dtype=np.float64)
    if s.ndim != 2 or s.size == 0:
        raise DataError(f"similarity matrix must be 2-d and nonempty, got {s.shape}")
    if not np.all(np.isfinite(s)):
        raise DataError("similarity matrix contains non-finite entries")
    m = check_marginal(row_marginal, s.shape[0], "row marginal")

    n_cols = s.shape[1]
    log_u = -np.log(n_cols)
    with np.errstate(divide="ignore"):
        log_m = np.log(m)  # -inf rows carry zero mass throughout
    log_r = np.zeros(s.shape[0])
    log_c = np.zeros(n_cols)
    for _ in range(iterations):
        log_r = log_m - _logsumexp(s + log_c[None, :], axis=1)
        log_c = log_u - _logsumexp(s + log_r[:, None], axis=0)
    if iterations == 0:
        log_c = log_u - _logsumexp(s, axis=0)
    values = np.exp(log_r[:, None] + s + log_c[None, :])
    with np.errstate(over="ignore", under="ignore"):
        scaling = _scaling_or_none(np.exp(log_r), np.exp(log_c))
    return TransportPlan(
        values=values,
        row_marginal=m,
        col_total=1.0 / n_cols,
        residual=marginal_residual(values, m),
        iterations=iterations,
        scaling=scaling,
    )


def extract_pseudolabels(plan: TransportPlan) -> np.ndarray:
    """Per-point class codes: plan columns renormalized to the simplex,
    returned points-by-classes (M, C)."""
    col_sums = plan.values.sum(axis=0)
    if np.any(col_sums <= 0):
        raise DegeneratePlanError("plan has an empty column; codes are undefined")
    return (plan.values / col_sums[None, :]).T
