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

``solve_transport`` is the one entry point the solvers run. It takes
the scores of ``zeroshot.similarity_matrix`` and picks the domain: when
the score span ``s.max() - s.min()`` is at most 700, every entry of the
kernel ``exp(s - s.max())`` is a normal float64, and the plan comes from
scaling that kernel with matrix-vector products; otherwise, or when a
kernel scale factor vanishes or overflows, it scales the scores in log
space. Both domains run the same rounds and give the same plan to
roundoff. ``init_plan`` plus ``sinkhorn`` scale an explicit kernel and
are the tests' reference; ``sinkhorn`` runs the same row/column loop as
the kernel domain, and every route shares one input check and one plan
builder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegeneratePlanError
from .zeroshot import _logsumexp, check_count, check_marginal

# exp() of a float64 stays a normal number down to about -708, so a
# kernel shifted by its max keeps every entry a positive normal float64
# while the score span is at most this.
_EXP_SAFE_SPAN = 700.0


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


def init_plan(similarities: np.ndarray) -> np.ndarray:
    """Exponential of the scores, shifted by the global max and normalized
    so all entries sum to one. Shifting first keeps exp in range; the
    shift cancels in the normalization. Scores must be finite, so the
    largest entry maps to 1 and the total lies in [1, C*M]."""
    s = _checked_matrix(similarities, "similarity matrix")
    q = np.exp(s - s.max())
    return q / q.sum()


def marginal_residual(plan, row_marginal: np.ndarray) -> float:
    """L1 gap between the plan's row sums and the target marginal.

    Accepts a TransportPlan or a bare (C, M) array.
    """
    values = getattr(plan, "values", plan)
    rows = np.asarray(values, dtype=np.float64).sum(axis=1)
    return float(np.abs(rows - np.asarray(row_marginal, dtype=np.float64)).sum())


def _checked_matrix(matrix: np.ndarray, what: str) -> np.ndarray:
    """A 2-d, nonempty, finite float64 matrix, or DataError."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise DataError(f"{what} must be 2-d and nonempty, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DataError(f"{what} contains non-finite entries")
    return a


def _checked_inputs(matrix: np.ndarray, row_marginal: np.ndarray, iterations: int,
                    what: str) -> tuple[np.ndarray, np.ndarray, int]:
    """The input check both scaling routes share: a 2-d nonempty finite
    matrix, a row marginal that fits it and an integer iteration count."""
    iterations = check_count(iterations, "iteration count")
    a = _checked_matrix(matrix, what)
    return a, check_marginal(row_marginal, a.shape[0], "row marginal"), iterations


def _build_plan(values: np.ndarray, row_marginal: np.ndarray, iterations: int,
                row_scale: np.ndarray, col_scale: np.ndarray) -> TransportPlan:
    """A plan with its residual, and its scaling vectors when
    ScalingVectors accepts them as positive and finite."""
    try:
        scaling = ScalingVectors(row=row_scale, col=col_scale)
    except DataError:
        scaling = None
    return TransportPlan(
        values=values,
        row_marginal=row_marginal,
        col_total=1.0 / values.shape[1],
        residual=marginal_residual(values, row_marginal),
        iterations=iterations,
        scaling=scaling,
    )


def _scale(q: np.ndarray, m: np.ndarray,
           iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """The row/column loop on a nonnegative kernel: scale vectors r, c
    with ``r[:, None] * q * c[None, :]`` the balanced plan.

    Each round sets r to hit ``m`` and then c to hit the uniform 1/M;
    ``iterations=0`` keeps r at one and runs the column step once.
    Zero-mass rows get a zero scale. Raises DegeneratePlanError when a
    scale factor a target needs comes out zero or non-finite, that is,
    when its denominator vanished, overflowed or was too small to divide.
    """
    col_target = 1.0 / q.shape[1]
    r = np.ones(q.shape[0])
    c = np.ones(q.shape[1])
    positive = m > 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(max(iterations, 1)):
            if iterations:
                r = np.where(positive, m / (q @ c), 0.0)
                if not np.all(np.isfinite(r) & ((r > 0) | ~positive)):
                    raise DegeneratePlanError("row scaling denominator vanished")
            c = col_target / (q.T @ r)
            if not np.all(np.isfinite(c) & (c > 0)):
                raise DegeneratePlanError("column scaling denominator vanished")
    return r, c


def _scale_log(s: np.ndarray, m: np.ndarray,
               iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """The same rounds as ``_scale`` on ``exp(s)``, with every factor kept
    as its log: log r, log c. Zero-mass rows get log r = -inf."""
    log_u = -np.log(s.shape[1])
    with np.errstate(divide="ignore"):
        log_m = np.log(m)
    log_r = np.zeros(s.shape[0])
    log_c = np.zeros(s.shape[1])
    for _ in range(max(iterations, 1)):
        if iterations:
            log_r = log_m - _logsumexp(s + log_c[None, :], axis=1)
        log_c = log_u - _logsumexp(s + log_r[:, None], axis=0)
    return log_r, log_c


def sinkhorn(plan0: np.ndarray, row_marginal: np.ndarray,
             iterations: int = 10) -> TransportPlan:
    """Alternate row and column scaling of plan0 toward the marginals.

    Each round rescales rows to hit ``row_marginal`` and then columns to
    hit the uniform 1/M. ``iterations=0`` skips row scaling and applies
    the column step once, so the result is a column-normalized plan with
    mass 1/M per column. Raises DegeneratePlanError when a scaling
    denominator vanishes or overflows for a target that needs mass
    (zero-mass rows are allowed: their scale is pinned to zero).
    """
    q, m, iterations = _checked_inputs(plan0, row_marginal, iterations, "plan")
    if np.any(q < 0):
        raise DataError("plan entries must be nonnegative")
    r, c = _scale(q, m, iterations)
    return _build_plan(r[:, None] * q * c[None, :], m, iterations, r, c)


def solve_transport(similarities: np.ndarray, row_marginal: np.ndarray,
                    iterations: int = 10) -> TransportPlan:
    """The init_plan + sinkhorn plan of the scores, scaled as a kernel
    when exp() represents it and in log space otherwise.

    Identical to the kernel form in exact arithmetic: the kernel's
    global normalization is absorbed by the first row update (or, with
    zero iterations, by the column step). When the score span is at most
    700, the kernel ``exp(s - s.max())`` has only normal positive
    entries and is scaled directly with matrix-vector products. Past
    that span, or when a kernel scale factor vanishes or overflows, the
    rounds run on the scores in log space, where every update is an
    addition of log factors: entries too small to matter flush to zero
    instead of dragging whole rows or columns to zero and killing the
    scaling denominators. Either way ``scaling`` is reported against
    ``exp(s)``, so ``values == row[:, None] * exp(s) * col[None, :]``
    wherever those factors are representable.
    """
    s, m, iterations = _checked_inputs(similarities, row_marginal, iterations,
                                       "similarity matrix")
    s_max = s.max()
    if s_max - s.min() <= _EXP_SAFE_SPAN:
        q = np.exp(s - s_max)
        try:
            r, c = _scale(q, m, iterations)
        except DegeneratePlanError:
            pass  # a scale under- or overflowed: redo the rounds in log space
        else:
            with np.errstate(divide="ignore", over="ignore", under="ignore"):
                row_scale = np.exp(np.log(r) - s_max)
            return _build_plan(r[:, None] * q * c[None, :], m, iterations, row_scale, c)
    log_r, log_c = _scale_log(s, m, iterations)
    values = np.exp(log_r[:, None] + s + log_c[None, :])
    with np.errstate(over="ignore", under="ignore"):
        row_scale, col_scale = np.exp(log_r), np.exp(log_c)
    return _build_plan(values, m, iterations, row_scale, col_scale)


def extract_pseudolabels(plan: TransportPlan) -> np.ndarray:
    """Per-point class codes: plan columns renormalized to the simplex,
    returned points-by-classes (M, C)."""
    col_sums = plan.values.sum(axis=0)
    if np.any(col_sums <= 0):
        raise DegeneratePlanError("plan has an empty column; codes are undefined")
    return (plan.values / col_sums[None, :]).T
