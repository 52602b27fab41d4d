"""Balanced transport plans between class prototypes and unlabeled points.

The plan couples C classes (rows) with M unlabeled embeddings (columns).
Row masses come from a class-marginal estimate; every column carries the
uniform mass 1/M. The initial plan is a globally normalized exponential
of the scaled similarities, and alternating row/column scaling pulls it
toward both marginals. Scaling updates never touch the plan matrix
itself, only a row and a column scale vector, so entries stay
nonnegative by construction. The scale vectors stay inside the solve: a
returned plan carries its values and the L1 gap between its row sums
and the target row marginal.

The column update always runs last: returned plans satisfy the column
constraint exactly (up to roundoff) while the row constraint holds
approximately, with the gap shrinking as iterations increase. With zero
iterations the plan is a per-column softmax carrying mass 1/M, which
ignores the row marginal entirely.

``solve_transport`` is the one entry point. It takes the scores of
``zeroshot.similarity_matrix`` and scales a kernel ``exp(s - shift)``
with matrix-vector products, starting from the shift its first step
absorbs exactly. When the score span ``s.max() - s.min()`` is at most
700 the shift is the global max, and every entry of the kernel is a
normal float64. Past that span, with at least one round, each row takes
its own max: a row shift is a row scaling, which the first row update
absorbs; with zero rounds each column takes its own, which the column
step absorbs. Entries far below their shift flush toward zero. Whenever
a scale factor vanishes or overflows, or, on a wide span, the scale
factors grow far enough that flushed entries could carry mass, the
element absorbs them (Schmitzer's stabilised scaling, arXiv:1610.06519):
the scale factors fold into a per-row and a per-column shift, the
kernel is rebuilt from the scores and the step is retaken. Every
element runs the same rounds and gets the plan that log-space scaling
would give, to roundoff: row masses are normal floats, as
``check_marginal`` requires of every positive entry.
``init_plan`` plus ``sinkhorn`` scale an explicit kernel in the same
loop, with no scores to rebuild it from, and are the tests' reference;
``sinkhorn`` and ``solve_transport`` share one input check and one plan
builder.

The scaling loop works over leading batch axes. The private ``_solve``
balances a batch of same-shaped problems at once, and
``solve_transport`` is that solve at B=1; the solvers' round loop calls
``_solve`` directly. ``_solve`` masks the elements whose scores hold a
NaN or an infinity, and ``_class_codes`` the plans with an empty column;
neither raises. An element that absorbs rebuilds only its own kernel,
and batched matrix products never mix elements, so every plan is the
one its element gets alone. A solve writes its plan into the kernel it
exponentiated, and ``_class_codes`` writes the codes over that plan, so
a round makes one (B, C, M) array for the pair and never writes its
caller's scores or ``plan0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegeneratePlanError
from .zeroshot import check_array, check_count, check_marginal

# exp() of a float64 stays a normal number down to about -708, so a
# kernel shifted by its max keeps every entry a positive normal float64
# while the score span is at most this.
_EXP_SAFE_SPAN = 700.0

# A kernel whose entries are at most 1 flushes those more than ~708
# below 1 to subnormals or zero, each off by less than exp(-744). While
# the largest row scale times the largest column scale stays at most
# this, no such entry carries more than exp(-444) of plan mass. It is
# checked once a round, so it leaves the scales of one round room to
# grow past it before an absorb brings them back to one.
_FLUSH_REACH = np.exp(300.0)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A coupling between classes (rows) and unlabeled points (columns).

    values: (C, M) nonnegative matrix; each column sums to 1/M.
    residual: L1 gap between achieved and target row sums.
    """

    values: np.ndarray
    residual: float


def init_plan(similarities: np.ndarray) -> np.ndarray:
    """Exponential of the scores, shifted by the global max and normalized
    so all entries sum to one. Shifting first keeps exp in range; the
    shift cancels in the normalization. Scores must be finite, so the
    largest entry maps to 1 and the total lies in [1, C*M]; a shifted
    score that overflows to -inf maps to 0."""
    s = _checked_matrix(similarities, "similarity matrix")
    with np.errstate(over="ignore"):
        q = np.exp(s - s.max())
    return q / q.sum()


def marginal_residual(plan, row_marginal: np.ndarray) -> float:
    """L1 gap between the plan's row sums and the target marginal.

    Accepts a TransportPlan or a bare (C, M) array.
    """
    values = check_array(getattr(plan, "values", plan), "plan", (None, None))
    m = check_array(row_marginal, "row marginal", values.shape[:1])
    return float(np.abs(values.sum(axis=1) - m).sum())


def _checked_matrix(matrix: np.ndarray, what: str) -> np.ndarray:
    """A 2-d, nonempty, finite float64 matrix, or DataError."""
    a = check_array(matrix, what, (None, None), finite=True)
    if a.size == 0:
        raise DataError(f"{what} must be nonempty, got shape {a.shape}")
    return a


def _checked_inputs(matrix: np.ndarray, row_marginal: np.ndarray, iterations: int,
                    what: str) -> tuple[np.ndarray, np.ndarray, int]:
    """The input check ``sinkhorn`` and ``solve_transport`` share: a 2-d
    nonempty finite matrix, a row marginal that fits it and an integer
    iteration count."""
    iterations = check_count(iterations, "iteration count")
    a = _checked_matrix(matrix, what)
    return a, check_marginal(row_marginal, a.shape[0], "row marginal"), iterations


def _build_plan(values: np.ndarray, row_marginal: np.ndarray) -> TransportPlan:
    return TransportPlan(values=values, residual=marginal_residual(values, row_marginal))


def _scale(q: np.ndarray, m: np.ndarray, iterations: int, s: np.ndarray | None = None,
           shift: np.ndarray | None = None, reach: np.ndarray | None = None) -> np.ndarray:
    """The row/column loop on nonnegative kernels (..., C, M) with row
    marginals (..., C): the balanced plans
    ``r[..., :, None] * q * c[..., None, :]``, built into ``q``, which
    is overwritten and returned.

    Each round sets r to hit ``m`` and then c to hit the uniform 1/M;
    ``iterations=0`` keeps r at one and runs the column step once.
    Zero-mass rows get a zero scale. A step fails when a scale factor a
    target needs comes out zero or non-finite, that is, when its
    denominator vanished, overflowed or was too small to divide; with a
    (B,) ``reach``, a column step also fails for an element whose
    ``max(r) * max(c)`` passes its entry. Each step tests each element
    once. Without scores a failure raises DegeneratePlanError. With
    scores ``s`` (B, C, M), where ``q`` is ``exp(s - shift)`` and is
    rebuilt in place, a failing element absorbs its scales instead
    (Schmitzer's stabilised scaling): the scale the step keeps folds
    into that element's row (B, C, 1) or column (B, 1, M) shift, the
    axis the step overwrites is shifted to a maximum of 1, its kernel is
    rebuilt from its scores, and the step is retaken. A retaken step is
    not checked again; it holds for every row mass that is a normal
    float. An element that absorbed has its reach checked from then on.
    """
    r = np.ones(m.shape)
    c = np.ones(q.shape[:-2] + q.shape[-1:])
    positive = m > 0
    a = b = None

    def absorb(held, step):
        nonlocal a, b, reach
        if s is None:
            raise DegeneratePlanError(f"{step} scaling denominator vanished")
        if a is None:  # the shift, split into a row and a column shift
            row = shift.shape[-1] == 1
            a = np.zeros(m.shape + (1,)) + (shift if row else 0.0)
            b = np.zeros(c.shape[:-1] + (1,) + c.shape[-1:]) + (0.0 if row else shift)
        e = np.flatnonzero(~held)
        reach = np.where(held, np.inf if reach is None else reach, _FLUSH_REACH)
        if step == "row":
            b[e] -= np.log(c[e])[..., None, :]
            a[e] = (s[e] - b[e]).max(axis=-1, keepdims=True)
            c[e] = 1.0
        else:  # zero-mass rows fold in log 0, so their kernel rows stay zero
            a[e] -= np.log(r[e])[..., None]
            b[e] = (s[e] - a[e]).max(axis=-2, keepdims=True)
            r[e] = 1.0
        q[e] = np.exp(s[e] - a[e] - b[e])
        return e

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(max(iterations, 1)):
            if iterations:
                r = _row_step(q, c, m, positive)
                held = (np.isfinite(r) & ((r > 0) | ~positive)).all(axis=-1)
                if not held.all():
                    e = absorb(held, "row")
                    r[e] = _row_step(q[e], c[e], m[e], positive[e])
            c = _column_step(q, r)
            held = (np.isfinite(c) & (c > 0)).all(axis=-1)
            if reach is not None:
                held &= r.max(axis=-1) * c.max(axis=-1) <= reach
            if not held.all():
                e = absorb(held, "column")
                c[e] = _column_step(q[e], r[e])
        q *= r[..., :, None]
        q *= c[..., None, :]
        return q


def _row_step(q: np.ndarray, c: np.ndarray, m: np.ndarray, positive: np.ndarray) -> np.ndarray:
    return np.where(positive, m / np.matmul(q, c[..., None])[..., 0], 0.0)


def _column_step(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    return (1.0 / q.shape[-1]) / np.matmul(np.swapaxes(q, -1, -2), r[..., None])[..., 0]


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
    return _build_plan(_scale(q.copy(), m, iterations), m)


def solve_transport(similarities: np.ndarray, row_marginal: np.ndarray,
                    iterations: int = 10) -> TransportPlan:
    """The init_plan + sinkhorn plan of the scores, scaled as a kernel
    whose shifts absorb the scale factors that exp() cannot represent.

    Identical to the kernel form in exact arithmetic: the kernel's
    global normalization is absorbed by the first row update (or, with
    zero iterations, by the column step). When the score span is at most
    700, the kernel ``exp(s - s.max())`` has only normal positive
    entries and is scaled directly with matrix-vector products. Past
    that span each row is shifted by its own max instead, or, with zero
    iterations, each column by its own, a shift the first step absorbs
    exactly. Whenever a scale factor vanishes or overflows, or the
    factors of a wide span grow past ``_FLUSH_REACH``, the factors are
    folded into the shifts and the kernel is rebuilt from the scores, so
    entries too small to matter flush to zero instead of dragging whole
    rows or columns to zero and killing the scaling denominators.
    """
    s, m, iterations = _checked_inputs(similarities, row_marginal, iterations,
                                       "similarity matrix")
    values, _ = _solve(s[None], m[None], iterations)  # s is finite
    return _build_plan(values[0], m)


def _solve(s: np.ndarray, m: np.ndarray, iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``solve_transport`` plan values of every element of a batch of
    scores (B, C, M) and row marginals (B, C), in a new array, and the
    (B,) mask of the elements whose scores hold a NaN or an infinity,
    whose plans are meaningless, read off the batch maxima and minima
    that the shift takes anyway; ``s`` is read, not written.

    Each element starts from the shift its own first step absorbs: span
    at most 700, the global max, ``exp(s - s.max())``; wider, the max of
    each row, or of each column at zero iterations. All elements share
    one ``_scale`` pass; one that absorbs rebuilds only its own kernel,
    so an element's plan is the one it gets at B=1. A batch without a
    wide span computes no row or column maxima and no reach checks.
    """
    s_max = s.max(axis=(-2, -1), keepdims=True)
    s_min = s.min(axis=(-2, -1), keepdims=True)
    bad = ~(np.isfinite(s_max) & np.isfinite(s_min))[:, 0, 0]
    wide = s_max - s_min > _EXP_SAFE_SPAN
    shift, reach = s_max, None
    if wide.any():
        shift = np.where(wide, s.max(axis=-1 if iterations else -2, keepdims=True), s_max)
        reach = np.where(wide[:, 0, 0], _FLUSH_REACH, np.inf)
    q = s - shift
    return _scale(np.exp(q, out=q), m, iterations, s, shift, reach), bad


def _class_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plan columns renormalized to the simplex, over leading batch axes:
    (..., C, M) plans give (..., C, M) codes, and the (...) mask of the
    plans with an empty column, whose codes are undefined (the caller
    silences the flags their division sets). The codes are written over
    ``values``, which is returned; a caller that still needs the plan
    passes a copy."""
    col_sums = values.sum(axis=-2)
    values /= col_sums[..., None, :]
    return values, (col_sums <= 0).any(axis=-1)

