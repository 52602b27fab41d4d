"""Balanced transport plans between class prototypes and unlabeled points.

The plan couples C classes (rows) with M unlabeled embeddings (columns).
Row masses come from a class-marginal estimate; every column carries the
uniform mass 1/M. The initial plan is a globally normalized exponential
of the scaled similarities, and alternating row/column scaling pulls it
toward both marginals. Scaling updates never touch the plan matrix
itself, only a row and a column scale vector, so entries stay
nonnegative by construction. The scale vectors stay inside the solve: a
returned plan carries its values, its target row marginal and the L1
gap between its row sums and that target.

The column update always runs last: returned plans satisfy the column
constraint exactly (up to roundoff) while the row constraint holds
approximately, with the gap shrinking as iterations increase. With zero
iterations the plan is a per-column softmax carrying mass 1/M, which
ignores the row marginal entirely.

``solve_transport`` is the one entry point. It takes the scores of
``zeroshot.similarity_matrix`` and picks one of three routes. When the
score span ``s.max() - s.min()`` is at most 700, every entry of the
kernel ``exp(s - s.max())`` is a normal float64, and the plan comes from
scaling that kernel with matrix-vector products. Past that span, with
at least one round, each row takes its own shift, ``exp(s - max_j
s_ij)``: a row shift is a row scaling, which the first row update
absorbs exactly, so the same scaling gives the same plan. That route
holds only under the column condition, every column's best shifted
score at least -700, so that each column keeps a normal entry and only
entries far below their row max flush toward zero; and only while the
scale factors stay small enough that those flushed entries carry no
mass. (A column shift is not absorbed: at 10 rounds it moves plans by
~1e-2.) Every other element, and one whose kernel scale factor
vanished or overflowed, is scaled in log space. All routes run the same
rounds and give the same plan to roundoff. ``init_plan`` plus
``sinkhorn`` scale an explicit kernel and are the tests' reference;
``sinkhorn`` runs the same row/column loop as the kernel routes, and
every route shares one input check and one plan builder.

The scaling loops work over leading batch axes. The private ``_solve``
balances a batch of same-shaped problems at once, each element on the
route its own scores pick, and ``solve_transport`` is that solve at
B=1; the solvers' round loop calls ``_solve`` directly, on scores it
has checked itself. The two kernel routes share one pass and the log
route is another: the kernel loop returns a mask of the elements whose
scale factors held, and the ones that failed join the log pass.
Batched matrix products never mix elements, so every plan is the one
its element gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegeneratePlanError
from .zeroshot import _logsumexp, check_array, check_count, check_marginal

# exp() of a float64 stays a normal number down to about -708, so a
# kernel shifted by its max keeps every entry a positive normal float64
# while the score span is at most this.
_EXP_SAFE_SPAN = 700.0

# A row-shifted kernel flushes the entries more than ~708 below their
# row max to subnormals or zero, each off by less than exp(-744). While
# the largest row scale times the largest column scale stays at most
# this, no such entry can carry more than exp(-44) ~ 1e-19 of plan mass.
_FLUSH_REACH = np.exp(_EXP_SAFE_SPAN)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A coupling between classes (rows) and unlabeled points (columns).

    values: (C, M) nonnegative matrix; each column sums to 1/M.
    row_marginal: (C,) target row sums the scaling aimed at.
    residual: L1 gap between achieved and target row sums.
    """

    values: np.ndarray
    row_marginal: np.ndarray
    residual: float


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
    """The input check both scaling routes share: a 2-d nonempty finite
    matrix, a row marginal that fits it and an integer iteration count."""
    iterations = check_count(iterations, "iteration count")
    a = _checked_matrix(matrix, what)
    return a, check_marginal(row_marginal, a.shape[0], "row marginal"), iterations


def _build_plan(values: np.ndarray, row_marginal: np.ndarray) -> TransportPlan:
    return TransportPlan(values=values, row_marginal=row_marginal,
                         residual=marginal_residual(values, row_marginal))


def _scale(q: np.ndarray, m: np.ndarray, iterations: int,
           reach: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The row/column loop on nonnegative kernels (..., C, M) with row
    marginals (..., C): the balanced plans
    ``r[..., :, None] * q * c[..., None, :]`` and a (...) bool mask of
    the elements whose scale factors held.

    Each round sets r to hit ``m`` and then c to hit the uniform 1/M;
    ``iterations=0`` keeps r at one and runs the column step once.
    Zero-mass rows get a zero scale. An element fails, and its plan
    carries inf or NaN, when a scale factor a target needs comes out
    zero or non-finite, that is, when its denominator vanished,
    overflowed or was too small to divide. With a (...) ``reach``, an
    element also fails when its final ``max(r) * max(c)`` passes its
    entry. Never raises.
    """
    col_target = 1.0 / q.shape[-1]
    r = np.ones(m.shape)
    c = np.ones(q.shape[:-2] + q.shape[-1:])
    q_t = np.swapaxes(q, -1, -2)
    positive = m > 0
    ok = np.ones(m.shape[:-1], dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(max(iterations, 1)):
            if iterations:
                r = np.where(positive, m / np.matmul(q, c[..., None])[..., 0], 0.0)
                ok &= (np.isfinite(r) & ((r > 0) | ~positive)).all(axis=-1)
            c = col_target / np.matmul(q_t, r[..., None])[..., 0]
            ok &= (np.isfinite(c) & (c > 0)).all(axis=-1)
        if reach is not None:
            ok &= r.max(axis=-1) * c.max(axis=-1) <= reach
        plans = r[..., :, None] * q * c[..., None, :]
    return plans, ok


def _scale_log(s: np.ndarray, m: np.ndarray, iterations: int) -> np.ndarray:
    """The same rounds as ``_scale`` on ``exp(s)``, with every factor kept
    as its log, and the plans ``exp(log r + s + log c)``. Zero-mass rows
    get log r = -inf, so they carry no mass."""
    log_u = -np.log(s.shape[-1])
    with np.errstate(divide="ignore"):
        log_m = np.log(m)
    log_r = np.zeros(m.shape)
    log_c = np.zeros(s.shape[:-2] + s.shape[-1:])
    for _ in range(max(iterations, 1)):
        if iterations:
            log_r = log_m - _logsumexp(s + log_c[..., None, :], axis=-1)
        log_c = log_u - _logsumexp(s + log_r[..., :, None], axis=-2)
    return np.exp(log_r[..., :, None] + s + log_c[..., None, :])


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
    plans, ok = _scale(q, m, iterations)
    if not ok:
        raise DegeneratePlanError("row or column scaling denominator vanished")
    return _build_plan(plans, m)


def solve_transport(similarities: np.ndarray, row_marginal: np.ndarray,
                    iterations: int = 10) -> TransportPlan:
    """The init_plan + sinkhorn plan of the scores, scaled as a kernel
    when exp() represents it and in log space otherwise.

    Identical to the kernel form in exact arithmetic: the kernel's
    global normalization is absorbed by the first row update (or, with
    zero iterations, by the column step). When the score span is at most
    700, the kernel ``exp(s - s.max())`` has only normal positive
    entries and is scaled directly with matrix-vector products. Past
    that span, with ``iterations > 0``, each row is shifted by its own
    max instead, which the first row update absorbs as well, provided
    every column's best shifted score is at least -700 (the column
    condition) and the scale factors stay below ``_FLUSH_REACH``. Wide
    spans at zero iterations, wide spans that fail the column
    condition, and kernels whose scale factor vanishes or overflows run
    the rounds on the scores in log space, where every update is an
    addition of log factors: entries too small to matter flush to zero
    instead of dragging whole rows or columns to zero and killing the
    scaling denominators.
    """
    s, m, iterations = _checked_inputs(similarities, row_marginal, iterations,
                                       "similarity matrix")
    return _build_plan(_solve(s[None], m[None], iterations)[0], m)


def _solve(s: np.ndarray, m: np.ndarray, iterations: int) -> np.ndarray:
    """The ``solve_transport`` plan values of every element of a batch of
    checked scores (B, C, M) and row marginals (B, C).

    Each element takes the route its own scores pick: span at most 700,
    the global shift ``exp(s - s.max())``; wider, with ``iterations >
    0`` and the column condition, a shift per row ``exp(s - max_j
    s_ij)``, whose scales must also stay within ``_FLUSH_REACH``; else
    log space. Both kernel routes are one ``_scale`` pass, with one shift
    array, and the log route is one ``_scale_log`` pass. An element whose
    kernel scaling failed joins the log pass by itself, never with the
    rest of its route, so an element's plan is the one it gets at B=1. A
    batch without a wide span computes no row maxima.
    """
    s_max = s.max(axis=(-2, -1))
    in_log = s_max - s.min(axis=(-2, -1)) > _EXP_SAFE_SPAN
    shift, reach = s_max[:, None, None], None
    if iterations and in_log.any():
        wide = np.flatnonzero(in_log)
        reach = np.where(in_log, _FLUSH_REACH, np.inf)
        shift = np.repeat(shift, s.shape[-2], axis=-2)
        rows = s[wide]
        shift[wide] = rows.max(axis=-1, keepdims=True)
        # a row-shifted kernel holds only while every column keeps a normal lead
        in_log[wide] = (rows - shift[wide]).max(axis=-2).min(axis=-1) < -_EXP_SAFE_SPAN
    kernel = np.flatnonzero(~in_log)
    if kernel.size:
        q = _take(s, kernel) - _take(shift, kernel)
        kernel_plans, ok = _scale(np.exp(q, out=q), _take(m, kernel), iterations,
                                  None if reach is None else reach[kernel])
        if kernel.size == len(s) and ok.all():
            return kernel_plans
        in_log[kernel[~ok]] = True  # a scale under- or overflowed
    log = np.flatnonzero(in_log)
    log_plans = _scale_log(_take(s, log), _take(m, log), iterations)
    if log.size == len(s):
        return log_plans
    values = np.empty_like(s)
    values[kernel] = kernel_plans
    values[log] = log_plans  # last, over the kernel elements that failed
    return values


def _take(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The rows ``idx`` (sorted, distinct) of ``a``; ``a`` itself, not a
    copy, when they are all of its rows."""
    return a if idx.size == len(a) else a[idx]


def _class_codes(values: np.ndarray) -> np.ndarray:
    """Plan columns renormalized to the simplex, over leading batch axes:
    (..., C, M) plans give (..., C, M) codes."""
    col_sums = values.sum(axis=-2)
    if np.any(col_sums <= 0):
        raise DegeneratePlanError("plan has an empty column; codes are undefined")
    return values / col_sums[..., None, :]

