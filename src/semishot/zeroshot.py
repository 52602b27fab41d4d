"""Text-prototype ensembling, the scoring rule and softmax prediction.

``similarity_matrix`` (scores (W @ V.T) / tau, classes by points) and
``_logsumexp`` are the one scoring rule that prediction, the loss
evaluators and the transport step read; ``_scores`` is the unchecked
core of the former over a leading batch axis, which the solvers' round
loop runs.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigError, DataError

DEFAULT_TAU = 0.01


def check_tau(tau: float) -> float:
    """``tau`` as a positive finite float, under ``check_real``'s rule
    for what counts as a number."""
    tau = check_real(tau, "temperature")
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    return tau


def check_count(value, what: str, minimum: int = 0) -> int:
    """``value`` as an int of at least ``minimum``. Python and NumPy
    integers and integral floats pass; bool, fractions and non-numbers
    are a ConfigError, as for the integer fields of a manifest."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{what} must be >= {minimum}, got {value}")
    return int(value)


def check_real(value, what: str) -> float:
    """``value`` as a finite float. Python and NumPy reals and
    ``fractions.Fraction`` pass; bool, NaN, infinities, reals too large
    for a float and non-numbers are a ConfigError. Range rules stay with
    the caller."""
    try:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError
        number = float(value)
    except (TypeError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return number


def check_marginal(marginal: np.ndarray, size: int, what: str = "marginal") -> np.ndarray:
    """A length-``size`` class distribution: nonnegative, summing to one."""
    m = np.asarray(marginal, dtype=np.float64)
    if m.shape != (size,):
        raise DataError(f"{what} shape {m.shape}, expected ({size},)")
    if np.any(m < 0) or not np.isclose(m.sum(), 1.0, atol=1e-9):
        raise DataError(f"{what} must be nonnegative and sum to one")
    return m


def ensemble_text_prototypes(per_class_templates: np.ndarray) -> np.ndarray:
    """Average per-class template embeddings and renormalize to unit norm.

    ``per_class_templates`` has shape (C, J, D) with J >= 1 templates per
    class. A class whose template mean collapses to (near) zero has no
    usable direction and raises DataError.
    """
    tmpl = np.asarray(per_class_templates, dtype=np.float64)
    if tmpl.ndim != 3:
        raise DataError(f"templates must be (C, J, D), got shape {tmpl.shape}")
    if tmpl.shape[1] == 0:
        raise DataError("at least one template per class is required")
    if not np.all(np.isfinite(tmpl)):
        raise DataError("templates contain NaN or Inf")
    means = tmpl.mean(axis=1)
    norms = np.linalg.norm(means, axis=1)
    degenerate = np.flatnonzero(norms < 1e-8)
    if degenerate.size:
        raise DataError(
            f"template mean for classes {degenerate.tolist()} is (near) zero; "
            "cannot form a prototype"
        )
    return means / norms[:, None]


def similarity_matrix(prototypes: np.ndarray, embeddings: np.ndarray,
                      tau: float) -> np.ndarray:
    """Scaled cosine-style scores, classes by points: (W @ V.T) / tau."""
    tau = check_tau(tau)
    w = np.asarray(prototypes, dtype=np.float64)
    v = np.asarray(embeddings, dtype=np.float64)
    if w.ndim != 2 or v.ndim != 2 or w.shape[1] != v.shape[1]:
        raise DataError(f"shape mismatch: prototypes {w.shape} vs embeddings {v.shape}")
    s = _scores(w, v, tau)
    if not np.all(np.isfinite(s)):
        raise DataError("similarity matrix contains non-finite entries")
    return s


def _scores(prototypes: np.ndarray, embeddings: np.ndarray, tau: float) -> np.ndarray:
    """``similarity_matrix`` without its checks, over any leading batch
    axes: (..., C, D) prototypes and (..., M, D) embeddings give
    (..., C, M) scores."""
    return np.matmul(prototypes, np.swapaxes(embeddings, -1, -2)) / tau


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, shifted by the max; -inf slices stay -inf."""
    mx = a.max(axis=axis, keepdims=True)
    shift = np.where(np.isfinite(mx), mx, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - shift).sum(axis=axis, keepdims=True)) + shift
    return np.squeeze(out, axis=axis)


def predict_probs(embeddings: np.ndarray, prototypes: np.ndarray, tau: float) -> np.ndarray:
    """Softmax class probabilities from prototype similarities.

    Row i is softmax over classes of (v_i . w_c) / tau, computed with
    per-row max subtraction so small temperatures cannot overflow.
    """
    logits = similarity_matrix(prototypes, embeddings, tau).T
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def predict_labels(probs: np.ndarray) -> np.ndarray:
    """Per-row argmax; ties break toward the lowest class index."""
    p = np.asarray(probs)
    if p.ndim != 2:
        raise DataError("probability matrix must be 2-d")
    return np.argmax(p, axis=1).astype(np.int64)
