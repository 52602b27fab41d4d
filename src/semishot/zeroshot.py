"""Text-prototype ensembling, the scoring rule and softmax prediction.

``similarity_matrix`` (scores (W @ V.T) / tau, classes by points) is
the one scoring rule that prediction, the loss evaluators and the
transport step read, and ``_logsumexp`` the normaliser the first two
share; ``_scores`` is the unchecked core of the former over a leading
batch axis, which the solvers' round loop runs. The evaluation's
scoring pass calls ``_scores`` too, with a batch's prototype rows
stacked into one 2-D operand.

The package's intake checks live here too: ``check_tau``,
``check_count`` and ``check_real`` for scalar fields (a ConfigError),
``check_array`` for every array argument and ``check_marginal`` for a
class distribution (a DataError).
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


def check_array(x, what: str, shape: tuple[int | None, ...] | None = None,
                dtype=np.float64, finite: bool = False) -> np.ndarray:
    """``x`` as an ndarray of ``dtype`` (None keeps its own), with no copy
    when it already is one. ``shape`` gives each axis length, None for
    any length. Ragged, complex or non-numeric input, a wrong shape and,
    with ``finite``, a NaN or Inf entry are a DataError; complex input is
    refused before any cast, which would drop its imaginary part. A
    signalling NaN sets the invalid flag in a widening cast, which is
    silenced so that the finite check is the only signal."""
    try:
        arr = np.asarray(x)
        if arr.dtype.kind != "c":
            with np.errstate(invalid="ignore"):
                arr = np.asarray(arr, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{what} must be a numeric array: {exc}") from None
    if arr.dtype.kind not in "biuf":
        raise DataError(f"{what} must be a real numeric array, got dtype {arr.dtype}")
    if shape is not None and (arr.ndim != len(shape) or any(
            want is not None and want != got for want, got in zip(shape, arr.shape))):
        raise DataError(f"{what} shape {arr.shape}, expected {shape}")
    if finite and not np.all(np.isfinite(arr)):
        raise DataError(f"{what} contains non-finite entries")
    return arr


def check_marginal(marginal: np.ndarray, size: int, what: str = "marginal") -> np.ndarray:
    """A length-``size`` class distribution: nonnegative, summing to one,
    with every positive entry a normal float (at least
    ``np.finfo(float).tiny``): the transport scaling can underflow the
    row scale of a subnormal mass to zero, where log space keeps it."""
    m = check_array(marginal, what, (size,))
    with np.errstate(over="ignore"):
        total = m.sum()
    if np.any(m < 0) or not np.isclose(total, 1.0, atol=1e-9):
        raise DataError(f"{what} must be nonnegative and sum to one")
    if np.any((m > 0) & (m < np.finfo(np.float64).tiny)):
        raise DataError(f"{what} has a positive entry below the smallest normal float "
                        f"{np.finfo(np.float64).tiny}")
    return m


def ensemble_text_prototypes(per_class_templates: np.ndarray) -> np.ndarray:
    """Average per-class template embeddings and renormalize to unit norm.

    ``per_class_templates`` has shape (C, J, D) with J >= 1 templates per
    class. A class whose template mean collapses to (near) zero has no
    usable direction and raises DataError. Each class's templates are
    first scaled by a power of two to a largest magnitude in [0.5, 1):
    that is exact, the direction does not depend on it, and no mean or
    norm overflows; the (near) zero test reads the unscaled norm.
    """
    tmpl = check_array(per_class_templates, "templates", (None, None, None), finite=True)
    if tmpl.shape[1] == 0:
        raise DataError("at least one template per class is required")
    exponents = np.frexp(np.abs(tmpl).max(axis=(1, 2), initial=0.0))[1]
    means = np.ldexp(tmpl, -exponents[:, None, None]).mean(axis=1)
    norms = np.linalg.norm(means, axis=1)
    with np.errstate(over="ignore"):
        degenerate = np.flatnonzero(np.ldexp(norms, exponents) < 1e-8)
    if degenerate.size:
        raise DataError(
            f"template mean for classes {degenerate.tolist()} is (near) zero; "
            "cannot form a prototype"
        )
    return means / norms[:, None]


def similarity_matrix(prototypes: np.ndarray, embeddings: np.ndarray,
                      tau: float) -> np.ndarray:
    """Scaled cosine-style scores, classes by points: (W @ V.T) / tau.
    Prototypes with no rows are a DataError."""
    tau = check_tau(tau)
    w = check_array(prototypes, "prototypes", (None, None))
    if w.shape[0] == 0:
        raise DataError("prototypes must have at least one row")
    v = check_array(embeddings, "embeddings", (None, w.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        s = _scores(w, v, tau)
    if not np.all(np.isfinite(s)):
        raise DataError("similarity matrix contains non-finite entries")
    return s


def _scores(prototypes: np.ndarray, embeddings: np.ndarray, tau: float) -> np.ndarray:
    """``similarity_matrix`` without its checks, over any leading batch
    axes: (..., C, D) prototypes and (..., M, D) embeddings give
    (..., C, M) scores, a new array that the product is divided by
    ``tau`` in; neither argument is written."""
    scores = np.matmul(prototypes, np.swapaxes(embeddings, -1, -2))
    scores /= tau
    return scores


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
    """Per-row argmax; ties break toward the lowest class index. A matrix
    with no columns is a DataError."""
    p = check_array(probs, "probability matrix", (None, None), dtype=None)
    if p.shape[1] == 0:
        raise DataError("probability matrix must have at least one column")
    return np.argmax(p, axis=1).astype(np.int64)
