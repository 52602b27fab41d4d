"""Loss evaluators for prototype adaptation.

The supervised cross-entropy over softmax scores splits into two parts:
a tightness term, the negative mean similarity between each sample and
its labeled class prototype, and a contrast term, the mean log-sum-exp
of all prototype similarities. The adaptation objectives used by the
solvers keep only the tightness part, add a per-class squared-distance
penalty anchoring prototypes to their text prototypes, and optionally a
pseudo-labeled tightness term over unlabeled embeddings.

Per-class penalty weights come from a LambdaPolicy. The adaptive policy
sets the text weight to 1/K_c (K_c = labeled count of class c) and the
unlabeled weight to twice that. Classes with K_c = 0 have an infinite
text weight in the limit; their penalty and unlabeled contributions are
excluded from reported objective values, which keeps every reported
number finite and keeps the closed-form update the exact minimizer of
what is reported (the solver still moves those prototypes using the
unlabeled term's finite limit coefficient).

The combined objective is linear in the labeled class sums Y^T V and
the code-weighted unlabeled sums Z^T U, so its value and the
closed-form prototype update are both read off one record of those sums
and the per-class weights. The record carries a leading batch axis, so
the solvers fit many same-shaped problems at once; the public entry
points use it with one element.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .data import SupportSet, UnlabeledSet
from .errors import ConfigError, DataError
from .zeroshot import _logsumexp, check_array, check_tau, similarity_matrix


@dataclass(frozen=True, eq=False)
class LambdaPolicy:
    """Per-class weights for the text penalty and the unlabeled term."""

    mode: str = "adaptive"
    fixed_text: np.ndarray | None = None
    fixed_unlabeled: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("adaptive", "fixed"):
            raise ConfigError(f"unknown lambda mode {self.mode!r}")
        if self.mode == "adaptive":
            if self.fixed_text is not None or self.fixed_unlabeled is not None:
                raise ConfigError("adaptive lambda policy must not carry fixed values")
        else:
            if self.fixed_text is None or self.fixed_unlabeled is None:
                raise ConfigError("fixed lambda policy needs both weight vectors")
            for name in ("fixed_text", "fixed_unlabeled"):
                try:
                    arr = check_array(getattr(self, name), name, (None,), finite=True)
                except DataError as exc:
                    raise ConfigError(str(exc)) from None
                object.__setattr__(self, name, arr)
            if np.any(self.fixed_text <= 0):
                raise ConfigError("fixed text weights must be strictly positive")
            if np.any(self.fixed_unlabeled < 0):
                raise ConfigError("fixed unlabeled weights must be nonnegative")

    @classmethod
    def adaptive(cls) -> "LambdaPolicy":
        return cls(mode="adaptive")

    @classmethod
    def fixed(cls, text, unlabeled) -> "LambdaPolicy":
        return cls(mode="fixed", fixed_text=text, fixed_unlabeled=unlabeled)

    def text_weights(self, shot_counts: np.ndarray) -> np.ndarray:
        """Per-class text penalty weights; inf marks unobserved classes.
        Counts may carry leading batch axes."""
        counts = np.asarray(shot_counts, dtype=np.float64)
        if self.mode == "fixed":
            if self.fixed_text.shape != counts.shape[-1:]:
                raise ConfigError("fixed text weights do not match the class count")
            return np.broadcast_to(self.fixed_text, counts.shape)
        with np.errstate(divide="ignore"):
            return np.where(counts > 0, 1.0 / np.maximum(counts, 1e-300), np.inf)

    def unlabeled_weights(self, shot_counts: np.ndarray) -> np.ndarray:
        """Per-class unlabeled weights; inf marks unobserved classes."""
        counts = np.asarray(shot_counts, dtype=np.float64)
        if self.mode == "fixed":
            if self.fixed_unlabeled.shape != counts.shape[-1:]:
                raise ConfigError("fixed unlabeled weights do not match the class count")
            return np.broadcast_to(self.fixed_unlabeled, counts.shape)
        return 2.0 * self.text_weights(shot_counts)


@dataclass(frozen=True)
class ObjectiveValue:
    """Decomposed combined objective; total is the sum of the parts."""

    total: float
    fewshot_term: float
    text_penalty_term: float
    unlabeled_term: float


def eval_tightness(weights: np.ndarray, embeddings: np.ndarray,
                   prototypes: np.ndarray, tau: float) -> float:
    """Mean over samples of -sum_c weights[i, c] * (v_i . w_c) / tau.

    ``weights`` rows are one-hot labels or soft assignment codes.
    """
    s = similarity_matrix(prototypes, embeddings, tau).T
    wts = check_array(weights, "weights", s.shape)
    return float(-(wts * s).sum(axis=1).mean())


def eval_contrast(embeddings: np.ndarray, prototypes: np.ndarray, tau: float) -> float:
    """Mean over samples of log sum_c exp((v_i . w_c) / tau)."""
    s = similarity_matrix(prototypes, embeddings, tau).T
    return float(_logsumexp(s, axis=1).mean())


def eval_ce(labels: np.ndarray, embeddings: np.ndarray,
            prototypes: np.ndarray, tau: float) -> float:
    """Mean softmax cross-entropy; equals tightness + contrast."""
    s = similarity_matrix(prototypes, embeddings, tau).T
    y = check_array(labels, "labels", s.shape)
    logz = _logsumexp(s, axis=1)[:, None]
    return float(-(y * (s - logz)).sum(axis=1).mean())


@dataclass(frozen=True, eq=False)
class _ClassSums:
    """The per-class quantities the combined objective is linear in, for
    a batch of B fits that share C and D.

    labeled: Y^T V / (N tau), (B, C, D), fixed for a fit.
    unlabeled: Z^T U / (M tau), (B, C, D), zeros without unlabeled
        points or codes.
    lam_text, lam_unl: (B, C) per-class weights of the reported objective.
    step_labeled, step_unlabeled: (B, C) per-class scales of the two sums
        in the closed-form step.

    Prototype arguments are (B, C, D) or broadcast to it, such as one
    (C, D) text matrix shared by the batch.
    """

    labeled: np.ndarray
    unlabeled: np.ndarray
    lam_text: np.ndarray
    lam_unl: np.ndarray
    step_labeled: np.ndarray
    step_unlabeled: np.ndarray

    @classmethod
    def joined(cls, records: list["_ClassSums"]) -> "_ClassSums":
        """One record of the batches of ``records`` in order, each field
        concatenated on the batch axis."""
        if len(records) == 1:
            return records[0]
        return cls(**{f.name: np.concatenate([getattr(r, f.name) for r in records])
                      for f in fields(cls)})

    def with_codes(self, codes: np.ndarray, embeddings: np.ndarray,
                   tau: float) -> "_ClassSums":
        """This record with the unlabeled sums of (B, C, M) codes over
        (B, M, D) unlabeled embeddings."""
        sums = np.matmul(codes, embeddings) / (embeddings.shape[-2] * tau)
        return replace(self, unlabeled=sums)

    def parts(self, prototypes: np.ndarray,
              text_prototypes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (B,) few-shot, text-penalty and unlabeled terms."""
        diff = prototypes - text_prototypes
        product = prototypes * self.labeled
        tight = -product.reshape(product.shape[:-2] + (-1,)).sum(axis=-1)
        penalty = _dot(self.lam_text, (diff * diff).sum(axis=-1))
        unl = -_dot(self.lam_unl, (prototypes * self.unlabeled).sum(axis=-1))
        return tight, penalty, unl

    def totals(self, prototypes: np.ndarray, text_prototypes: np.ndarray) -> np.ndarray:
        """The (B,) objective values."""
        tight, penalty, unl = self.parts(prototypes, text_prototypes)
        return tight + penalty + unl

    def objective(self, prototypes: np.ndarray, text_prototypes: np.ndarray) -> ObjectiveValue:
        """The objective parts of a one-element record."""
        (tight,), (penalty,), (unl,) = self.parts(prototypes, text_prototypes)
        tight, penalty, unl = float(tight), float(penalty), float(unl)
        return ObjectiveValue(total=tight + penalty + unl, fewshot_term=tight,
                              text_penalty_term=penalty, unlabeled_term=unl)

    def minimizer(self, text_prototypes: np.ndarray) -> np.ndarray:
        return (text_prototypes + self.step_labeled[..., None] * self.labeled
                + self.step_unlabeled[..., None] * self.unlabeled)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the last axes of (..., C) vectors, one BLAS dot
    each, as ``a @ b`` takes them for 1-d vectors."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _class_sums(embeddings: np.ndarray, labels: np.ndarray, tau: float,
                lambdas: LambdaPolicy) -> _ClassSums:
    """The labeled sums and per-class weights of a batch of support sets,
    (B, N, D) unit rows with (B, N, C) one-hot labels, with zero
    unlabeled sums.

    This is the one place that handles unobserved classes (infinite text
    weight): zero reported weights drop them from the objective, and with
    their zero labeled sums the objective does not depend on their
    prototype rows; the closed-form step keeps the adaptive weight
    ratio's finite limit, 2.
    """
    counts = labels.sum(axis=-2)
    lam_text = lambdas.text_weights(counts)
    lam_unl = lambdas.unlabeled_weights(counts)
    observed = np.isfinite(lam_text)
    ratio = np.divide(lam_unl, lam_text, out=np.full(counts.shape, 2.0), where=observed)
    labeled = np.matmul(np.swapaxes(labels, -1, -2), embeddings) / (labels.shape[-2] * tau)
    return _ClassSums(labeled=labeled, unlabeled=np.zeros_like(labeled),
                      lam_text=np.where(observed, lam_text, 0.0),
                      lam_unl=np.where(observed, lam_unl, 0.0),
                      step_labeled=0.5 / lam_text, step_unlabeled=0.5 * ratio)


def _support_sums(support: SupportSet, unlabeled: UnlabeledSet | None,
                  codes: np.ndarray | None, tau: float,
                  lambdas: LambdaPolicy) -> _ClassSums:
    """The one-element record of a support set, with the unlabeled sums
    of (M, C) ``codes`` when unlabeled points and codes are given."""
    sums = _class_sums(support.embeddings[None], support.labels[None], tau, lambdas)
    if unlabeled is None or unlabeled.count == 0 or codes is None:
        return sums
    c, d = sums.labeled.shape[1:]
    z = check_array(codes, "codes", (unlabeled.count, c))
    if unlabeled.dim != d:
        raise DataError(f"unlabeled dim {unlabeled.dim} does not match support dim {d}")
    return sums.with_codes(z.T[None], unlabeled.embeddings[None], tau)


def _check_prototypes(support: SupportSet, prototypes: np.ndarray,
                      what: str = "prototypes") -> np.ndarray:
    return check_array(prototypes, what, (support.class_count, support.dim), finite=True)


def eval_semi_objective(support: SupportSet, unlabeled: UnlabeledSet,
                        codes: np.ndarray | None, prototypes: np.ndarray,
                        text_prototypes: np.ndarray, tau: float,
                        lambdas: LambdaPolicy) -> ObjectiveValue:
    """Combined objective, each part reported: supervised tightness + text
    penalty + weighted unlabeled tightness (0 without points or codes)."""
    tau = check_tau(tau)
    w = _check_prototypes(support, prototypes)
    t = _check_prototypes(support, text_prototypes, "text prototypes")
    sums = _support_sums(support, unlabeled, codes, tau, lambdas)
    return sums.objective(w[None], t[None])

