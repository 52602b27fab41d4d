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
the code-weighted unlabeled sums Z^T U, so its value, its gradient and
the closed-form prototype update are all read off one record of those
sums and the per-class weights.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import SupportSet, UnlabeledSet
from .errors import ConfigError, DataError
from .zeroshot import _logsumexp, check_tau, similarity_matrix


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
                    arr = np.asarray(getattr(self, name), dtype=np.float64)
                except (TypeError, ValueError):
                    raise ConfigError(f"{name} must be a numeric vector") from None
                if arr.ndim != 1:
                    raise ConfigError(f"{name} must be 1-d, got shape {arr.shape}")
                if not np.all(np.isfinite(arr)):
                    raise ConfigError(f"{name} must be finite")
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
        """Per-class text penalty weights; inf marks unobserved classes."""
        counts = np.asarray(shot_counts, dtype=np.float64)
        if self.mode == "fixed":
            if self.fixed_text.shape != counts.shape:
                raise ConfigError("fixed text weights do not match the class count")
            return self.fixed_text
        with np.errstate(divide="ignore"):
            return np.where(counts > 0, 1.0 / np.maximum(counts, 1e-300), np.inf)

    def unlabeled_weights(self, shot_counts: np.ndarray) -> np.ndarray:
        """Per-class unlabeled weights; inf marks unobserved classes."""
        counts = np.asarray(shot_counts, dtype=np.float64)
        if self.mode == "fixed":
            if self.fixed_unlabeled.shape != counts.shape:
                raise ConfigError("fixed unlabeled weights do not match the class count")
            return self.fixed_unlabeled
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
    wts = np.asarray(weights, dtype=np.float64)
    if wts.shape != s.shape:
        raise DataError(f"weights shape {wts.shape} does not match logits {s.shape}")
    return float(-(wts * s).sum(axis=1).mean())


def eval_contrast(embeddings: np.ndarray, prototypes: np.ndarray, tau: float) -> float:
    """Mean over samples of log sum_c exp((v_i . w_c) / tau)."""
    s = similarity_matrix(prototypes, embeddings, tau).T
    return float(_logsumexp(s, axis=1).mean())


def eval_ce(labels: np.ndarray, embeddings: np.ndarray,
            prototypes: np.ndarray, tau: float) -> float:
    """Mean softmax cross-entropy; equals tightness + contrast."""
    s = similarity_matrix(prototypes, embeddings, tau).T
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != s.shape:
        raise DataError(f"labels shape {y.shape} does not match logits {s.shape}")
    logz = _logsumexp(s, axis=1)[:, None]
    return float(-(y * (s - logz)).sum(axis=1).mean())


@dataclass(frozen=True, eq=False)
class _ClassSums:
    """The per-class quantities the combined objective is linear in.

    labeled: Y^T V / (N tau), fixed for a fit.
    unlabeled: Z^T U / (M tau), zeros without unlabeled points or codes.
    lam_text, lam_unl: per-class weights of the reported objective.
    step_labeled, step_unlabeled: per-class scales of the two sums in
        the closed-form step.
    """

    labeled: np.ndarray
    unlabeled: np.ndarray
    lam_text: np.ndarray
    lam_unl: np.ndarray
    step_labeled: np.ndarray
    step_unlabeled: np.ndarray

    def with_codes(self, unlabeled: UnlabeledSet | None, codes: np.ndarray | None,
                   tau: float) -> "_ClassSums":
        """This record with the unlabeled sums of ``codes``."""
        sums = np.zeros_like(self.labeled)
        if unlabeled is not None and unlabeled.count > 0 and codes is not None:
            z = np.asarray(codes, dtype=np.float64)
            if z.shape != (unlabeled.count, sums.shape[0]) or unlabeled.dim != sums.shape[1]:
                raise DataError(f"codes {z.shape} and unlabeled embeddings "
                                f"{unlabeled.embeddings.shape} do not fit {sums.shape}")
            sums = (z.T @ unlabeled.embeddings) / (unlabeled.count * tau)
        return replace(self, unlabeled=sums)

    def objective(self, prototypes: np.ndarray, text_prototypes: np.ndarray) -> ObjectiveValue:
        diff = prototypes - text_prototypes
        tight = -float((prototypes * self.labeled).sum())
        penalty = float(self.lam_text @ (diff * diff).sum(axis=1))
        unl = -float(self.lam_unl @ (prototypes * self.unlabeled).sum(axis=1))
        return ObjectiveValue(total=tight + penalty + unl, fewshot_term=tight,
                              text_penalty_term=penalty, unlabeled_term=unl)

    def gradient(self, prototypes: np.ndarray, text_prototypes: np.ndarray) -> np.ndarray:
        return (-self.labeled - self.lam_unl[:, None] * self.unlabeled
                + 2.0 * self.lam_text[:, None] * (prototypes - text_prototypes))

    def minimizer(self, text_prototypes: np.ndarray) -> np.ndarray:
        return (text_prototypes + self.step_labeled[:, None] * self.labeled
                + self.step_unlabeled[:, None] * self.unlabeled)


def _class_sums(support: SupportSet, tau: float, lambdas: LambdaPolicy) -> _ClassSums:
    """The labeled sums and per-class weights of a support set, with zero
    unlabeled sums.

    This is the one place that handles unobserved classes (infinite text
    weight): zero reported weights drop them from the objective, and with
    their zero labeled sums their gradient rows are zero; the closed-form
    step keeps the adaptive weight ratio's finite limit, 2.
    """
    counts = support.shot_counts
    lam_text = lambdas.text_weights(counts)
    lam_unl = lambdas.unlabeled_weights(counts)
    observed = np.isfinite(lam_text)
    ratio = np.divide(lam_unl, lam_text, out=np.full(counts.shape, 2.0), where=observed)
    labeled = (support.labels.T @ support.embeddings) / (support.n * tau)
    return _ClassSums(labeled=labeled, unlabeled=np.zeros_like(labeled),
                      lam_text=np.where(observed, lam_text, 0.0),
                      lam_unl=np.where(observed, lam_unl, 0.0),
                      step_labeled=0.5 / lam_text, step_unlabeled=0.5 * ratio)


def _check_prototypes(support: SupportSet, prototypes: np.ndarray,
                      what: str = "prototypes") -> np.ndarray:
    w = np.asarray(prototypes, dtype=np.float64)
    if w.shape != (support.class_count, support.dim):
        raise DataError(f"{what} shape {w.shape}, expected "
                        f"{(support.class_count, support.dim)}")
    if not np.all(np.isfinite(w)):
        raise DataError(f"{what} contain non-finite entries")
    return w


def _checked_sums(support, unlabeled, codes, prototypes, text_prototypes, tau, lambdas):
    """The public evaluators' input checks, then their class sums."""
    tau = check_tau(tau)
    w = _check_prototypes(support, prototypes)
    t = _check_prototypes(support, text_prototypes, "text prototypes")
    return _class_sums(support, tau, lambdas).with_codes(unlabeled, codes, tau), w, t


def eval_fewshot_objective(support: SupportSet, prototypes: np.ndarray,
                           text_prototypes: np.ndarray, tau: float,
                           lambdas: LambdaPolicy) -> float:
    """Supervised tightness plus the text-anchor penalty."""
    sums, w, t = _checked_sums(support, None, None, prototypes, text_prototypes,
                               tau, lambdas)
    return sums.objective(w, t).total


def eval_unlabeled_objective(unlabeled: UnlabeledSet, codes: np.ndarray,
                             prototypes: np.ndarray, tau: float) -> float:
    """Mean tightness of unlabeled embeddings under soft codes.

    ``codes`` has shape (M, C) with simplex rows. Empty unlabeled sets
    evaluate to 0. Linear in the codes.
    """
    if unlabeled.count == 0:
        return 0.0
    return eval_tightness(codes, unlabeled.embeddings, prototypes, tau)


def eval_semi_objective(support: SupportSet, unlabeled: UnlabeledSet,
                        codes: np.ndarray | None, prototypes: np.ndarray,
                        text_prototypes: np.ndarray, tau: float,
                        lambdas: LambdaPolicy) -> ObjectiveValue:
    """Combined objective: supervised tightness + text penalty + weighted
    unlabeled tightness, with each part reported separately."""
    sums, w, t = _checked_sums(support, unlabeled, codes, prototypes,
                               text_prototypes, tau, lambdas)
    return sums.objective(w, t)


def semi_objective_gradient(support: SupportSet, unlabeled: UnlabeledSet,
                            codes: np.ndarray | None, prototypes: np.ndarray,
                            text_prototypes: np.ndarray, tau: float,
                            lambdas: LambdaPolicy) -> np.ndarray:
    """Analytic gradient of the combined objective w.r.t. each prototype row.

    Rows for classes excluded from the reported objective (adaptive
    policy, K_c = 0) are zero: the reported value does not depend on
    those prototypes.
    """
    sums, w, t = _checked_sums(support, unlabeled, codes, prototypes,
                               text_prototypes, tau, lambdas)
    return sums.gradient(w, t)
