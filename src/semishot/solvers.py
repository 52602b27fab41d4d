"""Prototype solvers, from class means to transport-guided adaptation.

Four strategies share one prediction rule (scaled dot products, argmax):

* zero-shot: text prototypes used as-is (no solver, see zeroshot module).
* fit_simpleshot: per-class means of the labeled embeddings.
* fit_sstext: closed-form blend of labeled class sums and text anchors.
* fit_sstextu: block-coordinate refinement that alternates transport-based
  pseudo-labeling of unlabeled embeddings with the closed-form blend.

The closed-form step is the exact minimizer of the combined objective at
fixed codes, since that objective is a convex quadratic per prototype
row. fit_sstextu therefore never increases the objective during a
prototype step; the recorded trace tracks the objective across rounds.
Step and trace are read off the class sums of the objectives module,
labeled sums once per fit and unlabeled sums once per round.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import SupportSet, UnlabeledSet
from .errors import ConfigError, DataError, DegeneratePlanError, SolverError
from .objectives import LambdaPolicy, _check_prototypes, _class_sums
from .transport import extract_pseudolabels, solve_transport
from .zeroshot import check_marginal, check_tau, similarity_matrix

MARGINAL_SOURCES = ("support_estimate", "support_raw", "oracle")


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Knobs shared by the adaptation solvers.

    tau: softmax/similarity temperature.
    bcm_iters: block-coordinate rounds (pseudo-label step + prototype step).
    ot_iters: row/column scaling rounds inside each pseudo-label step.
    marginal_ratio: floor ratio for zero entries of the estimated class
        marginal (fraction of the smallest observed entry).
    marginal_source: where the transport row marginal comes from;
        "support_estimate" floors and renormalizes the labeled-set
        frequencies, "support_raw" uses them uncorrected, "oracle" uses
        a caller-supplied vector.
    lambdas: penalty weight policy for the closed-form update.
    track_codes: keep per-round pseudo-label and prototype snapshots on
        the result (memory scales with bcm_iters).
    """

    tau: float = 0.01
    bcm_iters: int = 3
    ot_iters: int = 10
    marginal_ratio: float = 0.25
    marginal_source: str = "support_estimate"
    lambdas: LambdaPolicy = field(default_factory=LambdaPolicy.adaptive)
    track_codes: bool = False

    def __post_init__(self):
        check_tau(self.tau)
        if self.bcm_iters < 0:
            raise ConfigError(f"bcm_iters must be >= 0, got {self.bcm_iters}")
        if self.ot_iters < 0:
            raise ConfigError(f"ot_iters must be >= 0, got {self.ot_iters}")
        if not (0.0 < self.marginal_ratio < 1.0):
            raise ConfigError(
                f"marginal_ratio must be in (0, 1), got {self.marginal_ratio}")
        if self.marginal_source not in MARGINAL_SOURCES:
            raise ConfigError(
                f"marginal_source must be one of {MARGINAL_SOURCES}, "
                f"got {self.marginal_source!r}")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Solver output: adapted prototypes plus diagnostics.

    objective_trace: objective values across rounds. For the transport
    solver the trace has bcm_iters + 1 entries: entry 0 is the objective
    at the text-prototype start (under the first round's codes) and
    entry t follows round t's prototype step. For the labeled-only
    solver the trace is [start, final].
    missing_classes: indices of classes with no labeled sample, when the
    solver treats them specially.
    """

    prototypes: np.ndarray
    objective_trace: np.ndarray
    runtime_ms: float
    marginal: np.ndarray | None = None
    ot_residuals: np.ndarray | None = None
    pseudolabel_trace: tuple[np.ndarray, ...] | None = None
    prototype_trace: tuple[np.ndarray, ...] | None = None
    missing_classes: np.ndarray | None = None


def estimate_marginal(support: SupportSet) -> np.ndarray:
    """Class frequencies of the labeled set (zeros for absent classes)."""
    return support.shot_counts / support.n


def correct_marginal(marginal: np.ndarray, ratio: float = 0.25) -> np.ndarray:
    """Floor zero entries at ratio * (smallest positive entry), then
    renormalize. Estimates with no zeros pass through unchanged; an
    all-zero estimate is rejected."""
    if not (0.0 < ratio < 1.0):
        raise ConfigError(f"ratio must be in (0, 1), got {ratio}")
    m = np.asarray(marginal, dtype=np.float64)
    if m.ndim != 1 or np.any(m < 0) or not np.all(np.isfinite(m)):
        raise DataError("marginal must be a nonnegative finite vector")
    positive = m > 0
    if not positive.any():
        raise DataError("marginal has no positive entries")
    if positive.all():
        return m
    floor = ratio * m[positive].min()
    floored = np.maximum(m, floor)
    return floored / floored.sum()


def fit_simpleshot(support: SupportSet) -> FitResult:
    """Per-class means of the labeled embeddings. Classes with no
    labeled samples get an all-zero row (they score 0 for every point,
    so they are never predicted while any observed class scores > 0)
    and are flagged in missing_classes."""
    start = time.perf_counter()
    counts = support.shot_counts
    sums = support.labels.T @ support.embeddings
    denom = np.where(counts > 0, counts, 1.0)
    prototypes = sums / denom[:, None]
    elapsed = (time.perf_counter() - start) * 1e3
    return FitResult(
        prototypes=prototypes,
        objective_trace=np.array([], dtype=np.float64),
        runtime_ms=elapsed,
        missing_classes=np.flatnonzero(counts == 0),
    )


def update_prototypes(support: SupportSet, unlabeled: UnlabeledSet | None,
                      codes: np.ndarray | None, text_prototypes: np.ndarray,
                      tau: float, lambdas: LambdaPolicy) -> np.ndarray:
    """Exact minimizer of the combined objective at fixed codes.

    Row c is the text anchor plus the labeled class sum scaled by
    1 / (2 lambda_text_c N tau) plus, when unlabeled points and codes
    are present, the code-weighted unlabeled sum scaled by
    lambda_unl_c / (2 lambda_text_c M tau). Under the adaptive policy
    those scales are K_c / (2 N tau) and 1 / (M tau); the unlabeled
    scale persists for classes with K_c = 0 (its finite limit), so text
    anchor and pseudo-labels still place unobserved classes.
    """
    tau = check_tau(tau)
    t = _check_prototypes(support, text_prototypes, "text prototypes")
    if unlabeled is not None and unlabeled.count > 0 and codes is None:
        raise DataError("unlabeled embeddings given without codes")
    sums = _class_sums(support, tau, lambdas).with_codes(unlabeled, codes, tau)
    return sums.minimizer(t)


def fit_sstext(support: SupportSet, text_prototypes: np.ndarray,
               cfg: SolverConfig | None = None) -> FitResult:
    """One closed-form step from text prototypes using labeled data only."""
    cfg = cfg or SolverConfig()
    start = time.perf_counter()
    t = _check_prototypes(support, text_prototypes, "text prototypes")
    sums = _class_sums(support, cfg.tau, cfg.lambdas)
    initial = sums.objective(t, t).total
    prototypes = sums.minimizer(t)
    final = sums.objective(prototypes, t).total
    elapsed = (time.perf_counter() - start) * 1e3
    return FitResult(
        prototypes=prototypes,
        objective_trace=np.array([initial, final], dtype=np.float64),
        runtime_ms=elapsed,
    )


def _resolve_marginal(support: SupportSet, cfg: SolverConfig,
                      oracle_marginal: np.ndarray | None) -> np.ndarray:
    if cfg.marginal_source == "oracle":
        if oracle_marginal is None:
            raise ConfigError("marginal_source 'oracle' needs oracle_marginal")
        return check_marginal(oracle_marginal, support.class_count, "oracle marginal")
    estimate = estimate_marginal(support)
    if cfg.marginal_source == "support_raw":
        return estimate
    return correct_marginal(estimate, cfg.marginal_ratio)


def fit_sstextu(support: SupportSet, unlabeled: UnlabeledSet,
                text_prototypes: np.ndarray, cfg: SolverConfig | None = None,
                oracle_marginal: np.ndarray | None = None) -> FitResult:
    """Block-coordinate adaptation with transport-based pseudo-labels.

    Round t scores unlabeled points against the current prototypes,
    balances the resulting plan toward the class marginal and the
    uniform column marginal, reads per-point codes off the plan, and
    applies the closed-form prototype step under those codes.

    Boundary behavior: zero rounds returns the text prototypes
    untouched; an empty unlabeled set collapses every round to the
    labeled-only closed form, so the prototypes equal fit_sstext's
    output exactly and the trace repeats its final value.
    """
    cfg = cfg or SolverConfig()
    start = time.perf_counter()
    t = _check_prototypes(support, text_prototypes, "text prototypes")
    if unlabeled.count > 0 and unlabeled.dim != support.dim:
        raise DataError(
            f"unlabeled dim {unlabeled.dim} does not match support dim {support.dim}")

    if cfg.bcm_iters == 0:
        initial = _class_sums(support, cfg.tau, cfg.lambdas).objective(t, t).total
        elapsed = (time.perf_counter() - start) * 1e3
        return FitResult(
            prototypes=t,
            objective_trace=np.array([initial], dtype=np.float64),
            runtime_ms=elapsed,
        )

    if unlabeled.count == 0:
        labeled_only = fit_sstext(support, t, cfg)
        initial, final = labeled_only.objective_trace
        # prototype step ignores the current prototypes, so every round
        # lands on the same point and the trace is flat after step 1
        trace = [initial] + [final] * cfg.bcm_iters
        elapsed = (time.perf_counter() - start) * 1e3
        return FitResult(
            prototypes=labeled_only.prototypes,
            objective_trace=np.array(trace, dtype=np.float64),
            runtime_ms=elapsed,
        )

    base = _class_sums(support, cfg.tau, cfg.lambdas)
    marginal = _resolve_marginal(support, cfg, oracle_marginal)
    prototypes = t
    trace: list[float] = []
    residuals: list[float] = []
    code_snaps: list[np.ndarray] = []
    proto_snaps: list[np.ndarray] = []
    for round_idx in range(1, cfg.bcm_iters + 1):
        try:
            scores = similarity_matrix(prototypes, unlabeled.embeddings, cfg.tau)
            plan = solve_transport(scores, marginal, cfg.ot_iters)
            codes = extract_pseudolabels(plan)
        except (DegeneratePlanError, DataError) as exc:
            raise SolverError(
                f"pseudo-label step failed at round {round_idx}: {exc}",
                iteration=round_idx) from exc
        residuals.append(plan.residual)
        sums = base.with_codes(unlabeled, codes, cfg.tau)
        if round_idx == 1:
            trace.append(sums.objective(prototypes, t).total)
        prototypes = sums.minimizer(t)
        trace.append(sums.objective(prototypes, t).total)
        if cfg.track_codes:
            code_snaps.append(codes)
            proto_snaps.append(prototypes)
    elapsed = (time.perf_counter() - start) * 1e3
    return FitResult(
        prototypes=prototypes,
        objective_trace=np.array(trace, dtype=np.float64),
        runtime_ms=elapsed,
        marginal=marginal,
        ot_residuals=np.array(residuals, dtype=np.float64),
        pseudolabel_trace=tuple(code_snaps) if cfg.track_codes else None,
        prototype_trace=tuple(proto_snaps) if cfg.track_codes else None,
    )
