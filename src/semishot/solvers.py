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

fit_sstext and fit_sstextu are one-element calls of one private round
loop that runs over a leading batch axis: B problems that share M, C and
D (the cells of a benchmark grid do, across its shot counts) are
scored, balanced and stepped together, and each element comes out
exactly as its own one-element fit. The round loop's only labeled input
is the Y^T V/count record, one product per support, which its caller
builds: once for a batch that several solvers fit (simpleshot's class
means are read off it too), so N may differ, or for a public fit's one
support. Checks that cannot change between rounds run once: the
temperature when SolverConfig is built, the text prototypes once per
call and an oracle marginal on entry.
The finite-score and finite-objective checks run every round; the
transport solve finds non-finite scores from the maxima and minima its
shift takes. A round makes two (B, C, M) arrays: the scores, and the
kernel that the solve builds the plan in and the codes overwrite once
the plan's residual is read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import SupportSet, UnlabeledSet
from .errors import ConfigError, DataError, DegeneratePlanError, SolverError
from .objectives import (LambdaPolicy, _check_prototypes, _class_sums, _ClassSums,
                         _labeled_sums, _LabeledSums, _support_sums)
from .transport import _class_codes, _solve
from .zeroshot import (DEFAULT_TAU, _scores, check_array, check_count, check_marginal,
                       check_real, check_tau)

MARGINAL_SOURCES = ("support_estimate", "support_raw", "oracle")


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Knobs shared by the adaptation solvers.

    tau: softmax/similarity temperature.
    bcm_iters: block-coordinate rounds (pseudo-label step + prototype step).
    ot_iters: row/column scaling rounds inside each pseudo-label step.
    marginal_ratio: floor ratio for zero entries of the estimated class
        marginal (fraction of the smallest observed entry); a fit whose
        floored mass is not a positive normal float raises ConfigError.
    marginal_source: where the transport row marginal comes from;
        "support_estimate" floors and renormalizes the labeled-set
        frequencies, "support_raw" uses them uncorrected, "oracle" uses
        a caller-supplied vector.
    lambdas: penalty weight policy for the closed-form update, a
        LambdaPolicy.
    track_codes: a bool; keep per-round pseudo-label and prototype
        snapshots on the result (memory scales with bcm_iters).
    """

    tau: float = DEFAULT_TAU
    bcm_iters: int = 3
    ot_iters: int = 10
    marginal_ratio: float = 0.25
    marginal_source: str = "support_estimate"
    lambdas: LambdaPolicy = field(default_factory=LambdaPolicy.adaptive)
    track_codes: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tau", check_tau(self.tau))
        for name in ("bcm_iters", "ot_iters"):
            object.__setattr__(self, name, check_count(getattr(self, name), name))
        if not 0.0 < check_real(self.marginal_ratio, "marginal_ratio") < 1.0:
            raise ConfigError(
                f"marginal_ratio must be in (0, 1), got {self.marginal_ratio}")
        if self.marginal_source not in MARGINAL_SOURCES:
            raise ConfigError(
                f"marginal_source must be one of {MARGINAL_SOURCES}, "
                f"got {self.marginal_source!r}")
        if not isinstance(self.lambdas, LambdaPolicy):
            raise ConfigError(f"lambdas must be a LambdaPolicy, got {self.lambdas!r}")
        if not isinstance(self.track_codes, bool):
            raise ConfigError(f"track_codes must be a bool, got {self.track_codes!r}")


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
    renormalize. The result is always a new array; an estimate with no
    zeros comes back with its values unchanged. An all-zero estimate is
    rejected, and a ratio that floors a mass below the smallest normal
    float is a ConfigError. The estimate is first scaled by a power of
    two to a largest entry in [0.5, 1), which is exact and keeps the sum
    from overflowing."""
    if not 0.0 < check_real(ratio, "ratio") < 1.0:
        raise ConfigError(f"ratio must be in (0, 1), got {ratio}")
    m = check_array(marginal, "marginal", (None,), finite=True)
    if np.any(m < 0):
        raise DataError("marginal must be nonnegative")
    if not np.any(m > 0):
        raise DataError("marginal has no positive entries")
    return _floored(m, ratio)


def _floored(m: np.ndarray, ratio: float) -> np.ndarray:
    """``correct_marginal`` of arguments that it accepts, unchecked, of
    each row of a (..., C) ``m``, in a new array; a row without zeros
    keeps its values. A ratio of another real type is taken as the float
    it multiplies as. A floored mass that is not a positive normal
    float, which a tiny ratio makes, is a ConfigError: transport cannot
    keep a subnormal mass, and a zero one would leave its class as
    absent as no floor does."""
    positive = m > 0
    scaled = np.ldexp(m, -np.frexp(m.max(axis=-1, keepdims=True))[1])
    floor = float(ratio) * np.where(positive, scaled, np.inf).min(axis=-1, keepdims=True)
    floored = np.maximum(scaled, floor)
    floored /= floored.sum(axis=-1, keepdims=True)
    whole = positive.all(axis=-1, keepdims=True)
    low = np.where(whole, 1.0, floored).min()
    if low < np.finfo(np.float64).tiny:
        raise ConfigError(f"marginal_ratio {ratio} floors a class mass to {low:g}, "
                          f"below the smallest normal float")
    return np.where(whole, m, floored)


def fit_simpleshot(support: SupportSet) -> FitResult:
    """Per-class means of the labeled embeddings. Classes with no
    labeled samples get an all-zero row (they score 0 for every point,
    so they are never predicted while any observed class scores > 0)
    and are flagged in missing_classes."""
    return _fit_alone(_simpleshot, support)


def _fit_alone(fit, support: SupportSet, *args) -> FitResult:
    """``fit`` of ``support`` alone, charged for the record it builds."""
    start = time.perf_counter()
    (result,) = fit(_labeled_sums([support]), *args)
    return replace(result, runtime_ms=(time.perf_counter() - start) * 1e3)


def _simpleshot(labeled: _LabeledSums) -> list[FitResult]:
    """fit_simpleshot of every support of a batch: its record's raw class
    sums over max(K_c, 1). Each result's ``runtime_ms`` is the call's
    wall time divided by B; the record is not charged to it."""
    start = time.perf_counter()
    prototypes = labeled.raw / np.maximum(labeled.counts, 1.0)[..., None]
    missing = labeled.counts == 0
    elapsed = (time.perf_counter() - start) * 1e3 / len(prototypes)
    return [FitResult(
        prototypes=p,
        objective_trace=np.array([], dtype=np.float64),
        runtime_ms=elapsed,
        missing_classes=np.flatnonzero(m),
    ) for p, m in zip(prototypes, missing)]


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
    return _support_sums(support, unlabeled, codes, tau, lambdas).minimizer(t)[0]


def fit_sstext(support: SupportSet, text_prototypes: np.ndarray,
               cfg: SolverConfig | None = None) -> FitResult:
    """One closed-form step from text prototypes using labeled data only."""
    return _fit_alone(_adapt, support, text_prototypes, cfg or SolverConfig())


def _checked_oracle(oracle_marginal, support: SupportSet, cfg: SolverConfig):
    """``oracle_marginal``, checked as a class distribution of the
    support's classes when the oracle marginal source reads it."""
    if oracle_marginal is None or cfg.marginal_source != "oracle":
        return oracle_marginal
    return check_marginal(oracle_marginal, support.class_count, "oracle marginal")


def _resolve_marginals(labeled: _LabeledSums, cfg: SolverConfig,
                       oracle_marginals: list[np.ndarray | None]) -> np.ndarray:
    """The (B, C) transport row marginals of a batch: its oracle
    marginals, or its supports' class frequencies, floored unless the
    source is "support_raw"; each row bitwise that of its support's
    ``estimate_marginal`` and ``correct_marginal``."""
    if cfg.marginal_source == "oracle":
        if any(o is None for o in oracle_marginals):
            raise ConfigError("marginal_source 'oracle' needs oracle_marginal")
        return np.stack(oracle_marginals)
    estimate = labeled.counts / labeled.counts.sum(axis=1, keepdims=True)
    if cfg.marginal_source == "support_raw":
        return estimate
    return _floored(estimate, cfg.marginal_ratio)


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
    return _fit_alone(_adapt, support, text_prototypes, cfg, unlabeled.embeddings[None],
                      [_checked_oracle(oracle_marginal, support, cfg)])


def _trace_entry(sums: _ClassSums, prototypes: np.ndarray, t: np.ndarray,
                 round_idx: int) -> np.ndarray:
    """The (B,) objective values of a round, or SolverError when one
    overflowed to a non-finite number (huge fixed weights can), silently
    under ``_adapt``'s error state."""
    totals = sums.totals(prototypes, t)
    if not np.all(np.isfinite(totals)):
        raise SolverError(f"objective is not finite at round {round_idx}",
                          iteration=round_idx)
    return totals


# a tiny tau or huge fixed weights can overflow the scores, the sums and
# the step; the fit's explicit finiteness, held-rule, empty-column and
# normal-mass checks, not floating-point flags, are its failure signals
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _adapt(labeled: _LabeledSums, text_prototypes: np.ndarray, cfg: SolverConfig,
           unlabeled: np.ndarray | None = None,
           oracle_marginals: list[np.ndarray | None] | None = None) -> list[FitResult]:
    """fit_sstext (no ``unlabeled``) or fit_sstextu of every element of a
    batch of problems that share the text prototypes, one FitResult per
    element, each exactly the element's own B=1 fit. ``labeled`` is the
    supports' labeled record, the round loop's only labeled input (the
    supports may differ in N); ``unlabeled`` holds the elements'
    unlabeled embeddings as one (B, M, D) array.

    Every round runs one body; without unlabeled points the step does
    not read the prototypes, so the trace is flat after its start. An
    error in any element fails the whole call. Each result's
    ``runtime_ms`` is the call's wall time divided by B; the record
    handed in is not charged to it.
    """
    start = time.perf_counter()
    t = check_array(text_prototypes, "text prototypes", labeled.raw.shape[1:], finite=True)
    rounds = 1
    if unlabeled is not None:
        rounds = cfg.bcm_iters
        if unlabeled.shape[-2] > 0 and unlabeled.shape[-1] != t.shape[-1]:
            raise DataError(f"unlabeled dim {unlabeled.shape[-1]} does not match "
                            f"support dim {t.shape[-1]}")
        if unlabeled.shape[-2] == 0 or rounds == 0:
            unlabeled = None
    base = _class_sums(labeled, cfg.tau, cfg.lambdas)
    batch = len(labeled.raw)
    marginal = None
    if unlabeled is not None:
        marginal = _resolve_marginals(labeled, cfg, oracle_marginals or [None] * batch)

    prototypes = np.broadcast_to(t, base.labeled.shape)
    sums = base
    trace: list[np.ndarray] = []
    residuals: list[np.ndarray] = []
    code_snaps: list[np.ndarray] = []
    proto_snaps: list[np.ndarray] = []
    for round_idx in range(1, rounds + 1):
        if unlabeled is not None:
            scores = _scores(prototypes, unlabeled, cfg.tau)
            try:
                values = _solve(scores, marginal, cfg.ot_iters)
                residuals.append(np.abs(values.sum(axis=-1) - marginal).sum(axis=-1))
                codes = _class_codes(values)  # over the plan, read just above
            except (DegeneratePlanError, DataError) as exc:
                raise SolverError(
                    f"pseudo-label step failed at round {round_idx}: {exc}",
                    iteration=round_idx) from exc
            sums = base.with_codes(codes, unlabeled, cfg.tau)
        if not trace:
            trace.append(_trace_entry(sums, prototypes, t, round_idx))
        prototypes = sums.minimizer(t)
        trace.append(_trace_entry(sums, prototypes, t, round_idx))
        if cfg.track_codes and unlabeled is not None:
            code_snaps.append(codes)
            proto_snaps.append(prototypes)
    if not trace:
        trace.append(_trace_entry(base, prototypes, t, 0))
    elapsed = (time.perf_counter() - start) * 1e3 / batch
    objective = np.stack(trace, axis=-1)
    residual = np.stack(residuals, axis=-1) if residuals else None
    return [FitResult(
        prototypes=prototypes[b],
        objective_trace=objective[b],
        runtime_ms=elapsed,
        marginal=None if marginal is None else marginal[b],
        ot_residuals=None if residual is None else residual[b],
        pseudolabel_trace=tuple(c[b].T for c in code_snaps) if code_snaps else None,
        prototype_trace=tuple(p[b] for p in proto_snaps) if proto_snaps else None,
    ) for b in range(batch)]
