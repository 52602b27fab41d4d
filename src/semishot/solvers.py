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
exactly as its own one-element fit. Their labeled counts N may differ:
only the labeled sums read the support rows, and they are built for
each run of equal N and joined on the batch axis. Checks that cannot
change between rounds run once: the temperature when SolverConfig is
built, the text prototypes and an oracle class marginal once per fit.
The finite-score and finite-objective checks run every round.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .data import SupportSet, UnlabeledSet
from .errors import ConfigError, DataError, DegeneratePlanError, SolverError
from .objectives import (LambdaPolicy, _check_prototypes, _class_sums, _ClassSums,
                         _support_sums)
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
        marginal (fraction of the smallest observed entry).
    marginal_source: where the transport row marginal comes from;
        "support_estimate" floors and renormalizes the labeled-set
        frequencies, "support_raw" uses them uncorrected, "oracle" uses
        a caller-supplied vector.
    lambdas: penalty weight policy for the closed-form update.
    track_codes: keep per-round pseudo-label and prototype snapshots on
        the result (memory scales with bcm_iters).
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
    all-zero estimate is rejected. The estimate is first scaled by a
    power of two to a largest entry in [0.5, 1), which is exact and keeps
    the sum from overflowing."""
    if not 0.0 < check_real(ratio, "ratio") < 1.0:
        raise ConfigError(f"ratio must be in (0, 1), got {ratio}")
    m = check_array(marginal, "marginal", (None,), finite=True)
    if np.any(m < 0):
        raise DataError("marginal must be nonnegative")
    positive = m > 0
    if not positive.any():
        raise DataError("marginal has no positive entries")
    if positive.all():
        return m
    m = np.ldexp(m, -np.frexp(m.max())[1])
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
    return _support_sums(support, unlabeled, codes, tau, lambdas).minimizer(t)[0]


def fit_sstext(support: SupportSet, text_prototypes: np.ndarray,
               cfg: SolverConfig | None = None) -> FitResult:
    """One closed-form step from text prototypes using labeled data only."""
    return _adapt([support], text_prototypes, cfg or SolverConfig())[0]


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
    return _adapt([support], text_prototypes, cfg or SolverConfig(),
                  unlabeled.embeddings[None], [oracle_marginal])[0]


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """Same-shaped arrays as one (B, ...) array; a view when B=1."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _labeled_sums(supports: list[SupportSet], cfg: SolverConfig) -> _ClassSums:
    """The class sums of the supports, built for each run of equal N and
    joined on the batch axis; each element's sums are bitwise its own."""
    records = []
    for _, run in itertools.groupby(supports, key=lambda s: s.n):
        run = list(run)
        records.append(_class_sums(_stack([s.embeddings for s in run]),
                                   _stack([s.labels for s in run]), cfg.tau, cfg.lambdas))
    return _ClassSums.joined(records)


def _trace_entry(sums: _ClassSums, prototypes: np.ndarray, t: np.ndarray,
                 round_idx: int) -> np.ndarray:
    """The (B,) objective values of a round, or SolverError when one
    overflowed to a non-finite number (huge fixed weights can)."""
    with np.errstate(over="ignore", invalid="ignore"):
        totals = sums.totals(prototypes, t)
    if not np.all(np.isfinite(totals)):
        raise SolverError(f"objective is not finite at round {round_idx}",
                          iteration=round_idx)
    return totals


def _adapt(supports: list[SupportSet], text_prototypes: np.ndarray,
           cfg: SolverConfig, unlabeled: np.ndarray | None = None,
           oracle_marginals: list[np.ndarray | None] | None = None) -> list[FitResult]:
    """fit_sstext (no ``unlabeled``) or fit_sstextu of every element of a
    batch of problems that share the text prototypes, one FitResult per
    element, each exactly the element's own B=1 fit. ``unlabeled`` holds
    the elements' unlabeled embeddings as one (B, M, D) array; the
    supports may differ in N.

    A round scores, balances and steps every element at once; an error
    in any element fails the whole call. Each result's ``runtime_ms`` is
    the call's wall time divided by B.
    """
    start = time.perf_counter()
    t = _check_prototypes(supports[0], text_prototypes, "text prototypes")
    rounds = 1
    if unlabeled is not None:
        rounds = cfg.bcm_iters
        if unlabeled.shape[-2] > 0 and unlabeled.shape[-1] != t.shape[-1]:
            raise DataError(f"unlabeled dim {unlabeled.shape[-1]} does not match "
                            f"support dim {t.shape[-1]}")
        if unlabeled.shape[-2] == 0 or rounds == 0:
            unlabeled = None
    # huge or tiny fixed weights can overflow the sums and the step;
    # _trace_entry turns every non-finite value they feed into a SolverError
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        base = _labeled_sums(supports, cfg)
    marginal = None
    if unlabeled is not None:
        oracles = oracle_marginals or [None] * len(supports)
        marginal = np.stack([_resolve_marginal(s, cfg, o) for s, o in zip(supports, oracles)])

    prototypes = np.broadcast_to(t, base.labeled.shape)
    sums = base
    trace: list[np.ndarray] = []
    residuals: list[np.ndarray] = []
    code_snaps: list[np.ndarray] = []
    proto_snaps: list[np.ndarray] = []
    for round_idx in range(1, rounds + 1):
        if unlabeled is not None:
            with np.errstate(over="ignore", invalid="ignore"):  # checked just below
                scores = _scores(prototypes, unlabeled, cfg.tau)
            try:
                if not np.all(np.isfinite(scores)):
                    raise DataError("similarity matrix contains non-finite entries")
                values = _solve(scores, marginal, cfg.ot_iters)
                codes = _class_codes(values)
            except (DegeneratePlanError, DataError) as exc:
                raise SolverError(
                    f"pseudo-label step failed at round {round_idx}: {exc}",
                    iteration=round_idx) from exc
            residuals.append(np.abs(values.sum(axis=-1) - marginal).sum(axis=-1))
            sums = base.with_codes(codes, unlabeled, cfg.tau)
        if round_idx == 1:
            trace.append(_trace_entry(sums, prototypes, t, round_idx))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            prototypes = sums.minimizer(t)
        trace.append(_trace_entry(sums, prototypes, t, round_idx))
        if unlabeled is None:
            # the labeled-only step ignores the current prototypes, so
            # every round lands on the same point and the trace is flat
            trace += trace[-1:] * (rounds - 1)
            break
        if cfg.track_codes:
            code_snaps.append(codes)
            proto_snaps.append(prototypes)
    if not trace:
        trace.append(_trace_entry(base, prototypes, t, 0))
    elapsed = (time.perf_counter() - start) * 1e3 / len(supports)
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
    ) for b in range(len(supports))]
