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
exactly as its own one-element fit, or as the error that fit raises:
a check on one element's data fails that element alone, and the public
fits raise its error. The round loop's only labeled input
is the Y^T V/count record, one product per support, which its caller
builds: once for a batch that several solvers fit (simpleshot's class
means are read off it too), so N may differ, or for a public fit's one
support. Checks that cannot change between rounds run once: the
temperature when SolverConfig is built, the text prototypes once per
call and an oracle marginal on entry. The finite-score, empty-column
and finite-objective checks run every round. A round makes two
(B, C, M) arrays: the scores, and the kernel that the solve builds the
plan in and the codes overwrite once the plan's residual is read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import SupportSet, UnlabeledSet
from .errors import ConfigError, DataError, SemishotError, SolverError
from .objectives import (LambdaPolicy, _check_prototypes, _class_sums, _ClassSums,
                         _labeled_sums, _LabeledSums, _support_sums)
from .transport import _class_codes, _residual, _solve
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
    runtime_ms: wall time of the fit; 0 unless a public fit or the
    benchmark harness timed it.
    missing_classes: indices of classes with no labeled sample, when the
    solver treats them specially.
    """

    prototypes: np.ndarray
    objective_trace: np.ndarray
    runtime_ms: float = 0.0
    marginal: np.ndarray | None = None
    ot_residuals: np.ndarray | None = None
    pseudolabel_trace: tuple[np.ndarray, ...] | None = None
    prototype_trace: tuple[np.ndarray, ...] | None = None
    missing_classes: np.ndarray | None = None


def estimate_marginal(support: SupportSet) -> np.ndarray:
    """Class frequencies of the labeled set (zeros for absent classes)."""
    return support.shot_counts / support.n


def correct_marginal(marginal: np.ndarray,
                     ratio: float = SolverConfig.marginal_ratio) -> np.ndarray:
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
    errors = [None]
    floored = _floored(m[None], ratio, errors)[0]
    if errors[0]:
        raise errors[0]
    return floored


def _fail(errors: list, bad: np.ndarray, error) -> None:
    """Give each element that ``bad`` marks the error ``error(b)``, unless
    it has one: an element keeps the first, which its own fit raises."""
    for b in np.flatnonzero(bad):
        errors[b] = errors[b] or error(b)


def _floored(m: np.ndarray, ratio: float, errors: list) -> np.ndarray:
    """``correct_marginal`` of arguments that it accepts, unchecked, of
    each row of a (B, C) ``m``, in a new array; a row without zeros
    keeps its values. A ratio of another real type is taken as the float
    it multiplies as. A row with a floored mass that is not a positive
    normal float, which a tiny ratio makes, gets a ConfigError in
    ``errors``: transport cannot keep a subnormal mass, and a zero one
    would leave its class as absent as no floor does."""
    positive = m > 0
    scaled = np.ldexp(m, -np.frexp(m.max(axis=-1, keepdims=True))[1])
    floor = float(ratio) * np.where(positive, scaled, np.inf).min(axis=-1, keepdims=True)
    floored = np.maximum(scaled, floor)
    floored /= floored.sum(axis=-1, keepdims=True)
    whole = positive.all(axis=-1, keepdims=True)
    low = np.where(whole, 1.0, floored).min(axis=-1)
    _fail(errors, low < np.finfo(np.float64).tiny, lambda b: ConfigError(
        f"marginal_ratio {ratio} floors a class mass to {low[b]:g}, "
        f"below the smallest normal float"))
    return np.where(whole, m, floored)


def fit_simpleshot(support: SupportSet) -> FitResult:
    """Per-class means of the labeled embeddings. Classes with no
    labeled samples get an all-zero row (they score 0 for every point,
    so they are never predicted while any observed class scores > 0)
    and are flagged in missing_classes."""
    return _fit_alone(_simpleshot, support)


def _fit_alone(fit, support: SupportSet, *args) -> FitResult:
    """``fit`` of ``support`` alone; a failure raises. This is the one
    clock of a public fit: its ``runtime_ms`` is the wall time of the
    whole call, the labeled record it builds included."""
    start = time.perf_counter()
    (result,) = fit(_labeled_sums([support]), *args)
    if isinstance(result, SemishotError):
        raise result
    return replace(result, runtime_ms=(time.perf_counter() - start) * 1e3)


def _simpleshot(labeled: _LabeledSums) -> list[FitResult]:
    """fit_simpleshot of every support of a batch: its record's raw class
    sums over max(K_c, 1)."""
    prototypes = labeled.raw / np.maximum(labeled.counts, 1.0)[..., None]
    missing = labeled.counts == 0
    return [FitResult(
        prototypes=p,
        objective_trace=np.array([], dtype=np.float64),
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
                       oracle_marginals: list[np.ndarray | None], errors: list) -> np.ndarray:
    """The (B, C) transport row marginals of a batch: its oracle
    marginals, or its supports' class frequencies, floored unless the
    source is "support_raw"; each row bitwise that of its support's
    ``estimate_marginal`` and ``correct_marginal``, or that call's error,
    in ``errors``."""
    if cfg.marginal_source == "oracle":
        if any(o is None for o in oracle_marginals):
            raise ConfigError("marginal_source 'oracle' needs oracle_marginal")
        return np.stack(oracle_marginals)
    estimate = labeled.counts / labeled.counts.sum(axis=1, keepdims=True)
    if cfg.marginal_source == "support_raw":
        return estimate
    return _floored(estimate, cfg.marginal_ratio, errors)


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
                 round_idx: int, errors: list) -> np.ndarray:
    """The (B,) objective values of a round; an element whose value
    overflowed to a non-finite number (huge fixed weights can) fails
    with a SolverError, silently under ``_adapt``'s error state."""
    totals = sums.totals(prototypes, t)
    _fail(errors, ~np.isfinite(totals), lambda _: SolverError(
        f"objective is not finite at round {round_idx}", iteration=round_idx))
    return totals


# a tiny tau or huge fixed weights can overflow the scores, the sums and
# the step; the fit's explicit finiteness, held-rule, empty-column and
# normal-mass checks, not floating-point flags, are its failure signals
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _adapt(labeled: _LabeledSums, text_prototypes: np.ndarray, cfg: SolverConfig,
           unlabeled: np.ndarray | None = None,
           oracle_marginals: list[np.ndarray | None] | None = None
           ) -> list[FitResult | SemishotError]:
    """fit_sstext (no ``unlabeled``) or fit_sstextu of every element of a
    batch of problems that share the text prototypes, one entry per
    element, each exactly the element's own B=1 fit or the SemishotError
    that fit raises. ``labeled`` is the supports' labeled record, the
    round loop's only labeled input (the supports may differ in N);
    ``unlabeled`` holds the elements' unlabeled embeddings as one
    (B, M, D) array.

    Every round runs one body; without unlabeled points the step does
    not read the prototypes, so the trace is flat after its start. An
    element that fails a check (a floored mass, finite scores, no empty
    plan column, a finite objective) keeps that error and rides along,
    silently, in rounds that move another element.
    """
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
    errors: list[SemishotError | None] = [None] * batch
    marginal = None
    if unlabeled is not None:
        marginal = _resolve_marginals(labeled, cfg, oracle_marginals or [None] * batch, errors)

    prototypes = np.broadcast_to(t, base.labeled.shape)
    sums = base
    trace: list[np.ndarray] = []
    residuals: list[np.ndarray] = []
    code_snaps: list[np.ndarray] = []
    proto_snaps: list[np.ndarray] = []
    for round_idx in range(1, rounds + 1):
        if all(errors):  # no later round can change an element's first error
            break
        if unlabeled is not None:
            scores = _scores(prototypes, unlabeled, cfg.tau)
            values, bad = _solve(scores, marginal, cfg.ot_iters)
            residuals.append(_residual(values, marginal))
            codes, empty = _class_codes(values)  # over the plan, read just above
            for failed, reason in ((bad, "similarity matrix contains non-finite entries"),
                                   (empty, "plan has an empty column; codes are undefined")):
                _fail(errors, failed, lambda _: SolverError(
                    f"pseudo-label step failed at round {round_idx}: {reason}",
                    iteration=round_idx))
            sums = base.with_codes(codes, unlabeled, cfg.tau)
        if not trace:
            trace.append(_trace_entry(sums, prototypes, t, round_idx, errors))
        prototypes = sums.minimizer(t)
        trace.append(_trace_entry(sums, prototypes, t, round_idx, errors))
        if cfg.track_codes and unlabeled is not None:
            code_snaps.append(codes)
            proto_snaps.append(prototypes)
    if not trace:
        trace.append(_trace_entry(base, prototypes, t, 0, errors))
    objective = np.stack(trace, axis=-1)
    residual = np.stack(residuals, axis=-1) if residuals else None
    return [errors[b] or FitResult(
        prototypes=prototypes[b],
        objective_trace=objective[b],
        marginal=None if marginal is None else marginal[b],
        ot_residuals=None if residual is None else residual[b],
        pseudolabel_trace=tuple(c[b].T for c in code_snaps) if code_snaps else None,
        prototype_trace=tuple(p[b] for p in proto_snaps) if proto_snaps else None,
    ) for b in range(batch)]
