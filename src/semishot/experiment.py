"""Evaluation protocol: sampling, synthetic data, metrics, benchmarks.

The sampling protocol draws a small labeled support set and a larger
unlabeled set from a pool, both uniformly at random without class
stratification, so the support's class composition follows the pool's
own marginal and rare classes can be absent entirely. Everything left
over becomes the evaluation split. All draws are a pure function of the
seed.

The synthetic family places class centers on the unit sphere with a
controlled minimum pairwise angle, samples points as noisy copies of
their center (renormalized), and derives text prototypes as noisy
copies of the centers. It stands in for embedding datasets at desk
scale while keeping difficulty tunable through the noise level.

Benchmarks run a (solver, shots, seed) grid serially. Each (shots,
seed) split is drawn once for every solver. The pool's row norms are
taken once per run, and each draw divides the rows it gathers by them,
bitwise the rows it would normalize on its own. Cells are packed in
grid order into batches that span shot counts (they share the
unlabeled count M = multiplier x C; their labeled counts N differ), and
each solver fits a batch in one call, which gives every cell the fit it
gets alone; a batch that raises is refitted cell by cell. A batch takes
as many cells as keep its arrays under a fixed count of values, so
memory does not grow with the grid. Only one batch's splits are held at
a time. Each solver's batch is scored once: its distinct prototype
arrays (zeroshot's cells all hold the same one) go through one flat
product with the pool (or a fixed eval set), the labels are the argmax
of those scores, and every cell's metrics are counted over its own eval
rows in one pass. Rows come back in grid order.
"""

from __future__ import annotations

import csv
import io
import itertools
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import (Dataset, EvalSet, SupportSet, UnlabeledSet, _checked_row_norms,
                   _class_labels, _readonly, _unit_rows_at, normalize_rows)
from .errors import ConfigError, DataError, GenerationError, SamplingError
from .solvers import FitResult, SolverConfig, _adapt, fit_simpleshot
from .zeroshot import (DEFAULT_TAU, check_array, check_count, check_marginal,
                       check_real, check_tau)

SOLVER_NAMES = ("zeroshot", "simpleshot", "sstext", "sstextu")

# A cell holds about (N + M) * (C + D) float64 values while its batch
# fits: its support and unlabeled embeddings and its (C, M) score,
# kernel, plan and code arrays. run_benchmark packs cells in grid order,
# across shot counts, into batches that stay under this count (2 MiB of
# float64), so memory does not grow with the grid, and a cell over it
# fits alone. Past it the arithmetic outweighs the per-call cost that
# batching saves. The same count bounds a chunk of the eval scores, C
# times the scored rows per cell (one cell when a cell alone is larger).
_BATCH_VALUES = 1 << 18

# Distances in one silhouette_score block (512 KiB of float64).
_SILHOUETTE_BLOCK = 1 << 16

# Synthetic family defaults: 5 imbalanced classes in 64 dimensions with
# noise calibrated so the zero-shot baseline lands mid-range (see tests)
DEFAULT_MARGINAL = (0.35, 0.30, 0.20, 0.10, 0.05)
DEFAULT_CLASS_COUNT = 5
DEFAULT_DIM = 64
DEFAULT_SEPARATION = 1.0
DEFAULT_NOISE = 0.30
DEFAULT_TEXT_NOISE = 0.20
DEFAULT_POOL_SIZE = 1500
DEFAULT_SYNTHETIC_TAU = 0.025


@dataclass(frozen=True, eq=False)
class SamplingSpec:
    """How to split a pool into support / unlabeled / eval.

    shots: labeled budget per class in expectation (total = shots * C).
    unlabeled_multiplier: unlabeled budget per class (total = mult * C).
    seed: drives every draw.
    stratified: force exactly `shots` per class (contrast mode; the
        default draws uniformly so class composition follows the pool).
    """

    shots: int
    unlabeled_multiplier: int = 24
    seed: int = 0
    stratified: bool = False

    def __post_init__(self):
        for name, low in (("shots", 1), ("unlabeled_multiplier", 0), ("seed", 0)):
            object.__setattr__(self, name, check_count(getattr(self, name), name, low))


@dataclass(frozen=True, eq=False)
class SyntheticSpec:
    """Parameters of the sphere-cluster synthetic family.

    separation: minimum pairwise angle between class centers (radians).
    noise: isotropic sample noise scale around each center.
    text_noise: isotropic noise scale applied to centers to derive text
        prototypes (0 means prototypes equal the true centers).
    marginal: class probabilities for label draws.
    """

    class_count: int = DEFAULT_CLASS_COUNT
    dim: int = DEFAULT_DIM
    separation: float = DEFAULT_SEPARATION
    noise: float = DEFAULT_NOISE
    marginal: tuple[float, ...] = DEFAULT_MARGINAL
    text_noise: float = DEFAULT_TEXT_NOISE
    pool_size: int = DEFAULT_POOL_SIZE
    seed: int = 0

    def __post_init__(self):
        for name, low in (("class_count", 2), ("dim", 2), ("pool_size", 1), ("seed", 0)):
            object.__setattr__(self, name, check_count(getattr(self, name), name, low))
        for name in ("separation", "noise", "text_noise"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        if not (self.separation > 0):
            raise ConfigError(f"separation must be > 0, got {self.separation}")
        if not (self.noise > 0):
            raise ConfigError(f"noise must be > 0, got {self.noise}")
        if self.text_noise < 0:
            raise ConfigError(f"text_noise must be >= 0, got {self.text_noise}")
        try:
            check_marginal(self.marginal, self.class_count)
        except DataError as exc:
            raise ConfigError(str(exc)) from None


@dataclass(frozen=True, eq=False)
class MetricReport:
    """Evaluation metrics for one prototype matrix on one eval split.

    aca: balanced accuracy, the mean per-class recall over classes
        present in the truth.
    acc: plain accuracy.
    per_class_recall: recall per class; NaN for classes absent from
        the truth.
    """

    aca: float
    acc: float
    per_class_recall: np.ndarray


@dataclass(frozen=True, eq=False)
class BenchmarkRow:
    """One benchmark cell: a solver fit and scored on one seeded split."""

    solver: str
    dataset: str
    shots: int
    unlabeled_count: int
    seed: int
    aca: float
    acc: float
    runtime_ms: float
    error: str = ""


def split_indices(labels: np.ndarray, class_count: int,
                  spec: SamplingSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded index split into (support, unlabeled, eval).

    Support indices come first (uniform without replacement by default,
    per-class when stratified), then the unlabeled draw from the
    remainder, then everything left.
    """
    labels = check_array(labels, "labels", (None,), dtype=None)
    class_count = check_count(class_count, "class_count", 1)
    pool_n = labels.shape[0]
    n = spec.shots * class_count
    m = spec.unlabeled_multiplier * class_count
    if n + m > pool_n:
        raise SamplingError(
            f"pool of {pool_n} cannot supply {n} support + {m} unlabeled items")
    rng = np.random.default_rng(spec.seed)
    if spec.stratified:
        picks = []
        for c in range(class_count):
            members = np.flatnonzero(labels == c)
            if members.size < spec.shots:
                raise SamplingError(
                    f"class {c} has {members.size} pool items, needs {spec.shots}")
            picks.append(rng.choice(members, size=spec.shots, replace=False))
        support = np.concatenate(picks)
        rest = np.setdiff1d(np.arange(pool_n), support)
        rest = rng.permutation(rest)
    else:
        perm = rng.permutation(pool_n)
        support, rest = perm[:n], perm[n:]
    return support, rest[:m], rest[m:]


class _Split(NamedTuple):
    """One split: its support set, the pool indices of its unlabeled draw
    and of its eval split (None for a split a caller sampled) and the
    hidden-label class marginal of the unlabeled draw (None when it is
    empty), which the oracle marginal source reads."""

    support: SupportSet
    unl_idx: np.ndarray | None
    eval_idx: np.ndarray | None
    oracle_marginal: np.ndarray | None


def sample_support(pool: EvalSet, spec: SamplingSpec) -> tuple[SupportSet,
                                                               UnlabeledSet,
                                                               EvalSet]:
    """Draw a labeled support set and an unlabeled set from the pool;
    the remainder becomes the eval split. Splits are pairwise disjoint
    and fully determined by the seed. Every pool row must have a norm
    that ``normalize_rows`` accepts."""
    split, unlabeled = _sample(pool, spec)
    remainder = EvalSet(embeddings=pool.embeddings[split.eval_idx],
                        labels=pool.labels[split.eval_idx], class_count=pool.class_count)
    return split.support, unlabeled, remainder


def _sample(pool: EvalSet, spec: SamplingSpec) -> tuple[_Split, UnlabeledSet]:
    """``spec``'s split of ``pool`` and its unlabeled set."""
    norms = _checked_row_norms(pool.embeddings)
    split = _draw_split(pool, norms, spec)
    unlabeled = _unit_rows_at(pool.embeddings, norms, split.unl_idx)
    return split, UnlabeledSet(embeddings=_readonly(unlabeled))


def _draw_split(pool: EvalSet, norms: np.ndarray, spec: SamplingSpec) -> _Split:
    """``spec``'s split of ``pool``, whose row norms are ``norms``: the
    support rows are gathered and divided by their norms, bitwise the
    rows ``normalize_rows`` gives them; the unlabeled and eval draws
    stay as pool indices."""
    sup_idx, unl_idx, eval_idx = split_indices(pool.labels, pool.class_count, spec)
    support = SupportSet._of_unit_rows(_unit_rows_at(pool.embeddings, norms, sup_idx),
                                       pool.labels[sup_idx], pool.class_count)
    oracle_marginal = None
    if unl_idx.size:
        hidden = np.bincount(pool.labels[unl_idx], minlength=pool.class_count)
        oracle_marginal = hidden / hidden.sum()
    return _Split(support, unl_idx, eval_idx, oracle_marginal)


def generate_synthetic(spec: SyntheticSpec) -> tuple[EvalSet, np.ndarray]:
    """Build a pool and text prototypes from the sphere-cluster family.

    Draw order is fixed (centers, labels, sample noise, text noise) so
    every output is a pure function of ``spec``.
    """
    rng = np.random.default_rng(spec.seed)
    cos_gap = np.cos(spec.separation)
    centers = np.empty((spec.class_count, spec.dim))
    placed = 0
    attempts = 0
    max_attempts = 1000 * spec.class_count
    while placed < spec.class_count:
        if attempts >= max_attempts:
            raise GenerationError(
                f"could not place {spec.class_count} centers with pairwise "
                f"angle >= {spec.separation} rad in dim {spec.dim} "
                f"after {max_attempts} attempts")
        attempts += 1
        candidate = rng.standard_normal(spec.dim)
        candidate /= np.linalg.norm(candidate)
        if placed == 0 or np.all(centers[:placed] @ candidate <= cos_gap):
            centers[placed] = candidate
            placed += 1
    labels = rng.choice(spec.class_count, size=spec.pool_size,
                        p=spec.marginal)
    # a noise near the float64 limit overflows here; normalize_rows then
    # rejects the non-finite rows
    with np.errstate(over="ignore"):
        samples = centers[labels] + spec.noise * rng.standard_normal(
            (spec.pool_size, spec.dim))
        text = centers + spec.text_noise * rng.standard_normal(centers.shape)
    pool = EvalSet(
        embeddings=normalize_rows(samples),
        labels=labels.astype(np.int64),
        class_count=spec.class_count,
    )
    return pool, normalize_rows(text, "text prototypes")


def synthetic_dataset(spec: SyntheticSpec,
                      tau: float = DEFAULT_SYNTHETIC_TAU) -> Dataset:
    """Bundle a generated pool and its text prototypes as a dataset."""
    pool, text = generate_synthetic(spec)
    return Dataset.create(
        embeddings=pool.embeddings,
        labels=pool.labels,
        prototypes=text,
        tau=tau,
    )


def _metrics(predictions: np.ndarray, truth: np.ndarray, class_count: int,
             masks: np.ndarray | None = None) -> list[MetricReport]:
    """The metrics of each row of (B, P) ``predictions`` against the P
    labels of ``truth``, over the columns that its row of the (B, P)
    ``masks`` marks (every column when None): recall per class (NaN for
    a class absent from those columns), its mean over the present
    classes, and plain accuracy. Hits and totals are counts of 0/1
    entries taken as products with the one-hot truth, exact in float64;
    aca stays each row's own 1-D mean, as a 2-D row mean rounds
    differently."""
    onehot = np.equal.outer(truth, np.arange(class_count)).astype(np.float64)
    correct = predictions == truth
    if masks is None:
        totals = np.broadcast_to(onehot.sum(axis=0), (correct.shape[0], class_count))
    else:
        correct &= masks
        totals = masks.astype(np.float64) @ onehot
    hits = correct.astype(np.float64) @ onehot
    present = totals > 0
    recall = np.full(hits.shape, np.nan)
    np.divide(hits, totals, out=recall, where=present)
    acc = hits.sum(axis=1) / totals.sum(axis=1)
    return [MetricReport(aca=float(r[m].mean()), acc=float(a), per_class_recall=r)
            for r, m, a in zip(recall, present, acc)]


def balanced_accuracy(predictions: np.ndarray, truth: np.ndarray,
                      class_count: int) -> float:
    """Mean per-class recall over the classes present in the truth."""
    class_count = check_count(class_count, "class_count", 1)
    pred = check_array(predictions, "predictions", (None,), dtype=None)
    true = _class_labels(truth, pred.size, class_count, "truth")
    if pred.size == 0:
        raise DataError("predictions and truth must be nonempty")
    return _metrics(pred[None], true, class_count)[0].aca


def _top_class(scores: np.ndarray) -> np.ndarray:
    """The argmax over the class axis of (B, C, P) scores, ties to the
    lowest class. Class rows are walked one at a time: each is a (B, P)
    slice of contiguous rows, where ``argmax(axis=1)`` would make one
    strided C-element call per point. A row takes the label only where
    it beats every lower class strictly, and labels only grow, so a
    running maximum records it."""
    best = scores[:, 0].copy()
    labels = np.zeros(best.shape, dtype=np.int64)
    beats = np.empty(best.shape, dtype=bool)
    step = np.empty_like(labels)
    for c in range(1, scores.shape[1]):
        row = scores[:, c]
        np.greater(row, best, out=beats)
        np.multiply(beats, c, out=step)
        np.maximum(labels, step, out=labels)
        np.maximum(best, row, out=best)
    return labels


def _labels(prototypes: np.ndarray, embeddings: np.ndarray,
            tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The (B, P) labels of the (B, C, D) ``prototypes`` on the P rows of
    ``embeddings``, and a (B, P) mask of the columns where a matrix's
    scores are not all finite.

    The matrices' rows are stacked into one (B * C, D) operand, and each
    chunk of at most ``_BATCH_VALUES`` scores is one 2-D product with the
    transposed view of the rows, divided by ``tau`` in place. Keep it
    flat: at the sweep grid's (25, 5, 64) x (64, 1500) a 3-D ``matmul``
    runs one small GEMM per matrix and took 1.7 ms (0.69 ms with a
    contiguous (D, P) copy), the flat product 0.32 ms, and 25 per-seed
    (4, 5, 64) x (64, 1375) products 7.4 ms (2-vCPU Xeon, OpenBLAS
    0.3.31). The flat product moves ~0.17% of scores by a few ulps
    against each matrix's own product, which moved no label on the
    default family."""
    b, c, d = prototypes.shape
    flat = prototypes.reshape(b * c, d)
    labels = np.empty((b, embeddings.shape[0]), dtype=np.int64)
    bad = np.zeros(labels.shape, dtype=bool)
    step = max(1, _BATCH_VALUES // (c * embeddings.shape[0]))
    for lo in range(0, b, step):
        hi = min(b, lo + step)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = np.matmul(flat[lo * c:hi * c], embeddings.T)
            scores /= tau
            scores = scores.reshape(hi - lo, c, -1)
            labels[lo:hi] = _top_class(scores)
        ok = np.isfinite(scores)
        if not ok.all():
            bad[lo:hi] = ~ok.all(axis=1)
    return labels, bad


def _score(prototypes: list, embeddings: np.ndarray, truth: np.ndarray,
           class_count: int, tau: float,
           masks: np.ndarray | None = None) -> list[MetricReport | Exception]:
    """The metrics of each prototype matrix of ``prototypes`` on its eval
    split, or the exception that fails it: entry b's split is the rows
    of ``embeddings`` (P rows with class labels ``truth``) that row b of
    the (B, P) ``masks`` marks, every row when None. An entry that
    already is an exception (a failed fit) stays as it is. An empty
    split fails its matrix, as does a matrix that is not (C, D) for the
    rows, and one whose scores on its split are not all finite; the
    overflow or invalid value behind such scores is silenced, so that
    its error is the only signal. A bad ``tau`` raises.

    Every distinct matrix that passes is scored against all P rows in
    one flat product (``_labels``); entries that are the same array
    object, such as zeroshot's text prototypes in every cell, share its
    label row. Labels are the argmax of the scores, ties to the lowest
    class, and the metrics of all entries are one pass (``_metrics``),
    each over its own split. The argmax of ``predict_probs`` differs
    only where exp() rounds a logit within ~1e-16 of its row's max up to
    that max, a tie it gives to the lower class.
    """
    outcomes, scored, which, stack, seen = list(prototypes), [], [], [], {}
    sizes = [truth.size] * len(outcomes) if masks is None else masks.sum(axis=1)
    for i, p in enumerate(prototypes):
        if isinstance(p, Exception):
            continue
        if not sizes[i]:
            outcomes[i] = DataError("eval split is empty")
            continue
        key = id(p)  # the list holds every entry, so ids stay distinct
        if key not in seen:
            try:
                stack.append(check_array(p, "prototypes", (class_count, embeddings.shape[1])))
                seen[key] = len(stack) - 1
            except DataError as exc:
                seen[key] = exc
        if isinstance(seen[key], Exception):
            outcomes[i] = seen[key]
        else:
            scored.append(i)
            which.append(seen[key])
    if not scored:
        return outcomes
    tau = check_tau(tau)
    labels, bad = _labels(np.stack(stack), embeddings, tau)
    labels, bad = labels[which], bad[which]
    if masks is not None:
        masks = masks[scored]
        bad &= masks
    reports = _metrics(labels, truth, class_count, masks)
    for i, failed, report in zip(scored, bad.any(axis=1), reports):
        outcomes[i] = (DataError("similarity matrix contains non-finite entries")
                       if failed else report)
    return outcomes


def evaluate_prototypes(prototypes: np.ndarray, eval_set: EvalSet,
                        tau: float) -> MetricReport:
    """Score prototypes on an eval split (balanced and plain accuracy).
    The prototypes must be one row per class of the split. Labels are
    the argmax of the scores (W @ V.T) / tau, ties to the lowest class."""
    outcome, = _score([prototypes], eval_set.embeddings, eval_set.labels,
                      eval_set.class_count, tau)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def silhouette_score(embeddings: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette over samples (Rousseeuw 1987): (b - a) / max(a, b),
    with a the mean Euclidean distance to same-labeled points and b the
    smallest mean distance to any other label. Singleton-labeled samples
    score 0, and so does a sample with a = b = 0. Needs at least two
    distinct labels and finite embeddings.

    Distances come from the Gram identity ||x - y||^2 = ||x||^2 + ||y||^2
    - 2 x.y, clamped at 0 before the square root. The rows are first
    centred on their mean: the score does not change under translation,
    and centring keeps the identity's cancellation down to the spread of
    the data rather than its offset. They are then scaled by a power of
    two to a largest magnitude in [0.5, 1): that is exact, the score does
    not change under scaling either, and no squared distance under- or
    overflows. Distances are taken between the k distinct rows of the
    pool, and a distinct row is exactly 0 from itself, so exact
    duplicates are exactly 0 apart. That k x k matrix is
    symmetric, so it is walked in row blocks [lo, hi) against the columns
    [lo, k) only: each block adds its rows' class sums and, through its
    transpose, the sums of the columns past hi, so each distinct pair is
    computed once. ``_SILHOUETTE_BLOCK`` bounds the elements of one block;
    a block holds at least one row.
    """
    x = check_array(embeddings, "silhouette embeddings", (None, None), finite=True)
    y = check_array(labels, "silhouette labels", x.shape[:1], dtype=None)
    if x.shape[1] == 0:
        raise DataError("silhouette embeddings have no columns")
    classes, dense = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise DataError("silhouette needs at least two distinct labels")
    n, d = x.shape
    counts = np.bincount(dense)
    x = x - x.mean(axis=0)
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    # distinct rows are the distance columns; row i's own column is col[i]
    row_bytes = x.view(np.dtype((np.void, x.itemsize * d))).ravel()
    _, first, col = np.unique(row_bytes, return_index=True, return_inverse=True)
    distinct = x[first]
    distinct_sq = np.einsum("ij,ij->i", distinct, distinct)
    k = first.size
    # members[j, c]: how many points of class c sit at distinct row j
    members = np.zeros((k, classes.size))
    np.add.at(members, (col, dense), 1.0)

    # sums[j, c]: summed distance from distinct row j to the points of class c
    sums = np.zeros_like(members)
    lo = 0
    while lo < k:
        hi = min(k, lo + max(1, _SILHOUETTE_BLOCK // (k - lo)))
        dist = distinct[lo:hi] @ distinct[lo:].T
        dist *= -2.0
        dist += distinct_sq[lo:hi, None]
        dist += distinct_sq[lo:]
        np.maximum(dist, 0.0, out=dist)
        np.sqrt(dist, out=dist)
        np.fill_diagonal(dist, 0.0)
        sums[lo:hi] += dist @ members[lo:]
        sums[hi:] += dist[:, hi - lo:].T @ members[lo:hi]
        lo = hi

    rows = np.arange(n)
    class_sums = sums[col]
    own_count = counts[dense]
    # self-distance is 0, so the own-class sum already excludes it
    a = np.where(own_count > 1,
                 class_sums[rows, dense] / np.maximum(own_count - 1, 1), 0.0)
    means = class_sums / counts
    means[rows, dense] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    s = np.where(denom > 0, (b - a) / np.where(denom > 0, denom, 1.0), 0.0)
    return float(np.where(own_count > 1, s, 0.0).mean())


def correlate(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation; rejects short inputs, constant inputs (all
    values equal) and inputs whose coefficient is not finite, as with a
    NaN or infinite entry. Each input is first scaled by a power of two
    to a largest magnitude in [0.5, 1): that is exact for normal floats,
    so the coefficient does not depend on the scale of either input, and
    no spread under- or overflows."""
    a = check_array(x, "x", (None,))
    b = check_array(y, "y", a.shape)
    if a.size < 3:
        raise DataError("correlate needs two equal-length vectors of size >= 3")
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise DataError("correlate needs nonzero variance in both inputs")
    with np.errstate(all="ignore"):
        a, b = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (a, b))
        rho = float(np.corrcoef(a, b)[0, 1])
    if not np.isfinite(rho):
        raise DataError("correlate needs finite inputs")
    return rho


def _resolve_tau(tau: float | None, dataset: Dataset) -> float:
    """The temperature a run uses: ``tau`` when given, else the dataset's
    own, else DEFAULT_TAU."""
    if tau is not None:
        return tau
    return DEFAULT_TAU if dataset.tau is None else dataset.tau


def fit_solver(name: str, dataset: Dataset, support: SupportSet,
               unlabeled: UnlabeledSet, cfg: SolverConfig,
               oracle_marginal: np.ndarray | None = None) -> FitResult:
    """Dispatch one solver by name on an already-sampled split."""
    return _fit_splits(name, dataset, [_Split(support, None, None, oracle_marginal)],
                      unlabeled.embeddings[None], cfg)[0]


def _fit_splits(name: str, dataset: Dataset, splits: list[_Split], unlabeled: np.ndarray,
               cfg: SolverConfig) -> list[FitResult]:
    """One solver's fits of a batch of splits, in order, whose unlabeled
    embeddings are the (B, M, D) ``unlabeled``: sstext and sstextu fit
    them in one call, whose wall time each result shares."""
    if name == "zeroshot":
        return [FitResult(
            prototypes=dataset.prototypes,
            objective_trace=np.array([], dtype=np.float64),
            runtime_ms=0.0,
        )] * len(splits)
    if name == "simpleshot":
        return [fit_simpleshot(split.support) for split in splits]
    supports = [split.support for split in splits]
    if name == "sstext":
        return _adapt(supports, dataset.prototypes, cfg)
    if name == "sstextu":
        return _adapt(supports, dataset.prototypes, cfg, unlabeled,
                      [split.oracle_marginal for split in splits])
    raise ConfigError(f"unknown solver {name!r}; expected one of {SOLVER_NAMES}")


def _fit_cells(name: str, dataset: Dataset, splits: list[_Split], unlabeled: np.ndarray,
               cfg: SolverConfig) -> list[FitResult | Exception]:
    """``_fit_splits`` of the batch or, when the batch raises, of each
    split alone, so that only a split whose own fit raises holds the
    exception."""
    try:
        return _fit_splits(name, dataset, splits, unlabeled, cfg)
    except Exception:
        pass  # the batch raised: find the splits whose own fit raises
    fits = []
    for b, split in enumerate(splits):
        try:
            fits.append(_fit_splits(name, dataset, [split], unlabeled[b:b + 1], cfg)[0])
        except Exception as exc:
            fits.append(exc)
    return fits


def _run_cell(dataset: Dataset, dataset_name: str, solver: str, spec: SamplingSpec,
              outcome: MetricReport | Exception, runtime_ms: float) -> BenchmarkRow:
    """The row of one cell: its metrics, or the error of its draw, fit
    or scoring."""
    cell = dict(solver=solver, dataset=dataset_name, shots=spec.shots,
                unlabeled_count=spec.unlabeled_multiplier * dataset.class_count,
                seed=spec.seed)
    if isinstance(outcome, Exception):
        return BenchmarkRow(**cell, aca=float("nan"), acc=float("nan"), runtime_ms=0.0,
                            error=f"{type(outcome).__name__}: {outcome}")
    return BenchmarkRow(**cell, aca=outcome.aca, acc=outcome.acc, runtime_ms=runtime_ms)


def _run_batch(dataset: Dataset, dataset_name: str, pool: EvalSet, norms: np.ndarray,
               solvers, specs: list[SamplingSpec], cfg: SolverConfig,
               include_timing: bool, eval_set: EvalSet | None) -> dict:
    """The rows, keyed by (solver, shots, seed), of every solver's cells
    on the splits of ``specs``: the splits are drawn in order from the
    pool, whose row norms are ``norms``, their unlabeled rows are
    gathered with one index into one (B, M, D) array, each solver fits
    them as one batch and scores that batch once, against the pool with
    each cell's eval rows as a mask, or against ``eval_set``."""
    rows, drawn = {}, []
    for spec in specs:
        try:
            drawn.append((spec, _draw_split(pool, norms, spec)))
        except Exception as exc:
            rows.update({(solver, spec.shots, spec.seed): _run_cell(
                dataset, dataset_name, solver, spec, exc, 0.0) for solver in solvers})
    if not drawn:
        return rows
    splits = [split for _, split in drawn]
    unlabeled = _unit_rows_at(pool.embeddings, norms,
                              np.stack([split.unl_idx for split in splits]))
    fits = {solver: _fit_cells(solver, dataset, splits, unlabeled, cfg) for solver in solvers}
    masks = None
    if eval_set is None:  # each cell's eval rows, as a mask over the pool
        masks = np.zeros((len(splits), pool.count), dtype=bool)
        for mask, split in zip(masks, splits):
            mask[split.eval_idx] = True
    # drop the fit inputs, so that they and the scores never peak together
    del splits, unlabeled
    drawn = [spec for spec, _ in drawn]
    scored_on = pool if eval_set is None else eval_set
    for solver in solvers:
        outcomes = _score([fit if isinstance(fit, Exception) else fit.prototypes
                           for fit in fits[solver]], scored_on.embeddings, scored_on.labels,
                          scored_on.class_count, cfg.tau, masks)
        rows.update({(solver, spec.shots, spec.seed): _run_cell(
            dataset, dataset_name, solver, spec, outcome,
            fit.runtime_ms if include_timing and not isinstance(fit, Exception) else 0.0)
            for spec, fit, outcome in zip(drawn, fits[solver], outcomes)})
    return rows


def _seed_list(seeds) -> list[int]:
    """``seeds`` as a list: a count n gives 0..n-1, an iterable its own
    seeds; each must be a nonnegative integer."""
    if isinstance(seeds, numbers.Number):
        return list(range(check_count(seeds, "seeds")))
    try:
        items = list(seeds)
    except TypeError:
        raise ConfigError(f"seeds must be a count or an iterable of seeds, "
                          f"got {seeds!r}") from None
    return [check_count(seed, "seed") for seed in items]


def run_benchmark(dataset: Dataset, solvers=SOLVER_NAMES,
                  shot_grid=(1, 2, 4, 8, 16), seeds: int = 50,
                  cfg: SolverConfig | None = None,
                  unlabeled_multiplier: int = 24,
                  include_timing: bool = True,
                  dataset_name: str = "dataset",
                  eval_set: EvalSet | None = None) -> list[BenchmarkRow]:
    """Run the (solver, shots, seed) grid serially, one row per cell.

    ``seeds`` is a count n (seeds 0..n-1) or an iterable of seeds, each a
    nonnegative integer. Each (shots, seed) split is drawn once and
    handed to every solver, so rows are comparable seed-by-seed. The
    pool's row norms are taken once per run, and every draw divides the
    rows it gathers by them, bitwise the rows it would normalize on its
    own.

    Cells are packed in grid order (shot count, then seed) into batches
    that span shot counts, each of as many cells as keep B·(N + M)·(C +
    D) under ``_BATCH_VALUES`` float64 values (one cell when a cell
    alone is larger), and each solver fits a batch in one call; every
    cell gets the fit it gets alone. A split that cannot be drawn fails
    each solver's cell on it with the same error; when a batch fit
    raises, its cells are refitted one by one, so a failed fit or
    scoring fails its own cell only. Rows come back in grid order. An
    unknown solver, an empty solver list, shot grid or seed list, an
    entry repeated in any of the three, a seed that is not a nonnegative
    integer, or a shot count or multiplier that SamplingSpec rejects
    raises ConfigError.

    With ``include_timing`` a batched cell's ``runtime_ms`` is the batch
    fit's wall time divided by its cell count, an amortised share that
    the cells of one batch have in common across their shot counts.

    By default every seed evaluates on the pool remainder left after its
    own support/unlabeled draw. Each solver's batch is scored once: one
    flat product of its fitted prototypes with the pool, chunked under
    ``_BATCH_VALUES``, labels by argmax of the scores, and every cell's
    metrics counted over its own eval rows. The product may round some
    scores a few ulps apart from a cell's own product, but on the
    default family no label moves, so each cell's metrics are its own
    ``evaluate_prototypes``. Passing ``eval_set`` scores every cell on
    that fixed split instead (the caller guarantees it is held out),
    which makes support-free solvers constant across seeds; an
    ``eval_set`` whose class count or dim differs from the dataset's
    raises DataError before any fit.

    Without ``cfg`` the fits run at stock SolverConfig settings and the
    dataset's own tau when it carries one, the temperature the CLI's
    ``benchmark`` picks when no ``--tau`` is given.
    """
    if eval_set is not None and (eval_set.class_count, eval_set.dim) != (
            dataset.class_count, dataset.dim):
        raise DataError(
            f"eval dataset ({eval_set.class_count} classes, dim {eval_set.dim}) "
            f"does not fit ({dataset.class_count} classes, dim {dataset.dim})")
    if cfg is None:
        cfg = SolverConfig(tau=_resolve_tau(None, dataset))
    seed_list = _seed_list(seeds)
    if not (solvers and shot_grid and seed_list and set(solvers) <= set(SOLVER_NAMES)):
        raise ConfigError(f"benchmark needs solvers from {SOLVER_NAMES}, a shot count "
                          f"and a seed; got {solvers!r}, {shot_grid!r}, {seeds!r}")
    for what, entries in (("solvers", solvers), ("shot counts", shot_grid),
                          ("seeds", seed_list)):
        if len(set(entries)) != len(entries):  # each cell is one row
            raise ConfigError(f"benchmark {what} must not repeat, got {entries!r}")
    # a bad shot count or multiplier is a config error, not a cell failure
    specs = {shots: SamplingSpec(shots=shots, unlabeled_multiplier=unlabeled_multiplier)
             for shots in shot_grid}
    batches, values = [[]], 0
    for shots, spec in specs.items():
        cell = ((shots + unlabeled_multiplier) * dataset.class_count
                * (dataset.class_count + dataset.dim))
        for seed in seed_list:
            if batches[-1] and values + cell > _BATCH_VALUES:
                batches.append([])
                values = 0
            batches[-1].append(replace(spec, seed=seed))
            values += cell
    pool = dataset.pool()
    norms = _checked_row_norms(pool.embeddings)
    rows = {}
    for batch in batches:
        rows.update(_run_batch(dataset, dataset_name, pool, norms, solvers, batch, cfg,
                               include_timing, eval_set))
    return [rows[cell] for cell in itertools.product(solvers, shot_grid, seed_list)]


CSV_HEADER = "solver,dataset,K,M,seed,aca,acc,runtime_ms,error"


def rows_to_csv(rows: list[BenchmarkRow]) -> str:
    """Render benchmark rows as CSV, deterministically formatted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for row in rows:
        ok = not row.error
        writer.writerow([
            row.solver, row.dataset, row.shots, row.unlabeled_count, row.seed,
            f"{row.aca:.6f}" if ok else "",
            f"{row.acc:.6f}" if ok else "",
            f"{row.runtime_ms:.3f}",
            row.error,
        ])
    return buf.getvalue()


def aggregate_rows(rows: list[BenchmarkRow]) -> list[dict]:
    """Mean/std of balanced accuracy per (solver, shots) over clean rows."""
    groups: dict[tuple[str, int], list[BenchmarkRow]] = {}
    for row in rows:
        groups.setdefault((row.solver, row.shots), []).append(row)
    out = []
    for (solver, shots), members in sorted(groups.items()):
        clean = [r for r in members if not r.error]
        aca = np.array([r.aca for r in clean])
        acc = np.array([r.acc for r in clean])
        out.append({
            "solver": solver,
            "K": shots,
            "cells": len(members),
            "failed": len(members) - len(clean),
            "aca_mean": float(aca.mean()) if clean else None,
            "aca_std": float(aca.std()) if clean else None,
            "acc_mean": float(acc.mean()) if clean else None,
            "acc_std": float(acc.std()) if clean else None,
        })
    return out


def rows_to_json(rows: list[BenchmarkRow], config_echo: dict) -> dict:
    """Full result table plus aggregates and the resolved run config."""
    return {
        "config": config_echo,
        "rows": [
            {
                "solver": r.solver, "dataset": r.dataset, "K": r.shots,
                "M": r.unlabeled_count, "seed": r.seed,
                "aca": None if r.error else r.aca,
                "acc": None if r.error else r.acc,
                "runtime_ms": r.runtime_ms, "error": r.error,
            }
            for r in rows
        ],
        "aggregates": aggregate_rows(rows),
    }
