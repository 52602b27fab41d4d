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

Benchmarks run a (solver, shots, seed) grid serially, and every solver
fits the same splits. A batch's splits take one permutation and one
normalised gather per seed, shared by the batch's shot counts: a
uniform draw order depends on the seed alone, the pool's row norms are
taken once per run, the head of a seed's order that its longest split
reads is gathered and divided by them once, and each split's support
and unlabeled rows are slices of it, bitwise the rows it would
normalize on its own. Cells are packed in grid order into batches that
span shot counts (they share the unlabeled count M = multiplier x C;
their labeled counts N differ), and each solver fits a batch in one
call, which gives every cell the fit it gets alone, or the error that
fit raises. The labeled class sums are built once per batch, one
product per support, and simpleshot, sstext and sstextu all read them;
no solver's timed share includes them. A batch takes as many cells as
keep its arrays under a fixed count of values, so memory does not grow
with the grid. Only one batch's splits are held at a time. Each
solver's batch is scored once: its distinct prototype arrays
(zeroshot's cells all hold the same one) go through one flat product
with the pool (or a fixed eval set), the labels are the argmax of
those scores, and every cell's metrics are counted over its own eval
rows in one pass, from a one-hot truth and per-cell class totals built
once for all solvers. Rows come back in grid order.

The silhouette takes each block of squared distances as one augmented
Gram product and a square root; only a block whose root fails is clamped.
"""

from __future__ import annotations

import csv
import io
import itertools
import numbers
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .data import (Dataset, EvalSet, SupportSet, UnlabeledSet, _class_labels, _Handed,
                   _row_norms, _unit_rows_at, normalize_rows)
from .errors import ConfigError, DataError, GenerationError, SamplingError
from .objectives import _labeled_sums, _LabeledSums
from .solvers import (FitResult, SolverConfig, _adapt, _checked_oracle, _fit_alone,
                      _simpleshot)
from .zeroshot import (DEFAULT_TAU, _scores, check_array, check_count, check_marginal,
                       check_real, check_tau)

SOLVER_NAMES = ("zeroshot", "simpleshot", "sstext", "sstextu")

# A cell holds about (N + M) * (C + D) float64 values while its batch
# fits: its support and unlabeled embeddings and its (C, M) score,
# kernel, plan and code arrays. run_benchmark packs cells in grid order,
# across shot counts, into batches that stay under this count (8 MiB of
# float64), so memory does not grow with the grid, and a cell over it
# fits alone. The default 50-seed grid is 3 batches at this count and
# took 53 ms against 67 ms in 11 batches at 1 << 18 (2-vCPU Xeon, same
# bytes), for ~10 MB more peak memory. The same count bounds a chunk of
# the eval scores, C times the scored rows per cell (one cell when a
# cell alone is larger).
_BATCH_VALUES = 1 << 20

# Distances in one silhouette_score block (512 KiB of float64).
_SILHOUETTE_BLOCK = 1 << 16

# SyntheticSpec refuses a pool, or a set of class centers, of more
# float64 values than this (1 GiB); generate_synthetic peaks at ~2.1x the
# pool's bytes.
_MAX_SYNTHETIC_VALUES = 1 << 27

# run_benchmark refuses a grid of more rows than this before it lists the
# seeds; the default grid's 1000 rows take ~0.15 s.
_MAX_ROWS = 1 << 20

# the synthetic family's temperature, which its manifests store
DEFAULT_SYNTHETIC_TAU = 0.025


@dataclass(frozen=True, eq=False)
class SamplingSpec:
    """How to split a pool into support / unlabeled / eval.

    shots: labeled budget per class in expectation (total = shots * C).
    unlabeled_multiplier: unlabeled budget per class (total = mult * C).
    seed: drives every draw.
    stratified: a bool; force exactly `shots` per class (contrast mode;
        the default draws uniformly so class composition follows the
        pool).
    """

    shots: int
    unlabeled_multiplier: int = 24
    seed: int = 0
    stratified: bool = False

    def __post_init__(self):
        for name, low in (("shots", 1), ("unlabeled_multiplier", 0), ("seed", 0)):
            object.__setattr__(self, name, check_count(getattr(self, name), name, low))
        if not isinstance(self.stratified, bool):
            raise ConfigError(f"stratified must be a bool, got {self.stratified!r}")


@dataclass(frozen=True, eq=False)
class SyntheticSpec:
    """Parameters of the sphere-cluster synthetic family.

    separation: minimum pairwise angle between class centers (radians).
    noise: isotropic sample noise scale around each center.
    text_noise: isotropic noise scale applied to centers to derive text
        prototypes (0 means prototypes equal the true centers).
    marginal: class probabilities for label draws.

    The pool (pool_size x dim) and the centers (class_count x dim) hold
    at most ``_MAX_SYNTHETIC_VALUES`` float64 values each.
    """

    # defaults: 5 imbalanced classes in 64 dimensions with noise
    # calibrated so the zero-shot baseline lands mid-range (see tests)
    class_count: int = 5
    dim: int = 64
    separation: float = 1.0
    noise: float = 0.30
    marginal: tuple[float, ...] = (0.35, 0.30, 0.20, 0.10, 0.05)
    text_noise: float = 0.20
    pool_size: int = 1500
    seed: int = 0

    def __post_init__(self):
        for name, low in (("class_count", 2), ("dim", 2), ("pool_size", 1), ("seed", 0)):
            object.__setattr__(self, name, check_count(getattr(self, name), name, low))
        for name in ("pool_size", "class_count"):
            if getattr(self, name) * self.dim > _MAX_SYNTHETIC_VALUES:
                raise ConfigError(f"{name} x dim must be <= {_MAX_SYNTHETIC_VALUES} values, "
                                  f"got {getattr(self, name)} x {self.dim}")
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
    remainder, then everything left. ``labels`` are integers in
    [0, ``class_count``), as every container's are.
    """
    class_count = check_count(class_count, "class_count", 1)
    labels = _class_labels(labels, None, class_count, "labels")
    n, m = _split_sizes(labels.shape[0], class_count, spec)
    order = _draw_order(labels, class_count, spec)
    return order[:n], order[n:n + m], order[n + m:]


def _split_sizes(pool_n: int, class_count: int, spec: SamplingSpec) -> tuple[int, int]:
    """``spec``'s support and unlabeled counts, which a pool of ``pool_n`` must supply."""
    n = spec.shots * class_count
    m = spec.unlabeled_multiplier * class_count
    if n + m > pool_n:
        raise SamplingError(
            f"pool of {pool_n} cannot supply {n} support + {m} unlabeled items")
    return n, m


def _draw_order(labels: np.ndarray, class_count: int, spec: SamplingSpec) -> np.ndarray:
    """The pool indices in ``spec``'s draw order: support, unlabeled, then
    eval. A uniform order is a permutation that only the seed chooses."""
    rng = np.random.default_rng(spec.seed)
    if not spec.stratified:
        return rng.permutation(labels.size)
    picks = []
    for c in range(class_count):
        members = np.flatnonzero(labels == c)
        if members.size < spec.shots:
            raise SamplingError(
                f"class {c} has {members.size} pool items, needs {spec.shots}")
        picks.append(rng.choice(members, size=spec.shots, replace=False))
    support = np.concatenate(picks)
    rest = np.setdiff1d(np.arange(labels.size), support)
    return np.concatenate([support, rng.permutation(rest)])


class _Split(NamedTuple):
    """One split: its support set, the unit rows of its unlabeled draw,
    the pool indices of its eval split, and the hidden-label class
    marginal of the unlabeled draw (None when it is empty), which the
    oracle marginal source reads."""

    support: SupportSet
    unlabeled: np.ndarray
    eval_idx: np.ndarray
    oracle_marginal: np.ndarray | None


def sample_support(pool: EvalSet, spec: SamplingSpec) -> tuple[SupportSet,
                                                               UnlabeledSet,
                                                               EvalSet]:
    """Draw a labeled support set and an unlabeled set from the pool;
    the remainder becomes the eval split. Splits are pairwise disjoint
    and fully determined by the seed. Every pool row must have a norm
    that ``normalize_rows`` accepts."""
    split, unlabeled = _sample(pool, spec)
    remainder = EvalSet(embeddings=pool.embeddings[split.eval_idx].view(_Handed),
                        labels=pool.labels[split.eval_idx].view(_Handed),
                        class_count=pool.class_count)
    return split.support, unlabeled, remainder


def _sample(pool: EvalSet, spec: SamplingSpec) -> tuple[_Split, UnlabeledSet]:
    """``spec``'s split of ``pool`` and its unlabeled set."""
    split, = _draws(pool, _row_norms(pool.embeddings, "embeddings"), [spec])
    if isinstance(split, SamplingError):
        raise split
    return split, UnlabeledSet(embeddings=split.unlabeled.view(_Handed))


def _draws(pool: EvalSet, norms: np.ndarray, specs: list[SamplingSpec]):
    """Yield each of ``specs``' splits of ``pool``, whose row norms are
    ``norms``, or its SamplingError. A seed's uniform specs share its
    order, and the head of it that they read is normalised once."""
    sized, heads = [], {}
    for spec in specs:
        key = spec if spec.stratified else spec.seed
        try:
            n, m = _split_sizes(pool.count, pool.class_count, spec)
            order, length = heads.get(key) or (
                _draw_order(pool.labels, pool.class_count, spec), 0)
            heads[key] = order, max(length, n + m)
            sized.append((key, n, m))
        except SamplingError as exc:
            sized.append(exc)
    heads = {key: (order, _unit_rows_at(pool.embeddings, norms, order[:length]))
             for key, (order, length) in heads.items()}
    for drawn in sized:
        if not isinstance(drawn, SamplingError):
            key, n, m = drawn
            order, head = heads[key]
            hidden = np.bincount(pool.labels[order[n:n + m]], minlength=pool.class_count)
            drawn = _Split(SupportSet._of_unit_rows(
                head[:n].view(_Handed), pool.labels[order[:n]], pool.class_count),
                head[n:n + m], order[n + m:], hidden / hidden.sum() if m else None)
        yield drawn


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
    # rejects the non-finite rows. The draw is scaled and shifted in
    # place: IEEE addition commutes, so the rows are bitwise
    # centers[labels] + noise * draw.
    samples = rng.standard_normal((spec.pool_size, spec.dim))
    with np.errstate(over="ignore"):
        samples *= spec.noise
        samples += centers[labels]
        text = centers + spec.text_noise * rng.standard_normal(centers.shape)
    pool = EvalSet(
        embeddings=normalize_rows(samples).view(_Handed),
        labels=labels.astype(np.int64).view(_Handed),
        class_count=spec.class_count,
    )
    return pool, normalize_rows(text, "text prototypes")


def synthetic_dataset(spec: SyntheticSpec,
                      tau: float = DEFAULT_SYNTHETIC_TAU) -> Dataset:
    """``generate_synthetic(spec)``'s pool and text prototypes as a dataset
    at temperature ``tau``, with no unlabeled rows. It keeps the generated
    unit rows as they are, with no copy and no second normalisation."""
    pool, text = generate_synthetic(spec)
    return Dataset(embeddings=pool.embeddings.view(_Handed), labels=pool.labels.view(_Handed),
                   prototypes=text.view(_Handed),
                   unlabeled=np.zeros((0, spec.dim)).view(_Handed), tau=tau)


class _Truth(NamedTuple):
    """The eval side of a batch of B cells, built once for all of its
    solvers: the class labels of the P scored rows, in the type of
    ``_top_class``'s labels so that they compare without a cast, their
    (P, C) one-hot, the (B, P) masks of the rows each cell is counted
    on, and each cell's (B, C) class totals over its rows."""

    labels: np.ndarray
    onehot: np.ndarray
    masks: np.ndarray
    totals: np.ndarray


def _label_type(class_count: int) -> np.dtype:
    """The type of predicted and truth labels over ``class_count``
    classes: the smallest unsigned type that holds C - 1."""
    return np.min_scalar_type(class_count - 1)


def _truth(labels: np.ndarray, class_count: int, masks: np.ndarray) -> _Truth:
    """The ``_Truth`` of rows with class ``labels`` under (B, P) ``masks``.
    Totals are counts of 0/1 entries taken as a product with the
    one-hot, exact in float64, so any subset of cells reads its own."""
    onehot = np.equal.outer(labels, np.arange(class_count)).astype(np.float64)
    return _Truth(labels.astype(_label_type(class_count)), onehot, masks,
                  masks.astype(np.float64) @ onehot)


def _metrics(predictions: np.ndarray, truth: _Truth, cells) -> list[MetricReport]:
    """The metrics of each row of (B', P) ``predictions`` against
    ``truth``, row i over the columns that the mask of cell ``cells[i]``
    marks: recall per class (NaN for a class absent from those columns),
    its mean over the present classes, and plain accuracy. Hits are
    counts taken as a product with the one-hot, exact in float64. The
    aca of a row with every class present is its row of one 2-D row
    mean, bitwise the row's own 1-D mean; a row with an absent class
    takes the 1-D mean of its present entries."""
    masks, totals = truth.masks[cells], truth.totals[cells]
    hits = ((predictions == truth.labels) & masks).astype(np.float64) @ truth.onehot
    present = totals > 0
    recall = np.full(hits.shape, np.nan)
    np.divide(hits, totals, out=recall, where=present)
    acc = hits.sum(axis=1) / totals.sum(axis=1)
    full = present.all(axis=1)
    aca = np.empty(len(recall))
    aca[full] = recall[full].mean(axis=1)
    for i in np.flatnonzero(~full):
        aca[i] = recall[i][present[i]].mean()
    return [MetricReport(aca=a, acc=c, per_class_recall=r)
            for r, a, c in zip(recall, aca.tolist(), acc.tolist())]


def balanced_accuracy(predictions: np.ndarray, truth: np.ndarray,
                      class_count: int) -> float:
    """Mean per-class recall over the classes present in the truth."""
    class_count = check_count(class_count, "class_count", 1)
    pred = check_array(predictions, "predictions", (None,), dtype=None)
    true = _class_labels(truth, pred.size, class_count, "truth")
    if pred.size == 0:
        raise DataError("predictions and truth must be nonempty")
    every = _truth(true, class_count, np.ones((1, pred.size), dtype=bool))
    return _metrics(pred[None], every, [0])[0].aca


def _top_class(scores: np.ndarray) -> np.ndarray:
    """The argmax over the class axis of (B, C, P) scores, ties to the
    lowest class. Class rows are walked one at a time: each is a (B, P)
    slice of contiguous rows, where ``argmax(axis=1)`` would make one
    strided C-element call per point. A row takes the label only where
    it beats every lower class strictly, and labels only grow, so a
    running maximum records it. Labels are of the smallest unsigned type
    that holds C - 1: at the sweep grid's (25, 5, 1500) the walk took
    0.22 ms in uint8 and 0.72 ms in int64 (2-vCPU Xeon)."""
    best = scores[:, 0].copy()
    kind = _label_type(scores.shape[1])
    labels = np.zeros(best.shape, dtype=kind)
    beats = np.empty(best.shape, dtype=bool)
    step = np.empty_like(labels)
    for c in range(1, scores.shape[1]):
        row = scores[:, c]
        np.greater(row, best, out=beats)
        np.multiply(beats, kind.type(c), out=step)
        np.maximum(labels, step, out=labels)
        np.maximum(best, row, out=best)
    return labels


def _labels(prototypes: np.ndarray, embeddings: np.ndarray,
            tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The (B, P) labels of the (B, C, D) ``prototypes`` on the P rows of
    ``embeddings``, in ``_top_class``'s type, and a (B, P) mask of the
    columns where a matrix's scores are not all finite, read off each
    chunk's scores with one finite test.

    The matrices' rows are stacked into one (B * C, D) operand, and each
    chunk of at most ``_BATCH_VALUES`` scores is one 2-D ``_scores``
    product with the transposed view of the rows. Keep it
    flat: at the sweep grid's (25, 5, 64) x (64, 1500) a 3-D ``matmul``
    runs one small GEMM per matrix and took 1.7 ms (0.69 ms with a
    contiguous (D, P) copy), the flat product 0.32 ms, and 25 per-seed
    (4, 5, 64) x (64, 1375) products 7.4 ms (2-vCPU Xeon, OpenBLAS
    0.3.31). The flat product moves ~0.17% of scores by a few ulps
    against each matrix's own product, which moved no label on the
    default family."""
    b, c, d = prototypes.shape
    flat = prototypes.reshape(b * c, d)
    labels = np.empty((b, embeddings.shape[0]), dtype=_label_type(c))
    bad = np.empty(labels.shape, dtype=bool)
    step = max(1, _BATCH_VALUES // (c * embeddings.shape[0]))
    for lo in range(0, b, step):
        hi = min(b, lo + step)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = _scores(flat[lo * c:hi * c], embeddings, tau).reshape(hi - lo, c, -1)
            labels[lo:hi] = _top_class(scores)
        bad[lo:hi] = ~np.isfinite(scores).all(axis=1)
    return labels, bad


def _score(prototypes: list, embeddings: np.ndarray, truth: _Truth,
           tau: float) -> list[MetricReport | Exception]:
    """The metrics of each prototype matrix of ``prototypes`` on its eval
    split, or the exception that fails it: entry b's split is the rows
    of ``embeddings`` that row b of ``truth.masks`` marks. An entry that
    already is an exception (a failed fit) stays as it is. An empty split
    fails its matrix, as does one whose scores on its split are not all
    finite; the overflow or invalid value behind such scores is
    silenced, so that its error is the only signal. ``tau`` and the
    matrices are trusted: the public entries and the fits check them.

    Every distinct matrix that passes is scored against all P rows in
    one flat product (``_labels``); entries that are the same array
    object, such as zeroshot's text prototypes in every cell, share its
    label row. Labels are the argmax of the scores, ties to the lowest
    class, and the metrics of all entries are one pass (``_metrics``),
    each over its own split. The argmax of ``predict_probs`` differs
    only where exp() rounds a logit within ~1e-16 of its row's max up to
    that max, a tie it gives to the lower class.
    """
    outcomes, scored, which, distinct = list(prototypes), [], [], {}
    for i, (p, size) in enumerate(zip(prototypes, truth.totals.sum(axis=1))):
        if isinstance(p, Exception):
            continue
        if not size:
            outcomes[i] = DataError("eval split is empty")
        else:
            scored.append(i)  # the list holds every entry, so ids stay distinct
            which.append(distinct.setdefault(id(p), (len(distinct), p))[0])
    if not scored:
        return outcomes
    labels, bad = _labels(np.stack([p for _, p in distinct.values()]), embeddings, tau)
    reports = _metrics(labels[which], truth, scored)
    failed = (bad[which] & truth.masks[scored]).any(axis=1)
    for i, fails, report in zip(scored, failed, reports):
        outcomes[i] = (DataError("similarity matrix contains non-finite entries")
                       if fails else report)
    return outcomes


def evaluate_prototypes(prototypes: np.ndarray, eval_set: EvalSet,
                        tau: float) -> MetricReport:
    """Score prototypes on an eval split (balanced and plain accuracy).
    The prototypes must be one row per class of the split. Labels are
    the argmax of the scores (W @ V.T) / tau, ties to the lowest class."""
    w = check_array(prototypes, "prototypes", (eval_set.class_count, eval_set.dim))
    every = _truth(eval_set.labels, eval_set.class_count,
                   np.ones((1, eval_set.count), dtype=bool))
    outcome, = _score([w], eval_set.embeddings, every, check_tau(tau))
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _distinct_rows(x: np.ndarray, mean: np.ndarray,
                   exponent) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows r of ``ldexp(x - mean, exponent)`` (C-contiguous
    float64 ``x``) as rows [r, 1, r.r] in ``np.unique``'s order of their
    void bytes, and each row's index among them. Void rows sort by
    memcmp, first by the first column's 8 bytes read as a big-endian u8:
    where those keys differ, their stable argsort is the order; only
    where one repeats is a centred copy of ``x`` made for ``np.unique``."""
    keys = np.ldexp(x[:, 0] - mean[0], exponent).view(">u8")
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    if np.all(ranked[1:] != ranked[:-1]):
        col = np.empty_like(order)
        col[order] = np.arange(order.size)
    else:
        centred = x - mean
        np.ldexp(centred, exponent, out=centred)
        row_bytes = centred.view(np.dtype((np.void, x.itemsize * x.shape[1]))).ravel()
        _, order, col = np.unique(row_bytes, return_index=True, return_inverse=True)
    distinct = x[order]
    distinct -= mean
    np.ldexp(distinct, exponent, out=distinct)
    sq = np.einsum("ij,ij->i", distinct, distinct)
    return np.column_stack([distinct, np.ones_like(sq), sq]), col


def silhouette_score(embeddings: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette over samples (Rousseeuw 1987): (b - a) / max(a, b),
    with a the mean Euclidean distance to same-labeled points and b the
    smallest mean distance to any other label. Singleton-labeled samples
    score 0, and so does a sample with a = b = 0. Needs integer labels,
    at least two distinct ones, and finite embeddings.

    The rows are centred on their mean (the Gram identity then cancels
    only the data's spread, not its offset) and scaled by a power of two,
    read off the column extremes (fl(x - m) is monotone), to a largest
    magnitude in [0.5, 1): both leave the score unchanged, and no squared
    distance under- or overflows. Distances are taken between the k
    distinct rows (``_distinct_rows``), so duplicates are exactly 0
    apart. The symmetric k x k matrix is walked in row blocks [lo, hi)
    against the columns [lo, k): a block adds its rows' class sums and,
    through its transpose, those of the columns past hi. A block holds
    at most ``_SILHOUETTE_BLOCK`` elements or one row, its bounds fix the
    summation order, and every block is written into one buffer. Its
    squared distances ||x||^2 + ||y||^2 - 2 x.y are one product: rows
    [-2 x_i, ||x_i||^2, 1] (doubling is exact) by rows [x_j, 1, ||x_j||^2].
    Its diagonal is set to 0 and its square root taken: only distinct
    rows that nearly coincide round below 0, and a block whose root sets
    the invalid flag has its NaNs set to 0, bitwise sqrt(max(v, 0)).
    """
    x = np.ascontiguousarray(check_array(embeddings, "silhouette embeddings",
                                         (None, None), finite=True))
    y = check_array(labels, "silhouette labels", x.shape[:1], dtype=None)
    if y.dtype.kind not in "iu":
        raise DataError(f"silhouette labels must be integers, got dtype {y.dtype}")
    if x.shape[1] == 0:
        raise DataError("silhouette embeddings have no columns")
    classes, dense = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise DataError("silhouette needs at least two distinct labels")
    counts = np.bincount(dense)
    mean = x.mean(axis=0)
    peak = max((x.max(axis=0) - mean).max(), -(x.min(axis=0) - mean).min())
    # distinct rows are the distance columns; row i's own column is col[i]
    right, col = _distinct_rows(x, mean, -np.frexp(peak)[1])
    k, d = right.shape[0], x.shape[1]
    # members[j, c]: how many points of class c sit at distinct row j
    members = np.zeros((k, classes.size))
    np.add.at(members, (col, dense), 1.0)

    # sums[j, c]: summed distance from distinct row j to the points of class c
    sums = np.zeros_like(members)
    buffer = np.empty(max(_SILHOUETTE_BLOCK, k))
    lo = 0
    while lo < k:
        hi = min(k, lo + max(1, _SILHOUETTE_BLOCK // (k - lo)))
        left = np.empty((hi - lo, d + 2))
        np.multiply(right[lo:hi, :d], -2.0, out=left[:, :d])
        left[:, d:] = right[lo:hi, :d - 1:-1]  # ||x_i||^2, 1
        dist = buffer[:(hi - lo) * (k - lo)].reshape(hi - lo, k - lo)
        np.matmul(left, right[lo:].T, out=dist)
        np.fill_diagonal(dist, 0.0)
        try:
            with np.errstate(invalid="raise"):
                np.sqrt(dist, out=dist)
        except FloatingPointError:  # a near-duplicate pair rounded below 0
            dist[np.isnan(dist)] = 0.0
        sums[lo:hi] += dist @ members[lo:]
        sums[hi:] += dist[:, hi - lo:].T @ members[lo:hi]
        lo = hi

    rows = np.arange(x.shape[0])
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
    """Dispatch one solver by name on an already-sampled split; zeroshot
    reads no labeled record, so it builds none."""
    oracles = [_checked_oracle(oracle_marginal, support, cfg)]
    if name == "zeroshot":
        return _fit_splits(name, dataset, None, None, cfg, oracles)[0]
    return _fit_alone(partial(_fit_splits, name, dataset), support,
                      unlabeled.embeddings[None], cfg, oracles)


def _fit_splits(name: str, dataset: Dataset, labeled: _LabeledSums | None,
                unlabeled: np.ndarray, cfg: SolverConfig,
                oracles: list[np.ndarray | None]) -> list[FitResult | Exception]:
    """One solver's fits of a batch of splits, in order, on their labeled
    record ``labeled``, their only labeled input (None for zeroshot), the
    (B, M, D) ``unlabeled`` and the oracle marginals ``oracles``, each
    the split's own fit or the error that fit raises: simpleshot, sstext
    and sstextu fit them in one call each."""
    if name == "zeroshot":
        return [FitResult(
            prototypes=dataset.prototypes,
            objective_trace=np.array([], dtype=np.float64),
        )] * len(oracles)
    if name == "simpleshot":
        return _simpleshot(labeled)
    if name == "sstext":
        return _adapt(labeled, dataset.prototypes, cfg)
    if name == "sstextu":
        return _adapt(labeled, dataset.prototypes, cfg, unlabeled, oracles)
    raise ConfigError(f"unknown solver {name!r}; expected one of {SOLVER_NAMES}")


def _run_cell(dataset: Dataset, dataset_name: str, solver: str, spec: SamplingSpec,
              outcome: MetricReport | Exception, runtime_ms: float) -> BenchmarkRow:
    """The row of one cell: its metrics, or the error of its draw, fit
    or scoring."""
    failed = isinstance(outcome, Exception)
    return BenchmarkRow(solver=solver, dataset=dataset_name, shots=spec.shots,
                        unlabeled_count=spec.unlabeled_multiplier * dataset.class_count,
                        seed=spec.seed, aca=float("nan") if failed else outcome.aca,
                        acc=float("nan") if failed else outcome.acc,
                        runtime_ms=0.0 if failed else runtime_ms,
                        error=f"{type(outcome).__name__}: {outcome}" if failed else "")


def _run_batch(dataset: Dataset, dataset_name: str, pool: EvalSet, norms: np.ndarray,
               solvers, specs: list[SamplingSpec], cfg: SolverConfig,
               include_timing: bool, eval_set: EvalSet | None) -> dict:
    """The rows, keyed by (solver, shots, seed), of every solver's cells
    on the splits of ``specs``, drawn from the pool (row norms ``norms``)
    with one permutation and one normalised gather per seed: their
    unlabeled rows are stacked into one (B, M, D) array and their labeled
    products built once for the solvers that read them. Each solver
    fits the splits in one call, which fails each cell on its own, and
    scores that batch once, against the pool with each cell's eval rows
    as a mask, or against ``eval_set``; the masks' one-hot truth and
    class totals are built once too."""
    rows, drawn, splits = {}, [], []
    for spec, split in zip(specs, _draws(pool, norms, specs)):
        if isinstance(split, SamplingError):
            rows.update({(solver, spec.shots, spec.seed): _run_cell(
                dataset, dataset_name, solver, spec, split, 0.0) for solver in solvers})
        else:
            drawn.append(spec)
            splits.append(split)
    if not drawn:
        return rows
    unlabeled = np.stack([split.unlabeled for split in splits])
    labeled = (_labeled_sums([split.support for split in splits])
               if set(solvers) - {"zeroshot"} else None)
    oracles = [split.oracle_marginal for split in splits]
    fits, shares = {}, {}
    for solver in solvers:
        start = time.perf_counter()
        fits[solver] = _fit_splits(solver, dataset, labeled, unlabeled, cfg, oracles)
        timed = include_timing and solver != "zeroshot"
        shares[solver] = (time.perf_counter() - start) * 1e3 / len(drawn) if timed else 0.0
    scored_on = pool if eval_set is None else eval_set
    masks = np.full((len(splits), scored_on.count), eval_set is not None)
    if eval_set is None:  # each cell's eval rows, as a mask over the pool
        for mask, split in zip(masks, splits):
            mask[split.eval_idx] = True
    truth = _truth(scored_on.labels, scored_on.class_count, masks)
    # drop the fit inputs, so that they and the scores never peak together
    del splits, unlabeled, labeled
    for solver in solvers:
        outcomes = _score([fit if isinstance(fit, Exception) else fit.prototypes
                           for fit in fits[solver]], scored_on.embeddings, truth, cfg.tau)
        rows.update({(solver, spec.shots, spec.seed): _run_cell(
            dataset, dataset_name, solver, spec, outcome, shares[solver])
            for spec, outcome in zip(drawn, outcomes)})
    return rows


def _seed_list(seeds, most: int) -> list[int]:
    """``seeds`` as a list: a count n gives 0..n-1, an iterable its own
    seeds; each must be a nonnegative integer. More than ``most`` seeds
    are a ConfigError, raised before a longer list is built."""
    if isinstance(seeds, numbers.Number):
        seeds = range(check_count(seeds, "seeds"))
    try:
        items = list(itertools.islice(seeds, most + 1))
    except TypeError:
        raise ConfigError(f"seeds must be a count or an iterable of seeds, "
                          f"got {seeds!r}") from None
    if len(items) > most:
        raise ConfigError(f"benchmark grid must be <= {_MAX_ROWS} rows: "
                          f"at most {most} seeds for this grid")
    return [check_count(seed, "seed") for seed in items]


def _listed(entries, what: str, kind: str) -> list:
    """``entries`` as a list; anything that is not an iterable of
    hashable entries is a ConfigError."""
    try:
        items = list(entries)
        set(items)
    except TypeError:
        raise ConfigError(f"{what} must be an iterable of {kind}, got {entries!r}") from None
    return items


def run_benchmark(dataset: Dataset, solvers=SOLVER_NAMES,
                  shot_grid=(1, 2, 4, 8, 16), seeds: int = 50,
                  cfg: SolverConfig | None = None,
                  unlabeled_multiplier: int = SamplingSpec.unlabeled_multiplier,
                  include_timing: bool = True,
                  dataset_name: str = "dataset",
                  eval_set: EvalSet | None = None) -> list[BenchmarkRow]:
    """Run the (solver, shots, seed) grid serially, one row per cell.

    ``seeds`` is a count n (seeds 0..n-1) or an iterable of seeds, each a
    nonnegative integer. Every solver fits the same splits, so rows are
    comparable seed-by-seed. A batch's splits take one permutation and
    one normalised gather per seed, shared by the batch's shot counts:
    the pool's row norms are taken once per run, the head of a seed's
    permutation that its longest split reads is divided by them once,
    and each split's support and unlabeled rows are slices of it,
    bitwise the rows it would normalize on its own.

    Cells are packed in grid order (shot count, then seed) into batches
    that span shot counts, each of as many cells as keep B·(N + M)·(C + D)
    under ``_BATCH_VALUES`` float64 values (one cell when a cell alone is
    larger), and each solver fits a batch in one call; every cell gets the
    fit it gets alone, or the error that fit raises. A batch's labeled
    record, its class sums Y^T V and class counts, is built once, one
    product per support, and is the only labeled input of simpleshot,
    sstext and sstextu. A split that cannot be drawn fails each solver's
    cell on it with the same error, and a failed fit or scoring fails its
    own cell only. Rows come back in grid order. An unknown solver, an
    empty solver list, shot grid or seed list, an entry repeated in any of
    the three, a seed that is not a nonnegative integer, more seeds than
    keep the grid within ``_MAX_ROWS`` rows, a shot count or multiplier
    that SamplingSpec rejects, fixed lambda weights of another class
    count, or an ``include_timing`` that is not a bool raises ConfigError.

    With ``include_timing`` a cell's ``runtime_ms`` is the wall time of
    its solver's one fit call on the batch, timed here, divided by the
    batch's cell count, an amortised share that the cells of one batch
    have in common across their shot counts; a zeroshot or failed cell's
    is 0. The shared labeled sums are charged to no solver, like
    the draw of the splits, so each product's time is counted at most
    once.

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
    ``benchmark`` picks when no ``--tau`` is given. An explicit ``cfg``
    runs at ``cfg.tau`` (DEFAULT_TAU, 0.01, unless set), not at the
    dataset's tau.
    """
    if eval_set is not None and (eval_set.class_count, eval_set.dim) != (
            dataset.class_count, dataset.dim):
        raise DataError(
            f"eval dataset ({eval_set.class_count} classes, dim {eval_set.dim}) "
            f"does not fit ({dataset.class_count} classes, dim {dataset.dim})")
    if not isinstance(include_timing, bool):
        raise ConfigError(f"include_timing must be a bool, got {include_timing!r}")
    if cfg is None:
        cfg = SolverConfig(tau=_resolve_tau(None, dataset))
    solvers = _listed(solvers, "solvers", "solver names")
    shot_grid = _listed(shot_grid, "shot_grid", "shot counts")
    seed_list = _seed_list(seeds, _MAX_ROWS // max(1, len(solvers) * len(shot_grid)))
    if not (solvers and shot_grid and seed_list and set(solvers) <= set(SOLVER_NAMES)):
        raise ConfigError(f"benchmark needs solvers from {SOLVER_NAMES}, a shot count "
                          f"and a seed; got {solvers!r}, {shot_grid!r}, {seeds!r}")
    for what, entries in (("solvers", solvers), ("shot counts", shot_grid),
                          ("seeds", seed_list)):
        if len(set(entries)) != len(entries):  # each cell is one row
            raise ConfigError(f"benchmark {what} must not repeat, got {entries!r}")
    # a bad shot count, multiplier or weight vector is a config error,
    # not a cell failure
    for weights in (cfg.lambdas.text_weights, cfg.lambdas.unlabeled_weights):
        weights(np.zeros(dataset.class_count))
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
    norms = _row_norms(pool.embeddings, "embeddings")  # a pool's rows are finite
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
    """Mean/std of balanced and plain accuracy per (solver, shots) over
    clean rows, None for a group without one. The groups with equal
    clean-row counts are one 2-D mean and std over the last axis, bitwise
    each group's own 1-D mean and std."""
    groups: dict[tuple[str, int], list[BenchmarkRow]] = {}
    for row in rows:
        groups.setdefault((row.solver, row.shots), []).append(row)
    clean = {key: [r for r in members if not r.error] for key, members in groups.items()}
    by_count: dict[int, list[tuple[str, int]]] = {}
    for key, kept in clean.items():
        by_count.setdefault(len(kept), []).append(key)
    stats = {}
    for count, keys in by_count.items():
        if not count:
            stats.update(dict.fromkeys(keys, ((None, None), (None, None))))
            continue
        values = np.array([[[r.aca for r in clean[key]], [r.acc for r in clean[key]]]
                           for key in keys])
        stats.update(zip(keys, zip(values.mean(axis=-1).tolist(),
                                   values.std(axis=-1).tolist())))
    out = []
    for key in sorted(groups):
        (aca_mean, acc_mean), (aca_std, acc_std) = stats[key]
        out.append({
            "solver": key[0],
            "K": key[1],
            "cells": len(groups[key]),
            "failed": len(groups[key]) - len(clean[key]),
            "aca_mean": aca_mean,
            "aca_std": aca_std,
            "acc_mean": acc_mean,
            "acc_std": acc_std,
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
