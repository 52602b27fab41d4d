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

Benchmarks run a (solver, shots, seed) grid serially, drawing each
(shots, seed) split once for every solver; rows come back in grid order.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, EvalSet, SupportSet, UnlabeledSet, normalize_rows
from .errors import ConfigError, DataError, GenerationError, SamplingError
from .solvers import (
    FitResult,
    SolverConfig,
    estimate_marginal,
    fit_simpleshot,
    fit_sstext,
    fit_sstextu,
)
from .zeroshot import DEFAULT_TAU, check_count, predict_labels, predict_probs

SOLVER_NAMES = ("zeroshot", "simpleshot", "sstext", "sstextu")

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
    replacement: draw the support with replacement (contrast mode).
    stratified: force exactly `shots` per class (contrast mode; the
        default draws uniformly so class composition follows the pool).
    """

    shots: int
    unlabeled_multiplier: int = 24
    seed: int = 0
    replacement: bool = False
    stratified: bool = False

    def __post_init__(self):
        for name, low in (("shots", 1), ("unlabeled_multiplier", 0)):
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
        for name, low in (("class_count", 2), ("dim", 2), ("pool_size", 1)):
            object.__setattr__(self, name, check_count(getattr(self, name), name, low))
        if not (self.separation > 0):
            raise ConfigError(f"separation must be > 0, got {self.separation}")
        if not (self.noise > 0):
            raise ConfigError(f"noise must be > 0, got {self.noise}")
        if self.text_noise < 0:
            raise ConfigError(f"text_noise must be >= 0, got {self.text_noise}")
        m = np.asarray(self.marginal, dtype=np.float64)
        if m.shape != (self.class_count,):
            raise ConfigError(
                f"marginal length {m.shape[0] if m.ndim == 1 else m.shape} "
                f"does not match class_count {self.class_count}")
        if np.any(m < 0) or not np.isclose(m.sum(), 1.0, atol=1e-9):
            raise ConfigError("marginal must be nonnegative and sum to one")


@dataclass(frozen=True, eq=False)
class MetricReport:
    """Evaluation metrics for one prototype matrix on one eval split.

    aca: balanced accuracy, the mean per-class recall over classes
        present in the truth.
    acc: plain accuracy.
    per_class_recall: recall per class; NaN for classes absent from
        the truth.
    silhouette: cluster separability of the eval embeddings under the
        true labels, when computed (None otherwise).
    """

    aca: float
    acc: float
    per_class_recall: np.ndarray
    silhouette: float | None = None


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
    per-class when stratified, with replacement when requested), then
    the unlabeled draw from the remainder, then everything left.
    """
    labels = np.asarray(labels)
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
    elif spec.replacement:
        support = rng.choice(pool_n, size=n, replace=True)
        rest = np.setdiff1d(np.arange(pool_n), support)
        if rest.size < m:
            raise SamplingError(
                f"pool remainder of {rest.size} cannot supply {m} unlabeled items")
        rest = rng.permutation(rest)
    else:
        perm = rng.permutation(pool_n)
        support, rest = perm[:n], perm[n:]
    return support, rest[:m], rest[m:]


def sample_support(pool: EvalSet, spec: SamplingSpec) -> tuple[SupportSet,
                                                               UnlabeledSet,
                                                               EvalSet]:
    """Draw a labeled support set and an unlabeled set from the pool;
    the remainder becomes the eval split. Splits are pairwise disjoint
    (unless replacement mode repeats support items) and fully
    determined by the seed."""
    return _draw_split(pool, spec)[:3]


def _draw_split(pool: EvalSet, spec: SamplingSpec) -> tuple[
        SupportSet, UnlabeledSet, EvalSet, np.ndarray | None]:
    """sample_support's three sets plus the hidden-label class marginal
    of the unlabeled draw (None when it is empty), which the oracle
    marginal source reads."""
    sup_idx, unl_idx, eval_idx = split_indices(pool.labels, pool.class_count, spec)
    support = SupportSet.from_indices(
        pool.embeddings[sup_idx], pool.labels[sup_idx], pool.class_count)
    if unl_idx.size:
        unlabeled = UnlabeledSet.from_embeddings(pool.embeddings[unl_idx])
        hidden = np.bincount(pool.labels[unl_idx], minlength=pool.class_count)
        oracle_marginal = hidden / hidden.sum()
    else:
        unlabeled = UnlabeledSet.empty(pool.embeddings.shape[1])
        oracle_marginal = None
    eval_set = EvalSet(
        embeddings=pool.embeddings[eval_idx],
        labels=pool.labels[eval_idx],
        class_count=pool.class_count,
    )
    return support, unlabeled, eval_set, oracle_marginal


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
                        p=np.asarray(spec.marginal, dtype=np.float64))
    samples = centers[labels] + spec.noise * rng.standard_normal(
        (spec.pool_size, spec.dim))
    text = centers + spec.text_noise * rng.standard_normal(centers.shape)
    pool = EvalSet(
        embeddings=normalize_rows(samples),
        labels=labels.astype(np.int64),
        class_count=spec.class_count,
    )
    return pool, normalize_rows(text)


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


def _per_class_recall(predictions: np.ndarray, truth: np.ndarray,
                      class_count: int) -> tuple[np.ndarray, float]:
    """Recall of each class (NaN for classes absent from the truth) and
    its mean over the present classes."""
    totals = np.bincount(truth, minlength=class_count)
    hits = np.bincount(truth[predictions == truth], minlength=class_count)
    present = totals > 0
    recall = np.full(class_count, np.nan)
    recall[present] = hits[present] / totals[present]
    return recall, float(recall[present].mean())


def balanced_accuracy(predictions: np.ndarray, truth: np.ndarray,
                      class_count: int) -> float:
    """Mean per-class recall over the classes present in the truth."""
    pred = np.asarray(predictions)
    true = np.asarray(truth)
    if pred.shape != true.shape or pred.ndim != 1 or pred.size == 0:
        raise DataError("predictions and truth must be equal-length nonempty vectors")
    return _per_class_recall(pred, true, class_count)[1]


def evaluate_prototypes(prototypes: np.ndarray, eval_set: EvalSet,
                        tau: float) -> MetricReport:
    """Score prototypes on an eval split (balanced and plain accuracy).
    The prototypes must be one row per class of the split."""
    if eval_set.labels.size == 0:
        raise DataError("eval split is empty")
    if np.shape(prototypes) != (eval_set.class_count, eval_set.dim):
        raise DataError(
            f"prototypes {np.shape(prototypes)} do not fit the eval split "
            f"({eval_set.class_count} classes, dim {eval_set.dim})")
    probs = predict_probs(eval_set.embeddings, prototypes, tau)
    pred = predict_labels(probs)
    recall, aca = _per_class_recall(pred, eval_set.labels, eval_set.class_count)
    return MetricReport(
        aca=aca,
        acc=float((pred == eval_set.labels).mean()),
        per_class_recall=recall,
    )


def silhouette_score(embeddings: np.ndarray, labels: np.ndarray,
                     chunk_budget: int = 1 << 24) -> float:
    """Mean silhouette over samples (Rousseeuw 1987): (b - a) / max(a, b),
    with a the mean Euclidean distance to same-labeled points and b the
    smallest mean distance to any other label. Singleton-labeled samples
    score 0. Needs at least two distinct labels and finite embeddings.

    Distances come from the Gram identity ||x - y||^2 = ||x||^2 + ||y||^2
    - 2 x.y, clamped at 0 before the square root. The rows are first
    centred on their mean: the score does not change under translation,
    and centring keeps the identity's cancellation down to the spread of
    the data rather than its offset. Each row is compared with the
    distinct rows of the pool, and its distance to its own distinct row
    is set to exactly 0, so exact duplicates are exactly 0 apart.
    ``chunk_budget`` bounds the elements of one (rows, distinct rows)
    distance block; a block holds at least one row.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels)
    if x.ndim != 2 or x.shape[1] == 0 or y.shape != (x.shape[0],):
        raise DataError(f"bad shapes: embeddings {x.shape}, labels {y.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError("silhouette embeddings contain NaN or Inf entries")
    classes, dense = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise DataError("silhouette needs at least two distinct labels")
    n, d = x.shape
    counts = np.bincount(dense)
    x = x - x.mean(axis=0)
    sq = np.einsum("ij,ij->i", x, x)
    # distinct rows are the distance columns; row i's own column is col[i]
    row_bytes = x.view(np.dtype((np.void, x.itemsize * d))).ravel()
    _, first, col = np.unique(row_bytes, return_index=True, return_inverse=True)
    distinct, distinct_sq = x[first], sq[first]
    # members[k, c]: how many points of class c sit at distinct row k
    members = np.zeros((first.size, classes.size))
    np.add.at(members, (col, dense), 1.0)

    scores = np.empty(n)
    step = max(1, chunk_budget // first.size)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        rows = np.arange(hi - lo)
        dist = x[lo:hi] @ distinct.T
        dist *= -2.0
        dist += sq[lo:hi, None]
        dist += distinct_sq
        np.maximum(dist, 0.0, out=dist)
        np.sqrt(dist, out=dist)
        dist[rows, col[lo:hi]] = 0.0
        class_sums = dist @ members
        own = dense[lo:hi]
        own_count = counts[own]
        # self-distance is 0, so the own-class sum already excludes it
        a = np.where(own_count > 1,
                     class_sums[rows, own] / np.maximum(own_count - 1, 1), 0.0)
        means = class_sums / counts[None, :]
        means[rows, own] = np.inf
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        s = np.where(denom > 0, (b - a) / np.where(denom > 0, denom, 1.0), 0.0)
        scores[lo:hi] = np.where(own_count > 1, s, 0.0)
    return float(scores.mean())


def correlate(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation; rejects short or constant inputs."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 3:
        raise DataError("correlate needs two equal-length vectors of size >= 3")
    if np.isclose(a.std(), 0.0) or np.isclose(b.std(), 0.0):
        raise DataError("correlate needs nonzero variance in both inputs")
    return float(np.corrcoef(a, b)[0, 1])


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
    if name == "zeroshot":
        return FitResult(
            prototypes=dataset.prototypes,
            objective_trace=np.array([], dtype=np.float64),
            runtime_ms=0.0,
        )
    if name == "simpleshot":
        return fit_simpleshot(support)
    if name == "sstext":
        return fit_sstext(support, dataset.prototypes, cfg)
    if name == "sstextu":
        return fit_sstextu(support, unlabeled, dataset.prototypes, cfg,
                           oracle_marginal=oracle_marginal)
    raise ConfigError(f"unknown solver {name!r}; expected one of {SOLVER_NAMES}")


def _failed_row(solver: str, dataset_name: str, spec: SamplingSpec,
                dataset: Dataset, exc: Exception) -> BenchmarkRow:
    return BenchmarkRow(
        solver=solver, dataset=dataset_name, shots=spec.shots,
        unlabeled_count=spec.unlabeled_multiplier * dataset.class_count,
        seed=spec.seed, aca=float("nan"), acc=float("nan"),
        runtime_ms=0.0, error=f"{type(exc).__name__}: {exc}")


def _run_cell(dataset: Dataset, dataset_name: str, solver: str,
              spec: SamplingSpec, split: tuple, cfg: SolverConfig,
              include_timing: bool, eval_set: EvalSet | None) -> BenchmarkRow:
    support, unlabeled, remainder, oracle_marginal = split
    try:
        fit = fit_solver(solver, dataset, support, unlabeled, cfg, oracle_marginal)
        report = evaluate_prototypes(
            fit.prototypes, remainder if eval_set is None else eval_set, cfg.tau)
    except Exception as exc:
        return _failed_row(solver, dataset_name, spec, dataset, exc)
    return BenchmarkRow(
        solver=solver,
        dataset=dataset_name,
        shots=spec.shots,
        unlabeled_count=unlabeled.count,
        seed=spec.seed,
        aca=report.aca,
        acc=report.acc,
        runtime_ms=fit.runtime_ms if include_timing else 0.0,
    )


def run_benchmark(dataset: Dataset, solvers=SOLVER_NAMES,
                  shot_grid=(1, 2, 4, 8, 16), seeds: int = 50,
                  cfg: SolverConfig | None = None,
                  unlabeled_multiplier: int = 24,
                  include_timing: bool = True,
                  dataset_name: str = "dataset",
                  eval_set: EvalSet | None = None) -> list[BenchmarkRow]:
    """Run the (solver, shots, seed) grid serially, one row per cell.

    Each (shots, seed) split is drawn once and handed to every solver,
    so rows are comparable seed-by-seed. A split that cannot be drawn
    fails each solver's cell on it with the same error; a failed fit or
    scoring fails its own cell only. Rows come back in grid order. An
    unknown solver, an empty solver list, shot grid or seed list, or a
    shot count or multiplier that SamplingSpec rejects raises ConfigError.

    By default every seed evaluates on the pool remainder left after its
    own support/unlabeled draw. Passing ``eval_set`` scores every cell
    on that fixed split instead (the caller guarantees it is held out),
    which makes support-free solvers constant across seeds.

    Without ``cfg`` the fits run at stock SolverConfig settings and the
    dataset's own tau when it carries one, the temperature the CLI's
    ``benchmark`` picks when no ``--tau`` is given.
    """
    if cfg is None:
        cfg = SolverConfig(tau=_resolve_tau(None, dataset))
    seed_list = list(range(seeds)) if isinstance(seeds, int) else list(seeds)
    if not (solvers and shot_grid and seed_list and set(solvers) <= set(SOLVER_NAMES)):
        raise ConfigError(f"benchmark needs solvers from {SOLVER_NAMES}, a shot count "
                          f"and a seed; got {solvers!r}, {shot_grid!r}, {seeds!r}")
    # a bad shot count or multiplier is a config error, not a cell failure
    specs = {shots: SamplingSpec(shots=shots, unlabeled_multiplier=unlabeled_multiplier)
             for shots in shot_grid}
    pool = dataset.pool()
    rows = {}
    for shots, seed in itertools.product(specs, seed_list):
        spec = replace(specs[shots], seed=seed)
        try:
            split = _draw_split(pool, spec)
        except Exception as exc:
            rows.update({(solver, shots, seed): _failed_row(
                solver, dataset_name, spec, dataset, exc) for solver in solvers})
            continue
        rows.update({(solver, shots, seed): _run_cell(
            dataset, dataset_name, solver, spec, split, cfg, include_timing, eval_set)
            for solver in solvers})
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
