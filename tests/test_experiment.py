import hashlib
import itertools
import time
import warnings

import numpy as np
import pytest

from semishot import (
    ConfigError,
    DataError,
    Dataset,
    EvalSet,
    GenerationError,
    LambdaPolicy,
    SamplingError,
    SamplingSpec,
    SemishotError,
    SolverConfig,
    SolverError,
    SyntheticSpec,
    aggregate_rows,
    balanced_accuracy,
    correlate,
    evaluate_prototypes,
    fit_solver,
    fit_sstext,
    generate_synthetic,
    normalize_rows,
    predict_labels,
    predict_probs,
    rows_to_csv,
    rows_to_json,
    run_benchmark,
    sample_support,
    silhouette_score,
    similarity_matrix,
    split_indices,
    synthetic_dataset,
)
from semishot import data, experiment, solvers, zeroshot
from semishot.experiment import BenchmarkRow, CSV_HEADER, DEFAULT_SYNTHETIC_TAU, SOLVER_NAMES

from conftest import spy, unit_rows


def small_spec(**kw):
    base = dict(class_count=3, dim=16, separation=1.0, noise=0.25,
                marginal=(0.5, 0.3, 0.2), text_noise=0.1, pool_size=240,
                seed=0)
    base.update(kw)
    return SyntheticSpec(**base)


# ---------------------------------------------------------------- specs


def test_sampling_spec_validation():
    with pytest.raises(ConfigError):
        SamplingSpec(shots=0)
    with pytest.raises(ConfigError):
        SamplingSpec(shots=1, unlabeled_multiplier=-1)


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError):
        small_spec(class_count=1, marginal=(1.0,))
    with pytest.raises(ConfigError):
        small_spec(noise=0.0)
    with pytest.raises(ConfigError):
        small_spec(separation=-0.5)
    with pytest.raises(ConfigError):
        small_spec(text_noise=-0.1)
    with pytest.raises(ConfigError):
        small_spec(marginal=(0.5, 0.5))  # wrong length for 3 classes
    with pytest.raises(ConfigError):
        small_spec(marginal=(0.5, 0.3, 0.3))  # does not sum to one


@pytest.mark.parametrize("sizes, message", [
    (dict(pool_size=2 ** 21 + 1), "pool_size x dim must be <= 134217728 values, "
                                  "got 2097153 x 64"),
    (dict(dim=2 ** 26, pool_size=2), "class_count x dim must be <= 134217728 values, "
                                     "got 5 x 67108864"),
    (dict(class_count=2 ** 26 + 1, dim=2, pool_size=1, marginal=(1.0,)),
     "class_count x dim must be <= 134217728 values, got 67108865 x 2"),
], ids=["pool", "centers", "classes"])
def test_synthetic_spec_refuses_sizes_past_the_ceiling(sizes, message):
    # checked before the marginal, so a wrong-length one does not matter;
    # the ceiling itself passes
    with pytest.raises(ConfigError) as err:
        SyntheticSpec(**sizes)
    assert str(err.value) == message
    assert SyntheticSpec(pool_size=2 ** 21).pool_size * 64 == experiment._MAX_SYNTHETIC_VALUES


# ---------------------------------------------------------------- splits


def test_split_small_pool_no_unlabeled():
    # pool of 10, 1 shot x 2 classes, no unlabeled: 2 support + 8 eval
    labels = np.array([0, 1] * 5)
    spec = SamplingSpec(shots=1, unlabeled_multiplier=0, seed=3)
    sup, unl, ev = split_indices(labels, 2, spec)
    assert sup.size == 2 and unl.size == 0 and ev.size == 8
    combined = np.sort(np.concatenate([sup, unl, ev]))
    assert np.array_equal(combined, np.arange(10))


def test_split_deterministic_by_seed():
    labels = np.arange(40) % 4
    spec = SamplingSpec(shots=2, unlabeled_multiplier=3, seed=11)
    a = split_indices(labels, 4, spec)
    b = split_indices(labels, 4, spec)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    other = split_indices(labels, 4, SamplingSpec(shots=2,
                                                  unlabeled_multiplier=3,
                                                  seed=12))
    assert not np.array_equal(a[0], other[0])


def test_split_sizes_and_disjointness():
    labels = np.arange(100) % 5
    spec = SamplingSpec(shots=2, unlabeled_multiplier=4, seed=0)
    sup, unl, ev = split_indices(labels, 5, spec)
    assert sup.size == 10 and unl.size == 20 and ev.size == 70
    assert np.intersect1d(sup, unl).size == 0
    assert np.intersect1d(sup, ev).size == 0
    assert np.intersect1d(unl, ev).size == 0


def test_split_rejects_exhausted_pool():
    labels = np.array([0, 1] * 5)
    with pytest.raises(SamplingError):
        split_indices(labels, 2, SamplingSpec(shots=5, unlabeled_multiplier=1))


def test_split_stratified_exact_counts():
    labels = np.arange(60) % 3
    spec = SamplingSpec(shots=4, unlabeled_multiplier=2, seed=5,
                        stratified=True)
    sup, unl, ev = split_indices(labels, 3, spec)
    assert np.array_equal(np.bincount(labels[sup], minlength=3), [4, 4, 4])
    assert np.intersect1d(sup, unl).size == 0


def test_split_stratified_rejects_thin_class():
    labels = np.array([0, 0, 0, 1])
    spec = SamplingSpec(shots=2, unlabeled_multiplier=0, stratified=True)
    with pytest.raises(SamplingError):
        split_indices(labels, 2, spec)


def test_uniform_support_misses_rare_class_at_binomial_rate():
    # pool marginal (0.9, 0.1), 1 shot x 2 classes: drawing 2 items
    # without replacement misses the rare class ~81% of the time
    labels = np.concatenate([np.zeros(900, dtype=int), np.ones(100, dtype=int)])
    missing = 0
    trials = 10000
    for seed in range(trials):
        spec = SamplingSpec(shots=1, unlabeled_multiplier=0, seed=seed)
        sup, _, _ = split_indices(labels, 2, spec)
        if not (labels[sup] == 1).any():
            missing += 1
    assert abs(missing / trials - 0.81) < 0.02


def test_sample_support_round_trip(rng):
    pool = EvalSet(embeddings=unit_rows(rng, 50, 6),
                   labels=np.arange(50) % 2, class_count=2)
    spec = SamplingSpec(shots=3, unlabeled_multiplier=5, seed=7)
    sup, unl, ev = sample_support(pool, spec)
    assert sup.n == 6 and unl.count == 10 and ev.labels.size == 34
    assert sup.class_count == 2
    idx_sup, idx_unl, _ = split_indices(pool.labels, 2, spec)
    # set constructors renormalize rows, so equality is up to one ulp
    assert np.allclose(sup.embeddings, pool.embeddings[idx_sup], atol=1e-12)
    assert np.allclose(unl.embeddings, pool.embeddings[idx_unl], atol=1e-12)
    assert np.array_equal(sup.labels.argmax(axis=1), pool.labels[idx_sup])


@pytest.mark.parametrize("stratified, digest", [
    (False, "ac8b85b2d37b842ee636a3638105d754f3820f09848a8ef41d4cd050a993c1c4"),
    (True, "17f3e73cc5879d471f1c4641e23df3ebca32e9359921a8f7d99089d162be7d76"),
], ids=["uniform", "stratified"])
def test_sample_support_is_its_split_of_the_normalized_pool(stratified, digest):
    rng = np.random.default_rng(1234)
    pool = EvalSet(embeddings=rng.standard_normal((90, 7)) * 3.0,
                   labels=rng.integers(0, 4, 90), class_count=4)
    spec = SamplingSpec(shots=3, unlabeled_multiplier=4, seed=6, stratified=stratified)
    sup_idx, unl_idx, eval_idx = split_indices(pool.labels, 4, spec)
    # the draw order of a seed is pinned: a change to it moves every split
    assert hashlib.sha256(np.concatenate([sup_idx, unl_idx, eval_idx]).astype("<i8")
                          .tobytes()).hexdigest() == digest
    sup, unl, ev = sample_support(pool, spec)
    unit = normalize_rows(pool.embeddings)
    assert sup.embeddings.tobytes() == unit[sup_idx].tobytes()
    assert np.array_equal(sup.labels, np.eye(4)[pool.labels[sup_idx]])
    assert unl.embeddings.tobytes() == unit[unl_idx].tobytes()
    assert ev.embeddings.tobytes() == pool.embeddings[eval_idx].tobytes()
    assert np.array_equal(ev.labels, pool.labels[eval_idx])


# ---------------------------------------------------------------- synthetic


def test_generate_deterministic():
    a_pool, a_text = generate_synthetic(small_spec())
    b_pool, b_text = generate_synthetic(small_spec())
    assert np.array_equal(a_pool.embeddings, b_pool.embeddings)
    assert np.array_equal(a_pool.labels, b_pool.labels)
    assert np.array_equal(a_text, b_text)
    c_pool, _ = generate_synthetic(small_spec(seed=1))
    assert not np.array_equal(a_pool.embeddings, c_pool.embeddings)


def test_generate_unit_norms_and_labels():
    pool, text = generate_synthetic(small_spec())
    assert np.allclose(np.linalg.norm(pool.embeddings, axis=1), 1.0, atol=1e-9)
    assert np.allclose(np.linalg.norm(text, axis=1), 1.0, atol=1e-9)
    assert pool.labels.dtype == np.int64
    assert pool.labels.min() >= 0 and pool.labels.max() < 3


def test_generate_respects_separation():
    # with text_noise=0 the text rows are the centers themselves
    _, centers = generate_synthetic(small_spec(text_noise=0.0, separation=1.2))
    dots = centers @ centers.T
    off = dots[~np.eye(3, dtype=bool)]
    assert (off <= np.cos(1.2) + 1e-12).all()


def test_generate_low_noise_is_easy():
    spec = small_spec(noise=0.02, text_noise=0.0)
    pool, text = generate_synthetic(spec)
    report = evaluate_prototypes(text, pool, tau=DEFAULT_SYNTHETIC_TAU)
    assert report.aca > 0.99
    assert silhouette_score(pool.embeddings, pool.labels) > 0.8


def test_generate_infeasible_separation():
    # 2-d sphere cannot hold 50 directions pairwise ~3 rad apart
    with pytest.raises(GenerationError):
        generate_synthetic(SyntheticSpec(class_count=50, dim=2, separation=3.0,
                                         noise=0.1,
                                         marginal=tuple([0.02] * 50),
                                         pool_size=10))


@pytest.mark.parametrize("spec", [small_spec(), small_spec(noise=0.65, seed=4),
                                  SyntheticSpec(seed=11), small_spec(noise=1e-300)],
                         ids=["small", "noisy", "default", "tiny-noise"])
def test_generate_is_the_out_of_place_expression(spec):
    # the noise is scaled and shifted in place; the sum commutes, so the
    # rows are bitwise centers[labels] + noise * draw
    rng = np.random.default_rng(spec.seed)
    centers = np.empty((spec.class_count, spec.dim))
    placed = 0
    while placed < spec.class_count:
        candidate = rng.standard_normal(spec.dim)
        candidate /= np.linalg.norm(candidate)
        if placed == 0 or np.all(centers[:placed] @ candidate <= np.cos(spec.separation)):
            centers[placed] = candidate
            placed += 1
    labels = rng.choice(spec.class_count, size=spec.pool_size, p=spec.marginal)
    samples = centers[labels] + spec.noise * rng.standard_normal((spec.pool_size, spec.dim))
    text = centers + spec.text_noise * rng.standard_normal(centers.shape)
    pool, got_text = generate_synthetic(spec)
    assert pool.embeddings.tobytes() == normalize_rows(samples).tobytes()
    assert np.array_equal(pool.labels, labels)
    assert got_text.tobytes() == normalize_rows(text).tobytes()


def test_synthetic_dataset_bundles_pool_and_text():
    # the generated rows are unit rows already; a second normalisation
    # would round about a third of their values again
    spec = small_spec()
    ds = synthetic_dataset(spec)
    pool, text = generate_synthetic(spec)
    assert ds.prototypes.tobytes() == text.tobytes()
    assert ds.embeddings.tobytes() == pool.embeddings.tobytes()
    assert ds.labels.tobytes() == pool.labels.tobytes()
    assert ds.unlabeled.shape == (0, spec.dim) and ds.tau == DEFAULT_SYNTHETIC_TAU


def test_harder_noise_never_helps_silhouette():
    # raising sample noise cannot raise the mean silhouette, up to one
    # standard deviation of seed-to-seed scatter
    levels = (0.2, 0.35, 0.5, 0.65, 0.8)
    means, stds = [], []
    for noise in levels:
        vals = []
        for seed in range(20):
            pool, _ = generate_synthetic(small_spec(noise=noise, seed=seed,
                                                    pool_size=200))
            vals.append(silhouette_score(pool.embeddings, pool.labels))
        means.append(np.mean(vals))
        stds.append(np.std(vals))
    for i in range(len(levels) - 1):
        assert means[i + 1] <= means[i] + stds[i + 1]


# ---------------------------------------------------------------- metrics


def test_balanced_accuracy_rare_class_example():
    truth = np.array([0, 0, 0, 1])
    pred = np.zeros(4, dtype=int)
    assert balanced_accuracy(pred, truth, 2) == pytest.approx(0.5)
    assert (pred == truth).mean() == pytest.approx(0.75)


def test_balanced_accuracy_matches_confusion_matrix(rng):
    c = 4
    truth = rng.integers(0, c, size=200)
    pred = rng.integers(0, c, size=200)
    confusion = np.zeros((c, c))
    for t, p in zip(truth, pred):
        confusion[t, p] += 1
    recalls = confusion.diagonal() / confusion.sum(axis=1)
    assert balanced_accuracy(pred, truth, c) == pytest.approx(recalls.mean(),
                                                              abs=1e-12)


def test_balanced_accuracy_equals_accuracy_when_balanced(rng):
    truth = np.repeat(np.arange(4), 25)
    pred = rng.integers(0, 4, size=100)
    assert balanced_accuracy(pred, truth, 4) == pytest.approx(
        (pred == truth).mean(), abs=1e-12)


def test_balanced_accuracy_validation():
    with pytest.raises(DataError):
        balanced_accuracy(np.array([0]), np.array([0, 1]), 2)
    with pytest.raises(DataError):
        balanced_accuracy(np.array([], dtype=int), np.array([], dtype=int), 2)


def test_evaluate_prototypes_reports_recalls(rng):
    ev = EvalSet(embeddings=unit_rows(rng, 40, 8), labels=np.arange(40) % 3,
                 class_count=4)
    protos = unit_rows(rng, 4, 8)
    report = evaluate_prototypes(protos, ev, tau=0.1)
    assert np.isnan(report.per_class_recall[3])  # class absent from truth
    present = report.per_class_recall[:3]
    assert report.aca == pytest.approx(present.mean(), abs=1e-12)
    pred = predict_labels(predict_probs(ev.embeddings, protos, 0.1))
    assert report.acc == pytest.approx((pred == ev.labels).mean(), abs=1e-12)
    assert report.aca == pytest.approx(
        balanced_accuracy(pred, ev.labels, 4), abs=1e-12)


def test_evaluate_prototypes_rejects_empty(rng):
    ev = EvalSet(embeddings=np.zeros((0, 4)), labels=np.zeros(0, dtype=int),
                 class_count=2)
    with pytest.raises(DataError):
        evaluate_prototypes(unit_rows(rng, 2, 4), ev, tau=0.1)


@pytest.mark.parametrize("shape", [(10, 8), (2, 8), (3, 9)],
                         ids=["extra-classes", "missing-class", "wrong-dim"])
def test_evaluate_prototypes_rejects_prototypes_that_do_not_fit(rng, shape):
    ev = EvalSet(embeddings=unit_rows(rng, 30, 8), labels=np.arange(30) % 3,
                 class_count=3)
    with pytest.raises(DataError):
        evaluate_prototypes(rng.standard_normal(shape), ev, tau=0.1)


def test_labels_are_the_argmax_of_the_scores_ties_to_the_lowest_class():
    # class 1 scores one ulp above class 0: exp() of their ~1.4e-17 gap
    # rounds to 1, so the softmax ties them and its argmax says class 0;
    # the scores themselves say class 1
    close = np.array([[0.1, 0.0], [np.nextafter(0.1, 1.0), 0.0], [0.0, 1.0]])
    v = np.array([[1.0, 0.0]])
    assert predict_labels(predict_probs(v, close, tau=1.0)).tolist() == [0]
    ev = EvalSet(embeddings=v, labels=[1], class_count=3)
    assert evaluate_prototypes(close, ev, tau=1.0).acc == 1.0
    # exact ties go to the lowest tied class, wherever the tie sits
    scores = np.array([[[1.0, 2.0, 0.0, 5.0], [1.0, 3.0, 7.0, 5.0], [0.0, 3.0, 7.0, 5.0]]])
    assert experiment._top_class(scores).tolist() == [[0, 1, 1, 0]]
    assert experiment._top_class(scores).tolist() == [scores[0].argmax(axis=0).tolist()]
    tied = np.array([[0.6, 0.8], [0.6, 0.8], [0.0, 1.0]])
    ev = EvalSet(embeddings=np.array([[0.6, 0.8]]), labels=[0], class_count=3)
    assert evaluate_prototypes(tied, ev, tau=0.01).acc == 1.0


def test_scoring_fails_a_cell_only_on_its_own_non_finite_scores(rng):
    # row 0's scores overflow; it is an eval row of the second cell only
    emb = unit_rows(rng, 30, 8)
    emb[0] *= 1e308
    truth = np.arange(30) % 3
    masks = np.ones((2, 30), dtype=bool)
    masks[0, 0] = False
    w = unit_rows(rng, 3, 8)
    kept, failed = experiment._score([w, w], emb, experiment._truth(truth, 3, masks), 0.01)
    assert str(failed) == "similarity matrix contains non-finite entries"
    alone = evaluate_prototypes(w, EvalSet(embeddings=emb[1:], labels=truth[1:],
                                           class_count=3), 0.01)
    assert (kept.aca, kept.acc) == (alone.aca, alone.acc)
    assert np.array_equal(kept.per_class_recall, alone.per_class_recall)


@pytest.mark.parametrize("c, d, e", [(2, 16, 50), (5, 64, 1300), (11, 100, 333), (7, 512, 2000)])
def test_batched_scores_are_bitwise_each_solvers_own(rng, c, d, e):
    # one (S, C, D) x (D, E) product of the scoring core gives each slice
    # the bits of its own (C, D) x (D, E) product, the rule that gives a
    # batched fit's element the bits of its own fit
    protos = [rng.standard_normal((c, d)) for _ in range(4)]
    emb = unit_rows(rng, e, d)
    batched = zeroshot._scores(np.stack(protos), emb, 0.025)
    for p, got in zip(protos, batched):
        assert np.array_equal(got, similarity_matrix(p, emb, 0.025))


# ---------------------------------------------------------------- silhouette


def naive_silhouette(x, y):
    n = x.shape[0]
    dist = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    scores = []
    for i in range(n):
        same = (y == y[i]) & (np.arange(n) != i)
        if not same.any():
            scores.append(0.0)
            continue
        a = dist[i, same].mean()
        b = min(dist[i, y == other].mean() for other in np.unique(y)
                if other != y[i])
        scores.append((b - a) / max(a, b))
    return float(np.mean(scores))


def test_silhouette_two_tight_clusters(rng):
    x = np.concatenate([
        np.array([1.0, 0.0]) + 0.01 * rng.standard_normal((20, 2)),
        np.array([-1.0, 0.0]) + 0.01 * rng.standard_normal((20, 2)),
    ])
    y = np.repeat([0, 1], 20)
    assert silhouette_score(x, y) > 0.95


def test_silhouette_random_labels_near_zero(rng):
    x = rng.standard_normal((500, 8))
    y = rng.integers(0, 4, size=500)
    assert abs(silhouette_score(x, y)) < 0.05


def test_silhouette_matches_naive(rng):
    x = rng.standard_normal((60, 5))
    y = rng.integers(0, 3, size=60)
    assert silhouette_score(x, y) == pytest.approx(naive_silhouette(x, y),
                                                   abs=1e-10)


def test_silhouette_singleton_class_scores_zero(rng):
    x = rng.standard_normal((7, 3))
    y = np.array([0, 0, 0, 1, 1, 1, 2])  # class 2 is a singleton
    assert silhouette_score(x, y) == pytest.approx(naive_silhouette(x, y),
                                                   abs=1e-12)


def test_silhouette_chunking_invariant(rng, monkeypatch):
    x = rng.standard_normal((100, 6))
    y = rng.integers(0, 3, size=100)
    full = silhouette_score(x, y)
    monkeypatch.setattr(experiment, "_SILHOUETTE_BLOCK", 1200)
    tiny_chunks = silhouette_score(x, y)
    assert tiny_chunks == pytest.approx(full, abs=1e-12)


def test_silhouette_far_from_origin_matches_naive(rng):
    # centring keeps the Gram identity's cancellation at the data's
    # spread, not at its 1e6 offset
    x = rng.standard_normal((80, 5)) + 1e6
    y = rng.integers(0, 3, size=80)
    assert silhouette_score(x, y) == pytest.approx(naive_silhouette(x, y),
                                                   abs=1e-10)


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300, 1e-300, 2.0**500, 2.0**-900])
def test_silhouette_does_not_depend_on_scale(scale):
    # squared distances of the raw rows would over- or underflow here
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 5))
    y = rng.integers(0, 3, 60)
    base = silhouette_score(x, y)
    assert silhouette_score(x * scale, y) == pytest.approx(base, rel=1e-12)
    if np.frexp(scale)[0] == 0.5:  # a power of two scales exactly
        assert silhouette_score(x * scale, y) == base


def test_silhouette_duplicates_are_exactly_zero_apart(rng):
    # every class is copies of one point, so a is 0 only if every
    # duplicate pair is exactly 0 apart, and each score is exactly 1
    x = np.repeat(rng.standard_normal((3, 6)) * 1e3, 5, axis=0)
    y = np.repeat([0, 1, 2], 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert silhouette_score(x, y) == naive_silhouette(x, y) == 1.0
        # duplicated rows whose copies may carry other labels
        base = rng.standard_normal((30, 4))
        x = np.concatenate([base, base, base[:10]])
        y = rng.integers(0, 3, size=70)
        assert silhouette_score(x, y) == pytest.approx(naive_silhouette(x, y),
                                                       abs=1e-12)


def test_silhouette_tight_clusters_no_warning(rng):
    x = np.concatenate([
        np.eye(8)[0] + 1e-7 * rng.standard_normal((20, 8)),
        -np.eye(8)[0] + 1e-7 * rng.standard_normal((20, 8)),
    ])
    y = np.repeat([0, 1], 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        score = silhouette_score(x, y)
    assert score == pytest.approx(naive_silhouette(x, y), abs=1e-8)


@pytest.mark.parametrize("budget", [1, 59])
def test_silhouette_one_row_per_block(rng, monkeypatch, budget):
    # a budget below n (distinct rows) leaves one row per block
    x = rng.standard_normal((60, 5))
    y = rng.integers(0, 3, size=60)
    full = silhouette_score(x, y)
    monkeypatch.setattr(experiment, "_SILHOUETTE_BLOCK", budget)
    one_row = silhouette_score(x, y)
    assert one_row == pytest.approx(full, abs=1e-12)
    assert one_row == pytest.approx(naive_silhouette(x, y), abs=1e-10)


@pytest.mark.parametrize("budget", [1, 37, None], ids=["1", "37", "default"])
def test_silhouette_duplicates_across_blocks(rng, monkeypatch, budget):
    # copies of a row sit far apart in the pool and share one distinct
    # row, whose diagonal entry must be exactly 0 in whichever block
    # holds it, with the other distinct rows spread over other blocks
    if budget is not None:
        monkeypatch.setattr(experiment, "_SILHOUETTE_BLOCK", budget)
    x = np.tile(rng.standard_normal((3, 6)) * 1e3, (5, 1))
    y = np.tile([0, 1, 2], 5)
    assert silhouette_score(x, y) == naive_silhouette(x, y) == 1.0
    base = rng.standard_normal((30, 4))
    x = np.concatenate([base, base[::-1], base[:10]])
    y = rng.integers(0, 3, size=70)
    assert silhouette_score(x, y) == pytest.approx(naive_silhouette(x, y),
                                                   abs=1e-10)


def test_silhouette_pool_of_one_point(rng):
    # one distinct row (k = 1), so every distance is exactly 0
    point = rng.standard_normal((1, 5))
    x = np.repeat(point, 2, axis=0)
    y = np.array([0, 1])
    assert silhouette_score(x, y) == naive_silhouette(x, y) == 0.0
    # a = b = 0 scores 0, where the plain ratio would be 0/0
    assert silhouette_score(np.repeat(point, 6, axis=0), np.arange(6) % 2) == 0.0


def test_silhouette_memory_stays_block_sized(rng, peak_bytes):
    # the default budget holds one block of 2^16 distances, not n x n
    x = rng.standard_normal((3000, 32))
    y = rng.integers(0, 5, size=3000)
    assert peak_bytes(lambda: silhouette_score(x, y)) < 8.0 * 2**20


def test_silhouette_peak_is_the_distinct_rows_and_one_block(peak_bytes):
    # no centred or scaled copy of the pool and no sorted copy of its
    # bytes: the gathered distinct rows and one block buffer
    pool, _ = generate_synthetic(SyntheticSpec(seed=0))
    x, y = pool.embeddings, pool.labels
    assert x.shape == (1500, 64)
    assert peak_bytes(lambda: silhouette_score(x, y)) <= 2.5 * x.nbytes


def unique_rows_silhouette(x, y, block):
    """The silhouette as ``silhouette_score`` computes it, by its plain
    expressions: a centred and scaled copy of ``x``, ``np.unique`` of
    its void rows, whole augmented operands [-2 x, |x|^2, 1] and
    [x, 1, |x|^2], and a fresh product per block, clamped at 0."""
    classes, dense = np.unique(y, return_inverse=True)
    counts = np.bincount(dense)
    x = x - x.mean(axis=0)
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    _, first, col = np.unique(x.view(np.dtype((np.void, 8 * x.shape[1]))).ravel(),
                              return_index=True, return_inverse=True)
    distinct = x[first]
    sq = np.einsum("ij,ij->i", distinct, distinct)
    ones = np.ones_like(sq)
    left = np.column_stack([-2.0 * distinct, sq, ones])
    right = np.column_stack([distinct, ones, sq])
    k = first.size
    members = np.zeros((k, classes.size))
    np.add.at(members, (col, dense), 1.0)
    sums = np.zeros_like(members)
    lo = 0
    while lo < k:
        hi = min(k, lo + max(1, block // (k - lo)))
        dist = left[lo:hi] @ right[lo:].T
        np.sqrt(np.maximum(dist, 0.0), out=dist)
        np.fill_diagonal(dist, 0.0)
        sums[lo:hi] += dist @ members[lo:]
        sums[hi:] += dist[:, hi - lo:].T @ members[lo:hi]
        lo = hi
    rows, own = np.arange(x.shape[0]), counts[dense]
    class_sums = sums[col]
    a = np.where(own > 1, class_sums[rows, dense] / np.maximum(own - 1, 1), 0.0)
    means = class_sums / counts
    means[rows, dense] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    s = np.where(denom > 0, (b - a) / np.where(denom > 0, denom, 1.0), 0.0)
    return float(np.where(own > 1, s, 0.0).mean())


@pytest.mark.parametrize("noise", [0.15, 0.25, 0.35, 0.45, 0.55, 0.65])
def test_silhouette_is_bitwise_its_plain_expressions(noise):
    # the acceptance-13 family, as generated and after the float32 round
    # trip of a stored dataset
    for seed in range(2):
        pool, _ = generate_synthetic(SyntheticSpec(noise=noise, seed=seed))
        for x in (pool.embeddings, pool.embeddings.astype(np.float32).astype(np.float64)):
            expected = unique_rows_silhouette(x, pool.labels, experiment._SILHOUETTE_BLOCK)
            assert silhouette_score(x, pool.labels) == expected


@pytest.mark.parametrize("budget", [1, 37, 1 << 16])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
def test_silhouette_is_bitwise_its_plain_expressions_per_block(rng, monkeypatch,
                                                               budget, ties):
    x = rng.standard_normal((90, 5)) * 1e3 + 7.0
    if ties:  # repeated first columns and whole duplicate rows
        x[:, 0] = np.round(x[:, 0], -3)
        x[60:] = x[:30]
    y = rng.integers(0, 3, size=90)
    monkeypatch.setattr(experiment, "_SILHOUETTE_BLOCK", budget)
    assert silhouette_score(x, y) == unique_rows_silhouette(x, y, budget)


@pytest.mark.parametrize("budget", [1, 37, None], ids=["1", "37", "default"])
def test_silhouette_clamps_only_blocks_whose_square_root_fails(rng, monkeypatch, budget):
    # distinct rows 1e-9 apart: their rounded squared distances fall on
    # either side of 0, so some blocks' square roots fail and are clamped
    if budget is not None:
        monkeypatch.setattr(experiment, "_SILHOUETTE_BLOCK", budget)
    base = rng.standard_normal((20, 6))
    x = np.concatenate([base, base + 1e-9 * rng.standard_normal(base.shape)])
    y = rng.integers(0, 3, size=40)
    clamped = []
    real_isnan = np.isnan

    def spy(values, *args, **kwargs):
        clamped.append(values.shape)
        return real_isnan(values, *args, **kwargs)

    monkeypatch.setattr(np, "isnan", spy)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        score = silhouette_score(x, y)
        assert clamped
        # well-apart rows never take the clamp
        clamped.clear()
        silhouette_score(base, y[:20])
        assert not clamped
    assert np.geterr() == before
    assert score == unique_rows_silhouette(x, y, budget or experiment._SILHOUETTE_BLOCK)
    assert score == pytest.approx(naive_silhouette(x, y), abs=1e-7)


@pytest.mark.parametrize("labels", [[0.0, 1.0, 1.0, 0.0], [0.0, 1.0, np.nan, np.nan],
                                    [True, False, True, False]],
                         ids=["float", "nan", "bool"])
def test_silhouette_refuses_non_integer_labels(rng, labels):
    # a float label is no class index, and NaN would make a class of its own
    with pytest.raises(DataError, match="integers"):
        silhouette_score(rng.standard_normal((4, 2)), np.array(labels))


_DISTINCT_ROW_CASES = {
    "distinct": (lambda rng: rng.standard_normal((50, 4)), True),
    "negative": (lambda rng: -np.abs(rng.standard_normal((50, 4))) - 3.0, True),
    "signed-zeros": (lambda rng: np.column_stack(
        [[1.0, -1.0, 0.0, -0.0, 2.0, -2.0], rng.standard_normal((6, 3))]), True),
    "one-column": (lambda rng: rng.standard_normal((50, 1)), True),
    "first-column-ties": (lambda rng: np.column_stack(
        [np.repeat([0.5, -1.0, 2.0], 10), rng.standard_normal((30, 3))]), False),
    "signed-zero-ties": (lambda rng: np.column_stack(
        [[0.0, -0.0] * 5, rng.standard_normal((10, 3))]), False),
    "duplicate-rows": (lambda rng: np.tile(rng.standard_normal((10, 4)), (3, 1)), False),
    "one-column-duplicates": (lambda rng: rng.integers(-3, 3, size=(40, 1)) * 1.0, False),
}


@pytest.mark.parametrize("build,fast", _DISTINCT_ROW_CASES.values(),
                         ids=_DISTINCT_ROW_CASES.keys())
def test_distinct_rows_are_np_uniques_void_rows(rng, monkeypatch, build, fast):
    # the first column's bytes read as >u8 order the rows as np.unique
    # orders void rows; a repeated key falls back to np.unique itself
    x = build(rng)
    mean = x.mean(axis=0)
    exponent = -np.frexp(np.abs(x - mean).max())[1]
    centred = np.ldexp(x - mean, exponent)
    _, first, col = np.unique(centred.view(np.dtype((np.void, 8 * x.shape[1]))).ravel(),
                              return_index=True, return_inverse=True)
    sorts = []
    real_unique = np.unique

    def spy(values, *args, **kwargs):
        sorts.append(values.dtype.kind)
        return real_unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    rows, got = experiment._distinct_rows(x, mean, exponent)
    assert sorts == ([] if fast else ["V"])
    # each distinct row r as [r, 1, r.r]
    assert rows[:, :-2].tobytes() == centred[first].tobytes()
    assert np.all(rows[:, -2] == 1.0)
    sq = np.einsum("ij,ij->i", centred[first], centred[first])
    assert rows[:, -1].tobytes() == sq.tobytes()
    assert np.array_equal(got, col)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_silhouette_scale_is_the_centred_rows_largest_magnitude(rng, monkeypatch, sign):
    # read off the column extremes; skewed data puts it on either side
    x = sign * rng.exponential(size=(200, 3)) ** 3
    seen = []
    real = experiment._distinct_rows

    def spy(x, mean, exponent):
        seen.append(exponent)
        return real(x, mean, exponent)

    monkeypatch.setattr(experiment, "_distinct_rows", spy)
    silhouette_score(x, rng.integers(0, 3, size=200))
    assert seen == [-np.frexp(np.abs(x - x.mean(axis=0)).max())[1]]
    centred = x - x.mean(axis=0)
    assert np.frexp(centred.max())[1] != np.frexp(-centred.min())[1]


def test_silhouette_of_any_layout_is_its_c_order_copys(rng):
    # a Fortran-order pool was a ValueError of the void view
    x = rng.standard_normal((80, 6))
    y = rng.integers(0, 3, size=80)
    expected = silhouette_score(x, y)
    for layout in (np.asfortranarray(x), np.repeat(x, 2, axis=1)[:, ::2],
                   np.repeat(x, 2, axis=0)[::2]):
        assert silhouette_score(layout, y) == expected


@pytest.mark.parametrize("x", [
    [[np.nan, 0.0], [1.0, 0.0], [0.0, 1.0]],
    [[np.inf, 0.0], [1.0, 0.0], [0.0, 1.0]],
    [[-np.inf, 0.0], [1.0, 0.0], [0.0, 1.0]],
    np.zeros((3, 0)),
], ids=["nan", "inf", "-inf", "no-columns"])
def test_silhouette_rejects_bad_embeddings(x):
    with pytest.raises(DataError):
        silhouette_score(x, [0, 1, 1])


def test_silhouette_needs_two_labels(rng):
    with pytest.raises(DataError):
        silhouette_score(rng.standard_normal((5, 2)), np.zeros(5, dtype=int))


# ---------------------------------------------------------------- correlation


def test_correlate_exact_lines():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    assert correlate(x, 2 * x + 1) == pytest.approx(1.0, abs=1e-12)
    assert correlate(x, -x) == pytest.approx(-1.0, abs=1e-12)


def test_correlate_matches_direct_formula(rng):
    x = rng.standard_normal(30)
    y = rng.standard_normal(30)
    num = ((x - x.mean()) * (y - y.mean())).sum()
    den = np.sqrt(((x - x.mean()) ** 2).sum() * ((y - y.mean()) ** 2).sum())
    assert correlate(x, y) == pytest.approx(num / den, abs=1e-12)


def test_correlate_validation(rng):
    with pytest.raises(DataError):
        correlate(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(DataError):
        correlate(np.ones(5), rng.standard_normal(5))


@pytest.mark.parametrize("scale", [1e-9, 1e9, 1e-300, 1e300])
def test_correlate_does_not_depend_on_scale(scale):
    # a standard deviation near 0 or far past 1 is still a spread, and
    # squares that under- or overflow float64 do not reach the coefficient
    x, y = np.array([1.0, 2.0, 3.5, 4.0]), np.array([2.0, 4.0, 7.0, 8.5])
    unscaled = correlate(x, y)
    assert unscaled == pytest.approx(0.998, abs=1e-3)
    assert correlate(scale * x, y) == pytest.approx(unscaled, rel=1e-12)
    assert correlate(x, scale * y) == pytest.approx(unscaled, rel=1e-12)
    assert correlate(scale * x, scale * y) == pytest.approx(unscaled, rel=1e-12)
    # a power of two scales exactly
    assert correlate(2.0 ** 900 * x, 2.0 ** -900 * y) == unscaled
    with pytest.raises(DataError, match="nonzero variance"):
        correlate(np.full(4, scale), y)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_correlate_rejects_non_finite_entries(bad):
    with pytest.raises(DataError, match="finite inputs"):
        correlate(np.array([1.0, bad, 2.0, 3.0]), np.array([2.0, 4.0, 7.0, 8.5]))
    with pytest.raises(DataError, match="finite inputs"):
        correlate(np.array([2.0, 4.0, 7.0, 8.5]), np.array([1.0, 2.0, bad, 3.0]))


# ---------------------------------------------------------------- harness


def _bench_dataset(pool_size=240):
    return synthetic_dataset(small_spec(pool_size=pool_size))


def test_fit_solver_dispatch(rng):
    ds = _bench_dataset()
    pool = ds.pool()
    sup, unl, _ = sample_support(pool, SamplingSpec(shots=2,
                                                    unlabeled_multiplier=4))
    cfg = SolverConfig(tau=ds.tau)
    zs = fit_solver("zeroshot", ds, sup, unl, cfg)
    assert np.array_equal(zs.prototypes, ds.prototypes)
    st = fit_solver("sstext", ds, sup, unl, cfg)
    assert np.array_equal(st.prototypes, fit_sstext(sup, ds.prototypes,
                                                    cfg).prototypes)
    with pytest.raises(ConfigError):
        fit_solver("linear_probe", ds, sup, unl, cfg)


def test_run_benchmark_grid_order_and_count():
    ds = _bench_dataset()
    rows = run_benchmark(ds, solvers=("zeroshot", "sstext"), shot_grid=(1, 2),
                         seeds=3, cfg=SolverConfig(tau=ds.tau),
                         unlabeled_multiplier=0,
                         include_timing=False)
    assert len(rows) == 2 * 2 * 3
    key = [(r.solver, r.shots, r.seed) for r in rows]
    assert key == [(s, k, i) for s in ("zeroshot", "sstext")
                   for k in (1, 2) for i in range(3)]
    assert all(not r.error for r in rows)


def test_run_benchmark_fixed_eval_makes_zeroshot_constant():
    ds = _bench_dataset()
    holdout, _ = generate_synthetic(small_spec(seed=77))
    rows = run_benchmark(ds, solvers=("zeroshot",), shot_grid=(1,), seeds=4,
                         cfg=SolverConfig(tau=ds.tau), unlabeled_multiplier=0,
                         include_timing=False, eval_set=holdout)
    assert len({r.aca for r in rows}) == 1
    resplit = run_benchmark(ds, solvers=("zeroshot",), shot_grid=(1,), seeds=4,
                            cfg=SolverConfig(tau=ds.tau),
                            unlabeled_multiplier=0,
                            include_timing=False)
    assert len({r.aca for r in resplit}) > 1


def test_run_benchmark_tags_failed_cells():
    ds = _bench_dataset(pool_size=30)
    # 8 shots x 3 classes plus the unlabeled draw exceeds a 30-item pool
    rows = run_benchmark(ds, solvers=("sstext", "zeroshot"), shot_grid=(1, 8),
                         seeds=2, cfg=SolverConfig(tau=ds.tau),
                         unlabeled_multiplier=4, include_timing=False)
    ok = [r for r in rows if not r.error]
    failed = [r for r in rows if r.error]
    assert [(r.solver, r.shots) for r in ok] == [("sstext", 1), ("sstext", 1),
                                                 ("zeroshot", 1), ("zeroshot", 1)]
    assert [(r.solver, r.shots) for r in failed] == [("sstext", 8), ("sstext", 8),
                                                     ("zeroshot", 8), ("zeroshot", 8)]
    assert all(r.error.startswith("SamplingError:") for r in failed)
    assert all(np.isnan(r.aca) for r in failed)
    # one failed draw gives every solver the same failed row
    assert failed[0].error == failed[2].error and failed[1].error == failed[3].error
    assert all(r.unlabeled_count == 4 * 3 for r in failed)


def test_run_benchmark_draws_one_permutation_per_seed(monkeypatch, permutations):
    ds = _bench_dataset()
    pool = ds.pool()
    drawn, fitted = [], []
    real = experiment._draws

    def drawing(*args):
        for split in real(*args):
            drawn.append(split)
            yield split

    monkeypatch.setattr(experiment, "_draws", drawing)
    spy(monkeypatch, experiment._fit_splits,
        lambda solver, dataset, labeled, unlabeled, *_: fitted.append((labeled, unlabeled)))
    # 90 shots x 3 classes plus 8 x 3 unlabeled items pass the 240-item pool
    rows = run_benchmark(ds, solvers=("zeroshot", "simpleshot", "sstext", "sstextu"),
                         shot_grid=(1, 2, 4, 90), seeds=[3, 0, 5],
                         cfg=SolverConfig(tau=ds.tau), unlabeled_multiplier=8,
                         include_timing=False)
    # one batch, one permutation per seed, shared by all its shot counts
    assert permutations == [3, 0, 5]
    assert [bool(r.error) for r in rows] == [r.shots == 90 for r in rows]
    assert {r.error for r in rows if r.error} == {
        "SamplingError: pool of 240 cannot supply 270 support + 24 unlabeled items"}
    # every solver fits the same splits, each bitwise its own spec's draw
    assert len(fitted) == 4 and all(f[0] is fitted[0][0] and f[1] is fitted[0][1]
                                    for f in fitted)
    splits = [split for split in drawn if not isinstance(split, SamplingError)]
    unlabeled = fitted[0][1]
    specs = [SamplingSpec(shots=k, unlabeled_multiplier=8, seed=seed)
             for k in (1, 2, 4) for seed in (3, 0, 5)]
    assert len(splits) == len(specs) and unlabeled.shape == (len(specs), 24, 16)
    unit = normalize_rows(pool.embeddings)
    for split, rows_b, spec in zip(splits, unlabeled, specs):
        sup_idx, unl_idx, eval_idx = split_indices(pool.labels, 3, spec)
        assert split.support.embeddings.tobytes() == unit[sup_idx].tobytes()
        assert np.array_equal(split.support.labels, np.eye(3)[pool.labels[sup_idx]])
        assert split.unlabeled.tobytes() == rows_b.tobytes() == unit[unl_idx].tobytes()
        assert split.eval_idx.tobytes() == eval_idx.tobytes()


_BATCH_SETTINGS = {
    "adaptive": (dict(), {}),
    "fixed-lambdas": (dict(lambdas=LambdaPolicy.fixed([1.0, 0.5, 2.0], [2.0, 1.0, 0.0])), {}),
    "oracle": (dict(marginal_source="oracle"), {}),
    "support-raw": (dict(marginal_source="support_raw"), {}),
    "no-balancing": (dict(ot_iters=0), {}),
    "no-unlabeled": (dict(), dict(unlabeled_multiplier=0)),
    "fixed-eval-set": (dict(), dict(eval_set="held-out")),
}


@pytest.mark.parametrize("cfg_kw, run_kw", _BATCH_SETTINGS.values(), ids=_BATCH_SETTINGS.keys())
def test_run_benchmark_rows_equal_cell_by_cell_fits(monkeypatch, cfg_kw, run_kw):
    # tau=0.003 puts score spans on both sides of 700, so the batches
    # mix globally and row-shifted kernels
    ds = _bench_dataset()
    held_out = synthetic_dataset(small_spec(seed=9, pool_size=60)).pool()
    eval_set = held_out if run_kw.get("eval_set") else None
    mult = run_kw.get("unlabeled_multiplier", 8)
    cfg = SolverConfig(tau=0.003, **cfg_kw)
    wide = []

    def spy(s, *args, _real=solvers._solve):
        wide.extend((np.ptp(s, axis=(-2, -1)) > 700).tolist())
        return _real(s, *args)

    monkeypatch.setattr(solvers, "_solve", spy)
    rows = run_benchmark(ds, shot_grid=(1, 4), seeds=[3, 0, 5], cfg=cfg,
                         unlabeled_multiplier=mult, include_timing=False,
                         eval_set=eval_set)
    if mult:
        assert {True, False} <= set(wide)
    pool = ds.pool()
    for row in rows:
        spec = SamplingSpec(shots=row.shots, unlabeled_multiplier=mult, seed=row.seed)
        support, unlabeled, remainder = sample_support(pool, spec)
        hidden = pool.labels[split_indices(pool.labels, pool.class_count, spec)[1]]
        oracle = np.bincount(hidden, minlength=3) / hidden.size if hidden.size else None
        fit = fit_solver(row.solver, ds, support, unlabeled, cfg, oracle)
        report = evaluate_prototypes(fit.prototypes, eval_set or remainder, cfg.tau)
        assert not row.error
        assert (row.aca, row.acc, row.unlabeled_count) == (report.aca, report.acc,
                                                           unlabeled.count)
    assert [(r.solver, r.shots, r.seed) for r in rows] == [
        (solver, k, seed) for solver in ("zeroshot", "simpleshot", "sstext", "sstextu")
        for k in (1, 4) for seed in (3, 0, 5)]


def test_run_benchmark_batches_stay_under_the_value_budget(monkeypatch):
    # a budget of one 1-shot and one 4-shot cell: cells pack in grid
    # order, so the last 1-shot seed shares a batch with the first 4-shot
    # one, and the rows are those of the unbounded batch
    ds = _bench_dataset()
    grid = dict(solvers=("sstext", "sstextu"), shot_grid=(1, 4), seeds=[3, 0, 5],
                cfg=SolverConfig(tau=0.003), unlabeled_multiplier=8, include_timing=False)
    sizes = []

    def spy(labeled, *args, **kwargs):
        sizes.append([int(n) for n in labeled.counts.sum(axis=1)])
        return solvers._adapt(labeled, *args, **kwargs)

    monkeypatch.setattr(experiment, "_adapt", spy)
    unbounded = rows_to_csv(run_benchmark(ds, **grid))
    assert sizes == [[3] * 3 + [12] * 3] * 2
    values = {k: (k + 8) * ds.class_count * (ds.class_count + ds.dim) for k in (1, 4)}
    budget = values[1] + values[4]
    monkeypatch.setattr(experiment, "_BATCH_VALUES", budget)
    sizes.clear()
    assert rows_to_csv(run_benchmark(ds, **grid)) == unbounded
    # N = 3 is one shot per class, N = 12 four
    assert sizes == [[3, 3], [3, 3], [3, 12], [3, 12], [12], [12], [12], [12]]
    assert all(sum(values[n // 3] for n in batch) <= budget for batch in sizes)


def test_run_benchmark_fits_a_sweep_grid_in_one_call_per_solver(monkeypatch):
    # the default family at 4 solvers x shots 1,2,4,8,16 x 5 seeds holds
    # 25 * 755 * 69 values, under the budget: sstext and sstextu fit all
    # 25 cells in one call each. The pool's row norms are taken once, and
    # every draw divides its rows by them: no row is normalized again
    ds = synthetic_dataset(SyntheticSpec())
    calls, norm_passes = [], []

    def fitting(labeled, *args, **kwargs):
        calls.append(len(labeled.raw))
        return solvers._adapt(labeled, *args, **kwargs)

    monkeypatch.setattr(experiment, "_adapt", fitting)
    # every norm pass, normalize_rows too
    spy(monkeypatch, data._row_norms, lambda arr, what: norm_passes.append(arr.shape))
    rows = run_benchmark(ds, shot_grid=(1, 2, 4, 8, 16), seeds=5, include_timing=False)
    assert len(rows) == 100 and not any(r.error for r in rows)
    assert calls == [25, 25]
    assert norm_passes == [ds.embeddings.shape]


@pytest.mark.parametrize("spec", [dict(dim=8),
                                  dict(class_count=4, marginal=(0.4, 0.3, 0.2, 0.1))],
                         ids=["dim", "class-count"])
def test_run_benchmark_rejects_an_eval_set_that_does_not_fit(monkeypatch, spec):
    ds = _bench_dataset()
    other = synthetic_dataset(small_spec(pool_size=60, **spec)).pool()
    monkeypatch.setattr(experiment, "_fit_splits", None)  # no fit may run
    with pytest.raises(DataError) as err:
        run_benchmark(ds, shot_grid=(1,), seeds=2, eval_set=other)
    assert str(err.value) == (f"eval dataset ({other.class_count} classes, dim {other.dim}) "
                              f"does not fit (3 classes, dim 16)")


@pytest.mark.parametrize("text, unlabeled, which", [(np.ones(4), np.ones(3), "text"),
                                                    (np.ones(3), np.ones(2), "unlabeled")],
                         ids=["text", "unlabeled"])
def test_run_benchmark_rejects_fixed_weights_of_another_class_count(monkeypatch, text,
                                                                    unlabeled, which):
    # every sstext and sstextu fit would fail on them: one config error,
    # raised before any cell, with LambdaPolicy's own message
    ds = _bench_dataset()
    monkeypatch.setattr(experiment, "_fit_splits", None)  # no fit may run
    cfg = SolverConfig(tau=ds.tau, lambdas=LambdaPolicy.fixed(text, unlabeled))
    with pytest.raises(ConfigError) as err:
        run_benchmark(ds, shot_grid=(1, 2), seeds=3, cfg=cfg)
    assert str(err.value) == f"fixed {which} weights do not match the class count"


def test_run_benchmark_failing_batch_element_fails_only_its_cell(monkeypatch):
    ds = _bench_dataset()
    cfg = SolverConfig(tau=ds.tau)
    spec = SamplingSpec(shots=1, unlabeled_multiplier=8, seed=1)
    support, unlabeled, _ = sample_support(ds.pool(), spec)
    grid = dict(solvers=("sstext", "sstextu"), shot_grid=(1, 2), seeds=3, cfg=cfg,
                unlabeled_multiplier=8, include_timing=False)
    clean = run_benchmark(ds, **grid)
    real = solvers._scores

    def poisoned(prototypes, embeddings, tau):
        # seed 1's unlabeled set overflows its scores, in a batch or alone
        scores = real(prototypes, embeddings, tau)
        for element, emb in zip(scores, embeddings):
            if np.array_equal(emb, unlabeled.embeddings):
                element[0, 0] = np.inf
        return scores

    monkeypatch.setattr(solvers, "_scores", poisoned)
    with pytest.raises(SolverError) as alone:
        fit_solver("sstextu", ds, support, unlabeled, cfg)
    rows = run_benchmark(ds, **grid)
    failed = [(r.solver, r.shots, r.seed, r.error) for r in rows if r.error]
    assert failed == [("sstextu", 1, 1, f"SolverError: {alone.value}")]
    assert all((r.aca, r.acc) == (c.aca, c.acc) for r, c in zip(rows, clean) if not r.error)


def _spy_scoring(monkeypatch):
    """Record each ``_labels`` call (prototype shape, pool rows and tau),
    each ``_metrics`` call's eval size per cell and each scoring chunk's
    shape."""
    products, counted, chunks = [], [], []
    real_labels, real_metrics = experiment._labels, experiment._metrics
    real_top = experiment._top_class

    def labelling(prototypes, embeddings, tau):
        products.append((prototypes.shape, embeddings.shape[0], tau))
        return real_labels(prototypes, embeddings, tau)

    def metrics(predictions, truth, cells):
        counted.append(truth.masks[cells].sum(1).tolist())
        return real_metrics(predictions, truth, cells)

    def top(scores):
        chunks.append(scores.shape)
        return real_top(scores)

    monkeypatch.setattr(experiment, "_labels", labelling)
    monkeypatch.setattr(experiment, "_metrics", metrics)
    monkeypatch.setattr(experiment, "_top_class", top)
    return products, counted, chunks


def test_run_benchmark_scores_each_solvers_batch_in_one_product(monkeypatch):
    ds = _bench_dataset()
    products, counted, chunks = _spy_scoring(monkeypatch)
    # 80 shots x 3 classes cannot be drawn from 240 items: those cells
    # are not scored
    rows = run_benchmark(ds, shot_grid=(1, 2, 80), seeds=[4, 1, 7],
                         cfg=SolverConfig(tau=ds.tau), unlabeled_multiplier=8,
                         include_timing=False)
    assert sum(1 for r in rows if not r.error) == 4 * 2 * 3
    # one batch: each solver's six cells against the whole 240-row pool,
    # in one chunk, each counted on its own remainder; zeroshot's six cells
    # share one prototype array, which is one (1, C, D) product
    remainder = [240 - (k + 8) * 3 for k in (1, 2) for _ in range(3)]
    assert products == [((1, 3, 16), 240, ds.tau)] + [((6, 3, 16), 240, ds.tau)] * 3
    assert counted == [remainder] * 4
    assert chunks == [(1, 3, 240)] + [(6, 3, 240)] * 3


@pytest.mark.parametrize("budget, cells", [
    (2 * 3 * 240 + 1, [[2, 2, 2]]), (4 * 3 * 240, [[4, 2]]), (100, [[1]] * 6)],
    ids=["two-cells", "four-cells", "under-one-cell"])
def test_run_benchmark_scoring_chunks_stay_under_the_value_budget(monkeypatch, budget, cells):
    # without unlabeled rows a cell fits in (k * 3) * 19 values but scores
    # 3 * 240: one fit batch of all six cells is scored in chunks, and a
    # cell over the budget fits and scores alone; zeroshot's one shared
    # matrix is one chunk in each batch
    ds = _bench_dataset()
    grid = dict(shot_grid=(1, 2), seeds=3, cfg=SolverConfig(tau=ds.tau),
                unlabeled_multiplier=0, include_timing=False)
    unbounded = rows_to_csv(run_benchmark(ds, **grid))
    products, _, chunks = _spy_scoring(monkeypatch)
    monkeypatch.setattr(experiment, "_BATCH_VALUES", budget)
    assert rows_to_csv(run_benchmark(ds, **grid)) == unbounded
    assert [shape[0] for shape, *_ in products] == [
        n for batch in cells for n in [1] + [sum(batch)] * 3]
    assert chunks == [(n, 3, 240) for batch in cells for n in [1] + batch * 3]
    assert all(np.prod(shape) <= budget for shape in chunks if shape[0] > 1)


@pytest.mark.parametrize("fixed_eval", [False, True], ids=["resplit", "fixed-eval-set"])
def test_run_benchmark_scores_zeroshots_shared_prototypes_once(monkeypatch, fixed_eval):
    # every zeroshot cell holds the same text-prototype array: it is one
    # (1, C, D) product, and each cell is still counted on its own split
    ds = _bench_dataset()
    eval_set = synthetic_dataset(small_spec(seed=9, pool_size=60)).pool() if fixed_eval else None
    products, counted, _ = _spy_scoring(monkeypatch)
    rows = run_benchmark(ds, solvers=("zeroshot",), shot_grid=(1, 2), seeds=3,
                         cfg=SolverConfig(tau=ds.tau), unlabeled_multiplier=8,
                         include_timing=False, eval_set=eval_set)
    scored_rows = 60 if fixed_eval else 240
    assert products == [((1, 3, 16), scored_rows, ds.tau)]
    assert counted == [[scored_rows] * 6 if fixed_eval
                       else [240 - (k + 8) * 3 for k in (1, 2) for _ in range(3)]]
    pool = ds.pool()
    for row in rows:
        spec = SamplingSpec(shots=row.shots, unlabeled_multiplier=8, seed=row.seed)
        report = evaluate_prototypes(ds.prototypes, eval_set or sample_support(pool, spec)[2],
                                     ds.tau)
        assert not row.error and (row.aca, row.acc) == (report.aca, report.acc)


_DEFAULT_FAMILY_TAUS = {"dataset-tau": DEFAULT_SYNTHETIC_TAU, "0.003": 0.003, "0.1": 0.1}


def _default_family_grid(monkeypatch, tau, eval_set=None):
    """The default family's rows over shots 1..16 and seeds 0..4 (one
    batch) at ``tau``, and each solver's fits in grid order."""
    ds = synthetic_dataset(SyntheticSpec())
    fits = {}
    real = experiment._fit_splits

    def fitting(name, *args):
        fits.setdefault(name, []).extend(real(name, *args))
        return fits[name]

    monkeypatch.setattr(experiment, "_fit_splits", fitting)
    rows = run_benchmark(ds, seeds=5, cfg=SolverConfig(tau=tau), include_timing=False,
                         eval_set=eval_set)
    return ds, rows, fits


@pytest.mark.parametrize("fixed_eval", [False, True], ids=["resplit", "fixed-eval-set"])
@pytest.mark.parametrize("tau", _DEFAULT_FAMILY_TAUS.values(), ids=_DEFAULT_FAMILY_TAUS.keys())
def test_run_benchmark_rows_are_their_cells_own_evaluation(monkeypatch, tau, fixed_eval):
    # the flat product moves some scores by a few ulps against a cell's
    # own product, but no label: each row is its fit's evaluate_prototypes
    eval_set = synthetic_dataset(SyntheticSpec(seed=9, pool_size=400)).pool() if fixed_eval else None
    ds, rows, fits = _default_family_grid(monkeypatch, tau, eval_set)
    pool = ds.pool()
    for solver in SOLVER_NAMES:
        own = [row for row in rows if row.solver == solver]
        assert len(own) == len(fits[solver]) == 25
        for row, fit in zip(own, fits[solver]):
            remainder = sample_support(pool, SamplingSpec(shots=row.shots, seed=row.seed))[2]
            report = evaluate_prototypes(fit.prototypes, eval_set or remainder, tau)
            assert not row.error and (row.aca, row.acc) == (report.aca, report.acc)


@pytest.mark.parametrize("tau", _DEFAULT_FAMILY_TAUS.values(), ids=_DEFAULT_FAMILY_TAUS.keys())
def test_flat_scoring_can_flip_only_near_ties(monkeypatch, tau):
    # a label can change with the product's rounding only where the top
    # two scores lie within a few ulps: count the points whose gap is
    # under 1e-12 of the top score. The default family has none, so its
    # labels are those of each cell's own product. (Simpleshot's zero rows
    # for absent classes tie at exactly 0 in any product; they are not
    # counted.)
    ds, _, fits = _default_family_grid(monkeypatch, tau)
    near = 0
    for cell_fits in fits.values():
        prototypes = np.stack([fit.prototypes for fit in cell_fits])
        flat, bad = experiment._labels(prototypes, ds.embeddings, tau)
        assert not bad.any()
        for w, labels in zip(prototypes, flat):
            scores = similarity_matrix(w, ds.embeddings, tau)
            second, top = np.sort(scores, axis=0)[-2:]
            close = top - second < 1e-12 * np.abs(top)
            near += int(close.sum())
            assert np.array_equal(labels[~close], scores.argmax(axis=0)[~close])
    assert near == 0
    # the count sees a tie: two equal prototypes tie every point
    w = np.stack([ds.prototypes[0], ds.prototypes[0], ds.prototypes[1]])
    second, top = np.sort(similarity_matrix(w, ds.embeddings, tau), axis=0)[-2:]
    assert np.count_nonzero(top - second < 1e-12 * np.abs(top)) > 0


def test_run_benchmark_failed_fit_with_timing_has_zero_runtime(monkeypatch):
    # timing on: a failed cell's runtime is 0, as without timing, and the
    # cells whose fits ran keep their timed share
    ds = _bench_dataset()
    real = experiment._adapt

    def failing(labeled, *args, **kwargs):
        return [SolverError("two-shot fits fail") if n == 6 else fit
                for n, fit in zip(labeled.counts.sum(axis=1), real(labeled, *args, **kwargs))]

    monkeypatch.setattr(experiment, "_adapt", failing)
    rows = run_benchmark(ds, solvers=("zeroshot", "sstext"), shot_grid=(1, 2), seeds=2,
                         cfg=SolverConfig(tau=ds.tau), unlabeled_multiplier=0,
                         include_timing=True)
    failed = [(r.solver, r.shots, r.runtime_ms, r.error) for r in rows if r.error]
    assert failed == [("sstext", 2, 0.0, "SolverError: two-shot fits fail")] * 2
    assert all(r.runtime_ms > 0 for r in rows if r.solver == "sstext" and r.shots == 1)


def test_run_benchmark_cells_share_their_solvers_timed_fit_call(monkeypatch):
    # timing on: the harness times each solver's one fit call on a batch,
    # here at least 12 ms for sstext, and every cell of the batch, at
    # either shot count, reads that time over its 6 cells; zeroshot's 0
    ds = _bench_dataset()
    batches = []
    real_batch, real_fit = experiment._run_batch, experiment._fit_splits

    def batch(*args):
        batches.append(len(args[5]))
        return real_batch(*args)

    def fit(name, *args):
        if name == "sstext":
            time.sleep(0.012)
        return real_fit(name, *args)

    monkeypatch.setattr(experiment, "_run_batch", batch)
    monkeypatch.setattr(experiment, "_fit_splits", fit)
    rows = run_benchmark(ds, shot_grid=(1, 2), seeds=3, cfg=SolverConfig(tau=ds.tau),
                         unlabeled_multiplier=8, include_timing=True)
    assert batches == [6] and not any(r.error for r in rows)
    shares = {solver: {r.runtime_ms for r in rows if r.solver == solver}
              for solver in SOLVER_NAMES}
    assert shares["zeroshot"] == {0.0}
    for solver in ("simpleshot", "sstext", "sstextu"):
        (share,) = shares[solver]
        assert share > 0, solver
    assert min(shares["sstext"]) >= 12.0 / 6


_FAILING_CONFIGS = {
    # every sstext and sstextu objective overflows at round 1
    "tiny-tau": (SolverConfig(tau=1e-300), 12),
    # scores overflow: sstextu's transport step, sstext's objective and
    # every scoring fail
    "overflowing-scores": (SolverConfig(tau=1e-310), 24),
    # only the 4 sstextu supports with an absent class floor a mass
    # below the smallest normal float; their batch holds 2 that do not
    "subnormal-floor": (SolverConfig(tau=0.025, marginal_ratio=1e-310), 4),
}


@pytest.mark.parametrize("cfg, failures", _FAILING_CONFIGS.values(),
                         ids=_FAILING_CONFIGS.keys())
def test_run_benchmark_fails_each_cell_with_its_own_error(monkeypatch, cfg, failures):
    # one fit call per solver and batch, whichever elements fail, and
    # each row is its own cell's fit and evaluation: the error string of
    # the first that raises, or its metrics
    ds = _bench_dataset()
    calls = []
    spy(monkeypatch, solvers._adapt, lambda labeled, *_, **__: calls.append(len(labeled.raw)))
    rows = run_benchmark(ds, shot_grid=(1, 2), seeds=3, cfg=cfg, unlabeled_multiplier=8,
                         include_timing=False)
    assert calls == [6, 6]
    pool = ds.pool()
    failed = 0
    for row in rows:
        spec = SamplingSpec(shots=row.shots, unlabeled_multiplier=8, seed=row.seed)
        support, unlabeled, remainder = sample_support(pool, spec)
        hidden = pool.labels[split_indices(pool.labels, pool.class_count, spec)[1]]
        try:
            fit = fit_solver(row.solver, ds, support, unlabeled, cfg,
                             np.bincount(hidden, minlength=3) / hidden.size)
            report = evaluate_prototypes(fit.prototypes, remainder, cfg.tau)
        except SemishotError as exc:
            assert row.error == f"{type(exc).__name__}: {exc}"
            failed += 1
        else:
            assert not row.error and (row.aca, row.acc) == (report.aca, report.acc)
    assert failed == failures


@pytest.mark.parametrize("fixed_eval", [False, True], ids=["resplit", "fixed-eval-set"])
@pytest.mark.parametrize("bad", [(np.nan, 0.5), (np.inf, 0.5), (np.inf, -np.inf)],
                         ids=["nan", "inf", "inf-minus-inf"])
def test_run_benchmark_non_finite_prototypes_fail_only_their_solver(monkeypatch, fixed_eval,
                                                                    bad):
    # +inf and -inf in one row make inf - inf in the product: the invalid
    # value warning, an error under this suite's filters, stays in the cell
    ds = _bench_dataset()
    eval_set = synthetic_dataset(small_spec(seed=9, pool_size=60)).pool() if fixed_eval else None
    cfg = SolverConfig(tau=ds.tau)
    grid = dict(shot_grid=(1, 2), seeds=3, cfg=cfg, unlabeled_multiplier=8,
                include_timing=False, eval_set=eval_set)
    clean = run_benchmark(ds, **grid)
    real = experiment._simpleshot

    def poisoned(labeled):
        fits = real(labeled)
        for fit in fits:
            fit.prototypes[1, :2] = bad
        return fits

    monkeypatch.setattr(experiment, "_simpleshot", poisoned)
    rows = run_benchmark(ds, **grid)
    one_bad = np.ones((3, 16))
    one_bad[1, 0] = np.inf
    with pytest.raises(DataError) as parent_rule:
        similarity_matrix(one_bad, ds.embeddings, cfg.tau)
    pool = ds.pool()
    for row, before in zip(rows, clean):
        if row.solver == "simpleshot":
            assert row.error == f"DataError: {parent_rule.value}"
            assert row.error == "DataError: similarity matrix contains non-finite entries"
            continue
        assert not row.error and (row.aca, row.acc) == (before.aca, before.acc)
        spec = SamplingSpec(shots=row.shots, unlabeled_multiplier=8, seed=row.seed)
        support, unlabeled, remainder = sample_support(pool, spec)
        fit = fit_solver(row.solver, ds, support, unlabeled, cfg)
        report = evaluate_prototypes(fit.prototypes, eval_set or remainder, cfg.tau)
        assert (row.aca, row.acc) == (report.aca, report.acc)


def test_run_benchmark_checks_no_array_per_cell(monkeypatch, array_checks):
    # the harness trusts what the draw, the fits and the pool hand it:
    # a run of one batch makes as many array checks at 2 seeds as at 6,
    # and the oracle marginal source adds none per cell either
    ds = _bench_dataset()
    batches = []
    real = experiment._run_batch

    def batch(*args):
        batches.append(len(args[5]))
        return real(*args)

    monkeypatch.setattr(experiment, "_run_batch", batch)
    counts = []
    for seeds, source in ((2, "support_estimate"), (6, "support_estimate"), (6, "oracle")):
        array_checks.clear()
        rows = run_benchmark(ds, shot_grid=(1, 2), seeds=seeds,
                             cfg=SolverConfig(tau=ds.tau, marginal_source=source),
                             unlabeled_multiplier=8, include_timing=False)
        assert not any(r.error for r in rows)
        counts.append(len(array_checks))
    assert batches == [4, 12, 12]
    assert counts[0] == counts[1] == counts[2]


@pytest.mark.parametrize("seeds", [2, 6])
def test_run_benchmark_builds_each_batchs_labeled_sums_once(labeled_sums, seeds):
    # simpleshot, sstext and sstextu read one set of labeled class sums
    # per batch, built once over all of its supports, at any seed count
    # and however many solvers read them; zeroshot alone builds none
    ds = _bench_dataset()
    for solvers, built in ((("zeroshot",), []), (("simpleshot",), [2 * seeds]),
                           (("zeroshot", "sstextu"), [2 * seeds]), (SOLVER_NAMES, [2 * seeds])):
        labeled_sums.clear()
        rows = run_benchmark(ds, solvers=solvers, shot_grid=(1, 2), seeds=seeds,
                             cfg=SolverConfig(tau=ds.tau), unlabeled_multiplier=8,
                             include_timing=False)
        assert not any(r.error for r in rows)
        assert labeled_sums == built, solvers


def test_run_benchmark_empty_eval_split_fails_every_cell():
    ds = _bench_dataset()
    # (8 + 72) x 3 classes takes the whole 240-item pool
    rows = run_benchmark(ds, shot_grid=(8,), seeds=2, cfg=SolverConfig(tau=ds.tau),
                         unlabeled_multiplier=72, include_timing=False)
    assert len(rows) == 4 * 2
    assert all(r.error == "DataError: eval split is empty" for r in rows)
    assert all(np.isnan(r.aca) and np.isnan(r.acc) for r in rows)


@pytest.mark.parametrize("dataset_tau", [DEFAULT_SYNTHETIC_TAU, None], ids=["own-tau", "no-tau"])
def test_run_benchmark_default_cfg_uses_dataset_tau(monkeypatch, dataset_tau):
    ds = _bench_dataset()
    ds = Dataset.create(embeddings=ds.embeddings, labels=ds.labels,
                        prototypes=ds.prototypes, tau=dataset_tau)
    fit_taus = []
    real_fit = experiment._fit_splits

    def fitting(*args):
        fit_taus.append(args[4].tau)  # (name, dataset, labeled, unlabeled, cfg, oracles)
        return real_fit(*args)

    monkeypatch.setattr(experiment, "_fit_splits", fitting)
    products, _, chunks = _spy_scoring(monkeypatch)
    run_benchmark(ds, solvers=("sstext",), shot_grid=(1, 2), seeds=2,
                  unlabeled_multiplier=0, include_timing=False)
    expected = SolverConfig().tau if dataset_tau is None else dataset_tau
    # one batch fit of both shot counts' seeds, then one scoring product
    # of all four cells
    assert fit_taus == [expected]
    assert [tau for _, _, tau in products] == [expected]
    assert chunks == [(4, 3, 240)]


@pytest.mark.parametrize("grid", [dict(solvers=()), dict(solvers=("bogus",)),
                                  dict(shot_grid=()),
                                  # a repeat would write its cells twice
                                  dict(solvers=("zeroshot", "zeroshot")),
                                  dict(shot_grid=(1, 1)), dict(seeds=[0, 0])],
                         ids=["no-solvers", "unknown-solver", "no-shots",
                              "repeated-solver", "repeated-shots", "repeated-seed"])
def test_run_benchmark_rejects_bad_grid(monkeypatch, grid):
    ds = _bench_dataset()
    monkeypatch.setattr(experiment, "_run_cell", None)  # no cell may run
    with pytest.raises(ConfigError):
        run_benchmark(ds, cfg=SolverConfig(tau=ds.tau), **{"seeds": 2, **grid})


@pytest.mark.parametrize("seeds", [3, itertools.count(), range(10 ** 12)],
                         ids=["count", "endless-iterable", "huge-range"])
def test_run_benchmark_refuses_a_grid_past_the_row_ceiling(monkeypatch, seeds):
    # 4 solvers x 2 shot counts under a ceiling of 16 rows take 2 seeds at
    # most; more are refused before they are listed, however many there are
    ds = _bench_dataset()
    run_batch = experiment._run_batch
    monkeypatch.setattr(experiment, "_MAX_ROWS", 16)
    monkeypatch.setattr(experiment, "_run_batch", None)  # no batch may run
    with pytest.raises(ConfigError) as err:
        run_benchmark(ds, shot_grid=(1, 2), seeds=seeds, cfg=SolverConfig(tau=ds.tau))
    assert str(err.value) == "benchmark grid must be <= 16 rows: at most 2 seeds for this grid"
    monkeypatch.setattr(experiment, "_run_batch", run_batch)
    assert len(run_benchmark(ds, shot_grid=(1, 2), seeds=2, cfg=SolverConfig(tau=ds.tau),
                             unlabeled_multiplier=8, include_timing=False)) == 16


def test_rows_to_csv_format():
    ds = _bench_dataset()
    rows = run_benchmark(ds, solvers=("zeroshot",), shot_grid=(1,), seeds=1,
                         cfg=SolverConfig(tau=ds.tau), unlabeled_multiplier=0,
                         include_timing=False)
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "zeroshot"
    assert fields[5] == f"{rows[0].aca:.6f}"
    assert fields[7] == "0.000"
    assert text.endswith("\n")


def test_aggregate_rows_mean_and_std():
    ds = _bench_dataset()
    rows = run_benchmark(ds, solvers=("sstext",), shot_grid=(2,), seeds=5,
                         cfg=SolverConfig(tau=ds.tau), unlabeled_multiplier=0,
                         include_timing=False)
    agg = aggregate_rows(rows)
    assert len(agg) == 1
    acas = np.array([r.aca for r in rows])
    assert agg[0]["aca_mean"] == pytest.approx(acas.mean(), abs=1e-12)
    assert agg[0]["aca_std"] == pytest.approx(acas.std(), abs=1e-12)
    assert agg[0]["cells"] == 5 and agg[0]["failed"] == 0


def test_aggregate_rows_with_failed_cells_is_each_groups_own_mean_and_std(rng):
    # ragged clean counts (5, 3, 3, 1 and none): groups of one count are
    # one 2-D pass, each bitwise its own 1-D mean and std; a group
    # without a clean row gives None
    rows, clean = [], {}
    for (solver, shots), failed in {("sstext", 1): 0, ("sstext", 2): 2, ("sstextu", 1): 5,
                                    ("sstextu", 2): 2, ("zeroshot", 1): 4}.items():
        for seed in range(5):
            aca, acc = rng.random(2)
            error = "SolverError: x" if seed < failed else ""
            rows.append(BenchmarkRow(solver, "d", shots, 8, seed, aca, acc, 0.0, error))
            if not error:
                clean.setdefault((solver, shots), []).append((aca, acc))
    out = aggregate_rows(rows)
    assert [(a["solver"], a["K"], a["cells"], a["failed"]) for a in out] == [
        ("sstext", 1, 5, 0), ("sstext", 2, 5, 2), ("sstextu", 1, 5, 5),
        ("sstextu", 2, 5, 2), ("zeroshot", 1, 5, 4)]
    for a in out:
        kept = np.array(clean.get((a["solver"], a["K"]), [])).reshape(-1, 2)
        if not kept.size:
            assert [a[k] for k in ("aca_mean", "aca_std", "acc_mean", "acc_std")] == [None] * 4
            continue
        aca, acc = kept[:, 0].copy(), kept[:, 1].copy()
        assert (a["aca_mean"], a["aca_std"], a["acc_mean"], a["acc_std"]) == (
            float(aca.mean()), float(aca.std()), float(acc.mean()), float(acc.std()))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 16, 50, 127, 200])
def test_last_axis_mean_and_std_are_each_rows_own(rng, n):
    # the rule behind the passes of _metrics over (B, C) recalls and of
    # aggregate_rows over (groups, 2, n) accuracies
    values = rng.random((150, 2, n)) * rng.choice([1e-3, 1.0, 1e3], size=(150, 2, 1))
    means, stds = values.mean(axis=-1), values.std(axis=-1)
    for row, mean, std in zip(values.reshape(-1, n), means.ravel().tolist(),
                              stds.ravel().tolist()):
        assert (float(row.mean()), float(row.std())) == (mean, std)
    assert values[:, 0].mean(axis=-1).tolist() == means[:, 0].tolist()


def test_metrics_full_rows_are_each_cells_own_1d_mean(rng):
    # cells with every class present take the 2-D row mean; cell 1 masks
    # away every row of class 2 and takes its 1-D mean of present classes
    c, p = 6, 400
    truth = np.arange(p) % c
    predictions = np.where(rng.random((5, p)) < 0.6, truth, rng.integers(0, c, (5, p)))
    masks = rng.random((5, p)) < 0.7
    masks[1, truth == 2] = False
    reports = experiment._metrics(predictions[[0, 1, 3, 4]], experiment._truth(truth, c, masks),
                                  [0, 1, 3, 4])
    assert np.isnan(reports[1].per_class_recall[2])
    for cell, report in zip([0, 1, 3, 4], reports):
        mask = masks[cell]
        recall = np.full(c, np.nan)
        for k in range(c):
            rows = mask & (truth == k)
            if rows.any():
                recall[k] = np.count_nonzero(predictions[cell][rows] == k) / np.count_nonzero(rows)
        assert report.per_class_recall.tobytes() == recall.tobytes()
        assert report.aca == float(recall[~np.isnan(recall)].mean())
        assert report.acc == np.count_nonzero((predictions[cell] == truth) & mask) / mask.sum()


def test_rows_to_json_shape():
    ds = _bench_dataset()
    rows = run_benchmark(ds, solvers=("zeroshot",), shot_grid=(1,), seeds=2,
                         cfg=SolverConfig(tau=ds.tau), unlabeled_multiplier=0,
                         include_timing=False)
    doc = rows_to_json(rows, {"tau": ds.tau})
    assert doc["config"] == {"tau": ds.tau}
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["aca"] == rows[0].aca
    assert doc["aggregates"][0]["solver"] == "zeroshot"
