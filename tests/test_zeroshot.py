import mpmath
import numpy as np
import pytest

from semishot import (
    DEFAULT_TAU,
    ConfigError,
    DataError,
    ensemble_text_prototypes,
    predict_labels,
    predict_probs,
    similarity_matrix,
)

from conftest import unit_rows


# ---------------------------------------------------------------- ensembling


def test_ensemble_single_template_is_identity(rng):
    templates = unit_rows(rng, 3, 5).reshape(3, 1, 5)
    out = ensemble_text_prototypes(templates)
    assert np.allclose(out, templates[:, 0, :], atol=1e-12)


def test_ensemble_mean_then_renormalize(rng):
    templates = unit_rows(rng, 4, 7).reshape(2, 2, 7)
    out = ensemble_text_prototypes(templates)
    for c in range(2):
        mean = templates[c].mean(axis=0)
        expected = mean / np.linalg.norm(mean)
        assert np.allclose(out[c], expected, atol=1e-12)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def test_ensemble_rejects_antipodal_templates():
    v = np.array([1.0, 0.0, 0.0])
    templates = np.stack([np.stack([v, -v])])  # mean is exactly zero
    with pytest.raises(DataError):
        ensemble_text_prototypes(templates)


def test_ensemble_rejects_empty_and_nonfinite(rng):
    with pytest.raises(DataError):
        ensemble_text_prototypes(np.zeros((2, 0, 4)))
    bad = unit_rows(rng, 2, 4).reshape(2, 1, 4).copy()
    bad[0, 0, 0] = np.inf
    with pytest.raises(DataError):
        ensemble_text_prototypes(bad)


@pytest.mark.parametrize("templates, expected", [
    (np.full((2, 2, 3), 1e308), np.full((2, 3), 3.0 ** -0.5)),
    ([[[1e308, 1e308, 0.0]], [[0.0, 1e308, 1e308]]],
     [[2.0 ** -0.5, 2.0 ** -0.5, 0.0], [0.0, 2.0 ** -0.5, 2.0 ** -0.5]])],
    ids=["mean-overflows", "norm-overflows"])
def test_ensemble_of_huge_templates_does_not_overflow(templates, expected):
    np.testing.assert_allclose(ensemble_text_prototypes(templates), expected, rtol=1e-15)


def test_ensemble_near_zero_test_reads_the_unscaled_norm():
    # scaled to [0.5, 1) these would be far from zero; unscaled they are not
    with pytest.raises(DataError, match="near"):
        ensemble_text_prototypes(np.full((1, 2, 3), 1e-10))
    assert ensemble_text_prototypes(np.full((1, 2, 3), 1e-8)).shape == (1, 3)


def test_ensemble_requires_3d(rng):
    with pytest.raises(DataError):
        ensemble_text_prototypes(unit_rows(rng, 3, 4))


# ---------------------------------------------------------------- probabilities


def test_predict_probs_two_orthogonal_classes():
    # v equals the first prototype, tau=1: logits are (1, 0)
    w = np.eye(2)
    v = np.array([[1.0, 0.0]])
    probs = predict_probs(v, w, tau=1.0)
    e = np.e
    assert np.allclose(probs, [[e / (e + 1.0), 1.0 / (e + 1.0)]], atol=1e-12)


def test_predict_probs_identical_prototypes_uniform(rng):
    w = np.tile(unit_rows(rng, 1, 6), (4, 1))
    probs = predict_probs(unit_rows(rng, 3, 6), w, tau=0.01)
    assert np.allclose(probs, 0.25, atol=1e-12)


def test_predict_probs_rows_sum_to_one(rng):
    probs = predict_probs(unit_rows(rng, 30, 8), unit_rows(rng, 5, 8),
                          tau=DEFAULT_TAU)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert (probs > 0.0).all()


def test_predict_probs_matches_high_precision(rng):
    # default tau drives logits to +-100 scale; compare against 128-bit
    v = unit_rows(rng, 5, 16)
    w = unit_rows(rng, 6, 16)
    probs = predict_probs(v, w, tau=DEFAULT_TAU)
    with mpmath.workdps(40):
        for i in range(5):
            logits = [mpmath.mpf(float(v[i] @ w[c])) / mpmath.mpf("0.01")
                      for c in range(6)]
            z = sum(mpmath.e ** l for l in logits)
            ref = [float(mpmath.e ** l / z) for l in logits]
            assert np.allclose(probs[i], ref, atol=1e-9)


def test_predict_probs_shift_invariance():
    # adding a constant to every logit must not move the softmax; realize
    # the shift as w' = w + alpha*tau*1 with embeddings from the identity
    # basis so each dot product gains exactly alpha*tau
    rng = np.random.default_rng(7)
    d = 6
    v = np.eye(d)
    w = unit_rows(rng, 3, d)
    tau = 0.5
    shifted = w + 2.5 * tau * np.ones(d)
    assert np.allclose(predict_probs(v, w, tau=tau),
                       predict_probs(v, shifted, tau=tau), atol=1e-10)


def test_predict_probs_rejects_nonfinite(rng):
    v = unit_rows(rng, 2, 3).copy()
    v[0, 0] = np.nan
    with pytest.raises(DataError):
        predict_probs(v, unit_rows(rng, 2, 3), tau=1.0)


def test_overflowing_scores_are_a_data_error_without_warnings():
    # 1/1e-320 overflows; the suite turns any RuntimeWarning into an error
    w, v = np.eye(2, 3), np.eye(3)
    with pytest.raises(DataError, match="non-finite"):
        similarity_matrix(w, v, 1e-320)
    with pytest.raises(DataError, match="non-finite"):
        predict_probs(v, w, 1e-320)


def test_tau_validation(rng):
    v = unit_rows(rng, 2, 3)
    w = unit_rows(rng, 2, 3)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError):
            predict_probs(v, w, tau=bad)


# ---------------------------------------------------------------- labels


def test_predict_labels_argmax():
    probs = np.array([[0.2, 0.5, 0.3]])
    assert predict_labels(probs).tolist() == [1]


def test_predict_labels_tie_takes_lowest():
    assert predict_labels(np.array([[0.5, 0.5]])).tolist() == [0]


def test_predict_labels_dtype(rng):
    labels = predict_labels(predict_probs(unit_rows(rng, 4, 5),
                                          unit_rows(rng, 3, 5), tau=1.0))
    assert labels.dtype == np.int64


def test_argmax_invariant_to_temperature(rng):
    v = unit_rows(rng, 40, 10)
    w = unit_rows(rng, 6, 10)
    picks = [predict_labels(predict_probs(v, w, tau=t))
             for t in (0.01, 1.0, 100.0)]
    assert np.array_equal(picks[0], picks[1])
    assert np.array_equal(picks[1], picks[2])


def test_lower_tau_sharpens(rng):
    # cooling the softmax raises the winner's probability
    v = unit_rows(rng, 20, 8)
    w = unit_rows(rng, 4, 8)
    hot = predict_probs(v, w, tau=1.0)
    cold = predict_probs(v, w, tau=0.05)
    top = hot.argmax(axis=1)
    rows = np.arange(20)
    assert (cold[rows, top] >= hot[rows, top] - 1e-12).all()
