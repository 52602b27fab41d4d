import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semishot import (
    ConfigError,
    DataError,
    LambdaPolicy,
    SupportSet,
    UnlabeledSet,
    eval_ce,
    eval_contrast,
    eval_semi_objective,
    eval_tightness,
)
from semishot import objectives

from conftest import random_codes, random_support, random_unlabeled, unit_rows


# ---------------------------------------------------------------- lambdas


def test_lambda_policy_validation():
    with pytest.raises(ConfigError):
        LambdaPolicy.fixed([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ConfigError):
        LambdaPolicy.fixed([1.0, 1.0], [1.0, -0.5])
    with pytest.raises(ConfigError):
        LambdaPolicy(mode="other")
    with pytest.raises(ConfigError):
        LambdaPolicy(mode="fixed")  # missing weight vectors
    with pytest.raises(ConfigError):
        # fixed weight arrays must match the class count at use time
        LambdaPolicy.fixed([1.0, 1.0], [1.0, 1.0]).text_weights(np.array([2, 2, 1]))


def test_lambda_policy_converts_list_fields():
    policy = LambdaPolicy(mode="fixed", fixed_text=[1.0, 2.0], fixed_unlabeled=[1.0, 0.0])
    assert policy.fixed_text.dtype == np.float64
    assert policy.text_weights(np.array([3, 1])).tolist() == [1.0, 2.0]
    assert policy.unlabeled_weights(np.array([3, 1])).tolist() == [1.0, 0.0]
    for text in (["a", "b"], [[1.0, 2.0]], 1.0, [1.0, [2.0]]):
        with pytest.raises(ConfigError):
            LambdaPolicy(mode="fixed", fixed_text=text, fixed_unlabeled=[1.0, 1.0])


def test_adaptive_weights_track_shot_counts():
    policy = LambdaPolicy.adaptive()
    counts = np.array([4, 1, 0])
    text = policy.text_weights(counts)
    assert text[0] == 0.25 and text[1] == 1.0
    assert np.isinf(text[2])
    unl = policy.unlabeled_weights(counts)
    assert np.allclose(unl[:2], 2.0 * text[:2])
    assert np.isinf(unl[2])


def test_fixed_weights_ignore_shot_counts():
    policy = LambdaPolicy.fixed(np.full(3, 0.7), np.full(3, 0.3))
    counts = np.array([5, 0, 2])
    assert np.allclose(policy.text_weights(counts), 0.7)
    assert np.allclose(policy.unlabeled_weights(counts), 0.3)


# ---------------------------------------------------------------- tightness


def test_tightness_unit_contribution():
    # weight-1 prototype with v.w = tau contributes exactly -1
    w = np.array([[1.0, 0.0]])
    v = np.array([[0.5, 0.0]])
    assert eval_tightness(np.array([[1.0]]), v, w, tau=0.5) == pytest.approx(-1.0)


def test_tightness_zero_prototypes(rng):
    v = unit_rows(rng, 6, 4)
    wts = random_codes(rng, 6, 3)
    assert eval_tightness(wts, v, np.zeros((3, 4)), tau=0.1) == 0.0


def test_tightness_matches_naive_loop(rng):
    v = unit_rows(rng, 9, 5)
    w = unit_rows(rng, 4, 5)
    wts = random_codes(rng, 9, 4)
    tau = 0.3
    naive = -np.mean([
        sum(wts[i, c] * (v[i] @ w[c]) / tau for c in range(4))
        for i in range(9)
    ])
    assert eval_tightness(wts, v, w, tau) == pytest.approx(naive, abs=1e-12)


# ---------------------------------------------------------------- contrast


def test_contrast_single_class_is_mean_logit(rng):
    v = unit_rows(rng, 8, 5)
    w = unit_rows(rng, 1, 5)
    tau = 0.2
    expected = float(((v @ w.T) / tau).mean())
    assert eval_contrast(v, w, tau) == pytest.approx(expected, abs=1e-12)


def test_contrast_zero_prototypes_is_log_c(rng):
    v = unit_rows(rng, 5, 3)
    for c in (1, 2, 7):
        got = eval_contrast(v, np.zeros((c, 3)), tau=0.01)
        assert got == pytest.approx(math.log(c), abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("evaluate", [
    lambda y, v, w: eval_tightness(y, v, w, tau=0.1),
    lambda y, v, w: eval_contrast(v, w, tau=0.1),
    lambda y, v, w: eval_ce(y, v, w, tau=0.1),
], ids=["tightness", "contrast", "ce"])
def test_logit_evaluators_reject_nonfinite_prototypes(rng, evaluate, bad):
    v = unit_rows(rng, 4, 3)
    y = np.eye(2)[[0, 1, 0, 1]]
    w = unit_rows(rng, 2, 3)
    w[1, 2] = bad
    with pytest.raises(DataError):
        evaluate(y, v, w)


@pytest.mark.parametrize("evaluate", [
    lambda y, v, w: eval_tightness(y, v, w, tau=1e-320),
    lambda y, v, w: eval_contrast(v, w, tau=1e-320),
    lambda y, v, w: eval_ce(y, v, w, tau=1e-320),
], ids=["tightness", "contrast", "ce"])
def test_logit_evaluators_reject_overflowing_logits_without_warnings(evaluate):
    # 1/1e-320 overflows; the suite turns any RuntimeWarning into an error
    with pytest.raises(DataError, match="non-finite"):
        evaluate(np.eye(2)[[0, 1, 0]], np.eye(3), np.eye(2, 3))


# ---------------------------------------------------------------- cross-entropy


def test_ce_two_class_example():
    # logits (1, 0) for the true class gives ln(1 + e^-1)
    w = np.eye(2)
    v = np.array([[1.0, 0.0]])
    y = np.array([[1.0, 0.0]])
    assert eval_ce(y, v, w, tau=1.0) == pytest.approx(math.log(1.0 + math.exp(-1.0)),
                                                      abs=1e-12)


def test_ce_uniform_logits_is_log_c(rng):
    v = unit_rows(rng, 6, 4)
    c = 5
    y = np.eye(c)[np.arange(6) % c]
    assert eval_ce(y, v, np.zeros((c, 4)), tau=0.01) == pytest.approx(math.log(c),
                                                                      abs=1e-12)


def test_ce_decomposition_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        c = int(rng.integers(1, 9))
        d = int(rng.integers(2, 12))
        v = unit_rows(rng, n, d)
        w = unit_rows(rng, c, d)
        y = np.eye(c)[rng.integers(0, c, size=n)]
        tau = float(rng.uniform(0.01, 1.0))
        ce = eval_ce(y, v, w, tau)
        parts = eval_tightness(y, v, w, tau) + eval_contrast(v, w, tau)
        assert abs(ce - parts) < 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       tau=st.floats(0.01, 2.0),
       n=st.integers(1, 25),
       c=st.integers(1, 6))
def test_ce_decomposition_property(seed, tau, n, c):
    rng = np.random.default_rng(seed)
    v = unit_rows(rng, n, 7)
    w = unit_rows(rng, c, 7)
    y = np.eye(c)[rng.integers(0, c, size=n)]
    ce = eval_ce(y, v, w, tau)
    assert abs(ce - (eval_tightness(y, v, w, tau) + eval_contrast(v, w, tau))) < 1e-10


# ---------------------------------------------------------------- few-shot


def fewshot_objective(sup, w, t, tau, policy):
    """The combined objective without unlabeled points: supervised
    tightness plus the text-anchor penalty."""
    return eval_semi_objective(sup, UnlabeledSet.empty(sup.dim), None, w, t, tau,
                               policy).total


def test_fewshot_penalty_vanishes_at_text_init(rng):
    sup = random_support(rng, 8, 3, 5, ensure_all_classes=True)
    t = unit_rows(rng, 3, 5)
    tau = 0.1
    policy = LambdaPolicy.adaptive()
    val = fewshot_objective(sup, t, t, tau, policy)
    tight = eval_tightness(sup.labels, sup.embeddings, t, tau)
    assert val == pytest.approx(tight, abs=1e-12)


def test_fewshot_single_sample_closed_form(rng):
    v = unit_rows(rng, 1, 4)
    sup = SupportSet.from_indices(v, np.array([0]), 1)
    t = unit_rows(rng, 1, 4)
    w = unit_rows(rng, 1, 4)
    tau = 0.5
    policy = LambdaPolicy.fixed([1.0], [0.0])
    expected = -float(v[0] @ w[0]) / tau + float(((w - t) ** 2).sum())
    assert fewshot_objective(sup, w, t, tau, policy) == pytest.approx(
        expected, abs=1e-12)


def test_fewshot_matches_naive(rng):
    c, d = 4, 6
    sup = random_support(rng, 12, c, d, ensure_all_classes=True)
    t = unit_rows(rng, c, d)
    w = unit_rows(rng, c, d)
    tau = 0.2
    policy = LambdaPolicy.adaptive()
    lam = 1.0 / sup.shot_counts
    naive = eval_tightness(sup.labels, sup.embeddings, w, tau) + sum(
        lam[k] * float(((w[k] - t[k]) ** 2).sum()) for k in range(c))
    assert fewshot_objective(sup, w, t, tau, policy) == pytest.approx(
        naive, abs=1e-12)


# ---------------------------------------------------------------- unlabeled


def test_unlabeled_empty_set_is_zero(rng):
    # empty codes over an empty set add nothing to the objective
    sup = random_support(rng, 4, 2, 4, ensure_all_classes=True)
    w = unit_rows(rng, 2, 4)
    val = eval_semi_objective(sup, UnlabeledSet.empty(4), np.zeros((0, 2)), w, w, 0.1,
                              LambdaPolicy.adaptive())
    assert val.unlabeled_term == 0.0


def test_unlabeled_zero_prototypes_is_zero(rng):
    unl = random_unlabeled(rng, 6, 4)
    codes = random_codes(rng, 6, 3)
    assert eval_tightness(codes, unl.embeddings, np.zeros((3, 4)), 0.1) == 0.0


def test_unlabeled_linear_in_codes(rng):
    unl = random_unlabeled(rng, 10, 5)
    w = unit_rows(rng, 3, 5)
    za = random_codes(rng, 10, 3)
    zb = random_codes(rng, 10, 3)
    tau = 0.25
    mid = eval_tightness(0.5 * za + 0.5 * zb, unl.embeddings, w, tau)
    ends = 0.5 * (eval_tightness(za, unl.embeddings, w, tau)
                  + eval_tightness(zb, unl.embeddings, w, tau))
    assert mid == pytest.approx(ends, abs=1e-10)


def test_unlabeled_argmax_codes_beat_hard_assignments(rng):
    # hard argmax codes minimize over every one-hot code assignment
    unl = random_unlabeled(rng, 3, 4)
    w = unit_rows(rng, 3, 4)
    tau = 0.3
    s = (unl.embeddings @ w.T) / tau
    best = np.eye(3)[s.argmax(axis=1)]
    best_val = eval_tightness(best, unl.embeddings, w, tau)
    eye = np.eye(3)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                codes = eye[[a, b, c]]
                val = eval_tightness(codes, unl.embeddings, w, tau)
                assert best_val <= val + 1e-12


# ---------------------------------------------------------------- combined


def test_semi_reduces_to_fewshot_without_unlabeled_weight(rng):
    sup = random_support(rng, 10, 3, 6, ensure_all_classes=True)
    unl = random_unlabeled(rng, 7, 6)
    codes = random_codes(rng, 7, 3)
    w = unit_rows(rng, 3, 6)
    t = unit_rows(rng, 3, 6)
    tau = 0.15
    policy = LambdaPolicy.fixed(np.full(3, 0.8), np.zeros(3))
    val = eval_semi_objective(sup, unl, codes, w, t, tau, policy)
    assert val.unlabeled_term == 0.0
    assert val.total == pytest.approx(
        fewshot_objective(sup, w, t, tau, policy), abs=1e-12)


def test_semi_empty_unlabeled(rng):
    sup = random_support(rng, 6, 2, 4, ensure_all_classes=True)
    w = unit_rows(rng, 2, 4)
    t = unit_rows(rng, 2, 4)
    val = eval_semi_objective(sup, UnlabeledSet.empty(4), None, w, t, 0.1,
                              LambdaPolicy.adaptive())
    assert val.unlabeled_term == 0.0
    assert val.total == pytest.approx(val.fewshot_term + val.text_penalty_term,
                                      abs=1e-12)


def test_semi_parts_sum_to_total(rng):
    sup = random_support(rng, 12, 4, 5, ensure_all_classes=True)
    unl = random_unlabeled(rng, 9, 5)
    codes = random_codes(rng, 9, 4)
    w = unit_rows(rng, 4, 5)
    t = unit_rows(rng, 4, 5)
    val = eval_semi_objective(sup, unl, codes, w, t, 0.2, LambdaPolicy.adaptive())
    assert val.total == pytest.approx(
        val.fewshot_term + val.text_penalty_term + val.unlabeled_term, abs=1e-10)


def test_semi_matches_naive_per_class_loop(rng):
    # class 2 is unobserved: the adaptive policy drops its penalty and
    # unlabeled parts from the reported value
    c, d, m = 4, 5, 9
    emb = unit_rows(rng, 7, d)
    sup = SupportSet.from_indices(emb, np.array([0, 1, 1, 3, 0, 3, 3]), c)
    unl = random_unlabeled(rng, m, d)
    codes = random_codes(rng, m, c)
    w = unit_rows(rng, c, d) * 1.5
    t = unit_rows(rng, c, d)
    tau = 0.2
    val = eval_semi_objective(sup, unl, codes, w, t, tau, LambdaPolicy.adaptive())
    tight = penalty = unl_term = 0.0
    for k in range(c):
        only_k = np.zeros(c)
        only_k[k] = 1.0
        tight += eval_tightness(sup.labels * only_k, sup.embeddings, w, tau)
        if sup.shot_counts[k] == 0:
            continue
        lam = 1.0 / sup.shot_counts[k]
        penalty += lam * float(((w[k] - t[k]) ** 2).sum())
        unl_term += 2.0 * lam * eval_tightness(codes * only_k, unl.embeddings, w, tau)
    assert val.fewshot_term == pytest.approx(tight, abs=1e-12)
    assert val.text_penalty_term == pytest.approx(penalty, abs=1e-12)
    assert val.unlabeled_term == pytest.approx(unl_term, abs=1e-12)
    assert val.total == pytest.approx(tight + penalty + unl_term, abs=1e-12)


def test_semi_midpoint_convexity(rng):
    # linear tightness terms plus a quadratic penalty: convex in W
    sup = random_support(rng, 10, 3, 6, ensure_all_classes=True)
    unl = random_unlabeled(rng, 8, 6)
    codes = random_codes(rng, 8, 3)
    t = unit_rows(rng, 3, 6)
    policy = LambdaPolicy.adaptive()
    wa = unit_rows(rng, 3, 6) * 2.0
    wb = unit_rows(rng, 3, 6) * 0.5
    f = lambda w: eval_semi_objective(sup, unl, codes, w, t, 0.2, policy).total
    assert f(0.5 * (wa + wb)) <= 0.5 * (f(wa) + f(wb)) + 1e-9


# ---------------------------------------------------------------- gradient


def _fd_gradient(fn, w, step=1e-5):
    grad = np.zeros_like(w)
    for c in range(w.shape[0]):
        for j in range(w.shape[1]):
            hi = w.copy(); hi[c, j] += step
            lo = w.copy(); lo[c, j] -= step
            grad[c, j] = (fn(hi) - fn(lo)) / (2.0 * step)
    return grad


def test_gradient_zero_rows_for_unobserved_classes(rng):
    # adaptive policy drops unobserved classes from the reported value,
    # so its finite-difference gradient has a zero row for them
    emb = unit_rows(rng, 5, 4)
    sup = SupportSet.from_indices(emb, np.array([0, 0, 1, 1, 1]), 3)
    unl = random_unlabeled(rng, 6, 4)
    codes = random_codes(rng, 6, 3)
    t = unit_rows(rng, 3, 4)
    w = unit_rows(rng, 3, 4)
    tau = 0.3
    policy = LambdaPolicy.adaptive()
    fn = lambda x: eval_semi_objective(sup, unl, codes, x, t, tau, policy).total
    fd = _fd_gradient(fn, w)
    assert np.linalg.norm(fd[2]) < 1e-8
    assert np.linalg.norm(fd[:2]) > 1e-2  # the observed rows do move it


@pytest.mark.parametrize("shared_text", [True, False], ids=["shared-text", "per-element-text"])
def test_class_sums_totals_are_the_unbuffered_expression(rng, shared_text):
    # parts squares its difference in place and reuses one product buffer
    # for the tightness and unlabeled terms: the totals are bitwise those
    # of fresh temporaries. Class 3 is absent from every support
    b, c, d, m = 4, 5, 7, 11
    supports = [SupportSet.from_indices(unit_rows(rng, 6, d), rng.integers(0, 3, 6), c)
                for _ in range(b)]
    base = objectives._class_sums(objectives._labeled_sums(supports), 0.05,
                                  LambdaPolicy.adaptive())
    codes = np.stack([random_codes(rng, m, c).T for _ in range(b)])
    sums = base.with_codes(codes, np.stack([unit_rows(rng, m, d) for _ in range(b)]), 0.05)
    assert not sums.lam_text[:, 3].any()
    w = rng.standard_normal((b, c, d))
    t = unit_rows(rng, c, d) if shared_text else rng.standard_normal((b, c, d))
    diff = w - t
    product = w * sums.labeled
    expected = (-product.reshape(b, -1).sum(axis=-1)
                + objectives._dot(sums.lam_text, (diff * diff).sum(axis=-1))
                - objectives._dot(sums.lam_unl, (w * sums.unlabeled).sum(axis=-1)))
    assert sums.totals(w, t).tobytes() == expected.tobytes()
    kept = w.copy()
    sums.totals(w, t)
    assert np.array_equal(w, kept)
