from fractions import Fraction

import numpy as np
import pytest

import semishot as ss
from semishot import (
    ConfigError,
    DataError,
    LambdaPolicy,
    SolverConfig,
    SolverError,
    SupportSet,
    UnlabeledSet,
    correct_marginal,
    estimate_marginal,
    eval_semi_objective,
    fit_simpleshot,
    fit_sstext,
    fit_sstextu,
    similarity_matrix,
    solve_transport,
    update_prototypes,
)

from conftest import random_codes, random_support, random_unlabeled, unit_rows, unwritten


# ---------------------------------------------------------------- marginals


def test_estimate_marginal_counts():
    sup = SupportSet.from_indices(np.eye(3), np.array([0, 0, 1]), 3)
    assert np.allclose(estimate_marginal(sup), [2 / 3, 1 / 3, 0.0], atol=1e-15)


def test_correct_marginal_floors_zero_entries():
    out = correct_marginal(np.array([0.5, 0.5, 0.0]), ratio=0.25)
    assert np.allclose(out, [4 / 9, 4 / 9, 1 / 9], atol=1e-12)
    out2 = correct_marginal(np.array([1.0, 0.0]), ratio=0.25)
    assert np.allclose(out2, [0.8, 0.2], atol=1e-12)
    assert out2.sum() == pytest.approx(1.0, abs=1e-12)


def test_correct_marginal_of_a_huge_estimate_does_not_overflow():
    out = correct_marginal(np.array([1e308, 1e308, 0.0]), ratio=0.25)
    np.testing.assert_allclose(out, [4 / 9, 4 / 9, 1 / 9], rtol=1e-15)


def test_correct_marginal_passthrough_without_zeros():
    # the values pass through, in a new array
    m = np.array([0.6, 0.3, 0.1])
    out = correct_marginal(m, ratio=0.25)
    assert np.array_equal(out, m) and not np.shares_memory(out, m)


def test_correct_marginal_rejects_bad_input():
    with pytest.raises(DataError):
        correct_marginal(np.zeros(3))
    with pytest.raises(DataError):
        correct_marginal(np.array([0.5, -0.5]))
    with pytest.raises(ConfigError):
        correct_marginal(np.array([0.5, 0.5]), ratio=1.0)
    with pytest.raises(ConfigError):
        correct_marginal(np.array([0.5, 0.5]), ratio=0.0)


@pytest.mark.parametrize("ratio, fails", [(1e-310, True), (5e-324, True), (1e-300, False)])
def test_a_floored_mass_must_be_a_normal_float(rng, ratio, fails):
    # one class of five labeled once, one four times: each absent class
    # is floored at ratio / 5 of the mass, subnormal at 1e-310 and zero
    # at 5e-324, where the floor would leave it absent
    estimate = np.array([0.2, 0.8, 0.0, 0.0, 0.0])
    sup = SupportSet.from_indices(unit_rows(rng, 5, 4), np.array([0, 1, 1, 1, 1]), 5)

    def fit():
        return fit_sstextu(sup, random_unlabeled(rng, 8, 4), unit_rows(rng, 5, 4),
                           SolverConfig(marginal_ratio=ratio))

    if fails:
        for call in (lambda: correct_marginal(estimate, ratio), fit):
            with pytest.raises(ConfigError, match="marginal_ratio"):
                call()
    else:
        floored = correct_marginal(estimate, ratio)
        assert np.all(floored >= np.finfo(np.float64).tiny)
        assert np.array_equal(fit().marginal, floored)


# ---------------------------------------------------------------- simpleshot


def test_simpleshot_class_means(rng):
    emb = unit_rows(rng, 6, 4)
    idx = np.array([0, 0, 1, 1, 1, 0])
    sup = SupportSet.from_indices(emb, idx, 2)
    result = fit_simpleshot(sup)
    assert np.allclose(result.prototypes[0], emb[idx == 0].mean(axis=0),
                       atol=1e-12)
    assert np.allclose(result.prototypes[1], emb[idx == 1].mean(axis=0),
                       atol=1e-12)
    assert result.missing_classes.size == 0


def test_simpleshot_missing_class_row_is_zero(rng):
    sup = SupportSet.from_indices(unit_rows(rng, 3, 4), np.array([0, 0, 2]), 3)
    result = fit_simpleshot(sup)
    assert np.array_equal(result.prototypes[1], np.zeros(4))
    assert result.missing_classes.tolist() == [1]


# ---------------------------------------------------------------- closed form


def test_update_single_shot_unit_weights(rng):
    # one sample, one class, tau=0.5, unit text weight: w = v + t
    v = unit_rows(rng, 1, 4)
    sup = SupportSet.from_indices(v, np.array([0]), 1)
    t = unit_rows(rng, 1, 4)
    policy = LambdaPolicy.fixed([1.0], [0.0])
    w = update_prototypes(sup, None, None, t, tau=0.5, lambdas=policy)
    assert np.allclose(w, v + t, atol=1e-14)


def test_update_adaptive_coefficients(rng):
    # adaptive weights collapse the scales to K_c/(2 N tau) on the raw
    # labeled class sum and exactly 1/(M tau) on the code-weighted
    # unlabeled sum
    c, d, m = 3, 5, 11
    sup = random_support(rng, 9, c, d, ensure_all_classes=True)
    unl = random_unlabeled(rng, m, d)
    codes = random_codes(rng, m, c)
    t = unit_rows(rng, c, d)
    tau = 0.2
    w = update_prototypes(sup, unl, codes, t, tau, LambdaPolicy.adaptive())
    counts = sup.shot_counts
    lab_sum = sup.labels.T @ sup.embeddings
    unl_sum = codes.T @ unl.embeddings
    naive = (t + (counts[:, None] / (2.0 * sup.n * tau)) * lab_sum
             + unl_sum / (m * tau))
    assert np.allclose(w, naive, atol=1e-13)


def test_update_fixed_weights_literal(rng):
    c, d, m = 2, 4, 6
    sup = random_support(rng, 5, c, d, ensure_all_classes=True)
    unl = random_unlabeled(rng, m, d)
    codes = random_codes(rng, m, c)
    t = unit_rows(rng, c, d)
    tau = 0.3
    lam_t, lam_u = 0.7, 0.4
    policy = LambdaPolicy.fixed(np.full(c, lam_t), np.full(c, lam_u))
    w = update_prototypes(sup, unl, codes, t, tau, policy)
    naive = np.zeros((c, d))
    for k in range(c):
        lab = sum(sup.labels[i, k] * sup.embeddings[i] for i in range(sup.n))
        uns = sum(codes[i, k] * unl.embeddings[i] for i in range(m))
        naive[k] = (t[k] + lab / (2.0 * lam_t * sup.n * tau)
                    + (lam_u / lam_t) * uns / (2.0 * m * tau))
    assert np.allclose(w, naive, atol=1e-13)


def test_update_without_unlabeled_matches_empty_set(rng):
    sup = random_support(rng, 6, 2, 4, ensure_all_classes=True)
    t = unit_rows(rng, 2, 4)
    policy = LambdaPolicy.adaptive()
    a = update_prototypes(sup, None, None, t, 0.1, policy)
    b = update_prototypes(sup, UnlabeledSet.empty(4), None, t, 0.1, policy)
    assert np.array_equal(a, b)


def test_update_unobserved_class_keeps_anchor_plus_codes(rng):
    # K_c = 0: no labeled pull, but pseudo-label mass still moves the row
    d, m = 4, 8
    emb = unit_rows(rng, 4, d)
    sup = SupportSet.from_indices(emb, np.array([0, 0, 1, 1]), 3)
    unl = random_unlabeled(rng, m, d)
    codes = random_codes(rng, m, 3)
    t = unit_rows(rng, 3, d)
    tau = 0.25
    w = update_prototypes(sup, unl, codes, t, tau, LambdaPolicy.adaptive())
    expected = t[2] + (codes[:, 2][:, None] * unl.embeddings).sum(axis=0) / (m * tau)
    assert np.allclose(w[2], expected, atol=1e-13)
    w0 = update_prototypes(sup, None, None, t, tau, LambdaPolicy.adaptive())
    assert np.array_equal(w0[2], t[2])


def test_update_requires_codes_with_unlabeled(rng):
    sup = random_support(rng, 4, 2, 3, ensure_all_classes=True)
    unl = random_unlabeled(rng, 5, 3)
    t = unit_rows(rng, 2, 3)
    with pytest.raises(DataError):
        update_prototypes(sup, unl, None, t, 0.1, LambdaPolicy.adaptive())
    with pytest.raises(DataError):
        update_prototypes(sup, unl, random_codes(rng, 4, 2), t, 0.1,
                          LambdaPolicy.adaptive())


def test_update_minimizes_fixed_code_objective(rng):
    sup = random_support(rng, 8, 3, 5, ensure_all_classes=True)
    unl = random_unlabeled(rng, 7, 5)
    codes = random_codes(rng, 7, 3)
    t = unit_rows(rng, 3, 5)
    tau = 0.15
    policy = LambdaPolicy.adaptive()
    w = update_prototypes(sup, unl, codes, t, tau, policy)
    base = eval_semi_objective(sup, unl, codes, w, t, tau, policy).total
    for _ in range(100):
        delta = rng.standard_normal(w.shape)
        delta *= 0.1 / np.linalg.norm(delta)
        perturbed = eval_semi_objective(sup, unl, codes, w + delta, t, tau,
                                        policy).total
        assert base <= perturbed + 1e-12


# ---------------------------------------------------------------- sstext


def _descend_fewshot(sup, t, tau, policy, tol=1e-8):
    """Plain gradient descent on the labeled-only objective."""
    counts = sup.shot_counts
    lam = policy.text_weights(counts)
    w = t.copy()
    lr = 0.25 / max(2.0 * lam[np.isfinite(lam)].max(), 1.0 / tau)
    for _ in range(200000):
        grad = -(sup.labels.T @ sup.embeddings) / (sup.n * tau)
        grad = grad + 2.0 * lam[:, None] * (w - t)
        if np.linalg.norm(grad) < tol:
            return w
        w = w - lr * grad
    raise AssertionError("descent oracle did not converge")


def test_sstext_matches_descent_oracle(rng):
    for _ in range(3):
        sup = random_support(rng, 9, 3, 8, ensure_all_classes=True)
        t = unit_rows(rng, 3, 8)
        tau = 0.1
        result = fit_sstext(sup, t, SolverConfig(tau=tau))
        oracle = _descend_fewshot(sup, t, tau, LambdaPolicy.adaptive())
        assert np.abs(result.prototypes - oracle).max() < 1e-4


def test_sstext_trace_and_improvement(rng):
    sup = random_support(rng, 10, 3, 6, ensure_all_classes=True)
    t = unit_rows(rng, 3, 6)
    cfg = SolverConfig(tau=0.05)
    result = fit_sstext(sup, t, cfg)
    assert result.objective_trace.shape == (2,)
    assert result.objective_trace[1] <= result.objective_trace[0] + 1e-12
    direct = eval_semi_objective(sup, UnlabeledSet.empty(6), None, result.prototypes,
                                 t, cfg.tau, cfg.lambdas)
    assert result.objective_trace[1] == pytest.approx(direct.total, abs=1e-12)


def test_sstext_unobserved_class_pins_to_anchor(rng):
    emb = unit_rows(rng, 4, 5)
    sup = SupportSet.from_indices(emb, np.array([0, 1, 1, 0]), 3)
    t = unit_rows(rng, 3, 5)
    result = fit_sstext(sup, t)
    assert np.array_equal(result.prototypes[2], t[2])


def test_sstext_rejects_shape_mismatch(rng):
    sup = random_support(rng, 4, 2, 3, ensure_all_classes=True)
    with pytest.raises(DataError):
        fit_sstext(sup, unit_rows(rng, 3, 3))


# ---------------------------------------------------------------- sstextu


def test_sstextu_zero_rounds_returns_text(rng):
    sup = random_support(rng, 6, 3, 5, ensure_all_classes=True)
    unl = random_unlabeled(rng, 9, 5)
    t = unit_rows(rng, 3, 5)
    result = fit_sstextu(sup, unl, t, SolverConfig(bcm_iters=0))
    assert np.array_equal(result.prototypes, t)
    assert result.objective_trace.shape == (1,)


def test_sstextu_empty_unlabeled_equals_sstext(rng):
    for _ in range(5):
        sup = random_support(rng, 8, 3, 6, ensure_all_classes=True)
        t = unit_rows(rng, 3, 6)
        cfg = SolverConfig(tau=0.04, bcm_iters=3)
        a = fit_sstextu(sup, UnlabeledSet.empty(6), t, cfg)
        b = fit_sstext(sup, t, cfg)
        assert np.array_equal(a.prototypes, b.prototypes)
        assert a.objective_trace.shape == (4,)
        assert np.array_equal(a.objective_trace[1:], np.full(3, b.objective_trace[1]))


def test_labeled_only_tracked_fit_repeats_one_step_and_snapshots_nothing(rng):
    # with no unlabeled points no round makes codes: a tracked fit keeps
    # no snapshot, residual or marginal, and each round repeats the same
    # closed-form step, so the trace is flat after its start
    sup = random_support(rng, 8, 3, 6, ensure_all_classes=True)
    t = unit_rows(rng, 3, 6)
    result = fit_sstextu(sup, UnlabeledSet.empty(6), t,
                         SolverConfig(bcm_iters=3, track_codes=True))
    for name in ("pseudolabel_trace", "prototype_trace", "ot_residuals", "marginal"):
        assert getattr(result, name) is None, name
    trace = result.objective_trace
    assert trace.shape == (4,) and trace[1] < trace[0]
    assert trace[1:].tobytes() == np.full(3, trace[1]).tobytes()
    assert result.prototypes.tobytes() == fit_sstext(sup, t).prototypes.tobytes()


def test_sstextu_trace_shape_and_descent(rng):
    sup = random_support(rng, 10, 4, 8, ensure_all_classes=True)
    unl = random_unlabeled(rng, 40, 8)
    t = unit_rows(rng, 4, 8)
    cfg = SolverConfig(tau=0.05, bcm_iters=3, ot_iters=10)
    result = fit_sstextu(sup, unl, t, cfg)
    assert result.objective_trace.shape == (4,)
    assert result.ot_residuals.shape == (3,)
    assert result.objective_trace[-1] <= result.objective_trace[0] + 1e-9
    assert result.marginal is not None


def test_sstextu_deterministic(rng):
    sup = random_support(rng, 8, 3, 6, ensure_all_classes=True)
    unl = random_unlabeled(rng, 20, 6)
    t = unit_rows(rng, 3, 6)
    cfg = SolverConfig(tau=0.05)
    a = fit_sstextu(sup, unl, t, cfg)
    b = fit_sstextu(sup, unl, t, cfg)
    assert np.array_equal(a.prototypes, b.prototypes)
    assert np.array_equal(a.objective_trace, b.objective_trace)


def test_sstextu_codes_hit_marginal_as_residual(rng):
    # per-class code mass equals the plan's row sums, so its L1 gap to
    # the marginal is exactly the plan residual
    sup = random_support(rng, 8, 3, 6, ensure_all_classes=True)
    unl = random_unlabeled(rng, 30, 6)
    t = unit_rows(rng, 3, 6)
    cfg = SolverConfig(tau=0.05, bcm_iters=2, track_codes=True)
    result = fit_sstextu(sup, unl, t, cfg)
    for codes, residual in zip(result.pseudolabel_trace, result.ot_residuals):
        gap = np.abs(codes.mean(axis=0) - result.marginal).sum()
        assert gap == pytest.approx(residual, abs=1e-12)


def test_sstextu_each_round_minimizes_its_codes(rng):
    sup = random_support(rng, 8, 3, 6, ensure_all_classes=True)
    unl = random_unlabeled(rng, 25, 6)
    t = unit_rows(rng, 3, 6)
    cfg = SolverConfig(tau=0.05, bcm_iters=2, track_codes=True)
    result = fit_sstextu(sup, unl, t, cfg)
    codes = result.pseudolabel_trace[-1]
    w = result.prototypes
    base = eval_semi_objective(sup, unl, codes, w, t, cfg.tau, cfg.lambdas).total
    for _ in range(100):
        delta = rng.standard_normal(w.shape)
        delta *= 0.1 / np.linalg.norm(delta)
        other = eval_semi_objective(sup, unl, codes, w + delta, t, cfg.tau,
                                    cfg.lambdas).total
        assert base <= other + 1e-12


@pytest.mark.parametrize("case", ["unobserved", "fixed"])
def test_sstextu_trace_matches_public_objective(rng, case):
    # every trace entry is the public objective at the round's codes:
    # entry 0 at the text start under round 1's codes, entry r after
    # round r's prototype step
    c, d = 3, 6
    if case == "unobserved":
        emb = unit_rows(rng, 6, d)
        sup = SupportSet.from_indices(emb, np.array([0, 1, 1, 0, 0, 1]), c)
        lambdas = LambdaPolicy.adaptive()
    else:
        sup = random_support(rng, 9, c, d, ensure_all_classes=True)
        lambdas = LambdaPolicy.fixed([0.7, 1.3, 0.4], [0.5, 0.0, 2.0])
    unl = random_unlabeled(rng, 30, d)
    t = unit_rows(rng, c, d)
    cfg = SolverConfig(tau=0.05, bcm_iters=3, lambdas=lambdas, track_codes=True)
    result = fit_sstextu(sup, unl, t, cfg)
    starts = [t, *result.prototype_trace]
    codes = [result.pseudolabel_trace[0], *result.pseudolabel_trace]
    assert result.objective_trace.shape == (4,)
    for entry, z, w in zip(result.objective_trace, codes, starts):
        direct = eval_semi_objective(sup, unl, z, w, t, cfg.tau, lambdas).total
        assert entry == pytest.approx(direct, rel=1e-12, abs=0.0)


def test_sstextu_marginal_sources(rng):
    emb = unit_rows(rng, 4, 5)
    sup = SupportSet.from_indices(emb, np.array([0, 0, 1, 1]), 3)
    unl = random_unlabeled(rng, 12, 5)
    t = unit_rows(rng, 3, 5)
    corrected = fit_sstextu(sup, unl, t, SolverConfig(tau=0.05))
    assert (corrected.marginal > 0).all()
    raw = fit_sstextu(sup, unl, t,
                      SolverConfig(tau=0.05, marginal_source="support_raw"))
    assert raw.marginal[2] == 0.0
    oracle = fit_sstextu(sup, unl, t,
                         SolverConfig(tau=0.05, marginal_source="oracle"),
                         oracle_marginal=np.array([0.5, 0.25, 0.25]))
    assert np.array_equal(oracle.marginal, [0.5, 0.25, 0.25])


def test_sstextu_oracle_source_requires_marginal(rng):
    sup = random_support(rng, 6, 2, 4, ensure_all_classes=True)
    unl = random_unlabeled(rng, 8, 4)
    t = unit_rows(rng, 2, 4)
    cfg = SolverConfig(tau=0.05, marginal_source="oracle")
    with pytest.raises(ConfigError):
        fit_sstextu(sup, unl, t, cfg)
    with pytest.raises(DataError):
        fit_sstextu(sup, unl, t, cfg, oracle_marginal=np.array([0.9, 0.2]))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_sstextu_wraps_degenerate_rounds(rng):
    sup = random_support(rng, 6, 2, 4, ensure_all_classes=True)
    unl = random_unlabeled(rng, 8, 4)
    t = unit_rows(rng, 2, 4) * 1e200
    cfg = SolverConfig(tau=1e-300)  # scores overflow on the first round
    with pytest.raises(SolverError) as info:
        fit_sstextu(sup, unl, t, cfg)
    assert info.value.iteration == 1
    assert "round 1" in str(info.value)


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(tau=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(bcm_iters=-1)
    with pytest.raises(ConfigError):
        SolverConfig(ot_iters=-1)
    with pytest.raises(ConfigError):
        SolverConfig(marginal_ratio=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(marginal_source="guess")


_PLAN_INPUTS = (np.zeros((2, 3)), np.full(2, 0.5))
_BAD_COUNTS_AND_TAUS = {
    "bcm_iters-fraction": lambda: SolverConfig(bcm_iters=2.5),
    "bcm_iters-bool": lambda: SolverConfig(bcm_iters=True),
    "ot_iters-none": lambda: SolverConfig(ot_iters=None),
    "ot_iters-text": lambda: SolverConfig(ot_iters="10"),
    "marginal_ratio-text": lambda: SolverConfig(marginal_ratio="x"),
    "tau-text": lambda: SolverConfig(tau="abc"),
    "tau-none": lambda: SolverConfig(tau=None),
    "shots-fraction": lambda: ss.SamplingSpec(shots=1.5),
    "shots-none": lambda: ss.SamplingSpec(shots=None),
    "multiplier-fraction": lambda: ss.SamplingSpec(shots=1, unlabeled_multiplier=0.5),
    "dim-fraction": lambda: ss.SyntheticSpec(dim=8.5),
    "pool_size-bool": lambda: ss.SyntheticSpec(pool_size=True),
    "sinkhorn-iterations": lambda: ss.sinkhorn(np.ones((2, 3)), np.full(2, 0.5),
                                               iterations=2.5),
    "solve_transport-iterations": lambda: ss.solve_transport(*_PLAN_INPUTS,
                                                             iterations=2.5),
}


@pytest.mark.parametrize("build", _BAD_COUNTS_AND_TAUS.values(),
                         ids=_BAD_COUNTS_AND_TAUS.keys())
def test_counts_and_taus_raise_config_error(build):
    # rejected where they are set, not as a TypeError rounds later
    with pytest.raises(ConfigError):
        build()


def _tiny_dataset():
    return ss.synthetic_dataset(ss.SyntheticSpec(pool_size=60))


_BAD_NUMERIC_FIELDS = {
    "noise-str": lambda: ss.SyntheticSpec(noise="x"),
    "separation-none": lambda: ss.SyntheticSpec(separation=None),
    "text_noise-str": lambda: ss.SyntheticSpec(text_noise="a"),
    "text_noise-nan": lambda: ss.SyntheticSpec(text_noise=float("nan")),
    "noise-bool": lambda: ss.SyntheticSpec(noise=True),
    "generate-seed-fraction": lambda: ss.generate_synthetic(ss.SyntheticSpec(seed=1.5)),
    "split-seed-fraction": lambda: ss.split_indices(
        np.zeros(10, dtype=np.int64), 1, ss.SamplingSpec(shots=1, seed=1.5)),
    "sampling-seed-negative": lambda: ss.SamplingSpec(shots=1, seed=-1),
    "correct_marginal-ratio-str": lambda: correct_marginal(np.array([0.5, 0.5]), "x"),
    "marginal_ratio-nan": lambda: SolverConfig(marginal_ratio=float("nan")),
    "tau-bool": lambda: SolverConfig(tau=True),
    "tau-numeric-text": lambda: SolverConfig(tau="0.01"),
    "benchmark-seeds-fraction": lambda: ss.run_benchmark(_tiny_dataset(), seeds=2.5),
    "benchmark-seeds-bool": lambda: ss.run_benchmark(_tiny_dataset(), seeds=True),
    "benchmark-seed-negative": lambda: ss.run_benchmark(_tiny_dataset(), seeds=[0, -1]),
    "benchmark-seed-fraction": lambda: ss.run_benchmark(_tiny_dataset(), seeds=[0.5]),
    "benchmark-seeds-none": lambda: ss.run_benchmark(_tiny_dataset(), seeds=None),
}


@pytest.mark.parametrize("build", _BAD_NUMERIC_FIELDS.values(),
                         ids=_BAD_NUMERIC_FIELDS.keys())
def test_numeric_fields_and_seeds_raise_config_error(build):
    with pytest.raises(ConfigError):
        build()


def test_real_fields_accept_any_finite_real():
    # fractions and NumPy scalars are reals too; only their value is checked
    assert SolverConfig(tau=Fraction(1, 50), marginal_ratio=Fraction(1, 4)).tau == 0.02
    assert SolverConfig(tau=np.float32(0.5)).tau == 0.5
    assert ss.SyntheticSpec(noise=Fraction(3, 10), separation=np.float64(0.5)).noise == 0.3
    np.testing.assert_allclose(correct_marginal(np.array([0.5, 0.0, 0.5]), Fraction(1, 2)),
                               [0.4, 0.2, 0.4])


def test_integral_counts_of_any_integer_type_are_accepted():
    cfg = SolverConfig(bcm_iters=np.int64(2), ot_iters=4.0)
    assert (cfg.bcm_iters, cfg.ot_iters) == (2, 4)
    assert type(cfg.ot_iters) is int
    assert ss.SamplingSpec(shots=np.uint8(2)).shots == 2
    # scores far from balanced, so each round changes the plan
    inputs = (np.array([[0.0, 1.0, 2.0], [3.0, 0.0, 0.5]]), np.array([0.3, 0.7]))
    three, two = (ss.solve_transport(*inputs, iterations=it).values for it in (3, 2))
    assert not np.array_equal(three, two)
    assert np.array_equal(ss.solve_transport(*inputs, iterations=np.int32(3)).values, three)
    kernel = ss.init_plan(inputs[0])
    assert np.array_equal(ss.sinkhorn(kernel, inputs[1], iterations=2.0).values,
                          ss.sinkhorn(kernel, inputs[1], iterations=2).values)


def test_sstextu_round_loop_is_bitwise_the_public_pieces(rng):
    # each round: similarity_matrix -> solve_transport -> the plan over
    # its column sums -> update_prototypes, with the plan's residual
    # read before the codes are written over it
    sup = random_support(rng, 9, 4, 6, ensure_all_classes=True)
    unl = random_unlabeled(rng, 40, 6)
    t = unit_rows(rng, 4, 6)
    cfg = SolverConfig(tau=0.05, bcm_iters=3, ot_iters=7, track_codes=True)
    result = fit_sstextu(sup, unl, t, cfg)
    w, codes, residuals = t, [], []
    for _ in range(cfg.bcm_iters):
        plan = solve_transport(similarity_matrix(w, unl.embeddings, cfg.tau),
                               result.marginal, cfg.ot_iters)
        residuals.append(plan.residual)
        codes.append((plan.values / plan.values.sum(axis=0)).T)
        w = update_prototypes(sup, unl, codes[-1], t, cfg.tau, cfg.lambdas)
    assert result.prototypes.tobytes() == w.tobytes()
    assert result.ot_residuals.tolist() == residuals
    assert len(result.pseudolabel_trace) == len(codes)
    for got, want in zip(result.pseudolabel_trace, codes):
        assert got.tobytes() == want.tobytes()
    # every snapshot is its own array, and a later fit writes none of them
    snaps = result.pseudolabel_trace + result.prototype_trace
    for i, a in enumerate(snaps):
        assert not any(np.shares_memory(a, b) for b in snaps[i + 1:])
    kept = [a.copy() for a in snaps]
    fit_sstextu(sup, unl, t, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(snaps, kept))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_nonfinite_scores_fail_the_batch_at_round_one(rng, bad):
    # one element's unlabeled rows carry a NaN or an infinity; the
    # transport solve finds it from its shift's maxima and minima
    supports = [random_support(rng, 5, 3, 4, ensure_all_classes=True) for _ in range(3)]
    t = unit_rows(rng, 3, 4)
    stacked = np.stack([random_unlabeled(rng, 10, 4).embeddings for _ in range(3)])
    stacked[1, 2:4] = bad
    with pytest.raises(SolverError) as info:
        ss.solvers._adapt(ss.objectives._labeled_sums(supports), t, SolverConfig(tau=0.05), stacked)
    assert str(info.value) == ("pseudo-label step failed at round 1: "
                               "similarity matrix contains non-finite entries")
    assert info.value.iteration == 1
    with pytest.raises(DataError, match="non-finite"):
        solve_transport(np.array([[0.0, bad], [1.0, 0.0]]), np.array([0.5, 0.5]))


def test_fits_leave_their_inputs_unwritten(rng):
    sup = random_support(rng, 8, 3, 6, ensure_all_classes=True)
    unl = random_unlabeled(rng, 20, 6)
    t = unit_rows(rng, 3, 6)
    oracle = np.array([0.5, 0.3, 0.2])
    cfg = SolverConfig(tau=0.002, marginal_source="oracle", track_codes=True)
    unwritten(lambda *_: fit_sstextu(sup, unl, t, cfg, oracle_marginal=oracle),
              sup.embeddings, sup.labels, unl.embeddings, t, oracle)
    # a batch of mixed N, some of whose spans at tau=0.002 pass 700
    supports = [random_support(rng, n, 3, 6) for n in (4, 4, 7)]
    stacked = np.stack([random_unlabeled(rng, 20, 6).embeddings for _ in supports])
    unwritten(lambda *_: ss.solvers._adapt(ss.objectives._labeled_sums(supports), t, cfg, stacked,
                                           [oracle] * 3),
              stacked, t, oracle, *(s.embeddings for s in supports))


def test_sstextu_dim_mismatch(rng):
    sup = random_support(rng, 4, 2, 3, ensure_all_classes=True)
    with pytest.raises(DataError):
        fit_sstextu(sup, random_unlabeled(rng, 5, 4), unit_rows(rng, 2, 3))


# ---------------------------------------------------------------- batched fits


@pytest.mark.parametrize("m", [0, 30], ids=["labeled-only", "unlabeled"])
@pytest.mark.parametrize("cfg", [
    SolverConfig(tau=0.05, track_codes=True),
    SolverConfig(tau=0.01, ot_iters=0, marginal_source="support_raw"),
    SolverConfig(tau=0.002, bcm_iters=2, ot_iters=30,
                 lambdas=LambdaPolicy.fixed([0.7, 1.3, 0.4], [0.5, 0.0, 2.0])),
    SolverConfig(tau=0.05, bcm_iters=0),
], ids=["adaptive-tracked", "raw-no-balancing", "fixed-sharp", "zero-rounds"])
def test_batched_fit_is_each_elements_own_fit(rng, cfg, m):
    # a batch shares M, C and D: the seeds of one shot count share N as
    # well, the cells of several shot counts do not (N = 2 comes back
    # after other runs); some classes are unobserved, and tau=0.002
    # takes some score spans past 700
    c, d = 3, 8
    t = unit_rows(rng, c, d)
    for ns in ((4, 4, 4, 4), (2, 5, 5, 9, 2)):
        supports = [random_support(rng, n, c, d) for n in ns]
        unlabeled = [random_unlabeled(rng, m, d) for _ in ns]
        stacked = np.stack([u.embeddings for u in unlabeled])
        labeled = ss.objectives._labeled_sums(supports)
        batch = ss.solvers._adapt(labeled, t, cfg, stacked)
        labeled_only = ss.solvers._adapt(labeled, t, cfg)
        for b, (sup, unl) in enumerate(zip(supports, unlabeled)):
            for got, alone in ((batch[b], fit_sstextu(sup, unl, t, cfg)),
                               (labeled_only[b], fit_sstext(sup, t, cfg))):
                assert np.array_equal(got.prototypes, alone.prototypes)
                assert np.array_equal(got.objective_trace, alone.objective_trace)
                for name in ("marginal", "ot_residuals", "pseudolabel_trace",
                             "prototype_trace"):
                    mine, theirs = getattr(got, name), getattr(alone, name)
                    assert (mine is None) == (theirs is None)
                    if mine is not None:
                        assert all(np.array_equal(x, y)
                                   for x, y in zip(mine, theirs, strict=True))


def test_batched_simpleshot_is_bitwise_each_supports_own(rng):
    # supports of mixed N (N = 2 comes back after others), absent classes
    # at N = 1 and 2: the batch's class means are each support's own
    # 2-D product over its class counts, zero rows and all, and each
    # support's fit on its own labeled record
    c, d = 4, 16
    supports = [random_support(rng, n, c, d) for n in (1, 2, 2, 6, 6, 6, 2, 40)]
    fits = ss.solvers._simpleshot(ss.objectives._labeled_sums(supports))
    own_sums = [ss.solvers._simpleshot(ss.objectives._labeled_sums([sup]))[0] for sup in supports]
    missing = 0
    for sup, fit, mine in zip(supports, fits, own_sums, strict=True):
        assert fit.prototypes.tobytes() == mine.prototypes.tobytes()
        counts = sup.labels.sum(axis=0).astype(np.int64)
        own = (sup.labels.T @ sup.embeddings) / np.where(counts > 0, counts, 1.0)[:, None]
        assert fit.prototypes.tobytes() == own.tobytes()
        assert fit.prototypes.tobytes() == fit_simpleshot(sup).prototypes.tobytes()
        assert fit.missing_classes.tolist() == np.flatnonzero(counts == 0).tolist()
        assert not fit.prototypes[fit.missing_classes].any()
        missing += fit.missing_classes.size
    assert missing > 0


@pytest.mark.parametrize("source", ["support_estimate", "support_raw"])
def test_batch_marginals_are_each_supports_own(rng, source):
    # one (B, C) pass over the batch's class counts: rows with absent
    # classes are floored, the others pass through, each bitwise the
    # public estimate and correction of its support alone
    supports = [random_support(rng, n, 4, 6) for n in (1, 2, 2, 8, 8, 3, 40)]
    cfg = SolverConfig(marginal_source=source, marginal_ratio=0.3)
    got = ss.solvers._resolve_marginals(ss.objectives._labeled_sums(supports), cfg,
                                        [None] * len(supports))
    floored = 0
    for sup, row in zip(supports, got):
        own = estimate_marginal(sup)
        if source == "support_estimate":
            floored += int(not own.all())
            own = correct_marginal(own, 0.3)
        assert row.tobytes() == own.tobytes()
    assert floored or source == "support_raw"
