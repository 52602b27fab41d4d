import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semishot import (
    ConfigError,
    DataError,
    DegeneratePlanError,
    SolverConfig,
    fit_sstextu,
    init_plan,
    marginal_residual,
    similarity_matrix,
    sinkhorn,
    solve_transport,
)
from semishot import transport

from conftest import random_support, random_unlabeled, unit_rows, unwritten


def random_marginal(rng, c):
    m = rng.random(c) + 0.05
    return m / m.sum()


# ---------------------------------------------------------------- scores


def test_similarity_matrix_shape_and_scale(rng):
    w = unit_rows(rng, 3, 6)
    v = unit_rows(rng, 5, 6)
    s = similarity_matrix(w, v, tau=0.5)
    assert s.shape == (3, 5)
    assert np.allclose(s, (w @ v.T) / 0.5, atol=1e-12)


def test_similarity_matrix_rejects_mismatch(rng):
    with pytest.raises(DataError):
        similarity_matrix(unit_rows(rng, 3, 6), unit_rows(rng, 5, 4), tau=0.5)


# ---------------------------------------------------------------- init


def test_init_plan_uniform_scores():
    plan = init_plan(np.zeros((2, 2)))
    assert np.allclose(plan, 0.25, atol=1e-15)


def test_init_plan_total_mass_one(rng):
    plan = init_plan(rng.standard_normal((4, 7)) * 10.0)
    assert plan.sum() == pytest.approx(1.0, abs=1e-12)
    assert (plan >= 0.0).all()


def test_init_plan_global_shift_invariant(rng):
    s = rng.standard_normal((3, 5)) * 5.0
    assert np.allclose(init_plan(s), init_plan(s + 123.0), atol=1e-12)


def test_init_plan_extreme_scores_match_high_precision(rng):
    s = rng.uniform(-100.0, 100.0, size=(3, 4))
    plan = init_plan(s)
    with mpmath.workdps(50):
        exps = [[mpmath.e ** mpmath.mpf(float(x)) for x in row] for row in s]
        total = sum(sum(row) for row in exps)
        ref = np.array([[float(x / total) for x in row] for row in exps])
    assert np.allclose(plan, ref, atol=1e-9)


def test_init_plan_shift_overflow_maps_to_zero():
    # -1e308 - 1e308 overflows to -inf, whose exp is exactly 0
    assert np.array_equal(init_plan([[1e308, -1e308]]), [[1.0, 0.0]])


def test_init_plan_rejects_empty():
    with pytest.raises(DataError):
        init_plan(np.zeros((0, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_init_plan_rejects_nonfinite_scores(bad):
    # bad input is a DataError, not a vanished-mass solver failure
    with pytest.raises(DataError, match="non-finite"):
        init_plan(np.array([[bad, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("iterations", [0, 10])
def test_transport_and_scores_leave_their_inputs_unwritten(rng, iterations):
    # the plan is built in the kernel the solve makes, and sinkhorn
    # scales a copy of plan0, which check_array would hand back as is;
    # wide spans rebuild kernels from the scores, which must stay as given
    w, v = unit_rows(rng, 3, 6), unit_rows(rng, 8, 6)
    m = random_marginal(rng, 3)
    s = unwritten(lambda a, b: similarity_matrix(a, b, 0.05), w, v)
    plan0 = init_plan(s)
    unwritten(lambda q, r: sinkhorn(q, r, iterations), plan0, m)
    unwritten(lambda q, r: solve_transport(q, r, iterations), s, m)
    wide = span_scores(rng, 900.0)
    wide[:, 3] -= 900.0  # column 3 has no lead: the kernel absorbs
    unwritten(lambda q, r: solve_transport(q, r, iterations), wide, m)
    unwritten(lambda q, r: transport._solve(q, r, iterations),
               np.stack([s[:, :3], wide[:, :3]]), np.stack([m, m]))


# ---------------------------------------------------------------- residual


def test_marginal_residual_exact():
    values = np.array([[0.2, 0.2], [0.1, 0.5]])
    m = np.array([0.5, 0.5])
    # row sums (0.4, 0.6): gaps 0.1 + 0.1
    assert marginal_residual(values, m) == pytest.approx(0.2, abs=1e-15)
    with pytest.raises(DataError):  # a short marginal must not broadcast
        marginal_residual(np.ones((2, 3)), [1.0])


def test_marginal_residual_accepts_plan(rng):
    s = rng.standard_normal((3, 6))
    m = random_marginal(rng, 3)
    plan = sinkhorn(init_plan(s), m, iterations=5)
    assert marginal_residual(plan, m) == plan.residual


# ---------------------------------------------------------------- balancing


def test_sinkhorn_uniform_everything():
    plan = sinkhorn(init_plan(np.zeros((2, 4))), np.array([0.5, 0.5]),
                    iterations=3)
    assert np.allclose(plan.values, 0.125, atol=1e-14)
    assert plan.residual < 1e-14


def test_sinkhorn_flat_scores_split_rows_by_marginal():
    # flat scores: each column splits its 1/M mass in marginal proportion
    m = np.array([0.75, 0.25])
    plan = sinkhorn(init_plan(np.zeros((2, 4))), m, iterations=200)
    assert np.allclose(plan.values[0], 0.75 / 4.0, atol=1e-12)
    assert np.allclose(plan.values[1], 0.25 / 4.0, atol=1e-12)
    assert np.allclose(plan.values.sum(axis=1), m, atol=1e-12)


@pytest.mark.parametrize("iterations", [0, 1, 3, 10])
def test_column_sums_exact_after_any_round(rng, iterations):
    s = rng.standard_normal((5, 12)) * 4.0
    m = random_marginal(rng, 5)
    plan = sinkhorn(init_plan(s), m, iterations=iterations)
    assert np.allclose(plan.values.sum(axis=0), 1.0 / 12.0, atol=1e-12)


def test_row_residual_shrinks(rng):
    s = rng.standard_normal((4, 20)) * 2.0
    m = random_marginal(rng, 4)
    q0 = init_plan(s)
    few = sinkhorn(q0, m, iterations=1)
    many = sinkhorn(q0, m, iterations=100)
    assert many.residual < few.residual
    assert many.residual < 1e-6


def test_zero_iterations_is_column_softmax(rng):
    s = rng.standard_normal((3, 7))
    m = random_marginal(rng, 3)
    plan = sinkhorn(init_plan(s), m, iterations=0)
    expected = np.exp(s - s.max(axis=0))
    expected = expected / expected.sum(axis=0) / 7.0
    assert np.allclose(plan.values, expected, atol=1e-12)


def test_balanced_plan_shift_invariant(rng):
    # constant and per-row score offsets wash out of the balanced plan
    s = rng.standard_normal((4, 10)) * 3.0
    m = random_marginal(rng, 4)
    base = sinkhorn(init_plan(s), m, iterations=20)
    shifted = sinkhorn(init_plan(s + 55.0), m, iterations=20)
    per_row = sinkhorn(init_plan(s + rng.uniform(-5, 5, size=(4, 1))), m,
                       iterations=20)
    assert np.allclose(base.values, shifted.values, atol=1e-10)
    assert np.allclose(base.values, per_row.values, atol=1e-10)


def test_zero_marginal_row_carries_no_mass(rng):
    s = rng.standard_normal((2, 4))
    plan = sinkhorn(init_plan(s), np.array([1.0, 0.0]), iterations=10)
    assert np.array_equal(plan.values[1], np.zeros(4))
    assert np.allclose(plan.values[0], 0.25, atol=1e-12)


def test_sinkhorn_degenerate_column_raises():
    q0 = np.array([[0.5, 0.0], [0.5, 0.0]])
    with pytest.raises(DegeneratePlanError):
        sinkhorn(q0, np.array([0.5, 0.5]), iterations=3)


@pytest.mark.parametrize("iterations", [0, 1], ids=["column-step-only", "one-round"])
def test_sinkhorn_empty_column_in_last_step_raises(iterations):
    # the last column step has no later row step to catch it
    q0 = np.array([[0.5, 0.0], [0.5, 0.0]])
    with pytest.raises(DegeneratePlanError, match="column"):
        sinkhorn(q0, np.array([0.5, 0.5]), iterations=iterations)


def test_sinkhorn_validation(rng):
    q0 = init_plan(rng.standard_normal((2, 3)))
    m = np.array([0.5, 0.5])
    with pytest.raises(ConfigError):
        sinkhorn(q0, m, iterations=-1)
    with pytest.raises(DataError):
        sinkhorn(q0, np.array([0.5, 0.6]), iterations=1)
    with pytest.raises(DataError):
        sinkhorn(q0, np.array([1.5, -0.5]), iterations=1)
    with pytest.raises(DataError):
        sinkhorn(-q0, m, iterations=1)
    with pytest.raises(DataError):
        sinkhorn(q0, np.array([0.2, 0.3, 0.5]), iterations=1)


# ---------------------------------------------------------------- log-space route


def test_solve_transport_matches_kernel_pipeline(rng):
    for _ in range(25):
        c = int(rng.integers(2, 8))
        mcols = int(rng.integers(2, 30))
        s = rng.standard_normal((c, mcols)) * rng.uniform(0.5, 8.0)
        m = random_marginal(rng, c)
        iters = int(rng.integers(0, 12))
        a = sinkhorn(init_plan(s), m, iterations=iters)
        b = solve_transport(s, m, iterations=iters)
        assert np.allclose(a.values, b.values, rtol=1e-10, atol=1e-300)
        assert b.residual == pytest.approx(a.residual, abs=1e-12)


def test_solve_transport_matches_kernel_with_zero_marginal(rng):
    s = rng.standard_normal((3, 6)) * 2.0
    m = np.array([0.7, 0.0, 0.3])
    a = sinkhorn(init_plan(s), m, iterations=7)
    b = solve_transport(s, m, iterations=7)
    assert np.allclose(a.values, b.values, rtol=1e-10, atol=1e-300)
    assert np.array_equal(b.values[1], np.zeros(6))


def test_solve_transport_survives_huge_score_spans(rng):
    # spans far past exp() range: a globally shifted kernel would
    # underflow to a zero matrix; the row-shifted kernel or log space
    # balances it fine
    s = rng.standard_normal((4, 10)) * 900.0
    m = random_marginal(rng, 4)
    plan = solve_transport(s, m, iterations=10)
    assert np.all(np.isfinite(plan.values))
    assert np.allclose(plan.values.sum(axis=0), 0.1, atol=1e-12)


def test_solve_transport_zero_iterations(rng):
    s = rng.standard_normal((3, 5))
    m = random_marginal(rng, 3)
    plan = solve_transport(s, m, iterations=0)
    expected = np.exp(s - s.max(axis=0))
    expected = expected / expected.sum(axis=0) / 5.0
    assert np.allclose(plan.values, expected, atol=1e-12)


def test_solve_transport_validation(rng):
    s = rng.standard_normal((2, 3))
    m = np.array([0.5, 0.5])
    with pytest.raises(ConfigError):
        solve_transport(s, m, iterations=-2)
    with pytest.raises(DataError):
        solve_transport(np.array([[np.inf, 0.0]]), np.array([1.0]), iterations=1)
    with pytest.raises(DataError):
        solve_transport(s, np.array([0.9, 0.2]), iterations=1)


@pytest.mark.parametrize("mass, refused", [
    (5e-324, True), (np.finfo(float).tiny / 2, True),
    (np.finfo(float).tiny, False), (1e-300, False)],
    ids=["smallest-subnormal", "half-tiny", "tiny", "1e-300"])
def test_a_row_mass_below_the_smallest_normal_float_is_refused(rng, mass, refused):
    # a subnormal mass would leave its retaken row scale zero, so that
    # the second column lands on the first row, where log space puts it
    # on the second; a normal mass, however small, gets log space's plan
    s = np.array([[0.0, -2000.0], [0.0, 0.0]])
    m = np.array([1.0, mass])  # 1 + mass rounds to 1
    sup = random_support(rng, 4, 2, 3, ensure_all_classes=True)
    unl = random_unlabeled(rng, 5, 3)
    cfg = SolverConfig(tau=0.1, marginal_source="oracle")
    if refused:
        with pytest.raises(DataError, match="below the smallest normal float"):
            solve_transport(s, m, iterations=1)
        with pytest.raises(DataError, match="oracle marginal"):
            fit_sstextu(sup, unl, unit_rows(rng, 2, 3), cfg, m)
        return
    np.testing.assert_allclose(solve_transport(s, m, iterations=1).values,
                               _log_space_plan(s, m, 1), rtol=2e-15 * 2000.0, atol=1e-17)
    fit = fit_sstextu(sup, unl, unit_rows(rng, 2, 3), cfg, m)
    assert np.array_equal(fit.marginal, m) and np.all(np.isfinite(fit.prototypes))


# ---------------------------------------------------------------- kernel shifts and absorption


def _log_space_plan(s, m, iterations):
    """The scaling rounds on exp(s) with every factor kept as its log:
    the reference every kernel plan must match."""
    def logsumexp(a, axis):
        top = a.max(axis=axis, keepdims=True)
        top = np.where(np.isfinite(top), top, 0.0)
        with np.errstate(divide="ignore"):
            return np.squeeze(np.log(np.exp(a - top).sum(axis=axis, keepdims=True)) + top,
                              axis=axis)

    log_r, log_c = np.zeros(len(m)), np.zeros(s.shape[1])
    for _ in range(max(iterations, 1)):
        if iterations:
            with np.errstate(divide="ignore"):
                log_r = np.log(m) - logsumexp(s + log_c, axis=1)
        log_c = -np.log(s.shape[1]) - logsumexp(s + log_r[:, None], axis=0)
    return np.exp(log_r[:, None] + s + log_c)


def span_scores(rng, span):
    """Scores in (-300, 300) plus one entry at each of -span/2 and
    span/2, so the score span is exactly ``span`` (halving is exact)."""
    s = rng.uniform(-300.0, 300.0, size=(3, 8))
    s[0, 0], s[2, 7] = -span / 2.0, span / 2.0
    return s


def row_shifted(s):
    """The first kernel of a wide span: each row shifted by its own max."""
    return np.exp(s - s.max(axis=-1, keepdims=True))


def column_shifted(s):
    """The first kernel of a wide span at zero rounds: each column
    shifted by its own max."""
    return np.exp(s - s.max(axis=-2, keepdims=True))


def globally_shifted(s):
    """The kernel of a span within 700: shifted by the global max."""
    return np.exp(s - s.max())


@pytest.fixture
def kernels(monkeypatch):
    """The first kernels ``_scale`` is given, one (B, C, M) array per call."""
    seen = []
    real = transport._scale

    def recording(q, *args):
        seen.append(q.copy())
        return real(q, *args)

    monkeypatch.setattr(transport, "_scale", recording)
    return seen


@pytest.mark.parametrize("span, iterations, kernel", [
    (699.9, 10, globally_shifted), (700.1, 10, row_shifted),
    (699.9, 0, globally_shifted), (700.1, 0, column_shifted)],
    ids=["under-700", "over-700", "under-700-zero-rounds", "over-700-zero-rounds"])
def test_solve_transport_domain_follows_score_span(rng, kernels, span, iterations, kernel):
    # within 700 the kernel is shifted by the global max; past it each
    # row by its own max, or at zero rounds each column, the shift the
    # first step absorbs; either way the plan is the explicit kernel's
    s = span_scores(rng, span)
    assert np.ptp(s) == span
    m = random_marginal(rng, 3)
    reference = sinkhorn(init_plan(s), m, iterations=iterations)
    plan = solve_transport(s, m, iterations=iterations)
    assert np.array_equal(kernels[-1][0], kernel(s))
    np.testing.assert_allclose(plan.values, reference.values, rtol=1e-12, atol=0)


def test_solve_transport_wide_span_with_column_leads_takes_the_row_shifted_kernel(rng):
    # every row and column max is within 10 of the global max, but one
    # entry sits 800 below it: the row-shifted kernel flushes that entry
    # to zero, and log space finds it no mass either
    s = rng.uniform(-5.0, 5.0, size=(3, 4))
    s[1, 2] = -800.0
    m = random_marginal(rng, 3)
    plan = solve_transport(s, m, iterations=10)
    assert plan.values[1, 2] == 0.0
    np.testing.assert_allclose(plan.values, _log_space_plan(s, m, 10), rtol=1e-12, atol=0)
    assert np.allclose(plan.values.sum(axis=0), 0.25, atol=1e-12)


@pytest.mark.parametrize("span", [750.0, 900.0, 1200.0])
def test_row_shifted_plan_matches_log_space(rng, span):
    s = span_scores(rng, span)
    s[1] += 250.0  # rows at different heights
    m = random_marginal(rng, 3)
    plan = solve_transport(s, m, iterations=10)
    assert np.ptp(s) > 700
    # the entries more than ~745 below their row max flush to zero; log
    # space keeps them, at a mass far below any roundoff of the plan
    np.testing.assert_allclose(plan.values, _log_space_plan(s, m, 10), rtol=1e-12,
                               atol=1e-150)


def test_wide_span_without_a_column_lead_is_balanced(rng, kernels):
    # column 3 sits 900 below every row's max: the row-shifted kernel
    # flushes it whole, so the first column step fails and the element
    # absorbs its row scales and shifts each column to a lead of 1
    s = rng.uniform(-5.0, 5.0, size=(3, 6))
    s[:, 3] -= 900.0
    m = random_marginal(rng, 3)
    plan = solve_transport(s, m, iterations=10)
    assert np.array_equal(kernels[0][0][:, 3], np.zeros(3))
    np.testing.assert_allclose(plan.values, _log_space_plan(s, m, 10), rtol=1e-12, atol=0)
    assert np.allclose(plan.values.sum(axis=0), 1.0 / 6.0, atol=1e-12)
    assert np.all(plan.values[:, 3] > 0)


def test_wide_span_at_zero_iterations_is_the_column_softmax(rng):
    s = span_scores(rng, 900.0)
    m = random_marginal(rng, 3)
    plan = solve_transport(s, m, iterations=0)
    expected = np.exp(s - s.max(axis=0))
    expected = expected / expected.sum(axis=0) / 8.0
    np.testing.assert_allclose(plan.values, expected, rtol=1e-12, atol=0)
    np.testing.assert_allclose(plan.values, _log_space_plan(s, m, 0), rtol=1e-12, atol=0)


def test_narrow_elements_keep_the_global_shift_beside_wide_ones(rng, kernels):
    # in a batch with a row-shifted element, each narrow element is
    # bitwise the _scale of its own exp(s - s.max())
    s = np.stack([span_scores(rng, span) for span in (650.0, 900.0, 20.0)])
    m = np.stack([random_marginal(rng, 3) for _ in range(3)])
    values, _ = transport._solve(s, m, 10)
    assert np.array_equal(kernels[0], np.stack([globally_shifted(s[0]), row_shifted(s[1]),
                                                globally_shifted(s[2])]))
    for b in (0, 2):
        alone = transport._scale(globally_shifted(s[b])[None], m[b][None], 10)
        assert np.array_equal(values[b], alone[0])


def test_row_shifted_element_whose_flushed_entries_could_carry_mass_absorbs():
    # entry (0, 1) sits 800 below its row max, and row 1 cannot fill
    # column 1: converged, that entry carries 0.4. After 400 rounds the
    # scales have grown far past exp(700), so the flushed kernel entry
    # would not be negligible; absorbing the scales into the shifts
    # brings it back into the kernel, as log space has it
    s = np.array([[0.0, -800.0], [-1000.0, 0.0]])
    m = np.array([0.9, 0.1])
    plan = solve_transport(s, m, iterations=400)
    assert plan.values[0, 1] == pytest.approx(0.4, abs=1e-6)
    np.testing.assert_allclose(plan.values, _log_space_plan(s, m, 400), rtol=1e-12,
                               atol=1e-300)
    plan = solve_transport(s, m, iterations=10)
    np.testing.assert_allclose(plan.values, _log_space_plan(s, m, 10), rtol=1e-12,
                               atol=1e-300)


def test_solve_transport_vanishing_kernel_denominator_falls_back(rng, monkeypatch):
    s = rng.standard_normal((3, 6)) * 4.0
    m = random_marginal(rng, 3)
    kernel_plan = solve_transport(s, m, iterations=10)
    real = transport._scale

    def empty_row(q, *args):
        q = q.copy()
        q[:, 1] = 0.0  # the first row step's denominator vanishes
        return real(q, *args)

    monkeypatch.setattr(transport, "_scale", empty_row)
    plan = solve_transport(s, m, iterations=10)
    # the element absorbed, rebuilt its kernel from the scores and
    # retook the step
    np.testing.assert_allclose(plan.values, kernel_plan.values, rtol=1e-12, atol=0)
    np.testing.assert_allclose(plan.values, _log_space_plan(s, m, 10), rtol=1e-12, atol=0)
    with pytest.raises(DegeneratePlanError, match="row"):
        empty_row(np.exp(s)[None], m[None], 10)  # without scores it cannot


def test_kernel_route_scaling_rebuilds_values_from_exp_scores(rng):
    # a +300 offset: the kernel is exp(s - s.max()), and the shift
    # leaves the plan that of the explicit normalized kernel
    s = rng.standard_normal((3, 6)) * 3.0 + 300.0
    m = random_marginal(rng, 3)
    plan = solve_transport(s, m, iterations=8)
    reference = sinkhorn(init_plan(s), m, iterations=8)
    np.testing.assert_allclose(plan.values, reference.values, rtol=1e-12, atol=0)


@pytest.mark.parametrize("build", [
    lambda s: s * 2.0,
    lambda s: s * 2.0 + np.array([[800.0], [0.0], [0.0]]),
    lambda s: s * 2.0 - np.array([0, 0, 0, 900.0, 0, 0])],
    ids=["kernel", "row-shifted", "log"])
def test_zero_marginal_row_carries_no_mass_in_either_domain(rng, build):
    # "log": column 3 sits 900 below every row's max, so the kernel
    # reaches it only by absorbing its scales into the shifts
    s = build(rng.standard_normal((3, 6)))
    m = np.array([0.7, 0.0, 0.3])
    plan = solve_transport(s, m, iterations=7)
    assert np.array_equal(plan.values[1], np.zeros(6))
    assert np.allclose(plan.values.sum(axis=0), 1.0 / 6.0, atol=1e-12)
    np.testing.assert_allclose(plan.values, _log_space_plan(s, m, 7), rtol=1e-12, atol=0)


def test_batched_solve_gives_each_element_its_own_plan(rng, monkeypatch):
    # a narrow element; a wide one without a column lead; a narrow and a
    # wide one whose first row step fails (the spy zeroes a row of
    # their first kernels); and a wide one whose kernel holds
    kernel_ok, no_lead, kernel_fails, wide_fails, wide_ok = (
        span_scores(rng, span) for span in (650.0, 900.0, 600.0, 800.0, 1000.0))
    no_lead[:, 4] -= 1500.0
    s = np.stack([kernel_ok, no_lead, kernel_fails, wide_fails, wide_ok])
    m = np.stack([random_marginal(rng, 3) for _ in range(5)])
    failing = [globally_shifted(kernel_fails), row_shifted(wide_fails)]
    real = transport._scale

    def empty_row(q, *args):
        q = q.copy()
        for element in q:
            if any(np.array_equal(element, kernel) for kernel in failing):
                element[1] = 0.0
        return real(q, *args)

    monkeypatch.setattr(transport, "_scale", empty_row)
    values, _ = transport._solve(s, m, 10)
    for b in range(5):
        assert np.array_equal(values[b], solve_transport(s[b], m[b], iterations=10).values)
        np.testing.assert_allclose(values[b], _log_space_plan(s[b], m[b], 10), rtol=1e-12,
                                   atol=1e-150)


def test_batched_solve_absorbs_an_organic_kernel_failure(rng):
    # spans under 700 start every element from the global shift; the
    # middle element's 1e-300 row mass drives its row scale to zero
    # there, so it alone absorbs and retakes the step
    s = rng.uniform(0.0, 400.0, (3, 2, 8))
    m = np.array([[0.6, 0.4], [1.0, 1e-300], [0.3, 0.7]])
    with pytest.raises(DegeneratePlanError):
        transport._scale(globally_shifted(s[1])[None], m[1][None], 10)
    values, _ = transport._solve(s, m, 10)
    for b in range(3):
        assert np.array_equal(values[b], solve_transport(s[b], m[b], iterations=10).values)
        np.testing.assert_allclose(values[b], _log_space_plan(s[b], m[b], 10), rtol=1e-12,
                                   atol=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batched_solve_scales_no_non_finite_kernel(rng, monkeypatch, bad):
    # an element whose scores hold a NaN or an infinity is masked; it
    # scales a kernel of ones, so no step of it fails, absorbs and is
    # retaken, and its neighbours keep the plans they get alone
    s = rng.uniform(0.0, 50.0, (3, 3, 8))
    s[1, 2, 5] = bad
    m = np.stack([random_marginal(rng, 3) for _ in range(3)])
    steps = []
    real = transport._row_step

    def row_step(q, *args):
        steps.append(len(q))
        return real(q, *args)

    monkeypatch.setattr(transport, "_row_step", row_step)
    values, masked = transport._solve(s, m, 10)
    assert steps == [3] * 10
    assert masked.tolist() == [False, True, False]
    assert np.all(np.isfinite(values))
    for b in (0, 2):
        assert np.array_equal(values[b], solve_transport(s[b], m[b], iterations=10).values)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 6), cols=st.integers(2, 30),
       span=st.floats(0.0, 6000.0), noise=st.floats(0.5, 400.0),
       iterations=st.integers(0, 12),
       exponents=st.lists(st.floats(-300.0, 0.0), min_size=6, max_size=6))
def test_kernel_plans_match_log_space_wherever_the_kernel_held(seed, rows, cols, span, noise,
                                                              iterations, exponents):
    # rows at heights spread over the span, each with its own noise:
    # spans on both sides of 700, columns with and without a lead, and
    # tiny marginals that fail the scales and make them absorb
    rng = np.random.default_rng(seed)
    heights = rng.uniform(0.0, span, rows)
    heights[:2] = 0.0, span
    s = heights[:, None] + noise * rng.standard_normal((rows, cols))
    m = 10.0 ** np.array(exponents[:rows])
    m /= m.sum()
    values = transport._solve(s[None], m[None], iterations)[0][0]
    # exponents round in proportion to the span; below a span of 10 the
    # rounding of the rounds' own arithmetic (a few ulps each) dominates
    np.testing.assert_allclose(values, _log_space_plan(s, m, iterations),
                               rtol=2e-15 * max(np.ptp(s), 10.0), atol=1e-17)


# ---------------------------------------------------------------- codes


def test_extract_pseudolabels_column_renormalization():
    codes, empty = transport._class_codes(np.array([[0.1], [0.15]]))
    assert not empty
    assert np.allclose(codes, [[0.4], [0.6]], atol=1e-12)


def test_extract_pseudolabels_rows_sum_to_one(rng):
    s = rng.standard_normal((4, 9)) * 3.0
    plan = solve_transport(s, random_marginal(rng, 4), iterations=6)
    codes, _ = transport._class_codes(plan.values.copy())  # it writes over its argument
    assert codes.shape == (4, 9)
    assert np.allclose(codes.sum(axis=0), 1.0, atol=1e-12)
    assert (codes >= 0.0).all()


def test_extract_pseudolabels_uniform_plan(rng):
    plan = sinkhorn(np.full((4, 6), 1.0 / 24.0), np.full(4, 0.25), iterations=2)
    codes, _ = transport._class_codes(plan.values.copy())
    assert np.allclose(codes, 0.25, atol=1e-12)


def test_class_codes_are_written_over_the_plan(rng):
    values = solve_transport(rng.standard_normal((3, 5)), random_marginal(rng, 3)).values
    expected = values / values.sum(axis=0)
    plan = values.copy()
    codes, _ = transport._class_codes(plan)
    assert codes is plan
    assert np.array_equal(codes, expected)


def test_extract_pseudolabels_reports_each_plan_with_an_empty_column():
    # the codes of a plan with an empty column are undefined: its
    # division sets the invalid flag, and the mask names it
    plans = np.array([[[0.5, 0.0], [0.5, 0.0]], [[0.2, 0.1], [0.3, 0.4]]])
    with np.errstate(invalid="ignore"):
        codes, empty = transport._class_codes(plans.copy())
    assert empty.tolist() == [True, False]
    assert np.array_equal(codes[1], plans[1] / plans[1].sum(axis=0))


# ---------------------------------------------------------------- quality


def test_balancing_keeps_score_mass_at_implied_marginal(rng):
    # when the target marginal already matches the unbalanced plan's row
    # sums, the balanced plan converges back to that same plan, so the
    # linear score mass tr(Q^T S) survives balancing; modest score spans
    # keep ten rounds well inside convergence
    for _ in range(25):
        s = rng.standard_normal((3, 8)) * 0.25
        free = solve_transport(s, np.full(3, 1.0 / 3.0), iterations=0)
        implied = free.values.sum(axis=1)
        balanced = solve_transport(s, implied / implied.sum(), iterations=10)
        assert (balanced.values * s).sum() >= (free.values * s).sum() - 1e-9


def test_balancing_restores_row_feasibility(rng):
    # on general instances the contract is feasibility: the balanced plan
    # approaches the requested row marginal that the unbalanced one ignores
    for _ in range(10):
        s = rng.standard_normal((4, 12)) * 2.0
        m = random_marginal(rng, 4)
        free = solve_transport(s, m, iterations=0)
        balanced = solve_transport(s, m, iterations=50)
        assert balanced.residual < free.residual
        assert balanced.residual < 1e-6
