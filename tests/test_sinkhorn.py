import mpmath
import numpy as np
import pytest

from semishot import (
    ConfigError,
    DataError,
    DegeneratePlanError,
    init_plan,
    marginal_residual,
    similarity_matrix,
    sinkhorn,
    solve_transport,
)
from semishot import transport

from conftest import unit_rows


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


def test_init_plan_rejects_empty():
    with pytest.raises(DataError):
        init_plan(np.zeros((0, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_init_plan_rejects_nonfinite_scores(bad):
    # bad input is a DataError, not a vanished-mass solver failure
    with pytest.raises(DataError, match="non-finite"):
        init_plan(np.array([[bad, 0.0], [0.0, 1.0]]))


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
    # spans far past exp() range: the kernel route would underflow to a
    # zero matrix, the score-space route balances it fine
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


# ---------------------------------------------------------------- domain choice


@pytest.fixture
def routes(monkeypatch):
    """The scaling helpers solve_transport runs, in call order."""
    seen = []
    for name in ("_scale", "_scale_log"):
        real = getattr(transport, name)

        def spy(*args, _real=real, _name=name):
            seen.append(_name)
            return _real(*args)

        monkeypatch.setattr(transport, name, spy)
    return seen


def span_scores(rng, span):
    """Scores in (-300, 300) plus one entry at each of -span/2 and
    span/2, so the score span is exactly ``span`` (halving is exact)."""
    s = rng.uniform(-300.0, 300.0, size=(3, 8))
    s[0, 0], s[2, 7] = -span / 2.0, span / 2.0
    return s


@pytest.mark.parametrize("span, route", [(699.9, ["_scale"]), (700.1, ["_scale_log"])],
                         ids=["under-700", "over-700"])
def test_solve_transport_domain_follows_score_span(rng, routes, span, route):
    s = span_scores(rng, span)
    assert np.ptp(s) == span
    m = random_marginal(rng, 3)
    reference = sinkhorn(init_plan(s), m, iterations=10)
    routes.clear()
    plan = solve_transport(s, m, iterations=10)
    assert routes == route
    np.testing.assert_allclose(plan.values, reference.values, rtol=1e-12, atol=0)


def test_solve_transport_span_rule_ignores_row_and_column_maxima(rng, routes):
    # every row and column max is within 10 of the global max, but one
    # entry sits 800 below it: the span alone sends this to log space
    s = rng.uniform(-5.0, 5.0, size=(3, 4))
    s[1, 2] = -800.0
    plan = solve_transport(s, random_marginal(rng, 3), iterations=10)
    assert routes == ["_scale_log"]
    assert np.allclose(plan.values.sum(axis=0), 0.25, atol=1e-12)


def test_solve_transport_vanishing_kernel_denominator_falls_back(rng, routes, monkeypatch):
    s = rng.standard_normal((3, 6)) * 4.0
    m = random_marginal(rng, 3)
    kernel_plan = solve_transport(s, m, iterations=10)
    real = transport._scale

    def empty_column(q, *args):
        q = q.copy()
        q[:, 2] = 0.0  # the column step's denominator vanishes
        return real(q, *args)

    monkeypatch.setattr(transport, "_scale", empty_column)
    routes.clear()
    plan = solve_transport(s, m, iterations=10)
    assert routes == ["_scale", "_scale_log"]  # the kernel loop raised, then log space
    np.testing.assert_allclose(plan.values, kernel_plan.values, rtol=1e-12, atol=0)
    with pytest.raises(DegeneratePlanError):
        empty_column(np.exp(s), m, 10)


def test_kernel_route_scaling_rebuilds_values_from_exp_scores(rng, routes):
    # a +300 offset: the kernel route scales exp(s - s.max()), and the
    # shift leaves the plan that of the explicit normalized kernel
    s = rng.standard_normal((3, 6)) * 3.0 + 300.0
    m = random_marginal(rng, 3)
    plan = solve_transport(s, m, iterations=8)
    assert routes == ["_scale"]
    reference = sinkhorn(init_plan(s), m, iterations=8)
    np.testing.assert_allclose(plan.values, reference.values, rtol=1e-12, atol=0)


@pytest.mark.parametrize("scale, route", [(2.0, ["_scale"]), (900.0, ["_scale_log"])],
                         ids=["kernel", "log"])
def test_zero_marginal_row_carries_no_mass_in_either_domain(rng, routes, scale, route):
    s = rng.standard_normal((3, 6)) * scale
    plan = solve_transport(s, np.array([0.7, 0.0, 0.3]), iterations=7)
    assert routes == route
    assert np.array_equal(plan.values[1], np.zeros(6))
    assert np.allclose(plan.values.sum(axis=0), 1.0 / 6.0, atol=1e-12)


def test_batched_solve_gives_each_element_its_own_plan(rng, routes, monkeypatch):
    # one element under the 700 span, one over it, and one whose kernel
    # scaling fails: the spy zeroes a column of that element's kernel
    kernel_ok, over, kernel_fails = (span_scores(rng, span) for span in (650.0, 900.0, 600.0))
    s = np.stack([kernel_ok, over, kernel_fails])
    m = np.stack([random_marginal(rng, 3) for _ in range(3)])
    failing_kernel = np.exp(kernel_fails - kernel_fails.max())
    real = transport._scale

    def empty_column(q, *args):
        q = q.copy()
        for element in q.reshape((-1,) + q.shape[-2:]):
            if np.array_equal(element, failing_kernel):
                element[:, 2] = 0.0
        return real(q, *args)

    monkeypatch.setattr(transport, "_scale", empty_column)
    routes.clear()
    values = transport._solve(s, m, 10)
    # the kernel batch raised; alone, only the failing element falls back,
    # and the log route scales both of its elements at once
    assert routes == ["_scale", "_scale", "_scale", "_scale_log"]
    for b, expected in enumerate([["_scale"], ["_scale_log"], ["_scale", "_scale_log"]]):
        routes.clear()
        plan = solve_transport(s[b], m[b], iterations=10)
        assert routes == expected
        assert np.array_equal(values[b], plan.values)


# ---------------------------------------------------------------- codes


def test_extract_pseudolabels_column_renormalization():
    codes = transport._class_codes(np.array([[0.1], [0.15]]))
    assert np.allclose(codes, [[0.4], [0.6]], atol=1e-12)


def test_extract_pseudolabels_rows_sum_to_one(rng):
    s = rng.standard_normal((4, 9)) * 3.0
    plan = solve_transport(s, random_marginal(rng, 4), iterations=6)
    codes = transport._class_codes(plan.values)
    assert codes.shape == (4, 9)
    assert np.allclose(codes.sum(axis=0), 1.0, atol=1e-12)
    assert (codes >= 0.0).all()


def test_extract_pseudolabels_uniform_plan(rng):
    plan = sinkhorn(np.full((4, 6), 1.0 / 24.0), np.full(4, 0.25), iterations=2)
    codes = transport._class_codes(plan.values)
    assert np.allclose(codes, 0.25, atol=1e-12)


def test_extract_pseudolabels_empty_column_raises():
    with pytest.raises(DegeneratePlanError):
        transport._class_codes(np.array([[0.5, 0.0], [0.5, 0.0]]))


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
