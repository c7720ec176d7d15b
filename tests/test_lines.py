import math

import numpy as np
import pytest

from compound_bc import lines
from compound_bc.becbsc import BecBscParams, alpha0_solve
from compound_bc.lines import (
    F0_closed,
    SupportingLineEval,
    _design_fields,
    _lagrangian_search,
    canonical_designs,
    d_a_curve,
    default_lambda_grid,
    evaluate_supporting_lines,
    invert_decreasing,
    sample_t_a,
    t0_closed,
    t1_closed,
    t1_inverse,
)


def h2(x):
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def star(a, b):
    return a + b - 2 * a * b


PARAMS = BecBscParams()
X_MAX = 1 - h2(PARAMS.p)
KINK = (1 - PARAMS.e2) / (1 - h2(PARAMS.p))
SMALL = (120, 200)  # restarts, iterations for fast stochastic checks


# ---------------------------------------------------------------------------
# closed-form curves


def test_t1_closed_endpoints_and_roundtrip():
    assert t1_closed(PARAMS, 0.0) == pytest.approx(1 - h2(PARAMS.p1), abs=1e-9)
    assert t1_closed(PARAMS, X_MAX) == pytest.approx(0.0, abs=1e-9)
    # the curve is traced by a single crossover: budget and value at 0.3
    x = h2(star(PARAMS.p, 0.3)) - h2(PARAMS.p)
    assert t1_closed(PARAMS, x) == pytest.approx(
        1 - h2(star(PARAMS.p1, 0.3)), abs=1e-9)
    xs = np.linspace(0.0, X_MAX, 41)
    vals = t1_closed(PARAMS, xs)
    assert vals.shape == xs.shape
    assert np.all(np.diff(vals) < 0)
    with pytest.raises(ValueError, match="outside"):
        t1_closed(PARAMS, 1.5 * X_MAX)


def test_t1_closed_names_the_first_out_of_range_budget():
    xs = np.linspace(0.0, X_MAX, 9)
    xs[5] = 1.25 * X_MAX
    xs[7] = -0.5
    with pytest.raises(ValueError, match=f"x={xs[5]} outside"):
        t1_closed(PARAMS, xs)
    with pytest.raises(ValueError, match="x=-0.5 outside"):
        t1_closed(PARAMS, xs[6:].reshape(1, 3))


def test_t1_inverse_roundtrip():
    rates = np.linspace(0.01, 1 - h2(PARAMS.p1) - 0.01, 17)
    xs = t1_inverse(PARAMS, rates)
    assert np.allclose(t1_closed(PARAMS, xs), rates, atol=1e-9)
    assert float(t1_inverse(PARAMS, 1 - h2(PARAMS.p1))) == pytest.approx(
        0.0, abs=1e-9)
    with pytest.raises(ValueError, match="outside"):
        t1_inverse(PARAMS, 1 - h2(PARAMS.p1) + 1e-3)


def test_t0_closed_is_the_full_budget_chord():
    assert t0_closed(PARAMS, 0.0) == pytest.approx(1 - PARAMS.e2, abs=1e-12)
    assert t0_closed(PARAMS, X_MAX) == pytest.approx(0.0, abs=1e-12)
    mid = t0_closed(PARAMS, X_MAX / 2)
    assert mid == pytest.approx((1 - PARAMS.e2) / 2, abs=1e-12)
    with pytest.raises(ValueError, match="outside"):
        t0_closed(PARAMS, -0.1)


def test_F0_closed_two_branches_meet_at_the_kink():
    flat = F0_closed(PARAMS, 0.5 * KINK)
    assert flat == pytest.approx(1 - PARAMS.e2, abs=1e-12)
    steep = F0_closed(PARAMS, 2 * KINK)
    assert steep == pytest.approx(2 * KINK * (1 - h2(PARAMS.p)), abs=1e-12)
    assert F0_closed(PARAMS, KINK) == pytest.approx(1 - PARAMS.e2, abs=1e-12)
    with pytest.raises(ValueError, match="nonnegative"):
        F0_closed(PARAMS, -0.2)


# ---------------------------------------------------------------------------
# supporting-line envelope container


def test_envelope_with_exact_intercepts_reproduces_the_chord():
    # a grid containing the exact kink makes the envelope of the closed-form
    # intercepts collapse onto the a=0 chord
    grid = np.array([0.0, 0.5, KINK, 2.0, 5.0])
    f_vals = np.array([F0_closed(PARAMS, lam) for lam in grid])
    xs = np.linspace(0.0, X_MAX, 33)
    ev = SupportingLineEval(0.0, grid, f_vals, xs)
    assert np.allclose(ev.t_values, t0_closed(PARAMS, xs), atol=1e-12)
    assert np.all(np.diff(ev.t_values) <= 1e-15)
    assert isinstance(ev.envelope(0.2), float)
    assert ev.envelope(np.array([[0.1, 0.2]])).shape == (1, 2)


def test_supporting_line_eval_validation():
    grid = np.array([0.0, 1.0])
    f_vals = np.array([0.5, 0.9])
    xs = np.array([0.0, 0.1])
    with pytest.raises(ValueError, match="weight"):
        SupportingLineEval(1.2, grid, f_vals, xs)
    with pytest.raises(ValueError, match="nonnegative"):
        SupportingLineEval(0.5, np.array([-1.0, 1.0]), f_vals, xs)
    with pytest.raises(ValueError, match="match the lambda grid"):
        SupportingLineEval(0.5, grid, np.array([0.5]), xs)


def test_canonical_design_families_are_input_uniform():
    pq, bx = canonical_designs(n=101)
    marginal = np.sum(pq * bx, axis=1)
    assert np.allclose(marginal, 0.5, atol=1e-12)
    assert pq.shape == bx.shape and pq.shape[0] == 202


# ---------------------------------------------------------------------------
# constrained brute-force search


def _capture_argmax_points(monkeypatch):
    """Record the argmax points of every search `lines` runs."""
    points = []
    real = lines.maximize

    def recording(objective, spec, equality=None):
        found = real(objective, spec, equality=equality)
        points.extend(found)
        return found

    monkeypatch.setattr(lines, "maximize", recording)
    return points


def test_brute_force_zero_budget_hits_the_no_leak_corner(monkeypatch):
    a = 0.7
    points = _capture_argmax_points(monkeypatch)
    value, = sample_t_a(a, PARAMS, [0.0], search_budget=(400, 400), seed=2)
    expected = a * (1 - h2(PARAMS.p1)) + (1 - a) * (1 - PARAMS.e2)
    assert value == pytest.approx(expected, abs=5e-3)
    pq, bx, _ = _design_fields(np.array(points))
    assert np.sum(pq * bx, axis=1) == pytest.approx([0.5], abs=1e-4)


def test_brute_force_tracks_first_instance_curve():
    for x in (0.1, 0.3):
        value, = sample_t_a(1.0, PARAMS, [x], search_budget=(400, 400),
                            seed=3)
        assert value == pytest.approx(t1_closed(PARAMS, x), abs=5e-3)


def test_brute_force_tracks_second_instance_chord():
    for x in (0.1, 0.4):
        value, = sample_t_a(0.0, PARAMS, [x], search_budget=(400, 400),
                            seed=4)
        assert value == pytest.approx(t0_closed(PARAMS, x), abs=5e-3)


def test_brute_force_is_deterministic_for_a_seed(monkeypatch):
    runs = []
    for _ in range(2):
        points = _capture_argmax_points(monkeypatch)
        value = sample_t_a(0.6, PARAMS, [0.25], search_budget=SMALL, seed=9)
        runs.append((value, np.array(points)))
        monkeypatch.undo()
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def test_brute_force_rejects_bad_arguments():
    with pytest.raises(ValueError, match="outside"):
        sample_t_a(0.5, PARAMS, [-0.01], search_budget=SMALL)
    with pytest.raises(ValueError, match="outside"):
        sample_t_a(0.5, PARAMS, [X_MAX + 0.01], search_budget=SMALL)
    with pytest.raises(ValueError, match="weight"):
        sample_t_a(1.2, PARAMS, [0.1], search_budget=SMALL)


def _count_design_fields(monkeypatch):
    calls = []
    real = lines._design_fields

    def counting(theta):
        calls.append(theta)
        return real(theta)

    monkeypatch.setattr(lines, "_design_fields", counting)
    return calls


def test_constrained_step_evaluates_each_batch_once(monkeypatch):
    baseline = sample_t_a(1.0, PARAMS, [0.1], search_budget=(16, 60), seed=0)
    calls = _count_design_fields(monkeypatch)
    value = sample_t_a(1.0, PARAMS, [0.1], search_budget=(16, 60), seed=0)
    # iterations + 4 objective batches (start, two stage starts, final
    # filter) and the argmax re-score; the residual of each batch reuses
    # the objective's evaluation
    assert len(calls) <= 60 + 5
    assert np.array_equal(value, baseline)


def test_residual_recomputes_unless_given_the_scored_array(monkeypatch):
    x = 0.1
    probes = []

    def probing_maximize(objective, spec, equality=None):
        rng = np.random.default_rng(3)
        P = rng.uniform(-4.0, 4.0, (spec.restarts, 6))
        Q = rng.uniform(-4.0, 4.0, (spec.restarts, 6))

        def fresh(theta):
            pq, bx, excess = real_fields(theta)
            _, _, ixz = lines._mutual_informations(pq, bx, PARAMS)
            return np.abs(ixz - x) + 10.0 * excess

        calls = _count_design_fields(monkeypatch)
        objective(P)
        assert len(calls) == 1
        assert np.array_equal(equality(P), fresh(P))  # shared evaluation
        assert len(calls) == 1
        assert np.array_equal(equality(P), fresh(P))  # kept values used once
        assert len(calls) == 2
        objective(P)
        assert np.array_equal(equality(P.copy()), fresh(P))  # another object
        objective(P)
        assert np.array_equal(equality(Q), fresh(Q))  # another batch
        probes.append(len(calls))
        monkeypatch.undo()
        return real_maximize(objective, spec, equality=equality)

    real_maximize, real_fields = lines.maximize, lines._design_fields
    monkeypatch.setattr(lines, "maximize", probing_maximize)
    value, = sample_t_a(1.0, PARAMS, [x], search_budget=(16, 60), seed=0)
    assert probes == [6]
    assert np.isfinite(value)


def test_sample_t_a_returns_one_value_per_budget():
    xs = np.array([0.1, 0.3])
    vals = sample_t_a(1.0, PARAMS, xs, search_budget=SMALL, seed=5)
    assert vals.shape == xs.shape
    assert np.all(np.isfinite(vals))


# ---------------------------------------------------------------------------
# Lagrangian intercepts


def lagrangian_values(a, lambdas, search_budget, seeds):
    """F_a at each multiplier: the Lagrangian scored at its argmax point."""
    points = _lagrangian_search(a, lambdas, PARAMS, search_budget, seeds)
    pq, bx, _ = _design_fields(points)
    i1, i2, ixz = lines._mutual_informations(pq, bx, PARAMS)
    return a * i1 + (1.0 - a) * i2 + np.asarray(lambdas) * ixz


def test_F_a_at_zero_multiplier_is_the_unconstrained_peak():
    a = 0.7
    values = lagrangian_values(a, [0.0], (300, 300), [6])
    expected = a * (1 - h2(PARAMS.p1)) + (1 - a) * (1 - PARAMS.e2)
    assert values[0] == pytest.approx(expected, abs=5e-3)


def test_F_a_matches_closed_intercepts_on_the_second_instance():
    lams = (0.5, 2.0)
    values = lagrangian_values(0.0, lams, (300, 300), [7, 7])
    for lam, value in zip(lams, values):
        assert value == pytest.approx(F0_closed(PARAMS, lam), abs=5e-3)
    with pytest.raises(ValueError, match="nonnegative"):
        evaluate_supporting_lines(0.5, PARAMS, [-1.0], search_budget=SMALL)


def test_F_a_is_midpoint_convex_up_to_search_noise():
    vals = lagrangian_values(0.4, (0.2, 0.6, 1.0), (300, 300), [8, 8, 8])
    assert vals[1] <= (vals[0] + vals[2]) / 2 + 5e-3


# ---------------------------------------------------------------------------
# envelope upper curve vs direct search


def test_upper_curve_reproduces_second_instance_chord_exactly():
    grid = np.array([0.0, 0.5, KINK, 2.0])
    ev = evaluate_supporting_lines(0.0, PARAMS, grid, search_budget=(8, 100),
                                   seed=1)
    for x in (0.0, 0.2, 0.45):
        assert ev.envelope(x) == pytest.approx(t0_closed(PARAMS, x), abs=1e-9)


def test_upper_curve_dominates_direct_search():
    grid = np.arange(0.0, 3.0001, 0.05)
    a = 0.65
    ev = evaluate_supporting_lines(a, PARAMS, grid, search_budget=(16, 120),
                                   seed=2)
    for x in (0.1, 0.25, 0.45):
        direct, = sample_t_a(a, PARAMS, [x], search_budget=(400, 400),
                             seed=12)
        assert direct <= ev.envelope(x) + 5e-3


def test_upper_curve_repeat_calls_return_identical_envelopes():
    grid = default_lambda_grid()[:301]
    first, second = (evaluate_supporting_lines(0.5, PARAMS, grid,
                                               search_budget=(4, 60), seed=3)
                     for _ in range(2))
    assert first.envelope(0.2) == second.envelope(0.2)
    assert np.array_equal(first.f_values, second.f_values)


def test_evaluate_supporting_lines_envelope_is_decreasing():
    grid = np.arange(0.0, 2.5001, 0.1)
    ev = evaluate_supporting_lines(0.8, PARAMS, grid, search_budget=(8, 80),
                                   seed=4)
    assert np.array_equal(ev.xs, np.linspace(0.0, X_MAX, 65))
    assert np.all(np.diff(ev.t_values) <= 1e-12)
    assert ev.f_values.shape == grid.shape


# ---------------------------------------------------------------------------
# curve shape of the weighted optimum


def test_weighted_curve_is_decreasing_and_midpoint_concave():
    a = 0.6
    xs = (0.05, 0.25, 0.45)
    vals = [sample_t_a(a, PARAMS, [x], search_budget=(500, 400),
                       seed=10 + i)[0]
            for i, x in enumerate(xs)]
    assert vals[0] >= vals[1] - 5e-3
    assert vals[1] >= vals[2] - 5e-3
    assert vals[1] >= (vals[0] + vals[2]) / 2 - 5e-3


# ---------------------------------------------------------------------------
# curve inversion


def test_invert_decreasing_on_exact_curves():
    xs = np.linspace(0.0, 1.0, 401)
    line = 1 - xs
    parabola = (1 - xs) ** 2
    rates = np.array([0.49, 0.25, 0.09])
    assert np.allclose(invert_decreasing(xs, line, rates),
                       1 - rates, atol=1e-12)
    assert np.allclose(invert_decreasing(xs, parabola, rates),
                       1 - np.sqrt(rates), atol=1e-12)


def test_invert_decreasing_survives_small_noise():
    rng = np.random.default_rng(31)
    xs = np.linspace(0.0, 1.0, 201)
    noisy = 1 - xs + rng.uniform(-1e-6, 1e-6, xs.size)
    rates = np.array([0.3, 0.5, 0.7])
    assert np.allclose(invert_decreasing(xs, noisy, rates),
                       1 - rates, atol=1e-4)


# ---------------------------------------------------------------------------
# normalized difference of inverted curves


def r1_domain_top(params):
    return 1 - h2(star(params.p1, alpha0_solve(params)))


def test_d_a_rejects_rates_outside_the_domain():
    top = r1_domain_top(PARAMS)
    with pytest.raises(ValueError, match="strictly inside"):
        d_a_curve(0.92, PARAMS, np.array([0.0, 0.01]))
    with pytest.raises(ValueError, match="strictly inside"):
        d_a_curve(0.92, PARAMS, np.array([0.01, top]))


def test_d_a_is_identically_zero_when_curves_coincide():
    rates = np.linspace(0.2, 0.8, 5) * r1_domain_top(PARAMS)
    d = d_a_curve(1.0, PARAMS, rates)
    assert d.shape == rates.shape
    assert np.all(d == 0.0)


def test_d_a_brute_is_positive_and_normalized():
    # the full rate window, with the largest gap scaled to exactly one
    rates = np.linspace(0.1, 0.9, 9) * r1_domain_top(PARAMS)
    d = d_a_curve(0.92, PARAMS, rates, search_budget=(8, 120), seed=3)
    assert np.all(d > 1e-4)
    assert np.abs(d).max() == pytest.approx(1.0, abs=1e-12)


def test_d_a_envelope_is_positive_at_modest_budget():
    rates = np.linspace(0.3, 0.7, 5) * r1_domain_top(PARAMS)
    d = d_a_curve(0.92, PARAMS, rates, search_budget=(4, 80), seed=1)
    assert np.all(d > 1e-4)
