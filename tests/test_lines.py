import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from compound_bc import becbsc, cli, info, lines, search
from compound_bc.becbsc import BecBscParams, alpha0_solve
from compound_bc.lines import (
    DEFAULT_BUDGET,
    ENVELOPE_BUDGET,
    SupportingLineEval,
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
    t_a_hull,
)
from compound_bc.info import binary_convolve, binary_entropy
from compound_bc.search import FEAS_TOL, mix64, sigmoid, softmax
from test_becbsc import valid_params
from test_cli import GOLDEN


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


def F0_closed(params, lam):
    """Exact a = 0 majorant intercept: max{(1 - H2(p)) * lam, 1 - e2}."""
    if not lam >= 0:
        raise ValueError(f"multiplier must be nonnegative, got {lam}")
    return max((1.0 - binary_entropy(params.p)) * lam, 1.0 - params.e2)


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
    with pytest.raises(ValueError, match="x=nan outside"):
        t1_closed(PARAMS, np.array([0.1, np.nan, 0.2]))


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
    with pytest.raises(ValueError, match="outside"):
        t1_inverse(PARAMS, np.nan)


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
    for lam in (-0.2, np.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            F0_closed(PARAMS, lam)


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


# the bodies before the blocked kernel: dense outer products
def dense_pool_f_values(lambdas, weighted, budgets, chunk=256):
    """max over the pool of weighted + lam * budget, 256 multipliers at a
    time, each block one (chunk x pool) temporary."""
    f_values = np.empty(lambdas.size)
    for start in range(0, lambdas.size, chunk):
        block = lambdas[start:start + chunk, None]
        f_values[start:start + chunk] = np.max(
            weighted[None, :] + block * budgets[None, :], axis=1)
    return f_values


def dense_lines(f_values, lambdas, x):
    """Every majorant f - lam*x at every budget, (multipliers x budgets)."""
    return f_values[:, None] - lambdas[:, None] * x[None, :]


def dense_envelope(f_values, lambdas, x):
    return np.min(dense_lines(f_values, lambdas, x), axis=0)


def assert_same_reduction(got, want):
    """Equal values and NaN places, and each number's sign bit."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    numbers = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


# many exact ties, signed zeros and non-finite values
LINE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0, np.inf, -np.inf, np.nan]),
    st.floats(-4.0, 4.0))


@st.composite
def line_pools(draw):
    """(intercepts, slopes, queries, block) with pools smaller and larger
    than one block of values and at least one query."""
    pool = draw(st.integers(1, 40))

    def values(n):
        return draw(hnp.arrays(np.float64, n, elements=LINE_VALUES))

    return (values(pool), values(pool), values(draw(st.integers(1, 30))),
            draw(st.sampled_from([1, 16, 64, lines.REDUCE_BLOCK])))


@settings(max_examples=300, deadline=None)
@given(line_pools())
def test_pool_f_values_is_bitwise_the_dense_body(case):
    weighted, budgets, lambdas, block = case
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(lines, "REDUCE_BLOCK", block)
        got = lines._pool_f_values(lambdas, weighted, budgets)
        want = dense_pool_f_values(lambdas, weighted, budgets)
    assert_same_reduction(got, want)


@settings(max_examples=300, deadline=None)
@given(line_pools())
def test_envelope_is_the_dense_body(case):
    f_values, lambdas, xs, block = case
    lambdas = np.abs(lambdas)  # the multiplier grid is nonnegative
    lambdas[np.isnan(lambdas)] = 0.0
    ev = SupportingLineEval(0.5, lambdas, f_values, [])
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(lines, "REDUCE_BLOCK", block)
        got = ev.envelope(xs)
        want = dense_envelope(f_values, lambdas, xs)
        candidates = dense_lines(f_values, lambdas, xs)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    # min is exact, but of +0 and -0 it keeps whichever comes second: the
    # dense body folds across the multipliers in order, the kernel along
    # its contiguous pool axis, so a zero tied between both signs may
    # differ in sign and nothing else may
    flipped = ~np.isnan(want) & (np.signbit(got) != np.signbit(want))
    for j in np.flatnonzero(flipped):
        zeros = candidates[:, j][candidates[:, j] == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()


def test_pool_reductions_stay_under_2_mb_traced():
    # the dense envelope built two 80 MB temporaries here, the chunked pool
    # two 13 MB ones per block
    rng = np.random.default_rng(0)
    lambdas = np.linspace(0.5, 1.5, 2501)
    ev = SupportingLineEval(0.5, lambdas, rng.random(2501), [])
    xs = np.linspace(0.0, 0.4, 4001)
    weighted, budgets = rng.random(6503), rng.random(6503)
    for run in (lambda: ev.envelope(xs),
                lambda: lines._pool_f_values(lambdas, weighted, budgets)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def test_canonical_design_families_are_input_uniform():
    pq, bx = canonical_designs(n=101)
    marginal = np.sum(pq * bx, axis=1)
    assert np.allclose(marginal, 0.5, atol=1e-12)
    assert pq.shape == bx.shape and pq.shape[0] == 202


# ---------------------------------------------------------------------------
# t_a at budgets, read off the hull


def test_sample_t_a_zero_budget_is_the_no_leak_corner():
    a = 0.7
    value, = sample_t_a(a, PARAMS, [0.0])
    expected = a * (1 - h2(PARAMS.p1)) + (1 - a) * (1 - PARAMS.e2)
    assert value == pytest.approx(expected, abs=5e-3)


def test_sample_t_a_rejects_bad_arguments():
    with pytest.raises(ValueError, match="outside"):
        sample_t_a(0.5, PARAMS, [-0.01])
    with pytest.raises(ValueError, match="outside"):
        sample_t_a(0.5, PARAMS, [X_MAX + 0.01])
    with pytest.raises(ValueError, match="weight"):
        sample_t_a(1.2, PARAMS, [0.1])


def test_sample_t_a_returns_one_value_per_budget():
    xs = np.array([0.1, 0.3])
    vals = sample_t_a(1.0, PARAMS, xs)
    assert vals.shape == xs.shape
    assert np.all(np.isfinite(vals))


def test_sample_t_a_runs_no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sample_t_a ran a search")

    monkeypatch.setattr(lines, "maximize", refuse)
    monkeypatch.setattr(search, "_initial_points", refuse)
    xs = np.linspace(0.0, X_MAX, 101)
    for a in (0.0, 0.6, 1.0):
        got = sample_t_a(a, PARAMS, xs)
        x, t = t_a_hull(a, PARAMS).T
        assert got.tobytes() == np.interp(xs, x, t).tobytes()
        for budget, seed in (((16, 60), 3), (DEFAULT_BUDGET, 20259)):
            assert sample_t_a(a, PARAMS, xs, search_budget=budget,
                              seed=seed).tobytes() == got.tobytes()
    # the edge weights track their closed forms at every budget
    assert np.max(np.abs(sample_t_a(1.0, PARAMS, xs)
                         - t1_closed(PARAMS, xs))) <= 1e-7
    assert np.max(np.abs(sample_t_a(0.0, PARAMS, xs)
                         - t0_closed(PARAMS, xs))) <= 1e-12


# ---------------------------------------------------------------------------
# constrained brute-force search: the reference oracle for t_a


def brute_t_a(a, params, xs, search_budget, seed):
    """Best found a*I(Q;Y1) + (1-a)*I(Q;Y2) with I(X;Z|Q) pinned to each x.

    One random-restart hill climb over the 6 raw design coordinates per
    budget, seeded with mix64(seed, i); the budget equality is driven in by
    a ramped quadratic penalty and final candidates are filtered at
    `search.FEAS_TOL`.  A candidate passes at a budget up to FEAS_TOL below
    x, so the result is bounded by t_a(x - FEAS_TOL), not by t_a(x), and
    can exceed the latter.  Deterministic for a fixed seed.  (The body of
    `lines.sample_t_a` before it read `t_a_hull`.)
    """
    lines._check_weight(a)
    lines._check_budget_x(params, xs)
    xs = np.asarray(xs, dtype=float)
    # maximize calls residual(P) right after objective(P) on the same array,
    # so the objective keeps its budgets for that one residual call
    kept = {}
    scores = lines._DesignScores(params)

    def objective(theta, _):
        i1, i2, ixz, excess = scores(theta)
        kept.update(theta=theta, ixz=ixz, excess=excess)
        return a * i1 + (1.0 - a) * i2 - lines._PULL * excess

    def residual(theta, x):
        if kept.pop("theta", None) is theta:
            ixz, excess = kept["ixz"], kept["excess"]
        else:
            _, _, ixz, excess = scores(theta)
        # inflated so clipped designs can never pass the feasibility filter
        return np.abs(ixz - x) + 10.0 * excess

    seeds = [mix64(seed, i) for i in range(xs.size)]
    points = lines._batched_points(objective, xs.ravel(), search_budget,
                                   seeds, equality=residual)
    i1, i2, _, _ = lines._DesignScores(params)(points)
    return (a * i1 + (1.0 - a) * i2).reshape(xs.shape)


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
    value, = brute_t_a(a, PARAMS, [0.0], search_budget=(400, 400), seed=2)
    expected = a * (1 - h2(PARAMS.p1)) + (1 - a) * (1 - PARAMS.e2)
    assert value == pytest.approx(expected, abs=5e-3)
    pq, bx, _ = full_fields(np.array(points))
    assert np.sum(pq * bx, axis=1) == pytest.approx([0.5], abs=1e-4)


def test_brute_force_tracks_first_instance_curve():
    for x in (0.1, 0.3):
        value, = brute_t_a(1.0, PARAMS, [x], search_budget=(400, 400),
                           seed=3)
        assert value == pytest.approx(t1_closed(PARAMS, x), abs=5e-3)


def test_brute_force_tracks_second_instance_chord():
    for x in (0.1, 0.4):
        value, = brute_t_a(0.0, PARAMS, [x], search_budget=(400, 400),
                           seed=4)
        assert value == pytest.approx(t0_closed(PARAMS, x), abs=5e-3)


def test_brute_force_is_deterministic_for_a_seed(monkeypatch):
    runs = []
    for _ in range(2):
        points = _capture_argmax_points(monkeypatch)
        value = brute_t_a(0.6, PARAMS, [0.25], search_budget=SMALL, seed=9)
        runs.append((value, np.array(points)))
        monkeypatch.undo()
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def _count_scores(monkeypatch):
    """Record the batch of every design-scorer evaluation."""
    calls = []
    real = lines._DesignScores.__call__

    def counting(self, theta):
        calls.append(theta)
        return real(self, theta)

    monkeypatch.setattr(lines._DesignScores, "__call__", counting)
    return calls


def test_constrained_step_evaluates_each_batch_once(monkeypatch):
    baseline = brute_t_a(1.0, PARAMS, [0.1], search_budget=(16, 60), seed=0)
    calls = _count_scores(monkeypatch)
    value = brute_t_a(1.0, PARAMS, [0.1], search_budget=(16, 60), seed=0)
    # iterations + 4 objective batches (start, two stage starts, final
    # filter) and the argmax re-score; the residual of each batch reuses the
    # objective's evaluation
    assert len(calls) == 60 + 5
    assert np.array_equal(value, baseline)


def test_residual_recomputes_unless_given_the_scored_array(monkeypatch):
    x = 0.1
    probes = []

    def probing_maximize(objective, spec, equality=None):
        rng = np.random.default_rng(3)
        P = rng.uniform(-4.0, 4.0, (spec.restarts, 6))
        Q = rng.uniform(-4.0, 4.0, (spec.restarts, 6))

        def fresh(theta):
            _, _, ixz, excess = full_scores(theta)
            return np.abs(ixz - x) + 10.0 * excess

        calls = _count_scores(monkeypatch)
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

    real_maximize = lines.maximize
    monkeypatch.setattr(lines, "maximize", probing_maximize)
    value, = brute_t_a(1.0, PARAMS, [x], search_budget=(16, 60), seed=0)
    assert probes == [6]
    assert np.isfinite(value)


# ---------------------------------------------------------------------------
# incremental design scorer against the full-batch objectives it replaced


def full_fields(theta):
    """Design pmfs of raw points, every column re-derived (the body of the
    deleted `lines._design_fields`)."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    pq = softmax(np.column_stack([theta[:, :3], np.zeros(len(theta))]), axis=1)
    bx = np.empty_like(pq)
    bx[:, :3] = sigmoid(theta[:, 3:])
    raw = (0.5 - np.einsum("nq,nq->n", pq[:, :3], bx[:, :3])) / pq[:, 3]
    bx[:, 3] = np.clip(raw, 0.0, 1.0)
    return pq, bx, np.abs(raw - bx[:, 3])


def full_informations(pq, bx):
    """Checked entropies of all four conditionals (the replaced
    `_mutual_informations` body)."""
    h1 = binary_entropy(binary_convolve(PARAMS.p1, bx))
    i_qy1 = 1.0 - np.einsum("nq,nq->n", pq, h1)
    hx = binary_entropy(bx)
    i_qy2 = (1.0 - PARAMS.e2) * (1.0 - np.einsum("nq,nq->n", pq, hx))
    hz = binary_entropy(binary_convolve(PARAMS.p, bx))
    i_xz_q = np.einsum("nq,nq->n", pq, hz) - binary_entropy(PARAMS.p)
    return i_qy1, i_qy2, i_xz_q


def full_scores(theta):
    pq, bx, excess = full_fields(theta)
    return (*full_informations(pq, bx), excess)


def full_batch_t_a(a, xs, search_budget, seed):
    """`brute_t_a` with the full-batch objective and residual."""
    def objective(theta, _):
        i1, i2, _, excess = full_scores(theta)
        return a * i1 + (1.0 - a) * i2 - lines._PULL * excess

    def residual(theta, x):
        _, _, ixz, excess = full_scores(theta)
        return np.abs(ixz - x) + 10.0 * excess

    xs = np.asarray(xs, dtype=float)
    seeds = [mix64(seed, i) for i in range(xs.size)]
    points = lines._batched_points(objective, xs, search_budget, seeds,
                                   equality=residual)
    i1, i2, _ = full_informations(*full_fields(points)[:2])
    return a * i1 + (1.0 - a) * i2


def oracle_lagrangian_points(a, lambdas, search_budget, seeds):
    """`_lagrangian_search` with the full-batch objective."""
    def objective(theta, lam):
        i1, i2, ixz, excess = full_scores(theta)
        return a * i1 + (1.0 - a) * i2 + lam * ixz - lines._PULL * excess

    return lines._batched_points(objective, np.asarray(lambdas, dtype=float),
                                 search_budget, seeds)


def assert_bitwise(got, want):
    for g, w in zip(got, want, strict=True):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def test_searches_are_bitwise_the_full_batch_oracles(monkeypatch):
    # three budgets at 700 restarts: batches of two groups, then one smaller
    # batch, so the scorer meets a new batch and a change of shape
    monkeypatch.setattr(lines, "_BATCH_ROWS", 1400)
    xs = [0.05, 0.2, 0.4]
    for a, seed in ((1.0, 0), (0.6, 5), (0.0, 9)):
        assert_bitwise(brute_t_a(a, PARAMS, xs, search_budget=(700, 40),
                                 seed=seed),
                       full_batch_t_a(a, xs, (700, 40), seed))
    lams = np.linspace(0.0, 3.0, 11)
    seeds = list(range(11))
    assert_bitwise(_lagrangian_search(0.7, lams, PARAMS, (32, 90), seeds),
                   oracle_lagrangian_points(0.7, lams, (32, 90), seeds))


LOGITS = st.one_of(st.sampled_from([-12.0, 12.0, 0.0, -0.0]),
                   st.floats(-12.0, 12.0))


@st.composite
def scorer_calls(draw):
    """A first batch and a sequence of steps that derive the next one."""
    rows = draw(st.integers(1, 6))
    first = draw(hnp.arrays(np.float64, (rows, 6), elements=LOGITS))
    steps = draw(st.lists(st.tuples(
        st.sampled_from(["move", "rows", "several", "repeat", "in_place",
                         "shape"]),
        st.integers(0, 5),
        st.lists(st.integers(0, 5), min_size=1, max_size=6),
        st.integers(1, 6),
        st.lists(LOGITS, min_size=36, max_size=36)), max_size=14))
    return first, steps


@settings(max_examples=80, deadline=None)
@given(calls=scorer_calls())
def test_scorer_sequences_are_bitwise_a_fresh_scorer(calls):
    first, steps = calls
    scores = lines._DesignScores(PARAMS)
    theta = first
    for step in [None, *steps]:
        if step is not None:
            kind, c, cols, rows, drawn = step
            fill = np.resize(np.array(drawn), theta.shape)
            if kind == "shape":
                theta = np.resize(np.array(drawn), (rows, 6))
            elif kind == "in_place":  # the scored array itself changes
                theta[:, cols] = fill[:, cols]
            elif kind != "repeat":
                theta = theta.copy()
                if kind == "move":  # a maximize proposal
                    theta[:, c] = fill[:, c]
                elif kind == "rows":  # maximize accepting some rows
                    keep = fill[:, 0] > 0
                    theta[keep, c] = fill[keep, 1]
                else:
                    theta[:, cols] = fill[:, cols]
        got = scores(theta)
        assert_bitwise(got, lines._DesignScores(PARAMS)(theta.copy()))
        assert_bitwise(got, full_scores(theta))


def test_brute_search_sends_at_most_60_percent_of_the_conditionals(
        monkeypatch):
    shapes = []
    real = lines._conditional_entropies

    def recording(bx, params):
        shapes.append(bx.shape)
        return real(bx, params)

    monkeypatch.setattr(lines, "_conditional_entropies", recording)
    brute_t_a(1.0, PARAMS, [0.1], search_budget=(16, 60), seed=0)
    # the search's 64 batches, then the argmax re-score of one point
    assert shapes[-1] == (1, 4) and {n for n, _ in shapes[:-1]} == {16}
    search = [k for _, k in shapes[:-1]]
    # a full-batch objective sends 4 conditionals per row and call
    assert len(search) == 60 + 4
    assert sum(search) <= 0.6 * 4 * len(search)


def test_checked_entropy_calls_do_not_grow_with_iterations(monkeypatch):
    counts = []
    for n in (60, 120):
        calls = []
        real = info.binary_entropy

        def counting(x, calls=calls):
            calls.append(x)
            return real(x)

        with monkeypatch.context() as patch:
            patch.setattr(lines, "binary_entropy", counting)
            patch.setattr(becbsc, "binary_entropy", counting)
            brute_t_a(1.0, PARAMS, [0.1], search_budget=(16, n), seed=0)
        counts.append(len(calls))
    # range checks run once per call of the API, none per search step
    assert counts[0] == counts[1]


def test_closed_form_checked_entropy_calls_do_not_grow_with_steps(
        monkeypatch):
    bisect = lines._bisect_increasing
    real = info.binary_entropy
    counts = []
    for steps in (10, 80):
        calls = []

        def counting(x, calls=calls):
            calls.append(x)
            return real(x)

        with monkeypatch.context() as patch:
            patch.setattr(lines, "_bisect_increasing",
                          lambda f, t, steps=steps: bisect(f, t, steps=steps))
            patch.setattr(lines, "binary_entropy", counting)
            patch.setattr(becbsc, "binary_entropy", counting)
            t1_closed(PARAMS, [0.1, 0.2])
            t1_inverse(PARAMS, [0.1, 0.2])
        counts.append(len(calls))
    # range checks run at the API boundary, none per bisection step
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# Lagrangian intercepts


def lagrangian_values(a, lambdas, search_budget, seeds):
    """F_a at each multiplier: the Lagrangian scored at its argmax point."""
    points = _lagrangian_search(a, lambdas, PARAMS, search_budget, seeds)
    i1, i2, ixz = full_informations(*full_fields(points)[:2])
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
    for bad in ([-1.0], [0.5, np.nan]):
        with pytest.raises(ValueError, match="nonnegative"):
            evaluate_supporting_lines(0.5, PARAMS, bad, search_budget=SMALL)


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
        direct, = brute_t_a(a, PARAMS, [x], search_budget=(400, 400),
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
    vals = sample_t_a(a, PARAMS, xs)
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
    with pytest.raises(ValueError, match="strictly inside"):
        d_a_curve(0.92, PARAMS, np.array([0.01, np.nan]))


def test_d_a_is_identically_zero_when_curves_coincide():
    rates = np.linspace(0.2, 0.8, 5) * r1_domain_top(PARAMS)
    d = d_a_curve(1.0, PARAMS, rates)
    assert d.shape == rates.shape
    assert np.all(d == 0.0)


def test_d_a_is_positive_and_normalized_over_the_full_window():
    # the full rate window, with the largest gap scaled to exactly one
    rates = np.linspace(0.1, 0.9, 9) * r1_domain_top(PARAMS)
    d = d_a_curve(0.92, PARAMS, rates)
    assert np.all(d > 1e-4)
    assert np.abs(d).max() == pytest.approx(1.0, abs=1e-12)


def test_d_a_is_positive_on_the_middle_rates():
    rates = np.linspace(0.3, 0.7, 5) * r1_domain_top(PARAMS)
    d = d_a_curve(0.92, PARAMS, rates)
    assert np.all(d > 1e-4)


def hull_at(hull, x):
    """The piecewise-linear hull through its vertices, at budgets x."""
    return np.interp(x, hull[:, 0], hull[:, 1])


def hull_on_grid(a, params, n):
    """`t_a_hull` on an n-point alpha grid."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lines, "ALPHA_POINTS", n)
        return t_a_hull(a, params)


def assert_hull_shape(hull, x_max):
    x, t = hull.T
    assert x[0] == 0.0 and x[-1] == pytest.approx(x_max, abs=1e-15)
    assert np.all(np.diff(x) > 0) and np.all(np.diff(t) < 0)
    # concave: the vertex slopes do not increase, up to rounding
    slopes = np.diff(t) / np.diff(x)
    assert np.all(np.diff(slopes) <= 1e-9)


def assert_nested(coarse, fine, tol):
    """coarse lies at or below fine, and within tol of it; both are
    piecewise linear, so their largest gap sits at a vertex of either."""
    xs = np.union1d(coarse[:, 0], fine[:, 0])
    gap = hull_at(fine, xs) - hull_at(coarse, xs)
    assert gap.min() >= -1e-15
    assert gap.max() <= tol


@pytest.mark.parametrize("params", [PARAMS, BecBscParams(0.2, 0.22, 0.7),
                                    BecBscParams(0.05, 0.06, 0.26)])
def test_t_a_hull_is_the_edge_curves_and_resolved_at_the_test_channels(
        params):
    x_max = 1.0 - binary_entropy(params.p)
    xs = np.linspace(0.0, x_max, 401)
    # the largest gap to the finer grid, 2.1e-8, is at a = 1 and p = 0.05
    for a in (0.0, 0.3, 0.92, 1.0):
        hull = t_a_hull(a, params)
        assert_hull_shape(hull, x_max)
        assert_nested(hull, hull_on_grid(a, params, 20001), 5e-8)
    assert np.max(np.abs(hull_at(t_a_hull(1.0, params), xs)
                         - t1_closed(params, xs))) <= 1e-7
    assert np.max(np.abs(hull_at(t_a_hull(0.0, params), xs)
                         - t0_closed(params, xs))) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(params=valid_params(), a=st.floats(0.0, 1.0))
def test_t_a_hull_is_concave_and_resolved_by_its_grid(params, a):
    # the alpha grid's chords fall furthest below the curve where p is
    # small: 4.8e-6 at p = 1e-3 and a = 1, 1e-8 at p = 0.1
    x_max = 1.0 - binary_entropy(params.p)
    hull = t_a_hull(a, params)
    assert_hull_shape(hull, x_max)
    assert_nested(hull, hull_on_grid(a, params, 20001), 1e-5)
    xs = np.linspace(0.0, x_max, 101)
    assert np.max(np.abs(hull_at(t_a_hull(1.0, params), xs)
                         - t1_closed(params, xs))) <= 1e-5
    assert np.max(np.abs(hull_at(t_a_hull(0.0, params), xs)
                         - t0_closed(params, xs))) <= 1e-12


def test_t_a_hull_rejects_a_weight_outside_the_unit_interval():
    for a in (-0.1, 1.5, np.nan):
        with pytest.raises(ValueError, match="weight a"):
            t_a_hull(a, PARAMS)


@pytest.mark.parametrize("a", [0.92, 0.6, 0.3])
def test_brute_force_is_bounded_at_the_feasibility_slack(a):
    # a candidate passes at a budget FEAS_TOL below x, so the bound is the
    # hull there, not at x, which these searches exceed by up to 8.6e-5
    xs = np.linspace(0.0, X_MAX, 21)
    got = brute_t_a(a, PARAMS, xs, search_budget=(200, 300), seed=20259)
    assert np.all(got <= hull_at(t_a_hull(a, PARAMS), xs - FEAS_TOL))


@pytest.mark.parametrize("a", [0.3, 0.92])
@pytest.mark.parametrize("params", [PARAMS, BecBscParams(0.2, 0.22, 0.7),
                                    BecBscParams(0.05, 0.06, 0.26)])
def test_searches_never_raise_the_canonical_intercepts(params, a):
    # the symmetric canonical family attains F_a, so no seeded search beats
    # the hull's support function max(t + lam x) across its slopes
    hull = t_a_hull(a, params)
    slopes = -np.diff(hull[:, 1]) / np.diff(hull[:, 0])
    lambdas = np.linspace(slopes.min(), slopes.max(), 41)
    searched = evaluate_supporting_lines(
        a, params, lambdas, search_budget=ENVELOPE_BUDGET, seed=20259,
        canonical=0).f_values
    support = np.max(hull[:, 1] + lambdas[:, None] * hull[:, 0], axis=1)
    assert np.all(searched <= support + 1e-12)


def test_d_a_runs_no_search(monkeypatch, tmp_path, capsys):
    # the whole becbsc-da run, both stages, reaches no search
    def refuse(*args, **kwargs):
        raise AssertionError("becbsc-da ran a search")

    monkeypatch.setattr(lines, "maximize", refuse)
    monkeypatch.setattr(search, "_initial_points", refuse)
    assert cli.main(["becbsc-da", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.iterdir())}
    assert digests == GOLDEN["becbsc-da"]
