import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from compound_bc import search
from compound_bc.search import (
    SearchSpec,
    _initial_points,
    isotonic_project,
    maximize,
    mix64,
    sigmoid,
    softmax,
)


def test_mix64_stable_and_spreads():
    # frozen values: changing the mix silently would break seeded reproducibility
    assert mix64(0, 0) == mix64(0, 0)
    assert mix64(1, 0) != mix64(0, 1)
    vals = {mix64(12345, r) for r in range(1000)}
    assert len(vals) == 1000


def test_softmax_sigmoid():
    s = softmax([0.0, 0.0, 0.0, 0.0])
    assert np.allclose(s, 0.25)
    z = np.array([-800.0, 0.0, 800.0])
    sg = sigmoid(z)
    assert sg[0] == 0.0 and sg[2] == 1.0 and sg[1] == 0.5
    assert np.all(np.isfinite(softmax(z)))


def sigmoid_masked(z):
    """The masked body `sigmoid` had before the mask-free rewrite (oracle)."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SIGMOID_EDGES = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-310, -1e-310,
                 np.inf, -np.inf, 745.2, -745.2, 36.8, -36.8]


@settings(max_examples=300, deadline=None)
@given(z=st.one_of(
    st.just(()), st.integers(1, 12).map(lambda n: (n,)),
    st.integers(1, 6).map(lambda n: (n, 4)),
    st.integers(1, 6).map(lambda n: (3, n))).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=st.one_of(
            st.sampled_from(SIGMOID_EDGES),
            st.floats(-800.0, 800.0), st.floats()))))
def test_sigmoid_is_bitwise_the_masked_kernel(z):
    got = sigmoid(z)
    assert got.shape == z.shape
    assert np.array_equal(got, sigmoid_masked(z), equal_nan=True)
    if z.ndim == 2:
        view = z[::2, 1:]
        assert np.array_equal(sigmoid(view), sigmoid_masked(view),
                              equal_nan=True)


def softmax_reduce(z, axis=-1):
    """`softmax` with numpy's axis reductions, its body before the
    elementwise rewrite (oracle)."""
    z = np.asarray(z, dtype=float)
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


SOFTMAX_EDGES = [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan]


def _bitwise_equal(got, want):
    # NaN equals NaN and its sign is not compared: the two max reductions
    # may pass on differently signed NaNs, which carry no value
    signed = ~np.isnan(want)
    return (got.shape == want.shape
            and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got[signed]),
                               np.signbit(want[signed])))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), length=st.integers(1, 7),
       axis=st.sampled_from([0, 1, -1]), ndim=st.integers(2, 3),
       strided=st.booleans())
def test_softmax_is_bitwise_the_axis_reductions(data, length, axis, ndim,
                                                strided):
    shape = data.draw(st.lists(st.integers(1, 6), min_size=ndim,
                               max_size=ndim))
    shape[axis] = length
    if strided:  # every other row and column of a twice-as-wide array
        shape[0] *= 2
        shape[-1] *= 2
    z = data.draw(hnp.arrays(np.float64, tuple(shape), elements=st.one_of(
        st.sampled_from(SOFTMAX_EDGES), st.floats(-50.0, 50.0),
        st.floats())))
    if strided:
        z = z[::2, ..., 1::2]
    assert z.shape[axis] == length
    with np.errstate(invalid="ignore"):  # inf - inf is NaN in both
        assert _bitwise_equal(softmax(z, axis=axis),
                              softmax_reduce(z, axis=axis))


def test_maximize_concave_box():
    spec = SearchSpec([[-5, 5], [-5, 5]], restarts=8, iterations=400,
                      seeds=[42])

    def f(X):
        return -((X[:, 0] - 2) ** 2) - (X[:, 1] + 1) ** 2

    points = maximize(f, spec)
    assert points.shape == (1, 2)
    assert f(points)[0] == pytest.approx(0.0, abs=1e-4)
    assert np.allclose(points[0], [2, -1], atol=0.02)


def test_maximize_deterministic():
    def f(X):
        return -np.sum((X - np.array([1.0, -2.0, 0.5])) ** 2, axis=1)

    def run(seed):
        spec = SearchSpec([[-5.0, 5.0]] * 3, restarts=6, iterations=150,
                          seeds=[seed])
        return maximize(f, spec)

    assert np.array_equal(run(7), run(7))
    assert not np.array_equal(run(8), run(7))


def test_maximize_with_equality_penalty():
    # maximize x0 on the unit circle: optimum (1, 0)
    spec = SearchSpec([[-2, 2], [-2, 2]], restarts=16, iterations=600,
                      seeds=[3])
    (x0, x1), = maximize(lambda X: X[:, 0], spec,
                         equality=lambda X: X[:, 0] ** 2 + X[:, 1] ** 2 - 1.0)
    assert abs(x0 ** 2 + x1 ** 2 - 1.0) <= search.FEAS_TOL
    assert x0 == pytest.approx(1.0, abs=5e-3)


def test_maximize_errors():
    spec = SearchSpec([[0, 1]], restarts=4, iterations=50, seeds=[0])
    with pytest.raises(ValueError):
        maximize(lambda X: np.full(len(X), np.nan), spec)
    with pytest.raises(RuntimeError):
        maximize(lambda X: X[:, 0], spec,
                 equality=lambda X: X[:, 0] ** 2 + 1.0)
    with pytest.raises(ValueError):
        SearchSpec([[0, 1]], restarts=0, iterations=50, seeds=[0])
    with pytest.raises(ValueError):
        SearchSpec([[0, 1]], restarts=4, iterations=50, seeds=[])


def _grouped_problem(centers, targets, restarts):
    """Objective and equality whose per-group parameters are repeated once
    per restart, as the group-major batch expects."""
    c = np.repeat(centers, restarts, axis=0)
    t = np.repeat(targets, restarts)

    def objective(X):
        return -np.sum((X - c) ** 2, axis=1)

    def equality(X):
        return np.sum(X, axis=1) - t

    return objective, equality


@settings(max_examples=40, deadline=None)
@given(data=st.data(), groups=st.integers(1, 6), dim=st.integers(1, 4),
       restarts=st.integers(1, 5), iterations=st.integers(1, 60),
       constrained=st.booleans())
def test_groups_match_separate_searches(data, groups, dim, restarts,
                                        iterations, constrained):
    seeds = data.draw(st.lists(st.integers(0, 2 ** 64 - 1),
                               min_size=groups, max_size=groups))
    unit = st.floats(-1.5, 1.5, allow_nan=False)
    centers = np.array(data.draw(st.lists(
        st.lists(unit, min_size=dim, max_size=dim),
        min_size=groups, max_size=groups)))
    targets = np.array(data.draw(st.lists(unit, min_size=groups,
                                          max_size=groups)))

    def run(k_slice, seeds):
        objective, equality = _grouped_problem(
            centers[k_slice], targets[k_slice], restarts)
        spec = SearchSpec([[-2.0, 2.0]] * dim, restarts, iterations, seeds)
        return maximize(objective, spec,
                        equality=equality if constrained else None)

    separate, first_error = [], None
    with pytest.MonkeyPatch.context() as mp:
        # a loose tolerance so short searches sometimes pass and sometimes
        # fail
        mp.setattr(search, "FEAS_TOL", 0.05)
        for k in range(groups):
            try:
                separate.append(run(slice(k, k + 1), seeds[k:k + 1]))
            except RuntimeError as exc:
                first_error = first_error or str(exc)
        if first_error is not None:
            with pytest.raises(RuntimeError) as batched:
                run(slice(None), seeds)
            assert str(batched.value) == first_error
            return
        together = run(slice(None), seeds)
    assert together.shape == (groups, dim)
    for one, batched in zip(separate, together):
        assert one.shape == (1, dim)
        assert np.array_equal(one[0], batched)


def initial_points_per_restart(spec):
    """`_initial_points` as it was: one fresh Philox generator per restart
    (oracle)."""
    rows = len(spec.seeds) * spec.restarts
    inits = np.empty((rows, spec.dim))
    noise = np.empty((rows, spec.iterations))
    lo, hi = spec.bounds[:, 0], spec.bounds[:, 1]
    row = 0
    for seed in spec.seeds:
        for r in range(spec.restarts):
            rng = np.random.Generator(np.random.Philox(key=mix64(seed, r)))
            inits[row] = lo + (hi - lo) * rng.random(spec.dim)
            noise[row] = rng.standard_normal(spec.iterations)
            row += 1
    return inits, noise


def maximize_masked(objective, spec, equality=None):
    """`maximize` as it was: per-restart generators and boolean-mask row
    scatters in each step (oracle)."""
    groups, restarts = len(spec.seeds), spec.restarts
    X, noise = initial_points_per_restart(spec)
    schedule = list(search.PENALTY_SCHEDULE) if equality is not None else [0.0]

    def penalized(P, w):
        vals = np.asarray(objective(P), dtype=float)
        if equality is not None and w > 0:
            res = np.asarray(equality(P), dtype=float)
            vals = vals - w * res * res
        return vals

    cur = penalized(X, schedule[0])
    if not np.all(np.isfinite(cur).reshape(groups, restarts).any(axis=1)):
        raise ValueError("objective is non-finite at every restart's initial point")
    cur = np.where(np.isfinite(cur), cur, -np.inf)

    steps = np.full((groups * restarts, spec.dim), search.STEP0)
    stage_len = -(-spec.iterations // len(schedule))
    it = 0
    for stage, w in enumerate(schedule):
        if stage > 0:
            cur = penalized(X, w)
            cur = np.where(np.isfinite(cur), cur, -np.inf)
        for _ in range(min(stage_len, spec.iterations - it)):
            c = it % spec.dim
            prop = X.copy()
            prop[:, c] += steps[:, c] * noise[:, it]
            np.clip(prop[:, c], spec.bounds[c, 0], spec.bounds[c, 1],
                    out=prop[:, c])
            vals = penalized(prop, w)
            vals = np.where(np.isfinite(vals), vals, -np.inf)
            better = vals > cur
            X[better] = prop[better]
            cur = np.where(better, vals, cur)
            steps[~better, c] *= search.DECAY
            it += 1

    final_vals = np.asarray(objective(X), dtype=float)
    final_vals = np.where(np.isfinite(final_vals), final_vals, -np.inf)
    if equality is not None:
        res = np.asarray(equality(X), dtype=float)
        feasible = np.isfinite(res) & (np.abs(res) <= search.FEAS_TOL)
        stuck = np.flatnonzero(~feasible.reshape(groups, restarts).any(axis=1))
        if stuck.size:
            k = stuck[0]
            closest = np.nanmin(np.abs(res[k * restarts:(k + 1) * restarts]))
            raise RuntimeError(
                f"no restart reached constraint tolerance {search.FEAS_TOL:g} "
                f"(closest residual {closest:.3g})")
        final_vals = np.where(feasible, final_vals, -np.inf)
    best = np.argmax(final_vals.reshape(groups, restarts), axis=1) \
        + restarts * np.arange(groups)
    return X[best]


SEEDS = st.one_of(st.sampled_from([0, 2 ** 64 - 1]),
                  st.integers(0, 2 ** 64 - 1))


def _boxes(dim):
    return st.lists(st.tuples(st.floats(-5.0, 0.0), st.floats(0.0, 5.0)),
                    min_size=dim, max_size=dim)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), groups=st.integers(1, 6), dim=st.integers(1, 6),
       restarts=st.integers(1, 5), iterations=st.integers(0, 40))
def test_initial_points_are_bitwise_fresh_generators(data, groups, dim,
                                                     restarts, iterations):
    seeds = data.draw(st.lists(SEEDS, min_size=groups, max_size=groups))
    spec = SearchSpec(data.draw(_boxes(dim)), restarts, iterations, seeds)
    got, want = _initial_points(spec), initial_points_per_restart(spec)
    for one, other in zip(got, want):
        assert _bitwise_equal(one, other)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), groups=st.integers(1, 6), dim=st.integers(1, 6),
       restarts=st.integers(1, 4),
       iterations=st.one_of(st.just(1), st.integers(1, 60)),
       constrained=st.booleans(), holes=st.booleans())
def test_maximize_is_bitwise_the_masked_step(data, groups, dim, restarts,
                                             iterations, constrained, holes):
    seeds = data.draw(st.lists(SEEDS, min_size=groups, max_size=groups))
    unit = st.floats(-1.5, 1.5, allow_nan=False)
    centers = np.array(data.draw(st.lists(
        st.lists(unit, min_size=dim, max_size=dim),
        min_size=groups, max_size=groups)))
    targets = np.array(data.draw(st.lists(unit, min_size=groups,
                                          max_size=groups)))
    objective, equality = _grouped_problem(centers, targets, restarts)
    if holes:  # non-finite values where the first coordinate is large
        smooth = objective

        def objective(X):
            return np.where(X[:, 0] > 1.0, np.nan, smooth(X))

    spec = SearchSpec(data.draw(_boxes(dim)), restarts, iterations, seeds)
    equality = equality if constrained else None
    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        # loose enough that short constrained searches often pass
        mp.setattr(search, "FEAS_TOL", 0.3)
        for run in (maximize, maximize_masked):
            try:
                outcomes.append(run(objective, spec, equality=equality))
            except (ValueError, RuntimeError) as exc:
                outcomes.append((type(exc), str(exc)))
    got, want = outcomes
    if isinstance(want, tuple):
        assert got == want
    else:
        assert _bitwise_equal(got, want)


def test_initial_points_build_one_philox_per_call(monkeypatch):
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    spec = SearchSpec([[0.0, 1.0]] * 3, restarts=8, iterations=5,
                      seeds=[1, 2, 3])
    _initial_points(spec)
    assert len(built) <= 1


@pytest.mark.parametrize("stuck", [0, 2, 3])
def test_stuck_group_raises_with_its_closest_residual(stuck, monkeypatch):
    # x lives in [0, 1] and peaks at 0.5; a target of 3 is out of reach for
    # that group only
    restarts, seeds = 5, [11, 12, 13, 14]
    targets = np.full(4, 0.5)
    targets[stuck] = 3.0

    def run(k_slice, seeds):
        objective, equality = _grouped_problem(
            np.full((4, 1), 0.5)[k_slice], targets[k_slice], restarts)
        spec = SearchSpec([[0.0, 1.0]], restarts, 90, seeds)
        return maximize(objective, spec, equality=equality)

    monkeypatch.setattr(search, "FEAS_TOL", 0.01)
    with pytest.raises(RuntimeError) as alone:
        run(slice(stuck, stuck + 1), seeds[stuck:stuck + 1])
    with pytest.raises(RuntimeError) as batched:
        run(slice(None), seeds)
    assert "closest residual 2" in str(alone.value)
    assert str(batched.value) == str(alone.value)


def test_group_non_finite_everywhere_raises():
    # group 1 is non-finite on all its rows; the other groups are fine
    restarts = 3
    spec = SearchSpec([[0.0, 1.0]], restarts, 10, [1, 2, 3])

    def objective(X):
        vals = -X[:, 0]
        vals[restarts:2 * restarts] = np.nan
        return vals

    with pytest.raises(ValueError, match="non-finite"):
        maximize(objective, spec)


def test_lowest_stuck_group_names_the_error(monkeypatch):
    restarts, seeds = 4, [21, 22, 23]
    targets = np.array([0.5, 2.5, 3.5])
    objective, equality = _grouped_problem(np.full((3, 1), 0.5), targets,
                                           restarts)
    spec = SearchSpec([[0.0, 1.0]], restarts, 60, seeds)
    monkeypatch.setattr(search, "FEAS_TOL", 0.01)
    with pytest.raises(RuntimeError, match="closest residual 1.5"):
        maximize(objective, spec, equality=equality)


def test_isotonic_project():
    assert np.allclose(isotonic_project([1.0, 2.0], decreasing=True), [1.5, 1.5])
    assert np.allclose(isotonic_project([1.0, 2.0]), [1.0, 2.0])
    rng = np.random.default_rng(9)
    v = rng.normal(size=40)
    up = isotonic_project(v)
    assert np.all(np.diff(up) >= -1e-12)
    assert np.allclose(isotonic_project(up), up)  # idempotent
    assert up.sum() == pytest.approx(v.sum(), abs=1e-9)  # pooling preserves mass
    down = isotonic_project(v, decreasing=True)
    assert np.all(np.diff(down) <= 1e-12)
