import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from compound_bc.search import (
    SearchSpec,
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


def test_maximize_concave_box():
    spec = SearchSpec(dim=2, bounds=[[-5, 5], [-5, 5]],
                      restarts=8, iterations=400, seed=42)
    res = maximize(lambda X: -((X[:, 0] - 2) ** 2) - (X[:, 1] + 1) ** 2, spec)
    assert res.value == pytest.approx(0.0, abs=1e-4)
    assert np.allclose(res.point, [2, -1], atol=0.02)
    assert len(res.trace) == 400
    assert np.all(np.diff(res.trace) >= 0)  # best-so-far never degrades


def test_maximize_deterministic():
    spec = SearchSpec(dim=3, restarts=6,
                      iterations=150, seed=7)

    def f(X):
        return -np.sum((X - np.array([1.0, -2.0, 0.5])) ** 2, axis=1)

    r1 = maximize(f, spec)
    r2 = maximize(f, SearchSpec(dim=3, restarts=6,
                                iterations=150, seed=7))
    assert r1.value == r2.value
    assert np.array_equal(r1.point, r2.point)
    r3 = maximize(f, SearchSpec(dim=3, restarts=6,
                                iterations=150, seed=8))
    assert r3.value != r1.value or not np.array_equal(r3.point, r1.point)


def test_maximize_with_equality_penalty():
    # maximize x0 on the unit circle: optimum (1, 0)
    spec = SearchSpec(dim=2, bounds=[[-2, 2], [-2, 2]],
                      restarts=16, iterations=600, seed=3)
    res = maximize(lambda X: X[:, 0], spec,
                   equality=lambda X: X[:, 0] ** 2 + X[:, 1] ** 2 - 1.0)
    assert abs(res.residual) <= 1e-4
    assert res.value == pytest.approx(1.0, abs=5e-3)


def test_maximize_errors():
    spec = SearchSpec(dim=1, restarts=4, iterations=50, seed=0,
                      bounds=[[0, 1]])
    with pytest.raises(ValueError):
        maximize(lambda X: np.full(len(X), np.nan), spec)
    with pytest.raises(RuntimeError):
        maximize(lambda X: X[:, 0], spec,
                 equality=lambda X: X[:, 0] ** 2 + 1.0)
    with pytest.raises(ValueError):
        SearchSpec(dim=1, restarts=0)
    with pytest.raises(ValueError):
        SearchSpec(dim=1, seed=[])


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
       bounded=st.booleans(), constrained=st.booleans())
def test_groups_match_separate_searches(data, groups, dim, restarts,
                                        iterations, bounded, constrained):
    seeds = data.draw(st.lists(st.integers(0, 2 ** 64 - 1),
                               min_size=groups, max_size=groups))
    unit = st.floats(-1.5, 1.5, allow_nan=False)
    centers = np.array(data.draw(st.lists(
        st.lists(unit, min_size=dim, max_size=dim),
        min_size=groups, max_size=groups)))
    targets = np.array(data.draw(st.lists(unit, min_size=groups,
                                          max_size=groups)))
    bounds = [[-2.0, 2.0]] * dim if bounded else None
    # a loose tolerance so short searches sometimes pass and sometimes fail
    kwargs = {"feas_tol": 0.05}

    def run(k_slice, seed):
        objective, equality = _grouped_problem(
            centers[k_slice], targets[k_slice], restarts)
        spec = SearchSpec(dim=dim, bounds=bounds, restarts=restarts,
                          iterations=iterations, seed=seed)
        return maximize(objective, spec,
                        equality=equality if constrained else None, **kwargs)

    separate, first_error = [], None
    for k in range(groups):
        try:
            separate.append(run(slice(k, k + 1), seeds[k]))
        except RuntimeError as exc:
            first_error = first_error or str(exc)
    if first_error is not None:
        with pytest.raises(RuntimeError) as batched:
            run(slice(None), seeds)
        assert str(batched.value) == first_error
        return
    together = run(slice(None), seeds)
    assert len(together) == groups
    for one, batched in zip(separate, together):
        assert np.array_equal(one.value, batched.value)
        assert np.array_equal(one.point, batched.point)
        assert np.array_equal(one.trace, batched.trace)
        assert np.array_equal(one.residual, batched.residual)


def test_integer_seed_returns_one_result_and_sequence_a_list():
    spec = SearchSpec(dim=2, restarts=3, iterations=20, seed=5)
    objective, _ = _grouped_problem(np.zeros((1, 2)), np.zeros(1), 3)
    single = maximize(objective, spec)
    listed = maximize(objective, SearchSpec(dim=2, restarts=3, iterations=20,
                                            seed=[5]))
    assert len(listed) == 1
    assert single.value == listed[0].value
    assert np.array_equal(single.point, listed[0].point)


@pytest.mark.parametrize("stuck", [0, 2, 3])
def test_stuck_group_raises_with_its_closest_residual(stuck):
    # x lives in [0, 1] and peaks at 0.5; a target of 3 is out of reach for
    # that group only
    restarts, seeds = 5, [11, 12, 13, 14]
    targets = np.full(4, 0.5)
    targets[stuck] = 3.0

    def run(k_slice, seed):
        objective, equality = _grouped_problem(
            np.full((4, 1), 0.5)[k_slice], targets[k_slice], restarts)
        spec = SearchSpec(dim=1, bounds=[[0.0, 1.0]], restarts=restarts,
                          iterations=90, seed=seed)
        return maximize(objective, spec, equality=equality, feas_tol=0.01)

    with pytest.raises(RuntimeError) as alone:
        run(slice(stuck, stuck + 1), seeds[stuck])
    with pytest.raises(RuntimeError) as batched:
        run(slice(None), seeds)
    assert "closest residual 2" in str(alone.value)
    assert str(batched.value) == str(alone.value)


def test_group_non_finite_everywhere_raises():
    # group 1 is non-finite on all its rows; the other groups are fine
    restarts = 3
    spec = SearchSpec(dim=1, bounds=[[0.0, 1.0]], restarts=restarts,
                      iterations=10, seed=[1, 2, 3])

    def objective(X):
        vals = -X[:, 0]
        vals[restarts:2 * restarts] = np.nan
        return vals

    with pytest.raises(ValueError, match="non-finite"):
        maximize(objective, spec)


def test_lowest_stuck_group_names_the_error():
    restarts, seeds = 4, [21, 22, 23]
    targets = np.array([0.5, 2.5, 3.5])
    objective, equality = _grouped_problem(np.full((3, 1), 0.5), targets,
                                           restarts)
    spec = SearchSpec(dim=1, bounds=[[0.0, 1.0]], restarts=restarts,
                      iterations=60, seed=seeds)
    with pytest.raises(RuntimeError, match="closest residual 1.5"):
        maximize(objective, spec, equality=equality, feas_tol=0.01)


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
