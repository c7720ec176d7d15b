import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from compound_bc.info import (
    PMF_TOL,
    _xlog2x,
    binary_convolve,
    binary_entropy,
    entropy,
    make_bec,
    make_bsc,
    mi_groups,
)


# Oracle helpers: pure-math reimplementations kept independent of the package.

def h2_oracle(x):
    if x in (0.0, 1.0):
        return 0.0
    return -(x * math.log(x) + (1 - x) * math.log(1 - x)) / math.log(2)


def mi_oracle(px, W):
    # I(X;Y) = sum_xy p(x)W(y|x) log2( W(y|x) / p(y) )
    px = np.asarray(px, float)
    W = np.asarray(W, float)
    py = px @ W
    total = 0.0
    for x in range(W.shape[0]):
        for y in range(W.shape[1]):
            if px[x] > 0 and W[x, y] > 0:
                total += px[x] * W[x, y] * math.log2(W[x, y] / py[y])
    return total


def cmi_oracle(table, names, group_a, group_b, given=()):
    # I(A;B|C) = sum p(a,b,c) log2( p(a,b,c) p(c) / (p(a,c) p(b,c)) ),
    # marginals accumulated cell by cell; the groups must be disjoint
    names = list(names)

    def axes(group):
        group = (group,) if isinstance(group, str) else tuple(group)
        return [names.index(v) for v in group]

    ia, ib, ic = axes(group_a), axes(group_b), axes(given)

    def marginal(ax):
        m = {}
        for cell in np.ndindex(table.shape):
            key = tuple(cell[i] for i in ax)
            m[key] = m.get(key, 0.0) + float(table[cell])
        return m

    p_abc = marginal(ia + ib + ic)
    p_ac, p_bc, p_c = marginal(ia + ic), marginal(ib + ic), marginal(ic)
    total = 0.0
    for key, p in p_abc.items():
        if p > 0:
            ka, kb = key[:len(ia)], key[len(ia):len(ia) + len(ib)]
            kc = key[len(ia) + len(ib):]
            total += p * math.log2(p * p_c[kc] / (p_ac[ka + kc] * p_bc[kb + kc]))
    return total


def mi_xy(px, W):
    """I(X;Y) for input pmf px through the channel matrix W, via mi_groups."""
    return mi_groups(np.asarray(px)[:, None] * W, ("X", "Y"), "X", "Y")


def cascade_table(pq, pxq, W):
    """Joint pmf p(q) p(x|q) W(y|x) over (Q, X, Y)."""
    return pq[:, None, None] * pxq[:, :, None] * W[None, :, :]


def test_binary_entropy_reference_values():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # frozen from the oracle: h2(0.1) = 0.46899559358928117
    assert h2_oracle(0.1) == pytest.approx(0.46899559358928117, abs=1e-15)
    assert binary_entropy(0.1) == pytest.approx(0.468996, abs=1e-6)
    assert binary_entropy(0.1) == pytest.approx(h2_oracle(0.1), abs=1e-14)


def test_binary_entropy_symmetry_and_vectorization():
    xs = np.linspace(0, 1, 101)
    hs = binary_entropy(xs)
    assert hs.shape == xs.shape
    assert np.allclose(hs, binary_entropy(1 - xs), atol=1e-14)
    assert np.all(hs <= 1 + 1e-14)
    assert isinstance(binary_entropy(np.array(0.25)), float)
    with pytest.raises(ValueError):
        binary_entropy(1.5)


# The masked bodies that `_xlog2x` and `binary_entropy` had before the
# mask-free rewrite, kept as bit-exact reference oracles.

def xlog2x_masked(p):
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = p[mask] * np.log2(p[mask])
    return out


def binary_entropy_masked(x):
    x = np.asarray(x, dtype=float)
    if np.any((x < -PMF_TOL) | (x > 1 + PMF_TOL)):
        raise ValueError("binary_entropy argument outside [0, 1]")
    x = np.clip(x, 0.0, 1.0)
    out = -xlog2x_masked(x) - xlog2x_masked(1.0 - x)
    return float(out) if out.ndim == 0 else out


EDGE_VALUES = [0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-310,
               1.0 - 2.0 ** -53, 0.5]


def kernel_inputs(elements):
    """Float arrays of shape (), (n,), (n, 4) or (3, n) mixing edge values."""
    values = st.one_of(st.sampled_from(EDGE_VALUES), elements)
    shapes = st.one_of(st.just(()), st.integers(1, 12).map(lambda n: (n,)),
                       st.integers(1, 6).map(lambda n: (n, 4)),
                       st.integers(1, 6).map(lambda n: (3, n)))
    return shapes.flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=values))


@settings(max_examples=200, deadline=None)
@given(p=kernel_inputs(st.one_of(st.floats(0.0, 1.0), st.floats())))
def test_xlog2x_is_bitwise_the_masked_kernel(p):
    got = _xlog2x(p)
    assert got.shape == p.shape
    assert np.array_equal(got, xlog2x_masked(p), equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(xlog2x_masked(p)))
    # strided views take the same path as contiguous arrays
    if p.ndim == 2:
        assert np.array_equal(_xlog2x(p[:, ::2]), xlog2x_masked(p[:, ::2]),
                              equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(x=kernel_inputs(st.floats(-PMF_TOL, 1.0 + PMF_TOL)))
def test_binary_entropy_is_bitwise_the_masked_kernel(x):
    got = binary_entropy(x)
    expected = binary_entropy_masked(x)
    assert type(got) is type(expected)
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


@settings(max_examples=100, deadline=None)
@given(x=kernel_inputs(st.floats(0.0, 1.0)), bad=st.one_of(
    st.floats(max_value=-2 * PMF_TOL, allow_nan=False),
    st.floats(min_value=1 + 2 * PMF_TOL, allow_nan=False),
    st.just(np.nan)))
def test_binary_entropy_rejects_values_outside_the_unit_interval(x, bad):
    with pytest.raises(ValueError, match="outside"):
        binary_entropy(np.append(x, bad))
    with pytest.raises(ValueError, match="outside"):
        binary_entropy(bad)


def test_binary_convolve():
    assert binary_convolve(0.1, 0.13) == pytest.approx(0.204, abs=1e-15)
    assert binary_convolve(0.3, 0.0) == pytest.approx(0.3, abs=1e-15)
    assert binary_convolve(0.3, 0.5) == pytest.approx(0.5, abs=1e-15)
    a = np.linspace(0, 0.5, 7)
    assert np.allclose(binary_convolve(a, a[::-1]), binary_convolve(a[::-1], a))


def test_channel_matrices_and_validation():
    bsc = make_bsc(0.1)
    assert isinstance(bsc, np.ndarray) and bsc.dtype == float
    assert bsc.tolist() == [[0.9, 0.1], [0.1, 0.9]]
    bec = make_bec(0.46)
    assert bec.shape == (2, 3)
    # column order: output 0, output 1, erasure
    assert bec[0].tolist() == [0.54, 0.0, 0.46]
    assert bec[1].tolist() == [0.0, 0.54, 0.46]
    with pytest.raises(ValueError):
        make_bsc(0.6)
    with pytest.raises(ValueError):
        make_bec(1.5)


def test_mutual_information_bsc():
    # frozen from the oracle: 1 - h2(0.1) = 0.5310044064107188
    got = mi_xy([0.5, 0.5], make_bsc(0.1))
    assert got == pytest.approx(0.531004, abs=1e-6)
    assert got == pytest.approx(mi_oracle([0.5, 0.5], make_bsc(0.1)), abs=1e-13)
    assert got == pytest.approx(1 - binary_entropy(0.1), abs=1e-13)


def test_mutual_information_bec_capacity():
    for e in (0.0, 0.25, 0.46, 1.0):
        got = mi_xy([0.5, 0.5], make_bec(e))
        assert got == pytest.approx(1 - e, abs=1e-12)


def test_mutual_information_nonnegative_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        nx, ny = rng.integers(2, 5, size=2)
        px = rng.dirichlet(np.ones(nx))
        W = rng.dirichlet(np.ones(ny), size=nx)
        got = mi_xy(px, W)
        assert got >= 0.0
        assert got == pytest.approx(mi_oracle(px, W), abs=1e-12)


def test_conditional_mi_is_weighted_sum():
    rng = np.random.default_rng(11)
    pq = rng.dirichlet(np.ones(3))
    joints = rng.dirichlet(np.ones(4), size=(3, 2)).reshape(3, 2, 4)
    # joints rows currently sum to 1 per (q, a); renormalize to joint pmfs
    joints = joints / joints.sum(axis=(1, 2), keepdims=True)
    got = mi_groups(pq[:, None, None] * joints, ("Q", "A", "B"), "A", "B",
                    given="Q")
    want = 0.0
    for q in range(3):
        pab = joints[q]
        pa, pb = pab.sum(1), pab.sum(0)
        want += pq[q] * (entropy(pa) + entropy(pb) - entropy(pab))
    assert got == pytest.approx(want, abs=1e-12)
    assert got >= 0.0


def test_cascade_and_data_processing():
    rng = np.random.default_rng(3)
    names = ("Q", "X", "Y")
    for _ in range(25):
        pq = rng.dirichlet(np.ones(3))
        pxq = rng.dirichlet(np.ones(2), size=3)
        W = rng.dirichlet(np.ones(3), size=2)
        t = cascade_table(pq, pxq, W)
        # markov chain Q - X - Y: processing cannot create information
        i_qy = mi_groups(t, names, "Q", "Y")
        i_xy = mi_groups(t, names, "X", "Y")
        assert i_qy <= i_xy + 1e-12
        # and I(Q;Y|X) = 0 under the cascade construction
        assert mi_groups(t, names, "Q", "Y", given="X") == pytest.approx(
            0, abs=1e-12)


def test_joint_dist_identities():
    rng = np.random.default_rng(5)
    t = rng.dirichlet(np.ones(2 * 3 * 2)).reshape(2, 3, 2)
    names = ("A", "B", "C")
    # chain rule: I(A;BC) = I(A;B) + I(A;C|B)
    lhs = mi_groups(t, names, "A", ("B", "C"))
    rhs = mi_groups(t, names, "A", "B") + mi_groups(t, names, "A", "C",
                                                    given="B")
    assert lhs == pytest.approx(rhs, abs=1e-12)
    # entropy decomposition, with H(A|B) = I(A;A|B)
    assert mi_groups(t, names, "A", "A", given="B") == pytest.approx(
        entropy(t.sum(axis=2)) - entropy(t.sum(axis=(0, 2))), abs=1e-12)


def test_mi_groups_matches_oracle():
    rng = np.random.default_rng(13)
    t = rng.dirichlet(np.ones(24)).reshape(2, 3, 2, 2)
    names = ("Q", "U", "X", "Y")
    for a, b, c in [("Q", "Y", ()), (("Q", "U"), "Y", ()), ("U", "Y", "Q"),
                    ("U", ("X", "Y"), "Q")]:
        assert mi_groups(t, names, a, b, c) == pytest.approx(
            cmi_oracle(t, names, a, b, c), abs=1e-12)
    # five axes: the engine has no cap on the number of variables
    t = rng.dirichlet(np.ones(48)).reshape(2, 3, 2, 2, 2)
    names = ("Q", "U", "V", "X", "Y")
    for a, b, c in [(("U", "V"), "Y", "Q"), ("U", "V", ("Q", "X")),
                    ("Q", ("U", "V", "X", "Y"), ()), ("V", "Y", ("Q", "U"))]:
        assert mi_groups(t, names, a, b, c) == pytest.approx(
            cmi_oracle(t, names, a, b, c), abs=1e-12)

