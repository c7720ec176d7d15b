import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from compound_bc.info import (
    PMF_TOL,
    ChannelOrdering,
    DMChannel,
    JointDist,
    Pmf,
    _xlog2x,
    binary_convolve,
    binary_entropy,
    cascade,
    classify_bec_bsc,
    conditional_mi,
    entropy,
    make_bec,
    make_bsc,
    mi_groups,
    mutual_information,
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
    st.floats(min_value=1 + 2 * PMF_TOL, allow_nan=False)))
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


def test_pmf_validation():
    Pmf([0.25, 0.75])
    Pmf([0.25, 0.75 + 1e-13])  # inside tolerance
    with pytest.raises(ValueError):
        Pmf([0.3, 0.8])
    with pytest.raises(ValueError):
        Pmf([-0.1, 1.1])
    with pytest.raises(ValueError):
        Pmf([[0.5, 0.5]])


def test_channel_validation_and_serialization():
    ch = make_bsc(0.1)
    assert ch.shape == (2, 2)
    bec = make_bec(0.46)
    assert bec.shape == (2, 3)
    # column order: output 0, output 1, erasure
    assert bec.W[0].tolist() == [0.54, 0.0, 0.46]
    assert bec.W[1].tolist() == [0.0, 0.54, 0.46]
    with pytest.raises(ValueError):
        make_bsc(0.6)
    with pytest.raises(ValueError):
        DMChannel([[0.5, 0.4], [0.5, 0.5]])
    rt = DMChannel.from_json(json.loads(json.dumps(ch.to_json())))
    assert np.allclose(rt.W, ch.W)
    p = Pmf([0.2, 0.8], labels=["a", "b"])
    rt2 = Pmf.from_json(json.loads(json.dumps(p.to_json())))
    assert np.allclose(rt2.p, p.p) and rt2.labels == ["a", "b"]


def test_mutual_information_bsc():
    # frozen from the oracle: 1 - h2(0.1) = 0.5310044064107188
    got = mutual_information(Pmf.uniform(2), make_bsc(0.1))
    assert got == pytest.approx(0.531004, abs=1e-6)
    assert got == pytest.approx(mi_oracle([0.5, 0.5], make_bsc(0.1).W), abs=1e-13)
    assert got == pytest.approx(1 - binary_entropy(0.1), abs=1e-13)


def test_mutual_information_bec_capacity():
    for e in (0.0, 0.25, 0.46, 1.0):
        got = mutual_information(Pmf.uniform(2), make_bec(e))
        assert got == pytest.approx(1 - e, abs=1e-12)


def test_mutual_information_nonnegative_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        nx, ny = rng.integers(2, 5, size=2)
        px = rng.dirichlet(np.ones(nx))
        W = rng.dirichlet(np.ones(ny), size=nx)
        got = mutual_information(px, W)
        assert got >= 0.0
        assert got == pytest.approx(mi_oracle(px, W), abs=1e-12)


def test_conditional_mi_is_weighted_sum():
    rng = np.random.default_rng(11)
    pq = rng.dirichlet(np.ones(3))
    joints = rng.dirichlet(np.ones(4), size=(3, 2)).reshape(3, 2, 4)
    # joints rows currently sum to 1 per (q, a); renormalize to joint pmfs
    joints = joints / joints.sum(axis=(1, 2), keepdims=True)
    got = conditional_mi(pq, joints)
    want = 0.0
    for q in range(3):
        pab = joints[q]
        pa, pb = pab.sum(1), pab.sum(0)
        want += pq[q] * (entropy(pa) + entropy(pb) - entropy(pab))
    assert got == pytest.approx(want, abs=1e-12)
    assert got >= 0.0


def test_cascade_and_data_processing():
    rng = np.random.default_rng(3)
    for _ in range(25):
        pq = rng.dirichlet(np.ones(3))
        pxq = rng.dirichlet(np.ones(2), size=3)
        W = rng.dirichlet(np.ones(3), size=2)
        jd = cascade(pq, pxq, W)
        assert jd.names == ("Q", "X", "Y")
        # markov chain Q - X - Y: processing cannot create information
        i_qy = jd.mutual_information("Q", "Y")
        i_xy = jd.mutual_information("X", "Y")
        assert i_qy <= i_xy + 1e-12
        # and I(Q;Y|X) = 0 under the cascade construction
        assert jd.mutual_information("Q", "Y", given="X") == pytest.approx(0, abs=1e-12)


def test_joint_dist_identities():
    rng = np.random.default_rng(5)
    t = rng.dirichlet(np.ones(2 * 3 * 2)).reshape(2, 3, 2)
    jd = JointDist(t, ("A", "B", "C"))
    # chain rule: I(A;BC) = I(A;B) + I(A;C|B)
    lhs = jd.mutual_information("A", ("B", "C"))
    rhs = jd.mutual_information("A", "B") + jd.mutual_information("A", "C", given="B")
    assert lhs == pytest.approx(rhs, abs=1e-12)
    # entropy decomposition
    assert jd.entropy("A", given="B") == pytest.approx(
        jd.entropy(("A", "B")) - jd.entropy("B"), abs=1e-12)
    m = jd.marginal(("C", "A"))
    assert m.names == ("C", "A")
    assert m.table.shape == (2, 2)
    assert np.allclose(m.table, t.sum(axis=1).T)
    with pytest.raises(ValueError):
        JointDist(rng.dirichlet(np.ones(32)).reshape(2, 2, 2, 2, 2),
                  ("A", "B", "C", "D", "E"))


def test_mi_groups_matches_joint_dist():
    rng = np.random.default_rng(13)
    t = rng.dirichlet(np.ones(24)).reshape(2, 3, 2, 2)
    jd = JointDist(t, ("Q", "U", "X", "Y"))
    for a, b, c in [("Q", "Y", ()), (("Q", "U"), "Y", ()), ("U", "Y", "Q"),
                    ("U", ("X", "Y"), "Q")]:
        assert mi_groups(t, ("Q", "U", "X", "Y"), a, b, c) == pytest.approx(
            jd.mutual_information(a, b, given=c), abs=1e-12)


def test_classify_bec_bsc_intervals():
    p = 0.1
    # thresholds: 2p = 0.2, 4p(1-p) = 0.36, h2(p) = 0.468996
    assert classify_bec_bsc(p, 0.05) is ChannelOrdering.BSC_DEGRADED_OF_BEC
    assert classify_bec_bsc(p, 0.2) is ChannelOrdering.BSC_DEGRADED_OF_BEC
    assert classify_bec_bsc(p, 0.21) is ChannelOrdering.BEC_LESS_NOISY_BSC
    assert classify_bec_bsc(p, 0.36) is ChannelOrdering.BEC_LESS_NOISY_BSC
    assert classify_bec_bsc(p, 0.37) is ChannelOrdering.BEC_MORE_CAPABLE_BSC
    assert classify_bec_bsc(p, 0.46) is ChannelOrdering.BEC_MORE_CAPABLE_BSC
    assert classify_bec_bsc(p, 0.47) is ChannelOrdering.BSC_ESS_LESS_NOISY_BEC
    assert classify_bec_bsc(p, 1.0) is ChannelOrdering.BSC_ESS_LESS_NOISY_BEC
    with pytest.raises(ValueError):
        classify_bec_bsc(0.0, 0.3)
