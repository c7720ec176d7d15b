import math
import re
import runpy
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from compound_bc.becbsc import (
    BecBscParams,
    _check_alpha,
    _mutual_informations,
    alpha0_solve,
    capacity_c1,
    capacity_c2,
    corner_E_dominance,
    id_curve,
    mrs_gerber_lower,
    strict_inclusion_ratio_test,
)
from compound_bc.info import binary_entropy, make_bec, make_bsc, mi_groups
from compound_bc.polyhedra import NumericRegion

from region_oracle import feasible, violation


def h2(x):
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def star(a, b):
    return a + b - 2 * a * b


PARAMS = BecBscParams()


def test_params_validation():
    with pytest.raises(ValueError, match="0 < p < p1"):
        BecBscParams(0.13, 0.1, 0.46)
    with pytest.raises(ValueError, match="more capable than Y1"):
        BecBscParams(0.1, 0.13, 0.40)  # below 4*p1*(1-p1) = 0.4524
    with pytest.raises(ValueError, match="more capable than Z"):
        BecBscParams(0.1, 0.13, 0.48)  # above H2(0.1) = 0.46899...
    # equality e2 = H2(p) sits on the admissible boundary
    BecBscParams(0.1, 0.13, h2(0.1))


def test_capacity_c1_endpoints_and_interior():
    r1, r2 = capacity_c1(PARAMS, 0.0)
    assert r1 == pytest.approx(1 - h2(0.13), abs=1e-12)
    assert r2 == pytest.approx(0.0, abs=1e-12)
    r1, r2 = capacity_c1(PARAMS, 0.5)
    assert r1 == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(1 - h2(0.1), abs=1e-12)
    r1, r2 = capacity_c1(PARAMS, 0.2)
    assert r1 == pytest.approx(1 - h2(0.278), abs=1e-12)
    assert r2 == pytest.approx(h2(0.26) - h2(0.1), abs=1e-12)
    assert star(0.1, 0.2) == pytest.approx(0.26, abs=1e-15)
    with pytest.raises(ValueError, match="alpha"):
        capacity_c1(PARAMS, 0.6)


@st.composite
def valid_params(draw):
    """(p, p1, e2) in the mixed regime 4p(1-p) < 4p1(1-p1) < e2 <= H2(p)."""
    p = draw(st.floats(1e-3, 0.45))
    p1_max = (1.0 - math.sqrt(1.0 - binary_entropy(p))) / 2.0
    p1 = draw(st.floats(p, p1_max, exclude_min=True, exclude_max=True))
    # near p1_max, 4p1(1-p1) can round up to H2(p), leaving no e2 to draw
    assume(4 * p1 * (1 - p1) < binary_entropy(p))
    e2 = draw(st.floats(4 * p1 * (1 - p1), binary_entropy(p),
                        exclude_min=True))
    try:
        return BecBscParams(p, p1, e2)
    except ValueError:  # a rounding step off the admissible boundary
        assume(False)


# 0, 1/2 and the smallest subnormal, followed by drawn crossovers
ALPHA_GRIDS = hnp.arrays(np.float64, st.integers(0, 12),
                         elements=st.floats(0.0, 0.5)).map(
    lambda drawn: np.concatenate([[0.0, 0.5, 5e-324], drawn]))


@settings(max_examples=60, deadline=None)
@given(params=valid_params(), alphas=ALPHA_GRIDS)
def test_closed_forms_on_an_array_are_their_scalar_calls(params, alphas):
    # a scalar call is a size-1 call into the same kernel, bit for bit
    for form in (capacity_c1, capacity_c2, id_curve, mrs_gerber_lower):
        whole = form(params, alphas)
        each = [form(params, float(a)) for a in alphas]
        for k, column in enumerate(whole):
            column = np.broadcast_to(column, alphas.shape)
            assert np.array_equal(column, [row[k] for row in each]), \
                (form.__name__, k)
    # the C2 sum bound does not depend on alpha and stays a scalar
    assert capacity_c2(params, alphas)[2] == 1 - params.e2


@pytest.mark.parametrize("alpha, first", [
    ([0.1, math.nan, 0.7], "nan"),
    ([0.2, 0.6, -0.1], "0.6"),
    ([[0.0, 0.5], [-1e-300, 0.3]], "-1e-300"),
    (math.nan, "nan"),
    (0.5 + 1e-16, "0.5000000000000001"),
])
def test_check_alpha_names_the_first_bad_entry(alpha, first):
    with pytest.raises(ValueError, match=f"got {re.escape(first)}$"):
        _check_alpha(np.array(alpha))
    for form in (capacity_c1, capacity_c2, id_curve, mrs_gerber_lower):
        with pytest.raises(ValueError, match="alpha must lie in"):
            form(PARAMS, np.array(alpha))


def region(rows, bounds):
    """Numeric (R1, R2) region of one slice's bound tuple."""
    return NumericRegion(("R1", "R2"), rows, bounds)


def c2_region(alpha):
    return region([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                  capacity_c2(PARAMS, alpha))


def id_region(alpha):
    return region([[1.0, 0.0], [1.0, 1.0]], id_curve(PARAMS, alpha))


def test_capacity_c2_slices():
    reg0 = c2_region(0.0)
    assert feasible(reg0, [[0.0, 0.3]])[0]
    assert not feasible(reg0, [[0.01, 0.3]], tol=1e-9)[0]
    reg_half = c2_region(0.5)
    assert feasible(reg_half, [[0.54, 0.0]])[0]
    assert not feasible(reg_half, [[0.5401, 0.0]], tol=1e-9)[0]
    assert not feasible(reg_half, [[0.3, 0.01]], tol=1e-9)[0]
    reg = c2_region(0.3)
    exp = [0.54 * h2(0.3), 1 - h2(star(0.1, 0.3)), 0.54]
    assert np.allclose(capacity_c2(PARAMS, 0.3), exp, atol=1e-12)
    # sum cap binds: the box corner of the first two rows is cut off
    assert exp[0] + exp[1] > exp[2]
    assert not feasible(reg, [[exp[0], exp[1]]], tol=1e-9)[0]
    assert feasible(reg, [[exp[0], exp[2] - exp[0]]])[0]


def test_strict_inclusion_ratio():
    lhs, rhs, holds = strict_inclusion_ratio_test(PARAMS)
    assert lhs == pytest.approx(0.855625, abs=1e-6)
    assert rhs == pytest.approx(1.016941, abs=1e-6)
    assert holds
    # identical BSCs: the degraded pair's slope limit is exactly 1
    lhs_eq, _, _ = strict_inclusion_ratio_test(
        SimpleNamespace(p=0.1, p1=0.1, e2=0.46))
    assert lhs_eq == pytest.approx(1.0, abs=1e-15)
    # boundary erasure rate: rhs hits 1 exactly
    _, rhs_eq, holds_eq = strict_inclusion_ratio_test(
        BecBscParams(0.1, 0.13, h2(0.1)))
    assert rhs_eq == pytest.approx(1.0, abs=1e-12)
    assert holds_eq


def test_id_curve_slice_and_union_split():
    reg = id_region(0.0)
    c = 1 - h2(0.13)
    assert np.allclose(id_curve(PARAMS, 0.0), [c, c], atol=1e-12)
    assert feasible(reg, [[c - 1e-9, 0.0]])[0]
    assert not feasible(reg, [[c - 0.01, 0.02]], tol=1e-9)[0]
    # each slice splits exactly into the degraded pair's rectangle and the
    # excess-R2 triangle above it
    axis = np.linspace(0.0, 0.8, 33)
    pts = np.array([(a, b) for a in axis for b in axis])
    for alpha in np.linspace(0.0, 0.5, 21):
        whole = id_region(alpha)
        c, cs = id_curve(PARAMS, alpha)
        s = cs - c
        rect = region([[1.0, 0.0], [0.0, 1.0]], [c, s])
        tri = region([[0.0, -1.0], [1.0, 1.0]], [-s, c + s])
        clear = (np.abs(violation(whole, pts)) > 1e-9) \
            & (np.abs(violation(rect, pts)) > 1e-9) \
            & (np.abs(violation(tri, pts)) > 1e-9)
        in_whole = feasible(whole, pts[clear], tol=0.0)
        in_split = feasible(rect, pts[clear], tol=0.0) \
            | feasible(tri, pts[clear], tol=0.0)
        assert np.array_equal(in_whole, in_split)


def test_corner_dominance():
    grid = np.linspace(0.0, 0.5, 1000)
    assert corner_E_dominance(PARAMS, grid) >= 0.0
    same = SimpleNamespace(p=0.1, p1=0.1)
    assert corner_E_dominance(same, grid) == pytest.approx(0.0, abs=1e-15)
    assert corner_E_dominance(PARAMS, [0.5]) == pytest.approx(0.0, abs=1e-15)


def test_design_kernel_at_named_designs():
    def kernel(pq, bx):
        i_qy1, i_qy2, i_xz_q = _mutual_informations(
            np.array([pq]), np.array([bx]), PARAMS)
        return i_qy1[0], i_qy2[0], i_xz_q[0]

    # auxiliary equal to the input: no satellite layer remains
    i_qy1, i_qy2, i_xz_q = kernel((0.5, 0.5), (0.0, 1.0))
    assert i_qy1 == pytest.approx(1 - h2(0.13), abs=1e-12)
    assert i_qy2 == pytest.approx(1 - 0.46, abs=1e-12)
    assert i_xz_q == pytest.approx(0.0, abs=1e-12)
    # independent auxiliary: everything goes through the satellite
    i_qy1, i_qy2, i_xz_q = kernel((1.0,), (0.5,))
    assert i_qy1 == pytest.approx(0.0, abs=1e-12)
    assert i_qy2 == pytest.approx(0.0, abs=1e-12)
    assert i_xz_q == pytest.approx(1 - h2(0.1), abs=1e-12)
    # symmetric binary auxiliary with crossover 0.2
    i_qy1, i_qy2, i_xz_q = kernel((0.5, 0.5), (0.2, 0.8))
    assert i_qy1 == pytest.approx(1 - h2(star(0.13, 0.2)), abs=1e-12)
    assert i_qy2 == pytest.approx(0.54 * (1 - h2(0.2)), abs=1e-12)
    assert i_xz_q == pytest.approx(h2(0.26) - h2(0.1), abs=1e-12)


def uniform_x_designs(rng, nq, n):
    """n random designs (pq, bx) of shape (n, nq) with P(X=1) = 1/2: the
    last conditional balances the others, and draws that push it outside
    [0, 1] are rejected."""
    pqs, bxs = [], []
    while len(pqs) < n:
        pq = rng.dirichlet(np.ones(nq))
        bx = rng.uniform(size=nq)
        bx[-1] = (0.5 - pq[:-1] @ bx[:-1]) / pq[-1]
        if 0.0 <= bx[-1] <= 1.0:
            pqs.append(pq)
            bxs.append(bx)
    return np.array(pqs), np.array(bxs)


def test_design_kernel_matches_mi_groups_on_cascaded_tables():
    # the closed-form kernel against the generic engine on explicit
    # (Q, X, Y) tables p(q) p(x|q) W(y|x) for each channel instance
    rng = np.random.default_rng(29)
    channels = {"Y1": make_bsc(PARAMS.p1), "Y2": make_bec(PARAMS.e2),
                "Z": make_bsc(PARAMS.p)}
    names = ("Q", "X", "Y")
    for nq in range(1, 5):
        pq, bx = uniform_x_designs(rng, nq, 40)
        i_qy1, i_qy2, i_xz_q = _mutual_informations(pq, bx, PARAMS)
        for k in range(len(pq)):
            pxq = np.stack([1 - bx[k], bx[k]], axis=1)
            t = {label: pq[k][:, None, None] * pxq[:, :, None] * W[None]
                 for label, W in channels.items()}
            assert i_qy1[k] == pytest.approx(
                mi_groups(t["Y1"], names, "Q", "Y"), abs=1e-12)
            assert i_qy2[k] == pytest.approx(
                mi_groups(t["Y2"], names, "Q", "Y"), abs=1e-12)
            assert i_xz_q[k] == pytest.approx(
                mi_groups(t["Z"], names, "X", "Y", given="Q"), abs=1e-12)


def test_mrs_gerber_and_crossing():
    r2, r1 = mrs_gerber_lower(PARAMS, 0.0)
    assert r2 == pytest.approx(0.0, abs=1e-12)
    assert r1 == pytest.approx(min(1 - h2(0.13), 0.54), abs=1e-12)
    a0 = alpha0_solve(PARAMS)
    assert 0.25 < a0 < 0.4
    bsc_branch = 1 - h2(star(0.13, a0))
    bec_branch = 0.54 * (1 - h2(a0))
    assert bsc_branch == pytest.approx(bec_branch, abs=1e-9)
    # below the crossing the analytic lower bound tracks the achievable curve
    for alpha in np.linspace(0.0, a0 - 1e-6, 20):
        _, r1 = mrs_gerber_lower(PARAMS, alpha)
        assert r1 == pytest.approx(
            1 - h2(star(0.13, alpha)), abs=1e-12)


def test_discrete_demo_corner_table_matches_capacity_c1(tmp_path,
                                                        monkeypatch):
    demo = Path(__file__).parents[1] / "demos" / "discrete_compound_tour.py"
    monkeypatch.setattr(sys, "argv", [str(demo), "--out", str(tmp_path)])
    runpy.run_path(str(demo), run_name="__main__")
    table = np.genfromtxt(tmp_path / "corners.csv", delimiter=",", names=True)
    for row in table:
        r1, r2 = capacity_c1(PARAMS, float(row["alpha"]))
        assert abs(row["c1_r1"] - r1) <= 1e-11
        assert abs(row["c1_r2"] - r2) <= 1e-11
