import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from compound_bc.becbsc import BecBscParams
from compound_bc.cli import DEFAULT_ELIMINATE
from compound_bc.idregions import split_rate_example_system
from compound_bc.info import make_bsc
from hull_oracle import t_a_hull
from compound_bc.polyhedra import (
    BOX,
    EmptyRegionError,
    InfoExpr,
    LinIneq,
    NumericRegion,
    RateCurve2D,
    RegionSystem,
    VERTEX_CHUNK,
    VERTEX_TOL,
    _ancestry,
    fme_eliminate,
    fme_eliminate_all,
    ineq,
    instantiate,
    parse_atom,
    prune_redundant,
    sample_valuation,
    substitute_rates,
    vertices_2d,
)

from region_oracle import feasible, violation


def region2(A, b, box=BOX):
    """Numeric (R1, R2) region {A x <= b} inside [0, box]^2."""
    return NumericRegion(("R1", "R2"), A, b, box=box)


def shoelace(verts):
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def grid_area(region, hi, n=401):
    xs = np.linspace(0, hi, n)
    X, Y = np.meshgrid(xs, xs)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    frac = feasible(region, pts).mean()
    return frac * hi * hi


def test_info_expr_arithmetic():
    e = InfoExpr.atom("I(U;Y1|Q)") + InfoExpr.atom("I(U;V|Q)", Fraction(1, 2))
    e = e * 2 - InfoExpr.atom("I(U;V|Q)")
    assert e.coeffs == {"I(U;Y1|Q)": Fraction(2)}
    assert InfoExpr({"I(U;Y1|Q)": "2", "H(X)": "0"}).coeffs == e.coeffs
    assert e.evaluate({"I(U;Y1|Q)": 0.25}) == pytest.approx(0.5)
    with pytest.raises(KeyError):
        e.evaluate({})


def test_lin_ineq_validation():
    with pytest.raises(ValueError):
        LinIneq({"R1": 1}, "==", InfoExpr.atom("A"))
    iq = ineq({"R1": 2, "R2": 0}, "<=", "I(X;Z|Q)")
    assert iq.lhs == {"R1": Fraction(2)}
    assert ineq({"R1": "2", "R2": "0"}, "<=", "I(X;Z|Q)").lhs == iq.lhs
    n = iq.normalized()
    assert n.lhs == {"R1": Fraction(1)}
    assert n.rhs.coeffs["I(X;Z|Q)"] == Fraction(1, 2)


def test_fme_small_known_projection():
    sys = RegionSystem(["x", "y"], [
        ineq({"x": 1, "y": 1}, "<=", "a"),
        ineq({"x": 1, "y": -1}, "<=", 0),
    ])
    out = fme_eliminate(sys, "y")
    assert out.rate_vars == ["x"]
    assert len(out.ineqs) == 1
    row = out.ineqs[0].normalized()
    assert row.lhs == {"x": Fraction(1)}
    assert row.rhs.coeffs == {"a": Fraction(1, 2)}


def test_fme_strictness_propagates():
    sys = RegionSystem(["x", "y"], [
        LinIneq({"y": 1}, "<", InfoExpr.atom("a")),
        LinIneq({"x": 1, "y": -1}, "<=", InfoExpr()),
    ])
    out = fme_eliminate(sys, "y")
    assert out.ineqs[0].rel == "<"
    sys2 = RegionSystem(["x", "y"], [
        LinIneq({"y": 1}, "<=", InfoExpr.atom("a")),
        LinIneq({"x": 1, "y": -1}, "<=", InfoExpr()),
    ])
    assert fme_eliminate(sys2, "y").ineqs[0].rel == "<="


def test_fme_sound_and_complete_random():
    # projection feasibility must exactly match existence of an extension
    rng = np.random.default_rng(17)
    cap = 6.0
    for _ in range(40):
        m = rng.integers(2, 6)
        rows = [ineq({"z": 1}, "<=", cap), ineq({"z": -1}, "<=", 0)]
        for _ in range(m):
            lhs = {v: int(c) for v, c in
                   zip("xyz", rng.integers(-3, 4, size=3)) if c}
            rows.append(ineq(lhs, "<=", float(rng.integers(-2, 8))))
        sys = RegionSystem(["x", "y", "z"], rows)
        proj = fme_eliminate(sys, "z")
        region = instantiate(proj, {})
        for _ in range(40):
            pt = rng.uniform(0, cap, size=2)
            feas_proj = bool(feasible(region, pt)[0])
            lo, hi = 0.0, cap
            ok = True
            for iq in sys.ineqs:
                c = float(iq.lhs.get("z", 0))
                rest = sum(float(iq.lhs.get(v, 0)) * pt[i]
                           for i, v in enumerate(("x", "y")))
                bound = iq.rhs.evaluate({})
                if c > 0:
                    hi = min(hi, (bound - rest) / c)
                elif c < 0:
                    lo = max(lo, (rest - bound) / -c)
                elif rest > bound + 1e-9:
                    ok = False
            feas_ext = ok and lo <= hi + 1e-9
            # stay clear of knife-edge points where float tolerance decides
            if abs(lo - hi) > 1e-6:
                assert feas_proj == feas_ext, (pt, sys.ineqs)


def _row_value(iq, point):
    return sum(c * point[v] for v, c in iq.lhs.items())


def _holds(iq, point):
    value, bound = _row_value(iq, point), iq.rhs.const
    return value < bound if iq.rel == "<" else value <= bound


# integer rows a.(x, y, z) <= a.p + slack, which hold at the drawn point p
FME_ROWS = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                              st.integers(-3, 3), st.integers(0, 4)),
                    min_size=1, max_size=7)


@settings(max_examples=80, deadline=None)
@given(point=st.tuples(st.integers(0, 4), st.integers(0, 4),
                       st.integers(0, 4)), rows=FME_ROWS)
def test_fme_projection_is_sound_and_its_vertices_lift(point, rows):
    p = dict(zip("xyz", point))
    ineqs = [ineq({v: k for v, k in zip("xyz", coeffs)}, "<=",
                  sum(k * p[v] for v, k in zip("xyz", coeffs)) + slack)
             for *coeffs, slack in rows]
    system = RegionSystem(["x", "y", "z"], ineqs)
    proj = fme_eliminate(system, "z")
    assert proj.rate_vars == ["x", "y"] and not proj.atoms()
    # soundness, in exact rationals: every feasible lattice point of the
    # system projects into the eliminated system
    for x, y, z in itertools.product(range(-2, 7), repeat=3):
        q = {"x": x, "y": y, "z": z}
        if all(_holds(iq, q) for iq in system.ineqs):
            assert all(_holds(iq, q) for iq in proj.ineqs), (q, proj.ineqs)
    # every vertex of the projection (inside the numeric box) lifts back:
    # the interval of z values the original rows leave at it is non-empty
    for v in instantiate(proj, {}).vertices():
        q = {"x": v[0], "y": v[1]}
        lo, hi = -np.inf, np.inf
        for iq in system.ineqs:
            c = float(iq.lhs.get("z", 0))
            slack = float(iq.rhs.const) - sum(
                float(iq.lhs.get(w, 0)) * q[w] for w in "xy")
            if c > 0:
                hi = min(hi, slack / c)
            elif c < 0:
                lo = max(lo, slack / c)
            else:
                assert slack >= -1e-9, (v, iq)
        assert lo <= hi + 1e-9, (v, lo, hi)


def fme_plain(system, variables):
    """Fourier-Motzkin elimination without Chernikov's rule: every step runs
    on a rebuilt system, which carries no ancestry."""
    for v in variables:
        system = fme_eliminate(RegionSystem(list(system.rate_vars),
                                            system.ineqs), v)
    return system


# integer rows c.(x, y, s, t, u) (< or <=) r; only the first 2 + n columns
# are used when n variables are eliminated
MIXED_ROWS = st.lists(st.tuples(st.lists(st.integers(-2, 2), min_size=5,
                                         max_size=5),
                                st.sampled_from(["<=", "<"]),
                                st.integers(-3, 6)),
                      min_size=5, max_size=9)
HALF_LATTICE = [Fraction(k, 2) for k in range(-6, 13)]


def constant_system(names, rows):
    return RegionSystem(names, [
        LinIneq(dict(zip(names, coeffs)), rel, InfoExpr(const=rhs))
        for coeffs, rel, rhs in rows])


@settings(max_examples=100, deadline=None)
@given(rows=MIXED_ROWS, n_elim=st.integers(2, 3))
def test_chernikov_pruning_keeps_the_projection_exact(rows, n_elim):
    names = ["x", "y", "s", "t", "u"][:2 + n_elim]
    system = constant_system(names, rows)
    pruned = fme_eliminate_all(system, names[2:])
    plain = fme_plain(system, names[2:])
    assert pruned.rate_vars == plain.rate_vars == ["x", "y"]
    assert len(pruned.ineqs) <= len(plain.ineqs)
    # strict rows make the boundary matter, so compare exactly, in rationals
    for x, y in itertools.product(HALF_LATTICE, repeat=2):
        q = {"x": x, "y": y}
        assert (all(_holds(iq, q) for iq in pruned.ineqs)
                == all(_holds(iq, q) for iq in plain.ineqs)), (q, rows)


def test_chernikov_pruning_keeps_a_row_merged_from_two_histories():
    # after s and t, -u + x - y/2 < -3/2 comes from rows {1, 3} and from
    # rows {1, 2, 4}; joined with u - y <= 4, from rows {0, 2, 4}, only the
    # second history stays within 3 + 1 rows, so a merge that kept the
    # smaller history {1, 3} lost the only row of the projection
    names = ["x", "y", "s", "t", "u"]
    system = constant_system(names, [
        ([0, 0, 0, -1, 0], "<=", 2), ([0, 0, 1, 0, -1], "<", -1),
        ([2, 0, -2, -1, -1], "<=", -3), ([2, -1, -2, 0, 0], "<=", -1),
        ([-2, -1, 2, 2, 2], "<=", 5)])
    pruned = fme_eliminate_all(system, ["s", "t", "u"])
    assert pruned.to_json() == fme_plain(system, ["s", "t", "u"]).to_json()
    assert repr(pruned.ineqs) == "[1*x + -3/2*y < 5/2]"


def test_bundled_example_projection_is_the_plain_one():
    # the system `fme` projects when given no file
    system = split_rate_example_system()
    eliminate = list(DEFAULT_ELIMINATE)
    assert (fme_eliminate_all(system, eliminate).to_json()
            == fme_plain(system, eliminate).to_json())


def test_fme_ancestry_rides_only_on_the_rows_it_was_built_for():
    system = RegionSystem(["x", "y", "z"], [
        ineq({"x": 1, "z": 1}, "<=", "a"), ineq({"y": 1, "z": -1}, "<=", "b"),
        ineq({"x": -1, "z": 1}, "<", "c"), ineq({"y": 1}, "<=", "d")])
    assert _ancestry(system) == ([1, 2, 4, 8], 0)
    out = fme_eliminate(system, "z")
    masks, eliminated = _ancestry(out)
    assert eliminated == 1 and sorted(masks) == [3, 6, 8]
    # not part of the system's value
    rebuilt = RegionSystem(list(out.rate_vars), out.ineqs)
    assert out == rebuilt and repr(out) == repr(rebuilt)
    assert out.to_json() == rebuilt.to_json()
    assert _ancestry(rebuilt) == ([1, 2, 4], 0)
    # a changed row list starts a new elimination sequence
    out.ineqs.append(ineq({"x": 1}, "<=", "e"))
    assert _ancestry(out) == ([1, 2, 4, 8], 0)
    out.ineqs.pop()
    out.ineqs[0] = ineq({"x": 1}, "<=", "e")
    assert _ancestry(out) == ([1, 2, 4], 0)


def test_fme_order_independence():
    rng = np.random.default_rng(23)
    for _ in range(10):
        rows = [ineq({"t1": 1}, "<=", 10.0), ineq({"t2": 1}, "<=", 10.0),
                ineq({"t1": -1}, "<=", 0), ineq({"t2": -1}, "<=", 0)]
        for _ in range(6):
            lhs = {v: int(c) for v, c in
                   zip(("x", "y", "t1", "t2"), rng.integers(-2, 3, size=4)) if c}
            if lhs:
                rows.append(ineq(lhs, "<=", float(rng.integers(0, 9))))
        sys = RegionSystem(["x", "y", "t1", "t2"], rows)
        a = fme_eliminate_all(sys, ["t1", "t2"])
        b = fme_eliminate_all(sys, ["t2", "t1"])
        try:
            va = vertices_2d(instantiate(a, {}))
            vb = vertices_2d(instantiate(b, {}))
        except EmptyRegionError:
            with pytest.raises(EmptyRegionError):
                vertices_2d(instantiate(b, {}))
            continue
        sa = sorted(map(tuple, np.round(va, 7)))
        sb = sorted(map(tuple, np.round(vb, 7)))
        assert sa == sb


def test_substitute_rates_recombination_shape():
    sys = RegionSystem(["R0", "R1", "R2"], [
        ineq({"R0": 1, "R1": 1}, "<=", "I(Q,U;Y1)"),
        ineq({"R1": 1, "R2": 1}, "<=", "I(U,V;Y2|Q)"),
    ])
    mapping = {
        "R0": {"S0": 1, "S01": 1, "S02": 1},
        "R1": {"S1": 1, "S01": -1},
        "R2": {"S2": 1, "S02": -1},
    }
    aux = [ineq({"S01": -1}, "<=", 0), ineq({"S02": -1}, "<=", 0),
           ineq({"S01": 1, "S1": -1}, "<=", 0), ineq({"S02": 1, "S2": -1}, "<=", 0)]
    out = substitute_rates(sys, mapping, aux=aux)
    assert set(out.rate_vars) == {"S0", "S01", "S02", "S1", "S2"}
    first = out.ineqs[0]
    # R0 + R1 = S0 + S02 + S1: the S01 parts cancel
    assert first.lhs == {"S0": Fraction(1), "S02": Fraction(1), "S1": Fraction(1)}
    # an empty form sets the rate to zero and drops it
    dropped = substitute_rates(sys, {"R0": {}})
    assert dropped.rate_vars == ["R1", "R2"]
    assert dropped.ineqs[0].lhs == {"R1": Fraction(1)}
    # aux rows may only use variables the substitution produces
    with pytest.raises(ValueError, match="unknown rate vars"):
        substitute_rates(sys, {"R0": {}}, aux=[ineq({"S9": -1}, "<=", 0)])


def test_instantiate_all_zero_atoms_gives_origin():
    sys = RegionSystem(["R1", "R2"], [
        ineq({"R1": 1}, "<=", "A"),
        ineq({"R1": 1, "R2": 1}, "<", "B"),
    ])
    region = instantiate(sys, {"A": 0.0, "B": 0.0})
    verts = vertices_2d(region)
    assert verts.shape == (1, 2)
    assert np.allclose(verts, 0)


def test_instantiate_converts_each_fraction_once(monkeypatch):
    sys = RegionSystem(["x", "y"], [
        ineq({"x": Fraction(1, 3), "y": 2}, "<=",
             InfoExpr({"a": Fraction(2, 7), "b": Fraction(-5, 3)},
                      Fraction(1, 9))),
        ineq({"y": Fraction(-3, 11)}, "<", InfoExpr.atom("b", Fraction(4, 13))),
    ])
    rng = np.random.default_rng(4)
    valuations = [dict(zip("ab", rng.uniform(0.0, 2.0, 2))) for _ in range(5)]

    def converted_per_valuation(values):
        # the body before the float coefficients were kept
        rows = [[float(iq.lhs.get(v, Fraction(0))) for v in sys.rate_vars]
                for iq in sys.ineqs]
        bounds = []
        for iq in sys.ineqs:
            total = float(iq.rhs.const)
            for a, c in iq.rhs.coeffs.items():
                total += float(c) * values[a]
            bounds.append(total)
        return NumericRegion(sys.rate_vars, rows, bounds)

    want = [converted_per_valuation(v) for v in valuations]
    conversions = []
    real = Fraction.__float__
    monkeypatch.setattr(Fraction, "__float__",
                        lambda self: conversions.append(self) or real(self))
    got = [instantiate(sys, v) for v in valuations]
    # three lhs coefficients, two constants and three atom coefficients
    assert len(conversions) == 8
    for g, w in zip(got, want):
        assert g.A.tobytes() == w.A.tobytes()
        assert g.b.tobytes() == w.b.tobytes()


def test_vertices_2d_triangle():
    region = region2([[1, 1]], [1.0])
    verts = vertices_2d(region)
    assert len(verts) == 3
    assert shoelace(verts) == pytest.approx(0.5, abs=1e-12)
    # CCW orientation: positive signed area
    x, y = verts[:, 0], verts[:, 1]
    signed = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    assert signed > 0


def test_vertices_2d_area_matches_grid_oracle():
    rng = np.random.default_rng(31)
    for _ in range(12):
        m = rng.integers(1, 5)
        A = rng.normal(size=(m, 2))
        b = rng.uniform(0.5, 4.0, size=m)
        region = region2(A, b, box=5.0)
        try:
            verts = vertices_2d(region)
        except EmptyRegionError:
            assert not feasible(region, np.zeros(2))[0]
            continue
        if len(verts) < 3:
            continue
        assert shoelace(verts) == pytest.approx(grid_area(region, 5.0), abs=0.3)


def test_empty_region_raises():
    region = region2([[1, 0], [-1, 0]], [1.0, -2.0])
    with pytest.raises(EmptyRegionError):
        vertices_2d(region)


def test_vertices_2d_needs_two_variables():
    region = NumericRegion(["x", "y", "z"], [[1, 1, 1]], [1.0])
    with pytest.raises(ValueError, match="two-variable"):
        vertices_2d(region)


# The per-pair body `NumericRegion.vertices` had before it was batched by
# chunk, kept as a bit-exact reference oracle.

def vertices_loop(region, tol=VERTEX_TOL):
    d = region.dim
    verts = []
    for rows in itertools.combinations(range(len(region.A)), d):
        M = region.A[list(rows)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        v = np.linalg.solve(M, region.b[list(rows)])
        if np.all(region.A @ v <= region.b + tol):
            verts.append(v)
    if not verts:
        raise EmptyRegionError("region has no feasible vertex")
    keep = []
    for v in np.array(verts):
        if not any(np.linalg.norm(v - w) <= 10 * tol for w in keep):
            keep.append(v)
    return np.array(keep)


def _vertices_or_empty(fn, region):
    try:
        return fn(region)
    except EmptyRegionError:
        return None


@st.composite
def small_integer_regions(draw):
    """Rows a.x <= c with small integers, padded with duplicate, parallel
    and all-zero rows; d in {1, 2, 3}."""
    d = draw(st.integers(1, 3))
    coeffs = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    rows = draw(st.lists(st.tuples(coeffs, st.integers(-2, 6)), max_size=8))
    extra = []
    for a, c in rows:
        kind = draw(st.sampled_from(["none", "duplicate", "parallel"]))
        if kind == "duplicate":
            extra.append((a, c))
        elif kind == "parallel":
            extra.append(([2 * k for k in a], draw(st.integers(-4, 12))))
    if draw(st.booleans()):
        extra.append(([0] * d, draw(st.integers(-1, 2))))
    rows = rows + extra
    A = np.array([a for a, _ in rows], dtype=float).reshape(-1, d)
    b = np.array([c for _, c in rows], dtype=float)
    return NumericRegion([f"x{i}" for i in range(d)], A, b)


@settings(max_examples=150, deadline=None)
@given(region=small_integer_regions())
def test_vertices_is_bitwise_the_pair_loop(region):
    got = _vertices_or_empty(NumericRegion.vertices, region)
    expected = _vertices_or_empty(vertices_loop, region)
    if expected is None:
        assert got is None
    else:
        assert got is not None and np.array_equal(got, expected)


def test_vertices_skips_a_chunk_of_singular_bases():
    # 300 copies of a + b <= 3: the first chunk pairs only parallel rows
    region = region2([[1, 1]] * 300, [3.0] * 300)
    assert len(region.A) > VERTEX_CHUNK
    verts = region.vertices()
    assert np.array_equal(verts, vertices_loop(region))
    assert len(verts) == 3
    assert shoelace(vertices_2d(region)) == pytest.approx(4.5)


def test_contains_reports_violation():
    outer = region2([[1, 1]], [2.0])
    inner = region2([[1, 0], [0, 1]], [1.0, 1.0], box=10)
    assert np.max(violation(outer, inner.vertices())) <= 1e-9
    # outer's farthest vertex (2,0) violates R1 <= 1 by 1
    assert np.max(violation(inner, outer.vertices())) == pytest.approx(
        1.0, abs=1e-9)


def test_region_system_json_roundtrip():
    sys = RegionSystem(["R1", "R2"], [
        LinIneq({"R1": Fraction(1)}, "<=",
                InfoExpr({"I(Q,U;Y1)": 1, "I(U;V|Q)": Fraction(-1, 3)}, Fraction(1, 2))),
        LinIneq({"R1": 1, "R2": 2}, "<", InfoExpr.atom("I(Q,U,V;Y2)")),
    ])
    blob = json.dumps(sys.to_json())
    rt = RegionSystem.from_json(json.loads(blob))
    assert rt.rate_vars == sys.rate_vars
    # a row's repr lists its exact coefficients in sorted order
    assert [repr(iq) for iq in rt.ineqs] == [repr(iq) for iq in sys.ineqs]
    assert set(json.loads(blob)["atoms"]) == {"I(Q,U;Y1)", "I(U;V|Q)", "I(Q,U,V;Y2)"}


def test_region_system_from_json_names_a_non_string_lhs_key():
    # JSON object keys are strings, so only a dict built in Python gets here
    with pytest.raises(ValueError, match="non-string 'lhs' key 1"):
        RegionSystem.from_json({"rate_vars": ["R1"],
                                "ineqs": [{"lhs": {1: "1"}, "rel": "<="}]})


def test_parse_atom():
    assert parse_atom("I(U;Y1|Q)") == ("I", ("U",), ("Y1",), ("Q",))
    assert parse_atom("I(Q,U;Y1)") == ("I", ("Q", "U"), ("Y1",), ())
    assert parse_atom("H(X|Q)") == ("H", ("X",), ("Q",))
    with pytest.raises(ValueError):
        parse_atom("J(U;V)")
    with pytest.raises(ValueError):
        parse_atom("I(U)")


def test_sample_valuation_consistency():
    rng = np.random.default_rng(41)
    atoms = ["I(Q;Y)", "I(X;Y|Q)", "I(Q,X;Y)", "I(Q;Y|X)", "H(X|Q)"]
    ch = {"Y": make_bsc(0.1)}
    for _ in range(20):
        vals = sample_valuation(atoms, rng, channels=ch)
        # chain rule and markov structure hold because the joint is real
        assert vals["I(Q,X;Y)"] == pytest.approx(
            vals["I(Q;Y)"] + vals["I(X;Y|Q)"], abs=1e-10)
        assert vals["I(Q;Y|X)"] == pytest.approx(0.0, abs=1e-10)
        assert all(v >= -1e-12 for v in vals.values())
        assert vals["H(X|Q)"] <= 1.0 + 1e-12


def test_prune_redundant_drops_slack_rows():
    sys = RegionSystem(["R1", "R2"], [
        ineq({"R1": 1}, "<=", "A"),
        ineq({"R1": 1}, "<=", "B"),   # B = 2A in every valuation: never active
        ineq({"R2": 1}, "<=", "A"),
    ])
    vals = [{"A": a, "B": 2 * a} for a in (0.5, 1.0, 2.0)]
    pruned, kept = prune_redundant(sys, vals)
    assert kept == [0, 2]
    assert len(pruned.ineqs) == 2


def test_prune_redundant_keeps_every_row_of_an_empty_region():
    sys = RegionSystem(["R1", "R2"], [
        ineq({"R1": 1}, "<=", -1),
        ineq({"R2": 1}, "<=", "I(X;Y)"),
    ])
    vals = [{"I(X;Y)": 0.5}]
    pruned, kept = prune_redundant(sys, vals)
    assert kept == [0, 1]
    with pytest.raises(EmptyRegionError):
        instantiate(pruned, vals[0]).vertices()


def test_numeric_region_box_default():
    region = region2([], [])
    verts = vertices_2d(region)
    assert shoelace(verts) == pytest.approx(BOX * BOX)


def test_rate_curve_pareto_filter_and_meta():
    samples = [(0.2, 0.8), (0.5, 0.5), (0.5, 0.6), (0.3, 0.4),
               (0.9, 0.1), (0.0, 1.0)]
    curve = RateCurve2D.from_samples(samples, meta=list("abcdef"))
    assert np.allclose(curve.points,
                       [[0.0, 1.0], [0.2, 0.8], [0.5, 0.6], [0.9, 0.1]])
    assert curve.meta == ["f", "a", "c", "e"]
    assert curve.r1_max == pytest.approx(0.9)
    assert curve.r2_max == pytest.approx(1.0)


def test_rate_curve_duplicate_r1_keeps_best_r2():
    curve = RateCurve2D.from_samples([(0.4, 0.2), (0.4, 0.7)])
    assert np.allclose(curve.points, [[0.4, 0.7]])


def test_rate_curve_staircase_queries():
    curve = RateCurve2D.from_samples([(0.2, 0.8), (0.5, 0.6), (0.9, 0.1)])
    assert curve.r2_at(0.0) == pytest.approx(0.8)
    assert curve.r2_at(0.2) == pytest.approx(0.8)
    assert curve.r2_at(0.21) == pytest.approx(0.6)
    assert curve.r2_at(1.0) == 0.0
    assert np.allclose(curve.r2_at([0.1, 0.6, 2.0]), [0.8, 0.1, 0.0])


def test_rate_curve_violation_semantics():
    curve = RateCurve2D.from_samples([(0.2, 0.8), (0.9, 0.1)])
    inside = curve.violation([[0.2, 0.8], [0.1, 0.5], [0.9, 0.1]])
    assert np.all(inside <= 1e-12)
    # 0.1 short of R2 headroom, and 0.1 beyond the largest R1
    outside = curve.violation([[0.4, 0.2], [1.0, 0.0]])
    assert outside[0] == pytest.approx(0.1)
    assert outside[1] == pytest.approx(0.1)
    assert curve.contains(np.array([[0.85, 0.1]])).contained
    assert not curve.contains(np.array([[0.85, 0.11]])).contained


def test_rate_curve_contains_report():
    outer = RateCurve2D.from_samples([(0.5, 0.9), (1.0, 0.4)])
    inner = RateCurve2D.from_samples([(0.4, 0.8), (0.9, 0.3)])
    report = outer.contains(inner)
    assert report.contained
    assert outer.contains(np.array([[1.2, 0.0]])).max_violation == \
        pytest.approx(0.2)


def test_rate_curve_hull_closes_time_sharing():
    curve = RateCurve2D.from_samples(
        [(0.0, 1.0), (0.2, 0.8), (0.5, 0.6), (0.9, 0.1)],
        meta=["a", "b", "c", "d"])
    hull = curve.hull()
    assert hull.interp == "linear"
    # (0.2, 0.8) sits under the chord from (0, 1) to (0.5, 0.6)
    assert np.allclose(hull.points, [[0.0, 1.0], [0.5, 0.6], [0.9, 0.1]])
    assert hull.meta == ["a", "c", "d"]
    grid = np.linspace(0, 0.9, 181)
    assert np.all(hull.r2_at(grid) >= curve.r2_at(grid) - 1e-12)
    # interpolation between vertices, zero beyond the last one
    assert hull.r2_at(0.25) == pytest.approx(0.8)
    assert hull.violation([[0.95, 0.0]])[0] == pytest.approx(0.05)


# rate samples with many exact ties in either coordinate
RATE_SAMPLES = hnp.arrays(
    np.float64, st.tuples(st.integers(1, 40), st.just(2)),
    elements=st.one_of(st.integers(-1, 4).map(float),
                       st.floats(-1.0, 5.0, allow_nan=False)))


@settings(max_examples=150, deadline=None)
@given(samples=RATE_SAMPLES)
def test_rate_curve_staircase_and_hull_invariants(samples):
    curve = RateCurve2D.from_samples(samples)
    r1, r2 = curve.points[:, 0], curve.points[:, 1]
    # Pareto order: R1 strictly ascending, R2 strictly decreasing
    assert np.all(np.diff(r1) > 0) and np.all(np.diff(r2) < 0)
    # the staircase certifies every raw sample
    assert curve.contains(samples).contained
    # the time-sharing closure contains the whole staircase
    hull = curve.hull()
    assert np.all(np.diff(hull.points[:, 0]) > 0)
    assert np.all(np.diff(hull.points[:, 1]) < 0)
    assert hull.contains(curve).contained
    assert hull.contains(samples).contained


# The Pareto filter `RateCurve2D.from_samples` ran over every sample before
# it prefiltered the running-maximum record setters, kept as a bit-exact
# reference oracle: it returns the kept sample indices.

def pareto_keep_loop(samples):
    pts = np.maximum(np.atleast_2d(np.asarray(samples, dtype=float)), 0.0)
    order = np.lexsort((-pts[:, 1], -pts[:, 0]))
    keep, best_r2 = [], -np.inf
    for i in order:
        if pts[i, 1] > best_r2 + 1e-15:
            keep.append(i)
            best_r2 = pts[i, 1]
    return keep[::-1]


def assert_filter_is_the_loop(samples):
    curve = RateCurve2D.from_samples(samples, meta=range(len(samples)))
    keep = pareto_keep_loop(samples)
    assert curve.meta == keep
    pts = np.maximum(np.asarray(samples, dtype=float), 0.0)
    assert curve.points.tobytes() == pts[keep].tobytes()


# rounded samples: most R1 and R2 values tie with another sample's
ROUNDED_SAMPLES = hnp.arrays(
    np.float64, st.tuples(st.integers(1, 60), st.just(2)),
    elements=st.floats(-0.5, 3.0, allow_nan=False).map(lambda v: round(v, 1)))


@settings(max_examples=120, deadline=None)
@given(samples=st.one_of(ROUNDED_SAMPLES, RATE_SAMPLES))
def test_rate_curve_filter_is_bitwise_the_loop(samples):
    assert_filter_is_the_loop(samples)


@settings(max_examples=120, deadline=None)
@given(rises=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 8)),
                      min_size=1, max_size=40),
       base=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
def test_rate_curve_filter_matches_the_loop_inside_the_slack(rises, base):
    # R2 rises by steps of 1e-16 as R1 falls (or ties), so whether a point
    # clears the loop's 1e-15 keep slack depends on which earlier point set
    # best_r2 and not only on the largest earlier R2
    r1_steps, r2_steps = np.array(rises, dtype=float).T
    samples = np.column_stack([10.0 - np.cumsum(r1_steps),
                               base + 1e-16 * np.cumsum(r2_steps)])
    assert_filter_is_the_loop(samples)


def test_rate_curve_filter_skips_nan_r2_like_the_loop():
    samples = [(0.9, np.nan), (0.8, 0.1), (0.5, np.nan), (0.4, 0.3),
               (0.2, 0.3), (0.1, 0.6)]
    assert_filter_is_the_loop(samples)
    curve = RateCurve2D.from_samples(samples, meta=range(len(samples)))
    assert curve.meta == [5, 3, 1]


def test_rate_curve_filter_loop_decides_a_gap_inside_the_slack():
    # R2 = 1, 1 + 2e-16, 1 + 1e-15 as R1 falls.  The record setters are
    # (10, 1) and (9, fl(1 + 1e-15)); np.diff puts their gap, 1.11e-15,
    # above the slack, but the loop's own sum 1 + 1e-15 rounds to that same
    # R2, so the loop drops the second setter
    r1_steps, r2_steps = np.array([(0, 0), (1, 2), (0, 8)], dtype=float).T
    samples = np.column_stack([10.0 - np.cumsum(r1_steps),
                               1.0 + 1e-16 * np.cumsum(r2_steps)])
    top = samples[:, 1].max()
    assert top - 1.0 > 1e-15 and not top > 1.0 + 1e-15
    assert_filter_is_the_loop(samples)
    assert RateCurve2D.from_samples(samples).points.tolist() == [[10.0, 1.0]]


def test_rate_curve_filter_keeps_every_setter_without_the_loop():
    # a staircase whose R2 gaps all clear the slack, with dominated points
    # and exact ties around it, so every record setter is kept at once
    rng = np.random.default_rng(5)
    stair = np.column_stack([np.linspace(0.0, 2.0, 30),
                             np.linspace(3.0, 0.0, 30)])
    below = stair[rng.integers(0, 30, 40)] - rng.choice([0.0, 0.05], (40, 2))
    samples = rng.permutation(np.vstack([stair, below, stair[::3]]))
    assert np.all(np.diff(stair[::-1, 1]) > 0.1)
    assert_filter_is_the_loop(samples)
    curve = RateCurve2D.from_samples(samples)
    assert curve.points.tobytes() == stair.tobytes()


def test_rate_curve_drops_a_nan_r1_sample():
    samples = [(np.nan, 0.5), (0.2, 0.3), (0.1, 0.4)]
    curve = RateCurve2D.from_samples(samples, meta=list("abc"))
    assert curve.points.tolist() == [[0.1, 0.4], [0.2, 0.3]]
    assert curve.meta == ["c", "b"]
    # the NaN sample no longer adds a hull corner (0, 0.5)
    hull = curve.hull()
    assert hull.r2_max == 0.4
    assert hull.meta == ["c", "b"]
    both = RateCurve2D.from_samples([(np.nan, 0.5), (0.3, np.nan),
                                     (0.2, 0.3)], meta=range(3))
    assert both.points.tolist() == [[0.2, 0.3]] and both.meta == [2]


def test_rate_curve_rejects_samples_that_are_all_nan():
    # dropping every sample left a curve without points, whose r1_max,
    # r2_max and hull raised IndexError; an empty input is the origin
    for samples in ([(np.nan, np.nan)], [(np.nan, 0.5), (0.3, np.nan)]):
        with pytest.raises(ValueError, match="every sample has a NaN"):
            RateCurve2D.from_samples(samples)
        with pytest.raises(ValueError, match="every sample has a NaN"):
            RateCurve2D.from_samples(samples, meta=range(len(samples)))
    assert RateCurve2D.from_samples([]).points.tolist() == [[0.0, 0.0]]


# The two-chain body `RateCurve2D.hull` ran before it became one upper
# chain, kept verbatim as a bit-exact reference oracle.

def _monotone_chain(points):
    pts = sorted({(float(x), float(y)) for x, y in points})
    if len(pts) <= 2:
        return [np.array(p) for p in pts]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return [np.array(p) for p in lower[:-1] + upper[:-1]]


def monotone_chain_hull(self):
    anchors = [(0.0, 0.0), (self.r1_max, 0.0), (0.0, self.r2_max)]
    pool = np.vstack([self.points, np.array(anchors)])
    verts = np.array(_monotone_chain(pool))
    meta = None
    if self.meta is not None:
        lookup = {(float(p[0]), float(p[1])): m
                  for p, m in zip(self.points, self.meta)}
        meta = [lookup.get((float(v[0]), float(v[1]))) for v in verts]
    staircase = RateCurve2D.from_samples(verts, meta=meta)
    return RateCurve2D(staircase.points, interp="linear", meta=staircase.meta)


def assert_hull_is_the_oracle(curve):
    got, want = curve.hull(), monotone_chain_hull(curve)
    k = len(want.points)
    if len(got.points) > k:
        # the oracle closed its upper chain at (0, 0); when the cross
        # products there underflow to 0 that step pops the left end of the
        # hull, r2_max with it (see the pinned subnormal case below)
        assert want.r2_max < curve.r2_max == got.r2_max
        got = RateCurve2D(got.points[-k:], interp="linear",
                          meta=None if got.meta is None else got.meta[-k:])
    assert got.interp == want.interp == "linear"
    assert got.points.tobytes() == want.points.tobytes()
    assert got.meta == want.meta


@settings(max_examples=200, deadline=None)
@given(samples=st.one_of(ROUNDED_SAMPLES, RATE_SAMPLES), with_meta=st.booleans())
def test_hull_is_bitwise_the_two_chain_oracle(samples, with_meta):
    meta = list(range(len(samples))) if with_meta else None
    assert_hull_is_the_oracle(RateCurve2D.from_samples(samples, meta=meta))


@pytest.mark.parametrize("samples, vertices", [
    # the first point on the R2 axis: the anchor lands on it
    ([(0.0, 1.0), (0.5, 0.9), (1.0, 0.0)],
     [[0.0, 1.0], [0.5, 0.9], [1.0, 0.0]]),
    # the last point on the R1 axis
    ([(0.2, 0.8), (0.6, 0.3), (1.0, 0.0)], [[0.2, 0.8], [1.0, 0.0]]),
    ([(0.3, 0.7)], [[0.3, 0.7]]),
    ([(0.0, 0.0)], [[0.0, 0.0]]),
    ([(0.0, 0.4)], [[0.0, 0.4]]),
    ([(0.4, 0.0)], [[0.4, 0.0]]),
    # an exactly collinear run: every cross product in it is 0
    ([(0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (1.0, 0.0)],
     [[0.0, 1.0], [1.0, 0.0]]),
    # an R1 lost next to the next one rounds the anchor into a vertex
    ([(1e-20, 1.0), (1.0, 0.5)], [[0.0, 1.0], [1.0, 0.5]]),
])
def test_hull_pinned_cases_are_the_oracle(samples, vertices):
    for meta in (None, list("abcd")[:len(samples)]):
        curve = RateCurve2D.from_samples(samples, meta=meta)
        assert_hull_is_the_oracle(curve)
        hull = curve.hull()
        assert hull.points.tolist() == vertices
        if meta is not None:
            by_point = dict(zip(map(tuple, curve.points.tolist()), meta))
            assert hull.meta == [by_point.get(tuple(v)) for v in vertices]


def test_hull_keeps_the_corner_the_oracle_underflows_away():
    # at o = (5e-324, 1e-20) the oracle's (0, 0) step computes
    # (-5e-324)(-1e-20) - (0.25 - 1e-20)(-5e-324) = 0 - (-0.0): both
    # products underflow, so it popped (0, 0.25) and its hull no longer
    # contained the staircase
    curve = RateCurve2D.from_samples([(0.0, 0.25), (5e-324, 1e-20)],
                                     meta=["a", "b"])
    hull = curve.hull()
    assert hull.points.tolist() == [[0.0, 0.25], [5e-324, 1e-20]]
    assert hull.meta == ["a", "b"]
    assert hull.contains(curve, tol=0.0).contained
    assert monotone_chain_hull(curve).points.tolist() == [[5e-324, 1e-20]]
    assert_hull_is_the_oracle(curve)


@pytest.mark.parametrize("params", [BecBscParams(),
                                    BecBscParams(0.2, 0.22, 0.7),
                                    BecBscParams(0.05, 0.06, 0.26)])
@pytest.mark.parametrize("a", [0.0, 0.3, 0.92, 1.0])
def test_t_a_hull_is_bitwise_the_two_chain_oracle(params, a, monkeypatch):
    got = t_a_hull(a, params)
    monkeypatch.setattr(RateCurve2D, "hull", monotone_chain_hull)
    assert got.tobytes() == t_a_hull(a, params).tobytes()


# The n x m body `RateCurve2D.violation` ran on staircases before it
# bisected for the crossing, kept as a bit-exact reference oracle.

def staircase_violation_grid(curve, pts):
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    diff1 = pts[:, :1] - curve.points[None, :, 0]
    diff2 = pts[:, 1:] - curve.points[None, :, 1]
    return np.min(np.maximum(diff1, diff2), axis=1)


QUERY_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 1.0, 3.0, np.inf, -np.inf, np.nan]),
    st.integers(-1, 5).map(float),
    st.floats(-2.0, 6.0, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(samples=st.one_of(ROUNDED_SAMPLES, RATE_SAMPLES),
       queries=hnp.arrays(np.float64, st.tuples(st.integers(1, 30),
                                                st.just(2)),
                          elements=QUERY_VALUES),
       on_curve=st.lists(st.integers(0, 1000), max_size=10))
def test_staircase_violation_is_bitwise_the_grid_minimum(samples, queries,
                                                         on_curve):
    curve = RateCurve2D.from_samples(samples)
    # queries on the staircase's own corners and on their R1 or R2 lines
    pts = curve.points
    corners = pts[[i % len(pts) for i in on_curve]]
    mixed = np.column_stack([corners[:, 0], corners[::-1, 1]])
    queries = np.vstack([queries, corners, mixed])
    with np.errstate(invalid="ignore"):
        got = curve.violation(queries)
        want = staircase_violation_grid(curve, queries)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    numbers = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


def test_rate_curve_degenerate_and_validation():
    origin = RateCurve2D.from_samples([(0.0, 0.0)])
    assert origin.r2_at(0.0) == 0.0
    assert origin.violation([[0.1, 0.0]])[0] > 0
    assert np.allclose(origin.hull().points, [[0.0, 0.0]])
    with pytest.raises(ValueError, match="interp"):
        RateCurve2D([[0.0, 0.0]], interp="cubic")
    with pytest.raises(ValueError, match="\\(n, 2\\)"):
        RateCurve2D([[0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="align"):
        RateCurve2D.from_samples([(0.1, 0.2)], meta=["a", "b"])
