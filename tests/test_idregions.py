import numpy as np
import pytest

from compound_bc import idregions, polyhedra
from compound_bc.idregions import (
    bit_recombination,
    build_id_region,
    build_T_constraints,
    example_valuations,
    nonneg,
    id_example_system,
    reduce_example_system,
    reduced_target_region,
    regions_match,
    three_arv_region,
)
from compound_bc.info import make_bec, make_bsc
from compound_bc.polyhedra import (
    InfoExpr,
    RegionSystem,
    atom_values,
    fme_eliminate_all,
    ineq,
    instantiate,
    substitute_rates,
)

from region_oracle import feasible, violation

# expected row counts per decoding method: own/own, own/cross, cross/own,
# cross/cross
ROW_COUNTS = {1: 4, 2: 5, 3: 5, 4: 6}


# The hand-written rows the two builders replaced, kept as oracles: every
# system must keep its rows, their order and each right side's atom order
# (the order `InfoExpr.evaluate` sums in).


def _own_y_rows(y):
    return [
        ineq({"T1": 1}, "<=", f"I(U;{y}|Q)"),
        ineq({"R0": 1, "T1": 1}, "<=", f"I(Q,U;{y})"),
    ]


def _own_z_rows(z):
    return [
        ineq({"T2": 1}, "<=", f"I(V;{z}|Q)"),
        ineq({"R0": 1, "T2": 1}, "<=", f"I(Q,V;{z})"),
    ]


def _cross_y_rows(y):
    pair = InfoExpr.atom("I(U;V|Q)")
    return [
        ineq({"T1": 1}, "<=", f"I(U;{y},V|Q)"),
        ineq({"T1": 1, "T2": 1}, "<=", InfoExpr.atom(f"I(U,V;{y}|Q)") + pair),
        ineq({"R0": 1, "T1": 1, "T2": 1}, "<=",
             InfoExpr.atom(f"I(Q,U,V;{y})") + pair),
    ]


def _cross_z_rows(z):
    pair = InfoExpr.atom("I(U;V|Q)")
    return [
        ineq({"T2": 1}, "<=", f"I(V;{z},U|Q)"),
        ineq({"T1": 1, "T2": 1}, "<=", InfoExpr.atom(f"I(U,V;{z}|Q)") + pair),
        ineq({"R0": 1, "T1": 1, "T2": 1}, "<=",
             InfoExpr.atom(f"I(Q,U,V;{z})") + pair),
    ]


def _id_region_oracle(j, method, z_label=None):
    y = f"Y{j}"
    z = z_label if z_label is not None else f"Z{j}"
    y_rows = _own_y_rows(y) if method in (1, 2) else _cross_y_rows(y)
    z_rows = _own_z_rows(z) if method in (1, 3) else _cross_z_rows(z)
    return RegionSystem(["R0", "T1", "T2"], y_rows + z_rows)


def _t_constraints_oracle():
    return RegionSystem(
        ["R1", "R2", "T1", "T2"],
        [
            ineq({"R1": 1, "T1": -1}, "<=", 0),
            ineq({"R2": 1, "T2": -1}, "<=", 0),
            ineq({"R1": 1, "R2": 1, "T1": -1, "T2": -1}, "<",
                 InfoExpr.atom("I(U;V|Q)", -1)),
        ],
    )


def _id_example_oracle():
    return (_id_region_oracle(1, 2, z_label="Z")
            .conjoin(_id_region_oracle(2, 4, z_label="Z"))
            .conjoin(_t_constraints_oracle())
            .conjoin(nonneg(["R0", "R1", "R2"])))


def _three_arv_oracle():
    m_rows = [
        ineq({"T2": 1}, "<=", "I(V;Z|Q)"),
        ineq({"R0": 1, "T2": 1}, "<=", "I(Q,V;Z)"),
        ineq({"T11": 1}, "<=", "I(U1;Y1|Q)"),
        ineq({"R0": 1, "T11": 1}, "<=", "I(Q,U1;Y1)"),
        ineq({"T12": 1}, "<=", "I(U2;Y2|Q)"),
        ineq({"R0": 1, "T12": 1}, "<=", "I(Q,U2;Y2)"),
    ]
    t_rows = [
        ineq({"R2": 1, "T2": -1}, "<=", 0),
        ineq({"R1": 1, "T11": -1}, "<=", 0),
        ineq({"R1": 1, "T12": -1}, "<=", 0),
        ineq({"R1": 1, "R2": 1, "T11": -1, "T2": -1}, "<",
             InfoExpr.atom("I(U1;V|Q)", -1)),
        ineq({"R1": 1, "R2": 1, "T12": -1, "T2": -1}, "<",
             InfoExpr.atom("I(U2;V|Q)", -1)),
        ineq({"R1": 2, "T11": -1, "T12": -1}, "<",
             InfoExpr.atom("I(U1;U2|Q)", -1)),
        ineq({"R1": 2, "R2": 1, "T11": -1, "T12": -1, "T2": -1}, "<",
             InfoExpr.atom("I(U1;U2|Q)", -1)
             + InfoExpr.atom("I(U1,U2;V|Q)", -1)),
    ]
    base = RegionSystem(["R0", "R1", "R2", "T11", "T12", "T2"],
                        m_rows + t_rows)
    return base.conjoin(nonneg(["R0", "R1", "R2"]))


def _same_system(got, want):
    assert got.to_json() == want.to_json()
    assert ([list(iq.rhs.coeffs) for iq in got.ineqs]
            == [list(iq.rhs.coeffs) for iq in want.ineqs])


@pytest.mark.parametrize("z_label", [None, "Z"])
@pytest.mark.parametrize("method", [1, 2, 3, 4])
@pytest.mark.parametrize("j", [1, 2])
def test_id_region_keeps_the_hand_written_rows(j, method, z_label):
    _same_system(build_id_region(j, method, z_label),
                 _id_region_oracle(j, method, z_label))


def test_composed_systems_keep_the_hand_written_rows():
    _same_system(build_T_constraints(), _t_constraints_oracle())
    _same_system(id_example_system(), _id_example_oracle())
    _same_system(three_arv_region(), _three_arv_oracle())


def test_covering_rows_chain_the_shared_information_of_each_group():
    rows = idregions._covering_rows(
        [("R1", "T1", "W"), ("R2", "T2", "U"), ("R3", "T3", "V")])
    assert [iq.rel for iq in rows] == ["<="] * 3 + ["<"] * 4
    assert [iq.lhs for iq in rows[:3]] == [
        {"R1": 1, "T1": -1}, {"R2": 1, "T2": -1}, {"R3": 1, "T3": -1}]
    # groups in combinations order, auxiliaries sorted inside each atom
    assert [list(iq.rhs.coeffs) for iq in rows[3:]] == [
        ["I(U;W|Q)"], ["I(V;W|Q)"], ["I(U;V|Q)"],
        ["I(U;V|Q)", "I(U,V;W|Q)"]]
    triple = rows[-1]
    assert triple.lhs == {"R1": 1, "R2": 1, "R3": 1,
                          "T1": -1, "T2": -1, "T3": -1}
    assert triple.rhs.coeffs == {"I(U;V|Q)": -1, "I(U,V;W|Q)": -1}
    assert triple.rhs.const == 0


def test_block_row_counts():
    for method, n in ROW_COUNTS.items():
        sys_j = build_id_region(1, method)
        assert len(sys_j.ineqs) == n
        assert sys_j.rate_vars == ["R0", "T1", "T2"]
    with pytest.raises(ValueError):
        build_id_region(1, 5)


def test_covering_block():
    t_block = build_T_constraints()
    assert len(t_block.ineqs) == 3
    rels = sorted(iq.rel for iq in t_block.ineqs)
    assert rels == ["<", "<=", "<="]


def test_example_system_shape():
    sys0 = id_example_system()
    # 5 + 6 decoder rows with the 3 shared-Z rows deduplicated, then the
    # 3 covering rows and 3 nonnegativity rows
    assert len(sys0.ineqs) == 14
    assert set(sys0.rate_vars) == {"R0", "R1", "R2", "T1", "T2"}
    atoms = set(sys0.atoms())
    assert "I(V;Z,U|Q)" in atoms
    assert "I(U;Y1|Q)" in atoms
    assert "I(Q,U,V;Y2)" in atoms


def test_recombination_requires_projected_system():
    with pytest.raises(ValueError):
        bit_recombination(id_example_system())


@pytest.fixture(scope="module")
def reduced_pair():
    machine = reduce_example_system()
    target = reduced_target_region()
    return machine, target


def test_reduction_matches_closed_form(reduced_pair):
    machine, target = reduced_pair
    assert set(machine.rate_vars) == {"R1", "R2"}
    atoms = sorted(set(machine.atoms()) | set(target.atoms()))
    for values in example_valuations(atoms, 20, seed=7):
        assert regions_match(machine, target, values, tol=1e-9)


def test_reduction_grid_membership(reduced_pair):
    # independent route: classify grid points by direct row evaluation in
    # both systems and require identical verdicts away from boundaries
    machine, target = reduced_pair
    atoms = sorted(set(machine.atoms()) | set(target.atoms()))
    axis = np.linspace(0.0, 1.5, 41)
    pts = np.array([(a, b) for a in axis for b in axis])
    for values in example_valuations(atoms, 3, seed=11):
        reg_m = instantiate(machine, values)
        reg_t = instantiate(target, values)
        clear = (np.abs(violation(reg_m, pts)) > 1e-7) \
            & (np.abs(violation(reg_t, pts)) > 1e-7)
        assert clear.sum() > 100
        in_m = feasible(reg_m, pts[clear], tol=0.0)
        in_t = feasible(reg_t, pts[clear], tol=0.0)
        assert np.array_equal(in_m, in_t)


def test_own_decoder_block_inside_cross_block_when_degraded():
    # with Y1 a degraded version of Z, letting Z resolve the interfering
    # stream can only relax the constraints on (R0, T1, T2)
    own = build_id_region(1, 1, z_label="Z")
    cross = build_id_region(1, 2, z_label="Z")
    atoms = sorted(set(own.atoms()) | set(cross.atoms()))
    for values in example_valuations(atoms, 10, seed=3):
        verts = instantiate(own, values).vertices()
        worst = np.max(violation(instantiate(cross, values), verts))
        assert worst <= 1e-9, worst


def _structured_table(rng):
    """Joint over (Q, U1, U2, V, X) with U1 = Q and V = U2 = X."""
    pq = rng.dirichlet([2.0, 2.0])
    px_q = rng.dirichlet([2.0, 2.0], size=2)
    table = np.zeros((2, 2, 2, 2, 2))
    for q in range(2):
        for x in range(2):
            table[q, q, x, x, x] = pq[q] * px_q[q, x]
    return table


def test_three_arv_shape_and_collapse():
    sys3 = three_arv_region()
    assert len(sys3.ineqs) == 16
    assert set(sys3.rate_vars) == {"R0", "R1", "R2", "T11", "T12", "T2"}
    # U1 = U2 = Q and V = X: every cross-aux information atom vanishes, so
    # the covering block collapses to plain rate-loss-free binning
    pq = np.array([0.3, 0.7])
    px_q = np.array([[0.8, 0.2], [0.35, 0.65]])
    table = np.zeros((2, 2, 2, 2, 2))
    for q in range(2):
        for x in range(2):
            table[q, q, q, x, x] = pq[q] * px_q[q, x]
    names = ("Q", "U1", "U2", "V", "X")
    channels = {"Z": make_bsc(0.1), "Y1": make_bsc(0.13), "Y2": make_bec(0.46)}
    vals = atom_values(
        ["I(U1;U2|Q)", "I(U1;V|Q)", "I(U2;V|Q)", "I(U1,U2;V|Q)",
         "I(U1;Y1|Q)", "I(U2;Y2|Q)"],
        table, names, channels=channels)
    for v in vals.values():
        assert abs(v) < 1e-12


@pytest.fixture(scope="module")
def three_arv_two_user():
    """Machine projection of the three-description system to (R1, R2)."""
    sys3 = three_arv_region()
    sys3 = fme_eliminate_all(sys3, ["T11", "T12", "T2"])
    sys3 = bit_recombination(sys3)
    sys3 = fme_eliminate_all(sys3, ["S01", "S02"])
    sys3 = substitute_rates(sys3, {"S0": {}})
    return substitute_rates(sys3, {"S1": {"R1": 1}, "S2": {"R2": 1}},
                            new_vars=["R1", "R2"])


def test_three_arv_two_user_reduction(three_arv_two_user):
    # with U1 = Q and V = U2 = X the projected region is cut by R1 alone and
    # by two R1 + R2 rows, one per channel instance of user 1
    machine = three_arv_two_user
    base = (InfoExpr.atom("I(X;Z|Q)") + InfoExpr.atom("I(X;Y2|Q)")
            + InfoExpr.atom("H(X|Q)", -1))
    target = RegionSystem(
        ["R1", "R2"],
        [
            ineq({"R1": 1}, "<=", "I(Q;Y1)"),
            ineq({"R1": 1, "R2": 1}, "<=", base + InfoExpr.atom("I(Q;Y1)")),
            ineq({"R1": 1, "R2": 1}, "<=", base + InfoExpr.atom("I(Q;Y2)")),
        ],
    )
    atoms = sorted(set(machine.atoms()) | set(target.atoms()))
    channels = {"Z": make_bsc(0.1), "Y1": make_bsc(0.13), "Y2": make_bec(0.46)}
    names = ("Q", "U1", "U2", "V", "X")
    rng = np.random.default_rng(17)
    for _ in range(10):
        values = atom_values(atoms, _structured_table(rng), names,
                             channels=channels)
        assert regions_match(machine, target, values, tol=1e-9)


def test_three_arv_projection_drops_chernikov_redundant_rows(
        three_arv_two_user):
    assert len(three_arv_two_user.ineqs) <= 185  # 413 without the rule


def test_example_reduction_drops_chernikov_redundant_rows():
    assert len(reduce_example_system().ineqs) <= 26  # 64 without the rule


def test_fme_eliminate_all_steps_through_the_module_function(monkeypatch):
    # a profiler that wraps polyhedra.fme_eliminate must see every step
    step = polyhedra.fme_eliminate
    calls, results = [], []

    def counting(system, var):
        calls.append(var)
        results.append(step(system, var))
        return results[-1]

    monkeypatch.setattr(polyhedra, "fme_eliminate", counting)
    out = fme_eliminate_all(three_arv_region(), ["T11", "T12", "T2"])
    assert calls == ["T11", "T12", "T2"]
    assert out is results[-1]


def test_private_layer_deficit_on_erasure_channel():
    # an erasure channel reveals at most a (1 - e2) fraction of the private
    # layer, so I(X;Y2|Q) - H(X|Q) = -e2 * H(X|Q) < 0 whenever X is not a
    # function of Q; this certifies the two-description scheme cannot emulate
    # unstructured superposition here
    e2 = 0.46
    rng = np.random.default_rng(5)
    pq = rng.dirichlet([2.0, 2.0])
    px_q = rng.dirichlet([2.0, 2.0], size=2)
    table = pq[:, None] * px_q
    vals = atom_values(["I(X;Y2|Q)", "H(X|Q)"], table, ("Q", "X"),
                       channels={"Y2": make_bec(e2)})
    assert vals["H(X|Q)"] > 0.1
    assert abs(vals["I(X;Y2|Q)"] - (1 - e2) * vals["H(X|Q)"]) < 1e-12
    assert vals["I(X;Y2|Q)"] - vals["H(X|Q)"] < 0
