"""Rate systems for layered broadcast coding with optional interference decoding.

A common stream of rate R0 rides an auxiliary Q that every receiver decodes.
Two private streams ride auxiliaries U and V at binning rates T1, T2; the
actual message rates R1, R2 are recovered subject to covering constraints.
For each channel pair (Y receiver, Z receiver) the Y side decodes (Q, U) and
the Z side decodes (Q, V), and each side may additionally resolve the other
stream's codeword without requiring uniqueness.  The four own/cross
combinations give four inequality blocks; conjoining one block per channel
pair and projecting out (T1, T2) yields achievable (R0, R1, R2) regions.

All systems are symbolic: right-hand sides are rational combinations of
mutual-information atoms such as "I(Q,U;Y1)" that are later evaluated on a
concrete joint distribution.
"""

import itertools

import numpy as np

from .becbsc import DEFAULT_PARAMS
from .info import make_bec, make_bsc
from .polyhedra import (
    InfoExpr,
    RegionSystem,
    fme_eliminate_all,
    ineq,
    instantiate,
    sample_valuations,
    substitute_rates,
    vertices_2d,
)


def _decoding_rows(out, rate, aux, interfering=None):
    """Rows for the receiver with output `out` that decodes Q and its own
    codeword `aux`, binned at `rate`.  Given interfering = (rate, aux) of
    the other stream, it also resolves that codeword without requiring it
    to be unique (non-unique decoding), which adds the pair's rows."""
    if interfering is None:
        return [ineq({rate: 1}, "<=", f"I({aux};{out}|Q)"),
                ineq({"R0": 1, rate: 1}, "<=", f"I(Q,{aux};{out})")]
    other_rate, other = interfering
    low, high = sorted((aux, other))
    shared = InfoExpr.atom(f"I({low};{high}|Q)")
    both = {rate: 1, other_rate: 1}
    return [ineq({rate: 1}, "<=", f"I({aux};{out},{other}|Q)"),
            ineq(both, "<=", InfoExpr.atom(f"I({low},{high};{out}|Q)")
                 + shared),
            ineq({"R0": 1, **both}, "<=",
                 InfoExpr.atom(f"I(Q,{low},{high};{out})") + shared)]


def _covering_rows(descriptions):
    """Mutual covering of (message, binning, aux) descriptions.

    Each description needs message <= binning.  Each group of two or more,
    in `itertools.combinations` order, needs its binning surplus to exceed
    the information its auxiliaries A_1 < A_2 < ... (sorted) share:
    sum(message - binning) < -(I(A_1;A_2|Q) + I(A_1,A_2;A_3|Q) + ...).
    """
    rows = [ineq({m: 1, t: -1}, "<=", 0) for m, t, _ in descriptions]
    for size in range(2, len(descriptions) + 1):
        for group in itertools.combinations(descriptions, size):
            lhs = {t: -1 for _, t, _ in group}
            for m, _, _ in group:
                lhs[m] = lhs.get(m, 0) + 1
            auxes = sorted(a for _, _, a in group)
            rows.append(ineq(lhs, "<", InfoExpr(
                {f"I({','.join(auxes[:k])};{auxes[k]}|Q)": -1
                 for k in range(1, size)})))
    return rows


def build_id_region(j, method, z_label=None) -> RegionSystem:
    """Decoder block for channel pair j under one of four decoding methods.

    method 1: both receivers decode only their own stream
    method 2: the Z receiver additionally resolves the U stream
    method 3: the Y receiver additionally resolves the V stream
    method 4: both receivers resolve the interfering stream

    Returns a system over (R0, T1, T2) with outputs Yj and Zj; pass an
    explicit z_label when user 2's channel is common to all pairs.
    """
    if method not in (1, 2, 3, 4):
        raise ValueError(f"decoding method must be 1..4, got {method}")
    y = f"Y{j}"
    z = z_label if z_label is not None else f"Z{j}"
    cross_y, cross_z = method in (3, 4), method in (2, 4)
    rows = (_decoding_rows(y, "T1", "U", ("T2", "V") if cross_y else None)
            + _decoding_rows(z, "T2", "V", ("T1", "U") if cross_z else None))
    return RegionSystem(["R0", "T1", "T2"], rows)


def build_T_constraints() -> RegionSystem:
    """Covering constraints tying message rates to binning rates.

    T1 >= R1, T2 >= R2, and the strict joint-binning constraint
    T1 + T2 > R1 + R2 + I(U;V|Q).
    """
    return RegionSystem(["R1", "R2", "T1", "T2"],
                        _covering_rows([("R1", "T1", "U"), ("R2", "T2", "V")]))


def nonneg(variables) -> RegionSystem:
    return RegionSystem(list(variables),
                        [ineq({v: -1}, "<=", 0) for v in variables])


def id_example_system() -> RegionSystem:
    """Two-pair compound system where Y2 and Z decode everything.

    Pair 1 couples Y1 with the common Z receiver using method 2 (Y1 sticks to
    its own stream, Z resolves both); pair 2 couples Y2 with the same Z using
    method 4.  Shared Z rows are deduplicated, leaving 8 decoder rows plus the
    covering block and nonnegative rates.
    """
    sys1 = build_id_region(1, 2, z_label="Z")
    sys2 = build_id_region(2, 4, z_label="Z")
    return (sys1.conjoin(sys2)
                .conjoin(build_T_constraints())
                .conjoin(nonneg(["R0", "R1", "R2"])))


def bit_recombination(system: RegionSystem) -> RegionSystem:
    """Split each private rate and fold the split parts into the common rate.

    R0 = S0 + S01 + S02, R1 = S1 - S01, R2 = S2 - S02 with
    0 <= S01 <= S1 and 0 <= S02 <= S2.  Every receiver decodes the common
    codeword, so re-routing private bits through it preserves decodability.
    Apply after T1, T2 have been eliminated.
    """
    for t in ("T1", "T2"):
        if t in system.rate_vars:
            raise ValueError("eliminate binning rates before recombination")
    aux = [
        ineq({"S01": -1}, "<=", 0),
        ineq({"S02": -1}, "<=", 0),
        ineq({"S01": 1, "S1": -1}, "<=", 0),
        ineq({"S02": 1, "S2": -1}, "<=", 0),
    ]
    mapping = {
        "R0": {"S0": 1, "S01": 1, "S02": 1},
        "R1": {"S1": 1, "S01": -1},
        "R2": {"S2": 1, "S02": -1},
    }
    return substitute_rates(system, mapping,
                            new_vars=["S0", "S1", "S2", "S01", "S02"],
                            aux=aux)


def reduce_example_system() -> RegionSystem:
    """Project the 14-row example system to a two-rate region.

    Eliminates the binning rates, recombines private bits into the common
    stream, eliminates the split rates, zeroes the residual common rate, and
    renames the surviving pair back to (R1, R2).
    """
    sys0 = fme_eliminate_all(id_example_system(), ["T1", "T2"])
    sys0 = bit_recombination(sys0)
    sys0 = fme_eliminate_all(sys0, ["S01", "S02"])
    sys0 = substitute_rates(sys0, {"S0": {}})
    return substitute_rates(sys0, {"S1": {"R1": 1}, "S2": {"R2": 1}},
                            new_vars=["R1", "R2"])


def reduced_target_region() -> RegionSystem:
    """Hand-derived equivalent of reduce_example_system(): four inequalities."""
    a_y1 = InfoExpr.atom("I(Q,U;Y1)")
    return RegionSystem(
        ["R1", "R2"],
        [
            ineq({"R1": 1}, "<=", a_y1),
            ineq({"R1": 1, "R2": 1}, "<=", a_y1 + InfoExpr.atom("I(U,V;Y2|Q)")),
            ineq({"R1": 1, "R2": 1}, "<=", "I(Q,U,V;Y2)"),
            ineq({"R1": 1, "R2": 1}, "<=", a_y1 + InfoExpr.atom("I(V;Z|Q,U)")),
        ],
    )


def split_rate_example_system() -> RegionSystem:
    """Split-rate stage of the example reduction, ready for projection.

    The binning rates are already gone and each private rate carries an
    explicit split part (S01 out of R1, S02 out of R2) re-routed through the
    common stream, whose own rate is set to zero.  Eliminating (S01, S02)
    and pruning redundant rows recovers reduced_target_region().
    """
    # each right side lists its atoms in sorted order, the order a saved
    # system reloads in, which fixes the "atoms" list that `fme` writes
    zu = InfoExpr.atom("I(V;Z|Q,U)")
    return RegionSystem(
        ["R1", "R2", "S01", "S02"],
        [
            ineq({"R2": 1, "S02": -1}, "<=", "I(V;Z,U|Q)"),
            ineq({"R1": 1, "S01": -1}, "<=", "I(U;Y1|Q)"),
            ineq({"R1": 1, "S01": -1}, "<=", "I(U;Y2,V|Q)"),
            ineq({"R1": 1, "S02": 1}, "<=", "I(Q,U;Y1)"),
            ineq({"R1": 1, "R2": 1, "S01": -1, "S02": -1}, "<=", "I(U,V;Y2|Q)"),
            ineq({"R1": 1, "R2": 1, "S01": -1, "S02": -1}, "<=",
                 InfoExpr.atom("I(U;Y1|Q)") + zu),
            ineq({"R1": 1, "R2": 1, "S01": -1, "S02": -1}, "<=",
                 InfoExpr.atom("I(U;Y2,V|Q)") + zu),
            ineq({"R1": 1, "R2": 1}, "<=", "I(Q,U,V;Y2)"),
            ineq({"R1": 1, "R2": 1}, "<=", InfoExpr.atom("I(Q,U;Y1)") + zu),
            ineq({"S01": 1, "R1": -1}, "<=", 0),
            ineq({"S02": 1, "R2": -1}, "<=", 0),
            ineq({"S01": -1}, "<=", 0),
            ineq({"S02": -1}, "<=", 0),
        ],
    )


def three_arv_region() -> RegionSystem:
    """Three private auxiliaries: U1, U2 toward user 1 (one per channel
    instance) and V toward user 2, plus the common Q.

    User 1's message is covered twice, at binning rates T11 and T12, so each
    of its channel instances decodes the description tailored to it.  The
    covering block has four strict pairwise/triple constraints.
    """
    rows = (_decoding_rows("Z", "T2", "V") + _decoding_rows("Y1", "T11", "U1")
            + _decoding_rows("Y2", "T12", "U2")
            + _covering_rows([("R2", "T2", "V"), ("R1", "T11", "U1"),
                              ("R1", "T12", "U2")]))
    base = RegionSystem(["R0", "R1", "R2", "T11", "T12", "T2"], rows)
    return base.conjoin(nonneg(["R0", "R1", "R2"]))


# ---------------------------------------------------------------------------
# concrete valuations for the default BEC/BSC compound instance


def example_channels() -> dict:
    """Channel matrices keyed by output label for the default instance:
    user 2 sees Z = BSC(p), user 1 a degraded Y1 = BSC(p1) or Y2 = BEC(e2)."""
    p, p1, e2 = DEFAULT_PARAMS
    return {"Z": make_bsc(p), "Y1": make_bsc(p1), "Y2": make_bec(e2)}


def example_valuations(atoms, n, seed) -> list:
    """n random atom valuations driven by the default channel structure.

    Source variables are sampled jointly (binary alphabets); Y1, Y2, Z are
    generated from X through the instance's channels, so orderings such as
    Y1 being a degraded version of Z hold in every sample.
    """
    return sample_valuations(atoms, np.random.default_rng(seed), n,
                             channels=example_channels())


def _canonical_vertices(system, values, tol):
    region = instantiate(system, values)
    verts = vertices_2d(region, tol=tol)
    order = np.lexsort((verts[:, 1], verts[:, 0]))
    return verts[order]


def regions_match(sys_a, sys_b, values, tol=1e-9) -> bool:
    """True when both two-rate systems have identical vertex sets under the
    given atom valuation (coordinates compared within 10*tol)."""
    va = _canonical_vertices(sys_a, values, tol)
    vb = _canonical_vertices(sys_b, values, tol)
    if va.shape != vb.shape:
        return False
    return bool(np.allclose(va, vb, atol=10 * tol, rtol=0.0))
