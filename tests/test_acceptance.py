"""End-to-end acceptance suite, one numbered check per headline claim.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
backs the same claim with assertions, so a plain run gates on every check
while a verbose run doubles as a short report.  Heavy searches reuse the
package-wide default seed, making the whole file deterministic.

The Gaussian checks rebuild their covariance oracle locally: jointly
Gaussian variables are written down explicitly and mutual informations
taken through determinants, never through the closed form under test.
"""

import math

import numpy as np

from compound_bc.becbsc import (
    BecBscParams,
    alpha0_solve,
    corner_E_dominance,
    strict_inclusion_ratio_test,
)
from compound_bc.idregions import (
    example_valuations,
    reduce_example_system,
    reduced_target_region,
    regions_match,
)
from compound_bc.info import mi_groups
from compound_bc.lines import (d_a_curve, evaluate_supporting_lines,
                               sample_t_a, t0_closed, t1_closed)
from compound_bc.miso import (
    CORRELATION_BREAKPOINT,
    DpcScheme,
    MisoChannel,
    _terms,
    beam_from_angle,
    cd_closed_form,
    corr_parabolas,
    envelope_rate,
    md_correlated_optimal,
    parabola_rate,
    region_boundary,
    special_beams,
    special_geometry,
    split_terms,
    strictness_uncorrelated_check,
)
from compound_bc.outer import (
    constituent_curves,
    dof_slopes,
    matched_cov_pairs,
    outer_region,
    random_cov_pairs,
    sample_cov_pairs,
)
from compound_bc.polyhedra import RegionSystem, fme_eliminate, ineq, instantiate
from compound_bc.search import SearchSpec, maximize

from gaussian_oracle import gaussian_mutual_information
from region_oracle import feasible

SEED = 20259
PARAMS = BecBscParams()


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"acceptance {num:02d} {label}: {status}{tail}")


def h2(x):
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


# ---------------------------------------------------------------------------
# covariance oracle for the Gaussian closed forms


def golden_max(fun, lo, hi, iters=140):
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = fun(d)
    mid = (a + b) / 2.0
    return fun(mid)


def random_channel(rng):
    while True:
        h1 = rng.uniform(-2, 2, 2)
        h2 = rng.uniform(-2, 2, 2)
        g = rng.uniform(-2, 2, 2)
        try:
            return MisoChannel(h1, h2, g, rng.uniform(4, 20),
                               rng.uniform(0.3, 2.0))
        except ValueError:
            continue


def random_scheme(rng, channel, with_x=False):
    """(scheme, DPC parameter alpha, time share t), drawn in that order."""
    p_u = rng.uniform(0.5, 0.7 * channel.P)
    p_v = rng.uniform(0.0, channel.P - p_u)
    x = rng.uniform(0.0, 0.9 * p_u) if with_x else 0.0
    scheme = DpcScheme(beam_from_angle(rng.uniform(0, math.pi)),
                       beam_from_angle(rng.uniform(0, math.pi)), p_u, p_v, x=x)
    return scheme, rng.uniform(-1.5, 1.5), rng.uniform(0, 1)


def stream_cov(h_u, h_v, p_u, p_v, n, alpha):
    """Covariance of (U0, Y, V): U0 = X_u + alpha X_v, Y = h_u X_u + h_v X_v + Z."""
    return np.array([
        [p_u + alpha ** 2 * p_v, h_u * p_u + alpha * h_v * p_v, alpha * p_v],
        [h_u * p_u + alpha * h_v * p_v,
         h_u ** 2 * p_u + h_v ** 2 * p_v + n, h_v * p_v],
        [alpha * p_v, h_v * p_v, p_v],
    ])


def split_cov(h_u, h_v, p_u, p_v, x, n, alpha, alpha1):
    """Covariance of (U0, U1, Y, V) with the user-1 power split as
    X_u = X_c + X_p, var(X_c) = p_u - x, var(X_p) = x, and
    U0 = X_c + alpha X_v, U1 = X_p + alpha1 X_v."""
    cov = np.zeros((4, 4))
    cov[0, 0] = (p_u - x) + alpha ** 2 * p_v
    cov[1, 1] = x + alpha1 ** 2 * p_v
    cov[0, 1] = cov[1, 0] = alpha * alpha1 * p_v
    cov[2, 2] = h_u ** 2 * p_u + h_v ** 2 * p_v + n
    cov[0, 2] = cov[2, 0] = h_u * (p_u - x) + alpha * h_v * p_v
    cov[1, 2] = cov[2, 1] = h_u * x + alpha1 * h_v * p_v
    cov[3, 3] = p_v
    cov[0, 3] = cov[3, 0] = alpha * p_v
    cov[1, 3] = cov[3, 1] = alpha1 * p_v
    cov[2, 3] = cov[3, 2] = h_v * p_v
    return cov


def oracle_common_rate(channel, j, scheme, alpha):
    h = channel.receiver(j)
    h_u = float(h @ scheme.b_u)
    h_v = float(h @ scheme.b_v)
    cov = stream_cov(h_u, h_v, scheme.p_u, scheme.p_v, channel.N, alpha)
    return (gaussian_mutual_information(cov, [0], [1])
            - gaussian_mutual_information(cov, [0], [2]))


def oracle_split_rate(channel, j, scheme, alpha, alpha1):
    h = channel.receiver(j)
    h_u = float(h @ scheme.b_u)
    h_v = float(h @ scheme.b_v)
    cov = split_cov(h_u, h_v, scheme.p_u, scheme.p_v, scheme.x, channel.N,
                    alpha, alpha1)
    return (gaussian_mutual_information(cov, [0, 1], [2])
            - gaussian_mutual_information(cov, [0, 1], [3]))


# ---------------------------------------------------------------------------
# the numbered checks


def test_01_channel_pairs_are_incomparable():
    lhs, rhs, ordered = strict_inclusion_ratio_test(PARAMS)
    ok = (abs(lhs - 0.855625) <= 1e-6 and abs(rhs - 1.016941) <= 1e-6
          and ordered)
    report(1, "neither channel pair's region contains the other's", ok,
           f"lhs={lhs:.6f} rhs={rhs:.6f}")
    assert ok, (lhs, rhs, ordered)


def test_02_searched_weighted_curve_matches_closed_endpoints():
    xs = np.linspace(0.0, 1.0 - h2(PARAMS.p), 10)
    err1 = float(np.max(np.abs(sample_t_a(1.0, PARAMS, xs)
                               - t1_closed(PARAMS, xs))))
    err0 = float(np.max(np.abs(sample_t_a(0.0, PARAMS, xs)
                               - t0_closed(PARAMS, xs))))
    ok = err1 <= 5e-3 and err0 <= 5e-3
    report(2, "weighted-curve hull hits both closed-form endpoints",
           ok, f"max err a=1: {err1:.2e}, a=0: {err0:.2e}")
    assert ok, (err1, err0)


def test_03_partial_weight_leaves_a_positive_budget_gap():
    alpha0 = alpha0_solve(PARAMS)
    r1_max = 1.0 - h2(PARAMS.p1 + alpha0 - 2 * PARAMS.p1 * alpha0)
    rates = np.linspace(0.05, 0.95, 25) * r1_max
    gaps = d_a_curve(0.92, PARAMS, rates)
    positive = int(np.sum(gaps > 1e-4))
    ok = positive >= 20
    report(3, "normalized budget gap stays positive across the rate sweep",
           ok, f"{positive}/25 points above 1e-4, min gap {gaps.min():.3g}")
    assert ok, gaps


def test_04_zero_rate_corners_never_rise_above_degraded_reach():
    margin = corner_E_dominance(PARAMS, np.linspace(0.0, 0.5, 1000))
    ok = margin >= -1e-12
    report(4, "every slice corner is dominated by the fixed corner", ok,
           f"min margin {margin:.3e} over 1000 slices")
    assert ok, margin


def test_05_machine_elimination_equals_hand_reduction():
    reduced = reduce_example_system()
    target = reduced_target_region()
    atoms = sorted(set(reduced.atoms()) | set(target.atoms()))
    mismatches = sum(
        not regions_match(reduced, target, values, tol=1e-9)
        for values in example_valuations(atoms, 100, SEED))
    ok = mismatches == 0
    report(5, "eliminated rate system matches the four-line reduction", ok,
           f"{100 - mismatches}/100 channel-consistent valuations, tol 1e-9")
    assert ok, mismatches


def test_06_gaussian_closed_forms_match_covariance_oracle():
    rng = np.random.default_rng(SEED + 11)
    worst_split = 0.0
    worst_common = 0.0
    splits_checked = 0
    for _ in range(200):
        channel = random_channel(rng)
        scheme, alpha, _ = random_scheme(rng, channel, with_x=True)
        j = int(rng.integers(1, 3))
        terms = _terms(channel, scheme)
        # common stream at the interference-cancelling DPC parameter
        beta, _ = split_terms(terms.receivers[j - 1], scheme.p_u,
                              scheme.p_v, 0.0)
        beta = float(beta)
        common = corr_parabolas(terms, 0.0)[3 * j - 3:3 * j]
        worst_common = max(worst_common,
                           abs(float(parabola_rate(*common, beta))
                               - oracle_common_rate(channel, j, scheme, beta)))
        # split stream: closed maximum vs a golden search over the oracle
        if scheme.p_v > 0:
            split = corr_parabolas(terms, scheme.x)[3 * j - 3:3 * j]
            got = float(parabola_rate(*split, alpha))
            want = golden_max(
                lambda a1: oracle_split_rate(channel, j, scheme, alpha, a1),
                -8.0, 8.0)
            worst_split = max(worst_split, abs(got - want))
            splits_checked += 1
    ok = worst_split <= 1e-6 and worst_common <= 1e-9
    report(6, "closed-form stream rates match the determinant oracle", ok,
           f"{splits_checked} split maxima within {worst_split:.1e}, "
           f"common rates within {worst_common:.1e}")
    assert ok, (worst_split, worst_common)


def test_07_correlated_descriptions_strictly_help_below_breakpoint():
    channel = special_geometry()
    eta = -0.5
    b_u, b_v = special_beams(eta)
    closed = cd_closed_form(eta, 6.0, 4.0, 1.0)
    best_gain = 0.0
    r2_drift = 0.0
    for x in np.linspace(1e-3, CORRELATION_BREAKPOINT, 13):
        point, _, _ = md_correlated_optimal(
            channel, DpcScheme(b_u, b_v, 6.0, 4.0, x=float(x)))
        best_gain = max(best_gain, point.r1 - closed.r1)
        r2_drift = max(r2_drift, abs(point.r2 - closed.r2))
    # identical gains at both receivers leave nothing to exploit
    b_a, b_b = special_beams(1.0)
    aligned = md_correlated_optimal(
        channel, DpcScheme(b_a, b_b, 6.0, 4.0, x=0.05))[0]
    aligned_gain = abs(aligned.r1 - cd_closed_form(1.0, 6.0, 4.0, 1.0).r1)
    # without a second stream there is no interference to describe
    lone = DpcScheme(b_u, b_v, 6.0, 0.0, x=0.05)
    lone_cd = envelope_rate(corr_parabolas(_terms(channel, lone), 0.0))[1]
    lone_gain = abs(md_correlated_optimal(channel, lone)[0].r1 - lone_cd)
    ok = (best_gain > 1e-6 and r2_drift <= 1e-9
          and aligned_gain <= 1e-9 and lone_gain <= 1e-9)
    report(7, "correlated private slice lifts R1 at unchanged R2", ok,
           f"best gain {best_gain:.4g}, degenerate gains "
           f"{max(aligned_gain, lone_gain):.1e}")
    assert ok, (best_gain, r2_drift, aligned_gain, lone_gain)


def test_08_power_condition_certifies_uncorrelated_gain():
    rng = np.random.default_rng(SEED + 13)
    hits = 0
    failures = []
    for _ in range(500):
        p_u = rng.uniform(0.5, 6.0)
        p_v = rng.uniform(0.5, 12.0)
        n = rng.uniform(0.1, 1.5)
        eta = rng.uniform(-1.0, 1.0)
        rep = strictness_uncorrelated_check(p_u, p_v, n, eta, x_steps=801)
        if rep.condition_holds:
            hits += 1
            if not rep.best_gain > 0:
                failures.append((p_u, p_v, n, eta, rep.best_gain))
    ok = not failures and hits >= 20
    report(8, "residual-power condition implies a strict sweep gain", ok,
           f"{hits}/500 configurations met the condition, "
           f"{len(failures)} without gain")
    assert ok, failures[:5] or hits


def test_09_inner_bounds_sit_inside_the_sampled_outer_bound():
    worst = -np.inf
    for snr_db in (0.0, 10.0, 20.0):
        power = 10.0 ** (snr_db / 10.0)
        channel = special_geometry(2.0, power, 1.0)
        inners = {kind: region_boundary(kind, channel, eta_steps=81,
                                        split_steps=51, x_steps=31)
                  for kind in ("cd", "md-uncorr", "md-corr")}
        pairs = [matched_cov_pairs(curve) for curve in inners.values()]
        extra = (np.concatenate([p[0] for p in pairs]),
                 np.concatenate([p[1] for p in pairs]))
        outer = outer_region(constituent_curves(channel, *sample_cov_pairs(
            channel, seed=SEED, extra_pairs=extra)))
        for curve in inners.values():
            worst = max(worst, float(np.max(outer.violation(curve.points))))
    ok = worst <= 1e-6
    report(9, "all three inner bounds stay inside the outer bound", ok,
           f"worst violation {worst:.3g} over SNR 0/10/20 dB")
    assert ok, worst


def test_10_outer_bound_growth_slopes_match_two_degrees_of_freedom():
    snrs = (20.0, 30.0, 40.0)
    channels = [special_geometry(2.0, 10.0 ** (s / 10.0), 1.0) for s in snrs]
    curves = [outer_region(constituent_curves(ch, *sample_cov_pairs(
        ch, num_random=4000, seed=SEED))) for ch in channels]
    est = dof_slopes(snrs, curves)
    ok = (0.9 <= est.d1 <= 1.1 and 0.9 <= est.d2 <= 1.1
          and 1.85 <= est.weighted_slope <= 2.15)
    report(10, "high-power slopes show one unit per user", ok,
           f"d1={est.d1:.3f} d2={est.d2:.3f} "
           f"weighted={est.weighted_slope:.3f}")
    assert ok, est


def test_11_structural_properties_hold():
    notes = []
    # weighted curve: decreasing in budget, midpoint concave
    vals = sample_t_a(0.6, PARAMS, np.linspace(0.05, 0.45, 5))
    mono = bool(np.all(np.diff(vals) <= 5e-3))
    conc = bool(np.all(vals[1:-1] >= (vals[:-2] + vals[2:]) / 2 - 5e-3))
    if not (mono and conc):
        notes.append(f"curve shape mono={mono} conc={conc}")

    # projection feasibility must match existence of an extension exactly
    rng = np.random.default_rng(SEED + 19)
    cap = 6.0
    shape_ok = True
    for _ in range(12):
        rows = [ineq({"z": 1}, "<=", cap), ineq({"z": -1}, "<=", 0)]
        for _ in range(int(rng.integers(2, 6))):
            lhs = {v: int(c) for v, c in
                   zip("xyz", rng.integers(-3, 4, size=3)) if c}
            rows.append(ineq(lhs, "<=", float(rng.integers(-2, 8))))
        sys = RegionSystem(["x", "y", "z"], rows)
        region = instantiate(fme_eliminate(sys, "z"), {})
        for _ in range(25):
            pt = rng.uniform(0, cap, size=2)
            feas_proj = bool(feasible(region, pt)[0])
            lo, hi = 0.0, cap
            flat_ok = True
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
                    flat_ok = False
            feas_ext = flat_ok and lo <= hi + 1e-9
            if abs(lo - hi) > 1e-6 and feas_proj != feas_ext:
                shape_ok = False
    if not shape_ok:
        notes.append("projection mismatch")

    # information measures: nonnegative, and processing cannot create any
    info_ok = True
    for _ in range(20):
        nx, ny = rng.integers(2, 5, size=2)
        px = rng.dirichlet(np.ones(nx))
        W = rng.dirichlet(np.ones(ny), size=nx)
        if mi_groups(px[:, None] * W, ("X", "Y"), "X", "Y") < 0.0:
            info_ok = False
    for _ in range(15):
        pq = rng.dirichlet(np.ones(3))
        pxq = rng.dirichlet(np.ones(2), size=3)
        W = rng.dirichlet(np.ones(3), size=2)
        # the cascade p(q) p(x|q) W(y|x) over (Q, X, Y)
        table = pq[:, None, None] * pxq[:, :, None] * W[None, :, :]
        names = ("Q", "X", "Y")
        if mi_groups(table, names, "Q", "Y") > \
                mi_groups(table, names, "X", "Y") + 1e-12:
            info_ok = False
        if abs(mi_groups(table, names, "Q", "Y", given="X")) > 1e-12:
            info_ok = False
    if not info_ok:
        notes.append("information measures")

    # seeded searches must replay byte for byte
    spec = SearchSpec([[-5.0, 5.0]] * 3, restarts=6, iterations=150,
                      seeds=[7])

    def f(X):
        return -np.sum((X - np.array([1.0, -2.0, 0.5])) ** 2, axis=1)

    det_ok = np.array_equal(maximize(f, spec), maximize(f, spec))
    f_pair = [evaluate_supporting_lines(
        0.7, PARAMS, np.linspace(0.0, 2.0, 5), search_budget=(32, 100),
        seed=SEED + 23, canonical=0).f_values for _ in range(2)]
    det_ok = det_ok and np.array_equal(f_pair[0], f_pair[1])
    channel = special_geometry()
    k_pair = [random_cov_pairs(channel, 64, seed=5) for _ in range(2)]
    det_ok = det_ok and all(np.array_equal(a, b)
                            for a, b in zip(k_pair[0], k_pair[1]))
    if not det_ok:
        notes.append("determinism")

    ok = not notes
    report(11, "shape, projection, information and replay properties", ok,
           "; ".join(notes) if notes else "4 property groups")
    assert ok, notes
