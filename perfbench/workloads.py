"""The four benchmark workloads.

Each workload has a `setup(seed, tmp)` that builds every input from the seed
(parameters, channels, grids, valuation tables) and a `run_pass(state, tmp)`
that makes one complete pass through the package's public functions and
checks the outputs.  Every pass of a run repeats the same inputs, so the
outputs (and their digest) are identical from pass to pass.

A pass returns a `PassResult`: operations attempted and failed (an operation
is one multiplier search, one brute search, one CLI stage or one valuation
match), the reasons for any failed check, the figures it measured on its
outputs (FIGURE_UNITS), and the formatted outputs that go into the digest.
"""

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field

import numpy as np

from compound_bc import becbsc, cli, idregions, info, lines, polyhedra
from compound_bc.becbsc import BecBscParams

A_WEIGHT = 0.92  # the becbsc-da default weight
RATE_POINTS = 25  # the becbsc-da default rate grid
ENVELOPE_MULTIPLIERS = 61
BAND_PAD = 0.05  # padding of the active band, as d_a_curve uses
MISO_GRID = {"eta_steps": 161, "split_steps": 81, "x_steps": 61,
             "num_random": 10000}
MISO_STAGES = 4  # three boundary sweeps and the outer-bound sampling
CLAIM5_VALUATIONS = 100
CLAIM2_TOL = 5e-3
CLAIM3_MIN_POSITIVE = 20
CLAIM3_FLOOR = 1e-4
CONTAIN_TOL = 1e-6
ATOM_NAMES = ("Q", "U1", "U2", "V", "X")
TARGET_MIN_BOUND = 1e-6  # bits; keeps the three-ARV regions non-degenerate


@dataclass
class PassResult:
    attempted: int
    failed: int = 0
    errors: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    digest: str = ""

    @property
    def correct(self):
        return self.failed == 0 and not self.errors

    def check(self, ok, message):
        if not ok:
            self.errors.append(message)


def fmt12(values):
    """Numbers at 12 significant digits, -0 folded to 0, as the CLI writes."""
    return ",".join(f"{float(v) + 0.0:.12g}"
                    for v in np.ravel(np.asarray(values, dtype=float)))


def digest(result):
    """Hash a pass's outputs into `result.digest` and drop the outputs, so
    passes kept for the summary hold no memory."""
    h = hashlib.sha256()
    for part in result.outputs:
        h.update(part if isinstance(part, bytes) else part.encode())
        h.update(b"\n")
    result.digest = h.hexdigest()
    result.outputs = []
    return result


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _quiet_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _dir_outputs(path):
    files = sorted(p for p in path.iterdir() if p.is_file())
    return [p.name.encode() + b"\n" + p.read_bytes() for p in files]


# ---------------------------------------------------------------------------
# da-envelope: many small Lagrangian searches across the active band


def da_envelope_setup(seed, tmp):
    params = BecBscParams()
    alpha0 = becbsc.alpha0_solve(params)
    r1_max = 1.0 - info.binary_entropy(info.binary_convolve(params.p1, alpha0))
    rates = np.linspace(0.05, 0.95, RATE_POINTS) * r1_max
    # budget window and active band located as d_a_curve does, through the
    # helpers of lines._envelope_curve so the entropy kernel is not restated
    x_max = 1.0 - info.binary_entropy(params.p)
    x_lo = max(0.0, lines.t1_inverse(params, float(rates.max())) - 0.004)
    x_hi = min(x_max, lines.t1_inverse(params, float(rates.min())) + 0.004)
    coarse = lines.default_lambda_grid()
    cq, cb = lines.canonical_designs()
    i1, i2, ixz = lines._mutual_informations(cq, cb, params)
    weighted = A_WEIGHT * i1 + (1.0 - A_WEIGHT) * i2
    f_coarse = lines._pool_f_values(coarse, weighted, ixz)
    probe = np.linspace(x_lo, x_hi, 65)
    active = np.argmin(f_coarse[:, None] - coarse[:, None] * probe[None, :],
                       axis=0)
    band = np.linspace(max(0.0, coarse[active.min()] - BAND_PAD),
                       coarse[active.max()] + BAND_PAD, ENVELOPE_MULTIPLIERS)
    return {"params": params, "rates": rates, "seed": seed, "band": band,
            "f_canonical": lines._pool_f_values(band, weighted, ixz),
            "xs": np.linspace(x_lo, x_hi, 4001)}


def da_envelope_pass(state, tmp):
    params, band, xs, rates = (state["params"], state["band"], state["xs"],
                               state["rates"])
    res = PassResult(attempted=band.size)
    try:
        searched = lines.evaluate_supporting_lines(
            A_WEIGHT, params, lambda_grid=band, search_budget=(32, 160),
            seed=state["seed"], canonical=0).f_values
    except RuntimeError as exc:
        res.failed = band.size
        res.errors.append(f"envelope searches: {exc}")
        return res
    f_canonical = state["f_canonical"]
    pooled = lines.SupportingLineEval(A_WEIGHT, band,
                                      np.maximum(searched, f_canonical), xs)
    ref_inv = lines.invert_decreasing(xs, lines.t1_closed(params, xs), rates)
    other_inv = lines.invert_decreasing(xs, pooled.t_values, rates)
    exact_inv = lines.t1_inverse(params, rates)
    gap = ref_inv - other_inv
    d_a = gap / np.max(np.abs(gap))
    positive = int(np.sum(d_a > CLAIM3_FLOOR))
    res.check(positive >= CLAIM3_MIN_POSITIVE,
              f"claim 3: {positive}/{RATE_POINTS} d_a above {CLAIM3_FLOOR:g}")
    inv_err = float(np.max(np.abs(ref_inv - exact_inv)))
    res.check(inv_err <= 1e-6, f"sampled a=1 inverse off by {inv_err:.3g}")
    res.figures = {
        "envelope_shortfall": float(np.max(f_canonical - searched)),
        "lines.search_win_ratio": float(np.mean(searched > f_canonical)),
    }
    res.outputs = [fmt12(band), fmt12(searched), fmt12(d_a)]
    return res


# ---------------------------------------------------------------------------
# ta-brute: wide constrained searches at the closed-form edge weights


def ta_brute_setup(seed, tmp):
    params = BecBscParams()
    x_max = 1.0 - info.binary_entropy(params.p)
    rng = np.random.default_rng(seed)
    # one interior budget per edge weight, away from the domain ends
    x1, x0 = rng.uniform(0.1, 0.9, size=2) * x_max
    return {"params": params, "seed": seed, "x1": float(x1), "x0": float(x0)}


def ta_brute_pass(state, tmp):
    params, seed = state["params"], state["seed"]
    res = PassResult(attempted=2)
    errs, values = [], []
    for a, x, closed, s in ((1.0, state["x1"], lines.t1_closed, seed),
                            (0.0, state["x0"], lines.t0_closed, seed + 1)):
        try:
            got = lines.sample_t_a(a, params, [x],
                                   search_budget=lines.DEFAULT_BUDGET, seed=s)
        except RuntimeError as exc:
            res.failed += 1
            res.errors.append(f"brute search a={a:g} x={x:.6g}: {exc}")
            continue
        values.append(got[0])
        errs.append(abs(float(got[0]) - float(closed(params, x))))
    if errs:
        t_err = max(errs)
        res.check(t_err <= CLAIM2_TOL,
                  f"claim 2: max |t_a - closed| {t_err:.3g} > {CLAIM2_TOL:g}")
        res.figures = {"t_err_max": t_err}
    res.outputs = [fmt12([state["x1"], state["x0"]]), fmt12(values)]
    return res


# ---------------------------------------------------------------------------
# miso-cli: the Gaussian user path through the CLI, without a search layer


def _area_under(points):
    """Area under a linear rate curve held as R1-ascending points."""
    r1, r2 = points[:, 0], points[:, 1]
    return float(r1[0] * r2[0] + np.trapezoid(r2, r1))


def _read_curve(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1), ndmin=2)


def miso_cli_setup(seed, tmp):
    param_file = tmp / "miso_params.json"
    param_file.write_text(json.dumps(MISO_GRID))
    return {"seed": seed, "params": str(param_file)}


def miso_cli_pass(state, tmp):
    out = _fresh_dir(tmp / "miso")
    res = PassResult(attempted=MISO_STAGES)
    code, log = _quiet_cli(["miso", "--outer", "--time-sharing", "--out",
                            str(out), "--params", state["params"],
                            "--seed", str(state["seed"])])
    if code != 0:
        res.failed = 1
        res.errors.append(f"miso CLI exit {code}: {log.strip()[-300:]}")
        return res
    outer = polyhedra.RateCurve2D(_read_curve(out / "outer.csv"), interp="linear")
    inner_area = 0.0
    for kind in ("cd", "md_uncorr", "md_corr"):
        hull = _read_curve(out / f"{kind}_hull.csv")
        inner_area += _area_under(hull)
        worst = float(np.max(outer.violation(hull)))
        res.check(worst <= CONTAIN_TOL,
                  f"claim 9: {kind} hull exceeds outer by {worst:.3g}")
    outputs = _dir_outputs(out)
    res.figures = {
        "inner_area": inner_area,
        "outer_area": _area_under(outer.points),
        "cli.files": float(len(outputs)),
        "cli.bytes_written": float(sum(p.stat().st_size for p in out.iterdir())),
    }
    res.outputs = outputs
    return res


# ---------------------------------------------------------------------------
# fme-project: exact symbolic projection and vertex enumeration


def _structured_table(rng):
    """Joint pmf over (Q, U1, U2, V, X) with U1 = Q and V = U2 = X."""
    pq = rng.dirichlet([2.0, 2.0])
    px_q = rng.dirichlet([2.0, 2.0], size=2)
    table = np.zeros((2,) * 5)
    for q in range(2):
        for x in range(2):
            table[q, q, x, x, x] = pq[q] * px_q[q, x]
    return table


def _three_arv_base():
    """I(X;Z|Q) + I(X;Y2|Q) - H(X|Q): the projection keeps it as the
    rate-free row 0 <= base, so its region is empty where base < 0."""
    return (polyhedra.InfoExpr.atom("I(X;Z|Q)")
            + polyhedra.InfoExpr.atom("I(X;Y2|Q)")
            + polyhedra.InfoExpr.atom("H(X|Q)", -1))


def _three_arv_target():
    """Three-row image of the three-ARV projection on structured designs
    with base >= 0: R1 alone and one R1 + R2 row per channel instance of
    user 1."""
    base = _three_arv_base()
    return polyhedra.RegionSystem(["R1", "R2"], [
        polyhedra.ineq({"R1": 1}, "<=", "I(Q;Y1)"),
        polyhedra.ineq({"R1": 1, "R2": 1}, "<=",
                       base + polyhedra.InfoExpr.atom("I(Q;Y1)")),
        polyhedra.ineq({"R1": 1, "R2": 1}, "<=",
                       base + polyhedra.InfoExpr.atom("I(Q;Y2)")),
    ])


def _structured_values(rng, target, channels):
    """Atom values of the first structured pmf drawn from `rng` on which
    base and every bound of the 3-row target are at least TARGET_MIN_BOUND.

    Where X is nearly deterministic given Q, base is negative, so the
    projection is empty (and the target too, or a region the projection
    does not equal); near 0 the regions are degenerate.  Either way there
    is no vertex set to compare, so such draws are skipped.
    """
    atoms = sorted(set(idregions.three_arv_region().atoms())
                   | set(target.atoms()))
    bounds = [_three_arv_base()] + [iq.rhs for iq in target.ineqs]
    while True:
        values = polyhedra.atom_values(atoms, _structured_table(rng),
                                       ATOM_NAMES, channels=channels)
        if min(b.evaluate(values) for b in bounds) >= TARGET_MIN_BOUND:
            return values


def fme_project_setup(seed, tmp):
    rng = np.random.default_rng(seed)
    channels = idregions.example_channels()
    three_target = _three_arv_target()
    target = idregions.reduced_target_region()
    atoms = sorted(set(idregions.id_example_system().atoms())
                   | set(target.atoms())
                   | set(idregions.split_rate_example_system().atoms()))
    return {
        "seed": seed,
        "three_target": three_target,
        "three_values": _structured_values(rng, three_target, channels),
        "target": target,
        "valuations": idregions.example_valuations(atoms, CLAIM5_VALUATIONS,
                                                   seed),
    }


def _project_three_arv():
    """Project the three-ARV system to (R1, R2): 16 -> 29 -> 416 -> 413 rows."""
    sys3 = polyhedra.fme_eliminate_all(idregions.three_arv_region(),
                                       ["T11", "T12", "T2"])
    sys3 = polyhedra.fme_eliminate_all(idregions.bit_recombination(sys3),
                                       ["S01", "S02"])
    sys3 = polyhedra.substitute_rates(sys3, {"S0": {}})
    return polyhedra.substitute_rates(sys3, {"S1": {"R1": 1}, "S2": {"R2": 1}},
                                      new_vars=["R1", "R2"])


def fme_project_pass(state, tmp):
    valuations, target = state["valuations"], state["target"]
    res = PassResult(attempted=2 + len(valuations))
    projected = _project_three_arv()
    if not idregions.regions_match(projected, state["three_target"],
                                   state["three_values"], tol=1e-9):
        res.failed += 1
        res.errors.append("three-ARV projection differs from its 3-row image")

    reduced = idregions.reduce_example_system()
    matches = [idregions.regions_match(reduced, target, v, tol=1e-9)
               for v in valuations]
    misses = matches.count(False)
    res.failed += misses
    res.check(misses == 0, f"claim 5: {len(valuations) - misses}/"
                           f"{len(valuations)} valuations match")

    out = _fresh_dir(tmp / "fme")
    code, log = _quiet_cli(["fme", "--out", str(out), "--seed", str(state["seed"])])
    if code != 0:
        res.failed += 1
        res.errors.append(f"fme CLI exit {code}: {log.strip()[-300:]}")
    else:
        pruned = polyhedra.RegionSystem.load(out / "fme_projected.json")
        bad = sum(not idregions.regions_match(pruned, target, v, tol=1e-9)
                  for v in valuations[:10])
        res.check(bad == 0, f"fme CLI output differs from the hand reduction "
                            f"on {bad}/10 valuations")
    res.figures = {"projected_rows": float(len(projected.ineqs))}
    res.outputs = ([json.dumps(projected.to_json(), sort_keys=True),
                    "".join("1" if m else "0" for m in matches)]
                   + (_dir_outputs(out) if code == 0 else []))
    return res


WORKLOADS = {
    "da-envelope": (da_envelope_setup, da_envelope_pass),
    "ta-brute": (ta_brute_setup, ta_brute_pass),
    "miso-cli": (miso_cli_setup, miso_cli_pass),
    "fme-project": (fme_project_setup, fme_project_pass),
}

# figures the passes measure on their outputs, reported by every run and as
# per-layer metrics of the traced run (0 on a workload that has none)
FIGURE_UNITS = {
    "envelope_shortfall": "bits",
    "lines.search_win_ratio": "ratio",
    "t_err_max": "bits",
    "inner_area": "bits2",
    "outer_area": "bits2",
    "projected_rows": "count",
    "cli.files": "count",
    "cli.bytes_written": "B",
}

