"""Command line front end for the compound broadcast channel toolkit.

Four subcommands produce plot-ready CSV/JSON files:

  becbsc-regions  capacity and interference-decoding curves for the
                  two-instance erasure/flip compound channel
  becbsc-da       normalized budget-gap curve d_a plus the supporting-line
                  study behind it
  miso            robust dirty paper boundaries for the two-antenna Gaussian
                  compound channel, optional convex hulls and outer bound
  fme             Fourier-Motzkin projection of a symbolic rate system

Every run is deterministic given its configuration and seed; float cells are
printed at 12 significant digits so repeat runs are byte-identical.
"""

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .becbsc import (
    DEFAULT_PARAMS,
    BecBscParams,
    alpha0_solve,
    capacity_c1,
    capacity_c2,
    id_curve,
    mrs_gerber_lower,
)
from .idregions import split_rate_example_system
from .info import binary_convolve, binary_entropy
from .lines import d_a_curve, sample_t_a, t0_closed, t1_closed
from .miso import REGION_KINDS, MisoChannel, region_boundary, special_geometry
from .outer import (
    OUTER_FAMILIES,
    constituent_curves,
    matched_cov_pairs,
    outer_region,
    sample_cov_pairs,
)
from .polyhedra import (
    EmptyRegionError,
    RegionSystem,
    fme_eliminate_all,
    prune_redundant,
    sample_valuation,
)
from .search import DEFAULT_SEED

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

DEFAULT_ALPHA_STEPS = 201
DEFAULT_RATE_POINTS = 25
DEFAULT_X_POINTS = 21
PRUNE_VALUATIONS = 100
DEFAULT_ELIMINATE = ("S01", "S02")

# meta keys of boundary points, in column order; absent keys are skipped
MISO_PARAM_COLUMNS = ("eta", "theta_u", "theta_v", "p_u", "p_v", "order",
                      "x", "t", "alpha", "sum_constraint_active")

BUNDLED_FME_EXAMPLE = Path(__file__).resolve().parent / "data" / "fme_example.json"


class NumericFailure(RuntimeError):
    """A numerical routine failed; carries the operation name for the exit
    message."""

    def __init__(self, operation, cause):
        super().__init__(f"numerical failure in {operation}: {cause}")
        self.operation = operation
        self.cause = cause


@contextmanager
def _stage(operation):
    # map numerical blowups to exit code 3 with the failing operation named
    try:
        yield
    except NumericFailure:
        raise
    except (FloatingPointError, ZeroDivisionError, EmptyRegionError,
            RuntimeError, np.linalg.LinAlgError) as exc:
        raise NumericFailure(operation, exc) from exc


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    v = float(value)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return f"{v:.12g}"


def _writable(path):
    # the output directory appears with the first file, so a run that
    # fails before writing leaves nothing behind
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _writable(path).write_text("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(rows)} rows)")


def _load_params(args):
    if getattr(args, "defaults", False) or args.params is None:
        return {}
    path = Path(args.params)
    try:
        cfg = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read parameter file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"parameter file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ValueError(f"parameter file {path} must hold a JSON object")
    return cfg


def _pick(cfg, key, fallback, cast=float):
    """cfg[key] (or the fallback) as `cast`; an int key takes no fraction
    and no infinity or NaN, which an int cast would drop or fail on."""
    value = cfg.get(key, fallback)
    try:
        picked = cast(value)
        if cast is int and isinstance(value, float) and picked != value:
            raise ValueError
        return picked
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"parameter {key!r} must be {cast.__name__}, got {value!r}")


def _seed_value(args, cfg):
    seed = args.seed if args.seed is not None \
        else _pick(cfg, "seed", DEFAULT_SEED, int)
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def _budget_value(args, cfg):
    budget = args.budget
    if budget is None:
        if cfg.get("budget") is None:
            return None
        budget = _pick(cfg, "budget", None, int)
    if budget < 1:
        raise ValueError(f"optimizer budget must be >= 1, got {budget}")
    return budget


# --------------------------------------------------------------------------
# becbsc-regions

def _becbsc_params(cfg):
    p, p1, e2 = DEFAULT_PARAMS
    return BecBscParams(_pick(cfg, "p", p), _pick(cfg, "p1", p1),
                        _pick(cfg, "e2", e2))


def _region_bounds(region):
    # bound value per stored row pattern, e.g. {(1, 0): b1, (1, 1): bs}
    rows = region.A[:region.n_rows]
    return {tuple(int(round(c)) for c in row): float(b)
            for row, b in zip(rows, region.b[:region.n_rows])}


def cmd_becbsc_regions(args):
    cfg = _load_params(args)
    params = _becbsc_params(cfg)
    steps = args.alpha_steps if args.alpha_steps is not None else DEFAULT_ALPHA_STEPS
    if steps < 2:
        raise ValueError(f"--alpha-steps must be >= 2, got {steps}")
    out = Path(args.out)
    alphas = np.linspace(0.0, 0.5, steps)

    c1_rows, c2_rows, id_rows, mg_rows = [], [], [], []
    with _stage("becbsc boundary evaluation"):
        for alpha in alphas:
            r1, r2 = capacity_c1(params, alpha)
            c1_rows.append((alpha, max(r1, 0.0), max(r2, 0.0)))

            bounds = _region_bounds(capacity_c2(params, alpha))
            b1, b2, bs = bounds[(1, 0)], bounds[(0, 1)], bounds[(1, 1)]
            r1 = min(b1, bs)
            r2 = min(b2, bs - r1)
            c2_rows.append((alpha, max(r1, 0.0), max(r2, 0.0)))

            bounds = _region_bounds(id_curve(params, alpha))
            c, cs = bounds[(1, 0)], bounds[(1, 1)]
            id_rows.append((alpha, max(c, 0.0), max(cs - c, 0.0)))

            r2, r1 = mrs_gerber_lower(params, alpha)
            mg_rows.append((alpha, max(r1, 0.0), max(r2, 0.0)))

    header = ("alpha", "R1", "R2")
    _write_csv(out / "c1.csv", header, c1_rows)
    _write_csv(out / "c2.csv", header, c2_rows)
    _write_csv(out / "id.csv", header, id_rows)
    _write_csv(out / "mrs_gerber.csv", header, mg_rows)
    return EXIT_OK


# --------------------------------------------------------------------------
# becbsc-da

def cmd_becbsc_da(args):
    cfg = _load_params(args)
    params = _becbsc_params(cfg)
    a = _pick(cfg, "a", 0.92)
    if not 0.0 < a <= 1.0:
        raise ValueError(f"weight a must lie in (0, 1], got {a}")
    seed = _seed_value(args, cfg)
    budget = _budget_value(args, cfg)
    rate_points = _pick(cfg, "rate_points", DEFAULT_RATE_POINTS, int)
    x_points = _pick(cfg, "x_points", DEFAULT_X_POINTS, int)
    if rate_points < 2 or x_points < 2:
        raise ValueError("rate_points and x_points must be >= 2")
    out = Path(args.out)

    with _stage("budget-gap curve"):
        alpha0 = alpha0_solve(params)
        r1_max = 1.0 - binary_entropy(binary_convolve(params.p1, alpha0))
        rates = np.linspace(0.05, 0.95, rate_points) * r1_max
        gaps = d_a_curve(a, params, rates,
                         search_budget=None if budget is None else (budget, 160),
                         seed=seed)

    with _stage("supporting-line study"):
        x_max = 1.0 - binary_entropy(params.p)
        xs = np.linspace(0.0, x_max, x_points)
        t_budget = (200, 300) if budget is None else (budget, 300)
        t_a = sample_t_a(a, params, xs, search_budget=t_budget, seed=seed)
        t_1 = t1_closed(params, xs)
        t_0 = t0_closed(params, xs)

    # both stages finish before any file is written, so a failing run
    # leaves no partial output set
    _write_csv(out / "da.csv", ("R1", "d_a"), list(zip(rates, gaps)))
    k = int(np.argmin(gaps))
    print(f"min(d_a) = {_fmt(gaps[k])} at R1 = {_fmt(rates[k])}")
    _write_csv(out / "t_curves.csv", ("x", "t_a", "t_1", "t_0"),
               list(zip(xs, t_a, t_1, t_0)))
    return EXIT_OK


# --------------------------------------------------------------------------
# miso

def _miso_channel(args, cfg):
    noise = _pick(cfg, "N", 1.0)
    if args.snr_db is not None:
        power = noise * 10.0 ** (args.snr_db / 10.0)
    elif "P" in cfg:
        power = _pick(cfg, "P", 10.0)
    else:
        power = noise * 10.0  # 10 dB default
    if {"h1", "h2", "g"} <= set(cfg):
        return MisoChannel(np.asarray(cfg["h1"], dtype=float),
                           np.asarray(cfg["h2"], dtype=float),
                           np.asarray(cfg["g"], dtype=float), power, noise)
    if set(cfg) & {"h1", "h2", "g"}:
        raise ValueError("channel config needs all of h1, h2, g")
    return special_geometry(2.0, power, noise)


def _grid_kwargs(cfg):
    kwargs = {}
    for key in ("eta_steps", "split_steps", "x_steps"):
        if key in cfg:
            kwargs[key] = _pick(cfg, key, None, int)
    if "beam_steps" in cfg:
        steps = cfg["beam_steps"]
        if not (isinstance(steps, (list, tuple)) and len(steps) == 2):
            raise ValueError("beam_steps must be a two-element list")
        kwargs["beam_steps"] = tuple(
            _pick({"beam_steps": n}, "beam_steps", None, int) for n in steps)
    return kwargs


def _curve_rows(curve):
    keys = [k for k in MISO_PARAM_COLUMNS
            if any(k in row for row in curve.meta)]
    header = ("R1", "R2") + tuple(keys)
    rows = [tuple(pt) + tuple(row.get(k, "") for k in keys)
            for pt, row in zip(curve.points, curve.meta)]
    return header, rows


def _file_stem(kind):
    return kind.replace("-", "_")


def _report_containment(name_outer, curve_outer, name_inner, curve_inner, tol):
    report = curve_outer.contains(curve_inner, tol=tol)
    verdict = "yes" if report.contained else "NO"
    print(f"{name_inner} inside {name_outer}: {verdict} "
          f"(max violation {_fmt(max(report.max_violation, 0.0))}, tol {_fmt(tol)})")
    return report.contained


def cmd_miso(args):
    cfg = _load_params(args)
    channel = _miso_channel(args, cfg)
    seed = _seed_value(args, cfg)
    grid = _grid_kwargs(cfg)
    num_random = _pick(cfg, "num_random", 10000, int)
    # checked before the first sweep so a bad count writes no CSV
    if num_random < 0:
        raise ValueError("parameter 'num_random' must be a nonnegative"
                         f" integer, got {num_random!r}")
    out = Path(args.out)
    print(f"channel: h1={channel.h1.tolist()} h2={channel.h2.tolist()} "
          f"g={channel.g.tolist()} P={_fmt(channel.P)} N={_fmt(channel.N)}")

    curves = {}
    for kind in REGION_KINDS:
        with _stage(f"{kind} boundary sweep"):
            curve = region_boundary(kind, channel, **grid)
        curves[kind] = curve
        header, rows = _curve_rows(curve)
        _write_csv(out / f"{_file_stem(kind)}.csv", header, rows)
        if args.time_sharing:
            hull = curve.hull()
            header, rows = _curve_rows(hull)
            _write_csv(out / f"{_file_stem(kind)}_hull.csv", header, rows)

    # achievability ordering between the three schemes
    for name_a, name_b in (("md-uncorr", "cd"), ("md-corr", "cd"),
                           ("md-corr", "md-uncorr"), ("md-uncorr", "md-corr")):
        _report_containment(name_a, curves[name_a], name_b, curves[name_b], 1e-9)

    if args.outer:
        with _stage("outer bound sampling"):
            # seed the sample with the covariances behind each inner boundary
            # so touching arcs compare exactly
            matched = [matched_cov_pairs(channel, c) for c in curves.values()]
            extra = (np.concatenate([p[0] for p in matched]),
                     np.concatenate([p[1] for p in matched]))
            ku, kv = sample_cov_pairs(channel, num_random=num_random,
                                      seed=seed, extra_pairs=extra)
            families = constituent_curves(channel, ku, kv)
            outer = outer_region(channel, seed=seed, curves=families,
                                 time_sharing=args.time_sharing)
        _write_csv(out / "outer.csv", ("R1", "R2"), [tuple(p) for p in outer.points])
        for name in OUTER_FAMILIES:
            _write_csv(out / f"outer_{name}.csv", ("R1", "R2"),
                       [tuple(p) for p in families[name].points])
        inner_curves = {k: (c.hull() if args.time_sharing else c)
                        for k, c in curves.items()}
        all_inside = all(
            _report_containment("outer", outer, kind, inner_curves[kind], 1e-6)
            for kind in REGION_KINDS)
        if not all_inside:
            raise NumericFailure("outer bound containment check",
                                 "an inner boundary point exceeded the sampled"
                                 " outer bound beyond tolerance")
    return EXIT_OK


# --------------------------------------------------------------------------
# fme

def _classify_row(iq):
    if not iq.lhs:
        return "feasibility"  # rate-free residual condition on the atoms
    if len(iq.lhs) == 1 and not iq.rhs.coeffs and iq.rhs.const == 0:
        coeff = next(iter(iq.lhs.values()))
        if coeff < 0:
            return "domain"  # nonnegativity, implied by the region convention
    return "rate"


def cmd_fme(args):
    if args.system is not None and not args.defaults:
        path = Path(args.system)
        if not path.exists():
            raise ValueError(f"region file {path} does not exist")
    else:
        path = BUNDLED_FME_EXAMPLE
        print(f"using bundled example system {path.name}")
    system = RegionSystem.load(path)
    print(f"loaded {len(system.ineqs)} inequalities over "
          f"rate variables {', '.join(system.rate_vars)}")

    if args.eliminate is not None:
        eliminate = [v for part in args.eliminate for v in part.split(",") if v]
    elif args.system is None or args.defaults:
        eliminate = [v for v in DEFAULT_ELIMINATE if v in system.rate_vars]
    else:
        eliminate = []

    target = Path(args.out) / "fme_projected.json"
    seed = _seed_value(args, {})

    if not eliminate:
        system.save(_writable(target))
        print("no variables to eliminate; system written unchanged")
        print(f"inequalities: {len(system.ineqs)} before, {len(system.ineqs)} after")
        print(f"wrote {target}")
        return EXIT_OK

    try:
        projected = fme_eliminate_all(system, eliminate)
    except KeyError as exc:
        raise ValueError(str(exc.args[0]))
    n_raw = len(projected.ineqs)
    print(f"eliminated {', '.join(eliminate)}: "
          f"{len(system.ineqs)} -> {n_raw} inequalities")

    if not projected.rate_vars:
        conditions = [iq for iq in projected.ineqs if _classify_row(iq) == "feasibility"]
        projected.save(_writable(target))
        print("all rate variables eliminated; feasibility is a constant of the"
              f" atom valuation ({len(conditions)} residual conditions)")
        for iq in conditions:
            print(f"  {iq}")
        print(f"wrote {target}")
        return EXIT_OK

    kinds = [_classify_row(iq) for iq in projected.ineqs]
    rate_rows = [iq for iq, k in zip(projected.ineqs, kinds) if k == "rate"]
    n_domain = kinds.count("domain")
    n_feas = kinds.count("feasibility")
    core = RegionSystem(list(projected.rate_vars), rate_rows)

    if len(core.rate_vars) <= 3:
        atoms = sorted(core.atoms())
        rng = np.random.default_rng(seed)
        valuations = ([sample_valuation(atoms, rng)
                       for _ in range(PRUNE_VALUATIONS)] if atoms else [{}])
        with _stage("redundancy pruning"):
            pruned, _ = prune_redundant(core, valuations)
    else:
        pruned = core
        print(f"redundancy pruning skipped: {len(core.rate_vars)} rate variables"
              " exceed the numeric vertex limit (3)")

    dropped = []
    if n_domain:
        dropped.append(f"{n_domain} nonnegativity rows (implied by the rate domain)")
    if n_feas:
        dropped.append(f"{n_feas} rate-free residual conditions")
    if dropped:
        print("dropped " + " and ".join(dropped))
    print(f"inequalities: {len(system.ineqs)} before elimination, {n_raw} after,"
          f" {len(pruned.ineqs)} after pruning")
    for iq in pruned.ineqs:
        print(f"  {iq}")
    pruned.save(_writable(target))
    print(f"wrote {target}")
    return EXIT_OK


# --------------------------------------------------------------------------
# argument parsing

def _add_common(sub, *, params=True, seed=False, budget=False):
    sub.add_argument("--out", default=".", help="output directory (default: .)")
    if params:
        sub.add_argument("--params", metavar="FILE",
                         help="JSON parameter file overriding the defaults")
        sub.add_argument("--defaults", action="store_true",
                         help="ignore --params and use the built-in defaults")
    if seed:
        sub.add_argument("--seed", type=int, metavar="U64",
                         help=f"RNG seed (default {DEFAULT_SEED})")
    if budget:
        sub.add_argument("--budget", type=int, metavar="N",
                         help="search restarts per optimization")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="compound-bc",
        description="Rate regions, robust dirty paper boundaries, and outer "
                    "bounds for two-user compound broadcast channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "becbsc-regions",
        help="capacity, interference-decoding, and lower-bound curves over "
             "an input-skew grid")
    _add_common(p)
    p.add_argument("--alpha-steps", type=int, metavar="N",
                   help=f"points on the alpha grid (default {DEFAULT_ALPHA_STEPS})")
    p.set_defaults(func=cmd_becbsc_regions)

    p = sub.add_parser(
        "becbsc-da",
        help="normalized budget-gap curve d_a and the supporting-line study")
    _add_common(p, seed=True, budget=True)
    p.set_defaults(func=cmd_becbsc_da)

    p = sub.add_parser(
        "miso",
        help="robust dirty paper boundaries, optional hulls and outer bound")
    _add_common(p, seed=True)
    p.add_argument("--snr-db", type=float, metavar="X",
                   help="transmit SNR in dB (overrides the configured power)")
    p.add_argument("--time-sharing", action="store_true",
                   help="also write convex hull boundaries")
    p.add_argument("--outer", action="store_true",
                   help="sample the outer bound and check containment")
    p.set_defaults(func=cmd_miso)

    p = sub.add_parser(
        "fme",
        help="project rate variables out of a symbolic region system")
    p.add_argument("system", nargs="?",
                   help="RegionSystem JSON file (default: bundled example)")
    p.add_argument("--eliminate", action="append", metavar="VARS",
                   help="comma-separated rate variables to project out")
    p.add_argument("--defaults", action="store_true",
                   help="use the bundled example system and its split pair")
    _add_common(p, params=False, seed=True)
    p.set_defaults(func=cmd_fme)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericFailure as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
