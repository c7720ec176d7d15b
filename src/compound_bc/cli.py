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
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .becbsc import (
    DEFAULT_PARAMS,
    BecBscParams,
    c2_corner,
    capacity_c1,
    id_curve,
    mrs_gerber_lower,
)
from .idregions import split_rate_example_system
from .info import binary_entropy
from .lines import d_a_curve, sample_t_a, t0_closed, t1_closed
from .miso import (
    REGION_KINDS,
    MisoChannel,
    region_boundary,
    special_geometry,
)
from .outer import (
    NUM_RANDOM,
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
    sample_valuations,
)
from .search import DEFAULT_SEED

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

PRUNE_VALUATIONS = 100
DEFAULT_ELIMINATE = ("S01", "S02")

# meta keys of boundary points, in column order; absent keys are skipped
MISO_PARAM_COLUMNS = ("eta", "theta_u", "theta_v", "p_u", "p_v", "order",
                      "x", "t", "alpha", "sum_constraint_active")


class Setting:
    """One entry of a subcommand's settings table; key=False marks a setting
    that only a flag sets, not a --params key."""

    def __init__(self, kind, default=None, low=None, high=None, key=True):
        self.kind, self.default, self.low, self.high = kind, default, low, high
        self.key = key


# One table per subcommand, its --params keys in README's order.  kind is
# float, int, or a tuple of those for a list of that length.  A count may
# equal its lower bound, a real must exceed it, and neither may exceed its
# upper bound.  Unset miso settings take these defaults: P is 10 N (10 dB),
# h1, h2 and g give special_geometry(2), and region_boundary picks and
# checks the grid counts.
BECBSC = {"p": Setting(float, DEFAULT_PARAMS[0]),
          "p1": Setting(float, DEFAULT_PARAMS[1]),
          "e2": Setting(float, DEFAULT_PARAMS[2])}
SETTINGS = {
    "becbsc-regions": dict(BECBSC, alpha_steps=Setting(int, 201, 2, key=False)),
    "becbsc-da": dict(BECBSC, a=Setting(float, 0.92, 0.0, 1.0),
                      rate_points=Setting(int, 25, 2),
                      x_points=Setting(int, 21, 2)),
    "miso": {"N": Setting(float, 1.0), "P": Setting(float),
             "h1": Setting((float, float)), "h2": Setting((float, float)),
             "g": Setting((float, float)),
             "seed": Setting(int, DEFAULT_SEED, 0, 2 ** 64 - 1),
             "eta_steps": Setting(int), "split_steps": Setting(int),
             "x_steps": Setting(int), "beam_steps": Setting((int, int)),
             "num_random": Setting(int, NUM_RANDOM, 0)},
    "fme": {"seed": Setting(int, DEFAULT_SEED, 0, 2 ** 64 - 1, key=False)},
}


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
    if isinstance(value, float):
        return f"{value + 0.0:.12g}"  # + 0.0 turns -0.0 into 0.0
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    return f"{float(value) + 0.0:.12g}"


def _writable(path):
    # the output directory appears with the first file, so a run that
    # fails before writing leaves nothing behind
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    _writable(path).write_text("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(rows)} rows)")


def _check_out(out):
    # the nearest existing path at or above --out must be a directory, or
    # the first write would fail after every stage has run
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ValueError(f"output directory {out} cannot be created:"
                                 f" {path} is not a directory")
            return


def _read_object(path, what):
    """The JSON object held in file `path`; `what` names the file in errors."""
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path} is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    return obj


def param_keys(table):
    """The keys a --params file may set, in table order."""
    return [name for name, setting in table.items() if setting.key]


def _typed(name, kind, value):
    """value as `kind`: a JSON number, not a string or a boolean, and for
    an int no fraction, infinity or NaN, which int() would drop or fail on."""
    if isinstance(kind, tuple):
        if not (isinstance(value, list) and len(value) == len(kind)):
            raise ValueError(f"parameter {name!r} must be a list of"
                             f" {len(kind)} numbers, got {value!r}")
        return tuple(_typed(name, k, v) for k, v in zip(kind, value))
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or kind is int and value != int(value):
            raise ValueError
        return kind(value)
    except (ValueError, OverflowError):
        raise ValueError(f"parameter {name!r} must be {kind.__name__},"
                         f" got {value!r}") from None


def _resolve(args):
    """Every setting of the subcommand's table, from its flag, else its
    --params key, else its default, checked before any stage runs."""
    table = SETTINGS[args.command]
    given = {}
    if getattr(args, "params", None) is not None:
        given = _read_object(args.params, "parameter file")
        keys = param_keys(table)
        # a misspelled setting must not fall back to its default unnoticed
        unknown = [key for key in given if key not in keys]
        if unknown:
            raise ValueError(f"parameter file {args.params} has unknown key(s) "
                             f"{', '.join(map(repr, unknown))}; expected "
                             f"{', '.join(keys)}")
    settings = {}
    for name, setting in table.items():
        value = getattr(args, name, None)
        if value is None and name not in given:
            settings[name] = setting.default
            continue
        kind, low, high = setting.kind, setting.low, setting.high
        value = _typed(name, kind, given[name] if value is None else value)
        above = low is None or value > low or value == low and kind is int
        if not above or high is not None and value > high:
            bound = f"{'above' if kind is float else 'at least'} {low}"
            if high is not None:
                bound += f" and at most {high}"
            raise ValueError(f"parameter {name!r} must be {bound}, got {value!r}")
        settings[name] = value
    return settings


# --------------------------------------------------------------------------
# becbsc-regions

def cmd_becbsc_regions(args, cfg):
    params = BecBscParams(cfg["p"], cfg["p1"], cfg["e2"])
    alphas = np.linspace(0.0, 0.5, cfg["alpha_steps"])

    with _stage("becbsc boundary evaluation"):
        c, cs = id_curve(params, alphas)
        curves = {"c1": capacity_c1(params, alphas),
                  "c2": c2_corner(params, alphas), "id": (c, cs - c),
                  "mrs_gerber": mrs_gerber_lower(params, alphas)[::-1]}

    for name, curve in curves.items():
        _write_csv(Path(args.out, f"{name}.csv"), ("alpha", "R1", "R2"),
                   list(zip(alphas, *np.maximum(curve, 0.0))))
    return EXIT_OK


# --------------------------------------------------------------------------
# becbsc-da

def cmd_becbsc_da(args, cfg):
    params = BecBscParams(cfg["p"], cfg["p1"], cfg["e2"])
    a = cfg["a"]
    out = Path(args.out)

    with _stage("budget-gap curve"):
        r1_max = capacity_c1(params, params.alpha0)[0]  # d_a_curve reuses it
        rates = np.linspace(0.05, 0.95, cfg["rate_points"]) * r1_max
        gaps = d_a_curve(a, params, rates)

    with _stage("supporting-line study"):
        x_max = 1.0 - binary_entropy(params.p)
        xs = np.linspace(0.0, x_max, cfg["x_points"])
        t_a = sample_t_a(a, params, xs)
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

def _miso_channel(snr_db, cfg):
    noise = cfg["N"]
    if snr_db is not None:
        try:
            power = noise * 10.0 ** (snr_db / 10.0)
        except OverflowError:
            power = math.inf
        # a bad N is reported by MisoChannel under its own name
        if 0 < noise < math.inf and not 0 < power < math.inf:
            raise ValueError("--snr-db must give a positive, finite total"
                             f" power P = N 10^(X/10), got X = {snr_db!r}")
    else:
        power = noise * 10.0 if cfg["P"] is None else cfg["P"]
    rows = [cfg["h1"], cfg["h2"], cfg["g"]]
    if rows.count(None) == 3:
        return special_geometry(2.0, power, noise)
    if None in rows:
        raise ValueError("channel config needs all of h1, h2, g")
    return MisoChannel(*rows, power, noise)


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


def cmd_miso(args, cfg):
    channel = _miso_channel(args.snr_db, cfg)
    grid = {key: cfg[key] for key in ("eta_steps", "split_steps", "x_steps",
                                      "beam_steps") if cfg[key] is not None}
    out = Path(args.out)
    print(f"channel: h1={channel.h1.tolist()} h2={channel.h2.tolist()} "
          f"g={channel.g.tolist()} P={_fmt(channel.P)} N={_fmt(channel.N)}")

    curves, hulls = {}, {}
    for kind in REGION_KINDS:
        with _stage(f"{kind} boundary sweep"):
            curves[kind] = region_boundary(kind, channel, **grid)
        if args.time_sharing:
            hulls[kind] = curves[kind].hull()

    # achievability ordering between the three schemes
    for name_a, name_b in (("md-uncorr", "cd"), ("md-corr", "cd"),
                           ("md-corr", "md-uncorr"), ("md-uncorr", "md-corr")):
        _report_containment(name_a, curves[name_a], name_b, curves[name_b], 1e-9)

    if args.outer:
        with _stage("outer bound sampling"):
            # seed the sample with the covariances behind each inner boundary
            # so touching arcs compare exactly
            matched = [matched_cov_pairs(c) for c in curves.values()]
            extra = (np.concatenate([p[0] for p in matched]),
                     np.concatenate([p[1] for p in matched]))
            ku, kv = sample_cov_pairs(channel, num_random=cfg["num_random"],
                                      seed=cfg["seed"], extra_pairs=extra)
            families = constituent_curves(channel, ku, kv)
            outer = outer_region(families)
            if args.time_sharing:
                outer = outer.hull()
        inner_curves = hulls if args.time_sharing else curves
        all_inside = all(
            _report_containment("outer", outer, kind, inner_curves[kind], 1e-6)
            for kind in REGION_KINDS)
        if not all_inside:
            raise NumericFailure("outer bound containment check",
                                 "an inner boundary point exceeded the sampled"
                                 " outer bound beyond tolerance")

    # every sweep and check has passed before any file is written, so a
    # failing run leaves no partial output set
    for kind in REGION_KINDS:
        _write_csv(out / f"{_file_stem(kind)}.csv", *_curve_rows(curves[kind]))
        if args.time_sharing:
            _write_csv(out / f"{_file_stem(kind)}_hull.csv",
                       *_curve_rows(hulls[kind]))
    if args.outer:
        _write_csv(out / "outer.csv", ("R1", "R2"), [tuple(p) for p in outer.points])
        for name in OUTER_FAMILIES:
            _write_csv(out / f"outer_{name}.csv", ("R1", "R2"),
                       [tuple(p) for p in families[name].points])
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


def cmd_fme(args, cfg):
    if args.system is None:
        print("using the built-in example system split_rate_example_system()")
        system = split_rate_example_system()
    else:
        system = RegionSystem.from_json(_read_object(args.system, "region file"))
    print(f"loaded {len(system.ineqs)} inequalities over "
          f"rate variables {', '.join(system.rate_vars)}")

    if args.eliminate is not None:
        eliminate = [v for part in args.eliminate for v in part.split(",") if v]
    elif args.system is None:
        eliminate = list(DEFAULT_ELIMINATE)
    else:
        eliminate = []

    target = Path(args.out) / "fme_projected.json"

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
        rng = np.random.default_rng(cfg["seed"])
        valuations = (sample_valuations(atoms, rng, PRUNE_VALUATIONS)
                      if atoms else [{}])
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

def _subcommand(sub, name, func, summary):
    table = SETTINGS[name]
    p = sub.add_parser(name, help=summary)
    p.add_argument("--out", default=".", help="output directory (default: .)")
    if param_keys(table):
        p.add_argument("--params", metavar="FILE",
                       help="JSON parameter file overriding the defaults")
    if "seed" in table:
        p.add_argument("--seed", type=int, metavar="U64",
                       help=f"RNG seed (default {table['seed'].default})")
    p.set_defaults(func=func)
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="compound-bc",
        description="Rate regions, robust dirty paper boundaries, and outer "
                    "bounds for two-user compound broadcast channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(
        sub, "becbsc-regions", cmd_becbsc_regions,
        "capacity, interference-decoding, and lower-bound curves over an "
        "input-skew grid")
    steps = SETTINGS["becbsc-regions"]["alpha_steps"].default
    p.add_argument("--alpha-steps", type=int, metavar="N",
                   help=f"points on the alpha grid (default {steps})")

    _subcommand(sub, "becbsc-da", cmd_becbsc_da,
                "normalized budget-gap curve d_a and the supporting-line study")

    p = _subcommand(
        sub, "miso", cmd_miso,
        "robust dirty paper boundaries, optional hulls and outer bound")
    p.add_argument("--snr-db", type=float, metavar="X",
                   help="transmit SNR in dB (overrides the configured power)")
    p.add_argument("--time-sharing", action="store_true",
                   help="also write convex hull boundaries")
    p.add_argument("--outer", action="store_true",
                   help="sample the outer bound and check containment")

    p = _subcommand(sub, "fme", cmd_fme,
                    "project rate variables out of a symbolic region system")
    p.add_argument("system", nargs="?",
                   help="RegionSystem JSON file (default: the built-in"
                        " split-rate example)")
    p.add_argument("--eliminate", action="append", metavar="VARS",
                   help="comma-separated rate variables to project out")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        settings = _resolve(args)
        _check_out(Path(args.out))
        return args.func(args, settings)
    except NumericFailure as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
