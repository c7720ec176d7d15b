"""Walk through the two-antenna Gaussian broadcast bounds.

Prints the closed-form corner rates of the common-description scheme, the
strict improvement from correlated private descriptions, the containment of
all three inner bounds in the sampled outer bound, and the high-power growth
slopes.  Pass --out DIR to also dump the boundary curves as CSV.
"""

import argparse
import os

import numpy as np

from compound_bc.miso import (
    CORRELATION_BREAKPOINT,
    DpcScheme,
    cd_closed_form,
    md_correlated_optimal,
    region_boundary,
    special_beams,
    special_geometry,
    strictness_uncorrelated_check,
)
from compound_bc.outer import (
    constituent_curves,
    dof_slopes,
    matched_cov_pairs,
    outer_region,
    sample_cov_pairs,
)
from compound_bc.search import DEFAULT_SEED

GRIDS = dict(eta_steps=81, split_steps=51, x_steps=31)


def maybe_write(out, name, curve):
    if out is None:
        return
    path = os.path.join(out, name)
    with open(path, "w") as fh:
        fh.write("R1,R2\n")
        for r1, r2 in curve.points:
            fh.write(f"{r1:.12g},{r2:.12g}\n")
    print(f"  wrote {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="directory for CSV dumps")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--snr-db", type=float, default=10.0)
    args = ap.parse_args()
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    power = 10.0 ** (args.snr_db / 10.0)
    channel = special_geometry(2.0, power, 1.0)
    print(f"symmetric geometry, P = {power:g}, N = 1"
          f" ({args.snr_db:g} dB)")

    print("\n1. common-description corners as the beams rotate apart")
    print(f"   {'eta':>6} {'R1':>8} {'R2':>8}")
    for eta in (-1.0, -0.5, 0.0, 0.5, 1.0):
        pt = cd_closed_form(eta, 6.0, 4.0, 1.0)
        print(f"   {eta:6.2f} {pt.r1:8.4f} {pt.r2:8.4f}")

    print("\n2. correlated private descriptions beat the common scheme")
    eta = -0.5
    b_u, b_v = special_beams(eta)
    closed = cd_closed_form(eta, 6.0, 4.0, 1.0)
    print(f"   eta = {eta}, R2 pinned at {closed.r2:.4f}")
    for x in (1e-3, CORRELATION_BREAKPOINT / 2, CORRELATION_BREAKPOINT):
        point, _, _ = md_correlated_optimal(
            channel, DpcScheme(b_u, b_v, 6.0, 4.0, x=float(x)))
        print(f"   slice x = {x:8.5f}: R1 {closed.r1:.6f} ->"
              f" {point.r1:.6f}  (+{point.r1 - closed.r1:.2e})")
    rep = strictness_uncorrelated_check(6.0, 4.0, 1.0, eta, x_steps=801)
    print(f"   uncorrelated sweep: condition {rep.condition_holds},"
          f" best gain {rep.best_gain:.2e} at x = {rep.best_x:.4f}")

    print("\n3. all three inner bounds inside the sampled outer bound")
    inners = {kind: region_boundary(kind, channel, **GRIDS)
              for kind in ("cd", "md-uncorr", "md-corr")}
    pairs = [matched_cov_pairs(c) for c in inners.values()]
    extra = (np.concatenate([p[0] for p in pairs]),
             np.concatenate([p[1] for p in pairs]))
    outer = outer_region(constituent_curves(channel, *sample_cov_pairs(
        channel, seed=args.seed, extra_pairs=extra)))
    for kind, curve in inners.items():
        viol = float(np.max(outer.violation(curve.points)))
        print(f"   {kind:10s} max R1 {curve.r1_max:.4f},"
              f" worst violation {viol:.3g}")
        maybe_write(args.out, kind.replace("-", "_") + ".csv", curve)
    maybe_write(args.out, "outer.csv", outer)

    print("\n4. high-power slopes of the outer bound")
    snrs = (20.0, 30.0, 40.0)
    channels = [special_geometry(2.0, 10.0 ** (s / 10.0), 1.0) for s in snrs]
    curves = [outer_region(constituent_curves(ch, *sample_cov_pairs(
        ch, num_random=4000, seed=args.seed))) for ch in channels]
    est = dof_slopes(snrs, curves)
    print(f"   d1 = {est.d1:.3f}, d2 = {est.d2:.3f},"
          f" sum slope = {est.sum_slope:.3f},"
          f" weighted slope = {est.weighted_slope:.3f}")
    print("   one unit per user, with the weighted functional near 2")


if __name__ == "__main__":
    main()
