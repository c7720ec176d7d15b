"""Walk through the discrete compound results at the default parameters.

Prints the incomparability certificate for the two channel pairs, a short
table of region corners across input biases, the corner-dominance margin,
and the budget gap left by a partial decoding weight, the same curve
`compound-bc becbsc-da` writes, at nine rates.  Pass --out DIR to also dump
the tables as CSV.
"""

import argparse
import os

import numpy as np

from compound_bc.becbsc import (
    BecBscParams,
    alpha0_solve,
    c2_corner,
    capacity_c1,
    corner_E_dominance,
    mrs_gerber_lower,
    strict_inclusion_ratio_test,
)
from compound_bc.lines import d_a_curve


def maybe_write(out, name, header, rows):
    if out is None:
        return
    path = os.path.join(out, name)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
    print(f"  wrote {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="directory for CSV dumps")
    args = ap.parse_args()
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    params = BecBscParams()
    print(f"channel parameters: p={params.p} p1={params.p1} e2={params.e2}")

    print("\n1. neither pair's region contains the other's")
    lhs, rhs, ordered = strict_inclusion_ratio_test(params)
    print(f"   degraded-pair reach ratio  {lhs:.6f}  (must be <= 1)")
    print(f"   capable-pair reach ratio   {rhs:.6f}  (must be >= 1)")
    print(f"   incomparable: {ordered}")

    print("\n2. corner rates of the two capacity regions by input bias")
    print(f"   {'alpha':>7} {'C1 R1':>8} {'C1 R2':>8} "
          f"{'C2 R1':>8} {'C2 R2':>8} {'lower R1':>9} {'lower R2':>9}")
    alphas = np.array([0.05, 0.15, 0.25, 0.35, 0.45])
    low2, low1 = mrs_gerber_lower(params, alphas)
    rows = np.column_stack([alphas, *capacity_c1(params, alphas),
                            *c2_corner(params, alphas), low1, low2]).tolist()
    for alpha, c1_r1, c1_r2, r1, r2, low1, low2 in rows:
        print(f"   {alpha:7.2f} {c1_r1:8.4f} {c1_r2:8.4f} "
              f"{r1:8.4f} {r2:8.4f} {low1:9.4f} {low2:9.4f}")
    maybe_write(args.out, "corners.csv",
                ["alpha", "c1_r1", "c1_r2", "c2_r1", "c2_r2",
                 "low_r1", "low_r2"], rows)

    print("\n3. the interference-decoding union collapses onto C1")
    margin = corner_E_dominance(params, np.linspace(0.0, 0.5, 1000))
    print(f"   min corner margin over 1000 slices: {margin:.3e} (>= 0 means"
          " no slice corner escapes the fixed corner)")

    print("\n4. budget gap at decoding weight a = 0.92")
    alpha0 = alpha0_solve(params)
    r1_max = capacity_c1(params, alpha0)[0]
    rates = np.linspace(0.1, 0.9, 9) * r1_max
    gaps = d_a_curve(0.92, params, rates)
    for r, g in zip(rates, gaps):
        print(f"   R1 = {r:.4f}   d = {g:+.4f}")
    print(f"   min gap {gaps.min():.4f}; `compound-bc becbsc-da` writes the"
          " curve at 25 rates")
    maybe_write(args.out, "budget_gap.csv", ["R1", "d"],
                list(zip(rates, gaps)))


if __name__ == "__main__":
    main()
