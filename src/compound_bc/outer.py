"""Capacity outer bounds for the two-antenna compound broadcast channel.

Four constituent regions are intersected.  For each candidate row h_j the
pair of outputs (Y_j, Z) forms an ordinary two-user Gaussian broadcast
channel whose capacity region ``c1`` / ``c2`` is a union, over Gaussian input
covariance pairs, of two corner rectangles.  Two enhanced channels tighten
the compound part: ``c12`` hands the second user the stacked output
[Z Y1 Y2], and ``cz`` hands each candidate first-user receiver the stacked
output [Y_j Z].  Every region is a union over covariance pairs (K_u, K_v)
with trace(K_u + K_v) <= P; the union is approximated from inside by
sampling covariance pairs, so the reported region is itself contained in the
true outer bound and any containment it certifies is genuine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyhedra import RateCurve2D
from .search import DEFAULT_SEED

LN2 = math.log(2.0)

OUTER_FAMILIES = ("c1", "c2", "c12", "cz")

# R1 grid points of the intersected outer boundary
GRID_POINTS = 401
# random covariance pairs drawn on top of the beacon pairs
NUM_RANDOM = 10000


def _split_fractions():
    """Power-split fractions for covariance sampling, geometric throughout.

    Consecutive fractions stay within about fifteen percent of each other
    from either end, so a frontier traced by a trace sweep moves in steps
    small enough for the containment checks; the mirrored copy covers the
    corner where the other user's trace vanishes.  The uniform percentile
    anchors match the power splits the inner-bound sweeps use, which
    matters where an inner boundary touches a constituent region exactly.
    """
    coarse = np.linspace(0.0, 1.0, 201)
    up = np.geomspace(1e-7, 1.0, 112)
    return np.unique(np.concatenate([coarse, up, 1.0 - up]))


def _beacon_directions(channel):
    g = channel.g
    gperp = np.array([-g[1], g[0]])
    mean = channel.h1 + channel.h2
    if np.linalg.norm(mean) <= 1e-12 * (np.linalg.norm(channel.h1)
                                        + np.linalg.norm(channel.h2)):
        mean = gperp
    dirs = [channel.h1, channel.h2, g, gperp, mean]
    return [d / np.linalg.norm(d) for d in dirs]


def beacon_cov_pairs(channel):
    """Deterministic covariance pairs hitting the known corner choices.

    Trace-one bases (rank-1 along h1, h2, g, g-perp and the mean row, plus
    the isotropic matrix) are crossed with the power-split grid, so the
    single-user and interference-free corners are always in the sample and
    the approach into each axis corner is traced finely.
    """
    bases = [np.outer(d, d) for d in _beacon_directions(channel)]
    bases.append(0.5 * np.eye(2))
    splits = channel.P * _split_fractions()
    ku, kv = [], []
    for s in splits:
        for base_u in bases:
            for base_v in bases:
                ku.append(s * base_u)
                kv.append((channel.P - s) * base_v)
    return np.array(ku), np.array(kv)


def random_cov_pairs(channel, num, seed=DEFAULT_SEED):
    """Seeded Cholesky draws, trace-normalized onto the power split grid."""
    rng = np.random.default_rng(seed)
    entries = rng.uniform(-1.0, 1.0, size=(num, 6))
    low = np.zeros((num, 2, 2, 2))
    low[:, 0, 0, 0] = entries[:, 0]
    low[:, 0, 1, 0] = entries[:, 1]
    low[:, 0, 1, 1] = entries[:, 2]
    low[:, 1, 0, 0] = entries[:, 3]
    low[:, 1, 1, 0] = entries[:, 4]
    low[:, 1, 1, 1] = entries[:, 5]
    raw = np.einsum("nsij,nskj->nsik", low, low)
    trace = np.maximum(np.einsum("nsij,nsij->ns", low, low), 1e-300)
    splits = channel.P * _split_fractions()
    target = np.empty((num, 2))
    target[:, 0] = splits[np.arange(num) % len(splits)]
    target[:, 1] = channel.P - target[:, 0]
    scaled = raw * (target / trace)[:, :, None, None]
    return scaled[:, 0], scaled[:, 1]


def sample_cov_pairs(channel, num_random=NUM_RANDOM, seed=DEFAULT_SEED,
                     extra_pairs=None):
    """Beacon pairs followed by random draws; every pair spends trace P.

    extra_pairs, when given as a (K_u stack, K_v stack) tuple, is appended
    verbatim; see matched_cov_pairs for the intended use.
    """
    beacon_u, beacon_v = beacon_cov_pairs(channel)
    rand_u, rand_v = random_cov_pairs(channel, num_random, seed)
    stacks_u = [beacon_u, rand_u]
    stacks_v = [beacon_v, rand_v]
    if extra_pairs is not None:
        extra_u, extra_v = extra_pairs
        stacks_u.append(np.asarray(extra_u, dtype=float).reshape(-1, 2, 2))
        stacks_v.append(np.asarray(extra_v, dtype=float).reshape(-1, 2, 2))
    return np.concatenate(stacks_u), np.concatenate(stacks_v)


def matched_cov_pairs(curve):
    """Rank-1 covariance pairs of the schemes behind an inner boundary.

    Where an achievable boundary touches a constituent region it does so at
    its own transmit covariances, so folding these pairs into the outer
    sample (via the extra_pairs hook) makes the staircases tight exactly
    there.  The beams are the ones the sweep scored, read from the meta
    rows of `miso.region_boundary`.
    """
    if curve.meta is None:
        raise ValueError("curve carries no scheme meta")
    ku = [row["p_u"] * np.outer(row["b_u"], row["b_u"]) for row in curve.meta]
    kv = [row["p_v"] * np.outer(row["b_v"], row["b_v"]) for row in curve.meta]
    return np.array(ku), np.array(kv)


def _validated_stacks(channel, ku, kv):
    ku = np.asarray(ku, dtype=float).reshape(-1, 2, 2)
    kv = np.asarray(kv, dtype=float).reshape(-1, 2, 2)
    if ku.shape != kv.shape:
        raise ValueError("K_u and K_v stacks must have matching shapes")
    for name, stack in (("K_u", ku), ("K_v", kv)):
        if not np.all(np.isfinite(stack)):
            raise ValueError(f"{name} must be finite")
        scale = np.maximum(np.abs(stack).reshape(len(stack), -1).max(axis=1), 1.0)
        if np.any(np.abs(stack - stack.transpose(0, 2, 1)).reshape(len(stack), -1).max(axis=1)
                  > 1e-9 * scale):
            raise ValueError(f"{name} must be symmetric")
        if np.any(np.linalg.eigvalsh(stack)[:, 0] < -1e-12 * scale):
            raise ValueError(f"{name} must be positive semidefinite")
    # scale down any pair spending more than the budget, never up
    total = np.einsum("nii->n", ku) + np.einsum("nii->n", kv)
    shrink = np.where(total > channel.P, channel.P / np.maximum(total, 1e-300), 1.0)
    return ku * shrink[:, None, None], kv * shrink[:, None, None]


def _family_samples(channel, ku, kv):
    """Rate samples of all four constituent regions, one row per pair."""
    n = channel.N
    g = channel.g

    def quad(vec, stack):
        return np.maximum(np.einsum("i,nij,j->n", vec, stack, vec), 0.0)

    def logdet_rates(stack2k, cov):
        k = stack2k.shape[1]
        m = np.einsum("ia,nij,jb->nab", stack2k, cov, stack2k)
        m = m + n * np.eye(k)
        sign, logdet = np.linalg.slogdet(m)
        if np.any(sign <= 0):
            raise ValueError("augmented output covariance must be positive definite")
        return 0.5 * (logdet / LN2 - k * math.log2(n))

    qu_g = quad(g, ku)
    qv_g = quad(g, kv)
    r2_interfered = 0.5 * np.log2((qu_g + qv_g + n) / (qu_g + n))
    r2_clean = 0.5 * np.log2((qv_g + n) / n)

    out = {}
    r1_swapped = {}
    for j, name in ((1, "c1"), (2, "c2")):
        h = channel.receiver(j)
        qu_h = quad(h, ku)
        qv_h = quad(h, kv)
        r1_a = 0.5 * np.log2((qu_h + n) / n)
        r1_b = 0.5 * np.log2((qu_h + qv_h + n) / (qv_h + n))
        r1_swapped[j] = r1_b
        out[name] = np.concatenate([
            np.column_stack([r1_a, r2_interfered]),
            np.column_stack([r1_b, r2_clean]),
        ])

    # c12: the second user sees the stacked outputs [Z Y1 Y2]
    r1_c12 = np.minimum(r1_swapped[1], r1_swapped[2])
    g12 = np.column_stack([g, channel.h1, channel.h2])
    out["c12"] = np.column_stack([r1_c12, logdet_rates(g12, kv)])

    # cz: each candidate first-user receiver also sees Z, as [Y_j Z]
    r1_cz = np.minimum(logdet_rates(np.column_stack([channel.h1, g]), ku),
                       logdet_rates(np.column_stack([channel.h2, g]), ku))
    out["cz"] = np.column_stack([r1_cz, r2_interfered])
    return {name: np.maximum(pts, 0.0) for name, pts in out.items()}


def constituent_curves(channel, ku, kv):
    """Pareto staircase of each constituent region over the given pairs."""
    ku, kv = _validated_stacks(channel, ku, kv)
    samples = _family_samples(channel, ku, kv)
    return {name: RateCurve2D.from_samples(pts) for name, pts in samples.items()}


def outer_region(curves):
    """Intersection of the constituent staircases on a common R1 grid.

    `curves` maps each family name to its staircase, as
    `constituent_curves` returns them.  Each region is the staircase of its
    sampled rate points, so the result sits inside the true intersection;
    its hull() is the convex (time-shared) closure.
    """
    r1_cap = min(curve.r1_max for curve in curves.values())
    # the pointwise min of staircases only changes value at a constituent
    # breakpoint, so adding those to the grid makes the intersection exact
    breaks = np.concatenate([curve.points[:, 0] for curve in curves.values()])
    grid = np.union1d(np.linspace(0.0, r1_cap, GRID_POINTS),
                      breaks[breaks <= r1_cap])
    r2 = np.min(np.vstack([curve.r2_at(grid) for curve in curves.values()]),
                axis=0)
    return RateCurve2D.from_samples(np.column_stack([grid, r2]))


@dataclass(frozen=True)
class DofEstimate:
    """High-power growth slopes fitted across a family of boundary curves.

    d1 and d2 track the two axis corners; sum_slope and weighted_slope track
    the boundary maxima of R1 + R2 and of 2 R1 + R2.
    """

    d1: float
    d2: float
    sum_slope: float
    weighted_slope: float


def dof_slopes(snr_db, curves):
    """Least-squares slopes of corner rates against 1/2 log2(SNR).

    snr_db lists at least three SNR values spanning at least 20 dB; curves
    holds one boundary (RateCurve2D) per SNR, in the same order.
    """
    snr_db = np.asarray(snr_db, dtype=float)
    curves = list(curves)
    if snr_db.size < 3:
        raise ValueError("need at least 3 SNR points")
    if snr_db.max() - snr_db.min() < 20.0 - 1e-9:
        raise ValueError("SNR points must span at least 20 dB")
    if len(curves) != snr_db.size:
        raise ValueError("need one curve per SNR point")
    x = 0.5 * np.log2(10.0 ** (snr_db / 10.0))
    r1 = np.array([curve.r1_max for curve in curves])
    r2 = np.array([curve.r2_max for curve in curves])
    # linear functionals over the region peak at frontier points
    best_sum = np.array([np.max(curve.points @ np.array([1.0, 1.0]))
                         for curve in curves])
    best_weighted = np.array([np.max(curve.points @ np.array([2.0, 1.0]))
                              for curve in curves])

    def slope(values):
        return float(np.polyfit(x, values, 1)[0])

    return DofEstimate(d1=slope(r1), d2=slope(r2),
                       sum_slope=slope(best_sum),
                       weighted_slope=slope(best_weighted))
