"""Seeded derivative-free maximization utilities.

The main routine is a random-restart hill climb with coordinate-wise adaptive
steps inside a box.  It runs K independent searches (groups) of R restarts
each as one (K*R, dim) numpy batch in group-major order: rows k*R .. k*R +
R - 1 belong to group k, one group per seed in `SearchSpec.seeds`.  Restart r
of the group with seed s draws its initial point and noise from one Philox
bit generator re-keyed to mix64(s, r), a stream equal to a fresh
Philox(key=mix64(s, r)).  Each group's result is a pure max over its own
restarts, so it never depends on which other groups share its batch.

Equality constraints are handled by a quadratic penalty whose weight ramps up
over stages (the same stages for every group); candidates are filtered for
feasibility (|residual| <= FEAS_TOL) only at the very end.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

_M64 = (1 << 64) - 1
# documented default seed: every seeded CLI run and outer-bound sample
# reproduces its output from it
DEFAULT_SEED = 20259
FEAS_TOL = 1e-4
PENALTY_SCHEDULE = (1e2, 1e4, 1e6)
# every coordinate step starts at STEP0 and shrinks by DECAY after each
# rejected move
STEP0 = 1.0
DECAY = 0.95


def mix64(a: int, b: int) -> int:
    """Deterministic 64-bit mix (splitmix64 finalizer) of two integers."""
    x = (int(a) + (int(b) + 1) * 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return (x ^ (x >> 31)) & _M64


def softmax(z, axis=-1):
    # elementwise max and sum across `axis`: bitwise numpy's below length 8
    s = np.moveaxis(np.asarray(z, dtype=float), axis, 0)
    e = np.exp(s - functools.reduce(np.maximum, s))
    return np.moveaxis(e / functools.reduce(np.add, e), 0, axis)


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    # exp(-|z|) <= 1 never overflows; each branch is the stable form on its side
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


@dataclass
class SearchSpec:
    """Search domain descriptor.

    `bounds` is a (dim, 2) box: the iterates start uniform in it and are
    clipped to it.  `seeds` holds one integer per search (group);
    `restarts` and `iterations` are per search.
    """

    bounds: np.ndarray
    restarts: int
    iterations: int
    seeds: Sequence[int]

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restart count must be at least 1")
        if len(self.seeds) == 0:
            raise ValueError("seed sequence must hold at least one seed")
        self.bounds = np.asarray(self.bounds, dtype=float).reshape(-1, 2)

    @property
    def dim(self) -> int:
        return len(self.bounds)


def _initial_points(spec: SearchSpec):
    """Initial points and noise tensors of every restart, group-major."""
    rows = len(spec.seeds) * spec.restarts
    unit = np.empty((rows, spec.dim))
    noise = np.empty((rows, spec.iterations))
    rng = np.random.Generator(np.random.Philox(key=0))
    fresh = rng.bit_generator.state  # counter 0, empty buffer, no uint32
    for row in range(rows):
        k, r = divmod(row, spec.restarts)
        fresh["state"]["key"][0] = mix64(spec.seeds[k], r)
        rng.bit_generator.state = fresh
        rng.random(out=unit[row])
        rng.standard_normal(out=noise[row])
    lo, hi = spec.bounds[:, 0], spec.bounds[:, 1]
    return lo + (hi - lo) * unit, noise


def maximize(objective, spec: SearchSpec, equality=None):
    """Random-restart coordinate-perturbation maximization of K groups.

    objective(X) takes the (K*R, dim) group-major batch and returns (K*R,)
    values; equality, if given, returns the (K*R,) constraint residuals to
    drive to zero.  Per-group parameters reach the callbacks as arrays
    repeated once per restart (np.repeat(values, R)).  Every equality(P)
    call comes right after an objective(P) call on the same, unmodified
    array object, so the pair may share one evaluation.  A proposal moves
    one column of a copy of the accepted batch (the `lines` scorer uses
    that for speed only).  Returns the (K, dim) array of each group's best
    point with |residual| <= FEAS_TOL.  Deterministic for fixed seeds.
    """
    groups, restarts = len(spec.seeds), spec.restarts
    X, noise = _initial_points(spec)
    schedule = list(PENALTY_SCHEDULE) if equality is not None else [0.0]

    def penalized(P, w):
        vals = np.asarray(objective(P), dtype=float)
        if equality is not None and w > 0:
            res = np.asarray(equality(P), dtype=float)
            vals = vals - w * res * res
        return vals

    cur = penalized(X, schedule[0])
    if not np.all(np.isfinite(cur).reshape(groups, restarts).any(axis=1)):
        raise ValueError("objective is non-finite at every restart's initial point")
    cur = np.where(np.isfinite(cur), cur, -np.inf)

    steps = np.full((groups * restarts, spec.dim), STEP0)
    stage_len = -(-spec.iterations // len(schedule))  # ceil division
    it = 0
    for stage, w in enumerate(schedule):
        if stage > 0:
            cur = penalized(X, w)
            cur = np.where(np.isfinite(cur), cur, -np.inf)
        for _ in range(min(stage_len, spec.iterations - it)):
            c = it % spec.dim
            prop = X.copy()
            prop[:, c] += steps[:, c] * noise[:, it]
            np.clip(prop[:, c], spec.bounds[c, 0], spec.bounds[c, 1],
                    out=prop[:, c])
            vals = penalized(prop, w)
            vals = np.where(np.isfinite(vals), vals, -np.inf)
            better = vals > cur
            np.copyto(X[:, c], prop[:, c], where=better)  # only c moved
            np.copyto(cur, vals, where=better)
            steps[:, c] *= np.where(better, 1.0, DECAY)
            it += 1

    final_vals = np.asarray(objective(X), dtype=float)
    final_vals = np.where(np.isfinite(final_vals), final_vals, -np.inf)
    if equality is not None:
        res = np.asarray(equality(X), dtype=float)
        feasible = np.isfinite(res) & (np.abs(res) <= FEAS_TOL)
        stuck = np.flatnonzero(~feasible.reshape(groups, restarts).any(axis=1))
        if stuck.size:
            k = stuck[0]
            closest = np.nanmin(np.abs(res[k * restarts:(k + 1) * restarts]))
            raise RuntimeError(
                f"no restart reached constraint tolerance {FEAS_TOL:g} "
                f"(closest residual {closest:.3g})")
        final_vals = np.where(feasible, final_vals, -np.inf)
    best = np.argmax(final_vals.reshape(groups, restarts), axis=1) \
        + restarts * np.arange(groups)
    return X[best]


def isotonic_project(values, decreasing=False):
    """L2 projection onto monotone sequences (pool adjacent violators)."""
    v = np.asarray(values, dtype=float)
    if decreasing:
        return isotonic_project(v[::-1])[::-1]
    if np.all(v[:-1] <= v[1:]):  # already monotone: every block is one sample
        return v.copy()
    # blocks of (total, count) pooled until the running means are nondecreasing
    totals, counts = [], []
    for x in v:
        totals.append(float(x))
        counts.append(1)
        while len(totals) > 1 and totals[-2] / counts[-2] > totals[-1] / counts[-1]:
            totals[-2] += totals[-1]
            counts[-2] += counts[-1]
            totals.pop()
            counts.pop()
    out = np.empty_like(v)
    i = 0
    for t, c in zip(totals, counts):
        out[i:i + c] = t / c
        i += c
    return out
