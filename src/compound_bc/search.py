"""Seeded derivative-free maximization utilities.

The main routine is a random-restart hill climb with coordinate-wise adaptive
steps.  It runs K independent searches (groups) of R restarts each as one
(K*R, dim) numpy batch in group-major order: rows k*R .. k*R + R - 1 belong to
group k.  The group count is the number of seeds in `SearchSpec.seed`; an
integer seed is one group.  Restart r of the group with seed s draws its
initial point and noise from a Philox generator keyed by mix64(s, r), and each
group's result is a pure max over its own restarts, so a group's result never
depends on which other groups share its batch or on execution order.

Equality constraints are handled by a quadratic penalty whose weight ramps up
over stages (the same stages for every group); candidates are filtered for
feasibility (|residual| <= 1e-4 by default) only at the very end.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

_M64 = (1 << 64) - 1
# documented default seed: every seeded CLI run and outer-bound sample
# reproduces its output from it
DEFAULT_SEED = 20259
FEAS_TOL = 1e-4
PENALTY_SCHEDULE = (1e2, 1e4, 1e6)
# unbounded searches start normal with this scale; every coordinate step
# starts at STEP0 and shrinks by DECAY after each rejected move
INIT_SCALE = 3.0
STEP0 = 1.0
DECAY = 0.95


def mix64(a: int, b: int) -> int:
    """Deterministic 64-bit mix (splitmix64 finalizer) of two integers."""
    x = (int(a) + (int(b) + 1) * 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return (x ^ (x >> 31)) & _M64


def softmax(z, axis=-1):
    z = np.asarray(z, dtype=float)
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    # exp(-|z|) <= 1 never overflows; each branch is the stable form on its side
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass
class SearchSpec:
    """Search domain descriptor.

    With `bounds` (a (dim, 2) array) the iterates start uniform in the box
    and are clipped to it; without, they are unconstrained real vectors that
    start normal with scale INIT_SCALE and the objective maps onto its
    domain.  `seed` is one integer (one search) or a sequence of integers
    (one search per entry); `restarts` and `iterations` are per search.
    """

    dim: int
    bounds: np.ndarray | None = None
    restarts: int = 20
    iterations: int = 300
    seed: int | Sequence[int] = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restart count must be at least 1")
        if len(self.seeds) == 0:
            raise ValueError("seed sequence must hold at least one seed")
        if self.bounds is not None:
            self.bounds = np.asarray(self.bounds, dtype=float).reshape(self.dim, 2)

    @property
    def seeds(self) -> tuple:
        """One seed per group: (seed,) for an integer seed."""
        return (self.seed,) if np.ndim(self.seed) == 0 else tuple(self.seed)


@dataclass
class SearchResult:
    value: float
    point: np.ndarray
    trace: np.ndarray = field(repr=False)
    residual: float = 0.0


def _initial_points(spec: SearchSpec):
    """Initial points and noise tensors of every restart, group-major."""
    rows = len(spec.seeds) * spec.restarts
    inits = np.empty((rows, spec.dim))
    noise = np.empty((rows, spec.iterations))
    row = 0
    for seed in spec.seeds:
        for r in range(spec.restarts):
            rng = np.random.Generator(np.random.Philox(key=mix64(seed, r)))
            if spec.bounds is not None:
                lo, hi = spec.bounds[:, 0], spec.bounds[:, 1]
                inits[row] = lo + (hi - lo) * rng.random(spec.dim)
            else:
                inits[row] = rng.normal(0.0, INIT_SCALE, size=spec.dim)
            noise[row] = rng.standard_normal(spec.iterations)
            row += 1
    return inits, noise


def maximize(objective, spec: SearchSpec, equality=None, feas_tol=FEAS_TOL):
    """Random-restart coordinate-perturbation maximization of K groups.

    objective(X) takes the (K*R, dim) group-major batch and returns (K*R,)
    values; equality, if given, returns the (K*R,) constraint residuals to
    drive to zero.  Per-group parameters reach the callbacks as arrays
    repeated once per restart (np.repeat(values, R)).  Every equality(P)
    call comes right after an objective(P) call on the same, unmodified
    array object, so the pair may share one evaluation.  Returns each
    group's best feasible point: one SearchResult for an integer
    spec.seed, a list of K for a sequence.  Deterministic for fixed seeds.
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
    trace = np.empty((groups, spec.iterations))
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
            if spec.bounds is not None:
                np.clip(prop[:, c], spec.bounds[c, 0], spec.bounds[c, 1],
                        out=prop[:, c])
            vals = penalized(prop, w)
            vals = np.where(np.isfinite(vals), vals, -np.inf)
            better = vals > cur
            X[better] = prop[better]
            cur = np.where(better, vals, cur)
            steps[~better, c] *= DECAY
            trace[:, it] = cur.reshape(groups, restarts).max(axis=1)
            it += 1

    final_vals = np.asarray(objective(X), dtype=float)
    final_vals = np.where(np.isfinite(final_vals), final_vals, -np.inf)
    res = np.zeros(groups * restarts)
    if equality is not None:
        res = np.asarray(equality(X), dtype=float)
        feasible = np.isfinite(res) & (np.abs(res) <= feas_tol)
        stuck = np.flatnonzero(~feasible.reshape(groups, restarts).any(axis=1))
        if stuck.size:
            k = stuck[0]
            closest = np.nanmin(np.abs(res[k * restarts:(k + 1) * restarts]))
            raise RuntimeError(
                f"no restart reached constraint tolerance {feas_tol:g} "
                f"(closest residual {closest:.3g})")
        final_vals = np.where(feasible, final_vals, -np.inf)
    best = np.argmax(final_vals.reshape(groups, restarts), axis=1) \
        + restarts * np.arange(groups)
    results = [SearchResult(float(final_vals[i]), X[i].copy(), trace[k],
                            float(res[i]))
               for k, i in enumerate(best)]
    return results[0] if np.ndim(spec.seed) == 0 else results


def isotonic_project(values, decreasing=False):
    """L2 projection onto monotone sequences (pool adjacent violators)."""
    v = np.asarray(values, dtype=float)
    if decreasing:
        return isotonic_project(v[::-1])[::-1]
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
