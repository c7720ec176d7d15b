"""Seeded derivative-free maximization utilities.

The main routine is a random-restart hill climb with coordinate-wise adaptive
steps.  Restarts are independent: restart r draws its noise from a Philox
generator keyed by a 64-bit mix of (master seed, r), and the final reduction
over restarts is a pure max, so execution order never matters.  All restarts
are advanced together as one numpy batch for speed.

Equality constraints are handled by a quadratic penalty whose weight ramps up
over stages; candidates are filtered for feasibility (|residual| <= 1e-4 by
default) only at the very end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_M64 = (1 << 64) - 1
# documented default seed: every seeded CLI run and outer-bound sample
# reproduces its output from it
DEFAULT_SEED = 20259
FEAS_TOL = 1e-4
PENALTY_SCHEDULE = (1e2, 1e4, 1e6)


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
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class SearchSpec:
    """Search domain descriptor.

    kind is one of "box", "simplex-softmax", "psd-cholesky".  For "box" the
    iterates are clipped to `bounds` (a (dim, 2) array); the other kinds are
    unconstrained real vectors that the objective maps onto its domain.
    """

    dim: int
    kind: str = "box"
    bounds: np.ndarray | None = None
    restarts: int = 20
    iterations: int = 300
    seed: int = 0
    init_scale: float = 3.0
    step0: float = 1.0
    decay: float = 0.95

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restart count must be at least 1")
        if self.kind not in ("box", "simplex-softmax", "psd-cholesky"):
            raise ValueError(f"unknown search kind {self.kind!r}")
        if self.kind == "box" and self.bounds is not None:
            self.bounds = np.asarray(self.bounds, dtype=float).reshape(self.dim, 2)


@dataclass
class SearchResult:
    value: float
    point: np.ndarray
    trace: np.ndarray = field(repr=False)
    residual: float = 0.0


def _initial_points(spec: SearchSpec):
    """Per-restart initial points and the full per-restart noise tensors."""
    boxed = spec.kind == "box" and spec.bounds is not None
    inits = np.empty((spec.restarts, spec.dim))
    noise = np.empty((spec.restarts, spec.iterations))
    for r in range(spec.restarts):
        rng = np.random.Generator(np.random.Philox(key=mix64(spec.seed, r)))
        if boxed:
            lo, hi = spec.bounds[:, 0], spec.bounds[:, 1]
            inits[r] = lo + (hi - lo) * rng.random(spec.dim)
        else:
            inits[r] = rng.normal(0.0, spec.init_scale, size=spec.dim)
        noise[r] = rng.standard_normal(spec.iterations)
    return inits, noise


def maximize(objective, spec: SearchSpec, equality=None,
             penalty_schedule=PENALTY_SCHEDULE, feas_tol=FEAS_TOL) -> SearchResult:
    """Random-restart coordinate-perturbation maximization.

    objective(X) takes an (n, dim) batch and returns (n,) values; equality, if
    given, returns the (n,) constraint residuals to drive to zero.  Returns
    the best feasible point found.  Deterministic for a fixed spec.seed.
    """
    X, noise = _initial_points(spec)
    schedule = list(penalty_schedule) if equality is not None else [0.0]

    def penalized(P, w):
        vals = np.asarray(objective(P), dtype=float)
        if equality is not None and w > 0:
            res = np.asarray(equality(P), dtype=float)
            vals = vals - w * res * res
        return vals

    cur = penalized(X, schedule[0])
    if not np.any(np.isfinite(cur)):
        raise ValueError("objective is non-finite at every restart's initial point")
    cur = np.where(np.isfinite(cur), cur, -np.inf)

    steps = np.full((spec.restarts, spec.dim), spec.step0)
    trace = np.empty(spec.iterations)
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
            if spec.kind == "box" and spec.bounds is not None:
                np.clip(prop[:, c], spec.bounds[c, 0], spec.bounds[c, 1],
                        out=prop[:, c])
            vals = penalized(prop, w)
            vals = np.where(np.isfinite(vals), vals, -np.inf)
            better = vals > cur
            X[better] = prop[better]
            cur = np.where(better, vals, cur)
            steps[~better, c] *= spec.decay
            trace[it] = cur.max()
            it += 1

    final_vals = np.asarray(objective(X), dtype=float)
    final_vals = np.where(np.isfinite(final_vals), final_vals, -np.inf)
    if equality is not None:
        res = np.asarray(equality(X), dtype=float)
        feasible = np.isfinite(res) & (np.abs(res) <= feas_tol)
        if not np.any(feasible):
            raise RuntimeError(
                f"no restart reached constraint tolerance {feas_tol:g} "
                f"(closest residual {np.nanmin(np.abs(res)):.3g})")
        final_vals = np.where(feasible, final_vals, -np.inf)
        best = int(np.argmax(final_vals))
        return SearchResult(float(final_vals[best]), X[best].copy(), trace,
                            float(res[best]))
    best = int(np.argmax(final_vals))
    return SearchResult(float(final_vals[best]), X[best].copy(), trace, 0.0)


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
