"""Weighted common-layer rate curves and their supporting-line envelopes.

For the two-instance binary compound channel of `becbsc`, fix a private
layer budget x = I(X;Z|Q) and ask for the best weighted common rate

    t_a(x) = max [ a I(Q;Y1) + (1-a) I(Q;Y2) ]  s.t.  I(X;Z|Q) = x,

maximized over auxiliary designs: a pmf on at most 4 values of Q and binary
conditionals X|Q with X uniform.  The curve is concave and non-increasing in
x, so it is also the lower envelope of its affine majorants
x -> F_a(lam) - lam x, where F_a(lam) is the unconstrained Lagrangian max.

`evaluate_supporting_lines` samples F_a on a multiplier grid by search and
`SupportingLineEval` holds the induced envelope, an upper estimate of t_a.
`sample_t_a` searches the budget-constrained problem directly, a lower
estimate, and `t1_closed` / `t0_closed` are exact at the edge weights.

`d_a_curve` compares the a = 1 curve against t_a in inverted coordinates
(rate -> budget).  Where the gap is strictly positive, decoding tuned to the
actual channel instance reaches rates that no single worst-case code does.
It runs no search: every design-objective term is even under b <-> 1-b,
so splitting each Q value into (b, 1-b) keeps the three informations and
makes X uniform, and family 1 of `canonical_designs` attains F_a (C. Nair,
"Upper concave envelopes and auxiliary random variables", 2013).

All searches are deterministic given their seed.  The searches of a
multiplier band or a budget sweep are independent; they run as groups of
batched `search.maximize` calls, at most `_BATCH_ROWS` rows per call, scored
by a `_DesignScores`: it re-scores only the design columns a step moved, with
the unchecked entropy kernel (its arguments lie in [0, 1] by construction).
"""

from dataclasses import dataclass

import numpy as np

from .becbsc import (BecBscParams, _conditional_entropies,
                     _mutual_informations, _weighted_informations,
                     alpha0_solve, capacity_c1)
from .info import _h2, binary_convolve, binary_entropy
from .search import (
    SearchSpec,
    isotonic_project,
    maximize,
    mix64,
    sigmoid,
    softmax,
)

DEFAULT_BUDGET = (2000, 500)
ENVELOPE_BUDGET = (32, 160)
LAMBDA_MAX = 10.0
LAMBDA_STEP = 0.01
THETA_BOUND = 12.0
# dense d_a envelope: multipliers across the active band, padded each side
BAND_POINTS = 2501
BAND_PAD = 0.05
# values per block of the pool reductions (`_reduce_lines`): one reused
# buffer of this size instead of a (queries x pool) outer product
REDUCE_BLOCK = 1 << 16
# rows (groups x restarts) per batched search call; a search wider than this
# runs alone
_BATCH_ROWS = 2048
# weight of the linear pull toward designs whose balancing conditional is a
# genuine probability; dominates any mutual-information gain (all <= 1 + lam)
_PULL = 100.0


def default_lambda_grid():
    """Multiplier grid [0, 10] in steps of 0.01.

    The a = 0 envelope has its kink at lam = (1-e2)/(1-H2(p)), about 1.02
    for the default parameters, so 10 leaves a decade of headroom.
    """
    n = int(round(LAMBDA_MAX / LAMBDA_STEP))
    return np.linspace(0.0, LAMBDA_MAX, n + 1)


class _DesignScores:
    """(I(Q;Y1), I(Q;Y2), I(X;Z|Q), excess) of raw search points (n, 6).

    The first three coordinates are logits for the Q pmf `pq` (fourth logit
    pinned to 0), the last three are Bernoulli logits for X given the first
    three Q values (`bx`).  The fourth conditional is set to balance the X
    marginal to 1/2; `excess` is how far outside [0, 1] that balancing value
    fell before clipping, zero exactly for valid uniform-X designs.

    A call re-derives only what the logit columns that differ elementwise
    from the previous batch's copy feed (NaN always differs; every field is
    even in the sign of a zero logit), plus the balancing conditional, so
    any call sequence is scored exactly.  A `maximize` step moves one
    column: about two of the four conditionals get re-scored.
    """

    def __init__(self, params):
        self.params, self.h_p = params, binary_entropy(params.p)
        self.theta = np.empty((0, 6))

    def __call__(self, theta):
        if self.theta.shape != theta.shape:  # start over: every column moves
            self.theta = np.full_like(theta, np.nan)
            self.bx = np.empty((len(theta), 4))
            self.h = [np.empty_like(self.bx) for _ in range(3)]
        moved = [(theta[:, c] != self.theta[:, c]).any() for c in range(6)]
        np.copyto(self.theta, theta)
        if any(moved[:3]):
            self.pq = softmax(
                np.column_stack([theta[:, :3], np.zeros(len(theta))]), axis=1)
        pq, bx = self.pq, self.bx
        cols = [j for j in range(3) if moved[3 + j]]
        if cols:
            bx[:, cols] = sigmoid(theta[:, [3 + j for j in cols]])
        raw = (0.5 - np.einsum("nq,nq->n", pq[:, :3], bx[:, :3])) / pq[:, 3]
        bx[:, 3] = np.clip(raw, 0.0, 1.0)
        cols.append(3)
        for h, new in zip(self.h, _conditional_entropies(bx[:, cols],
                                                         self.params)):
            h[:, cols] = new
        return (*_weighted_informations(pq, *self.h, self.params, self.h_p),
                np.abs(raw - bx[:, 3]))


def _batched_points(objective, values, search_budget, seeds, equality=None):
    """Argmax points of one seeded search per group value, shape (K, 6).

    objective(theta, v) and equality(theta, v) score a group-major batch
    with `v` the group values repeated once per restart.  Groups run in
    batches of at most `_BATCH_ROWS` rows (at least one group each).
    """
    restarts, iterations = search_budget
    bounds = [(-THETA_BOUND, THETA_BOUND)] * 6
    size = max(1, _BATCH_ROWS // restarts)
    points = np.empty((len(seeds), 6))
    for start in range(0, len(seeds), size):
        v = np.repeat(values[start:start + size], restarts)
        batch_equality = None if equality is None \
            else (lambda theta: equality(theta, v))
        spec = SearchSpec(bounds, restarts, iterations,
                          seeds[start:start + size])
        points[start:start + size] = maximize(
            lambda theta: objective(theta, v), spec, equality=batch_equality)
    return points


def _check_weight(a):
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"weight a must lie in [0, 1], got {a}")


def _check_budget_x(params, x):
    x_max = 1.0 - binary_entropy(params.p)
    arr = np.asarray(x, dtype=float)
    bad = ~((arr >= 0.0) & (arr <= x_max + 1e-12))  # NaN is bad too
    if np.any(bad):
        raise ValueError(
            f"budget x={float(arr[bad][0])} outside [0, {x_max:.6g}]")
    return x_max


def _lagrangian_search(a, lambdas, params, search_budget, seeds):
    """Unconstrained max of the weighted sum plus lam*I(X;Z|Q) per multiplier.

    F_a(lam) = max over unconstrained designs (X uniform, |Q| <= 4) of
    a*I(Q;Y1) + (1-a)*I(Q;Y2) + lam*I(X;Z|Q), so F_a(lam) - lam*x >= t_a(x)
    for every x; convex in lam as a pointwise max of linear functions.  One
    seeded search per multiplier; returns the raw argmax points, shape
    (len(lambdas), 6).
    """
    lambdas = np.asarray(lambdas, dtype=float)
    scores = _DesignScores(params)

    def objective(theta, lam):
        i1, i2, ixz, excess = scores(theta)
        return a * i1 + (1.0 - a) * i2 + lam * ixz - _PULL * excess

    return _batched_points(objective, lambdas, search_budget, seeds)


def _checked_lambdas(lambdas):
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size == 0 or not np.all(lam >= 0):
        raise ValueError(
            "lambda grid must be a nonempty 1-d array of nonnegative values")
    return lam


@dataclass(frozen=True)
class SupportingLineEval:
    """Envelope of affine majorants of a weighted rate curve.

    `f_values[k]` is the Lagrangian max at `lambdas[k]`; each pair defines
    the majorant x -> f - lam*x and `t_values[i]` is the pointwise minimum
    of the majorants at `xs[i]`, computed when read.  Every majorant is
    non-increasing in x, hence so is the envelope.
    """

    a: float
    lambdas: np.ndarray
    f_values: np.ndarray
    xs: np.ndarray

    def __post_init__(self):
        _check_weight(self.a)
        lam = _checked_lambdas(self.lambdas)
        fv = np.asarray(self.f_values, dtype=float)
        if fv.shape != lam.shape:
            raise ValueError("f_values must match the lambda grid in shape")
        xs = np.asarray(self.xs, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "f_values", fv)
        object.__setattr__(self, "xs", xs)

    @property
    def t_values(self):
        return self.envelope(self.xs)

    def envelope(self, x):
        """min over the multiplier grid of f - lam*x, vectorized in x."""
        x = np.asarray(x, dtype=float)
        vals = _reduce_lines(self.f_values, self.lambdas, x.ravel(),
                             np.subtract, np.min)
        return float(vals[0]) if x.ndim == 0 else vals.reshape(x.shape)


def canonical_designs(n=2001):
    """Two exact one-parameter design families as (pq, bx) batches.

    Family 1: Q binary uniform with X|Q a BSC of crossover alpha; sweeps
    the full budget range and contains Q = X at alpha = 0.  Family 2: mass
    2m split evenly on deterministic conditionals plus mass 1-2m on an
    unbiased conditional; the best known designs for the a = 0 curve.
    Both keep the X marginal exactly uniform.  Used to pre-seed envelope
    pools so that majorant intercepts are tight wherever these families
    are optimal.
    """
    alpha = np.linspace(0.0, 0.5, n)
    pq1 = np.tile([0.5, 0.5, 0.0, 0.0], (n, 1))
    bx1 = np.stack([alpha, 1.0 - alpha, np.full(n, 0.5), np.full(n, 0.5)],
                   axis=1)
    m = np.linspace(0.0, 0.5, n)
    pq2 = np.stack([m, m, 1.0 - 2.0 * m, np.zeros(n)], axis=1)
    bx2 = np.tile([0.0, 1.0, 0.5, 0.5], (n, 1))
    return np.vstack([pq1, pq2]), np.vstack([bx1, bx2])


def _reduce_lines(intercepts, slopes, queries, combine, reduce):
    """reduce over the pool of combine(intercepts, slopes * q), per query q.

    The pool of lines lies along the contiguous axis of one buffer of about
    REDUCE_BLOCK values, which every block of query rows reuses: the
    product and then `combine` are written into it, and `reduce` folds each
    row into its slot of the output.  The elementwise expression is a dense
    (queries x pool) outer product's, and max and min are exact, so every
    value is the dense reduction's; a zero result tied between +0 and -0
    lines takes the sign this fold order gives.
    """
    out = np.empty(queries.size)
    rows = max(1, REDUCE_BLOCK // max(1, intercepts.size))
    buf = np.empty((min(rows, queries.size), intercepts.size))
    for start in range(0, queries.size, rows):
        q = queries[start:start + rows, None]
        block = buf[:len(q)]
        np.multiply(q, slopes, out=block)
        combine(intercepts, block, out=block)
        reduce(block, axis=1, out=out[start:start + len(q)])
    return out


def _pool_f_values(lambdas, weighted, budgets):
    """max over the pool of weighted + lam * budget, per multiplier."""
    return _reduce_lines(weighted, budgets, lambdas, np.add, np.max)


def evaluate_supporting_lines(a, params: BecBscParams, lambda_grid,
                              search_budget=ENVELOPE_BUDGET, seed=0,
                              canonical=2001) -> SupportingLineEval:
    """Sample F_a over a multiplier grid and build the induced envelope.

    Multiplier k gets its own search seeded with mix64(seed, k).  The pool
    of every argmax design found anywhere on the grid, plus `canonical`
    exact family members (0 disables them), is re-scored at every
    multiplier; both steps only tighten the sampled maxima toward the true
    F_a.  The envelope is tabulated at 65 budgets across the full range.
    """
    _check_weight(a)
    lambdas = _checked_lambdas(lambda_grid)
    xs = np.linspace(0.0, 1.0 - binary_entropy(params.p), 65)
    seeds = [mix64(seed, k) for k in range(lambdas.size)]
    points = _lagrangian_search(a, lambdas, params, search_budget, seeds)
    i1, i2, ixz, _ = _DesignScores(params)(points)
    if canonical:
        pool = _mutual_informations(*canonical_designs(int(canonical)), params)
        i1, i2, ixz = (np.concatenate(v) for v in zip((i1, i2, ixz), pool))
    weighted = a * i1 + (1.0 - a) * i2
    f_values = _pool_f_values(lambdas, weighted, ixz)
    return SupportingLineEval(float(a), lambdas, f_values, xs)


def _bisect_increasing(f, targets, lo=0.0, hi=0.5, steps=80):
    """Vectorized bisection: p with f(p) = target for an increasing f."""
    t = np.atleast_1d(np.asarray(targets, dtype=float))
    lo = np.full_like(t, lo)
    hi = np.full_like(t, hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = f(mid) < t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def t1_closed(params: BecBscParams, x):
    """Exact a = 1 curve: 1 - H2(p1 * p_x) with H2(p * p_x) - H2(p) = x.

    p_x is found by bisection (the defining left side is strictly
    increasing in p_x on [0, 1/2]), on the unchecked entropy kernel: with p
    and every midpoint in [0, 1/2], so is their convolution.  Vectorized
    in x.
    """
    xs = np.asarray(x, dtype=float)
    _check_budget_x(params, xs)
    h_p = binary_entropy(params.p)
    p_x = _bisect_increasing(lambda m: _h2(binary_convolve(params.p, m)) - h_p,
                             xs)
    out = capacity_c1(params, p_x)[0]
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def t1_inverse(params: BecBscParams, r1):
    """Exact budget at which the a = 1 curve reaches rate r1.

    Inverts 1 - H2(p1 * p_x) = r1 for p_x, then maps to the budget
    x = H2(p * p_x) - H2(p).  The bisection uses the unchecked entropy
    kernel, as in `t1_closed`.  Vectorized in r1.
    """
    rates = np.asarray(r1, dtype=float)
    top = 1.0 - binary_entropy(params.p1)
    if not np.all((rates >= -1e-12) & (rates <= top + 1e-12)):
        raise ValueError(f"rate outside [0, {top:.6g}]")
    # 1 - H2(p1 * p_x) decreases in p_x, so bisect on its negation
    p_x = _bisect_increasing(lambda m: _h2(binary_convolve(params.p1, m)),
                             1.0 - rates)
    out = capacity_c1(params, p_x)[1]
    return float(out[0]) if rates.ndim == 0 else out.reshape(rates.shape)


def t0_closed(params: BecBscParams, x):
    """Exact a = 0 curve: (1 - e2) * (1 - x / (1 - H2(p)))."""
    x_max = _check_budget_x(params, x)
    return (1.0 - params.e2) * (1.0 - x / x_max)


def sample_t_a(a, params: BecBscParams, xs, search_budget=DEFAULT_BUDGET,
               seed=0):
    """Best found a*I(Q;Y1) + (1-a)*I(Q;Y2) with I(X;Z|Q) pinned to each x.

    One random-restart hill climb over the 6 raw design coordinates per
    budget, seeded with mix64(seed, i); the budget equality is driven in by
    a ramped quadratic penalty and final candidates are filtered at
    `search.FEAS_TOL`.  A lower estimate of t_a, deterministic for a fixed
    seed.
    """
    _check_weight(a)
    _check_budget_x(params, xs)
    xs = np.asarray(xs, dtype=float)
    # maximize calls residual(P) right after objective(P) on the same array,
    # so the objective keeps its budgets for that one residual call
    kept = {}
    scores = _DesignScores(params)

    def objective(theta, _):
        i1, i2, ixz, excess = scores(theta)
        kept.update(theta=theta, ixz=ixz, excess=excess)
        return a * i1 + (1.0 - a) * i2 - _PULL * excess

    def residual(theta, x):
        if kept.pop("theta", None) is theta:
            ixz, excess = kept["ixz"], kept["excess"]
        else:
            _, _, ixz, excess = scores(theta)
        # inflated so clipped designs can never pass the feasibility filter
        return np.abs(ixz - x) + 10.0 * excess

    seeds = [mix64(seed, i) for i in range(xs.size)]
    points = _batched_points(objective, xs.ravel(), search_budget, seeds,
                             equality=residual)
    i1, i2, _, _ = _DesignScores(params)(points)
    return (a * i1 + (1.0 - a) * i2).reshape(xs.shape)


def invert_decreasing(xs, t_values, rates):
    """Budget at which a decreasing sampled curve reaches each rate.

    Samples are projected onto decreasing sequences first, so small search
    noise cannot break invertibility; inversion is piecewise linear.
    """
    xs = np.asarray(xs, dtype=float)
    t = isotonic_project(np.asarray(t_values, dtype=float), decreasing=True)
    return np.interp(rates, t[::-1], xs[::-1])


def _envelope_curve(a, params, x_lo, x_hi):
    """Supporting-line upper curve for t_a, resolved on [x_lo, x_hi].

    The canonical pool's envelope on the default coarse grid locates the
    active multiplier band; a dense grid across the padded band, fine
    enough that majorant quantization stays far below the gaps measured,
    takes its intercepts from the same pool, whose family 1 attains F_a.
    """
    coarse = default_lambda_grid()
    i1, i2, ixz = _mutual_informations(*canonical_designs(), params)
    weighted = a * i1 + (1.0 - a) * i2
    f_coarse = _pool_f_values(coarse, weighted, ixz)
    probe = np.linspace(x_lo, x_hi, 65)
    active = np.argmin(f_coarse[:, None] - coarse[:, None] * probe[None, :],
                       axis=0)
    band = np.linspace(max(0.0, coarse[active.min()] - BAND_PAD),
                       coarse[active.max()] + BAND_PAD, BAND_POINTS)
    return SupportingLineEval(float(a), band,
                              _pool_f_values(band, weighted, ixz), probe)


def d_a_curve(a, params: BecBscParams, R1_grid):
    """Normalized budget gap between the a = 1 curve and t_a at rates R1.

    Both curves are inverted to budget coordinates: d(R1) > 0 means the
    a = 1 curve still supports rate R1 at a private budget where the
    weighted curve has already fallen below it.  Since t_a upper-bounds
    the worst-case common rate for every a, strict positivity certifies
    rate points achievable only by decoding tuned to the channel instance.

    The a = 1 side is the closed form, sampled densely.  The t_a side is
    `_envelope_curve`, whose intercepts are the canonical family's maxima
    over a 2001-point alpha grid, the one approximation: seeded 32 x 160
    searches pooled in raised none of them (bitwise at a = 0.3 and 0.92).

    The rate grid must lie strictly inside (0, 1 - H2(p1 * alpha0)) with
    alpha0 the branch-crossing point from `becbsc.alpha0_solve`.
    """
    rates = np.asarray(R1_grid, dtype=float)
    r1_max = capacity_c1(params, alpha0_solve(params))[0]
    if rates.size == 0 or not np.all((rates > 0.0) & (rates < r1_max)):
        raise ValueError(
            f"R1 grid must lie strictly inside (0, {r1_max:.6g})")
    if a == 1.0:
        # the weighted curve is the reference curve itself, gap is exact zero
        return np.zeros_like(rates)
    x_max = 1.0 - binary_entropy(params.p)
    # budget window needed by the inversions, with headroom on both sides
    x_lo = max(0.0, t1_inverse(params, float(rates.max())) - 0.004)
    x_hi = min(x_max, t1_inverse(params, float(rates.min())) + 0.004)
    xs_fine = np.linspace(x_lo, x_hi, 4001)
    ref_inv = invert_decreasing(xs_fine, t1_closed(params, xs_fine), rates)
    env = _envelope_curve(a, params, x_lo, x_hi)
    other_inv = invert_decreasing(xs_fine, env.envelope(xs_fine), rates)
    gap = ref_inv - other_inv
    largest = np.max(np.abs(gap))
    return gap / largest if largest > 0 else gap
