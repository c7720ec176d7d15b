"""Weighted common-layer rate curves t_a and their budget gaps.

For the two-instance binary compound channel of `becbsc`, fix a private
layer budget x = I(X;Z|Q) and ask for the best weighted common rate

    t_a(x) = max [ a I(Q;Y1) + (1-a) I(Q;Y2) ]  s.t.  I(X;Z|Q) = x

over designs with X uniform and |Q| <= 4.  A design with mass pq on X|Q =
q ~ Bern(b_q) scores sum_q pq phi(b_q), where phi(b) = (x(b), w(b)) =
(H2(p*b) - H2(p), a (1 - H2(p1*b)) + (1-a)(1-e2)(1 - H2(b))) = phi(1-b),
so t_a is the upper concave hull of phi([0, 1/2]) (Witsenhausen and Wyner
1975; C. Nair, "Upper concave envelopes and auxiliary random variables",
2013): a chord from phi(0) to the point phi(b*) of largest chord slope
(w(b) - w(0)) / x(b), then phi itself.  Mrs. Gerber's Lemma gives b* = 0
at a = 1 and b* = 1/2 at a = 0; in between, the one-chord shape is checked
against dense hulls by a property test, not proven.  `sample_t_a`
evaluates t_a and `d_a_curve` inverts it, both exactly; `t1_closed` and
`t0_closed` are the edge weights' own closed forms.  Where d_a > 0,
decoding tuned to the channel instance reaches rates that no single
worst-case code does.  No command-line path searches.

t_a is concave and non-increasing, so it is the lower envelope of the
majorants x -> F_a(lam) - lam x, F_a the unconstrained Lagrangian max.
Only `evaluate_supporting_lines`, a name the benchmark keeps, searches: it
samples F_a on a multiplier grid into a `SupportingLineEval` envelope, an
upper estimate of t_a, deterministically given its seed.  It runs batched
`search.maximize` calls of at most `_BATCH_ROWS` rows, scored by a
`_DesignScores`: it re-scores only the design columns a step moved, with
the unchecked entropy kernel (its arguments lie in [0, 1] by construction).
"""

from dataclasses import dataclass

import numpy as np

from .becbsc import (BecBscParams, _conditional_entropies,
                     _mutual_informations, _weighted_informations, capacity_c1)
from .info import _h2, binary_convolve, binary_entropy
from .search import (SearchSpec, isotonic_project, maximize, mix64, sigmoid,
                     softmax)

DEFAULT_BUDGET = (2000, 500)
ENVELOPE_BUDGET = (32, 160)
LAMBDA_MAX = 10.0
LAMBDA_STEP = 0.01
THETA_BOUND = 12.0
# points of the alpha grid of `canonical_designs`
ALPHA_POINTS = 2001
# cap on the safeguarded Newton steps of `_invert_convex` (it takes 5-7)
NEWTON_STEPS = 60
# grid points per zoom level of the tangency search in `_tangent_chord`
ZOOM_POINTS = 33
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
    """Multiplier grid [0, 10] in steps of 0.01: a decade above the a = 0
    envelope's kink lam = (1-e2)/(1-H2(p)), about 1.02 at the defaults."""
    return np.linspace(0.0, LAMBDA_MAX,
                       int(round(LAMBDA_MAX / LAMBDA_STEP)) + 1)


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
    """Raw argmax points, shape (len(lambdas), 6), of one seeded search per
    multiplier for F_a(lam) = max a*I(Q;Y1) + (1-a)*I(Q;Y2) + lam*I(X;Z|Q)
    over designs with X uniform and |Q| <= 4: F_a(lam) - lam*x >= t_a(x)
    for every x, and F_a is convex in lam (a max of linear functions)."""
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
        for name, value in (("lambdas", lam), ("f_values", fv),
                            ("xs", np.asarray(self.xs, dtype=float))):
            object.__setattr__(self, name, value)

    @property
    def t_values(self):
        return self.envelope(self.xs)

    def envelope(self, x):
        """min over the multiplier grid of f - lam*x, vectorized in x."""
        x = np.asarray(x, dtype=float)
        vals = _reduce_lines(self.f_values, self.lambdas, x.ravel(),
                             np.subtract, np.min)
        return float(vals[0]) if x.ndim == 0 else vals.reshape(x.shape)


def canonical_designs(n=ALPHA_POINTS):
    """Two exact one-parameter design families with X uniform, as (pq, bx)
    batches, which pre-seed envelope pools.  Family 1: Q binary uniform, X|Q
    a BSC of crossover alpha (phi(alpha) of the module docstring; Q = X at
    alpha = 0).  Family 2: mass 2m split evenly on deterministic conditionals
    plus mass 1-2m on an unbiased one, optimal for the a = 0 curve."""
    alpha = m = np.linspace(0.0, 0.5, n)
    pq1 = np.tile([0.5, 0.5, 0.0, 0.0], (n, 1))
    bx1 = np.stack([alpha, 1.0 - alpha, np.full(n, 0.5), np.full(n, 0.5)],
                   axis=1)
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


def _g(s, q=0.0):
    """(G(c s), d/ds G(c s)) for c = (1 - 2q)^2 and G(s) = 1 - H2((1 -
    sqrt(s)) / 2), so that G(c s) = 1 - H2(q * b) at s = (1 - 2b)^2.  G is
    convex and increasing on [0, 1), of slope atanh(v) / (2 v ln 2) >=
    1 / (2 ln 2) at v = sqrt(s), while H2's slope in q vanishes at 1/2."""
    c = (1.0 - 2.0 * q) ** 2
    v = np.sqrt(c * s)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(v > 0, np.arctanh(v) / v, 1.0)
    return 1.0 - _h2(0.5 - 0.5 * v), c * slope / (2.0 * np.log(2.0))


def _invert_convex(f, targets, top=1.0):
    """s in [0, top] with f(s) = target (clipped at 0), vectorized, for
    f(s) -> (value, slope) convex and increasing with f(0) = 0.  Newton
    from s = top falls onto the root without passing it; a step that
    leaves the bracket the residual signs give, or has an infinite slope,
    bisects it instead.  Stops once no entry moves by more than 1e-15, or
    after NEWTON_STEPS."""
    t = np.maximum(np.asarray(targets, dtype=float), 0.0)
    lo, hi = np.zeros_like(t), np.full_like(t, top)
    s = hi
    for _ in range(NEWTON_STEPS):
        value, slope = f(s)
        lo, hi = np.where(value < t, s, lo), np.where(value > t, s, hi)
        step = s - (value - t) / slope
        inside = (lo <= step) & (step <= hi) & (slope < np.inf)
        step = np.where(inside, step, 0.5 * (lo + hi))
        s, moved = step, np.max(np.abs(step - s), initial=0.0)
        if moved <= 1e-15:
            break
    return s


def _crossover(q, targets):
    """p_x in [0, 1/2] with 1 - H2(q * p_x) = target, in s = (1 - 2p_x)^2."""
    return 0.5 - 0.5 * np.sqrt(_invert_convex(lambda s: _g(s, q), targets))


def t1_closed(params: BecBscParams, x):
    """Exact a = 1 curve: 1 - H2(p1 * p_x) with H2(p * p_x) - H2(p) = x.
    Vectorized in x."""
    xs = np.asarray(x, dtype=float)
    x_max = _check_budget_x(params, xs)
    out = capacity_c1(params, _crossover(params.p, x_max - xs.ravel()))[0]
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def t1_inverse(params: BecBscParams, r1):
    """Exact budget x = H2(p * p_x) - H2(p) at which the a = 1 curve
    reaches rate r1 = 1 - H2(p1 * p_x).  Vectorized in r1."""
    rates = np.asarray(r1, dtype=float)
    top = 1.0 - binary_entropy(params.p1)
    if not np.all((rates >= -1e-12) & (rates <= top + 1e-12)):
        raise ValueError(f"rate outside [0, {top:.6g}]")
    out = capacity_c1(params, _crossover(params.p1, rates.ravel()))[1]
    return float(out[0]) if rates.ndim == 0 else out.reshape(rates.shape)


def t0_closed(params: BecBscParams, x):
    """Exact a = 0 curve: (1 - e2) * (1 - x / (1 - H2(p)))."""
    x_max = _check_budget_x(params, x)
    return (1.0 - params.e2) * (1.0 - x / x_max)


def _phi(a, params, b):
    """phi(b) = (x(b), w(b)) for b in [0, 1/2], unchecked entropy kernel."""
    x = _h2(binary_convolve(params.p, b)) - binary_entropy(params.p)
    return x, a * (1.0 - _h2(binary_convolve(params.p1, b))) \
        + (1.0 - a) * (1.0 - params.e2) * (1.0 - _h2(b))


def _tangent_chord(a, params):
    """(b*, x(b*), w(b*), w(0)) of t_a's chord.  For 0 < a < 1, b* is the
    chord-slope argmax on a ZOOM_POINTS grid, zoomed onto the two cells
    around it until they span at most 1e-9 b*."""
    w0 = float(_phi(a, params, 0.0)[1])
    b, lo, hi = 0.0 if a == 1.0 else 0.5, 0.0, 0.5  # the edge weights' b*
    while 0.0 < a < 1.0 and hi - lo > 1e-9 * b:
        grid = np.linspace(lo, hi, ZOOM_POINTS)
        x, w = _phi(a, params, grid)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = int(np.argmax(np.where(x > 0, (w - w0) / x, -np.inf)))
        b = float(grid[k])
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, ZOOM_POINTS - 1)]
    return (b, *(float(v) for v in _phi(a, params, b)), w0)


def sample_t_a(a, params: BecBscParams, xs, search_budget=None, seed=None):
    """Exact t_a at each budget x, in the shape of xs: the chord below
    x(b*), above it phi at q = p * b with H2(q) = x + H2(p), inverted in
    (1 - 2q)^2 on [p, 1/2].  `search_budget` and `seed` are ignored: the
    benchmark still passes them (ROADMAP item 1 drops them).
    """
    _check_weight(a)
    x_max = _check_budget_x(params, xs)
    x = np.asarray(xs, dtype=float)
    _, x_star, w_star, w0 = _tangent_chord(a, params)
    t, chord = np.empty_like(x), x < x_star
    t[chord] = w0 + (w_star - w0) * (x[chord] / x_star)
    c = (1.0 - 2.0 * params.p) ** 2
    s = _invert_convex(_g, x_max - x[~chord], c)
    t[~chord] = _phi(a, params, 0.5 - 0.5 * np.sqrt(s / c))[1]
    return t


def invert_decreasing(xs, t_values, rates):
    """Budget at which a decreasing sampled curve reaches each rate, read
    piecewise linearly off the samples projected onto a decreasing curve."""
    xs = np.asarray(xs, dtype=float)
    t = isotonic_project(np.asarray(t_values, dtype=float), decreasing=True)
    return np.interp(rates, t[::-1], xs[::-1])


def d_a_curve(a, params: BecBscParams, R1_grid):
    """Normalized budget gap between the a = 1 curve and t_a at rates R1.

    d(R1) > 0 means the a = 1 curve still supports rate R1 at a private
    budget where t_a, an upper bound on the worst-case common rate, has
    already fallen below it.  Both inversions are exact: `t1_inverse`, and
    t_a's chord linearly and its curve in s = (1 - 2b)^2, where w is convex
    and increasing.  The rate grid must lie strictly inside
    (0, 1 - H2(p1 * alpha0)), alpha0 = `params.alpha0`.
    """
    rates = np.asarray(R1_grid, dtype=float)
    r1_max = capacity_c1(params, params.alpha0)[0]
    if rates.size == 0 or not np.all((rates > 0.0) & (rates < r1_max)):
        raise ValueError(
            f"R1 grid must lie strictly inside (0, {r1_max:.6g})")
    if a == 1.0:
        # the weighted curve is the reference curve itself, gap is exact zero
        return np.zeros_like(rates)
    b_star, x_star, w_star, w0 = _tangent_chord(a, params)
    x, chord = np.empty_like(rates), rates > w_star
    x[chord] = x_star * ((w0 - rates[chord]) / (w0 - w_star))
    k = (1.0 - a) * (1.0 - params.e2)

    def w(s):
        (g1, d1), (g2, d2) = _g(s, params.p1), _g(s)
        return a * g1 + k * g2, a * d1 + k * d2

    s = _invert_convex(w, rates[~chord], (1.0 - 2.0 * b_star) ** 2)
    x[~chord] = _phi(a, params, 0.5 - 0.5 * np.sqrt(s))[0]
    gap = t1_inverse(params, rates) - x
    largest = np.max(np.abs(gap))
    return gap / largest if largest > 0 else gap
