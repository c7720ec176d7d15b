"""Dirty-paper inner bounds for a two-antenna Gaussian broadcast channel
whose first user's channel vector is only known to lie in a two-element set.

The transmitter beamforms two streams: a first-user stream on beam b_u that
must survive both candidate channels h1, h2, and a second-user stream on beam
b_v received through g.  Dirty-paper coding (DPC) against the b_v stream with
parameter alpha leaves residual interference I_j (alpha - beta_j)^2 at
candidate receiver j, so the robust rate is a max-min over alpha of functions
that are, inside the log, upward parabolas in alpha.  All max-min steps here
reduce to minimizing the upper envelope of such parabolas, which is solved
exactly on the finite candidate set {vertices, pairwise crossings}.

Splitting off a slice x of the first-user power as a per-candidate private
description (one description per candidate channel, time-shared or
correlated) relaxes the max-min tension and can strictly enlarge the region.

Rates are in bits per real channel use, so every Gaussian expression carries
a 1/2 log2 prefactor.  Each rate formula is written once, as a broadcasting
kernel that the boundary sweeps run over whole parameter grids; the scalar
scheme APIs are size-1 calls into the same kernel.
"""

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .polyhedra import RateCurve2D

# private-power level at which the correlated-description rate penalty
# 1/2 log2(2 pi e x) changes sign
CORRELATION_BREAKPOINT = 1.0 / (2.0 * math.pi * math.e)


def _vec2(v, name):
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.shape != (2,) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be a finite real 2-vector")
    return arr


def unit_beam(v, name="beam"):
    """Validate and return a unit-norm 2-vector."""
    arr = _vec2(v, name)
    norm = float(np.hypot(arr[0], arr[1]))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"{name} must have unit norm, got {norm!r}")
    return arr / norm


def beam_from_angle(theta):
    """Unit beam (cos theta, sin theta)."""
    return np.array([math.cos(theta), math.sin(theta)])


@dataclass(frozen=True)
class MisoChannel:
    """Two candidate user-1 rows h1, h2, user-2 row g, power P, noise N."""

    h1: np.ndarray
    h2: np.ndarray
    g: np.ndarray
    P: float
    N: float

    def __post_init__(self):
        object.__setattr__(self, "h1", _vec2(self.h1, "h1"))
        object.__setattr__(self, "h2", _vec2(self.h2, "h2"))
        object.__setattr__(self, "g", _vec2(self.g, "g"))
        if not 0 < self.N < math.inf:
            raise ValueError("noise variance N must be positive and finite")
        if not 0 < self.P < math.inf:
            raise ValueError("total power P must be positive and finite")
        pairs = [("h1", self.h1, "h2", self.h2),
                 ("h1", self.h1, "g", self.g),
                 ("h2", self.h2, "g", self.g)]
        for na, a, nb, b in pairs:
            cross = a[0] * b[1] - a[1] * b[0]
            scale = np.linalg.norm(a) * np.linalg.norm(b)
            if abs(cross) <= 1e-12 * max(scale, 1e-300):
                raise ValueError(f"{na} and {nb} must be linearly independent")

    def receiver(self, j):
        """Candidate user-1 channel row for index j in {1, 2}."""
        if j == 1:
            return self.h1
        if j == 2:
            return self.h2
        raise ValueError("channel index must be 1 or 2")


@dataclass(frozen=True)
class DpcScheme:
    """One transmit strategy: beams, power split and private slice.

    b_u, b_v: unit beams for the user-1 and user-2 streams
    p_u, p_v: stream powers (p_u + p_v may not exceed the channel's P)
    x: slice of p_u re-used as per-candidate private descriptions, 0 <= x <= p_u
    """

    b_u: np.ndarray
    b_v: np.ndarray
    p_u: float
    p_v: float
    x: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "b_u", unit_beam(self.b_u, "b_u"))
        object.__setattr__(self, "b_v", unit_beam(self.b_v, "b_v"))
        if not (self.p_u >= 0 and self.p_v >= 0):  # NaN fails too
            raise ValueError("stream powers must be nonnegative")
        if not 0 <= self.x <= self.p_u + 1e-12:
            raise ValueError("private slice x must lie in [0, p_u]")


@dataclass(frozen=True)
class GaussRatePoint:
    """Nonnegative rate pair in bits per real channel use."""

    r1: float
    r2: float

    def __post_init__(self):
        if not (self.r1 >= 0 and self.r2 >= 0):
            raise ValueError("rates must be nonnegative")


def _point(r1, r2):
    # scalar APIs clamp tiny negatives from float noise, the kernel does not;
    # np.maximum keeps a NaN, so GaussRatePoint rejects it
    return GaussRatePoint(*map(float, np.maximum(0.0, (r1, r2))))


def _check_power(channel, scheme):
    if scheme.p_u + scheme.p_v > channel.P + 1e-9:
        raise ValueError("p_u + p_v exceeds the channel power budget")


# ---------------------------------------------------------------------------
# the rate kernel: every function here broadcasts over its array arguments

_TINY = 1e-300


class SchemeTerms(NamedTuple):
    """Terms of one (beams, power split) choice that no private slice changes.

    receivers: (h_u, h_v, s, tot) for candidates 1 and 2, the beam gains at
        that row with s = h_u^2 p_u + N and tot = h_u^2 p_u + h_v^2 p_v + N
    r2_first: user-2 rate when its stream is encoded first
    r1_second, r2_second: the corner with the user-1 stream encoded first
    """

    receivers: tuple
    p_u: np.ndarray
    p_v: np.ndarray
    n: float
    r2_first: np.ndarray
    r2_second: np.ndarray
    r1_second: np.ndarray


def scheme_terms(gains, p_u, p_v, n):
    """SchemeTerms from the beam gains h1u, h1v, h2u, h2v, gu, gv."""
    receivers = tuple(
        (hu, hv, hu ** 2 * p_u + n, hu ** 2 * p_u + hv ** 2 * p_v + n)
        for hu, hv in ((gains["h1u"], gains["h1v"]),
                       (gains["h2u"], gains["h2v"])))
    gu, gv = gains["gu"], gains["gv"]
    r2_first = 0.5 * np.log2((gu ** 2 * p_u + gv ** 2 * p_v + n)
                             / (gu ** 2 * p_u + n))
    r2_second = 0.5 * np.log2((gv ** 2 * p_v + n) / n)
    r1_second = np.minimum(*(0.5 * np.log2(tot / (hv ** 2 * p_v + n))
                             for _, hv, _, tot in receivers))
    return SchemeTerms(receivers, p_u, p_v, n, r2_first, r2_second, r1_second)


def split_terms(receiver, p_u, p_v, x):
    """Cancellation center beta_j^x and residual weight I_j^x of one receiver
    once the slice x of p_u is re-used as a private layer."""
    hu, hv, s, tot = receiver
    beta_x = (p_u - x) * hu * hv / s
    i_x = p_v * s * s / np.maximum((p_u - x) * tot, _TINY)
    return beta_x, i_x


def corr_parabolas(terms, x):
    """Both receivers' parabolas (a_1, v_1, c_1, a_2, v_2, c_2) with the
    private layer x re-encoded optimally: rate_j = -1/2 log2(q_j(alpha))."""
    out = []
    for rx in terms.receivers:
        hu, _, s, _ = rx
        beta_x, i_x = split_terms(rx, terms.p_u, terms.p_v, x)
        out += [i_x * terms.n / ((hu * hu * x + terms.n) * s), beta_x,
                terms.n / s]
    return out


def uncorr_parabolas(terms, x, shares):
    """Parabolas for time-shared private descriptions, one list per
    candidate-1 time share in shares; weights fold each receiver's
    private-link term into the envelope.  The split terms of the slice x
    serve every share, and the lists are yielded one at a time, so a sweep
    holds one share's arrays at once."""
    layers = []
    for rx in terms.receivers:
        hu, _, s, _ = rx
        beta_x, i_x = split_terms(rx, terms.p_u, terms.p_v, x)
        private = hu * hu * x + terms.n
        layers.append((beta_x, i_x, s, private, private / terms.n))
    for share1 in shares:
        out = []
        for (beta_x, i_x, s, private, gain), share in zip(
                layers, (share1, 1.0 - share1)):
            w = gain ** (-share)
            out += [w * i_x / s, beta_x, w * private / s]
        yield out


def parabola_rate(a, v, c, alpha):
    """-1/2 log2(a (alpha - v)^2 + c), one receiver's rate at alpha."""
    return -0.5 * np.log2(a * (alpha - v) ** 2 + c)


def _minimax_two_vec(a1, v1, c1, a2, v2, c2):
    """Vectorized two-parabola envelope minimization.

    All arguments broadcast; returns (t_star, value) arrays.  The minimum of
    max(q1, q2) sits at a vertex or where q1 = q2, so the candidates are v1,
    v2, the two roots of q1 - q2 where it is quadratic and its one root
    where the leading coefficients cancel; a non-finite candidate falls back
    to v1.  Candidates are scored one at a time, and a later one replaces
    the best only when its value is strictly lower or is the first NaN,
    which is np.argmin's rule over them in that order.  A cell has either
    the two quadratic roots or the linear one, so the linear root rides in
    the first root's slot; a fallback to v1 never replaces the best, so
    the missing candidates cost nothing.
    """
    a1, v1, c1, a2, v2, c2 = np.broadcast_arrays(a1, v1, c1, a2, v2, c2)
    qa = a1 - a2
    qb = -2.0 * (a1 * v1 - a2 * v2)
    qc = (a1 * v1 ** 2 + c1) - (a2 * v2 ** 2 + c2)
    quad = np.abs(qa) > 1e-13 * (a1 + a2 + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = qb * qb - 4.0 * qa * qc
        root = np.sqrt(np.where(disc >= 0, disc, np.nan))
        linear = np.where(np.abs(qb) > 1e-300, -qc / qb, np.nan)
        r_plus = np.where(quad, (-qb + root) / (2.0 * qa), linear)
        r_minus = np.where(quad, (-qb - root) / (2.0 * qa), np.nan)
    q1, q2 = np.empty(a1.shape), np.empty(a1.shape)

    def envelope(t):
        # max(a1 (t - v1)^2 + c1, a2 (t - v2)^2 + c2), op for op, in place
        for q, a, v, c in ((q1, a1, v1, c1), (q2, a2, v2, c2)):
            np.subtract(t, v, out=q)
            np.square(q, out=q)
            np.multiply(a, q, out=q)
            np.add(q, c, out=q)
        return np.maximum(q1, q2, out=q1)

    t_star = np.array(v1, dtype=float)
    value = envelope(t_star).copy()
    for cand in (v2, r_plus, r_minus):
        t = np.where(np.isfinite(cand), cand, v1)
        env = envelope(t)
        # strictly lower, or NaN while the best is not (NaN compares false)
        upd = ~(env >= value) & (value == value)
        np.copyto(t_star, t, where=upd)
        np.copyto(value, env, where=upd)
    return t_star, value


def envelope_rate(paras):
    """Max-min rate over alpha of two parabolas: (alpha*, rate) arrays."""
    alpha, env = _minimax_two_vec(*paras)
    return alpha, -0.5 * np.log2(env)


def corr_rate(paras, x, alphas):
    """Correlated-description R1 at the best of the candidate alphas.

    Both descriptions carry the same Gaussian sample of power x, so each
    receiver gets its side for free, but revealing the sample costs the
    correlation penalty 1/2 log2(2 pi e x) inside a sum constraint:
    R1 <= min_j rate_j(alpha) and 2 R1 <= rate_1 + rate_2 - penalty, with
    rate_j from corr_parabolas.  alphas is a sequence of candidate arrays,
    scored in order; a later one wins only with a strictly higher R1 or the
    first NaN, np.argmax's rule.  Returns (r1, alpha, sum_constraint_active)
    at the best candidate.
    """
    a1, v1, c1, a2, v2, c2 = paras
    pen = np.where(x > 0,
                   0.5 * np.log2(2.0 * math.pi * math.e
                                 * np.maximum(x, _TINY)),
                   -np.inf)
    best = None
    for alpha in alphas:
        f1 = parabola_rate(a1, v1, c1, alpha)
        f2 = parabola_rate(a2, v2, c2, alpha)
        min_branch = np.minimum(f1, f2)
        sum_branch = 0.5 * (f1 + f2 - pen)
        r1 = np.minimum(min_branch, sum_branch)
        cand = (r1, alpha, sum_branch < min_branch)
        if best is None:
            best = cand
            continue
        upd = ~(r1 <= best[0]) & (best[0] == best[0])
        best = tuple(np.where(upd, new, old) for new, old in zip(cand, best))
    return best


def corr_optimal(paras, x):
    """corr_rate over the envelope minimizer and both parabola vertices.

    The min branch is an exact parabola max-min; the sum branch is evaluated
    on the same candidate set, which keeps the result an achievable inner
    point even where the sum constraint binds.
    """
    alpha, _ = _minimax_two_vec(*paras)
    return corr_rate(paras, x, (alpha, paras[1], paras[4]))


# ---------------------------------------------------------------------------
# scalar scheme APIs and the symmetric-geometry closed forms


def _beam_gains(channel, b_u, b_v):
    """Gains h1u, h1v, h2u, h2v, gu, gv of one beam pair or of beam stacks."""
    return {row + side: beam @ vec
            for row, vec in (("h1", channel.h1), ("h2", channel.h2),
                             ("g", channel.g))
            for side, beam in (("u", b_u), ("v", b_v))}


def _terms(channel, scheme):
    # the size-1 kernel call behind md_correlated_optimal
    _check_power(channel, scheme)
    return scheme_terms(_beam_gains(channel, scheme.b_u, scheme.b_v),
                        scheme.p_u, scheme.p_v, channel.N)


def p_of_eta(eta, p_u, p_v, n):
    """Residual interference power after max-min DPC in the symmetric
    geometry, as a function of the private-beam alignment eta in [-1, 1]."""
    if not -1 <= eta <= 1:
        raise ValueError("eta must lie in [-1, 1]")
    if not (p_u >= 0 and p_v >= 0 and n > 0):  # NaN fails too
        raise ValueError("powers must be nonnegative and noise positive")
    p_tot = p_u + p_v
    rad = math.sqrt((p_tot + 2 * n) ** 2 + (eta * eta - 1) * p_v * p_v)
    return (1 - eta) * p_v * p_u / (p_tot + 2 * n + rad)


def cd_closed_form(eta, p_u, p_v, n):
    """Common-description rate pair with the user-2 stream encoded first,
    envelope_rate(corr_parabolas(terms, 0)), in closed form.

    Geometry: h1, h2 orthonormal, g proportional to h1 - h2, user-1 beam on
    the mean direction h1 + h2, user-2 beam at angle theta with
    eta = sin(2 theta).
    """
    residual = p_of_eta(eta, p_u, p_v, n)
    r1 = 0.5 * math.log2((p_u + 2 * n) / (residual + 2 * n))
    r2 = 0.5 * math.log2(((1 - eta) * p_v + 2 * n) / (2 * n))
    return _point(r1, r2)


# ---------------------------------------------------------------------------
# private-description layers


def md_correlated_optimal(channel, scheme):
    """Rate pair with one pair of fully correlated private descriptions and
    alpha optimized by corr_optimal; see corr_rate for the two R1
    constraints.  Returns (point, alpha, sum_constraint_active).
    """
    terms = _terms(channel, scheme)
    if not 0 < scheme.x < scheme.p_u:
        raise ValueError("correlated descriptions need 0 < x < p_u")
    r1, alpha, sum_active = corr_optimal(corr_parabolas(terms, scheme.x),
                                         scheme.x)
    return _point(r1, terms.r2_first), float(alpha), bool(sum_active)


# ---------------------------------------------------------------------------
# strictness of the private-description gain (symmetric geometry)


@dataclass(frozen=True)
class StrictnessReport:
    """Outcome of the private-description gain check.

    condition_holds: the sufficient condition residual > p_u / 2 is met
    best_gain: max over x of R1(x) - R1(0) from the direct sweep
    best_x: the x achieving best_gain
    """

    condition_holds: bool
    best_gain: float
    best_x: float

    def __bool__(self):
        return self.condition_holds


def strictness_uncorrelated_check(p_u, p_v, n, eta, x_steps=2001):
    """Does a time-shared private slice strictly raise R1 here?

    Symmetric geometry, equal time share t = 1/2.  R1(x) is evaluated in
    closed form; the sufficient condition for R1 strictly increasing at x = 0
    is residual interference > p_u / 2.
    """
    residual = p_of_eta(eta, p_u, p_v, n)  # rejects p_u < 0 and NaN first
    if p_u == 0:
        return StrictnessReport(False, 0.0, 0.0)
    condition = residual > p_u / 2.0

    xs = np.linspace(0.0, p_u * (1.0 - 1e-9), x_steps)
    scaled = (p_u - xs) / np.sqrt(xs + 2 * n) * math.sqrt(2 * n) / p_u
    denom = scaled * residual + math.sqrt(2 * n) * np.sqrt(xs + 2 * n)
    r1 = 0.5 * np.log2((p_u + 2 * n) / denom)
    k = int(np.argmax(r1))
    return StrictnessReport(bool(condition),
                            float(r1[k] - r1[0]), float(xs[k]))


# ---------------------------------------------------------------------------
# geometry helpers and boundary sweeps


def special_geometry(scale=1.0, total_power=10.0, noise=1.0):
    """Symmetric benchmark channel: orthogonal equal-norm candidate rows with
    the user-2 row along their difference."""
    h1 = scale * np.array([1.0, 0.0])
    h2 = scale * np.array([0.0, 1.0])
    g = scale * np.array([1.0, -1.0]) / math.sqrt(2.0)
    return MisoChannel(h1, h2, g, total_power, noise)


def special_beams(eta):
    """Beam pair (b_u on the mean direction, b_v at eta = sin(2 theta))."""
    if not -1 <= eta <= 1:
        raise ValueError("eta must lie in [-1, 1]")
    theta = 0.5 * math.asin(eta)
    return beam_from_angle(math.pi / 4.0), beam_from_angle(theta)


# relative tolerance of the symmetric-geometry test
SYMMETRY_TOL = 1e-9


def is_symmetric_geometry(channel):
    """True when the channel matches special_geometry up to rotation/scale."""
    n1 = np.linalg.norm(channel.h1)
    n2 = np.linalg.norm(channel.h2)
    if abs(n1 - n2) > SYMMETRY_TOL * max(n1, n2):
        return False
    if abs(float(channel.h1 @ channel.h2)) > SYMMETRY_TOL * n1 * n2:
        return False
    mean = channel.h1 + channel.h2
    gn = np.linalg.norm(channel.g)
    return abs(float(channel.g @ mean)) \
        <= SYMMETRY_TOL * gn * np.linalg.norm(mean)


REGION_KINDS = ("cd", "md-uncorr", "md-corr")
# candidate-1 time shares the md-uncorr sweep tries
TIME_SHARES = (0.0, 0.25, 0.5, 0.75, 1.0)


def _beam_grid(channel, eta_steps, beam_steps):
    """Beam stacks b_u, b_v (one row per beam cell) plus per-cell labels:
    an eta sweep when eta_steps is given, else a sweep of both beam angles."""
    if eta_steps is not None:
        scale = float(np.linalg.norm(channel.h1))
        etas = np.linspace(-1.0, 1.0, eta_steps)
        thetas = 0.5 * np.arcsin(etas)
        # rotate the canonical beams into the channel's own frame
        e1 = channel.h1 / scale
        e2 = channel.h2 / scale
        b_u = (e1 + e2) / math.sqrt(2.0)
        b_vs = np.outer(np.cos(thetas), e1) + np.outer(np.sin(thetas), e2)
        b_us = np.broadcast_to(b_u, b_vs.shape)
        labels = [("eta", float(v)) for v in etas]
    else:
        steps_u, steps_v = beam_steps
        tu = np.linspace(0.0, math.pi, steps_u, endpoint=False)
        tv = np.linspace(0.0, math.pi, steps_v, endpoint=False)
        uu, vv = np.meshgrid(tu, tv, indexing="ij")
        uu, vv = uu.ravel(), vv.ravel()
        b_us = np.stack([np.cos(uu), np.sin(uu)], axis=1)
        b_vs = np.stack([np.cos(vv), np.sin(vv)], axis=1)
        labels = [("theta_u", float(a), "theta_v", float(b))
                  for a, b in zip(uu, vv)]
    return b_us, b_vs, labels


# stride of the md-uncorr coarse pass over the x ladder; the fine pass
# scans the LADDER_STRIDE - 1 ladder slices on either side of its argmax
LADDER_STRIDE = 8
# cells of one sweep block: a block's temporaries stay in cache
SWEEP_BLOCK = 16384


def _start(shape, tag):
    """A running best (r1, alpha, x, tag) before any slice."""
    return (np.full(shape, -np.inf), np.zeros(shape), np.zeros(shape),
            np.full(shape, tag))


def _keep_higher(best, new):
    """Replace the running best (r1, alpha, x, tag) by new where new's R1
    is strictly higher."""
    upd = new[0] > best[0]
    for arr, value in zip(best, new):
        np.copyto(arr, value, where=upd)


def _map_terms(f, terms):
    """terms with every array replaced by f(array)."""
    return SchemeTerms(tuple(tuple(map(f, rx)) for rx in terms.receivers),
                       *map(f, terms[1:]))


def _scan(score, terms, x_slices, best, cols=None):
    """Score the slices x_slices in order, keeping in best the first
    strictly higher R1; score(terms, x) returns (r1, alpha, tag).  Slice i
    is scored on the grid columns cols[i] onward (all when cols is None),
    and not at all when none are left.  The grid is scored in blocks of
    whole rows of about SWEEP_BLOCK cells, as views; an axis that an array
    broadcasts along is kept whole."""
    shape = best[0].shape
    width = int(np.prod(shape[1:]))
    for x, j0 in zip(x_slices, repeat(0) if cols is None else cols):
        if j0 == width:
            continue
        step = max(1, SWEEP_BLOCK // (width - j0))
        for r0 in range(0, shape[0], step):
            index = (slice(r0, r0 + step), slice(j0, None))

            def view(arr):
                return np.asarray(arr)[tuple(
                    part if size == full else slice(None)
                    for part, size, full in zip(index, np.shape(arr), shape))]

            xb = view(x)
            r1, alpha, tag = score(_map_terms(view, terms), xb)
            _keep_higher(tuple(map(view, best)), (r1, alpha, xb, tag))


def _rescan(score, terms, x_slices, cells, best):
    """Rescan the masked cells over every slice and write them into best."""
    def pick(arr):
        return np.broadcast_to(arr, cells.shape)[cells]

    sub = _start(np.count_nonzero(cells), best[3][cells])
    _scan(score, _map_terms(pick, terms), map(pick, x_slices), sub)
    for arr, new in zip(best, sub):
        arr[cells] = new


def _uncorr_sweep(terms, x_slices):
    """Best md-uncorr (r1, alpha, x, t) per cell: the first (time share, x)
    in share-major order whose R1 is the maximum.

    x_slices holds the x = 0 slice, the x ladder and the breakpoint slice,
    each a multiple of p_u.  Per share, a cell keeps the first strictly
    higher R1 over the x = 0 slice, then the ladder, then the breakpoint.
    R1 is unimodal along the ladder in almost every cell, so the ladder is
    searched coarse to fine: every LADDER_STRIDE-th slice, then, in
    ascending order, the LADDER_STRIDE - 1 slices on either side of the
    coarse argmax (clipped to the ladder), with each cell's x picked from
    the stacked ladder.  A cell whose coarse samples hold a NaN, an exact
    tie between neighbours or a rise after a fall is rescanned over every
    slice instead, unless its x = 0 slice already reaches the parabola-floor
    bound's maximum over the slices; a cell with p_u = 0 never is, as every
    slice in it is x = 0 and the x = 0 slice wins.  A maximum the coarse
    samples give no sign of, such as a spike between two samples of a
    monotone stretch, would be missed.  On the default grid, the `miso-cli`
    benchmark grid and two general grids the result is bit-identical to the
    full scan's; the tests pin small grids and the default CLI output.
    Merging the per-share bests in TIME_SHARES order, replacing on a
    strictly higher R1, picks the (share, x) that a share-major sweep would.
    """
    shape = terms.r1_second.shape
    x_zero, ladder, x_break = x_slices[0], x_slices[1:-1], x_slices[-1]

    # coarse pass: per share the first strict argmax `at` of the samples,
    # and `odd` where they are not strictly unimodal
    peak = [np.full(shape, -np.inf) for _ in TIME_SHARES]
    at = [np.zeros(shape, dtype=np.intp) for _ in TIME_SHARES]
    fallen = [np.zeros(shape, dtype=bool) for _ in TIME_SHARES]
    odd = [np.zeros(shape, dtype=bool) for _ in TIME_SHARES]
    prev = [None] * len(TIME_SHARES)
    for i in range(0, len(ladder), LADDER_STRIDE):
        for k, paras in enumerate(uncorr_parabolas(terms, ladder[i],
                                                   TIME_SHARES)):
            _, r1 = envelope_rate(paras)
            odd[k] |= np.isnan(r1)
            if prev[k] is not None:
                odd[k] |= (r1 == prev[k]) | (fallen[k] & (r1 > prev[k]))
                fallen[k] |= r1 < prev[k]
            upd = r1 > peak[k]
            np.copyto(peak[k], r1, where=upd)
            np.copyto(at[k], i, where=upd)
            prev[k] = r1

    # one share at a time: each fine-pass cell's x comes from the stacked
    # ladder, and the share stays a scalar exponent in uncorr_parabolas
    stacked = np.stack(np.broadcast_arrays(*ladder))
    stacked = np.broadcast_to(stacked, (len(ladder),) + shape)
    powered = np.broadcast_to(terms.p_u != 0, shape)
    merged = _start(shape, 0.0)
    for share1, center, cells in zip(TIME_SHARES, at, odd):
        def score(block, x):
            alpha, r1 = envelope_rate(next(uncorr_parabolas(block, x,
                                                            (share1,))))
            return r1, alpha, share1

        window = (np.take_along_axis(
            stacked, np.clip(center + step, 0, len(ladder) - 1)[None],
            axis=0)[0] for step in range(1 - LADDER_STRIDE, LADDER_STRIDE))
        best = _start(shape, share1)
        _scan(score, terms, chain([x_zero], window, [x_break]), best)

        # no slice beats an x = 0 slice that reaches the floor bound's
        # maximum over the slices
        cells &= powered
        if cells.any():
            def pick(arr):
                return np.broadcast_to(arr, shape)[cells]

            flagged = _map_terms(pick, terms)

            def floor_rate(x):  # no parabola falls below its floor c_j
                _, _, c1, _, _, c2 = next(uncorr_parabolas(flagged, pick(x),
                                                           (share1,)))
                return -0.5 * np.log2(np.maximum(c1, c2))

            ceiling = reduce(np.maximum, map(floor_rate, x_slices))
            cells[cells] = ~((pick(best[2]) == pick(x_zero))
                             & (pick(best[0]) >= ceiling))
            _rescan(score, terms, x_slices, cells, best)
        _keep_higher(merged, best)
    return merged


def _corr_sweep(terms, x_slices):
    """Best md-corr (r1, alpha, x, sum flag) per cell over x_slices (x = 0,
    the x ladder, the breakpoint), scored as x = 0, the breakpoint, then
    the ladder, each cell keeping the first strictly higher R1.

    A ladder slice x <= CORRELATION_BREAKPOINT cannot beat the breakpoint
    slice, which is the largest x <= CORRELATION_BREAKPOINT in its column.
    There the penalty 1/2 log2(2 pi e x) is <= 0, so the sum branch never
    binds and R1 = -1/2 log2 min_alpha max_j q_j(alpha).  With u = p_u - x
    and alpha = kappa u, receiver j's parabola is
        q_j = (N / s_j) (1 + p_v u (kappa s_j - h_u h_v)^2
                             / (tot_j (h_u^2 x + N))),
    where s_j and tot_j do not depend on x.  For each kappa this falls as x
    grows (u falls, h_u^2 x + N grows), so the max-min falls and R1 rises.
    So each ladder slice is scored only on the columns where x exceeds the
    breakpoint; x = p_u f grows with p_u, so those are a tail of columns,
    taken as views.  The breakpoint slice is scored before the ladder, so a
    skipped slice that ties it leaves it the winner, as a full scan in this
    order would.  The monotonicity is exact in real arithmetic only: a
    skipped slice that rounding lifts above the breakpoint slice would be
    missed.  The tests check the float result bitwise against a full scan
    in this order.
    """
    def score(block, x):
        return corr_optimal(corr_parabolas(block, x), x)

    shape = terms.r1_second.shape
    ladder = x_slices[1:-1]
    cols = [0, 0] + [shape[1] - np.count_nonzero(x[0] > CORRELATION_BREAKPOINT)
                     for x in ladder]
    best = _start(shape, False)
    _scan(score, terms, [x_slices[0], x_slices[-1], *ladder], best, cols)
    return best


def region_boundary(kind, channel, *, eta_steps=None, split_steps=201,
                    x_steps=201, beam_steps=None):
    """Pareto staircase of one inner bound, swept over scheme parameters.

    kind: "cd", "md-uncorr" or "md-corr".  Symmetric channels sweep the
    private-beam alignment eta over eta_steps points (401 when None);
    general channels sweep both beam angles over beam_steps = (n_u, n_v)
    points (49 and 97 when None).  The count the channel's sweep does not
    use must stay None.  Returns a RateCurve2D whose meta rows record the
    achieving scheme, including the swept beams b_u and b_v; its hull() is
    the convex (time-shared) closure.
    """
    if kind not in REGION_KINDS:
        raise ValueError(f"kind must be one of {REGION_KINDS}")
    if is_symmetric_geometry(channel):
        unused, shape, used, ignored = ("beam_steps", "symmetric",
                                        "eta_steps", beam_steps)
        eta_steps = 401 if eta_steps is None else eta_steps
        counts = [("eta_steps", eta_steps, 1)]
    else:
        unused, shape, used, ignored = ("eta_steps", "general",
                                        "beam_steps", eta_steps)
        beam_steps = (49, 97) if beam_steps is None else beam_steps
        counts = [("beam_steps", n, 1) for n in beam_steps]
    if ignored is not None:
        raise ValueError(f"parameter {unused!r} has no effect on a {shape}"
                         f" channel, whose sweep is set by {used!r}")
    counts += [("split_steps", split_steps, 1), ("x_steps", x_steps, 3)]
    for key, count, least in counts:
        if count < least:
            raise ValueError(f"{key} must be at least {least}, got {count}")

    b_us, b_vs, labels = _beam_grid(channel, eta_steps, beam_steps)
    gains = _beam_gains(channel, b_us, b_vs)
    splits = np.linspace(0.0, 1.0, split_steps)
    p_u = channel.P * splits[None, :]
    p_v = channel.P - p_u

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = scheme_terms({k: g[:, None] for k, g in gains.items()},
                             p_u, p_v, channel.N)

        # x sweep: zero, a log-spaced ladder, and the penalty breakpoint
        fracs = np.concatenate([[0.0],
                                np.geomspace(1e-7, 1.0, x_steps - 2)
                                * (1.0 - 1e-9)])
        x_slices = [f * p_u for f in fracs]
        x_slices.append(np.minimum(CORRELATION_BREAKPOINT,
                                   p_u * (1.0 - 1e-9)))

        grid_shape = terms.r1_second.shape  # (beam cells, power splits)
        x_main = np.zeros(grid_shape)
        # md-uncorr's sweep records the winning time share; the other kinds
        # have none and report an even split
        t_main = np.full(grid_shape, 0.5)
        sum_main = np.zeros(grid_shape, dtype=bool)
        if kind == "cd":
            alpha_main, r1_main = envelope_rate(corr_parabolas(terms, 0.0))
        elif kind == "md-uncorr":
            r1_main, alpha_main, x_main, t_main = _uncorr_sweep(terms,
                                                                x_slices)
        else:  # md-corr
            r1_main, alpha_main, x_main, sum_main = _corr_sweep(terms,
                                                                x_slices)

    # zero first-layer power carries no first-user rate
    r1_main = np.where(p_u > 0, r1_main, 0.0)
    r1_main = np.nan_to_num(r1_main, nan=0.0, neginf=0.0)

    # from_samples clamps every sample at zero
    block_a = np.column_stack([r1_main.ravel(), terms.r2_first.ravel()])
    block_b = np.column_stack([terms.r1_second.ravel(),
                               terms.r2_second.ravel()])
    samples = np.vstack([block_a, block_b])
    curve = RateCurve2D.from_samples(samples, meta=range(len(samples)))

    n_main = block_a.shape[0]
    n_splits = len(splits)

    def decode(flat_index):
        in_main = flat_index < n_main
        rem = flat_index if in_main else flat_index - n_main
        cell, split_idx = divmod(rem, n_splits)
        row = dict(zip(labels[cell][::2], labels[cell][1::2]))
        row["b_u"], row["b_v"] = b_us[cell], b_vs[cell]
        row["p_u"] = float(p_u[0, split_idx])
        row["p_v"] = float(p_v[0, split_idx])
        if in_main:
            row["order"] = "user2-encoded-first"
            row["x"] = float(x_main[cell, split_idx])
            row["t"] = float(t_main[cell, split_idx])
            row["alpha"] = float(alpha_main[cell, split_idx])
            row["sum_constraint_active"] = bool(sum_main[cell, split_idx])
        else:
            row["order"] = "user1-encoded-first"
        return row

    curve.meta = [decode(i) for i in curve.meta]
    return curve
