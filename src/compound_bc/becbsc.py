"""Closed-form rate curves for a two-instance binary compound broadcast channel.

User 2 always sees Z = BSC(p).  User 1 sees one of two channel instances:
Y1 = BSC(p1), a physically degraded version of Z, or Y2 = BEC(e2), which is
more capable than Z but not less noisy.  The parameter ordering
4p(1-p) < 4p1(1-p1) < e2 <= H2(p) pins this mixed regime, where letting the
strong receivers resolve the interfering stream is strictly better than
coding for the worst pair.

Every curve takes X ~ Bern(1/2), optimal here by channel symmetry, and sweeps
the crossover alpha of a binary-symmetric auxiliary-to-input channel.

`_mutual_informations` evaluates I(Q;Y1), I(Q;Y2) and I(X;Z|Q) in closed
form for a batch of uniform-X auxiliary designs; the searches of `lines` run
on its two pieces, `_conditional_entropies` and `_weighted_informations`.
"""

from dataclasses import dataclass

import numpy as np

from .info import _h2, binary_convolve, binary_entropy

DEFAULT_PARAMS = (0.1, 0.13, 0.46)
ALPHA0_TOL = 1e-10  # bisection width of alpha0_solve


@dataclass(frozen=True)
class BecBscParams:
    """Channel parameters (p, p1, e2) for the compound instance."""

    p: float = DEFAULT_PARAMS[0]
    p1: float = DEFAULT_PARAMS[1]
    e2: float = DEFAULT_PARAMS[2]

    def __post_init__(self):
        p, p1, e2 = self.p, self.p1, self.e2
        if not 0 < p < p1 < 0.5:
            raise ValueError(
                f"requires 0 < p < p1 < 0.5, got p={p}, p1={p1}")
        if not 4 * p1 * (1 - p1) < e2:
            raise ValueError(
                f"requires 4*p1*(1-p1) < e2 (Y2 more capable than Y1), "
                f"got {4 * p1 * (1 - p1):.6g} >= e2={e2}")
        if not e2 <= binary_entropy(p):
            raise ValueError(
                f"requires e2 <= H2(p) (Y2 more capable than Z), "
                f"got e2={e2} > {binary_entropy(p):.6g}")


def _check_alpha(alpha):
    arr = np.asarray(alpha, dtype=float)
    bad = ~((arr >= 0.0) & (arr <= 0.5))  # NaN is bad too
    if np.any(bad):
        raise ValueError(f"alpha must lie in [0, 0.5], got {arr[bad][0]}")


def capacity_c1(params: BecBscParams, alpha: float):
    """Boundary point of the degraded pair (Y1, Z): cloud to Y1, satellite
    to Z.  Returns (R1_max, R2_max) for the given cloud crossover.  It,
    capacity_c2, id_curve and mrs_gerber_lower broadcast over alpha arrays."""
    _check_alpha(alpha)
    r1 = 1 - binary_entropy(binary_convolve(params.p1, alpha))
    r2 = binary_entropy(binary_convolve(params.p, alpha)) \
        - binary_entropy(params.p)
    return r1, r2


def capacity_c2(params: BecBscParams, alpha: float) -> tuple:
    """Rate region slice of the pair (Y2, Z), where Y2 is more capable:
    the satellite layer goes to Y2 and the cloud to Z.  Returns the bounds
    (b1, b2, bs) of {R1 <= b1, R2 <= b2, R1 + R2 <= bs}; bs is a scalar."""
    _check_alpha(alpha)
    return ((1 - params.e2) * binary_entropy(alpha),
            1 - binary_entropy(binary_convolve(params.p, alpha)),
            1 - params.e2)


def c2_corner(params: BecBscParams, alpha):
    """(R1, R2) = (min(b1, bs), min(b2, bs - R1)) of capacity_c2's bounds."""
    b1, b2, bs = capacity_c2(params, alpha)
    r1 = np.minimum(b1, bs)
    return r1, np.minimum(b2, bs - r1)


def id_curve(params: BecBscParams, alpha: float) -> tuple:
    """Rate region slice achieved when Z and Y2 resolve both streams while
    Y1 sticks to its own: {R1 <= c(alpha), R1 + R2 <= c(alpha) + s(alpha)}.
    Returns the bounds (c, c + s), with (c, s) the capacity_c1 point."""
    c, s = capacity_c1(params, alpha)
    return c, c + s


def strict_inclusion_ratio_test(params) -> tuple:
    """Compare the two pairs' reach along the direction R1/(1-H2(p)-R2).

    The degraded pair tops out at lhs = (1-2p1)^2/(1-2p)^2 (the alpha -> 1/2
    limit of its boundary slope), while the more-capable pair reaches at
    least rhs = (1-e2)/(1-H2(p)).  lhs <= 1 <= rhs certifies that neither
    pair's region contains the other's, so the compound model is not
    reducible to a single worst pair.
    """
    lhs = (1 - 2 * params.p1) ** 2 / (1 - 2 * params.p) ** 2
    rhs = (1 - params.e2) / (1 - binary_entropy(params.p))
    return lhs, rhs, bool(lhs <= 1 <= rhs)


def corner_E_dominance(params: BecBscParams, alpha_grid) -> float:
    """min over the grid of H2(p1*alpha) - H2(p*alpha) (star = convolution).

    Nonnegativity means the zero-R1 corner of every id_curve slice is
    dominated by the (0, 1 - H2(p)) corner already in the degraded pair's
    region, which settles that the union of slices adds nothing above it.
    """
    grid = np.asarray(alpha_grid, dtype=float)
    vals = binary_entropy(binary_convolve(params.p1, grid)) \
        - binary_entropy(binary_convolve(params.p, grid))
    return float(np.min(vals))


def _conditional_entropies(bx, params):
    """(H2(p1 * b), H2(b), H2(p * b)) per conditional b; bx lies in [0, 1]."""
    return (_h2(binary_convolve(params.p1, bx)), _h2(bx),
            _h2(binary_convolve(params.p, bx)))


def _weighted_informations(pq, h1, hx, hz, params, h_p):
    """_mutual_informations from the conditionals' entropies; h_p = H2(p)."""
    w1, wx, wz = (np.einsum("nq,nq->n", pq, h) for h in (h1, hx, hz))
    return 1.0 - w1, (1.0 - params.e2) * (1.0 - wx), wz - h_p


def _mutual_informations(pq, bx, params):
    """(I(Q;Y1), I(Q;Y2), I(X;Z|Q)) for a batch of designs with X uniform."""
    return _weighted_informations(pq, *_conditional_entropies(bx, params),
                                  params, binary_entropy(params.p))


def mrs_gerber_lower(params: BecBscParams, alpha: float) -> tuple:
    """(R2, R1) on the analytic lower boundary of the no-interference-
    decoding region: the output-entropy convexity bound handles the BSC
    branch, the capacity_c1 point, and the erasure branch is linear in
    H2(alpha)."""
    r1, r2 = capacity_c1(params, alpha)
    return r2, np.minimum(r1, (1 - params.e2) * (1 - binary_entropy(alpha)))


def alpha0_solve(params: BecBscParams) -> float:
    """Crossover alpha0 where the two operands of mrs_gerber_lower's R1 min
    coincide: 1 - H2(p1*alpha0) = (1-e2)(1-H2(alpha0)).

    The parameter ordering guarantees a sign change on (0, 0.5): at alpha=0
    the erasure branch is larger (e2 < H2(p1)), near 0.5 the BSC branch
    dominates (e2 > 4p1(1-p1)).  Bisection to width ALPHA0_TOL.
    """
    def gap(alpha):
        return (1 - binary_entropy(binary_convolve(params.p1, alpha))) \
            - (1 - params.e2) * (1 - binary_entropy(alpha))

    lo, f_lo = 0.0, gap(0.0)
    hi = 0.5
    for k in range(1, 40):
        hi = 0.5 - 2.0 ** (-k - 1)
        if gap(hi) > 0:
            break
    else:
        raise ValueError("no sign change found for the crossing alpha")
    if f_lo >= 0:
        raise ValueError("no sign change found for the crossing alpha")
    while hi - lo > ALPHA0_TOL:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
