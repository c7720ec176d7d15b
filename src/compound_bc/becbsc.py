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
on it, and `marton_outer_curve` is a size-1 call into it.
"""

from dataclasses import dataclass

import numpy as np

from .info import binary_convolve, binary_entropy
from .polyhedra import NumericRegion2D

DEFAULT_PARAMS = (0.1, 0.13, 0.46)


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


@dataclass(frozen=True)
class AuxDesign:
    """Auxiliary layer: a pmf on Q (at most 4 values) and binary X given Q.

    bx[k] = P(X = 1 | Q = k).  Four Q values suffice for every curve in this
    module, by the usual support-reduction argument on the per-letter
    functionals (output entropies and the input conditional entropy).
    """

    pq: tuple
    bx: tuple

    def __post_init__(self):
        pq = np.asarray(self.pq, dtype=float)
        bx = np.asarray(self.bx, dtype=float)
        if pq.ndim != 1 or not 1 <= pq.size <= 4:
            raise ValueError("pq must hold between 1 and 4 probabilities")
        if bx.shape != pq.shape:
            raise ValueError("bx must supply one conditional per Q value")
        if np.any(pq < -1e-12) or abs(pq.sum() - 1.0) > 1e-9:
            raise ValueError("pq must be a pmf")
        if np.any(bx < -1e-12) or np.any(bx > 1 + 1e-12):
            raise ValueError("bx entries must lie in [0, 1]")
        object.__setattr__(self, "pq", tuple(float(v) for v in pq))
        object.__setattr__(self, "bx", tuple(float(v) for v in bx))

    def x_marginal(self) -> float:
        return float(np.dot(self.pq, self.bx))

    def require_uniform(self, tol=1e-9):
        m = self.x_marginal()
        if abs(m - 0.5) > tol:
            raise ValueError(f"X marginal must be uniform, got P(X=1)={m}")


def _check_alpha(alpha):
    if not 0 <= alpha <= 0.5:
        raise ValueError(f"alpha must lie in [0, 0.5], got {alpha}")


def capacity_c1(params: BecBscParams, alpha: float):
    """Boundary point of the degraded pair (Y1, Z): cloud to Y1, satellite
    to Z.  Returns (R1_max, R2_max) for the given cloud crossover."""
    _check_alpha(alpha)
    r1 = 1 - binary_entropy(binary_convolve(params.p1, alpha))
    r2 = binary_entropy(binary_convolve(params.p, alpha)) \
        - binary_entropy(params.p)
    return r1, r2


def capacity_c2(params: BecBscParams, alpha: float) -> NumericRegion2D:
    """Rate region slice of the pair (Y2, Z), where Y2 is more capable:
    the satellite layer goes to Y2 and the cloud to Z."""
    _check_alpha(alpha)
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    bounds = [
        (1 - params.e2) * binary_entropy(alpha),
        1 - binary_entropy(binary_convolve(params.p, alpha)),
        1 - params.e2,
    ]
    return NumericRegion2D(rows, bounds)


def id_curve(params: BecBscParams, alpha: float) -> NumericRegion2D:
    """Rate region slice achieved when Z and Y2 resolve both streams while
    Y1 sticks to its own: {R1 <= c(alpha), R1 + R2 <= c(alpha) + s(alpha)}."""
    _check_alpha(alpha)
    c = 1 - binary_entropy(binary_convolve(params.p1, alpha))
    s = binary_entropy(binary_convolve(params.p, alpha)) \
        - binary_entropy(params.p)
    return NumericRegion2D(np.array([[1.0, 0.0], [1.0, 1.0]]), [c, c + s])


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


def _mutual_informations(pq, bx, params):
    """(I(Q;Y1), I(Q;Y2), I(X;Z|Q)) for a batch of designs with X uniform."""
    h1 = binary_entropy(binary_convolve(params.p1, bx))
    i_qy1 = 1.0 - np.einsum("nq,nq->n", pq, h1)
    hx = binary_entropy(bx)
    i_qy2 = (1.0 - params.e2) * (1.0 - np.einsum("nq,nq->n", pq, hx))
    hz = binary_entropy(binary_convolve(params.p, bx))
    i_xz_q = np.einsum("nq,nq->n", pq, hz) - binary_entropy(params.p)
    return i_qy1, i_qy2, i_xz_q


def marton_outer_curve(params: BecBscParams, design: AuxDesign) -> tuple:
    """(R1_bound, sum_bound) of the no-interference-decoding outer region
    {R1 <= min_j I(Q;Yj), R1 + R2 <= I(X;Z|Q) + min_j I(Q;Yj)} for one
    explicit uniform-X auxiliary design, a size-1 call into the design
    kernel `_mutual_informations`.
    """
    design.require_uniform()
    i_qy1, i_qy2, i_xz_q = _mutual_informations(
        np.asarray([design.pq]), np.asarray([design.bx]), params)
    r1 = float(min(i_qy1[0], i_qy2[0]))
    return r1, r1 + float(i_xz_q[0])


def mrs_gerber_lower(params: BecBscParams, alpha: float) -> tuple:
    """(R2, R1) on the analytic lower boundary of the no-interference-
    decoding region: the output-entropy convexity bound handles the BSC
    branch and the erasure branch is linear in H2(alpha)."""
    _check_alpha(alpha)
    r2 = binary_entropy(binary_convolve(params.p, alpha)) \
        - binary_entropy(params.p)
    r1 = min(1 - binary_entropy(binary_convolve(params.p1, alpha)),
             (1 - params.e2) * (1 - binary_entropy(alpha)))
    return r2, r1


def alpha0_solve(params: BecBscParams, tol=1e-10) -> float:
    """Crossover alpha0 where the two operands of mrs_gerber_lower's R1 min
    coincide: 1 - H2(p1*alpha0) = (1-e2)(1-H2(alpha0)).

    The parameter ordering guarantees a sign change on (0, 0.5): at alpha=0
    the erasure branch is larger (e2 < H2(p1)), near 0.5 the BSC branch
    dominates (e2 > 4p1(1-p1)).  Bisection to width tol.
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
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
