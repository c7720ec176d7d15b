"""t_a as the upper concave hull of the design curve on an alpha grid.

The body of the former `lines.t_a_hull`, kept as the dense-hull oracle of
the exact t_a that `lines.sample_t_a` evaluates.  phi(alpha) = (x, w) of
the `lines` module docstring is family 1 of `canonical_designs`; each grid
point is achievable, so the hull lies at or below t_a, and it misses t_a
most between grid points near alpha = 0, the more so as p falls.
"""

import numpy as np

from compound_bc.becbsc import capacity_c1
from compound_bc.info import binary_entropy
from compound_bc.lines import _check_weight
from compound_bc.polyhedra import RateCurve2D


def alpha_grid(n, graded=False):
    """n crossovers on [0, 1/2]: uniform, or 0.5 u^2 for a uniform u, which
    spaces them 0.5 / (n - 1)^2 apart at alpha = 0, where small p bends
    the curve most."""
    if graded:
        return 0.5 * np.linspace(0.0, 1.0, n) ** 2
    return np.linspace(0.0, 0.5, n)


def design_curve(a, params, alpha):
    """phi(alpha) = (x, w) at each crossover, from the checked closed
    forms."""
    r1, x = capacity_c1(params, alpha)
    r2 = (1.0 - params.e2) * (1.0 - binary_entropy(alpha))
    return x, a * r1 + (1.0 - a) * r2


def t_a_hull(a, params, n=2001, graded=False):
    """Vertices (x, t_a(x)) of the hull of phi on `alpha_grid(n, graded)`,
    shape (m, 2), with the budget ascending and the rate strictly
    decreasing.  n = 2001, uniform, is the grid `lines` used to read t_a
    off."""
    _check_weight(a)
    samples = np.column_stack(design_curve(a, params, alpha_grid(n, graded)))
    return RateCurve2D.from_samples(samples).hull().points


def hull_at(hull, x):
    """The piecewise-linear hull through its vertices, at budgets x."""
    return np.interp(x, hull[:, 0], hull[:, 1])
