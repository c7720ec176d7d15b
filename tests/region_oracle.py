"""Point tests against a numeric region, for the tests only.

`polyhedra.NumericRegion` is {x : A x <= b} intersected with its box, and
the package only enumerates its vertices.  These two functions test points
against every row directly, an independent route to the same region.
Imported by `test_polyhedra`, `test_becbsc`, `test_idregions` and
`test_acceptance`.
"""

import numpy as np

from compound_bc.polyhedra import VERTEX_TOL


def feasible(region, pts, tol=VERTEX_TOL):
    """Per point, whether every row, box rows included, holds within tol."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.all(pts @ region.A.T <= region.b + tol, axis=1)


def violation(region, pts):
    """Per point, the most any row, box rows included, is exceeded by."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.max(pts @ region.A.T - region.b, axis=1)
