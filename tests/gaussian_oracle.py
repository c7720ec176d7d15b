"""Covariance-determinant oracle for the Gaussian rate tests.

Jointly Gaussian variables are written down as an explicit covariance matrix
and mutual informations taken through log-determinants, never through the
closed forms under test.  Imported by `test_miso`, `test_outer` and
`test_acceptance`; `test_miso::TestGaussianMiOracle` checks it.
"""

import math

import numpy as np

LOG2E = 1.0 / math.log(2.0)


def gaussian_mutual_information(cov, a_indices, b_indices):
    """I(A; B) in bits for jointly Gaussian variables with covariance cov."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be a square matrix")
    scale = max(float(np.max(np.abs(cov))), 1.0)
    if np.max(np.abs(cov - cov.T)) > 1e-9 * scale:
        raise ValueError("covariance must be symmetric")
    if np.min(np.linalg.eigvalsh(cov)) < -1e-9 * scale:
        raise ValueError("covariance must be positive semidefinite")
    a = list(a_indices)
    b = list(b_indices)
    if set(a) & set(b):
        raise ValueError("variable groups must be disjoint")
    sign_a, ld_a = np.linalg.slogdet(cov[np.ix_(a, a)])
    sign_b, ld_b = np.linalg.slogdet(cov[np.ix_(b, b)])
    sign_j, ld_j = np.linalg.slogdet(cov[np.ix_(a + b, a + b)])
    if sign_a <= 0 or sign_b <= 0:
        raise ValueError("marginal covariance blocks must be nonsingular")
    if sign_j <= 0:
        return math.inf  # degenerate joint law, deterministic dependence
    return 0.5 * (ld_a + ld_b - ld_j) * LOG2E
