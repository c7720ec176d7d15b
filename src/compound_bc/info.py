"""Discrete information-theoretic primitives.

Everything works in bits (log base 2) and treats 0*log(0) as 0.  Arguments
of `binary_entropy` are checked against a 1e-12 tolerance and rejected on
failure rather than silently clipped.

Main entry points
-----------------
binary_entropy, binary_convolve, entropy
mi_groups: I(A;B|C) on a joint pmf table of any dimension, the one generic
    information engine
make_bsc, make_bec: row-stochastic channel matrices W[x, y] = W(y|x)
classify_bec_bsc, ChannelOrdering
"""

from __future__ import annotations

import enum
import numpy as np

PMF_TOL = 1e-12


def _xlog2x(p):
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, p * np.log2(p), 0.0)


def entropy(p) -> float:
    """Shannon entropy in bits of a pmf given as an array (any shape)."""
    return float(-_xlog2x(np.asarray(p, dtype=float)).sum())


def binary_entropy(x):
    """h2(x) = -x log2 x - (1-x) log2(1-x), vectorized, h2(0) = h2(1) = 0."""
    x = np.asarray(x, dtype=float)
    if np.any((x < -PMF_TOL) | (x > 1 + PMF_TOL)):
        raise ValueError("binary_entropy argument outside [0, 1]")
    x = np.clip(x, 0.0, 1.0)
    out = -_xlog2x(x) - _xlog2x(1.0 - x)
    return float(out) if out.ndim == 0 else out


def binary_convolve(a, b):
    """Binary convolution a * b = a(1-b) + b(1-a).

    Crossover probability of two BSCs in series.  Vectorized.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = a + b - 2.0 * a * b
    return float(out) if out.ndim == 0 else out


def make_bsc(p: float) -> np.ndarray:
    """Binary symmetric channel with crossover p, p in [0, 0.5]."""
    if not 0.0 <= p <= 0.5:
        raise ValueError("BSC crossover must lie in [0, 0.5]")
    return np.array([[1 - p, p], [p, 1 - p]], dtype=float)


def make_bec(e: float) -> np.ndarray:
    """Binary erasure channel with erasure probability e, outputs (0, 1, erasure)."""
    if not 0.0 <= e <= 1.0:
        raise ValueError("BEC erasure probability must lie in [0, 1]")
    return np.array([[1 - e, 0.0, e], [0.0, 1 - e, e]], dtype=float)


def mi_groups(table, names, group_a, group_b, given=()) -> float:
    """I(A;B|C) on a raw joint array of any dimension.

    `names` labels the axes of `table`; each group is one name or an
    iterable of names, and I(A;A|C) = H(A|C).  Every information atom the
    package evaluates on an explicit joint pmf goes through here.
    """
    names = list(names)

    def axes(group):
        group = (group,) if isinstance(group, str) else tuple(group)
        return tuple(names.index(g) for g in group)

    t = np.asarray(table, dtype=float)

    def h(axset):
        drop = tuple(i for i in range(t.ndim) if i not in axset)
        return entropy(t.sum(axis=drop) if drop else t)

    a, b, c = set(axes(group_a)), set(axes(group_b)), set(axes(given))
    a -= c
    b -= c
    val = h(a | c) + h(b | c) - h(a | b | c) - (h(c) if c else 0.0)
    return max(0.0, val)


class ChannelOrdering(enum.Enum):
    """How BEC(e) compares with BSC(p) as e grows, interval by interval."""

    BSC_DEGRADED_OF_BEC = "bsc degraded with respect to bec"
    BEC_LESS_NOISY_BSC = "bec less noisy than bsc"
    BEC_MORE_CAPABLE_BSC = "bec more capable than bsc"
    BSC_ESS_LESS_NOISY_BEC = "bsc essentially less noisy than bec"


def classify_bec_bsc(p: float, e: float) -> ChannelOrdering:
    """Classify the BEC(e) vs BSC(p) ordering by which interval e falls in.

    Interval endpoints follow the standard comparison: [0, 2p], then
    (2p, 4p(1-p)], then (4p(1-p), h2(p)], then (h2(p), 1].  Each boundary
    value classifies with the interval to its left.
    """
    if not 0.0 < p < 0.5:
        raise ValueError("BSC crossover must lie in (0, 0.5)")
    if not 0.0 <= e <= 1.0:
        raise ValueError("BEC erasure probability must lie in [0, 1]")
    if e <= 2 * p:
        return ChannelOrdering.BSC_DEGRADED_OF_BEC
    if e <= 4 * p * (1 - p):
        return ChannelOrdering.BEC_LESS_NOISY_BSC
    if e <= binary_entropy(p):
        return ChannelOrdering.BEC_MORE_CAPABLE_BSC
    return ChannelOrdering.BSC_ESS_LESS_NOISY_BEC
