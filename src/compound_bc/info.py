"""Discrete information-theoretic primitives.

Everything works in bits (log base 2) and treats 0*log(0) as 0.  Arguments
of `binary_entropy` are checked against a 1e-12 tolerance and rejected on
failure rather than silently clipped; hot loops whose arguments lie in
[0, 1] by construction call its unchecked kernel `_h2` instead.

Main entry points
-----------------
binary_entropy, binary_convolve, entropy
mi_groups: I(A;B|C) on a joint pmf table of any dimension, the one generic
    information engine
make_bsc, make_bec: row-stochastic channel matrices W[x, y] = W(y|x)
"""

from __future__ import annotations

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
    if not np.all((x >= -PMF_TOL) & (x <= 1 + PMF_TOL)):  # NaN fails too
        raise ValueError("binary_entropy argument outside [0, 1]")
    out = _h2(np.clip(x, 0.0, 1.0))
    return float(out) if out.ndim == 0 else out


def _h2(x):
    """Unchecked h2 of a float array whose entries lie in [0, 1]."""
    return -_xlog2x(x) - _xlog2x(1.0 - x)


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

