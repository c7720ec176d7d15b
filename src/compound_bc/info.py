"""Discrete information-theoretic primitives.

Everything works in bits (log base 2) and treats 0*log(0) as 0.  Probability
inputs are validated against a 1e-12 tolerance and rejected on failure rather
than silently renormalized.

Main entry points
-----------------
binary_entropy, binary_convolve, entropy, mutual_information, conditional_mi
Pmf, DMChannel, JointDist, cascade
make_bsc, make_bec, classify_bec_bsc, ChannelOrdering
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

    Crossover probability of two cascaded BSCs.  Vectorized.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = a + b - 2.0 * a * b
    return float(out) if out.ndim == 0 else out


def _check_pmf(p, what="pmf"):
    p = np.asarray(p, dtype=float)
    if np.any(p < -PMF_TOL):
        raise ValueError(f"{what} has a negative entry")
    if abs(p.sum() - 1.0) > PMF_TOL * max(1, p.size):
        raise ValueError(f"{what} does not sum to 1 (got {p.sum()!r})")
    return np.clip(p, 0.0, None)


class Pmf:
    """A 1-D probability mass function with optional symbol labels."""

    def __init__(self, probs, labels=None):
        self.p = _check_pmf(np.atleast_1d(np.asarray(probs, dtype=float)))
        if self.p.ndim != 1:
            raise ValueError("Pmf must be one-dimensional")
        self.labels = list(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != len(self.p):
            raise ValueError("label count does not match support size")

    def __len__(self):
        return len(self.p)

    def entropy(self) -> float:
        return entropy(self.p)

    def to_json(self) -> dict:
        return {"shape": list(self.p.shape), "data": self.p.tolist(),
                "labels": self.labels}

    @classmethod
    def from_json(cls, obj: dict) -> "Pmf":
        return cls(np.asarray(obj["data"]).reshape(obj["shape"]),
                   labels=obj.get("labels"))

    @classmethod
    def uniform(cls, n: int) -> "Pmf":
        return cls(np.full(n, 1.0 / n))


class DMChannel:
    """Discrete memoryless channel: row-stochastic matrix W[x, y] = W(y|x)."""

    def __init__(self, matrix, in_labels=None, out_labels=None):
        W = np.asarray(matrix, dtype=float)
        if W.ndim != 2:
            raise ValueError("channel matrix must be 2-D")
        if np.any(W < -PMF_TOL):
            raise ValueError("channel matrix has a negative entry")
        if np.any(np.abs(W.sum(axis=1) - 1.0) > PMF_TOL * max(1, W.shape[1])):
            raise ValueError("channel rows must each sum to 1")
        self.W = np.clip(W, 0.0, None)
        self.in_labels = list(in_labels) if in_labels is not None else None
        self.out_labels = list(out_labels) if out_labels is not None else None

    @property
    def shape(self):
        return self.W.shape

    def output_dist(self, px) -> Pmf:
        p = px.p if isinstance(px, Pmf) else _check_pmf(px, "input pmf")
        return Pmf(p @ self.W, labels=self.out_labels)

    def to_json(self) -> dict:
        return {"shape": list(self.W.shape), "data": self.W.ravel().tolist(),
                "labels": {"in": self.in_labels, "out": self.out_labels}}

    @classmethod
    def from_json(cls, obj: dict) -> "DMChannel":
        labels = obj.get("labels") or {}
        return cls(np.asarray(obj["data"]).reshape(obj["shape"]),
                   in_labels=labels.get("in"), out_labels=labels.get("out"))


def make_bsc(p: float) -> DMChannel:
    """Binary symmetric channel with crossover p, p in [0, 0.5]."""
    if not 0.0 <= p <= 0.5:
        raise ValueError("BSC crossover must lie in [0, 0.5]")
    return DMChannel([[1 - p, p], [p, 1 - p]],
                     in_labels=[0, 1], out_labels=[0, 1])


def make_bec(e: float) -> DMChannel:
    """Binary erasure channel with erasure probability e, outputs (0, 1, erasure)."""
    if not 0.0 <= e <= 1.0:
        raise ValueError("BEC erasure probability must lie in [0, 1]")
    return DMChannel([[1 - e, 0.0, e], [0.0, 1 - e, e]],
                     in_labels=[0, 1], out_labels=[0, 1, "?"])


def mutual_information(px, channel) -> float:
    """I(X;Y) for input pmf px through a DMChannel (or raw matrix)."""
    p = px.p if isinstance(px, Pmf) else _check_pmf(px, "input pmf")
    W = channel.W if isinstance(channel, DMChannel) else np.asarray(channel, float)
    py = p @ W
    hy = entropy(py)
    hy_given_x = float(np.dot(p, [entropy(row) for row in W]))
    return max(0.0, hy - hy_given_x)


def conditional_mi(pq, joints) -> float:
    """I(A;B|Q) = sum_q p(q) I(A;B|Q=q).

    `joints` has shape (nq, na, nb); joints[q] is the joint pmf of (A, B)
    conditioned on Q=q.
    """
    pq = pq.p if isinstance(pq, Pmf) else _check_pmf(pq, "p(q)")
    joints = np.asarray(joints, dtype=float)
    if joints.ndim != 3 or joints.shape[0] != len(pq):
        raise ValueError("joints must have shape (nq, na, nb)")
    total = 0.0
    for q, w in enumerate(pq):
        if w <= 0:
            continue
        pab = _check_pmf(joints[q], f"joint pmf at q={q}")
        pa = pab.sum(axis=1)
        pb = pab.sum(axis=0)
        total += w * (entropy(pa) + entropy(pb) - entropy(pab))
    return max(0.0, total)


class JointDist:
    """Joint pmf over up to four named finite alphabets.

    Group arguments accept a single name or an iterable of names, so
    I(Q,U ; Y) is `mutual_information(("Q","U"), "Y")`.
    """

    MAX_AXES = 4

    def __init__(self, table, names):
        t = np.asarray(table, dtype=float)
        names = tuple(names)
        if t.ndim != len(names):
            raise ValueError("names must match table dimensions")
        if t.ndim > self.MAX_AXES:
            raise ValueError(f"JointDist supports at most {self.MAX_AXES} variables")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        _check_pmf(t.ravel(), "joint table")
        self.table = np.clip(t, 0.0, None)
        self.names = names

    def _axes(self, group):
        if isinstance(group, str):
            group = (group,)
        axes = []
        for name in group:
            if name not in self.names:
                raise KeyError(f"unknown variable {name!r}")
            axes.append(self.names.index(name))
        return tuple(axes)

    def marginal(self, group) -> "JointDist":
        keep = self._axes(group)
        drop = tuple(i for i in range(self.table.ndim) if i not in keep)
        t = self.table.sum(axis=drop) if drop else self.table
        # reorder axes to follow the requested group order
        order = tuple(sorted(range(len(keep)), key=lambda i: keep[i]))
        inv = tuple(order.index(i) for i in range(len(keep)))
        return JointDist(np.transpose(t, inv), tuple(
            (group,) if isinstance(group, str) else tuple(group)))

    def entropy(self, group, given=()) -> float:
        ga = self._axes(group)
        ca = self._axes(given)
        all_ax = tuple(dict.fromkeys(ga + ca))
        drop = tuple(i for i in range(self.table.ndim) if i not in all_ax)
        joint = self.table.sum(axis=drop) if drop else self.table
        h_joint = entropy(joint)
        if not ca:
            return h_joint
        keep_c = tuple(i for i, ax in enumerate(sorted(all_ax)) if ax in ca)
        drop_g = tuple(i for i in range(joint.ndim) if i not in keep_c)
        h_cond_vars = entropy(joint.sum(axis=drop_g))
        return h_joint - h_cond_vars

    def mutual_information(self, group_a, group_b, given=()) -> float:
        ha = self.entropy(group_a, given)
        hab = self.entropy(tuple(dict.fromkeys(
            self._group_tuple(group_a) + self._group_tuple(group_b))), given)
        hb = self.entropy(group_b, given)
        return max(0.0, ha + hb - hab)

    @staticmethod
    def _group_tuple(group):
        return (group,) if isinstance(group, str) else tuple(group)


def mi_groups(table, names, group_a, group_b, given=()) -> float:
    """I(A;B|C) on a raw joint array of any dimension.

    Unlike JointDist this helper has no axis-count cap; it backs valuation
    sampling where intermediate joints can carry more variables.
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


def cascade(pq, px_given_q, channel) -> JointDist:
    """Joint distribution p(q) p(x|q) W(y|x) over (Q, X, Y)."""
    pq = pq.p if isinstance(pq, Pmf) else _check_pmf(pq, "p(q)")
    pxq = np.asarray(px_given_q, dtype=float)
    if pxq.shape[0] != len(pq):
        raise ValueError("p(x|q) must have one row per q")
    if np.any(np.abs(pxq.sum(axis=1) - 1.0) > PMF_TOL * max(1, pxq.shape[1])):
        raise ValueError("p(x|q) rows must each sum to 1")
    W = channel.W if isinstance(channel, DMChannel) else np.asarray(channel, float)
    table = pq[:, None, None] * pxq[:, :, None] * W[None, :, :]
    return JointDist(table, ("Q", "X", "Y"))


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
