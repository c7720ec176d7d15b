"""Symbolic rate-region inequality systems and 2-D polyhedral geometry.

A RegionSystem is a list of linear inequalities over named rate variables,
whose right-hand sides are exact-rational combinations of opaque information
atoms (strings like "I(U;Y1|Q)" or "H(X|Q)").  Fourier-Motzkin elimination is
carried out over Fractions so projections are exact; geometry only happens
after `instantiate` plugs numeric values into the atoms.

Numeric regions are always intersected with the box [0, BOX]^d, so vertex
enumeration never has to deal with unbounded polyhedra.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .info import mi_groups

BOX = 50.0
VERTEX_TOL = 1e-9
VERTEX_CHUNK = 256  # row combinations per stacked det/solve in vertices
PRUNE_TOL = 1e-7

F0 = Fraction(0)
F1 = Fraction(1)


class EmptyRegionError(ValueError):
    """Raised when a numeric region has no feasible point."""


def _frac(x) -> Fraction:
    # Fraction(Fraction) builds a new object, which every FME row operation
    # would pay for
    return x if isinstance(x, Fraction) else Fraction(x)


class InfoExpr:
    """Exact-rational linear combination of info atoms plus a constant."""

    __slots__ = ("coeffs", "const", "_floats")

    def __init__(self, coeffs=None, const=0):
        # filter on the converted value: JSON writes a zero as the string "0"
        self.coeffs = {a: f for a, c in (coeffs or {}).items() if (f := _frac(c))}
        self.const = _frac(const)
        self._floats = None

    @classmethod
    def atom(cls, name, coeff=1) -> "InfoExpr":
        return cls({name: coeff})

    def __add__(self, other):
        if not isinstance(other, InfoExpr):
            return InfoExpr(self.coeffs, self.const + _frac(other))
        coeffs = dict(self.coeffs)
        for a, c in other.coeffs.items():
            coeffs[a] = coeffs.get(a, F0) + c
        return InfoExpr(coeffs, self.const + other.const)

    def __sub__(self, other):
        return self + (other * -1 if isinstance(other, InfoExpr)
                       else InfoExpr(const=-_frac(other)))

    def __mul__(self, k):
        k = _frac(k)
        return InfoExpr({a: c * k for a, c in self.coeffs.items()}, self.const * k)

    __rmul__ = __mul__

    def evaluate(self, values: dict) -> float:
        # the float coefficients are made on the first valuation and kept
        if self._floats is None:
            self._floats = (float(self.const),
                            tuple(map(float, self.coeffs.values())))
        total, floats = self._floats
        for a, c in zip(self.coeffs, floats):
            total += c * values[a]
        return total

    def key(self):  # (numerator, denominator) ints hash faster than Fractions
        return (tuple(sorted((a, c.numerator, c.denominator)
                             for a, c in self.coeffs.items())),
                self.const.numerator, self.const.denominator)

    def __repr__(self):
        parts = [f"{c}*{a}" for a, c in sorted(self.coeffs.items())]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


@dataclass
class LinIneq:
    """sum_v lhs[v] * v  (<= or <)  rhs, with rhs an InfoExpr."""

    lhs: dict
    rel: str
    rhs: InfoExpr

    def __post_init__(self):
        self.lhs = {v: f for v, c in self.lhs.items() if (f := _frac(c))}
        self._float_lhs = None  # made by `float_row` on first use
        if self.rel not in ("<=", "<"):
            raise ValueError(f"relation must be '<=' or '<', got {self.rel!r}")
        if not isinstance(self.rhs, InfoExpr):
            self.rhs = InfoExpr(const=self.rhs)

    def float_row(self, rate_vars) -> list:
        """The lhs coefficients of `rate_vars` as floats (0.0 if absent);
        each Fraction is converted once per row, not once per valuation."""
        if self._float_lhs is None:
            self._float_lhs = tuple(map(float, self.lhs.values()))
        floats = dict(zip(self.lhs, self._float_lhs))
        return [floats.get(v, 0.0) for v in rate_vars]

    def scaled(self, k) -> "LinIneq":
        k = _frac(k)
        if k <= 0:
            raise ValueError("inequalities may only be scaled by positive factors")
        if k == 1:
            return self  # rows are never mutated, so the row is its own copy
        return LinIneq({v: c * k for v, c in self.lhs.items()}, self.rel,
                       self.rhs * k)

    def normalized(self) -> "LinIneq":
        """Scale so the first nonzero coefficient (vars, then atoms) is +-1."""
        for _, c in sorted(self.lhs.items()):
            return self.scaled(F1 / abs(c))
        for _, c in sorted(self.rhs.coeffs.items()):
            return self.scaled(F1 / abs(c))
        if self.rhs.const != 0:
            return self.scaled(F1 / abs(self.rhs.const))
        return self

    def __repr__(self):
        lhs = " + ".join(f"{c}*{v}" for v, c in sorted(self.lhs.items())) or "0"
        return f"{lhs} {self.rel} {self.rhs!r}"


def ineq(lhs, rel, rhs) -> LinIneq:
    """Convenience builder: ineq({'R1':1,'R2':1}, '<=', expr_or_atom_name)."""
    if isinstance(rhs, str):
        rhs = InfoExpr.atom(rhs)
    return LinIneq(lhs, rel, rhs)


@dataclass
class RegionSystem:
    rate_vars: list
    ineqs: list = field(default_factory=list)

    def __post_init__(self):
        if len(set(self.rate_vars)) != len(self.rate_vars):
            raise ValueError("rate variables must be distinct")
        for iq in self.ineqs:
            unknown = set(iq.lhs) - set(self.rate_vars)
            if unknown:
                raise ValueError(f"inequality uses unknown rate vars {unknown}")
            if "const" in iq.rhs.coeffs:
                raise ValueError("atom name 'const' is reserved")

    def atoms(self) -> list:
        seen = {}
        for iq in self.ineqs:
            for a in iq.rhs.coeffs:
                seen[a] = None
        return list(seen)

    def conjoin(self, other: "RegionSystem") -> "RegionSystem":
        merged = list(self.rate_vars)
        merged += [v for v in other.rate_vars if v not in merged]
        return RegionSystem(merged, _dedupe(self.ineqs + other.ineqs)[0])

    def to_json(self) -> dict:
        return {
            "rate_vars": list(self.rate_vars),
            "atoms": self.atoms(),
            "ineqs": [
                {
                    "lhs": {v: str(c) for v, c in sorted(iq.lhs.items())},
                    "rel": iq.rel,
                    "rhs": dict(
                        {a: str(c) for a, c in sorted(iq.rhs.coeffs.items())},
                        const=str(iq.rhs.const)),
                }
                for iq in self.ineqs
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RegionSystem":
        if not (isinstance(obj.get("rate_vars"), list)
                and isinstance(obj.get("ineqs"), list)):
            raise ValueError("a region system needs 'rate_vars' and 'ineqs'"
                             " lists")
        for v in obj["rate_vars"]:
            if not isinstance(v, str):
                raise ValueError(f"rate variable {v!r} in 'rate_vars' must be"
                                 " a string")
        ineqs = []
        for row in obj["ineqs"]:
            if not (isinstance(row, dict) and isinstance(row.get("lhs"), dict)
                    and isinstance(row.get("rhs", {}), dict)):
                raise ValueError(f"inequality {row!r} needs 'lhs' and 'rhs'"
                                 " objects")
            if "rel" not in row:
                raise ValueError(f"inequality {row!r} needs a 'rel' field")
            bad = [v for v in row["lhs"] if not isinstance(v, str)]
            if bad:
                raise ValueError(f"inequality {row!r} has non-string 'lhs'"
                                 f" key {bad[0]!r}")
            rhs = dict(row.get("rhs", {}))
            const = rhs.pop("const", "0")
            ineqs.append(LinIneq({v: Fraction(c) for v, c in row["lhs"].items()},
                                 row["rel"], InfoExpr(rhs, const)))
        return cls(list(obj["rate_vars"]), ineqs)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)

    @classmethod
    def load(cls, path) -> "RegionSystem":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _dedupe(ineqs, masks=None):
    """Drop exact duplicates; of a <=/< pair on the same row keep the strict one.

    Returns (rows, masks), with one ancestor bitmask per row (0s when no
    masks are given).  A merged row keeps only the ancestors common to all
    its copies: any one copy's history may be the one a later combination
    needs to stay within Chernikov's bound, and keeping the smaller whole
    history instead can drop a row the projection needs.
    """
    best = {}
    for iq, mask in zip(ineqs, masks or itertools.repeat(0)):
        n = iq.normalized()
        k = (tuple(sorted((v, c.numerator, c.denominator)
                          for v, c in n.lhs.items())), n.rhs.key())
        kept = best.get(k)
        if kept is None:
            best[k] = (n, mask)
        else:
            row = n if n.rel == "<" and kept[0].rel == "<=" else kept[0]
            best[k] = (row, kept[1] & mask)
    return [n for n, _ in best.values()], [m for _, m in best.values()]


def _is_trivial(iq: LinIneq) -> bool:
    """Constant rows that always hold: 0 <= c with c >= 0 (or 0 < c, c > 0)."""
    if iq.lhs or iq.rhs.coeffs:
        return False
    return iq.rhs.const > 0 or (iq.rhs.const == 0 and iq.rel == "<=")


def _ancestry(system: RegionSystem):
    """(ancestor masks, variables eliminated) of the system's rows.

    Only a system that `fme_eliminate` returned, with its row list as built,
    carries a history; any other starts a new elimination sequence, in which
    row i is its own sole ancestor.
    """
    rows, masks, eliminated = getattr(system, "_fme_ancestry", ((), (), 0))
    if len(rows) == len(system.ineqs) and all(map(operator.is_, rows,
                                                  system.ineqs)):
        return masks, eliminated
    return [1 << i for i in range(len(system.ineqs))], 0


def fme_eliminate(system: RegionSystem, var) -> RegionSystem:
    """Project `var` out by Fourier-Motzkin elimination (exact rationals).

    Pairs every upper bound on var with every lower bound; a strict relation
    on either side makes the combination strict.  Combinations that always
    hold (constant rows) are dropped, and so are the ones Chernikov's rule
    proves redundant: each row carries the rows of the sequence's first
    system it was combined from (for a merged duplicate, those all its
    copies share), and after k eliminations a combination of more than
    k + 1 of them is implied by the others
    (Chernikov 1965; Imbert, "Fourier's elimination: which to choose?",
    1993).  The histories ride along on the returned system, so calling
    this once per variable prunes across the whole sequence.
    """
    if var not in system.rate_vars:
        raise KeyError(f"unknown rate variable {var!r}")
    masks, eliminated = _ancestry(system)
    eliminated += 1
    uppers, lowers, frees = [], [], []
    for iq, mask in zip(system.ineqs, masks):
        c = iq.lhs.get(var, F0)
        if c > 0:
            uppers.append((iq.scaled(F1 / c), mask))
        elif c < 0:
            lowers.append((iq.scaled(F1 / -c), mask))
        else:
            frees.append((iq, mask))
    combos = []
    for up, up_mask in uppers:
        for lo, lo_mask in lowers:
            mask = up_mask | lo_mask
            if mask.bit_count() > eliminated + 1:
                continue
            lhs = dict(up.lhs)
            for v, c in lo.lhs.items():
                lhs[v] = lhs.get(v, F0) + c
            lhs.pop(var, None)
            rel = "<" if "<" in (up.rel, lo.rel) else "<="
            row = LinIneq(lhs, rel, up.rhs + lo.rhs)
            if _is_trivial(row):
                continue
            combos.append((row, mask))
    kept = frees + combos
    rows, masks = _dedupe([iq for iq, _ in kept], [m for _, m in kept])
    out = RegionSystem([v for v in system.rate_vars if v != var], rows)
    out._fme_ancestry = (tuple(rows), masks, eliminated)
    return out


def fme_eliminate_all(system: RegionSystem, variables) -> RegionSystem:
    # per-variable calls through the module, so a wrapped fme_eliminate sees
    # every step; the ancestry each step returns feeds the next
    for v in variables:
        system = fme_eliminate(system, v)
    return system


def substitute_rates(system: RegionSystem, mapping: dict, new_vars=None,
                     aux=()) -> RegionSystem:
    """Rewrite rates under a linear substitution and adjoin aux constraints.

    mapping: old var -> dict of {new var: coeff} (a missing old var maps to
    itself, an empty dict to zero).  new_vars defaults to the variables the
    substitution produces; aux inequalities are stated over the new
    variables.
    """
    resolved = {}
    for old in system.rate_vars:
        if old in mapping:
            resolved[old] = {v: _frac(c) for v, c in mapping[old].items()}
        else:
            resolved[old] = {old: F1}
    if new_vars is None:
        new_vars = list(dict.fromkeys(v for form in resolved.values()
                                      for v in form))
    out = []
    for iq in system.ineqs:
        lhs = {}
        for old, c in iq.lhs.items():
            for v, k in resolved[old].items():
                lhs[v] = lhs.get(v, F0) + c * k
        out.append(LinIneq(lhs, iq.rel, iq.rhs))
    out.extend(aux)
    return RegionSystem(list(new_vars), _dedupe(out)[0])


# ---------------------------------------------------------------------------
# numeric geometry


class NumericRegion:
    """Closed polyhedron {x : A x <= b} intersected with [0, BOX]^d."""

    def __init__(self, var_names, A, b, box=BOX):
        self.var_names = list(var_names)
        d = len(self.var_names)
        A = np.asarray(A, dtype=float).reshape(-1, d)
        b = np.asarray(b, dtype=float).ravel()
        eye = np.eye(d)
        self.A = np.vstack([A, -eye, eye])
        self.b = np.concatenate([b, np.zeros(d), np.full(d, box)])
        self.n_rows = len(A)  # rows before the implicit box block

    @property
    def dim(self):
        return len(self.var_names)

    def vertices(self, tol=VERTEX_TOL):
        """All basic feasible points (dimension <= 3 only).

        Every d-subset of rows, in `itertools.combinations` order, is a
        candidate basis.  The nonsingular ones depend on A alone: `_bases`
        finds them once per A, keyed by its bytes and shape, and keeps their
        int32 row indices, 8 bytes per basis in 2-D.  A call solves them
        VERTEX_CHUNK at a time, in one batched `solve` and one product
        against all rows that keeps the feasible points.  `det` and `solve`
        make the same LAPACK call on a stacked matrix as on a lone one, so
        the points, and their order, are bit-identical to solving the
        subsets one at a time.  The stacked feasibility product, and the
        distances by which a kept point drops the later ones within 10 tol,
        may round differently in the last bit, which matters only for a
        point that far from `tol`.  A call works in O(VERTEX_CHUNK * m) floats
        for m rows, box rows included; a miss builds all C(m, d) candidates
        as int32, and the cache keeps up to 6 A and their bases while the
        process lives.
        """
        d = self.dim
        if d > 3:
            raise NotImplementedError("vertex enumeration is limited to <= 3 dims")
        bases = _bases(self.A.tobytes(), self.A.shape)
        found = []
        for start in range(0, len(bases), VERTEX_CHUNK):
            rows = bases[start:start + VERTEX_CHUNK]
            v = np.linalg.solve(self.A[rows], self.b[rows][..., None])[..., 0]
            found.append(v[np.all(v @ self.A.T <= self.b + tol, axis=1)])
        verts = np.concatenate(found)  # the 2d box rows give >= 1 basis
        if not len(verts):
            raise EmptyRegionError("region has no feasible vertex")
        keep = []
        while len(verts):  # the first point left is kept, and drops its near ones
            keep.append(verts[0])
            verts = verts[1:][~(np.linalg.norm(verts[1:] - verts[0], axis=1)
                                <= 10 * tol)]
        return np.array(keep)


@functools.lru_cache(maxsize=6)
def _bases(key, shape):
    """Row indices of A's nonsingular d-subsets, A = frombuffer(key).

    The (C(m, d), d) int32 candidates are built in combinations order and
    `det` drops the singular ones VERTEX_CHUNK at a time; bases do not
    depend on the chunk size.  A fme-project pass uses 6 distinct A.
    """
    A = np.frombuffer(key).reshape(shape)
    m, d = shape
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m), d)),
        dtype=np.int32, count=math.comb(m, d) * d).reshape(-1, d)
    chunks = [combos[s:s + VERTEX_CHUNK] for s in range(0, len(combos), VERTEX_CHUNK)]
    bases = np.concatenate([c[~(np.abs(np.linalg.det(A[c])) < 1e-12)] for c in chunks])
    bases.flags.writeable = False  # shared by every call on this A
    return bases


def instantiate(system: RegionSystem, values: dict) -> NumericRegion:
    """Evaluate atoms and produce a numeric region (strict rows are closed)."""
    rows, bounds = [], []
    for iq in system.ineqs:
        rows.append(iq.float_row(system.rate_vars))
        bounds.append(iq.rhs.evaluate(values))
    return NumericRegion(system.rate_vars, rows, bounds)


def vertices_2d(region: NumericRegion, tol=VERTEX_TOL):
    """CCW-ordered vertices of a 2-D region, collinear points removed."""
    if region.dim != 2:
        raise ValueError("vertices_2d needs a two-variable region")
    verts = region.vertices(tol=tol)
    center = verts.mean(axis=0)
    angles = np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0])
    verts = verts[np.argsort(angles, kind="stable")]
    if len(verts) > 2:
        keep = []
        n = len(verts)
        for i in range(n):
            a, bv, c = verts[i - 1], verts[i], verts[(i + 1) % n]
            cross = (bv[0] - a[0]) * (c[1] - a[1]) - (bv[1] - a[1]) * (c[0] - a[0])
            if abs(cross) > tol:
                keep.append(bv)
        if keep:
            verts = np.array(keep)
    return verts


@dataclass
class ContainsReport:
    contained: bool
    max_violation: float


class RateCurve2D:
    """Pareto boundary of a two-user rate region, held as sampled points.

    ``points`` is an (n, 2) array sorted by R1 ascending with R2 strictly
    decreasing; every sample that some other sample dominates is dropped at
    construction.  With ``interp="staircase"`` the region is the union of the
    axis-aligned boxes below the points, i.e. exactly what the samples
    certify.  With ``interp="linear"`` consecutive points are joined by
    segments, which adds the time-sharing closure.

    ``meta`` optionally carries one record per surviving point (for example
    the scheme parameters that achieved it).
    """

    def __init__(self, points, interp="staircase", meta=None):
        if interp not in ("staircase", "linear"):
            raise ValueError("interp must be 'staircase' or 'linear'")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array")
        self.points = pts
        self.interp = interp
        self.meta = list(meta) if meta is not None else None
        if self.meta is not None and len(self.meta) != len(pts):
            raise ValueError("meta must align with points")

    @classmethod
    def from_samples(cls, samples, meta=None):
        """Build the curve from raw (R1, R2) samples, keeping the Pareto set
        of the samples clamped at zero; a NaN coordinate drops its sample,
        and a ValueError is raised if that drops them all."""
        pts = np.atleast_2d(np.asarray(samples, dtype=float))
        if pts.size == 0:
            pts = np.zeros((1, 2))
        pts = np.maximum(pts, 0.0)
        order = np.lexsort((-pts[:, 1], -pts[:, 0]))  # R1 desc, then R2 desc
        order = order[~np.isnan(pts[order, 0])]
        # only a record setter (R2 above every earlier one; fmax skips NaN)
        # can be kept, and it is when it clears the last kept R2 by 1e-15
        r2 = pts[order, 1]
        setters = r2 > np.fmax.accumulate(np.concatenate([[-np.inf], r2[:-1]]))
        keep, best_r2 = [], -math.inf
        for i, v in zip(order[setters].tolist(), r2[setters].tolist()):
            if v > best_r2 + 1e-15:
                keep.append(i)
                best_r2 = v
        if not keep:
            raise ValueError("every sample has a NaN coordinate")
        keep.reverse()  # back to R1 ascending
        kept_meta = None
        if meta is not None:
            meta = list(meta)
            if len(meta) != len(pts):
                raise ValueError("meta must align with samples")
            kept_meta = [meta[i] for i in keep]
        return cls(pts[keep], meta=kept_meta)

    @property
    def r1_max(self):
        return float(self.points[-1, 0])

    @property
    def r2_max(self):
        return float(self.points[0, 1])

    def r2_at(self, r1):
        """Largest R2 the region offers at first-user rate r1 (0 beyond it)."""
        r1 = np.asarray(r1, dtype=float)
        xs, ys = self.points[:, 0], self.points[:, 1]
        if self.interp == "linear":
            out = np.interp(r1, xs, ys, left=ys[0], right=0.0)
            out = np.where(r1 > xs[-1], 0.0, out)
        else:
            idx = np.searchsorted(xs, r1, side="left")
            padded = np.append(ys, 0.0)
            out = padded[np.clip(idx, 0, len(ys))]
        return out if out.ndim else float(out)

    def violation(self, pts):
        """Signed infeasibility of each query point (<= 0 means inside)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.interp == "linear":
            slack_r2 = pts[:, 1] - self.r2_at(pts[:, 0])
            slack_r1 = pts[:, 0] - self.r1_max
            return np.where(slack_r1 > 0.0,
                            np.maximum(slack_r2, slack_r1), slack_r2)
        # box-union region: the least over the samples i of
        # max(q1 - s1_i, q2 - s2_i).  Along the staircase q1 - s1_i falls
        # and q2 - s2_i rises, so the least maximum is the smaller of
        # q1 - s1_{k-1} and q2 - s2_k at the first k where q2 - s2_k >=
        # q1 - s1_k; a bisection finds k from the same float differences
        s1, s2 = self.points[:, 0], self.points[:, 1]
        q1, q2 = pts[:, 0], pts[:, 1]
        n = len(s1)
        k = np.zeros(len(pts), dtype=np.intp)
        step = 1 << (n.bit_length() - 1)
        while step:
            last = np.minimum(k + step, n) - 1
            below = (k + step <= n) & (q2 - s2[last] < q1 - s1[last])
            k = np.where(below, k + step, k)
            step >>= 1
        before = np.where(k > 0, q1 - s1[np.maximum(k - 1, 0)], np.inf)
        after = np.where(k < n, q2 - s2[np.minimum(k, n - 1)], np.inf)
        return np.where(np.isnan(pts).any(axis=1), np.nan,
                        np.minimum(before, after))

    def contains(self, other, tol=1e-9) -> ContainsReport:
        """Does this region contain the other curve's points (within tol)?"""
        pts = other.points if isinstance(other, RateCurve2D) else other
        worst = float(np.max(self.violation(pts)))
        return ContainsReport(worst <= tol, worst)

    def hull(self):
        """Time-sharing closure: the upper concave hull as a linear curve.

        One right-to-left upper chain (A. M. Andrew, Inf. Proc. Letters 1979)
        over the Pareto points, then the anchor (0, r2_max); a lower chain
        would hold only (0, 0) and (r1_max, 0), which the points dominate.
        The anchor is dropped where it ties the R2 before it (within 1e-15).
        Meta is looked up by float pair, so an anchor on the first point
        keeps its meta and one that rounding made a vertex gets None.
        """
        pts = self.points.tolist()
        r2_max = pts[0][1]
        chain = [pts[-1]]
        for b in pts[-2::-1] + [[0.0, r2_max]]:
            while len(chain) > 1:  # pop while (o, a, b) makes no left turn
                (xo, yo), (xa, ya) = chain[-2], chain[-1]
                if not (xa - xo) * (b[1] - yo) - (ya - yo) * (b[0] - xo) <= 0:
                    break
                chain.pop()
            chain.append(b)
        if not r2_max > chain[-2][1] + 1e-15:
            chain.pop()
        chain.reverse()
        lookup = dict(zip(map(tuple, pts), self.meta or ()))
        meta = None if self.meta is None else [lookup.get(tuple(v)) for v in chain]
        return RateCurve2D(np.array(chain), interp="linear", meta=meta)


# ---------------------------------------------------------------------------
# consistent valuations and redundancy pruning


_ATOM_RE = re.compile(r"^(I|H)\((.+)\)$")
# the variable every channel output in a valuation is generated from
INPUT_VAR = "X"


def parse_atom(name: str):
    """Parse 'I(A;B|C)' / 'H(A|C)' into (kind, groups...) of variable tuples."""
    m = _ATOM_RE.match(name.strip())
    if not m:
        raise ValueError(f"cannot parse atom {name!r}")
    kind, inner = m.groups()
    cond = ""
    if "|" in inner:
        inner, cond = inner.split("|", 1)
    groups = inner.split(";")
    if (kind == "I" and len(groups) != 2) or (kind == "H" and len(groups) != 1):
        raise ValueError(f"malformed atom {name!r}")

    def split(g):
        out = tuple(v.strip() for v in g.split(",") if v.strip())
        if not out:
            raise ValueError(f"empty variable group in {name!r}")
        return out

    parsed = tuple(split(g) for g in groups)
    return (kind,) + parsed + (tuple(
        v.strip() for v in cond.split(",") if v.strip()),)


def atom_variables(atoms):
    """All variable names appearing in the given atoms, in first-seen order."""
    names = []
    for a in atoms:
        for grp in parse_atom(a)[1:]:
            for v in grp:
                if v not in names:
                    names.append(v)
    return names


def atom_values(atoms, source_table, source_names, channels=None) -> dict:
    """Evaluate info atoms on a joint source pmf, with channel outputs.

    `source_table` is a joint pmf over `source_names`; any atom variable in
    `channels` is generated from the input X through the given channel matrix
    (conditionally independent of everything else given the input).  Axes in
    front of the named ones stack pmfs, and give each atom an array.
    """
    parsed = {a: parse_atom(a) for a in atoms}
    channels = channels or {}
    table = np.asarray(source_table, dtype=float)
    order = list(source_names)
    lead = table.ndim - len(order)
    needed = [v for v in atom_variables(atoms) if v not in order]
    for v in needed:
        if v not in channels:
            raise KeyError(f"atom variable {v!r} is neither a source nor a channel output")
        W = np.asarray(channels[v], dtype=float)
        x_ax = lead + order.index(INPUT_VAR)
        moved = np.moveaxis(table, x_ax, -1)
        moved = moved[..., :, None] * W
        table = np.moveaxis(moved, -2, x_ax)
        order.append(v)
    values = {}
    for a, p in parsed.items():
        if p[0] == "I":
            _, ga, gb, cond = p
            values[a] = mi_groups(table, order, ga, gb, cond)
        else:
            _, ga, cond = p
            values[a] = mi_groups(table, order, ga, ga, cond)  # I(A;A|C) = H(A|C)
    return values


def sample_valuations(atoms, rng, n, channels=None) -> list:
    """n random atom valuations consistent with Shannon identities.

    The n joint pmfs over all source variables are one `rng.dirichlet` call
    over the product of binary alphabets, bit for bit n sequential draws.
    Variables listed in `channels` are generated from the input X through
    the given channel matrices, so each valuation also respects that Markov
    structure.  Atoms must parse via `parse_atom`.
    """
    channels = channels or {}
    names = atom_variables(atoms)
    src = [v for v in names if v not in channels]
    if len(src) < len(names) and INPUT_VAR not in src:
        src.append(INPUT_VAR)
    tables = rng.dirichlet(np.ones(2 ** len(src)), size=n)
    values = atom_values(atoms, tables.reshape((n,) + (2,) * len(src)), src,
                         channels=channels)
    columns = {a: v.tolist() for a, v in values.items()}
    return [{a: v[i] for a, v in columns.items()} for i in range(n)]


def prune_redundant(system: RegionSystem, valuations):
    """Drop inequalities that are slack at every vertex of every valuation.

    Valuations whose region is empty say nothing about which rows matter;
    when every valuation is empty, all rows are kept, so the pruned system
    stays empty rather than growing to the whole box.

    Returns (pruned system, kept-row indices).
    """
    active = set()
    sampled = False
    for values in valuations:
        region = instantiate(system, values)
        try:
            verts = region.vertices()
        except EmptyRegionError:
            continue
        sampled = True
        slack = region.b[:region.n_rows, None] - region.A[:region.n_rows] @ verts.T
        active.update(np.flatnonzero(slack.min(axis=1) <= PRUNE_TOL).tolist())
    kept = sorted(active) if sampled else list(range(len(system.ineqs)))
    return RegionSystem(list(system.rate_vars),
                        [system.ineqs[i] for i in kept]), kept
