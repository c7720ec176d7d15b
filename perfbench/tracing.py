"""Span tracer for the traced benchmark run.

Spans (id, parent id, name, start, end, counters) are recorded around the
package's public calls by patching each name where its caller looks it up,
so the package source stays untouched.  High-frequency leaf calls (the
search objective callbacks, `binary_entropy`, `mi_groups` and the parabola
envelope kernel) are folded into counters on the innermost open span
instead of getting a span each.  Spans stay in memory until `dump`.
"""

import contextlib
import json
import math
import time
from collections import defaultdict

import numpy as np

from compound_bc import becbsc, cli, idregions, lines, miso, polyhedra

clock = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counters")

    def __init__(self, span_id, parent, name):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = clock()
        self.end = None
        self.counters = defaultdict(float)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans while installed; `install`/`uninstall` swap the patches."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self._saved = []

    # -- span bookkeeping -------------------------------------------------

    def open(self, name):
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, name)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span.end = clock()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def fold(self, prefix, seconds, **counts):
        """Add a leaf call to the innermost open span's counters."""
        counters = self.stack[-1].counters
        counters[prefix + ".calls"] += 1
        counters[prefix + ".s"] += seconds
        for key, value in counts.items():
            counters[f"{prefix}.{key}"] += value

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        """Wrap fn in a span; `name` may be a function of the call's args,
        and `after(span, args, kwargs, result)` adds counters."""
        def wrapper(*args, **kwargs):
            with self.span(name(args) if callable(name) else name) as span:
                result = fn(*args, **kwargs)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _folded(self, prefix, fn, size=None):
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            counts = {} if size is None else {"elements": size(args)}
            self.fold(prefix, clock() - t0, **counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _maximize(self, fn):
        tracer = self

        def timed_callback(callback):
            if callback is None:
                return None

            def wrapped(points):
                t0 = clock()
                values = callback(points)
                tracer.fold("search.objective", clock() - t0,
                            rows=len(points))
                return values

            return wrapped

        def maximize(objective, spec, equality=None, **kwargs):
            span = tracer.open("search.maximize")
            span.counters["noise_bytes"] = 8.0 * spec.restarts * spec.iterations
            try:
                return fn(timed_callback(objective), spec,
                          equality=timed_callback(equality), **kwargs)
            except RuntimeError:
                span.counters["failures"] += 1
                raise
            finally:
                tracer.close(span)

        maximize.__wrapped__ = fn
        return maximize

    # -- installation -----------------------------------------------------

    def _patch(self, owner, name, wrapper):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        curve = polyhedra.RateCurve2D
        from_samples = curve.__dict__["from_samples"].__func__

        def count_samples(span, args, kwargs, result):
            samples = args[1] if len(args) > 1 else kwargs["samples"]
            span.counters["samples"] = float(len(samples))

        def count_rows(span, args, kwargs, result):
            span.counters["rows_out"] = float(len(result.ineqs))

        def kept_ratio(span, args, kwargs, result):
            span.counters["rows_in"] = float(len(args[0].ineqs))
            span.counters["rows_kept"] = float(len(result[1]))

        def count_pairs(span, args, kwargs, result):
            span.counters["pairs"] = float(len(result[0]))

        def count_row_pairs(span, args, kwargs, result):
            region = args[0]
            span.counters["row_pairs"] = float(math.comb(len(region.A), region.dim))

        entropy = self._folded("info.binary_entropy", lines.binary_entropy,
                               size=lambda a: np.size(a[0]))
        patches = [
            (lines, "maximize", self._maximize(lines.maximize)),
            (lines, "evaluate_supporting_lines",
             self._spanned("lines.evaluate_supporting_lines",
                           lines.evaluate_supporting_lines)),
            (lines, "sample_t_a",
             self._spanned("lines.sample_t_a", lines.sample_t_a)),
            (lines, "t1_closed", self._spanned("lines.t1_closed", lines.t1_closed)),
            (lines, "t1_inverse", self._spanned("lines.t1_inverse", lines.t1_inverse)),
            (lines, "invert_decreasing",
             self._spanned("lines.invert_decreasing", lines.invert_decreasing)),
            (lines, "binary_entropy", entropy),
            (becbsc, "binary_entropy", entropy),
            (cli, "binary_entropy", entropy),
            (becbsc, "alpha0_solve",
             self._spanned("becbsc.alpha0_solve", becbsc.alpha0_solve)),
            (polyhedra, "mi_groups", self._folded("info.mi_groups", polyhedra.mi_groups)),
            (miso, "_minimax_two_vec",
             self._folded("miso.envelope", miso._minimax_two_vec,
                          size=lambda a: math.prod(
                              np.broadcast_shapes(*(np.shape(x) for x in a))))),
            (cli, "region_boundary",
             self._spanned(lambda args: f"miso.region_boundary.{args[0]}",
                           cli.region_boundary)),
            (cli, "sample_cov_pairs",
             self._spanned("outer.sample_cov_pairs", cli.sample_cov_pairs,
                           after=count_pairs)),
            (cli, "constituent_curves",
             self._spanned("outer.constituent_curves", cli.constituent_curves)),
            (cli, "outer_region",
             self._spanned("outer.outer_region", cli.outer_region)),
            (cli, "prune_redundant",
             self._spanned("polyhedra.prune_redundant", cli.prune_redundant,
                           after=kept_ratio)),
            (cli, "main", self._spanned("cli.main", cli.main)),
            (curve, "from_samples",
             classmethod(self._spanned("polyhedra.RateCurve2D.from_samples",
                                       from_samples, after=count_samples))),
            (curve, "hull",
             self._spanned("polyhedra.RateCurve2D.hull", curve.hull)),
            (polyhedra, "fme_eliminate",
             self._spanned("polyhedra.fme_eliminate", polyhedra.fme_eliminate,
                           after=count_rows)),
            (polyhedra.NumericRegion, "vertices",
             self._spanned("polyhedra.vertices", polyhedra.NumericRegion.vertices,
                           after=count_row_pairs)),
            (idregions, "regions_match",
             self._spanned("idregions.regions_match", idregions.regions_match)),
        ]
        for owner, name, wrapper in patches:
            self._patch(owner, name, wrapper)

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- output -----------------------------------------------------------

    def dump(self, path):
        rows = [{"id": s.id, "parent": s.parent, "name": s.name,
                 "start": s.start, "end": s.end, "counters": dict(s.counters)}
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def subtree(spans, root):
    """The spans under `root` (inclusive), in recording order."""
    inside = {root.id}
    out = [root]
    for span in spans[root.id + 1:]:
        if span.parent in inside:
            inside.add(span.id)
            out.append(span)
    return out


def layer_metrics(spans):
    """Per-layer metrics of one traced pass from the spans under its root."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    counters = defaultdict(float)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            child_time[span.parent] += span.duration
        for key, value in span.counters.items():
            if key.startswith(("search.", "info.", "miso.")):
                counters[key] += value

    def total(name):
        return sum((s.duration for s in by_name[name]), 0.0)

    def self_time(name):
        return sum(s.duration - child_time[s.id] for s in by_name[name])

    def summed(name, key):
        return sum(s.counters[key] for s in by_name[name])

    maximize_s = total("search.maximize")
    objective_s = counters["search.objective.s"]
    objective_rows = counters["search.objective.rows"]
    boundary_s = sum(total(f"miso.region_boundary.{k}") for k in miso.REGION_KINDS)
    rows_in = summed("polyhedra.prune_redundant", "rows_in")
    metrics = {
        "search.maximize.calls": (len(by_name["search.maximize"]), "count"),
        "search.maximize.s": (maximize_s, "s"),
        "search.maximize.overhead_s": (maximize_s - objective_s, "s"),
        "search.objective.calls": (counters["search.objective.calls"], "count"),
        "search.objective.rows": (objective_rows, "count"),
        "search.objective.rows_per_s": (
            objective_rows / objective_s if objective_s else 0.0, "1/s"),
        "search.noise_mb": (max((s.counters["noise_bytes"]
                                 for s in by_name["search.maximize"]),
                                default=0.0) / 1e6, "MB"),
        "search.failures": (summed("search.maximize", "failures"), "count"),
        "lines.evaluate_supporting_lines.self_s": (
            self_time("lines.evaluate_supporting_lines"), "s"),
        "lines.sample_t_a.self_s": (self_time("lines.sample_t_a"), "s"),
        "lines.invert.s": (sum(total(n) for n in (
            "lines.t1_closed", "lines.t1_inverse", "lines.invert_decreasing")), "s"),
        "info.binary_entropy.calls": (counters["info.binary_entropy.calls"], "count"),
        "info.binary_entropy.elements": (
            counters["info.binary_entropy.elements"], "count"),
        "info.binary_entropy.s": (counters["info.binary_entropy.s"], "s"),
        "info.mi_groups.calls": (counters["info.mi_groups.calls"], "count"),
        "info.mi_groups.s": (counters["info.mi_groups.s"], "s"),
        "miso.envelope_solves": (counters["miso.envelope.elements"], "count"),
        "miso.envelope_solves_per_s": (
            counters["miso.envelope.elements"] / boundary_s if boundary_s else 0.0,
            "1/s"),
        "polyhedra.RateCurve2D.from_samples.s": (
            total("polyhedra.RateCurve2D.from_samples"), "s"),
        "polyhedra.RateCurve2D.from_samples.samples": (
            summed("polyhedra.RateCurve2D.from_samples", "samples"), "count"),
        "polyhedra.RateCurve2D.hull.s": (total("polyhedra.RateCurve2D.hull"), "s"),
        "outer.sample_cov_pairs.s": (total("outer.sample_cov_pairs"), "s"),
        "outer.pairs": (summed("outer.sample_cov_pairs", "pairs"), "count"),
        "outer.constituent_curves.s": (total("outer.constituent_curves"), "s"),
        "outer.outer_region.s": (total("outer.outer_region"), "s"),
        "polyhedra.fme_eliminate.s": (total("polyhedra.fme_eliminate"), "s"),
        "polyhedra.fme_eliminate.rows_out": (
            summed("polyhedra.fme_eliminate", "rows_out"), "count"),
        "polyhedra.vertices.calls": (len(by_name["polyhedra.vertices"]), "count"),
        "polyhedra.vertices.s": (total("polyhedra.vertices"), "s"),
        "polyhedra.vertices.row_pairs": (
            summed("polyhedra.vertices", "row_pairs"), "count"),
        "polyhedra.prune_redundant.s": (total("polyhedra.prune_redundant"), "s"),
        "polyhedra.prune_redundant.kept_ratio": (
            summed("polyhedra.prune_redundant", "rows_kept") / rows_in
            if rows_in else 0.0, "ratio"),
        "idregions.regions_match.calls": (
            len(by_name["idregions.regions_match"]), "count"),
        "idregions.regions_match.s": (total("idregions.regions_match"), "s"),
        "cli.main.s": (total("cli.main"), "s"),
    }
    for kind in miso.REGION_KINDS:
        metrics[f"miso.region_boundary.{kind}.s"] = (
            total(f"miso.region_boundary.{kind}"), "s")
    return metrics


def setup_metrics(spans):
    """Per-layer metrics of the set-up phase (spans outside any pass)."""
    return {"becbsc.alpha0_solve.s": (
        sum((s.duration for s in spans if s.name == "becbsc.alpha0_solve"), 0.0),
        "s")}
