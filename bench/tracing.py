"""Span tracing of conedeform's layers, installed from outside the package.

``Tracer.install`` replaces each function named in ``LAYERS`` by a wrapper
that records a span (name, start, end, span id, parent id, job id) and
optional counters.  The wrapper is also bound wherever a module imported
the original under its own name (``cli.t1_graded``, ``cech.invert_chart_map``
and the like), so a call through any of those names is seen.  Spans stay in
memory until ``write`` stores them; ``layer_metrics`` folds them into the
per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# ---------------------------------------------------------------------------
# counters computed from a wrapped call's arguments and result


def _count_row_echelon(counters, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    ech, pivots = result
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    counters["linalg.row_echelon.rows"] += nrows
    counters["linalg.row_echelon.entries"] += nrows * ncols
    counters["linalg.row_echelon.nonzeros"] += sum(
        1 for r in rows for x in r if x != 0)
    counters["linalg.row_echelon.rank"] += len(pivots)


def _count_iterations(counters, args, kwargs, result):
    counters["dbar.solve_beltrami.iterations"] += result.iterations


def _count_points(counters, args, kwargs, result):
    pts = args[1] if len(args) > 1 else kwargs["pts"]
    counters["dbar.transform_at.points"] += len(pts)


def _count_grid(counters, args, kwargs, result):
    grid = args[0]
    counters["dbar.DiskGrid.built"] += 1
    counters["dbar.grid_nodes"] += grid.nrings * grid.radial * grid.angular


# (module, qualified attribute, counter hook, counts calls of the returned
# callable as <name>.evals)
LAYERS = [
    ("cli", "main", None, False),
    ("parsing", "parse_cone_deck", None, False),
    ("parsing", "parse_transition_deck", None, False),
    ("reports", "Report.render", None, False),
    ("graded", "t1_graded", None, False),
    ("graded", "deformation_weight", None, False),
    ("graded", "reduce_in_t1", None, False),
    ("linalg", "row_echelon", _count_row_echelon, False),
    ("linalg", "reduce_against", None, False),
    ("linalg", "solve", None, False),
    ("linalg", "nullspace", None, False),
    ("cech", "normalize", None, False),
    ("cech", "splitting_tower", None, False),
    ("cech", "splitting_obstruction", None, False),
    ("cech", "comfortable_obstruction", None, False),
    ("cech", "apply_z_step", None, False),
    ("cech", "apply_y_step", None, False),
    ("cech", "vanishing_locus", None, False),
    ("laurent", "YSeries.compose_laurent", None, False),
    ("laurent", "YSeries.substitute", None, False),
    ("cone_metric", "curvature_check", None, False),
    ("cone_metric", "metric_field", None, True),
    ("cone_metric", "christoffels_fd", None, False),
    ("cone_metric", "empirical_scaling_slope", None, False),
    ("cone_metric", "fd_mixed_wirtinger", None, False),
    ("dbar", "solve_beltrami", _count_iterations, False),
    ("dbar", "transform_with_derivative", None, False),
    ("dbar", "transform_at", _count_points, False),
    ("dbar", "modified_transform", None, False),
    ("dbar", "weighted_norms", None, False),
    ("dbar", "beltrami_residual", None, False),
    ("dbar", "DiskGrid.__init__", _count_grid, False),
]

# Per-layer metrics of a traced run, with units; BENCHMARK.json lists the
# same names.  Totals cover one traced round.
PER_LAYER = [
    ("import.s", "s"),
    ("cli.main.self_s", "s"),
    ("parsing.parse_cone_deck.s", "s"),
    ("parsing.parse_transition_deck.s", "s"),
    ("reports.Report.render.s", "s"),
    ("graded.t1_graded.calls", "count"),
    ("graded.t1_graded.s", "s"),
    ("graded.t1_graded.self_s", "s"),
    ("graded.deformation_weight.s", "s"),
    ("graded.reduce_in_t1.calls", "count"),
    ("linalg.row_echelon.calls", "count"),
    ("linalg.row_echelon.s", "s"),
    ("linalg.row_echelon.entries", "count"),
    ("linalg.row_echelon.nnz_ratio", "ratio"),
    ("linalg.row_echelon.rank_ratio", "ratio"),
    ("linalg.reduce_against.calls", "count"),
    ("linalg.reduce_against.s", "s"),
    ("linalg.solve.s", "s"),
    ("linalg.nullspace.s", "s"),
    ("cech.normalize.s", "s"),
    ("cech.splitting_tower.s", "s"),
    ("cech.splitting_obstruction.calls", "count"),
    ("cech.comfortable_obstruction.calls", "count"),
    ("cech.apply_z_step.calls", "count"),
    ("cech.apply_z_step.s", "s"),
    ("cech.apply_y_step.s", "s"),
    ("cech.vanishing_locus.s", "s"),
    ("laurent.YSeries.compose_laurent.calls", "count"),
    ("laurent.YSeries.compose_laurent.s", "s"),
    ("laurent.YSeries.substitute.s", "s"),
    ("cone_metric.curvature_check.calls", "count"),
    ("cone_metric.curvature_check.s", "s"),
    ("cone_metric.metric_field.evals", "count"),
    ("cone_metric.christoffels_fd.s", "s"),
    ("cone_metric.empirical_scaling_slope.s", "s"),
    ("cone_metric.fd_mixed_wirtinger.calls", "count"),
    ("dbar.solve_beltrami.s", "s"),
    ("dbar.solve_beltrami.iterations", "count"),
    ("dbar.transform_with_derivative.calls", "count"),
    ("dbar.transform_with_derivative.s", "s"),
    ("dbar.transform_at.calls", "count"),
    ("dbar.transform_at.s", "s"),
    ("dbar.transform_at.points", "count"),
    ("dbar.modified_transform.calls", "count"),
    ("dbar.modified_transform.s", "s"),
    ("dbar.weighted_norms.calls", "count"),
    ("dbar.weighted_norms.s", "s"),
    ("dbar.beltrami_residual.s", "s"),
    ("dbar.DiskGrid.built", "count"),
    ("dbar.grid_nodes", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


def resolve(module_name, qualname):
    """(owner, attribute, original) of a layer entry; raises if renamed."""
    owner = importlib.import_module(f"conedeform.{module_name}")
    parts = qualname.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Records spans while installed and a job span is open;
    single-threaded."""

    def __init__(self):
        self.spans = []          # [name, start, end, id, parent, job, outer]
        self.counters = defaultdict(float)
        self.enabled = False
        self.job = None
        self._stack = []
        self._depth = defaultdict(int)
        self._patches = []       # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap every layer; also rebind names that other conedeform modules
        or ``extra_modules`` imported directly."""
        modules = [m for n, m in sys.modules.items()
                   if n == "conedeform" or n.startswith("conedeform.")]
        modules += list(extra_modules)
        for module_name, qualname, count, counts_evals in LAYERS:
            owner, attr, original = resolve(module_name, qualname)
            name = f"{module_name}.{qualname.replace('.__init__', '')}"
            wrapper = self._wrap(name, original, count, counts_evals)
            self._patch(owner, attr, original, wrapper)
            if "." in qualname:
                continue         # methods are reached through their class
            for mod in modules:
                if mod is not owner and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, original, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, count, counts_evals):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            if counts_evals:
                result = tracer._count_calls(f"{name}.evals", result)
            return result

        return wrapper

    def _count_calls(self, key, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1][3] if self._stack else None
        span = [name, time.perf_counter(), None, len(self.spans), parent,
                self.job, self._depth[name] == 0]
        self.spans.append(span)
        self._stack.append(span)
        self._depth[name] += 1
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()
        self._depth[span[0]] -= 1

    @contextlib.contextmanager
    def job_span(self, job_id, name):
        """Records while open, under one root span; wrappers outside any
        job span (the output checks) record nothing."""
        self.job, self.enabled = job_id, True
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)
            self.job, self.enabled = None, False

    # -- results ------------------------------------------------------------

    def layer_metrics(self):
        """Totals per span name: ``.calls``, ``.s`` (outermost spans of a
        name, so recursion is not counted twice) and ``.self_s`` (duration
        minus the time covered by child spans), plus the counters."""
        child_time = defaultdict(float)
        for name, start, end, sid, parent, job, outer in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for name, start, end, sid, parent, job, outer in self.spans:
            out[f"{name}.calls"] += 1
            if outer:
                out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[sid]
        out.update(self.counters)
        entries = out["linalg.row_echelon.entries"]
        rows = out["linalg.row_echelon.rows"]
        out["linalg.row_echelon.nnz_ratio"] = (
            out["linalg.row_echelon.nonzeros"] / entries if entries else 0.0)
        out["linalg.row_echelon.rank_ratio"] = (
            out["linalg.row_echelon.rank"] / rows if rows else 0.0)
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path):
        """Spans as JSON lines: name, start, end, id, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, sid, parent, job, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "id": sid, "parent": parent,
                                     "job": job}) + "\n")
