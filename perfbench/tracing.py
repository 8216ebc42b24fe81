"""Spans around horofill's module-boundary calls, recorded from outside.

The traced passes of a benchmark run install wrappers on public names
of the package (module attributes, the names that calling modules
imported, and public methods), record one span per call in memory, and
remove every wrapper again before the next untraced pass.  Nothing in
``src/`` changes.

``add_point`` and ``add_triangle`` stay unwrapped: they run millions of
times per desk run, so point and brick counts come from the partitions
that ``build`` and the fills return.
"""

import json
import time
from collections import defaultdict

import horofill.cli as cli
import horofill.coxeter as cx
import horofill.filling as fl
import horofill.geometry as geo
import horofill.partitions as pt
import horofill.scenarios as sc
import horofill.trace as tr
import horofill.tube as tb

ROOT = "job"


def _area(fp):
    return int(len(fp.triangles))


# (span name, owner, attribute, bricks counted from (args, result) or None)
WRAPPED = [
    ("coxeter", cx, "build_root_system", None),
    ("coxeter", cx, "project_to_chamber", None),
    ("coxeter", cx, "find_good_slope", None),
    ("coxeter", cx, "delta_zero", None),
    ("coxeter", tr, "delta_zero", None),
    ("trace.min_set", tr, "min_set", None),
    ("trace.min_set", fl, "min_set", None),
    ("trace.level_project", tr, "level_project", None),
    ("trace.level_project", fl, "level_project", None),
    ("trace.face_pair_path", tr, "face_pair_path", None),
    ("trace.lp", tr, "linprog", None),
    ("trace.lp", fl, "linprog", None),
    ("geometry.nearest_point", geo.VPolytope, "nearest_point", None),
    ("tube.fill_tube_loop", tb, "fill_tube_loop", lambda a, r: _area(r[0])),
    ("tube.fill_tube_loop", fl, "fill_tube_loop", lambda a, r: _area(r[0])),
    ("tube.sandwich", tb, "sandwich_project", None),
    ("tube.sandwich", fl, "sandwich_project", None),
    ("tube.sandwich", tb.SandwichProjection, "map", None),
    ("tube.sandwich", tb.SandwichProjection, "inverse_batch", None),
    ("tube.radial_project_path", tb, "radial_project_path", None),
    ("partitions.add_ladder", pt.DiskBuilder, "add_ladder", None),
    ("partitions.build", pt.DiskBuilder, "build", lambda a, r: _area(r)),
    ("partitions.validate", pt, "validate_partition", lambda a, r: r[1]),
    ("partitions.to_dict", pt.FillingPartition, "to_dict", lambda a, r: _area(a[0])),
    ("filling.fill_flat_loop", fl, "fill_flat_loop", lambda a, r: _area(r[0])),
    ("filling.brick_census", fl, "brick_census", lambda a, r: _area(a[1])),
    ("filling.brute_force_area", fl, "brute_force_area", None),
    ("cli.run_command", cli, "run_command", None),
]


class Tracer:
    """In-memory span recorder.

    A span is ``(name, start, end, parent, job, bricks)``; ``parent`` is
    the index of the enclosing span (-1 for none) and ``job`` names the
    workload job that caused it, so the spans of one job share it.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.job = None

    def wrap(self, name, fn, bricks=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.job, 0)
            if bricks is not None:
                spans[idx] = (name, t0, t1, parent, self.job, bricks(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def run_job(self, job_name, fn, *args):
        """Run one workload job inside a root span named after it."""
        self.job = job_name
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            self.job = None

    def __enter__(self):
        """Install every wrapper; leaving the block restores the originals."""
        for name, owner, attr, bricks in WRAPPED:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, bricks))
        for key, gen in list(sc.GENERATORS.items()):
            self._saved.append((sc.GENERATORS, key, gen))
            sc.GENERATORS[key] = self.wrap("scenarios.generate", gen)
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def last_wall(self, name):
        """Duration of the most recent finished span called ``name``."""
        for span in reversed(self.spans):
            if span is not None and span[0] == name:
                return span[2] - span[1]
        raise LookupError(f"no {name} span recorded")

    def dump(self, path):
        """Write the spans as one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans):
    """Per-name totals: calls, wall seconds, self seconds, bricks.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap (one thread).
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = defaultdict(lambda: {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "bricks": 0})
    for k, (name, t0, t1, parent, _, bricks) in enumerate(spans):
        agg = out[name]
        agg["calls"] += 1
        agg["wall_s"] += t1 - t0
        agg["self_s"] += (t1 - t0) - child[k]
        agg["bricks"] += bricks
    return out


def child_counts(spans, name, parent_name):
    """Number of ``name`` spans whose direct parent is a ``parent_name`` span."""
    return sum(
        1 for s in spans if s[0] == name and s[3] >= 0 and spans[s[3]][0] == parent_name
    )


def outer_bricks(spans):
    """Bricks of the partitions that fills hand back to their caller.

    A tube fill inside a flat fill is an intermediate disk: its bricks
    are built but not kept.
    """
    kept = 0
    for name, _, _, parent, _, bricks in spans:
        if name == "filling.fill_flat_loop":
            kept += bricks
        elif name == "tube.fill_tube_loop":
            if parent < 0 or spans[parent][0] != "filling.fill_flat_loop":
                kept += bricks
    return kept


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, passes):
    """The per-layer metrics of BENCHMARK.json, per traced pass."""
    agg = summarize(spans)

    def g(name, key):
        return agg[name][key] if name in agg else 0

    per = 1.0 / passes
    built = g("partitions.build", "bricks")
    m = {
        "scenarios.loops": (g("scenarios.generate", "calls") * per, "count"),
        "scenarios.self_s": (g("scenarios.generate", "self_s") * per, "s"),
        "coxeter.calls": (g("coxeter", "calls") * per, "count"),
        "coxeter.self_s": (g("coxeter", "self_s") * per, "s"),
        "trace.min_set.calls": (g("trace.min_set", "calls") * per, "count"),
        "trace.min_set.self_s": (g("trace.min_set", "self_s") * per, "s"),
        "trace.lp_solves": (g("trace.lp", "calls") * per, "count"),
        "trace.lp_s": (g("trace.lp", "self_s") * per, "s"),
        "trace.level_project.calls": (g("trace.level_project", "calls") * per, "count"),
        "trace.level_project.self_s": (g("trace.level_project", "self_s") * per, "s"),
        "trace.face_pair_path.self_s": (g("trace.face_pair_path", "self_s") * per, "s"),
        "geometry.nearest_point.calls": (g("geometry.nearest_point", "calls") * per, "count"),
        "geometry.nearest_point.self_s": (g("geometry.nearest_point", "self_s") * per, "s"),
        "tube.fill_tube_loop.calls": (g("tube.fill_tube_loop", "calls") * per, "count"),
        "tube.fill_tube_loop.self_s": (g("tube.fill_tube_loop", "self_s") * per, "s"),
        "tube.fan_attempts_per_fill": (
            _ratio(
                child_counts(spans, "partitions.build", "tube.fill_tube_loop"),
                g("tube.fill_tube_loop", "calls"),
            ),
            "attempts/fill",
        ),
        "tube.sandwich.self_s": (g("tube.sandwich", "self_s") * per, "s"),
        "tube.radial_project_path.self_s": (
            g("tube.radial_project_path", "self_s") * per,
            "s",
        ),
        "partitions.add_ladder.calls": (g("partitions.add_ladder", "calls") * per, "count"),
        "partitions.add_ladder.self_s": (g("partitions.add_ladder", "self_s") * per, "s"),
        "partitions.build.self_s": (g("partitions.build", "self_s") * per, "s"),
        "partitions.bricks_built": (built * per, "count"),
        "partitions.bricks_kept": (outer_bricks(spans) * per, "count"),
        "partitions.kept_share": (_ratio(outer_bricks(spans), built), "ratio"),
        "partitions.validate.self_s": (g("partitions.validate", "self_s") * per, "s"),
        "partitions.validate.bricks_per_s": (
            _ratio(g("partitions.validate", "bricks"), g("partitions.validate", "self_s")),
            "bricks/s",
        ),
        "partitions.to_dict.self_s": (g("partitions.to_dict", "self_s") * per, "s"),
        "partitions.to_dict.bricks_per_s": (
            _ratio(g("partitions.to_dict", "bricks"), g("partitions.to_dict", "self_s")),
            "bricks/s",
        ),
        "filling.fill_flat_loop.calls": (g("filling.fill_flat_loop", "calls") * per, "count"),
        "filling.fill_flat_loop.self_s": (g("filling.fill_flat_loop", "self_s") * per, "s"),
        "filling.pipeline_attempts_per_fill": (
            _ratio(
                child_counts(spans, "tube.fill_tube_loop", "filling.fill_flat_loop"),
                g("filling.fill_flat_loop", "calls"),
            ),
            "attempts/fill",
        ),
        "filling.brick_census.self_s": (g("filling.brick_census", "self_s") * per, "s"),
        "filling.brick_census.bricks_per_s": (
            _ratio(g("filling.brick_census", "bricks"), g("filling.brick_census", "self_s")),
            "bricks/s",
        ),
        "filling.brute_force_area.calls": (
            g("filling.brute_force_area", "calls") * per,
            "count",
        ),
        "filling.brute_force_area.self_s": (
            g("filling.brute_force_area", "self_s") * per,
            "s",
        ),
    }
    layer_self = sum(a["self_s"] for n, a in agg.items() if n != ROOT)
    m["tracing.spans"] = (len(spans) * per, "count")
    m["tracing.layer_self_share"] = (_ratio(layer_self, g(ROOT, "wall_s")), "ratio")
    return m
