"""Print per-call seconds and bricks/s of the per-brick passes of a fill.

For each fill it times ``partitions.compute_mesh``,
``partitions.validate_partition``, ``filling.brick_census`` (trace fills
only) and serialization (``np.savez`` of the loop and
``FillingPartition.to_dict`` into memory: the file that ``horofill run
--keep-partitions`` writes), each the minimum of ``--repeats`` calls.
It also records every ``DiskBuilder.add_ladders`` call made while the
fill is built (the builder's points and the four stacks) and times
replays of them all, each into a fresh builder made before the clock
starts; that stage counts the bricks the replays lay, failed tries
included.  The fills are those of ``tools/fill_hashes.py`` plus
three large ones: tube-segment l=48 seed 1071 (75,028 bricks), trace-a3
l=64 seed 3 (845,290 bricks) and trace-a3 l=128 seed 4160 (3,093,309
bricks).  Run from the root of a checkout:

    PYTHONPATH=src python3 tools/layer_timings.py --repeats 3
    PYTHONPATH=src python3 tools/layer_timings.py --large --repeats 5 --json out.json

With ``--trace-queries`` it times the trace layer instead: microseconds
per call of ``trace.min_set`` (the epigraph LP; the argmin polytope is
not read), ``trace.horoball_polytope`` at level 0, ``trace.level_project``
(the minimum already cached), ``trace.face_pair_path`` and
``trace.linprog`` (the epigraph LP alone), each over the same seeded
probe-shaped queries (translated and scaled symmetric traces on the A2
wall, A2 regular and A3 wall slopes, as in acceptance criteria 4 and 5),
on traces built afresh before the clock starts:

    PYTHONPATH=src python3 tools/layer_timings.py --trace-queries --repeats 5

Pointing PYTHONPATH at another checkout's ``src`` times that checkout's
passes on the same fills or queries.
"""

import argparse
import contextlib
import io
import itertools
import json
import sys
import time

import numpy as np

import fill_hashes

from horofill import coxeter as cx
from horofill import filling as fl
from horofill import partitions as pt
from horofill import trace as tr

LARGE = (("tube-segment", 48, 1071), ("trace-a3", 64, 3), ("trace-a3", 128, 4160))
TRACE_QUERIES = 300  # probe-shaped queries of the trace-query stage


@contextlib.contextmanager
def recorded_ladders():
    """Record each ``add_ladders`` call made inside as (points, a, len_a, b, len_b)."""
    calls = []
    lay = pt.DiskBuilder.add_ladders

    def record(self, *stacks):
        calls.append((self.points.copy(), *map(np.array, stacks)))
        lay(self, *stacks)

    pt.DiskBuilder.add_ladders = record
    try:
        yield calls
    finally:
        pt.DiskBuilder.add_ladders = lay


def cases(large_only):
    """(name, host, loop, partition, ladder calls) of each timed fill, built when its turn comes."""
    large = ((f"{gen} l={ell} seed={seed}", *fill_hashes.scenario_fill(gen, ell, seed))
             for gen, ell, seed in LARGE)
    fills = large if large_only else itertools.chain(fill_hashes.cases(), large)
    while True:
        with recorded_ladders() as calls:
            case = next(fills, None)
        if case is None:
            return
        yield *case, calls


def passes(host, loop, fp):
    """The timed calls of one fill, by layer name."""
    calls = {
        "compute_mesh": lambda: pt.compute_mesh(fp.points, fp.triangles),
        "validate_partition": lambda: pt.validate_partition(loop, fp),
        "brick_census": lambda: fl.brick_census(host, fp),
        "serialization": lambda: np.savez(io.BytesIO(), loop=loop.vertices, **fp.to_dict()),
    }
    if not isinstance(host, tr.BusemannTrace):
        del calls["brick_census"]
    return calls


def fresh_builders(calls):
    """One builder per recorded call, holding the points that call saw."""
    builders = []
    for points, *_ in calls:
        builders.append(pt.DiskBuilder(points.shape[1]))
        builders[-1].add_chain(points)
    return builders


def replay_ladders(builders, calls):
    """Lay each recorded call again into its builder; returns the builders."""
    for builder, (_, *stacks) in zip(builders, calls):
        builder.add_ladders(*stacks)
    return builders


def best_of(call, repeats, setup=tuple):
    """The least seconds of ``repeats`` calls ``call(*setup())``; setup is not timed."""
    best = float("inf")
    for _ in range(repeats):
        args = setup()
        t0 = time.perf_counter()
        call(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def trace_queries(count, seed=0):
    """(trace, level query (x, t), corner query (x, y)) of ``count`` seeded probe-shaped traces."""
    systems = []
    for rank, k in ((2, 0), (2, None), (3, 0)):
        rs = cx.build_root_system("A", rank=rank)
        slope = rs.coweights.sum(axis=0) if k is None else rs.coweights[k]
        systems.append((rs, cx.project_to_chamber(rs, slope)))
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        rs, theta = systems[k % len(systems)]
        trace = (
            tr.symmetric_trace(rs, theta)
            .shifted(-rng.uniform(0.5, 2.0))
            .translated(rng.normal(size=rs.rank) * 3.0)
            .scaled(rng.uniform(0.5, 2.0))
        )
        low = tr.min_set(trace).min_value + 0.05
        x = rng.normal(size=rs.rank) * 6
        while trace.value(x) - 0.05 <= low:
            x = rng.normal(size=rs.rank) * 6
        poly = tr.horoball_polytope(trace, 0.0)
        G, c = trace.gradients, trace.offsets
        corner = None
        while corner is None:
            i, j = rng.choice(len(G), size=2, replace=False)
            if abs(G[i] @ G[j]) < 1.0 - 1e-9:
                tight = [poly.vertices[np.abs(poly.vertices @ G[f] + c[f]) <= 1e-7] for f in (i, j)]
                corner = tuple(rng.dirichlet(np.ones(len(v))) @ v for v in tight)
        out.append((trace, (x, rng.uniform(low, trace.value(x) - 0.05)), corner))
    return out


def trace_query_calls(queries):
    """The timed calls of the trace-query stage, by name: (call, setup) for ``best_of``.

    Each call answers every query once; setup builds the traces afresh,
    so no call reads a minimum or polytope cached by an earlier one.
    """

    def fresh(cache_minimum=False):
        traces = [
            tr.BusemannTrace(t.root_system, t.theta, t.gradients, t.offsets) for t, _, _ in queries
        ]
        for trace in traces if cache_minimum else ():
            tr.min_set(trace)
        return (traces,)

    def epigraph_lps():
        lps = []
        for trace, _, _ in queries:
            G = trace.gradients
            A = np.hstack([G, -np.ones((len(G), 1))])
            lps.append((np.append(np.zeros(G.shape[1]), 1.0), A, -trace.offsets))
        return (lps,)

    level = [q for _, q, _ in queries]
    corner = [q for _, _, q in queries]
    return {
        "min_set": (lambda traces: [tr.min_set(t) for t in traces], fresh),
        "horoball_polytope": (lambda traces: [tr.horoball_polytope(t, 0.0) for t in traces], fresh),
        "level_project": (
            lambda traces: [tr.level_project(t, x, s) for t, (x, s) in zip(traces, level)],
            lambda: fresh(cache_minimum=True),
        ),
        "face_pair_path": (
            lambda traces: [tr.face_pair_path(t, 0.0, x, y) for t, (x, y) in zip(traces, corner)],
            fresh,
        ),
        "linprog": (lambda lps: [tr.linprog(*lp) for lp in lps], epigraph_lps),
    }


def report(row, name, layer, bricks, s):
    row[layer] = {"s": round(s, 6), "bricks_per_s": round(bricks / s)}
    print(f"{name:32s} {layer:18s} {bricks:9d} bricks {s:10.5f} s "
          f"{bricks / s:14,.0f} bricks/s", flush=True)


def time_fills(large_only, repeats):
    """Time every pass and the ladder replay of each fill; returns the figures by fill."""
    out = {}
    for name, host, loop, fp, calls in cases(large_only):
        row = out[name] = {"bricks": fp.area}
        for layer, call in passes(host, loop, fp).items():
            report(row, name, layer, fp.area, best_of(call, repeats))
        if calls:
            laid = sum(len(b.triangles) for b in replay_ladders(fresh_builders(calls), calls))
            s = best_of(replay_ladders, repeats, lambda: (fresh_builders(calls), calls))
            report(row, name, "add_ladders", laid, s)
            row["add_ladders"]["calls"] = len(calls)
    return out


def time_trace_queries(repeats):
    """Time each trace query over TRACE_QUERIES probe-shaped queries; returns us per call by name."""
    queries = trace_queries(TRACE_QUERIES)
    out = {}
    for layer, (call, setup) in trace_query_calls(queries).items():
        us = best_of(call, repeats, setup) / len(queries) * 1e6
        out[layer] = {"us_per_call": round(us, 2), "calls": len(queries)}
        print(f"{layer:18s} {us:10.2f} us/call over {len(queries)} queries", flush=True)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=3, help="calls per pass; the minimum is kept")
    p.add_argument("--large", action="store_true", help="skip the fill_hashes fills")
    p.add_argument("--json", help="also write the figures to this file")
    p.add_argument("--trace-queries", action="store_true", help="time the trace queries, not the fills")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    out = time_trace_queries(args.repeats) if args.trace_queries else time_fills(args.large, args.repeats)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
