"""Print per-call seconds and bricks/s of the per-brick passes of a fill.

For each fill it times ``partitions.compute_mesh``,
``partitions.validate_partition``, ``filling.brick_census`` (trace fills
only) and ``FillingPartition.to_dict``, each the minimum of ``--repeats``
calls.  It also records every ``DiskBuilder.add_ladders`` call made
while the fill is built (the builder's points and the four stacks) and
times replays of them all, each into a fresh builder made before the
clock starts; that stage counts the bricks the replays lay, failed
tries included.  The fills are those of ``tools/fill_hashes.py`` plus
three large ones: tube-segment l=48 seed 1071 (75,028 bricks), trace-a3
l=64 seed 3 (845,290 bricks) and trace-a3 l=128 seed 4160 (3,093,309
bricks).  Run from the root of a checkout:

    PYTHONPATH=src python3 tools/layer_timings.py --repeats 3
    PYTHONPATH=src python3 tools/layer_timings.py --large --repeats 5 --json out.json

Pointing PYTHONPATH at another checkout's ``src`` times that checkout's
passes on the same fills.
"""

import argparse
import contextlib
import itertools
import json
import sys
import time

import numpy as np

import fill_hashes

from horofill import filling as fl
from horofill import partitions as pt
from horofill import trace as tr

LARGE = (("tube-segment", 48, 1071), ("trace-a3", 64, 3), ("trace-a3", 128, 4160))


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
        "to_dict": fp.to_dict,
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


def report(row, name, layer, bricks, s):
    row[layer] = {"s": round(s, 6), "bricks_per_s": round(bricks / s)}
    print(f"{name:32s} {layer:18s} {bricks:9d} bricks {s:10.5f} s "
          f"{bricks / s:14,.0f} bricks/s", flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=3, help="calls per pass; the minimum is kept")
    p.add_argument("--large", action="store_true", help="skip the fill_hashes fills")
    p.add_argument("--json", help="also write the figures to this file")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    out = {}
    for name, host, loop, fp, calls in cases(args.large):
        row = out[name] = {"bricks": fp.area}
        for layer, call in passes(host, loop, fp).items():
            report(row, name, layer, fp.area, best_of(call, args.repeats))
        if calls:
            laid = sum(len(b.triangles) for b in replay_ladders(fresh_builders(calls), calls))
            s = best_of(replay_ladders, args.repeats, lambda: (fresh_builders(calls), calls))
            report(row, name, "add_ladders", laid, s)
            row["add_ladders"]["calls"] = len(calls)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
