"""Print per-call seconds and bricks/s of the per-brick passes of a fill.

For each fill it times ``partitions.compute_mesh``,
``partitions.validate_partition``, ``filling.brick_census`` (trace fills
only) and ``FillingPartition.to_dict``, each the minimum of ``--repeats``
calls.  The fills are those of ``tools/fill_hashes.py`` plus three large
ones: tube-segment l=48 seed 1071 (75,028 bricks), trace-a3 l=64 seed 3
(845,290 bricks) and trace-a3 l=128 seed 4160 (3,093,309 bricks).  Run
from the root of a checkout:

    PYTHONPATH=src python3 tools/layer_timings.py --repeats 3
    PYTHONPATH=src python3 tools/layer_timings.py --large --repeats 5 --json out.json

Pointing PYTHONPATH at another checkout's ``src`` times that checkout's
passes on the same fills.
"""

import argparse
import json
import sys
import time

import fill_hashes

from horofill import filling as fl
from horofill import partitions as pt
from horofill import trace as tr

LARGE = (("tube-segment", 48, 1071), ("trace-a3", 64, 3), ("trace-a3", 128, 4160))


def cases(large_only):
    """(name, host, loop, partition) of each timed fill, built when its turn comes."""
    if not large_only:
        yield from fill_hashes.cases()
    for gen, ell, seed in LARGE:
        yield f"{gen} l={ell} seed={seed}", *fill_hashes.scenario_fill(gen, ell, seed)


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


def best_of(call, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=3, help="calls per pass; the minimum is kept")
    p.add_argument("--large", action="store_true", help="skip the fill_hashes fills")
    p.add_argument("--json", help="also write the figures to this file")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    out = {}
    for name, host, loop, fp in cases(args.large):
        row = out[name] = {"bricks": fp.area}
        for layer, call in passes(host, loop, fp).items():
            s = best_of(call, args.repeats)
            row[layer] = {"s": round(s, 6), "bricks_per_s": round(fp.area / s)}
            print(f"{name:32s} {layer:18s} {fp.area:9d} bricks {s:10.5f} s "
                  f"{fp.area / s:14,.0f} bricks/s", flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
