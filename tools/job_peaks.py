"""Print the fill seconds and the peak memory of named jobs, each in a fresh process.

A job is ``GENERATOR:LENGTH[:SEED]`` (seed 0 unless given), filled at
mesh 1 as ``horofill run`` fills it: ``scenarios.make_loop`` then
``scenarios.fill``.  Each job runs ``--repeats`` times, every time in a
new Python process, which imports ``horofill``, reads its ``ru_maxrss``,
makes the loop, times the fill and reads ``ru_maxrss`` again.  The
difference is the job's own peak above import: ``ru_maxrss`` is a
high-water mark per process, so in a pool worker it would be the
highest of that worker's jobs so far.  One line per run gives the fill
seconds, the peak above import, the bricks and the bytes of the kept
``points`` and ``triangles``.  With ``--desk CONFIG`` it also times the
wall of ``horofill run CONFIG --jobs 2`` in a fresh process, output in a
temporary directory.  Run from the root of
a checkout:

    PYTHONPATH=src python3 tools/job_peaks.py trace-a3:128:4160 trace-a3:256 tube-point:512
    PYTHONPATH=src python3 tools/job_peaks.py --desk configs/desk.json --repeats 3 --json out.json

Pointing PYTHONPATH at another checkout's ``src`` measures that
checkout on the same jobs.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

MIB = 1 << 20


def parse_job(spec):
    """(generator, length, seed) of ``GENERATOR:LENGTH[:SEED]``."""
    gen, ell, *seed = spec.split(":")
    return gen, float(ell), int(seed[0]) if seed else 0


def child(spec):
    """Run one job in this process; print its figures as one JSON line."""
    import resource

    from horofill import scenarios as sc

    gen, ell, seed = parse_job(spec)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    host, loop = sc.make_loop(gen, ell, 1.0, seed)
    t0 = time.perf_counter()
    fp = sc.fill(host, loop, 1.0)[0]
    fill_s = time.perf_counter() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({
        "job": spec,
        "fill_s": round(fill_s, 4),
        "peak_above_import_mib": round((peak - before) / 1024, 1),
        "bricks": fp.area,
        "kept_mib": round((fp.points.nbytes + fp.triangles.nbytes) / MIB, 1),
    }))


def run_job(spec):
    """The figures of one job, measured in a fresh process."""
    out = subprocess.run(
        [sys.executable, __file__, "--child", spec], check=True, capture_output=True, text=True
    )
    return json.loads(out.stdout.splitlines()[-1])


def desk_wall(config):
    """Wall seconds of ``horofill run config --jobs 2`` in a fresh process."""
    with tempfile.TemporaryDirectory() as out:
        argv = [sys.executable, "-m", "horofill.cli", "run", config, "--jobs", "2",
                "--out-dir", out]
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, capture_output=True)
        return round(time.perf_counter() - t0, 3)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("jobs", nargs="*", help="GENERATOR:LENGTH[:SEED]")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--desk", help="a config to time under horofill run")
    p.add_argument("--json", help="write the runs to this file")
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        child(args.child)
        return
    runs = {"jobs": {}, "desk_wall_s": []}
    for spec in args.jobs:
        for _ in range(args.repeats):
            r = run_job(spec)
            runs["jobs"].setdefault(spec, []).append(r)
            print(f"{spec:24s} {r['fill_s']:8.3f} s {r['peak_above_import_mib']:9.1f} MiB "
                  f"above import {r['bricks']:10d} bricks {r['kept_mib']:8.1f} MiB kept",
                  flush=True)
    if args.desk:
        for _ in range(args.repeats):
            runs["desk_wall_s"].append(desk_wall(args.desk))
            print(f"{args.desk} --jobs 2: {runs['desk_wall_s'][-1]:.3f} s wall",
                  flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(runs, fh, indent=1)


if __name__ == "__main__":
    main()
