"""Run one horofill benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tube-fill --seed 0 --seconds 24 --trace 0

Run from the root of a checkout.  The workload's job list is made from
``--seed``; whole passes over it repeat while the next pass still fits in
``--seconds`` (at least one pass).  With ``--trace 0`` the end-to-end
metrics are printed; with ``--trace 1`` untraced passes fill half of the
budget and traced passes the other half, and the per-layer metrics and
the tracing overhead are printed.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Workloads and metrics are
described in BENCHMARK.json and perfbench/NOTES.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_PROBES = 5


class Tally:
    """Attempted and failed jobs, and query latencies in ms.

    Only the probe records per-query latencies; in the other workloads
    one query is one whole pass.
    """

    def __init__(self):
        self.queries = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1

    def error(self, label, exc):
        self.errors.append(f"{label}: {type(exc).__name__}: {exc}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="import, build the job list and load the reference, then exit (times setup_s)",
    )
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def setup(args, workdir):
    """Everything before the first timed job: imports, config, reference."""
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.NAMES:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {', '.join(workloads.NAMES)}")
    reference = workloads.load_reference()
    return workloads.make(args.workload, args.seed, reference, workdir)


def passes(workload, tally, budget, tracer=None, **kw):
    """Whole passes while the next one (at the mean pace) fits the budget.

    The calibration kernel runs between the jobs.  Returns each pass's
    wall time in reference-machine seconds (calibrate.py), scaled by the
    factor of the whole run.  The probe's query latencies in ``tally``
    are scaled by the kernel samples on either side of each query.
    """
    first_query = len(tally.queries)
    marks = []  # kernel samples taken before each job's end
    raw, kernels = [], []
    cores = 1 if tracer else kw.get("jobs", workload.cores)  # a traced campaign runs in-process
    with calibrate.Calibrator(cores=cores) as cal:

        def between(job_seconds):
            marks.append(len(cal.samples))
            cal.after_job(job_seconds)

        start = time.perf_counter()
        while True:
            seen = len(cal.samples)
            raw.append(workload.run_pass(tally, tracer, between, **kw))
            kernels.append(cal.samples[seen:])
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(raw) > budget:
                break
    f = cal.factor()
    queries = tally.queries[first_query:]  # one per job where there are any
    tally.queries[first_query:] = [q * cal.local_factor(m) for q, m in zip(queries, marks)]
    print("pass walls, measured (s): " + " ".join(f"{w:.3f}" for w in raw))
    print("calibration kernel mean per pass (ms): "
          + " ".join(f"{1000 * statistics.fmean(k):.3f}" for k in kernels))
    print(f"calibration factor: {f:.4f}", flush=True)
    return [w * f for w in raw]


def setup_seconds(args):
    """Median wall time of fresh processes that only set up (import to job list).

    In reference-machine seconds, calibrated between the processes.
    """
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-only",
    ]
    cal = calibrate.Calibrator()
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        cal.after_job(times[-1])
    print("setup, measured (s): " + " ".join(f"{t:.3f}" for t in times))
    return statistics.median(times) * cal.factor()


def peak_rss_mb():
    """High-water RSS of this process and of its largest waited-for child, in MiB.

    A pool worker is forked, so its RSS already counts the pages it shares
    with this process; the two are not added.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, child


def p99(samples):
    """Interpolated 99th percentile, never beyond the largest sample."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[98]


def end_to_end(args, workload, tally):
    walls = passes(workload, tally, args.seconds)
    lat = tally.queries or [w * 1000.0 for w in walls]
    own_mb, child_mb = peak_rss_mb()  # read before the setup probes add children
    print(f"peak rss (MiB): own {own_mb:.1f}, largest child {child_mb:.1f}")
    return {
        "setup_s": (setup_seconds(args), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "query_p50_ms": (statistics.median(lat), "ms"),
        "query_p99_ms": (p99(lat), "ms"),
        "peak_rss_mb": (max(own_mb, child_mb), "MiB"),
        "pass_share": (1.0 - tally.failed / tally.attempted, "ratio"),
    }


def per_layer(args, workload, tally):
    import tracing

    is_campaign = args.workload == "campaign"
    budget = args.seconds / 2.0
    pool_busy = 0.0
    if is_campaign:
        passes(workload, tally, 0.0)  # one --jobs 2 pass for the pool's busy share
        pool_busy = workload.pool_busy[-1] if workload.pool_busy else 0.0
        untraced = passes(workload, tally, 0.0, jobs=1)
    else:
        untraced = passes(workload, tally, budget)
    with tracing.Tracer() as tracer:
        traced = passes(workload, tally, budget, tracer)
    tracer.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    m = tracing.layer_metrics(tracer.spans, len(traced))
    untimed = workload.untimed_s if is_campaign else []  # empty when every traced run failed
    m["cli.untimed_s"] = (statistics.median(untimed) if untimed else 0.0, "s")
    m["cli.pool_busy_share"] = (pool_busy, "ratio")
    wall_u, wall_t = statistics.median(untraced), statistics.median(traced)
    m["tracing.wall_untraced_s"] = (wall_u, "s")
    m["tracing.wall_traced_s"] = (wall_t, "s")
    m["tracing.overhead_s"] = (wall_t - wall_u, "s")
    return m


def main(argv=None):
    args = parse_args(argv)
    os.environ.pop("HOROFILL_OUT_DIR", None)  # would redirect the campaign's output
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-")
    try:
        workload = setup(args, workdir)
        if args.setup_only:
            return 0
        tally = Tally()
        measure = per_layer if args.trace else end_to_end
        metrics = measure(args, workload, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in tally.errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {tally.attempted} jobs, "
          f"{tally.failed} failed, fail_share {tally.failed / tally.attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
