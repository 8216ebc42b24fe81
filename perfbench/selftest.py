"""Self-test of the benchmark's checks and of its printed metrics.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Corrupted results are fed through the
workloads' own checks and must count as failures:

- a fill whose partition has one triangle dropped (tube-fill and trace-fill);
- a fill whose row differs from the reference in one brick count;
- a probe whose oracle answers one brick too many;
- a campaign runs.csv row with a changed area, with and without a
  matching census change.

Then every workload runs once per trace mode with a one-second budget,
and each metric BENCHMARK.json names must be printed with its unit.
Exits 0 when all checks hold.
"""

import json
import os
import subprocess
import sys
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import horofill.filling as fl  # noqa: E402
import horofill.partitions as pt  # noqa: E402
import horofill.tube as tb  # noqa: E402
import workloads  # noqa: E402
from run import Tally  # noqa: E402


def _drop_first_triangle(fp):
    return pt.FillingPartition(
        fp.points, fp.triangles[1:], fp.boundary, boundary_anchor=fp.boundary_anchor
    )


def _patched(owner, attr, make):
    """Swap owner.attr for make(original) inside a with block."""
    return mock.patch.object(owner, attr, make(getattr(owner, attr)))


def _first_job_only(w):
    w.jobs, w.ref_rows = w.jobs[:1], w.ref_rows[:1]
    return w


def fill_checks(reference):
    """Each corrupted fill must be counted as failed."""
    problems = []
    seed = workloads.REFERENCE_SEED

    def drop_tube(orig):
        def fill(*a, **k):
            fp, info = orig(*a, **k)
            return _drop_first_triangle(fp), info

        return fill

    def drop_flat(orig):
        def fill(*a, **k):
            fp, census, info = orig(*a, **k)
            return _drop_first_triangle(fp), census, info

        return fill

    cases = [
        ("tube-fill, one triangle dropped", workloads.TUBE_FILL, tb, "fill_tube_loop", drop_tube),
        ("trace-fill, one triangle dropped", workloads.TRACE_FILL, fl, "fill_flat_loop", drop_flat),
    ]
    for label, mix, owner, attr, make in cases:
        name = "tube-fill" if mix is workloads.TUBE_FILL else "trace-fill"
        w = _first_job_only(workloads.FillWorkload(name, mix, seed, reference))
        tally = Tally()
        with _patched(owner, attr, make):
            w.run_pass(tally)
        if tally.failed != 1:
            problems.append(f"{label}: counted {tally.failed} failures, want 1")

    w = _first_job_only(workloads.FillWorkload("tube-fill", workloads.TUBE_FILL, seed, reference))
    bad = list(w.ref_rows[0])
    bad[3] += 1
    bad[5] += 1  # census still adds up, so only the reference can catch it
    w.ref_rows = [bad]
    tally = Tally()
    w.run_pass(tally)
    if tally.failed != 1:
        problems.append(f"tube-fill, reference row changed: counted {tally.failed} failures, want 1")
    return problems


def probe_checks(reference):
    problems = []
    w = workloads.ProbeWorkload(workloads.REFERENCE_SEED, reference)
    keep = [k for k, (kind, _) in enumerate(w.instances) if kind == "oracle"][:4]
    w.instances = [w.instances[k] for k in keep]
    w.ref_pass = "".join(w.ref_pass[k] for k in keep)
    tally = Tally()

    def off_by_one(orig):
        return lambda *a, **k: orig(*a, **k) + 1

    with _patched(fl, "brute_force_area", off_by_one):
        w.run_pass(tally)
    if tally.failed != len(keep):
        problems.append(f"probe, oracle off by one: counted {tally.failed} failures, want {len(keep)}")
    return problems


def campaign_checks(reference):
    problems = []
    ref_rows = reference["campaign"]["rows"]
    cols = workloads.CSV_KEY_COLUMNS

    def rows_with(change):
        rows = [dict(zip(cols, r), ms="1.0") for r in ref_rows]
        change(rows[3])
        return rows

    def area_only(row):
        row["area"] = str(int(row["area"]) + 1)

    def area_and_census(row):
        area_only(row)
        row["flat_bricks"] = str(int(row["flat_bricks"]) + 1)

    for label, change in (("area changed", area_only), ("area and census changed", area_and_census)):
        errors = workloads.check_campaign_rows(rows_with(change), ref_rows)
        bad = [k for k, e in enumerate(errors) if e]
        if bad != [3]:
            problems.append(f"campaign, {label}: failing rows {bad}, want [3]")
    errors = workloads.check_campaign_rows(rows_with(lambda row: None), ref_rows)
    if any(errors):
        problems.append(f"campaign, unchanged rows: unexpected failures {errors}")
    return problems


def metric_checks():
    """Every BENCHMARK.json metric is printed with its unit, in each mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            cmd = bench["command"] + [
                "--workload", w["name"], "--seed", "0", "--seconds", "1", "--trace", str(trace),
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{w['name']} trace {trace}: metrics {got} differ from {want[trace]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{w['name']} trace {trace}: {result['failed']} failed jobs")
            print(f"metrics ok: {w['name']} trace {trace}", flush=True)
    return problems


def main():
    reference = workloads.load_reference()
    problems = fill_checks(reference) + probe_checks(reference) + campaign_checks(reference)
    print("corrupted results counted as failures" if not problems else "\n".join(problems), flush=True)
    problems += metric_checks()
    for p in problems:
        print(f"SELFTEST FAILED: {p}")
    print("selftest passed" if not problems else f"{len(problems)} selftest failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
