"""The four benchmark workloads: job lists made from a seed, and checks.

Each workload builds its job list from the benchmark seed in set-up and
then runs whole passes over it.  One pass is what ``wall_s`` times.
Every job result is checked: invariants always, and at the recorded
seed also against ``reference.json``.  A job that raises, breaks an
invariant or mismatches the reference counts as failed.
"""

import csv
import json
import math
import os
import shutil
import tempfile
import time

import numpy as np

import horofill.cli as cli
import horofill.coxeter as cx
import horofill.filling as fl
import horofill.meshes as ms
import horofill.partitions as pt
import horofill.scenarios as sc
import horofill.trace as tr
import horofill.tube as tb
from horofill.geometry import polyline_length, unit

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0
MESH = 1.0
RADIUS = 1.0

# (scenario, {length: trials}); each job's generator seed comes from the
# benchmark seed.  tube-point stays short, and trace-a3 runs only at l = 16:
# see "Left out" and "Known defects" in NOTES.md.
TUBE_FILL = [
    ("tube-point", {16: 1, 32: 2}),
    ("tube-segment", {16: 1, 32: 2, 48: 1}),
    ("tube-square", {32: 1, 64: 2, 128: 1}),
]
TRACE_FILL = [
    ("trace-a2", {32: 4, 64: 2}),
    ("trace-a3", {16: 2}),
]
# desk.json's scenarios with five lengths each, capped at 64 (tube-point at
# 48); trace-a3 is left out because its fills fail for some seeds at every
# length tried, and one failed job aborts the whole run
CAMPAIGN_LENGTHS = {
    "tube-point": [8, 16, 24, 32, 48],
    "tube-segment": [8, 16, 24, 32, 64],
    "tube-square": [8, 16, 24, 32, 64],
    "trace-a2": [8, 16, 24, 32, 64],
}
CAMPAIGN_JOBS = 2
# instances per probe pass, by acceptance criterion (4: level, 5: corner,
# 6: radial, 7: oracle, 8: coxeter and slope): the acceptance suite's own
# counts (1000 : 1000 : 102 : 4 : 3 : 1) scaled to 1000, at least one each;
# 1000 instances put ten samples beyond the p99 latency
PROBE_MIX = {"level": 474, "corner": 474, "radial": 48, "oracle": 2, "coxeter": 1, "slope": 1}
FROZEN_PATH = os.path.join(os.path.dirname(HERE), "tests", "fixtures", "frozen.json")


class CheckFailed(Exception):
    """A job's output broke an invariant or mismatched the reference."""


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def load_frozen():
    """The frozen constants that acceptance criteria 6 and 7 check against."""
    with open(FROZEN_PATH) as fh:
        return json.load(fh)


def _job_seed(seed, s_idx, l_idx, trial):
    return 1_000_003 * seed + 1009 * s_idx + 31 * l_idx + trial


def fill_jobs(mix, seed):
    return [
        (name, ell, trial, _job_seed(seed, s_idx, l_idx, trial))
        for s_idx, (name, lengths) in enumerate(mix)
        for l_idx, (ell, trials) in enumerate(lengths.items())
        for trial in range(trials)
    ]


# -- fill workloads -------------------------------------------------------------------


def run_fill_job(job):
    """Generate, fill and validate one loop; return its record row."""
    name, ell, _, seed = job
    host, loop = sc.GENERATORS[name](ell, MESH, seed)
    if isinstance(host, tr.BusemannTrace):
        fp, census, _ = fl.fill_flat_loop(host, loop, mesh=MESH)
    else:
        fp, _ = tb.fill_tube_loop(host, RADIUS, loop, MESH)
        census = fp.census or fl.BrickCensus(0, fp.area)
    mesh, area = pt.validate_partition(loop, fp)
    return {
        "fp": fp,
        "loop": loop,
        "mesh": mesh,
        "row": [name, f"{loop.length:.12g}", seed, area, census.flat_bricks, census.wild_bricks],
    }


def check_fill(out, ref_row):
    """Invariants of one fill, then the recorded row when there is one."""
    mesh, row = out["mesh"], out["row"]
    area, flat, wild = row[3], row[4], row[5]
    if mesh > MESH + 1e-12:
        raise CheckFailed(f"mesh {mesh} above the request {MESH}")
    if flat + wild != area:
        raise CheckFailed(f"census {flat}+{wild} differs from area {area}")
    if area != out["fp"].area:
        raise CheckFailed("validated area differs from the brick count")
    if ref_row is not None and row != ref_row:
        raise CheckFailed(f"row {row} differs from reference {ref_row}")


class FillWorkload:
    cores = 1  # busy cores while a job runs

    def __init__(self, name, mix, seed, reference):
        self.name = name
        self.jobs = fill_jobs(mix, seed)
        ref = reference.get(name) if seed == REFERENCE_SEED else None
        self.ref_rows = ref["rows"] if ref else [None] * len(self.jobs)
        if len(self.ref_rows) != len(self.jobs):
            raise ValueError(f"{name}: reference has {len(self.ref_rows)} rows, job list {len(self.jobs)}")

    def job_names(self):
        return [f"{n}/l{ell}/t{trial}" for n, ell, trial, _ in self.jobs]

    def run_pass(self, tally, tracer=None, between=None):
        """Run and check every job; return the jobs' summed wall time.

        ``between(seconds)`` is called after each job with its wall time.
        """
        total = 0.0
        for job, label, ref_row in zip(self.jobs, self.job_names(), self.ref_rows):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = run_fill_job(job)
                else:
                    out = tracer.run_job(label, run_fill_job, job)
                check_fill(out, ref_row)
                ok = True
            except Exception as e:  # a failed job is counted, the pass goes on
                tally.error(label, e)
                ok = False
            dt = time.perf_counter() - t0
            total += dt
            tally.add(ok)
            if between is not None:
                between(dt)
        return total

    def record(self):
        return {"rows": [run_fill_job(job)["row"] for job in self.jobs]}


# -- probe ----------------------------------------------------------------------------


def _random_realizable_trace(rng, rs, theta):
    """Translated and scaled copies of the symmetric horoball trace.

    The same generator as acceptance criteria 4 and 5; it is repeated
    here so that the benchmark does not import the test modules.
    """
    base = tr.symmetric_trace(rs, theta).shifted(-rng.uniform(0.5, 2.0))
    shift = rng.normal(size=rs.rank) * 3.0
    return base.translated(shift).scaled(rng.uniform(0.5, 2.0))


class ProbeWorkload:
    """About a thousand small independent queries mirroring criteria 4-8."""

    cores = 1

    def __init__(self, seed, reference):
        rng = np.random.default_rng(seed)
        kinds = [k for k, n in PROBE_MIX.items() for _ in range(n)]
        rng.shuffle(kinds)
        self.instances = [(kind, (seed, k)) for k, kind in enumerate(kinds)]
        ref = reference.get("probe") if seed == REFERENCE_SEED else None
        self.ref_pass = ref["pass"] if ref else None
        if self.ref_pass is not None and len(self.ref_pass) != len(self.instances):
            raise ValueError("probe: reference length differs from the instance list")
        frozen = load_frozen()
        oracle = {k: v["oracle"] for k, v in frozen["sandwich_instances"].items()}
        self.radial_cprime = frozen["radial_cprime"]
        # the frozen oracle meshes (criterion 7); building them is negligible
        v, t = ms.octasphere(3)
        v2, t2, rings = ms.capped_cylinder(n_around=12, n_along=4, n_cap=3)
        rA, rB = 2, 7
        rect = (
            rings[rA][0:7]
            + [rings[k][6] for k in range(rA + 1, rB)]
            + rings[rB][6::-1]
            + [rings[k][0] for k in range(rB - 1, rA, -1)]
        )
        v3, t3, b3 = ms.grid_square(2)
        self.oracles = [
            (v, t, ms.equator_cycle(v), frozen["oracle"]["octasphere_l3_equator"]),
            (v2, t2, list(rings[len(rings) // 2]), oracle["capped_cylinder_waist"]),
            (v2, t2, rect, oracle["capped_cylinder_rect"]),
            (v3, t3, list(b3), oracle["grid2_boundary"]),
        ]
        a2 = cx.build_root_system("A", rank=2)
        a3 = cx.build_root_system("A", rank=3)
        self.systems = [
            (a2, cx.project_to_chamber(a2, a2.coweights[0])),
            (a2, cx.project_to_chamber(a2, a2.coweights.sum(axis=0))),
            (a3, cx.project_to_chamber(a3, a3.coweights[0])),
        ]
        self.a3 = a3
        self.shapes = [tb.standard_shape(n) for n in ("point", "segment", "square")]

    def job_names(self):
        return [f"{kind}/{k}" for k, (kind, _) in enumerate(self.instances)]

    # each instance returns True when its criterion holds

    def level(self, rng, k):
        rs, theta = self.systems[k % 3]
        trace = _random_realizable_trace(rng, rs, theta)
        msr = tr.min_set(trace)
        while True:
            x = rng.normal(size=rs.rank) * 6
            s = trace.value(x)
            if s - 0.05 > msr.min_value + 0.05:
                break
        t = rng.uniform(msr.min_value + 0.05, s - 0.05)
        y = tr.level_project(trace, x, t)
        d = float(np.linalg.norm(x - y))
        return d <= tr.projection_bound(trace, s, t) + 1e-6 and trace.value(y) <= t + 1e-6

    def corner(self, rng, k):
        rs, theta = self.systems[k % 3]
        trace = _random_realizable_trace(rng, rs, theta)
        poly = tr.horoball_polytope(trace, 0.0)
        while True:  # redraw the facet pair, not the trace, so one instance is one trace
            i, j = rng.choice(len(trace.gradients), size=2, replace=False)
            if abs(np.dot(trace.gradients[i], trace.gradients[j])) >= 1.0 - 1e-9:
                continue
            x = _facet_point(rng, trace, poly, i)
            y = _facet_point(rng, trace, poly, j)
            if x is None or y is None or np.linalg.norm(x - y) < 1e-6:
                continue
            try:
                path = tr.face_pair_path(trace, 0.0, x, y)
            except tr.FacetsParallel:
                continue
            ratio = polyline_length(path) / np.linalg.norm(x - y)
            return ratio <= tr.fetze_constant(trace) + 1e-9

    def radial(self, rng, k):
        a = (1.5, 2.0, 3.0)[k % 3]
        P = self.shapes[(k // 3) % 3]
        R_in = rng.uniform(0.4, 1.5)
        chart = tb.chart_for(P, a * R_in, None)
        pts = []
        if isinstance(chart, tb.RevolutionChart):
            t = rng.uniform(0.2, 0.8) * chart.T
            phi = rng.uniform(0, 2 * np.pi)
            for _ in range(40):
                t = float(np.clip(t + rng.normal() * 0.1 * chart.T, 0.05 * chart.T, 0.95 * chart.T))
                phi += rng.normal() * 0.3
                pts.append(chart.point(t, phi))
        else:
            s = chart.Lu * 0.5
            m = rng.uniform(0, chart.M)
            for _ in range(40):
                s = float(np.clip(s + rng.normal() * 0.05, 0.2 * chart.Lu, 0.8 * chart.Lu))
                m += rng.normal() * 0.3
                pts.append(chart.point(s, m))
        _, rep = tb.radial_project_path(P, a * R_in, R_in, np.array(pts))
        return 1.0 - 1e-9 <= rep["ratio"] <= a * self.radial_cprime

    def oracle(self, rng, k):
        v, t, cycle, want = self.oracles[k % len(self.oracles)]
        cycle = list(np.roll(cycle, int(rng.integers(len(cycle)))))
        if rng.integers(2):
            cycle.reverse()
        return fl.brute_force_area(v, t, cycle) == want

    def coxeter(self, rng, k):
        rank = (2, 3, 4)[k % 3]
        rs = cx.build_root_system("A", rank=rank)
        theta = cx.project_to_chamber(rs, rng.normal(size=rank))
        return rs.order == math.factorial(rank + 1) and rs.in_chamber(theta.direction)

    def slope(self, rng, k):
        theta = cx.project_to_chamber(self.a3, unit(np.abs(rng.normal(size=3)) @ self.a3.coweights))
        res = cx.find_good_slope(self.a3, theta, 0.05)
        return (
            res.found
            and cx.ort_distance(self.a3, theta, res.slope) > 0.05
            and cx.wall_margin(self.a3, res.slope) > 0.05
        )

    def run_instance(self, instance):
        kind, key = instance
        return getattr(self, kind)(np.random.default_rng(key), key[1])

    def run_pass(self, tally, tracer=None, between=None):
        """As ``FillWorkload.run_pass``; also records each instance's latency."""
        total = 0.0
        for k, (instance, label) in enumerate(zip(self.instances, self.job_names())):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    ok = self.run_instance(instance)
                else:
                    ok = tracer.run_job(label, self.run_instance, instance)
                if not ok:
                    raise CheckFailed(f"criterion bound or frozen value missed")
                if self.ref_pass is not None and self.ref_pass[k] != "1":
                    raise CheckFailed("reference records this instance as failing")
            except Exception as e:
                tally.error(label, e)
                ok = False
            dt = time.perf_counter() - t0
            total += dt
            tally.queries.append(dt * 1000.0)
            tally.add(ok)
            if between is not None:
                between(dt)
        return total

    def record(self):
        return {"pass": "".join("1" if self.run_instance(i) else "0" for i in self.instances)}


def _facet_point(rng, trace, poly, i):
    tight = [
        v for v in poly.vertices if abs(np.dot(trace.gradients[i], v) + trace.offsets[i]) <= 1e-7
    ]
    if not tight:
        return None
    return rng.dirichlet(np.ones(len(tight))) @ np.array(tight)


# -- campaign -------------------------------------------------------------------------


CSV_KEY_COLUMNS = cli.CSV_COLUMNS[:8]


def campaign_config():
    return {
        "scenarios": [
            {"name": name, "generator": name, "lengths": lengths, "mesh": MESH, "trials": 1}
            for name, lengths in CAMPAIGN_LENGTHS.items()
        ]
    }


def check_campaign_rows(rows, ref_rows):
    """Row count, names, census sums, then columns 1-8 against the reference.

    Returns one error message per failed row (None for a passing row).
    """
    want = [(n, k) for n, lengths in CAMPAIGN_LENGTHS.items() for k in range(len(lengths))]
    errors = []
    for k, (name, _) in enumerate(want):
        if k >= len(rows):
            errors.append(f"row {k} ({name}) missing from runs.csv")
            continue
        row = rows[k]
        got = [row[c] for c in CSV_KEY_COLUMNS]
        err = None
        if row["scenario"] != name:
            err = f"row {k}: scenario {row['scenario']} where {name} was expected"
        elif int(row["flat_bricks"]) + int(row["wild_bricks"]) != int(row["area"]):
            err = f"row {k}: census does not add up to the area"
        elif int(row["area"]) <= 0 or float(row["mesh"]) != MESH:
            err = f"row {k}: area or mesh out of range"
        elif ref_rows is not None and got != ref_rows[k]:
            err = f"row {k}: {got} differs from reference {ref_rows[k]}"
        errors.append(err)
    if len(rows) > len(want):
        errors.extend(f"unexpected row {k}" for k in range(len(want), len(rows)))
    return errors


class CampaignWorkload:
    """``horofill run`` on a desk-shaped config, through ``cli.main``."""

    cores = CAMPAIGN_JOBS

    def __init__(self, seed, reference, workdir):
        self.seed = seed
        ref = reference.get("campaign") if seed == REFERENCE_SEED else None
        self.ref_rows = ref["rows"] if ref else None
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "campaign.json")
        with open(self.config_path, "w") as fh:
            json.dump(campaign_config(), fh)
        self.pool_busy = []  # sum of row ms / (jobs * cli.main wall), untraced pool passes
        self.untimed_s = []  # cli.run_command span - sum of row ms, traced passes

    def run_cli(self, jobs):
        """One ``horofill run``; returns its exit status, rows and cli.main wall."""
        out_dir = tempfile.mkdtemp(dir=self.workdir)
        try:
            argv = ["run", self.config_path, "--seed", str(self.seed), "--jobs", str(jobs), "--out-dir", out_dir]
            t0 = time.perf_counter()
            status = cli.main(argv)
            wall = time.perf_counter() - t0
            with open(os.path.join(out_dir, "runs.csv"), newline="") as fh:
                rows = list(csv.DictReader(fh))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return status, rows, wall

    def run_pass(self, tally, tracer=None, between=None, jobs=CAMPAIGN_JOBS):
        """One ``horofill run`` and its checks; return its wall time."""
        t0 = time.perf_counter()
        try:
            if tracer is None:
                status, rows, wall = self.run_cli(jobs)
            else:
                status, rows, _ = tracer.run_job("campaign", self.run_cli, 1)
        except Exception as e:  # every row of the run is lost
            tally.error("campaign", e)
            for _ in range(sum(map(len, CAMPAIGN_LENGTHS.values()))):
                tally.add(False)
            rows = None
        total = time.perf_counter() - t0
        if between is not None:
            between(total)
        if rows is None:
            return total
        row_s = sum(float(r["ms"]) for r in rows) / 1000.0
        if tracer is None:
            self.pool_busy.append(row_s / (jobs * wall))
        else:
            self.untimed_s.append(tracer.last_wall("cli.run_command") - row_s)
        errors = check_campaign_rows(rows, self.ref_rows)
        if status != 0:  # the rows of the failed scenario and all later ones are missing
            tally.error("campaign", CheckFailed(f"horofill run exited {status}"))
        for k, err in enumerate(errors):
            if err:
                tally.error(f"campaign/row{k}", CheckFailed(err))
            tally.add(err is None)
        return total

    def record(self):
        status, rows, _ = self.run_cli(CAMPAIGN_JOBS)
        if status != 0:
            raise RuntimeError(f"horofill run exited {status}")
        return {"rows": [[r[c] for c in CSV_KEY_COLUMNS] for r in rows]}


def make(name, seed, reference, workdir):
    if name == "tube-fill":
        return FillWorkload(name, TUBE_FILL, seed, reference)
    if name == "trace-fill":
        return FillWorkload(name, TRACE_FILL, seed, reference)
    if name == "probe":
        return ProbeWorkload(seed, reference)
    if name == "campaign":
        return CampaignWorkload(seed, reference, workdir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("tube-fill", "trace-fill", "probe", "campaign")
