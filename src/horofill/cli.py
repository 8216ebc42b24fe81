"""Experiment harness: scenario configs to CSV rows and SVG plots.

Subcommands: ``run`` executes a scenario config, ``fit`` refits slopes
from a CSV, ``oracle`` evaluates the least integral filling area on a mesh file,
``bootstrap`` prints the exponent-improvement iteration.
"""

import argparse
import concurrent.futures
import csv
import json
import os
import sys
import time

import numpy as np

from . import bootstrap as bs
from . import filling as fl
from . import meshes as ms
from . import scenarios as sc
from . import trace as tr
from .geometry import BOOTSTRAP_TOL

SVG_WIDTH, SVG_HEIGHT = 480, 360

CSV_COLUMNS = [
    "scenario",
    "length",
    "mesh",
    "trial",
    "area",
    "flat_bricks",
    "wild_bricks",
    "seed",
    "ms",
]


class ConfigError(ValueError):
    pass


def load_config(path):
    with open(path) as fh:
        data = json.load(fh)
    if "scenarios" not in data or not isinstance(data["scenarios"], list):
        raise ConfigError("config needs a 'scenarios' list")
    names = set()
    for i, scn in enumerate(data["scenarios"]):
        where = f"scenarios[{i}]"
        for field in ("name", "generator", "lengths"):
            if field not in scn:
                raise ConfigError(f"{where}: missing field '{field}'")
        # a name keys the scenario's rows, slope fit and output files
        name = scn["name"]
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{where}: name must be a nonempty string")
        if name in (".", "..") or "/" in name or os.sep in name:
            raise ConfigError(f"{where}: name {name!r} is not a file name")
        lengths = scn["lengths"]
        if not isinstance(lengths, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in lengths
        ):
            raise ConfigError(f"{where}: lengths must be a list of numbers")
        if not all(a < b for a, b in zip([0] + lengths, lengths)):
            raise ConfigError(f"{where}: lengths must be positive and strictly increasing")
        gen = scn["generator"]
        if gen not in sc.GENERATORS and gen != "custom-trace":
            raise ConfigError(
                f"{where}: unknown generator {gen!r} "
                f"(known: {sorted(sc.GENERATORS)} or custom-trace)"
            )
        if gen == "custom-trace":
            if "trace" not in scn:
                raise ConfigError(f"{where}: custom-trace needs a 'trace' object")
            try:
                sc.check_custom_trace(tr.BusemannTrace.from_dict(scn["trace"]))
            except (ValueError, LookupError, TypeError, AttributeError) as e:
                raise ConfigError(f"{where}: bad trace: {e}") from e
        if "radius" in scn:
            raise ConfigError(f"{where}: the tube radius is fixed at {sc.TUBE_RADIUS:g}")
        mesh = scn.setdefault("mesh", 1.0)
        if not isinstance(mesh, (int, float)) or isinstance(mesh, bool) or not mesh > 0:
            raise ConfigError(f"{where}: mesh must be a positive number")
        trials = scn.setdefault("trials", 1)
        if not isinstance(trials, int) or isinstance(trials, bool) or trials < 0:
            raise ConfigError(f"{where}: trials must be a nonnegative integer")
        if name in names:
            raise ConfigError(f"{where}: repeated name {name!r}")
        names.add(name)
    return data


def _row_seed(base, scenario_idx, length_idx, trial):
    return int(base) + 1009 * scenario_idx + 31 * length_idx + trial


def _run_job(scn, ell, trial, seed, keep):
    t0 = time.perf_counter()
    mesh = float(scn["mesh"])
    host, loop = sc.make_loop(scn["generator"], ell, mesh, seed, scn.get("trace"))
    fp, census, _ = sc.fill(host, loop, mesh)
    ms_elapsed = (time.perf_counter() - t0) * 1000.0
    row = {
        "scenario": scn["name"],
        "length": f"{loop.length:.12g}",
        "mesh": f"{mesh:.12g}",
        "trial": trial,
        "area": fp.area,
        "flat_bricks": census.flat_bricks,
        "wild_bricks": census.wild_bricks,
        "seed": seed,
        "ms": f"{ms_elapsed:.3f}",
    }
    if not keep:
        return row, None
    return row, {"loop": loop.vertices, **fp.to_dict()}


def run_command(args):
    try:
        config = load_config(args.config)
    except (ValueError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "runs.csv")
    jobs = [
        (scn, ell, trial, _row_seed(args.seed, s_idx, l_idx, trial))
        for s_idx, scn in enumerate(config["scenarios"])
        for l_idx, ell in enumerate(scn["lengths"])
        for trial in range(scn["trials"])
    ]
    pdir = os.path.join(args.out_dir, "partitions")
    if args.keep_partitions:
        os.makedirs(pdir, exist_ok=True)
    rows = []
    status = 0
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for (scn, ell, trial, seed), outcome in _execute(jobs, args.jobs, args.keep_partitions):
            if isinstance(outcome, Exception):
                print(
                    f"job failed: scenario {scn['name']} length {ell} trial {trial} "
                    f"seed {seed}: {type(outcome).__name__}: {outcome}",
                    file=sys.stderr,
                )
                status = 1
                continue
            row, artifact = outcome
            writer.writerow(row)
            fh.flush()
            rows.append(row)
            if args.keep_partitions:
                name = f"{row['scenario']}-l{row['length']}-t{row['trial']}.npz"
                np.savez(os.path.join(pdir, name), **artifact)
    if rows:
        _emit_svg(rows, args.out_dir)
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return status


def _execute(jobs, n_jobs, keep):
    """Yield (job, (row, artifact) or the exception it raised) in job order.

    A pool takes all jobs at once, longest loops first.
    """
    if n_jobs <= 1:
        for job in jobs:
            yield job, _outcome(_run_job, *job, keep)
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=n_jobs) as pool:
        futs = {}
        for k in sorted(range(len(jobs)), key=lambda k: -jobs[k][1]):
            futs[k] = pool.submit(_run_job, *jobs[k], keep)
        for k, job in enumerate(jobs):
            yield job, _outcome(futs[k].result)


def _outcome(call, *args):
    """The call's result, or the exception it raised (reported by the caller)."""
    try:
        return call(*args)
    except Exception as e:  # contained so that the other jobs still run
        return e


def _emit_svg(rows, out_dir):
    by_scenario = {}
    for row in rows:
        by_scenario.setdefault(row["scenario"], []).append(
            (float(row["length"]), float(row["area"]))
        )
    for name, pts in by_scenario.items():
        path = os.path.join(out_dir, f"{name}.svg")
        lengths = sorted({l for l, _ in pts})
        areas = {l: [a for ll, a in pts if ll == l] for l in lengths}
        try:
            fit = fl.dehn_exponent(lengths, areas)
            slope = fit.slope
        except fl.FillingError:
            slope = float("nan")
        _write_svg(path, pts, slope, name)


def _write_svg(path, pts, slope, title):
    width, height, margin = SVG_WIDTH, SVG_HEIGHT, 50
    xs = np.log2([p[0] for p in pts])
    ys = np.log2([max(p[1], 1) for p in pts])
    x0, x1 = np.floor(xs.min()), np.ceil(xs.max())
    y0, y1 = np.floor(ys.min()), np.ceil(ys.max())
    x1 = max(x1, x0 + 1)
    y1 = max(y1, y0 + 1)

    def sx(v):
        return margin + (v - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2}" y="20" text-anchor="middle" font-size="13">'
        f"{title}: fitted slope {slope:.3f}</text>",
    ]
    for k in range(int(x0), int(x1) + 1):
        parts.append(
            f'<line x1="{sx(k):.1f}" y1="{sy(y0):.1f}" x2="{sx(k):.1f}" '
            f'y2="{sy(y1):.1f}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{sx(k):.1f}" y="{height - margin + 16}" text-anchor="middle" '
            f'font-size="10">2^{k}</text>'
        )
    for k in range(int(y0), int(y1) + 1):
        parts.append(
            f'<line x1="{sx(x0):.1f}" y1="{sy(k):.1f}" x2="{sx(x1):.1f}" '
            f'y2="{sy(k):.1f}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{margin - 6}" y="{sy(k) + 3:.1f}" text-anchor="end" '
            f'font-size="10">2^{k}</text>'
        )
    if np.isfinite(slope):
        xm = 0.5 * (x0 + x1)
        ym = float(np.mean(ys))
        parts.append(
            f'<line x1="{sx(x0):.1f}" y1="{sy(ym + slope * (x0 - xm)):.1f}" '
            f'x2="{sx(x1):.1f}" y2="{sy(ym + slope * (x1 - xm)):.1f}" '
            f'stroke="#c33" stroke-dasharray="4 3"/>'
        )
    for l, a in pts:
        parts.append(
            f'<circle cx="{sx(np.log2(l)):.1f}" cy="{sy(np.log2(max(a, 1))):.1f}" '
            f'r="3.5" fill="#226" fill-opacity="0.7"/>'
        )
    parts.append(
        f'<text x="{width/2}" y="{height - 8}" text-anchor="middle" font-size="11">'
        "loop length</text>"
    )
    parts.append(
        f'<text x="14" y="{height/2}" font-size="11" '
        f'transform="rotate(-90 14 {height/2})" text-anchor="middle">bricks</text>'
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def fit_command(args):
    by_scenario = {}
    try:
        with open(args.csv) as fh:
            for row in csv.DictReader(fh):
                by_scenario.setdefault(row["scenario"], {}).setdefault(
                    float(row["length"]), []
                ).append(float(row["area"]))
    except (OSError, LookupError, ValueError) as e:
        print(f"fit error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    if not by_scenario:
        print("no rows", file=sys.stderr)
        return 1
    for name, areas in sorted(by_scenario.items()):
        try:
            fit = fl.dehn_exponent(sorted(areas), areas)
        except fl.FillingError as e:
            print(f"{name}: not fittable ({e})")
            continue
        flag = " (degenerate)" if fit.degenerate else ""
        print(
            f"{name}: slope {fit.slope:.4f} +- {fit.stderr:.4f}"
            f" residual_max {np.max(np.abs(fit.residuals)):.4f}{flag}"
        )
    return 0


def oracle_command(args):
    try:
        vertices, triangles = ms.load_mesh(args.mesh_file)
        cycle = ms.load_cycle(args.loop_file)
    except (OSError, ValueError, LookupError, TypeError) as e:
        print(f"oracle error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    try:
        area = fl.brute_force_area(vertices, triangles, cycle)
    except fl.FillingError as e:
        print(f"oracle error: {e}", file=sys.stderr)
        return 1
    print(area)
    return 0


def bootstrap_command(args):
    seq, steps = bs.bootstrap(args.eps0, args.tol)
    print(f"exponent_step(1) = {bs.exponent_step(1.0)}")
    print(f"bootstrap from eps0={args.eps0} to tol={args.tol}: {steps} steps")
    if seq:
        shown = ", ".join(f"{e:.6g}" for e in seq[:8])
        tail = " ..." if len(seq) > 8 else ""
        print(f"iterates: {shown}{tail}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="horofill", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute a scenario config")
    runp.add_argument("config")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--jobs", type=int, default=1)
    runp.add_argument("--keep-partitions", action="store_true")
    runp.add_argument("--out-dir", default="out")
    runp.set_defaults(func=run_command)

    fitp = sub.add_parser("fit", help="fit slopes from a runs CSV")
    fitp.add_argument("csv")
    fitp.set_defaults(func=fit_command)

    orp = sub.add_parser("oracle", help="least integral filling area on an orientable mesh")
    orp.add_argument("mesh_file")
    orp.add_argument("loop_file")
    orp.set_defaults(func=oracle_command)

    bsp = sub.add_parser("bootstrap", help="exponent-improvement iteration")
    bsp.add_argument("--eps0", type=float, default=1.0)
    bsp.add_argument("--tol", type=float, default=BOOTSTRAP_TOL)
    bsp.set_defaults(func=bootstrap_command)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
