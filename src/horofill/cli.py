"""Experiment harness: scenario configs to CSV rows and SVG plots.

Subcommands: ``run`` executes a scenario config, ``fit`` refits slopes
from a CSV, ``oracle`` evaluates the exact minimal area on a mesh file,
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
from . import tube as tb

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
    for i, scn in enumerate(data["scenarios"]):
        where = f"scenarios[{i}]"
        for field in ("name", "generator", "lengths"):
            if field not in scn:
                raise ConfigError(f"{where}: missing field '{field}'")
        lengths = scn["lengths"]
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ConfigError(f"{where}: lengths must be strictly increasing")
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
                tr.BusemannTrace.from_dict(scn["trace"])
            except (ValueError, KeyError) as e:
                raise ConfigError(f"{where}: bad trace: {e}") from e
        scn.setdefault("mesh", 1.0)
        scn.setdefault("trials", 1)
    return data


def _row_seed(base, scenario_idx, length_idx, trial):
    return int(base) + 1009 * scenario_idx + 31 * length_idx + trial


def _run_job(scn, scenario_idx, length_idx, ell, trial, base_seed, keep):
    seed = _row_seed(base_seed, scenario_idx, length_idx, trial)
    t0 = time.perf_counter()
    gen = scn["generator"]
    mesh = float(scn["mesh"])
    if gen == "custom-trace":
        host = tr.BusemannTrace.from_dict(scn["trace"])
        host, loop = sc.custom_trace_loop(host, ell, mesh, seed)
    else:
        host, loop = sc.GENERATORS[gen](ell, mesh, seed)
    if isinstance(host, tr.BusemannTrace):
        fp, census, info = fl.fill_flat_loop(host, loop, mesh=mesh)
    else:
        fp, info = tb.fill_tube_loop(host, scn.get("radius", 1.0), loop, mesh)
        census = fp.census or fl.BrickCensus(0, fp.area)
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
    artifact = {
        "loop": [[float(c) for c in p] for p in loop.vertices],
        "partition": fp.to_dict(),
    }
    return row, artifact


def run_command(args):
    try:
        config = load_config(args.config)
    except (ValueError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    out_dir = os.environ.get("HOROFILL_OUT_DIR", args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "runs.csv")
    rows = []
    status = 0
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for s_idx, scn in enumerate(config["scenarios"]):
            jobs = [
                (scn, s_idx, l_idx, ell, trial)
                for l_idx, ell in enumerate(scn["lengths"])
                for trial in range(int(scn["trials"]))
            ]
            try:
                results = _execute(jobs, args.seed, args.jobs, args.keep_partitions)
            except Exception as e:  # partial results flushed before abort
                print(f"scenario {scn['name']} failed: {e}", file=sys.stderr)
                fh.flush()
                status = 1
                break
            for row, artifact in results:
                writer.writerow(row)
                rows.append(row)
                if args.keep_partitions:
                    pdir = os.path.join(out_dir, "partitions")
                    os.makedirs(pdir, exist_ok=True)
                    name = f"{row['scenario']}-l{row['length']}-t{row['trial']}.json"
                    with open(os.path.join(pdir, name), "w") as pf:
                        json.dump(artifact, pf)
            fh.flush()
    if rows:
        _emit_svg(rows, out_dir)
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return status


def _execute(jobs, base_seed, n_jobs, keep):
    if n_jobs <= 1:
        out = [_run_job(scn, s, l, ell, t, base_seed, keep) for scn, s, l, ell, t in jobs]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_jobs) as pool:
            futs = [
                pool.submit(_run_job, scn, s, l, ell, t, base_seed, keep)
                for scn, s, l, ell, t in jobs
            ]
            out = [f.result() for f in futs]
    # deterministic order regardless of completion order
    out.sort(key=lambda ra: (ra[0]["scenario"], float(ra[0]["length"]), ra[0]["trial"]))
    return out


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


def _write_svg(path, pts, slope, title, width=480, height=360):
    margin = 50
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
    with open(args.csv) as fh:
        for row in csv.DictReader(fh):
            by_scenario.setdefault(row["scenario"], {}).setdefault(
                float(row["length"]), []
            ).append(float(row["area"]))
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
    vertices, triangles = ms.load_mesh(args.mesh_file)
    cycle = ms.load_cycle(args.loop_file)
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

    orp = sub.add_parser("oracle", help="exact minimal area on a mesh")
    orp.add_argument("mesh_file")
    orp.add_argument("loop_file")
    orp.set_defaults(func=oracle_command)

    bsp = sub.add_parser("bootstrap", help="exponent-improvement iteration")
    bsp.add_argument("--eps0", type=float, default=1.0)
    bsp.add_argument("--tol", type=float, default=1e-6)
    bsp.set_defaults(func=bootstrap_command)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
