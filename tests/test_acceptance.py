"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS line with its measured quantities (run
pytest with -s to see them inline).
"""

import csv
import json
import time

import numpy as np
import pytest

from horofill import bootstrap as bs
from horofill import cli
from horofill import coxeter as cx
from horofill import filling as fl
from horofill import meshes as ms
from horofill import scenarios as sc
from horofill import trace as tr
from horofill import tube as tb
from horofill.geometry import polyline_length, unit
from horofill.partitions import Loop, validate_partition

LENGTHS = (8, 16, 32, 64, 128)
SLOPE_LO, SLOPE_HI = 1.8, 2.2


def _report(num, detail):
    print(f"\nACCEPTANCE {num}: PASS - {detail}")


@pytest.fixture(scope="module")
def tube_runs():
    out = {}
    t0 = time.time()
    for name in ("tube-point", "tube-segment", "tube-square"):
        rows = []
        for ell in LENGTHS:
            P, loop = sc.GENERATORS[name](ell, 1.0, 0)
            fp, info = tb.fill_tube_loop(P, 1.0, loop, 1.0)
            mesh, area = validate_partition(loop, fp)
            assert mesh <= 1.0 + 1e-12
            rows.append((loop.length, area))
        out[name] = rows
    out["elapsed"] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def trace_runs():
    out = {}
    for name in ("trace-a2", "trace-a3"):
        rows = []
        for ell in LENGTHS:
            trace, loop = sc.GENERATORS[name](ell, 1.0, 0)
            fp, census, info = fl.fill_flat_loop(trace, loop, mesh=1.0)
            mesh, area = validate_partition(loop, fp)
            assert mesh <= 1.0 + 1e-12
            assert census.flat_bricks + census.wild_bricks == area
            rows.append((loop.length, area))
        out[name] = rows
    return out


def _slope(rows):
    lengths = [r[0] for r in rows]
    areas = {r[0]: [r[1]] for r in rows}
    return fl.dehn_exponent(lengths, areas).slope


def test_criterion_1_quadratic_tube_filling(tube_runs):
    slopes = {}
    for name in ("tube-point", "tube-segment", "tube-square"):
        s = _slope(tube_runs[name])
        assert SLOPE_LO <= s <= SLOPE_HI, (name, s)
        slopes[name] = round(s, 3)
    assert tube_runs["elapsed"] < 300.0, "tube scenarios must finish under 5 minutes"
    _report(1, f"slopes {slopes}, runtime {tube_runs['elapsed']:.1f}s < 300s")


def test_criterion_2_one_apartment_filling(trace_runs, frozen):
    L_prime = frozen["flat_area_constant"]
    slopes = {}
    for name in ("trace-a2", "trace-a3"):
        s = _slope(trace_runs[name])
        assert SLOPE_LO <= s <= SLOPE_HI, (name, s)
        slopes[name] = round(s, 3)
        for ell, area in trace_runs[name]:
            assert area <= L_prime * ell**2, (name, ell, area)
    _report(2, f"slopes {slopes}, areas within L'={L_prime} * l^2 at every length")


def test_criterion_3_bootstrap_reproduction():
    assert bs.exponent_step(1.0) == 0.5  # cubic improves to 2.5 exactly
    seq, steps = bs.bootstrap(1.0, 1e-6)
    assert all(a > b for a, b in zip(seq, seq[1:])), "strictly decreasing"
    assert seq[-1] < 1e-6 or seq[-1] <= 1e-6
    b = bs.BrickBound(1.0, 1.0, 3.0)
    ratios = []
    for M in np.geomspace(10, 1e6, 25):
        t1, t2 = bs.balanced_terms(b, M)
        ratios.append(t1 / t2)
    spread = max(ratios) / min(ratios)
    assert spread <= 10.0
    _report(3, f"step(1)=0.5, bootstrap {steps} steps to <1e-6, balance spread {spread:.2f} <= 10")


def _random_realizable_trace(rng, rs, theta):
    """Translated and scaled copies of the symmetric horoball trace."""
    base = tr.symmetric_trace(rs, theta).shifted(-rng.uniform(0.5, 2.0))
    shift = rng.normal(size=rs.rank) * 3.0
    return base.translated(shift).scaled(rng.uniform(0.5, 2.0))


def test_criterion_4_level_projection_bound():
    rng = np.random.default_rng(2024)
    systems = []
    a2 = cx.build_root_system("A", rank=2)
    systems.append((a2, cx.project_to_chamber(a2, a2.coweights[0])))
    systems.append((a2, cx.project_to_chamber(a2, a2.coweights.sum(axis=0))))
    a3 = cx.build_root_system("A", rank=3)
    systems.append((a3, cx.project_to_chamber(a3, a3.coweights[0])))
    violations = 0
    worst = 0.0
    for k in range(1000):
        rs, theta = systems[k % len(systems)]
        trace = _random_realizable_trace(rng, rs, theta)
        msr = tr.min_set(trace)
        x = rng.normal(size=rs.rank) * 6
        s = trace.value(x)
        t = rng.uniform(msr.min_value + 0.05, s - 0.05) if s - 0.05 > msr.min_value + 0.05 else msr.min_value + 0.05
        if s <= t:
            continue
        y = tr.level_project(trace, x, t)
        d = float(np.linalg.norm(x - y))
        bound = tr.projection_bound(trace, s, t)
        worst = max(worst, d - bound)
        if d > bound + 1e-6:
            violations += 1
    assert violations == 0
    _report(4, f"1000 instances, zero violations (worst slack {worst:.2e} <= 1e-6)")


def _facet_point(rng, trace, poly, i):
    tight = [
        v for v in poly.vertices if abs(np.dot(trace.gradients[i], v) + trace.offsets[i]) <= 1e-7
    ]
    if len(tight) < 1:
        return None
    w = rng.dirichlet(np.ones(len(tight)))
    return w @ np.array(tight)


def test_criterion_5_nondistortion_surrogate():
    rng = np.random.default_rng(77)
    a2 = cx.build_root_system("A", rank=2)
    a3 = cx.build_root_system("A", rank=3)
    systems = [
        (a2, cx.project_to_chamber(a2, a2.coweights[0])),
        (a2, cx.project_to_chamber(a2, a2.coweights.sum(axis=0))),
        (a3, cx.project_to_chamber(a3, a3.coweights[0])),
    ]
    checked = 0
    violations = 0
    worst_ratio = 0.0
    while checked < 1000:
        rs, theta = systems[checked % len(systems)]
        trace = _random_realizable_trace(rng, rs, theta)
        poly = tr.horoball_polytope(trace, 0.0)
        C = tr.fetze_constant(trace)
        m = len(trace.gradients)
        i, j = rng.choice(m, size=2, replace=False)
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
        worst_ratio = max(worst_ratio, ratio / C)
        if ratio > C + 1e-9:
            violations += 1
        checked += 1
    assert violations == 0
    _report(5, f"1000 facet pairs, zero violations (worst ratio/C {worst_ratio:.4f})")


def test_criterion_6_bilipschitz_radial(frozen):
    rng = np.random.default_rng(31)
    cprime = frozen["radial_cprime"]
    shapes = [tb.standard_shape(n) for n in ("point", "segment", "square")]
    checked = 0
    violations = 0
    for a in (1.5, 2.0, 3.0):
        for k in range(34):
            P = shapes[k % 3]
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
                mcoord = rng.uniform(0, chart.period)
                for _ in range(40):
                    s = float(np.clip(s + rng.normal() * 0.05, 0.2 * chart.Lu, 0.8 * chart.Lu))
                    mcoord += rng.normal() * 0.3
                    pts.append(chart.point(s, mcoord))
            _, rep = tb.radial_project_path(P, a * R_in, R_in, np.array(pts))
            if not (1.0 - 1e-9 <= rep["ratio"] <= a * cprime):
                violations += 1
            checked += 1
    assert checked >= 100
    assert violations == 0
    _report(6, f"{checked} paths over a in (1.5, 2, 3), zero violations, c'={cprime}")


def test_criterion_7_oracle_sandwich(frozen):
    results = {}
    # frozen reference constants
    v, t = ms.octasphere(3)
    eq = ms.equator_cycle(v)
    equator_oracle = fl.brute_force_area(v, t, eq)
    assert equator_oracle == frozen["oracle"]["octasphere_l3_equator"]
    loop = Loop(v[eq])
    fp, _ = tb.fill_tube_loop(tb.standard_shape("point"), 1.0, loop, _mesh_of(v, t))
    assert fp.area >= equator_oracle  # lower-bound witness always holds

    # banded instances
    v2, t2, rings = ms.capped_cylinder(n_around=12, n_along=4, n_cap=3)
    seg = tb.standard_shape("segment")
    mesh2 = _mesh_of(v2, t2)
    waist = rings[len(rings) // 2]
    oracle_w = fl.brute_force_area(v2, t2, waist)
    assert oracle_w == frozen["sandwich_instances"]["capped_cylinder_waist"]["oracle"]
    fpw, _ = tb.fill_tube_loop(seg, 1.0, Loop(v2[waist]), mesh2)
    results["waist"] = fpw.area / oracle_w
    assert oracle_w <= fpw.area <= 4 * oracle_w

    rA, rB = 2, 7
    rect = (
        rings[rA][0:7]
        + [rings[k][6] for k in range(rA + 1, rB)]
        + rings[rB][6::-1]
        + [rings[k][0] for k in range(rB - 1, rA, -1)]
    )
    oracle_r = fl.brute_force_area(v2, t2, rect)
    assert oracle_r == frozen["sandwich_instances"]["capped_cylinder_rect"]["oracle"]
    fpr, _ = tb.fill_tube_loop(seg, 1.0, Loop(v2[rect]), mesh2)
    results["rect"] = fpr.area / oracle_r
    assert oracle_r <= fpr.area <= 4 * oracle_r

    v3, t3, b3 = ms.grid_square(2)
    oracle_g = fl.brute_force_area(v3, t3, b3)
    assert oracle_g == frozen["sandwich_instances"]["grid2_boundary"]["oracle"]
    fpg = fl.cone_fill(Loop(v3[b3][:, :2]), _mesh_of(v3, t3))
    results["grid"] = fpg.area / oracle_g
    assert oracle_g <= fpg.area <= 4 * oracle_g
    _report(7, "ratios " + ", ".join(f"{k}={r:.2f}" for k, r in results.items()) + " all in [1, 4]")


def _mesh_of(v, t):
    P = v[np.asarray(t, dtype=int)]
    return float(
        np.max(
            np.linalg.norm(P[:, 0] - P[:, 1], axis=1)
            + np.linalg.norm(P[:, 1] - P[:, 2], axis=1)
            + np.linalg.norm(P[:, 2] - P[:, 0], axis=1)
        )
    )


def test_criterion_8_coxeter_correctness():
    import math

    for rank in (2, 3, 4):
        rs = cx.build_root_system("A", rank=rank)
        assert rs.order == math.factorial(rank + 1)
    a2 = cx.build_root_system("A", rank=2)
    s0 = np.eye(2) - 2 * np.outer(unit(a2.simple_roots[0]), unit(a2.simple_roots[0]))
    s1 = np.eye(2) - 2 * np.outer(unit(a2.simple_roots[1]), unit(a2.simple_roots[1]))
    hand = [np.eye(2), s0, s1, s0 @ s1, s1 @ s0, s0 @ s1 @ s0]
    for w in a2.weyl_elements:
        assert any(np.allclose(w, h, atol=1e-12) for h in hand)
    bary = cx.project_to_chamber(a2, a2.coweights.sum(axis=0))
    assert len(cx.weyl_orbit(a2, bary.direction)) == 6
    wall = cx.project_to_chamber(a2, a2.coweights[0])
    assert len(cx.weyl_orbit(a2, wall.direction)) == 3
    hand_ort = min(
        abs(np.pi / 2 - np.arccos(np.clip(np.dot(bary.direction, h @ bary.direction), -1, 1)))
        for h in hand
    )
    assert abs(cx.ort_distance(a2, bary, bary) - hand_ort) < 1e-12
    prof = cx.delta_zero(a2, bary)
    assert abs(prof.delta0 - np.pi / 3) < 1e-8
    a3 = cx.build_root_system("A", rank=3)
    theta = cx.project_to_chamber(a3, unit(a3.coweights.sum(axis=0)))
    res = cx.find_good_slope(a3, theta, 0.05)
    assert res.found
    assert cx.ort_distance(a3, theta, res.slope) > 0.05
    assert cx.wall_margin(a3, res.slope) > 0.05
    _report(8, "orders (r+1)! for r=2..4, A2 matches the 6-element oracle, A3 good slope found")


def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    with open(cfg, "w") as fh:
        json.dump(
            {
                "scenarios": [
                    {
                        "name": "det",
                        "generator": "tube-segment",
                        "lengths": [6, 12, 24],
                        "mesh": 1.0,
                        "trials": 2,
                    }
                ]
            },
            fh,
        )
    outs = []
    for k in (1, 2):
        out = tmp_path / f"out{k}"
        assert cli.main(["run", str(cfg), "--seed", "11", "--out-dir", str(out)]) == 0
        with open(out / "runs.csv") as fh:
            rows = list(csv.DictReader(fh))
        outs.append([{k2: v for k2, v in r.items() if k2 != "ms"} for r in rows])
    assert outs[0] == outs[1]
    _report(9, f"two runs, {len(outs[0])} rows byte-identical excluding timing")
