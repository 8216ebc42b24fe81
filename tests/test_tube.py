import numpy as np
import pytest

from horofill import meshes as ms
from horofill import tube as tb
from horofill.filling import brute_force_area
from horofill.partitions import Loop, validate_partition
from horofill.tube import _min_distance_sum_on_boundary


@pytest.fixture(scope="module")
def point3():
    return tb.standard_shape("point")


@pytest.fixture(scope="module")
def segment3():
    return tb.standard_shape("segment")


@pytest.fixture(scope="module")
def square3():
    return tb.standard_shape("square")


def random_tube_pair(P, R, rng):
    pts = []
    while len(pts) < 2:
        q = rng.normal(size=P.ambient_dim) * 4
        base, d = tb.nearest_point(P, q)
        if d > 1e-6:
            pts.append(base + R * (q - base) / d)
    return pts


def test_shapes(point3, segment3, square3):
    assert point3.codim == 3
    assert segment3.codim == 2
    assert square3.codim == 1
    assert tb.proper_core(square3)
    with pytest.raises(tb.TubeError):
        tb.standard_shape("pentagon")
    with pytest.raises(tb.TubeError):
        tb.rectangle_polytope(np.zeros(3), np.array([1.0, 0, 0]), np.array([1.0, 1, 0]))


def test_polytope_file_roundtrip(tmp_path, square3):
    path = tmp_path / "poly.json"
    tb.save_polytope(path, square3)
    back = tb.load_polytope(path)
    assert back.codim == 1
    assert sorted(map(tuple, np.round(back.vertices, 9))) == sorted(
        map(tuple, np.round(square3.vertices, 9))
    )


def test_tube_point_fields(segment3):
    tp = tb.make_tube_point(segment3, np.array([0.5, 1.0, 0.0]))
    assert tp.alpha == 0.0
    assert np.allclose(tp.base, [0.5, 0, 0])
    assert np.allclose(tp.foot, tp.base)  # foot in span equals base here
    tp2 = tb.make_tube_point(segment3, np.array([1 + np.sqrt(0.5), np.sqrt(0.5), 0.0]))
    assert abs(tp2.alpha - np.pi / 4) < 1e-9
    with pytest.raises(tb.TubeError):
        tb.make_tube_point(segment3, np.array([0.5, 1.0, 0.0]), R=2.0)


def test_tube_path_sphere_arc(point3):
    res = tb.tube_path(point3, 1.0, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    assert abs(res.length - np.pi / 2) < 1e-9
    for p in res.polyline:
        assert abs(np.linalg.norm(p) - 1.0) < 1e-9


def test_tube_path_segment_endpoints(segment3):
    x = np.array([0.0, 0, 1.0])
    y = np.array([1.0, 0, 1.0])
    res = tb.tube_path(segment3, 1.0, x, y)
    assert abs(res.length - 1.0) < 1e-9  # pure translate along the core
    res2 = tb.tube_path(segment3, 1.0, x, np.array([1.0, 0, -1.0]))
    assert abs(res2.length - (np.pi + 1.0)) < 1e-9  # half turn plus translate


def test_tube_path_square_separating(square3):
    x = np.array([0.5, 0.5, 1.0])
    y = np.array([0.5, 0.5, -1.0])
    res = tb.tube_path(square3, 1.0, x, y)
    assert res.separating
    # route to the boundary point z (0.5 away), half circle, and back
    assert abs(res.length - (1.0 + np.pi)) < 1e-9
    dmin = min(tb.tube_distance(square3, p) for p in res.polyline)
    assert dmin >= 1.0 - 1e-6


def test_tube_path_hypothesis_violation(square3):
    x = np.array([3.0, 0.5, 1.0])
    y = np.array([3.0, 0.5, -1.0])
    # feet projections sit outside the square and their chord misses it
    with pytest.raises(tb.HypothesisViolated, match="misses the core"):
        tb.tube_path(square3, tb.tube_distance(square3, x), x, y)


def test_tube_path_formula_band(frozen, point3, segment3, square3):
    """Construction length equals d(x0,y0) + R(alpha_x+alpha_y+beta) exactly."""
    rng = np.random.default_rng(11)
    lo, hi = frozen["tube_path_formula_band"]
    chord_max = frozen["tube_path_chord_band_max"]
    shapes = [point3, segment3, square3]
    checked = 0
    for trial in range(300):
        P = shapes[trial % 3]
        R = rng.uniform(0.3, 3.0)
        x, y = random_tube_pair(P, R, rng)
        tx, ty = tb.make_tube_point(P, x, R), tb.make_tube_point(P, y, R)
        try:
            res = tb.tube_path(P, R, tx, ty)
        except tb.HypothesisViolated:
            continue
        if res.separating:
            z = _min_distance_sum_on_boundary(P, tx.base, ty.base)
            denom = (
                np.linalg.norm(tx.base - z)
                + np.linalg.norm(z - ty.base)
                + R * (tx.alpha + ty.alpha + np.pi)
            )
        else:
            denom = np.linalg.norm(tx.base - ty.base) + R * (
                tx.alpha + ty.alpha + tb.beta_angle(tx, ty)
            )
        if denom < 1e-9:
            continue
        assert lo <= res.length / denom <= hi
        dmin = min(tb.tube_distance(P, p) for p in res.polyline)
        assert dmin >= R - 1e-6, "path entered the open tube"
        d = np.linalg.norm(x - y)
        if d > 1e-9:
            assert res.length / d <= chord_max
            assert res.length >= d - 1e-9
        checked += 1
    assert checked > 150


def test_radial_projection_point_core(point3):
    path = np.array(
        [[np.cos(a) * 2, np.sin(a) * 2, 0.0] for a in np.linspace(0, 1.0, 30)]
    )
    inner, rep = tb.radial_project_path(point3, 2.0, 1.0, path)
    assert abs(rep["ratio"] - 2.0) < 1e-9  # concentric spheres scale exactly
    assert np.allclose(np.linalg.norm(inner, axis=1), 1.0)


def test_radial_projection_face_fiber(square3):
    """A path over the face interior at constant height maps isometrically."""
    ts = np.linspace(0.2, 0.8, 20)
    path = np.array([[t, 0.4 + 0.2 * t, 2.0] for t in ts])
    inner, rep = tb.radial_project_path(square3, 2.0, 0.5, path)
    assert abs(rep["ratio"] - 1.0) < 1e-9


def test_radial_projection_band(frozen, point3, segment3, square3):
    rng = np.random.default_rng(5)
    cprime = frozen["radial_cprime"]
    for a in (1.5, 2.0, 3.0):
        for trial in range(30):
            P = (point3, segment3, square3)[trial % 3]
            R_in = rng.uniform(0.4, 1.5)
            chart = tb.chart_for(P, a * R_in, None)
            pts = []
            if isinstance(chart, tb.RevolutionChart):
                t = rng.uniform(0.2 * chart.T, 0.8 * chart.T)
                phi = rng.uniform(0, 2 * np.pi)
                for _ in range(30):
                    t = np.clip(t + rng.normal() * 0.1 * chart.T, 0.05 * chart.T, 0.95 * chart.T)
                    phi += rng.normal() * 0.3
                    pts.append(chart.point(t, phi))
            else:
                s = chart.Lu * 0.5
                m = rng.uniform(0, chart.M)
                for _ in range(30):
                    s = np.clip(s + rng.normal() * 0.05, 0.2 * chart.Lu, 0.8 * chart.Lu)
                    m += rng.normal() * 0.3
                    pts.append(chart.point(s, m))
            inner, rep = tb.radial_project_path(P, a * R_in, R_in, np.array(pts))
            assert 1.0 - 1e-9 <= rep["ratio"] <= a * cprime


def test_radial_projection_validates_surface(segment3):
    with pytest.raises(tb.TubeError, match="not on the outer tube"):
        tb.radial_project_path(segment3, 2.0, 1.0, np.array([[0.5, 0.5, 0.0]]))


def test_sandwich_cube_over_ball(point3, segment3):
    a = np.sqrt(3.0)
    c = 1.0
    cube = tb.VPolytope(
        [np.array([sx, sy, sz]) for sx in (-c, c) for sy in (-c, c) for sz in (-c, c)]
    )
    proj = tb.sandwich_project(cube, point3, 1.0)
    assert abs(proj.a - a) < 1e-9
    x = np.array([c, c, c])
    mapped = proj.map(x)
    assert abs(np.linalg.norm(mapped) - 1.0) < 1e-12
    back = proj.inverse_batch([mapped])
    assert np.allclose(back, [x], atol=1e-9)
    # a segment core gives every fiber its own base
    box = tb.VPolytope(
        [np.array([sx, sy, sz]) for sx in (-2.0, 3.0) for sy in (-2.0, 2.0) for sz in (-2.0, 2.0)]
    )
    proj = tb.sandwich_project(box, segment3, 1.0)
    X = np.array(
        [[3.0, 0.5, 0.3], [0.5, 2.0, -1.0], [-2.0, -1.0, 1.5], [0.2, -0.7, -2.0], [3.0, 2.0, 2.0]]
    )
    mapped = np.array([proj.map(x) for x in X])
    assert all(abs(tb.tube_distance(segment3, p) - 1.0) < 1e-12 for p in mapped)
    assert np.allclose(proj.inverse_batch(mapped), X, atol=1e-9)


def test_sandwich_inclusion_failure(point3):
    small = tb.VPolytope(
        [np.array([sx, sy, sz]) * 0.5 for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    )
    with pytest.raises(tb.SandwichError):
        tb.sandwich_project(small, point3, 1.0)


def test_sandwich_requires_full_dim(point3, square3):
    with pytest.raises(tb.SandwichError, match="full-dimensional"):
        tb.sandwich_project(square3, point3, 1.0)


def test_sandwich_identity_ratio(point3):
    """A tight polytope body maps with ratio near 1 on its own facets."""
    cube = tb.VPolytope(
        [np.array([sx, sy, sz]) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    )
    proj = tb.sandwich_project(cube, point3, 1.0)
    path = np.array([[1.0, t, 0.0] for t in np.linspace(-0.3, 0.3, 10)])
    rep = proj.path_ratio(path)
    assert 1.0 / (proj.a * 1.1) <= rep["ratio"] <= proj.a * 1.1


def test_classify_strip_cases(point3, segment3, square3):
    p4 = tb.point_polytope(np.zeros(4))
    assert tb.classify_strip(p4).case == "codim>=3"
    assert tb.classify_strip(point3).case == "codim>=3"
    seg = tb.classify_strip(segment3)
    assert seg.case == "codim2-in-1strip"
    assert abs(seg.delta - 1.0) < 1e-9  # width of the unit segment's vertex set
    sq = tb.classify_strip(square3)
    assert sq.case == "codim1-in-2strip"
    assert abs(sq.delta - 1.0) < 1e-6
    assert abs(sq.epsilon - np.pi / 2) < 1e-6
    p2 = tb.point_polytope(np.zeros(2))
    assert tb.classify_strip(p2).case == "codim2-in-1strip"
    assert tb.classify_strip(p2).delta == 0.0


def test_charts_roundtrip(point3, segment3, square3):
    rng = np.random.default_rng(3)
    for P, R in ((point3, 1.3), (segment3, 0.7), (square3, 1.1)):
        chart = tb.chart_for(P, R, None)
        for _ in range(50):
            if isinstance(chart, tb.RevolutionChart):
                t = rng.uniform(0.05, 0.95) * chart.T
                phi = rng.uniform(-np.pi, np.pi)
                p = chart.point(t, phi)
                t2, phi2 = chart.coords(p)
                assert abs(t - t2) < 1e-9
                assert abs((phi - phi2 + np.pi) % (2 * np.pi) - np.pi) < 1e-9
            else:
                s = rng.uniform(0.1, 0.9) * chart.Lu
                m = rng.uniform(0, chart.M)
                p = chart.point(s, m)
                s2, m2 = chart.coords(p)
                assert abs(s - s2) < 1e-9
                assert abs((m - m2 + chart.M / 2) % chart.M - chart.M / 2) < 1e-9
            assert abs(tb.tube_distance(P, p) - R) < 1e-9
    # a stadium sequence crossing the m = M seam lifts continuously
    chart = tb.StadiumChart(square3, 1.1)
    ms = np.linspace(chart.M - 1.0, chart.M + 1.0, 41)
    ss, lifted = chart.lift(chart.points(np.full(41, 0.5), ms))
    assert np.allclose(ss, 0.5, atol=1e-9)
    assert np.allclose(lifted, ms, atol=1e-9)


def test_stadium_band_guard(square3):
    chart = tb.StadiumChart(square3, 1.0)
    with pytest.raises(tb.ChartError, match="central band"):
        chart.coords(np.array([2.0, 0.5, 1.0]))


def test_loop_degree_detection(point3, segment3, square3):
    t = np.linspace(0, 1, 128, endpoint=False)
    wrap2 = np.stack(
        [np.cos(4 * np.pi * t), np.sin(4 * np.pi * t), 0.2 * np.sin(2 * np.pi * t)],
        axis=1,
    )
    wrap2 /= np.linalg.norm(wrap2, axis=1)[:, None]
    chart = tb.chart_for(point3, 1.0, wrap2)
    assert abs(tb.loop_degree(chart, wrap2)) == 2
    # segment wrap: three turns around the axis while drifting along it
    wrap3 = tb.RevolutionChart(segment3, 1.0).points(
        np.pi / 2 + 0.5 + 0.3 * np.sin(2 * np.pi * t), 6 * np.pi * t
    )
    assert tb.loop_degree(tb.chart_for(segment3, 1.0, wrap3), wrap3) == 3
    # stadium serpentine: sweeps past the seam several times, winds zero
    stadium = tb.StadiumChart(square3, 1.0)
    serp = stadium.points(np.full(128, 0.5), 0.3 + 2.5 * stadium.M * np.sin(2 * np.pi * t))
    assert tb.loop_degree(stadium, serp) == 0
    assert tb.loop_degree(stadium, stadium.points(np.full(128, 0.5), stadium.M * t)) == 1


def test_fill_wrapped_and_validate(point3, segment3):
    t = np.linspace(0, 1, 256, endpoint=False)
    psi = np.pi / 2 + 0.3 * np.cos(2 * np.pi * t)
    phi = 2 * np.pi * 3 * t
    pts = np.stack(
        [np.sin(psi) * np.cos(phi), np.sin(psi) * np.sin(phi), np.cos(psi)], axis=1
    )
    loop = Loop(pts)
    fp, info = tb.fill_tube_loop(point3, 1.0, loop, 1.0)
    mesh, area = validate_partition(loop, fp)
    assert mesh <= 1.0 + 1e-12
    assert info["degree"] == 3
    for p in fp.points:
        assert tb.tube_distance(point3, p) >= 1.0 - 1e-6


def test_fill_constant_loop(point3):
    c = Loop(np.tile(np.array([[0.0, 0, 1.0]]), (4, 1)))
    fp, info = tb.fill_tube_loop(point3, 1.0, c, 1.0)
    assert fp.area == 0


def test_fill_rejects_off_surface(point3):
    loop = Loop(np.array([[2.0, 0, 0], [0, 2.0, 0], [-2.0, 0, 0], [0, -2.0, 0]]))
    with pytest.raises(tb.TubeError, match="off the tube"):
        tb.fill_tube_loop(point3, 1.0, loop, 1.0)


def test_fill_planar_degree_error():
    p2 = tb.point_polytope(np.zeros(2))
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    circle = np.stack([np.cos(t), np.sin(t)], axis=1)
    with pytest.raises(tb.TubeError, match="winds"):
        tb.fill_tube_loop(p2, 1.0, Loop(circle), 1.0)


def test_fill_planar_degree_zero_ok():
    p2 = tb.point_polytope(np.zeros(2))
    t = np.linspace(0, 1, 256, endpoint=False)
    phi = 1.8 * np.sin(2 * np.pi * t)
    pts = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    loop = Loop(pts)
    fp, info = tb.fill_tube_loop(p2, 1.0, loop, 0.5)
    mesh, area = validate_partition(loop, fp)
    assert mesh <= 0.5 + 1e-12


def test_fill_area_quadrupling(segment3):
    """Doubling the length at fixed core, radius and mesh quadruples area."""
    from horofill import scenarios as sc

    areas = {}
    for ell in (32, 64, 128):
        P, loop = sc.tube_segment_wrap(1.0, ell, 1.0, seed=3)
        fp, _ = tb.fill_tube_loop(P, 1.0, loop, 1.0)
        areas[ell] = fp.area
    r1 = areas[64] / areas[32]
    r2 = areas[128] / areas[64]
    assert 3.0 <= r1 <= 5.0
    assert 3.0 <= r2 <= 5.0
