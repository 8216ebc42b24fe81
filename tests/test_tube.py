import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horofill import meshes as ms
from horofill import tube as tb
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


def test_tube_point_fields(segment3):
    tp = tb.make_tube_point(segment3, np.array([0.5, 1.0, 0.0]), 1.0)
    assert tp.alpha == 0.0
    assert np.allclose(tp.base, [0.5, 0, 0])
    assert np.allclose(tp.foot, tp.base)  # foot in span equals base here
    tp2 = tb.make_tube_point(segment3, np.array([1 + np.sqrt(0.5), np.sqrt(0.5), 0.0]), 1.0)
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
    # x sits over the corner (1, 1), so z is that corner and the half
    # circle swings along the sum of the two edge normals there
    R = np.sqrt(0.75)
    x = np.array([1.5, 1.5, 0.5])
    y = np.array([0.5, 0.5, -R])
    res = tb.tube_path(square3, R, x, y)
    assert res.separating
    alpha_x = np.arctan2(np.sqrt(0.5), 0.5)
    assert abs(res.length - (R * alpha_x + np.pi * R + np.sqrt(0.5))) < 1e-9
    dmin = min(tb.tube_distance(square3, p) for p in res.polyline)
    assert dmin >= R - 1e-6


def test_tube_path_separating_core_needs_point_or_edge_facets():
    """The 3-simplex spanned by 0, e1, e2, e3 in E^4 has triangles for facets."""
    P = tb.VPolytope(np.vstack([np.zeros(4), np.eye(4)[:3]]))
    assert P.codim == 1
    x = np.array([0.1, 0.1, 0.1, 1.0])
    y = np.array([0.1, 0.1, 0.1, -1.0])
    with pytest.raises(tb.TubeError, match="no point or edge facets"):
        tb.tube_path(P, 1.0, x, y)


@st.composite
def boundary_cases(draw):
    """A core with point or edge facets, its boundary pieces, and two points of it.

    The cores are the square in E^3, the square with a fifth vertex
    1e-13 outside one of its edges (two facets whose three tight vertices
    are near-collinear), the hull of 3-8 random points in a random plane
    of E^3 and a segment in E^2.  The boundary pieces are the polygon's
    edges in the angular order of its vertices, or the segment's two end
    points, so they do not come from the facets the function reads.
    Each point lies inside the core, on a boundary piece, at a vertex or
    off the core, and b may be a itself.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["square", "notched", "polygon", "segment2"]))
    if kind == "square":
        P = tb.standard_shape("square")
    elif kind == "notched":
        corners = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
        k = draw(st.integers(0, 3))
        p, q = corners[k], corners[(k + 1) % 4]
        out = np.array([q[1] - p[1], p[0] - q[0], 0.0])
        P = tb.VPolytope(np.vstack([corners, p + rng.uniform(0.05, 0.95) * (q - p) + 1e-13 * out]))
    elif kind == "polygon":
        frame = np.linalg.qr(rng.normal(size=(3, 3)))[0][:2]
        P = tb.VPolytope(rng.normal(size=(draw(st.integers(3, 8)), 2)) @ frame + rng.normal(size=3))
    else:
        P = tb.segment_polytope(rng.normal(size=2), rng.normal(size=2))
    V = P.vertices
    if P.dim == 2:
        c = (V - V.mean(0)) @ P.basis.T
        V = V[np.argsort(np.arctan2(c[:, 1], c[:, 0]))]
        pieces = list(zip(V, np.roll(V, -1, axis=0)))
    else:
        pieces = [(v, v) for v in V]

    def point(where):
        if where == "inside":
            return rng.dirichlet(np.ones(len(V))) @ V
        if where == "off":
            return V.mean(0) + rng.normal(size=P.ambient_dim)
        if where == "vertex":
            return V[rng.integers(len(V))]
        p, q = pieces[rng.integers(len(pieces))]
        return p + rng.uniform() * (q - p)

    places = st.sampled_from(["inside", "edge", "vertex", "off"])
    a = point(draw(places))
    b = a.copy() if draw(st.booleans()) else point(draw(places))
    return P, pieces, a, b


@settings(max_examples=200)
@given(boundary_cases())
def test_min_distance_sum_is_never_above_the_sampled_boundary(case):
    """The boundary point's sum d(a, z) + d(z, b) is at most that of every sampled boundary point."""
    P, pieces, a, b = case
    z = _min_distance_sum_on_boundary(P, a, b)
    ts = np.linspace(0.0, 1.0, 1001)[:, None]
    S = np.vstack([p + ts * (q - p) for p, q in pieces])
    sampled = np.min(np.linalg.norm(S - a, axis=1) + np.linalg.norm(S - b, axis=1))
    assert np.linalg.norm(z - a) + np.linalg.norm(z - b) <= sampled + 1e-12
    # z is on the boundary: within rounding of one of its pieces
    gaps = []
    for p, q in pieces:
        d = q - p
        t = np.clip(np.dot(z - p, d) / max(np.dot(d, d), 1e-300), 0.0, 1.0)
        gaps.append(np.linalg.norm(z - p - t * d))
    assert min(gaps) <= 1e-9


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


def reference_arc(center, v_from, v_to, radius):
    """The point-by-point ``_arc``, with its antipodal branch."""
    e1 = tb.unit(v_from)
    w = v_to - np.dot(v_to, e1) * e1
    if np.linalg.norm(w) < tb.DECISION_TOL * radius:
        if np.dot(v_to, e1) > 0:
            return [center + v_from], 0.0
        raise tb.TubeError("antipodal arc needs an explicit swing direction")
    return reference_circle_arc(center, v_from, v_to, radius, tb.angle_between(v_from, v_to))


def reference_circle_arc(center, v_from, toward, radius, angle):
    e1 = tb.unit(v_from)
    e2 = tb.unit(toward - np.dot(toward, e1) * e1)
    n = max(2, int(np.ceil(angle / tb.ARC_STEP)) + 1)
    ts = np.linspace(0.0, angle, n)
    pts = [center + radius * (np.cos(t) * e1 + np.sin(t) * e2) for t in ts]
    return pts, float(radius * angle)


def reference_tube_path(P, R, x, y):
    """The ``tube_path`` that appends its polyline point by point."""
    if not tb.proper_core(P):
        raise tb.TubeError("core must have codimension >= 1")
    if not tb.segment_hits_polytope(x.foot, y.foot, P):
        raise tb.HypothesisViolated(
            "the segment [x', y'] between the span projections misses the core"
        )
    poly = [x.point]
    total = 0.0
    case = "A"
    vx, vy = x.vertical.copy(), y.vertical.copy()
    if np.linalg.norm(x.lateral) > tb.DECISION_TOL:
        case = "B"
        vx = tb._vertical_target(P, x, y)
        arc, alen = reference_arc(x.base, x.point - x.base, vx, R)
        poly.extend(arc[1:])
        total += alen
    if np.linalg.norm(y.lateral) > tb.DECISION_TOL:
        case = "C" if case == "B" else "B"
        vy = tb._vertical_target(P, y, x)
    separating = P.codim == 1 and float(np.dot(vx, vy)) < 0.0
    if separating:
        z = _min_distance_sum_on_boundary(P, x.base, y.base)
        x2 = z + vx
        poly.append(x2)
        total += float(np.linalg.norm(poly[-2] - x2))
        swing = tb._outward_in_span(P, z)
        half, hlen = reference_circle_arc(z, vx, swing, R, np.pi)
        poly.extend(half[1:])
        total += hlen
        y2 = z + vy
        py = y.base + vy
        total += float(np.linalg.norm(y2 - py))
        poly.append(py)
    else:
        e1 = tb.unit(vx)
        w = vy - np.dot(vy, e1) * e1
        if np.linalg.norm(w) < tb.DECISION_TOL * R and np.dot(vx, vy) < 0:
            perp = tb._perpendicular_vertical(P, vx)
            arc, alen = reference_circle_arc(x.base, vx, perp, R, np.pi)
        else:
            arc, alen = reference_arc(x.base, vx, vy, R)
        poly.extend(arc[1:])
        total += alen
        py = y.base + vy
        total += float(np.linalg.norm(np.asarray(arc[-1]) - py))
        poly.append(py)
    if np.linalg.norm(y.lateral) > tb.DECISION_TOL:
        arc, alen = reference_arc(y.base, vy, y.point - y.base, R)
        poly.extend(arc[1:])
        total += alen
    else:
        poly.append(y.point)
    out = [np.asarray(poly[0], dtype=float)]
    for p in poly[1:]:
        if np.linalg.norm(np.asarray(p) - out[-1]) > tb.DEDUP_TOL:
            out.append(np.asarray(p, dtype=float))
    return tb.TubePathResult(np.array(out), float(total), case, separating)


def random_core(rng):
    """A polygon in a random plane of E^3, a segment in E^2 or E^3, or a point in E^2."""
    kind = rng.integers(4)
    if kind == 0:
        frame = np.linalg.qr(rng.normal(size=(3, 3)))[0][:, :2]
        return tb.VPolytope(rng.normal(size=3) + rng.normal(size=(rng.integers(3, 7), 2)) @ frame.T)
    if kind == 3:
        return tb.point_polytope(rng.normal(size=2))
    n = 2 + kind - 1
    a = rng.normal(size=n)
    return tb.segment_polytope(a, a + rng.normal(size=n))


def constructed_pairs():
    """(core, R, x, y) for the branches random pairs seldom reach."""
    point, segment, square = (tb.standard_shape(n) for n in ("point", "segment", "square"))
    R = np.sqrt(0.75)
    return [
        (segment, 1.0, [0.5, 0.0, 1.0], [0.5, 0.0, -1.0]),  # antipodal verticals
        (segment, 1.0, [0.2, 0.0, 1.0], [0.9, -1.0, 0.0]),
        (segment, 1.0, [-1.0, 0.0, 0.0], [0.5, 0.0, 1.0]),  # zero vertical at x
        (segment, 1.0, [-1.0, 0.0, 0.0], [2.0, 0.0, 0.0]),  # zero verticals at both
        (square, 1.0, [-1.0, 0.5, 0.0], [2.0, 0.5, 0.0]),
        (point, 1.0, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]),  # x == y
        (segment, 0.7, [0.3, 0.0, 0.7], [0.3, 0.0, 0.7]),
        (square, 1.0, [0.5, 0.5, 1.0], [0.5, 0.5, -1.0]),  # separating
        (square, R, [1.5, 1.5, 0.5], [0.5, 0.5, -R]),
        (square, 1.0, [0.5, -0.6, 0.8], [0.5, 1.6, -0.8]),
    ]


def path_or_error(f, P, R, x, y):
    try:
        res = f(P, R, x, y)
    except Exception as err:
        return type(err), str(err)
    poly = res.polyline
    return res.case, res.separating, poly.shape, poly.tobytes(), np.float64(res.length).tobytes()


def test_tube_path_matches_the_point_by_point_construction(point3, segment3, square3):
    """Paths from the array-built polyline equal the appended one bit for bit.

    Draws: random pairs on the three standard shapes, on random cores
    (codimension 1 polygons and segments route separating pairs through
    their boundary) and constructed pairs for the antipodal, zero-vertical,
    x == y and separating branches.  Both versions get the same tube
    points and must raise the same error or give the same case,
    separating flag, polyline bytes and length bits.
    """
    rng = np.random.default_rng(5)
    draws = []
    for P in (point3, segment3, square3):
        draws += [(P, R, *random_tube_pair(P, R, rng)) for R in rng.uniform(0.3, 3.0, 500)]
    for _ in range(2000):
        P, R = random_core(rng), rng.uniform(0.3, 3.0)
        draws.append((P, R, *random_tube_pair(P, R, rng)))
    draws += constructed_pairs()
    kinds = set()
    for P, R, x, y in draws:
        tx, ty = (tb.make_tube_point(P, np.asarray(p, dtype=float), R) for p in (x, y))
        got = path_or_error(tb.tube_path, P, R, tx, ty)
        assert got == path_or_error(reference_tube_path, P, R, tx, ty)
        kinds.add(got[:2])
    missed = (tb.HypothesisViolated, "the segment [x', y'] between the span projections misses the core")
    assert kinds == {missed} | {(case, sep) for case in "ABC" for sep in (False, True)}


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
                m = rng.uniform(0, chart.period)
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
                (t2,), (phi2,) = chart.lift([p])
                assert abs(t - t2) < 1e-9
                assert abs((phi - phi2 + np.pi) % (2 * np.pi) - np.pi) < 1e-9
            else:
                s = rng.uniform(0.1, 0.9) * chart.Lu
                m = rng.uniform(0, chart.period)
                p = chart.point(s, m)
                (s2,), (m2,) = chart.lift([p])
                assert abs(s - s2) < 1e-9
                assert abs((m - m2 + chart.period / 2) % chart.period - chart.period / 2) < 1e-9
            assert abs(tb.tube_distance(P, p) - R) < 1e-9
    # a stadium sequence crossing the m = M seam lifts continuously
    chart = tb.StadiumChart(square3, 1.1)
    ms = np.linspace(chart.period - 1.0, chart.period + 1.0, 41)
    ss, lifted = chart.lift(chart.points(np.full(41, 0.5), ms))
    assert np.allclose(ss, 0.5, atol=1e-9)
    assert np.allclose(lifted, ms, atol=1e-9)


@st.composite
def charts(draw):
    """A chart, the length of its t-domain and a generator for parameters.

    Revolution charts of a point and of a segment in E^3, the circle
    chart of a point in E^2 (t unused, domain length 0), and the stadium
    chart of a rectangle, whose domain is its central band 0 < s < Lu.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    R = draw(st.floats(0.2, 3.0))
    kind = draw(st.sampled_from(["point", "segment", "circle", "stadium"]))
    if kind == "point":
        chart = tb.RevolutionChart(tb.point_polytope(rng.normal(size=3)), R, rng.normal(size=3))
        return chart, chart.T, rng
    if kind == "segment":
        a = rng.normal(size=3)
        chart = tb.RevolutionChart(tb.segment_polytope(a, a + rng.normal(size=3)), R)
        return chart, chart.T, rng
    if kind == "circle":
        return tb.PlanarCircleChart(tb.point_polytope(rng.normal(size=2)), R), 0.0, rng
    lu, lw = rng.uniform(0.3, 3.0, size=2)
    rect = tb.rectangle_polytope(rng.normal(size=3), [lu, 0.0, 0.0], [0.0, lw, 0.0])
    chart = tb.StadiumChart(rect, R)
    return chart, chart.Lu, rng


@given(charts())
def test_chart_coords_roundtrip(case):
    """lift([point(t, phi)]) gives back t, and phi modulo the chart period.

    t stays 1 % of the domain away from its ends: the poles of a
    revolution chart, where phi is undefined, and the far ends of the
    stadium band.
    """
    chart, T, rng = case
    period = chart.period
    for t, phi in zip(rng.uniform(0.01, 0.99, 20) * T, rng.uniform(-50, 50, 20)):
        (t2,), (phi2,) = chart.lift([chart.point(t, phi)])
        assert abs(t2 - t) <= 1e-9 * max(1.0, T)
        assert abs((phi2 - phi + period / 2) % period - period / 2) <= 1e-9 * max(1.0, abs(phi))


@given(charts(), st.lists(st.integers(2, 40), min_size=1, max_size=8))
def test_segments_match_linspace_bit_for_bit(case, counts):
    """Each segment's rows are those of ``points`` on two np.linspace calls.

    Segments are general, keep t or phi fixed (meridians, fibers), have
    length zero (numpy's step-zero branch) or a subnormal length, which
    the parameter rows show where the points round it away.
    """
    chart, T, rng = case
    m = len(counts)
    starts = np.stack([rng.uniform(0, 1, m) * T, rng.uniform(-20, 20, m)], axis=1)
    stops = np.stack([rng.uniform(0, 1, m) * T, rng.uniform(-20, 20, m)], axis=1)
    kind = rng.integers(0, 5, m)
    stops[kind == 1, 0] = starts[kind == 1, 0]
    stops[kind == 2, 1] = starts[kind == 2, 1]
    stops[kind == 3] = starts[kind == 3]
    starts[kind == 4] = 0.0
    stops[kind == 4] = [5e-324, 3 * 5e-324]
    rows = chart.segments(starts, stops, counts)
    params = tb.segment_params(starts, stops, counts)
    at = 0
    for p0, p1, n in zip(starts, stops, counts):
        t, phi = np.linspace(p0[0], p1[0], n), np.linspace(p0[1], p1[1], n)
        assert params[at : at + n].tobytes() == np.stack([t, phi], axis=1).tobytes()
        assert rows[at : at + n].tobytes() == chart.points(t, phi).tobytes()
        at += n
    assert at == len(rows)


def test_stadium_band_guard(square3):
    chart = tb.StadiumChart(square3, 1.0)
    with pytest.raises(tb.ChartError, match="central band"):
        chart.lift([np.array([2.0, 0.5, 1.0])])


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
    serp = stadium.points(np.full(128, 0.5), 0.3 + 2.5 * stadium.period * np.sin(2 * np.pi * t))
    assert tb.loop_degree(stadium, serp) == 0
    assert tb.loop_degree(stadium, stadium.points(np.full(128, 0.5), stadium.period * t)) == 1


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


@pytest.mark.parametrize(
    "corners",
    [
        [[0.0, 0, 0], [2.0, 0, 0], [0.5, 1.5, 0]],  # triangle
        [[0.0, 0, 0], [2.0, 0, 0], [2.5, 1.0, 0], [0.0, 1.5, 0]],  # not a rectangle
    ],
)
def test_fill_rejects_cores_without_exact_chart(corners):
    P = tb.VPolytope(corners)
    center = np.mean(corners, axis=0)
    t = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    loop = Loop(center + np.stack([0.2 * np.cos(t), 0.2 * np.sin(t), np.ones_like(t)], axis=1))
    with pytest.raises(tb.TubeError, match="no exact chart"):
        tb.fill_tube_loop(P, 1.0, loop, 1.0)


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
        P, loop = sc.tube_segment_wrap(ell, 1.0, seed=3)
        fp, _ = tb.fill_tube_loop(P, 1.0, loop, 1.0)
        areas[ell] = fp.area
    r1 = areas[64] / areas[32]
    r2 = areas[128] / areas[64]
    assert 3.0 <= r1 <= 5.0
    assert 3.0 <= r2 <= 5.0


# -- the batched callers, byte for byte against per-point loops ---------------------


CORES = {
    "point": tb.standard_shape("point"),
    "segment": tb.standard_shape("segment"),
    "square": tb.standard_shape("square"),
    "triangle": tb.VPolytope([[0.0, 0, 0], [2.0, 0.5, 0.3], [0.4, 1.5, -0.2]]),
    "segment2": tb.VPolytope([[0.0, 0.0], [1.0, 2.0]]),
    "point2": tb.point_polytope(np.array([0.5, -1.0])),
}


def near_points(P, rng, k=40):
    """Points around the core: inside its span, on its facets' planes and far off."""
    X = P.vertices[rng.integers(len(P.vertices), size=k)] + rng.normal(size=(k, P.ambient_dim))
    X[::4] = P.vertices[rng.integers(len(P.vertices), size=len(X[::4]))]
    X[1::5] *= 8.0
    return X


def reference_strip(P, n_grid):
    """The direction-by-direction ``classify_strip``."""
    if P.dim == 1:
        dirs = [P.basis.T @ np.array([1.0])]
    elif P.dim == 2:
        ts = np.linspace(0.0, np.pi, n_grid, endpoint=False)
        dirs = [P.basis.T @ np.array([np.cos(t), np.sin(t)]) for t in ts]
    else:
        rng = np.random.default_rng(0)
        dirs = [P.basis.T @ tb.unit(rng.normal(size=P.dim)) for _ in range(n_grid**2)]
    widths = [float(np.max(P.vertices @ d) - np.min(P.vertices @ d)) for d in dirs]
    if P.codim == 2:
        best_d, best_w = None, np.inf
        for d, w in zip(dirs, widths):
            if w < best_w - tb.DEDUP_TOL:
                best_w, best_d = w, d
        return "codim2-in-1strip", best_w, (best_d,)
    i1 = int(np.argmin(widths))
    best_j, best_w2 = None, np.inf
    for j, d in enumerate(dirs):
        ang = tb.angle_between(dirs[i1], d)
        if min(ang, np.pi - ang) < np.pi / 4:
            continue
        if widths[j] < best_w2 - tb.DEDUP_TOL:
            best_w2, best_j = widths[j], j
    if best_j is None:
        return "fails", None, ()
    return "codim1-in-2strip", max(widths[i1], best_w2), (dirs[i1], dirs[best_j])


@pytest.mark.parametrize("name", ["segment", "square", "triangle", "segment2", "tetra4"])
def test_classify_strip_matches_the_per_direction_loop(name, monkeypatch):
    if name == "tetra4":  # a 3-dimensional core in E^4 samples STRIP_GRID**2 random directions
        P = tb.VPolytope(np.vstack([np.zeros(4), np.diag([1.0, 2.0, 0.5, 0.0])[:3]]))
        monkeypatch.setattr(tb, "STRIP_GRID", 12)
    else:
        P = CORES[name]
    got = tb.classify_strip(P)
    case, delta, dirs = reference_strip(P, tb.STRIP_GRID)
    assert got.case == case
    if delta is not None:
        assert np.float64(got.delta).tobytes() == np.float64(delta).tobytes()
    assert [d.tobytes() for d in got.directions] == [d.tobytes() for d in dirs]


def test_fit_axis_matches_the_running_sum():
    """Planar loops through the center give exact zeros, whose sign the sum keeps.

    The turning axis is kept unless it passes within AXIS_CLEARANCE of
    a loop direction: the first circle, centered, keeps it; the second,
    off center, the random cloud and the tiny loop (no turning) take the
    least singular direction.
    """
    rng = np.random.default_rng(2)
    t = np.linspace(0, 2 * np.pi, 17, endpoint=False)
    loops = [
        np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1),
        np.stack([np.zeros_like(t), -np.cos(t), np.sin(t)], axis=1),
        rng.normal(size=(30, 3)),
        rng.normal(size=(3, 3)) * 1e-9,
    ]
    kept = []
    for v in loops:
        center = v[0] * 0.0 if rng.integers(2) else rng.normal(size=3)
        w = v - center
        mom = np.zeros(3)
        for i in range(len(w)):
            mom += np.cross(w[i], w[(i + 1) % len(w)])
        u = np.array([x / np.linalg.norm(x) for x in w])
        turns = np.linalg.norm(mom) > tb.DECISION_TOL
        kept.append(bool(turns and np.all(np.abs(u @ tb.unit(mom)) <= np.cos(tb.AXIS_CLEARANCE))))
        want = tb.unit(mom) if kept[-1] else tb.unit(np.linalg.svd(u)[2][-1])
        assert tb._fit_axis(v, center).tobytes() == want.tobytes()
    assert kept == [True, False, False, False]


def reference_loop_case(P, vertices):
    """``loop_case`` with one foot and one containment test per vertex."""
    feet = [tb.project_affine(v, P.origin, P.basis) for v in vertices]
    if any(P.contains(f) for f in feet):
        return 1
    s, step = len(feet), max(1, len(feet) // 64)
    for i in range(0, s, step):
        for j in range(i + 1, s, step):
            if tb.segment_hits_polytope(feet[i], feet[j], P):
                return 2
    return 3


@pytest.mark.parametrize("name", ["point", "segment", "square", "triangle"])
def test_loop_case_and_feet_match_the_per_vertex_loop(name):
    P, rng = CORES[name], np.random.default_rng(4)
    seen = set()
    for trial in range(30):
        X = near_points(P, rng, k=int(rng.integers(1, 12))) + rng.normal(size=P.ambient_dim) * 3
        case = tb.loop_case(P, Loop(X))
        assert case == reference_loop_case(P, X)
        seen.add(case)
        feet = tb.project_affine(X, P.origin, P.basis)
        want = [tb.project_affine(x, P.origin, P.basis) for x in X]
        assert [f.tobytes() for f in feet] == [f.tobytes() for f in want]
        assert P.contains(X).tolist() == [P.contains(x) for x in X]
    assert len(seen) > 1 or P.dim == 0  # every foot of a point core is the point


@pytest.mark.parametrize("name", list(CORES))
def test_nearest_point_rows_match_the_per_point_loop(name):
    P = CORES[name]
    X = near_points(P, np.random.default_rng(6))
    bases, d = tb.nearest_point(P, X)
    assert bases.shape == X.shape and d.shape == X.shape[:1]
    for x, base, dist in zip(X, bases, d):
        want = P.nearest_point(x)
        assert base.tobytes() == want.tobytes()
        assert float(dist) == float(np.linalg.norm(x - want))
    assert tb.tube_distance(P, X).tobytes() == d.tobytes()
    assert tb.nearest_point(P, X[:0])[0].shape == (0, P.ambient_dim)


@pytest.mark.parametrize("name", ["point", "segment", "square"])
def test_sandwich_map_rows_match_the_per_point_loop(name):
    core = CORES[name]
    box = tb.VPolytope(
        [np.array([sx, sy, sz]) for sx in (-2.0, 3.0) for sy in (-2.0, 3.0) for sz in (-2.0, 2.0)]
    )
    proj = tb.sandwich_project(box, core, 1.0)
    a = max(float(np.linalg.norm(v - core.nearest_point(v))) for v in box.vertices)
    assert proj.a == max(a, 1.0)
    X = near_points(core, np.random.default_rng(8))
    X = X[tb.tube_distance(core, X) > 1.0]
    got = proj.map(X)
    for x, y in zip(X, got):
        base = core.nearest_point(x)
        want = base + 1.0 * (x - base) / float(np.linalg.norm(x - base))
        assert y.tobytes() == want.tobytes() == proj.map(x).tobytes()
    # the fibers over the tube points leave from per-point bases
    back = proj.inverse_batch(got)
    bases = core.vertices[:1] if core.dim == 0 else np.array([core.nearest_point(y) for y in got])
    D = got - bases
    rays = D / np.linalg.norm(D, axis=1)[:, None]
    N = box.normals
    v0 = N @ (box.basis @ (bases - box.origin).T) - box.bounds[:, None]
    dv = (N @ box.basis) @ rays.T
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hi = np.min(np.where(dv > tb.DEDUP_TOL, -v0 / dv, np.inf), axis=0)
    assert back.tobytes() == (bases + t_hi[:, None] * rays).tobytes()


@pytest.mark.parametrize("name", ["point", "segment", "square"])
def test_radial_project_path_matches_the_per_point_loop(name):
    P, rng = CORES[name], np.random.default_rng(9)
    chart = tb.chart_for(P, 2.0, None)
    if isinstance(chart, tb.StadiumChart):
        path = chart.points(rng.uniform(0.2, 0.8, 25) * chart.Lu, rng.uniform(0, chart.period, 25))
    else:
        path = chart.points(rng.uniform(0.1, 0.9, 25) * chart.T, rng.uniform(0, 6.3, 25))
    inner, rep = tb.radial_project_path(P, 2.0, 0.5, path)
    want = []
    for p in path:
        base = P.nearest_point(p)
        want.append(base + (0.5 / 2.0) * (p - base))
    assert inner.tobytes() == np.array(want).tobytes()
    assert rep["inner_length"] == tb.polyline_length(np.array(want))
