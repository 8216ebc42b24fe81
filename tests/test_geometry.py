import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horofill import coxeter as cx
from horofill import trace as tr
from horofill import geometry as geo
from horofill.geometry import (
    DECISION_TOL,
    DEDUP_TOL,
    HV_TOL,
    MAX_PIECES_FOR_PROJECTION,
    SURFACE_TOL,
    VERTEX_BLOCK,
    ProjectionError,
    VPolytope,
    affine_span,
    angle_between,
    dedup_rows,
    enumerate_vertices,
    polyline_length,
    project_to_polytope,
    segment_hits_polytope,
    unit,
)


def test_unit_rejects_zero():
    with pytest.raises(ValueError):
        unit(np.zeros(3))


def test_affine_span_dims():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    origin, basis = affine_span(pts)
    assert basis.shape == (2, 3)
    _, b1 = affine_span(pts[:1])
    assert b1.shape == (0, 3)


def test_vpolytope_segment_nearest():
    seg = VPolytope([[0.0, 0, 0], [1.0, 0, 0]])
    assert seg.dim == 1 and seg.codim == 2
    x0 = seg.nearest_point([2.0, 1.0, 0.0])
    assert np.allclose(x0, [1.0, 0, 0], atol=1e-12)
    assert abs(np.linalg.norm(np.array([2.0, 1.0, 0.0]) - x0) - np.sqrt(2)) < 1e-12


def test_vpolytope_point_nearest():
    pt = VPolytope([[0.0, 0, 0]])
    x0 = pt.nearest_point([3.0, 4.0, 0.0])
    assert np.allclose(x0, 0.0)


def test_vpolytope_inside_is_fixed():
    sq = VPolytope([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    x = np.array([0.25, 0.5, 0.0])
    assert np.allclose(sq.nearest_point(x), x, atol=1e-12)
    assert sq.contains(x)
    assert not sq.contains([0.5, 0.5, 0.2])


def test_vpolytope_takes_vertices_and_facets_from_one_hull(monkeypatch):
    calls = []

    def counting(points):
        calls.append(1)
        return hull(points)

    hull = geo.ConvexHull
    monkeypatch.setattr(geo, "ConvexHull", counting)
    corners = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
    cube = VPolytope(np.vstack([corners, [[0.5, 0.5, 0.5], [0.2, 0.7, 0.4]]]))
    assert len(calls) == 1
    assert sorted(map(tuple, cube.vertices)) == sorted(map(tuple, corners))
    slack = cube.bounds[:, None] - cube.normals @ cube.to_span(cube.vertices).T
    assert (slack >= -1e-12).all() and (np.abs(slack) <= 1e-12).sum(axis=1).min() >= 3
    assert cube.contains([0.5, 0.5, 0.5]) and not cube.contains([1.5, 0.5, 0.5])


def test_nearest_point_idempotent_and_lipschitz():
    rng = np.random.default_rng(0)
    sq = VPolytope([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    for _ in range(100):
        x = rng.normal(size=3) * 3
        y = rng.normal(size=3) * 3
        px, py = sq.nearest_point(x), sq.nearest_point(y)
        assert np.linalg.norm(sq.nearest_point(px) - px) < 1e-9
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-9


def test_nearest_point_matches_sampling():
    rng = np.random.default_rng(1)
    tri = VPolytope([[0.0, 0, 0], [1, 0, 0.5], [0, 1, 0.25]])
    w = rng.dirichlet(np.ones(3), size=4000)
    cloud = w @ tri.vertices
    for _ in range(20):
        x = rng.normal(size=3) * 2
        d_exact = np.linalg.norm(x - tri.nearest_point(x))
        d_samp = np.min(np.linalg.norm(cloud - x, axis=1))
        assert d_exact <= d_samp + 1e-9
        assert d_exact >= d_samp - 0.05


def test_segment_hits_polytope():
    sq = VPolytope([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    assert segment_hits_polytope([0.5, 0.5, -1], [0.5, 0.5, 1], sq)
    assert not segment_hits_polytope([2.0, 2.0, -1], [2.0, 2.0, 1], sq)
    assert segment_hits_polytope([-1.0, 0.5, 0], [2.0, 0.5, 0], sq)


def test_enumerate_vertices_square():
    normals = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
    bounds = np.array([1.0, 0.0, 1.0, 0.0])
    verts = enumerate_vertices(normals, bounds)
    assert len(verts) == 4


def reference_dedup(rows, tol=DEDUP_TOL):
    """The per-pair loop that ``dedup_rows`` replaces: one 1-D norm per row and kept row."""
    out = []
    for r in rows:
        if not any(np.linalg.norm(r - q) <= tol for q in out):
            out.append(np.asarray(r, dtype=float))
    return out


def reference_vertices(normals, bounds, tol=HV_TOL):
    """The per-subset loop that the batched ``enumerate_vertices`` replaces."""
    A = np.asarray(normals, dtype=float)
    b = np.asarray(bounds, dtype=float)
    m, n = A.shape
    verts = []
    for subset in itertools.combinations(range(m), n):
        sub = A[list(subset)]
        if abs(np.linalg.det(sub)) < DEDUP_TOL:
            continue
        x = np.linalg.solve(sub, b[list(subset)])
        if np.all(A @ x <= b + tol):
            verts.append(x)
    return reference_dedup(verts, tol=HV_TOL)


@st.composite
def halfspace_systems(draw):
    """Random, repeated-row, rounded, under-determined and all-singular systems in E^1..E^4.

    With tolerance 0, a basic solution's own rows and the other rows
    through a degenerate vertex decide feasibility on the last bits of
    ``A @ x``, so the reference pins the dot routine too.
    """
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "repeated", "rounded", "few", "singular"]))
    m = draw(st.integers(0, n - 1)) if kind == "few" else draw(st.integers(n, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = 10.0 ** draw(st.floats(-3, 2))
    A = rng.normal(size=(m, n)) * scale
    if kind == "repeated" and m > 1:
        rows = rng.integers(0, m, size=m // 2 + 1)
        A[rng.integers(0, m, size=len(rows))] = A[rows]
    elif kind == "rounded":
        A = np.round(A / scale, 1) * scale
    elif kind == "singular" and n > 1:
        A[:, -1] = A[:, 0]  # every n-subset is singular
    b = rng.normal(size=m) * scale
    if kind == "rounded":
        b = np.round(b / scale, 1) * scale
    return A, b, draw(st.sampled_from([HV_TOL, 0.0]))


@settings(max_examples=400)
@given(halfspace_systems())
def test_enumerate_vertices_matches_the_per_subset_loop(system):
    A, b, tol = system
    got, want = enumerate_vertices(A, b, tol), reference_vertices(A, b, tol)
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_enumerate_vertices_across_subset_blocks():
    rng = np.random.default_rng(5)
    A, b = rng.normal(size=(48, 3)), rng.uniform(0.5, 1.5, size=48)
    assert len(list(itertools.combinations(range(48), 3))) > VERTEX_BLOCK
    got, want = enumerate_vertices(A, b), reference_vertices(A, b)
    assert len(got) == len(want) > 0
    assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))


def test_enumerate_vertices_at_a_degenerate_vertex():
    """All 24 halfspaces of a generic-slope A3 trace meet at its minimum: 2,024 equal rows.

    A distance matrix over all those rows would take about 100 MB; one
    block of DEDUP_BLOCK rows takes about 1.6 MB.
    """
    rs = cx.build_root_system("A", rank=3)
    trace = tr.symmetric_trace(rs, cx.project_to_chamber(rs, np.array([1.0, 0.7, 0.45]) @ rs.coweights))
    A, b = trace.gradients, tr.min_set(trace).min_value - trace.offsets
    tracemalloc.start()
    try:
        got = enumerate_vertices(A, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = reference_vertices(A, b)
    assert len(got) == len(want) == 1 and got[0].tobytes() == want[0].tobytes()
    assert peak < 8e6


def test_dedup_rows_memory_is_bounded_by_its_block():
    rng = np.random.default_rng(3)
    rows = np.repeat(rng.normal(size=(3, 3)), 1000, axis=0)
    rows += rng.normal(size=rows.shape) * 1e-10
    tracemalloc.start()
    try:
        got = dedup_rows(rows, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = reference_dedup(rows, 1e-8)
    assert len(got) == len(want) == 3
    assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
    assert peak < 4e6  # a 3,000 x 3,000 distance matrix alone is 72 MB


def test_enumerate_vertices_without_basic_solutions():
    assert enumerate_vertices(np.ones((2, 3)), np.ones(2)) == []  # m < n
    A = np.array([[1.0, 2.0], [2.0, 4.0], [-1.0, -2.0]])  # every pair singular
    assert enumerate_vertices(A, np.ones(3)) == []
    assert enumerate_vertices(np.zeros((0, 2)), np.zeros(0)) == []


@given(st.integers(0, 2**16), st.integers(0, 12), st.sampled_from([DEDUP_TOL, 1e-9, 0.3]))
def test_dedup_rows_matches_the_pairwise_loop(seed, k, tol):
    """Exact repeats, near repeats and chains of rows each within tol of the next."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(max(1, k // 2), 3))
    rows = base[rng.integers(len(base), size=k)]
    rows = rows + rng.normal(size=rows.shape) * tol * rng.integers(0, 2, size=(k, 1))
    got, want = dedup_rows(rows, tol), reference_dedup(rows, tol)
    assert len(got) == len(want)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))


def test_dedup_rows_walks_chains_in_order():
    """0 and 0.6 are close, 0.6 and 1.2 are close, 0 and 1.2 are not: 1.2 survives."""
    rows = np.array([[0.0], [0.6], [1.2], [1.25]])
    assert [r.tolist() for r in dedup_rows(rows, 0.7)] == [[0.0], [1.2]]
    assert dedup_rows([], 0.1) == []


def test_polyline_length():
    assert polyline_length([[0, 0], [3, 4]]) == 5.0
    assert polyline_length([[1, 1]]) == 0.0


def test_angle_between():
    assert abs(angle_between([1, 0], [0, 2]) - np.pi / 2) < 1e-12
    assert abs(angle_between([1, 0], [-1, 0]) - np.pi) < 1e-12


# -- the exact projection, certified without a reference solver -----------------


@st.composite
def point_hulls(draw):
    """Hull of 1-12 half-integer lattice points of a random flat in E^2 or E^3.

    The flat's dimension is drawn too, so points, segments, polygons
    (planar ones in E^3) and solids all occur.
    """
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, n))
    m = draw(st.integers(1, 12))
    coef = draw(st.lists(st.integers(-4, 4), min_size=m * k, max_size=m * k))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    frame = np.linalg.qr(rng.normal(size=(n, n)))[0][:k]
    pts = rng.normal(size=n) + 0.5 * np.reshape(coef, (m, k)) @ frame
    return VPolytope(pts), rng


@st.composite
def horoball_traces(draw):
    """Horoball polytope of a translated, scaled, shifted A2 or A3 symmetric trace."""
    rank = draw(st.sampled_from([2, 3]))
    rs = cx.build_root_system("A", rank=rank)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    theta = cx.project_to_chamber(rs, rs.coweights[rng.integers(rank)])
    trace = (
        tr.symmetric_trace(rs, theta)
        .shifted(-rng.uniform(0.5, 2.0))
        .translated(rng.normal(size=rank) * 3.0)
        .scaled(rng.uniform(0.5, 2.0))
    )
    return tr.horoball_polytope(trace, 0.0), rng


def assert_nearest_point_certified(P, x):
    """y = P.nearest_point(x) lies in P and (x - y).(v - y) <= 0 at every vertex v."""
    y = P.nearest_point(x)
    assert P.contains(y)
    scale = max(1.0, float(np.linalg.norm(x - y))) * max(
        1.0, float(np.max(np.linalg.norm(P.vertices - y, axis=1)))
    )
    assert np.max((P.vertices - y) @ (x - y)) <= 1e-9 * scale


@given(st.one_of(point_hulls(), horoball_traces()))
def test_nearest_point_is_certified_projection(case):
    P, rng = case
    assert P.is_bounded and not P.is_empty
    for _ in range(10):
        assert_nearest_point_certified(P, rng.normal(size=P.ambient_dim) * 6)
    inside = rng.dirichlet(np.ones(len(P.vertices)), size=5) @ P.vertices
    for x in inside:
        assert np.allclose(P.nearest_point(x), x, atol=1e-9)


# -- the batched projection, byte for byte against the one-row loop --------------


def reference_cyclic(G, b, x):
    """The one-row cyclic projection that reads off the active-set guess."""
    y = x.copy()
    for _ in range(200):
        viol = G @ y - b
        k = int(np.argmax(viol))
        if viol[k] <= DEDUP_TOL:
            break
        y = y - viol[k] * G[k] / np.dot(G[k], G[k])
    return y


def reference_projection(G, b, x, tol=HV_TOL):
    """The one-row ``project_to_polytope`` that the batched one replaces."""

    def kkt(subset):
        A = G[list(subset)]
        try:
            mu = np.linalg.solve(A @ A.T, A @ x - b[list(subset)])
        except np.linalg.LinAlgError:
            return None, None
        return x - A.T @ mu, mu

    G, b, x = (np.asarray(v, dtype=float) for v in (G, b, x))
    if np.all(G @ x <= b + tol):
        return x.copy()
    m, n = G.shape
    if m > MAX_PIECES_FOR_PROJECTION:
        raise ProjectionError("too many halfspaces")
    y = reference_cyclic(G, b, x)
    guess = tuple(i for i in range(m) if abs(np.dot(G[i], y) - b[i]) <= SURFACE_TOL)
    if 0 < len(guess) <= n:
        cand, mu = kkt(guess)
        if cand is not None and np.all(mu >= -DECISION_TOL) and np.all(G @ cand <= b + tol):
            return cand
    best, best_d = None, np.inf
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(m), size):
            cand, mu = kkt(subset)
            if cand is None or np.any(mu < -DECISION_TOL) or not np.all(G @ cand <= b + tol):
                continue
            d = np.linalg.norm(cand - x)
            if d < best_d:
                best, best_d = cand, d
    if best is None:
        raise ProjectionError("no KKT point found")
    return best


@st.composite
def projection_cases(draw):
    """Halfspace systems in E^1..E^4, a tolerance and 0-6 points inside, on a facet or far away.

    Systems are random; with repeated rows; with a parallel (negated,
    rescaled) row, which makes some active sets singular and some
    systems empty; integer normals whose facets all pass through one
    vertex, so the active-set guess fails and the enumeration decides
    between candidates at exactly equal distance; or an A2/A3 horoball
    trace.  A point on a facet sits where that facet's row of the
    inside test equals b + tol, so the test decides on its last bits.
    """
    kind = draw(st.sampled_from(["random", "repeated", "parallel", "vertex", "trace"]))
    tol = draw(st.sampled_from([HV_TOL, 0.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "trace":
        rank = draw(st.sampled_from([2, 3]))
        rs = cx.build_root_system("A", rank=rank)
        theta = cx.project_to_chamber(rs, rs.coweights[rng.integers(rank)] + rs.coweights[0])
        trace = tr.symmetric_trace(rs, theta).shifted(-1.0).translated(rng.normal(size=rank))
        G, b = trace.gradients, -trace.offsets
    else:
        n, m = draw(st.integers(1, 4)), draw(st.integers(1, 9))
        G, b = rng.normal(size=(m, n)), rng.uniform(0.1, 2.0, size=m)
        i, j = rng.integers(m, size=2)
        if kind == "repeated":
            G[j], b[j] = G[i], b[i]
        elif kind == "parallel":
            c = rng.uniform(0.5, 2.0)
            G[j], b[j] = -c * G[i], c * b[i] * rng.choice([-1.0, 1.0])
        elif kind == "vertex":
            G = np.round(G * 2)
            G[np.all(G == 0, axis=1), 0] = 1.0
            b = G @ (np.round(rng.normal(size=n) * 2) / 2)
    k = draw(st.integers(0, 6))
    X = np.round(rng.normal(size=(k, G.shape[1])) * draw(st.sampled_from([0.3, 1.0, 6.0])), 2)
    for r in range(k):
        if rng.integers(3) == 0:  # onto the hyperplane of facet i, moved out by tol
            i = rng.integers(len(G))
            X[r] = X[r] - (G[i] @ X[r] - b[i] - tol) / (G[i] @ G[i]) * G[i]
    return G, b, X, tol


@settings(max_examples=400)
@given(projection_cases())
def test_project_to_polytope_rows_match_the_per_row_loop(case):
    G, b, X, tol = case
    try:
        want = [reference_projection(G, b, x, tol) for x in X]
    except ProjectionError:
        with pytest.raises(ProjectionError):
            project_to_polytope(G, b, X, tol)
        return
    got = project_to_polytope(G, b, X, tol)
    assert got.shape == X.shape
    assert [y.tobytes() for y in got] == [y.tobytes() for y in want]
    # the cyclic steps reach the result only through the 1e-6 guess band,
    # so their rows are compared directly
    cyclic = geo._cyclic_projection(G, b, X)
    assert [y.tobytes() for y in cyclic] == [reference_cyclic(G, b, x).tobytes() for x in X]
    for x, y in zip(X, want):
        one = project_to_polytope(G, b, x, tol)
        assert one.shape == x.shape and one.tobytes() == y.tobytes()


def test_project_to_polytope_enumeration_matches_the_loop(monkeypatch):
    """Facets through one vertex send every outside row to the enumeration."""
    calls = []
    enumerate_kkt = geo._enumerated_projection
    monkeypatch.setattr(
        geo, "_enumerated_projection", lambda *a: calls.append(1) or enumerate_kkt(*a)
    )
    G = np.array([[1.0, 1.0], [2.0, 2.0], [-2.0, -1.0], [2.0, 1.0], [0.0, 1.0], [2.0, -2.0]])
    b = G @ np.array([-1.0, -1.0])
    X = np.random.default_rng(3).normal(size=(40, 2)) * 5
    got = project_to_polytope(G, b, X)
    assert len(calls) > 0
    assert [y.tobytes() for y in got] == [reference_projection(G, b, x).tobytes() for x in X]
    assert project_to_polytope(G, b, np.zeros((0, 2))).shape == (0, 2)


def test_project_to_polytope_raises_like_the_loop():
    empty = (np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
    with pytest.raises(ProjectionError):
        project_to_polytope(*empty, np.array([[0.5], [3.0]]))
    many = (np.vstack([np.eye(2)] * 21), np.ones(42))
    with pytest.raises(ProjectionError):
        project_to_polytope(*many, np.array([[0.0, 0.0], [5.0, 5.0]]))
    assert project_to_polytope(*many, np.zeros((1, 2))).tolist() == [[0.0, 0.0]]
