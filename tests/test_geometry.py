import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horofill import coxeter as cx
from horofill import trace as tr
from horofill.geometry import (
    DEDUP_TOL,
    HV_TOL,
    VERTEX_BLOCK,
    VPolytope,
    affine_span,
    angle_between,
    dedup_rows,
    enumerate_vertices,
    polyline_length,
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
    return dedup_rows(verts, tol=HV_TOL)


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


def test_enumerate_vertices_without_basic_solutions():
    assert enumerate_vertices(np.ones((2, 3)), np.ones(2)) == []  # m < n
    A = np.array([[1.0, 2.0], [2.0, 4.0], [-1.0, -2.0]])  # every pair singular
    assert enumerate_vertices(A, np.ones(3)) == []
    assert enumerate_vertices(np.zeros((0, 2)), np.zeros(0)) == []


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
