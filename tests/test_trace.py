import functools
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import linprog

from horofill import coxeter as cx
from horofill import trace as tr
from horofill import tube as tb
from horofill.geometry import (
    VPolytope,
    angle_between,
    dedup_rows,
    enumerate_vertices,
    polyline_length,
    unit,
)


@pytest.fixture(scope="module")
def a2():
    return cx.build_root_system("A", rank=2)


@pytest.fixture(scope="module")
def a3():
    return cx.build_root_system("A", rank=3)


@pytest.fixture(scope="module")
def a1a1():
    return cx.build_root_system("product", factors=[1, 1])


@pytest.fixture(scope="module")
def tri(a2):
    """A2 singular symmetric trace shifted to inradius 1 (triangle)."""
    wall = cx.project_to_chamber(a2, a2.coweights[0])
    return tr.symmetric_trace(a2, wall).shifted(-1.0)


@pytest.fixture(scope="module")
def slab(a1a1):
    """|<x, e1>| - 1 as a two-piece trace on the A1 x A1 apartment."""
    e1 = cx.project_to_chamber(a1a1, np.array([1.0, 0.0]))
    grads = np.array([[1.0, 0.0], [-1.0, 0.0]])
    return tr.BusemannTrace(a1a1, e1, grads, np.array([-1.0, -1.0]))


def facet_point(trace, i, t, s):
    """Point on facet i at level t, offset s from the corner with facet i+1."""
    j = (i + 1) % len(trace.gradients)
    corner = np.linalg.solve(
        trace.gradients[[i, j]], np.array([t, t]) - trace.offsets[[i, j]]
    )
    d = np.array([trace.gradients[i][1], -trace.gradients[i][0]])
    if np.dot(trace.gradients[j], d) > 0:
        d = -d
    return corner + s * d


def test_trace_validation(a2):
    wall = cx.project_to_chamber(a2, a2.coweights[0])
    with pytest.raises(tr.TraceError):
        tr.BusemannTrace(a2, wall, np.array([[1.0, 1.0]]), np.array([0.0]))
    with pytest.raises(tr.TraceError):
        tr.BusemannTrace(a2, wall, np.zeros((0, 2)), np.zeros(0))
    sym = tr.symmetric_trace(a2, wall)
    with pytest.raises(ValueError):
        tr.BusemannTrace(a2, wall, unit(np.array([1.0, 0.3]))[None, :], np.array([0.0]))


def test_gradients_live_in_opposition_orbit(a2):
    wall = cx.project_to_chamber(a2, a2.coweights[0])
    sym = tr.symmetric_trace(a2, wall)
    opp = cx.opposition_image(a2, wall)
    orbit = cx.weyl_orbit(a2, opp.direction)
    for g in sym.gradients:
        assert any(np.allclose(g, p, atol=1e-9) for p in orbit)


def test_convexity_random_midpoints(tri):
    rng = np.random.default_rng(0)
    for _ in range(200):
        x, y = rng.normal(size=2) * 5, rng.normal(size=2) * 5
        mid = 0.5 * (x + y)
        assert tri.value(mid) <= 0.5 * (tri.value(x) + tri.value(y)) + 1e-9


def test_horoball_polytope_halfspace_and_slab(a1a1, slab):
    e1 = cx.project_to_chamber(a1a1, np.array([1.0, 0.0]))
    single = tr.BusemannTrace(a1a1, e1, np.array([[1.0, 0.0]]), np.array([0.0]))
    hp = tr.horoball_polytope(single, 0.0)
    assert not hp.is_empty and not hp.is_bounded

    hb = tr.horoball_polytope(slab, 0.0)
    assert not hb.is_empty and not hb.is_bounded  # slab |x1| <= 1
    assert hb.contains([0.0, 3.0])
    assert not hb.contains([2.5, 0.0])


def test_hpolytope_hv_mutual_containment(tri):
    """Vertices satisfy the halfspaces; halfspace samples lie in the hull."""
    hb = tr.horoball_polytope(tri, 0.0)
    G, b = tri.gradients, -tri.offsets
    for v in hb.vertices:
        assert np.all(G @ v <= b + 1e-7)
    rng = np.random.default_rng(8)
    for _ in range(200):
        x = rng.uniform(-3, 3, size=2)
        if np.all(G @ x <= b):
            assert hb.contains(x)


def test_horoball_polytope_triangle(tri):
    hb = tr.horoball_polytope(tri, 0.0)
    assert hb.is_bounded and len(hb.vertices) == 3
    # vertices by pairwise solves against the three facet lines
    expected = []
    for i in range(3):
        j = (i + 1) % 3
        expected.append(
            np.linalg.solve(tri.gradients[[i, j]], -tri.offsets[[i, j]])
        )
    for v in hb.vertices:
        assert any(np.allclose(v, e, atol=1e-7) for e in expected)
    empty = tr.horoball_polytope(tri, -2.0)
    assert empty.is_empty


def test_min_set_cases(a1a1, slab, tri):
    e1 = cx.project_to_chamber(a1a1, np.array([1.0, 0.0]))
    single = tr.BusemannTrace(a1a1, e1, np.array([[1.0, 0.0]]), np.array([0.0]))
    assert not tr.min_set(single).bounded_below

    res = tr.min_set(slab)
    assert res.bounded_below
    assert abs(res.min_value + 1.0) < 1e-9
    assert not res.polytope.is_bounded  # the whole hyperplane e1-perp

    res3 = tr.min_set(tri)
    assert res3.bounded_below and res3.polytope.is_bounded
    assert abs(res3.min_value + 1.0) < 1e-9
    assert len(res3.polytope.vertices) == 1
    assert np.allclose(res3.polytope.vertices[0], 0.0, atol=1e-7)


def counting_calls(monkeypatch, name):
    """Count the calls of the trace module's ``name``, which still runs."""
    calls = []
    original = getattr(tr, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(tr, name, counting)
    return calls


def test_fresh_trace_solves_one_lp(a3, monkeypatch):
    """min_set and any number of sublevel polytopes share the one cached LP."""
    calls = counting_calls(monkeypatch, "linprog")
    theta = cx.project_to_chamber(a3, unit(a3.coweights.sum(axis=0)))
    trace = tr.symmetric_trace(a3, theta).shifted(-1.0).translated([0.3, -0.2, 0.5])
    assert tr.min_set(trace).polytope.is_bounded
    assert tr.horoball_polytope(trace, -2.0).is_empty
    assert tr.horoball_polytope(trace, 0.0).is_bounded
    assert tr.horoball_polytope(trace, 1.0).is_bounded
    assert len(calls) == 1


def test_seen_slope_derived_traces_solve_one_lp(monkeypatch):
    """Once a slope's pieces are decided, each derived trace solves its epigraph LP only."""
    calls = counting_calls(monkeypatch, "linprog")
    hulls = counting_calls(monkeypatch, "_gordan")
    rs = cx.build_root_system("A", rank=3)  # an empty slope memo
    theta = cx.project_to_chamber(rs, unit(rs.coweights.sum(axis=0)))
    assert tr.min_set(tr.symmetric_trace(rs, theta).shifted(-1.0)).polytope.is_bounded
    assert (len(calls), len(hulls)) == (1, 1)
    second = tr.symmetric_trace(rs, theta)
    for trace in (second, second.translated([0.3, -0.2, 0.5]), second.scaled(1.7)):
        calls.clear()
        assert tr.min_set(trace).polytope.is_bounded
        assert tr.horoball_polytope(trace, 1.0).is_bounded
        assert len(calls) == 1
    assert len(hulls) == 1


def test_independent_traces_on_equal_gradients_share_the_gradient_hull(monkeypatch):
    """A second trace built from a copy of the gradients builds no second hull."""
    calls = counting_calls(monkeypatch, "linprog")
    hulls = counting_calls(monkeypatch, "_gordan")
    rs = cx.build_root_system("A", rank=3)  # an empty slope memo
    theta = cx.project_to_chamber(rs, unit(rs.coweights.sum(axis=0)))
    G = np.array(tr.symmetric_trace(rs, theta).gradients)
    first = tr.BusemannTrace(rs, theta, G.copy(), np.full(len(G), -1.0))
    assert tr.min_set(first).polytope.is_bounded
    assert (len(calls), len(hulls)) == (1, 1)
    second = tr.BusemannTrace(rs, theta, G.copy(), np.linspace(-1.0, 0.0, len(G)))
    assert tr.min_set(second).polytope.is_bounded
    assert (len(calls), len(hulls)) == (2, 1)


def test_min_set_builds_its_polytope_on_first_read(a3, monkeypatch):
    """The minimum value alone builds no polytope; every read gets the one built."""
    builds = counting_calls(monkeypatch, "horoball_polytope")
    theta = cx.project_to_chamber(a3, unit(a3.coweights.sum(axis=0)))
    trace = tr.symmetric_trace(a3, theta).shifted(-1.0).translated([0.3, -0.2, 0.5])
    ms = tr.min_set(trace)
    assert ms.min_value < 0 and not builds
    core = ms.polytope
    assert tr.min_set(trace).polytope is core and len(builds) == 1
    assert core.vertices.tobytes() == tr.horoball_polytope(trace, ms.min_value).vertices.tobytes()


def test_dihedral_angle_is_measured_once_per_gradient_set(monkeypatch):
    angles = counting_calls(monkeypatch, "_min_dihedral_angle")
    rs = cx.build_root_system("A", rank=3)  # an empty slope memo
    theta = cx.project_to_chamber(rs, unit(rs.coweights.sum(axis=0)))
    base = tr.symmetric_trace(rs, theta).shifted(-1.0)
    C = tr.fetze_constant(base)
    for trace in (base, base.translated([0.3, -0.2, 0.5]), base.scaled(1.7)):
        assert tr.fetze_constant(trace) == C
    assert len(angles) == 1


def test_bounded_sublevel_polytopes_solve_no_lp(monkeypatch):
    """A derived trace cut into bounded sublevel sets solves no LP until min_set."""
    calls = counting_calls(monkeypatch, "linprog")
    rs = cx.build_root_system("A", rank=3)  # an empty slope memo
    theta = cx.project_to_chamber(rs, unit(rs.coweights.sum(axis=0)))
    base = tr.symmetric_trace(rs, theta).shifted(-1.0)
    assert tr.min_set(base).polytope.is_bounded  # caches the _gordan outcome
    trace = base.translated([0.3, -0.2, 0.5]).scaled(1.7)
    calls.clear()
    assert tr.horoball_polytope(trace, 0.0).is_bounded
    assert tr.horoball_polytope(trace, 1.0).is_bounded
    assert tr.horoball_polytope(trace, -5.0).is_empty
    assert len(calls) == 0
    assert tr.min_set(trace).polytope.is_bounded
    assert len(calls) == 1


# Reference decisions: one LP per question and level, independent of the
# cached per-trace facts.


def _ref_surrounds_origin(G):
    m, n = G.shape
    A_eq = np.vstack([G.T, np.ones(m)])
    b_eq = np.concatenate([np.zeros(n), [1.0]])
    res = linprog(np.zeros(m), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * m, method="highs")
    return res.status == 0


def _ref_feasible(G, b):
    n = G.shape[1]
    res = linprog(np.zeros(n), A_ub=G, b_ub=b, bounds=[(None, None)] * n, method="highs")
    return res.status == 0


def _ref_recession_nontrivial(G):
    n = G.shape[1]
    for k in range(n):
        for sign in (1.0, -1.0):
            c = np.zeros(n)
            c[k] = -sign
            res = linprog(
                c, A_ub=G, b_ub=np.zeros(len(G)), bounds=[(-1, 1)] * n, method="highs"
            )
            if res.status == 0 and -res.fun > 1e-7:
                return True
    return False


# (rank, coweight index or None for the regular slope)
ORBIT_SLOPES = [(2, 0), (2, 1), (2, None), (3, 0), (3, 1), (3, 2), (3, None)]


@functools.lru_cache(maxsize=None)
def _orbit(rank, k):
    """Root system, slope and full gradient orbit of a symmetric trace."""
    rs = cx.build_root_system("A", rank=rank)
    slope = rs.coweights.sum(axis=0) if k is None else rs.coweights[k]
    theta = cx.project_to_chamber(rs, unit(slope))
    return rs, theta, tr.symmetric_trace(rs, theta).gradients


@st.composite
def sub_orbit_cases(draw):
    rank, k = draw(st.sampled_from(ORBIT_SLOPES))
    size = len(_orbit(rank, k)[2])
    mask = draw(st.lists(st.booleans(), min_size=size, max_size=size).filter(any))
    pieces = [i for i in range(size) if mask[i]]
    offsets = draw(st.lists(st.floats(-2, 2), min_size=len(pieces), max_size=len(pieces)))
    gap = st.floats(-3, 3).filter(lambda g: abs(g) >= 1e-6)
    gaps = draw(st.lists(gap, min_size=1, max_size=3))
    return rank, k, pieces, offsets, gaps


@given(sub_orbit_cases())
@example((2, 0, [1], [0.3], [0.5, -0.5]))  # one piece: unbounded below
@example((3, 1, [0, 5], [0.2, -0.4], [0.5, -0.5]))  # antipodal pair: a slab
@example((3, 1, [0, 1, 4, 5], [0.0, 0.1, 0.2, 0.3], [1.0, -1.0]))  # a prism
@example((3, 0, [0, 1, 2, 3], [0.0, 0.5, -0.5, 1.0], [1.0, -1.0]))  # a simplex
def test_cached_decisions_match_the_lps(case):
    """Emptiness and boundedness from the cache agree with one LP per question.

    Levels t = min_value + gap stay at least 1e-6 away from the minimum.
    """
    rank, k, pieces, offsets, gaps = case
    rs, theta, orbit = _orbit(rank, k)
    trace = tr.BusemannTrace(rs, theta, orbit[pieces], offsets)
    G, c = trace.gradients, trace.offsets
    ms = tr.min_set(trace)
    assert ms.bounded_below == _ref_surrounds_origin(G)
    bounded = not _ref_recession_nontrivial(G)
    if ms.bounded_below:
        assert ms.polytope.is_bounded == bounded
    for gap in gaps:
        t = (ms.min_value if ms.bounded_below else 0.0) + gap
        hb = tr.horoball_polytope(trace, t)
        feasible = _ref_feasible(G, t - c)
        assert hb.is_empty == (not feasible)
        assert hb.is_bounded == (feasible and bounded)


@pytest.mark.parametrize("rank,k", ORBIT_SLOPES)
def test_near_minimum_cuts_match_the_lp_decision(rank, k):
    """Within 1e-6 of the minimum, emptiness is still t < min_value, bit for bit.

    The reference polytope is built from the same halfspaces with the
    LP-decided emptiness passed to ``from_halfspaces``.
    """
    rs, theta, _ = _orbit(rank, k)
    rng = np.random.default_rng(rank)
    base = tr.symmetric_trace(rs, theta).shifted(-1.0)
    moved = base.translated(rng.normal(size=rank) * 3.0)
    for trace in (base, moved, base.scaled(2.5), moved.scaled(0.6)):
        ms = tr.min_set(trace)
        for t in ms.min_value + np.array([-1e-6, -1e-8, 1e-8, 1e-6]):
            hb = tr.horoball_polytope(trace, t)
            is_empty = bool(t < ms.min_value)
            assert hb.is_empty == is_empty
            G, b = trace.gradients, t - trace.offsets
            ref = VPolytope.from_halfspaces(
                G, b, enumerate_vertices(G, b), is_empty, ms.sublevels_bounded
            )
            assert hb.vertices.shape == ref.vertices.shape
            assert hb.vertices.tobytes() == ref.vertices.tobytes()


# The epigraph LP: trace.linprog against scipy's linprog(method="highs").

# ORBIT_SLOPES plus A4's wall slopes whose gradients have exact zero
# entries, and A4's regular slope (the 120-piece orbit)
EPIGRAPH_SLOPES = ORBIT_SLOPES + [(4, 0), (4, 2), (4, None)]


def _epigraph_lp(trace):
    r, m = trace.root_system.rank, len(trace.gradients)
    c = np.concatenate([np.zeros(r), [1.0]])
    return c, np.hstack([trace.gradients, -np.ones((m, 1))]), -trace.offsets


def _same_solve(c, A, b):
    """Whether ``tr.linprog`` returns scipy's x and objective, byte for byte."""
    res = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * len(c), method="highs")
    x, fun = tr.linprog(c, A, b)
    return x.tobytes() == res.x.tobytes() and _same_float(fun, res.fun)


@pytest.mark.parametrize("rank,k", EPIGRAPH_SLOPES)
def test_linprog_matches_scipy_bit_for_bit(rank, k):
    """Seeded realizable traces (shifted, translated and scaled copies of the
    symmetric trace) and the same gradients under random offsets."""
    rs, theta, G = _orbit(rank, k)
    if k in (0, 2) and rank == 4:
        assert np.any(G == 0.0)  # dropped from the column-wise model
    base = tr.symmetric_trace(rs, theta)
    rng = np.random.default_rng([rank, len(G)])
    for _ in range(8):
        shift, scale = rng.normal(size=rank) * 3.0, rng.uniform(0.5, 2.0)
        realizable = base.shifted(-rng.uniform(0.5, 2.0)).translated(shift).scaled(scale)
        skew = tr.BusemannTrace(rs, theta, G, -rng.uniform(0.0, 2.0, size=len(G)))
        for trace in (realizable, skew):
            c, A, b = _epigraph_lp(trace)
            assert _same_solve(c, A, b)


def test_linprog_matches_scipy_on_an_all_zero_column(slab):
    """The slab's epigraph LP leaves x2 out of every row: an empty column."""
    c, A, b = _epigraph_lp(slab.translated([0.7, 0.0]))
    assert not A[:, 1].any()
    assert _same_solve(c, A, b)


def test_linprog_names_the_status_of_an_unbounded_lp():
    with pytest.raises(tr.TraceError, match="HiGHS model status Unbounded"):
        tr.linprog(np.array([0.0, 1.0]), np.array([[1.0, -1.0]]), np.array([0.0]))


@pytest.mark.parametrize(
    "A, b, status, name",
    [([[1.0]], [1.0], 3, "Unbounded"), ([[1.0], [-1.0]], [-1.0, -1.0], 2, "Infeasible")],
)
def test_linprog_fails_where_scipy_reports_failure(A, b, status, name):
    res = linprog([1.0], A_ub=A, b_ub=b, bounds=(None, None), method="highs")
    assert not res.success and res.status == status
    with pytest.raises(tr.TraceError, match=f"HiGHS model status {name}$"):
        tr.linprog([1.0], A, b)


def test_level_project_single_piece(a1a1):
    e1 = cx.project_to_chamber(a1a1, np.array([1.0, 0.0]))
    single = tr.BusemannTrace(a1a1, e1, np.array([[1.0, 0.0]]), np.array([0.0]))
    x = np.array([2.0, 5.0])
    s = single.value(x)
    y = tr.level_project(single, x, s - 1.0)
    assert abs(np.linalg.norm(x - y) - 1.0) < 1e-9


def test_level_project_slab_orthogonal_foot(slab):
    x = np.array([3.5, 2.0])
    y = tr.level_project(slab, x, 0.0)
    assert np.allclose(y, [1.0, 2.0], atol=1e-9)
    assert abs(np.linalg.norm(x - y) - slab.value(x)) < 1e-9


def test_level_project_ridge_bound(tri):
    hb = tr.horoball_polytope(tri, 0.0)
    v = hb.vertices[0]
    x = 3.0 * v / np.linalg.norm(v)
    s = tri.value(x)
    y = tr.level_project(tri, x, 0.0)
    d = np.linalg.norm(x - y)
    assert d <= tr.projection_bound(tri, s, 0.0) + 1e-6


def test_level_project_random_bound_and_contraction(a2, a3):
    rng = np.random.default_rng(42)
    for rs in (a2, a3):
        theta = cx.project_to_chamber(rs, unit(rs.coweights.sum(axis=0)))
        base = tr.symmetric_trace(rs, theta).shifted(-1.0)
        for k in range(60):
            trace = base.translated(rng.normal(size=rs.rank)).scaled(
                rng.uniform(0.5, 2.0)
            )
            x = rng.normal(size=rs.rank) * 6
            y2 = rng.normal(size=rs.rank) * 6
            s, s2 = trace.value(x), trace.value(y2)
            t = min(s, s2) - rng.uniform(0.1, 1.0)
            if t < -(-tr.min_set(trace).min_value) + 0.05:
                continue
            px = tr.level_project(trace, x, t)
            py = tr.level_project(trace, y2, t)
            assert np.linalg.norm(px - x) <= tr.projection_bound(trace, s, t) + 1e-6
            assert (
                np.linalg.norm(px - py) <= np.linalg.norm(x - y2) + 1e-9
            ), "projection must not expand distances"


def test_level_project_rows_match_the_per_point_calls(a2, a3):
    """Rows inside the sublevel set, on it and far outside, in one call and one by one."""
    rng = np.random.default_rng(12)
    for rs in (a2, a3):
        for w in (rs.coweights[0], rs.coweights.sum(axis=0)):
            theta = cx.project_to_chamber(rs, unit(w))
            trace = tr.symmetric_trace(rs, theta).shifted(-1.0).translated(rng.normal(size=rs.rank))
            X = rng.normal(size=(30, rs.rank)) * rng.choice([0.5, 6.0], size=(30, 1))
            got = tr.level_project(trace, X, 0.0)
            assert got.shape == X.shape
            want = [tr.level_project(trace, x, 0.0) for x in X]
            assert [y.tobytes() for y in got] == [y.tobytes() for y in want]
            inside = np.array([trace.value(x) <= 0.0 for x in X])
            assert 0 < inside.sum() < len(X)
            assert np.array_equal(got[inside], X[inside])


def test_level_project_builds_no_min_set_polytope(a3, monkeypatch):
    """level_project needs only the minimum value, not the min-set polytope."""
    import horofill.geometry as geo

    def no_enumeration(*args, **kwargs):
        raise AssertionError("level_project enumerated polytope vertices")

    monkeypatch.setattr(geo, "enumerate_vertices", no_enumeration)
    theta = cx.project_to_chamber(a3, unit(a3.coweights.sum(axis=0)))
    trace = tr.symmetric_trace(a3, theta).shifted(-1.0).translated([0.3, -0.2, 0.5])
    x = np.array([4.0, 1.0, -2.0])
    y = tr.level_project(trace, x, 0.0)
    assert abs(trace.value(y)) < 1e-9
    with pytest.raises(tr.ProjectionError, match="is empty"):
        tr.level_project(trace.translated([1.0, 0.0, 0.0]), x, -5.0)


def test_level_project_segment_stays_outside(tri):
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = rng.normal(size=2) * 5
        if tri.value(x) <= 0.05:
            continue
        y = tr.level_project(tri, x, 0.0)
        for t in np.linspace(0.01, 0.99, 17):
            assert tri.value(y + t * (x - y)) >= -1e-9


@pytest.mark.parametrize("shape", ["tri", "a3-simplex"])
def test_sandwich_radii_are_the_exact_inclusions(shape, tri, a3):
    """N_m(Min) lies in the horoball and the horoball in N_am(Min), tightly.

    ``sandwich_project`` checks the inner inclusion exactly over the
    body's facets and measures the smallest outer radius from its
    vertices; for these singular slopes that radius is a*m itself.
    """
    if shape == "tri":
        trace = tri
    else:
        theta = cx.project_to_chamber(a3, a3.coweights[0])
        trace = tr.symmetric_trace(a3, theta).shifted(-2.0)
    ms = tr.min_set(trace)
    m = -ms.min_value
    am = m / np.sin(cx.delta_zero(trace.root_system, trace.theta).delta0)
    proj = tb.sandwich_project(tr.horoball_polytope(trace, 0.0), ms.polytope, m)
    assert abs(proj.a * m - am) <= 1e-9 * am


def test_face_pair_path_bound_random(tri):
    C = tr.fetze_constant(tri)
    assert abs(C - 2.0) < 1e-9
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        i = int(rng.integers(0, 3))
        x = facet_point(tri, i, 0.0, rng.uniform(0.05, 2.5))
        y = facet_point(tri, (i + 1) % 3, 0.0, rng.uniform(0.05, 2.5))
        path = tr.face_pair_path(tri, 0.0, x, y)
        for p in path:
            assert abs(tri.value(p)) <= 1e-7
        d = np.linalg.norm(x - y)
        if d > 1e-9:
            worst = max(worst, polyline_length(path) / d)
    assert worst <= C + 1e-9


def test_face_pair_path_trivial_and_parallel(tri, slab):
    x = facet_point(tri, 0, 0.0, 0.5)
    assert len(tr.face_pair_path(tri, 0.0, x, x)) == 1
    with pytest.raises(tr.FacetsParallel):
        tr.face_pair_path(slab, 0.0, np.array([1.0, 0.0]), np.array([-1.0, 1.0]))


def test_face_pair_path_right_angle_corner(a1a1):
    """Diamond level set: two orthogonal facets, path <= sqrt(2) chord."""
    reg = cx.project_to_chamber(a1a1, unit(np.array([1.0, 1.0])))
    sq = tr.symmetric_trace(a1a1, reg).shifted(-1.0)
    r2 = np.sqrt(2.0)
    x = np.array([r2, 0.0]) + 0.5 * np.array([-1.0, 1.0]) / r2
    y = np.array([r2, 0.0]) + 0.7 * np.array([-1.0, -1.0]) / r2
    assert abs(sq.value(x)) < 1e-9 and abs(sq.value(y)) < 1e-9
    path = tr.face_pair_path(sq, 0.0, x, y)
    L = polyline_length(path)
    assert L <= np.sqrt(2.0) * np.linalg.norm(x - y) + 1e-9
    for p in path:
        assert abs(sq.value(p)) <= 1e-7


def test_scaling_equivariance_paths(tri):
    lam = 2.5
    big = tri.scaled(lam)
    x = facet_point(tri, 0, 0.0, 0.8)
    y = facet_point(tri, 1, 0.0, 0.6)
    p1 = tr.face_pair_path(tri, 0.0, x, y)
    p2 = tr.face_pair_path(big, 0.0, lam * x, lam * y)
    assert abs(polyline_length(p2) - lam * polyline_length(p1)) < 1e-7


def test_serialization_roundtrip(tri):
    back = tr.BusemannTrace.from_dict(json.loads(json.dumps(tri.to_dict())))
    assert np.allclose(back.gradients, tri.gradients, atol=1e-9)
    assert np.allclose(back.offsets, tri.offsets, atol=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.normal(size=2) * 3
        assert abs(back.value(x) - tri.value(x)) < 1e-9


def test_from_dict_round_trips_realizable_traces_bit_for_bit(a2, a3):
    """200 A2/A3 traces, on coweight slopes and slopes pushed into the chamber,
    come back with byte-equal direction, gradients and offsets (seed 10 on
    A2 and seed 0 on A3 once moved the direction by an ulp)."""
    for seed in range(100):
        for rs in (a2, a3):
            rng = np.random.default_rng(seed)
            slope = rs.coweights[seed % rs.rank]
            if seed % 4 != 3:
                slope = slope + rng.uniform(0.0, 0.5, rs.rank) @ rs.coweights
            trace = (
                tr.symmetric_trace(rs, cx.project_to_chamber(rs, slope))
                .shifted(-rng.uniform(0.5, 2.0))
                .translated(rng.normal(size=rs.rank) * 3.0)
                .scaled(rng.uniform(0.5, 2.0))
            )
            back = tr.BusemannTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
            assert back.theta.direction.tobytes() == trace.theta.direction.tobytes()
            assert back.gradients.tobytes() == trace.gradients.tobytes()
            assert back.offsets.tobytes() == trace.offsets.tobytes()


def test_from_dict_normalizes_a_direction_off_unit_length(tri):
    data = tri.to_dict()
    data["theta"] = [2.0 * v for v in data["theta"]]
    back = tr.BusemannTrace.from_dict(data)
    assert back.theta.direction.tobytes() == unit(np.array(data["theta"])).tobytes()


@pytest.mark.parametrize("bad", [3, -1])
def test_from_dict_rejects_piece_indices_outside_the_orbit(tri, bad):
    data = tri.to_dict()
    data["pieces"][1][0] = bad
    with pytest.raises(tr.TraceError, match=f"piece index {bad} outside"):
        tr.BusemannTrace.from_dict(data)


# Shared piece and slope facts against traces built from scratch.

TRANSFORMS = st.lists(
    st.one_of(
        st.tuples(st.just("translated"), st.lists(st.floats(-3, 3), min_size=3, max_size=3)),
        st.tuples(st.just("scaled"), st.floats(0.25, 4.0)),
        st.tuples(st.just("shifted"), st.floats(-3, 3)),
    ),
    max_size=4,
)


@functools.lru_cache(maxsize=None)
def _product_case(kind):
    """The slab and a single half-plane piece on the A1 x A1 apartment."""
    rs = cx.build_root_system("product", factors=[1, 1])
    e1 = cx.project_to_chamber(rs, np.array([1.0, 0.0]))
    grads = np.array([[1.0, 0.0], [-1.0, 0.0]]) if kind == "slab" else np.array([[1.0, 0.0]])
    return rs, e1, grads


@st.composite
def derived_traces(draw):
    """A symmetric, sub-orbit, slab or single-piece trace and some similarity moves."""
    kind = draw(st.sampled_from(["symmetric", "subset", "slab", "single"]))
    if kind in ("slab", "single"):
        rs, theta, grads = _product_case(kind)
        offsets = draw(st.lists(st.floats(-2, 2), min_size=len(grads), max_size=len(grads)))
        trace = tr.BusemannTrace(rs, theta, grads, offsets)
    else:
        rank, k = draw(st.sampled_from(ORBIT_SLOPES))
        rs, theta, orbit = _orbit(rank, k)
        if kind == "symmetric":
            trace = tr.symmetric_trace(rs, theta).shifted(draw(st.floats(-2, 2)))
        else:
            mask = draw(st.lists(st.booleans(), min_size=len(orbit), max_size=len(orbit)).filter(any))
            pieces = [i for i in range(len(orbit)) if mask[i]]
            offsets = draw(st.lists(st.floats(-2, 2), min_size=len(pieces), max_size=len(pieces)))
            trace = tr.BusemannTrace(rs, theta, orbit[pieces], offsets)
    for name, arg in draw(TRANSFORMS):
        if name == "translated":
            arg = arg[: rs.rank]
        trace = getattr(trace, name)(arg)
    return trace


def _same_float(a, b):
    return np.array_equal(np.array([a], dtype=float), np.array([b], dtype=float), equal_nan=True)


@given(derived_traces())
@example(tr.BusemannTrace(*_product_case("slab"), [-1.0, -1.0]).translated([0.5, 0.0]))
@example(tr.BusemannTrace(*_product_case("single"), [0.3]).scaled(2.0))
@example(tr.symmetric_trace(*_orbit(3, None)[:2]).shifted(-1.0).translated([0.3, -0.2, 0.5]))
def test_shared_facts_match_a_fresh_trace(trace):
    """Derived and symmetric traces give, bit for bit, what a trace built from scratch gives.

    The reference is built with the public constructor from copies of the
    gradients and offsets, on a fresh root system whose slope memo is empty.
    """
    rs, theta = trace.root_system, trace.theta
    fresh_rs = cx.root_system_from_descriptor(rs.to_descriptor())
    fresh_theta = cx.Slope(theta.direction.copy(), theta.chamber_certificate)
    fresh = tr.BusemannTrace(
        fresh_rs, fresh_theta, np.array(trace.gradients), np.array(trace.offsets)
    )
    assert fresh.piece_orbit_indices == list(trace.piece_orbit_indices)
    assert np.array_equal(fresh.orbit, trace.orbit)
    got, want = tr.min_set(trace), tr.min_set(fresh)
    assert got.bounded_below == want.bounded_below
    assert got.sublevels_bounded == want.sublevels_bounded
    assert _same_float(got.min_value, want.min_value)
    if want.bounded_below:
        assert np.array_equal(got.polytope.vertices, want.polytope.vertices)
        assert got.polytope.is_bounded == want.polytope.is_bounded
    p, q = cx.delta_zero(rs, theta), cx.delta_zero(fresh_rs, fresh_theta)
    assert p.theta is theta and p.distances == q.distances
    assert p.degenerate == q.degenerate
    assert _same_float(p.delta0, q.delta0) and _same_float(p.delta0_prime, q.delta0_prime)


# -- corner paths against the loops they replaced ------------------------------


def _min_dihedral_angle_loop(trace):
    """Pair-by-pair minimal unoriented angle, skipping parallel pairs."""
    best = np.pi
    for i, j in itertools.combinations(range(len(trace.gradients)), 2):
        phi = angle_between(trace.gradients[i], trace.gradients[j])
        if phi < 1e-9 or abs(np.pi - phi) < 1e-9:
            continue
        best = min(best, min(phi, np.pi - phi))
    return best


def test_min_dihedral_angle_matches_pair_loop(slab):
    rng = np.random.default_rng(47)
    systems = [cx.build_root_system("A", rank=r) for r in (2, 3, 4)]
    for k in range(300):
        rs = systems[k % 3]
        theta = cx.project_to_chamber(rs, rng.normal(size=rs.rank))
        orbit = cx.slope_facts(rs, theta).orbit
        size = rng.integers(1, min(len(orbit), 24) + 1)
        rows = rng.choice(len(orbit), size=size, replace=False)
        trace = tr.BusemannTrace(rs, theta, orbit[rows], rng.normal(size=len(rows)))
        assert abs(tr.min_dihedral_angle(trace) - _min_dihedral_angle_loop(trace)) <= 1e-10
    assert tr.min_dihedral_angle(slab) == np.pi == _min_dihedral_angle_loop(slab)


def _face_pair_path_loop(trace, t, x, y):
    """face_pair_path with the nested facet-pair loop and the two-pass polygon walk."""
    G = trace.gradients
    if np.linalg.norm(x - y) <= 1e-12:
        return np.array([x])
    vx, vy = G @ x + trace.offsets, G @ y + trace.offsets
    fx = [i for i in range(len(vx)) if abs(vx[i] - t) <= 1e-6]
    fy = [i for i in range(len(vy)) if abs(vy[i] - t) <= 1e-6]
    pair = next(
        (i, j) for i in fx for j in fy if i != j and abs(np.dot(G[i], G[j])) < 1.0 - 1e-9
    )
    G2 = G[list(pair)]
    z0, *_ = np.linalg.lstsq(G2, t - trace.offsets[list(pair)], rcond=None)
    null = np.linalg.svd(G2)[2][2:]
    xa = z0 + null.T @ (null @ (x - z0))
    ya = z0 + null.T @ (null @ (y - z0))
    hx, hy = float(np.linalg.norm(x - xa)), float(np.linalg.norm(y - ya))
    z = 0.5 * (xa + ya) if hx + hy < 1e-12 else xa + (hx / (hx + hy)) * (ya - xa)
    b1 = unit(y - x)
    z_perp = (z - x) - np.dot(z - x, b1) * b1
    if np.linalg.norm(z_perp) < 1e-10:
        return np.array([x, y])
    B = np.vstack([b1, unit(z_perp)])
    pts2 = enumerate_vertices(G @ B.T, (t - trace.offsets) - G @ x)
    cx0, cy0 = np.zeros(2), np.array([float(np.dot(y - x, b1)), 0.0])
    allpts = dedup_rows([cx0, cy0] + list(pts2), tol=1e-9)
    center = np.mean(np.array(allpts), axis=0)
    ordered = sorted(allpts, key=lambda p: np.arctan2(p[1] - center[1], p[0] - center[0]))
    n = len(ordered)
    idx_x = min(range(n), key=lambda k: float(np.linalg.norm(ordered[k] - cx0)))
    idx_y = min(range(n), key=lambda k: float(np.linalg.norm(ordered[k] - cy0)))
    chains = []
    for step in (1, -1):
        chain, k = [], idx_x
        while k != idx_y:
            chain.append(ordered[k])
            k = (k + step) % n
        chains.append(chain + [ordered[idx_y]])
    side1, side2 = (sum(p[1] for p in c) for c in chains)
    path = [x + B.T @ p for p in (chains[0] if side1 > side2 else chains[1])]
    path[0], path[-1] = x.copy(), y.copy()
    return np.array(path)


def _random_realizable_trace(rng, rs, theta):
    """Translated and scaled copies of the symmetric horoball trace (criteria 4 and 5)."""
    base = tr.symmetric_trace(rs, theta).shifted(-rng.uniform(0.5, 2.0))
    return base.translated(rng.normal(size=rs.rank) * 3.0).scaled(rng.uniform(0.5, 2.0))


def _facet_point(rng, trace, poly, i):
    """A random convex combination of the polytope's vertices on facet i, if any."""
    G, c = trace.gradients, trace.offsets
    tight = [v for v in poly.vertices if abs(np.dot(G[i], v) + c[i]) <= 1e-7]
    return rng.dirichlet(np.ones(len(tight))) @ np.array(tight) if tight else None


def test_face_pair_path_matches_two_pass_walk(a2, a3):
    """Byte-equal polylines on corner instances drawn as acceptance criterion 5 draws them."""
    systems = [
        (a2, cx.project_to_chamber(a2, a2.coweights[0])),
        (a2, cx.project_to_chamber(a2, a2.coweights.sum(axis=0))),
        (a3, cx.project_to_chamber(a3, a3.coweights[0])),
    ]
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 1000:
        rs, theta = systems[checked % 3]
        trace = _random_realizable_trace(rng, rs, theta)
        poly = tr.horoball_polytope(trace, 0.0)
        i, j = rng.choice(len(trace.gradients), size=2, replace=False)
        if abs(np.dot(trace.gradients[i], trace.gradients[j])) >= 1.0 - 1e-9:
            continue
        x = _facet_point(rng, trace, poly, i)
        y = _facet_point(rng, trace, poly, j)
        if x is None or y is None or np.linalg.norm(x - y) < 1e-6:
            continue
        path = tr.face_pair_path(trace, 0.0, x, y)
        want = _face_pair_path_loop(trace, 0.0, x, y)
        assert path.shape == want.shape and path.tobytes() == want.tobytes()
        checked += 1


# The trace layer's bits: one digest over min values, argmin polytopes,
# level projections, corner paths and Fetze constants.

TRACE_DIGEST = "9ec538b2d6cbf5f6"


def _polytope_bytes(P):
    arrays = (P.origin, P.basis, P.vertices, P.normals, P.bounds)
    return b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays) + bytes(
        [P.is_empty, P.is_bounded]
    )


def test_trace_queries_are_pinned_bit_for_bit(a2, a3):
    """200 seeded realizable A2/A3 traces hash to the recorded digest.

    Each trace contributes its min value and argmin polytope, the level
    projections of a batch and of one point, the level-0 polytope, the
    Fetze constant and up to four corner paths between facet points.
    """
    systems = [
        (rs, cx.project_to_chamber(rs, d))
        for rs, d in [
            (a2, a2.coweights[0]),
            (a2, a2.coweights.sum(axis=0)),
            (a3, a3.coweights[0]),
            (a3, a3.coweights.sum(axis=0)),
        ]
    ]
    h = hashlib.sha256()
    for k in range(200):
        rs, theta = systems[k % len(systems)]
        rng = np.random.default_rng([28, k])
        trace = _random_realizable_trace(rng, rs, theta)
        ms = tr.min_set(trace)
        h.update(np.float64(ms.min_value).tobytes())
        h.update(_polytope_bytes(ms.polytope))
        X = rng.normal(size=(8, rs.rank)) * 6
        t = ms.min_value + rng.uniform(0.05, 1.0)
        h.update(tr.level_project(trace, X, t).tobytes())
        h.update(tr.level_project(trace, X[0], t).tobytes())
        poly = tr.horoball_polytope(trace, 0.0)
        h.update(_polytope_bytes(poly))
        h.update(np.float64(tr.fetze_constant(trace)).tobytes())
        G = trace.gradients
        for i, j in rng.choice(len(G), size=(4, 2)):
            if i == j or abs(G[i] @ G[j]) >= 1.0 - 1e-9:
                continue
            x, y = (_facet_point(rng, trace, poly, f) for f in (i, j))
            try:
                h.update(tr.face_pair_path(trace, 0.0, x, y).tobytes())
            except tr.FacetsParallel:
                h.update(b"parallel")
    assert h.hexdigest()[:16] == TRACE_DIGEST


def test_value_of_rows_is_the_value_of_each_row(a2, a3):
    """Each row of ``value(X)`` is the one-point ``value`` of that row, bit for bit.

    The one-point value is the float ``max(G @ x + c)``, so the rows of
    a batch carry the bits a probe of one point reads.
    """
    systems = [(a2, a2.coweights[0]), (a2, a2.coweights.sum(axis=0))]
    systems += [(a3, a3.coweights[0]), (a3, a3.coweights.sum(axis=0))]
    for k, (rs, d) in enumerate(systems):
        rng = np.random.default_rng([30, k])
        trace = _random_realizable_trace(rng, rs, cx.project_to_chamber(rs, d))
        X = rng.normal(size=(100, rs.rank)) * 6
        rows = trace.value(X)
        assert rows.shape == (100,)
        for x, v in zip(X, rows):
            one = trace.value(x)
            assert type(one) is float
            assert np.float64(one).tobytes() == v.tobytes()
            assert one == np.max(trace.gradients @ x + trace.offsets)
