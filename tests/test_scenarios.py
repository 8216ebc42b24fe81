import hashlib

import numpy as np
import pytest

from horofill import scenarios as sc
from horofill import trace as tr
from horofill import tube as tb
from horofill.partitions import Loop


@pytest.mark.parametrize("name", sorted(sc.GENERATORS))
def test_generators_deterministic(name):
    gen = sc.GENERATORS[name]
    assert getattr(sc, gen.__name__, None) is gen
    h1, l1 = sc.GENERATORS[name](16, 1.0, 3)
    h2, l2 = sc.GENERATORS[name](16, 1.0, 3)
    assert np.array_equal(l1.vertices, l2.vertices)
    h3, l3 = sc.GENERATORS[name](16, 1.0, 4)
    assert not np.array_equal(l1.vertices, l3.vertices)


@pytest.mark.parametrize("name", ["tube-point", "tube-segment", "tube-square"])
def test_tube_generators_on_surface(name):
    P, loop = sc.GENERATORS[name](24, 1.0, 0)
    for v in loop.vertices[::7]:
        assert abs(tb.nearest_point(P, v)[1] - sc.TUBE_RADIUS) < 1e-9
    assert 0.5 * 24 <= loop.length <= 1.6 * 24


@pytest.mark.parametrize("name", ["trace-a2", "trace-a3"])
def test_trace_generators_on_level_set(name):
    trace, loop = sc.GENERATORS[name](24, 1.0, 0)
    vals = trace.value(loop.vertices)
    assert float(np.max(np.abs(vals))) < 1e-6
    assert 0.5 * 24 <= loop.length <= 1.6 * 24


def test_trace_a3_wrap_loop_is_pinned():
    """The loop's bytes at l = 12, where the route's radius -min_value is not ell / 9 bit for bit.

    The sphere keeps radius ell / 9; a sphere of the route's radius moves this digest.
    """
    import horofill.coxeter as cx

    rs = cx.build_root_system("A", rank=3)
    unscaled = tr.symmetric_trace(rs, cx.project_to_chamber(rs, rs.coweights[0])).shifted(-12 / 9.0)
    assert -tr.min_set(unscaled).min_value != 12 / 9.0
    _, loop = sc.trace_a3_wrap(12, 1.0, 0)
    assert hashlib.sha256(loop.vertices.tobytes()).hexdigest()[:16] == "92dab1f89683c97d"


def test_square_serpentine_degree_zero():
    P, loop = sc.tube_square_serpentine(24, 1.0, 0)
    chart = tb.chart_for(P, 1.0, loop.vertices)
    assert tb.loop_degree(chart, loop.vertices) == 0


def test_wrap_generators_wind():
    P, loop = sc.tube_segment_wrap(32, 1.0, 0)
    chart = tb.chart_for(P, 1.0, loop.vertices)
    assert abs(tb.loop_degree(chart, loop.vertices)) >= 3


def test_custom_trace_loop_a2():
    import horofill.coxeter as cx

    rs = cx.build_root_system("A", rank=2)
    theta = cx.project_to_chamber(rs, rs.coweights[0])
    trace = tr.symmetric_trace(rs, theta).shifted(-2.0)
    trace2, loop = sc.custom_trace_loop(trace, 16, 1.0, 0)
    vals = trace2.value(loop.vertices)
    assert float(np.max(np.abs(vals))) < 1e-6


def test_custom_trace_loop_rejects_unbounded():
    import horofill.coxeter as cx

    pp = cx.build_root_system("product", factors=[1, 1])
    th = cx.project_to_chamber(pp, np.array([1.0, 0.0]))
    slab = tr.BusemannTrace(
        pp, th, np.array([[1.0, 0], [-1.0, 0]]), np.array([-1.0, -1.0])
    )
    with pytest.raises(ValueError, match="bounded"):
        sc.custom_trace_loop(slab, 16, 1.0, 0)


def test_check_custom_trace_rejects_a_minimum_set_with_no_thin_strip():
    """A1 x A1 with one deeper piece: the check refuses what every sandwich fill refuses."""
    import horofill.coxeter as cx
    from horofill import filling as fl

    a1a1 = cx.build_root_system("product", factors=[1, 1])
    th = cx.project_to_chamber(a1a1, a1a1.coweights.sum(axis=0))
    skew = tr.BusemannTrace(a1a1, th, cx.slope_facts(a1a1, th).orbit, [-1.5, -1, -1, -1])
    assert tb.classify_strip(tr.min_set(skew).polytope).case == "fails"
    with pytest.raises(ValueError, match="no thin strip"):
        sc.check_custom_trace(skew)
    with pytest.raises(ValueError, match="no thin strip"):
        sc.make_loop("custom-trace", 8, 1.0, 0, skew.to_dict())
    # a loop around the whole level set leaves the cone route and fails the fill
    hb = tr.horoball_polytope(skew, 0.0)
    walk, total = sc._polygon_walker(hb.vertices)
    loop = Loop(walk(np.linspace(0.0, total, 64, endpoint=False)))
    with pytest.raises(fl.FillingError, match="strip classification failed"):
        fl.fill_flat_loop(skew, loop, 1.0)


def _a2_wall_trace(pieces):
    return tr.BusemannTrace.from_dict(
        {
            "root_system": {"family": "A", "rank": 2},
            "theta": [0.8660254037844387, 0.5],  # the A2 wall slope: a 3-point orbit
            "pieces": pieces,
        }
    )


def _a1a1_trace(direction, offsets):
    """A1 x A1 trace with one piece per orbit point of the slope, at these offsets."""
    import horofill.coxeter as cx

    a1a1 = cx.build_root_system("product", factors=[1, 1])
    th = cx.project_to_chamber(a1a1, direction)
    return tr.BusemannTrace(a1a1, th, cx.slope_facts(a1a1, th).orbit, offsets)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: _a2_wall_trace([[0, -1.0]]), "envelope unbounded below"),
        (lambda: _a1a1_trace([1.0, 0.0], [-1.0, -1.0]), "minimum set unbounded"),
        (lambda: _a2_wall_trace([[0, 0.0], [1, 0.0], [2, 0.0]]), "min value must be negative"),
        (lambda: _a1a1_trace([1.0, 1.0], [-1.5, -1, -1, -1]), "minimum set admits no thin strip"),
    ],
    ids=["one-piece-a2", "a1a1-slab", "a2-wall-at-zero", "a1a1-skew"],
)
def test_config_check_and_fill_refuse_a_trace_with_one_message(make, message):
    """The config check refuses by the route the flat fill takes, in the same words."""
    from horofill import filling as fl

    trace = make()
    with pytest.raises(fl.FillingError, match=message) as by_route:
        fl.sandwich_route(trace)
    with pytest.raises(ValueError, match=message) as by_check:
        sc.check_custom_trace(trace)
    assert str(by_check.value) == str(by_route.value)


def test_polygon_walker_matches_per_arclength_blend():
    """One array call gives the rows of the per-arclength blend, a repeated vertex too."""
    V = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 0.0], [1.0, 1.5]])
    walk, total = sc._polygon_walker(V)
    center = V.mean(axis=0)
    W = V[np.argsort(np.arctan2(V[:, 1] - center[1], V[:, 0] - center[0]))]
    seg = np.linalg.norm(np.roll(W, -1, axis=0) - W, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    sigma = np.concatenate([cum, np.random.default_rng(0).uniform(-2 * total, 3 * total, 200)])
    want = []
    for sg in sigma % total:
        k = min(int(np.searchsorted(cum, sg, side="right")) - 1, len(W) - 1)
        lam = (sg - cum[k]) / seg[k] if seg[k] > 1e-15 else 0.0
        want.append(W[k] + lam * (np.roll(W, -1, axis=0)[k] - W[k]))
    assert walk(sigma).tobytes() == np.array(want).tobytes()
