"""Deterministic loop generators for the experiment scenarios.

Each generator targets a loop length and returns host objects plus a
loop sampled finely enough for mesh-1 fillings (spacing below mesh/3.5,
arclength-uniform where the host has corners).  Trials differ by a
small seeded jitter.
"""

import numpy as np

from . import coxeter as cx
from . import trace as tr
from . import tube as tb
from .partitions import Loop

# sin-parametrized serpentines peak at pi/2 times their average speed;
# wrapped loops run at nearly constant speed.  Sampling budgets carry
# those factors on top of the mesh/3 spacing rule.
SERPENTINE_SAFETY = 6.0
WRAP_SAFETY = 4.5


def _loop_samples(ell, mesh, safety):
    return max(128, int(np.ceil(ell * safety / mesh)) + 1)


def tube_point_wrap(R, ell, mesh=1.0, seed=0):
    """Wrapped loop around a point core in E^3 (winding prices the area)."""
    rng = np.random.default_rng(seed)
    k = max(1, int(round(ell / (2 * np.pi * R * 0.97))))
    n = _loop_samples(ell, mesh, WRAP_SAFETY)
    t = np.linspace(0.0, 1.0, n, endpoint=False)
    wobble = 0.25 + 0.05 * rng.uniform(-1, 1)
    psi = np.pi / 2 + wobble * np.cos(2 * np.pi * t + rng.uniform(0, 2 * np.pi))
    phi = 2 * np.pi * k * t
    pts = R * np.stack(
        [np.sin(psi) * np.cos(phi), np.sin(psi) * np.sin(phi), np.cos(psi)], axis=1
    )
    P = tb.standard_shape("point")
    return P, Loop(pts)


def tube_segment_wrap(R, ell, mesh=1.0, seed=0):
    """Wrapped loop around the unit segment core in E^3."""
    rng = np.random.default_rng(seed)
    P = tb.standard_shape("segment")
    a, b = P.vertices[0], P.vertices[-1]
    axis = (b - a) / np.linalg.norm(b - a)
    L = float(np.linalg.norm(b - a))
    e1 = np.array([0.0, 1.0, 0.0])
    e1 = e1 - np.dot(e1, axis) * axis
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    k = max(1, int(round(ell / (2 * np.pi * R))))
    n = _loop_samples(ell, mesh, WRAP_SAFETY)
    t = np.linspace(0.0, 1.0, n, endpoint=False)
    drift = 0.25 + 0.05 * rng.uniform(-1, 1)
    s = L * (0.5 + drift * np.sin(2 * np.pi * t + rng.uniform(0, 2 * np.pi)))
    phi = 2 * np.pi * k * t
    pts = np.array(
        [a + si * axis + R * (np.cos(f) * e1 + np.sin(f) * e2) for si, f in zip(s, phi)]
    )
    return P, Loop(pts)


def tube_square_serpentine(R, ell, mesh=1.0, seed=0):
    """Degree-0 meridian serpentine on the unit-square tube in E^3.

    The meridian amplitude grows with the target length; the square
    tube's meridian circle cannot be unwound inside the chart band, so
    the loops stay at winding zero.
    """
    rng = np.random.default_rng(seed)
    P = tb.standard_shape("square")
    chart = tb.StadiumChart(P, R)
    amp = ell / 4.0 * 0.93
    n = _loop_samples(ell, mesh, SERPENTINE_SAFETY)
    t = np.linspace(0.0, 1.0, n, endpoint=False)
    m0 = chart.M * (0.12 + 0.02 * rng.uniform(-1, 1))
    m = m0 + amp * np.sin(2 * np.pi * t)
    band = 0.18 + 0.04 * rng.uniform(-1, 1)
    s = chart.Lu * (0.5 + band * np.cos(2 * np.pi * t + rng.uniform(0, 2 * np.pi)))
    return P, Loop(chart.points(s, m))


def _polygon_walker(vertices_2d):
    """Arclength parametrization of a closed convex polygon (2-D)."""
    V = np.asarray(vertices_2d, dtype=float)
    center = V.mean(axis=0)
    order = np.argsort(np.arctan2(V[:, 1] - center[1], V[:, 0] - center[0]))
    V = V[order]
    seg = np.linalg.norm(np.roll(V, -1, axis=0) - V, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = float(cum[-1])

    def point(sigma):
        sg = sigma % total
        k = int(np.searchsorted(cum, sg, side="right")) - 1
        k = min(k, len(V) - 1)
        lam = (sg - cum[k]) / seg[k] if seg[k] > 1e-15 else 0.0
        return V[k] + lam * (np.roll(V, -1, axis=0)[k] - V[k])

    return point, total


def trace_a2_serpentine(ell, mesh=1.0, seed=0, rs=None):
    """Degree-0 serpentine on the level triangle of a scaled A2 trace.

    The trace depth scales with the target length (the similarity
    family); the loop walks the level polygon by arclength, oscillating
    back and forth with amplitude about a quarter of the length.
    """
    rng = np.random.default_rng(seed)
    rs = rs or cx.build_root_system("A", rank=2)
    theta = cx.project_to_chamber(rs, rs.coweights[0])
    m = ell / 9.0
    trace = tr.symmetric_trace(rs, theta).shifted(-m)
    hb = tr.horoball_polytope(trace, 0.0)
    walker, total = _polygon_walker(hb.vertices)
    amp = ell / 4.0 * 0.95
    n = _loop_samples(ell, mesh, SERPENTINE_SAFETY)
    t = np.linspace(0.0, 1.0, n, endpoint=False)
    sigma0 = total * rng.uniform(0, 1)
    sigma = sigma0 + amp * np.sin(2 * np.pi * t)
    pts = np.array([walker(sg) for sg in sigma])
    return trace, Loop(pts)


def trace_a3_wrap(ell, mesh=1.0, seed=0, rs=None):
    """Wrapped loop on the level tetrahedron of a scaled A3 trace.

    Loops are generated on the sandwich tube (a sphere around the
    minimum point) and pulled out to the level surface along fibers;
    the per-edge stretch of the pullback is bounded by the sandwich
    ratio, so the sampling budget carries a corresponding margin.
    """
    rng = np.random.default_rng(seed)
    rs = rs or cx.build_root_system("A", rank=3)
    theta = cx.project_to_chamber(rs, rs.coweights[0])
    prof = cx.delta_zero(rs, theta)
    a = 1.0 / np.sin(prof.delta0)
    m = ell / 9.0
    trace = tr.symmetric_trace(rs, theta).shifted(-m)
    hb = tr.horoball_polytope(trace, 0.0)
    body = tb.VPolytope(hb.vertices)
    core_pt = tr.min_set(trace).polytope.vertices[0]
    core = tb.point_polytope(core_pt)
    proj = tb.sandwich_project(body, core, m)
    target_tube = ell / a  # pullback stretches by up to a on average
    k = max(1, int(round(target_tube / (2 * np.pi * m * 0.97))))
    wobble = 0.25 + 0.05 * rng.uniform(-1, 1)
    phase = rng.uniform(0, 2 * np.pi)

    def pulled(tvals):
        psi = np.pi / 2 + wobble * np.cos(2 * np.pi * tvals + phase)
        phi = 2 * np.pi * k * tvals
        sphere = core_pt + m * np.stack(
            [np.sin(psi) * np.cos(phi), np.sin(psi) * np.sin(phi), np.cos(psi)],
            axis=1,
        )
        return proj.inverse_batch(sphere)

    # the fiber pullback stretches unevenly near the tetra corners, so
    # refine the parameter grid until every pulled edge is short enough,
    # leaving headroom for the final length rescale
    t = np.linspace(0.0, 1.0, _loop_samples(ell, mesh, WRAP_SAFETY), endpoint=False)
    pts = pulled(t)
    scale = 1.0
    for _ in range(10):
        scale = ell / Loop(pts).length
        max_edge = mesh / (3.15 * max(scale, 1.0))
        edges = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        bad = edges > max_edge
        if not np.any(bad):
            break
        mids = ((t + np.concatenate([t[1:], [1.0]])) / 2.0)[bad]
        t = np.sort(np.concatenate([t, mids]))
        pts = pulled(t)
    if abs(scale - 1.0) > 0.1:
        return trace.scaled(scale), Loop(pts * scale)
    return trace, Loop(pts)


def custom_trace_loop(trace, ell, mesh=1.0, seed=0):
    """Serpentine loop on the level set of a user-supplied trace.

    Rank-2 traces walk the level polygon by arclength; rank-3 traces
    with a point minimum set go through the sandwich sphere.  Other
    hosts are not supported by the generators (fill them directly).
    """
    rng = np.random.default_rng(seed)
    ms = tr.min_set(trace)
    if not ms.bounded_below or not ms.polytope.is_bounded:
        raise ValueError("custom trace needs a bounded minimum set")
    hb = tr.horoball_polytope(trace, 0.0)
    if hb.is_empty or not hb.is_bounded:
        raise ValueError("custom trace needs a bounded nonempty horoball trace")
    if trace.apartment_dim == 2:
        walker, total = _polygon_walker(hb.vertices)
        amp = ell / 4.0 * 0.95
        n = _loop_samples(ell, mesh, SERPENTINE_SAFETY)
        t = np.linspace(0.0, 1.0, n, endpoint=False)
        sigma = total * rng.uniform(0, 1) + amp * np.sin(2 * np.pi * t)
        return trace, Loop(np.array([walker(sg) for sg in sigma]))
    if trace.apartment_dim == 3 and len(ms.polytope.vertices) == 1:
        m = -ms.min_value
        body = tb.VPolytope(hb.vertices)
        core = tb.point_polytope(ms.polytope.vertices[0])
        proj = tb.sandwich_project(body, core, m)
        amp = min(ell / (4.0 * m), 8.0) * 0.9
        n = _loop_samples(ell, mesh, SERPENTINE_SAFETY)
        t = np.linspace(0.0, 1.0, n, endpoint=False)
        phi = amp * np.sin(2 * np.pi * t)
        psi = np.pi / 2 + 0.25 * np.cos(2 * np.pi * t + rng.uniform(0, 2 * np.pi))
        sphere = ms.polytope.vertices[0] + m * np.stack(
            [np.sin(psi) * np.cos(phi), np.sin(psi) * np.sin(phi), np.cos(psi)],
            axis=1,
        )
        return trace, Loop(proj.inverse_batch(sphere))
    raise ValueError("custom traces supported in rank 2, or rank 3 with point min set")


GENERATORS = {
    "tube-point": lambda ell, mesh, seed: tube_point_wrap(1.0, ell, mesh, seed),
    "tube-segment": lambda ell, mesh, seed: tube_segment_wrap(1.0, ell, mesh, seed),
    "tube-square": lambda ell, mesh, seed: tube_square_serpentine(1.0, ell, mesh, seed),
    "trace-a2": lambda ell, mesh, seed: trace_a2_serpentine(ell, mesh, seed),
    "trace-a3": lambda ell, mesh, seed: trace_a3_wrap(ell, mesh, seed),
}
