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
from .geometry import LENGTH_FLOOR
from .partitions import Loop

# sin-parametrized serpentines peak at pi/2 times their average speed;
# wrapped loops run at nearly constant speed.  Sampling budgets carry
# those factors on top of the mesh/3 spacing rule.
SERPENTINE_SAFETY = 6.0
WRAP_SAFETY = 4.5
TUBE_RADIUS = 1.0  # of every tube the generators put loops on


def _loop_params(ell, mesh, safety):
    """Loop parameters in [0, 1), at least 128 and safety * ell / mesh of them."""
    n = max(128, int(np.ceil(ell * safety / mesh)) + 1)
    return np.linspace(0.0, 1.0, n, endpoint=False)


def _sphere(psi, phi):
    """Unit-sphere rows at polar angles psi and azimuths phi."""
    return np.stack([np.sin(psi) * np.cos(phi), np.sin(psi) * np.sin(phi), np.cos(psi)], axis=1)


def tube_point_wrap(ell, mesh, seed):
    """Wrapped loop around a point core in E^3 (winding prices the area).

    The target rounds to whole turns of about 2*pi*TUBE_RADIUS, so
    shorter targets give one turn: l = 8 realizes a loop of length 6.28.
    """
    rng = np.random.default_rng(seed)
    k = max(1, int(round(ell / (2 * np.pi * TUBE_RADIUS * 0.97))))
    t = _loop_params(ell, mesh, WRAP_SAFETY)
    wobble = 0.25 + 0.05 * rng.uniform(-1, 1)
    psi = np.pi / 2 + wobble * np.cos(2 * np.pi * t + rng.uniform(0, 2 * np.pi))
    phi = 2 * np.pi * k * t
    return tb.standard_shape("point"), Loop(TUBE_RADIUS * _sphere(psi, phi))


def tube_segment_wrap(ell, mesh, seed):
    """Wrapped loop around the unit segment core in E^3.

    The target rounds to whole turns of about 2*pi*TUBE_RADIUS, so
    shorter targets give one turn, as in ``tube_point_wrap``.
    """
    rng = np.random.default_rng(seed)
    P = tb.standard_shape("segment")
    a, b = P.vertices[0], P.vertices[-1]
    axis = (b - a) / np.linalg.norm(b - a)
    L = float(np.linalg.norm(b - a))
    e1 = np.array([0.0, 1.0, 0.0])
    e1 = e1 - np.dot(e1, axis) * axis
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    k = max(1, int(round(ell / (2 * np.pi * TUBE_RADIUS))))
    t = _loop_params(ell, mesh, WRAP_SAFETY)
    drift = 0.25 + 0.05 * rng.uniform(-1, 1)
    s = L * (0.5 + drift * np.sin(2 * np.pi * t + rng.uniform(0, 2 * np.pi)))
    phi = 2 * np.pi * k * t
    ring = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2
    return P, Loop(a + s[:, None] * axis + TUBE_RADIUS * ring)


def tube_square_serpentine(ell, mesh, seed):
    """Degree-0 meridian serpentine on the unit-square tube in E^3.

    The meridian amplitude grows with the target length; the square
    tube's meridian circle cannot be unwound inside the chart band, so
    the loops stay at winding zero.
    """
    rng = np.random.default_rng(seed)
    P = tb.standard_shape("square")
    chart = tb.StadiumChart(P, TUBE_RADIUS)
    amp = ell / 4.0 * 0.93
    t = _loop_params(ell, mesh, SERPENTINE_SAFETY)
    m0 = chart.period * (0.12 + 0.02 * rng.uniform(-1, 1))
    m = m0 + amp * np.sin(2 * np.pi * t)
    band = 0.18 + 0.04 * rng.uniform(-1, 1)
    s = chart.Lu * (0.5 + band * np.cos(2 * np.pi * t + rng.uniform(0, 2 * np.pi)))
    return P, Loop(chart.points(s, m))


def _polygon_walker(vertices_2d):
    """Arclength parametrization of a closed convex polygon (2-D), on arrays."""
    V = np.asarray(vertices_2d, dtype=float)
    center = V.mean(axis=0)
    order = np.argsort(np.arctan2(V[:, 1] - center[1], V[:, 0] - center[0]))
    V = V[order]
    step = np.roll(V, -1, axis=0) - V
    seg = np.linalg.norm(step, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = float(cum[-1])

    def walk(sigma):
        sg = np.asarray(sigma, dtype=float) % total
        k = np.minimum(np.searchsorted(cum, sg, side="right") - 1, len(V) - 1)
        long = seg[k] > LENGTH_FLOOR
        lam = np.where(long, (sg - cum[k]) / np.where(long, seg[k], 1.0), 0.0)
        return V[k] + lam[:, None] * step[k]

    return walk, total


def _level_serpentine(hb, ell, mesh, rng):
    """Serpentine on the polygon hb from a random arclength, amplitude about ell / 4."""
    walk, total = _polygon_walker(hb.vertices)
    amp = ell / 4.0 * 0.95
    t = _loop_params(ell, mesh, SERPENTINE_SAFETY)
    return Loop(walk(total * rng.uniform(0, 1) + amp * np.sin(2 * np.pi * t)))


def trace_a2_serpentine(ell, mesh, seed):
    """Degree-0 serpentine on the level triangle of a scaled A2 trace.

    The trace depth scales with the target length (the similarity
    family); the loop walks the level polygon by arclength, oscillating
    back and forth with amplitude about a quarter of the length.
    """
    rng = np.random.default_rng(seed)
    rs = cx.build_root_system("A", rank=2)
    theta = cx.project_to_chamber(rs, rs.coweights[0])
    m = ell / 9.0
    trace = tr.symmetric_trace(rs, theta).shifted(-m)
    return trace, _level_serpentine(tr.horoball_polytope(trace, 0.0), ell, mesh, rng)


def _refined_pullback(pulled, t, max_edge):
    """pulled(t), with a parameter midpoint on each closed-loop edge above max_edge(points).

    The sandwich-sphere pullback stretches unevenly near level-surface corners; up to 10 rounds.
    """
    pts = pulled(t)
    for _ in range(10):
        edges = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        bad = edges > max_edge(pts)
        if not np.any(bad):
            break
        mids = ((t + np.concatenate([t[1:], [1.0]])) / 2.0)[bad]
        t = np.sort(np.concatenate([t, mids]))
        pts = pulled(t)
    return pts


def trace_a3_wrap(ell, mesh, seed):
    """Wrapped loop on the level tetrahedron of a scaled A3 trace.

    Loops are generated on the sandwich tube (a sphere around the
    minimum point) and pulled out to the level surface along fibers;
    the per-edge stretch of the pullback is bounded by the sandwich
    ratio, so the sampling budget carries a corresponding margin.
    The loop winds once at every length: the sphere's radius m = ell / 9
    grows with the target, and a target of ell on the level surface asks
    for at most 9 / (2 * pi) < 1.5 turns of length 2 * pi * m.
    """
    rng = np.random.default_rng(seed)
    rs = cx.build_root_system("A", rank=3)
    theta = cx.project_to_chamber(rs, rs.coweights[0])
    m = ell / 9.0
    trace = tr.symmetric_trace(rs, theta).shifted(-m)
    core = tr.min_set(trace).polytope
    core_pt = core.vertices[0]
    proj = tb.sandwich_project(tr.horoball_polytope(trace, 0.0), core, m)
    wobble = 0.25 + 0.05 * rng.uniform(-1, 1)
    phase = rng.uniform(0, 2 * np.pi)

    def pulled(tvals):
        psi = np.pi / 2 + wobble * np.cos(2 * np.pi * tvals + phase)
        phi = 2 * np.pi * tvals
        return proj.inverse_batch(core_pt + m * _sphere(psi, phi))

    # leave headroom for the final length rescale
    t = _loop_params(ell, mesh, WRAP_SAFETY)
    pts = _refined_pullback(pulled, t, lambda p: mesh / (3.15 * max(ell / Loop(p).length, 1.0)))
    scale = ell / Loop(pts).length
    if abs(scale - 1.0) > 0.1:
        return trace.scaled(scale), Loop(pts * scale)
    return trace, Loop(pts)


def check_custom_trace(trace):
    """(min set, level-0 polytope) of a trace ``custom_trace_loop`` takes.

    Raises ValueError naming the first condition the trace misses.
    """
    ms = tr.min_set(trace)
    if not ms.bounded_below or not ms.polytope.is_bounded:
        raise ValueError("custom trace needs a bounded minimum set")
    if not ms.min_value < 0:
        raise ValueError("min value must be negative (horoball nonempty)")
    hb = tr.horoball_polytope(trace, 0.0)
    if hb.is_empty:
        raise ValueError("custom trace needs a bounded nonempty horoball trace")
    if trace.apartment_dim != 2 and (trace.apartment_dim, len(ms.polytope.vertices)) != (3, 1):
        raise ValueError("custom traces supported in rank 2, or rank 3 with point min set")
    return ms, hb


def custom_trace_loop(trace, ell, mesh, seed):
    """Serpentine loop on the level set of a user-supplied trace.

    Rank-2 traces walk the level polygon by arclength; rank-3 traces
    with a point minimum set go through the sandwich sphere.  Other
    hosts are rejected by ``check_custom_trace`` (fill them directly).
    The rank-3 swing amplitude is min(ell / (4m), 8) * 0.9 radians on the
    sphere of radius m, so those loops stop growing once ell / (4m) passes 8.
    """
    rng = np.random.default_rng(seed)
    ms, hb = check_custom_trace(trace)
    if trace.apartment_dim == 2:
        return trace, _level_serpentine(hb, ell, mesh, rng)
    m = -ms.min_value
    proj = tb.sandwich_project(hb, ms.polytope, m)
    amp = min(ell / (4.0 * m), 8.0) * 0.9
    phase = rng.uniform(0, 2 * np.pi)

    def pulled(tvals):
        phi = amp * np.sin(2 * np.pi * tvals)
        psi = np.pi / 2 + 0.25 * np.cos(2 * np.pi * tvals + phase)
        return proj.inverse_batch(ms.polytope.vertices[0] + m * _sphere(psi, phi))

    t = _loop_params(ell, mesh, SERPENTINE_SAFETY)
    return trace, Loop(_refined_pullback(pulled, t, lambda p: mesh / 3.15))


GENERATORS = {
    "tube-point": tube_point_wrap,
    "tube-segment": tube_segment_wrap,
    "tube-square": tube_square_serpentine,
    "trace-a2": trace_a2_serpentine,
    "trace-a3": trace_a3_wrap,
}
