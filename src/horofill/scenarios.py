"""Deterministic loop generators for the experiment scenarios, and their fills.

Each generator targets a loop length and returns host objects plus a
loop sampled finely enough for mesh-1 fillings (spacing below mesh/3.5,
arclength-uniform where the host has corners).  Trials differ by a
small seeded jitter.  The trace generators (rank 2, rank 3 and custom)
walk the sandwich projection that ``filling.sandwich_route`` returns,
the one route check ``fill_flat_loop`` makes too; ``check_custom_trace``
is that check plus the generators' rank rule.  ``make_loop`` makes one
job's host and loop and ``fill`` fills it, as ``horofill run`` does.
"""

import numpy as np

from . import coxeter as cx
from . import filling as fl
from . import trace as tr
from . import tube as tb
from .geometry import LENGTH_FLOOR
from .partitions import BrickCensus, Loop

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
    chart = tb.RevolutionChart(P, TUBE_RADIUS)
    k = max(1, int(round(ell / (2 * np.pi * TUBE_RADIUS))))
    t = _loop_params(ell, mesh, WRAP_SAFETY)
    drift = 0.25 + 0.05 * rng.uniform(-1, 1)
    s = chart.L * (0.5 + drift * np.sin(2 * np.pi * t + rng.uniform(0, 2 * np.pi)))
    phi = 2 * np.pi * k * t
    ring = np.cos(phi)[:, None] * chart.e1 + np.sin(phi)[:, None] * chart.e2
    return P, Loop(chart.c + s[:, None] * chart.axis + TUBE_RADIUS * ring)


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
    family): ``custom_trace_loop`` on the symmetric A2 trace shifted
    to -ell / 9.
    """
    rs = cx.build_root_system("A", rank=2)
    trace = tr.symmetric_trace(rs, cx.project_to_chamber(rs, rs.coweights[0]))
    return custom_trace_loop(trace.shifted(-ell / 9.0), ell, mesh, seed)


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
    proj = check_custom_trace(trace)
    core_pt = proj.core.vertices[0]
    # the sphere keeps radius ell / 9, not the route's -min_value, which differs
    # in the last bit at some lengths; inverse_batch reads only the core and the body
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
    """The sandwich projection of a trace ``custom_trace_loop`` takes.

    The trace must pass ``filling.sandwich_route``, the check every
    sandwich fill makes, and be of rank 2, or of rank 3 with a point
    minimum set.  Raises ValueError naming the first condition it misses.
    """
    proj, _ = fl.sandwich_route(trace)
    rank = trace.root_system.rank
    if rank != 2 and (rank, len(proj.core.vertices)) != (3, 1):
        raise ValueError("custom traces supported in rank 2, or rank 3 with point min set")
    return proj


def custom_trace_loop(trace, ell, mesh, seed):
    """Serpentine loop on the level set of a user-supplied trace.

    Rank-2 traces walk the level polygon (the sandwich body) by
    arclength; rank-3 traces with a point minimum set go through the
    sandwich sphere.  Other hosts are rejected by ``check_custom_trace``
    (fill them directly).  The rank-3 swing amplitude is
    min(ell / (4m), 8) * 0.9 radians on the sphere of radius m, so those
    loops stop growing once ell / (4m) passes 8.
    """
    rng = np.random.default_rng(seed)
    proj = check_custom_trace(trace)
    if trace.root_system.rank == 2:
        return trace, _level_serpentine(proj.body, ell, mesh, rng)
    m = proj.radius
    amp = min(ell / (4.0 * m), 8.0) * 0.9
    phase = rng.uniform(0, 2 * np.pi)

    def pulled(tvals):
        phi = amp * np.sin(2 * np.pi * tvals)
        psi = np.pi / 2 + 0.25 * np.cos(2 * np.pi * tvals + phase)
        return proj.inverse_batch(proj.core.vertices[0] + m * _sphere(psi, phi))

    t = _loop_params(ell, mesh, SERPENTINE_SAFETY)
    return trace, Loop(_refined_pullback(pulled, t, lambda p: mesh / 3.15))


GENERATORS = {
    "tube-point": tube_point_wrap,
    "tube-segment": tube_segment_wrap,
    "tube-square": tube_square_serpentine,
    "trace-a2": trace_a2_serpentine,
    "trace-a3": trace_a3_wrap,
}


def make_loop(generator, ell, mesh, seed, trace=None):
    """(host, loop) of one job: a generator's, or ``custom_trace_loop``'s on a config's trace."""
    if generator == "custom-trace":
        return custom_trace_loop(tr.BusemannTrace.from_dict(trace), ell, mesh, seed)
    return GENERATORS[generator](ell, mesh, seed)


def fill(host, loop, mesh):
    """(partition, census, info) of the loop's filling at the mesh.

    A trace host takes the flat-loop pipeline; a tube core takes the tube
    fill at ``TUBE_RADIUS``, where every brick counts as wild.
    """
    if isinstance(host, tr.BusemannTrace):
        return fl.fill_flat_loop(host, loop, mesh=mesh)
    fp, info = tb.fill_tube_loop(host, TUBE_RADIUS, loop, mesh)
    return fp, BrickCensus(0, fp.area), info
