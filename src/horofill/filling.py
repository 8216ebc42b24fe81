"""Loop filling machinery: cone fills, the flat-loop pipeline, partition
refinement, exponent fits, and the exact area oracle.

Areas are brick counts of the partitions this engine constructs; no claim
of global minimality is made.  The oracle, one sparse LP whose optimum is
integral on orientable meshes, gives the least filling area of a mesh
loop and so a lower-bound witness for the constructed fills.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, hstack

from .geometry import CENSUS_MARGIN, DECISION_TOL, LOG_FLOOR, SURFACE_TOL, straight_segments
from .partitions import (
    BrickCensus,
    DiskBuilder,
    FillingPartition,
    Loop,
    consecutive_ladders,
    edge_keys,
    empty_partition,
    fill_to_mesh,
    subdivide,
    validate_partition,
)
from .trace import LPError, horoball_polytope, level_project, linprog, min_set
from .tube import classify_strip, fill_tube_loop, sandwich_project

__all__ = [
    "BrickCensus",
    "FillingPartition",
    "Loop",
    "validate_partition",
    "cone_fill",
    "fill_flat_loop",
    "sandwich_route",
    "refine_partition",
    "dehn_exponent",
    "brute_force_area",
]


CENSUS_BLOCK = 16384  # points or bricks per block of brick_census


class FillingError(ValueError):
    pass


# -- cone fill in a convex flat region ----------------------------------------


def cone_fill(loop, mesh):
    """Fan fill of a loop inside a convex flat region.

    Spokes run from loop vertex 0 to every other sample; convexity keeps
    the placed disk inside the region.  Area is at most a fixed multiple
    of (length / mesh)^2 for loops sampled near the mesh scale.
    """
    if mesh <= 0:
        raise FillingError("mesh must be positive")
    if loop.is_constant:
        return empty_partition(loop)
    fp = fill_to_mesh(
        lambda spacing: (_cone_fill_once(loop, spacing), None),
        mesh / 3.0,
        mesh,
        "cone fill",
    )[0]
    fp.census = BrickCensus(flat_bricks=fp.area, wild_bricks=0)
    return fp


def _cone_fill_once(loop, spacing):
    res, orig_pos = loop.resampled(spacing)
    verts = res.vertices
    s = len(verts)
    builder = DiskBuilder(verts.shape[1])
    bidx = builder.add_chain(verts)
    rows, counts = straight_segments(np.tile(verts[0], (s - 1, 1)), verts[1:], spacing)
    spokes = builder.add_segments(rows, counts, np.full(s - 1, bidx[0]), bidx[1:])
    # the one-point chains at vertex 0 around the spokes close the fan
    chains = np.concatenate([bidx[:1], spokes, bidx[:1]])
    lens = np.concatenate([[1], counts, [1]])
    builder.add_ladders(*consecutive_ladders(chains, lens))
    return builder.build(bidx, anchor=orig_pos)


def convex_region_clear(trace, loop):
    """Whether the convex hull of the loop avoids the open level-0 sublevel set.

    Minimizes the envelope over the hull by linear programming; a
    nonnegative minimum certifies that any cone fill stays outside the
    open horoball.
    """
    v = loop.vertices
    m = len(v)
    k = len(trace.gradients)
    # variables: barycentric weights w (m), epigraph value t
    c_obj = np.zeros(m + 1)
    c_obj[-1] = 1.0
    A_ub = np.hstack([trace.gradients @ v.T, -np.ones((k, 1))])
    b_ub = -trace.offsets
    A_eq = np.zeros((1, m + 1))
    A_eq[0, :m] = 1.0
    try:
        _, fun = linprog(c_obj, A_ub, b_ub, A_eq, [1.0], [(0, None)] * m + [(None, None)])
    except LPError as exc:
        raise FillingError(f"hull LP failed: {exc}") from exc
    return fun >= -DECISION_TOL


# -- the flat-loop pipeline ---------------------------------------------------------


def brick_census(trace, fp):
    """Flat bricks are Euclidean triangles clear of the open horoball.

    A brick counts as flat when a 7-point probe (vertices, edge
    midpoints, centroid) stays at envelope value >= -SURFACE_TOL: such bricks
    lie in the apartment exterior or inside a single level-set facet.

    Most bricks are settled without the probe.  Each point's best piece
    is found once; a brick is surely flat when the best piece at one of
    its vertices is at least -SURFACE_TOL + CENSUS_MARGIN at all three
    vertices, because the piece is affine, so at least that at every
    probe, and the envelope is at least the piece.  Only the other bricks
    are probed.  Points and bricks go in blocks of CENSUS_BLOCK, so
    temporaries stay bounded however large the fill.
    """
    G, c = trace.gradients, trace.offsets
    best = np.empty(len(fp.points), dtype=int)
    for lo in range(0, len(best), CENSUS_BLOCK):
        vals = fp.points[lo : lo + CENSUS_BLOCK] @ G.T + c
        best[lo : lo + CENSUS_BLOCK] = np.argmax(vals, axis=1)
    cols = fp.points.T
    floor = -SURFACE_TOL + CENSUS_MARGIN
    flat = 0
    for lo in range(0, fp.area, CENSUS_BLOCK):
        block = fp.triangles[lo : lo + CENSUS_BLOCK]
        tris = block.T.copy()  # (3, block)
        for k in range(3):
            # vertex k's best piece at all three vertices; keep the bricks it does not settle
            p = best[tris[k]]
            vals = sum((g[p] * col[tris] for g, col in zip(G.T, cols)), c[p])
            tris = tris[:, vals.min(axis=0) < floor]
        pts = fp.points[tris.T]  # (unsettled, 3, n)
        probes = [
            pts[:, 0],
            pts[:, 1],
            pts[:, 2],
            0.5 * (pts[:, 0] + pts[:, 1]),
            0.5 * (pts[:, 1] + pts[:, 2]),
            0.5 * (pts[:, 2] + pts[:, 0]),
            (pts[:, 0] + pts[:, 1] + pts[:, 2]) / 3.0,
        ]
        ok = np.ones(len(pts), dtype=bool)
        for q in probes:
            ok &= trace.value(q) >= -SURFACE_TOL
        flat += len(block) - len(pts) + int(np.sum(ok))
    return BrickCensus(flat_bricks=flat, wild_bricks=fp.area - flat)


def sandwich_route(trace):
    """(projection, strip class) of the level-0 polytope onto the -min_value tube of the min set.

    Raises FillingError naming the first condition the trace misses: bounded
    below, a bounded minimum set, a negative minimum value, a strip class
    other than "fails".
    """
    ms = min_set(trace)
    if not ms.bounded_below:
        raise FillingError("envelope unbounded below: no bounded horoball trace")
    if not ms.polytope.is_bounded:
        raise FillingError("minimum set unbounded: the apartment-change remedy is out of scope")
    if not ms.min_value < 0:
        raise FillingError("min value must be negative: the horoball has empty interior")
    strip_class = classify_strip(ms.polytope)
    if strip_class.case == "fails":
        raise FillingError("minimum set admits no thin strip (strip classification failed)")
    return sandwich_project(horoball_polytope(trace, 0.0), ms.polytope, -ms.min_value), strip_class


def fill_flat_loop(trace, loop, mesh=1.0):
    """Fill a loop in an apartment outside the open horoball.

    Pipeline: cone fill when the loop's hull clears the horoball;
    otherwise project the loop to the level set (a cylinder of strips),
    push it through the sandwich projection onto the tube of the minimum
    set, fill there, and pull the disk back fiber by fiber.  Returns
    (partition, census, info).
    """
    if np.any(trace.value(loop.vertices) < -SURFACE_TOL):
        raise FillingError("loop enters the open horoball")
    if loop.is_constant:
        fp = empty_partition(loop)
        fp.census = BrickCensus(0, 0)
        return fp, fp.census, {"route": "constant"}
    if convex_region_clear(trace, loop):
        fp = cone_fill(loop, mesh)
        return fp, fp.census, {"route": "cone"}
    proj, strip_class = sandwich_route(trace)
    # the loop side is the same on every attempt: resample it at mesh/3,
    # project it to the level set and map that ring onto the tube once
    spacing = mesh / 3.0
    res, orig_pos = loop.resampled(spacing)
    V = res.vertices
    if np.any(trace.value(V) < -SURFACE_TOL):
        raise FillingError(
            "resampling the loop chordwise dips into the open horoball; "
            "sample the loop on its host at spacing <= mesh/3 first"
        )
    level_pts = level_project(trace, V, 0.0)
    tube_loop = Loop(proj.map(level_pts))
    # optimistic start: the retry shrinks the tube mesh only where the
    # fiber pullback actually stretches bricks
    fp, info, _ = fill_to_mesh(
        lambda tube_mesh: _flat_pipeline(
            V, orig_pos, level_pts, tube_loop, proj, spacing, tube_mesh
        ),
        mesh / 1.4,
        mesh,
        "flat pipeline",
    )
    fp.census = brick_census(trace, fp)
    info["route"] = "sandwich"
    info["strip"] = strip_class
    info["a"] = proj.a
    return fp, fp.census, info


def _flat_pipeline(V, orig_pos, level_pts, tube_loop, proj, spacing, tube_mesh):
    """One attempt: fill the tube loop at ``tube_mesh`` and pull it back.

    ``V`` is the resampled loop, ``level_pts`` its level projections and
    ``tube_loop`` their sandwich images; the census is left to the caller.
    """
    s = len(V)
    disk, tube_info = fill_tube_loop(proj.core, proj.radius, tube_loop, tube_mesh)
    ring_positions = disk.boundary_anchor  # boundary position of ring vertex k
    builder = DiskBuilder(V.shape[1])
    outer_idx = builder.add_chain(V)
    # pull the tube disk back to the level set along sandwich fibers;
    # ring vertices pull back to their exact level projections.  The
    # ring positions increase, so the ring is placed in boundary order.
    lookup = np.full(len(disk.points), -1)
    lookup[disk.boundary[ring_positions]] = builder.add_chain(level_pts)
    rest = np.flatnonzero(lookup < 0)
    if len(rest):
        lookup[rest] = builder.add_chain(proj.inverse_batch(disk.points[rest]))
    builder.add_triangles(lookup[disk.triangles])
    # radial chains from each loop vertex down to its level projection
    rim = lookup[disk.boundary]
    rows, counts = straight_segments(V, level_pts, spacing)
    radial = builder.add_segments(rows, counts, outer_idx, rim[ring_positions])
    # between radial chains k and k + 1 the ladder runs along the pulled
    # boundary arc from ring vertex k to ring vertex k + 1: chain a is
    # radial chain k and the arc after ring vertex k, and these arcs tile
    # the rim from the one after ring vertex 0
    arcs = np.diff(ring_positions, append=ring_positions[0] + len(rim))
    on_radial = np.repeat(np.tile([True, False], s), np.stack([counts, arcs], axis=1).ravel())
    a = np.empty(len(on_radial), dtype=int)
    a[on_radial] = radial
    a[~on_radial] = np.roll(rim, -ring_positions[0] - 1)
    builder.add_ladders(a, counts + arcs, np.roll(radial, -counts[0]), np.roll(counts, -1))
    return builder.build(outer_idx, anchor=orig_pos), {"tube": tube_info}


# -- refinement ------------------------------------------------------------------------


def refine_partition(fp, lam, allow_wild=False):
    """Uniform 4-way subdivision until the mesh is at most lam.

    Requires an all-flat census (midpoint placements stay in the flat
    pieces) unless the caller explicitly accepts refining wild bricks.
    """
    if lam <= 0:
        raise FillingError("target mesh must be positive")
    if fp.census is not None and fp.census.wild_bricks > 0 and not allow_wild:
        raise FillingError(
            f"partition has {fp.census.wild_bricks} wild bricks; refinement "
            "needs flat bricks (pass allow_wild to subdivide anyway)"
        )
    if fp.mesh <= lam:
        return fp
    levels = int(np.ceil(np.log2(fp.mesh / lam)))
    points, tris = fp.points, fp.triangles
    boundary = fp.boundary
    for _ in range(levels):
        points, tris, midpoint = subdivide(points, tris)
        mids = midpoint(boundary, np.roll(boundary, -1))
        boundary = np.stack([boundary, mids], axis=1).ravel()
    out = FillingPartition(points, tris, boundary, fp.boundary_anchor * 2**levels)
    if fp.census is not None:
        factor = 4**levels
        out.census = BrickCensus(
            fp.census.flat_bricks * factor, fp.census.wild_bricks * factor
        )
    return out


# -- exponent fitting ---------------------------------------------------------------------


@dataclass
class ExponentFit:
    slope: float
    intercept: float
    stderr: float
    residuals: np.ndarray
    lengths: np.ndarray
    areas: np.ndarray
    degenerate: bool = False


def dehn_exponent(lengths, areas):
    """Least-squares slope of log(min area) against log(length).

    ``areas`` maps each length to one or more observed areas, or lists
    them in the order of ``lengths``; the per-length minimum enters the
    fit.  Only the top half of the length range is used (at least three
    points), suppressing additive constants; their least areas must be
    positive.
    """
    per = areas if isinstance(areas, dict) else dict(zip(lengths, areas))
    lengths = np.asarray(sorted(lengths), dtype=float)
    if len(lengths) < 4:
        raise FillingError("need at least 4 lengths")
    if lengths[-1] / lengths[0] < 10.0:
        raise FillingError("lengths must span at least one decade")
    mins = np.array([float(np.min(per[l])) for l in lengths])
    if np.allclose(mins, mins[0]):
        return ExponentFit(
            0.0,
            float(np.log(max(mins[0], LOG_FLOOR))),
            0.0,
            np.zeros(len(mins)),
            lengths,
            mins,
            degenerate=True,
        )
    start = min(len(lengths) // 2 - len(lengths) % 2, len(lengths) - 3)
    if not np.all(mins[start:] > 0):
        raise FillingError("areas must be positive to fit")
    L = np.log(lengths[start:])
    A = np.log(mins[start:])
    coef, cov = np.polyfit(L, A, 1, cov=True)
    resid = A - np.polyval(coef, L)
    return ExponentFit(
        float(coef[0]),
        float(coef[1]),
        float(np.sqrt(max(cov[0, 0], 0.0))),
        resid,
        lengths,
        mins,
    )


# -- the area oracle -------------------------------------------------------------------------


def brute_force_area(vertices, triangles, cycle):
    """Least number of mesh 2-cells in an integral filling of the vertex cycle.

    The optimal bounding chain LP: minimize |x|_1 over real 2-chains with
    d2 x = c, where edges run from the lower to the higher vertex index and
    c sums the loop's oriented edges (a loop wound k times counts k times).
    d2 is totally unimodular on orientable surfaces, so the optimum is
    integral; a loop that bounds only mod 2, such as the rim of a Moebius
    band, does not bound.
    """
    triangles = np.asarray(triangles, dtype=int).reshape(-1, 3)
    F = len(triangles)
    cycle = np.asarray(cycle, dtype=int)
    if len(cycle) == 0:
        return 0
    n = int(max(triangles.max(initial=0), cycle.max(initial=0))) + 1
    heads = np.roll(triangles, -1, axis=1)
    keys, rows = np.unique(edge_keys(triangles, heads, n).ravel(), return_inverse=True)
    signs = np.where(triangles < heads, 1.0, -1.0).ravel()
    D = coo_matrix((signs, (rows, np.repeat(np.arange(F), 3))), shape=(len(keys), F))
    loop_keys = edge_keys(cycle, np.roll(cycle, -1), n)
    on_mesh = np.isin(loop_keys, keys)
    if not np.all(on_mesh):
        k = loop_keys[np.argmin(on_mesh)]
        raise FillingError(f"loop edge {(int(k // n), int(k % n))} is not a mesh edge")
    target = np.zeros(len(keys))
    np.add.at(target, np.searchsorted(keys, loop_keys), np.sign(np.roll(cycle, -1) - cycle))
    try:
        _, fun = linprog(np.ones(2 * F), A_eq=hstack([D, -D]), b_eq=target, bounds=(0, None))
    except LPError as exc:
        if exc.status == "Infeasible":
            raise FillingError("loop does not bound in this complex") from exc
        raise FillingError(f"oracle LP failed: {exc}") from exc
    area = int(round(fun))
    if abs(fun - area) > SURFACE_TOL:
        raise FillingError(f"oracle LP optimum {fun} is not integral")
    return area
