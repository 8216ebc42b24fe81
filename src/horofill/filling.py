"""Loop filling machinery: cone fills, descent cylinders, the flat-loop
pipeline, partition refinement, exponent fits, and the exact small-scale
area oracle.

Areas are brick counts of the partitions this engine constructs; the
oracle provides a lower-bound witness on small frozen instances, but no
claim of global minimality is made.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .coxeter import ort_distance, wall_margin
from .geometry import VPolytope
from .partitions import (
    BrickCensus,
    DiskBuilder,
    FillingPartition,
    Loop,
    PartitionError,
    compute_mesh,
    empty_partition,
    subdivide,
    validate_partition,
)
from .trace import horoball_polytope, level_project, min_set
from .tube import classify_strip, fill_tube_loop, sandwich_project

__all__ = [
    "BrickCensus",
    "FillingPartition",
    "Loop",
    "validate_partition",
    "cone_fill",
    "cylinder_descend",
    "close_cylinder",
    "fill_flat_loop",
    "refine_partition",
    "dehn_exponent",
    "brute_force_area",
]


class FillingError(ValueError):
    pass


# -- cone fill in a convex flat region ----------------------------------------


def cone_fill(loop, mesh, basepoint_index=0, max_attempts=5):
    """Fan fill of a loop inside a convex flat region.

    Spokes run from a loop vertex to every other sample; convexity keeps
    the placed disk inside the region.  Area is at most a fixed multiple
    of (length / mesh)^2 for loops sampled near the mesh scale.
    """
    if mesh <= 0:
        raise FillingError("mesh must be positive")
    if loop.is_constant:
        return empty_partition(loop)
    spacing = mesh / 3.0
    fp = None
    for _ in range(max_attempts):
        fp = _cone_fill_once(loop, spacing, basepoint_index)
        if fp.mesh <= mesh + 1e-12:
            fp.census = BrickCensus(flat_bricks=fp.area, wild_bricks=0)
            return fp
        spacing *= 0.9 * mesh / fp.mesh
    raise PartitionError(f"cone fill missed the mesh: {fp.mesh} > {mesh}")


def _cone_fill_once(loop, spacing, basepoint_index):
    res, orig_pos = loop.resampled(spacing, return_map=True)
    roll = orig_pos[int(basepoint_index) % len(orig_pos)]
    verts = np.roll(res.vertices, -roll, axis=0)
    s = len(verts)
    anchor = [(p - roll) % s for p in orig_pos]
    hub = verts[0]
    builder = DiskBuilder(verts.shape[1])
    bidx = builder.add_chain(verts)
    chains = [[bidx[0]]]
    for i in range(1, s):
        seg = float(np.linalg.norm(verts[i] - hub))
        n = max(2, int(np.ceil(seg / spacing)) + 1)
        pts = hub + np.linspace(0.0, 1.0, n)[1:-1, None] * (verts[i] - hub)
        interior = builder.add_chain(pts) if n > 2 else []
        chains.append([bidx[0]] + interior + [bidx[i]])
    chains.append([bidx[0]])
    for i in range(s):
        builder.add_ladder(chains[i], chains[i + 1])
    return builder.build(bidx, anchor=anchor)


def convex_region_clear(trace, loop, level=0.0):
    """Whether the convex hull of the loop avoids the open sublevel set.

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
    res = linprog(
        c_obj,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)],
        method="highs",
    )
    if res.status != 0:
        raise FillingError(f"hull LP failed with status {res.status}")
    return res.fun >= level - 1e-9


# -- descent cylinders -----------------------------------------------------------


@dataclass
class AnnulusStrip:
    """Cylinder between two loops; not a disk, so not a FillingPartition."""

    points: np.ndarray
    triangles: np.ndarray
    outer: list
    inner: list
    outer_anchor: list = None

    @property
    def area(self):
        return int(len(self.triangles))

    @property
    def mesh(self):
        return compute_mesh(self.points, self.triangles) if len(self.triangles) else 0.0


def cylinder_descend(loop, beta, rs, theta, delta1, mesh=1.0, height=None):
    """Flow a flat loop to a transverse hyperplane along a good slope.

    Marks samples along the loop, flows each along the slope direction
    to the hyperplane orthogonal to the flow at height length * (1 +
    1/sin(delta1)) over the first sample (or an explicit height), and
    returns the inner polygon (never longer than the loop, by convexity
    of the distance) together with the quadrilateral-strip cylinder
    between the two loops.
    """
    if not (
        ort_distance(rs, theta, beta) > delta1 and wall_margin(rs, beta) > delta1
    ):
        raise FillingError(
            "slope fails the good-slope recheck (orthogonal-set or wall margin)"
        )
    spacing = mesh / 4.0
    res, orig_pos = loop.resampled(spacing, return_map=True)
    P = res.vertices
    u = beta.direction
    ell = loop.length
    h = ell * (1.0 + 1.0 / np.sin(delta1)) if height is None else float(height)
    t = h - (P - P[0]) @ u
    if np.any(t < -1e-9):
        raise FillingError("hyperplane height does not clear the loop")
    t = np.clip(t, 0.0, None)
    N = P + t[:, None] * u
    inner = Loop(N)
    if inner.length > loop.length + 1e-6:
        raise FillingError("inner loop came out longer than the outer loop")
    builder = DiskBuilder(P.shape[1])
    outer_idx = builder.add_chain(P)
    if np.max(t) <= 1e-12:
        # loop already lies in the target hyperplane: empty cylinder
        strip = AnnulusStrip(
            np.array(builder._points),
            np.zeros((0, 3), dtype=int),
            outer_idx,
            outer_idx,
            outer_anchor=orig_pos,
        )
        return inner, strip
    inner_idx = builder.add_chain(N)
    s = len(P)
    rows = max(1, int(np.ceil(np.max(t) / spacing)))
    chains = []
    for k in range(s):
        pts = [P[k] + (j / rows) * t[k] * u for j in range(1, rows)]
        interior = builder.add_chain(pts)
        chains.append([outer_idx[k]] + interior + [inner_idx[k]])
    for k in range(s):
        builder.add_ladder(chains[k], chains[(k + 1) % s])
    strip = AnnulusStrip(
        np.array(builder._points),
        np.array(builder._triangles, dtype=int).reshape(-1, 3),
        outer_idx,
        inner_idx,
        outer_anchor=orig_pos,
    )
    return inner, strip


def close_cylinder(strip, mesh):
    """Cap an annulus strip with a cone fill of its inner loop.

    The inner polygon lies in the target hyperplane (a convex flat), so
    the fan stays inside it.  The strip's inner sampling is finer than
    the cone's resampling spacing, so the shared ring matches edge for
    edge.  Returns a FillingPartition bounded by the strip's outer loop.
    """
    inner_pts = strip.points[strip.inner]
    cap = cone_fill(Loop(inner_pts), mesh)
    builder = DiskBuilder(strip.points.shape[1])
    for p in strip.points:
        builder.add_point(p)
    for tri in strip.triangles:
        builder.add_triangle(*tri)
    remap = {}
    for bidx in cap.boundary:
        for k in strip.inner:
            if np.linalg.norm(cap.points[bidx] - strip.points[k]) <= 1e-9:
                remap[bidx] = k
                break
    for i, p in enumerate(cap.points):
        if i not in remap:
            remap[i] = builder.add_point(p)
    for tri in cap.triangles:
        builder.add_triangle(*(remap[int(i)] for i in tri))
    return builder.build(strip.outer, anchor=strip.outer_anchor)


# -- the flat-loop pipeline ---------------------------------------------------------


def brick_census(trace, fp, tol=1e-6):
    """Flat bricks are Euclidean triangles clear of the open horoball.

    A brick counts as flat when a 7-point probe (vertices, edge
    midpoints, centroid) stays at envelope value >= -tol: such bricks
    lie in the apartment exterior or inside a single level-set facet.
    """
    if fp.area == 0:
        return BrickCensus(0, 0)
    pts = fp.points[fp.triangles]  # (F, 3, n)
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
        ok &= trace.values(q) >= -tol
    flat = int(np.sum(ok))
    return BrickCensus(flat_bricks=flat, wild_bricks=fp.area - flat)


def fill_flat_loop(trace, loop, mesh=1.0, max_attempts=4):
    """Fill a loop in an apartment outside the open horoball.

    Pipeline: cone fill when the loop's hull clears the horoball;
    otherwise project the loop to the level set (a cylinder of strips),
    push it through the sandwich projection onto the tube of the minimum
    set, fill there, and pull the disk back fiber by fiber.  Returns
    (partition, census, info).
    """
    vals = trace.values(loop.vertices)
    if np.any(vals < -1e-6):
        raise FillingError("loop enters the open horoball")
    if loop.is_constant:
        fp = empty_partition(loop)
        fp.census = BrickCensus(0, 0)
        return fp, fp.census, {"route": "constant"}
    if convex_region_clear(trace, loop):
        fp = cone_fill(loop, mesh)
        return fp, fp.census, {"route": "cone"}
    ms = min_set(trace)
    if not ms.bounded_below:
        raise FillingError("envelope unbounded below: no bounded horoball trace")
    if not ms.polytope.is_bounded:
        raise FillingError(
            "minimum set unbounded: the apartment-change remedy is out of scope"
        )
    m = -ms.min_value
    if m <= 0:
        raise FillingError("horoball has empty interior along this apartment")
    hb = horoball_polytope(trace, 0.0)
    if not hb.is_bounded:
        raise FillingError("horoball trace unbounded; scenario not supported")
    body = VPolytope(hb.vertices)
    core = VPolytope(ms.polytope.vertices)
    strip_class = classify_strip(core)
    if strip_class.case == "fails":
        raise FillingError(
            "strip classification failed; the apartment-change remedy is out of scope"
        )
    proj = sandwich_project(body, core, m)
    # optimistic start: the retry shrinks the tube mesh only where the
    # fiber pullback actually stretches bricks
    tube_mesh = mesh / 1.4
    spacing = mesh / 3.0
    fp = None
    for _ in range(max_attempts):
        fp, census, info = _flat_pipeline(trace, loop, proj, core, m, spacing, tube_mesh)
        if fp.mesh <= mesh + 1e-12:
            info["route"] = "sandwich"
            info["strip"] = strip_class
            info["a"] = proj.a
            return fp, census, info
        tube_mesh *= 0.9 * mesh / fp.mesh
    raise PartitionError(f"flat pipeline missed the mesh (got {fp.mesh} > {mesh})")


def _flat_pipeline(trace, loop, proj, core, m, spacing, tube_mesh):
    res, orig_pos = loop.resampled(spacing, return_map=True)
    V = res.vertices
    s = len(V)
    if np.any(trace.values(V) < -1e-6):
        raise FillingError(
            "resampling the loop chordwise dips into the open horoball; "
            "sample the loop on its host at spacing <= mesh/3 first"
        )
    level_pts = np.array([level_project(trace, v, 0.0) for v in V])
    tube_pts = np.array([proj.map(p) for p in level_pts])
    disk, tube_info = fill_tube_loop(core, m, Loop(tube_pts), tube_mesh)
    ring_positions = tube_info["ring_positions"]  # boundary position of ring k
    builder = DiskBuilder(V.shape[1])
    outer_idx = builder.add_chain(V)
    pos_to_ring = {pos: k for k, pos in enumerate(ring_positions)}
    # pull the tube disk back to the level set along sandwich fibers;
    # ring vertices pull back to their exact level projections
    pulled = {}
    for pos, bidx in enumerate(disk.boundary):
        if pos in pos_to_ring:
            pulled[bidx] = builder.add_point(level_pts[pos_to_ring[pos]])
    rest = [i for i in range(len(disk.points)) if i not in pulled]
    if rest:
        back = proj.inverse_batch(disk.points[rest])
        for i, q in zip(rest, back):
            pulled[i] = builder.add_point(q)
    for tri in disk.triangles:
        builder.add_triangle(*(pulled[int(i)] for i in tri))
    # radial chains from each loop vertex down to its level projection
    radial = {}
    for k in range(s):
        seg = float(np.linalg.norm(V[k] - level_pts[k]))
        n = max(2, int(np.ceil(seg / spacing)) + 1)
        pts = V[k] + np.linspace(0.0, 1.0, n)[1:-1, None] * (level_pts[k] - V[k])
        interior = builder.add_chain(pts) if n > 2 else []
        tgt = pulled[disk.boundary[ring_positions[k]]]
        radial[k] = [outer_idx[k]] + interior + [tgt]
    for k in range(s):
        k2 = (k + 1) % s
        arc = _boundary_arc(
            disk.boundary, ring_positions[k], ring_positions[k2]
        )
        arc_idx = [pulled[b] for b in arc]
        builder.add_ladder(radial[k][:-1] + arc_idx, radial[k2])
    fp = builder.build(outer_idx, anchor=orig_pos)
    census = brick_census(trace, fp)
    fp.census = census
    return fp, census, {"tube": tube_info}


def _boundary_arc(boundary, p1, p2):
    nb = len(boundary)
    arc = []
    k = p1
    while True:
        arc.append(boundary[k])
        if k == p2:
            break
        k = (k + 1) % nb
        if len(arc) > nb + 1:
            raise PartitionError("boundary arc did not close")
    return arc


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
    mesh = fp.mesh if fp.mesh is not None else compute_mesh(fp.points, fp.triangles)
    if mesh <= lam or fp.area == 0:
        return fp
    levels = int(np.ceil(np.log2(mesh / lam)))
    points = list(fp.points)
    tris = [tuple(int(i) for i in t) for t in fp.triangles]
    boundary = list(fp.boundary)
    anchor = list(fp.boundary_anchor) if fp.boundary_anchor is not None else None
    for _ in range(levels):
        points, tris, midpoint = subdivide(points, tris)
        new_boundary = []
        for a, b in zip(boundary, boundary[1:] + boundary[:1]):
            new_boundary.append(a)
            new_boundary.append(midpoint[(min(a, b), max(a, b))])
        boundary = new_boundary
        if anchor is not None:
            anchor = [2 * p for p in anchor]
    out = FillingPartition(
        np.array(points), np.array(tris, dtype=int), boundary, boundary_anchor=anchor
    )
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


def dehn_exponent(lengths, areas, top_half=True):
    """Least-squares slope of log(min area) against log(length).

    ``areas`` maps each length to one or more observed areas; the
    per-length minimum enters the fit.  By default only the top half of
    the length range is used (at least three points), suppressing
    additive constants.
    """
    lengths = np.asarray(sorted(lengths), dtype=float)
    if len(lengths) < 4:
        raise FillingError("need at least 4 lengths")
    if lengths[-1] / lengths[0] < 10.0:
        raise FillingError("lengths must span at least one decade")
    per = areas if isinstance(areas, dict) else dict(zip(lengths, areas))
    mins = np.array([float(np.min(per[l])) for l in lengths])
    if np.allclose(mins, mins[0]):
        return ExponentFit(
            0.0,
            float(np.log(max(mins[0], 1e-300))),
            0.0,
            np.zeros(len(mins)),
            lengths,
            mins,
            degenerate=True,
        )
    start = min(len(lengths) // 2 - len(lengths) % 2, len(lengths) - 3)
    sel = slice(start, None) if top_half else slice(None)
    L = np.log(lengths[sel])
    A = np.log(mins[sel])
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


# -- the exact small-scale oracle ------------------------------------------------------------


MAX_ORACLE_CELLS = 1000


def brute_force_area(vertices, triangles, cycle):
    """Minimal number of mesh 2-cells in a filling of the vertex cycle.

    Solves the boundary equation over GF(2): a filling is a 2-chain
    whose boundary is the loop.  On the genus-zero complexes used here
    the solution space is tiny, so the minimum-weight solution is exact.
    Rejects complexes above 10^3 cells or with a large solution space.
    """
    triangles = np.asarray(triangles, dtype=int)
    F = len(triangles)
    if F > MAX_ORACLE_CELLS:
        raise FillingError(f"oracle limited to {MAX_ORACLE_CELLS} cells, got {F}")
    edges = {}
    for t_idx, t in enumerate(triangles):
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            key = (min(int(a), int(b)), max(int(a), int(b)))
            edges.setdefault(key, []).append(t_idx)
    edge_index = {e: i for i, e in enumerate(sorted(edges))}
    E = len(edge_index)
    B = np.zeros((E, F), dtype=np.uint8)
    for e, faces in edges.items():
        for f in faces:
            B[edge_index[e], f] ^= 1
    target = np.zeros(E, dtype=np.uint8)
    cycle = [int(i) for i in cycle]
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        key = (min(a, b), max(a, b))
        if key not in edge_index:
            raise FillingError(f"loop edge {key} is not a mesh edge")
        target[edge_index[key]] ^= 1
    sol, null = _gf2_solve(B, target)
    if sol is None:
        raise FillingError("loop does not bound in this complex")
    if len(null) > 20:
        raise FillingError("solution space too large for exact minimization")
    best = int(np.sum(sol))
    for r in range(1, len(null) + 1):
        for combo in itertools.combinations(null, r):
            x = sol.copy()
            for n_vec in combo:
                x = x ^ n_vec
            best = min(best, int(np.sum(x)))
    return best


def _gf2_solve(A, b):
    """Particular solution and null-space basis of A x = b over GF(2)."""
    A = A.copy().astype(np.uint8)
    b = b.copy().astype(np.uint8)
    rows, cols = A.shape
    pivot_col_of_row = []
    r = 0
    for c in range(cols):
        pivot = None
        for rr in range(r, rows):
            if A[rr, c]:
                pivot = rr
                break
        if pivot is None:
            continue
        if pivot != r:
            A[[r, pivot]] = A[[pivot, r]]
            b[[r, pivot]] = b[[pivot, r]]
        mask = A[:, c].astype(bool)
        mask[r] = False
        A[mask] ^= A[r]
        b[mask] ^= b[r]
        pivot_col_of_row.append(c)
        r += 1
        if r == rows:
            break
    for rr in range(r, rows):
        if b[rr]:
            return None, []
    x = np.zeros(cols, dtype=np.uint8)
    for row, c in enumerate(pivot_col_of_row):
        x[c] = b[row]
    pivots = set(pivot_col_of_row)
    null = []
    for c in range(cols):
        if c in pivots:
            continue
        v = np.zeros(cols, dtype=np.uint8)
        v[c] = 1
        for row, pc in enumerate(pivot_col_of_row):
            if A[row, c]:
                v[pc] = 1
        null.append(v)
    return x, null
