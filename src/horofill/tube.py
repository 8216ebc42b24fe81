"""Euclidean geometry of tubes around convex polytopes.

The tube of radius R around a polytope P is the hypersurface of points
at distance exactly R from P.  This module provides nearest-point
projections, bounded-length paths on tubes, radial and sandwich
projections between nested tubes, strip classification of the core, and
quadratic loop filling on tube surfaces.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import (
    DECISION_TOL,
    DEDUP_TOL,
    HV_TOL,
    LENGTH_FLOOR,
    SQUARED_LENGTH_FLOOR,
    SURFACE_TOL,
    VPolytope,
    angle_between,
    matvec,
    polyline_length,
    row_blocks,
    row_norms,
    segment_hits_polytope,
    segment_params,
    unit,
)
from .partitions import (
    BrickCensus,
    DiskBuilder,
    consecutive_ladders,
    cyclic_ladders,
    empty_partition,
    fill_to_mesh,
)


class TubeError(ValueError):
    pass


class HypothesisViolated(TubeError):
    """A stated geometric hypothesis failed; the message names the clause."""


# -- shape builders -----------------------------------------------------------


def rectangle_polytope(origin, u, w):
    """Rectangle spanned by edge vectors u and w (must be orthogonal)."""
    origin = np.asarray(origin, dtype=float)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if abs(np.dot(u, w)) > DECISION_TOL:
        raise TubeError("rectangle edge vectors must be orthogonal")
    return VPolytope([origin, origin + u, origin + w, origin + u + w])


def standard_shape(name):
    """Named acceptance shapes in E^3."""
    if name == "point":
        return VPolytope([np.zeros(3)])
    if name == "segment":
        return VPolytope([np.zeros(3), np.array([1.0, 0, 0])])
    if name == "square":
        return rectangle_polytope(
            np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
        )
    raise TubeError(f"unknown shape {name!r}")


def nearest_point(P, x):
    """Nearest point of the polytope to x, or to each row of x, and the distance.

    The bases keep the shape of x; the distances lose its last axis and
    are bit for bit the 1-D ``np.linalg.norm`` of each row.
    """
    x = np.asarray(x, dtype=float)
    x0 = P.nearest_point(x)
    return x0, row_norms(x - x0)


# -- tube points ----------------------------------------------------------------


@dataclass
class TubePoint:
    """A point on the tube with its projection data.

    ``base`` is the nearest point on P, ``foot`` the projection on the
    affine span, ``alpha`` the angle at the base between the radius and
    the orthogonal complement of the span.
    """

    point: np.ndarray
    base: np.ndarray
    foot: np.ndarray
    alpha: float
    radius: float
    vertical: np.ndarray  # component of point-base orthogonal to the span
    lateral: np.ndarray  # component of point-base inside the span


def make_tube_point(P, x, R):
    x = np.asarray(x, dtype=float)
    base, d = nearest_point(P, x)
    if abs(d - R) > SURFACE_TOL:
        raise TubeError(f"point is at distance {d:.9g}, not R={R:.9g}, from the core")
    v = x - base
    lateral = P.basis.T @ (P.basis @ v) if P.dim else np.zeros_like(v)
    vertical = v - lateral
    alpha = float(np.arctan2(np.linalg.norm(lateral), np.linalg.norm(vertical)))
    foot = P.from_span(P.to_span(x))
    return TubePoint(x, base, foot, alpha, float(R), vertical, lateral)


# -- paths on a tube (pairwise construction) -------------------------------------

ARC_STEP = 0.05  # tube-path arcs are sampled at most this many radians apart


def _arc(center, v_from, toward, radius, angle):
    """Arc of the given angle from center+v_from, turning toward ``toward``.

    Returns the arc's points after its first, sampled at most ARC_STEP
    radians apart, as one array, and its length radius * angle.  An arc
    whose ``toward`` has a perpendicular component below DECISION_TOL *
    radius has no points and no length: the arccos of a clipped dot
    product is noisy near parallel pairs, so the angle cannot decide.
    """
    e1 = unit(v_from)
    w = toward - np.dot(toward, e1) * e1
    if np.linalg.norm(w) < DECISION_TOL * radius:
        return np.empty((0, len(e1))), 0.0
    t = np.linspace(0.0, angle, max(2, int(np.ceil(angle / ARC_STEP)) + 1))[1:, None]
    return center + radius * (np.cos(t) * e1 + np.sin(t) * unit(w)), float(radius * angle)


def _outward_in_span(P, z):
    """A span direction in the normal cone of the boundary point z."""
    tight = np.abs(P.normals @ P.to_span(z) - P.bounds) <= HV_TOL
    if not np.any(tight):
        raise TubeError("swing point is not on the boundary of the core")
    return P.basis.T @ unit(np.sum(P.normals[tight], axis=0))


def _min_distance_sum_on_boundary(P, a, b):
    """Boundary point z minimizing d(a, z) + d(z, b), exactly.

    A facet of a core of dimension 1 or 2 is a point, or an edge between its
    two extreme tight vertices.  On an edge z is Heron's reflection point
    t = (t_a h_b + t_b h_a) / (h_a + h_b) clipped to [0, 1], with t_a, t_b
    the projections of a, b on the edge's line and h_a, h_b their distances
    to it.  One array pass over the facets; the first lower by DEDUP_TOL wins.
    """
    if not 1 <= P.dim <= 2:
        raise TubeError(f"a {P.dim}-dimensional core has no point or edge facets to route through")
    span_verts = (P.vertices - P.origin) @ P.basis.T
    tight = np.abs(span_verts @ P.normals.T - P.bounds) <= HV_TOL  # (vertices, facets)
    along = P.normals @ np.array([[0.0, 1.0], [-1.0, 0.0]]) if P.dim == 2 else P.normals
    s = span_verts @ along.T  # each vertex's place along each facet
    p = P.vertices[np.where(tight, s, np.inf).argmin(0)]
    e = P.vertices[np.where(tight, s, -np.inf).argmax(0)] - p  # 0 on a point facet
    d = np.stack([a, b])[:, None] - p  # (2, facets, n)
    t = (d * e).sum(-1) / np.maximum((e * e).sum(1), SQUARED_LENGTH_FLOOR)
    h = row_norms(d - t[..., None] * e)
    w = np.where(h.sum(0) > 0, h[::-1], 1.0)  # a, b on the line: any t between theirs is least
    z = p + np.clip((w * t).sum(0) / w.sum(0), 0.0, 1.0)[:, None] * e
    best, _ = _first_min(row_norms(z - a) + row_norms(z - b))
    return z[best]


@dataclass
class TubePathResult:
    polyline: np.ndarray
    length: float
    case: str
    separating: bool


def tube_path(P, R, x, y):
    """Path on the tube from x to y per the translate-and-arc construction.

    Cases: (A) both radii orthogonal to the span, (B) one slanted radius,
    (C) both slanted.  Slanted radii are first rotated onto the fiber
    sphere (an arc of length R * alpha); orthogonal radii are connected
    by a fiber arc plus a parallel translate along the core.  A
    codimension-1 span separating the endpoints is routed through the
    boundary point z minimizing d(x0,z)+d(z,y0), the exact reflection
    point on its point or edge facets (higher-dimensional facets raise
    TubeError), with a half circle of length pi*R.  A translate starts at
    the last point sampled before it (x when x has no slant arc, x.base +
    vx after an empty fiber arc); the separating return leg at z + vy.

    The hypothesis "[x', y'] intersects the core" is checked; violations
    raise HypothesisViolated naming the clause.
    """
    if P.codim < 1:
        raise TubeError("core must have codimension >= 1")
    if not isinstance(x, TubePoint):
        x = make_tube_point(P, x, R)
    if not isinstance(y, TubePoint):
        y = make_tube_point(P, y, R)
    if not segment_hits_polytope(x.foot, y.foot, P):
        raise HypothesisViolated(
            "the segment [x', y'] between the span projections misses the core"
        )
    slant_x = bool(np.linalg.norm(x.lateral) > DECISION_TOL)
    slant_y = bool(np.linalg.norm(y.lateral) > DECISION_TOL)
    case = "ABC"[slant_x + slant_y]
    vx = _vertical_target(P, x, y) if slant_x else x.vertical
    vy = _vertical_target(P, y, x) if slant_y else y.vertical
    # each arc is (points after its first, length); an upright y ends at y.point
    arc_x, arc_y = (np.empty((0, P.ambient_dim)), 0.0), (y.point[None], 0.0)
    if slant_x:
        u = x.point - x.base
        arc_x = _arc(x.base, u, vx, R, angle_between(u, vx))
    if slant_y:
        u = y.point - y.base
        arc_y = _arc(y.base, vy, u, R, angle_between(vy, u))
    # verticalized endpoints: x.base + vx and py over y.base
    py = y.base + vy
    separating = P.codim == 1 and float(np.dot(vx, vy)) < 0.0
    if separating:
        z = _min_distance_sum_on_boundary(P, x.base, y.base)
        half = _arc(z, vx, _outward_in_span(P, z), R, np.pi)
        start = arc_x[0][-1] if len(arc_x[0]) else x.point
        middle = [z + vx, half[0]]
        legs = [np.linalg.norm(start - (z + vx)), half[1], np.linalg.norm(z + vy - py)]
    else:
        fiber = _arc(x.base, vx, vy, R, angle_between(vx, vy))
        if not len(fiber[0]) and np.dot(vx, vy) < 0:  # antipodal: turn through a perpendicular
            fiber = _arc(x.base, vx, _perpendicular_vertical(P, vx), R, np.pi)
        end = fiber[0][-1] if len(fiber[0]) else x.base + vx
        middle = [fiber[0]]
        legs = [fiber[1], np.linalg.norm(end - py)]
    poly = np.vstack([x.point, arc_x[0], *middle, py, arc_y[0]])
    poly = poly[np.r_[True, row_norms(np.diff(poly, axis=0)) > DEDUP_TOL]]
    return TubePathResult(poly, float(sum([arc_x[1], *legs, arc_y[1]])), case, separating)


def _vertical_target(P, tp, other):
    """Vertical of norm R at tp.base, per the verticalization rule."""
    v = tp.vertical
    if np.linalg.norm(v) > DECISION_TOL:
        return tp.radius * unit(v)
    ov = other.vertical
    if np.linalg.norm(ov) > DECISION_TOL:
        return tp.radius * unit(ov)
    return tp.radius * _perpendicular_vertical(P, None)


def _perpendicular_vertical(P, v):
    """A deterministic unit vector orthogonal to the span (and to v)."""
    n = P.ambient_dim
    basis = P.basis
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        w = e - basis.T @ (basis @ e) if P.dim else e
        if v is not None and np.linalg.norm(v) > DEDUP_TOL:
            w = w - np.dot(w, unit(v)) * unit(v)
        if np.linalg.norm(w) > DECISION_TOL:
            return unit(w)
    raise TubeError("no orthogonal direction available (codim 0 core?)")


# -- radial projection between tubes ----------------------------------------------


def radial_project_path(P, R_out, R_in, path):
    """Map a path on the outer tube to the inner one along radii.

    Returns (inner path, report); the length ratio outer/inner is
    bounded below by 1 (projection onto a convex neighborhood contracts)
    and above by a = R_out/R_in times the path construction constant.
    """
    if not 0 < R_in < R_out:
        raise TubeError("need 0 < R_in < R_out")
    path = np.asarray(path, dtype=float)
    bases, d = nearest_point(P, path)
    off = np.flatnonzero(np.abs(d - R_out) > SURFACE_TOL)
    if len(off):
        raise TubeError(f"path point at distance {d[off[0]]:.9g} is not on the outer tube")
    inner = bases + (R_in / R_out) * (path - bases)
    lo = polyline_length(path)
    li = polyline_length(inner)
    report = {
        "a": R_out / R_in,
        "outer_length": lo,
        "inner_length": li,
        "ratio": lo / li if li > LENGTH_FLOOR else 1.0,
    }
    return inner, report


# -- sandwich projection ------------------------------------------------------------


class SandwichError(TubeError):
    pass


@dataclass
class SandwichProjection:
    """Fiber projection of a convex body's boundary onto an inner tube."""

    body: VPolytope
    core: VPolytope
    radius: float
    a: float

    def map(self, x):
        """The fiber image of x, or of each row of x, on the inner tube."""
        x = np.asarray(x, dtype=float)
        base, d = nearest_point(self.core, x)
        if np.any(d < self.radius - SURFACE_TOL):
            raise SandwichError("point lies inside the inner tube")
        return base + self.radius * (x - base) / d[..., None]

    def inverse_batch(self, X):
        """Fiber points of the body boundary over the tube points X (rows).

        Each fiber leaves its base, the nearest core point, along the ray
        through x and ends where that ray exits the body.  A point core
        is the one shared base.  The rows go in ``row_blocks``, so the
        (facets, points) products stay BLOCK points wide; each row's
        fiber point depends on that row alone.
        """
        X = np.asarray(X, dtype=float)
        out = np.empty_like(X)
        for rows in row_blocks(len(X)):
            out[rows] = self._fiber_ends(X[rows])
        return out

    def _fiber_ends(self, X):
        if self.core.dim == 0:  # one base row: the facet products below stay one column
            bases = self.core.vertices[:1]
        else:
            bases = self.core.nearest_point(X)
        D = X - bases
        d = np.linalg.norm(D, axis=1)
        rays = D / d[:, None]
        N = self.body.normals
        v0 = N @ (self.body.basis @ (bases - self.body.origin).T) - self.body.bounds[:, None]
        dv = (N @ self.body.basis) @ rays.T  # (facets, points)
        with np.errstate(divide="ignore", invalid="ignore"):
            tt = np.where(dv > DEDUP_TOL, -v0 / dv, np.inf)
        t_hi = np.min(tt, axis=0)
        if np.any(~np.isfinite(t_hi)) or np.any(t_hi <= 0):
            raise SandwichError("a fiber ray does not exit the body")
        return bases + t_hi[:, None] * rays


def sandwich_project(body, core, R):
    """Validated fiber projection of the body boundary onto the R-tube.

    Checks N_R(core) subset body subset N_{aR}(core) with the smallest
    valid a; the inner inclusion is a support-function test over the
    body's facets, rejected with a certifying witness point on failure.
    """
    if body.codim != 0:
        raise SandwichError("sandwich body must be full-dimensional")
    a = np.max(nearest_point(core, body.vertices)[1]) / R
    if a < 1.0 - DECISION_TOL:
        raise SandwichError("body is strictly inside the R-tube")
    directions = body.normals @ body.basis
    body_support = np.max(body.vertices @ directions.T, axis=0)
    core_support = core.vertices @ directions.T
    bad = np.flatnonzero(np.max(core_support, axis=0) + R > body_support + HV_TOL)
    if len(bad):
        k = bad[0]
        witness = core.vertices[np.argmax(core_support[:, k])] + R * directions[k]
        raise SandwichError(
            f"inner inclusion fails: witness point {np.round(witness, 6).tolist()}"
        )
    return SandwichProjection(body, core, R, max(float(a), 1.0))


# -- strip classification --------------------------------------------------------------


@dataclass
class StripClass:
    case: str  # codim>=3 | codim2-in-1strip | codim1-in-2strip | fails
    delta: float
    epsilon: float
    directions: tuple = ()


STRIP_GRID = 360  # strip directions: a half-turn grid in a 2-dim span, STRIP_GRID**2 random above


def _span_directions(P):
    """The sampled unit span directions, one per row."""
    if P.dim == 1:
        U = np.ones((1, 1))
    elif P.dim == 2:
        t = np.linspace(0.0, np.pi, STRIP_GRID, endpoint=False)
        U = np.stack([np.cos(t), np.sin(t)], axis=1)
    else:
        U = np.random.default_rng(0).normal(size=(STRIP_GRID**2, P.dim))
        U = U / row_norms(U)[:, None]
    return matvec(P.basis.T, U)


def _first_min(values):
    """Index and value of the running minimum that only a drop of more than DEDUP_TOL replaces.

    An infinite entry is never taken; the index is None when all are.
    """
    best, best_v = None, np.inf
    for j, v in enumerate(values.tolist()):
        if v < best_v - DEDUP_TOL:
            best, best_v = j, v
    return best, best_v


def classify_strip(P):
    """Strip degeneracy class of the core polytope.

    codim >= 3 passes outright; codim 2 needs one thin direction (the
    width of the vertex set); codim 1 needs two transverse thin
    directions, reported with their dihedral angle.  Every sampled
    direction's width comes from one stacked matmul.
    """
    if P.codim >= 3:
        return StripClass("codim>=3", 0.0, float("nan"))
    if P.codim == 2 and P.dim == 0:
        return StripClass("codim2-in-1strip", 0.0, float("nan"))
    if P.codim == 0:
        return StripClass("fails", float("nan"), float("nan"))
    dirs = _span_directions(P)
    vals = matvec(P.vertices, dirs)
    widths = vals.max(axis=1) - vals.min(axis=1)
    if P.codim == 2:
        best, best_w = _first_min(widths)
        return StripClass("codim2-in-1strip", float(best_w), float("nan"), (dirs[best],))
    i1 = int(np.argmin(widths))
    U = dirs / row_norms(dirs)[:, None]
    ang = np.arccos(np.clip((U[:, None, :] @ U[i1][:, None])[:, 0, 0], -1.0, 1.0))
    transverse = ~(np.minimum(ang, np.pi - ang) < np.pi / 4)
    best_j, best_w2 = _first_min(np.where(transverse, widths, np.inf))
    if best_j is None:
        return StripClass("fails", float("nan"), float("nan"))
    eps = angle_between(dirs[i1], dirs[best_j])
    eps = min(eps, np.pi - eps)
    return StripClass(
        "codim1-in-2strip",
        float(max(widths[i1], best_w2)),
        float(eps),
        (dirs[i1], dirs[best_j]),
    )


# -- charts: exact on-tube coordinates for the canonical cores -------------------------


class ChartError(TubeError):
    pass


class _Chart:
    """Exact on-tube coordinates (t, phi), phi periodic with period ``period``.

    Array contract: ``points(t, phi)`` maps equal-length parameter
    arrays to an (n, dim) array of tube points, and ``lift(points)``
    maps an (n, dim) point sequence back to parameter arrays with phi
    unwrapped continuously along the sequence.  ``points`` works row by
    row, so a row's point does not depend on the rows beside it.
    ``point`` and ``segments`` are views of ``points``;
    ``segments`` places any number of straight parameter segments with
    one ``points`` call.
    """

    period = 2.0 * np.pi

    def point(self, t, phi):
        return self.points([t], [phi])[0]

    def segments(self, starts, stops, counts):
        """Points along straight parameter segments, stacked segment by segment.

        Segment i runs from the parameter pair starts[i] to stops[i] in
        counts[i] >= 2 points, and its rows are bit for bit those of
        ``points(np.linspace(t0, t1, n), np.linspace(phi0, phi1, n))``.
        """
        params = segment_params(starts, stops, counts)
        return self.points(params[:, 0], params[:, 1])


class RevolutionChart(_Chart):
    """Tube of a point or segment in E^3 as a surface of revolution.

    Parameters are (t, phi): t is arclength along the profile curve from
    the bottom pole, phi the angle around the axis.  The profile is a
    half circle for a point and quarter circles joined by a straight
    side for a segment.
    """

    def __init__(self, P, R, axis=None):
        if P.ambient_dim != 3 or P.dim > 1:
            raise ChartError("revolution chart needs a point or segment in E^3")
        self.P = P
        self.R = float(R)
        if P.dim == 0:
            self.c = P.vertices[0]
            self.L = 0.0
            self.axis = unit(axis) if axis is not None else np.array([0.0, 0.0, 1.0])
        else:
            a, b = P.vertices[0], P.vertices[-1]
            self.c = a
            self.axis = unit(b - a)
            self.L = float(np.linalg.norm(b - a))
        k = int(np.argmin(np.abs(self.axis)))
        e = np.zeros(3)
        e[k] = 1.0
        self.e1 = unit(e - np.dot(e, self.axis) * self.axis)
        self.e2 = np.cross(self.axis, self.e1)
        self.T = np.pi * self.R + self.L  # total profile length

    def points(self, t, phi):
        """Tube points at profile arclengths t (clipped to [0, T]) and angles phi."""
        R, L = self.R, self.L
        t = np.clip(np.asarray(t, dtype=float), 0.0, self.T)
        ph = np.asarray(phi, dtype=float)
        if L == 0.0:
            a, rho = -R * np.cos(t / R), R * np.sin(t / R)
        else:
            a = np.where(
                t <= np.pi * R / 2,
                -R * np.cos(t / R),
                np.where(
                    t <= np.pi * R / 2 + L,
                    t - np.pi * R / 2,
                    L + R * np.sin((t - np.pi * R / 2 - L) / R),
                ),
            )
            rho = np.where(
                t <= np.pi * R / 2,
                R * np.sin(t / R),
                np.where(
                    t <= np.pi * R / 2 + L,
                    R,
                    R * np.cos((t - np.pi * R / 2 - L) / R),
                ),
            )
        return (
            self.c
            + a[:, None] * self.axis
            + rho[:, None] * (np.cos(ph)[:, None] * self.e1 + np.sin(ph)[:, None] * self.e2)
        )

    def lift(self, points):
        """Chart coordinates with the angle unwrapped along the sequence.

        On the axis (the poles) the angle is undefined and repeats the
        previous one (0 for the first point).
        """
        V = np.asarray(points, dtype=float) - self.c
        a = V @ self.axis
        W = V - np.outer(a, self.axis)
        rho = np.linalg.norm(W, axis=1)
        R, L = self.R, self.L
        if L == 0.0:
            ts = R * np.arctan2(rho, -a)
        else:
            ts = np.where(
                a < 0,
                R * np.arctan2(rho, -a),
                np.where(
                    a <= L,
                    np.pi * R / 2 + a,
                    np.pi * R / 2 + L + R * np.arctan2(a - L, rho),
                ),
            )
        phis = np.arctan2(W @ self.e2, W @ self.e1)
        bad = rho < DECISION_TOL
        for i in np.nonzero(bad)[0]:
            phis[i] = phis[i - 1] if i > 0 else 0.0
        return ts, np.unwrap(phis)

    def param_distance(self, p0, p1):
        return abs(p0[0] - p1[0]) + self.R * abs(p0[1] - p1[1])


class PlanarCircleChart(_Chart):
    """Tube of a point in E^2: a circle, parametrized by angle (t is unused)."""

    def __init__(self, P, R):
        if P.ambient_dim != 2 or P.dim != 0:
            raise ChartError("planar chart needs a point in E^2")
        self.c = P.vertices[0]
        self.R = float(R)

    def points(self, t, phi):
        ph = np.asarray(phi, dtype=float)
        return self.c + self.R * np.stack([np.cos(ph), np.sin(ph)], axis=1)

    def lift(self, points):
        V = np.asarray(points, dtype=float) - self.c
        phis = np.arctan2(V[:, 1], V[:, 0])
        return np.zeros(len(V)), np.unwrap(phis)

    def param_distance(self, p0, p1):
        return self.R * abs(p0[1] - p1[1])


class StadiumChart(_Chart):
    """Tube of a rectangle in E^3 over its central band.

    Cross sections orthogonal to the first edge direction are offset
    stadia; parameters are (s, m) with s the station along the edge and
    m the meridian arclength around the stadium, measured from the top
    face and periodic with ``period``.  Exact while 0 < s < edge length,
    so loops must keep away from the two far ends where corner effects
    change the cross section; ``lift`` rejects points outside that band.
    """

    def __init__(self, P, R):
        if P.ambient_dim != 3 or P.dim != 2 or len(P.vertices) != 4:
            raise ChartError("stadium chart needs a rectangle in E^3")
        vs = P.vertices
        self.o = vs[0]
        rel = vs[1:] - vs[0]
        far = int(np.argmax(np.linalg.norm(rel, axis=1)))
        others = [i for i in range(3) if i != far]
        u = rel[others[0]]
        w = rel[others[1]]
        if abs(np.dot(u, w)) > HV_TOL:
            raise ChartError("core is not a rectangle")
        self.u, self.Lu = unit(u), float(np.linalg.norm(u))
        self.w, self.Lw = unit(w), float(np.linalg.norm(w))
        self.n = np.cross(self.u, self.w)
        self.R = float(R)
        self.period = 2 * self.Lw + 2 * np.pi * self.R
        self.M = self.period  # an alias kept only for perfbench/workloads.py, which reads it

    def points(self, s, m):
        """Tube points at stations s and meridian arclengths m (taken mod the period)."""
        R, Lw = self.R, self.Lw
        s = np.asarray(s, dtype=float)
        m = np.asarray(m, dtype=float) % self.period
        base = self.o + s[:, None] * self.u
        out = np.empty((len(s), 3))
        reg1 = m <= Lw
        reg2 = (m > Lw) & (m <= Lw + np.pi * R)
        reg3 = (m > Lw + np.pi * R) & (m <= 2 * Lw + np.pi * R)
        reg4 = ~(reg1 | reg2 | reg3)
        out[reg1] = base[reg1] + m[reg1, None] * self.w + R * self.n
        eta = (m[reg2] - Lw) / R
        out[reg2] = base[reg2] + Lw * self.w + R * (
            np.cos(eta)[:, None] * self.n + np.sin(eta)[:, None] * self.w
        )
        tau = 2 * Lw + np.pi * R - m[reg3]
        out[reg3] = base[reg3] + tau[:, None] * self.w - R * self.n
        eta = (m[reg4] - 2 * Lw - np.pi * R) / R
        out[reg4] = base[reg4] + R * (
            -np.cos(eta)[:, None] * self.n - np.sin(eta)[:, None] * self.w
        )
        return out

    def lift(self, points):
        """Chart coordinates with m unwrapped by whole periods along the sequence."""
        V = np.asarray(points, dtype=float) - self.o
        s = V @ self.u
        if not np.all((0.0 < s) & (s < self.Lu)):
            raise ChartError("point is outside the central band of the stadium chart")
        tau = V @ self.w
        h = V @ self.n
        R, Lw = self.R, self.Lw
        m = np.where(
            (0.0 <= tau) & (tau <= Lw),
            np.where(h >= 0, tau, 2 * Lw + np.pi * R - tau),
            np.where(
                tau > Lw,
                Lw + R * np.arctan2(tau - Lw, h),  # eta in [0, pi] on the tube
                2 * Lw + np.pi * R + R * np.arctan2(-tau, -h),
            ),
        ) % self.period
        turns = np.concatenate([[0.0], np.cumsum(np.round((m[:-1] - m[1:]) / self.period))])
        return s, m + turns * self.period

    def param_distance(self, p0, p1):
        return abs(p0[0] - p1[0]) + abs(p0[1] - p1[1])


AXIS_CLEARANCE = np.pi / 4  # least angle between a loop direction and a sphere chart's axis


def chart_for(P, R, loop_vertices=None):
    """Exact chart for the canonical core shapes, or None."""
    try:
        if P.ambient_dim == 2 and P.dim == 0:
            return PlanarCircleChart(P, R)
        if P.ambient_dim == 3 and P.dim == 0:
            axis = (
                _fit_axis(loop_vertices, P.vertices[0])
                if loop_vertices is not None
                else None
            )
            return RevolutionChart(P, R, axis=axis)
        if P.ambient_dim == 3 and P.dim == 1:
            return RevolutionChart(P, R)
        if P.ambient_dim == 3 and P.dim == 2 and len(P.vertices) == 4:
            return StadiumChart(P, R)
    except ChartError:
        return None
    return None


def _fit_axis(loop_vertices, center):
    """Chart axis for a loop on a sphere around a center.

    The loop's total turning axis, unless that axis passes within
    AXIS_CLEARANCE of a loop direction (a loop that hardly turns, such
    as a degree-0 serpentine): then the axis most nearly normal to all
    loop directions, the least right-singular vector of the unit
    directions.  Near a chart pole one loop step spans a large lifted
    angle, and the fan's spokes stop shrinking with the spacing.
    """
    v = np.asarray(loop_vertices, dtype=float) - center
    # a sequential sum from zero, as a running ``mom += cross`` would add
    edges = np.cross(v, np.roll(v, -1, axis=0))
    mom = np.cumsum(np.vstack([np.zeros(3), edges]), axis=0)[-1]
    u = v / row_norms(v)[:, None]
    if np.linalg.norm(mom) > DECISION_TOL:
        axis = unit(mom)
        if np.all(np.abs(u @ axis) <= np.cos(AXIS_CLEARANCE)):
            return axis
    return unit(np.linalg.svd(u)[2][-1])


# -- loop filling on tubes ---------------------------------------------------------------


def loop_case(P, loop):
    """Which construction case a tube loop falls into.

    1: some vertex projects into the core; 2: some chord of span
    projections crosses the core; 3: neither.
    """
    feet = P.from_span(P.to_span(loop.vertices))
    if np.any(P.contains(feet)):
        return 1
    step = max(1, len(feet) // 64)
    # the chords from every step-th foot i to the feet i + 1, i + 1 + step, ...
    starts = np.arange(0, len(feet), step)
    j = starts[:, None] + 1 + starts
    i = np.broadcast_to(starts[:, None], j.shape)
    chords = j < len(feet)
    return 2 if np.any(segment_hits_polytope(feet[i[chords]], feet[j[chords]], P)) else 3


def loop_degree(chart, vertices):
    """Winding number of the loop in the chart's periodic coordinate."""
    _, phis = chart.lift(np.vstack([vertices, vertices[:1]]))
    return int(round((phis[-1] - phis[0]) / chart.period))


def fill_tube_loop(P, R, loop, mesh):
    """Loop filling on the R-tube of the core polytope.

    The loop is fanned from an interior hub along chart-parameter spokes
    that follow the loop's continuous fiber-angle lift (the minimal-arc
    fan is discontinuous where the fiber angle passes an antipode and
    produces invalid partitions).  Spoke sweeps grow with the loop's
    spread around the core, which is what prices the quadratic area in
    the degenerate scenarios.  The mesh is recomputed and the spokes
    densified until the request is met.  Every brick counts as wild:
    the partition's census is (0, area).  Returns (partition, info).
    """
    if mesh <= 0:
        raise TubeError("mesh must be positive")
    strip = classify_strip(P)
    if strip.case == "fails":
        raise TubeError("strip classification failed: core admits no thin strip")
    if np.any(np.abs(nearest_point(P, loop.vertices)[1] - R) > SURFACE_TOL):
        raise TubeError("loop vertex off the tube surface")
    if loop.is_constant:
        return empty_partition(loop), {"case": 0, "strip": strip}
    chart = chart_for(P, R, loop.vertices)
    if chart is None:
        raise TubeError(
            "no exact chart for this core shape; supported: point/segment in E^3, "
            "point in E^2, rectangle in E^3"
        )
    degree = loop_degree(chart, loop.vertices)
    if degree != 0 and not (isinstance(chart, RevolutionChart)):
        raise TubeError(
            f"loop winds {degree} times around the core; winding caps exist "
            "only on revolution tubes (a planar core makes nonzero degree "
            "unfillable outside the core altogether)"
        )
    case = loop_case(P, loop)
    fp, _, spacing = fill_to_mesh(
        lambda spacing: (_chart_fan(P, chart, loop, spacing, degree), None),
        mesh / 2.05,
        mesh,
        "tube fan",
    )
    fp.census = BrickCensus(0, fp.area)
    return fp, {"case": case, "strip": strip, "spacing": spacing, "degree": degree}


def _chart_fan(P, chart, loop, spacing, degree):
    """Fan over the lifted loop from an interior hub at the median lift.

    The hub sits at the median of the lifted coordinates, so spokes
    sweep two-sided (half the one-sided cost).  For degree-0 loops the
    spokes to the first and last lift copies of vertex 0 close the disk
    directly; a loop winding the core d times leaves a d-times wrapped
    fiber circle between them, which is laddered in (the wedge) and then
    capped by coning it to the profile pole, where all lifted angles
    share one placement.  The partition's boundary anchor k is the
    boundary position of the k-th input loop vertex.
    """
    res, orig_pos = loop.resampled(spacing)
    verts = res.vertices
    ts, phis = chart.lift(verts)
    q_end = (ts[0], phis[0] + degree * chart.period)
    hub_p = (float(np.median(ts)), float(np.median(np.concatenate([phis, [q_end[1]]]))))
    builder = DiskBuilder(P.ambient_dim)
    bidx = builder.add_chain(verts)
    hub_idx = builder.add_point(chart.point(*hub_p))

    def spokes(targets, ends):
        """Chains from the hub to the (m, 2) parameter targets, placed in one chart call.

        Returns the chains stacked in one index array and their lengths.
        """
        d = chart.param_distance(hub_p, targets.T)
        n = np.maximum(2, np.ceil(d / spacing).astype(int) + 1)
        rows = chart.segments(np.tile(hub_p, (len(targets), 1)), targets, n)
        return builder.add_segments(rows, n, np.full(len(n), hub_idx), ends), n

    targets = np.stack([ts, phis], axis=1)
    if degree == 0:
        ladders = [cyclic_ladders(*spokes(targets, bidx))]
    else:
        chains, n = spokes(np.vstack([targets, q_end]), np.append(bidx, bidx[0]))
        fiber_chain, fiber_params = _wrapped_fiber_chain(
            builder, chart, (ts[0], phis[0]), degree, spacing, bidx[0]
        )
        # wedge between the two lift copies of vertex 0: fan from the
        # same hub over the wrapped fiber circle
        inner, inner_n = spokes(fiber_params[1:-1], fiber_chain[1:-1])
        wedge = np.concatenate([chains[: n[0]], inner, chains[-n[-1] :]])
        wedge_n = np.concatenate([n[:1], inner_n, n[-1:]])
        ladders = [
            consecutive_ladders(chains, n),
            consecutive_ladders(wedge, wedge_n),
            _pole_cap(builder, chart, fiber_chain, fiber_params, spacing),
        ]
    builder.add_ladders(*map(np.concatenate, zip(*ladders)))
    return builder.build(bidx, anchor=orig_pos)


def _wrapped_fiber_chain(builder, chart, q0, degree, spacing, idx0):
    """The d-times wrapped fiber circle through vertex idx0, as a chain.

    Returns the chain and the (n, 2) array of its chart parameters.
    """
    q_end = (q0[0], q0[1] + degree * chart.period)
    d = chart.param_distance(q0, q_end)
    n = max(3, int(np.ceil(d / spacing)) + 1)
    params = segment_params([q0], [q_end], [n])
    chain = builder.add_segments(chart.points(params[:, 0], params[:, 1]), [n], [idx0], [idx0])
    return chain, params


def _pole_cap(builder, chart, fiber_chain, fiber_params, spacing):
    """Cone the wrapped fiber circle to the profile pole along meridians.

    The pole (profile parameter 0) is a single placement, so meridians at
    all lifted angles share one combinatorial apex and the winding is
    absorbed there.  Places the pole and the meridians, and returns the
    ``add_ladders`` arguments for each meridian and the next one around.
    """
    pole_idx = builder.add_point(chart.point(0.0, 0.0))
    n = len(fiber_chain) - 1  # fiber_chain[-1] is fiber_chain[0] again
    ends = fiber_params[:n]
    starts = np.stack([np.zeros(n), ends[:, 1]], axis=1)
    m = np.maximum(2, np.ceil(ends[:, 0] / spacing).astype(int))
    rows = chart.segments(starts, ends, m)
    return cyclic_ladders(builder.add_segments(rows, m, np.full(n, pole_idx), fiber_chain[:n]), m)
