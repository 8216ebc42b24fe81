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
    SURFACE_TOL,
    VPolytope,
    angle_between,
    polyline_length,
    project_affine,
    segment_hits_polytope,
    unit,
)
from .partitions import DiskBuilder, PartitionError, empty_partition


class TubeError(ValueError):
    pass


class HypothesisViolated(TubeError):
    """A stated geometric hypothesis failed; the message names the clause."""


# -- shape builders -----------------------------------------------------------


def point_polytope(p):
    return VPolytope([np.asarray(p, dtype=float)])


def segment_polytope(a, b):
    return VPolytope([np.asarray(a, dtype=float), np.asarray(b, dtype=float)])


def rectangle_polytope(origin, u, w):
    """Rectangle spanned by edge vectors u and w (must be orthogonal)."""
    origin = np.asarray(origin, dtype=float)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if abs(np.dot(u, w)) > 1e-9:
        raise TubeError("rectangle edge vectors must be orthogonal")
    return VPolytope([origin, origin + u, origin + w, origin + u + w])


def standard_shape(name, dim=3):
    """Named acceptance shapes in E^dim."""
    if name == "point":
        return point_polytope(np.zeros(dim))
    if name == "segment":
        a = np.zeros(dim)
        b = np.zeros(dim)
        b[0] = 1.0
        return segment_polytope(a, b)
    if name == "square":
        if dim != 3:
            raise TubeError("square shape lives in E^3")
        return rectangle_polytope(
            np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
        )
    raise TubeError(f"unknown shape {name!r}")


def proper_core(P):
    """Tube constructions require a proper core: codimension >= 1."""
    return P.codim >= 1


def save_polytope(path, P):
    """Vertex-list file, decimal with 12-digit precision."""
    import json

    with open(path, "w") as fh:
        json.dump(
            {"vertices": [[round(float(c), 12) for c in v] for v in P.vertices]}, fh
        )


def load_polytope(path):
    import json

    with open(path) as fh:
        return VPolytope(np.array(json.load(fh)["vertices"], dtype=float))


def nearest_point(P, x):
    """Nearest point of the polytope and the distance to it."""
    x0 = P.nearest_point(x)
    return x0, float(np.linalg.norm(np.asarray(x, dtype=float) - x0))


def tube_distance(P, x):
    return nearest_point(P, x)[1]


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


def make_tube_point(P, x, R=None, tol=SURFACE_TOL):
    x = np.asarray(x, dtype=float)
    base, d = nearest_point(P, x)
    if R is None:
        R = d
    if abs(d - R) > tol:
        raise TubeError(f"point is at distance {d:.9g}, not R={R:.9g}, from the core")
    v = x - base
    lateral = P.basis.T @ (P.basis @ v) if P.dim else np.zeros_like(v)
    vertical = v - lateral
    alpha = float(np.arctan2(np.linalg.norm(lateral), np.linalg.norm(vertical)))
    foot = project_affine(x, P.origin, P.basis)
    return TubePoint(x, base, foot, alpha, float(R), vertical, lateral)


def beta_angle(x, y):
    """Angle between the vertical components of two tube points."""
    nx, ny = np.linalg.norm(x.vertical), np.linalg.norm(y.vertical)
    if nx < 1e-12 or ny < 1e-12:
        return 0.0
    return angle_between(x.vertical, y.vertical)


# -- paths on a tube (pairwise construction) -------------------------------------


def _arc(center, v_from, v_to, radius, max_step=0.05):
    """Circle arc from center+v_from to center+v_to within their plane.

    Degeneracy is decided on the perpendicular component (the arccos of
    a clipped dot product is noisy near parallel/antipodal pairs).
    """
    e1 = unit(v_from)
    w = v_to - np.dot(v_to, e1) * e1
    if np.linalg.norm(w) < 1e-9 * radius:
        if np.dot(v_to, e1) > 0:
            return [center + v_from], 0.0
        raise TubeError("antipodal arc needs an explicit swing direction")
    return _circle_arc(center, v_from, v_to, radius, angle_between(v_from, v_to), max_step)


def _circle_arc(center, v_from, toward, radius, angle, max_step=0.05):
    """Arc of the given angle from center+v_from, turning toward ``toward``.

    Returns (points, length), sampled at most max_step radians apart.
    """
    e1 = unit(v_from)
    e2 = unit(toward - np.dot(toward, e1) * e1)
    n = max(2, int(np.ceil(angle / max_step)) + 1)
    ts = np.linspace(0.0, angle, n)
    pts = [center + radius * (np.cos(t) * e1 + np.sin(t) * e2) for t in ts]
    return pts, float(radius * angle)


def _outward_in_span(P, z):
    """A span direction in the normal cone of the boundary point z."""
    zc = P.to_span(z)
    dirs = [n for n, off in P.facets if abs(np.dot(n, zc) - off) <= 1e-7]
    if not dirs:
        raise TubeError("swing point is not on the boundary of the core")
    return P.basis.T @ unit(np.sum(dirs, axis=0))


def _min_distance_sum_on_boundary(P, a, b):
    """Boundary point z minimizing d(a, z) + d(z, b).

    Projected-gradient descent on each facet (exact nearest-point
    projections), best facet wins; ties resolved by facet order.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if P.dim == 0:
        return P.vertices[0].copy()
    best, best_val = None, np.inf
    for n, off in P.facets:
        tight = [
            v for v in P.vertices if abs(np.dot(n, P.to_span(v)) - off) <= 1e-7
        ]
        if not tight:
            continue
        f = VPolytope(tight)
        z = f.nearest_point(0.5 * (a + b))
        for _ in range(150):
            da, db = z - a, z - b
            na, nb = np.linalg.norm(da), np.linalg.norm(db)
            g = (da / na if na > 1e-12 else 0.0) + (db / nb if nb > 1e-12 else 0.0)
            step = 0.2 * max(na, nb, 1e-6)
            z_new = f.nearest_point(z - step * np.asarray(g))
            if np.linalg.norm(z_new - z) < 1e-12:
                break
            z = z_new
        val = np.linalg.norm(z - a) + np.linalg.norm(z - b)
        if val < best_val - 1e-12:
            best_val, best = val, z
    if best is None:
        raise TubeError("core has no boundary facets")
    return best


@dataclass
class TubePathResult:
    polyline: np.ndarray
    length: float
    case: str
    separating: bool


def tube_path(P, R, x, y, max_step=0.05):
    """Path on the tube from x to y per the translate-and-arc construction.

    Cases: (A) both radii orthogonal to the span, (B) one slanted radius,
    (C) both slanted.  Slanted radii are first rotated onto the fiber
    sphere (an arc of length R * alpha); orthogonal radii are connected
    by a fiber arc plus a parallel translate along the core.  A
    codimension-1 span separating the endpoints is routed through the
    boundary point z minimizing d(x0,z)+d(z,y0) with a half circle of
    length pi*R.

    The hypothesis "[x', y'] intersects the core" is checked; violations
    raise HypothesisViolated naming the clause.
    """
    if not proper_core(P):
        raise TubeError("core must have codimension >= 1")
    if not isinstance(x, TubePoint):
        x = make_tube_point(P, x, R)
    if not isinstance(y, TubePoint):
        y = make_tube_point(P, y, R)
    if not segment_hits_polytope(x.foot, y.foot, P):
        raise HypothesisViolated(
            "the segment [x', y'] between the span projections misses the core"
        )
    poly = [x.point]
    total = 0.0
    case = "A"
    vx, vy = x.vertical.copy(), y.vertical.copy()
    if np.linalg.norm(x.lateral) > 1e-9:
        case = "B"
        vx = _vertical_target(P, x, y)
        arc, alen = _arc(x.base, x.point - x.base, vx, R, max_step)
        poly.extend(arc[1:])
        total += alen
    if np.linalg.norm(y.lateral) > 1e-9:
        case = "C" if case == "B" else "B"
        vy = _vertical_target(P, y, x)
    # verticalized endpoints: px over x.base, py over y.base
    separating = P.codim == 1 and float(np.dot(vx, vy)) < 0.0
    if separating:
        z = _min_distance_sum_on_boundary(P, x.base, y.base)
        x2 = z + vx
        poly.append(x2)
        total += float(np.linalg.norm(poly[-2] - x2))
        swing = _outward_in_span(P, z)
        half, hlen = _circle_arc(z, vx, swing, R, np.pi, max_step)
        poly.extend(half[1:])
        total += hlen
        y2 = z + vy
        py = y.base + vy
        total += float(np.linalg.norm(y2 - py))
        poly.append(py)
    else:
        e1 = unit(vx)
        w = vy - np.dot(vy, e1) * e1
        if np.linalg.norm(w) < 1e-9 * R and np.dot(vx, vy) < 0:
            perp = _perpendicular_vertical(P, vx)
            arc, alen = _circle_arc(x.base, vx, perp, R, np.pi, max_step)
        else:
            arc, alen = _arc(x.base, vx, vy, R, max_step)
        poly.extend(arc[1:])
        total += alen
        py = y.base + vy
        total += float(np.linalg.norm(np.asarray(arc[-1]) - py))
        poly.append(py)
    if np.linalg.norm(y.lateral) > 1e-9:
        arc, alen = _arc(y.base, vy, y.point - y.base, R, max_step)
        poly.extend(arc[1:])
        total += alen
    else:
        poly.append(y.point)
    poly = _dedup_consecutive(poly)
    return TubePathResult(np.array(poly), float(total), case, separating)


def _vertical_target(P, tp, other):
    """Vertical of norm R at tp.base, per the verticalization rule."""
    v = tp.vertical
    if np.linalg.norm(v) > 1e-9:
        return tp.radius * unit(v)
    ov = other.vertical
    if np.linalg.norm(ov) > 1e-9:
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
        if v is not None and np.linalg.norm(v) > 1e-12:
            w = w - np.dot(w, unit(v)) * unit(v)
        if np.linalg.norm(w) > 1e-9:
            return unit(w)
    raise TubeError("no orthogonal direction available (codim 0 core?)")


def _dedup_consecutive(pts, tol=1e-12):
    out = [np.asarray(pts[0], dtype=float)]
    for p in pts[1:]:
        if np.linalg.norm(np.asarray(p) - out[-1]) > tol:
            out.append(np.asarray(p, dtype=float))
    return out


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
    inner = []
    for p in path:
        base, d = nearest_point(P, p)
        if abs(d - R_out) > SURFACE_TOL:
            raise TubeError(f"path point at distance {d:.9g} is not on the outer tube")
        inner.append(base + (R_in / R_out) * (p - base))
    inner = np.array(inner)
    lo = polyline_length(path)
    li = polyline_length(inner)
    report = {
        "a": R_out / R_in,
        "outer_length": lo,
        "inner_length": li,
        "ratio": lo / li if li > 1e-15 else 1.0,
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
        base, d = nearest_point(self.core, x)
        if d < self.radius - SURFACE_TOL:
            raise SandwichError("point lies inside the inner tube")
        return base + self.radius * (np.asarray(x, dtype=float) - base) / d

    def inverse_batch(self, X):
        """Fiber points of the body boundary over the tube points X (rows).

        Each fiber leaves its base, the nearest core point, along the ray
        through x and ends where that ray exits the body.  A point core
        is the one shared base.
        """
        X = np.asarray(X, dtype=float)
        if self.core.dim == 0:
            bases = self.core.vertices[:1]
        else:
            bases = np.array([self.core.nearest_point(x) for x in X])
        D = X - bases
        d = np.linalg.norm(D, axis=1)
        rays = D / d[:, None]
        N = np.array([n for n, _ in self.body.facets])
        offs = np.array([off for _, off in self.body.facets])
        v0 = N @ (self.body.basis @ (bases - self.body.origin).T) - offs[:, None]
        dv = (N @ self.body.basis) @ rays.T  # (facets, points)
        with np.errstate(divide="ignore", invalid="ignore"):
            tt = np.where(dv > 1e-12, -v0 / dv, np.inf)
        t_hi = np.min(tt, axis=0)
        if np.any(~np.isfinite(t_hi)) or np.any(t_hi <= 0):
            raise SandwichError("a fiber ray does not exit the body")
        return bases + t_hi[:, None] * rays

    def path_ratio(self, path_on_body):
        mapped = np.array([self.map(p) for p in path_on_body])
        lb = polyline_length(path_on_body)
        lt = polyline_length(mapped)
        return {
            "body_length": lb,
            "tube_length": lt,
            "ratio": lb / lt if lt > 1e-15 else 1.0,
        }


def sandwich_project(body, core, R):
    """Validated fiber projection of the body boundary onto the R-tube.

    Checks N_R(core) subset body subset N_{aR}(core) with the smallest
    valid a; the inner inclusion is a support-function test over the
    body's facets, rejected with a certifying witness point on failure.
    """
    if body.codim != 0:
        raise SandwichError("sandwich body must be full-dimensional")
    a = max(tube_distance(core, v) for v in body.vertices) / R
    if a < 1.0 - 1e-9:
        raise SandwichError("body is strictly inside the R-tube")
    for n, off in body.facets:
        direction = body.basis.T @ n
        body_support = float(np.max(body.vertices @ direction))
        tube_support = core.support(direction) + R
        if tube_support > body_support + 1e-7:
            witness_idx = int(np.argmax(core.vertices @ direction))
            witness = core.vertices[witness_idx] + R * direction
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


def _width_along(P, d):
    vals = P.vertices @ np.asarray(d, dtype=float)
    return float(np.max(vals) - np.min(vals))


def _span_directions(P, n_grid):
    if P.dim == 1:
        yield P.basis.T @ np.array([1.0])
        return
    if P.dim == 2:
        for t in np.linspace(0.0, np.pi, n_grid, endpoint=False):
            yield P.basis.T @ np.array([np.cos(t), np.sin(t)])
        return
    rng = np.random.default_rng(0)
    for _ in range(n_grid**2):
        yield P.basis.T @ unit(rng.normal(size=P.dim))


def classify_strip(P, n_grid=360):
    """Strip degeneracy class of the core polytope.

    codim >= 3 passes outright; codim 2 needs one thin direction (the
    width of the vertex set); codim 1 needs two transverse thin
    directions, reported with their dihedral angle.
    """
    if P.codim >= 3:
        return StripClass("codim>=3", 0.0, float("nan"))
    if P.codim == 2:
        if P.dim == 0:
            return StripClass("codim2-in-1strip", 0.0, float("nan"))
        best_d, best_w = None, np.inf
        for d in _span_directions(P, n_grid):
            w = _width_along(P, d)
            if w < best_w - 1e-12:
                best_w, best_d = w, d
        return StripClass("codim2-in-1strip", float(best_w), float("nan"), (best_d,))
    if P.codim == 1:
        dirs = list(_span_directions(P, n_grid))
        widths = [_width_along(P, d) for d in dirs]
        i1 = int(np.argmin(widths))
        best_j, best_w2 = None, np.inf
        for j, d in enumerate(dirs):
            ang = angle_between(dirs[i1], d)
            ang = min(ang, np.pi - ang)
            if ang < np.pi / 4:
                continue
            if widths[j] < best_w2 - 1e-12:
                best_w2, best_j = widths[j], j
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
    return StripClass("fails", float("nan"), float("nan"))


# -- charts: exact on-tube coordinates for the canonical cores -------------------------


class ChartError(TubeError):
    pass


class _Chart:
    """Exact on-tube coordinates (t, phi), phi periodic.

    Array contract: ``points(t, phi)`` maps equal-length parameter
    arrays to an (n, dim) array of tube points, and ``lift(points)``
    maps an (n, dim) point sequence back to parameter arrays with phi
    unwrapped continuously along the sequence.  ``point``, ``coords``
    and ``param_path`` are views of these two.
    """

    def point(self, t, phi):
        return self.points([t], [phi])[0]

    def coords(self, x):
        ts, phis = self.lift([x])
        return float(ts[0]), float(phis[0])

    def param_path(self, p0, p1, n):
        """n points along the straight parameter segment from p0 to p1."""
        return self.points(np.linspace(p0[0], p1[0], n), np.linspace(p0[1], p1[1], n))


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
        bad = rho < 1e-9
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
    face and periodic with period M.  Exact while 0 < s < edge length,
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
        if abs(np.dot(u, w)) > 1e-7:
            raise ChartError("core is not a rectangle")
        self.u, self.Lu = unit(u), float(np.linalg.norm(u))
        self.w, self.Lw = unit(w), float(np.linalg.norm(w))
        self.n = np.cross(self.u, self.w)
        self.R = float(R)
        self.M = 2 * self.Lw + 2 * np.pi * self.R

    def points(self, s, m):
        """Tube points at stations s and meridian arclengths m (taken mod M)."""
        R, Lw = self.R, self.Lw
        s = np.asarray(s, dtype=float)
        m = np.asarray(m, dtype=float) % self.M
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
        ) % self.M
        turns = np.concatenate([[0.0], np.cumsum(np.round((m[:-1] - m[1:]) / self.M))])
        return s, m + turns * self.M

    def param_distance(self, p0, p1):
        return abs(p0[0] - p1[0]) + abs(p0[1] - p1[1])


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


def chart_period(chart):
    if isinstance(chart, StadiumChart):
        return chart.M
    return 2.0 * np.pi


def _fit_axis(loop_vertices, center):
    """Total turning axis of a loop around a center (for sphere charts)."""
    v = np.asarray(loop_vertices, dtype=float) - center
    mom = np.zeros(3)
    for i in range(len(v)):
        mom += np.cross(v[i], v[(i + 1) % len(v)])
    if np.linalg.norm(mom) > 1e-9:
        return unit(mom)
    _, _, vt = np.linalg.svd(v - v.mean(axis=0))
    return unit(vt[-1])


# -- loop filling on tubes ---------------------------------------------------------------


def loop_case(P, loop):
    """Which construction case a tube loop falls into.

    1: some vertex projects into the core; 2: some chord of span
    projections crosses the core; 3: neither.
    """
    feet = [project_affine(v, P.origin, P.basis) for v in loop.vertices]
    for f in feet:
        if P.contains(f, tol=1e-7):
            return 1
    s = len(feet)
    step = max(1, s // 64)
    for i in range(0, s, step):
        for j in range(i + 1, s, step):
            if segment_hits_polytope(feet[i], feet[j], P):
                return 2
    return 3


def loop_degree(chart, vertices):
    """Winding number of the loop in the chart's periodic coordinate."""
    _, phis = chart.lift(np.vstack([vertices, vertices[:1]]))
    return int(round((phis[-1] - phis[0]) / chart_period(chart)))


def fill_tube_loop(P, R, loop, mesh, max_attempts=6):
    """Loop filling on the R-tube of the core polytope.

    The loop is fanned from an interior hub along chart-parameter spokes
    that follow the loop's continuous fiber-angle lift (the minimal-arc
    fan is discontinuous where the fiber angle passes an antipode and
    produces invalid partitions).  Spoke sweeps grow with the loop's
    spread around the core, which is what prices the quadratic area in
    the degenerate scenarios.  The mesh is recomputed and the spokes
    densified until the request is met.  Returns (partition, info).
    """
    if mesh <= 0:
        raise TubeError("mesh must be positive")
    strip = classify_strip(P)
    if strip.case == "fails":
        raise TubeError("strip classification failed: core admits no thin strip")
    for v in loop.vertices:
        if abs(tube_distance(P, v) - R) > SURFACE_TOL:
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
    spacing = mesh / 2.05
    achieved = None
    for _ in range(max_attempts):
        fp, ring_positions = _chart_fan(P, chart, loop, spacing, case, degree)
        if fp.mesh <= mesh + 1e-12:
            return fp, {
                "case": case,
                "strip": strip,
                "spacing": spacing,
                "degree": degree,
                "ring_positions": ring_positions,
            }
        achieved = fp.mesh
        spacing *= 0.9 * mesh / fp.mesh
    raise PartitionError(
        f"could not reach mesh {mesh} (achieved {achieved}); loop too irregular"
    )


def _chart_fan(P, chart, loop, spacing, case, degree):
    """Fan over the lifted loop from an interior hub at the median lift.

    The hub sits at the median of the lifted coordinates, so spokes
    sweep two-sided (half the one-sided cost).  For degree-0 loops the
    spokes to the first and last lift copies of vertex 0 close the disk
    directly; a loop winding the core d times leaves a d-times wrapped
    fiber circle between them, which is laddered in (the wedge) and then
    capped by coning it to the profile pole, where all lifted angles
    share one placement.

    Returns (partition, ring_positions): ring_positions[k] is the
    boundary position of the k-th input loop vertex.
    """
    res, orig_pos = loop.resampled(spacing, return_map=True)
    verts = res.vertices
    s = len(verts)
    ts, phis = chart.lift(verts)
    period = chart_period(chart)
    q_end = (ts[0], phis[0] + degree * period)
    hub_p = (float(np.median(ts)), float(np.median(np.concatenate([phis, [q_end[1]]]))))
    builder = DiskBuilder(P.ambient_dim)
    bidx = builder.add_chain(verts)
    hub_idx = builder.add_point(chart.point(*hub_p))

    def spoke(target, end_idx):
        d = chart.param_distance(hub_p, target)
        n = max(2, int(np.ceil(d / spacing)) + 1)
        pts = chart.param_path(hub_p, target, n)
        interior = builder.add_chain(pts[1:-1]) if n > 2 else []
        return [hub_idx] + interior + [end_idx]

    chains = [spoke((ts[i], phis[i]), bidx[i]) for i in range(s)]
    if degree == 0:
        for i in range(s):
            builder.add_ladder(chains[i], chains[(i + 1) % s])
    else:
        chains.append(spoke(q_end, bidx[0]))
        for i in range(s):
            builder.add_ladder(chains[i], chains[i + 1])
        fiber_chain, fiber_params = _wrapped_fiber_chain(
            builder, chart, (ts[0], phis[0]), degree, spacing, bidx[0]
        )
        # wedge between the two lift copies of vertex 0: fan from the
        # same hub over the wrapped fiber circle
        wedge = [chains[0]]
        for j in range(1, len(fiber_chain) - 1):
            wedge.append(spoke(fiber_params[j], fiber_chain[j]))
        wedge.append(chains[s])
        for j in range(len(wedge) - 1):
            builder.add_ladder(wedge[j], wedge[j + 1])
        _pole_cap(builder, chart, fiber_chain, fiber_params, spacing)
    return builder.build(bidx, anchor=list(orig_pos)), list(orig_pos)


def _wrapped_fiber_chain(builder, chart, q0, degree, spacing, hub_idx):
    """The d-times wrapped fiber circle through vertex 0, as a chain."""
    period = chart_period(chart)
    q_end = (q0[0], q0[1] + degree * period)
    d = chart.param_distance(q0, q_end)
    n = max(3, int(np.ceil(d / spacing)) + 1)
    pts = chart.param_path(q0, q_end, n)
    interior = builder.add_chain(pts[1:-1])
    chain = [hub_idx] + interior + [hub_idx]
    ts = np.linspace(q0[0], q_end[0], n)
    ph = np.linspace(q0[1], q_end[1], n)
    return chain, list(zip(ts, ph))


def _pole_cap(builder, chart, fiber_chain, fiber_params, spacing):
    """Cone the wrapped fiber circle to the profile pole along meridians.

    The pole (profile parameter 0) is a single placement, so meridians at
    all lifted angles share one combinatorial apex and the winding is
    absorbed there.
    """
    if not isinstance(chart, RevolutionChart):
        raise TubeError("winding caps require a revolution chart")
    pole_idx = builder.add_point(chart.point(0.0, 0.0))
    n = len(fiber_chain) - 1  # fiber_chain[-1] is fiber_chain[0] again
    meridians = []
    for j in range(n):
        t_j, phi_j = fiber_params[j]
        m = max(2, int(np.ceil(t_j / spacing)))
        mer_pts = chart.param_path((0.0, phi_j), (t_j, phi_j), m)
        interior = builder.add_chain(mer_pts[1:-1]) if m > 2 else []
        meridians.append([pole_idx] + interior + [fiber_chain[j]])
    for j in range(n - 1):
        builder.add_ladder(meridians[j], meridians[j + 1])
    builder.add_ladder(meridians[n - 1], meridians[0])
