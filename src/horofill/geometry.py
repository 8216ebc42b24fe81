"""Shared Euclidean plumbing: spans, hulls, cone distances, nearest points.

Tolerance policy (documented once, used everywhere):

``DECISION_TOL``  1e-9   sign / membership decisions
``DEDUP_TOL``     1e-12  deduplication of numerically equal vectors
``SURFACE_TOL``   1e-6   "on the surface" checks for tubes and level sets
``HV_TOL``        1e-7   H-rep vs V-rep mutual containment
"""

import itertools

import numpy as np
from scipy.spatial import ConvexHull

DECISION_TOL = 1e-9
DEDUP_TOL = 1e-12
SURFACE_TOL = 1e-6
HV_TOL = 1e-7


def unit(v):
    """Normalize v, rejecting near-zero input."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < DEDUP_TOL:
        raise ValueError("cannot normalize a (near-)zero vector")
    return v / n


def angle_between(u, v):
    """Angle in [0, pi] between two nonzero vectors."""
    c = np.dot(unit(u), unit(v))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def dedup_rows(rows, tol=DEDUP_TOL):
    """Keep one representative per cluster of rows equal within tol."""
    out = []
    for r in rows:
        if not any(np.linalg.norm(r - q) <= tol for q in out):
            out.append(np.asarray(r, dtype=float))
    return out


def affine_span(points, tol=1e-9):
    """Orthonormal basis of the affine hull of a point set.

    Returns (origin, basis) with basis of shape (k, n); k may be 0 for a
    single point.
    """
    pts = np.asarray(points, dtype=float)
    origin = pts[0].copy()
    diffs = pts[1:] - origin
    if len(diffs) == 0:
        return origin, np.zeros((0, pts.shape[1]))
    u, s, vt = np.linalg.svd(diffs, full_matrices=False)
    scale = max(1.0, float(np.max(np.abs(diffs))))
    rank = int(np.sum(s > tol * scale))
    return origin, vt[:rank]


def project_affine(x, origin, basis):
    """Orthogonal projection of x onto the affine subspace (origin, basis)."""
    x = np.asarray(x, dtype=float)
    if basis.shape[0] == 0:
        return origin.copy()
    c = basis @ (x - origin)
    return origin + basis.T @ c


def spherical_distance_to_cone(u, generators):
    """Spherical distance from unit u to (cone of generators) cap sphere.

    Generic case: Euclidean projection onto the cone followed by
    normalization.  When that projection vanishes the nearest section
    point lies on a face, so the maximal cosine is enumerated over the
    extreme rays and over face projections that land inside their face
    (the KKT stationary points); u exactly antipodal to the whole cone
    yields pi.
    """
    u = unit(u)
    gens = [unit(g) for g in generators]
    best_cos = -1.0
    for g in gens:
        best_cos = max(best_cos, float(np.dot(u, g)))
    m = len(gens)
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            G = np.array([gens[i] for i in subset]).T
            coef, *_ = np.linalg.lstsq(G, u, rcond=None)
            if np.any(coef < -DECISION_TOL):
                continue
            p = G @ coef
            n = np.linalg.norm(p)
            if n > DECISION_TOL:
                best_cos = max(best_cos, float(np.dot(u, p / n)))
    return float(np.arccos(np.clip(best_cos, -1.0, 1.0)))


def enumerate_vertices(normals, bounds, tol=HV_TOL):
    """Vertices of {x : normals @ x <= bounds} by brute-force basic solutions.

    Intended for small systems (dimension <= 4, a few dozen halfspaces).
    """
    A = np.asarray(normals, dtype=float)
    b = np.asarray(bounds, dtype=float)
    m, n = A.shape
    verts = []
    for subset in itertools.combinations(range(m), n):
        sub = A[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, b[list(subset)])
        if np.all(A @ x <= b + tol):
            verts.append(x)
    return dedup_rows(verts, tol=1e-7)


class VPolytope:
    """Convex polytope from vertices, with facets computed in its span.

    Used for the bounded bodies (tube cores, horoball traces).  Exposes
    exact nearest-point projection and membership tests.
    """

    def __init__(self, vertices):
        pts = np.asarray(vertices, dtype=float)
        if pts.ndim != 2 or len(pts) == 0:
            raise ValueError("vertices must be a nonempty (m, n) array")
        self.ambient_dim = pts.shape[1]
        self.origin, self.basis = affine_span(pts)
        self.dim = self.basis.shape[0]
        self.codim = self.ambient_dim - self.dim
        coords = (pts - self.origin) @ self.basis.T
        self.vertices = self._hull_vertices(pts, coords)
        self._span_coords = (self.vertices - self.origin) @ self.basis.T
        self._facets = None  # lazy (normal, offset) pairs in span coords

    def _hull_vertices(self, pts, coords):
        if self.dim == 0:
            return pts[:1].copy()
        if self.dim == 1:
            i_min = int(np.argmin(coords[:, 0]))
            i_max = int(np.argmax(coords[:, 0]))
            return pts[[i_min, i_max]].copy()
        hull = ConvexHull(coords)
        return pts[hull.vertices].copy()

    @property
    def facets(self):
        """(normal, offset) pairs in span coordinates, outward normals."""
        if self._facets is None:
            self._facets = _facets_of(self._span_coords, self.dim)
        return self._facets

    def to_span(self, x):
        return self.basis @ (np.asarray(x, dtype=float) - self.origin)

    def from_span(self, c):
        return self.origin + self.basis.T @ np.asarray(c, dtype=float)

    def contains(self, x, tol=HV_TOL):
        x = np.asarray(x, dtype=float)
        foot = project_affine(x, self.origin, self.basis)
        if np.linalg.norm(x - foot) > tol:
            return False
        c = self.to_span(x)
        return all(np.dot(n, c) <= off + tol for n, off in self.facets)

    def nearest_point(self, x):
        """Unique Euclidean nearest point of the polytope to x."""
        x = np.asarray(x, dtype=float)
        c = self.to_span(x)
        best = _nearest_in_hull(self._span_coords, self.facets, c, self.dim)
        return self.from_span(best)

    def support(self, direction):
        """Support value max over the polytope of <., direction>."""
        return float(np.max(self.vertices @ np.asarray(direction, dtype=float)))


def _nearest_in_hull(coords, facets, c, dim):
    """Nearest point to c within the full-dim hull of coords (span coords)."""
    if dim == 0:
        return coords[0]
    if dim == 1:
        lo = float(np.min(coords[:, 0]))
        hi = float(np.max(coords[:, 0]))
        return np.array([min(max(c[0], lo), hi)])
    if all(np.dot(n, c) <= off + 1e-12 for n, off in facets):
        return np.asarray(c, dtype=float)
    best = None
    best_d = np.inf
    hull = ConvexHull(coords)
    for simplex, eq in zip(hull.simplices, hull.equations):
        n = eq[:-1]
        foot = c - (np.dot(n, c) + eq[-1]) * n
        face_pts = coords[simplex]
        origin, basis = affine_span(face_pts)
        if basis.shape[0] == 0:
            cand = face_pts[0]
        else:
            sub_coords = (face_pts - origin) @ basis.T
            sub_c = basis @ (foot - origin)
            sub_facets = _facets_of(sub_coords, basis.shape[0])
            sub_best = _nearest_in_hull(sub_coords, sub_facets, sub_c, basis.shape[0])
            cand = origin + basis.T @ sub_best
        d = np.linalg.norm(cand - c)
        if d < best_d:
            best_d = d
            best = cand
    return best


def _facets_of(coords, dim):
    if dim <= 0:
        return []
    if dim == 1:
        lo = float(np.min(coords[:, 0]))
        hi = float(np.max(coords[:, 0]))
        return [(np.array([-1.0]), -lo), (np.array([1.0]), hi)]
    hull = ConvexHull(coords)
    return [(eq[:-1].copy(), -float(eq[-1])) for eq in hull.equations]


def segment_hits_polytope(a, b, poly, tol=DECISION_TOL):
    """Whether the segment [a, b] meets the polytope.

    The in-span facet constraints cut the parameter to an interval; the
    perpendicular offset is affine in the parameter, so its norm is
    minimized in closed form over that interval.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    fa = project_affine(a, poly.origin, poly.basis)
    fb = project_affine(b, poly.origin, poly.basis)
    va, vb = a - fa, b - fb
    ca, cb = poly.to_span(a), poly.to_span(b)
    lo, hi = 0.0, 1.0
    for n, off in poly.facets:
        ga, gb = np.dot(n, ca) - off, np.dot(n, cb) - off
        dv = gb - ga
        if abs(dv) < 1e-15:
            if ga > tol:
                return False
            continue
        t = -ga / dv
        if dv > 0:
            hi = min(hi, t)
        else:
            lo = max(lo, t)
    if lo > hi + tol:
        return False
    lo, hi = max(lo, 0.0), min(hi, 1.0)
    if lo > hi + tol:
        return False
    dv = vb - va
    denom = float(np.dot(dv, dv))
    t_q = 0.5 * (lo + hi) if denom < 1e-18 else float(-np.dot(va, dv) / denom)
    t_star = min(max(t_q, lo), hi)
    perp = np.linalg.norm((1 - t_star) * va + t_star * vb)
    return perp <= max(tol, SURFACE_TOL)


def polyline_length(points):
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        return 0.0
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
