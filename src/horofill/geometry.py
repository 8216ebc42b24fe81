"""Shared Euclidean plumbing: spans, polytopes, cone distances, projection.

Tolerance policy (documented once, used everywhere):

``DECISION_TOL``  1e-9   sign / membership decisions, span ranks
``DEDUP_TOL``     1e-12  numerically equal vectors, zero pivots, stalled steps
``SURFACE_TOL``   1e-6   "on the surface" checks (tubes, level sets), LP integrality
``HV_TOL``        1e-7   halfspace vs vertex containment, tight facets
"""

import itertools

import numpy as np
from scipy.spatial import ConvexHull

DECISION_TOL = 1e-9
DEDUP_TOL = 1e-12
SURFACE_TOL = 1e-6
HV_TOL = 1e-7

MAX_PIECES_FOR_PROJECTION = 40
VERTEX_BLOCK = 1 << 14  # n-subsets per batched solve; bounds memory on large systems


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


def affine_span(points, tol=DECISION_TOL):
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

    The n-subsets of rows go, VERTEX_BLOCK at a time (every A2 and A3
    trace system is one block), through one batched ``det``, one
    batched ``solve`` and one stacked-matmul feasibility test, each
    equal bit for bit to its per-subset call (``X @ A.T`` and
    ``einsum`` are not), so the result is that of a loop over
    ``combinations``.  Intended for small
    systems (dimension <= 4, a few dozen halfspaces).  A bounded trace
    sublevel set decides its emptiness from these vertices, with no LP
    (``trace.horoball_polytope``).
    """
    A = np.asarray(normals, dtype=float)
    b = np.asarray(bounds, dtype=float)
    m, n = A.shape
    subsets = itertools.combinations(range(m), n)
    verts = []
    while block := list(itertools.islice(subsets, VERTEX_BLOCK)):
        idx = np.array(block, dtype=np.intp)
        sub = A[idx]
        regular = np.abs(np.linalg.det(sub)) >= DEDUP_TOL
        idx = idx[regular]
        X = np.linalg.solve(sub[regular], b[idx][..., None])[..., 0]
        verts.extend(X[np.all((A[None] @ X[:, :, None])[..., 0] <= b + tol, axis=1)])
    return dedup_rows(verts, tol=HV_TOL)


class ProjectionError(RuntimeError):
    pass


def _kkt_candidate(G, b, x, subset):
    A = G[list(subset)]
    rhs = A @ x - b[list(subset)]
    M = A @ A.T
    try:
        mu = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return None, None
    y = x - A.T @ mu
    return y, mu


def project_to_polytope(G, b, x, tol=HV_TOL):
    """Exact nearest point of {y : G y <= b} to x by KKT enumeration.

    A fast pass reads the active set off an iterative projection and the
    KKT conditions certify it; full enumeration over active sets is the
    fallback.  Intended for a few dozen halfspaces in rank <= 4.
    """
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.all(G @ x <= b + tol):
        return x.copy()
    m, n = G.shape
    if m > MAX_PIECES_FOR_PROJECTION:
        raise ProjectionError(
            f"too many halfspaces for exact projection ({m} > {MAX_PIECES_FOR_PROJECTION})"
        )
    y = x.copy()
    for _ in range(200):
        viol = G @ y - b
        k = int(np.argmax(viol))
        if viol[k] <= DEDUP_TOL:
            break
        y = y - viol[k] * G[k] / np.dot(G[k], G[k])
    guess = tuple(i for i in range(m) if abs(np.dot(G[i], y) - b[i]) <= SURFACE_TOL)
    if 0 < len(guess) <= n:
        cand, mu = _kkt_candidate(G, b, x, guess)
        if (
            cand is not None
            and np.all(mu >= -DECISION_TOL)
            and np.all(G @ cand <= b + tol)
        ):
            return cand
    best, best_d = None, np.inf
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(m), size):
            cand, mu = _kkt_candidate(G, b, x, subset)
            if cand is None or np.any(mu < -DECISION_TOL):
                continue
            if not np.all(G @ cand <= b + tol):
                continue
            d = np.linalg.norm(cand - x)
            if d < best_d:
                best, best_d = cand, d
    if best is None:
        raise ProjectionError("no KKT point found (infeasible target set?)")
    return best


class VPolytope:
    """Convex polytope: its affine span, its vertices and its facets.

    The facets are the rows of ``normals @ c <= bounds`` in span
    coordinates ``c = to_span(x)``, with outward unit normals.
    ``VPolytope(vertices)`` is the hull of a point set, with facets from
    qhull in its span; ``VPolytope.from_halfspaces`` is the solution set
    of a halfspace system.  ``nearest_point`` runs the one exact
    projection, ``project_to_polytope``, in span coordinates.
    """

    is_empty = False
    is_bounded = True

    def __init__(self, vertices):
        pts = np.asarray(vertices, dtype=float)
        if pts.ndim != 2 or len(pts) == 0:
            raise ValueError("vertices must be a nonempty (m, n) array")
        self._set_span(*affine_span(pts))
        coords = (pts - self.origin) @ self.basis.T
        if self.dim == 0:
            keep = [0]
        elif self.dim == 1:
            keep = [int(np.argmin(coords[:, 0])), int(np.argmax(coords[:, 0]))]
        else:
            keep = ConvexHull(coords).vertices
        self.vertices = pts[keep]
        span_coords = (self.vertices - self.origin) @ self.basis.T
        if self.dim == 0:
            self.normals, self.bounds = np.zeros((0, 0)), np.zeros(0)
        elif self.dim == 1:
            lo, hi = np.min(span_coords[:, 0]), np.max(span_coords[:, 0])
            self.normals, self.bounds = np.array([[-1.0], [1.0]]), np.array([-lo, hi])
        else:
            eq = ConvexHull(span_coords).equations
            self.normals = np.ascontiguousarray(eq[:, :-1])
            self.bounds = -eq[:, -1]

    @classmethod
    def from_halfspaces(cls, normals, bounds, vertices, is_empty, is_bounded):
        """{x : normals @ x <= bounds}, given its vertices and whether it is empty and bounded.

        ``vertices`` is ``enumerate_vertices(normals, bounds)``, made once
        by the caller, which decides emptiness from it when the set is
        bounded (``trace.horoball_polytope``).  A bounded nonempty set
        comes back as the hull of its vertices; an empty or unbounded set
        keeps its halfspaces, in the ambient space as its span, and the
        vertices it has (none when empty).
        """
        normals = np.asarray(normals, dtype=float)
        bounds = np.asarray(bounds, dtype=float)
        n = normals.shape[1]
        verts = [] if is_empty else vertices
        if is_bounded and not is_empty:
            return cls(np.array(verts))
        P = cls.__new__(cls)
        P._set_span(np.zeros(n), np.eye(n))
        P.vertices = np.array(verts).reshape(-1, n)
        P.normals, P.bounds = normals, bounds
        P.is_empty, P.is_bounded = is_empty, False
        return P

    def _set_span(self, origin, basis):
        self.origin, self.basis = origin, basis
        self.ambient_dim = basis.shape[1]
        self.dim = basis.shape[0]
        self.codim = self.ambient_dim - self.dim

    def to_span(self, x):
        return self.basis @ (np.asarray(x, dtype=float) - self.origin)

    def from_span(self, c):
        return self.origin + self.basis.T @ np.asarray(c, dtype=float)

    def contains(self, x, tol=HV_TOL):
        x = np.asarray(x, dtype=float)
        foot = project_affine(x, self.origin, self.basis)
        if np.linalg.norm(x - foot) > tol:
            return False
        return bool(np.all(self.normals @ self.to_span(x) <= self.bounds + tol))

    def nearest_point(self, x):
        """Unique Euclidean nearest point of the polytope to x."""
        if self.dim == 0:
            return self.vertices[0].copy()
        c = project_to_polytope(self.normals, self.bounds, self.to_span(x))
        return self.from_span(c)


def segment_hits_polytope(a, b, poly, tol=DECISION_TOL):
    """Whether the segment [a, b] meets the polytope.

    The in-span facet constraints cut the parameter to an interval; the
    perpendicular offset is affine in the parameter, so its norm is
    minimized in closed form over that interval.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    va = a - project_affine(a, poly.origin, poly.basis)
    vb = b - project_affine(b, poly.origin, poly.basis)
    ga = poly.normals @ poly.to_span(a) - poly.bounds
    dg = poly.normals @ poly.to_span(b) - poly.bounds - ga
    flat = np.abs(dg) < 1e-15
    if np.any(ga[flat] > tol):
        return False
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -ga / dg
    lo = float(np.max(t[~flat & (dg < 0)], initial=0.0))
    hi = float(np.min(t[~flat & (dg > 0)], initial=1.0))
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
