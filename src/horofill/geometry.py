"""Shared Euclidean plumbing: spans, polytopes, projection.

Tolerance policy (documented once, used everywhere):

``DECISION_TOL``          1e-9   sign / membership decisions, span ranks
``DEDUP_TOL``             1e-12  numerically equal vectors, zero pivots, stalled steps
``SURFACE_TOL``           1e-6   "on the surface" checks (tubes, level sets), LP integrality
``HV_TOL``                1e-7   halfspace vs vertex containment, tight facets
``LENGTH_FLOOR``          1e-15  zero-length guard on a length or a change of slack
``SQUARED_LENGTH_FLOOR``  1e-18  zero-length guard on a squared length
``CHORD_TOL``             1e-10  a corner on the chord of a level-polygon walk
``LOG_FLOOR``             1e-300 positive floor under a logarithm's argument
``BOOTSTRAP_TOL``         1e-6   default stopping excess of ``horofill bootstrap``
``CENSUS_MARGIN``         1e-8   headroom over a piece's rounding in the brick census's vertex test
"""

import functools
import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull

DECISION_TOL = 1e-9
DEDUP_TOL = 1e-12
SURFACE_TOL = 1e-6
HV_TOL = 1e-7
LENGTH_FLOOR = 1e-15
SQUARED_LENGTH_FLOOR = 1e-18
CHORD_TOL = 1e-10
LOG_FLOOR = 1e-300
BOOTSTRAP_TOL = 1e-6
CENSUS_MARGIN = 1e-8
"""Margin by which ``filling.brick_census`` settles a brick from its vertices.

A piece's computed value at a computed probe point is off from the
exact value at the exact point by about ulp * (|g| |x| + |c|), far below
1e-8 for |g| |x| up to about 1e6; within that coordinate range a piece at
least ``-SURFACE_TOL + CENSUS_MARGIN`` at a brick's vertices is at least
``-SURFACE_TOL`` at every probe, as the probe computes it.
"""

MAX_PIECES_FOR_PROJECTION = 40
VERTEX_BLOCK = 1 << 14  # n-subsets per batched solve; bounds memory on large systems
DEDUP_BLOCK = 256  # rows per distance matrix in dedup_rows, with the rows kept so far


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


def matvec(A, X):
    """``A @ x`` for the point x, or for each row x of X.

    A stacked matrix-vector product, so each row's result is bit for bit
    the 2-D ``A @ x`` of that row alone; ``X @ A.T`` (one matrix product)
    and ``einsum`` sum in another order and are not.
    """
    return (A @ X[..., None])[..., 0]


def row_norms(V):
    """``np.linalg.norm`` of the vector V, or of each row of V, bit for bit.

    Each squared norm is a stacked ``(1, n) @ (n, 1)`` product, the dot
    routine of the 1-D norm; ``norm(V, axis=1)`` is not bit-equal to it.
    """
    return np.sqrt((V[..., None, :] @ V[..., :, None])[..., 0, 0])


def segment_params(starts, stops, counts):
    """Rows of straight segments, as ``np.linspace`` computes them.

    Segment i runs from row i of the (m, c) array ``starts`` to row i of
    ``stops`` in counts[i] >= 2 rows.  Row k of a segment of n rows is
    k * ((stop - start) / (n - 1)) + start, or (k / (n - 1)) * (stop -
    start) + start in a column whose step is zero (numpy's branch for
    subnormal steps), and its last row is stop.  Returns the
    (sum(counts), c) array of all rows.
    """
    starts = np.asarray(starts, dtype=float)
    stops = np.asarray(stops, dtype=float)
    counts = np.asarray(counts, dtype=int)
    seg = np.repeat(np.arange(len(counts)), counts)
    last = np.cumsum(counts) - 1
    k = (np.arange(len(seg)) - (last - counts + 1)[seg]).astype(float)[:, None]
    div = (counts - 1).astype(float)[seg, None]
    delta = (stops - starts)[seg]
    step = delta / div
    rows = np.where(step == 0, k / div * delta, k * step) + starts[seg]
    rows[last] = stops
    return rows


def straight_segments(starts, stops, spacing):
    """Rows of the straight segments from the rows of starts to those of stops.

    A segment has n = max(2, ceil(|stop - start| / spacing) + 1) rows; its
    interior rows are start + t * (stop - start) for t in np.linspace(0, 1,
    n), bit for bit.  Returns the rows, stacked segment by segment, and n.
    """
    starts = np.asarray(starts, dtype=float)
    delta = np.asarray(stops, dtype=float) - starts
    counts = np.maximum(2, np.ceil(row_norms(delta) / spacing).astype(int) + 1)
    m = len(counts)
    t = segment_params(np.zeros((m, 1)), np.ones((m, 1)), counts)
    seg = np.repeat(np.arange(m), counts)
    return starts[seg] + t * delta[seg], counts


def dedup_rows(rows, tol=DEDUP_TOL):
    """Keep one representative per cluster of rows equal within tol.

    A row is kept when it is farther than tol from every row kept
    before it, so the first row of each cluster stays, in input order.
    The rows go DEDUP_BLOCK at a time, after the rows kept so far,
    through one distance matrix (each entry the 1-D norm of the later
    row minus the earlier).  The kept mask is the fixed point of "no
    kept row before it is within tol", iterated from all rows; it is
    unique and reached once the mask stops changing, after one step
    when no two rows are close.
    """
    R = np.asarray(rows, dtype=float)
    kept = R[:0]
    for start in range(0, len(R), DEDUP_BLOCK):
        S = np.concatenate([kept, R[start : start + DEDUP_BLOCK]])
        i = np.arange(len(S))
        close = (row_norms(S[:, None] - S) <= tol) & (i[:, None] > i)
        keep = np.ones(len(S), dtype=bool)
        while not (keep == (new := ~(close & keep).any(1))).all():
            keep = new
        kept = S[keep]
    return list(kept)


def affine_span(points):
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
    rank = int(np.sum(s > DECISION_TOL * scale))
    return origin, vt[:rank]


def enumerate_vertices(normals, bounds, tol=HV_TOL):
    """Vertices of {x : normals @ x <= bounds} by brute-force basic solutions.

    The n-subsets of rows go, VERTEX_BLOCK at a time (every A2 and A3
    trace system is one block, whose index table is made once per
    (m, n)), through one batched ``det``, one
    batched ``solve`` and one stacked-matmul feasibility test, each
    equal bit for bit to its per-subset call (``X @ A.T`` and
    ``einsum`` are not), so the result is that of a loop over
    ``combinations``.  Each block's feasible points are deduplicated
    with the vertices kept so far, so memory stays bounded by the block
    however many subsets meet at one vertex.  Intended for small
    systems (dimension <= 4, a few dozen halfspaces).  A bounded trace
    sublevel set decides its emptiness from these vertices, with no LP
    (``trace.horoball_polytope``).
    """
    A = np.asarray(normals, dtype=float)
    b = np.asarray(bounds, dtype=float)
    m, n = A.shape
    verts = np.empty((0, n))
    for idx in _subset_blocks(m, n):
        sub = A[idx]
        regular = np.abs(np.linalg.det(sub)) >= DEDUP_TOL
        idx = idx[regular]
        X = np.linalg.solve(sub[regular], b[idx][..., None])[..., 0]
        X = X[(matvec(A, X) <= b + tol).all(1)]
        verts = np.reshape(dedup_rows(np.concatenate([verts, X]), tol=HV_TOL), (-1, n))
    return list(verts)


def _subset_blocks(m, n):
    """The n-subsets of range(m) in ``combinations`` order, as index arrays
    of at most VERTEX_BLOCK rows; a one-block table is made once per (m, n)."""
    if 0 < math.comb(m, n) <= VERTEX_BLOCK:
        yield _subset_table(m, n)
        return
    subsets = itertools.combinations(range(m), n)
    while block := list(itertools.islice(subsets, VERTEX_BLOCK)):
        yield np.array(block, dtype=np.intp)


@functools.lru_cache(maxsize=64)
def _subset_table(m, n):
    table = np.array(list(itertools.combinations(range(m), n)), dtype=np.intp)
    table.flags.writeable = False
    return table


class ProjectionError(RuntimeError):
    pass


def _kkt_points(G, b, X, idx):
    """KKT points x - A^T mu of the active sets idx, one per row of X.

    Row r takes A = G[idx[r]] and mu solving (A A^T) mu = A x - b[idx[r]];
    every product and the batched ``solve`` equal the one-row calls bit
    for bit.  Returns the points, mu and whether A A^T was regular: True
    for all, or a mask when some system is singular (the one-row
    ``solve`` raises there), whose rows come back NaN.
    """
    A = G[idx]
    At = A.transpose(0, 2, 1)
    M = A @ At
    rhs = matvec(A, X) - b[idx]
    ok = True
    try:
        mu = np.linalg.solve(M, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        ok = np.linalg.slogdet(M)[0] != 0  # getrf's exact zero pivot, as in solve
        mu = np.full(rhs.shape, np.nan)
        mu[ok] = np.linalg.solve(M[ok], rhs[ok][..., None])[..., 0]
    return X - matvec(At, mu), mu, ok


def _certified(G, b, Y, mu, ok, tol):
    """Rows whose KKT point is regular, has mu >= 0 and lies in the polytope."""
    return ok & (mu >= -DECISION_TOL).all(1) & (matvec(G, Y) <= b + tol).all(1)


def _cyclic_projection(G, b, X):
    """Cyclic projection onto the most violated halfspace, every row in step.

    A row stops once no halfspace is violated by more than DEDUP_TOL, or
    after 200 steps.  The last row still moving takes its remaining
    steps on plain 2-D products, which give the same bits as the stacked
    ones without the batch indexing.  One-row calls cost a third as much
    with them, and without them the one-row probe workload slowed in 5
    of 5 alternating 8 s pairs (median wall 2.45 -> 2.57 s).
    """
    gg = (G[:, None, :] @ G[:, :, None])[:, 0, 0]  # np.dot(g, g) of each row
    Y, Z, live, steps = X.copy(), X, np.arange(len(X)), 200
    while steps and len(live) > 1:
        viol = matvec(G, Z) - b
        k = viol.argmax(1)
        v = viol[np.arange(len(k)), k]
        stop = v <= DEDUP_TOL
        if stop.any():
            Y[live[stop]] = Z[stop]
            go = ~stop
            Z, live, k, v = Z[go], live[go], k[go], v[go]
        Z = Z - v[:, None] * G[k] / gg[k, None]
        steps -= 1
    if len(live) == 1:
        z = Z[0]
        for _ in range(steps):
            viol = G @ z - b
            k = viol.argmax()
            if viol[k] <= DEDUP_TOL:
                break
            z = z - viol[k] * G[k] / gg[k]
        Z = z[None]
    Y[live] = Z
    return Y


def _enumerated_projection(G, b, x, tol):
    """Nearest KKT point of x over every active set of at most n rows.

    The active sets of one size go through one batched solve; the first
    nearest candidate in (size, ``combinations``) order wins.
    """
    m, n = G.shape
    cands, dists = [], []
    for size in range(1, n + 1):
        idx = np.array(list(itertools.combinations(range(m), size)), dtype=np.intp).reshape(-1, size)
        Y, mu, ok = _kkt_points(G, b, np.broadcast_to(x, (len(idx), n)), idx)
        d = row_norms(Y - x)
        cands.append(Y)
        dists.append(np.where(_certified(G, b, Y, mu, ok, tol), d, np.inf))
    d = np.concatenate(dists)
    j = int(np.argmin(d))
    if d[j] == np.inf:
        raise ProjectionError("no KKT point found (infeasible target set?)")
    return np.concatenate(cands)[j]


def project_to_polytope(G, b, x, tol=HV_TOL):
    """Exact nearest point of {y : G y <= b} to x, or to each row of x.

    A fast pass reads each row's active set off a cyclic projection and
    the KKT conditions certify it; enumeration over all active sets is
    the fallback.  The rows go through each step together (the fast
    pass grouped by active-set size), and each row's result is bit for
    bit that of the row alone.  Intended for a few dozen halfspaces in
    rank <= 4.
    """
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    out = x.reshape(-1, x.shape[-1]).copy()
    outside = ~(matvec(G, out) <= b + tol).all(1)
    if not outside.any():
        return out.reshape(x.shape)
    m, n = G.shape
    if m > MAX_PIECES_FOR_PROJECTION:
        raise ProjectionError(
            f"too many halfspaces for exact projection ({m} > {MAX_PIECES_FOR_PROJECTION})"
        )
    X = out[outside]
    Y = _cyclic_projection(G, b, X)
    # the active-set guess: per-facet 1-D dots, (1, n) @ (n, 1) stacked
    near = np.abs((G[:, None, :] @ Y[:, None, :, None])[..., 0, 0] - b) <= SURFACE_TOL
    size = near.sum(1)
    todo = np.ones(len(X), dtype=bool)
    for s in set(size.tolist()) & set(range(1, n + 1)):
        grp = size == s
        C, mu, ok = _kkt_points(G, b, X[grp], near[grp].nonzero()[1].reshape(-1, s))
        hit = _certified(G, b, C, mu, ok, tol)
        grp[grp] = hit
        Y[grp] = C[hit]
        todo[grp] = False
    for r in todo.nonzero()[0].tolist():
        Y[r] = _enumerated_projection(G, b, X[r], tol)
    out[outside] = Y
    return out.reshape(x.shape)


class VPolytope:
    """Convex polytope: its affine span, its vertices and its facets.

    The facets are the rows of ``normals @ c <= bounds`` in span
    coordinates ``c = to_span(x)``, with outward unit normals.
    ``VPolytope(vertices)`` is the hull of a point set, its vertices and
    facets from one qhull call; ``VPolytope.from_halfspaces`` is the
    solution set of a halfspace system.  ``nearest_point`` runs the one
    exact projection, ``project_to_polytope``, in span coordinates.
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
            self.normals, self.bounds = np.zeros((0, 0)), np.zeros(0)
        elif self.dim == 1:
            keep = [int(np.argmin(coords[:, 0])), int(np.argmax(coords[:, 0]))]
            self.normals = np.array([[-1.0], [1.0]])
            self.bounds = np.array([-coords[keep[0], 0], coords[keep[1], 0]])
        else:
            hull = ConvexHull(coords)
            keep = hull.vertices
            self.normals = np.ascontiguousarray(hull.equations[:, :-1])
            self.bounds = -hull.equations[:, -1]
        self.vertices = pts[keep]

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
        return matvec(self.basis, np.asarray(x, dtype=float) - self.origin)

    def from_span(self, c):
        return self.origin + matvec(self.basis.T, np.asarray(c, dtype=float))

    def contains(self, x):
        """Whether x, or each row of x, lies in the polytope within HV_TOL."""
        x = np.asarray(x, dtype=float)
        c = self.to_span(x)
        inside = ~(row_norms(x - self.from_span(c)) > HV_TOL)
        inside &= (matvec(self.normals, c) <= self.bounds + HV_TOL).all(-1)
        return inside if inside.ndim else bool(inside)

    def nearest_point(self, x):
        """Unique Euclidean nearest point of the polytope to x, or to each row of x."""
        x = np.asarray(x, dtype=float)
        if self.dim == 0:
            return self.vertices[np.zeros(x.shape[:-1], dtype=np.intp)]
        c = project_to_polytope(self.normals, self.bounds, self.to_span(x))
        return self.from_span(c)


def segment_hits_polytope(a, b, poly):
    """Whether the segment [a, b], or each segment between rows of a and b, meets the polytope.

    The in-span facet constraints cut the parameter to an interval; the
    perpendicular offset is affine in the parameter, so its norm is
    minimized in closed form over that interval.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ca, cb = poly.to_span(a), poly.to_span(b)
    va = a - poly.from_span(ca)
    vb = b - poly.from_span(cb)
    ga = matvec(poly.normals, ca) - poly.bounds
    dg = matvec(poly.normals, cb) - poly.bounds - ga
    flat = np.abs(dg) < LENGTH_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -ga / dg
    lo = np.max(np.where(~flat & (dg < 0), t, 0.0), axis=-1, initial=0.0)
    hi = np.min(np.where(~flat & (dg > 0), t, 1.0), axis=-1, initial=1.0)
    dv = vb - va
    denom = (dv[..., None, :] @ dv[..., :, None])[..., 0, 0]  # each np.dot(dv, dv)
    short = denom < SQUARED_LENGTH_FLOOR
    t_q = -(va[..., None, :] @ dv[..., :, None])[..., 0, 0] / np.where(short, 1.0, denom)
    t_star = np.clip(np.where(short, 0.5 * (lo + hi), t_q), lo, hi)
    perp = row_norms((1 - t_star)[..., None] * va + t_star[..., None] * vb)
    hit = ~np.any(flat & (ga > DECISION_TOL), axis=-1) & (lo <= hi + DECISION_TOL)
    hit &= perp <= SURFACE_TOL
    return hit if hit.ndim else bool(hit)


def polyline_length(points):
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        return 0.0
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
