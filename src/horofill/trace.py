"""Piecewise-linear convex Busemann traces on a single apartment.

A trace is an upper envelope of affine pieces whose gradients all lie in
one Weyl orbit (the orbit of the opposition image of the defining slope).
Sublevel sets model the horoball trace on the apartment; the argmin
polytope models the minimum set; level projection, sandwich radii and
the corner path construction live here.
"""

import itertools
import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .coxeter import (
    delta_zero,
    opposition_image,
    orbit_index,
    ort_distance,
    wall_margin,
    weyl_orbit,
)
from .geometry import (
    DECISION_TOL,
    HV_TOL,
    affine_span,
    angle_between,
    dedup_rows,
    enumerate_vertices,
    unit,
)

MAX_PIECES_FOR_PROJECTION = 40


class TraceError(ValueError):
    pass


class BusemannTrace:
    """Upper envelope max_i (<x, g_i> + c_i) with orbit-constrained g_i."""

    def __init__(self, root_system, theta, gradients, offsets):
        self.root_system = root_system
        self.theta = theta
        self.apartment_dim = root_system.rank
        G = np.asarray(gradients, dtype=float)
        c = np.asarray(offsets, dtype=float)
        if G.ndim != 2 or G.shape[1] != self.apartment_dim:
            raise TraceError("gradients must be (m, rank)")
        if len(c) != len(G):
            raise TraceError("offsets must match gradients")
        if not 1 <= len(G) <= root_system.chamber_count:
            raise TraceError(
                f"piece count {len(G)} outside [1, {root_system.chamber_count}]"
            )
        self.orbit = weyl_orbit(
            root_system, opposition_image(root_system, theta).direction
        )
        self.piece_orbit_indices = []
        for g in G:
            if abs(np.linalg.norm(g) - 1.0) > 1e-7:
                raise TraceError("gradients must be unit vectors")
            self.piece_orbit_indices.append(orbit_index(self.orbit, g))
        self.gradients = G
        self.offsets = c
        self._min_cache = None

    # -- evaluation -------------------------------------------------------

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(np.max(self.gradients @ x + self.offsets))

    def values(self, X):
        X = np.asarray(X, dtype=float)
        return np.max(X @ self.gradients.T + self.offsets, axis=1)

    def active_set(self, x, tol=DECISION_TOL):
        x = np.asarray(x, dtype=float)
        vals = self.gradients @ x + self.offsets
        top = np.max(vals)
        return [i for i, v in enumerate(vals) if v >= top - tol]

    # -- transforms -------------------------------------------------------

    def translated(self, t0):
        """Trace of x -> value(x - t0)."""
        t0 = np.asarray(t0, dtype=float)
        return BusemannTrace(
            self.root_system,
            self.theta,
            self.gradients,
            self.offsets - self.gradients @ t0,
        )

    def scaled(self, lam):
        """Similarity by factor lam: value_lam(x) = lam * value(x / lam)."""
        if lam <= 0:
            raise TraceError("similarity factor must be positive")
        return BusemannTrace(
            self.root_system, self.theta, self.gradients, lam * self.offsets
        )

    def shifted(self, delta):
        """Add a constant to the envelope."""
        return BusemannTrace(
            self.root_system, self.theta, self.gradients, self.offsets + delta
        )

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        return {
            "root_system": self.root_system.to_descriptor(),
            "theta": [float(v) for v in self.theta.direction],
            "pieces": [
                [int(i), float(c)]
                for i, c in zip(self.piece_orbit_indices, self.offsets)
            ],
        }

    @staticmethod
    def from_dict(data):
        from .coxeter import root_system_from_descriptor

        rs = root_system_from_descriptor(data["root_system"])
        theta = rs.slope(np.asarray(data["theta"], dtype=float))
        orbit = weyl_orbit(rs, opposition_image(rs, theta).direction)
        grads = [orbit[int(i)] for i, _ in data["pieces"]]
        offs = [float(c) for _, c in data["pieces"]]
        return BusemannTrace(rs, theta, grads, offs)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @staticmethod
    def load(path):
        with open(path) as fh:
            return BusemannTrace.from_dict(json.load(fh))


def symmetric_trace(rs, theta, level=0.0):
    """Full-orbit envelope with equal offsets (W-invariant)."""
    opp = opposition_image(rs, theta)
    orbit = weyl_orbit(rs, opp.direction)
    return BusemannTrace(rs, theta, np.array(orbit), np.full(len(orbit), level))


# -- sublevel polytopes ------------------------------------------------------


@dataclass
class HPolytope:
    """Halfspace intersection with cached vertices and affine-span data."""

    normals: np.ndarray
    bounds: np.ndarray
    vertices: np.ndarray
    is_empty: bool
    is_bounded: bool
    span_origin: np.ndarray = None
    span_basis: np.ndarray = None

    @property
    def codim(self):
        if self.span_basis is None:
            return None
        return self.normals.shape[1] - self.span_basis.shape[0]

    def contains(self, x, tol=HV_TOL):
        return bool(
            np.all(self.normals @ np.asarray(x, dtype=float) <= self.bounds + tol)
        )


def _feasible(normals, bounds):
    n = normals.shape[1]
    res = linprog(
        np.zeros(n),
        A_ub=normals,
        b_ub=bounds,
        bounds=[(None, None)] * n,
        method="highs",
    )
    return res.status == 0


def _recession_nontrivial(normals):
    n = normals.shape[1]
    for k in range(n):
        for sign in (1.0, -1.0):
            c = np.zeros(n)
            c[k] = -sign
            res = linprog(
                c,
                A_ub=normals,
                b_ub=np.zeros(len(normals)),
                bounds=[(-1, 1)] * n,
                method="highs",
            )
            if res.status == 0 and -res.fun > 1e-7:
                return True
    return False


def _build_hpolytope(normals, bounds):
    normals = np.asarray(normals, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    if not _feasible(normals, bounds):
        return HPolytope(normals, bounds, np.zeros((0, normals.shape[1])), True, False)
    unbounded = _recession_nontrivial(normals)
    verts = enumerate_vertices(normals, bounds)
    verts = np.array(verts) if verts else np.zeros((0, normals.shape[1]))
    origin = basis = None
    if not unbounded and len(verts):
        origin, basis = affine_span(verts)
    return HPolytope(normals, bounds, verts, False, not unbounded, origin, basis)


def horoball_polytope(trace, t):
    """Sublevel set {value <= t} as a halfspace intersection."""
    return _build_hpolytope(trace.gradients, t - trace.offsets)


@dataclass
class MinSetResult:
    bounded_below: bool
    polytope: HPolytope = None
    min_value: float = None


def gradients_surround_origin(trace):
    """Whether 0 lies in the convex hull of the piece gradients."""
    m = len(trace.gradients)
    A_eq = np.vstack([trace.gradients.T, np.ones(m)])
    b_eq = np.concatenate([np.zeros(trace.apartment_dim), [1.0]])
    res = linprog(
        np.zeros(m), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * m, method="highs"
    )
    return res.status == 0


def min_set(trace):
    """Argmin polytope of the envelope, or an unbounded-below flag."""
    if trace._min_cache is not None:
        return trace._min_cache
    if not gradients_surround_origin(trace):
        trace._min_cache = MinSetResult(False)
        return trace._min_cache
    r = trace.apartment_dim
    m = len(trace.gradients)
    c_obj = np.zeros(r + 1)
    c_obj[-1] = 1.0
    A_ub = np.hstack([trace.gradients, -np.ones((m, 1))])
    res = linprog(
        c_obj,
        A_ub=A_ub,
        b_ub=-trace.offsets,
        bounds=[(None, None)] * (r + 1),
        method="highs",
    )
    if res.status == 3:
        trace._min_cache = MinSetResult(False)
        return trace._min_cache
    if res.status != 0:
        raise TraceError(f"min-set LP failed with status {res.status}")
    s_star = float(res.x[-1])
    poly = _build_hpolytope(trace.gradients, s_star - trace.offsets)
    trace._min_cache = MinSetResult(True, poly, s_star)
    return trace._min_cache


def min_set_edge_directions(result, tol=1e-7):
    """Unit directions of the edges of a bounded min set."""
    poly = result.polytope
    verts = poly.vertices
    dirs = []
    n = poly.normals.shape[1]
    for i, j in itertools.combinations(range(len(verts)), 2):
        mid = 0.5 * (verts[i] + verts[j])
        tight = np.abs(poly.normals @ mid - poly.bounds) <= tol
        if not np.any(tight):
            continue
        A = poly.normals[tight]
        # an edge midpoint's tight set has rank exactly n-1
        if np.linalg.matrix_rank(A, tol=1e-9) == n - 1:
            dirs.append(unit(verts[j] - verts[i]))
    return dirs


# -- level projection ---------------------------------------------------------


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
        if viol[k] <= 1e-12:
            break
        y = y - viol[k] * G[k] / np.dot(G[k], G[k])
    guess = tuple(i for i in range(m) if abs(np.dot(G[i], y) - b[i]) <= 1e-6)
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


def level_project(trace, x, t):
    """Projection of x onto the sublevel set {value <= t}.

    The returned point y is the nearest point of the sublevel polytope;
    the open segment (y, x] stays outside the sublevel set, and
    d(x, y) <= (s - t)/sin(delta0) for horoball-realizable traces.
    """
    x = np.asarray(x, dtype=float)
    s = trace.value(x)
    if s <= t + DECISION_TOL:
        return x.copy()
    G = trace.gradients
    b = t - trace.offsets
    if not _feasible(G, b):
        raise ProjectionError(f"sublevel set at t={t} is empty")
    return project_to_polytope(G, b, x)


def projection_bound(trace, s, t):
    """The contract bound (s - t)/sin(delta0) for this trace's slope."""
    prof = delta_zero(trace.root_system, trace.theta)
    if prof.degenerate:
        raise TraceError("factor-parallel slope: projection bound undefined")
    return (s - t) / np.sin(prof.delta0)


# -- sandwich radii -----------------------------------------------------------


def sandwich_radii(trace):
    """(m, a*m) with a = 1/sin(delta0); requires a bounded min set."""
    res = min_set(trace)
    if not res.bounded_below:
        raise TraceError("envelope unbounded below: no sandwich radii")
    if not res.polytope.is_bounded:
        raise TraceError("min set unbounded: no sandwich radii")
    m = -res.min_value
    if m <= 0:
        raise TraceError("min value must be negative (horoball nonempty)")
    prof = delta_zero(trace.root_system, trace.theta)
    if prof.degenerate:
        raise TraceError("factor-parallel slope")
    return m, m / np.sin(prof.delta0)


def check_sandwich(trace, samples=1000, seed=0):
    """Sample both sandwich inclusions; returns the worst margins.

    Inner: points of N_m(Min) must have value <= 0.  Outer: points of
    the level-zero boundary must lie within a*m of the min set.
    """
    m, am = sandwich_radii(trace)
    res = min_set(trace)
    verts = res.polytope.vertices
    rng = np.random.default_rng(seed)
    r = trace.apartment_dim
    worst_inner = -np.inf
    worst_outer = -np.inf
    for _ in range(samples):
        w = rng.dirichlet(np.ones(len(verts))) if len(verts) > 1 else np.ones(1)
        base = w @ verts
        d = rng.normal(size=r)
        d /= np.linalg.norm(d)
        inner_pt = base + m * rng.uniform(0, 1) * d
        worst_inner = max(worst_inner, trace.value(inner_pt))
        lo, hi = 0.0, 1.0
        while trace.value(base + hi * d) < 0:
            hi *= 2.0
            if hi > 1e9:
                raise TraceError("boundary ray did not exit the horoball")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if trace.value(base + mid * d) < 0:
                lo = mid
            else:
                hi = mid
        bd = base + hi * d
        foot = project_to_polytope(res.polytope.normals, res.polytope.bounds, bd)
        worst_outer = max(worst_outer, float(np.linalg.norm(bd - foot)))
    return {
        "max_value_inner": worst_inner,
        "max_dist_outer": worst_outer,
        "m": m,
        "am": am,
    }


# -- corner paths (non-parallel faces) -----------------------------------------


class FacetsParallel(ValueError):
    pass


def min_dihedral_angle(trace):
    """Minimal unoriented angle between distinct piece hyperplanes."""
    best = np.pi
    m = len(trace.gradients)
    for i, j in itertools.combinations(range(m), 2):
        phi = angle_between(trace.gradients[i], trace.gradients[j])
        if phi < 1e-9 or abs(np.pi - phi) < 1e-9:
            continue  # parallel hyperplanes carry no corner
        best = min(best, min(phi, np.pi - phi))
    return best


def fetze_constant(trace):
    """Path-length constant 1/sin(varsigma/2)."""
    return 1.0 / np.sin(min_dihedral_angle(trace) / 2.0)


def _facets_at(trace, x, t, tol=1e-6):
    vals = trace.gradients @ np.asarray(x, dtype=float) + trace.offsets
    if abs(np.max(vals) - t) > tol:
        raise TraceError(
            f"point is not on the level-{t} boundary (value {np.max(vals):.6g})"
        )
    return [i for i in range(len(vals)) if abs(vals[i] - t) <= tol]


def face_pair_path(trace, t, x, y):
    """Polyline from x to y along the level set, around the facet corner.

    x and y must lie on two non-parallel facets of the sublevel polytope
    at level t; the polyline stays on {value = t} with length at most
    fetze_constant(trace) * d(x, y).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.linalg.norm(x - y) <= 1e-12:
        return np.array([x])
    fx, fy = _facets_at(trace, x, t), _facets_at(trace, y, t)
    gi = gj = None
    for i in fx:
        for j in fy:
            if i == j:
                continue
            if abs(np.dot(trace.gradients[i], trace.gradients[j])) < 1.0 - DECISION_TOL:
                gi, gj = i, j
                break
        if gi is not None:
            break
    if gi is None:
        raise FacetsParallel("points lie only on parallel (or equal) facets")
    G2 = trace.gradients[[gi, gj]]
    rhs = np.array([t - trace.offsets[gi], t - trace.offsets[gj]])
    z0, *_ = np.linalg.lstsq(G2, rhs, rcond=None)
    _, _, vt = np.linalg.svd(G2)
    null = vt[2:]  # basis of the corner H cap H'
    xa = z0 + null.T @ (null @ (x - z0))
    ya = z0 + null.T @ (null @ (y - z0))
    hx = float(np.linalg.norm(x - xa))
    hy = float(np.linalg.norm(y - ya))
    if hx + hy < 1e-12:
        z = 0.5 * (xa + ya)
    else:
        z = xa + (hx / (hx + hy)) * (ya - xa)
    return _walk_level_polygon(trace, t, x, y, z)


def _walk_level_polygon(trace, t, x, y, z):
    """Boundary walk of (plane xyz) cap sublevel, on the z-side of xy."""
    origin = x
    b1 = unit(y - x)
    z_perp = (z - origin) - np.dot(z - origin, b1) * b1
    if np.linalg.norm(z_perp) < 1e-10:
        return np.array([x, y])  # corner sits on the chord
    b2 = unit(z_perp)
    B = np.vstack([b1, b2])
    A2 = trace.gradients @ B.T
    beta = (t - trace.offsets) - trace.gradients @ origin
    pts2 = enumerate_vertices(A2, beta)
    if not pts2:
        raise TraceError("level polygon is empty in the xyz plane")
    cx = np.zeros(2)
    cyv = np.array([float(np.dot(y - origin, b1)), 0.0])
    allpts = [cx, cyv] + list(pts2)
    allpts = dedup_rows(allpts, tol=1e-9)
    center = np.mean(np.array(allpts), axis=0)
    ordered = sorted(allpts, key=lambda p: np.arctan2(p[1] - center[1], p[0] - center[0]))
    n = len(ordered)
    idx_x = min(range(n), key=lambda k: float(np.linalg.norm(ordered[k] - cx)))
    idx_y = min(range(n), key=lambda k: float(np.linalg.norm(ordered[k] - cyv)))
    chain1, chain2 = [], []
    k = idx_x
    while k != idx_y:
        chain1.append(ordered[k])
        k = (k + 1) % n
    chain1.append(ordered[idx_y])
    k = idx_x
    while k != idx_y:
        chain2.append(ordered[k])
        k = (k - 1) % n
    chain2.append(ordered[idx_y])
    # z has positive b2-coordinate by construction; pick the chain there
    side1 = sum(p[1] for p in chain1)
    chain = chain1 if side1 > sum(p[1] for p in chain2) else chain2
    path = [origin + B.T @ p for p in chain]
    path[0] = x.copy()
    path[-1] = y.copy()
    return np.array(path)


# -- descent rates --------------------------------------------------------------


def descent_rate(trace, x, beta, weyl_index):
    """|one-sided derivative of the envelope at x along w . u_beta|."""
    w = trace.root_system.weyl_elements[weyl_index]
    d = w @ beta.direction
    act = trace.active_set(x)
    deriv = max(np.dot(trace.gradients[i], d) for i in act)
    return abs(float(deriv))


def is_good_slope(trace, beta, delta1):
    """Recheck the good-slope certificate against this trace's theta."""
    rs = trace.root_system
    return (
        ort_distance(rs, trace.theta, beta) > delta1
        and wall_margin(rs, beta) > delta1
    )
