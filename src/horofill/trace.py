"""Piecewise-linear convex Busemann traces on a single apartment.

A trace is an upper envelope of affine pieces whose gradients all lie in
one Weyl orbit (the orbit of the opposition image of the defining slope).
Sublevel sets model the horoball trace on the apartment; the argmin
polytope models the minimum set; level projection and the corner path
construction live here.

A trace is evaluated by ``value``, at one point or at each row of an
array, the same bits either way.  What depends on the gradients alone
(a trace's piece indices, the boundedness of its envelope and sublevel
sets read off the hull of the gradients, and the least dihedral angle
behind the Fetze constant) is one record in the root system's slope
memo, keyed by the gradient bytes and built when a trace first brings
those gradients, so every trace with byte-equal gradients on a slope
(its translated, scaled and shifted copies, the slope's symmetric
traces) computes each once.  The minimum value depends on the offsets:
one epigraph LP in ``min_set``, cached on the trace.  ``linprog`` hands
it, like every LP of the package, to one reused HiGHS solver (the solve
of scipy's ``linprog(method="highs")``, bit for bit, without its
per-call wrapper or a solver built per call).
The argmin polytope is built from the minimum value on its first read.
A bounded sublevel polytope decides its own emptiness from its vertices;
only ``min_set``, ``level_project``, unbounded systems and cuts within
HV_TOL of the minimum read the minimum value.  So a trace solves at most
one LP, and none if it is only cut into bounded sublevel sets away from
its minimum.
"""

from functools import cached_property

import numpy as np
from scipy import sparse

# HiGHS through the bindings that scipy's ``linprog(method="highs")``
# calls (``_linprog_highs`` -> ``_highs_wrapper``).  scipy has no public
# API to them, and its wrapper costs several times the solve; the module
# is private, so pyproject.toml asks for the scipy it was checked on.
from scipy.optimize._highspy import _core as highs

from .coxeter import Slope, delta_zero, root_system_from_descriptor, slope_facts
from .geometry import (
    CHORD_TOL,
    DECISION_TOL,
    DEDUP_TOL,
    HV_TOL,
    SURFACE_TOL,
    ProjectionError,
    VPolytope,
    dedup_rows,
    enumerate_vertices,
    matvec,
    project_to_polytope,
    row_norms,
    unit,
)


class TraceError(ValueError):
    pass


class BusemannTrace:
    """Upper envelope max_i (<x, g_i> + c_i) with orbit-constrained g_i."""

    def __init__(self, root_system, theta, gradients, offsets):
        G = np.asarray(gradients, dtype=float)
        c = np.asarray(offsets, dtype=float)
        if G.ndim != 2 or G.shape[1] != root_system.rank:
            raise TraceError("gradients must be (m, rank)")
        if len(c) != len(G):
            raise TraceError("offsets must match gradients")
        if not 1 <= len(G) <= root_system.order:
            raise TraceError(f"piece count {len(G)} outside [1, {root_system.order}]")
        facts = slope_facts(root_system, theta)
        key = G.tobytes()
        record = facts.pieces.get(key)
        if record is None:
            record = facts.pieces[key] = (
                _orbit_indices(facts.orbit, G),
                _gordan(G),
                _min_dihedral_angle(G),
            )
        self.root_system = root_system
        self.theta = theta
        self.orbit = facts.orbit
        self.gradients = G
        self.offsets = c
        # shared by every trace on these gradients: see the module docstring
        self.piece_orbit_indices, gordan, self._dihedral = record
        self._bounded_below, self._sublevels_bounded = gordan
        self._min_set = None

    # -- evaluation -------------------------------------------------------

    def value(self, x):
        """The envelope at the point x (a float), or at each row of x (an array).

        Each row's value is that of the row alone, bit for bit (``matvec``).
        """
        v = np.max(matvec(self.gradients, np.asarray(x, dtype=float)) + self.offsets, axis=-1)
        return float(v) if v.ndim == 0 else v

    # -- transforms -------------------------------------------------------

    def translated(self, t0):
        """Trace of x -> value(x - t0)."""
        t0 = np.asarray(t0, dtype=float)
        return BusemannTrace(
            self.root_system, self.theta, self.gradients, self.offsets - self.gradients @ t0
        )

    def scaled(self, lam):
        """Similarity by factor lam: value_lam(x) = lam * value(x / lam)."""
        if lam <= 0:
            raise TraceError("similarity factor must be positive")
        return BusemannTrace(self.root_system, self.theta, self.gradients, lam * self.offsets)

    def shifted(self, delta):
        """Add a constant to the envelope."""
        return BusemannTrace(self.root_system, self.theta, self.gradients, self.offsets + delta)

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
        """The trace ``to_dict`` wrote, bit for bit.

        A stored direction within HV_TOL of unit length is kept as it is
        (normalizing a unit vector again can move it by an ulp); one
        farther from unit is normalized.
        """
        rs = root_system_from_descriptor(data["root_system"])
        v = np.asarray(data["theta"], dtype=float)
        if abs(np.linalg.norm(v) - 1.0) <= HV_TOL:
            theta = Slope(v, rs.chamber_certificate(v))
        else:
            theta = rs.slope(v)
        orbit = slope_facts(rs, theta).orbit
        pieces = [(int(i), float(c)) for i, c in data["pieces"]]
        for i, _ in pieces:
            if not 0 <= i < len(orbit):
                raise TraceError(f"piece index {i} outside [0, {len(orbit)})")
        return BusemannTrace(rs, theta, [orbit[i] for i, _ in pieces], [c for _, c in pieces])


def _orbit_indices(orbit, G):
    """Index of each unit gradient's first orbit row within HV_TOL."""
    if np.any(np.abs(np.linalg.norm(G, axis=1) - 1.0) > HV_TOL):
        raise TraceError("gradients must be unit vectors")
    near = np.linalg.norm(G[:, None, :] - orbit[None, :, :], axis=2) <= HV_TOL
    if not near.any(axis=1).all():
        raise TraceError("vector is not in the orbit")
    return near.argmax(axis=1).tolist()


def symmetric_trace(rs, theta):
    """Full-orbit envelope with zero offsets (W-invariant)."""
    orbit = slope_facts(rs, theta).orbit
    return BusemannTrace(rs, theta, orbit, np.zeros(len(orbit)))


# -- sublevel polytopes ------------------------------------------------------


def horoball_polytope(trace, t):
    """Sublevel set {value <= t} as a polytope, from the cached trace facts.

    A bounded sublevel set (the gradients' ``_gordan`` outcome says so) is decided
    empty or not by its own vertices, with no LP: no vertex means empty,
    and a vertex centroid inside every halfspace by HV_TOL*max(1, |t|)
    means nonempty.  Cuts within that margin of the minimum (among them
    ``min_set``'s own cut at the minimum) and unbounded systems fall
    back to the cached minimum value: empty iff ``t < min_value``.
    """
    G, b = trace.gradients, t - trace.offsets
    verts = enumerate_vertices(G, b)
    bounded = trace._sublevels_bounded
    margin = HV_TOL * max(1.0, abs(t))
    if bounded and not verts:
        is_empty = True
    elif bounded and np.all(b - G @ np.mean(verts, axis=0) >= margin):
        is_empty = False
    else:
        ms = min_set(trace)
        is_empty = ms.bounded_below and t < ms.min_value
    return VPolytope.from_halfspaces(G, b, verts, is_empty, bounded)


class MinSetResult:
    """The envelope's minimum, cached on its trace.

    ``polytope``, the argmin polytope (None when the envelope is
    unbounded below), is the sublevel polytope at ``min_value``, built on
    its first read and kept: every reader gets the same object, and a
    reader of ``min_value`` alone builds none.
    """

    def __init__(self, trace, bounded_below, min_value=None, sublevels_bounded=False):
        self._trace = trace
        self.bounded_below = bounded_below
        self.min_value = min_value
        self.sublevels_bounded = sublevels_bounded

    @cached_property
    def polytope(self):
        return horoball_polytope(self._trace, self.min_value) if self.bounded_below else None


def min_set(trace):
    """The envelope's minimum, argmin polytope and boundedness (``MinSetResult``).

    Cached on the trace.  Boundedness comes from the gradient hull
    (``_gordan``); the epigraph LP min s subject to <x, g_i> + c_i <= s,
    the one LP a trace solves (through ``linprog``), gives the minimum
    value.  ``level_project`` and the sublevel sets that
    ``horoball_polytope`` cannot decide from their vertices (unbounded
    ones, and bounded ones within HV_TOL of the minimum) ask for it too.
    """
    if trace._min_set is None:
        if not trace._bounded_below:
            trace._min_set = MinSetResult(trace, False)
        else:
            m = len(trace.gradients)
            x, _ = linprog(
                np.concatenate([np.zeros(trace.root_system.rank), [1.0]]),
                np.hstack([trace.gradients, -np.ones((m, 1))]),
                -trace.offsets,
            )
            trace._min_set = MinSetResult(trace, True, float(x[-1]), trace._sublevels_bounded)
    return trace._min_set


# What ``linprog(method="highs")`` sets at its defaults, passed once to
# the one solver every LP of the package runs on.
_HIGHS_OPTIONS = highs.HighsOptions()
_HIGHS_OPTIONS.presolve = "on"
_HIGHS_OPTIONS.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_HIGHS_OPTIONS.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
_HIGHS_OPTIONS.output_flag = False
_HIGHS_OPTIONS.log_to_console = False
_SOLVER = highs._Highs()
_SOLVER.passOptions(_HIGHS_OPTIONS)

# scipy's ``_check_result`` tolerance at its default ``tol`` of 1e-9.
_LP_TOL = np.sqrt(1e-9) * 10


class LPError(TraceError):
    """An LP ``linprog`` did not solve; ``status`` names the HiGHS model status, if that failed."""

    def __init__(self, message, status=None):
        super().__init__(message)
        self.status = status


def linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(None, None)):
    """(x, objective) minimizing c @ x subject to A_ub @ x <= b_ub, A_eq @ x = b_eq.

    The arguments are those of ``scipy.optimize.linprog``: ``bounds`` is
    one (lower, upper) pair for every variable or one pair per variable,
    None for no bound; a sparse ``A_eq`` is taken as it is.  The solve is
    that ``linprog(..., method="highs")``'s, bit for bit: the same
    options and the same column-wise model (zeros of a dense matrix
    dropped, as ``csc_array`` does) on one solver, whose model, basis and
    solution ``clearModel`` wipes before each solve, so no solve
    warm-starts from another.  Raises ``LPError`` where that ``linprog``
    would report failure: a model status other than optimal, a NaN in x,
    or a row or bound violated by more than ``_LP_TOL``.
    """
    c = np.asarray(c, dtype=float)
    n = len(c)
    blocks = [(A, rhs) for A, rhs in ((A_ub, b_ub), (A_eq, b_eq)) if A is not None]
    b = np.concatenate([np.asarray(rhs, dtype=float) for _, rhs in blocks])
    m = len(b)
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    if any(sparse.issparse(A) for A, _ in blocks):
        A = sparse.csc_array(sparse.vstack([sparse.coo_array(A) for A, _ in blocks]))
        lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = A.indptr, A.indices, A.data
    else:
        At = np.vstack([np.asarray(A, dtype=float) for A, _ in blocks]).T
        nonzero = At != 0
        lp.a_matrix_.start_ = np.concatenate([[0], np.cumsum(nonzero.sum(axis=1))])
        lp.a_matrix_.index_ = np.nonzero(nonzero)[1]
        lp.a_matrix_.value_ = At[nonzero]
    lower, upper = np.array(bounds, dtype=float).reshape(-1, 2).T  # None reads NaN
    lower = np.broadcast_to(np.where(np.isnan(lower), -np.inf, lower), n)
    upper = np.broadcast_to(np.where(np.isnan(upper), np.inf, upper), n)
    m_ub = 0 if A_ub is None else len(b_ub)
    lp.col_cost_ = c
    lp.col_lower_, lp.col_upper_ = lower, upper
    lp.row_lower_ = np.concatenate([np.full(m_ub, -np.inf), b[m_ub:]])
    lp.row_upper_ = b
    _SOLVER.clearModel()
    _SOLVER.passModel(lp)
    _SOLVER.run()
    status = _SOLVER.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        name = _SOLVER.modelStatusToString(status)
        raise LPError(f"LP not solved: HiGHS model status {name}", name)
    solution = _SOLVER.getSolution()
    x = np.array(solution.col_value)
    fun = _SOLVER.getObjectiveValue()
    residual = b - np.array(solution.row_value)
    if not (
        np.all(residual[:m_ub] >= -_LP_TOL)
        and np.all(np.abs(residual[m_ub:]) <= _LP_TOL)
        and np.all((x >= lower - _LP_TOL) & (x <= upper + _LP_TOL))
        and not np.isnan(fun)
    ):
        raise LPError("LP solution violates its rows or bounds beyond the solver tolerance")
    return x, fun


def _gordan(G):
    """(bounded_below, sublevels_bounded) of any envelope with gradients G.

    By Gordan's alternative the envelope is bounded below iff 0 lies in
    the hull H of the gradients; its sublevel sets, whose recession cone
    is {d : G d <= 0}, are bounded iff 0 is inside H by more than DECISION_TOL.
    """
    H = VPolytope(G)
    origin = np.zeros(G.shape[1])
    slack = H.bounds - H.normals @ H.to_span(origin)
    return H.contains(origin), bool(H.codim == 0 and np.all(slack > DECISION_TOL))


# -- level projection ---------------------------------------------------------


def level_project(trace, x, t):
    """Projection of x, or of each row of x, onto the sublevel set {value <= t}.

    The returned point y is the nearest point of the sublevel polytope;
    the open segment (y, x] stays outside the sublevel set, and
    d(x, y) <= (s - t)/sin(delta0) for horoball-realizable traces.
    Each row's value is ``trace.value`` of that row, bit for bit.
    """
    x = np.asarray(x, dtype=float)
    X = x.reshape(-1, x.shape[-1])
    out = X.copy()
    far = ~(trace.value(X) <= t + DECISION_TOL)
    if far.any():
        ms = min_set(trace)
        if ms.bounded_below and t < ms.min_value:
            raise ProjectionError(f"sublevel set at t={t} is empty")
        out[far] = project_to_polytope(trace.gradients, t - trace.offsets, X[far])
    return out.reshape(x.shape)


def projection_bound(trace, s, t):
    """The contract bound (s - t)/sin(delta0) for this trace's slope."""
    prof = delta_zero(trace.root_system, trace.theta)
    if prof.degenerate:
        raise TraceError("factor-parallel slope: projection bound undefined")
    return (s - t) / np.sin(prof.delta0)


# -- corner paths (non-parallel faces) -----------------------------------------


class FacetsParallel(ValueError):
    pass


def min_dihedral_angle(trace):
    """Minimal unoriented angle between distinct piece hyperplanes, from the slope memo."""
    return trace._dihedral


def _min_dihedral_angle(G):
    """Read off one Gram matrix of the unit gradients; parallel pairs have no corner."""
    U = G / row_norms(G)[:, None]
    phi = np.arccos(np.clip(U @ U.T, -1.0, 1.0))[np.triu_indices(len(U), 1)]
    phi = phi[(phi >= DECISION_TOL) & (np.abs(np.pi - phi) >= DECISION_TOL)]
    return float(np.min(np.minimum(phi, np.pi - phi), initial=np.pi))


def fetze_constant(trace):
    """Path-length constant 1/sin(varsigma/2)."""
    return 1.0 / np.sin(min_dihedral_angle(trace) / 2.0)


def _facets_at(trace, x, t):
    vals = trace.gradients @ np.asarray(x, dtype=float) + trace.offsets
    if abs(np.max(vals) - t) > SURFACE_TOL:
        raise TraceError(
            f"point is not on the level-{t} boundary (value {np.max(vals):.6g})"
        )
    return np.flatnonzero(np.abs(vals - t) <= SURFACE_TOL)


def face_pair_path(trace, t, x, y):
    """Polyline from x to y along the level set, around the facet corner.

    x and y must lie on two non-parallel facets of the sublevel polytope
    at level t; the polyline stays on {value = t} with length at most
    fetze_constant(trace) * d(x, y).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.linalg.norm(x - y) <= DEDUP_TOL:
        return np.array([x])
    fx, fy = _facets_at(trace, x, t), _facets_at(trace, y, t)
    G = trace.gradients
    # the first non-parallel pair (i, j) of fx x fy in row-major order
    corner = (np.abs(G[fx] @ G[fy].T) < 1.0 - DECISION_TOL) & (fx[:, None] != fy)
    if not corner.any():
        raise FacetsParallel("points lie only on parallel (or equal) facets")
    a, b = np.unravel_index(np.argmax(corner), corner.shape)
    gi, gj = fx[a], fy[b]
    G2 = G[[gi, gj]]
    rhs = np.array([t - trace.offsets[gi], t - trace.offsets[gj]])
    z0, *_ = np.linalg.lstsq(G2, rhs, rcond=None)
    _, _, vt = np.linalg.svd(G2)
    null = vt[2:]  # basis of the corner H cap H'
    xa = z0 + null.T @ (null @ (x - z0))
    ya = z0 + null.T @ (null @ (y - z0))
    hx = float(np.linalg.norm(x - xa))
    hy = float(np.linalg.norm(y - ya))
    if hx + hy < DEDUP_TOL:
        z = 0.5 * (xa + ya)
    else:
        z = xa + (hx / (hx + hy)) * (ya - xa)
    return _walk_level_polygon(trace, t, x, y, z)


def _walk_level_polygon(trace, t, x, y, z):
    """Boundary walk of (plane xyz) cap sublevel, on the z-side of xy.

    One angular order of the polygon's vertices, x and y; the two arcs
    from x to y are index ranges of it.
    """
    origin = x
    b1 = unit(y - x)
    z_perp = (z - origin) - np.dot(z - origin, b1) * b1
    if np.linalg.norm(z_perp) < CHORD_TOL:
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
    pts = np.array(dedup_rows([cx, cyv] + pts2, tol=DECISION_TOL))
    rel = pts - np.mean(pts, axis=0)
    ordered = pts[np.argsort(np.arctan2(rel[:, 1], rel[:, 0]), kind="stable")]
    n = len(ordered)
    ix = np.argmin(row_norms(ordered - cx))
    iy = np.argmin(row_norms(ordered - cyv))
    forward = (ix + np.arange((iy - ix) % n + 1)) % n
    backward = (ix - np.arange((ix - iy) % n + 1)) % n
    # z has positive b2-coordinate by construction; pick the arc there
    arc = forward if sum(ordered[forward, 1]) > sum(ordered[backward, 1]) else backward
    path = origin + matvec(B.T, ordered[arc])
    path[[0, -1]] = x, y
    return path
