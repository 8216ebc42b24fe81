"""Finite reflection groups of type A and products of A factors.

Everything is realized concretely in Euclidean coordinates: simple roots
come from a Cholesky factorization of the type-A Gram matrix, the group
is generated by reflection matrices, and the closed fundamental chamber
is the cone spanned by the dual (coweight) basis.  Slopes are unit
directions in that closed chamber.  Each root system keeps what depends
on a slope alone (the Weyl orbit of its opposition image, its wall-gap
profile, and per gradient set the orbit indices, boundedness and least
dihedral angle of the traces on it) in one memo of plain data, so each
is computed once.
"""

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    DECISION_TOL,
    DEDUP_TOL,
    HV_TOL,
    dedup_rows,
    matvec,
    project_to_polytope,
    row_norms,
    unit,
)

MAX_RANK = 5  # total rank of a root system: A5 has order 720


class UnsupportedRootSystem(ValueError):
    pass


def _gram_a(n):
    g = 2.0 * np.eye(n)
    for i in range(n - 1):
        g[i, i + 1] = g[i + 1, i] = -1.0
    return g


def _simple_roots_a(n):
    # rows are the simple roots, realized in E^n via the Gram factorization
    return np.linalg.cholesky(_gram_a(n))


def _reflection(normal):
    n = unit(normal)
    return np.eye(len(n)) - 2.0 * np.outer(n, n)


@dataclass(frozen=True)
class Slope:
    """Unit direction in the closed fundamental chamber.

    ``chamber_certificate`` stores the minimal inner product with the
    simple roots; validity requires it to be >= -DECISION_TOL.
    """

    direction: np.ndarray
    chamber_certificate: float

    def __post_init__(self):
        object.__setattr__(self, "direction", np.asarray(self.direction, dtype=float))
        if abs(np.linalg.norm(self.direction) - 1.0) > HV_TOL:
            raise ValueError("slope direction must be a unit vector")
        if self.chamber_certificate < -DECISION_TOL:
            raise ValueError(
                "direction lies outside the closed fundamental chamber "
                f"(certificate {self.chamber_certificate:.3e})"
            )


class RootSystem:
    """Type-A root system or an orthogonal product of A factors."""

    def __init__(self, family, rank, factors, simple_roots):
        self.family = family
        self.rank = rank
        self.factors = list(factors)
        self.simple_roots = np.asarray(simple_roots, dtype=float)
        self._validate_cartan()
        self.weyl_elements = self._generate_group()
        # coweights[i] satisfies <coweights[i], simple_roots[j]> = delta_ij
        self.coweights = np.linalg.inv(self.simple_roots).T
        expected = _expected_order(self.factors)
        if len(self.weyl_elements) != expected:
            raise AssertionError(
                f"group order {len(self.weyl_elements)} != expected {expected}"
            )
        self._slope_memo = {}  # slope direction bytes -> SlopeFacts

    # -- construction ---------------------------------------------------

    def _validate_cartan(self):
        r = self.rank
        roots = self.simple_roots
        if np.linalg.matrix_rank(roots) != r:
            raise UnsupportedRootSystem("simple roots must be linearly independent")
        gram = roots @ roots.T
        expected = np.zeros((r, r))
        pos = 0
        for f in self.factors:
            block = _gram_a(f)
            expected[pos : pos + f, pos : pos + f] = block
            pos += f
        if not np.allclose(gram, expected, atol=DECISION_TOL):
            raise UnsupportedRootSystem("Cartan data does not match the declared family")

    def _generate_group(self):
        gens = [_reflection(r) for r in self.simple_roots]
        seen = {}
        frontier = [np.eye(self.rank)]

        def _key(m):
            return (np.round(m, 10) + 0.0).tobytes()  # +0.0 kills -0.0

        seen[_key(frontier[0])] = frontier[0]
        while frontier:
            nxt = []
            for w in frontier:
                for g in gens:
                    wg = g @ w
                    k = _key(wg)
                    if k not in seen:
                        seen[k] = wg
                        nxt.append(wg)
            frontier = nxt
        elems = list(seen.values())
        elems.sort(key=lambda m: tuple(np.round(m, 10).ravel()))
        return np.array(elems)

    # -- basic queries ---------------------------------------------------

    @property
    def order(self):
        return len(self.weyl_elements)

    def chamber_certificate(self, v):
        return float(np.min(self.simple_roots @ np.asarray(v, dtype=float)))

    def in_chamber(self, v, tol=DECISION_TOL):
        return self.chamber_certificate(v) >= -tol

    def slope(self, v):
        v = unit(v)
        return Slope(v, self.chamber_certificate(v))

    def to_descriptor(self):
        if self.family == "A":
            return {"family": "A", "rank": self.rank}
        return {"family": "product", "factors": list(self.factors)}


def _expected_order(factors):
    return math.prod(math.factorial(f + 1) for f in factors)


def build_root_system(family, rank=None, factors=None):
    """Construct a validated root system.

    ``family`` is "A" (irreducible, rank >= 2) or "product" with a list
    of A-factor ranks (each >= 1), e.g. factors=[1, 1] for A1 x A1.
    """
    if family == "A":
        if rank is None or rank < 2:
            raise UnsupportedRootSystem("A-type requires rank >= 2")
        factors = [rank]
    elif family == "product":
        if not factors:
            raise UnsupportedRootSystem("product family requires a factor list")
        if any(f < 1 for f in factors):
            raise UnsupportedRootSystem("factor ranks must be >= 1")
        if len(factors) < 2:
            raise UnsupportedRootSystem("a product needs at least two factors")
    else:
        raise UnsupportedRootSystem(f"unsupported family {family!r}")
    total = sum(factors)
    if total > MAX_RANK:
        raise UnsupportedRootSystem(f"rank {total} beyond supported range (rank <= {MAX_RANK})")
    roots = np.zeros((total, total))
    pos = 0
    for f in factors:
        roots[pos : pos + f, pos : pos + f] = _simple_roots_a(f)
        pos += f
    return RootSystem(family, total, factors, roots)


def root_system_from_descriptor(desc):
    if desc.get("family") == "A":
        return build_root_system("A", rank=int(desc["rank"]))
    if desc.get("family") == "product":
        return build_root_system("product", factors=[int(f) for f in desc["factors"]])
    raise UnsupportedRootSystem(f"bad descriptor {desc!r}")


# -- orbits and slopes -----------------------------------------------------


def weyl_orbit(rs, v):
    """Orbit of a unit vector under the group, in canonical (sorted) order."""
    v = unit(v)
    pts = [w @ v for w in rs.weyl_elements]
    orbit = dedup_rows(pts, tol=DECISION_TOL)
    orbit.sort(key=lambda p: tuple(np.round(p, 9)))
    return orbit


def project_to_chamber(rs, v):
    """The unique orbit representative in the closed fundamental chamber."""
    x = unit(v)
    for _ in range(20 * rs.order):
        prods = rs.simple_roots @ x
        i = int(np.argmin(prods))
        if prods[i] >= -DECISION_TOL:
            return Slope(unit(x), float(prods[i]))
        x = _reflection(rs.simple_roots[i]) @ x
    raise RuntimeError("chamber projection did not terminate")


def opposition_image(rs, theta):
    """Image of a slope under the opposition involution (chamber rep of -u)."""
    return project_to_chamber(rs, -theta.direction)


@dataclass
class SlopeFacts:
    """What a root system knows about one slope, computed once.

    ``orbit`` is the Weyl orbit of the opposition image as a read-only
    (k, rank) array in ``weyl_orbit`` order.  ``profile`` (the
    ``delta_zero`` data) is filled in on first use.  ``pieces`` is the
    memo ``trace`` keeps of what a gradient set alone decides, keyed by
    the bytes of the gradient array.
    """

    orbit: np.ndarray
    profile: "OrtProfile" = None
    pieces: dict = field(default_factory=dict)


def slope_facts(rs, theta):
    """The memoized facts of a slope, keyed by its direction's bytes."""
    key = theta.direction.tobytes()
    facts = rs._slope_memo.get(key)
    if facts is None:
        orbit = np.array(weyl_orbit(rs, opposition_image(rs, theta).direction))
        orbit.flags.writeable = False
        facts = rs._slope_memo[key] = SlopeFacts(orbit)
    return facts


def ort_distance(rs, theta, beta):
    """min over the group of |pi/2 - angle(u_beta, w u_theta)|.

    For unit vectors |pi/2 - angle(u, v)| = |arcsin(u . v)|, taken over
    the Weyl images of u_theta stacked in one product.  Zero exactly
    when beta lies in the set of orthogonals of theta.
    """
    cos = matvec(rs.weyl_elements, unit(theta.direction)) @ unit(beta.direction)
    return float(np.min(np.abs(np.arcsin(np.clip(cos, -1.0, 1.0)))))


# -- wall distances and the gap around pi/2 --------------------------------


def wall_distances(rs, theta):
    """The finite set D(theta): distances from orbit points to all walls.

    A proper chamber face J, the cone of the coweights w_j (j in J), is
    {x in span(w_J) : alpha_j . x >= 0}; the orbit points go onto it in
    one call of the exact projection.  A nonzero foot y lies at the angle
    atan2(|p - y|, |y|) from p; a zero foot puts p in the polar cone,
    nearest the ray g with the largest p . g, at 2 atan2(|p - g|, |p + g|).
    """
    P = np.array(weyl_orbit(rs, theta.direction))
    rays = rs.coweights / row_norms(rs.coweights)[:, None]
    raw = []
    for size in range(1, rs.rank):
        for J in map(list, itertools.combinations(range(rs.rank), size)):
            B = np.linalg.qr(rs.coweights[J].T)[0].T
            Y = matvec(B.T, project_to_polytope(-rs.simple_roots[J] @ B.T, np.zeros(size), P @ B.T))
            feet = row_norms(Y)
            g = rays[J][np.argmax(P @ rays[J].T, axis=1)]
            polar = 2.0 * np.arctan2(row_norms(P - g), row_norms(P + g))
            raw += np.where(feet > DECISION_TOL, np.arctan2(row_norms(P - Y), feet), polar).tolist()
    raw.sort()
    dists = []
    for d in raw:
        if not dists or d - dists[-1] > DECISION_TOL:
            dists.append(d)
    return dists


@dataclass(frozen=True)
class OrtProfile:
    """Wall-gap data for a slope: the gaps below and above pi/2."""

    theta: Slope
    distances: tuple
    delta0: float
    delta0_prime: float
    degenerate: bool


def delta_zero(rs, theta):
    """Gaps of D(theta) around pi/2.

    delta0 = pi/2 - max{d in D : 0 < d < pi/2}, delta0' symmetric above.
    Degenerate (factor-parallel slope) when no element lies strictly
    between 0 and pi/2.  Computed once per slope direction.
    """
    facts = slope_facts(rs, theta)
    if facts.profile is None:
        facts.profile = _ort_profile(rs, theta)
    prof = facts.profile
    return prof if prof.theta is theta else replace(prof, theta=theta)


def _ort_profile(rs, theta):
    dists = wall_distances(rs, theta)
    below = [d for d in dists if DECISION_TOL < d < np.pi / 2 - DECISION_TOL]
    above = [d for d in dists if d > np.pi / 2 + DECISION_TOL]
    if not below:
        return OrtProfile(theta, tuple(dists), float("nan"), float("nan"), True)
    d0 = np.pi / 2 - max(below)
    d0p = (min(above) - np.pi / 2) if above else np.pi / 2
    return OrtProfile(theta, tuple(dists), float(d0), float(d0p), False)


def wall_margin(rs, beta):
    """Spherical distance from a slope in the closed chamber to its boundary.

    The closed chamber is the simplicial cone {alpha_i . x >= 0}, so the
    distance is min_i arcsin(alpha_i . u / |alpha_i|), clamped at 0 for
    a slope on a wall within rounding.
    """
    sines = rs.simple_roots @ unit(beta.direction) / np.linalg.norm(rs.simple_roots, axis=1)
    return float(np.arcsin(np.clip(np.min(sines), 0.0, 1.0)))


# -- good slopes ------------------------------------------------------------

SLOPE_GRID = 9  # coweight-coefficient grid steps per unit of the slope search
SLOPE_REFINE_ROUNDS = 3  # local refinements around the best grid slope


@dataclass
class SlopeSearchResult:
    found: bool
    slope: Slope = None
    margin: float = 0.0
    resolution: int = 0


def find_good_slope(rs, theta, delta1):
    """Search the chamber for beta with both margins above delta1.

    Margins: distance to the orthogonal set of theta, and distance to the
    chamber boundary (the regular-slope condition).  Grid over coweight
    coefficients plus local refinement; an explicit not-found result
    reports the resolution searched.
    """
    if delta1 <= 0:
        raise ValueError("delta1 must be positive")

    def margin_of(direction):
        beta = rs.slope(direction)
        return min(ort_distance(rs, theta, beta), wall_margin(rs, beta)), beta

    best_m, best_beta = -np.inf, None
    for coef in _simplex_grid(rs.rank, SLOPE_GRID):
        direction = coef @ rs.coweights
        n = np.linalg.norm(direction)
        if n < DEDUP_TOL:
            continue
        m, beta = margin_of(direction / n)
        if m > best_m:
            best_m, best_beta = m, beta
    center = best_beta.direction
    step = 1.0 / SLOPE_GRID
    for _ in range(SLOPE_REFINE_ROUNDS):
        step *= 0.5
        for coef in _simplex_grid(rs.rank, 4):
            direction = center + step * ((coef - coef.mean()) @ rs.coweights)
            n = np.linalg.norm(direction)
            if n < DEDUP_TOL or not rs.in_chamber(direction / n, tol=0.0):
                continue
            m, beta = margin_of(direction / n)
            if m > best_m:
                best_m, best_beta = m, beta
                center = beta.direction
    if best_m > delta1:
        return SlopeSearchResult(True, best_beta, float(best_m), SLOPE_GRID)
    return SlopeSearchResult(False, None, float(best_m), SLOPE_GRID)


def _simplex_grid(dim, n):
    """Rows of barycentric grid points (compositions of n into dim parts, over n)."""
    heads = [c for c in itertools.product(range(n + 1), repeat=dim - 1) if sum(c) <= n]
    return np.array([c + (n - sum(c),) for c in heads], dtype=float) / n
