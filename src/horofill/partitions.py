"""Filling partitions: triangulated disks mapped into a host space.

A partition is combinatorial (triangles over a vertex pool) plus a
placement of every vertex.  Bricks are the placed triangles, the length
of a brick is its placed perimeter, the mesh is the maximal brick
length, and the area is the brick count.
"""

from dataclasses import dataclass

import numpy as np


class PartitionError(ValueError):
    pass


@dataclass
class Loop:
    """Closed polygonal loop; vertices are implicitly cyclic."""

    vertices: np.ndarray
    host: object = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        if self.vertices.ndim != 2 or len(self.vertices) < 1:
            raise PartitionError("loop needs a (s, n) vertex array")

    @property
    def length(self):
        v = self.vertices
        return float(np.sum(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)))

    @property
    def is_constant(self):
        return bool(np.all(np.linalg.norm(self.vertices - self.vertices[0], axis=1) < 1e-12))

    def resampled(self, spacing, return_map=False):
        """Insert points so consecutive vertices are at most spacing apart.

        With return_map, also returns the positions of the original
        vertices inside the refined cycle.
        """
        if spacing <= 0:
            raise PartitionError("spacing must be positive")
        out = []
        orig_pos = []
        v = self.vertices
        s = len(v)
        for i in range(s):
            a, b = v[i], v[(i + 1) % s]
            orig_pos.append(len(out))
            out.append(a)
            d = float(np.linalg.norm(b - a))
            if d > spacing:
                k = int(np.ceil(d / spacing))
                for j in range(1, k):
                    out.append(a + (j / k) * (b - a))
        loop = Loop(np.array(out), host=self.host)
        if return_map:
            return loop, orig_pos
        return loop


@dataclass
class BrickCensus:
    flat_bricks: int
    wild_bricks: int

    @property
    def total(self):
        return self.flat_bricks + self.wild_bricks


@dataclass
class FillingPartition:
    """Triangulated disk with vertex placements and a boundary cycle.

    ``boundary_anchor``, when present, records where the vertices of the
    loop that was filled sit inside the (possibly refined) boundary
    cycle; validation checks the refinement against it segmentwise.
    """

    points: np.ndarray
    triangles: np.ndarray
    boundary: list
    mesh: float = None
    census: BrickCensus = None
    boundary_anchor: list = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.triangles = (
            np.asarray(self.triangles, dtype=int)
            if len(self.triangles)
            else np.zeros((0, 3), dtype=int)
        )
        if self.mesh is None and len(self.triangles):
            self.mesh = compute_mesh(self.points, self.triangles)

    @property
    def area(self):
        return int(len(self.triangles))

    def to_dict(self):
        out = {
            "points": [[round(float(c), 12) for c in p] for p in self.points],
            "triangles": [[int(i) for i in t] for t in self.triangles],
            "boundary": [int(i) for i in self.boundary],
        }
        if self.boundary_anchor is not None:
            out["boundary_anchor"] = [int(i) for i in self.boundary_anchor]
        return out

    @staticmethod
    def from_dict(data):
        return FillingPartition(
            np.array(data["points"], dtype=float),
            np.array(data["triangles"], dtype=int).reshape(-1, 3),
            [int(i) for i in data["boundary"]],
            boundary_anchor=data.get("boundary_anchor"),
        )


def compute_mesh(points, triangles):
    if len(triangles) == 0:
        return 0.0
    P = points[np.asarray(triangles, dtype=int)]
    e0 = np.linalg.norm(P[:, 0] - P[:, 1], axis=1)
    e1 = np.linalg.norm(P[:, 1] - P[:, 2], axis=1)
    e2 = np.linalg.norm(P[:, 2] - P[:, 0], axis=1)
    return float(np.max(e0 + e1 + e2))


def validate_partition(loop, fp, tol=1e-6):
    """Recompute mesh and area after checking the disk invariants.

    Raises PartitionError naming the violated invariant: euler count,
    edge manifoldness, boundary cycle shape, or boundary/loop mismatch.
    Returns (mesh, area).
    """
    tris = fp.triangles
    if len(tris) == 0:
        if not loop.is_constant:
            raise PartitionError("boundary mismatch: empty partition for a nonconstant loop")
        return 0.0, 0
    if np.any(tris < 0) or np.any(tris >= len(fp.points)):
        raise PartitionError("triangle index out of range")
    for t in tris:
        if len(set(int(i) for i in t)) != 3:
            raise PartitionError("degenerate triangle (repeated vertex)")
    edges = {}
    for t in tris:
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            key = (min(int(a), int(b)), max(int(a), int(b)))
            edges[key] = edges.get(key, 0) + 1
    if any(c > 2 for c in edges.values()):
        raise PartitionError("edge manifoldness violated: an edge lies in >2 bricks")
    used = sorted({int(i) for t in tris for i in t})
    V = len(used)
    E = len(edges)
    F = len(tris)
    if V - E + F != 1:
        raise PartitionError(f"euler check failed: V-E+F = {V - E + F} != 1")
    boundary_edges = [e for e, c in edges.items() if c == 1]
    nxt = {}
    for a, b in boundary_edges:
        nxt.setdefault(a, []).append(b)
        nxt.setdefault(b, []).append(a)
    if any(len(v) != 2 for v in nxt.values()):
        raise PartitionError("boundary is not a simple cycle")
    start = boundary_edges[0][0]
    cycle = [start]
    prev, cur = None, start
    while True:
        a, b = nxt[cur]
        nxt_v = a if a != prev else b
        if nxt_v == start:
            break
        cycle.append(nxt_v)
        prev, cur = cur, nxt_v
        if len(cycle) > len(boundary_edges) + 1:
            raise PartitionError("boundary is not a single cycle")
    if len(cycle) != len(boundary_edges):
        raise PartitionError("boundary has more than one cycle")
    # connectedness of the disk
    comp = {used[0]}
    frontier = [used[0]]
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    while frontier:
        v = frontier.pop()
        for w in adj.get(v, []):
            if w not in comp:
                comp.add(w)
                frontier.append(w)
    if len(comp) != V:
        raise PartitionError("complex is disconnected")
    # boundary placements must traverse the loop (refinement allowed)
    got = fp.points[cycle]
    if len(got) < len(loop.vertices):
        raise PartitionError(
            f"boundary mismatch: {len(got)} boundary vertices cannot refine "
            f"{len(loop.vertices)} loop vertices"
        )
    if fp.boundary_anchor is not None:
        _check_anchored_boundary(loop, fp, cycle, tol)
    else:
        _check_boundary_by_search(loop, got, tol)
    return compute_mesh(fp.points, tris), int(len(tris))


def _check_anchored_boundary(loop, fp, cycle, tol):
    """Boundary vs loop using the partition's declared vertex anchors.

    The anchors name positions inside the boundary cycle list; the
    extracted cycle may start anywhere and run either way, so align it
    to fp.boundary first.
    """
    boundary = list(fp.boundary)
    if sorted(cycle) != sorted(boundary):
        raise PartitionError("boundary cycle disagrees with the declared boundary")
    anchors = list(fp.boundary_anchor)
    want = loop.vertices
    s = len(want)
    if len(anchors) != s:
        raise PartitionError(
            f"anchor count {len(anchors)} differs from loop vertex count {s}"
        )
    nb = len(boundary)
    for k in range(s):
        p = fp.points[boundary[anchors[k]]]
        if np.linalg.norm(p - want[k]) > tol:
            raise PartitionError("an anchored boundary vertex is off its loop vertex")
    for k in range(s):
        k2 = (k + 1) % s
        a_pos, b_pos = anchors[k], anchors[k2]
        seg = want[k2] - want[k]
        L2 = float(np.dot(seg, seg))
        t_prev = 0.0
        pos = a_pos
        while pos != b_pos:
            pos = (pos + 1) % nb
            p = fp.points[boundary[pos]]
            if L2 < 1e-18:
                if np.linalg.norm(p - want[k]) > tol:
                    raise PartitionError("refinement point off a degenerate segment")
                continue
            t = float(np.dot(p - want[k], seg) / L2)
            q = want[k] + np.clip(t, 0.0, 1.0) * seg
            if np.linalg.norm(p - q) > tol:
                raise PartitionError("a boundary vertex lies off the loop")
            if t < t_prev - 1e-9:
                raise PartitionError(
                    "boundary vertices do not traverse the loop in order"
                )
            t_prev = min(t, 1.0)


def _check_boundary_by_search(loop, got, tol):
    """Alignment search for partitions without anchors (exact refinements
    are not supported here: boundary and loop must match vertexwise)."""
    want = loop.vertices
    s = len(want)
    if len(got) != s:
        raise PartitionError(
            "unanchored boundary must match the loop vertex for vertex"
        )
    for shift in range(s):
        for direction in (1, -1):
            idx = [(shift + direction * k) % s for k in range(s)]
            if np.all(np.linalg.norm(got[idx] - want, axis=1) <= tol):
                return
    raise PartitionError("boundary vertices do not traverse the loop in order")


class DiskBuilder:
    """Incremental triangle-complex builder with an explicit vertex pool."""

    def __init__(self, dim):
        self.dim = dim
        self._points = []
        self._triangles = []

    def add_point(self, p):
        p = np.asarray(p, dtype=float)
        if p.shape != (self.dim,):
            raise PartitionError(f"point of dim {p.shape} in builder of dim {self.dim}")
        self._points.append(p)
        return len(self._points) - 1

    def add_chain(self, pts):
        return [self.add_point(p) for p in pts]

    def add_triangle(self, a, b, c):
        if len({a, b, c}) != 3:
            return  # drop degenerate combinatorial triangles
        self._triangles.append((int(a), int(b), int(c)))

    def add_ladder(self, chain_a, chain_b):
        """Zip-triangulate between two index chains (shared ends allowed).

        Chains run in the same direction; advancing picks the shorter
        placed diagonal, which keeps bricks close to the chain spacing.
        """
        A, B = list(chain_a), list(chain_b)
        i = j = 0
        pts = self._points
        while i < len(A) - 1 or j < len(B) - 1:
            adv_a = i < len(A) - 1
            adv_b = j < len(B) - 1
            if adv_a and adv_b:
                da = pts[A[i + 1]] - pts[B[j]]
                db = pts[B[j + 1]] - pts[A[i]]
                adv_a = float(da @ da) <= float(db @ db)
            if adv_a:
                self.add_triangle(A[i], A[i + 1], B[j])
                i += 1
            else:
                self.add_triangle(A[i], B[j], B[j + 1])
                j += 1

    def build(self, boundary, mesh=None, anchor=None):
        fp = FillingPartition(
            np.array(self._points) if self._points else np.zeros((0, self.dim)),
            np.array(self._triangles, dtype=int).reshape(-1, 3),
            list(boundary),
            mesh=mesh,
            boundary_anchor=list(anchor) if anchor is not None else None,
        )
        return fp


def subdivide(points, triangles):
    """One uniform 4-way midpoint subdivision of a triangle complex.

    Returns the point and triangle lists and ``midpoint``, the dict from
    each sorted edge (i, j) to the index of its new midpoint vertex.
    """
    points = list(points)
    midpoint = {}

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            points.append(0.5 * (points[i] + points[j]))
            midpoint[key] = len(points) - 1
        return midpoint[key]

    tris = []
    for a, b, c in triangles:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        tris.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
    return points, tris, midpoint


def empty_partition(loop):
    """The area-zero filling of a constant loop."""
    if not loop.is_constant:
        raise PartitionError("only constant loops admit an empty filling")
    return FillingPartition(
        loop.vertices[:1].copy(), np.zeros((0, 3), dtype=int), [], mesh=0.0
    )
