"""Filling partitions: triangulated disks mapped into a host space.

A partition is combinatorial (triangles over a vertex pool) plus a
placement of every vertex.  Bricks are the placed triangles, the length
of a brick is its placed perimeter, the mesh is the maximal brick
length, and the area is the brick count.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .geometry import (
    DECISION_TOL,
    DEDUP_TOL,
    SQUARED_LENGTH_FLOOR,
    SURFACE_TOL,
    polyline_length,
    row_blocks,
    row_norms,
)

MESH_ATTEMPTS = 8  # sampling attempts per fill to reach the requested mesh


class PartitionError(ValueError):
    pass


@dataclass
class Loop:
    """Closed polygonal loop; vertices are implicitly cyclic."""

    vertices: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        if self.vertices.ndim != 2 or len(self.vertices) < 1:
            raise PartitionError("loop needs a (s, n) vertex array")

    @property
    def length(self):
        return polyline_length(np.vstack([self.vertices, self.vertices[:1]]))

    @property
    def is_constant(self):
        return bool(np.all(np.linalg.norm(self.vertices - self.vertices[0], axis=1) < DEDUP_TOL))

    def resampled(self, spacing):
        """Insert points so consecutive vertices are at most spacing apart.

        Returns the refined loop and the positions of the original
        vertices inside the refined cycle.
        """
        if spacing <= 0:
            raise PartitionError("spacing must be positive")
        v = self.vertices
        step = np.roll(v, -1, axis=0) - v
        d = row_norms(step)  # each the np.linalg.norm of the row alone
        k = np.where(d > spacing, np.ceil(d / spacing), 1).astype(int)
        pos = np.cumsum(k) - k
        seg = np.repeat(np.arange(len(v)), k)
        j = np.arange(len(seg)) - pos[seg]
        out = v[seg] + (j / k[seg])[:, None] * step[seg]
        out[pos] = v  # exact copies: a + 0 * step would turn -0.0 into 0.0
        return Loop(out), pos


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

    ``boundary_anchor`` records where the vertices of the loop that was
    filled sit inside the (possibly refined) boundary cycle: anchor k is
    the boundary position of loop vertex k.  Validation checks the
    boundary against the loop segmentwise between anchors.
    """

    points: np.ndarray
    triangles: np.ndarray
    boundary: np.ndarray
    boundary_anchor: np.ndarray
    mesh: float = field(init=False)
    census: BrickCensus = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.triangles = _indices(self.triangles, "triangle").reshape(-1, 3)
        self.boundary = _indices(self.boundary, "boundary")
        # as given, so that validation rejects non-integer anchors read from a file
        self.boundary_anchor = np.asarray(self.boundary_anchor)
        self.mesh = compute_mesh(self.points, self.triangles)

    @property
    def area(self):
        return int(len(self.triangles))

    def to_dict(self):
        """The four arrays that define the disk, by field name, as held (not copied).

        A set census goes too, as ``census``: the array [flat, wild].
        ``np.savez(path, **fp.to_dict())`` writes them at full precision
        and ``from_dict(np.load(path))`` reads them back bit for bit.
        """
        out = {
            "points": self.points,
            "triangles": self.triangles,
            "boundary": self.boundary,
            "boundary_anchor": self.boundary_anchor,
        }
        if self.census is not None:
            out["census"] = np.array([self.census.flat_bricks, self.census.wild_bricks])
        return out

    @staticmethod
    def from_dict(data):
        """The partition in a mapping of array-likes, such as an ``np.load`` of a ``.npz``."""
        fields = ("points", "triangles", "boundary", "boundary_anchor")
        for name in fields:
            if name not in data:
                raise PartitionError(f"partition has no {name}")
        fp = FillingPartition(*(data[name] for name in fields))
        if "census" in data:
            census = _indices(data["census"], "census")
            if census.shape != (2,) or np.any(census < 0) or census.sum() != fp.area:
                raise PartitionError("census must be two brick counts that add up to the area")
            fp.census = BrickCensus(*map(int, census))
        return fp


def _indices(entries, what):
    """An int array of index entries; any other dtype is an error unless empty."""
    a = np.asarray(entries)
    if a.size and a.dtype.kind not in "iu":
        raise PartitionError(f"{what} entries must be integers")
    return a.astype(int, copy=False)


def compute_mesh(points, triangles):
    """Largest brick perimeter, bricks in blocks and one coordinate column at a time.

    Each edge's squared length is summed column by column from the
    gathered coordinates, square-rooted, and the three edges are added in
    the order (0, 1) + (1, 2) + (2, 0).  This equals the maximum of
    ``norm(P[:, i] - P[:, j], axis=1)`` sums over the gathered ``(T, 3, n)``
    array bit for bit only because numpy sums such short rows in
    sequence, first coordinate first, as the columns are added here.
    The bricks go in ``row_blocks``, and the largest of the blocks'
    maxima is the maximum, exactly.
    """
    T = np.asarray(triangles, dtype=int)
    cols = np.asarray(points, dtype=float).T
    return float(np.max([_block_mesh(cols, T[rows]) for rows in row_blocks(len(T))], initial=0.0))


def _block_mesh(cols, T):
    corners = [T[:, k].copy() for k in range(3)]
    sq = np.zeros((3, len(T)))
    for col in cols:
        g = [col[c] for c in corners]
        for s, (i, j) in zip(sq, ((0, 1), (1, 2), (2, 0))):
            d = g[i] - g[j]
            d *= d
            s += d
    e0, e1, e2 = np.sqrt(sq, out=sq)
    return np.max(e0 + e1 + e2)


def edge_keys(a, b, n):
    """One integer per undirected edge {a, b} of a complex on n vertices.

    The key is min * n + max, built in one new array as
    min * (n - 1) + a + b, so no temporary of the inputs' size is made
    and the inputs are left as they are.
    """
    k = np.minimum(a, b)
    k *= n - 1
    k += a
    k += b
    return k


def _component_labels(keys, n):
    """Connected-component label of each vertex of the graph on these sorted edge keys."""
    rows, cols = np.divmod(keys, n)
    row_starts = np.zeros(n + 1, dtype=int)
    np.cumsum(np.bincount(rows, minlength=n), out=row_starts[1:])
    graph = csr_matrix((np.ones(len(keys)), cols, row_starts), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def validate_partition(loop, fp):
    """Recompute mesh and area after checking the disk invariants.

    Raises PartitionError naming the violated invariant: euler count,
    edge manifoldness, connectivity, boundary cycle, or boundary/loop
    mismatch.  The edges that lie in a single brick must be exactly the
    consecutive pairs of the declared ``fp.boundary``, a cycle of
    distinct vertices, so the rim is that one simple cycle; the anchors
    then tie it to the loop.  Returns (mesh, area).
    """
    tris = fp.triangles
    if len(tris) == 0:
        if not loop.is_constant:
            raise PartitionError("boundary mismatch: empty partition for a nonconstant loop")
        return 0.0, 0
    n = len(fp.points)
    if np.any(tris < 0) or np.any(tris >= n):
        raise PartitionError("triangle index out of range")
    a, b, c = tris.T
    if np.any((a == b) | (b == c) | (c == a)):
        raise PartitionError("degenerate triangle (repeated vertex)")
    # the sides (a, b), (b, c), (c, a) of every brick, as edge keys
    corners = tris.T.reshape(-1)
    sides = edge_keys(corners, np.roll(corners, -len(tris)), n)
    del corners
    sides.sort()
    if np.any(sides[2:] == sides[:-2]):
        raise PartitionError("edge manifoldness violated: an edge lies in >2 bricks")
    # starts[i]: sides[i] begins a run of equal keys; the extra last entry ends the last run
    starts = np.ones(len(sides) + 1, dtype=bool)
    np.not_equal(sides[1:], sides[:-1], out=starts[1:-1])
    keys = sides[starts[:-1]]  # each edge once
    used = np.bincount(tris.ravel(), minlength=n) > 0
    euler = np.count_nonzero(used) - len(keys) + len(tris)
    if euler != 1:
        raise PartitionError(f"euler check failed: V-E+F = {euler} != 1")
    boundary = fp.boundary
    if len(np.unique(boundary)) != len(boundary):
        raise PartitionError("boundary is not a single cycle")
    declared = np.sort(edge_keys(boundary, np.roll(boundary, -1), n))
    rim = sides[starts[:-1] & starts[1:]]  # runs of one: the edges of a single brick
    if not np.array_equal(declared, rim):
        raise PartitionError("boundary cycle disagrees with the declared boundary")
    labels = _component_labels(keys, n)[used]
    if np.any(labels != labels[0]):
        raise PartitionError("complex is disconnected")
    _check_anchored_boundary(loop, fp.points[boundary], fp.boundary_anchor)
    return compute_mesh(fp.points, tris), int(len(tris))


def _check_anchored_boundary(loop, got, boundary_anchor):
    """Boundary vs loop using the partition's declared vertex anchors.

    ``got`` holds the boundary placements in boundary order and the
    anchors name positions in it: distinct integers in range that
    increase around the cycle.  The placements after anchor k, up to
    anchor k + 1, must lie on loop segment k in order; the first
    offending placement, segment by segment, names the error.
    """
    anchors = np.asarray(boundary_anchor)
    want = loop.vertices
    s, nb = len(want), len(got)
    if anchors.shape != (s,):
        raise PartitionError(f"anchor shape {anchors.shape} differs from loop vertex count {s}")
    if anchors.dtype.kind not in "iu":
        raise PartitionError("boundary anchor entries must be integers")
    anchors = anchors.astype(int)
    if np.any(anchors < 0) or np.any(anchors >= nb):
        raise PartitionError(f"boundary anchor entry outside [0, {nb})")
    if len(np.unique(anchors)) != s:
        raise PartitionError("repeated boundary anchor entries")
    run = np.roll(anchors, -1) - anchors
    if np.count_nonzero(run < 0) > 1:
        raise PartitionError("boundary anchor does not increase around the cycle")
    if np.any(np.linalg.norm(got[anchors] - want, axis=1) > SURFACE_TOL):
        raise PartitionError("an anchored boundary vertex is off its loop vertex")
    run %= nb  # placements checked on segment k
    seg = np.repeat(np.arange(s), run)
    start = np.cumsum(run) - run
    p = got[(anchors[seg] + np.arange(len(seg)) - start[seg] + 1) % nb]
    w = want[seg]
    d = want[(seg + 1) % s] - w
    L2 = np.sum(d * d, axis=1)
    flat = L2 < SQUARED_LENGTH_FLOOR
    t = np.sum((p - w) * d, axis=1) / np.where(flat, 1.0, L2)
    q = w + np.clip(t, 0.0, 1.0)[:, None] * d
    t_prev = np.minimum(np.concatenate([[0.0], t]), 1.0)[:-1]
    t_prev[start[run > 0]] = 0.0
    off_flat = flat & (np.linalg.norm(p - w, axis=1) > SURFACE_TOL)
    off_loop = ~flat & (np.linalg.norm(p - q, axis=1) > SURFACE_TOL)
    backward = ~flat & (t < t_prev - DECISION_TOL)
    bad = off_flat | off_loop | backward
    if np.any(bad):
        k = int(np.argmax(bad))
        if off_flat[k]:
            raise PartitionError("refinement point off a degenerate segment")
        if off_loop[k]:
            raise PartitionError("a boundary vertex lies off the loop")
        raise PartitionError("boundary vertices do not traverse the loop in order")


class DiskBuilder:
    """Triangle-complex builder over one growing vertex array.

    Points are placed in chains, whose indices are consecutive rows of
    ``points``; bricks are rows of vertex indices in ``triangles``.
    """

    def __init__(self, dim):
        self.dim = dim
        self._pts, self._n = np.empty((0, dim)), 0
        self._tris, self._m = np.empty((0, 3), dtype=int), 0

    @property
    def points(self):
        return self._pts[: self._n]

    @property
    def triangles(self):
        return self._tris[: self._m]

    def add_chain(self, pts):
        """Append points in order; returns the array of their indices."""
        pts = np.asarray(pts, dtype=float)
        if pts.size == 0:
            return np.arange(0)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise PartitionError(f"points of shape {pts.shape} in builder of dim {self.dim}")
        first, self._n = self._n, self._n + len(pts)
        self._pts = _room(self._pts, first, self._n)
        self._pts[first : self._n] = pts
        return np.arange(first, self._n)

    def add_point(self, p):
        return int(self.add_chain(np.asarray(p, dtype=float)[None])[0])

    def add_segments(self, rows, counts, firsts, lasts):
        """Index chains along segments of counts[i] >= 2 stacked rows each.

        The end rows of segment i give way to the placed vertices
        firsts[i] and lasts[i]; the interior rows are appended, segment
        after segment.  Returns the chains stacked in one index array
        laid out like ``rows``.
        """
        counts = np.asarray(counts, dtype=int)
        last = np.cumsum(counts) - 1
        first = last - counts + 1
        idx = np.empty(len(rows), dtype=int)
        inner = np.ones(len(rows), dtype=bool)
        inner[last] = inner[first] = False
        idx[inner] = self.add_chain(np.asarray(rows)[inner])
        idx[first], idx[last] = firsts, lasts
        return idx

    def add_triangles(self, tris):
        """Append index rows, dropping degenerate ones (chains sharing an end)."""
        T = np.asarray(tris, dtype=int).reshape(-1, 3)
        keep = (T[:, 0] != T[:, 1]) & (T[:, 1] != T[:, 2]) & (T[:, 2] != T[:, 0])
        if not keep.all():
            T = T[keep]
        first, self._m = self._m, self._m + len(T)
        self._tris = _room(self._tris, first, self._m)
        self._tris[first : self._m] = T

    def add_ladder(self, chain_a, chain_b):
        """The ladder between one pair of index chains (see ``add_ladders``)."""
        self.add_ladders(chain_a, [len(chain_a)], chain_b, [len(chain_b)])

    def add_ladders(self, a, len_a, b, len_b):
        """Zip-triangulate between each pair of index chains (shared ends allowed).

        Ladder i runs between the i-th chain of the index stack ``a``,
        whose chains have the lengths ``len_a``, and the i-th chain of
        ``b``.  Chains of a pair run in the same direction, and a ladder
        takes one step, one brick, per point after the first of either
        chain.  A step picks the shorter placed diagonal, which keeps
        bricks close to the chain spacing.  Off a shared start h, the
        second step goes along the other chain: a brick (h, a1, a2) lies
        on one chain, and the ladder on that chain's other side would
        lay it too.  A step off a used-up chain is forced along the
        other chain, whatever the diagonals and the shared start say.
        Bricks come out pair by pair, each in step order.

        All ladders step in rounds, one step each per round, longest
        first: ladders are ordered by step count, so the ones still
        stepping in round r are a prefix of that order, and no ladder
        leaves it early.  One matmul decides a round: a ladder at (i, j)
        steps along chain a when its diagonal u = a[i+1] - b[j] has
        ``u @ u <= v @ v`` for v = b[j+1] - a[i].  The squared lengths
        are row-wise ``(1, d) @ (d, 1)`` products, which numpy computes
        with the same dot routine as the scalar ``u @ u``, so every bit
        is the one a per-step numpy loop picks; ``einsum`` and
        ``(u * u).sum(1)`` sum in another order and differ from it on
        about a fifth of the rows.  That bit-identity is a property of
        the numpy and BLAS in use, not a law: the tests compare every
        brick with the per-step loop.
        """
        flat_a, flat_b = np.asarray(a, dtype=int), np.asarray(b, dtype=int)
        na, nb = np.asarray(len_a, dtype=int) - 1, np.asarray(len_b, dtype=int) - 1
        off_a, off_b = np.cumsum(na + 1) - na - 1, np.cumsum(nb + 1) - nb - 1
        steps = na + nb
        first = np.cumsum(steps) - steps  # bit position of each ladder's first step
        bits = np.empty(int(steps.sum()), dtype=bool)  # True: the step goes along a
        order = np.argsort(-steps, kind="stable")
        going = np.searchsorted(-steps[order], -np.arange(steps.max(initial=0)))  # per round
        # the a-stack then the b-stack, each with one padding entry that
        # only forced steps read; g holds each ladder's current places in
        # it and end its last ones, a above b, longest ladder first
        flat = np.concatenate([flat_a, flat_a[-1:], flat_b, flat_b[-1:]])
        after, pts = flat[1:], self._pts
        g = np.stack([off_a, off_b + len(flat_a) + 1])[:, order]
        end = g + np.stack([na, nb])[:, order]
        shared = (flat_a[off_a] == flat_b[off_b])[order]
        pos = first[order]
        for r, k in enumerate(going):
            gk = g[:, :k]
            w = pts.take(after.take(gk), axis=0) - pts.take(flat.take(gk[::-1]), axis=0)  # [u; v]
            d = (w[..., None, :] @ w[..., :, None])[..., 0, 0]
            adv = d[0] <= d[1]
            if r == 1:  # off a shared start, step along the chain that stood still
                adv = np.where(shared[:k], ~bits[pos[:k]], adv)
            used = gk == end[:, :k]
            adv = (adv | used[1]) & ~used[0]
            bits[pos[:k] + r] = adv
            gk[0] += adv
            gk[1] += ~adv
        # lay the bricks in row blocks of steps, so the per-brick scratch
        # stays BLOCK bricks however large the fill.  Every ladder uses up
        # both its chains, so a step's places in the stacks are the steps
        # along each chain before it plus one point for each ladder before it
        ends = np.cumsum(steps)
        along_a = 0  # steps along a before the block
        for rows in row_blocks(len(bits)):
            block = bits[rows]
            k = np.arange(rows.start, rows.stop)
            ladder = np.searchsorted(ends, k, side="right")
            i = along_a + np.cumsum(block) - block  # steps along a
            along_a = int(i[-1] + block[-1])
            ia = ladder + i
            jb = ladder + k - i
            # a step reads only the next point of the chain it goes along;
            # clipping keeps the unread ones past the last chain in range
            tris = np.empty((len(block), 3), dtype=int)
            tris[:, 0] = flat_a[ia]
            tris[:, 1] = np.where(block, flat_a.take(ia + 1, mode="clip"), flat_b[jb])
            tris[:, 2] = np.where(block, flat_b[jb], flat_b.take(jb + 1, mode="clip"))
            self.add_triangles(tris)

    def build(self, boundary, anchor):
        """The partition on the builder's own arrays, trimmed in place: no copy.

        The builder keeps them, full, so a later add copies them first.
        """
        pts, tris = self._pts, self._tris
        del self._pts, self._tris  # the locals are then the arrays' only holders, as resize needs
        pts.resize((self._n, self.dim))
        tris.resize((self._m, 3))
        self._pts, self._tris = pts, tris
        return FillingPartition(pts, tris, boundary, anchor)


def _room(a, used, need):
    """``a``, or a copy of its first ``used`` rows with room for at least twice as many.

    The copy has room for ``need`` rows at least and leaves its rows past
    ``used`` unwritten, so memory that no row reaches is never touched.
    """
    if need <= len(a):
        return a
    out = np.empty((max(need, 2 * len(a)),) + a.shape[1:], dtype=a.dtype)
    out[:used] = a[:used]
    return out


def consecutive_ladders(chains, lens):
    """``add_ladders`` arguments for each chain of a stack and the next one.

    The stack holds the chains' indices one chain after another, and
    ``lens`` their lengths: a is every chain but the last, b every chain
    but the first.
    """
    return chains[: -lens[-1]], lens[:-1], chains[lens[0] :], lens[1:]


def cyclic_ladders(chains, lens):
    """``consecutive_ladders`` and one more ladder, from the last chain to the first."""
    return chains, lens, np.roll(chains, -lens[0]), np.roll(lens, -1)


def subdivide(points, triangles):
    """One uniform 4-way midpoint subdivision of a triangle complex.

    Midpoints are numbered after the old points in the order in which
    their edges first occur (triangle by triangle, edges ab, bc, ca).
    Returns the point and triangle arrays and ``midpoint(i, j)``, which
    maps index arrays of edge ends to the indices of the edge midpoints.
    """
    points = np.asarray(points, dtype=float)
    tris = np.asarray(triangles, dtype=int).reshape(-1, 3)
    n = len(points)
    ends = tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    keys, first, inverse = np.unique(
        edge_keys(ends[:, 0], ends[:, 1], n), return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    number = np.empty(len(keys), dtype=int)
    number[order] = n + np.arange(len(keys))
    ab, bc, ca = number[inverse].reshape(-1, 3).T
    a, b, c = tris.T
    out = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3)
    e = ends[first[order]]
    points = np.vstack([points, 0.5 * (points[e[:, 0]] + points[e[:, 1]])])

    def midpoint(i, j):
        want = edge_keys(np.asarray(i), np.asarray(j), n)
        if not np.all(np.isin(want, keys)):
            raise PartitionError("midpoint of a pair that is no edge of the complex")
        return number[np.searchsorted(keys, want)]

    return points, out, midpoint


def fill_to_mesh(build, knob, mesh, what):
    """Build until the partition meets the mesh, shrinking the knob between tries.

    ``build(knob)`` returns ``(partition, info)``.  A try that misses the
    mesh scales the knob by 0.9 * mesh / achieved; after MESH_ATTEMPTS
    misses a PartitionError naming ``what`` is raised.  Returns
    ``(partition, info, knob)`` for the try that met the mesh.
    """
    for _ in range(MESH_ATTEMPTS):
        fp, info = build(knob)
        achieved = fp.mesh
        if achieved <= mesh + DEDUP_TOL:
            return fp, info, knob
        del fp, info  # release the missed partition before the next try
        knob *= 0.9 * mesh / achieved
    raise PartitionError(
        f"{what} missed the mesh after {MESH_ATTEMPTS} attempts: {achieved} > {mesh}"
    )


def empty_partition(loop):
    """The area-zero filling of a constant loop, with its census of no bricks."""
    if not loop.is_constant:
        raise PartitionError("only constant loops admit an empty filling")
    none = np.zeros(0, dtype=int)
    return FillingPartition(
        loop.vertices[:1].copy(), none.reshape(0, 3), none, none, census=BrickCensus(0, 0)
    )
